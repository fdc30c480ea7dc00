import functools
import math
import random
import signal
import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fptmix import unisets
from fptmix.core import BudgetExceededError, FptMixError, ParameterError
from fptmix.unisets import (
    UniversalSet,
    VerifyResult,
    build_universal,
    constraint_count,
    verify_universal,
)


def iter_constraints(n: int, k: int, p: int):
    """Yield (I, ones, X_mask, Y_mask) in lexicographic (I, ones) order."""
    for I in combinations(range(n), k):
        for ones in combinations(I, p):
            x = 0
            for i in ones:
                x |= 1 << i
            y = 0
            for i in I:
                y |= 1 << i
            y &= ~x
            yield I, ones, x, y


def test_single_constraint_111():
    u = build_universal(1, 1, 1)
    assert u.functions == (1,)
    assert verify_universal(u).valid


def test_vacuous_k0():
    u = build_universal(5, 0, 0)
    assert len(u.functions) == 1
    assert verify_universal(u).valid


def test_invalid_family_reports_first_witness():
    u = UniversalSet(2, 1, 1, (0,))  # all-zeros cannot put a one anywhere
    res = verify_universal(u)
    assert not res.valid
    assert res.violation == ((0,), (0,))


def test_greedy_421_minimal_by_exhaustion():
    u = build_universal(4, 2, 1)
    assert verify_universal(u).valid
    s = len(u.functions)
    # no smaller family over all 2^4 candidate functions is valid
    for size in range(1, s):
        for combo in combinations(range(16), size):
            if verify_universal(UniversalSet(4, 2, 1, combo)).valid:
                pytest.fail(f"family of size {size} suffices, greedy used {s}")


def test_greedy_deterministic():
    a = build_universal(6, 3, 2)
    b = build_universal(6, 3, 2)
    assert a.functions == b.functions


def test_randomized_requires_seed_and_verifies():
    with pytest.raises(ParameterError, match="seed"):
        build_universal(5, 2, 1, mode="rand")
    u = build_universal(5, 2, 1, mode="rand", seed=123)
    assert verify_universal(u).valid


def test_budget_exceeded():
    with pytest.raises(BudgetExceededError):
        build_universal(12, 6, 3, budget=10)


def test_parameter_validation():
    with pytest.raises(ParameterError):
        build_universal(3, 4, 1)
    with pytest.raises(ParameterError):
        build_universal(3, 2, 3)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 63))
def test_monotone_under_additions(extra):
    base = build_universal(6, 2, 1)
    grown = UniversalSet(6, 2, 1, base.functions + (extra,))
    assert verify_universal(grown).valid


def test_lines_roundtrip():
    u = build_universal(5, 2, 2)
    again = UniversalSet.from_lines(5, 2, 2, u.lines())
    assert again.functions == u.functions


def test_constraint_enumeration_order():
    cons = list(iter_constraints(3, 2, 1))
    assert len(cons) == constraint_count(3, 2, 1) == 6
    assert cons[0][0] == (0, 1)  # lexicographically first I


def test_verification_reports_first_violation():
    u = build_universal(6, 3, 1)
    assert verify_universal(u) == VerifyResult(True)
    broken = UniversalSet(6, 3, 1, u.functions[:1])
    # brute force: the first (I, ones) in lex order no function agrees with
    first = next((I, ones) for I in combinations(range(6), 3) for ones in combinations(I, 1)
                 if not any(all(((f >> i) & 1) == (i in ones) for i in I)
                            for f in broken.functions))
    assert verify_universal(broken) == VerifyResult(False, first)


def test_blocks_ending_mid_run_change_no_result(monkeypatch):
    """At n = GREEDY_MAX_N a 2^10-cell block holds one column of the greedy
    candidates, and a 2^4-cell block two columns of a 7-function verify, so
    most first violations of the copies missing one function lie past the
    first block: the cover and those violations match the default blocks'."""
    n = unisets.GREEDY_MAX_N
    u = build_universal(n, 2, 1)
    broken = [UniversalSet(n, 2, 1, u.functions[:i] + u.functions[i + 1:])
              for i in range(len(u.functions))]
    want = [verify_universal(b) for b in broken]
    assert not any(result.valid for result in want)
    monkeypatch.setattr(unisets, "_MATRIX_CELL_CAP", 1 << 10)
    assert build_universal(n, 2, 1).functions == u.functions
    for cap in (1 << 10, 1 << 4):
        monkeypatch.setattr(unisets, "_MATRIX_CELL_CAP", cap)
        assert [verify_universal(b) for b in broken] == want


def _greedy_reference(n, k, p):
    """The full-matrix greedy: every round recounts each candidate over the
    live constraints and takes the first, lexicographically smallest, best."""
    if n == 0 or k == 0:
        return (0,)
    cons = [(x, y) for _, _, x, y in iter_constraints(n, k, p)]
    xs = np.array([x for x, _ in cons], dtype=np.uint64)
    ys = np.array([y for _, y in cons], dtype=np.uint64)
    # candidates in lexicographic order of their 0/1 strings f(1)..f(n)
    cands = np.array([sum(1 << i for i, ch in enumerate(s) if ch == "1")
                      for s in ("".join(t) for t in product("01", repeat=n))], dtype=np.uint64)
    cover = ((cands[:, None] & xs) == xs) & ((cands[:, None] & ys) == 0)
    live = np.ones(len(cons), dtype=bool)
    chosen = []
    while live.any():
        best = int(np.argmax(cover[:, live].sum(axis=1)))
        chosen.append(int(cands[best]))
        live &= ~cover[best]
    return tuple(chosen)


# at cap 2,000, (12, 1, 1)'s 2^11 count hits per constraint make one-constraint blocks
GREEDY_SHAPES = [(4, 2, 1), (6, 3, 0), (6, 3, 3), (8, 4, 2), (10, 5, 2), (12, 1, 1)]


@pytest.mark.parametrize("cap", [None, 2_000])
def test_greedy_matches_full_matrix_recount(cap, monkeypatch):
    if cap is not None:  # many row blocks, including one-candidate blocks
        monkeypatch.setattr(unisets, "_MATRIX_CELL_CAP", cap)
    for shape in GREEDY_SHAPES:
        assert build_universal(*shape).functions == _greedy_reference(*shape), shape


def test_greedy_raises_when_a_round_covers_nothing(monkeypatch):
    """Counts that over-state a candidate make a round pick a vector that
    covers no live constraint; without a progress check that round repeats
    forever, so the call runs under an alarm."""
    monkeypatch.setattr(unisets.math, "comb", lambda a, b: 1)

    def hung(signum, frame):
        raise TimeoutError("_build_greedy did not end")

    old = signal.signal(signal.SIGALRM, hung)
    signal.alarm(8)
    try:
        with pytest.raises(FptMixError, match="covers no live constraint"):
            unisets._build_greedy(6, 3, 1)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def _first_violation(n, k, p, funcs):
    for I in combinations(range(n), k):
        for ones in combinations(I, p):
            if not any(all(((f >> i) & 1) == (i in ones) for i in I) for f in funcs):
                return I, ones
    return None


@pytest.mark.parametrize("cap", [None, 64])
def test_verify_matches_brute_force_first_violation(cap, monkeypatch):
    if cap is not None:
        monkeypatch.setattr(unisets, "_MATRIX_CELL_CAP", cap)
    rng = random.Random(20)
    verdicts = set()
    for case in range(300):
        n = rng.randint(0, 9)
        k = 0 if case % 5 == 0 else rng.randint(0, n)
        p = {1: 0, 2: k}.get(case % 5, rng.randint(0, k))
        if case % 10 == 3:
            funcs = ()
        else:
            # a universal family thinned out, plus random extras
            full = build_universal(n, k, p).functions
            funcs = tuple(f for f in full if rng.random() < 0.9)
            funcs += tuple(rng.getrandbits(n) if n else 0 for _ in range(rng.randint(0, 6)))
        ref = _first_violation(n, k, p, funcs)
        assert verify_universal(UniversalSet(n, k, p, funcs)) == VerifyResult(ref is None, ref)
        verdicts.add(ref is None)
    assert verdicts == {True, False}


@pytest.mark.parametrize("n", [16, 17, 32, 33, 64])
def test_dtype_cut_overs_keep_the_top_bit(n):
    """On each side of a dtype cut-over (uint16 to n = 16, uint32 to 32, uint64
    above), families whose top bit f(n) is free, forced on or forced off verify
    as the brute force says, and their lines round-trip: a dtype one size too
    narrow, or a shift past its width, cannot hold bit n - 1."""
    top = 1 << (n - 1)
    for k, p in [(1, 0), (1, 1), (2, 1), (2, 2)]:
        free = build_universal(n, k, p, mode="rand", seed=n).functions
        assert any(f & top for f in free) and not all(f & top for f in free)
        on, off = tuple(f | top for f in free), tuple(f & ~top for f in free)
        # f(n) forced on uncovers a constraint on n - 1 unless p = k, forced off unless p = 0
        for funcs, broken in ((free, False), (on, p < k), (off, p > 0)):
            ref = _first_violation(n, k, p, funcs)
            assert verify_universal(UniversalSet(n, k, p, funcs)) == \
                VerifyResult(ref is None, ref), (k, p)
            assert (ref is not None and n - 1 in ref[0]) if broken else ref is None, (k, p)
            lines = UniversalSet(n, k, p, funcs).lines()
            assert UniversalSet.from_lines(n, k, p, lines).functions == funcs
            assert [line[-1] == "1" for line in lines] == [f >= top for f in funcs]
    for k in (1, 2):
        u = build_universal(16, k, 1)
        assert verify_universal(u).valid and _first_violation(16, k, 1, u.functions) is None


def test_greedy_at_16_4_2_peaks_below_8_mb():
    """The count update builds the covering candidates of one block of newly
    covered constraints at a time; one table over every I peaked near 131 MB."""
    tracemalloc.start()
    try:
        build_universal(16, 4, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000


@functools.cache
def _randomized_reference(n, k, p, seed):
    """The rebuild-and-reverify loop: after each new pool, verify the whole
    family grown so far, and stop at the first pool that makes it valid."""
    rng = random.Random(seed)
    total = constraint_count(n, k, p)
    pool = max(1, math.ceil(2 * math.comb(k, p) * math.log(max(total, 2))))
    funcs = []
    while True:
        funcs.extend(rng.getrandbits(n) if n else 0 for _ in range(pool))
        if verify_universal(UniversalSet(n, k, p, tuple(funcs))).valid:
            return tuple(funcs)


ALL_SHAPES_10 = [(n, k, p) for n in range(11) for k in range(n + 1) for p in range(k + 1)]


@pytest.mark.parametrize("cap", [None, 2_000])
def test_randomized_matches_rebuild_and_reverify(cap, monkeypatch):
    want = {(shape, seed): _randomized_reference(*shape, seed)
            for shape in ALL_SHAPES_10 for seed in (0, 1, 99)}  # at the default cap
    if cap is not None:  # column blocks of a few columns, and of one column at k = 10
        monkeypatch.setattr(unisets, "_MATRIX_CELL_CAP", cap)
    for (shape, seed), funcs in want.items():
        assert build_universal(*shape, mode="rand", seed=seed).functions == funcs, (shape, seed)


def test_greedy_counts_equal_full_matrix_counts(monkeypatch):
    """The counts every greedy round picks from, the closed-form start
    C(|f|, p) C(n - |f|, k - p) and each round's decrements, against a
    recount of the full cover matrix over the live constraints, n <= 9."""
    seen = []
    real = np.argmax

    def spy(a, *args, **kw):
        seen.append(a.copy())
        # every round covers a constraint, unless its counts are wrong
        assert len(seen) <= len(live), "more rounds than constraints"
        return real(a, *args, **kw)

    monkeypatch.setattr(np, "argmax", spy)
    for n, k, p in [(n, k, p) for n in range(1, 10) for k in range(1, n + 1)
                    for p in range(k + 1)]:
        seen.clear()
        live = np.ones(constraint_count(n, k, p), dtype=bool)
        chosen = build_universal(n, k, p).functions
        cons = [(x, y) for _, _, x, y in iter_constraints(n, k, p)]
        xs = np.array([x for x, _ in cons], dtype=np.uint64)
        ys = np.array([y for _, y in cons], dtype=np.uint64)
        cands = np.array([sum(1 << i for i, ch in enumerate(s) if ch == "1")
                          for s in ("".join(t) for t in product("01", repeat=n))],
                         dtype=np.uint64)
        cover = ((cands[:, None] & xs) == xs) & ((cands[:, None] & ys) == 0)
        assert len(seen) == len(chosen), (n, k, p)
        for counts, f in zip(seen, chosen):
            assert counts.tolist() == cover[:, live].sum(axis=1).tolist(), (n, k, p)
            live &= ~cover[int(np.flatnonzero(cands == f)[0])]
        assert not live.any()


@pytest.mark.parametrize("cap", [64, 500])
def test_verify_stops_at_the_block_holding_the_first_violation(cap, monkeypatch):
    monkeypatch.setattr(unisets, "_MATRIX_CELL_CAP", cap)
    blocks = []
    real = unisets._cover_blocks

    def spy(funcs, index, ones):
        for block in real(funcs, index, ones):
            blocks.append(block.shape)
            yield block

    monkeypatch.setattr(unisets, "_cover_blocks", spy)
    rng = random.Random(7)
    stops = set()
    for n, k, p in [(6, 3, 1), (7, 3, 2), (8, 4, 2)]:
        full = build_universal(n, k, p).functions
        order = [(I, ones) for I, ones, _, _ in iter_constraints(n, k, p)]
        for _ in range(20):
            funcs = tuple(f for f in full if rng.random() < 0.85)
            step = max(1, cap // max(1, len(funcs)))
            blocks.clear()
            got = verify_universal(UniversalSet(n, k, p, funcs))
            first = _first_violation(n, k, p, funcs)
            assert got == VerifyResult(first is None, first)
            # every block up to the one holding the first violation, each within the cap
            total_blocks = -(-len(order) // step)
            assert len(blocks) == (order.index(first) // step + 1 if first else total_blocks)
            assert all(shape == (len(funcs), min(step, len(order) - i * step))
                       for i, shape in enumerate(blocks))
            assert all(rows * cols <= cap for rows, cols in blocks)
            stops.add("valid" if first is None else
                      "early" if len(blocks) < total_blocks else "last")
    assert stops >= {"valid", "early"}


def _parse_reference(line):
    """f(i + 1) is character i of the line, stored at bit i."""
    return sum(1 << i for i, ch in enumerate(line) if ch == "1")


def test_from_lines_parses_every_vector():
    for n in range(1, 9):
        lines = ["".join(t) for t in product("01", repeat=n)]
        u = UniversalSet.from_lines(n, 1, 1, lines + ["", "  "])
        assert u.functions == tuple(_parse_reference(line) for line in lines)
        assert u.lines() == lines


# each is something int(..., 2) reads, or a line of the wrong length
BAD_LINES = [(3, "1_0"), (3, "+10"), (3, "0b1"), (2, "\uff11\uff10"), (3, "1 0"), (2, "101"),
             (3, "10"), (4, "-101"), (3, "1\u0661\u0660")]


@pytest.mark.parametrize("n, line", BAD_LINES)
def test_from_lines_rejects_what_the_format_forbids(n, line):
    with pytest.raises(ParameterError, match="bad function line"):
        UniversalSet.from_lines(n, 1, 1, ["0" * n, line])
