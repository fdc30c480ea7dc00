"""Construction and verification of (n, k, p)-universal sets.

A family of bit-vectors f: {1..n} -> {0,1} is (n, k, p)-universal when for
every index set I of size k and every assignment on I with exactly p ones,
some stored vector agrees with that assignment on all of I.

Bit-vectors are stored as ints, bit i holding f(i+1), so n is at most 64.
Two construction modes exist: a deterministic greedy cover of the explicit
constraint space, whose counts start from a closed form and lose only what
each round newly covers, and randomized sampling until its pools cover every
constraint.  A greedy round updates only the counts of the candidates that
cover a newly covered constraint.  Vectors and masks use the narrowest unsigned
dtype holding n bits; cover matrices are scanned in bounded lexicographic blocks.
Neither reproduces the asymptotically optimal size; both reproduce the
covering property exactly, which is the correctness contract everything
downstream relies on.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import BudgetExceededError, FptMixError, ParameterError

DEFAULT_CONSTRAINT_BUDGET = 120_000
GREEDY_MAX_N = 16
RANDOMIZED_K_CAP = 10
# cells per block of a cover matrix and hit cells per block of a greedy count update: 2 bytes
# a cell at n <= 16 (all greedy n, though bincount widens hits to 8), 4 to n = 32, 8 above
_MATRIX_CELL_CAP = 1 << 18


@dataclass(frozen=True)
class UniversalSet:
    n: int
    k: int
    p: int
    functions: tuple[int, ...]

    def __post_init__(self):
        _check_params(self.n, self.k, self.p)
        limit = 1 << self.n
        for f in self.functions:
            if not 0 <= f < limit:
                raise ParameterError(f"function {f:#x} is not an {self.n}-bit vector")

    def lines(self) -> list[str]:
        return ["".join("1" if (f >> i) & 1 else "0" for i in range(self.n))
                for f in self.functions]

    @classmethod
    def from_lines(cls, n: int, k: int, p: int, lines) -> UniversalSet:
        funcs = []
        for line in lines:
            line = line.strip()
            if not line and n:  # at n = 0 a blank line is the one 0-bit function
                continue
            if len(line) != n or line.strip("01"):
                raise ParameterError(f"bad function line {line!r} for n={n}")
            funcs.append(int(line[::-1] or "0", 2))
        return cls(n, k, p, tuple(funcs))


def _check_params(n, k, p):
    if not (0 <= p <= k <= n):
        raise ParameterError(f"need 0 <= p <= k <= n, got n={n} k={k} p={p}")
    if n > 64:
        raise ParameterError(f"n={n} exceeds the 64 bits a stored vector holds")


def constraint_count(n: int, k: int, p: int) -> int:
    return math.comb(n, k) * math.comb(k, p)


def _dtype(n):
    """The narrowest unsigned integer dtype that holds an n-bit vector."""
    return np.uint16 if n <= 16 else np.uint32 if n <= 32 else np.uint64


def _constraint_masks(n, k, p):
    """The index sets, the ones-position patterns inside an I, and the I and
    X masks of every constraint, flat over (I, pattern) in lexicographic order."""
    dt = _dtype(n)
    subsets = np.array(list(combinations(range(n), k)), dtype=dt)
    patterns = np.array(list(combinations(range(k), p)), dtype=np.intp)
    bits = np.left_shift(dt(1), subsets)
    ones = bits[:, patterns].sum(axis=2, dtype=dt).ravel()  # distinct bits: sum is OR
    index = np.repeat(bits.sum(axis=1, dtype=dt), len(patterns))
    return subsets, patterns, index, ones


def _cover_blocks(funcs, index, ones):
    """Yield the cover matrix of ``funcs`` against the constraints (f agrees
    with one when f & I == X) in lexicographic column blocks of at most
    _MATRIX_CELL_CAP cells, or of one column when ``funcs`` alone exceeds it."""
    step = max(1, _MATRIX_CELL_CAP // max(1, len(funcs)))
    for lo in range(0, len(ones), step):
        yield (funcs[:, None] & index[lo:lo + step]) == ones[lo:lo + step]


@dataclass(frozen=True)
class VerifyResult:
    valid: bool
    violation: tuple[tuple[int, ...], tuple[int, ...]] | None = None


def verify_universal(u: UniversalSet, budget: int = DEFAULT_CONSTRAINT_BUDGET) -> VerifyResult:
    """Check the covering property exhaustively.

    Reports the first violated (I, ones-of-f') pair in lexicographic order.
    """
    total = constraint_count(u.n, u.k, u.p)
    if total > budget:
        raise BudgetExceededError(f"{total} constraints exceed budget {budget}")
    subsets, patterns, index, ones = _constraint_masks(u.n, u.k, u.p)
    lo = 0
    for block in _cover_blocks(np.asarray(u.functions, dtype=_dtype(u.n)), index, ones):
        covered = block.any(axis=0)
        if not covered.all():  # the first block with a violation holds the first one
            at, pattern = divmod(lo + int(np.argmin(covered)), len(patterns))
            I = tuple(int(i) for i in subsets[at])
            return VerifyResult(False, (I, tuple(I[j] for j in patterns[pattern])))
        lo += len(covered)
    return VerifyResult(True)


def _lex_candidates(n: int) -> np.ndarray:
    """All n-bit vectors ordered lexicographically as 0/1 strings f(1)..f(n)."""
    count, dt = 1 << n, _dtype(n)
    idx = np.arange(count, dtype=dt)
    out = np.zeros(count, dtype=dt)
    for i in range(n):
        # lex index bit (n-1-i) is f(i+1), stored at bit i
        out |= ((idx >> dt(n - 1 - i)) & dt(1)) << dt(i)
    return out


def build_universal(n: int, k: int, p: int, mode: str = "greedy",
                    seed: int | None = None,
                    budget: int = DEFAULT_CONSTRAINT_BUDGET) -> UniversalSet:
    _check_params(n, k, p)
    total = constraint_count(n, k, p)
    if total > budget:
        raise BudgetExceededError(f"{total} constraints exceed budget {budget}")
    if mode == "greedy":
        return _build_greedy(n, k, p)
    if mode == "rand":
        if seed is None:
            raise ParameterError("randomized mode requires an explicit seed")
        if k > RANDOMIZED_K_CAP:
            raise BudgetExceededError(f"k={k} exceeds randomized cap {RANDOMIZED_K_CAP}")
        return _build_randomized(n, k, p, seed)
    raise ParameterError(f"unknown mode {mode!r}")


def _build_greedy(n, k, p) -> UniversalSet:
    """Greedy set cover over the explicit constraint space.

    Deterministic: each round takes the candidate covering the most live
    constraints, ties broken by lexicographically smallest bit-vector.
    """
    if n > GREEDY_MAX_N:
        raise BudgetExceededError(f"greedy candidate space 2^{n} exceeds 2^{GREEDY_MAX_N}")
    if n == 0 or k == 0:
        return UniversalSet(n, k, p, (0,))
    _, _, index, ones = _constraint_masks(n, k, p)
    cands = _lex_candidates(n)  # reverses bits, so it maps each vector to its lex index too
    full, step = cands[-1], max(1, _MATRIX_CELL_CAP >> (n - k))

    # f covers (I, X) iff X = f & I, so it starts with C(|f|, p) C(n - |f|, k - p);
    # popcounts by lex index, as the lex order permutes each vector's bits
    pop = sum((np.arange(len(cands)) >> i) & 1 for i in range(n))
    counts = np.array([math.comb(c, p) * math.comb(n - c, k - p) for c in range(n + 1)])[pop]
    live = np.ones(len(ones), dtype=bool)
    chosen: list[int] = []
    while live.any():
        f = cands[np.argmax(counts)]  # first max = lex-smallest by candidate order
        chosen.append(int(f))
        new = np.flatnonzero(live & ((f & index) == ones))
        if not len(new):  # over-stated counts would pick f again and again
            raise FptMixError(f"greedy round picked {int(f)}, which covers no live constraint")
        live[new] = False
        # a newly covered (I, X) leaves the counts of X | fill, fill inside I's
        # complement, at lex index rev(X) | rev(fill); 2^(n-k) hits per constraint
        for lo in range(0, len(new), step):
            hits = cands[ones[new[lo:lo + step]]][:, None]
            rest = cands[index[new[lo:lo + step]]] ^ full
            for _ in range(n - k):
                low = rest & ~(rest - 1)  # the lowest complement bit not yet split on
                hits = np.concatenate([hits, hits | low[:, None]], axis=1)
                rest ^= low
            counts -= np.bincount(hits.ravel(), minlength=len(counts))
    return UniversalSet(n, k, p, tuple(chosen))


def _build_randomized(n, k, p, seed) -> UniversalSet:
    """Sample coupon-collector-sized pools until together they cover every
    constraint, checking each against what the earlier ones left uncovered."""
    rng = random.Random(seed)
    _, _, index, ones = _constraint_masks(n, k, p)
    pool = max(1, math.ceil(2 * math.comb(k, p) * math.log(max(len(ones), 2))))
    live = np.arange(len(ones))  # the uncovered constraints
    funcs: list[int] = []
    while len(live):
        new = np.array([rng.getrandbits(n) if n else 0 for _ in range(pool)], dtype=_dtype(n))
        funcs.extend(new.tolist())
        live = live[~np.concatenate([b.any(axis=0)
                                     for b in _cover_blocks(new, index[live], ones[live])])]
    return UniversalSet(n, k, p, tuple(funcs))
