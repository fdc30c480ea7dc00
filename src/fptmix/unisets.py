"""Construction and verification of (n, k, p)-universal sets.

A family of bit-vectors f: {1..n} -> {0,1} is (n, k, p)-universal when for
every index set I of size k and every assignment on I with exactly p ones,
some stored vector agrees with that assignment on all of I.

Bit-vectors are stored as ints, bit i holding f(i+1).  Two construction
modes exist: a deterministic greedy cover of the explicit constraint space,
and randomized sampling that only returns after a full verification pass.
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

from .core import BudgetExceededError, ParameterError, budget_from_env

DEFAULT_CONSTRAINT_BUDGET = 120_000
GREEDY_MAX_N = 16
RANDOMIZED_K_CAP = 10
_MATRIX_CELL_CAP = 40_000_000


def constraint_budget() -> int:
    return budget_from_env(DEFAULT_CONSTRAINT_BUDGET)


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
            if not line:
                continue
            if len(line) != n or set(line) - {"0", "1"}:
                raise ParameterError(f"bad function line {line!r} for n={n}")
            funcs.append(sum(1 << i for i, ch in enumerate(line) if ch == "1"))
        return cls(n, k, p, tuple(funcs))


def _check_params(n, k, p):
    if not (0 <= p <= k <= n):
        raise ParameterError(f"need 0 <= p <= k <= n, got n={n} k={k} p={p}")


def constraint_count(n: int, k: int, p: int) -> int:
    return math.comb(n, k) * math.comb(k, p)


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


def _constraint_masks(n, k, p):
    xs, ys = [], []
    for _, _, x, y in iter_constraints(n, k, p):
        xs.append(x)
        ys.append(y)
    return np.asarray(xs, dtype=np.uint64), np.asarray(ys, dtype=np.uint64)


@dataclass(frozen=True)
class VerifyResult:
    valid: bool
    violation: tuple[tuple[int, ...], tuple[int, ...]] | None = None


def verify_universal(u: UniversalSet, budget: int | None = None) -> VerifyResult:
    """Check the covering property exhaustively.

    Reports the first violated (I, ones-of-f') pair in lexicographic order.
    """
    budget = budget if budget is not None else constraint_budget()
    total = constraint_count(u.n, u.k, u.p)
    if total > budget:
        raise BudgetExceededError(f"{total} constraints exceed budget {budget}")
    fam = np.asarray(u.functions, dtype=np.uint64)
    for I, ones, x, y in iter_constraints(u.n, u.k, u.p):
        if fam.size == 0 or not np.any(((fam & x) == x) & ((fam & y) == 0)):
            return VerifyResult(False, (I, ones))
    return VerifyResult(True)


def _lex_candidates(n: int) -> np.ndarray:
    """All n-bit vectors ordered lexicographically as 0/1 strings f(1)..f(n)."""
    count = 1 << n
    idx = np.arange(count, dtype=np.uint64)
    out = np.zeros(count, dtype=np.uint64)
    for i in range(n):
        # lex index bit (n-1-i) is f(i+1), stored at bit i
        out |= ((idx >> np.uint64(n - 1 - i)) & np.uint64(1)) << np.uint64(i)
    return out


def build_universal(n: int, k: int, p: int, mode: str = "greedy",
                    seed: int | None = None, budget: int | None = None) -> UniversalSet:
    _check_params(n, k, p)
    budget = budget if budget is not None else constraint_budget()
    total = constraint_count(n, k, p)
    if total > budget:
        raise BudgetExceededError(f"{total} constraints exceed budget {budget}")
    if mode == "greedy":
        return _build_greedy(n, k, p)
    if mode in ("rand", "randomized-verified"):
        if seed is None:
            raise ParameterError("randomized mode requires an explicit seed")
        if k > RANDOMIZED_K_CAP:
            raise BudgetExceededError(f"k={k} exceeds randomized cap {RANDOMIZED_K_CAP}")
        return _build_randomized(n, k, p, seed, budget)
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
    xs, ys = _constraint_masks(n, k, p)
    cands = _lex_candidates(n)
    chosen: list[int] = []
    live = np.ones(len(xs), dtype=bool)
    use_matrix = len(cands) * len(xs) <= _MATRIX_CELL_CAP
    cover = None
    if use_matrix:
        cover = ((cands[:, None] & xs[None, :]) == xs[None, :]) & \
                ((cands[:, None] & ys[None, :]) == 0)
    while live.any():
        if use_matrix:
            counts = cover[:, live].sum(axis=1)
        else:
            counts = np.zeros(len(cands), dtype=np.int64)
            lx, ly = xs[live], ys[live]
            step = max(1, _MATRIX_CELL_CAP // max(1, len(lx)))
            for lo in range(0, len(cands), step):
                block = cands[lo:lo + step, None]
                counts[lo:lo + step] = (((block & lx[None, :]) == lx[None, :]) &
                                        ((block & ly[None, :]) == 0)).sum(axis=1)
        best = int(np.argmax(counts))  # first max = lex-smallest by candidate order
        f = int(cands[best])
        chosen.append(f)
        fu = np.uint64(f)
        live &= ~(((fu & xs) == xs) & ((fu & ys) == 0))
    return UniversalSet(n, k, p, tuple(chosen))


def _build_randomized(n, k, p, seed, budget) -> UniversalSet:
    """Sample coupon-collector-sized pools until a full verification passes."""
    rng = random.Random(seed)
    total = constraint_count(n, k, p)
    pool = max(1, math.ceil(2 * math.comb(k, p) * math.log(max(total, 2))))
    funcs: list[int] = []
    while True:
        funcs.extend(rng.getrandbits(n) if n else 0 for _ in range(pool))
        u = UniversalSet(n, k, p, tuple(funcs))
        if verify_universal(u, budget).valid:
            return u
