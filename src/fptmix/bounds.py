"""Numeric evaluation of the closed-form running-time bounds.

Every objective is evaluated in log space (x^x terms overflow floats fast),
on whole arrays, with 0 * log 0 := 0 at boundary points; an array with no
boundary point (no zero, negative or NaN where it matters) takes the plain
formula, which gives the same floats.  Inner 1-D maximizations scan a coarse
grid in one call and refine by golden-section search to 1e-9 in the argument,
in lockstep over the staged bounds' cells: each row's bracket is Python
floats, and each step evaluates the objective once for all rows.
The near-unity nuisance factor 4^(1/10^10) is carried exactly where the
reference tables carry it and omitted elsewhere.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ParameterError

_FOUR_EPS = 4.0 ** 1e-10  # per-k nuisance factor attached to the tree-and-paths tables
_TWO_EPS = 2.0 ** 1e-10
_TOL = 1e-9  # argument tolerance of every golden-section refinement


def _xlogx(x):
    """x * log(x) elementwise; negatives above -1e-12 are round-off and read as 0."""
    x = np.asarray(x, dtype=float)
    if x.min(initial=math.inf) > 0:  # no boundary point; a NaN fails this test
        return x * np.log(x)
    if np.any(x <= -1e-12):
        raise ParameterError(f"negative base {x.min()} in an x^x term")
    zero = x <= 0
    return np.where(zero, 0.0, x * np.log(np.where(zero, 1.0, x)))


def _plogq(p, q):
    """p * log(q) elementwise, with the p == 0 boundary treated as 0."""
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    if q.min(initial=math.inf) > 0 and p.all():  # p == 0 would give -0.0 where q < 1
        return p * np.log(q)
    skip = p == 0
    if np.any(~skip & (q <= 0)):
        raise ParameterError("log of non-positive value (domain edge)")
    return np.where(skip, 0.0, p * np.log(np.where(skip, 1.0, q)))


def _golden_rows(fn, lo, hi, grid: int):
    """Coarse grid scan followed by golden-section refinement to ``_TOL``, in
    lockstep on every row's interval [lo, hi]; ``fn`` maps a (rows, m) array
    of arguments to their values.  Returns the (argmax, value) arrays.

    Each row takes the scalar search's steps: its first best grid point
    brackets it, and it stops once its bracket is within ``_TOL``.  The
    refinement assumes local unimodality inside that bracket, which the
    concavity sanity check in the tests watches independently.
    """
    phi = (math.sqrt(5) - 1) / 2
    lo, hi = np.asarray(lo, dtype=float)[:, None], np.asarray(hi, dtype=float)[:, None]
    xs = lo + (hi - lo) * np.arange(grid) / (grid - 1)
    vals = fn(xs)
    # as in a strict-> scan, NaN never wins, but a NaN first point is never left
    best = np.argmax(np.nan_to_num(vals, nan=-np.inf), axis=1)
    best[np.isnan(vals[:, 0])] = 0
    rows = np.arange(len(xs))
    a = xs[rows, np.maximum(best - 1, 0)].tolist()
    b = xs[rows, np.minimum(best + 1, grid - 1)].tolist()
    # the bracket is Python floats: the same IEEE operations in the same order
    # as the scalar search, without a NumPy call per step on a few rows
    c = [bi - phi * (bi - ai) for ai, bi in zip(a, b)]
    d = [ai + phi * (bi - ai) for ai, bi in zip(a, b)]
    fc, fd = fn(np.array([c, d]).T).T.tolist()
    x = c[:]  # a finished row's last probe, re-evaluated but never read
    live = [i for i in rows.tolist() if b[i] - a[i] > _TOL]
    while live:
        left = [fc[i] >= fd[i] for i in live]  # keep [a, d], else [c, b]
        for i, keep in zip(live, left):
            if keep:
                b[i], d[i] = d[i], c[i]
                x[i] = c[i] = b[i] - phi * (b[i] - a[i])
            else:
                a[i], c[i] = c[i], d[i]
                x[i] = d[i] = a[i] + phi * (b[i] - a[i])
        fx = fn(np.array(x)[:, None])[:, 0].tolist()
        for i, keep in zip(live, left):
            if keep:
                fc[i], fd[i] = fx[i], fc[i]
            else:
                fc[i], fd[i] = fd[i], fx[i]
        live = [i for i in live if b[i] - a[i] > _TOL]
    x = (np.array(a) + np.array(b)) / 2
    return x, fn(x[:, None])[:, 0]


def golden_max(fn, lo: float, hi: float, grid: int = 10_001):
    """The one-row case of the lockstep search: (argmax, value) of ``fn``,
    which maps an array of arguments to their values, over [lo, hi]."""
    if hi < lo:
        raise ParameterError("empty maximization interval")
    x, val = _golden_rows(fn, [lo], [hi], grid)
    return float(x[0]), float(val[0])


def log_tradeoff_term(c: float, a):
    """log of c^(2-a) / (a^a (c-a)^(2-2a)), the single-part reduction cost."""
    return _plogq(2 - a, c) - _xlogx(a) - _plogq(2 - 2 * a, c - a)


def log_leafy_term(c: float, b):
    """log of the high-leaf-count branch of the tree-and-paths bound."""
    return (_plogq(5 * b - 1, c * (1 + b))
            - _xlogx(3 * (1 - b))
            - _plogq(4 * (2 * b - 1), c * (1 + b) - 3 * (1 - b)))


def _leafy(c: float, b):
    # guard the open lower end of the domain
    b = np.asarray(b, dtype=float)
    out = c * (1 + b) - 3 * (1 - b) <= 0
    if not out.any():
        return log_leafy_term(c, b)
    return np.where(out, -math.inf, log_leafy_term(c, np.where(out, 1.0, b)))


def alpha_for(c: float):
    return golden_max(lambda a: log_tradeoff_term(c, a), 0.0, 1.0)


def beta_for(c: float, alpha: float):
    lo = (3 - alpha) / (3 + alpha)
    return golden_max(lambda b: _leafy(c, b), lo, 1.0)


def alpha_beta_table(c_list) -> list[dict]:
    """Rows (c, alpha, first-branch value, (3-a)/(3+a), beta, second-branch
    value); the value columns carry the 4^(1/10^10) factor."""
    rows = []
    for c in c_list:
        a, la = alpha_for(c)
        b, lb = beta_for(c, a)
        rows.append({
            "c": c,
            "alpha": a,
            "branch1": math.exp(la * 6 / (3 + a)) * _FOUR_EPS,
            "threshold": (3 - a) / (3 + a),
            "beta": b,
            "branch2": math.exp(lb) * _FOUR_EPS,
        })
    return rows


def kiob_det_bound(c: float, lstar: float = 0.0) -> dict:
    """Per-k base of the deterministic tree-and-paths driver.

    ``lstar`` is the leaf-threshold fraction l*/k; the reference table for
    the all-leaf-counts driver corresponds to lstar -> 0.
    """
    a, la = alpha_for(c)
    b, lb = beta_for(c, a)
    threshold = (3 - a) / (3 + a)
    if b <= lstar:
        base = math.exp(_leafy(c, lstar)) * _FOUR_EPS
        arg = {"branch": "leafy-at-lstar", "alpha": a, "beta": lstar}
    elif threshold <= lstar <= b:
        base = math.exp(lb) * _FOUR_EPS
        arg = {"branch": "leafy-peak", "alpha": a, "beta": b}
    else:
        first = math.exp(la * 6 / (3 + a))
        second = math.exp(lb)
        base = max(first, second) * _FOUR_EPS
        arg = {"branch": "max-of-both", "alpha": a, "beta": b,
               "first": first * _FOUR_EPS, "second": second * _FOUR_EPS}
    return {"base": base, "argmax": arg}


def kiob_rand_bound(c: float, gamma: float) -> dict:
    """Leaf thresholding at gamma*k: the representative-sets branch covers
    high leaf counts, everything below goes to the 2^(k+l) black box."""
    det = kiob_det_bound(c, lstar=gamma)
    cross = 2.0 ** (1 + gamma)
    det["argmax"]["crossTerm"] = cross
    det["crossTerm"] = cross
    return det


def _entropy(lam: float) -> float:
    return -_xlogx(lam) - _xlogx(1 - lam)


def kpath_bound(delta: float, gamma: float, c1: float, c2: float,
                cl: float, cr: float) -> dict:
    """Z = max(Z1, Z2): each branch couples a blue-part reduction term with
    a red-part term whose usage fraction is pinned to the blue progress."""
    if not c1 >= c2 >= 1:
        raise ParameterError("need c1 >= c2 >= 1")
    # the four alpha_for searches, in lockstep
    cs = np.array([[cl], [cr], [c1], [c2]])
    al, ar, b1, b2 = _golden_rows(lambda a: log_tradeoff_term(cs, a), [0.0] * 4, [1.0] * 4,
                                  10_001)[0].tolist()
    half_p = 0.5 + delta
    half_m = 0.5 - delta
    flags = []
    if not half_p < b1:
        flags.append("first-branch pinning assumption violated")
    if not b2 < half_p + ar * half_m:
        flags.append("second-branch pinning assumption violated")
    a_prime = max(0.0, (b2 - half_p) / half_m)

    if ar < a_prime:
        raise ParameterError("empty maximization interval")
    # rows y1 over [al, 1] and y2 over [a', ar].  The reference rows pin the
    # second branch's blue factor at the (1/2 + delta) fraction; the
    # (1/2 - delta) variant reproduces none of them
    red, blue = np.array([[cl], [cr]]), np.array([[c1], [c2]])
    offset, scale = np.array([[0.0], [half_p]]), np.array([[half_p], [half_m]])

    def ys(a):
        return (half_p * gamma * log_tradeoff_term(red, a)
                + (1 - gamma) * log_tradeoff_term(blue, offset + a * scale))

    (a1, a2), (ly1, ly2) = (v.tolist() for v in _golden_rows(ys, [al, a_prime], [1.0, ar], 10_001))
    color = math.exp(gamma * _entropy(half_m))  # divide-and-color universal set factor
    z1 = math.exp(ly1) * color * _TWO_EPS
    z2 = math.exp(ly2) * color * _TWO_EPS
    return {
        "base": max(z1, z2),
        "Z1": z1,
        "Z2": z2,
        "argmax": {"alpha1": a1, "alpha2": a2, "alphaL": al, "alphaR": ar,
                   "beta1": b1, "beta2": b2, "flags": flags},
    }


def _deletion_recursion(t_next, inv_eps: int) -> np.ndarray:
    """T(0..1/eps) of T(j) = T(j-1) + eps * (num - T(j-1)) / den, T(0) = 0,
    with ``t_next(j - 1, eps)`` giving the num and den lists.  Python floats
    run the scalar loop's IEEE operations in its order, so T is bit-exact;
    the lists come in blocks so that few float objects are alive at once."""
    eps = 1.0 / inv_eps
    t_vals = np.zeros(inv_eps + 1)
    t = 0.0
    for lo in range(0, inv_eps, 4096):
        block = []
        for num, den in zip(*t_next(np.arange(lo, min(lo + 4096, inv_eps)), eps)):
            t = t + eps * (num - t) / den
            block.append(t)
        t_vals[lo + 1:lo + 1 + len(block)] = block
    return t_vals


def _wsp_t_next(jm1, eps):
    return (2 * jm1 * eps).tolist(), (3 * (1 - jm1 * eps)).tolist()


def _p2p_t_next(jm1, eps):
    return (2 + 2 * jm1 * eps).tolist(), (3 * (1 - jm1 * eps)).tolist()


def _staged_argmax(t_next, objective, inv_eps: int) -> dict:
    """Shared scaffolding for the unbalanced-cutting bounds: run the
    continuous deletion recursion, scan every stage cell, refine the best."""
    eps = 1.0 / inv_eps
    t_vals = _deletion_recursion(t_next, inv_eps)
    idx = np.arange(1, inv_eps + 1)
    that = t_vals[idx - 1]
    cell_right = objective(idx.astype(float), that, eps)
    order = np.argsort(cell_right)[::-1][:200]
    stages, th = idx[order], that[order, None]
    alphas, vals = _golden_rows(lambda a: objective(a, th, eps), stages - 1.0, stages * 1.0, 201)
    if np.isnan(vals).all():
        raise ParameterError("the bound's objective is undefined on every stage cell")
    top = int(np.argmax(np.nan_to_num(vals, nan=-np.inf)))  # first best row, never a NaN one
    stage = int(stages[top])
    return {"base": math.exp(vals[top]), "argmax": {"i": stage, "alpha": float(alphas[top]),
                                                    "T": float(t_vals[stage - 1])}}


def wsp_bound(c: float, inv_eps: int = 100_000) -> dict:
    """Per-k base of the staged packing bound at the reference epsilon."""

    def objective(alpha, that, eps):
        ae = alpha * eps
        big = 3 - ae - that
        small = 2 * ae - that
        small = np.maximum(small, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            term = ((6 - 4 * ae - that) * np.log(c * big)
                    - np.where(small > 0, small * np.log(small), 0.0)
                    - (6 - 6 * ae) * np.log(c * big - small))
        return term

    return _staged_argmax(_wsp_t_next, objective, inv_eps)


def p2p_bound(inv_eps: int = 100_000) -> dict:
    """Per-k base of the packing-compression bound; worst case has the
    footprint parameters maximal, which fixes the leading constant 2."""

    def objective(alpha, that, eps):
        ae = alpha * eps
        top = 6 - ae - that
        mid = 2 + 2 * ae - that
        low = 4 - 3 * ae
        with np.errstate(divide="ignore", invalid="ignore"):
            term = top * np.log(top) - mid * np.log(mid) - low * np.log(low)
        return term / 2.0

    return _staged_argmax(_p2p_t_next, objective, inv_eps)


# Reference rows the tables are checked against (the constants the tool
# is expected to reproduce).
REFERENCE_TABLE1 = {
    1.0:   (0.55013, 5.873, 0.69008, 0.71350, 5.9441),
    1.4:   (0.54908, 5.094, 0.69058, 0.71582, 5.1552),
    1.45:  (0.55302, 5.080, 0.68870, 0.71441, 5.1424),
    1.495: (0.55692, 5.075, 0.68685, 0.71299, 5.13864),
    1.496: (0.55701, 5.075, 0.68681, 0.71296, 5.13864),
    1.497: (0.55710, 5.075, 0.68677, 0.71293, 5.13863),
    1.498: (0.55719, 5.075, 0.68672, 0.71289, 5.13863),
    1.499: (0.55729, 5.075, 0.68669, 0.71286, 5.13864),
    1.5:   (0.55737, 5.075, 0.68664, 0.71283, 5.13865),
}
REFERENCE_TABLE2 = {
    1.0: 5.9441, 1.4: 5.1552, 1.45: 5.1424, 1.495: 5.13864, 1.496: 5.13864,
    1.497: 5.13863, 1.498: 5.13863, 1.499: 5.13864, 1.5: 5.13865,
}
REFERENCE_TABLE3 = {
    (1.763, 0.8544): 3.617665566, (1.764, 0.8544): 3.617665007,
    (1.765, 0.8544): 3.617665035, (1.766, 0.8544): 3.617665648,
    (1.763, 0.8545): 3.615894763, (1.764, 0.8545): 3.615894103,
    (1.765, 0.8545): 3.615894029, (1.766, 0.8545): 3.615894539,
}
REFERENCE_TABLE4 = {
    (0.046, 0.084, 1.504, 1.398, 1.092, 1.876): (2.5960542, 2.5960542, 2.5960425),
    (0.045, 0.084, 1.504, 1.398, 1.092, 1.876): (2.5965734, 2.5953152, 2.5965734),
    (0.047, 0.084, 1.504, 1.398, 1.092, 1.876): (2.5967889, 2.5967889, 2.5955049),
    (0.046, 0.083, 1.504, 1.398, 1.092, 1.876): (2.5960903, 2.5960421, 2.5960903),
    (0.046, 0.085, 1.504, 1.398, 1.092, 1.876): (2.5960711, 2.5960711, 2.5959989),
    (0.046, 0.084, 1.503, 1.398, 1.092, 1.876): (2.5960547, 2.5960547, 2.5960425),
    (0.046, 0.084, 1.505, 1.398, 1.092, 1.876): (2.5960545, 2.5960545, 2.5960425),
    (0.046, 0.084, 1.504, 1.397, 1.092, 1.876): (2.5960542, 2.5960542, 2.5960430),
    (0.046, 0.084, 1.504, 1.399, 1.092, 1.876): (2.5960542, 2.5960542, 2.5960434),
    (0.046, 0.084, 1.504, 1.398, 1.091, 1.876): (2.5960544, 2.5960544, 2.5960425),
    (0.046, 0.084, 1.504, 1.398, 1.093, 1.876): (2.5960545, 2.5960545, 2.5960425),
    (0.046, 0.084, 1.504, 1.398, 1.092, 1.875): (2.5960542, 2.5960542, 2.5960425),
    (0.046, 0.084, 1.504, 1.398, 1.092, 1.877): (2.5960542, 2.5960542, 2.5960425),
}
REFERENCE_TABLE5 = {
    1.59:  (8.096400, 54511, 0.1476545),
    1.591: (8.096396, 54515, 0.1476821),
    1.592: (8.096397, 54518, 0.1477028),
}
REFERENCE_P2P = (6.77682, 6377, 0.04485)
