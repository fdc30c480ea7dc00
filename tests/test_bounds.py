import math
from dataclasses import dataclass, field

import numpy as np
import pytest

from fptmix import bounds
from fptmix.core import ParameterError


def test_log_conventions_at_boundaries():
    assert bounds._xlogx(0.0) == 0.0
    assert bounds._plogq(0.0, 0.0) == 0.0
    with pytest.raises(ParameterError):
        bounds._plogq(1.0, 0.0)


def test_golden_max_quadratic():
    x, v = bounds.golden_max(lambda t: -(t - 0.3) ** 2, 0.0, 1.0)
    assert abs(x - 0.3) < 1e-7 and abs(v) < 1e-12


def test_concavity_sanity_interior_argmaxes():
    """Each reported interior argmax beats both grid neighbors."""
    for c in (1.0, 1.4, 1.497):
        a, _ = bounds.alpha_for(c)
        f = lambda t: bounds.log_tradeoff_term(c, t)
        h = 1e-4
        assert f(a) >= f(a - h) and f(a) >= f(a + h)
        b, _ = bounds.beta_for(c, a)
        g = lambda t: bounds._leafy(c, t)
        assert g(b) >= g(b - h) and g(b) >= g(b + h)


def test_monotone_refinement_grid_halving():
    for c in (1.0, 1.497):
        coarse = bounds.golden_max(lambda a: bounds.log_tradeoff_term(c, a),
                                   0.0, 1.0, grid=5_001)[1]
        fine = bounds.golden_max(lambda a: bounds.log_tradeoff_term(c, a),
                                 0.0, 1.0, grid=10_001)[1]
        assert abs(math.exp(coarse) - math.exp(fine)) < 1e-6


def test_kiob_det_cross_check_two_branches():
    """At the all-leaf-counts regime the base equals the max of the two
    branch expressions computed independently."""
    got = bounds.kiob_det_bound(1.497)
    arg = got["argmax"]
    assert arg["branch"] == "max-of-both"
    assert abs(got["base"] - max(arg["first"], arg["second"])) < 1e-12
    assert abs(got["base"] - max(arg["first"], arg["second"])) <= 1e-5


@dataclass(frozen=True)
class BoundQuery:
    which: str  # kiob-det | kiob-rand | kpath | wsp | p2p
    parameters: dict = field(default_factory=dict)


def eval_bound(query: BoundQuery) -> dict:
    """Dispatch one named bound query to its bound with the reference defaults."""
    p = dict(query.parameters)
    if query.which == "kiob-det":
        return bounds.kiob_det_bound(p.get("c", 1.497), p.get("lstar", 0.0))
    if query.which == "kiob-rand":
        return bounds.kiob_rand_bound(p.get("c", 1.765), p.get("gamma", 0.8545))
    if query.which == "kpath":
        return bounds.kpath_bound(p.get("delta", 0.046), p.get("gamma", 0.084),
                                  p.get("c1", 1.504), p.get("c2", 1.398),
                                  p.get("cl", 1.092), p.get("cr", 1.876))
    if query.which == "wsp":
        return bounds.wsp_bound(p.get("c", 1.591), p.get("invEps", 100_000))
    if query.which == "p2p":
        return bounds.p2p_bound(p.get("invEps", 100_000))
    raise ParameterError(f"unknown bound query {query.which!r}")


def test_eval_bound_dispatch():
    q = BoundQuery("kiob-det", {"c": 1.497})
    assert abs(eval_bound(q)["base"] - 5.13863) < 1e-4
    with pytest.raises(ParameterError):
        eval_bound(BoundQuery("nope"))


def test_kpath_flags_empty_at_reference_point():
    got = bounds.kpath_bound(0.046, 0.084, 1.504, 1.398, 1.092, 1.876)
    assert got["argmax"]["flags"] == []


def test_staged_bounds_small_inv_eps_run():
    # the staged machinery also works at coarse epsilon (used by tests only)
    got = bounds.wsp_bound(1.591, inv_eps=1000)
    assert got["base"] > 8.0
    got2 = bounds.p2p_bound(inv_eps=1000)
    assert got2["base"] > 6.7


def test_randomized_cross_term():
    got = bounds.kiob_rand_bound(1.765, 0.8545)
    assert abs(got["crossTerm"] - 2.0 ** 1.8545) < 1e-12
    assert got["crossTerm"] < 3.617  # the black-box side stays inside the headline constant


def test_log_helpers_check_every_array_point():
    good = np.linspace(0.1, 2.0, 50)
    with pytest.raises(ParameterError):
        bounds._xlogx(np.append(good, -0.5))
    with pytest.raises(ParameterError):
        bounds._plogq(np.ones(51), np.append(good, 0.0))
    # p == 0 is the boundary convention, and round-off negatives read as 0
    assert bounds._plogq(np.zeros(3), np.array([1.0, 0.0, -1.0])).tolist() == [0.0] * 3
    assert bounds._xlogx(np.array([-1e-13, 0.0, 1.0])).tolist() == [0.0] * 3


def _xlogx_guarded(x):
    """``bounds._xlogx`` with its boundary handling on every point."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= -1e-12):
        raise ParameterError("negative base")
    zero = x <= 0
    return np.where(zero, 0.0, x * np.log(np.where(zero, 1.0, x)))


def _plogq_guarded(p, q):
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    skip = p == 0
    if np.any(~skip & (q <= 0)):
        raise ParameterError("log of non-positive value")
    return np.where(skip, 0.0, p * np.log(np.where(skip, 1.0, q)))


def _leafy_guarded(c, b):
    b = np.asarray(b, dtype=float)
    out = c * (1 + b) - 3 * (1 - b) <= 0
    b = np.where(out, 1.0, b)
    term = (_plogq_guarded(5 * b - 1, c * (1 + b)) - _xlogx_guarded(3 * (1 - b))
            - _plogq_guarded(4 * (2 * b - 1), c * (1 + b) - 3 * (1 - b)))
    return np.where(out, -math.inf, term)


def _outcome(fn, *args):
    """The result's repr, which tells -0.0 from 0.0 and shows NaN as nan, or
    the error raised."""
    try:
        with np.errstate(all="ignore"):  # inf - inf and the like, on both sides
            return repr(np.asarray(fn(*args)).tolist())
    except ParameterError:
        return "ParameterError"


NAN, INF = math.nan, math.inf
XLOGX_CASES = {
    "positive": [np.linspace(0.1, 2.0, 50), 0.3, [1e-300, 1.0, 1e300]],
    "zeros": [[0.0, 0.5, 1.0], 0.0, [0.0, 0.0]],
    "round-off": [[-1e-13, 0.3, -5e-13], -1e-13, [-1e-11, 0.3]],
    "nan": [[0.5, NAN, 2.0], NAN, [NAN, -1.0]],
    "inf": [[0.5, INF], INF, [-INF, 1.0]],
}
PLOGQ_CASES = {
    "positive": [(np.linspace(0.1, 2.0, 50), np.linspace(0.2, 3.0, 50)), (2.0, [0.5, 1.5]),
                 ([-1.0, 1.0], 0.5)],
    "zeros": [([0.0, 1.0, 0.0], [0.5, 2.0, 0.9]), (0.0, 0.3), ([1.0, 2.0], [1.0, 0.0])],
    "round-off": [([1.0, 1.0], [-1e-13, 0.5]), ([0.0, 1.0], [-1e-13, 0.5])],
    "nan": [([NAN, 1.0], [0.5, 0.5]), ([1.0, 1.0], [NAN, 0.5]), ([0.0, 1.0], [NAN, 0.5])],
    "inf": [([INF, 1.0], [0.5, 2.0]), ([1.0, 1.0], [INF, 2.0]), ([INF], [1.0])],
    "p = 0 at q <= 0": [([0.0, 1.0, 0.0], [-1.0, 2.0, 0.0]), (0.0, [0.0, -2.0])],
}
LEAFY_CASES = {  # b points whose inner terms reach each case
    "positive": [(1.497, np.linspace(0.75, 0.99, 20)), (1.497, 0.8)],
    "zeros": [(1.497, [0.8, 1.0]), (3.0, [0.5, 0.9]), (1.497, 1.0)],
    "round-off": [(1.497, [0.8, 1 + 1e-14]), (1.497, [0.8, 1 + 1e-11])],
    "nan": [(1.497, [0.8, NAN]), (NAN, [0.8, 0.9])],
    "inf": [(1.497, [0.8, INF]), (INF, [0.8])],
    "outside the domain": [(1.497, [0.1, 0.8, -1.0]), (1.497, 0.1), (1.0, [0.5, 0.9])],
}


@pytest.mark.parametrize("case", XLOGX_CASES)
def test_xlogx_equals_its_guarded_formula(case):
    for x in XLOGX_CASES[case]:
        assert _outcome(bounds._xlogx, x) == _outcome(_xlogx_guarded, x), x


@pytest.mark.parametrize("case", PLOGQ_CASES)
def test_plogq_equals_its_guarded_formula(case):
    for p, q in PLOGQ_CASES[case]:
        assert _outcome(bounds._plogq, p, q) == _outcome(_plogq_guarded, p, q), (p, q)


@pytest.mark.parametrize("case", LEAFY_CASES)
def test_leafy_equals_its_guarded_formula(case):
    for c, b in LEAFY_CASES[case]:
        assert _outcome(bounds._leafy, c, b) == _outcome(_leafy_guarded, c, b), (c, b)


def _golden_scalar(fn, lo, hi, grid, tol=1e-9):
    """One-point-at-a-time grid scan and golden-section search."""
    xs = [lo + (hi - lo) * i / (grid - 1) for i in range(grid)]
    vals = [fn(x) for x in xs]
    best = max(range(grid), key=lambda i: vals[i])
    a, b = xs[max(0, best - 1)], xs[min(grid - 1, best + 1)]
    phi = (math.sqrt(5) - 1) / 2
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = fn(d)
    x = (a + b) / 2
    return x, fn(x)


def test_golden_max_equals_scalar_search():
    c = 1.497
    f = lambda t: bounds.log_tradeoff_term(c, t)
    a = bounds.golden_max(f, 0.0, 1.0, grid=2_001)
    assert a == _golden_scalar(lambda t: float(f(t)), 0.0, 1.0, 2_001)
    g = lambda t: bounds._leafy(c, t)
    lo = (3 - a[0]) / (3 + a[0])
    assert bounds.golden_max(g, lo, 1.0, grid=2_001) == _golden_scalar(lambda t: float(g(t)),
                                                                       lo, 1.0, 2_001)
    # a NaN grid point is never the best, except a NaN first point, which a
    # strict-> scan never leaves
    for bad in (0.0, 0.3, 1.0):
        h = lambda t: np.where(t == bad, np.nan, -(t - 0.3) ** 2)
        got = bounds.golden_max(h, 0.0, 1.0, grid=11)
        want = _golden_scalar(lambda t: float(h(t)), 0.0, 1.0, 11)
        assert got[0] == want[0]
        assert got[1] == want[1] or (math.isnan(got[1]) and math.isnan(want[1]))


def test_golden_rows_equal_per_row_scalar_searches():
    """Rows that finish at different steps: an interior peak, a peak before the
    first grid point and one past the last (brackets half as wide), a row whose
    first grid point is NaN, and a wide and a narrow interval."""
    lo = np.array([0.0, 0.0, -3.0, 0.0, -40.0, 0.0])
    hi = np.array([1.0, 2.0, 5.0, 0.5, 40.0, 1e-4])
    peak = np.array([[0.3], [-1.0], [7.0], [0.25], [1.234], [3e-5]])
    nan_at = np.array([[NAN], [NAN], [NAN], [0.0], [NAN], [NAN]])

    def fn(x):
        return np.where(x == nan_at, NAN, -(x - peak) ** 2)

    got = [v.tolist() for v in bounds._golden_rows(fn, lo, hi, 11)]
    steps = set()
    for i in range(len(lo)):
        calls = []
        row = lambda t: calls.append(t) or float(fn(np.full((len(lo), 1), t))[i, 0])
        x, val = _golden_scalar(row, float(lo[i]), float(hi[i]), 11)
        steps.add(len(calls))
        assert got[0][i] == x and repr(got[1][i]) == repr(val), i
    assert math.isnan(fn(lo[:, None])[3, 0]) and len(steps) >= 4  # the rows stop apart


def test_tables_raise_no_floating_point_warning():
    """Every table at its reference rows, with every NumPy warning an error:
    no path, fast or guarded, takes the log of a non-positive value."""
    with np.errstate(all="raise"):
        bounds.alpha_beta_table(list(bounds.REFERENCE_TABLE1))
        for c in bounds.REFERENCE_TABLE2:
            bounds.kiob_det_bound(c)
        for c, gamma in bounds.REFERENCE_TABLE3:
            bounds.kiob_rand_bound(c, gamma)
        for params in bounds.REFERENCE_TABLE4:
            bounds.kpath_bound(*params)
        for c in bounds.REFERENCE_TABLE5:
            bounds.wsp_bound(c)
        bounds.p2p_bound()


def _staged_scalar(t_next, objective, inv_eps):
    """Per-cell scalar refinement of the 200 best stage cells, strict-> first wins."""
    eps = 1.0 / inv_eps
    t = [0.0]
    for j in range(1, inv_eps + 1):
        t.append(t_next(t[-1], j, eps))
    that = np.array(t[:-1])
    cell_right = objective(np.arange(1.0, inv_eps + 1), that, eps)
    best = (-math.inf, None, None)
    for i in np.argsort(cell_right)[::-1][:200]:
        stage, th = int(i) + 1, float(that[i])
        fn = lambda a: float(objective(np.asarray([a]), np.asarray([th]), eps)[0])
        a, val = _golden_scalar(fn, stage - 1, stage, 201)
        if val > best[0]:
            best = (val, stage, a)
    val, stage, a = best
    return {"base": math.exp(val), "argmax": {"i": stage, "alpha": a, "T": t[stage - 1]}}


def _wsp_t_scalar(prev, j, eps):
    return prev + eps * (2 * (j - 1) * eps - prev) / (3 * (1 - (j - 1) * eps))


def _p2p_t_scalar(prev, j, eps):
    return prev + eps * (2 + 2 * (j - 1) * eps - prev) / (3 * (1 - (j - 1) * eps))


@pytest.mark.parametrize("inv_eps", [1, 2, 7, 250, 4097, 100_000])
def test_deletion_recursion_equals_scalar_loop(inv_eps):
    # the list recursion must give the scalar loop's floats bit for bit
    eps = 1.0 / inv_eps
    for t_next, scalar in ((bounds._wsp_t_next, _wsp_t_scalar),
                           (bounds._p2p_t_next, _p2p_t_scalar)):
        want = [0.0]
        for j in range(1, inv_eps + 1):
            want.append(scalar(want[-1], j, eps))
        assert bounds._deletion_recursion(t_next, inv_eps).tolist() == want


def _wsp_reference(c, inv_eps):
    def objective(alpha, that, eps):
        ae = alpha * eps
        big = 3 - ae - that
        small = np.maximum(2 * ae - that, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            return ((6 - 4 * ae - that) * np.log(c * big)
                    - np.where(small > 0, small * np.log(small), 0.0)
                    - (6 - 6 * ae) * np.log(c * big - small))

    return _staged_scalar(_wsp_t_scalar, objective, inv_eps)


def _p2p_reference(inv_eps):
    def objective(alpha, that, eps):
        ae = alpha * eps
        top, mid, low = 6 - ae - that, 2 + 2 * ae - that, 4 - 3 * ae
        with np.errstate(divide="ignore", invalid="ignore"):
            return (top * np.log(top) - mid * np.log(mid) - low * np.log(low)) / 2.0

    return _staged_scalar(_p2p_t_scalar, objective, inv_eps)


@pytest.mark.parametrize("inv_eps", [7, 13, 250, 1000])
def test_staged_bounds_equal_scalar_refinement(inv_eps):
    assert bounds.wsp_bound(1.591, inv_eps) == _wsp_reference(1.591, inv_eps)
    assert bounds.p2p_bound(inv_eps) == _p2p_reference(inv_eps)


def test_staged_bound_raises_when_every_cell_is_nan():
    # at c = 1/2 every refined cell takes the log of a negative number at
    # 1/eps = 1 and 1000; at 250 some cells are still defined
    for inv_eps in (1, 1000):
        with pytest.raises(ParameterError):
            bounds.wsp_bound(0.5, inv_eps)
    assert math.isfinite(bounds.wsp_bound(0.5, 250)["base"])


def test_staged_bound_skips_nan_cells_like_a_scalar_scan():
    # at c = 1 the cell ending at alpha * eps = 1 evaluates 0 * log 0 to NaN;
    # at c = 1/2 whole cells take the log of a negative number
    for c, inv_eps in ((1.0, 1), (1.0, 2), (0.5, 7), (0.5, 13)):
        assert bounds.wsp_bound(c, inv_eps) == _wsp_reference(c, inv_eps)


def _kpath_reference(delta, gamma, c1, c2, cl, cr):
    """``kpath_bound`` as six separate scalar ``golden_max`` searches."""
    if not c1 >= c2 >= 1:
        raise ParameterError("need c1 >= c2 >= 1")
    al, ar, b1, b2 = (bounds.golden_max(lambda a: bounds.log_tradeoff_term(c, a), 0.0, 1.0)[0]
                      for c in (cl, cr, c1, c2))
    half_p, half_m = 0.5 + delta, 0.5 - delta
    flags = []
    if not half_p < b1:
        flags.append("first-branch pinning assumption violated")
    if not b2 < half_p + ar * half_m:
        flags.append("second-branch pinning assumption violated")
    a_prime = max(0.0, (b2 - half_p) / half_m)
    a1, ly1 = bounds.golden_max(lambda a: half_p * gamma * bounds.log_tradeoff_term(cl, a)
                                + (1 - gamma) * bounds.log_tradeoff_term(c1, a * half_p),
                                al, 1.0)
    a2, ly2 = bounds.golden_max(lambda a: half_p * gamma * bounds.log_tradeoff_term(cr, a)
                                + (1 - gamma) * bounds.log_tradeoff_term(c2, half_p + a * half_m),
                                a_prime, ar)
    color = math.exp(gamma * bounds._entropy(half_m))
    z1 = math.exp(ly1) * color * bounds._TWO_EPS
    z2 = math.exp(ly2) * color * bounds._TWO_EPS
    return {"base": max(z1, z2), "Z1": z1, "Z2": z2,
            "argmax": {"alpha1": a1, "alpha2": a2, "alphaL": al, "alphaR": ar,
                       "beta1": b1, "beta2": b2, "flags": flags}}


KPATH_EXTRA = [(0.1, 0.3, 2.0, 1.2, 1.5, 1.3), (0.0, 0.0, 1.0, 1.0, 1.0, 1.0),
               (0.2, 1.0, 3.0, 2.5, 1.1, 2.0), (-0.2, 0.5, 1.7, 1.7, 1.4, 1.6),
               (0.3, 0.05, 1.2, 1.0, 3.0, 1.0)]


@pytest.mark.parametrize("params", list(bounds.REFERENCE_TABLE4) + KPATH_EXTRA)
def test_kpath_bound_equals_six_scalar_searches(params):
    got = bounds.kpath_bound(*params)
    assert repr(got) == repr(_kpath_reference(*params))


def test_kpath_bound_raises_on_an_empty_second_interval():
    # c2 = 4 puts beta2 near 0.92, so a' = (beta2 - 1/2) / (1/2) lies above alphaR at cr = 1
    params = (0.0, 0.084, 4.0, 4.0, 1.092, 1.0)
    for fn in (bounds.kpath_bound, _kpath_reference):
        with pytest.raises(ParameterError, match="empty maximization interval"):
            fn(*params)
