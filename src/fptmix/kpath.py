"""Weighted k-path via balanced cutting and divide-and-color.

The cut subproblem fixes, for a path on k nodes, which nodes begin and end
each of 1/eps small pieces (four injective endpoint maps plus the two middle
endpoints), plus a split of a small "blue" node set into a left part L used
only while building early pieces and a right part R used only in late ones.
Its solver is a three-phase dynamic program (early pieces / middle piece /
late pieces) over families of internal-node sets, with generalized
representative reductions after every entry; once the middle piece is done,
all L nodes are dropped from partial solutions.

The paper's top-level search enumerates universal-set colorings and
cut-node choices and hands each legal tuple to the cut solver.  Those
colorings need universal sets on more nodes than unisets builds, so
``path_alg`` answers small k by brute force and reports budget-exceeded
above it; the witness constructor builds an accepting cut instance directly
from a known path, so the cut solver is exercised end to end without the
outer enumeration.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, islice

from .core import (Budget, BudgetExceededError, Digraph, FptMixError, InstanceError,
                   ParameterError, add_weights, bit_positions)
from .repsets import PartitionPart, reduce_layer


@dataclass(frozen=True)
class KcwpTradeoffs:
    c1: float = 1.504
    c2: float = 1.398
    cl: float = 1.092
    cr: float = 1.876

    def __post_init__(self):
        if not (self.c1 >= self.c2 >= 1 and self.cl >= 1 and self.cr >= 1):
            raise ParameterError("tradeoffs need c1 >= c2 >= 1 and cl, cr >= 1")


def _check_fraction(name: str, value: Fraction):
    if not 0 < value < Fraction(1, 10):
        raise ParameterError(f"{name} must lie strictly between 0 and 0.1")


@dataclass(frozen=True)
class KcwpParams:
    kt: int
    m: int
    mt: int
    ek: int
    k1: int
    k2: int
    k3: int
    mid: int


def kcwp_params(k: int, inv_eps: int, delta: Fraction, gamma: Fraction) -> KcwpParams:
    if inv_eps < 1:
        raise ParameterError("1/eps must be a positive integer")
    _check_fraction("eps", Fraction(1, inv_eps))
    _check_fraction("delta", Fraction(delta))
    _check_fraction("gamma", Fraction(gamma))
    m2 = inv_eps - 1
    if m2 % 2:
        raise ParameterError("(1/eps - 1) must be even")
    mt = Fraction(delta) * m2
    if mt.denominator != 1:
        raise ParameterError("delta * (1/eps - 1) must be an integer")
    kt = k - 1
    ek = kt // inv_eps
    k1 = int((Fraction(1, 2) + delta) * gamma * k)
    k2 = int((Fraction(1, 2) - delta) * gamma * k)
    m = m2 // 2
    mid = k - 2 * m * ek - 2
    k3 = kt - inv_eps - k1 - k2
    return KcwpParams(kt, m, int(mt), ek, k1, k2, k3, mid)


@dataclass(frozen=True)
class KcwpInstance:
    digraph: Digraph
    W: int
    k: int
    inv_eps: int
    delta: Fraction
    gamma: Fraction
    L: frozenset
    R: frozenset
    l1: tuple[int, ...]
    l2: tuple[int, ...]
    r1: tuple[int, ...]
    r2: tuple[int, ...]
    vl: int
    vr: int
    # derived once, by __post_init__, which dataclasses.replace re-runs
    _params: KcwpParams = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        par = kcwp_params(self.k, self.inv_eps, self.delta, self.gamma)
        object.__setattr__(self, "_params", par)
        n = self.digraph.node_count
        if self.L & self.R:
            raise ParameterError("L and R must be disjoint")
        blue = self.L | self.R
        for name, fn, length in (("l1", self.l1, par.m + par.mt), ("l2", self.l2, par.m + par.mt),
                                 ("r1", self.r1, par.m - par.mt), ("r2", self.r2, par.m - par.mt)):
            if len(fn) != length:
                raise ParameterError(f"{name} must have {length} values")
            if len(set(fn)) != len(fn):
                raise ParameterError(f"{name} must be injective")
            for v in fn:
                if not 0 <= v < n or v in blue:
                    raise ParameterError(f"{name} must map into nodes outside L and R")
        for v in (self.vl, self.vr):
            if not 0 <= v < n or v in blue:
                raise ParameterError("vl/vr must be nodes outside L and R")
        if self.vl == self.vr:
            raise ParameterError("vl and vr must be distinct")
        for v in blue:
            if not 0 <= v < n:
                raise ParameterError("L/R node out of range")

    def params(self) -> KcwpParams:
        return self._params


def kcwp_instance_to_document(inst: KcwpInstance) -> str:
    doc = {
        "digraph": {"nodes": inst.digraph.node_count,
                    "arcs": [[t, h, w] for t, h, w in inst.digraph.arcs]},
        "W": inst.W, "k": inst.k, "invEps": inst.inv_eps,
        "delta": str(inst.delta), "gamma": str(inst.gamma),
        "L": sorted(inst.L), "R": sorted(inst.R),
        "l1": list(inst.l1), "l2": list(inst.l2),
        "r1": list(inst.r1), "r2": list(inst.r2),
        "vl": inst.vl, "vr": inst.vr,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# the fields of a kcwp instance file and their JSON types
_KCWP_FIELDS = (("digraph", dict), ("digraph.nodes", int), ("digraph.arcs", list), ("W", int),
                ("k", int), ("invEps", int), ("delta", str), ("gamma", str), ("L", list),
                ("R", list), ("l1", list), ("l2", list), ("r1", list), ("r2", list),
                ("vl", int), ("vr", int))


def kcwp_instance_from_document(document: str | bytes) -> KcwpInstance:
    """Parse a kcwp instance file; a missing or ill-typed field, or a list
    field with an ill-typed entry, is an ``InstanceError`` that names it."""
    try:
        data = json.loads(document)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InstanceError(f"malformed kcwp document: {exc}") from None
    except RecursionError:
        raise InstanceError("kcwp document is nested too deep to parse") from None
    for name, kind in _KCWP_FIELDS:
        outer, _, inner = name.rpartition(".")
        value = (data[outer] if outer else data).get(inner) if isinstance(data, dict) else None
        if not isinstance(value, kind) or isinstance(value, bool):
            raise InstanceError(f"kcwp field {name!r} is missing or not {kind.__name__}")
    for name in ("L", "R", "l1", "l2", "r1", "r2"):
        if not all(type(v) is int for v in data[name]):
            raise InstanceError(f"kcwp field {name!r} must list node ints")
    try:
        delta, gamma = Fraction(data["delta"]), Fraction(data["gamma"])
    except (ValueError, ZeroDivisionError) as exc:
        raise InstanceError(f"kcwp fields 'delta' and 'gamma' must be fractions: {exc}")
    try:
        g = Digraph(data["digraph"]["nodes"], data["digraph"]["arcs"])
    except InstanceError as exc:  # name the field, as every check above does
        raise InstanceError(f"kcwp field 'digraph.nodes' or 'digraph.arcs': {exc}") from None
    return KcwpInstance(
        g, data["W"], data["k"], data["invEps"], delta, gamma,
        frozenset(data["L"]), frozenset(data["R"]),
        tuple(data["l1"]), tuple(data["l2"]),
        tuple(data["r1"]), tuple(data["r2"]),
        data["vl"], data["vr"])


@dataclass(frozen=True)
class KcwpValidation:
    valid: bool
    condition: int | None = None
    detail: str | None = None


def validate_kcwp(inst: KcwpInstance) -> KcwpValidation:
    """The two endpoint-map conditions: no node starts or ends two pieces,
    and starts/ends line up into a single open chain."""
    il1, il2 = set(inst.l1), set(inst.l2)
    ir1, ir2 = set(inst.r1), set(inst.r2)
    if il1 & ir1:
        return KcwpValidation(False, 1, f"start maps share {sorted(il1 & ir1)}")
    if il2 & ir2:
        return KcwpValidation(False, 1, f"end maps share {sorted(il2 & ir2)}")
    if inst.vl in il1 | ir1:
        return KcwpValidation(False, 1, f"vl={inst.vl} also starts another piece")
    if inst.vr in il2 | ir2:
        return KcwpValidation(False, 1, f"vr={inst.vr} also ends another piece")
    starts = il1 | ir1 | {inst.vl}
    ends = il2 | ir2 | {inst.vr}
    if len(starts - ends) != 1 or len(ends - starts) != 1:
        return KcwpValidation(
            False, 2,
            f"start/end imbalance: {sorted(starts - ends)} vs {sorted(ends - starts)}")
    return KcwpValidation(True)


@dataclass(frozen=True)
class KcwpResult:
    accept: bool
    pieces: tuple[tuple[int, ...], ...] | None = None  # full node lists, endpoints included
    weight: int | None = None
    chained: bool | None = None


def _least_l(i: int, early: int, k1: int, mid: int) -> int:
    """ceil(i / early * (k1 - mid)): the fewest L nodes i early pieces hold."""
    return -(-i * (k1 - mid) // early)


def _most_r(i: int, late: int, k2: int, mid: int) -> int:
    """floor(i / late * (k2 - mid)) + mid: the most R nodes the middle piece
    and i late pieces hold."""
    return i * (k2 - mid) // late + mid


def solve_kcwp(inst: KcwpInstance, tradeoffs: KcwpTradeoffs | None = None,
               trace: dict | None = None) -> KcwpResult:
    """Three-phase staged DP over internal-node sets.

    Layer t holds, per (L count, R count, other count, last node), a
    min-weight family of the sets of the first t internal nodes, stored as
    node bitmasks; once a layer is built, ``repsets.reduce_layer`` replaces
    each entry by a generalized representative family, with the parts its
    key's counts name (built once per counts).
    The layers walk the pieces in order: the early pieces (phase M, no R
    nodes), the middle piece (phase N, L and R both allowed) and the late
    pieces (phase K, no L nodes).  A step continues the current piece from
    its last node, or, at the first internal node of a piece, closes the
    previous piece at its end node and opens this one at its start node.
    Once the middle piece completes, L nodes are deleted from stored sets and
    the L part leaves the partition.  The witness is the lightest final set
    within W, ties broken by key and then by members, rebuilt by one walk
    back; ``chained`` is decided by the endpoint maps alone.  An update keeps
    the first of equal weights, except that between two sets from one source
    key it takes the set first in ascending sorted-member order.  ``tradeoffs``
    checks itself when it is built; no construction reads it.
    """
    check = validate_kcwp(inst)
    if not check.valid:
        raise ParameterError(f"function condition {check.condition} violated: {check.detail}")
    par = inst.params()
    if par.ek - 1 < 1 or par.mid < 1:
        raise ParameterError("degenerate regime: pieces need at least one internal node")
    g = inst.digraph
    n = g.node_count
    if inst.k > n:  # no simple k-node path; the layers would take about k steps to say so
        return KcwpResult(False)
    weights = g.arc_weights()
    out = g.out_neighbors()  # ascending, as the arcs are sorted
    endp = set(inst.l1) | set(inst.l2) | set(inst.r1) | set(inst.r2) | {inst.vl, inst.vr}
    L, R = inst.L, inst.R
    e3 = [v for v in range(n) if v not in L and v not in R and v not in endp]
    k1, k2, k3, mid, ek, m, mt = par.k1, par.k2, par.k3, par.mid, par.ek, par.m, par.mt
    early = m + mt
    starts = inst.l1 + (inst.vl,) + inst.r1
    ends = inst.l2 + (inst.vr,) + inst.r2
    lengths = [ek - 1] * early + [mid] + [ek - 1] * (m - mt)
    aftermid = early * (ek - 1) + mid
    part_shapes = ((tuple(sorted(L)), k1), (tuple(sorted(R)), k2), (tuple(e3), k3))
    # per phase: the nodes a step may not add, and the first of the L, R and
    # other parts that enters its reductions (phase K leaves L out)
    phases = {"M": (R | endp, 0), "N": (endp, 0), "K": (L | endp, 1)}

    @functools.cache
    def parts_of(first, counts):
        return tuple(PartitionPart(elements, k_part, count)
                     for (elements, k_part), count in zip(part_shapes[first:], counts))

    # layer 0: the empty set, standing at the start node of the first piece
    layers = [{(0, 0, 0, starts[0]): {0: (0, None)}}]
    for p, length in enumerate(lengths):
        phase = "M" if p < early else "N" if p == early else "K"
        forbidden, first = phases[phase]
        for pos in range(length):
            total = len(layers)
            # count bounds of this layer: lo_l <= L count <= k1, R count <= hi_r
            if phase == "M":
                lo_l, hi_r = _least_l(p, early, k1, mid), k2
            elif phase == "N":
                lo_l, hi_r = k1 - (aftermid - total), k2
            else:
                lo_l, hi_r = 0, min(k2, _most_r(p - early, m - mt, k2, mid))
            bridge_to = (ends[p - 1], starts[p]) if pos == 0 and p else None
            # L nodes leave the stored sets when the first late piece opens;
            # every key of the last middle layer has L count k1 (lo_l is k1 there)
            drop_l = bridge_to is not None and p == early + 1
            keep = ~sum(1 << v for v in L) if drop_l else -1  # the bits a stored set keeps
            layer: dict = {}
            for key, entry in layers[-1].items():
                l, r, s, u = key
                if bridge_to is None:
                    src, bridge = u, None
                else:
                    tail, src = bridge_to
                    if (u, tail) not in weights:
                        continue
                    bridge = weights[(u, tail)]
                if drop_l:
                    l = 0
                for v in out[src]:
                    if v in forbidden:
                        continue
                    dl, dr = v in L, v in R
                    nl, nr, ns = l + dl, r + dr, s + 1 - dl - dr
                    if not (lo_l <= nl <= k1 and nr <= hi_r and ns <= k3):
                        continue
                    nkey = (nl, nr, ns, v)
                    arc = weights[(src, v)]
                    bit = 1 << v
                    # made on its first insert, so layer keys keep first-insert order
                    target = layer.get(nkey)
                    for fs, (w, _) in entry.items():
                        if fs & bit:
                            continue
                        nw = (add_weights(w, arc) if bridge is None
                              else add_weights(add_weights(w, bridge), arc))
                        nfs = (fs & keep) | bit
                        if target is None:
                            target = layer[nkey] = {}
                        old = target.get(nfs)
                        if old is None or nw < old[0] or nw == old[0] and old[1][0] == key \
                                and fs & (d := fs ^ old[1][1]) & -d:
                            target[nfs] = (nw, (key, fs, v))
            reduce_layer(layer, lambda key: parts_of(first, key[first:3]), "min", trace)
            layers.append(layer)

    # ---- acceptance --------------------------------------------------------
    # every final key has R count k2 and other count k3: the last middle layer
    # holds exactly k1 L nodes (its lo_l is k1) and later layers add none, so
    # r + s = k2 + k3 with r <= k2 and s <= k3
    best = None
    for key, entry in layers[-1].items():
        if (key[3], ends[-1]) not in weights:
            continue
        closing = weights[(key[3], ends[-1])]
        for fs, (w, _) in entry.items():
            totalw = add_weights(w, closing)
            if totalw <= inst.W:
                cand = (totalw, key, bit_positions(fs), fs)
                best = cand if best is None else min(best, cand)
    if best is None:
        return KcwpResult(False)
    totalw, key, _, fs = best
    nodes: list[int] = []
    for layer in layers[:0:-1]:
        key, fs, added = layer[key][fs][1]
        nodes.append(added)
    walk = reversed(nodes)
    pieces = tuple((start, *islice(walk, length), end)
                   for start, end, length in zip(starts, ends, lengths))
    # which piece follows which is fixed by starts and ends, and the DP keeps
    # internal nodes distinct and off them: every final set chains, or none
    return KcwpResult(True, pieces, totalw, chain_pieces(inst, pieces) is not None)


def verify_kcwp_witness(inst: KcwpInstance, result: KcwpResult) -> None:
    """Re-check an accepted piece tuple against every stated condition."""
    if not result.accept:
        raise ParameterError("cannot verify a reject")
    par = inst.params()
    g = inst.digraph
    weights = g.arc_weights()
    endp = set(inst.l1) | set(inst.l2) | set(inst.r1) | set(inst.r2) | {inst.vl, inst.vr}
    L, R = set(inst.L), set(inst.R)
    pieces = result.pieces
    if len(pieces) != inst.inv_eps:
        raise FptMixError("wrong piece count")
    lengths = [par.ek - 1] * (par.m + par.mt) + [par.mid] + [par.ek - 1] * (par.m - par.mt)
    starts = list(inst.l1) + [inst.vl] + list(inst.r1)
    ends = list(inst.l2) + [inst.vr] + list(inst.r2)
    used: set[int] = set()
    total = l_count = r_count = 0
    l_cum: list[int] = []
    r_cum: list[int] = []
    for idx, piece in enumerate(pieces):
        if piece[0] != starts[idx] or piece[-1] != ends[idx]:
            raise FptMixError(f"piece {idx} endpoints mismatch")
        internals = piece[1:-1]
        if len(internals) != lengths[idx]:
            raise FptMixError(f"piece {idx} internal count mismatch")
        if len(set(piece)) != len(piece):
            raise FptMixError(f"piece {idx} is not a simple path")
        for a, b in zip(piece, piece[1:]):
            if (a, b) not in weights:
                raise FptMixError(f"piece {idx} uses missing arc {(a, b)}")
            total = add_weights(total, weights[(a, b)])
        for v in internals:
            if v in endp:
                raise FptMixError(f"internal node {v} is a piece endpoint")
            if v in used:
                raise FptMixError(f"internal node {v} reused")
            used.add(v)
            if v in L:
                if idx > par.m + par.mt:
                    raise FptMixError("L node inside a late piece")
                l_count += 1
            if v in R:
                if idx < par.m + par.mt:
                    raise FptMixError("R node inside an early piece")
                r_count += 1
        if idx < par.m + par.mt:
            l_cum.append(l_count)
        else:
            r_cum.append(r_count)
    if l_count != par.k1 or r_count != par.k2:
        raise FptMixError("blue node budgets not met exactly")
    for i, cnt in enumerate(l_cum, start=1):
        if Fraction(cnt) < Fraction(i, par.m + par.mt) * (par.k1 - par.mid):
            raise FptMixError(f"cumulative L bound violated after early piece {i}")
    for i, cnt in enumerate(r_cum[1:], start=1):  # r_cum[0] covers the middle piece
        if Fraction(cnt) > Fraction(i, par.m - par.mt) * (par.k2 - par.mid) + par.mid:
            raise FptMixError(f"cumulative R bound violated after late piece {i}")
    if total > inst.W or total != result.weight:
        raise FptMixError("witness weight mismatch")


def chain_pieces(inst: KcwpInstance, pieces) -> tuple[int, ...] | None:
    """Glue pieces end-to-start; returns the full node sequence when they
    form one simple directed path on k nodes, else None."""
    starts = {p[0]: i for i, p in enumerate(pieces)}
    ends = {p[-1] for p in pieces}
    heads = [p[0] for p in pieces if p[0] not in ends]
    if len(heads) != 1:
        return None
    seq: list[int] = []
    idx = starts[heads[0]]
    seen = set()
    while True:
        seen.add(idx)
        piece = pieces[idx]
        seq.extend(piece if not seq else piece[1:])
        nxt = starts.get(piece[-1])
        if nxt is None:
            break
        if nxt in seen:
            return None
        idx = nxt
    if len(seen) != len(pieces) or len(seq) != inst.k or len(set(seq)) != inst.k:
        return None
    return tuple(seq)


def construct_kcwp_witness(g: Digraph, known_path, inv_eps: int, delta: Fraction,
                           gamma: Fraction) -> KcwpInstance:
    """Build an accepting cut instance from a known simple k-node path.

    Follows the completeness construction: positional cut nodes, a threshold
    node capturing exactly the blue budget, the blue-heaviest candidate as
    the middle piece, a pigeonhole split of the remaining pieces (searched
    exhaustively over partitions, descending/ascending blue order), and L, R
    taken directly as the blue parts.
    """
    path = tuple(known_path)
    k = len(path)
    if len(set(path)) != k:
        raise ParameterError("known path is not simple")
    weights = g.arc_weights()
    total = 0
    for a, b in zip(path, path[1:]):
        if (a, b) not in weights:
            raise ParameterError(f"known path uses missing arc {(a, b)}")
        total = add_weights(total, weights[(a, b)])
    par = kcwp_params(k, inv_eps, delta, gamma)
    if par.ek - 1 < 1 or par.mid < 1:
        raise ParameterError("k too small for the requested eps")
    m, mt, ek, k1, k2, mid = par.m, par.mt, par.ek, par.k1, par.k2, par.mid
    rem = par.kt - inv_eps * ek

    # positional boundary set: starts of all candidate pieces plus their ends
    starts_pos = [(j - 1) * ek + 1 for j in range(1, inv_eps + 1)]
    ends_pos = [j * ek + rem + 1 for j in range(1, inv_eps + 1)]
    u_big = {path[p - 1] for p in starts_pos} | {path[p - 1] for p in ends_pos} | {path[k - 1]}

    blue_budget = k1 + k2
    free_on_path = [v for v in path if v not in u_big]
    if blue_budget > len(free_on_path):
        raise ParameterError("k too small to supply the blue budget")
    # threshold scan: nodes with index >= i, outside the boundary set
    vstar: set[int] = set()
    for i in range(g.node_count, -1, -1):
        vstar = {v for v in range(i, g.node_count)} - u_big
        if len(vstar.intersection(path)) == blue_budget:
            break
    if len(vstar.intersection(path)) != blue_budget:
        raise ParameterError("no threshold captures the blue budget exactly")

    def span_nodes(lo: int, hi: int) -> tuple[int, ...]:
        return tuple(path[p - 1] for p in range(lo, hi + 1))

    candidates = [(span_nodes(starts_pos[j], ends_pos[j]), j) for j in range(inv_eps)]
    blue_of = lambda nodes: sum(1 for v in nodes if v in vstar)
    best_blue = max(blue_of(nodes) for nodes, _ in candidates)
    mid_nodes, jstar = next((nodes, j) for nodes, j in candidates if blue_of(nodes) == best_blue)

    small: list[tuple[int, ...]] = []
    for i in range(jstar):
        small.append(span_nodes(i * ek + 1, (i + 1) * ek + 1))
    vr_pos = ends_pos[jstar]
    for i in range(inv_eps - 1 - jstar):
        small.append(span_nodes(vr_pos + i * ek, vr_pos + (i + 1) * ek))
    if len(small) != 2 * m:
        raise FptMixError(f"{len(small)} small pieces beside the middle one, expected {2 * m}")

    mid_blue = [v for v in mid_nodes[1:-1] if v in vstar]
    piece_blue = [blue_of(p[1:-1]) for p in small]

    for left_idx in combinations(range(2 * m), m + mt):
        right_idx = [i for i in range(2 * m) if i not in left_idx]
        sum_l = sum(piece_blue[i] for i in left_idx)
        sum_r = sum(piece_blue[i] for i in right_idx)
        if sum_l > k1 or sum_r > k2 or k1 - sum_l > len(mid_blue):
            continue
        left = sorted(left_idx, key=lambda i: (-piece_blue[i], i))
        right = sorted(right_idx, key=lambda i: (piece_blue[i], i))
        l_mid = set(mid_blue[: k1 - sum_l])
        Lset = {v for i in left_idx for v in small[i][1:-1] if v in vstar} | l_mid
        Rset = {v for i in right_idx for v in small[i][1:-1] if v in vstar} | \
               (set(mid_blue) - l_mid)
        inst = KcwpInstance(
            g, total, k, inv_eps, Fraction(delta), Fraction(gamma),
            frozenset(Lset), frozenset(Rset),
            tuple(small[i][0] for i in left), tuple(small[i][-1] for i in left),
            tuple(small[i][0] for i in right), tuple(small[i][-1] for i in right),
            mid_nodes[0], mid_nodes[-1])
        if not validate_kcwp(inst).valid:
            continue
        pieces = tuple(small[i] for i in left) + (mid_nodes,) + tuple(small[i] for i in right)
        if _pieces_satisfy(inst, pieces):
            return inst
    raise FptMixError("no piece partition satisfies the budgets (unexpected)")


def _pieces_satisfy(inst: KcwpInstance, pieces) -> bool:
    try:
        total = 0
        weights = inst.digraph.arc_weights()
        for piece in pieces:
            for a, b in zip(piece, piece[1:]):
                total = add_weights(total, weights[(a, b)])
        verify_kcwp_witness(inst, KcwpResult(True, pieces, total))
        return total <= inst.W
    except FptMixError:
        return False


@dataclass(frozen=True)
class PathAlgResult:
    status: str  # accept | reject | budget-exceeded
    path: tuple[int, ...] | None = None
    weight: int | None = None


def best_kpath(g: Digraph, k: int, budget: int):
    """Exhaustive minimum-weight simple k-node path, with the path itself.
    Each extension of a partial path by one node is charged against
    ``budget``; the extension past it raises ``BudgetExceededError``."""
    if k <= 0:
        return None
    out = g.out_neighbors()
    weights = g.arc_weights()
    best: list = [None]
    extensions = Budget(budget, "path extensions")

    def extend(v, trail, total):
        if len(trail) == k:
            if best[0] is None or total < best[0][0]:
                best[0] = (total, tuple(trail))
            return
        for u in sorted(out[v]):
            if u not in trail:
                extensions.charge()
                trail.append(u)
                extend(u, trail, add_weights(total, weights[(v, u)]))
                trail.pop()

    for start in range(g.node_count):
        extend(start, [start], 0)
    return best[0]


def path_alg(g: Digraph, W: int, k: int, inv_eps: int = 13,
             delta: Fraction = Fraction(1, 12), gamma: Fraction = Fraction(84, 1000),
             budget: int = 100_000) -> PathAlgResult:
    """Decide whether ``g`` has a k-node path of weight at most ``W``.

    A non-positive ``budget`` gives budget-exceeded, and then a graph with
    fewer than k nodes is rejected, at any k.  Otherwise, below the regime where
    pieces have an internal node (k < 2/eps + 1), the answer comes from exhaustive
    search, which charges ``budget`` one unit per path extension and reports
    budget-exceeded when it runs out; above it the result is budget-exceeded.
    """
    kcwp_params(k, inv_eps, delta, gamma)
    if budget <= 0:
        return PathAlgResult("budget-exceeded")
    if g.node_count < k:
        return PathAlgResult("reject")
    if k < 2 * inv_eps + 1:
        try:
            got = best_kpath(g, k, budget)
        except BudgetExceededError:
            return PathAlgResult("budget-exceeded")
        if got is not None and got[0] <= W:
            return PathAlgResult("accept", got[1], got[0])
        return PathAlgResult("reject")
    # The paper draws colorings from an (n, k1 + k2, k2)-universal set and
    # hands every cut tuple to solve_kcwp.  kcwp_params admits only odd
    # 1/eps >= 13 (at 11, delta * 10 is never whole), so n >= k >= 27 here:
    # past the 16 nodes (GREEDY_MAX_N) that unisets builds universal sets on.
    return PathAlgResult("budget-exceeded")
