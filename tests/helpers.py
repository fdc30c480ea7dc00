"""Checks that only the tests call: the exhaustive representation check
that the representative-family sweep is compared against, the
internal-node count of a branching, the reduction on/off A/B run, and the
ledger spies that check the cut DPs' layers as they reach ``reduce_layer``."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product

from fptmix import repsets
from fptmix.core import (BudgetExceededError, InstanceError, ParameterError, WeightedSetFamily,
                         bit_positions)
from fptmix.repsets import PartitionSpec, _validate_membership

# (X, Y) pairs one representation check may enumerate
_PAIR_BUDGET = 5_000_000


@dataclass(frozen=True)
class RepresentationCheck:
    valid: bool
    witness: tuple[tuple[int, ...], tuple[int, ...]] | None = None


def check_representation(spec: PartitionSpec, original: WeightedSetFamily,
                         candidate: WeightedSetFamily, objective: str) -> RepresentationCheck:
    """Exhaustive verification of the generalized representation property.

    Enumerates, for every X in the original family, the per-part-maximal
    avoidance sets Y drawn from elements of candidate sets (elements outside
    every candidate set can never invalidate a witness, so skipping them
    loses nothing).  Returns a concrete violating (X, Y) on failure.
    """
    if objective not in ("max", "min"):
        raise ParameterError(f"objective must be 'max' or 'min', got {objective!r}")
    _validate_membership(spec, original.masks)
    orig_lookup = dict(original.sets)
    for members, weight in candidate.sets:
        if members not in orig_lookup or orig_lookup[members] != weight:
            raise InstanceError("candidate is not a subfamily of the original")

    relevant: set[int] = set()
    for members, _ in candidate.sets:
        relevant.update(members)

    ordered = sorted(candidate.sets, key=lambda sw: sw[1], reverse=(objective == "max"))
    cand_masks = [(sum(1 << e for e in m), w) for m, w in ordered]

    work = 0
    for x_members, x_weight in original.sets:
        x_set = set(x_members)
        pools = []
        for part in spec.parts:
            avail = sorted(relevant.intersection(part.elements) - x_set)
            take = min(part.k - part.p, len(avail))
            pools.append(list(combinations(avail, take)))
        total_y = math.prod(len(p) for p in pools)
        work += total_y
        if work > _PAIR_BUDGET:
            raise BudgetExceededError(
                f"representation check needs > {_PAIR_BUDGET} (X, Y) pairs")
        for choice in product(*pools):
            y_mask = 0
            y_flat: tuple[int, ...] = ()
            for group in choice:
                y_flat += group
                for e in group:
                    y_mask |= 1 << e
            ok = False
            for mask, w in cand_masks:
                if objective == "max" and w < x_weight:
                    break
                if objective == "min" and w > x_weight:
                    break
                if mask & y_mask == 0:
                    ok = True
                    break
            if not ok:
                return RepresentationCheck(False, (x_members, y_flat))
    return RepresentationCheck(True)


def branching_internal_nodes(arcs) -> int:
    return len({t for t, _ in arcs})


# the real step, taken before any test replaces it on a module
_STEP = repsets.reduce_layer


def count_only(layer, parts_of_key, *args):
    """The real step with ``parts_of_key`` None: it counts the layer's
    entries into the trace and reduces nothing."""
    return _STEP(layer, None, *args)


def stage_ledger(inst, then=_STEP):
    """A stand-in for ``reduce_layer`` on ``wsp`` that checks the element
    ledger of each layer of ``solve_cwsp(inst)``'s DP, then hands the layer
    to ``then``.

    Layer (i, j) has one part of size 2j - base, base being stage i - 1's
    deletable count s_(i-1) (0 at stage 1), with 3(k - j) more elements to
    come, so j = k - (part.k - part.p) / 3 and i is j's stage.  The key's
    coordinate gives the same base; every stored set has the part's size,
    holds nothing at or below stage i - 1's threshold, and its elements at
    or below each later threshold number the key's count there less base.
    """
    rank, k, t = inst.rank, inst.k, inst.inv_eps
    f_rank = [rank[e] for e in inst.f]
    ek = k // t

    def step(layer, parts_of_key, *args):
        for key, entry in layer.items():
            (part,) = parts_of_key(key)
            j = k - (part.k - part.p) // 3
            i = min(-(-j // ek), t + 1)
            base, s_vec = 2 * j - part.p, key[0]
            assert base == (s_vec[i - 2] if i >= 2 else 0), (i, j, key)
            floor_i = f_rank[i - 2] if i >= 2 else -1
            for fs in map(bit_positions, entry):
                assert len(fs) == part.p and all(rank[e] > floor_i for e in fs), (i, j, key)
                for l in range(max(0, i - 2), t):
                    got = sum(1 for e in fs if rank[e] <= f_rank[l])
                    assert got == s_vec[l] - base, (i, j, key, l)
        return then(layer, parts_of_key, *args)
    return step


def kcwp_ledger(inst):
    """A stand-in for ``reduce_layer`` on ``kpath`` that checks the budget
    ledger of each layer of ``solve_kcwp(inst)``'s DP, then runs the real
    step: every stored set avoids the piece endpoints, carries exactly the
    L, R and other counts its key claims, and lies inside the parts it is
    handed, so no L node is left once the late pieces' parts drop L."""
    l_mask, r_mask = sum(1 << v for v in inst.L), sum(1 << v for v in inst.R)
    endp = sum(1 << v for v in {*inst.l1, *inst.l2, *inst.r1, *inst.r2, inst.vl, inst.vr})

    def step(layer, parts_of_key, *args):
        for key, entry in layer.items():
            union = sum(1 << e for part in parts_of_key(key) for e in part.elements)
            for fs in entry:
                in_l, in_r = (fs & l_mask).bit_count(), (fs & r_mask).bit_count()
                assert not fs & (endp | ~union), key
                assert (in_l, in_r, fs.bit_count() - in_l - in_r) == key[:3], key
        return _STEP(layer, parts_of_key, *args)
    return step


def reduction_ab(monkeypatch, module, solve, inst):
    """Solve ``inst`` with the representative reduction on, then off.

    The off arm replaces ``reduce_layer`` on the solver's ``module`` with
    ``count_only``, so its layers are counted and never reduced.  A spy on
    ``repsets.reduce_layer`` and the off arm's trace, which holds no key
    but ``entries``, show that no reduction ran there by any route.
    Reducing only drops masks, so the off arm counts at least the on arm's
    entries, which it can only do through the step.  Returns (on, off, swept),
    where ``swept`` says the on arm's trace holds a sweep: more reductions
    than dense and small skips.
    """
    on_trace, off_trace = {}, {}
    on = solve(inst, trace=on_trace)
    real_calls = []

    def spy(*args, **kwargs):
        real_calls.append(args)
        return _STEP(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(repsets, "reduce_layer", spy)
        patch.setattr(module, "reduce_layer", count_only)
        off = solve(inst, trace=off_trace)
    assert real_calls == [] and off_trace.keys() <= {"entries"}, "the off arm still reduced"
    assert off_trace.get("entries", 0) >= on_trace.get("entries", 0)
    skips = on_trace.get("dense_skips", 0) + on_trace.get("small_skips", 0)
    return on, off, on_trace.get("reductions", 0) > skips
