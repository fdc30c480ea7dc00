"""Checks that only the tests call: the exhaustive representation check
that the representative-family sweep is compared against, the
internal-node count of a branching, and the reduction on/off A/B run."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product

from fptmix import repsets
from fptmix.core import BudgetExceededError, InstanceError, ParameterError, WeightedSetFamily
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


def reduction_ab(monkeypatch, module, solve, inst):
    """Solve ``inst`` with the representative reduction on, then off.

    The off arm replaces ``reduce_layer`` on the solver's ``module`` with a
    pass-through; a spy on ``repsets.reduce_layer`` and the off arm's trace
    show that no reduction ran there by any route, and the pass-through shows
    that the solver reached it.  Returns (on, off, swept), where ``swept``
    says the on arm's trace holds a sweep: more reductions than dense skips.
    """
    on_trace, off_trace = {}, {}
    on = solve(inst, trace=on_trace)
    real, real_calls, skipped = repsets.reduce_layer, [], []

    def spy(*args, **kwargs):
        real_calls.append(args)
        return real(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(repsets, "reduce_layer", spy)
        patch.setattr(module, "reduce_layer", lambda *args, **kwargs: skipped.append(args))
        off = solve(inst, trace=off_trace)
    assert real_calls == [] and off_trace == {} and skipped, "the off arm still reduced"
    return on, off, on_trace.get("reductions", 0) > on_trace.get("dense_skips", 0)
