"""Separator data structures and (generalized) representative families.

A family F over a universe part E' is (E', k', p')-good when for every
X subset of E' of size p' and Y subset of E' \\ X of size at most k' - p',
some member contains X and avoids Y.  A separator stores such a family and
answers chi(S) = indices of members containing S.

``gen_rep_alg`` computes a subfamily that max/min represents its input in
the generalized, per-part-budget sense: one separator per part, an implicit
product family addressed by mixed radix, and a single weight-ordered sweep
that claims product indices.  ``check_representation``, the exhaustive check
of the same property, lives with the tests in ``tests/helpers.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

from .core import (Budget, BudgetExceededError, InstanceError, ParameterError, WeightedSetFamily,
                   _mask, bit_positions)
from . import unisets

_DENSE_PART_CAP = 200_000


@dataclass
class SeparatorStats:
    construction: str = "greedy"


@dataclass(frozen=True)
class SeparatorFamily:
    """An (E', k', p')-separator over a part of ``m`` elements.

    ``family`` holds bitsets over the local positions 0..m-1, which
    ``part_elements`` lists.  ``element_maps[i]`` is the bitmask of family
    members containing local position ``i``.  ``dense`` says the family is
    exactly the set of all p'-subsets of the part.  All three depend only on
    the shape ``(m, min(k', m), p')``: the separator cache holds them once
    per shape for every separator of that shape.
    """

    part_elements: tuple[int, ...]
    k_prime: int
    p_prime: int
    family: tuple[int, ...]
    stats: SeparatorStats = field(compare=False)
    element_maps: tuple[int, ...] = field(compare=False, repr=False)
    dense: bool = field(compare=False, default=False)


_CACHE_CAP = 512  # the cache drops its oldest entry beyond this many
_separator_cache: dict[tuple[int, int, int], tuple[tuple[int, ...], tuple[int, ...], bool]] = {}


def clear_separator_cache() -> None:
    _separator_cache.clear()


_GREEDY_CELL_CAP = 16_000_000  # candidates x constraints worth running greedy cover on


def build_separator(m: int, k_prime: int, p_prime: int) -> SeparatorFamily:
    """Construct a goodness-backed separator for a part of ``m`` elements,
    over their local positions 0..m-1; which elements a part holds, and in
    what order, is its caller's business (``PartitionSpec`` checks parts).

    The family, its element maps and its dense flag are built on the first
    call for a shape ``(m, min(k', m), p')`` and kept in the separator cache;
    a later call of that shape reports ``stats.construction == "cached"``.
    The family is a greedy universal-set cover while that is cheap, else all
    p'-subsets of the part (a universal set via extension by zeros, so
    goodness holds exactly, only without compression); the c' tradeoff of
    the analytic bounds has nothing to steer here.
    """
    if not 0 <= p_prime <= k_prime:
        raise ParameterError(f"need 0 <= p' <= k', got k'={k_prime} p'={p_prime}")
    if p_prime > m:
        raise ParameterError(f"p'={p_prime} exceeds part size {m}")
    key = (m, min(k_prime, m), p_prime)  # Y cannot use more than m - p' elements anyway
    mode = "cached"
    if key not in _separator_cache:
        # with m <= GREEDY_MAX_N, 2^m * C <= _GREEDY_CELL_CAP leaves at most 6,930
        # constraints C, inside build_universal's default budget: it cannot raise
        if m <= unisets.GREEDY_MAX_N and \
                (1 << m) * unisets.constraint_count(*key) <= _GREEDY_CELL_CAP:
            fam = unisets.build_universal(*key, mode="greedy").functions
            mode = "greedy"
        elif math.comb(m, p_prime) > _DENSE_PART_CAP:
            raise BudgetExceededError(
                f"part of size {m} needs {math.comb(m, p_prime)} dense separator sets")
        else:
            fam = tuple(_mask(members) for members in combinations(range(m), p_prime))
            mode = "dense"
        # one little-endian bit row per position, so each member costs O(1) per element
        rows = [bytearray((len(fam) + 7) // 8) for _ in range(m)]
        for j, f in enumerate(fam):
            byte, bit = j >> 3, 1 << (j & 7)
            for pos in bit_positions(f):
                rows[pos][byte] |= bit
        # comb(m, p') distinct members of size p' are all the p'-subsets
        dense = all(f.bit_count() == p_prime for f in fam) and \
            len(set(fam)) == math.comb(m, p_prime)
        if len(_separator_cache) >= _CACHE_CAP:
            del _separator_cache[next(iter(_separator_cache))]
        _separator_cache[key] = fam, tuple(int.from_bytes(row, "little") for row in rows), dense
    fam, maps, dense = _separator_cache[key]
    return SeparatorFamily(tuple(range(m)), k_prime, p_prime, fam, SeparatorStats(mode), maps,
                           dense)


def query_separator(sep: SeparatorFamily, s) -> list[int]:
    """chi(S) for S given by local positions: ascending indices of family
    members containing S, found by a scan of the family (the sweep reads the
    element maps instead)."""
    if len(s) != sep.p_prime:
        raise ParameterError(f"|S|={len(s)} but separator expects p'={sep.p_prime}")
    if not all(0 <= pos < len(sep.part_elements) for pos in s):
        raise ParameterError(f"S={tuple(s)} holds a position outside the part")
    need = _mask(s)
    return [j for j, f in enumerate(sep.family) if f & need == need]


@dataclass(frozen=True)
class PartitionPart:
    """One part (E_i, k_i, p_i); its hash is computed once, as parts tuples
    key the per-layer caches of ``reduce_layer``."""

    elements: tuple[int, ...]
    k: int
    p: int
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.elements, self.k, self.p)))

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True)
class PartitionSpec:
    """Per-part budgets (E_i, k_i, p_i) parameterizing generalized
    representation; ``masks`` holds each part's element bitmask."""

    parts: tuple[PartitionPart, ...]
    masks: tuple[int, ...] = field(default=(), compare=False, repr=False)

    def __post_init__(self):
        try:
            masks = tuple(_mask(part.elements) for part in self.parts)
        except (TypeError, ValueError):  # a shift by a negative or non-int element
            raise InstanceError("a part lists an element that is not a non-negative int") from None
        object.__setattr__(self, "masks", masks)
        union = 0
        for part, mask in zip(self.parts, self.masks):
            if part.p > part.k:
                raise ParameterError(f"part has p={part.p} > k={part.k}")
            if mask.bit_count() != len(part.elements):
                raise InstanceError(f"part {part.elements} lists an element twice")
            dup = mask & union
            if dup:
                raise InstanceError(f"parts are not disjoint: element "
                                    f"{(dup & -dup).bit_length() - 1} repeated")
            union |= mask


def _shape(part: PartitionPart):
    """Family, element maps and dense flag of the part's (size, k, p) shape,
    which depend on nothing else; ``build_separator`` runs only for a shape
    the separator cache does not hold."""
    m = len(part.elements)
    if (key := (m, min(part.k, m), part.p)) not in _separator_cache:
        build_separator(m, part.k, part.p)
    return _separator_cache[key]


def _validate_membership(spec: PartitionSpec, masks) -> None:
    outside = ~sum(spec.masks)  # parts are disjoint, so the sum is their union
    for mask in masks:
        if mask & outside:
            raise InstanceError(
                f"set {tuple(bit_positions(mask))} has members outside the partition")
        for part, part_mask in zip(spec.parts, spec.masks):
            inside = (mask & part_mask).bit_count()
            if inside != part.p:
                raise InstanceError(f"set {tuple(bit_positions(mask))} has {inside} members "
                                    f"in a part expecting exactly {part.p}")


def select_representative_positions(spec: PartitionSpec, family,
                                    objective: str) -> tuple[list[int], int]:
    """Positions into ``family`` kept by the weight-ordered sweep, plus the
    implicit product-family size.  ``family`` is a ``WeightedSetFamily``,
    whose per-part member counts are checked here and whose universe orders
    each part, or the list of (mask, weight) pairs that ``reduce_layer``
    passes, bit e standing for element e, which are trusted to hold exactly
    p members in each part and none outside the parts; each part's local
    positions then follow the order it lists its elements in.

    chi(S) of each part is the AND of the cached element maps of S's members
    in that part; a product index is claimed by the first set, in weight
    order, whose chi-product contains it."""
    if objective not in ("max", "min"):
        raise ParameterError(f"objective must be 'max' or 'min', got {objective!r}")
    if isinstance(family, WeightedSetFamily):
        rank = family.universe.rank
        if sum(spec.masks) >> len(rank):  # parts are disjoint: the sum is their union
            raise InstanceError("a part has an element outside the family's universe")
        spec = PartitionSpec(tuple(PartitionPart(tuple(sorted(part.elements, key=rank.__getitem__)),
                                                 part.k, part.p) for part in spec.parts))
        family = list(zip(family.masks, (w for _, w in family.sets)))
        _validate_membership(spec, [mask for mask, _ in family])
    count = len(family)
    if count <= 1:
        return list(range(count)), 1

    active = [part for part in spec.parts if not (part.k == 0 and part.p == 0)]
    shapes = [_shape(part) for part in active]
    sizes = [len(fam) for fam, _, _ in shapes]
    product_size = math.prod(sizes) if sizes else 1
    element_map: dict[int, tuple[int, int]] = {}  # element bit -> (active part, members map)
    for i, (part, (_, maps, _)) in enumerate(zip(active, shapes)):
        for e, members_map in zip(part.elements, maps):
            element_map[1 << e] = i, members_map
    full = [(1 << size) - 1 for size in sizes]

    reverse = objective == "max"
    order = sorted(range(count), key=lambda pos: family[pos][1], reverse=reverse)

    # indices z_F claimed in the mixed-radix product space, whose member sets
    # are never materialized: the mixed-radix index over every active part but
    # the last maps to the bitmask of the last part's members claimed with it
    used: dict[int, int] = {}
    selected: list[int] = []
    for pos in order:
        chi = full.copy()
        rest = family[pos][0]
        while rest:  # every member lies in an active part
            low = rest & -rest
            i, members_map = element_map[low]
            chi[i] &= members_map
            rest ^= low
        last = chi.pop() if chi else 1
        prefixes = [0]
        for size, mask in zip(sizes, chi):
            prefixes = [idx * size + j for idx in prefixes for j in bit_positions(mask)]
        grown = [(idx, claimed | last) for idx in prefixes
                 if (claimed := used.get(idx, 0)) | last != claimed]
        if grown:
            selected.append(pos)
            used.update(grown)
    selected.sort()
    return selected, product_size


def reduce_layer(layer: dict, parts_of_key, objective: str | None, trace: dict | None = None,
                 cap: Budget | None = None) -> None:
    """Close one DP layer, as every DP does once per layer it builds: add
    its masks to ``trace["entries"]``, charge them to ``cap``, and unless
    ``parts_of_key`` is None reduce every entry, in place, to the masks the
    sweep keeps.

    ``layer`` maps a key to an entry, a dict from distinct equal-size member
    bitmasks (bit e is element e) to values; ``parts_of_key(key)`` names its
    parts, and the order a part lists its elements in is their local-position
    order in its separator.  The solvers build every mask with the counts its
    key names, so none are checked.  ``objective`` "max" or "min" weighs a
    mask by its value's first item; None marks an unweighted DP.  Entries of
    one set are left alone.  A swept entry keeps its masks in ascending
    sorted-member order, the sweep's tie-break among equal weights; an entry
    kept whole is neither sorted nor rebuilt, so the solvers break their own
    ties.  Each parts tuple is resolved once per call.
    When all its active separators are dense, a set's chi-product is the one
    index of its own per-part restriction, so the sweep would keep every set
    and such an entry is kept whole.  So is one of n <= 1 + min(k_i - p_i) masks, over
    active parts: in each part a good separator member holds S there and avoids one element
    of every earlier set that differs there, and these members give S an unclaimed index.
    ``trace`` gets the largest reduced entry as ``peak_family`` and adds the
    counts ``reductions``, ``dense_skips`` and ``small_skips``.
    """
    if (trace is not None or cap is not None) and layer:  # the DPs store no empty entry
        entries = sum(map(len, layer.values()))
        if trace is not None:
            trace["entries"] = trace.get("entries", 0) + entries
        if cap is not None:
            cap.charge(entries)
    resolved: dict[tuple, tuple[bool, float]] = {}  # parts -> (all dense, slack)
    specs: dict[tuple, PartitionSpec] = {}
    reductions = dense_skips = small_skips = peak = 0
    for key, entry in layer.items():
        if parts_of_key is None or len(entry) <= 1:
            continue
        parts = parts_of_key(key)
        if parts not in resolved:
            active = [part for part in parts if part.k or part.p]
            resolved[parts] = (all(_shape(part)[2] for part in active),
                               min((part.k - part.p for part in active), default=math.inf))
        all_dense, slack = resolved[parts]
        if all_dense:
            dense_skips += 1
        elif len(entry) - 1 <= slack:
            small_skips += 1
        else:
            # ascending sorted-member order: A comes first iff the lowest bit of
            # A ^ B is in A, which gives A the larger key, read from bit 0 up
            ordered = sorted(entry, key=lambda fs: bin(fs)[:1:-1], reverse=True)
            if parts not in specs:
                specs[parts] = PartitionSpec(parts)
            pairs = [(fs, entry[fs][0] if objective else 0) for fs in ordered]
            keep, _ = select_representative_positions(specs[parts], pairs, objective or "max")
            layer[key] = {ordered[i]: entry[ordered[i]] for i in keep}
        reductions += 1
        peak = max(peak, len(entry))
    if trace is not None and reductions:
        trace["peak_family"] = max(trace.get("peak_family", 0), peak)
        trace["reductions"] = trace.get("reductions", 0) + reductions
        trace["dense_skips"] = trace.get("dense_skips", 0) + dense_skips
        trace["small_skips"] = trace.get("small_skips", 0) + small_skips


def gen_rep_alg(spec: PartitionSpec, family: WeightedSetFamily,
                objective: str) -> WeightedSetFamily:
    """Subfamily that max (min) (k_1-p_1, ..., k_t-p_t)-represents the input.

    Deterministic given fixed separators: stable weight sort with ties broken
    by ascending input position, then first-wins indicator sweep.
    """
    positions, _ = select_representative_positions(spec, family, objective)
    kept = tuple(family.sets[i] for i in positions)
    return WeightedSetFamily(family.universe, family.set_size, kept, objective)
