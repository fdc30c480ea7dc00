"""Shared domain types: ordered universes, weighted set families, graphs, exact weights.

All APIs speak dense integer indices; string labels exist only at the JSON
boundary.  Every type is immutable after construction and safe to share.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

WEIGHT_MIN = -(2**63)
WEIGHT_MAX = 2**63 - 1
# most nodes a Digraph or Graph may have, checked before anything is built per node
MAX_NODES = 2**12


class FptMixError(Exception):
    """Base class for all library errors."""


class InstanceError(FptMixError):
    """Malformed document or violated type invariant."""


class WeightOverflowError(FptMixError):
    """A weight or weight sum left the signed 64-bit range."""


class ParameterError(FptMixError):
    """Algorithm parameters outside their stated domain."""


class BudgetExceededError(FptMixError):
    """An enumeration exceeded its configured budget."""


class Budget:
    """A limit on one unit of work, shared by every call that does it:
    ``charge`` raises ``BudgetExceededError`` once more than ``limit`` units
    are charged in all.  A limit below 0 allows what a limit of 0 does."""
    __slots__ = ("left", "limit", "what")

    def __init__(self, limit: int, what: str):
        self.left, self.limit, self.what = limit if limit > 0 else 0, limit, what

    def charge(self, amount: int = 1) -> None:
        self.left -= amount
        if self.left < 0:
            raise BudgetExceededError(f"more than {self.limit} {self.what}")


def _ceildiv(a: int, b: int) -> int:
    return -(-a // b)


def check_weight(value) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise InstanceError(f"weight must be an exact integer, got {value!r}")
    if not WEIGHT_MIN <= value <= WEIGHT_MAX:
        raise WeightOverflowError(f"weight {value} outside signed 64-bit range")
    return value


def add_weights(a: int, b: int) -> int:
    """Checked addition; overflow is an error, never a silent wrap."""
    total = a + b
    if not WEIGHT_MIN <= total <= WEIGHT_MAX:
        raise WeightOverflowError(f"weight sum {total} outside signed 64-bit range")
    return total


@dataclass(frozen=True)
class OrderedUniverse:
    """Indexed element set with a total order.

    ``elements[i]`` is the label of element ``i``; ``rank[i]`` is its position
    in the order.  Comparison of elements is comparison of ranks.
    """

    elements: tuple[str, ...]
    rank: tuple[int, ...]

    def __post_init__(self):
        n = len(self.elements)
        if len(self.rank) != n or sorted(self.rank) != list(range(n)):
            raise InstanceError("rank must be a bijection onto {0..n-1}")
        if len(set(self.elements)) != n:
            raise InstanceError("duplicate element label")

    @classmethod
    def from_labels(cls, labels) -> OrderedUniverse:
        """Universe whose order matches the label listing order."""
        labels = tuple(str(x) for x in labels)
        return cls(labels, tuple(range(len(labels))))

    def __len__(self) -> int:
        return len(self.elements)

    def by_rank(self) -> list[int]:
        """Element indices in ascending rank order."""
        order = [0] * len(self.elements)
        for idx, r in enumerate(self.rank):
            order[r] = idx
        return order


def reorder_universe(u: OrderedUniverse, new_order) -> OrderedUniverse:
    """Same elements, rank of element e becomes ``new_order[old_rank(e)]``."""
    n = len(u)
    new_order = list(new_order)
    if sorted(new_order) != list(range(n)):
        raise InstanceError("new_order is not a permutation of {0..n-1}")
    return OrderedUniverse(u.elements, tuple(new_order[r] for r in u.rank))


def block_permutation(u: OrderedUniverse, blocks) -> list[int]:
    """Permutation (old rank -> new rank) that moves the listed blocks of
    element indices to the front, in block order, preserving the original
    order inside each block and among the leftovers."""
    seen: set[int] = set()
    ordered: list[int] = []
    for block in blocks:
        members = sorted(block, key=lambda i: u.rank[i])
        for e in members:
            if e in seen:
                raise InstanceError("blocks must be disjoint")
            seen.add(e)
        ordered.extend(members)
    ordered.extend(e for e in u.by_rank() if e not in seen)
    perm = [0] * len(u)
    for new_rank, e in enumerate(ordered):
        perm[u.rank[e]] = new_rank
    return perm


@dataclass(frozen=True)
class WeightedSetFamily:
    """Family of equal-size element subsets with exact weights.

    Duplicate member sets collapse at construction, keeping the extremal
    weight for the declared objective.  Input listing order is preserved
    (first occurrence wins a position), which downstream tie-breaking
    relies on.
    """

    universe: OrderedUniverse
    set_size: int
    sets: tuple[tuple[tuple[int, ...], int], ...]
    objective: str = "max"
    masks: tuple[int, ...] = field(default=(), compare=False, repr=False)

    def __post_init__(self):
        if self.objective not in ("max", "min"):
            raise InstanceError(f"objective must be 'max' or 'min', got {self.objective!r}")
        n = len(self.universe)
        best: dict[tuple[int, ...], int] = {}
        order: list[tuple[int, ...]] = []
        masks: list[int] = []
        for members, weight in self.sets:
            try:  # a member that is not an int fails the sort, set, range compare or shift
                members = tuple(sorted(members))
                if len(set(members)) != self.set_size or len(members) != self.set_size:
                    raise InstanceError(f"set {members} does not have exactly {self.set_size} members")
                if members and not (0 <= members[0] and members[-1] < n):
                    raise TypeError
                mask = _mask(members)
            except TypeError:
                raise InstanceError(f"member index out of range or not an int in {members}") from None
            check_weight(weight)
            if members in best:
                old = best[members]
                best[members] = max(old, weight) if self.objective == "max" else min(old, weight)
            else:
                best[members] = weight
                order.append(members)
                masks.append(mask)
        deduped = tuple((m, best[m]) for m in order)
        object.__setattr__(self, "sets", deduped)
        object.__setattr__(self, "masks", tuple(masks))

    def __len__(self) -> int:
        return len(self.sets)

    def members(self, i: int) -> tuple[int, ...]:
        return self.sets[i][0]

    def weight(self, i: int) -> int:
        return self.sets[i][1]


def _mask(members) -> int:
    m = 0
    for e in members:
        m |= 1 << e
    return m


def bit_positions(mask: int) -> list[int]:
    """The members of a bitmask (bit e is element e), ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _check_node_count(n) -> int:
    if type(n) is not int or not 0 <= n <= MAX_NODES:
        raise InstanceError(f"node count must be an integer from 0 to {MAX_NODES}, got {n!r}")
    return n


@dataclass(frozen=True)
class Digraph:
    """Adjacency-list digraph with exact arc weights.

    No self-loops; parallel arcs collapse keeping the minimum weight.
    """

    node_count: int
    arcs: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        n = _check_node_count(self.node_count)
        best: dict[tuple[int, int], int] = {}
        for arc in self.arcs:
            try:
                tail, head, weight = arc
            except (TypeError, ValueError):
                raise InstanceError(f"arc must be [tail, head, weight], got {arc!r}") from None
            if not (type(tail) is int and type(head) is int and 0 <= tail < n and 0 <= head < n):
                raise InstanceError(f"index out of range or not an int: arc {arc!r} on {n} nodes")
            if tail == head:
                raise InstanceError(f"self-loop at node {tail}")
            if type(weight) is not int or not WEIGHT_MIN <= weight <= WEIGHT_MAX:
                check_weight(weight)  # raises unless weight is an in-range int subclass
            key = (tail, head)
            old = best.get(key)
            if old is None or weight < old:
                best[key] = weight
        object.__setattr__(self, "arcs", tuple((t, h, w) for (t, h), w in sorted(best.items())))

    def out_neighbors(self) -> list[list[int]]:
        out = [[] for _ in range(self.node_count)]
        for t, h, _ in self.arcs:
            out[t].append(h)
        return out

    def in_neighbors(self) -> list[list[int]]:
        inc = [[] for _ in range(self.node_count)]
        for t, h, _ in self.arcs:
            inc[h].append(t)
        return inc

    def arc_weights(self) -> dict[tuple[int, int], int]:
        return {(t, h): w for t, h, w in self.arcs}

    def underlying_graph(self) -> "Graph":
        edges = sorted({(min(t, h), max(t, h)) for t, h, _ in self.arcs})
        return Graph(self.node_count, tuple(edges))

    def reaches_all(self, root: int) -> bool:
        out = self.out_neighbors()
        seen = {root}
        stack = [root]
        while stack:
            for v in out[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == self.node_count


@dataclass(frozen=True)
class Graph:
    """Undirected graph; no self-loops, no duplicate edges."""

    node_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n = _check_node_count(self.node_count)
        seen = set()
        for edge in self.edges:
            try:
                u, v = edge
            except (TypeError, ValueError):
                raise InstanceError(f"edge must be [u, v], got {edge!r}") from None
            if not (type(u) is int and type(v) is int and 0 <= u < n and 0 <= v < n):
                raise InstanceError(f"index out of range or not an int: edge {edge!r} on {n} nodes")
            if u == v:
                raise InstanceError(f"self-loop at node {u}")
            seen.add((u, v) if u < v else (v, u))
        object.__setattr__(self, "edges", tuple(sorted(seen)))

    def adjacency(self) -> list[set[int]]:
        adj = [set() for _ in range(self.node_count)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj


@dataclass(frozen=True)
class ParsedInstance:
    kind: str  # "digraph" | "graph" | "setfamily"
    value: object
    k: int | None = None
    W: int | None = None


def parse_instance(document: bytes | str, objective: str = "max") -> ParsedInstance:
    """Parse a canonical JSON instance document, validating all invariants."""
    try:
        data = json.loads(document.decode("utf-8") if isinstance(document, bytes) else document)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InstanceError(f"malformed document: {exc}") from exc
    except RecursionError:
        raise InstanceError("document is nested too deep to parse") from None
    if not isinstance(data, dict):
        raise InstanceError("document root must be an object")

    k = data.get("k")
    W = data.get("W")
    if k is not None and (not isinstance(k, int) or isinstance(k, bool)):
        raise InstanceError("k must be an integer")
    if W is not None:
        check_weight(W)

    if "arcs" in data or "edges" in data:
        kind, name, build = (("digraph", "arcs", Digraph) if "arcs" in data
                             else ("graph", "edges", Graph))
        if not isinstance(data[name], list):
            raise InstanceError(f"field {name!r} must be a list")
        value: object = build(data.get("nodes"), data[name])
    elif "universe" in data:
        value = _parse_setfamily(data, objective)
        kind = "setfamily"
    else:
        raise InstanceError("document is not a digraph, graph or setfamily instance")
    return ParsedInstance(kind, value, k, W)


def _parse_setfamily(data, objective) -> WeightedSetFamily:
    labels, entries = data["universe"], data.get("sets", [])
    if not isinstance(labels, list):
        raise InstanceError("setfamily field 'universe' must be a list of labels")
    if not isinstance(entries, list):
        raise InstanceError("setfamily field 'sets' must be a list of objects")
    universe = OrderedUniverse.from_labels(labels)
    index = {label: i for i, label in enumerate(universe.elements)}
    sets = []
    size = None
    for entry in entries:
        if not isinstance(entry, dict):
            raise InstanceError(f"set entry must be an object: {entry!r}")
        members = entry.get("members")
        if not isinstance(members, list) or "weight" not in entry:
            raise InstanceError(f"set entry must have a members list and a weight: {entry!r}")
        try:
            idxs = tuple(index[str(m)] for m in members)
        except KeyError as exc:
            raise InstanceError(f"unknown element label {exc.args[0]!r}") from exc
        if size is None:
            size = len(idxs)
        sets.append((idxs, entry["weight"]))
    if size is None:
        size = 0
    return WeightedSetFamily(universe, size, tuple(sets), objective)
