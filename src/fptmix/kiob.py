"""Deterministic k-internal out-branching.

Pipeline: a child-splitting DP computes representative families of the
node-sets of bounded-shape out-trees, a tree-and-paths search completes each
surviving tree with a maximum matching on the leftover nodes, and an
exchange loop lifts an accepted tree-plus-paths witness to a spanning
out-branching with the required number of internal nodes.  The DP keeps a
back-pointer per node-set, so an accepted tree's arcs are read off the
table, not searched for.

Shape bookkeeping here is already in reduced form: a ``TpInstance`` with
parameters (k, l, q) asks for an out-tree with exactly k internal nodes and
l leaves plus q node-disjoint 2-node paths avoiding it.  The top-level
driver shrinks the requested totals by q before calling in.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import Digraph, FptMixError, Graph, ParameterError, bit_positions
from .matching import max_matching
from .repsets import PartitionPart, reduce_layer


@dataclass(frozen=True)
class TreeFamilyEntry:
    family: tuple[int, ...]  # the root state's node masks, ascending by sorted members
    table: list = field(default_factory=list, compare=False, repr=False)


@dataclass(frozen=True)
class TpInstance:
    digraph: Digraph
    root: int
    k: int
    l: int
    q: int

    def __post_init__(self):
        if self.l > self.k:
            raise ParameterError(f"l={self.l} exceeds k={self.k}")
        if self.q < max(0, 2 * self.l - self.k):
            raise ParameterError(f"q={self.q} below max(0, 2l-k)")
        if not 0 <= self.root < self.digraph.node_count:
            raise ParameterError(f"root {self.root} out of range")
        if not self.digraph.reaches_all(self.root):
            raise ParameterError(f"root {self.root} does not root an out-branching")


def tree_families(g: Digraph, root: int, internal: int, leaves: int,
                  slack: int, trace: dict | None = None) -> TreeFamilyEntry:
    """Family that ``slack``-represents (slack >= 0) the node-sets of
    out-trees rooted at node ``root`` of ``g`` with exactly ``internal``
    internal nodes and ``leaves`` leaves.

    Child-splitting DP over (vertex, internal, leaf) states.  OneChild grows a
    tree downward through a single child arc; the merge rule fuses two trees
    sharing only their root.  A state maps each node bitmask to how it was
    first built, which ``find_out_tree`` follows: None for the one-node tree,
    (u, a) for the arc v -> u over u's tree a, and (u, a, x2, y2, b) for that
    one-child tree merged with v's tree b of shape (x2, y2).  Later builds of
    a mask are dropped, but of two merges from one split the one whose b is
    first in ascending sorted-member order wins.  Splits run x1-ascending,
    then y1-ascending, and only those whose child shape (x1 - 1, y1) some
    child of v holds are visited: a split no child can fill builds nothing,
    so skipping it moves no back-pointer.  The table is seeded with the
    one-node trees, state (v, 0, 1) of every v when ``leaves`` >= 1, and the
    rounds run from size 2 up over the shapes with 1 <= x <= ``internal`` and
    1 <= y <= ``leaves``.  A round reads only smaller sizes, so its states
    (v, x, y) are reduced as one layer, with ``trace``.
    Every state is reduced against k' = internal + leaves + slack, whatever
    the root, so the entry's ``table[v][(x, y)]`` serves every root and
    smaller shape with the same k'.
    """
    if not (internal >= 1 or (internal, leaves) == (0, 1)):
        raise ParameterError(f"unsupported tree shape ({internal}, {leaves})")
    n = g.node_count
    if not 0 <= root < n or slack < 0:
        raise ParameterError(f"root {root} outside 0..{n - 1} or slack {slack} below 0")
    if internal + leaves + slack > n:
        raise ParameterError("internal + leaves + slack exceeds the node count")
    out = g.out_neighbors()  # ascending, as the arcs are sorted
    total = internal + leaves

    # table[v][(x, y)] -> {node bitmask of an out-tree at v: how it was built},
    # seeded with the one-node trees
    table: list[dict[tuple[int, int], dict[int, tuple | None]]] = [
        {(0, 1): {1 << v: None}} if leaves else {} for v in range(n)]
    everything = tuple(range(n))

    for size in range(2, total + 1):
        parts = (PartitionPart(everything, total + slack, size),)
        layer: dict[tuple[int, int, int], dict[int, tuple | None]] = {}
        for v in range(n):
            vbit = 1 << v
            # the shapes of v's child trees: a one-child tree (x1, y1) at v
            # needs (x1 - 1, y1) among them, so no other split builds anything
            below = {shape for u in out[v] for shape in table[u]}
            splits = sorted(below)  # x1 ascending, then y1

            def one_child_sets(x1: int, y1: int) -> list[tuple[int, tuple]]:
                return [(a | vbit, (u, a)) for u in out[v]
                        for a in table[u].get((x1 - 1, y1), ()) if not a & vbit]

            for x in range(max(1, size - leaves), min(internal, size - 1) + 1):
                y = size - x
                found: dict[int, tuple] = {}  # the first build of a mask wins, as above
                if (x - 1, y) in below:
                    for mask, how in one_child_sets(x, y):
                        found.setdefault(mask, how)
                for x1_below, y1 in splits:
                    if x1_below >= x:
                        break
                    if y1 > y:
                        continue
                    x2, y2 = x - x1_below, y - y1
                    merged = table[v].get((x2, y2))
                    if merged:
                        ones = one_child_sets(x1_below + 1, y1)
                        for b in merged:
                            for a, how in ones:
                                if a & b == vbit and ((old := found.get(a | b)) is None or
                                                      old[2:4] == (x2, y2) and
                                                      b & (d := b ^ old[4]) & -d):
                                    found[a | b] = how + (x2, y2, b)
                if found:
                    layer[(v, x, y)] = found
        reduce_layer(layer, lambda key: parts, None, trace)
        for (v, x, y), entry in layer.items():
            table[v][(x, y)] = entry

    return TreeFamilyEntry(tuple(sorted(table[root].get((internal, leaves), ()),
                                        key=bit_positions)), table)


@dataclass(frozen=True)
class TpResult:
    accept: bool
    tree_set: frozenset | None = None
    tree_arcs: tuple[tuple[int, int], ...] | None = None
    paths: tuple[tuple[int, int], ...] | None = None


def tp_alg(inst: TpInstance, table: list | None = None) -> TpResult:
    """Tree-and-paths: accept iff some tree in the representing family leaves
    room for a q-edge matching, which supplies the q disjoint 2-node paths.
    Trees come from ``table``, a ``tree_families`` table of the same k + l +
    2q, or else from a ``tree_families`` call."""
    g = inst.digraph
    n = g.node_count
    if inst.k + inst.l + 2 * inst.q > n or (inst.l == 0 and inst.k > 0):
        return TpResult(False)
    if table is None and inst.k:
        table = tree_families(g, inst.root, inst.k, inst.l, 2 * inst.q).table
    # k = 0 (so l = 0): the tree is empty, only the q disjoint 2-node paths are sought
    trees = table[inst.root].get((inst.k, inst.l), ()) if inst.k else (0,)
    if not trees:
        return TpResult(False)
    undirected = g.underlying_graph()
    for tree in sorted(trees, key=bit_positions):  # in sorted-member order, not arrival
        nodes = frozenset(bit_positions(tree))
        free = tuple((u, v) for u, v in undirected.edges
                     if u not in nodes and v not in nodes)
        m = max_matching(Graph(n, free))
        if len(m) >= inst.q:
            arc_set = {(t, h) for t, h, _ in g.arcs}
            paths = tuple((a, b) if (a, b) in arc_set else (b, a) for a, b in m.edges[: inst.q])
            arcs = find_out_tree(table, inst.root, inst.k, inst.l, tree) if tree else ()
            return TpResult(True, nodes, tuple(arcs), paths)
    return TpResult(False)


def find_out_tree(table: list, v: int, x: int, y: int, mask: int) -> list[tuple[int, int]]:
    """Sorted arcs of the out-tree that ``tree_families`` built for ``mask``
    at state (v, x, y) of ``table``, read off its back-pointers: a one-child
    build (u, a) hangs u's tree a of shape (x - 1, y) under v, and a merge
    (u, a, x2, y2, b) also keeps v's own tree b of shape (x2, y2)."""
    arcs = []
    stack = [(v, x, y, mask)]
    while stack:
        v, x, y, mask = stack.pop()
        how = table[v][(x, y)][mask]
        if how is None:  # the one-node tree
            continue
        u, a, *merge = how
        x2, y2, b = merge or (1, 0, None)
        arcs.append((v, u))
        stack.append((u, x - x2, y - y2, a))
        if b is not None:
            stack.append((v, x2, y2, b))
    return sorted(arcs)


def extract_branching(g: Digraph, root: int, tree_arcs,
                      paths, k: int) -> tuple[tuple[int, int], ...]:
    """Lift a tree-and-paths witness, the tree given by its arcs, to a
    spanning out-branching with at least k internal nodes.

    Exchange loop: while short of internal nodes, find a witness path (v, u)
    with both endpoints leaves of the current branching, detach u from its
    parent and reattach it under v.  Each exchange strictly increases the
    number of fully contained witness paths, so it runs at most q times; a
    failure to find an exchangeable path on a valid witness cannot happen
    and raises hard.
    """
    parent = {h: t for t, h in tree_arcs}
    in_tree = {root, *parent}
    while len(in_tree) < g.node_count:
        for t, h, _ in g.arcs:
            if t in in_tree and h not in in_tree:
                parent[h] = t
                in_tree.add(h)
                break
        else:
            raise FptMixError("root does not reach every node")

    while len(internal := set(parent.values())) < k:
        for v, u in paths:
            if v not in internal and u not in internal:
                parent[u] = v
                break
        else:
            raise FptMixError("exchange exhausted before reaching k internal nodes")

    branching = tuple(sorted((p, v) for v, p in parent.items()))
    _validate_branching(g, root, branching, k)
    return branching


def _validate_branching(g: Digraph, root: int, arcs, k: int) -> None:
    arc_set = {(t, h) for t, h, _ in g.arcs}
    parent = {}
    for t, h in arcs:
        if (t, h) not in arc_set:
            raise FptMixError(f"branching uses non-arc {(t, h)}")
        if h in parent:
            raise FptMixError(f"node {h} has two parents")
        parent[h] = t
    if set(parent) != set(range(g.node_count)) - {root}:
        raise FptMixError("branching is not spanning with the stated root")
    for w in parent:
        seen = set()
        while w != root:
            if w in seen:
                raise FptMixError("branching contains a cycle")
            seen.add(w)
            w = parent[w]
    if len(set(parent.values())) < k:
        raise FptMixError("branching has fewer internal nodes than required")


@dataclass(frozen=True)
class KiobResult:
    accept: bool
    root: int | None = None
    branching: tuple[tuple[int, int], ...] | None = None


def solve_kiob(g: Digraph, k: int, c: float = 1.0, trace: dict | None = None) -> KiobResult:
    """Accept iff the digraph has an out-branching with >= k internal nodes.

    Iterates candidate roots, then leaf counts l and path counts q, calling
    the tree-and-paths search on the q-reduced shape; an accepted witness is
    lifted to a full out-branching.  Every (root, q) at one l reduces against
    k' = k + l, so one ``tree_families`` table per l, built with ``trace`` at
    the largest shape q = max(0, 2l - k), serves them all.
    """
    if k < 1:
        raise ParameterError("k must be at least 1")
    if c < 1:
        raise ParameterError(f"c must be at least 1, got {c}")
    n = g.node_count
    tables: dict[int, list] = {}  # l -> shared tree table
    for root in range(n):
        if not g.reaches_all(root):
            continue
        for l in range(1, min(k, n - k) + 1):  # k + l > n nodes never fit
            for q in range(max(0, 2 * l - k), l + 1):
                x, y = k - q, l - q
                if y == 0 and x > 0:
                    continue
                if y and l not in tables:
                    tables[l] = tree_families(g, root, x, y, 2 * q, trace).table
                res = tp_alg(TpInstance(g, root, x, y, q), table=tables.get(l))
                if res.accept:
                    branching = extract_branching(g, root, res.tree_arcs, res.paths, k)
                    return KiobResult(True, root, branching)
    return KiobResult(False)
