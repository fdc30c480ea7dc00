"""Maximum cardinality matching in general undirected graphs.

Blossom-based augmenting search (contract odd cycles onto their base, retry).
Unweighted only: the tree-and-paths completion step needs just |M| >= q.
Deterministic: adjacency lists sorted, roots scanned in ascending index, the
first augmenting path found is applied.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .core import Graph, InstanceError


@dataclass(frozen=True)
class Matching:
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        seen: set[int] = set()
        for u, v in self.edges:
            if u in seen or v in seen or u == v:
                raise InstanceError("not a matching: node reused")
            seen.update((u, v))
        object.__setattr__(self, "edges", tuple(sorted((min(u, v), max(u, v))
                                                       for u, v in self.edges)))

    def __len__(self) -> int:
        return len(self.edges)


def validate_matching(g: Graph, m: Matching) -> None:
    edge_set = set(g.edges)
    for u, v in m.edges:
        if (u, v) not in edge_set:
            raise InstanceError(f"matching uses non-edge {(u, v)}")


def max_matching(g: Graph) -> Matching:
    n = g.node_count
    adj = [sorted(s) for s in g.adjacency()]
    match = [-1] * n
    parent = [0] * n
    base = [0] * n

    def lca(a: int, b: int) -> int:
        used = [False] * n
        while True:
            a = base[a]
            used[a] = True
            if match[a] == -1:
                break
            a = parent[match[a]]
        while True:
            b = base[b]
            if used[b]:
                return b
            b = parent[match[b]]

    def mark_path(v: int, b: int, child: int, blossom):
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    def find_path(root: int) -> int:
        used = [False] * n
        for i in range(n):
            parent[i] = -1
            base[i] = i
        used[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and parent[match[to]] != -1):
                    curbase = lca(v, to)
                    blossom = [False] * n
                    mark_path(v, curbase, to, blossom)
                    mark_path(to, curbase, v, blossom)
                    for i in range(n):
                        if blossom[base[i]]:
                            base[i] = curbase
                            if not used[i]:
                                used[i] = True
                                queue.append(i)
                elif parent[to] == -1:
                    parent[to] = v
                    if match[to] == -1:
                        return to
                    used[match[to]] = True
                    queue.append(match[to])
        return -1

    for root in range(n):
        if match[root] != -1:
            continue
        leaf = find_path(root)
        if leaf == -1:
            continue
        while leaf != -1:
            prev = parent[leaf]
            nxt = match[prev]
            match[leaf] = prev
            match[prev] = leaf
            leaf = nxt

    edges = tuple((v, match[v]) for v in range(n) if match[v] > v)
    result = Matching(edges)
    validate_matching(g, result)
    return result
