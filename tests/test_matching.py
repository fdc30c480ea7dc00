import random
from itertools import combinations

from fptmix.core import Graph
from fptmix.matching import Matching, max_matching, validate_matching
from fptmix.oracles import brute_matching_size, brute_matching_size_by_vertex


def has_naive_augmenting_path(g: Graph, m: Matching) -> bool:
    """One-sided Berge spot-check: an alternating BFS without blossom handling.

    Can miss augmenting paths that thread a blossom, so a True answer always
    disproves maximality while False is only evidence for it.
    """
    n = g.node_count
    adj = g.adjacency()
    mate = [-1] * n
    for u, v in m.edges:
        mate[u], mate[v] = v, u
    exposed = [v for v in range(n) if mate[v] == -1]
    for root in exposed:
        # layer parity: even nodes reached by matched edges (root is even)
        even = {root}
        odd: set[int] = set()
        frontier = [root]
        while frontier:
            nxt = []
            for v in frontier:
                for to in adj[v]:
                    if to in odd or to in even:
                        continue
                    if mate[to] == -1 and to != root:
                        return True
                    odd.add(to)
                    w = mate[to]
                    if w != -1 and w not in even:
                        even.add(w)
                        nxt.append(w)
            frontier = nxt
    return False


def test_empty_graph():
    assert max_matching(Graph(0, ())).edges == ()
    assert max_matching(Graph(4, ())).edges == ()


def test_path_forced_maximum():
    g = Graph(4, ((0, 1), (1, 2), (2, 3)))
    m = max_matching(g)
    assert m.edges == ((0, 1), (2, 3))


def test_odd_cycle_blossom():
    g = Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0)))
    assert len(max_matching(g)) == 2


def test_petersen_like_blossoms():
    # two triangles joined by a bridge force blossom handling
    g = Graph(6, ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)))
    m = max_matching(g)
    assert len(m) == 3


def test_exhaustive_small_graphs():
    """Every graph on up to 5 nodes, plus a seeded sweep at 6-7 nodes."""
    for n in range(6):
        all_edges = list(combinations(range(n), 2))
        for mask in range(1 << len(all_edges)):
            edges = tuple(e for i, e in enumerate(all_edges) if (mask >> i) & 1)
            g = Graph(n, edges)
            m = max_matching(g)
            validate_matching(g, m)
            assert len(m) == brute_matching_size(n, edges)
    rng = random.Random(0)
    for n in (6, 7):
        for _ in range(300):
            edges = tuple(e for e in combinations(range(n), 2) if rng.random() < 0.45)
            g = Graph(n, edges)
            assert len(max_matching(g)) == brute_matching_size(n, edges)


def test_random_larger_vs_oracle():
    rng = random.Random(1)
    for _ in range(120):
        n = rng.randint(8, 16)
        edges = tuple(e for e in combinations(range(n), 2) if rng.random() < 0.18)
        g = Graph(n, edges)
        m = max_matching(g)
        validate_matching(g, m)
        assert len(m) == brute_matching_size(n, edges)


def test_berge_spot_check():
    rng = random.Random(2)
    for _ in range(80):
        n = rng.randint(2, 10)
        edges = tuple(e for e in combinations(range(n), 2) if rng.random() < 0.3)
        g = Graph(n, edges)
        m = max_matching(g)
        assert not has_naive_augmenting_path(g, m)


def test_deterministic_output():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(3, 9)
        edges = tuple(e for e in combinations(range(n), 2) if rng.random() < 0.4)
        g = Graph(n, edges)
        assert max_matching(g).edges == max_matching(g).edges


def test_dual_oracle_methods_agree():
    rng = random.Random(4)
    for _ in range(50):
        n = rng.randint(2, 9)
        edges = tuple(e for e in combinations(range(n), 2) if rng.random() < 0.35)
        assert brute_matching_size(n, edges) == brute_matching_size_by_vertex(n, edges)
