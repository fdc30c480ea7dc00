"""The benchmark's own correctness checks.

Witness checks read only the op's instance document and the witness the
solver returned; they share no code with the solvers' ``verify_*`` helpers.
``universal_valid`` is a vectorised brute-force test of the covering
property, independent of ``unisets.verify_universal``.
"""

from __future__ import annotations

import json
from itertools import combinations

import numpy as np


class CheckError(Exception):
    """A witness that does not certify the verdict it came with."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def check_wsp(op: dict, witness: dict) -> None:
    """k pairwise-disjoint sets of the document, of total weight >= W."""
    doc = json.loads(op["doc"])
    best: dict[frozenset, int] = {}
    for entry in doc["sets"]:
        key = frozenset(entry["members"])
        best[key] = max(best.get(key, entry["weight"]), entry["weight"])
    sets = [frozenset(s) for s in witness["sets"]]
    _require(len(sets) == op["k"], f"{len(sets)} sets, expected {op['k']}")
    used: set = set()
    total = 0
    for s in sets:
        _require(s in best, f"set {sorted(s)} is not in the family")
        _require(not used & s, f"set {sorted(s)} overlaps another")
        used |= s
        total += best[s]
    _require(total >= op["W"], f"weight {total} below W={op['W']}")
    _require(total == witness["weight"], f"claimed weight {witness['weight']} != {total}")


def check_p2p(op: dict, witness: dict) -> None:
    """k node-disjoint paths on three nodes, both edges in the graph."""
    doc = json.loads(op["doc"])
    edges = {frozenset(e) for e in doc["edges"]}
    paths = witness["paths"]
    _require(len(paths) == op["k"], f"{len(paths)} paths, expected {op['k']}")
    used: set = set()
    for a, mid, c in paths:
        _require(len({a, mid, c}) == 3, f"path {(a, mid, c)} repeats a node")
        _require(frozenset((a, mid)) in edges and frozenset((mid, c)) in edges,
                 f"path {(a, mid, c)} uses a missing edge")
        _require(not used & {a, mid, c}, f"path {(a, mid, c)} overlaps another")
        used |= {a, mid, c}


def check_kiob(op: dict, witness: dict) -> None:
    """A spanning out-branching rooted at the root with >= k internal nodes."""
    doc = json.loads(op["doc"])
    n = doc["nodes"]
    arcs = {(a, b) for a, b, _ in doc["arcs"]}
    root = witness["root"]
    parent: dict[int, int] = {}
    for t, h in witness["branching"]:
        _require((t, h) in arcs, f"arc {(t, h)} is not in the digraph")
        _require(h not in parent, f"node {h} has two parents")
        parent[h] = t
    _require(root not in parent and set(parent) == set(range(n)) - {root},
             "branching does not span the nodes from the root")
    for v in parent:
        seen = set()
        while v != root:
            _require(v not in seen, "branching has a cycle")
            seen.add(v)
            v = parent[v]
    internal = len(set(parent.values()))
    _require(internal >= op["k"], f"{internal} internal nodes, expected >= {op['k']}")


def check_kcwp(op: dict, witness: dict) -> None:
    """The pieces chain end to start into one simple k-node path of weight <= W."""
    doc = json.loads(op["doc"])
    weights = {(a, b): w for a, b, w in doc["digraph"]["arcs"]}
    pieces = [tuple(p) for p in witness["pieces"]]
    by_start = {p[0]: p for p in pieces}
    _require(len(by_start) == len(pieces), "two pieces share a start node")
    ends = {p[-1] for p in pieces}
    heads = [p for p in pieces if p[0] not in ends]
    _require(len(heads) == 1, "pieces do not form a single chain")
    path = list(heads[0])
    while path[-1] in by_start and len(path) <= doc["k"]:
        path.extend(by_start[path[-1]][1:])
    _require(len(path) == doc["k"] and len(set(path)) == doc["k"],
             f"chain is not a simple {doc['k']}-node path")
    total = 0
    for a, b in zip(path, path[1:]):
        _require((a, b) in weights, f"arc {(a, b)} is not in the digraph")
        total += weights[(a, b)]
    _require(total <= doc["W"], f"path weight {total} exceeds W={doc['W']}")
    _require(total == witness["weight"], f"claimed weight {witness['weight']} != {total}")


def universal_valid(n: int, k: int, p: int, functions) -> bool:
    """Every k-subset of positions sees every 0/1 pattern with p ones."""
    if k == 0:
        return True
    if not functions:
        return False
    fam = np.asarray(functions, dtype=np.uint64)
    bits = ((fam[:, None] >> np.arange(n, dtype=np.uint64)[None, :]) & np.uint64(1))
    bits = bits.astype(np.int64)
    subsets = np.asarray(list(combinations(range(n), k)), dtype=np.int64)
    codes = bits[:, subsets] @ (1 << np.arange(k, dtype=np.int64))  # (functions, subsets)
    seen = np.zeros((len(subsets), 1 << k), dtype=bool)
    seen[np.arange(len(subsets))[None, :], codes] = True
    wanted = [c for c in range(1 << k) if bin(c).count("1") == p]
    return bool(seen[:, wanted].all())


WITNESS_CHECKS = {"wsp": check_wsp, "p2p": check_p2p, "kiob": check_kiob, "kcwp": check_kcwp}
