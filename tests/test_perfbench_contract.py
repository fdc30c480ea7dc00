"""The benchmark under ``perfbench/`` drives the library from the outside and
is not edited along with it.  These tests load its span list and its op
runner by path and check that every name it wraps still exists and that the
solver entry points still take the arguments it passes, in the order it
passes them, so a change that would break the benchmark fails here first.
A digest of the benchmark's own op outputs pins every verdict and witness.
``solve_cwsp(inst, c, ...)``, the one positional shape the benchmark does not
use, is called that way by the pinned results in ``test_pinned.py``."""

import hashlib
import importlib
import importlib.util
import json
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from fptmix import kpath
from fptmix.core import Digraph
from fptmix.repsets import clear_separator_cache

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
workloads = _load("workloads")


@pytest.mark.parametrize("listing", ["SPANS", "COUNTED_GENERATORS"])
def test_every_wrapped_name_resolves(listing):
    missing = [f"{mod}.{name}" for mod, names in getattr(spans, listing).items()
               for name in names
               if not callable(getattr(importlib.import_module(f"fptmix.{mod}"), name, None))]
    assert not missing


def _kcwp_document(W_offset):
    path = list(range(27))
    g = Digraph(30, tuple((v, v + 1, 1 + v % 3) for v in path[:-1]))
    inst = kpath.construct_kcwp_witness(g, path, workloads.KCWP_INV_EPS, workloads.KCWP_DELTA,
                                        Fraction(95, 1000))
    return kpath.kcwp_instance_to_document(replace(inst, W=inst.W + W_offset))


def _ops():
    setfamily = json.dumps({"universe": list("abcdef"), "sets": [
        {"members": ["a", "b", "c"], "weight": 3}, {"members": ["d", "e", "f"], "weight": 4},
        {"members": ["a", "d", "e"], "weight": 5}]})
    graph = json.dumps({"nodes": 6, "edges": [[0, 1], [1, 2], [3, 4], [4, 5]]})
    digraph = json.dumps({"nodes": 5, "arcs": [[v, v + 1, 1] for v in range(4)]})
    # a 7-node path with chords: at k = 3 its tree DP reduces multi-set states
    # that are not all dense, so the sweep runs (6 calls, 4 of which shrink)
    chorded = json.dumps({"nodes": 7, "arcs": [[v, v + 1, 1] for v in range(6)] + [
        [0, 2, 1], [0, 3, 1], [2, 4, 1], [1, 5, 1], [3, 6, 1]]})
    return [
        {"kind": "wsp", "doc": setfamily, "k": 2, "W": 7, "inv_eps": 2, "expect": "accept"},
        {"kind": "wsp", "doc": setfamily, "k": 2, "W": 8, "inv_eps": 1, "expect": "reject"},
        {"kind": "p2p", "doc": graph, "k": 2, "expect": "accept"},
        {"kind": "p2p", "doc": graph, "k": 3, "expect": "reject"},
        {"kind": "kcwp", "doc": _kcwp_document(0), "expect": "accept"},
        {"kind": "kcwp", "doc": _kcwp_document(-1), "expect": "reject"},
        {"kind": "kiob", "doc": digraph, "k": 4, "expect": "accept"},
        {"kind": "kiob", "doc": digraph, "k": 5, "expect": "reject"},
        {"kind": "kiob", "doc": chorded, "k": 3, "expect": "accept"},
    ]


def test_workload_ops_run_under_the_tracer():
    """``run_op`` calls ``wsp_alg``, ``solve_p2packing``, ``solve_kcwp`` and
    ``solve_kiob`` positionally; the installed spans and their counters see
    every call."""
    ops = _ops()
    clear_separator_cache()  # so the separator counter sees a build
    tracer = spans.Tracer()
    stats = tracer.phase("contract")
    tracer.install()
    try:
        verdicts = [workloads.run_op(op)[0] for op in ops]
    finally:
        tracer.uninstall()
    assert verdicts == [op["expect"] for op in ops]
    for name in ("wsp.wsp_alg", "p2pack.solve_p2packing", "kpath.solve_kcwp",
                 "kiob.solve_kiob", "repsets.build_separator",
                 "repsets.select_representative_positions"):
        assert stats[f"{name}.calls"] > 0, name
    assert stats["repsets.select_representative_positions.sets_in"] > 0



# one sha256 over json.dumps(run_op(op), sort_keys=True) for every op of set 0,
# packing-threshold then digraph-threshold, at seeds 4242, 31 and 77 in turn
OUTPUT_DIGEST = (293, "c03c510a401cc810d41033915ba55620b9ce979fe0580162e5912386760d9778")


def test_benchmark_op_outputs_match_their_pinned_digest(monkeypatch):
    """Every verdict and witness of the benchmark's packing and digraph ops,
    their thresholds read off the oracles as the benchmark does: a change
    that is meant only to be faster must leave them bit for bit."""
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # reference's own imports
    monkeypatch.setitem(sys.modules, "checks", _load("checks"))
    reference = _load("reference")
    digest, count = hashlib.sha256(), 0
    for seed in (4242, 31, 77):
        for workload in ("packing-threshold", "digraph-threshold"):
            bases = workloads.base_instances(workload, seed, 0)
            for op in workloads.make_ops(0, bases, [reference.reference(b) for b in bases]):
                digest.update(json.dumps(workloads.run_op(op), sort_keys=True).encode())
                count += 1
    assert (count, digest.hexdigest()) == OUTPUT_DIGEST
