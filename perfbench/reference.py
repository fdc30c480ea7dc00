"""Reference answers, computed before any timing and off the timed path.

Solver thresholds come from the exhaustive oracles in ``fptmix.oracles``;
invalid universal sets are confirmed by the benchmark's own brute check.
"""

from __future__ import annotations

import json
from dataclasses import replace

from fptmix import core, oracles

import checks
import workloads

# kiob at 11 nodes and kcwp threshold probes need more than the oracle's
# default two million states
ORACLE_BUDGET = oracles.OracleBudget(50_000_000)


def _max_true(pred, lo: int, hi: int) -> int:
    """Largest k in lo..hi with pred(k), scanning up from lo (pred(lo) holds)."""
    k = lo
    while k < hi and pred(k + 1):
        k += 1
    return k


def reference(base: dict) -> dict:
    kind = base["kind"]
    if kind == "wsp":
        fam = core.parse_instance(json.dumps(base["doc"])).value
        return {"opt": oracles.oracle_wsp(fam, base["k"], ORACLE_BUDGET)}
    if kind == "p2p":
        g = core.parse_instance(json.dumps(base["doc"])).value
        return {"opt": _max_true(lambda k: oracles.oracle_p2p(g, k, ORACLE_BUDGET),
                                 0, g.node_count // 3)}
    if kind == "kiob":
        g = core.parse_instance(json.dumps(base["doc"])).value
        return {"opt": _max_true(lambda k: oracles.oracle_kiob(g, k, ORACLE_BUDGET),
                                 1, g.node_count - 1)}
    if kind == "kcwp":
        inst = workloads.kcwp_instance(base)  # W = weight of the planted path
        W = inst.W
        while oracles.oracle_kcwp(replace(inst, W=W - 1), ORACLE_BUDGET):
            W -= 1
        return {"opt": W}
    if kind == "uniset-verify":
        funcs = [int(line[::-1], 2) for line in base["functions"]]
        return {"valid": checks.universal_valid(base["n"], base["k"], base["p"], funcs)}
    return {}  # tables and builds: checked against their results after each op
