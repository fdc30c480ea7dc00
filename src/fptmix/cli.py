"""Command-line front end: solve, check, bounds, uniset, repfam, gen, bench.

Exit codes: 0 accept/valid, 1 reject/invalid, 2 usage error, 3 budget
exceeded.  Randomized behavior always takes an explicit --seed; omitting it
for a randomized mode is an error.  FPTMIX_BUDGET sets the default --budget
and the constraint cap of uniset and check-uniset; it is read here only.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import random
import sys
import time
from fractions import Fraction

from . import bounds as bounds_mod
from . import kiob as kiob_mod
from . import kpath as kpath_mod
from . import matching as matching_mod
from . import oracles
from . import p2pack as p2_mod
from . import repsets
from . import unisets
from . import wsp as wsp_mod
from .core import (
    MAX_NODES,
    BudgetExceededError,
    FptMixError,
    InstanceError,
    ParameterError,
    WeightedSetFamily,
    check_weight,
    parse_instance,
)

EXIT_ACCEPT = 0
EXIT_REJECT = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def budget_from_env(default: int = 200_000) -> int:
    """The enumeration cap set by ``FPTMIX_BUDGET``, or ``default`` (the solvers'
    when none is named) when it is unset or empty; anything but a positive
    integer is a ``ParameterError``."""
    value = os.environ.get("FPTMIX_BUDGET")
    if not value:
        return default
    try:
        budget = int(value)
    except ValueError:
        budget = 0
    if budget <= 0:
        raise ParameterError(f"FPTMIX_BUDGET must be a positive integer, got {value!r}")
    return budget


def _load(path: str, parse=str):
    """``parse`` of the file's text.  A missing file stays a FileNotFoundError;
    any other file that cannot be read as UTF-8 text, or a document nested too
    deep to parse, is a usage error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read {path!r}: {exc}") from None
    try:
        return parse(text)
    except RecursionError:
        raise InstanceError(f"{path!r} is nested too deep to parse") from None


# report field -> trace key, as ``repsets.reduce_layer`` and the staged DP's
# per-cut step (``cut_skips``) count them
_TRACE_FIELDS = {"peakFamilySize": "peak_family", "reductions": "reductions",
                 "denseSkips": "dense_skips", "smallSkips": "small_skips",
                 "dpEntries": "entries", "cutSkips": "cut_skips"}


def _report(args, verdict: str, witness=None, timings=None, trace=None) -> dict:
    report = {
        "command": " ".join(args),
        "verdict": verdict,
        "accept": verdict in ("accept", "valid"),
        "witness": witness,
        "timings": timings or {},
        **{name: (trace or {}).get(key) for name, key in _TRACE_FIELDS.items()},
        "seed": None,  # no solve path takes a seed; the key keeps the report's shape
    }
    print(json.dumps(report, sort_keys=True))
    return report


_DOCUMENT_KIND = {"kpath": "digraph", "kiob": "digraph", "wsp": "setfamily", "p2p": "graph"}
# the least k each solver takes (kpath takes any k: below 1 no path exists)
_LEAST_K = {"kiob": 1, "wsp": 0, "p2p": 0}
# 1/eps when neither ``--inv-eps`` nor a caller names one (kcwp reads its own, kiob has none)
_INV_EPS = {"kpath": 13, "wsp": 2, "p2p": 2}
# the optional flags each problem reads in solve (check takes only k and W)
_SOLVE_FLAGS = {"kpath": {"k", "W", "inv_eps", "delta", "gamma", "budget"}, "kcwp": set(),
                "kiob": {"k"}, "wsp": {"k", "W", "inv_eps", "budget"},
                "p2p": {"k", "inv_eps", "budget"}}


def _parse_for(problem: str, doc: str):
    """Parse ``doc`` and insist it is the document kind ``problem`` reads."""
    if not isinstance(problem, str) or problem not in _DOCUMENT_KIND:
        raise ParameterError(f"unknown problem {problem!r}")
    parsed = parse_instance(doc)
    if parsed.kind != _DOCUMENT_KIND[problem]:
        raise ParameterError(f"{problem} needs a {_DOCUMENT_KIND[problem]} document, "
                             f"got a {parsed.kind} document")
    return parsed


def _required_k(problem: str, k, parsed) -> int:
    """``k`` as given (a flag or a bench row's field), else the instance's."""
    k = k if k is not None else parsed.k
    if k is None:
        raise ParameterError("k is required (flag, row or instance field)")
    if not isinstance(k, int) or isinstance(k, bool):
        raise ParameterError(f"k must be an integer, got {k!r}")
    if k < _LEAST_K.get(problem, k):
        raise ParameterError(f"k must be at least {_LEAST_K[problem]} for {problem}, got {k}")
    return k


def _weight_bound(problem: str, W, parsed):
    """``W`` as given, else the instance's; kpath and wsp need one."""
    W = W if W is not None else parsed.W
    if W is None and problem in ("kpath", "wsp"):
        raise ParameterError("W is required for weighted problems")
    return W if W is None else check_weight(W)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid Fraction value: {text!r}")


def _verdict_exit(verdict: str) -> int:
    return {"accept": EXIT_ACCEPT, "valid": EXIT_ACCEPT,
            "reject": EXIT_REJECT, "invalid": EXIT_REJECT,
            "budget-exceeded": EXIT_BUDGET}[verdict]


# ------------------------------------------------------------------ solve

def _run(problem: str, value, k, W, budget: int, trace: dict, inv_eps=None, delta=None,
         gamma=None) -> tuple[str, dict | None]:
    """Run ``problem``'s solver on its parsed instance, as ``solve`` and every
    ``bench`` row do: the verdict, and on accept the re-verified witness."""
    inv_eps = _INV_EPS.get(problem) if inv_eps is None else inv_eps
    if problem == "kcwp":
        res = kpath_mod.solve_kcwp(value, trace=trace)
    elif problem == "kiob":
        res = kiob_mod.solve_kiob(value, k, trace=trace)
    elif problem == "kpath":
        tuning = {name: v for name, v in (("delta", delta), ("gamma", gamma)) if v is not None}
        res = kpath_mod.path_alg(value, W, k, inv_eps, budget=budget, **tuning)
    elif problem == "wsp":
        res = wsp_mod.wsp_alg(value.universe, value, W, k, inv_eps, budget=budget, trace=trace)
    else:
        res = p2_mod.solve_p2packing(value, k, inv_eps, budget=budget, trace=trace)
    verdict = getattr(res, "status", None) or ("accept" if res.accept else "reject")
    if verdict != "accept":
        return verdict, None
    if problem == "kcwp":
        kpath_mod.verify_kcwp_witness(value, res)
        return verdict, {"pieces": [list(p) for p in res.pieces], "weight": res.weight,
                         "chained": res.chained}
    if problem == "kiob":
        return verdict, {"root": res.root, "branching": [list(a) for a in res.branching]}
    if problem == "kpath":
        return verdict, {"path": list(res.path), "weight": res.weight}
    if problem == "wsp":
        labels = value.universe.elements
        return verdict, {"sets": [[labels[e] for e in value.members(p)] for p in res.packing],
                         "weight": res.weight}
    return verdict, {"paths": [list(p) for p in res.packing.paths]}


def _refuse_unread_flags(args, names) -> None:
    for name in names:
        if getattr(args, name) is not None and name not in _SOLVE_FLAGS[args.problem]:
            raise ParameterError(f"{args.problem} does not read --{name.replace('_', '-')}")


def _cmd_solve(args, argv) -> int:
    _refuse_unread_flags(args, ("k", "W", "inv_eps", "delta", "gamma", "budget"))
    budget = budget_from_env() if args.budget is None else args.budget
    trace: dict = {}
    t0 = time.perf_counter()
    if args.problem == "kcwp":
        value, k, W = _load(args.instance, kpath_mod.kcwp_instance_from_document), None, None
    else:
        parsed = _load(args.instance, lambda doc: _parse_for(args.problem, doc))
        value, k, W = (parsed.value, _required_k(args.problem, args.k, parsed),
                       _weight_bound(args.problem, args.W, parsed))
    t1 = time.perf_counter()
    verdict, witness = _run(args.problem, value, k, W, budget, trace, args.inv_eps,
                            args.delta, args.gamma)
    timings = {"parse": t1 - t0, "solve": time.perf_counter() - t1}
    _report(argv, verdict, witness, timings, trace)
    return _verdict_exit(verdict)


# ------------------------------------------------------------------ check

def _oracle(problem: str, value, k, W, budget=None) -> tuple[str, int | None]:
    """The brute-force verdict, and for kpath and wsp the optimum (None when
    no k-structure exists); with no W any optimum accepts."""
    budget = None if budget is None else oracles.OracleBudget(budget)
    if problem == "kiob":
        ok, opt = oracles.oracle_kiob(value, k, budget), None
    elif problem == "p2p":
        ok, opt = oracles.oracle_p2p(value, k, budget), None
    elif problem == "kpath":
        opt = oracles.oracle_kpath(value, k, budget)
        ok = opt is not None and (W is None or opt <= W)
    else:
        opt = oracles.oracle_wsp(value, k, budget)
        ok = opt is not None and (W is None or opt >= W)
    return ("accept" if ok else "reject"), opt


def _cmd_check(args, argv) -> int:
    _refuse_unread_flags(args, ("k", "W"))
    parsed = _load(args.instance, lambda doc: _parse_for(args.problem, doc))
    k = _required_k(args.problem, args.k, parsed)
    W = args.W if args.W is not None else parsed.W
    verdict, opt = _oracle(args.problem, parsed.value, k, W if W is None else check_weight(W),
                           args.budget)
    _report(argv, verdict, {"optimum": opt} if args.problem in ("kpath", "wsp") else None)
    return _verdict_exit(verdict)


# ------------------------------------------------------------------ bounds

def _print_table(rows, header):
    widths = [max(len(str(r[i])) for r in [header] + rows) for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(str(x).ljust(w) for x, w in zip(r, widths)))


def _cmd_bounds(args, argv) -> int:
    name = args.table
    if name == "table1":
        rows = []
        for c, ref in bounds_mod.REFERENCE_TABLE1.items():
            r = bounds_mod.alpha_beta_table([c])[0]
            rows.append([c, f"{r['alpha']:.5f}", f"{r['branch1']:.4f}",
                         f"{r['threshold']:.5f}", f"{r['beta']:.5f}", f"{r['branch2']:.5f}",
                         f"{abs(r['alpha'] - ref[0]):.1e}", f"{abs(r['beta'] - ref[3]):.1e}"])
        _print_table(rows, ["c", "alpha", "value1", "(3-a)/(3+a)", "beta", "value2",
                            "d(alpha)", "d(beta)"])
    elif name == "table2":
        rows = []
        for c, ref in bounds_mod.REFERENCE_TABLE2.items():
            got = bounds_mod.kiob_det_bound(c)["base"]
            rows.append([c, f"{got:.5f}", ref, f"{abs(got - ref):.1e}"])
        _print_table(rows, ["c", "base", "reference", "delta"])
    elif name == "table3":
        rows = []
        for (c, gamma), ref in bounds_mod.REFERENCE_TABLE3.items():
            got = bounds_mod.kiob_rand_bound(c, gamma)["base"]
            rows.append([c, gamma, f"{got:.9f}", ref, f"{abs(got - ref):.1e}"])
        _print_table(rows, ["c", "gamma", "base", "reference", "delta"])
    elif name == "table4":
        rows = []
        for params, (z, z1, z2) in bounds_mod.REFERENCE_TABLE4.items():
            got = bounds_mod.kpath_bound(*params)
            rows.append([params, f"{got['base']:.7f}", z, f"{abs(got['base'] - z):.1e}",
                         f"{abs(got['Z1'] - z1):.1e}", f"{abs(got['Z2'] - z2):.1e}"])
        _print_table(rows, ["(delta,gamma,c1,c2,cl,cr)", "Z", "reference",
                            "d(Z)", "d(Z1)", "d(Z2)"])
    elif name == "table5":
        rows = []
        for c, (y, i, t) in bounds_mod.REFERENCE_TABLE5.items():
            got = bounds_mod.wsp_bound(c)
            rows.append([c, f"{got['base']:.6f}", y, got["argmax"]["i"], i,
                         f"{got['argmax']['T']:.7f}", t])
        _print_table(rows, ["c", "base", "ref", "i", "ref i", "T(i-1)", "ref T"])
    elif name == "p2p":
        got = bounds_mod.p2p_bound()
        ref = bounds_mod.REFERENCE_P2P
        _print_table([[f"{got['base']:.5f}", ref[0], got["argmax"]["i"], ref[1],
                       f"{got['argmax']['T']:.5f}", ref[2]]],
                     ["base", "ref", "i", "ref i", "T(i-1)", "ref T"])
    else:
        raise ParameterError(f"unknown table {name!r}")
    return EXIT_ACCEPT


# ------------------------------------------------------------------ unisets

def _cmd_uniset(args, argv) -> int:
    u = unisets.build_universal(args.n, args.k, args.p, args.mode, args.seed,
                                budget_from_env(unisets.DEFAULT_CONSTRAINT_BUDGET))
    for line in u.lines():
        print(line)
    return EXIT_ACCEPT


def _cmd_check_uniset(args, argv) -> int:
    lines = _load(args.file).splitlines()
    u = unisets.UniversalSet.from_lines(args.n, args.k, args.p, lines)
    result = unisets.verify_universal(u, budget_from_env(unisets.DEFAULT_CONSTRAINT_BUDGET))
    if result.valid:
        print("valid")
        return EXIT_ACCEPT
    print(f"invalid: I={result.violation[0]} ones={result.violation[1]}")
    return EXIT_REJECT


# ------------------------------------------------------------------ repfam

def _int_field(data, name):
    v = data.get(name)
    if not isinstance(v, int) or isinstance(v, bool):
        raise InstanceError(f"field {name!r} must be an integer")
    return v


def _cmd_repfam(args, argv) -> int:
    fam_parsed = _load(args.family, lambda doc: parse_instance(doc, objective=args.objective))
    if fam_parsed.kind != "setfamily":
        raise ParameterError("--family must be a setfamily document")
    fam: WeightedSetFamily = fam_parsed.value
    spec_doc = _load(args.spec, json.loads)
    index = {label: i for i, label in enumerate(fam.universe.elements)}
    raw_parts = spec_doc.get("parts") if isinstance(spec_doc, dict) else None
    if not isinstance(raw_parts, list) or not all(isinstance(p, dict) for p in raw_parts):
        raise InstanceError("repfam spec field 'parts' must be a list of objects")
    parts = []
    for part in raw_parts:
        if not isinstance(part.get("elements"), list):
            raise InstanceError("repfam spec field 'elements' must be a list")
        unknown = [e for e in part["elements"] if str(e) not in index]
        if unknown:
            raise InstanceError(f"repfam spec names unknown element {unknown[0]!r}")
        parts.append(repsets.PartitionPart(tuple(index[str(e)] for e in part["elements"]),
                                           _int_field(part, "k"), _int_field(part, "p")))
    spec = repsets.PartitionSpec(tuple(parts))
    positions, product_size = repsets.select_representative_positions(
        spec, fam, args.objective)
    labels = fam.universe.elements
    out = {
        "family": [{"members": [labels[e] for e in fam.members(i)],
                    "weight": fam.weight(i)} for i in positions],
        "stats": {"inputSize": len(fam), "outputSize": len(positions),
                  "productFamilySize": product_size},
    }
    print(json.dumps(out, sort_keys=True))
    return EXIT_ACCEPT


# ------------------------------------------------------------------ matching

def _cmd_matching(args, argv) -> int:
    parsed = _load(args.instance, parse_instance)
    if parsed.kind != "graph":
        raise ParameterError("matching needs an undirected graph document")
    m = matching_mod.max_matching(parsed.value)
    print(json.dumps({"size": len(m), "edges": [list(e) for e in m.edges]}))
    return EXIT_ACCEPT


# ------------------------------------------------------------------ gen

def gen_instance(kind: str, params: dict, seed: int) -> tuple[dict, dict | None]:
    """Reproducible random instance; an optional planted structure comes with
    a sidecar certificate that names it."""
    rng = random.Random(seed)
    n = params.get("n", 0)
    if not 0 < n <= MAX_NODES:
        raise ParameterError(f"n must be from 1 to {MAX_NODES}, got {n}")
    density = params.get("density", 0.3)
    if not 0 <= density <= 1:
        raise ParameterError(f"density must be from 0 to 1, got {density}")
    lo, hi = params.get("weightRange", (1, 9))
    if lo > hi:
        raise ParameterError(f"the weight range {lo}..{hi} is empty")
    plant = params.get("plant")
    if plant and plant["k"] < 0:
        raise ParameterError("the planted k must not be negative")
    if kind == "digraph":
        arcs: dict[tuple[int, int], int] = {}
        cert = None
        if plant:
            k = plant["k"]
            if k > n:
                raise ParameterError("cannot plant a path longer than n")
            nodes = rng.sample(range(n), k)
            for a, b in zip(nodes, nodes[1:]):
                arcs[(a, b)] = rng.randint(lo, hi)
            cert = {"kind": "kpath", "nodes": nodes}
        for a in range(n):
            for b in range(n):
                if a != b and (a, b) not in arcs and rng.random() < density:
                    arcs[(a, b)] = rng.randint(lo, hi)
        doc = {"nodes": n, "arcs": [[a, b, w] for (a, b), w in sorted(arcs.items())]}
        if cert:
            cert["weight"] = sum(arcs[(a, b)] for a, b in zip(cert["nodes"], cert["nodes"][1:]))
        return doc, cert
    if kind == "graph":
        edges: set[tuple[int, int]] = set()
        cert = None
        if plant:
            k = plant["k"]
            if 3 * k > n:
                raise ParameterError("cannot plant a packing needing more than n nodes")
            nodes = rng.sample(range(n), 3 * k)
            triples = [tuple(nodes[3 * i: 3 * i + 3]) for i in range(k)]
            for a, b, c in triples:
                edges.add((min(a, b), max(a, b)))
                edges.add((min(b, c), max(b, c)))
            cert = {"kind": "p2p", "paths": [list(t) for t in triples]}
        for a in range(n):
            for b in range(a + 1, n):
                if (a, b) not in edges and rng.random() < density:
                    edges.add((a, b))
        return {"nodes": n, "edges": [[a, b] for a, b in sorted(edges)]}, cert
    if kind == "setfamily":
        count = params.get("sets", 2 * n)
        if n < 3 or count < 0:
            raise ParameterError("a setfamily needs n >= 3 and a non-negative set count")
        labels = [f"u{i}" for i in range(n)]
        sets = []
        cert = None
        if plant:
            k = plant["k"]
            if 3 * k > n:
                raise ParameterError("cannot plant more disjoint sets than fit")
            chosen = rng.sample(range(n), 3 * k)
            planted = [sorted(chosen[3 * i: 3 * i + 3]) for i in range(k)]
            for s in planted:
                sets.append({"members": [labels[i] for i in s], "weight": rng.randint(lo, hi)})
            cert = {"kind": "wsp", "sets": [[labels[i] for i in s] for s in planted]}
        while len(sets) < count:
            members = sorted(rng.sample(range(n), 3))
            sets.append({"members": [labels[i] for i in members],
                         "weight": rng.randint(lo, hi)})
        if cert:
            cert["weight"] = sum(s["weight"] for s in sets[: len(cert["sets"])])
        return {"universe": labels, "sets": sets}, cert
    raise ParameterError(f"unknown kind {kind!r}")


def _cmd_gen(args, argv) -> int:
    if args.seed is None:
        raise ParameterError("gen requires an explicit --seed")
    params = {"n": args.n, "density": args.density,
              "weightRange": (args.wmin, args.wmax)}
    if args.sets is not None:
        params["sets"] = args.sets
    if args.plant is not None:
        params["plant"] = {"k": args.plant}
    doc, cert = gen_instance(args.kind, params, args.seed)
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        if cert is not None:
            with open(args.out + ".cert.json", "w", encoding="utf-8") as fh:
                json.dump(cert, fh, sort_keys=True)
        print(args.out)
    elif cert is not None:
        print(json.dumps({"instance": doc, "certificate": cert},
                         sort_keys=True, separators=(",", ":")))
    else:
        print(text)
    return EXIT_ACCEPT


# ------------------------------------------------------------------ bench

def _suite_rows(suite) -> list[dict]:
    rows = suite.get("rows", []) if isinstance(suite, dict) else None
    if not isinstance(rows, list) or not all(isinstance(row, dict) for row in rows):
        raise ParameterError("a bench suite must be an object whose 'rows' lists objects")
    return rows


def bench_rows(suite: dict, budget: int) -> list[dict]:
    if budget <= 0:
        raise ParameterError(f"budget must be a positive integer, got {budget}")

    def run(name, problem, value, k, W):
        trace: dict = {}
        t0 = time.perf_counter()
        try:
            verdict = _run(problem, value, k, W, budget, trace)[0]
        except BudgetExceededError:
            verdict = "budget-exceeded"
        elapsed = time.perf_counter() - t0  # the oracle below is not timed
        oracle = None
        if verdict != "budget-exceeded":
            try:
                oracle = _oracle(problem, value, k, W)[0]
            except BudgetExceededError:  # the oracle's own enumeration cap
                pass
        return {"instance": name, "problem": problem, "verdict": verdict,
                "oracle": oracle, "seconds": round(elapsed, 6),
                **{name: trace.get(key) for name, key in _TRACE_FIELDS.items()},
                "match": (verdict == oracle) if oracle is not None else None}

    # every row is checked before any runs, so a bad row fails the whole suite
    jobs = []
    for i, row in enumerate(_suite_rows(suite)):
        for field in ("problem", "instance"):
            if field not in row:
                raise ParameterError(f"bench row {i} has no {field!r} field")
        problem = row["problem"]
        parsed = _parse_for(problem, json.dumps(row["instance"]))
        jobs.append((row.get("name", f"row{i}"), problem, parsed.value,
                     _required_k(problem, row.get("k"), parsed),
                     _weight_bound(problem, row.get("W"), parsed)))
    return [run(*job) for job in jobs]


def _cmd_bench(args, argv) -> int:
    try:
        suite = _load(args.suite, json.loads)
    except FileNotFoundError:
        raise ParameterError(f"missing suite {args.suite!r}")
    if args.budget is not None:  # as in solve, a problem that reads no budget refuses it
        unread = [name for name, flags in _SOLVE_FLAGS.items() if "budget" not in flags]
        for i, row in enumerate(_suite_rows(suite)):
            if row.get("problem") in unread:
                raise ParameterError(f"bench row {i}: {row['problem']} does not read --budget")
    rows = bench_rows(suite, budget_from_env() if args.budget is None else args.budget)
    if args.format == "json":
        print(json.dumps(rows, sort_keys=True))
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=["instance", "problem", "verdict",
                                                 "oracle", "match", "seconds",
                                                 *_TRACE_FIELDS])
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
        sys.stdout.write(buf.getvalue())
    return EXIT_ACCEPT


# ------------------------------------------------------------------ parser

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="fpt-mix")
    sub = top.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run an exact solver")
    solve.add_argument("problem", choices=["kpath", "kcwp", "kiob", "wsp", "p2p"])
    solve.add_argument("instance")
    solve.add_argument("--k", type=int)
    solve.add_argument("--W", type=int)
    solve.add_argument("--inv-eps", dest="inv_eps", type=int, default=None)
    solve.add_argument("--delta", type=_fraction)
    solve.add_argument("--gamma", type=_fraction)
    solve.add_argument("--budget", type=int)
    solve.set_defaults(func=_cmd_solve)

    check = sub.add_parser("check", help="brute-force oracle verdict")
    check.add_argument("problem", choices=["kpath", "kiob", "wsp", "p2p"])
    check.add_argument("instance")
    check.add_argument("--k", type=int)
    check.add_argument("--W", type=int)
    check.add_argument("--budget", type=int, default=2_000_000)
    check.set_defaults(func=_cmd_check)

    bnd = sub.add_parser("bounds", help="reproduce the running-time tables")
    bnd.add_argument("table", choices=["table1", "table2", "table3", "table4",
                                       "table5", "p2p"])
    bnd.set_defaults(func=_cmd_bounds)

    uni = sub.add_parser("uniset", help="emit a universal set, one 0/1 line per function")
    uni.add_argument("--n", type=int, required=True)
    uni.add_argument("--k", type=int, required=True)
    uni.add_argument("--p", type=int, required=True)
    uni.add_argument("--mode", choices=["greedy", "rand"], default="greedy")
    uni.add_argument("--seed", type=int)
    uni.set_defaults(func=_cmd_uniset)

    chk = sub.add_parser("check-uniset", help="verify a universal set file")
    chk.add_argument("file")
    chk.add_argument("--n", type=int, required=True)
    chk.add_argument("--k", type=int, required=True)
    chk.add_argument("--p", type=int, required=True)
    chk.set_defaults(func=_cmd_check_uniset)

    rep = sub.add_parser("repfam", help="compute a representative subfamily")
    rep.add_argument("--spec", required=True)
    rep.add_argument("--family", required=True)
    rep.add_argument("--objective", choices=["max", "min"], default="max")
    rep.set_defaults(func=_cmd_repfam)

    mat = sub.add_parser("matching", help="maximum matching of a graph document")
    mat.add_argument("instance")
    mat.set_defaults(func=_cmd_matching)

    gen = sub.add_parser("gen", help="generate a reproducible instance")
    gen.add_argument("kind", choices=["digraph", "graph", "setfamily"])
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--density", type=float, default=0.3)
    gen.add_argument("--sets", type=int)
    gen.add_argument("--wmin", type=int, default=1)
    gen.add_argument("--wmax", type=int, default=9)
    gen.add_argument("--plant", type=int, help="plant a k-structure and emit its certificate")
    gen.add_argument("--seed", type=int)
    gen.add_argument("--out")
    gen.set_defaults(func=_cmd_gen)

    ben = sub.add_parser("bench", help="run a suite and cross-check oracles")
    ben.add_argument("suite")
    ben.add_argument("--format", choices=["csv", "json"], default="csv")
    ben.add_argument("--budget", type=int)
    ben.set_defaults(func=_cmd_bench)

    return top


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        budget_from_env()  # a bad FPTMIX_BUDGET is a usage error for every command
        args = build_parser().parse_args(argv)
        if getattr(args, "budget", None) is not None and args.budget <= 0:
            raise ParameterError(f"--budget must be a positive integer, got {args.budget}")
        return args.func(args, ["fpt-mix"] + argv)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ParameterError, InstanceError, FptMixError, FileNotFoundError,
            json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
