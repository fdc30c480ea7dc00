"""fptmix benchmark: one command, oracle-checked ops, every metric by name.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ``src/``.  The
parent process draws the workload's instances from the seed and computes the
reference answers with the exhaustive oracles.  Everything timed then runs
in fresh interpreters (``worker.py``), one op at a time:

* ``--trace 0``: several set-up probes (``setup_s`` is their median), then
  one worker that runs the cold pass and untraced warm passes for S seconds.
  Prints the end-to-end metrics.
* ``--trace 1``: one worker whose cold pass is traced and whose warm passes
  alternate untraced and traced.  Prints the per-layer metrics.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full result, with the
environment block and every failing op, goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 4
RUN_TIMEOUT_S = 170  # the whole run, workers included


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ------------------------------------------------------------------ environment

def _git_commit(root: str) -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_lines(src: str) -> dict[str, int]:
    pkg = os.path.join(src, "fptmix")
    out = {}
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                out[name[:-3]] = sum(1 for _ in fh)
    out["total"] = sum(out.values())
    return out


def _environment(root: str, src: str) -> dict:
    from importlib import metadata

    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "commit": _git_commit(root),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(os.getloadavg()),
        "src_lines": _src_lines(src),
    }


# ------------------------------------------------------------------ workers

def _run_worker(spec_path: str, mode: str, out_path: str, env: dict, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), spec_path, mode]
    spawn = time.monotonic()
    proc = subprocess.run(cmd + [repr(spawn), out_path], env=env, timeout=deadline - spawn,
                          stdout=subprocess.DEVNULL)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with code {proc.returncode}")
    with open(out_path, encoding="utf-8") as fh:
        data = json.load(fh)
    os.remove(out_path)
    return data


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: at least (1 - q) * n samples lie at or above it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _latencies(main: dict) -> dict[str, list[float]]:
    expect = {op["id"]: op["expect"] for op in main["ops"]}
    out: dict[str, list[float]] = {"accept": [], "reject": []}
    for label, op_id, seconds in main["records"]:
        if label.startswith("warm"):
            out[expect[op_id]].append(seconds)
    return out


def end_to_end(setups: list[float], main: dict) -> tuple[dict, dict]:
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "cold_pass_s": (main["cold_pass_scaled_s"], "s"),
    }
    lat = _latencies(main)
    warm_seconds = sum(p["scaled"] for p in main["warm"])  # summed op times
    metrics["ops_per_s"] = ((len(lat["accept"]) + len(lat["reject"])) / warm_seconds, "1/s")
    samples = {}
    for cls, values in lat.items():
        samples[cls] = len(values)
        if values:
            metrics[f"{cls}_s.p50"] = (statistics.median(values), "s")
        if len(values) >= 100:  # so that at least ten samples lie beyond the p90
            metrics[f"{cls}_s.p90"] = (_percentile(values, 0.9), "s")
    metrics["peak_rss_mb"] = (main["peak_rss_mb"], "MB")
    return metrics, samples


def per_layer(traced: dict, oracle_s: float) -> dict:
    import spans

    stats = traced["trace_stats"]
    warm = [stats[name] for name in stats if name.startswith("traced")]

    def mean(key, phases=warm):
        return sum(p.get(key, 0) for p in phases) / len(phases)

    def ratio(part, whole, phases=warm):
        total = sum(p.get(whole, 0) for p in phases)
        return sum(p.get(part, 0) for p in phases) / total if total else 0.0

    metrics = {}
    for mod, fnames in spans.SPANS.items():
        for fname in fnames:
            name = f"{mod}.{fname}"
            metrics[f"{name}.calls"] = (mean(f"{name}.calls"), "count")
            metrics[f"{name}.self_s"] = (mean(f"{name}.self_s"), "s")
    sep, sel = "repsets.build_separator", "repsets.select_representative_positions"
    scanned = [spans.constraints_scanned(p.get("_verify_calls", [])) for p in warm]
    metrics.update({
        "unisets.build_universal.functions": (mean("unisets.build_universal.functions"), "count"),
        "unisets.verify_universal.constraints": (sum(scanned) / len(scanned), "count"),
        f"{sep}.cache_hit_ratio": (ratio(f"{sep}.cache_hit", f"{sep}.calls"), "ratio"),
        f"{sep}.dense_ratio": (ratio(f"{sep}.dense", f"{sep}.calls"), "ratio"),
        f"{sel}.sets_in": (mean(f"{sel}.sets_in"), "count"),
        f"{sel}.sets_out": (mean(f"{sel}.sets_out"), "count"),
        f"{sel}.shrink_ratio": (ratio(f"{sel}.shrunk", f"{sel}.calls"), "ratio"),
        "kiob.tree_families.sets_out": (mean("kiob.tree_families.sets_out"), "count"),
        "wsp.cut_tuples.yielded": (mean("wsp.cut_tuples.yielded"), "count"),
        "wsp.solve_cwsp.accept_ratio": (ratio("wsp.solve_cwsp.accepts", "wsp.solve_cwsp.calls"),
                                         "ratio"),
        "p2pack.solve_cpro2.accept_ratio": (ratio("p2pack.solve_cpro2.accepts",
                                                  "p2pack.solve_cpro2.calls"), "ratio"),
        "oracles.self_s": (oracle_s, "s"),
    })
    cold = [stats["cold"]]
    metrics.update({
        "cold.unisets.build_universal.calls": (mean("unisets.build_universal.calls", cold),
                                               "count"),
        "cold.unisets.build_universal.self_s": (mean("unisets.build_universal.self_s", cold),
                                                "s"),
        f"cold.{sep}.self_s": (mean(f"{sep}.self_s", cold), "s"),
        f"cold.{sep}.cache_hit_ratio": (ratio(f"{sep}.cache_hit", f"{sep}.calls", cold),
                                        "ratio"),
    })
    untraced = sum(pair["untraced"][1] for pair in traced["warm"])
    metrics["trace.overhead_ratio"] = (sum(pair["traced"][1] for pair in traced["warm"])
                                       / untraced, "ratio")
    return metrics


# ------------------------------------------------------------------ main

def _terminate(signum, frame):
    # raising here lets subprocess.run kill and reap the running worker
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = _args(argv)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    signal.signal(signal.SIGTERM, _terminate)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "fptmix", "__init__.py")):
        print(f"error: no fptmix sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [src, HERE]
    import reference
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    env_block = _environment(root, src)
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    sets = [workloads.base_instances(args.workload, args.seed, i)
            for i in range(workloads.set_count(args.workload, args.seconds))]
    start = time.perf_counter()
    refs = [[reference.reference(base) for base in bases] for bases in sets]
    oracle_s = time.perf_counter() - start

    spec_path = os.path.join(out_dir, f"{tag}.spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "refs": refs}, fh)
    # a fixed hash seed gives every worker the same set and dict orders
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
    worker_out = os.path.join(out_dir, f"{tag}.worker.json")
    samples: dict = {}
    runs: list[dict] = []
    try:
        if args.trace:
            main_run = _run_worker(spec_path, "traced", worker_out, env, deadline)
            metrics = per_layer(main_run, oracle_s)
        else:
            runs = [_run_worker(spec_path, "probe", worker_out, env, deadline)
                    for _ in range(SETUP_PROBES)]
            main_run = _run_worker(spec_path, "main", worker_out, env, deadline)
            runs.append(main_run)
            setups = [r["setup_s"] * r["setup_factor"] for r in runs]
            metrics, samples = end_to_end(setups, main_run)
    finally:
        os.remove(spec_path)

    ops = {op["id"]: op for op in main_run["ops"]}
    failing = [{"workload": args.workload, "seed": args.seed, "op": op_id,
                "kind": ops[op_id]["kind"], "problem": problem}
               for op_id, problem in main_run["failures"].items()]
    per_class = {cls: sum(1 for op in ops.values() if op["expect"] == cls)
                 for cls in ("accept", "reject")}
    attempted, failed = main_run["attempted"], main_run["failed"]
    result = {
        "environment": env_block,
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "ops_per_pass": per_class,
        "samples_per_class": samples,
        "raw_seconds": {"setup_s": [r["setup_s"] for r in runs] if not args.trace else None,
                        "cold_pass_s": main_run["cold_pass_s"],
                        "warm_passes": [p.get("raw") or p["untraced"][0]
                                        for p in main_run["warm"]]},
        "speed_scaled_seconds": {"cold_pass_s": main_run["cold_pass_scaled_s"],
                                 "warm_passes": [p.get("scaled") or p["untraced"][1]
                                                 for p in main_run["warm"]]},
        "failed_ratio": failed / attempted,
        "failing_ops": failing,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    if args.trace:
        result["spans"] = main_run["spans"]
    with open(os.path.join(out_dir, f"{tag}.result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)

    for item in failing:
        print(f"FAILED {item['workload']} seed={item['seed']} op={item['op']} "
              f"({item['kind']}): {item['problem']}")
    print(f"{args.workload} seed={args.seed}: failed_ratio={failed}/{attempted} "
          f"ops per pass={per_class} warm samples={samples}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
