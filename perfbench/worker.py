"""One fresh interpreter of a benchmark run.

    python3 perfbench/worker.py SPEC_JSON MODE SPAWN_CLOCK OUT_JSON

MODE is ``probe`` (set up, record set-up time, exit before the first solver
call), ``main`` (set up, cold pass, untraced warm passes) or ``traced`` (set
up, traced cold pass, then warm passes alternating untraced and traced).
SPAWN_CLOCK is the parent's ``time.monotonic()`` just before it started this
process; CLOCK_MONOTONIC is shared by all processes, so set-up time covers
interpreter start-up too.

The cold pass is simply the first pass of this process: the benchmark never
clears or inspects the library's module-level caches.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

import fptmix.bounds  # noqa: F401  (importing the library is part of set-up)
import fptmix.kiob  # noqa: F401
import fptmix.kpath  # noqa: F401
import fptmix.p2pack  # noqa: F401
import fptmix.wsp  # noqa: F401

import checks
import workloads

MIN_CLASS_SAMPLES = 100
MAX_WARM_PASSES = 8
# On a shared host the whole machine runs faster or slower, by up to 1.5x, in
# phases of seconds to minutes.  A fixed pure-Python loop slows down in step
# with the ops (over 3 s windows the ops varied by 30% and their ratio to the
# loop by 4%), so op times are also reported scaled to the loop's time on an
# uncontended core of the 2.1 GHz Xeon the workloads were sized on.
REFERENCE_LOOP_S = 0.00135
CALIBRATE_EVERY_S = 0.5


def _reference_loop() -> int:
    d = {}
    for j in range(3000):
        t = (j, j + 1, j * 7 % 13)
        d[t] = frozenset(t)
    s = 0
    for k, v in d.items():
        if len(v) == 3:
            s += k[0]
    return s


def speed_factor() -> float:
    """Reference-loop time over its measured time now (best of three)."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _reference_loop()
        best = min(best, time.perf_counter() - t0)
    return REFERENCE_LOOP_S / best


class Runner:
    """Runs ops, times each one, and checks every answer outside the timing."""

    def __init__(self):
        self.records: list[tuple] = []  # (pass label, op id, seconds)
        self.failures: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self._valid_sets: dict[tuple, bool] = {}

    def run_pass(self, label: str, ops: list[dict]) -> tuple[float, float]:
        """Run every op once; returns the summed op time, raw and scaled to
        the reference speed.  Both leave out the checks between ops."""
        clock = time.perf_counter
        raw_total = scaled_total = 0.0
        recalibrate_at = clock()
        for op in ops:
            if clock() >= recalibrate_at:
                factor = speed_factor()
                recalibrate_at = clock() + CALIBRATE_EVERY_S
            t0 = clock()
            try:
                verdict, answer = workloads.run_op(op)
                error = None
            except Exception:  # a raising op is a failed op, reported with its traceback
                verdict, answer, error = "raised", None, traceback.format_exc(limit=3)
            elapsed = clock() - t0
            raw_total += elapsed
            scaled_total += elapsed * factor
            self.records.append((label, op["id"], elapsed * factor))
            problem = error or self._check(op, verdict, answer)
            self.attempted += 1
            if problem:
                self.failed += 1
                self.failures.setdefault(op["id"], problem)
        return raw_total, scaled_total

    def _check(self, op: dict, verdict: str, answer) -> str | None:
        if verdict != op["expect"]:
            return f"verdict {verdict}, oracle says {op['expect']}"
        if verdict != "accept":
            return None
        kind = op["kind"]
        try:
            if kind in checks.WITNESS_CHECKS:
                checks.WITNESS_CHECKS[kind](op, answer)
            elif kind in ("uniset-greedy", "uniset-rand"):
                spec = json.loads(op["doc"])
                key = (spec["n"], spec["k"], spec["p"], tuple(answer))
                if key not in self._valid_sets:
                    self._valid_sets[key] = checks.universal_valid(*key[:3], answer)
                if not self._valid_sets[key]:
                    return "built set is not universal"
        except checks.CheckError as exc:
            return f"witness check: {exc}"
        return None


def main() -> int:
    spec_path, mode, spawn_clock, out_path = sys.argv[1:5]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    workload, seed = spec["workload"], spec["seed"]
    ops = [op for i, refs in enumerate(spec["refs"])
           for op in workloads.make_ops(i, workloads.base_instances(workload, seed, i), refs)]
    docs_path = os.path.join(os.path.dirname(out_path), f"docs-{os.getpid()}.jsonl")
    with open(docs_path, "w", encoding="utf-8") as fh:
        for op in ops:
            fh.write(json.dumps(op, sort_keys=True) + "\n")
    setup_s = time.monotonic() - float(spawn_clock)  # next comes the first solver call
    os.remove(docs_path)
    result: dict = {"setup_s": setup_s, "setup_factor": speed_factor()}
    if mode == "probe":
        _write(out_path, result)
        return 0

    runner = Runner()
    tracer = None
    if mode == "traced":
        from spans import Tracer

        tracer = Tracer()
        tracer.phase("cold")
        tracer.install()
    result["cold_pass_s"], result["cold_pass_scaled_s"] = runner.run_pass("cold", ops)
    per_class = {expect: sum(1 for op in ops if op["expect"] == expect)
                 for expect in ("accept", "reject")}

    def enough_samples(passes: int) -> bool:
        # a p90 needs 100 samples per class, so that ten lie beyond it
        return passes >= MAX_WARM_PASSES or min(per_class.values()) * passes >= MIN_CLASS_SAMPLES

    warm: list[tuple] = []
    deadline = time.perf_counter() + spec["seconds"]
    while True:
        if mode == "traced":
            # the same ops untraced, then traced, so their ratio is the overhead
            tracer.uninstall()
            untraced = runner.run_pass(f"warm{len(warm)}", ops)
            tracer.phase(f"traced{len(warm)}")
            tracer.install()
            traced = runner.run_pass(f"traced{len(warm)}", ops)
            warm.append({"untraced": untraced, "traced": traced})
            last = untraced[0] + traced[0]
        else:
            raw, scaled = runner.run_pass(f"warm{len(warm)}", ops)
            warm.append({"raw": raw, "scaled": scaled})
            last = raw
        left = deadline - time.perf_counter()
        if left < last * 0.5 and enough_samples(len(warm)):
            break
    if tracer is not None:
        tracer.uninstall()
        result["spans"] = tracer.write_spans(out_path[:-len(".json")] + ".spans.tsv.gz")
        result["trace_stats"] = {name: dict(stats) for name, stats in tracer.stats.items()}
    result.update({
        "warm": warm,
        "records": runner.records,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.failures,
        "ops": [{"id": op["id"], "kind": op["kind"], "expect": op["expect"]} for op in ops],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    _write(out_path, result)
    return 0


def _write(path: str, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


if __name__ == "__main__":
    sys.exit(main())
