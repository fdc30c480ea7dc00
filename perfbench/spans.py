"""Spans around the library's public functions, installed from the outside.

``Tracer.install`` wraps each function listed in ``SPANS`` and rebinds the
wrapper under every name that refers to the original in any loaded
``fptmix`` module, so callers that imported a function by name (``wsp``,
``kpath`` and ``p2pack`` import ``select_representative_positions``,
``kiob`` imports ``gen_rep_alg`` and ``max_matching``, ``p2pack`` imports
``cut_tuples``) reach the wrapper too.  ``uninstall`` puts the originals back.

Every span records name, start, end and parent in flat in-memory arrays;
``write_spans`` stores them when the run ends.  Self time (duration minus the
time covered by child spans) and the per-layer counters are aggregated per
phase as spans close.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from array import array
from itertools import combinations
from math import comb

SPANS = {
    "core": ["parse_instance", "reorder_universe", "block_permutation"],
    "unisets": ["build_universal", "verify_universal"],
    "repsets": ["build_separator", "select_representative_positions", "gen_rep_alg",
                "query_separator"],
    "matching": ["max_matching"],
    "kiob": ["solve_kiob", "tp_alg", "tree_families", "find_out_tree", "extract_branching"],
    "kpath": ["kcwp_instance_from_document", "solve_kcwp", "verify_kcwp_witness",
              "chain_pieces"],
    "wsp": ["wsp_alg", "solve_cwsp", "verify_cwsp_witness"],
    "p2pack": ["solve_p2packing", "icp_pro1", "procedure2", "solve_cpro2", "validate_packing"],
    "bounds": ["alpha_beta_table", "kiob_det_bound", "kiob_rand_bound", "kpath_bound",
               "wsp_bound", "p2p_bound"],
}
COUNTED_GENERATORS = {"wsp": ["cut_tuples"]}


def _count_built(stats, args, kwargs, result):
    stats["unisets.build_universal.functions"] += len(result.functions)


def _count_verified(stats, args, kwargs, result):
    # the scan position is derived after the run; keep only what it needs
    stats.setdefault("_verify_calls", []).append((args[0].n, args[0].k, args[0].p,
                                                  result.violation))


def _count_separator(stats, args, kwargs, result):
    stats["repsets.build_separator.cache_hit"] += result.stats.construction == "cached"
    # a cached family no longer says how it was built; the dense fallback is
    # the one with a member for every p'-subset of the part
    dense = len(result.family) == comb(len(result.part_elements), result.p_prime)
    stats["repsets.build_separator.dense"] += dense


def _count_selection(stats, args, kwargs, result):
    fam_in = len(args[1])
    fam_out = len(result[0])
    stats["repsets.select_representative_positions.sets_in"] += fam_in
    stats["repsets.select_representative_positions.sets_out"] += fam_out
    stats["repsets.select_representative_positions.shrunk"] += fam_out < fam_in


def _count_tree_family(stats, args, kwargs, result):
    stats["kiob.tree_families.sets_out"] += len(result.family)


def _count_cwsp(stats, args, kwargs, result):
    stats["wsp.solve_cwsp.accepts"] += bool(result.accept)


def _count_cpro2(stats, args, kwargs, result):
    stats["p2pack.solve_cpro2.accepts"] += bool(result.accept)


COUNTERS = {
    "unisets.build_universal": _count_built,
    "unisets.verify_universal": _count_verified,
    "repsets.build_separator": _count_separator,
    "repsets.select_representative_positions": _count_selection,
    "kiob.tree_families": _count_tree_family,
    "wsp.solve_cwsp": _count_cwsp,
    "p2pack.solve_cpro2": _count_cpro2,
}


class _Stats(dict):
    def __missing__(self, key):
        return 0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.starts = array("d")
        self.ends = array("d")
        self.span_names = array("i")
        self.parents = array("i")
        self.phase_of_span = array("i")
        self.phases: list[str] = []
        self.stats: dict[str, _Stats] = {}
        self._stack: list[list] = []  # [span index, child seconds]
        self._phase = -1
        self._restore: list[tuple] = []

    # ---------------------------------------------------------- phases

    def phase(self, name: str) -> _Stats:
        """Start attributing spans and counters to ``name``."""
        self.phases.append(name)
        self._phase = len(self.phases) - 1
        self.stats[name] = self._current = _Stats()
        return self._current

    # ---------------------------------------------------------- wrapping

    def _span_wrapper(self, name: str, fn, counter):
        name_id = self.name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        calls_key, self_key = name + ".calls", name + ".self_s"
        stack = self._stack
        clock = time.perf_counter
        starts, ends, names, parents = self.starts, self.ends, self.span_names, self.parents
        phases = self.phase_of_span

        def wrapper(*args, **kwargs):
            idx = len(starts)
            parents.append(stack[-1][0] if stack else -1)
            names.append(name_id)
            phases.append(self._phase)
            ends.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            start = clock()
            starts.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                ends[idx] = end
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                stats = self._current
                stats[calls_key] += 1
                stats[self_key] += duration - frame[1]
            if counter is not None:
                counter(stats, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _generator_wrapper(self, name: str, fn):
        key = name + ".yielded"

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self._current[key] += 1
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        wrapped = []
        for mod_name, fnames in SPANS.items():
            mod = importlib.import_module(f"fptmix.{mod_name}")
            for fname in fnames:
                name = f"{mod_name}.{fname}"
                orig = getattr(mod, fname)
                wrapped.append((orig, self._span_wrapper(name, orig, COUNTERS.get(name))))
        for mod_name, fnames in COUNTED_GENERATORS.items():
            mod = importlib.import_module(f"fptmix.{mod_name}")
            for fname in fnames:
                orig = getattr(mod, fname)
                wrapped.append((orig, self._generator_wrapper(f"{mod_name}.{fname}", orig)))
        by_id = {id(orig): wrapper for orig, wrapper in wrapped}
        for mod_name, mod in list(sys.modules.items()):
            if not (mod_name == "fptmix" or mod_name.startswith("fptmix.")) or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = by_id.get(id(value))
                if wrapper is not None and getattr(wrapper, "__wrapped__", None) is value:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    # ---------------------------------------------------------- output

    def write_spans(self, path: str) -> int:
        """Store every span as a tab-separated line of a gzip file: name,
        phase, start, end, parent index.  Returns the span count."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\tphase\tstart\tend\tparent\n")
            for i in range(len(self.starts)):
                fh.write(f"{self.names[self.span_names[i]]}\t"
                         f"{self.phases[self.phase_of_span[i]]}\t"
                         f"{self.starts[i]:.9f}\t{self.ends[i]:.9f}\t{self.parents[i]}\n")
        return len(self.starts)


def constraints_scanned(verify_calls) -> int:
    """Constraints ``verify_universal`` examined: all of them for a valid
    set, up to and including the first violation otherwise."""
    total = 0
    for n, k, p, violation in verify_calls:
        if violation is None:
            total += comb(n, k) * comb(k, p)
            continue
        I, ones = tuple(violation[0]), tuple(violation[1])
        for rank, subset in enumerate(combinations(range(n), k)):
            if subset == I:
                # ones-patterns inside one I are scanned in combinations order
                total += rank * comb(k, p) + list(combinations(I, p)).index(ones) + 1
                break
    return total
