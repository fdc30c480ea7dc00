"""The exit-code contract under mutation: one valid document of each kind has
each of its fields (every object field and the first entry of every list,
at any depth) replaced in turn by a value of another type or size, or
deleted.  Every command that reads the document must then return 0 to 3
and never raise, and wherever ``solve`` gives a verdict (0 or 1), ``check``
on the same document gives the same one.  Nothing here is random."""

import contextlib
import copy
import json
import signal

import pytest
from test_cli import _kcwp_document

from fptmix import cli
from fptmix.core import MAX_NODES, Digraph, InstanceError

REPLACEMENTS = (None, True, -1, 0, 1.5, "x", [], {}, [1], 10**30, -10**30)
DELETED = object()

DIGRAPH = {"nodes": 4, "arcs": [[0, 1, 1], [1, 2, 2], [2, 3, 1], [0, 2, 5]], "k": 3, "W": 4}
GRAPH = {"nodes": 6, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5]], "k": 2}
SETFAMILY = {"universe": ["a", "b", "c", "d", "e", "f"],
             "sets": [{"members": ["a", "b", "c"], "weight": 2},
                      {"members": ["d", "e", "f"], "weight": 3},
                      {"members": ["a", "d", "e"], "weight": 4}], "k": 2, "W": 5}
BENCH = {"name": "one", "rows": [{"name": "r", "problem": "kiob",
                                  "instance": {"nodes": 3, "arcs": [[0, 1, 1], [1, 2, 1]]},
                                  "k": 1}]}
REPFAM_SPEC = {"parts": [{"elements": ["a", "b", "c"], "k": 2, "p": 1},
                         {"elements": ["d", "e", "f"], "k": 4, "p": 2}]}
REPFAM_FAMILY = {"universe": ["a", "b", "c", "d", "e", "f"],
                 "sets": [{"members": [x, y, z], "weight": w}
                          for (x, y, z), w in (("ade", 1), ("bdf", 2), ("cef", 3))]}


def _paths(doc, path=()):
    """Each object field and each list's first entry, depth first."""
    if isinstance(doc, dict):
        items = list(doc.items())
    elif isinstance(doc, list):
        items = [(0, doc[0])] if doc else []
    else:
        items = []
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


def _mutants(doc):
    for path in _paths(doc):
        for value in (*REPLACEMENTS, DELETED):
            mutant = copy.deepcopy(doc)
            parent = mutant
            for key in path[:-1]:
                parent = parent[key]
            if value is DELETED:
                del parent[path[-1]]  # a list loses its first entry
            else:
                parent[path[-1]] = value
            yield path, value, mutant


@contextlib.contextmanager
def _time_limit(seconds):
    """A run that loops raises here, so the test fails rather than hangs."""
    def expire(signum, frame):
        raise TimeoutError(f"one run took over {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# document kind -> (the document, the commands run on it, each as argv with
# "{doc}" for the mutant's file); a (solve, check) pair is compared
CASES = {
    "digraph": (DIGRAPH, [("solve", "kpath", "{doc}"), ("check", "kpath", "{doc}"),
                          ("solve", "kiob", "{doc}"), ("check", "kiob", "{doc}"),
                          ("matching", "{doc}")]),
    "graph": (GRAPH, [("solve", "p2p", "{doc}"), ("check", "p2p", "{doc}"),
                      ("matching", "{doc}")]),
    "setfamily": (SETFAMILY, [("solve", "wsp", "{doc}"), ("check", "wsp", "{doc}")]),
    "kcwp": (_kcwp_document(), [("solve", "kcwp", "{doc}")]),
    "bench": (BENCH, [("bench", "{doc}", "--format", "json")]),
    "repfam": (REPFAM_SPEC, [("repfam", "--spec", "{doc}", "--family", "{family}")]),
}


@pytest.mark.parametrize("kind", sorted(CASES))
def test_every_field_mutation_exits_0_to_3(tmp_path, capsys, kind):
    doc, commands = CASES[kind]
    family = tmp_path / "family.json"
    family.write_text(json.dumps(REPFAM_FAMILY))
    path = tmp_path / "doc.json"
    runs = 0
    for field, value, mutant in _mutants(doc):
        if field[-1] == "nodes" and type(value) is int and value > MAX_NODES:
            with pytest.raises(InstanceError):  # refused before any per-node list is built
                Digraph(value, ())
        path.write_text(json.dumps(mutant))
        verdicts = {}
        for argv in commands:
            argv = [a.format(doc=path, family=family) for a in argv]
            with _time_limit(5):
                code = cli.main(argv)
            capsys.readouterr()
            runs += 1
            assert 0 <= code <= 3, (field, value, argv)
            if argv[0] in ("solve", "check") and argv[1] != "kcwp":
                verdicts.setdefault(argv[1], {})[argv[0]] = code
        for problem, got in verdicts.items():
            if got["solve"] in (0, 1):
                assert got["check"] == got["solve"], (field, value, problem)
    assert runs >= 12 * len(commands)
