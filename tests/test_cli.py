import csv
import io
import json
import random
import time

import pytest

from fptmix import cli, oracles, repsets
from fptmix.core import MAX_NODES, BudgetExceededError, Graph, ParameterError, parse_instance
from fptmix.p2pack import Packing, validate_packing


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_uniset_and_check_roundtrip(tmp_path, capsys):
    code, out, _ = run(capsys, "uniset", "--n", "4", "--k", "2", "--p", "1")
    assert code == 0
    path = tmp_path / "u.txt"
    path.write_text(out)
    code, out, _ = run(capsys, "check-uniset", str(path), "--n", "4", "--k", "2", "--p", "1")
    assert code == 0 and out.strip() == "valid"
    path.write_text("0000\n")
    code, out, _ = run(capsys, "check-uniset", str(path), "--n", "4", "--k", "2", "--p", "1")
    assert code == 1 and out.startswith("invalid")


def test_uniset_at_n_zero_round_trips(tmp_path, capsys):
    """At n = 0 the one 0-bit function prints as an empty line, which
    check-uniset reads back as that function; an empty file stays invalid."""
    code, out, _ = run(capsys, "uniset", "--n", "0", "--k", "0", "--p", "0")
    assert code == 0 and out == "\n"
    path = tmp_path / "u.txt"
    path.write_text(out)
    code, out, _ = run(capsys, "check-uniset", str(path), "--n", "0", "--k", "0", "--p", "0")
    assert code == 0 and out.strip() == "valid"
    path.write_text("")
    code, out, _ = run(capsys, "check-uniset", str(path), "--n", "0", "--k", "0", "--p", "0")
    assert code == 1 and out.startswith("invalid")


def test_uniset_rand_needs_seed(capsys):
    code, _, err = run(capsys, "uniset", "--n", "4", "--k", "2", "--p", "1", "--mode", "rand")
    assert code == 2 and "seed" in err


def test_uniset_commands_reject_n_above_64(tmp_path, capsys):
    """A vector wider than the 64 bits a stored function holds is a usage
    error (exit 2), not a reject or a crash."""
    path = tmp_path / "u.txt"
    path.write_text("1" * 70 + "\n")
    for argv in (("check-uniset", str(path)), ("uniset", "--mode", "rand", "--seed", "1")):
        code, out, err = run(capsys, *argv, "--n", "70", "--k", "1", "--p", "1")
        assert code == 2 and out == "" and err.startswith("error:") and "64" in err


def test_gen_deterministic_and_planted(tmp_path, capsys):
    code, out1, _ = run(capsys, "gen", "digraph", "--n", "8", "--plant", "4", "--seed", "9")
    code, out2, _ = run(capsys, "gen", "digraph", "--n", "8", "--plant", "4", "--seed", "9")
    assert code == 0 and out1 == out2
    payload = json.loads(out1)
    cert = payload["certificate"]
    inst = tmp_path / "d.json"
    inst.write_text(json.dumps(payload["instance"]))
    # the oracle confirms a path within the certified weight exists
    code, out, _ = run(capsys, "check", "kpath", str(inst),
                       "--k", "4", "--W", str(cert["weight"]))
    assert code == 0


def test_gen_graph_and_setfamily_certificates(capsys):
    code, out, _ = run(capsys, "gen", "graph", "--n", "10", "--plant", "3", "--seed", "5")
    assert code == 0
    payload = json.loads(out)
    doc = payload["instance"]
    g = Graph(doc["nodes"], tuple(map(tuple, doc["edges"])))
    paths = tuple(tuple(path) for path in payload["certificate"]["paths"])
    assert len(paths) == 3
    validate_packing(g, Packing(paths))
    assert oracles.oracle_p2p(g, 3)

    code, out, _ = run(capsys, "gen", "setfamily", "--n", "9", "--plant", "2", "--seed", "5")
    assert code == 0
    payload = json.loads(out)
    cert, doc = payload["certificate"], payload["instance"]
    planted = doc["sets"][:len(cert["sets"])]  # planted sets come first
    assert [s["members"] for s in planted] == cert["sets"]
    assert cert["weight"] == sum(s["weight"] for s in planted)
    family = parse_instance(json.dumps(doc)).value
    assert oracles.oracle_wsp(family, 2) >= cert["weight"]


def test_gen_rejects_bad_plant(capsys):
    code, _, err = run(capsys, "gen", "digraph", "--n", "3", "--plant", "5", "--seed", "1")
    assert code == 2
    code, _, err = run(capsys, "gen", "digraph", "--n", "0", "--seed", "1")
    assert code == 2
    code, _, err = run(capsys, "gen", "digraph", "--n", "3")
    assert code == 2 and "seed" in err
    # each of these once exited 1 with a ValueError, or emitted an empty family
    for argv in (("setfamily", "--n", "2"), ("digraph", "--n", "4", "--plant", "-1"),
                 ("graph", "--n", "4", "--plant", "-1"),
                 ("digraph", "--n", "4", "--wmin", "5", "--wmax", "1"),
                 ("setfamily", "--n", "6", "--sets", "-2"),
                 # these once wrote an edgeless or complete graph, or one parse refuses
                 ("graph", "--n", "5", "--density", "-1"),
                 ("digraph", "--n", "5", "--density", "1.5"),
                 ("graph", "--n", str(MAX_NODES + 1))):
        code, out, err = run(capsys, "gen", *argv, "--seed", "1")
        assert code == 2 and err.startswith("error:") and not out, argv


def test_solve_exit_codes(tmp_path, capsys):
    inst = tmp_path / "d.json"
    inst.write_text(json.dumps({"nodes": 5, "arcs": [[i, i + 1, 1] for i in range(4)]}))
    code, out, _ = run(capsys, "solve", "kiob", str(inst), "--k", "4")
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "accept" and rep["witness"]["branching"]
    code, out, _ = run(capsys, "solve", "kiob", str(inst), "--k", "5")
    assert code == 1
    code, out, _ = run(capsys, "solve", "kpath", str(inst), "--k", "5", "--W", "3")
    assert code == 1
    code, out, _ = run(capsys, "solve", "kpath", str(inst), "--k", "5", "--W", "4")
    assert code == 0


def test_solve_budget_exit_code(tmp_path, capsys):
    inst = tmp_path / "d.json"
    inst.write_text(json.dumps(
        {"nodes": 40, "arcs": [[i, i + 1, 1] for i in range(39)]}))
    code, out, _ = run(capsys, "solve", "kpath", str(inst), "--k", "30",
                       "--W", "100", "--budget", "10")
    assert code == 3
    assert json.loads(out)["verdict"] == "budget-exceeded"


def test_solve_kpath_budget_bounds_the_exhaustive_search(tmp_path, capsys):
    """k = 20 is below the small-k guard, so the search runs; before it took
    a budget it ran for more than 10 s."""
    _, doc, _ = run(capsys, "gen", "digraph", "--n", "30", "--density", "0.5", "--seed", "1")
    inst = tmp_path / "d.json"
    inst.write_text(doc)
    start = time.perf_counter()
    code, out, _ = run(capsys, "solve", "kpath", str(inst), "--k", "20", "--W", "0",
                       "--budget", "1")
    assert time.perf_counter() - start < 1
    assert code == 3 and json.loads(out)["verdict"] == "budget-exceeded"


def test_solve_kpath_past_the_small_k_guard_exits_3_at_any_node_count(tmp_path, capsys):
    """At 70 nodes this once exited 2: unisets refused a universal set on
    more than 64 nodes."""
    inst = tmp_path / "d.json"
    inst.write_text(json.dumps({"nodes": 70, "arcs": [[i, i + 1, 1] for i in range(69)]}))
    code, out, _ = run(capsys, "solve", "kpath", str(inst), "--k", "30", "--W", "100")
    assert code == 3 and json.loads(out)["verdict"] == "budget-exceeded"


def test_solve_p2p_budget_exit_code(tmp_path, capsys):
    rng = random.Random(1)
    edges = set()
    while len(edges) < 18:
        edges.add(tuple(sorted(rng.sample(range(12), 2))))
    inst = tmp_path / "g.json"
    inst.write_text(json.dumps({"nodes": 12, "edges": sorted(edges)}))
    code, out, _ = run(capsys, "solve", "p2p", str(inst), "--k", "4", "--budget", "1")
    assert code == 3 and json.loads(out)["verdict"] == "budget-exceeded"


def test_p2p_budget_counts_the_cut_tuples_of_the_whole_solve(tmp_path, capsys):
    """Every ``procedure2`` call of one solve charges the same budget, so
    one cut tuple is too few here; each (p, q) split once got a fresh budget
    and this accepted.  ``dpEntries`` counts the footprint DP's entries too:
    it once read 78, with the same witness."""
    _, doc, _ = run(capsys, "gen", "graph", "--n", "14", "--density", "0.26", "--seed", "3")
    inst = tmp_path / "g.json"
    inst.write_text(doc)
    code, out, _ = run(capsys, "solve", "p2p", str(inst), "--k", "3", "--budget", "1")
    assert code == 3 and json.loads(out)["verdict"] == "budget-exceeded"
    code, out, _ = run(capsys, "solve", "p2p", str(inst), "--k", "3")
    rep = json.loads(out)
    assert code == 0 and rep["dpEntries"] == 82
    assert rep["witness"] == {"paths": [[6, 9, 7], [0, 1, 4], [2, 3, 5]]}


def test_p2p_settles_a_k_that_needs_more_nodes_than_the_graph_has(tmp_path, capsys):
    """A 5-packing covers 15 nodes, so on 14 the reject is settled before
    any compression round: neither DP runs and their fields are null."""
    _, doc, _ = run(capsys, "gen", "graph", "--n", "14", "--density", "0.26", "--seed", "3")
    inst = tmp_path / "g.json"
    inst.write_text(doc)
    code, out, _ = run(capsys, "solve", "p2p", str(inst), "--k", "5")
    rep = json.loads(out)
    assert code == 1 and rep["verdict"] == "reject"
    assert rep["dpEntries"] is None and rep["reductions"] is None and rep["cutSkips"] is None


def test_p2p_reports_the_cuts_its_counting_bound_rules_out(tmp_path, capsys):
    """``cutSkips`` counts the cuts whose footprint DP the counting bound
    rules out before building a layer; it is null when none is, and a bench
    row reports what ``solve`` does."""
    _, doc, _ = run(capsys, "gen", "graph", "--n", "12", "--seed", "1")
    inst = tmp_path / "g.json"
    inst.write_text(doc)
    suite = tmp_path / "suite.json"
    for k, skips in ((2, None), (4, 45)):
        code, out, _ = run(capsys, "solve", "p2p", str(inst), "--k", str(k))
        solved = json.loads(out)
        assert code == 0 and solved["cutSkips"] == skips, solved
        suite.write_text(json.dumps({"rows": [{"problem": "p2p", "instance": json.loads(doc),
                                               "k": k}]}))
        code, out, _ = run(capsys, "bench", str(suite), "--format", "json")
        assert code == 0 and json.loads(out)[0]["cutSkips"] == skips


def test_only_the_problems_that_draw_cut_tuples_read_budget(tmp_path, capsys, monkeypatch):
    """``kiob`` and ``kcwp`` take no budget, yet ``solve kiob --k 8 --budget 1``
    on this digraph once accepted; ``FPTMIX_BUDGET`` stays a default, which
    they leave unread.  A non-positive ``--budget`` stays a usage error."""
    _, doc, _ = run(capsys, "gen", "digraph", "--n", "9", "--seed", "4")
    digraph = tmp_path / "d.json"
    digraph.write_text(doc)
    kcwp = tmp_path / "kcwp.json"
    kcwp.write_text(json.dumps(_kcwp_document()))
    for argv in (("kiob", str(digraph), "--k", "8"), ("kcwp", str(kcwp))):
        code, out, err = run(capsys, "solve", *argv, "--budget", "1")
        assert code == 2 and not out and f"error: {argv[0]} does not read --budget" in err, err
        monkeypatch.setenv("FPTMIX_BUDGET", "1")
        assert run(capsys, "solve", *argv)[0] == 0, argv
        monkeypatch.delenv("FPTMIX_BUDGET")
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps(DOCUMENTS["graph"]))
    for argv in (("kpath", str(digraph), "--k", "3", "--W", "9"), ("p2p", str(graph), "--k", "1")):
        code, out, err = run(capsys, "solve", *argv, "--budget", "0")
        assert code == 2 and not out and "--budget must be a positive integer" in err, err


def test_solve_kcwp_document(tmp_path, capsys):
    import random
    from fractions import Fraction
    from fptmix import kpath
    from fptmix.core import Digraph

    rng = random.Random(3)
    n, k = 30, 27
    perm = list(range(n))
    rng.shuffle(perm)
    path = perm[:k]
    arcs = {(path[i], path[i + 1]): 1 for i in range(k - 1)}
    g = Digraph(n, tuple((a, b, w) for (a, b), w in arcs.items()))
    inst = kpath.construct_kcwp_witness(g, path, 13, Fraction(1, 12), Fraction(95, 1000))
    doc = tmp_path / "kcwp.json"
    doc.write_text(kpath.kcwp_instance_to_document(inst))
    code, out, _ = run(capsys, "solve", "kcwp", str(doc))
    assert code == 0
    rep = json.loads(out)
    assert rep["witness"]["chained"] is True


@pytest.mark.parametrize("kind", ["setfamily", "graph"])
def test_solve_kcwp_names_the_missing_field(tmp_path, capsys, kind):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(DOCUMENTS[kind]))
    code, out, err = run(capsys, "solve", "kcwp", str(inst))
    assert code == 2 and not out
    assert err.startswith("error:") and "field 'digraph' is missing" in err


def test_a_directory_given_as_the_instance_is_a_usage_error(tmp_path, capsys):
    """It once escaped as ``IsADirectoryError`` with exit 1."""
    code, out, err = run(capsys, "solve", "wsp", str(tmp_path), "--k", "1", "--W", "1")
    assert code == 2 and not out and err.startswith("error:") and "cannot read" in err


def test_an_instance_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    """A UTF-16 byte-order mark once escaped as ``UnicodeDecodeError`` with exit 1."""
    inst = tmp_path / "inst.json"
    inst.write_bytes(b"\xff\xfe")
    for argv in (("wsp", "--k", "1", "--W", "1"), ("kcwp",)):
        code, out, err = run(capsys, "solve", argv[0], str(inst), *argv[1:])
        assert code == 2 and not out and err.startswith("error:") and "cannot read" in err


def test_an_instance_nested_too_deep_to_parse_is_a_usage_error(tmp_path, capsys):
    """200,000 open brackets once escaped as ``RecursionError`` with exit 1."""
    inst = tmp_path / "inst.json"
    inst.write_text("[" * 200_000)
    for argv in (("solve", "wsp", str(inst), "--k", "1", "--W", "1"), ("solve", "kcwp", str(inst)),
                 ("bench", str(inst))):
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out and err.startswith("error:") and "too deep" in err


def _kcwp_document():
    from fractions import Fraction
    from fptmix import kpath
    from fptmix.core import Digraph

    path = list(range(27))
    g = Digraph(27, tuple((i, i + 1, 1) for i in range(26)))
    return json.loads(kpath.kcwp_instance_to_document(
        kpath.construct_kcwp_witness(g, path, 13, Fraction(1, 12), Fraction(95, 1000))))


def test_solve_kcwp_names_an_ill_typed_field(tmp_path, capsys):
    doc = _kcwp_document()
    inst = tmp_path / "kcwp.json"
    for field, value, message in (("k", "27", "field 'k' is missing or not int"),
                                  ("L", 3, "field 'L' is missing or not list"),
                                  ("delta", "x", "'delta' and 'gamma' must be fractions"),
                                  ("digraph", {"nodes": 27}, "field 'digraph.arcs' is missing")):
        inst.write_text(json.dumps(dict(doc, **{field: value})))
        code, out, err = run(capsys, "solve", "kcwp", str(inst))
        assert code == 2 and not out and err.startswith("error:") and message in err, err
    inst.write_text(json.dumps(doc))
    assert run(capsys, "solve", "kcwp", str(inst))[0] == 0


def test_solve_kcwp_names_a_list_field_with_a_bad_entry(tmp_path, capsys):
    inst = tmp_path / "kcwp.json"
    inst.write_text(json.dumps(dict(_kcwp_document(), L=["a"])))
    code, out, err = run(capsys, "solve", "kcwp", str(inst))
    assert code == 2 and not out and err.startswith("error:") and "field 'L'" in err, err


def test_solve_kcwp_names_an_arc_without_a_weight(tmp_path, capsys):
    doc = _kcwp_document()
    doc["digraph"]["arcs"][0] = doc["digraph"]["arcs"][0][:2]
    inst = tmp_path / "kcwp.json"
    inst.write_text(json.dumps(doc))
    code, out, err = run(capsys, "solve", "kcwp", str(inst))
    assert code == 2 and not out and err.startswith("error:") and "'digraph.arcs'" in err, err


@pytest.mark.parametrize("problem,flags", [
    ("kiob", ("--k", "2", "--inv-eps", "7")), ("kiob", ("--k", "2", "--delta", "1/20")),
    ("wsp", ("--k", "1", "--W", "1", "--gamma", "1/20")),
    ("p2p", ("--k", "1", "--delta", "1/20")), ("kcwp", ("--k", "27")), ("kcwp", ("--W", "30")),
    ("kcwp", ("--inv-eps", "13")), ("kcwp", ("--gamma", "95/1000")),
    ("kiob", ("--k", "2", "--W", "5")), ("p2p", ("--k", "1", "--W", "-3"))])
def test_a_flag_the_problem_never_reads_is_a_usage_error(tmp_path, capsys, problem, flags):
    """Such a flag was once ignored (``solve kiob d.json --k 3 --inv-eps 7
    --delta 1/20`` exited 0, and so did ``--W 5`` for kiob and ``--W -3`` for
    p2p, in ``check`` too); without it each solve accepts."""
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(_kcwp_document() if problem == "kcwp"
                               else DOCUMENTS[cli._DOCUMENT_KIND[problem]]))
    commands = ("solve", "check") if flags[-2] == "--W" and problem != "kcwp" else ("solve",)
    for command in commands:
        code, out, err = run(capsys, command, problem, str(inst), *flags)
        assert code == 2 and not out and f"error: {problem} does not read {flags[-2]}" in err, err
        assert run(capsys, command, problem, str(inst), *flags[:-2])[0] == 0


def test_wsp_and_p2p_cli(tmp_path, capsys):
    fam = tmp_path / "s.json"
    fam.write_text(json.dumps({
        "universe": [f"u{i}" for i in range(6)],
        "sets": [{"members": ["u0", "u1", "u2"], "weight": 4},
                 {"members": ["u3", "u4", "u5"], "weight": 2}]}))
    code, out, _ = run(capsys, "solve", "wsp", str(fam), "--k", "2", "--W", "6")
    assert code == 0 and json.loads(out)["witness"]["weight"] == 6
    code, out, _ = run(capsys, "solve", "wsp", str(fam), "--k", "2", "--W", "7")
    assert code == 1

    gra = tmp_path / "g.json"
    gra.write_text(json.dumps({"nodes": 3, "edges": [[0, 1], [1, 2]]}))
    code, out, _ = run(capsys, "solve", "p2p", str(gra), "--k", "1")
    assert code == 0
    code, out, _ = run(capsys, "matching", str(gra))
    assert code == 0 and json.loads(out)["size"] == 1


def test_repfam_cli(tmp_path, capsys):
    fam = tmp_path / "f.json"
    fam.write_text(json.dumps({
        "universe": ["a", "b", "c", "d"],
        "sets": [{"members": ["a"], "weight": 5},
                 {"members": ["b"], "weight": 3},
                 {"members": ["c"], "weight": 1}]}))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"parts": [{"elements": ["a", "b", "c", "d"],
                                           "k": 2, "p": 1}]}))
    code, out, _ = run(capsys, "repfam", "--spec", str(spec), "--family", str(fam),
                       "--objective", "max")
    assert code == 0
    rep = json.loads(out)
    assert rep["stats"]["inputSize"] == 3
    assert rep["stats"]["outputSize"] <= rep["stats"]["productFamilySize"]


def test_repfam_part_listing_an_element_twice_is_a_usage_error(tmp_path, capsys):
    """Such a part once passed as a part one element larger: exit 0 and a
    product family of 5 rather than 4."""
    fam = tmp_path / "f.json"
    fam.write_text(json.dumps({
        "universe": ["a", "b", "c", "d"],
        "sets": [{"members": [e], "weight": w} for e, w in zip("abcd", (5, 3, 1, 2))]}))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"parts": [{"elements": ["a", "a", "b", "c", "d"],
                                           "k": 2, "p": 1}]}))
    code, out, err = run(capsys, "repfam", "--spec", str(spec), "--family", str(fam),
                         "--objective", "max")
    assert code == 2 and "lists an element twice" in err and not out


def test_bench_suite_and_missing(tmp_path, capsys):
    suite = tmp_path / "suite.json"
    wsp_family = {"universe": [f"u{i}" for i in range(6)],
                  "sets": [{"members": [f"u{e}" for e in members], "weight": w}
                           for members, w in (((0, 2, 3), 3), ((1, 2, 4), 2), ((0, 2, 4), 4),
                                              ((1, 3, 5), 4), ((2, 4, 5), 5))]}
    suite.write_text(json.dumps({"name": "smoke", "rows": [
        {"problem": "kiob", "instance": {"nodes": 3, "arcs": [[0, 1, 1], [1, 2, 1]]}, "k": 2},
        {"problem": "p2p", "instance": {"nodes": 3, "edges": [[0, 1], [1, 2]]}, "k": 1},
        {"problem": "wsp", "instance": wsp_family, "k": 2, "W": 9},
        # a star: the three paths through the centre share one DP entry
        {"problem": "p2p", "instance": {"nodes": 4, "edges": [[0, 1], [0, 2], [0, 3]]},
         "k": 1},
        # a 7-node path with chords: its tree DP reduces states of several sets
        {"problem": "kiob", "instance": {"nodes": 7, "arcs": [
            [0, 1, 1], [0, 2, 1], [0, 3, 1], [1, 2, 1], [1, 5, 1], [2, 3, 1], [2, 4, 1],
            [3, 4, 1], [3, 6, 1], [4, 5, 1], [5, 6, 1]]}, "k": 3},
        {"problem": "wsp", "instance": wsp_family, "k": 2, "W": 8},
    ]}))
    code, out, _ = run(capsys, "bench", str(suite), "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert all(r["match"] for r in rows)
    for i in (3, 4, 5):
        assert isinstance(rows[i]["peakFamilySize"], int)
        assert rows[i]["dpEntries"] >= rows[i]["peakFamilySize"]
    # the best disjoint pair weighs 4 + 4 = 8, so W = 9 is a reject settled
    # by weight, which runs no DP and reports no reduction
    assert rows[2]["verdict"] == "reject" and rows[2]["peakFamilySize"] is None
    # on the 3-node paths every DP entry holds one set, so no reduction runs,
    # while the step still counts the entries
    assert rows[0]["peakFamilySize"] is None and rows[1]["peakFamilySize"] is None
    assert rows[0]["dpEntries"] > 0 and rows[1]["dpEntries"] > 0
    code, _, err = run(capsys, "bench", str(tmp_path / "nope.json"))
    assert code == 2 and "missing suite" in err


def test_bench_csv_matches_json(tmp_path, capsys):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"name": "csv", "rows": [
        {"problem": "kiob", "instance": {"nodes": 3, "arcs": [[0, 1, 1], [1, 2, 1]]}, "k": 2},
        {"problem": "p2p", "instance": {"nodes": 4, "edges": [[0, 1], [0, 2], [0, 3]]},
         "k": 1},
        {"problem": "kpath", "instance": {"nodes": 3, "arcs": [[0, 1, 4]]}, "k": 2, "W": 3},
    ]}))
    code, text, _ = run(capsys, "bench", str(suite))
    assert code == 0
    assert text.splitlines()[0] == ("instance,problem,verdict,oracle,match,seconds,"
                                    "peakFamilySize,reductions,denseSkips,smallSkips,dpEntries,"
                                    "cutSkips")
    code, out, _ = run(capsys, "bench", str(suite), "--format", "json")
    assert code == 0
    rows = json.loads(out)
    read = list(csv.DictReader(io.StringIO(text)))
    assert len(read) == len(rows) == 3
    for got, want in zip(read, rows):
        float(got.pop("seconds"))  # timings differ from run to run
        want.pop("seconds")
        assert got == {name: "" if value is None else str(value)
                       for name, value in want.items()}


def test_bench_seconds_leave_out_the_oracle(tmp_path, capsys, monkeypatch):
    real = cli.oracles.oracle_kiob

    def slow_oracle(*args, **kwargs):
        time.sleep(0.3)
        return real(*args, **kwargs)

    def capped_oracle(*args, **kwargs):
        raise BudgetExceededError("oracle enumeration budget exceeded")

    monkeypatch.setattr(cli.oracles, "oracle_kiob", slow_oracle)
    monkeypatch.setattr(cli.oracles, "oracle_p2p", capped_oracle)
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"name": "slow-oracle", "rows": [
        {"problem": "kiob", "instance": {"nodes": 3, "arcs": [[0, 1, 1], [1, 2, 1]]}, "k": 1},
        {"problem": "p2p", "instance": {"nodes": 3, "edges": [[0, 1], [1, 2]]}, "k": 1},
    ]}))
    code, out, _ = run(capsys, "bench", str(suite), "--format", "json")
    assert code == 0
    slow, capped = json.loads(out)
    assert slow["match"] and slow["seconds"] < 0.3
    # an oracle out of budget leaves the solver's verdict standing, unchecked
    assert capped["verdict"] == "accept"
    assert capped["oracle"] is None and capped["match"] is None


def test_empty_bench_suite(tmp_path, capsys):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"name": "empty", "rows": []}))
    code, out, _ = run(capsys, "bench", str(suite), "--format", "json")
    assert code == 0 and json.loads(out) == []


def test_bounds_cli_all_tables(capsys):
    for table in ("table1", "table2", "table3", "table4", "table5", "p2p"):
        code, out, _ = run(capsys, "bounds", table)
        assert code == 0 and out.strip()


def test_budget_variable_reaches_only_the_cli_caps(capsys, monkeypatch, tmp_path):
    """FPTMIX_BUDGET once also capped the universal sets every separator is
    built from, so it changed the separators a solver's DP used: here kiob's
    denseSkips read 43 with the variable at 1 and 0 without it."""
    digraph = tmp_path / "d.json"
    digraph.write_text(json.dumps(cli.gen_instance("digraph", {"n": 9}, 4)[0]))
    family = tmp_path / "s.json"
    family.write_text(json.dumps(cli.gen_instance("setfamily", {"n": 9, "sets": 14}, 1)[0]))

    def report(*argv):
        repsets.clear_separator_cache()
        code, out, _ = run(capsys, *argv)
        rep = json.loads(out)
        del rep["timings"]
        return code, rep

    for argv in (("solve", "kiob", str(digraph), "--k", "5"),
                 ("solve", "wsp", str(family), "--k", "3", "--W", "10", "--budget", "200000")):
        monkeypatch.delenv("FPTMIX_BUDGET", raising=False)
        unset = report(*argv)
        monkeypatch.setenv("FPTMIX_BUDGET", "1")
        assert report(*argv) == unset and unset[1]["reductions"], argv
    uniset = tmp_path / "u.txt"
    uniset.write_text("0011\n0101\n1001\n0110\n1010\n1100\n")
    for argv in (("uniset",), ("check-uniset", str(uniset))):  # 12 constraints
        code, _, err = run(capsys, *argv, "--n", "4", "--k", "2", "--p", "1")
        assert code == 3 and "exceed budget 1" in err, argv
        monkeypatch.setenv("FPTMIX_BUDGET", "12")
        assert run(capsys, *argv, "--n", "4", "--k", "2", "--p", "1")[0] == 0, argv
        monkeypatch.setenv("FPTMIX_BUDGET", "1")


def test_bad_budget_variable_is_a_usage_error(capsys, monkeypatch, tmp_path):
    for value in ("abc", "0", "-5"):
        monkeypatch.setenv("FPTMIX_BUDGET", value)
        code, _, err = run(capsys, "bounds", "table2")
        assert code == 2 and err.startswith("error:") and "FPTMIX_BUDGET" in err
    monkeypatch.setenv("FPTMIX_BUDGET", "10")
    inst = tmp_path / "d.json"
    inst.write_text(json.dumps(
        {"nodes": 40, "arcs": [[i, i + 1, 1] for i in range(39)]}))
    code, _, _ = run(capsys, "solve", "kpath", str(inst), "--k", "30", "--W", "100")
    assert code == 3


def test_usage_errors(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "solve", "nosuch", "x.json")
    assert exc.value.code == 2
    inst = tmp_path / "d.json"
    inst.write_text(json.dumps({"nodes": 2, "arcs": [[0, 1, 1]]}))
    code, _, err = run(capsys, "solve", "kiob", str(inst))  # missing k
    assert code == 2
    for flag in ("--delta", "--gamma"):  # once a ZeroDivisionError and exit 1
        with pytest.raises(SystemExit) as exc:
            run(capsys, "solve", "kpath", str(inst), "--k", "2", "--W", "1", flag, "1/0")
        assert exc.value.code == 2 and "invalid Fraction value: '1/0'" in capsys.readouterr().err


def test_bench_budget_exceeded_rows(tmp_path, capsys):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"name": "big", "rows": [
        {"problem": "kpath",
         "instance": {"nodes": 40, "arcs": [[i, i + 1, 1] for i in range(39)]},
         "k": 30, "W": 100},
    ]}))
    code, out, _ = run(capsys, "bench", str(suite), "--format", "json", "--budget", "10")
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["verdict"] == "budget-exceeded" and rows[0]["match"] is None


DOCUMENTS = {
    "digraph": {"nodes": 3, "arcs": [[0, 1, 1], [1, 2, 1]]},
    "graph": {"nodes": 3, "edges": [[0, 1], [1, 2]]},
    "setfamily": {"universe": ["a", "b", "c"],
                  "sets": [{"members": ["a", "b", "c"], "weight": 1}]},
}


def weight_flag(problem):
    """``--W 1`` for the problems that read a W; kiob and p2p refuse the flag."""
    return ("--W", "1") if problem in ("kpath", "wsp") else ()


@pytest.mark.parametrize("problem,kind", [
    ("kpath", "graph"), ("kpath", "setfamily"), ("kiob", "graph"), ("kiob", "setfamily"),
    ("wsp", "digraph"), ("wsp", "graph"), ("p2p", "digraph"), ("p2p", "setfamily")])
def test_wrong_document_kind_is_a_usage_error(tmp_path, capsys, problem, kind):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(DOCUMENTS[kind]))
    for command in ("solve", "check"):
        code, out, err = run(capsys, command, problem, str(inst), "--k", "1",
                             *weight_flag(problem))
        assert code == 2 and err.startswith("error:") and kind in err and not out
    # one bad row fails the whole suite, the good row before it included
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"name": "mixed", "rows": [
        {"problem": "kiob", "instance": DOCUMENTS["digraph"], "k": 1},
        {"problem": problem, "instance": DOCUMENTS[kind], "k": 1, "W": 1}]}))
    code, out, err = run(capsys, "bench", str(suite), "--format", "json")
    assert code == 2 and err.startswith("error:") and kind in err and not out


def test_non_positive_budget_is_a_usage_error(tmp_path, capsys):
    inst = tmp_path / "s.json"
    inst.write_text(json.dumps(DOCUMENTS["setfamily"]))
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"name": "one", "rows": [
        {"problem": "wsp", "instance": DOCUMENTS["setfamily"], "k": 1, "W": 1}]}))
    for budget in ("0", "-5"):
        for argv in (("solve", "wsp", str(inst), "--k", "1", "--W", "1"),
                     ("check", "wsp", str(inst), "--k", "1", "--W", "1"),
                     ("bench", str(suite))):
            code, out, err = run(capsys, *argv, "--budget", budget)
            assert code == 2 and err.startswith("error:") and "--budget" in err and not out
    code, _, _ = run(capsys, "solve", "wsp", str(inst), "--k", "1", "--W", "1", "--budget", "1")
    assert code == 0


def test_bench_refuses_budget_for_a_row_that_draws_no_cut_tuples(tmp_path, capsys, monkeypatch):
    """A kiob row once ran with ``bench --budget 1`` and accepted; like
    ``solve``, ``bench`` now refuses the flag and names the row, while
    ``FPTMIX_BUDGET`` stays a default the row leaves unread."""
    _, doc, _ = run(capsys, "gen", "digraph", "--n", "9", "--seed", "4")
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"rows": [{"problem": "kiob", "instance": json.loads(doc),
                                           "k": 8}]}))
    code, out, err = run(capsys, "bench", str(suite), "--budget", "1")
    assert code == 2 and not out and "error: bench row 0: kiob does not read --budget" in err
    code, out, _ = run(capsys, "bench", str(suite), "--format", "json")
    assert code == 0 and json.loads(out)[0]["verdict"] == "accept"
    monkeypatch.setenv("FPTMIX_BUDGET", "1")
    assert run(capsys, "bench", str(suite))[0] == 0


def test_bench_rows_rejects_a_non_positive_budget():
    """A library caller's budget of 0 is an error, not the default budget."""
    suite = {"rows": [{"problem": "wsp", "instance": DOCUMENTS["setfamily"], "k": 1, "W": 1}]}
    for budget in (0, -5):
        with pytest.raises(ParameterError, match="budget"):
            cli.bench_rows(suite, budget=budget)
    assert cli.bench_rows(suite, budget=1)[0]["verdict"] == "accept"


@pytest.mark.parametrize("row,message", [
    ({"problem": "kiob", "instance": DOCUMENTS["digraph"]}, "k is required"),
    ({"problem": "kpath", "instance": DOCUMENTS["digraph"], "k": 2}, "W is required"),
    ({"problem": "wsp", "instance": DOCUMENTS["setfamily"], "k": 1}, "W is required"),
    ({"problem": "kiob", "instance": DOCUMENTS["digraph"], "k": "2"}, "k must be an integer"),
    ({"problem": "p2p", "instance": DOCUMENTS["graph"], "k": True}, "k must be an integer"),
    ({"problem": "wsp", "instance": DOCUMENTS["setfamily"], "k": 1, "W": "1"},
     "weight must be an exact integer"),
    (3, "'rows' lists objects"),
    ({"instance": DOCUMENTS["digraph"], "k": 1}, "no 'problem' field"),
    ({"problem": "kiob", "k": 1}, "no 'instance' field"),
    ({"problem": ["kiob"], "instance": DOCUMENTS["digraph"], "k": 1}, "unknown problem")])
def test_bench_row_without_a_valid_k_or_W_is_a_usage_error(tmp_path, capsys, row, message):
    """Such a row once failed inside the solver with a TypeError and exit 1,
    or, given k = true, ran as k = 1; a row that is not an object, or lacks
    its problem or instance, once crashed or named only the missing key."""
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"name": "bad", "rows": [row]}))
    code, out, err = run(capsys, "bench", str(suite), "--format", "json")
    assert code == 2 and err.startswith("error:") and message in err and not out


@pytest.mark.parametrize("suite", [[1, 2], {"rows": {"a": 1}}, "rows"])
def test_bench_suite_that_is_not_an_object_of_rows_is_a_usage_error(tmp_path, capsys, suite):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(suite))
    code, out, err = run(capsys, "bench", str(path), "--format", "json")
    assert code == 2 and err.startswith("error:") and "'rows' lists objects" in err and not out


def test_bench_row_reads_k_from_its_instance(tmp_path, capsys):
    """As ``solve`` does, a row without k takes the instance document's."""
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"name": "inner-k", "rows": [
        {"problem": "kiob", "instance": {**DOCUMENTS["digraph"], "k": 1}}]}))
    code, out, _ = run(capsys, "bench", str(suite), "--format", "json")
    assert code == 0
    (row,) = json.loads(out)
    assert row["verdict"] == "accept" and row["match"]


@pytest.mark.parametrize("problem,kind,k", [
    ("kiob", "digraph", 0), ("kiob", "digraph", -1), ("wsp", "setfamily", -1),
    ("p2p", "graph", -1)])
def test_k_below_the_solvers_least_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                                    problem, kind, k):
    """``check`` once gave a verdict here where ``solve`` exits 2 (kiob at -1
    accepted), and ``bench`` ran the rows before such a row until its solver
    raised."""
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(DOCUMENTS[kind]))
    for command in ("solve", "check"):
        code, out, err = run(capsys, command, problem, str(inst), "--k", str(k),
                             *weight_flag(problem))
        assert code == 2 and err.startswith("error:") and "k must be at least" in err and not out
    ran = []
    monkeypatch.setattr(cli, "_run", lambda *args, **kw: ran.append(args) or ("reject", None))
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"name": "low-k", "rows": [
        {"problem": "kiob", "instance": DOCUMENTS["digraph"], "k": 1},
        {"problem": problem, "instance": DOCUMENTS[kind], "k": k, "W": 1}]}))
    code, out, err = run(capsys, "bench", str(suite), "--format", "json")
    assert code == 2 and "k must be at least" in err and not out and not ran


@pytest.mark.parametrize("problem,doc", [
    ("kiob", {"nodes": 3, "arcs": [[None, 1, 2]]}), ("kiob", {"nodes": 3, "arcs": [["x", 1, 2]]}),
    ("kiob", {"nodes": 3, "arcs": [[1.5, 1, 2]]}), ("kiob", {"nodes": 3, "arcs": [[True, 2, 2]]}),
    ("kpath", {"nodes": 3, "arcs": 5}), ("p2p", {"nodes": 3, "edges": [["x", 1]]}),
    ("kiob", {"nodes": 10**30, "arcs": [[0, 1, 1]]}), ("p2p", {"nodes": 10**30, "edges": []})])
def test_ill_typed_graph_document_is_a_usage_error(tmp_path, capsys, problem, doc):
    """Each once raised TypeError (exit 1 with a traceback), or, with 10**30
    nodes, ran until it was killed."""
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(doc))
    for command in ("solve", "check"):
        code, out, err = run(capsys, command, problem, str(inst), "--k", "1",
                             *weight_flag(problem))
        assert code == 2 and err.startswith("error:") and not out, command
        assert "does not read" not in err, command


@pytest.mark.parametrize("problem,kind", [
    ("kpath", "digraph"), ("kiob", "digraph"), ("wsp", "setfamily"), ("p2p", "graph")])
def test_check_without_k_is_a_usage_error(tmp_path, capsys, problem, kind):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(DOCUMENTS[kind]))
    code, out, err = run(capsys, "check", problem, str(inst), *weight_flag(problem))
    assert code == 2 and err.startswith("error:") and "k is required" in err and not out



@pytest.mark.parametrize("problem,kind,W", [("wsp", "setfamily", "99999999999999999999999"),
                                            ("kpath", "digraph", "-99999999999999999999999")])
def test_check_with_an_out_of_range_W_is_a_usage_error(tmp_path, capsys, problem, kind, W):
    """A W outside the signed 64-bit range is a usage error in ``check`` as
    in ``solve``, never a reject."""
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(DOCUMENTS[kind]))
    for command in ("solve", "check"):
        code, out, err = run(capsys, command, problem, str(inst), "--k", "1", "--W", W)
        assert code == 2 and "outside signed 64-bit range" in err and not out, command

def _repfam(tmp_path, capsys, spec):
    fam = tmp_path / "f.json"
    fam.write_text(json.dumps(DOCUMENTS["setfamily"]))
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return run(capsys, "repfam", "--spec", str(path), "--family", str(fam))


@pytest.mark.parametrize("spec,named", [
    ({"parts": [{"elements": ["a", "b", "c"], "k": "2", "p": 1}]}, "'k'"),
    ({"parts": [{"elements": ["a", "b", "c"], "k": 3, "p": None}]}, "'p'"),
    ({"parts": {"elements": ["a", "b", "c"], "k": 3, "p": 3}}, "'parts'"),
    ({"parts": [{"elements": "abc", "k": 3, "p": 3}]}, "'elements'"),
    ({"parts": [{"elements": ["a", "b", "zz"], "k": 3, "p": 3}]}, "unknown element 'zz'"),
], ids=["string-k", "missing-p", "parts-object", "elements-string", "unknown-label"])
def test_bad_repfam_spec_is_a_usage_error(tmp_path, capsys, spec, named):
    code, out, err = _repfam(tmp_path, capsys, spec)
    assert code == 2 and err.startswith("error:") and named in err and not out
    assert "Traceback" not in err


# one small accept instance per problem, with k and W; kpath's small-k exhaustive
# fallback runs no reduction, so its three counters are null on both paths
AGREEMENT = {
    "kpath": ({"nodes": 5, "arcs": [[i, i + 1, 1] for i in range(4)]}, 5, 4),
    "kiob": ({"nodes": 7, "arcs": [
        [0, 1, 1], [0, 2, 1], [0, 3, 1], [1, 2, 1], [1, 5, 1], [2, 3, 1], [2, 4, 1],
        [3, 4, 1], [3, 6, 1], [4, 5, 1], [5, 6, 1]]}, 3, None),
    "wsp": ({"universe": [f"u{i}" for i in range(6)],
             "sets": [{"members": [f"u{e}" for e in members], "weight": w}
                      for members, w in (((0, 2, 3), 3), ((1, 2, 4), 2), ((0, 2, 4), 4),
                                         ((1, 3, 5), 4), ((2, 4, 5), 5))]}, 2, 8),
    "p2p": ({"nodes": 4, "edges": [[0, 1], [0, 2], [0, 3]]}, 1, None),
}


@pytest.mark.parametrize("problem", sorted(AGREEMENT))
def test_solve_and_bench_run_a_row_alike(tmp_path, capsys, problem):
    """A bench row runs its solver exactly as ``solve`` with default flags."""
    doc, k, W = AGREEMENT[problem]
    weight = () if W is None else ("--W", str(W))
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "solve", problem, str(inst), "--k", str(k), *weight)
    assert code == 0
    solved = json.loads(out)
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"rows": [{"problem": problem, "instance": doc, "k": k,
                                           "W": W}]}))
    code, out, _ = run(capsys, "bench", str(suite), "--format", "json")
    assert code == 0
    (row,) = json.loads(out)
    assert row["verdict"] == solved["verdict"] == "accept" and row["match"]
    for field in ("peakFamilySize", "reductions", "denseSkips", "smallSkips", "dpEntries",
                  "cutSkips"):
        assert row[field] == solved[field], field


@pytest.mark.parametrize("n, line", [(3, "1_0"), (3, "+10"), (3, "0b1"), (2, "１０"),
                                     (3, "1 0"), (2, "101")])
def test_check_uniset_bad_line_is_a_usage_error(tmp_path, capsys, n, line):
    """Lines ``int(..., 2)`` would read, and a line of the wrong length, exit
    2 rather than parse or look like an invalid set."""
    path = tmp_path / "u.txt"
    path.write_text("1" * n + "\n" + line + "\n", encoding="utf-8")
    code, out, err = run(capsys, "check-uniset", str(path), "--n", str(n), "--k", "1", "--p", "1")
    assert code == 2 and out == "" and "bad function line" in err
