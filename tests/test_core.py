import json

import pytest
from hypothesis import given, strategies as st

from fptmix.core import (
    MAX_NODES,
    Budget,
    BudgetExceededError,
    Digraph,
    Graph,
    InstanceError,
    OrderedUniverse,
    WeightedSetFamily,
    WeightOverflowError,
    add_weights,
    parse_instance,
    reorder_universe,
)


def test_parse_digraph_echo():
    doc = json.dumps({"nodes": 3, "arcs": [[0, 1, 1], [1, 2, 1]]})
    parsed = parse_instance(doc)
    assert parsed.kind == "digraph"
    assert parsed.value.node_count == 3
    assert len(parsed.value.arcs) == 2


def test_parse_setfamily_echo():
    doc = json.dumps({
        "universe": ["a", "b", "c", "d", "e", "f"],
        "sets": [{"members": ["a", "b", "c"], "weight": 2},
                 {"members": ["d", "e", "f"], "weight": 5}],
    })
    parsed = parse_instance(doc)
    assert parsed.kind == "setfamily"
    assert parsed.value.set_size == 3
    assert len(parsed.value) == 2


def test_parse_index_out_of_range():
    doc = json.dumps({"nodes": 3, "arcs": [[0, 7, 1]]})
    with pytest.raises(InstanceError, match="index out of range"):
        parse_instance(doc)


@pytest.mark.parametrize("doc,named", [
    ({"universe": "abc", "sets": []}, "'universe'"),
    ({"universe": ["a", "b", "c"], "sets": {"x": 1}}, "'sets'"),
    ({"universe": ["a", "b", "c"], "sets": [3]}, "must be an object"),
    ({"universe": ["a", "b", "c"], "sets": [{"members": "abc", "weight": 1}]},
     "members list"),
], ids=["universe-string", "sets-object", "set-not-object", "members-string"])
def test_parse_setfamily_checks_its_shape(doc, named):
    """Such documents once crashed with AttributeError, or read a string
    universe as one label per character."""
    with pytest.raises(InstanceError, match=named):
        parse_instance(json.dumps(doc))


def test_parse_malformed():
    with pytest.raises(InstanceError, match="malformed"):
        parse_instance(b"{not json")
    with pytest.raises(InstanceError, match="malformed"):  # once a bare UnicodeDecodeError
        parse_instance(b"\xff")


@pytest.mark.parametrize("doc", ["[" * 200_000, b"[" * 200_000])
def test_parse_nested_too_deep_is_an_instance_error(doc):
    """200,000 open brackets once escaped as a bare ``RecursionError``."""
    with pytest.raises(InstanceError, match="nested too deep"):
        parse_instance(doc)


def test_weight_overflow_reported():
    with pytest.raises(WeightOverflowError):
        add_weights(2**62, 2**62)
    with pytest.raises(WeightOverflowError):
        parse_instance(json.dumps({"nodes": 2, "arcs": [[0, 1, 2**63]]}))


def test_digraph_invariants():
    with pytest.raises(InstanceError, match="self-loop"):
        Digraph(2, ((1, 1, 0),))
    g = Digraph(2, ((0, 1, 5), (0, 1, 3)))
    assert g.arcs == ((0, 1, 3),)  # parallel arcs collapse to the minimum
    assert Digraph(2, [[0, 1, 5]]).arcs == ((0, 1, 5),)  # a document's lists are read as they are


def test_digraph_weight_checks():
    """The constructor's in-range-int fast path still sends every other
    weight to check_weight."""
    for weight in (True, 1.0, "1", None):
        with pytest.raises(InstanceError, match="exact integer"):
            Digraph(2, ((0, 1, weight),))
    for weight in (2**63, -(2**63) - 1):
        with pytest.raises(WeightOverflowError):
            Digraph(2, ((0, 1, weight),))
    assert Digraph(2, ((0, 1, 2**63 - 1), (1, 0, -(2**63)))).arcs == \
        ((0, 1, 2**63 - 1), (1, 0, -(2**63)))
    for arcs in (((0, 1, 3), (0, 1, 5)), ((0, 1, 4), (0, 1, 3), (0, 1, 9))):
        assert Digraph(2, arcs).arcs == ((0, 1, 3),)  # parallel arcs keep the minimum
    assert Digraph(2, ((0, 1, -1), (0, 1, -2**63))).arcs == ((0, 1, -2**63),)


def test_graph_invariants():
    with pytest.raises(InstanceError):
        Graph(2, ((0, 2),))
    g = Graph(3, ((1, 0), (0, 1), (2, 0)))
    assert g.edges == ((0, 1), (0, 2))


@pytest.mark.parametrize("nodes", [-1, MAX_NODES + 1, 10**30, True, 3.0, "3", None])
def test_node_count_is_an_int_from_0_to_max_nodes(nodes):
    """A count of 10**30 once passed and ran a solver until it was killed."""
    for build in (Digraph, Graph):
        with pytest.raises(InstanceError, match="node count"):
            build(nodes, ())
    assert Digraph(MAX_NODES, ()).node_count == MAX_NODES and Graph(0, ()).node_count == 0


@pytest.mark.parametrize("build,entry,message", [
    (Digraph, (None, 1, 2), "index out of range"), (Digraph, ("x", 1, 2), "index out of range"),
    (Digraph, (1.5, 1, 2), "index out of range"), (Digraph, (True, 2, 2), "index out of range"),
    (Digraph, (0, 1), r"arc must be \[tail, head, weight\]"), (Digraph, 5, "arc must be"),
    (Digraph, (0, 1, 1.0), "weight must be an exact integer"),
    (Graph, ("x", 1), "index out of range"), (Graph, (0, False), "index out of range"),
    (Graph, (0, 1, 2), r"edge must be \[u, v\]"), (Graph, None, "edge must be"),
    (Graph, (2, 2), "self-loop")])
def test_graph_entries_are_checked_by_their_constructor(build, entry, message):
    """Each entry once raised TypeError, or, like (True, 2, 2), passed as node 1."""
    with pytest.raises(InstanceError, match=message):
        build(3, (entry,))
    with pytest.raises(InstanceError, match=message):
        parse_instance(json.dumps({"nodes": 3, "arcs" if build is Digraph else "edges": [entry]}))


@pytest.mark.parametrize("members", [(0, 1.5, 2), (0, "2", 1), (0, 1, 2.0), ("a", "b", "c"),
                                     ([0], [1], [2]), 5, (0, 1, 4), (-1, 0, 1)],
                         ids=["float", "str", "float-last", "strs", "lists", "int", "above",
                              "negative"])
def test_weighted_set_family_refuses_a_member_that_is_not_an_int_in_range(members):
    """A float or str member once escaped the sort or the mask as a bare
    TypeError; every such member, like one out of range, is an InstanceError."""
    with pytest.raises(InstanceError, match="member index out of range or not an int in"):
        WeightedSetFamily(OrderedUniverse.from_labels("abcd"), 3, ((members, 1),))


@pytest.mark.parametrize("doc", [{"nodes": 3, "arcs": 5}, {"nodes": 3, "edges": {"0": 1}},
                                 {"arcs": []}, {"nodes": 2.0, "edges": []}])
def test_parse_graph_checks_its_fields(doc):
    with pytest.raises(InstanceError, match="must be a list|node count"):
        parse_instance(json.dumps(doc))


def test_dedup_policy_max_and_min():
    uni = OrderedUniverse.from_labels("abc")
    sets = (((0, 1), 4), ((1, 0), 9), ((1, 2), 1))
    fam_max = WeightedSetFamily(uni, 2, sets, "max")
    fam_min = WeightedSetFamily(uni, 2, sets, "min")
    assert dict(fam_max.sets)[(0, 1)] == 9
    assert dict(fam_min.sets)[(0, 1)] == 4
    assert len(fam_max) == len(fam_min) == 2


def test_reorder_identity_and_reversal():
    uni = OrderedUniverse.from_labels("abc")
    assert reorder_universe(uni, [0, 1, 2]).rank == uni.rank
    rev = reorder_universe(uni, [2, 1, 0])
    assert rev.rank == (2, 1, 0)


def test_reorder_block_rule():
    # pieces {c, d} then the rest {a, b} -> order c, d, a, b
    uni = OrderedUniverse.from_labels("abcd")
    from fptmix.core import block_permutation

    perm = block_permutation(uni, [(2, 3)])
    out = reorder_universe(uni, perm)
    assert [out.elements[i] for i in out.by_rank()] == ["c", "d", "a", "b"]


def test_reorder_not_permutation():
    uni = OrderedUniverse.from_labels("ab")
    with pytest.raises(InstanceError):
        reorder_universe(uni, [0, 0])


@given(st.permutations(range(6)))
def test_reorder_compose_inverse_is_identity(perm):
    uni = OrderedUniverse.from_labels([f"e{i}" for i in range(6)])
    inverse = [0] * 6
    for i, p in enumerate(perm):
        inverse[p] = i
    back = reorder_universe(reorder_universe(uni, perm), inverse)
    assert back.rank == uni.rank


@given(st.lists(st.tuples(st.sets(st.integers(0, 5), min_size=2, max_size=2),
                          st.integers(-50, 50)), max_size=12))
def test_dedup_keeps_extremal(groups):
    uni = OrderedUniverse.from_labels([f"e{i}" for i in range(6)])
    sets = tuple((tuple(sorted(s)), w) for s, w in groups)
    for objective, pick in (("max", max), ("min", min)):
        fam = WeightedSetFamily(uni, 2, sets, objective)
        stored = dict(fam.sets)
        assert len(stored) == len(fam.sets)  # pairwise distinct members
        for members, weight in stored.items():
            expected = pick(w for m, w in sets if m == members)
            assert weight == expected


def test_budget_raises_once_more_than_its_limit_is_charged():
    spent = Budget(3, "widgets")
    spent.charge()
    spent.charge(2)
    spent.charge(0)
    with pytest.raises(BudgetExceededError, match="^more than 3 widgets$"):
        spent.charge()
    below = Budget(-2, "widgets")  # allows what a limit of 0 does
    below.charge(0)
    with pytest.raises(BudgetExceededError, match="^more than -2 widgets$"):
        below.charge()
