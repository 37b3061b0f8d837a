import pytest

from cskit import GraphShapeError, MixedCouplingError, analyze, graph_of, l_value, parse_gbf
from cskit.gbf import Restriction
from cskit.graphs import classify
from cskit.errors import DegreeError


def test_graph_of_unrestricted():
    f = parse_gbf("q=4;m=4; 2*x0*x1 + 2*x1*x2 + x3")
    g = graph_of(f, Restriction.from_pairs([]))
    assert set(g.vertices) == {0, 1, 2, 3}
    assert {(u, v) for u, v, _ in g.edges} == {(0, 1), (1, 2)}
    assert g.weights() == {2}
    assert g.degree(1) == 2 and g.degree(3) == 0


def test_graph_respects_cancellation():
    # x0=1 turns 2*x0*x1*x2 into 2*x1*x2, which cancels the standing 2*x1*x2
    f = parse_gbf("q=4;m=3; 2*x0*x1*x2 + 2*x1*x2")
    g1 = graph_of(f, Restriction.assign([0], 1))
    assert not g1.edges
    g0 = graph_of(f, Restriction.assign([0], 0))
    assert {(u, v) for u, v, _ in g0.edges} == {(1, 2)}


def test_graph_rejects_surviving_cubics():
    f = parse_gbf("q=2;m=4; x1*x2*x3")
    with pytest.raises(DegreeError):
        graph_of(f, Restriction.assign([0], 0))


def test_classify_path():
    f = parse_gbf("q=4;m=4; 2*x0*x1 + 2*x1*x3 + 2*x3*x2")
    shape = classify(graph_of(f, Restriction.from_pairs([])))
    assert shape.kind == "path"
    assert shape.path in ((0, 1, 3, 2), (2, 3, 1, 0))
    assert shape.endpoints == (0, 2) or shape.endpoints == (2, 0)


def test_classify_path_plus_isolated():
    f = parse_gbf("q=4;m=4; 2*x0*x1 + 2*x1*x2")
    shape = classify(graph_of(f, Restriction.from_pairs([])))
    assert shape.kind == "path-plus-isolated"
    assert shape.isolated == 3


def test_classify_other():
    star = parse_gbf("q=4;m=4; 2*x0*x1 + 2*x0*x2 + 2*x0*x3")
    assert classify(graph_of(star, Restriction.from_pairs([]))).kind == "other"
    cycle = parse_gbf("q=4;m=3; 2*x0*x1 + 2*x1*x2 + 2*x0*x2")
    assert classify(graph_of(cycle, Restriction.from_pairs([]))).kind == "other"
    two_isolated = parse_gbf("q=4;m=4; 2*x0*x1")
    assert classify(graph_of(two_isolated, Restriction.from_pairs([]))).kind == "other"


def test_analyze_example_shape():
    # one restriction is a path, the other a path plus isolated vertex
    f = parse_gbf("q=2;m=4; x0*x1*x3 + x0*x2*x3 + x0*x1*x2 + x1*x2")
    prof = analyze(f, [0])
    assert prof.k == 1 and prof.M == 1
    assert prof.path_words == (1,)
    assert len(prof.groups) == 1
    g = prof.groups[0]
    assert g.l == 3 and g.members == (0,) and g.g_l == 0 and g.l_values == (0,)
    assert dict(prof.endpoints) == {0: 2, 1: 2}


def test_analyze_rejects_wrong_weights():
    f = parse_gbf("q=4;m=3; x0*x1 + x1*x2")  # weight 1, needs q/2 = 2
    with pytest.raises(GraphShapeError):
        analyze(f, [])


def test_analyze_rejects_bad_shape():
    star = parse_gbf("q=2;m=4; x0*x1 + x0*x2 + x0*x3")
    with pytest.raises(GraphShapeError):
        analyze(star, [])


def test_l_value_pure_coupling():
    # x3 couples to the restricted variable x0 with weight 2
    f = parse_gbf("q=4;m=4; 2*x0*x1 + 2*x1*x2 + 2*x0*x3 + x3")
    # at x0=1 the coupling contributes 2 on top of the global linear term
    assert l_value(f, 3, [0], 1) == 2
    assert l_value(f, 3, [0], 0) == 0


def test_l_value_mixed_coupling_rejected():
    # x3 sits in a surviving quadratic with an unrestricted variable
    f = parse_gbf("q=4;m=4; 2*x0*x1 + 2*x2*x3")
    with pytest.raises(MixedCouplingError):
        l_value(f, 3, [0], 0)


def test_profile_json():
    f = parse_gbf("q=2;m=4; x0*x1*x3 + x0*x2*x3 + x0*x1*x2 + x1*x2")
    blob = analyze(f, [0]).to_json()
    assert blob["k"] == 1 and blob["M"] == 1
    assert blob["groups"][0]["isolated"] == 3
    assert blob["groups"][0]["words"] == ["0"]
    assert blob["endpoints"] == {"0": 2, "1": 2}
    assert blob["balanced"] is False
