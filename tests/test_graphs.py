"""Restriction graphs and their shapes, read through ``analyze``: each
graph is a path, a path plus one isolated vertex, or refused."""

import pytest

from cskit import GraphShapeError, analyze, parse_gbf
from cskit.errors import DegreeError


def test_graph_of_unrestricted():
    # the unrestricted graph: edges 0-1 and 1-2 of weight q/2 = 2 (the middle
    # vertex 1 of degree 2), and x3 alone with its linear term g_l = 1
    f = parse_gbf("q=4;m=4; 2*x0*x1 + 2*x1*x2 + x3")
    prof = analyze(f, [])
    assert prof.restricted == () and prof.path_words == ()
    (g,) = prof.groups
    assert (g.l, g.members, g.g_l, g.l_values) == (3, (0,), 1, (0,))
    assert prof.endpoints == ((0, 2),)


def test_graph_respects_cancellation():
    # x0=1 turns 2*x0*x2*x3 into 2*x2*x3, which cancels the standing 2*x2*x3:
    # word 0 is the path 1-2-3, word 1 the edge 1-2 with x3 isolated
    f = parse_gbf("q=4;m=4; 2*x0*x2*x3 + 2*x2*x3 + 2*x1*x2")
    prof = analyze(f, [0])
    assert prof.path_words == (0,)
    assert [(g.l, g.members) for g in prof.groups] == [(3, (1,))]
    assert prof.endpoints == ((0, 3), (1, 2))


def test_graph_rejects_surviving_cubics():
    # x0=0 leaves the edge 1-2 beside the isolated x3; x0=1 adds the cubic x1*x2*x3
    f = parse_gbf("q=2;m=4; x0*x1*x2*x3 + x1*x2")
    with pytest.raises(DegreeError, match=r"^restriction 1: term of degree 3 on variables \[1, 2, 3\] survives the restriction"):
        analyze(f, [0])


def test_classify_path():
    f = parse_gbf("q=4;m=4; 2*x0*x1 + 2*x1*x3 + 2*x3*x2")
    prof = analyze(f, [])
    assert prof.path_words == (0,) and prof.all_paths
    assert prof.endpoints == ((0, 2),)  # the path 0-1-3-2 ends at 0 and 2; the larger is the offset vertex


def test_classify_path_plus_isolated():
    f = parse_gbf("q=4;m=4; 2*x0*x1 + 2*x1*x2")
    prof = analyze(f, [])
    assert prof.path_words == () and not prof.all_paths
    (g,) = prof.groups
    assert g.l == 3 and g.members == (0,)


def test_classify_other():
    star = "q=4;m=4; 2*x0*x1 + 2*x0*x2 + 2*x0*x3"
    cycle = "q=4;m=3; 2*x0*x1 + 2*x1*x2 + 2*x0*x2"
    two_isolated = "q=4;m=4; 2*x0*x1"
    for text in (star, cycle, two_isolated):
        with pytest.raises(GraphShapeError, match=r"^restriction \(empty\) is neither a path nor a path plus one isolated vertex$"):
            analyze(parse_gbf(text), [])


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
    # x3 couples to the restricted variable x0 with weight 2: at x0=1 the
    # coupling adds 2 on top of the global linear term, at x0=0 nothing
    f = parse_gbf("q=4;m=4; 2*x0*x1 + 2*x1*x2 + 2*x0*x3 + x3")
    (g,) = analyze(f, [0]).groups
    assert (g.l, g.members, g.g_l, g.l_values) == (3, (0, 1), 1, (0, 2))


def test_profile_json():
    f = parse_gbf("q=2;m=4; x0*x1*x3 + x0*x2*x3 + x0*x1*x2 + x1*x2")
    blob = analyze(f, [0]).to_json()
    assert blob["k"] == 1 and blob["M"] == 1
    assert blob["groups"][0]["isolated"] == 3
    assert blob["groups"][0]["words"] == ["0"]
    assert blob["endpoints"] == {"0": 2, "1": 2}
    assert blob["balanced"] is False
