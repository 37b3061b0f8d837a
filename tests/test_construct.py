"""Construction-level checks: set sizes, orderings, predictions, verifications."""

import hashlib
import itertools
import json

import pytest

from cskit import (
    BalanceError,
    GraphShapeError,
    ModulusError,
    ParseError,
    PolyphaseSeq,
    SizeLimitError,
    analyze,
    balanced_cs,
    cs_to_text,
    doubled_cs,
    golay_pair,
    is_cs,
    offset_set,
    parse_gbf,
    path_restriction_cs,
    pmepr,
    psi,
    random_qualifying_gbf,
    read_sequences,
    set_aacf,
    standard_golay_gbfs,
)
from cskit.codebook import _indicator_anf
from cskit import gbf
from cskit.gbf import GbfPoly, render_gbf

import construct_reference as reference
from test_acceptance import SHAPE_MIXES


def test_indicator_poly():
    # the indicator ANF the constructions sum, here (1 - x0) * x2
    ind = GbfPoly.from_terms(4, 3, _indicator_anf([0, 2], [0b10], 4))
    for i in range(8):
        want = 1 if (i & 1) == 0 and (i >> 2) & 1 else 0
        assert ind(i) == want
    assert ind == reference.indicator_poly(4, 3, [0, 2], 0b10)


def test_path_quadratic():
    f = reference.path_quadratic(4, 4, (2, 0, 3, 1), 2)
    assert f == parse_gbf("q=4;m=4; 2*x0*x2 + 2*x0*x3 + 2*x1*x3")


def test_offset_set_member_order():
    # members walk the offsets lexicographically: endpoint bit outermost,
    # then the restricted word
    f = parse_gbf("q=2;m=4; x0*x1*x3 + x0*x2*x3 + x0*x1*x2 + x1*x2")
    cand = offset_set(f, restricted=[0])
    assert cand.size == 4
    x0 = GbfPoly.variable(2, 4, 0)
    x2 = GbfPoly.variable(2, 4, 2)
    assert cand.members == (f, f + x0, f + x2, f + x0 + x2)


def test_offset_set_prediction_is_exact():
    # both words reduce to the path x1-x2-x3 with x4 isolated
    f = parse_gbf("q=4;m=5; 2*x1*x2 + 2*x2*x3 + 2*x0*x4 + x1 + 2*x3 + 3")
    cand = offset_set(f, restricted=[0])
    measured = set_aacf(cand.sequences())
    assert measured.values == cand.predicted.values


def test_balanced_cs():
    # two restrictions isolate x4 with coupling surpluses 0 and q/2
    f = parse_gbf("q=4;m=5; 2*x0*x1*x2 + 2*x0*x1*x3 + 2*x1*x3 + 2*x2*x3 + 2*x0*x4 + x1 + 2*x2 + 2*x3 + 2*x4 + 3")
    cand = balanced_cs(f, restricted=[0])
    assert cand.size == 4 and cand.pmepr_bound == 4.0
    assert is_cs(cand.sequences())
    assert max(pmepr(s) for s in cand.sequences()) <= 4.0 + 1e-6


def test_balanced_cs_rejects_unbalanced():
    f = parse_gbf("q=2;m=4; x0*x1*x3 + x0*x2*x3 + x0*x1*x2 + x1*x2")
    with pytest.raises(BalanceError):
        balanced_cs(f, restricted=[0])


def test_doubled_cs():
    f = parse_gbf("q=2;m=4; x0*x1*x3 + x0*x2*x3 + x0*x1*x2 + x1*x2")
    cand = doubled_cs(f, restricted=[0])
    assert cand.size == 8                      # 2^{k+2}
    assert cand.pmepr_bound == 6.0             # 2^{k+2} - 2M with M=1
    assert is_cs(cand.sequences())
    assert max(pmepr(s) for s in cand.sequences()) <= 6.0 + 1e-6


def test_golay_pair_and_candidate():
    f = parse_gbf("q=4;m=3; 2*x0*x1 + 2*x1*x2 + x0 + 3")
    a, b = golay_pair(f)
    assert a == f
    assert b == f + GbfPoly.monomial(4, 3, [2]) * 2
    assert is_cs([psi(a), psi(b)])
    cand = path_restriction_cs(f)
    assert cand.size == 2 and cand.pmepr_bound == 2.0 and cand.provenance == "golay"
    assert cand.members == golay_pair(f)
    assert set_aacf(cand.sequences()).values == cand.predicted.values


def test_golay_pair_needs_path():
    with pytest.raises(GraphShapeError):
        golay_pair(parse_gbf("q=2;m=4; x0*x1"))


def test_standard_golay_count_small():
    polys = list(standard_golay_gbfs(2, 1))
    assert len(polys) == 1 * 2**3              # (2!/2) * q^{m+1}
    assert len({p.terms for p in polys}) == len(polys)
    for p in polys:
        assert is_cs([psi(a) for a in golay_pair(p)])


def test_quadratic_cs():
    # a quadratic is one more all-paths input: deleting x0 leaves paths for both words
    f = parse_gbf("q=2;m=4; x0*x1 + x1*x2 + x2*x3 + x0*x2")
    cand = path_restriction_cs(f, restricted=[0])
    assert cand.size == 4 and cand.pmepr_bound == 4.0
    assert cand.provenance == "path-restriction"
    assert is_cs(cand.sequences())


def test_path_restriction_cs_any_degree():
    # three words keep the path 2-3-4; the (1,1) word flips to the path 3-4-2
    f = parse_gbf("q=2;m=5; x0*x1*x2*x3 + x0*x1*x2*x4 + x2*x3 + x3*x4")
    cand = path_restriction_cs(f, restricted=[0, 1])
    assert cand.size == 8 and cand.pmepr_bound == 8.0
    assert cand.provenance == "path-restriction"
    assert is_cs(cand.sequences())
    assert max(pmepr(s) for s in cand.sequences()) <= 8.0 + 1e-6


def test_path_restriction_cs_rejects_isolated_vertex():
    # x4 is isolated under both words of x0
    f = parse_gbf("q=4;m=5; 2*x1*x2 + 2*x2*x3 + 2*x0*x4 + x1 + 2*x3 + 3")
    with pytest.raises(GraphShapeError):
        path_restriction_cs(f, restricted=[0])


@pytest.mark.parametrize(
    "m,k,q,groups,balanced",
    [
        (4, 0, 2, (), False),
        (5, 1, 2, (), False),
        (5, 1, 4, (1,), False),
        (5, 1, 4, (2,), True),
        (6, 2, 2, (2, 2), False),
        (6, 2, 4, (4,), True),
        (7, 2, 4, (1, 2), False),
    ],
)
def test_random_qualifying_shapes(m, k, q, groups, balanced):
    f, restricted = random_qualifying_gbf(m, k, q, group_sizes=groups, balanced=balanced, seed=123)
    assert len(restricted) == k
    prof = analyze(f, restricted)
    assert sorted(prof.group_sizes) == sorted(groups)
    if balanced:
        assert prof.is_balanced()


def test_random_is_reproducible():
    a1 = random_qualifying_gbf(6, 2, 4, group_sizes=(2,), seed=99)
    a2 = random_qualifying_gbf(6, 2, 4, group_sizes=(2,), seed=99)
    b = random_qualifying_gbf(6, 2, 4, group_sizes=(2,), seed=100)
    assert a1 == a2
    assert a1 != b


def test_cs_text_roundtrip():
    f = parse_gbf("q=2;m=4; x0*x1*x3 + x0*x2*x3 + x0*x1*x2 + x1*x2")
    cand = doubled_cs(f, restricted=[0])
    text = cs_to_text(cand)
    assert text.splitlines()[0] == "# CS q=2 m=4 size=8 bound=6 provenance=doubled"
    assert read_sequences(text) == read_sequences(text, 2) == cand.sequences()


@pytest.mark.parametrize(
    "header, error",
    [
        pytest.param("# CS q=x", "bad header value 'q=x'", id="# CS q=x"),
        # the reader takes only q from the header; the bound is left to its reader
        pytest.param("# CS q=4 bound=four", None, id="# CS q=4 bound=four"),
    ],
)
def test_cs_header_values_are_parsed_or_refused(header, error):
    text = f"{header}\n0 1 2 3\n"
    if error is None:
        assert read_sequences(text) == [PolyphaseSeq(4, [0, 1, 2, 3])]
    else:
        with pytest.raises(ParseError, match=error):
            read_sequences(text)


def test_header_modulus_rules():
    # the last q= of the first '# CS' header before any sequence; explicit q wins
    assert read_sequences("\n## other\n#CS m=2 q=2 q=4\n# CS q=8\n0 3\n")[0].q == 4
    assert read_sequences("# CS q=x\n0 1\n", 2)[0].q == 2
    for text in ("0 1\n# CS q=4\n", "# CS m=2\n# CS q=4\n0 1\n", "#CSq=4\n0 1\n", ""):
        with pytest.raises(ParseError, match="^cannot determine the modulus: pass --q or use a file with a 'CS q=..' header$"):
            read_sequences(text)


@pytest.mark.parametrize("build", [offset_set, balanced_cs, doubled_cs, path_restriction_cs])
def test_builders_refuse_non_power_of_two_modulus(build):
    # the rows are reduced with & (q-1), so q = 6 is refused before analysis
    with pytest.raises(ModulusError):
        build(parse_gbf("q=6;m=3; 3*x0*x1 + 3*x1*x2"), restricted=[])


@pytest.mark.parametrize("build", [offset_set, balanced_cs, doubled_cs, path_restriction_cs])
def test_builders_refuse_a_modulus_above_the_limit(build):
    # the prediction's rows are q/2 wide: q = 2^30 asked for 16 GiB at m = 2
    with pytest.raises(SizeLimitError, match="q=1073741824 exceeds the modulus limit of 2\\^24"):
        build(parse_gbf("q=1073741824;m=2; 536870912*x0*x1"), restricted=[])



@pytest.mark.parametrize("build", [offset_set, balanced_cs, doubled_cs, path_restriction_cs])
def test_builders_hold_the_prediction_to_the_byte_budget(build, monkeypatch):
    # the prediction is 2^m rows of q/2 int64: 4 q 2^m = 128 bytes here
    f = parse_gbf("q=4;m=3; 2*x0*x1 + 2*x1*x2")
    monkeypatch.setattr(gbf, "MAX_PRODUCT_BYTES", 128)
    assert build(f, restricted=[]).predicted.coeffs.nbytes == 128
    monkeypatch.setattr(gbf, "MAX_PRODUCT_BYTES", 127)
    with pytest.raises(SizeLimitError, match="^the prediction at q=4, m=3 would take 128 bytes, above the budget of 127 bytes$"):
        build(f, restricted=[])


# sha256 of json.dumps(to_json()) and of cs_to_text.  The text digests date
# from before the coefficient-row family core; the JSON digests from when
# members became their render_gbf text, and equal the earlier export with
# each member's term list replaced by that text
GOLDEN = [
    (
        offset_set, (7, 2, 4, (3,), False, 11), 8,
        "4df0f8673aff3f166cbe286339126d97c9a52d5280dfa4994c44f54073b65966",
        "7af9438993ab60aadd39b4157e692337d63e2ea9db7d94f52ec9a14c8058faa8",
    ),
    (
        balanced_cs, (8, 3, 8, (2, 4), True, 12), 16,
        "673203080733ea5a1c6a9e611e6d0fe4b4578039bf53a7bad45769affb9f5c3a",
        "27cf899abb3f5b964f264d7ccc7d9406d7ed0abfadfd92cd0d9dc2e976fbe0ad",
    ),
    (
        doubled_cs, (9, 3, 2, (3, 1), False, 13), 32,
        "daa2a15b69f068201efd2a378a1487e23f92a56e0f5b47e2a5d0f9fb3c6bb612",
        "89535228a34958c10988fcf611d0599051b0917a7a4c5f950fbe8852c5603d3a",
    ),
]


@pytest.mark.parametrize("build, shape, size, json_digest, text_digest", GOLDEN, ids=["offset", "balanced", "doubled"])
def test_export_bytes_are_pinned(build, shape, size, json_digest, text_digest):
    m, k, q, sizes, balanced, seed = shape
    f, restricted = random_qualifying_gbf(m, k, q, sizes, balanced=balanced, seed=seed)
    cand = build(f, restricted=restricted)
    assert cand.size == size
    assert hashlib.sha256(json.dumps(cand.to_json()).encode()).hexdigest() == json_digest
    assert hashlib.sha256(cs_to_text(cand).encode()).hexdigest() == text_digest


def criterion_2_instances():
    """The 210 (f, restricted) pairs that acceptance criterion 2 draws."""
    counters = {0: 0, 1: 0, 2: 0}
    for m, k, q in itertools.product(range(4, 9), range(3), (2, 4)):
        for seed in range(7):
            sizes = ()
            if m - k >= 3:
                sizes = SHAPE_MIXES[k][counters[k] % len(SHAPE_MIXES[k])]
                counters[k] += 1
            yield random_qualifying_gbf(m, k, q, group_sizes=sizes, balanced=False, seed=1000 * m + 100 * k + 10 * q + seed)


# families built from the 210 instances, and those with a column that
# several factors touch (only doubled families hold one here)
CRITERION_2_BUILT = {"offset_set": (210, 0), "balanced_cs": (91, 0), "doubled_cs": (210, 13), "path_restriction_cs": (79, 0)}


@pytest.mark.parametrize("build", [offset_set, balanced_cs, doubled_cs, path_restriction_cs])
def test_member_text_is_the_rendered_member(build):
    built = touched_twice = 0
    for f, restricted in criterion_2_instances():
        try:
            cand = build(f, restricted=restricted)
        except (BalanceError, GraphShapeError):
            continue
        members = cand.to_json()["members"]
        assert members == [{"q": g.q, "m": g.m, "text": render_gbf(g)} for g in cand.members]
        touched_twice += bool(((cand.factors[1:] != 0).sum(0) > 1).any())
        built += 1
    assert (built, touched_twice) == CRITERION_2_BUILT[build.__name__]
