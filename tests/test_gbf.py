import hashlib
import json
import random
import tracemalloc

import numpy as np
import pytest

from cskit import CycloValue, GbfPoly, ParseError, PolyphaseSeq, SizeLimitError, psi, psi_restricted
from cskit.gbf import MAX_VALUE_VECTOR_M, gbf_from_json, gbf_to_json, parse_gbf, render_gbf

from graphs_reference import restrict


def test_parse_render_roundtrip():
    text = "q=4;m=3; 2*x0*x1 + x1*x2 + 3*x0 + 1"
    f = parse_gbf(text)
    assert f.q == 4 and f.m == 3
    assert render_gbf(f) == "q=4;m=3; 2*x0*x1 + x1*x2 + 3*x0 + 1"
    assert parse_gbf(render_gbf(f)) == f


def test_parse_normalizes():
    # repeated variables collapse (x*x = x), repeated monomials add mod q
    f = parse_gbf("q=4;m=2; x0*x0 + 3*x0 + x1*x0*x1")
    assert f == parse_gbf("q=4;m=2; x0*x1 + 0*x0")
    assert f.coeff(0b01) == 0
    assert f.coeff(0b11) == 1


def test_parse_rejects():
    for bad in [
        "q=3;m=2; x0",          # odd modulus
        "q=4;m=2; x2",          # variable out of range
        "q=4;m=2; x0 *",        # dangling factor
        "q=4;m=2; 2x0",         # missing '*'
        "m=2; x0",              # missing q
        "q=4;m=2; x0 + + x1",
    ]:
        with pytest.raises(ParseError):
            parse_gbf(bad)


def test_zero_renders():
    assert render_gbf(GbfPoly(2, 3)) == "q=2;m=3; 0"
    assert not parse_gbf("q=2;m=3; 0").terms


def test_evaluation_lsb_first():
    # point index is read least-significant-bit-first: bit a of i is x_a
    f = parse_gbf("q=4;m=3; x0 + 2*x2")
    assert f(0b001) == 1    # x0=1
    assert f(0b100) == 2    # x2=1
    assert f(0b101) == 3
    assert f([1, 0, 1]) == 3


def test_value_vector_matches_pointwise():
    f = parse_gbf("q=8;m=4; 4*x0*x1 + 2*x1*x2*x3 + x3 + 5")
    vec = f.value_vector()
    assert vec.shape == (16,)
    assert all(int(vec[i]) == f(i) for i in range(16))


def test_arithmetic():
    q, m = 4, 3
    f = parse_gbf("q=4;m=3; x0*x1 + 2*x2")
    g = parse_gbf("q=4;m=3; 3*x0*x1 + x2 + 1")
    assert (f + g) == parse_gbf("q=4;m=3; 3*x2 + 1")
    assert (2 * f) == parse_gbf("q=4;m=3; 2*x0*x1") == f * 2
    assert (f + 3) == parse_gbf("q=4;m=3; x0*x1 + 2*x2 + 3") == 3 + f
    assert all((f + g)(i) == (f(i) + g(i)) % q for i in range(1 << m))
    with pytest.raises(TypeError):
        f * g  # no polynomial product


def test_degree_and_support():
    f = parse_gbf("q=4;m=4; 2*x0*x1*x2 + x3 + 1")
    assert f.degree() == 3
    assert f.coeff(0) == 1
    assert f.linear_coeff(3) == 1
    assert f.linear_coeff(0) == 0
    assert f.support() == 0b1111  # bitmask of appearing variables
    assert GbfPoly(4, 2).degree() == 0


@pytest.mark.parametrize(
    "text,expected",
    [
        ("q=4;m=3; x0*x1", 2),          # odd coefficient, degree 2
        ("q=4;m=3; 2*x0*x1", 1),        # halved coefficient drops a level
        ("q=4;m=3; 2*x0*x1 + x2", 1),
        ("q=4;m=3; 2", -1),             # constant with even coefficient
        ("q=8;m=3; 4*x0*x1*x2", 1),     # 2^{h-1} * cubic: 3 - (h-1) = 1
        ("q=2;m=3; x0*x1*x2", 3),
        ("q=4;m=3; 0", 0),
    ],
)
def test_effective_degree(text, expected):
    assert parse_gbf(text).effective_degree() == expected


def test_restriction_assign_order():
    # bit a of the word goes to the a-th smallest index, in whatever order
    # the indices are given: 0b01 sets x1 = 1 and x4 = 0
    f = parse_gbf("q=4;m=5; x0*x4 + x1")
    live = [i for i in range(32) if (i >> 1) & 1 == 1 and (i >> 4) & 1 == 0]
    for restricted in ([4, 1], [1, 4], (np.int64(4), np.uint8(1))):
        assert np.flatnonzero(psi_restricted(f, restricted, 0b01).mask).tolist() == live


def test_restrict_preserves_indices():
    f = parse_gbf("q=4;m=4; x0*x1 + 2*x1*x2 + x3")
    g = restrict(f, [1], 1)
    # x1 = 1: x0*x1 -> x0, 2*x1*x2 -> 2*x2, x3 stays
    assert g == parse_gbf("q=4;m=4; x0 + 2*x2 + x3")


def test_psi_and_masking():
    f = parse_gbf("q=2;m=2; x0*x1")
    s = psi(f)
    assert s.is_full
    np.testing.assert_allclose(s.complex_values(), [1, 1, 1, -1])

    part = psi_restricted(f, [0], 1)
    np.testing.assert_allclose(part.complex_values(), [0, 1, 0, -1], atol=1e-12)


def test_json_roundtrip():
    f = parse_gbf("q=8;m=4; 4*x0*x1*x2*x3 + 2*x1 + 7")
    blob = gbf_to_json(f)
    assert gbf_from_json(blob) == f
    assert blob == {"q": 8, "m": 4, "text": render_gbf(f)}
    # terms fall in degree, highest first, for deterministic output
    degrees = [term.count("x") for term in blob["text"].split("; ", 1)[1].split(" + ")]
    assert degrees == sorted(degrees, reverse=True) == [4, 1, 0]


# sha256 of json.dumps(..., sort_keys=True) of gbf_to_json over the polynomials
# below, computed when members became their render_gbf text; it equals the
# earlier term-list export with each term list replaced by that text
GBF_JSON_DIGEST = "86fd6e2746c6e6498b6faee2da9811262cc5fbe3e2f738c1f5d96ec5347a5976"


def test_gbf_to_json_bytes_are_pinned():
    rng = random.Random(20261018)
    polys = [GbfPoly(4, 3), GbfPoly.from_terms(8, 2, {0: 5})]
    while len(polys) < 200:
        q = rng.choice([2, 4, 8, 16, 6])
        m = rng.randint(1, 9)
        terms = {rng.randrange(1 << m): rng.randrange(q) for _ in range(rng.randint(0, 3 * m))}
        polys.append(GbfPoly.from_terms(q, m, terms))
    blob = json.dumps([gbf_to_json(f) for f in polys], sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == GBF_JSON_DIGEST


@pytest.mark.parametrize("text", ["q=4;m=64; x0*x63 + 2*x1", f"q={2**71};m=70; {2**70 - 1}*x0*x69 + 5"])
def test_json_roundtrip_beyond_int64(text):
    # a mask on x63 or above, or a coefficient of 2^63 or more, fits no int64
    f = parse_gbf(text)
    blob = gbf_to_json(f)
    assert blob["text"] == text
    assert gbf_from_json(json.dumps(blob)) == f


def test_both_json_forms_roundtrip():
    rng = random.Random(20261019)
    polys = [GbfPoly(4, 64), parse_gbf(f"q={2**64};m=64; {2**63 + 3}*x0*x63 + {2**64 - 1}")]
    while len(polys) < 100:
        q = rng.choice([2, 4, 8, 6, 2**64, 2**70])
        m = rng.choice([1, 3, 9, 63, 64, 70])
        terms = {rng.randrange(1 << m): rng.randrange(q) for _ in range(rng.randint(0, 8))}
        polys.append(GbfPoly.from_terms(q, m, terms))
    for f in polys:
        blob = gbf_to_json(f)
        assert blob == {"q": f.q, "m": f.m, "text": render_gbf(f)}
        # the dict and its JSON text
        assert gbf_from_json(blob) == gbf_from_json(json.dumps(blob)) == f


@pytest.mark.parametrize(
    "obj",
    [
        {"q": 8, "m": 3, "text": "q=4;m=3; x0"},
        {"q": 4, "m": 4, "text": "q=4;m=3; x0"},
        {"q": 4, "m": 3, "text": "q=4;m=3; x3"},
        {"q": 4, "m": 3, "text": "q=4;m=3;"},
        {"q": 4, "m": 3, "text": "q=4;m=3; x0 ++ x1"},
        {"q": 4, "m": 3, "text": "x0 + x1"},
        {"q": 4, "m": 3, "text": 5},
        {"q": 4, "m": 3, "text": None},
    ],
)
def test_json_text_must_parse_and_agree_with_its_keys(obj):
    with pytest.raises(ParseError):
        gbf_from_json(obj)


def test_json_variable_count_must_be_a_plain_integer():
    for m in (True, 1.0):  # each equal to the text's m = 1
        with pytest.raises(ParseError):
            gbf_from_json({"q": 4, "m": m, "text": "q=4;m=1; x0"})


def test_json_without_text_is_refused():
    # the term-list form written before the text form is read no more
    with pytest.raises(ParseError, match="malformed polynomial object"):
        gbf_from_json({"q": 4, "m": 3, "terms": [{"vars": [0], "coeff": 1}]})


@pytest.mark.parametrize("m", [MAX_VALUE_VECTOR_M + 1, 64])
def test_value_vector_size_limit_refuses_before_allocating(m):
    # parsing and algebra stay symbolic; only the 2^m-entry vector is refused
    f = parse_gbf(f"q=4;m={m}; x0*x{m - 1} + 2*x1")
    assert f(0b11) == 2
    tracemalloc.start()
    try:
        for build in (f.value_vector, lambda: psi(f), lambda: psi_restricted(f, [0], 1)):
            with pytest.raises(SizeLimitError):
                build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("q", [1 << (MAX_VALUE_VECTOR_M + 1), 1 << 40])
def test_modulus_size_limit_refuses_before_allocating(q):
    # a q-entry root table and q/2 coordinates are dense arrays: q = 2^40
    # asked for 2 TiB; the polynomial itself stays symbolic
    f = parse_gbf(f"q={q};m=2; {q // 2}*x0*x1 + 1")
    assert f(0b11) == q // 2 + 1 and f * 2 == parse_gbf(f"q={q};m=2; 2")
    tracemalloc.start()
    try:
        for build in (lambda: PolyphaseSeq(q, [0]), lambda: CycloValue(q, ()), lambda: psi(f), lambda: psi_restricted(f, [0], 1)):
            with pytest.raises(SizeLimitError, match=f"q={q} exceeds the modulus limit of 2\\^{MAX_VALUE_VECTOR_M}"):
                build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_modulus_at_the_size_limit_is_accepted():
    q = 1 << MAX_VALUE_VECTOR_M
    seq = psi(parse_gbf(f"q={q};m=2; {q - 1}*x0 + 3"))
    assert seq == PolyphaseSeq(q, [3, 2, 3, 2]) and seq.q == q


def test_bool_factor_is_refused_like_a_bool_term():
    # True was read as the factor 1, while f + True was refused
    f = parse_gbf("q=4;m=2; x0*x1 + 1")
    for call in (lambda: f + True, lambda: f * True, lambda: True * f, lambda: f * np.True_):
        with pytest.raises(ValueError, match="^coefficients must be integers, got True$"):
            call()
    assert f * np.int64(2) == np.int64(2) * f == f * 2 == parse_gbf("q=4;m=2; 2*x0*x1 + 2")
    with pytest.raises(TypeError):
        f * 2.0


def test_repr_is_the_parse_call():
    f = parse_gbf("q=4;m=2; x0*x1 + 3*x1")
    assert repr(f) == "parse_gbf('q=4;m=2; x0*x1 + 3*x1')"
    assert eval(repr(f)) == f


def test_complex_values_are_pinned():
    # sha256 over complex_values() for q = 2 .. 2^24, computed when every call
    # built a table of all q roots; entries evaluated one by one, where q
    # exceeds the length, give the same bits
    rng = np.random.default_rng(2526)
    digest = hashlib.sha256()
    for h in (1, 2, 3, 4, 8, 12, 16, 20, 24):
        for L in (1, 5, 64, 1000, 4096):
            mask = rng.random(L) < 0.7
            seq = PolyphaseSeq(1 << h, rng.integers(0, 1 << h, L), mask if L % 2 else None)
            digest.update(seq.complex_values().tobytes())
    assert digest.hexdigest() == "523d4363d3dc6c8a4687aa39cad45e8de448bdb149d517c869645450b16e7b15"
