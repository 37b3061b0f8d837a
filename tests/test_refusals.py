"""Each input refusal, one case per ``raise``: the exact exception type.

A refusal that widens or narrows its type (say a ``ParseError`` that turns
into a bare ``ValueError``) changes what a caller can catch, so the type is
compared with ``is``, not with ``issubclass``.
"""

import json
from itertools import product

import numpy as np
import pytest

from cskit import (
    CycloValue,
    GbfPoly,
    ParseError,
    PolyphaseSeq,
    SizeLimitError,
    aacf,
    analyze,
    cross_corr,
    gbf_from_json,
    parse_gbf,
    path_restriction_cs,
    psi_restricted,
    random_qualifying_gbf,
    set_aacf,
)
from cskit.cli import main
from cskit.codebook import (
    count_codebook,
    enumerate_codebook,
    erm_min_distances,
    family_size,
    log2_coset_count,
    standard_golay_gbfs,
)
from cskit.correlation import read_sequences, write_sequences
from cskit.gbf import _word_text
from cskit.graphs import _analyze

PATH = parse_gbf("q=4;m=3; 2*x0*x1 + 2*x1*x2")
FULL = PolyphaseSeq(4, [0, 1, 2, 3])
MASKED = PolyphaseSeq(4, [0, 1, 2, 3], [True, False, True, True])
COUPLED = parse_gbf("q=4;m=4; 2*x0*x1 + 2*x1*x2 + 2*x0*x3 + x3")

REFUSALS = {
    # the polynomial domain (q, m)
    "gbf-odd-q": (lambda: GbfPoly(3, 2), ValueError),
    "gbf-zero-q": (lambda: GbfPoly(0, 2), ValueError),
    "gbf-float-q": (lambda: GbfPoly(4.0, 2), ValueError),
    "gbf-zero-m": (lambda: GbfPoly(4, 0), ValueError),
    "gbf-float-m": (lambda: GbfPoly(4, 2.0), ValueError),
    "from-terms-odd-q": (lambda: GbfPoly.from_terms(5, 2, {1: 1}), ValueError),
    "from-terms-zero-m": (lambda: GbfPoly.from_terms(4, 0, {}), ValueError),
    "family-size-odd-q": (lambda: family_size(6, 3, 4), ValueError),
    "parse-odd-q": (lambda: parse_gbf("q=3;m=2; x0"), ParseError),
    "parse-zero-q": (lambda: parse_gbf("q=0;m=2; x0"), ParseError),
    "parse-zero-m": (lambda: parse_gbf("q=4;m=0; 1"), ParseError),
    # integers are ASCII digits: str.isdigit accepts '²', which int() refuses,
    # and \d matches any Unicode decimal digit, so 'q=٤' read as q = 4
    "parse-superscript-coefficient": (lambda: parse_gbf("q=4;m=3; ²*x0"), ParseError),
    "parse-arabic-indic-head": (lambda: parse_gbf("q=٤;m=3; x0*x1"), ParseError),
    "parse-arabic-indic-variable": (lambda: parse_gbf("q=4;m=3; x٠*x1"), ParseError),
    "json-odd-q": (lambda: gbf_from_json({"q": 3, "m": 2, "text": "q=3;m=2; x0"}), ParseError),
    "json-string-q": (lambda: gbf_from_json({"q": "4", "m": 2, "text": "q=4;m=2; x0"}), ParseError),
    "json-zero-m": (lambda: gbf_from_json({"q": 4, "m": 0, "text": "q=4;m=0; 1"}), ParseError),
    "json-bool-m": (lambda: gbf_from_json({"q": 4, "m": True, "text": "q=4;m=1; 0"}), ParseError),
    # the term table and the variable indices
    "terms-unsorted": (lambda: GbfPoly(4, 2, ((2, 1), (1, 1))), ValueError),
    "terms-repeated": (lambda: GbfPoly(4, 2, ((1, 1), (1, 1))), ValueError),
    "terms-beyond-m": (lambda: GbfPoly(4, 2, ((4, 1),)), ValueError),
    "terms-zero-coeff": (lambda: GbfPoly(4, 2, ((1, 0),)), ValueError),
    "terms-coeff-q": (lambda: GbfPoly(4, 2, ((1, 4),)), ValueError),
    "variable-beyond-m": (lambda: GbfPoly.variable(4, 3, 3), ValueError),
    "variable-negative": (lambda: GbfPoly.variable(4, 3, -1), ValueError),
    "monomial-beyond-m": (lambda: GbfPoly.monomial(4, 3, [0, 5]), ValueError),
    "coset-count-k-not-below-m": (lambda: log2_coset_count(4, 4, 1, 1), ValueError),
    "r2-one-block": (lambda: count_codebook("R2", 6, 1, r=2, k=1, sizes=(2,)), ValueError),
    "r2-two-free-vertices": (lambda: count_codebook("R2", 4, 1, r=2, k=2, sizes=(2, 2)), ValueError),
    "golay-one-variable": (lambda: standard_golay_gbfs(1, 1), ValueError),
    "sum-mixed-domains": (lambda: GbfPoly.variable(4, 3, 0) + GbfPoly.variable(8, 3, 0), ValueError),
    "point-bits-not-0-1": (lambda: PATH((0, 2, 1)), ValueError),
    "point-beyond-2^m": (lambda: PATH(8), ValueError),
    "json-bad-text": (lambda: gbf_from_json("{"), ParseError),
    # restricted sequences: a word with more bits than restricted indices, a
    # repeated index, a negative one, a word that sets a bit to 2
    "restriction-lengths": (lambda: psi_restricted(PATH, [0, 1], 0b100), ValueError),
    "restriction-repeated": (lambda: psi_restricted(PATH, [1, 1], 0), ValueError),
    "restriction-negative": (lambda: psi_restricted(PATH, [-1], 0), ValueError),
    "restriction-bit": (lambda: psi_restricted(PATH, [0], 2), ValueError),
    "sequence-2d": (lambda: PolyphaseSeq(4, [[0, 1], [1, 0]]), ValueError),
    "sequence-mask-length": (lambda: PolyphaseSeq(4, [0, 1], [True]), ValueError),
    "sequence-modulus-beyond-limit": (lambda: PolyphaseSeq(1 << 25, [0]), SizeLimitError),
    # arrays of a modulus times a length: 2^m x q/2 and ceil(q/4) x 2L
    "prediction-above-budget": (lambda: path_restriction_cs(parse_gbf("q=1048576;m=10; " + " + ".join(f"524288*x{i}*x{i + 1}" for i in range(9)))), SizeLimitError),
    "spectra-above-budget": (lambda: aacf(PolyphaseSeq(1 << 24, [0] * 1024)), SizeLimitError),
    # correlation
    "aacf-empty-sequence": (lambda: aacf(PolyphaseSeq(4, [])), ValueError),
    "cross-mixed-moduli": (lambda: cross_corr(FULL, PolyphaseSeq(8, [0, 1, 2, 3])), ValueError),
    "cross-mixed-lengths": (lambda: cross_corr(FULL, PolyphaseSeq(4, [0, 1])), ValueError),
    "set-empty": (lambda: set_aacf([]), ValueError),
    "set-mixed-moduli": (lambda: set_aacf([FULL, PolyphaseSeq(8, [0, 1, 2, 3])]), ValueError),
    "set-mixed-lengths": (lambda: set_aacf([FULL, PolyphaseSeq(4, [0, 1])]), ValueError),
    "cyclo-coefficient-count": (lambda: CycloValue(4, (1,)), ValueError),
    # sequence and set files
    "read-non-integer": (lambda: read_sequences("0 1 x\n", 4), ParseError),
    "read-no-modulus": (lambda: read_sequences("0 1\n"), ParseError),
    "read-bad-header-modulus": (lambda: read_sequences("# CS q=4.0\n0 1\n"), ParseError),
    # int() read '٣' as 3, '1_0' as 10 and the header 'q=٤' as 4
    "read-arabic-indic-symbol": (lambda: read_sequences("٣ 0\n", 4), ParseError),
    "read-underscore-symbol": (lambda: read_sequences("1_0 0\n", 16), ParseError),
    "read-arabic-indic-header-modulus": (lambda: read_sequences("# CS q=٤\n0 1\n"), ParseError),
    "write-masked": (lambda: write_sequences([MASKED]), ValueError),
    # restriction profiles
    "analyze-repeated-index": (lambda: analyze(PATH, [0, 0]), ValueError),
    "analyze-index-beyond-m": (lambda: analyze(PATH, [3]), ValueError),
    "analyze-negative-index": (lambda: analyze(PATH, [-1]), ValueError),
    "analyze-every-variable": (lambda: analyze(PATH, [0, 1, 2]), ValueError),
    # random qualifying polynomials
    "random-k-not-below-m": (lambda: random_qualifying_gbf(4, 4, 4, seed=1), ValueError),
    "random-negative-k": (lambda: random_qualifying_gbf(4, -1, 4, seed=1), ValueError),
    "random-empty-group": (lambda: random_qualifying_gbf(6, 1, 4, (0,), seed=1), ValueError),
    "random-groups-exceed-2^k": (lambda: random_qualifying_gbf(6, 1, 4, (2, 1), seed=1), ValueError),
    "random-groups-need-3-free": (lambda: random_qualifying_gbf(4, 2, 4, (1,), seed=1), ValueError),
    "random-more-groups-than-vertices": (lambda: random_qualifying_gbf(5, 2, 4, (1, 1, 1, 1), seed=1), ValueError),
    "random-balanced-odd-group": (lambda: random_qualifying_gbf(6, 1, 4, (1,), balanced=True, seed=1), ValueError),
}


@pytest.mark.parametrize("call, error", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal_type(call, error):
    with pytest.raises(ValueError) as caught:
        call()
    assert caught.type is error


# Refusals that the domain rule added: each input was accepted before and
# gave a wrong or unreadable answer.
NEW_REFUSALS = {
    # render_gbf wrote 'q=4;m=True; x0', which parse_gbf refuses
    "gbf-bool-m": lambda: GbfPoly(4, True, ((1, 1),)),
    "from-terms-bool-m": lambda: GbfPoly.from_terms(4, True, {1: 1}),
}


@pytest.mark.parametrize("call", NEW_REFUSALS.values(), ids=NEW_REFUSALS.keys())
def test_refusal_of_a_drifted_copy(call):
    with pytest.raises(ValueError) as caught:
        call()
    assert caught.type is ValueError



# Refusals that the one restriction rule added: each input was accepted
# before and gave a wrong answer, a profile that would not serialize, or an
# untyped error.
RESTRICTION_REFUSALS = {
    # analyze: True was cached as the index 1 and written as JSON true
    "analyze-bool-index": lambda: analyze(COUPLED, [True]),
    "analyze-numpy-bool-index": lambda: analyze(COUPLED, [np.True_]),
    # a NumPy TypeError
    "analyze-float-index": lambda: analyze(COUPLED, [1.0]),
    "analyze-text-index": lambda: analyze(COUPLED, ["1"]),
    # only the low k bits of the word were kept
    "assign-word-beyond-2^k": lambda: psi_restricted(PATH, [0, 2], 4),
    "assign-negative-word": lambda: psi_restricted(PATH, [0], -1),
    "assign-word-no-variable": lambda: psi_restricted(PATH, [], 1),
    # no index was checked against m: x5 at m = 3 gave a sequence with every
    # position masked (bit 1) or none (bit 0)
    "restriction-index-beyond-m": lambda: psi_restricted(PATH, [5], 1),
    "restriction-index-beyond-m-bit-0": lambda: psi_restricted(PATH, [5], 0),
    "restriction-index-m": lambda: psi_restricted(PATH, [0, 3], 0),
}


@pytest.mark.parametrize("call", RESTRICTION_REFUSALS.values(), ids=RESTRICTION_REFUSALS.keys())
def test_refusal_of_a_bad_restriction(call):
    _analyze.cache_clear()
    analyze(COUPLED, [1])  # an equal key in the cache must not let a bad one through
    with pytest.raises(ValueError) as caught:
        call()
    assert caught.type is ValueError


@pytest.mark.parametrize("first", [np.int64(1), np.uint8(1), 1])
def test_analyze_keeps_restricted_indices_as_python_ints(first):
    """Whichever integer type is analyzed first, the cached profile holds
    Python ints and every later profile of the same index writes JSON."""
    _analyze.cache_clear()
    profiles = [analyze(COUPLED, [first]), analyze(COUPLED, [1]), analyze(COUPLED, np.array([1]))]
    for profile in profiles:
        assert profile.restricted == (1,) and type(profile.restricted[0]) is int
        assert json.loads(json.dumps(profile.to_json()))["restricted"] == [1]


@pytest.mark.parametrize(
    "call",
    [lambda: aacf(FULL).at(4), lambda: aacf(FULL).at(-4), lambda: cross_corr(FULL, FULL).at(-1)],
    ids=["aacf-shift-L", "aacf-shift-minus-L", "cross-negative-shift"],
)
def test_shift_outside_the_vector(call):
    with pytest.raises(IndexError) as caught:
        call()
    assert caught.type is IndexError


@pytest.mark.parametrize(
    "argv",
    [["analyze"], ["random", "-m", "6", "-k", "1", "--q", "4", "--seed", "1", "--groups", "1,x"]],
    ids=["analyze-no-polynomial", "random-groups-not-integers"],
)
def test_cli_refusal_exits_2(capsys, argv):
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and "ParseError" in out.err


# Refusals that the one integer rule (cskit.gbf._index) added: each input was
# accepted before and gave a wrong answer, or failed with an untyped error.
INTEGER_REFUSALS = {
    # a restricted sequence's word or index given as a bool (a NumPy one too)
    # or a float
    "restriction-bool-bit": lambda: psi_restricted(PATH, [0, 2], np.True_),
    "restriction-float-index": lambda: psi_restricted(PATH, (np.int64(0), 2.0), 1),
    "restriction-pairs-bool-bit": lambda: psi_restricted(PATH, [True], 0),
    # True was the word 1; 1.0 a bare TypeError
    "assign-bool-word": lambda: psi_restricted(PATH, [0], True),
    "assign-float-word": lambda: psi_restricted(PATH, [0], 1.0),
    # a bare TypeError
    "monomial-float-variable": lambda: GbfPoly.monomial(4, 3, [1.0]),
    # int(n) read 1.9 as 1: a polynomial with one group of 1, and the count of sizes (1, 1)
    "random-float-group-size": lambda: random_qualifying_gbf(6, 1, 4, (1.9,), seed=1),
    "r2-float-block-sizes": lambda: count_codebook("R2", 6, 1, r=2, k=1, sizes=(1.9, 1.2)),
    # True was read as r = 1; 1.0 a bare TypeError
    "erm-distance-bool-r": lambda: erm_min_distances(True, 3, 1),
    "erm-distance-float-r": lambda: erm_min_distances(1.0, 3, 1),
    "erm-distance-float-m": lambda: erm_min_distances(1, 3.0, 1),
    "erm-distance-bool-h": lambda: erm_min_distances(1, 3, True),
    # the enumerators read True as 1: 16 words of ERM(r=1, m=3, h=1) and of
    # A with k=1, 48 GOLAY words
    "erm-bool-h": lambda: count_codebook("ERM", 3, True, r=1),
    "erm-bool-r": lambda: count_codebook("ERM", 3, 1, r=True),
    "a-bool-k": lambda: enumerate_codebook("A", 3, 1, r=1, k=True),
    "golay-bool-h": lambda: count_codebook("GOLAY", 3, True),
    # bare TypeErrors
    "erm-float-r": lambda: count_codebook("ERM", 3, 1, r=1.0),
    "erm-float-m": lambda: enumerate_codebook("ERM", 3.0, 1, r=1),
    "a-float-k": lambda: count_codebook("A", 3, 1, r=1, k=1.0),
    "c4-float-r": lambda: count_codebook("C4", 4, 1, r=2.0),
}


@pytest.mark.parametrize("call", INTEGER_REFUSALS.values(), ids=INTEGER_REFUSALS.keys())
def test_refusal_of_a_non_integer(call):
    with pytest.raises(ValueError) as caught:
        call()
    assert caught.type is ValueError


def test_psi_restricted_reads_numpy_integers():
    want = psi_restricted(PATH, [0, 2], 1)  # x0 = 1, x2 = 0
    assert np.flatnonzero(want.mask).tolist() == [1, 3]
    assert psi_restricted(PATH, np.array([0, 2]), np.uint8(1)) == want
    assert psi_restricted(PATH, (np.int64(2), np.int32(0)), np.int64(1)) == want


def test_word_text_is_the_bits_smallest_index_first():
    for k in range(11):
        for w in range(1 << k):
            assert _word_text(w, k) == "".join(str((w >> a) & 1) for a in range(k))


# Refusals that reading coefficients, points and variable indices by the one
# integer rule added: each input was accepted before and gave a wrong or
# inexact answer, or failed with an untyped error.
EXACTNESS_REFUSALS = {
    # an "exact" value that held 0.5*w0, True*w0 or a*w0
    "cyclo-float-coefficient": lambda: CycloValue(4, (0.5, 0)),
    "cyclo-bool-coefficient": lambda: CycloValue(4, (True, 0)),
    "cyclo-text-coefficient": lambda: CycloValue(4, ("a", 0)),
    # int() truncated the fold 0.5 - 1.7 to -1
    "cyclo-float-counts": lambda: CycloValue.from_counts(4, [0.5, 0, 1.7, 0]),
    # bare TypeErrors: "'float' object is not iterable", a float shift
    "point-float": lambda: PATH(3.0),
    "point-float-bit": lambda: PATH((0, 1.0, 1)),
    # evaluated at the point 1, or at the bits (0, 1, 1)
    "point-bool": lambda: PATH(True),
    "point-bool-bit": lambda: PATH((0, True, 1)),
    # a bare TypeError, "negative shift count", and 0 for x5 at m = 3
    "linear-coeff-float": lambda: PATH.linear_coeff(1.0),
    "linear-coeff-negative": lambda: PATH.linear_coeff(-1),
    "linear-coeff-beyond-m": lambda: PATH.linear_coeff(5),
    # read as x1
    "linear-coeff-bool": lambda: PATH.linear_coeff(True),
    # "q=4;m=2; 1.5*x0", which parse_gbf refuses, with the value vector of x0
    "poly-float-coefficient": lambda: GbfPoly.from_terms(4, 2, {1: 1.5}),
    "poly-float-term": lambda: GbfPoly(4, 2, ((1, 1.5),)),
    "poly-float-constant": lambda: GbfPoly.from_terms(4, 2, {0: 1.5}),
    # read as the factor 1, while PATH + True was refused
    "poly-bool-factor": lambda: PATH * True,
    # a bare TypeError, and True read as the mask of x0
    "poly-float-mask": lambda: GbfPoly.from_terms(4, 2, {1.0: 1}),
    "poly-bool-mask": lambda: GbfPoly(4, 2, ((True, 1),)),
    # truncated to the phases [0 1], and read as 1 and 0
    "seq-float-phases": lambda: PolyphaseSeq(4, [0.5, 1.7]),
    "seq-bool-phases": lambda: PolyphaseSeq(4, [True, False]),
}


@pytest.mark.parametrize("call", EXACTNESS_REFUSALS.values(), ids=EXACTNESS_REFUSALS.keys())
def test_refusal_of_an_inexact_integer(call):
    with pytest.raises(ValueError) as caught:
        call()
    assert caught.type is ValueError


def test_numpy_integers_are_read_as_python_ints():
    """A NumPy integer point (a bare TypeError before) is the same point, a
    NumPy coefficient is held as a Python int, and a code given by NumPy
    integers has Python distances (NumPy ones before, which ``json.dumps``
    refuses), and the enumerators count and build the same words."""
    assert PATH(np.int64(3)) == PATH(3) == PATH(np.array([1, 1, 0])) == 2
    assert PATH.linear_coeff(np.uint8(2)) == PATH.linear_coeff(2)
    v = CycloValue(4, (np.int64(2), 0))
    assert type(v.coeffs[0]) is int and repr(v) == "<CycloValue q=4: 2*w0>"
    f = GbfPoly.from_terms(4, 2, {np.int64(1): np.uint8(3)})
    assert f.terms == ((1, 3),) and all(type(n) is int for n in f.terms[0])
    assert np.array_equal(PolyphaseSeq(4, np.array([5, 2], dtype=np.uint8)).phases, [1, 2])
    lee, euc = erm_min_distances(np.int64(1), np.uint8(3), np.int32(1))
    assert (lee, euc) == (4, 16.0) and type(lee) is int and type(euc) is float
    assert json.dumps([lee, euc]) == "[4, 16.0]"
    # the enumerators refused a NumPy m or k through the domain check
    assert count_codebook("ERM", np.int64(3), np.uint8(1), r=np.int64(1)) == count_codebook("ERM", 3, 1, r=1) == 16
    assert list(enumerate_codebook("ERM", np.int64(2), np.uint8(1), r=np.int64(1))) == list(enumerate_codebook("ERM", 2, 1, r=1))


# Refusals of a degenerate codebook domain, with the messages of the
# polynomial domain rule and of log2_coset_count.  Each input was accepted
# before: m = -1 counted the one word of an unparsable 'q=2;m=-1; 0', h = 0
# yielded q = 1 polynomials, and k outside [0, m) counted 16 words of A, 1 of
# A with k = -1, or failed with "negative shift count" or "list.remove(x)".
DOMAIN_REFUSALS = {
    "erm-negative-m": (lambda: count_codebook("ERM", -1, 1, r=1), "need at least one variable, got m=-1"),
    "erm-zero-m": (lambda: enumerate_codebook("ERM", 0, 1, r=1), "need at least one variable, got m=0"),
    "erm-zero-h": (lambda: enumerate_codebook("ERM", 3, 0, r=1), "modulus must be an even integer >= 2, got q=1"),
    "golay-negative-h": (lambda: count_codebook("GOLAY", 3, -1), "modulus must be an even integer >= 2, got q=0.5"),
    "a-k-equal-to-m": (lambda: count_codebook("A", 3, 1, r=1, k=3), "need 0 <= k < m, got k=3, m=3"),
    "a-negative-k": (lambda: count_codebook("A", 3, 1, r=1, k=-1), "need 0 <= k < m, got k=-1, m=3"),
    "a1-k-equal-to-m": (lambda: count_codebook("A1", 3, 1, r=1, k=3), "need 0 <= k < m, got k=3, m=3"),
    "r-negative-k": (lambda: count_codebook("R", 3, 1, r=1, k=-1), "need 0 <= k < m, got k=-1, m=3"),
    "r1-negative-k": (lambda: enumerate_codebook("R1", 5, 1, r=2, k=-1), "need 0 <= k < m, got k=-1, m=5"),
    "r2-negative-k": (lambda: count_codebook("R2", 6, 1, r=2, k=-1, sizes=(1, 1)), "need 0 <= k < m, got k=-1, m=6"),
}


@pytest.mark.parametrize("call, message", DOMAIN_REFUSALS.values(), ids=DOMAIN_REFUSALS.keys())
def test_refusal_of_a_degenerate_codebook_domain(call, message):
    with pytest.raises(ValueError) as caught:
        call()
    assert caught.type is ValueError and message in str(caught.value)
