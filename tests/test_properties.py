"""Randomized invariant checks (hypothesis, derandomized).

Four suites, each budgeted at 1000 generated cases:

  1. bilinear decomposition of cross-correlations over a deeper restriction,
  2. autocorrelation values against a direct float oracle + conjugate symmetry,
  3. the restricted sequences of a variable set partition the full sequence,
  4. the PMEPR grid estimate is sandwiched between 1 and the
     autocorrelation upper bound, and grows with grid refinement.

A counter records how many cases each suite actually executed; the final
test pins the totals so a silently-shrunk search would fail loudly.

A fifth suite checks the FFT correlation core against the exact shift loop.
"""

from collections import Counter

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from cskit import (
    CycloValue,
    GbfPoly,
    PolyphaseSeq,
    Restriction,
    aacf,
    cross_corr,
    cyclo_sum,
    pmepr,
    pmepr_autocorr_bound,
    psi,
    psi_restricted,
    set_aacf,
)
from cskit.correlation import _corr_coeff_matrix, _fft_coeffs

CASES = Counter()

COMMON = settings(max_examples=1000, deadline=None, derandomize=True)


def random_gbf(draw, q, m, max_terms=10):
    n_terms = draw(st.integers(0, max_terms))
    terms = [
        (draw(st.integers(0, (1 << m) - 1)), draw(st.integers(0, q - 1)))
        for _ in range(n_terms)
    ]
    return GbfPoly.from_terms(q, m, terms)


@st.composite
def gbf_pair_with_split(draw):
    """Two polynomials plus two disjoint restricted index sets."""
    q = draw(st.sampled_from([2, 4, 8]))
    m = draw(st.integers(2, 5))
    f = random_gbf(draw, q, m)
    g = random_gbf(draw, q, m)
    indices = draw(st.permutations(range(m)))
    k1 = draw(st.integers(0, min(2, m - 1)))
    k2 = draw(st.integers(1, min(2, m - k1)))
    return f, g, sorted(indices[:k1]), sorted(indices[k1 : k1 + k2])


@st.composite
def raw_seq(draw, max_m=8):
    q = draw(st.sampled_from([2, 4, 8, 16]))
    m = draw(st.integers(1, max_m))
    phases = draw(
        st.lists(st.integers(0, q - 1), min_size=1 << m, max_size=1 << m)
    )
    return PolyphaseSeq(q, phases)


@st.composite
def gbf_with_restriction(draw):
    q = draw(st.sampled_from([2, 4, 8]))
    m = draw(st.integers(1, 8))
    f = random_gbf(draw, q, m, max_terms=8)
    k = draw(st.integers(1, min(3, m)))
    restricted = sorted(draw(st.permutations(range(m)))[:k])
    return f, restricted


@COMMON
@given(gbf_pair_with_split())
def test_cross_corr_decomposes_over_restrictions(case):
    """Refining a restriction splits a cross-correlation into the double sum
    of the cross-correlations of all refined pieces, exactly."""
    CASES["decomposition"] += 1
    f, g, outer, inner = case
    q = f.q
    outer_words = range(1 << len(outer))
    inner_words = range(1 << len(inner))
    def deepen(base: Restriction, word: int) -> Restriction:
        extra = Restriction.assign(inner, word)
        return Restriction.from_pairs(list(base.pairs()) + list(extra.pairs()))

    for c in outer_words:
        d = (c * 7 + 1) % (1 << len(outer)) if outer else 0
        ra, rb = Restriction.assign(outer, c), Restriction.assign(outer, d)
        whole = cross_corr(psi_restricted(f, ra), psi_restricted(g, rb))
        pieces = []
        for c2 in inner_words:
            pieces.append(
                [
                    cross_corr(
                        psi_restricted(f, deepen(ra, c2)),
                        psi_restricted(g, deepen(rb, d2)),
                    )
                    for d2 in inner_words
                ]
            )
        for tau in range(whole.L):
            total = cyclo_sum(
                q, (row[j].at(tau) for row in pieces for j in range(len(inner_words)))
            )
            assert total == whole.at(tau)


@COMMON
@given(raw_seq())
def test_aacf_matches_float_oracle_and_symmetry(a):
    CASES["oracle"] += 1
    vec = aacf(a)
    vals = a.complex_values()
    L = len(a)
    for tau in range(L):
        oracle = np.sum(vals[tau:] * np.conj(vals[: L - tau]))
        assert abs(complex(vec.at(tau)) - oracle) < 1e-7 * max(1.0, abs(oracle))
        assert vec.at(-tau) == vec.at(tau).conj()


@COMMON
@given(gbf_with_restriction())
def test_restrictions_partition_the_sequence(case):
    CASES["partition"] += 1
    f, restricted = case
    full = psi(f)
    masks = []
    accum = np.zeros(1 << f.m, dtype=complex)
    for word in range(1 << len(restricted)):
        piece = psi_restricted(f, Restriction.assign(restricted, word))
        masks.append(piece.mask)
        accum += piece.complex_values()
        # surviving entries agree with the unrestricted sequence
        assert np.array_equal(piece.phases[piece.mask], full.phases[piece.mask])
    stacked = np.array(masks)
    assert (stacked.sum(axis=0) == 1).all()  # each position in exactly one piece
    np.testing.assert_allclose(accum, full.complex_values(), atol=1e-12)


@COMMON
@given(raw_seq(max_m=6))
def test_pmepr_sandwich_and_refinement(a):
    CASES["sandwich"] += 1
    coarse = pmepr(a, oversample=4)
    fine = pmepr(a, oversample=8)
    bound = pmepr_autocorr_bound(a)
    assert coarse >= 1.0 - 1e-9
    assert fine >= coarse - 1e-12  # the coarse grid is a subset of the fine one
    assert fine <= bound + 1e-9


@st.composite
def masked_set(draw):
    """One to eight masked sequences sharing a modulus and a length."""
    q = draw(st.sampled_from([2, 4, 8, 16]))
    L = draw(st.integers(1, 80))
    n = draw(st.integers(1, 8))
    seqs = []
    for _ in range(n):
        phases = draw(arrays(np.int64, L, elements=st.integers(0, q - 1)))
        mask = draw(arrays(bool, L) | st.just(np.ones(L, dtype=bool)))
        seqs.append(PolyphaseSeq(q, phases, mask))
    return seqs


@settings(max_examples=400, deadline=None, derandomize=True)
@given(masked_set())
def test_fft_core_matches_the_shift_loop(seqs):
    """The FFT estimate is within the rounding margin of the exact matrices,
    and cross_corr, aacf and set_aacf return those matrices."""
    a, b = seqs[0], seqs[-1]
    q, L = a.q, len(a)
    autos = [_corr_coeff_matrix(s, s) for s in seqs]
    exact_set, exact_cross = sum(autos), _corr_coeff_matrix(a, b)
    assert np.abs(_fft_coeffs([(s, s) for s in seqs], q, L) - exact_set).max() < 0.25
    assert np.abs(_fft_coeffs([(a, b)], q, L) - exact_cross).max() < 0.25
    assert np.array_equal(set_aacf(seqs).coeffs, exact_set)
    assert np.array_equal(aacf(a).coeffs, autos[0])
    assert np.array_equal(cross_corr(a, b).coeffs, exact_cross)


def test_case_totals():
    assert CASES["decomposition"] >= 1000
    assert CASES["oracle"] >= 1000
    assert CASES["partition"] >= 1000
    assert CASES["sandwich"] >= 1000
