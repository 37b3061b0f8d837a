"""Correlation, PMEPR and distance checks against small hand-computable cases."""

import cmath
import math

import numpy as np
import pytest

from cskit import (
    EmptySequenceError,
    ModulusError,
    ParseError,
    aacf,
    aacf_report,
    cross_corr,
    envelope_power,
    euclid_sq_dist,
    is_cs,
    lee_dist,
    min_distances,
    parse_gbf,
    pmepr,
    pmepr_autocorr_bound,
    psi,
    read_sequences,
    set_aacf,
    set_report,
    write_sequences,
)
from cskit import correlation
from cskit.cyclo import CycloValue
from cskit.gbf import PolyphaseSeq


def naive_cross(a, b, tau):
    """Float oracle: C(a,b)(tau) = sum_i a_{i+tau} * conj(b_i)."""
    va, vb = a.complex_values(), b.complex_values()
    return sum(va[i + tau] * vb[i].conjugate() for i in range(len(va) - tau))


def test_cross_corr_against_float_oracle():
    a = psi(parse_gbf("q=4;m=3; x0*x1 + 2*x2 + 1"))
    b = psi(parse_gbf("q=4;m=3; 2*x0*x2 + 3*x1"))
    X = cross_corr(a, b)
    for tau in range(8):
        assert cmath.isclose(complex(X.at(tau)), naive_cross(a, b, tau), abs_tol=1e-9)


def test_aacf_symmetry_and_peak():
    s = psi(parse_gbf("q=2;m=3; x0*x1 + x1*x2"))
    A = aacf(s)
    assert complex(A.at(0)) == pytest.approx(8.0)
    for tau in range(1, 8):
        assert cmath.isclose(complex(A.at(-tau)), complex(A.at(tau)).conjugate(), abs_tol=1e-12)


def test_golay_pair_is_cs():
    f = parse_gbf("q=2;m=3; x0*x1 + x1*x2")
    g = parse_gbf("q=2;m=3; x0*x1 + x1*x2 + x0")  # partner along endpoint x0
    pair = [psi(f), psi(g)]
    assert is_cs(pair)
    total = set_aacf(pair)
    assert complex(total.at(0)) == pytest.approx(16.0)
    assert total.offpeak_is_zero()


def test_not_cs_detected():
    f = parse_gbf("q=2;m=3; x0*x1")
    assert not is_cs([psi(f), psi(f)])


def test_masked_sequences_correlate():
    # restriction pieces of psi(f) sum to the full sequence, so their
    # cross-correlations add up to the full autocorrelation
    from cskit import Restriction, psi_restricted

    f = parse_gbf("q=4;m=3; 2*x0*x1 + x2")
    parts = [psi_restricted(f, Restriction.assign([1], c)) for c in (0, 1)]
    full = aacf(psi(f))
    for tau in range(1, 8):
        total = CycloValue.zero(4)
        for p1 in parts:
            for p2 in parts:
                total = total + cross_corr(p1, p2).at(tau)
        assert total == full.at(tau)


def test_pmepr_known_value():
    # single carrier: constant envelope, PMEPR exactly 1
    one = PolyphaseSeq(2, (0,))
    assert pmepr(one) == pytest.approx(1.0)
    # the all-ones sequence of length 4 peaks at t=0 with power 16 = 4 * L
    flat = PolyphaseSeq(2, (0, 0, 0, 0))
    assert pmepr(flat) == pytest.approx(4.0)


def test_pmepr_grid_below_bound():
    f = parse_gbf("q=4;m=4; 2*x0*x1 + 2*x1*x2 + 2*x2*x3 + x1 + 3")
    s = psi(f)
    grid = pmepr(s, oversample=64)
    bound = pmepr_autocorr_bound(s)
    assert 1.0 - 1e-12 <= grid <= bound + 1e-12
    # a path polynomial is one half of a complementary pair: bound 2
    assert grid <= 2.0 + 1e-9


def test_envelope_power_matches_grid():
    f = parse_gbf("q=2;m=3; x0*x1 + x1*x2 + x0")
    s = psi(f)
    n = 8
    for j in [0, 3, 17]:
        t = j / (16 * n)
        direct = abs(sum(v * cmath.exp(2j * cmath.pi * c * t) for c, v in enumerate(s.complex_values()))) ** 2
        assert envelope_power(s, t) == pytest.approx(direct, abs=1e-9)


def test_aacf_report_fields():
    s = psi(parse_gbf("q=2;m=2; x0*x1"))
    rep = aacf_report(s, oversample=32)
    assert rep["L"] == 4 and rep["q"] == 2
    assert rep["oversample"] == 32
    assert rep["pmepr_grid"] <= rep["pmepr_bound"] + 1e-12
    assert isinstance(rep["offpeak"], list)


def test_set_report():
    f = parse_gbf("q=2;m=3; x0*x1 + x1*x2")
    g = parse_gbf("q=2;m=3; x0*x1 + x1*x2 + x0")
    rep = set_report([psi(f), psi(g)])
    assert rep["is_cs"] is True and rep["n"] == 2


def test_distances():
    a = PolyphaseSeq(4, (0, 0, 0, 0))
    b = PolyphaseSeq(4, (1, 3, 2, 0))
    assert lee_dist(a, b) == 1 + 1 + 2 + 0
    want = sum(abs(cmath.exp(2j * cmath.pi * p / 4) - 1) ** 2 for p in (1, 3, 2, 0))
    assert euclid_sq_dist(a, b) == pytest.approx(want)


def test_min_distances_pairwise():
    seqs = [PolyphaseSeq(2, p) for p in [(0, 0, 0, 0), (0, 1, 0, 1), (0, 0, 1, 1)]]
    d_lee, d_euc = min_distances(seqs)
    assert d_lee == 2 and d_euc == pytest.approx(8.0)
    with pytest.raises(ValueError):
        min_distances(seqs[:1])


def test_sequence_file_roundtrip():
    f = parse_gbf("q=4;m=3; 2*x0*x1 + x2")
    g = parse_gbf("q=4;m=3; 2*x0*x1 + 3")
    text = write_sequences([psi(f), psi(g)], header=("two sequences",))
    assert text.startswith("# two sequences")
    back = read_sequences(text, 4)
    assert back == [psi(f), psi(g)]


def test_read_sequences_column_format():
    # a file of one-symbol lines is a single sequence written column-wise
    text = "0\n1\n2\n3\n"
    seqs = read_sequences(text, 4)
    assert seqs == [PolyphaseSeq(4, (0, 1, 2, 3))]


def test_read_sequences_errors():
    with pytest.raises(ParseError):
        read_sequences("0 1 2\n0 1\n", 4)       # ragged lengths
    with pytest.raises(ParseError):
        read_sequences("0 1 5\n", 4)            # symbol out of range
    with pytest.raises(ParseError):
        read_sequences("# only comments\n", 4)  # no sequences at all


def _masked_set(q, L, n, seed):
    rng = np.random.default_rng(seed)
    return [PolyphaseSeq(q, rng.integers(0, q, L), rng.random(L) < 0.8) for _ in range(n)]


@pytest.fixture
def shift_loop_calls(monkeypatch):
    """Counts the calls of the exact shift loop."""
    calls = []
    loop = correlation._corr_coeff_matrix

    def counted(a, b):
        calls.append(len(a))
        return loop(a, b)

    monkeypatch.setattr(correlation, "_corr_coeff_matrix", counted)
    return calls


def test_fft_core_takes_no_fallback_when_proven(shift_loop_calls):
    seqs = _masked_set(8, 64, 5, seed=1)
    set_aacf(seqs)
    cross_corr(seqs[0], seqs[1])
    assert shift_loop_calls == []


def test_fft_core_falls_back_over_the_size_limit(monkeypatch, shift_loop_calls):
    seqs = _masked_set(8, 64, 5, seed=2)
    want = set_aacf(seqs)
    monkeypatch.setattr(correlation, "FFT_SIZE_LIMIT", 0)
    got = set_aacf(seqs)
    assert shift_loop_calls == [64] * 5
    assert got == want


@pytest.mark.parametrize(
    "entry, delta",
    [((3, 1), 0.3), ((0, 0), 1.0)],  # fails the rounding margin; rounds cleanly but breaks row 0
    ids=["rounding-margin", "row-0"],
)
def test_fft_core_falls_back_on_a_perturbed_estimate(monkeypatch, shift_loop_calls, entry, delta):
    seqs = _masked_set(4, 32, 3, seed=3)
    want = sum(correlation._corr_coeff_matrix(s, s) for s in seqs)
    shift_loop_calls.clear()
    estimate = correlation._fft_coeffs

    def perturbed(pairs, q, L):
        out = estimate(pairs, q, L)
        out[entry] += delta
        return out

    monkeypatch.setattr(correlation, "_fft_coeffs", perturbed)
    got = set_aacf(seqs)
    assert shift_loop_calls == [32] * 3
    assert np.array_equal(got.coeffs, want)


def _fft_error_bound(n, L, q):
    """The a-priori coefficient error bound B of the correlation module docstring."""
    u = 2.0**-53
    gamma4 = 4 * u / (1 - 4 * u)
    eta = u + gamma4 * (math.sqrt(2) + u)

    def eps(size):
        k = max(1, (size - 1).bit_length()) * eta
        return k / (1 - k)

    N = 1 << (2 * L - 2).bit_length()
    return 1.01 * n * L * (eps(N) * (math.sqrt(L) + 2) + eps(q // 2) + (n + 64) * u)


def test_fft_size_limit_meets_the_error_bound():
    limit = correlation.FFT_SIZE_LIMIT
    for log_l in range(limit.bit_length()):
        L = 1 << log_l
        assert _fft_error_bound(limit // L, L, 1 << 63) < 0.13
    assert _fft_error_bound(64, 1 << 12, 8) < 1e-6  # 64 sequences of length 2^12


def test_pmepr_all_masked_is_a_typed_error():
    dead = PolyphaseSeq(4, (0, 1, 2, 3), np.zeros(4, dtype=bool))
    with pytest.raises(EmptySequenceError):
        pmepr(dead)
    with pytest.raises(EmptySequenceError):
        pmepr_autocorr_bound(dead)
    assert issubclass(EmptySequenceError, ValueError)


def test_sequences_need_a_power_of_two_modulus():
    for q in (6, 12, 0, 1):
        with pytest.raises(ModulusError):
            PolyphaseSeq(q, (0, 1, 2, 3))
    with pytest.raises(ModulusError):
        read_sequences("0 1 2 3\n0 1 5 3\n", 6)
    assert issubclass(ModulusError, ValueError)
