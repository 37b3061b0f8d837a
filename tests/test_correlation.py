"""Correlation, PMEPR and sequence-file checks against small hand-computable cases."""

import cmath
import hashlib
import json
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from cskit import (
    EmptySequenceError,
    ModulusError,
    ParseError,
    SizeLimitError,
    aacf,
    aacf_report,
    cross_corr,
    is_cs,
    offset_set,
    parse_gbf,
    path_restriction_cs,
    pmepr,
    pmepr_autocorr_bound,
    psi,
    random_qualifying_gbf,
    read_sequences,
    set_aacf,
    set_report,
    write_sequences,
)
from cskit import correlation, cyclo, gbf
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
    from cskit import psi_restricted

    f = parse_gbf("q=4;m=3; 2*x0*x1 + x2")
    parts = [psi_restricted(f, [1], c) for c in (0, 1)]
    full = aacf(psi(f))
    total = sum(cross_corr(p1, p2).coeffs for p1 in parts for p2 in parts)
    assert np.array_equal(total, full.coeffs)


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


def test_aacf_report_fields():
    s = psi(parse_gbf("q=2;m=2; x0*x1"))
    rep = aacf_report(s, oversample=32)
    assert rep["L"] == 4 and rep["q"] == 2
    assert rep["oversample"] == 32
    assert rep["pmepr_grid"] <= rep["pmepr_bound"] + 1e-12
    assert isinstance(rep["offpeak"], list)


@pytest.mark.parametrize(
    "phases, q, oversample, binds",
    [
        (np.random.default_rng(5).integers(0, 4, 32), 4, 4, "nothing"),  # grid / denominator < bound
        ([0, 0], 2, 4, "cap"),  # the autocorrelation cap 2 is exact, below 2 / 0.923
        ([0, 0], 2, 1, "denominator"),  # 1 - (pi / 2)^2 / 2 <= 0
    ],
    ids=["nothing-binds", "cap-binds", "oversample-1"],
)
def test_pmepr_upper_is_its_derivation(phases, q, oversample, binds):
    # Bernstein's factor 1 - (pi (L-1) / N)^2 / 2, recomputed here: a
    # weakened factor, such as a halved second term, moves the first case
    a = PolyphaseSeq(q, phases)
    L = len(a)
    grid, bound = pmepr(a, oversample), pmepr_autocorr_bound(a)
    denominator = 1 - (math.pi * (L - 1) / (oversample * L)) ** 2 / 2
    case = "denominator" if denominator <= 0 else "cap" if grid / denominator >= bound else "nothing"
    assert case == binds
    want = bound if denominator <= 0 else min(grid / denominator, bound)
    report = aacf_report(a, oversample)
    assert (report["pmepr_grid"], report["pmepr_bound"]) == (grid, bound)
    assert report["pmepr_upper"] == pytest.approx(want, rel=1e-12)


def test_set_report():
    f = parse_gbf("q=2;m=3; x0*x1 + x1*x2")
    g = parse_gbf("q=2;m=3; x0*x1 + x1*x2 + x0")
    rep = set_report([psi(f), psi(g)])
    assert rep["is_cs"] is True and rep["n"] == 2


def test_sequence_file_roundtrip():
    f = parse_gbf("q=4;m=3; 2*x0*x1 + x2")
    g = parse_gbf("q=4;m=3; 2*x0*x1 + 3")
    text = write_sequences([psi(f), psi(g)], header=("two sequences",))
    assert text.startswith("# two sequences")
    back = read_sequences(text, 4)
    assert back == [psi(f), psi(g)]


def test_read_sequences_column_format():
    # a file of one-symbol lines is ambiguous (one column sequence or several
    # length-1 sequences), so it is refused rather than guessed
    with pytest.raises(ParseError):
        read_sequences("0\n1\n2\n3\n", 4)
    with pytest.raises(ParseError):
        read_sequences("0\n1\n2\n", 4)


def test_read_sequences_errors():
    with pytest.raises(ParseError):
        read_sequences("0 1 2\n0 1\n", 4)       # ragged lengths
    with pytest.raises(ParseError):
        read_sequences("0 1 5\n", 4)            # symbol out of range
    with pytest.raises(ParseError):
        read_sequences("# only comments\n", 4)  # no sequences at all


def test_read_sequences_caps_the_line_length(monkeypatch):
    """A line of more than 2^MAX_VALUE_VECTOR_M symbols is refused before
    its symbols are read (here the limit is patched down to 2^3)."""
    monkeypatch.setattr(gbf, "MAX_VALUE_VECTOR_M", 3)
    assert len(read_sequences("0 1 2 3 0 1 2 3\n", 4)[0]) == 8
    with pytest.raises(SizeLimitError, match="9 entries exceeds the limit of 2\\^3"):
        read_sequences("0 1 2 3 0 1 2 3\n0 1 2 3 0 1 2 3 x\n", 4)



@pytest.mark.parametrize(
    "correlate",
    [aacf, lambda a: cross_corr(a, a), lambda a: set_aacf([a, a]), lambda a: is_cs([a])],
    ids=["aacf", "cross_corr", "set_aacf", "is_cs"],
)
def test_correlation_holds_the_spectra_to_the_byte_budget(correlate, monkeypatch):
    # ceil(8/4) = 2 spectra of N = 16 complex entries for L = 5: 512 bytes
    a = PolyphaseSeq(8, [0, 3, 5, 1, 7])
    monkeypatch.setattr(gbf, "MAX_PRODUCT_BYTES", 512)
    correlate(a)
    monkeypatch.setattr(gbf, "MAX_PRODUCT_BYTES", 511)
    with pytest.raises(SizeLimitError, match="^the spectra at q=8, L=5 would take 512 bytes, above the budget of 511 bytes$"):
        correlate(a)

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


def test_fft_core_sums_proven_chunks(monkeypatch, shift_loop_calls):
    # 9 pairs under a limit of 3 L: three chunks, each proven on its own
    seqs = _masked_set(8, 64, 9, seed=4)
    want = sum(correlation._corr_coeff_matrix(s, s) for s in seqs)
    chunks = []
    estimate = correlation._fft_coeffs

    def counted(pairs, q, L):
        chunks.append(len(pairs))
        return estimate(pairs, q, L)

    def refused(a, b):
        raise AssertionError("the shift loop ran on a proven chunk")

    monkeypatch.setattr(correlation, "FFT_SIZE_LIMIT", 3 * 64)
    monkeypatch.setattr(correlation, "_fft_coeffs", counted)
    monkeypatch.setattr(correlation, "_corr_coeff_matrix", refused)
    assert np.array_equal(set_aacf(seqs).coeffs, want)
    assert chunks == [3, 3, 3]


@pytest.mark.parametrize("q", [2, 4, 8, 16])
def test_chunk_boundaries_keep_the_exact_sum(monkeypatch, shift_loop_calls, q):
    # limits from below one pair up to past the whole set, so chunks of every
    # size from 1 to n and a last chunk of any remainder; auto and cross pairs
    rng = np.random.default_rng(2000 + q)
    for trial in range(48):
        L, n = int(rng.choice([1, 2, 5, 16, 33])), 1 + trial % 12
        limit = L * int(rng.integers(0, n + 2)) + int(rng.integers(0, L))
        masked, cross = rng.random(2) < 0.5
        seqs = [PolyphaseSeq(q, rng.integers(0, q, L), rng.random(L) < 0.7 if masked else None) for _ in range(n + 1)]
        pairs = list(zip(seqs, seqs[1:])) if cross else [(s, s) for s in seqs[:n]]
        want = sum(correlation._corr_coeff_matrix(a, b) for a, b in pairs)
        shift_loop_calls.clear()
        monkeypatch.setattr(correlation, "FFT_SIZE_LIMIT", limit)
        assert np.array_equal(correlation._coeff_sum(pairs), want), (L, n, limit)
        assert shift_loop_calls == ([L] * n if limit < L else []), (L, n, limit)


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


def test_autocorrelation_row_0_is_the_live_count(monkeypatch):
    # the guard's row 0 of an autocorrelation is [live, 0, ..]; only a
    # cross pair takes the phase-difference histogram of shift 0
    calls = []
    row = correlation._shift_row
    monkeypatch.setattr(correlation, "_shift_row", lambda a, b, tau: calls.append(tau) or row(a, b, tau))
    seqs = _masked_set(8, 64, 5, seed=5)
    assert set_aacf(seqs).coeffs[0].tolist() == [sum(int(s.mask.sum()) for s in seqs), 0, 0, 0]
    aacf(seqs[0])
    assert calls == []
    cross_corr(seqs[0], seqs[1])
    assert calls == [0]


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


def test_pmepr_refuses_a_non_integer_oversample():
    s = psi(parse_gbf("q=4;m=3; 2*x0*x1 + 2*x1*x2 + x2"))
    for bad in (2.5, 4.0, True, np.True_, 0, -3, "4", None):
        with pytest.raises(ValueError, match="oversample"):
            pmepr(s, bad)
        with pytest.raises(ValueError, match="oversample"):
            aacf_report(s, bad)
    correlation._twiddles.cache_clear()
    assert pmepr(s, np.int64(4)) == pmepr(s, 4)
    assert correlation._twiddles.cache_info().currsize == 1
    rep = aacf_report(s, np.int64(4))
    assert type(rep["oversample"]) is int and json.dumps(rep)


def test_pmepr_caches_twiddles_only_for_small_grids():
    # 2^19 points: the twiddles are computed per block, bit-identically, so
    # the refined grid still contains the cached coarse one exactly
    rng = np.random.default_rng(9)
    before = correlation._twiddles.cache_info().currsize
    pmepr(PolyphaseSeq(4, rng.integers(0, 4, 1 << 13)), 64)
    assert correlation._twiddles.cache_info().currsize == before
    for q in (2, 4, 8):
        a = PolyphaseSeq(q, rng.integers(0, q, 4096))
        fine = pmepr(a, 128)
        assert fine >= pmepr(a, 64)
        want = float((np.abs(np.fft.fft(a.complex_values(), 128 * 4096)) ** 2).max()) / 4096
        assert fine == pytest.approx(want, rel=1e-12)


def test_pmepr_refuses_an_oversized_grid_before_allocating():
    s = PolyphaseSeq(4, (0, 1, 2, 3))
    tracemalloc.start()
    try:
        for call in (pmepr, aacf_report):
            for oversample in (10**10, (1 << 28) + 1):  # 2^30 points is the largest grid
                with pytest.raises(SizeLimitError, match="grid"):
                    call(s, oversample)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_pmepr_builds_no_root_table_at_a_large_modulus():
    # a table of all 2^24 roots of unity would take 256 MiB
    a = PolyphaseSeq(1 << 24, np.random.default_rng(24).integers(0, 1 << 24, 1024))
    tracemalloc.start()
    try:
        value = pmepr(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value >= 1.0 and peak < 8 << 20


def test_pmepr_grid_is_the_autocorrelation_polynomial():
    # every grid value evaluated directly: L P(-k/N) = sum_{|tau|<L} A(tau)
    # exp(-2 pi i tau k / N) at each k < N, from the exact AACF embedded
    rng = np.random.default_rng(27)
    for q in (2, 4, 8, 16):
        for L in (1, 2, 3, 7, 16, 31, 48):
            for masked in (False, True):
                mask = rng.random(L) < 0.7 if masked else np.ones(L, dtype=bool)
                mask[rng.integers(L)] = True
                a = PolyphaseSeq(q, rng.integers(0, q, L), mask)
                acf = cyclo._embed(aacf(a).coeffs, q)
                two_sided = np.concatenate([acf[:0:-1].conj(), acf])  # A(-tau) = conj A(tau)
                taus = np.arange(1 - L, L)
                for oversample in range(1, 9):
                    N = oversample * L
                    phases = np.exp(-2j * np.pi * (np.outer(np.arange(N), taus) % N / N))
                    want = float((phases @ two_sided).real.max())
                    assert pmepr(a, oversample) * int(mask.sum()) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("q", [2, 4])
def test_pmepr_peak_memory_is_bounded(q):
    # one fresh grid past the twiddle cache (L = 2^16 at oversample 64), swept
    # by the calling thread: under 128 bytes a symbol under tracemalloc
    L = 1 << 16
    a = PolyphaseSeq(q, np.random.default_rng(16).integers(0, q, L))
    assert 64 * L > correlation._CACHED_GRID
    tracemalloc.start()
    try:
        value = pmepr(a, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value >= 1.0 and peak < 128 * L


def test_pmepr_keeps_no_long_block():
    # each grid allocates its sweep block and frees it on return: nothing of a
    # block (512 KiB at L = 2^13, a 2 MiB row at L = 2^16) stays held.  Both
    # grids are past the twiddle cache, and a small grid first pays any
    # first-call cost, so what a grid leaves held reads 32 to 160 bytes.
    for q in (2, 4):
        pmepr(PolyphaseSeq(q, [0, 1, 1]), 64)
        for L in (1 << 13, 1 << 16):
            a = PolyphaseSeq(q, np.random.default_rng(17).integers(0, q, L))
            assert 64 * L > correlation._CACHED_GRID
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                value = pmepr(a, 64)
                held = tracemalloc.get_traced_memory()[0] - start
            finally:
                tracemalloc.stop()
            assert value >= 1.0 and held < 1 << 13, (q, L, held)


def test_aacf_peak_memory_at_q_2():
    # the q = 2 exact core transforms the real +-1 embedding with rfft: a
    # traced peak of 56 bytes a symbol at L = 2^18, against 112 with a
    # complex fft (112 at q = 4, 448 at q = 16)
    L = 1 << 18
    a = PolyphaseSeq(2, np.random.default_rng(18).integers(0, 2, L))
    tracemalloc.start()
    try:
        vec = aacf(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert vec.coeffs[0, 0] == L and peak <= 64 * L


@pytest.mark.parametrize("q", [2, 4])
def test_pmepr_grid_takes_the_fewest_fft_rows(monkeypatch, q):
    # two grid rows of 2L per FFT: for q > 2 each on the grid at an even
    # oversample but row 0's partner when 4 does not divide it, and half of
    # each at an odd one; for q = 2 the mirror halves them when 4 divides it
    shapes, fft = [], np.fft.fft
    monkeypatch.setattr(np.fft, "fft", lambda x, *args, **kw: (x.ndim == 2 and shapes.append(x.shape)) or fft(x, *args, **kw))
    L = 64
    a = PolyphaseSeq(q, np.random.default_rng(30).integers(0, q, L))
    for oversample in (1, 2, 3, 4, 5, 6, 7, 8, 64, 66):
        shapes.clear()
        pmepr(a, oversample)
        if q > 2:
            want = -(-oversample // 4) if oversample % 2 == 0 else (oversample + 1) // 2
        else:
            want = oversample // (8 if oversample % 4 == 0 else 4 if oversample % 2 == 0 else 2) + 1
        assert [cols for _, cols in shapes] == [2 * L] * len(shapes)
        assert sum(rows for rows, _ in shapes) == want, oversample


# -- the PMEPR grid pin and concurrent callers ---------------------------------------


def pmepr_battery():
    """(sequence, oversample) pairs: q in {2, 4, 8, 16}, full and masked, L
    from 1 to 4096 and O in {1, 3, 64, 128}, so grids of one block, of two
    or more and of 2^19 points (past the twiddle cache)."""
    rng = np.random.default_rng(2525)
    for q in (2, 4, 8, 16):
        for L in (1, 2, 3, 17, 100, 256, 1000, 1024, 2048, 4096):
            for masked in (False, True):
                mask = rng.random(L) < 0.75 if masked else None
                if mask is not None:
                    mask[0] = True
                a = PolyphaseSeq(q, rng.integers(0, q, L), mask)
                for oversample in (1, 3, 64, 128):
                    yield a, oversample


def test_pmepr_grid_is_pinned():
    # sha256 over repr(pmepr(a, O)) of the battery's 320 values, from the
    # autocorrelation kernel with FFT rows of 2L, each row paired with its
    # reflection (q > 2) or with the row half a spacing later (q = 2)
    values = [repr(pmepr(a, oversample)) for a, oversample in pmepr_battery()]
    digest = hashlib.sha256("\n".join(values).encode()).hexdigest()
    assert digest == "79b86b98c96bc10052a710100d1efa4fce59eab406508e40791749470b955d40"


def test_pmepr_concurrent_callers_get_their_own_values():
    # more callers than cores, each grid sweeping the block it allocates for
    # itself: every value bit-identical to the serial one
    rng = np.random.default_rng(12)
    seqs = [PolyphaseSeq(q, rng.integers(0, q, 1024)) for q in (2, 4, 8, 16, 4, 8)]
    want = [pmepr(s) for s in seqs]
    got = {}

    def call(i):
        got[i] = [pmepr(seqs[i]) for _ in range(5)]

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=call, args=(i,)) for i in range(len(seqs))]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in callers)
    assert [got[i] for i in range(len(seqs))] == [[v] * 5 for v in want]


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


# -- the JSON export reads the coefficient array once --------------------------------


@pytest.mark.parametrize("q", [2, 4, 16, 1 << 16])
def test_nonzero_shifts_are_the_nonzero_rows(q):
    # both of its passes (per column for long, narrow arrays, one reduction
    # for wide ones), on all-zero, sparse and dense rows
    rng = np.random.default_rng(q)
    for L in (1, 2, 3, 64, 129, 1024, 4096):
        if L * q > 1 << 18:
            continue
        for density in (0, 0.001, 0.5):
            coeffs = np.where(rng.random((L, q // 2)) < density, rng.integers(-3, 4, (L, q // 2)), 0)
            vec = correlation.AacfVector(q, coeffs)
            assert vec.nonzero_shifts() == [tau for tau in range(1, L) if coeffs[tau].any()]


def per_shift_json(vec):
    """The export built one shift at a time from ``at`` and ``abs(at)``."""
    off = [{"tau": tau, "value": list(vec.at(tau).coeffs), "abs": abs(vec.at(tau))} for tau in vec.nonzero_shifts()]
    return {"L": vec.L, "q": vec.q, "peak": vec.coeffs[0].tolist(), "offpeak": off}


@pytest.mark.parametrize("q", [2, 4, 8, 16])
def test_to_json_equals_the_per_shift_form(q):
    rng = np.random.default_rng(q)
    for trial in range(40):
        L = int(rng.integers(1, 90))
        masked = trial % 2 == 1

        def seq():
            return PolyphaseSeq(q, rng.integers(0, q, L), rng.random(L) < 0.7 if masked else None)

        a, b = seq(), seq()
        auto = (aacf(a), set_aacf([a, b, seq()]))
        for vec in (*auto, cross_corr(a, b)):
            assert json.dumps(vec.to_json()) == json.dumps(per_shift_json(vec))
        for vec in auto:
            assert all(vec.at(-tau) == vec.at(tau).conj() for tau in range(1, L))


def test_to_json_embeds_nothing_without_an_offpeak_shift(monkeypatch):
    # a complementary prediction has no off-peak row to embed
    q = 1 << 16
    cand = path_restriction_cs(parse_gbf(f"q={q};m=3; {q // 2}*x0*x1 + {q // 2}*x1*x2"))

    def refused(coeffs, q):
        raise AssertionError("embedded an empty set of shifts")

    monkeypatch.setattr(correlation, "_embed", refused)
    peak = [0] * (q // 2)
    peak[0] = 16
    assert cand.predicted.to_json() == {"L": 8, "q": q, "peak": peak, "offpeak": []}


def test_to_json_of_one_sparse_shift_is_fast_at_a_large_modulus():
    # one nonzero shift with few nonzero coordinates at q = 2^16: the
    # embedding sums those columns only (37 ms over all q/2 of them)
    f, restricted = random_qualifying_gbf(6, 1, 1 << 16, (1,), seed=2)
    vec = offset_set(f, restricted=restricted).predicted
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        blob = vec.to_json()
        best = min(best, time.perf_counter() - start)
    assert best < 0.01
    [entry] = blob["offpeak"]
    omega = cmath.exp(2j * cmath.pi / vec.q)
    z = sum(a * omega**j for j, a in enumerate(entry["value"]) if a)
    assert entry["abs"] == math.hypot(z.real, z.imag)


def seeded_sequences(seed, n):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        q = int(rng.choice([2, 4, 8, 16]))
        L = int(rng.integers(1, 70))
        phases = rng.integers(0, q, L)
        if i % 3:
            out.append(PolyphaseSeq(q, phases))
        else:
            mask = rng.random(L) < 0.8
            mask[0] |= not mask.any()
            out.append(PolyphaseSeq(q, phases, mask))
    return out


def test_aacf_reports_are_pinned():
    # sha256 of 24 seeded reports (full and masked, q up to 16) without the
    # autocorrelation-bound fields, which may move in the last bit; the
    # pmepr_grid values are those of the autocorrelation kernel with FFT rows
    # of 2L, each row paired with its reflection (q > 2) or with the row half
    # a spacing later (q = 2)
    reports = []
    for s in seeded_sequences(10, 24):
        report = aacf_report(s)
        del report["pmepr_bound"], report["pmepr_upper"]
        reports.append(report)
    digest = hashlib.sha256(json.dumps(reports).encode()).hexdigest()
    assert digest == "85e4f14ef2d312f6cad5f9ce97bc2637e4eb846fce6cd886323bd7b7f43500d7"
