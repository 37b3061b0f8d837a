"""Correlation, PMEPR and sequence-file checks against small hand-computable cases."""

import cmath
import hashlib
import json
import math
import os
import select
import signal
import sys
import threading
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
    parse_gbf,
    path_restriction_cs,
    pmepr,
    pmepr_autocorr_bound,
    psi,
    read_sequences,
    set_aacf,
    set_report,
    write_sequences,
)
from cskit import correlation, gbf
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


# -- the PMEPR grid on worker threads ----------------------------------------------


def pmepr_battery():
    """(sequence, oversample) pairs: q in {2, 4, 8, 16}, full and masked, L
    from 1 to 4096 and O in {1, 3, 64, 128}, so grids of one block, of two
    or more (swept by the workers) and of 2^19 points (past the twiddle
    cache)."""
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


def _use_cpus(monkeypatch, cpus=None):
    """Fresh grid workers that start on the first grid able to use them, as
    on a host with ``cpus`` CPUs (None: this host)."""
    if cpus is not None:
        monkeypatch.setattr(correlation, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(correlation, "_SERIAL_POINTS", 0)
    monkeypatch.setattr(correlation, "_WORKERS", correlation._GridWorkers())
    return correlation._WORKERS


@pytest.mark.parametrize("cpus", [1, 3, None], ids=["one-cpu", "three-cpus", "this-host"])
def test_pmepr_grid_is_pinned(monkeypatch, cpus):
    # sha256 over repr(pmepr(a, O)) of the battery's 320 values, computed by
    # the calling thread alone before the grid had workers: a maximum of the
    # same per-block values, whatever the worker count
    workers = _use_cpus(monkeypatch, cpus)
    handed = []
    peak = workers.peak
    monkeypatch.setattr(workers, "peak", lambda *args: handed.append(args[-1]) or peak(*args))
    values = [repr(pmepr(a, oversample)) for a, oversample in pmepr_battery()]
    digest = hashlib.sha256("\n".join(values).encode()).hexdigest()
    assert digest == "40a9cf453f5caed690a150eb0547c6908e50599a2c41ca82f5b4e75873b256fe"
    started = len(workers._inboxes)
    if started:
        assert 0 < len(handed) < len(values)
        assert max(len(cuts) - 1 for cuts in handed) == started + 1
    else:
        assert handed == []


def test_pmepr_workers_start_after_a_sustained_sweep(monkeypatch):
    # a process that has swept few grid points starts no thread; a grid of
    # one block does not count
    _use_cpus(monkeypatch, 3)
    monkeypatch.setattr(correlation, "_SERIAL_POINTS", 3 << 16)
    rng = np.random.default_rng(15)
    a, small = PolyphaseSeq(4, rng.integers(0, 4, 1024)), PolyphaseSeq(4, rng.integers(0, 4, 64))
    threads = threading.active_count()
    values = [pmepr(a), pmepr(small), pmepr(a), pmepr(a)]
    assert threading.active_count() == threads and correlation._WORKERS._inboxes == []
    assert pmepr(a) == values[0]  # 2^16 points each: the fourth grid starts them
    assert threading.active_count() == threads + 2


def test_pmepr_workers_serve_concurrent_callers(monkeypatch):
    # more callers than workers and workers than cores, each reply to its own caller
    _use_cpus(monkeypatch, 3)
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


def test_pmepr_worker_errors_reach_the_caller(monkeypatch):
    _use_cpus(monkeypatch, 2)
    a = PolyphaseSeq(4, np.random.default_rng(13).integers(0, 4, 1024))
    want = pmepr(a)
    sweep = correlation._grid_peak

    def failing(x, w, oversample, lo, hi):
        if lo:
            raise MemoryError("no room for a block")
        return sweep(x, w, oversample, lo, hi)

    monkeypatch.setattr(correlation, "_grid_peak", failing)
    with pytest.raises(MemoryError, match="no room"):
        pmepr(a)
    monkeypatch.setattr(correlation, "_grid_peak", sweep)
    assert pmepr(a) == want  # the worker outlived the error


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_pmepr_in_a_forked_child(monkeypatch):
    # the child inherits no thread, so it starts its own workers
    _use_cpus(monkeypatch, 3)
    a = PolyphaseSeq(8, np.random.default_rng(14).integers(0, 8, 2048))
    want = f"{pmepr(a)!r} True"
    assert len(correlation._WORKERS._inboxes) == 2
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            value = pmepr(a)
            os.write(write, f"{value!r} {correlation._WORKERS._pid == os.getpid()}".encode())
        finally:
            os._exit(0)
    os.close(write)
    try:
        ready = select.select([read], [], [], 60)[0]
        got = os.read(read, 200).decode() if ready else None
    finally:
        os.close(read)
        if not ready:
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert got == want


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
    # the float embedding loops over all q/2 coordinates; a complementary
    # prediction has no off-peak row to embed
    q = 1 << 16
    cand = path_restriction_cs(parse_gbf(f"q={q};m=3; {q // 2}*x0*x1 + {q // 2}*x1*x2"))

    def refused(coeffs, q):
        raise AssertionError("embedded an empty set of shifts")

    monkeypatch.setattr(correlation, "_embed", refused)
    peak = [0] * (q // 2)
    peak[0] = 16
    assert cand.predicted.to_json() == {"L": 8, "q": q, "peak": peak, "offpeak": []}


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
    # autocorrelation-bound fields, computed before the coordinates had one
    # float embedding; the bound fields may move in the last bit
    reports = []
    for s in seeded_sequences(10, 24):
        report = aacf_report(s)
        del report["pmepr_bound"], report["pmepr_upper"]
        reports.append(report)
    digest = hashlib.sha256(json.dumps(reports).encode()).hexdigest()
    assert digest == "82abdafca8f61025fc4e16a5b5c874185ac48a8dc011c5d208be2a706e6e48fd"
