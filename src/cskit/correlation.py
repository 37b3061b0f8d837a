"""Exact aperiodic correlation, complementarity checks, envelopes, sequence files.

The aperiodic cross-correlation of sequences ``a`` and ``b`` of length L at
shift ``tau >= 0`` is ``sum_{i=0}^{L-1-tau} a[i+tau] * conj(b[i])``; negative
shifts satisfy ``C_{a,b}(-tau) = conj(C_{b,a}(tau))``.  For polyphase
sequences (q = 2^h) every correlation value lies in Z[omega] and is held
exactly by its integer coordinates on the basis ``omega^0 .. omega^(q/2-1)``
of :mod:`cskit.cyclo`: a correlation vector is one int64 array of shape
``(L, q/2)``, and :class:`~cskit.cyclo.CycloValue` objects are built only
when a single value is asked for.

**Exact values from floating-point FFTs.**  An element of Z[omega] is fixed
by its Galois conjugates ``sigma_e``, e odd, and ``cyclo._from_conjugates``
solves for its coordinates from the first ceil(q/4) of them (the basis, its
fold, its float embedding and this perfectly conditioned solve are described
in :mod:`cskit.cyclo`).  Conjugation commutes with ``sigma_e``, so
``sigma_e(C_{a,b}(tau))`` is the ordinary complex correlation of the embedded
sequences ``x_e[i] = omega^(e p[i])`` (0 where masked), which the
Wiener-Khinchin theorem gives as ``ifft(F_a * conj(F_b))`` with FFTs of
length N, the least power of two >= 2L - 1 (so no shift wraps around).  A set
sums ``|F|^2`` over its members before its one inverse transform per
embedding, so a set of n sequences costs n * ceil(q/4) forward and ceil(q/4)
inverse FFTs.  The coefficients are then solved for and rounded.

The pairs are summed in chunks of at most ``FFT_SIZE_LIMIT // L`` pairs,
whose exact int64 parts add exactly.  A chunk's rounded result is used only
when it is proven; otherwise that chunk runs the exact shift loop (a
phase-difference histogram per shift, O(L^2)), which is also the reference
the tests compare against.  The proof has three parts:

1. ``n * L <= FFT_SIZE_LIMIT = 2^25`` for the n pairs of length L of a chunk;
   only a single pair with L > 2^25 misses it, and neither a polynomial's
   sequence nor a line of :func:`read_sequences` exceeds 2^24 symbols (the
   spectra of such a pair, 16 ceil(q/4) N bytes, are above
   :data:`~cskit.gbf.MAX_PRODUCT_BYTES` at any q, so it is refused).
   Higham, *Accuracy and Stability of Numerical Algorithms* (2nd ed.,
   section 24.1, Thm 24.2) bounds the relative 2-norm error of a length-N
   FFT by ``eps_N = log2(N) eta / (1 - log2(N) eta)``, with ``eta = mu +
   gamma_4 (sqrt(2) + mu)``, ``gamma_4 = 4u / (1 - 4u)``, unit roundoff
   ``u = 2^-53`` and twiddle error ``mu <= u``.  Carried through the
   embedding (|x_s[i]| <= 1), the forward transforms, the products, the
   running sum over the chunk, the inverse transform (whose input has 2-norm
   at most ``n L^(3/2) sqrt(N)``) and the size-q/2 solve, every coefficient
   is off by at most ``B = 1.01 n L (eps_N (sqrt(L) + 2) + eps_(q/2) +
   (n + 64) u)``.  Over every split of ``n * L <= 2^25`` into n and L,
   ``B < 0.13``, so rounding recovers the exact integers.
2. ``max |c - rint(c)| < 1/4``, a check on the computed values.
3. Row 0 equals the exact shift-0 value, computed directly; for an
   autocorrelation that is the live-position count.

Parts 2 and 3 catch an FFT library that misses the bound of part 1.

A list of n sequences is a complementary set when their autocorrelations sum
to zero at every nonzero shift (the sum at shift 0 is then n*L).  The
instantaneous envelope power of the OFDM-style signal built from ``a`` is

    P(t) = |sum_i a[i] exp(2j*pi*i*t)|^2
         = A(0) + 2 * Re sum_{tau=1}^{L-1} A(tau) * exp(2j*pi*tau*t),

with t normalized to one symbol period.  :func:`pmepr` samples the first form
directly at the ``oversample * L`` points ``t = -k / (oversample * L)``, as
``oversample`` length-L FFTs of the sequence times twiddles (the polyphase
split of the zero-padded FFT), cached for grids of at most 2^18 points and
refused above 2^30 points; :func:`pmepr_autocorr_bound` bounds the second
form by the exact autocorrelation.  The grid's rows are swept in blocks of
2^14 entries.  A grid of at least two whole blocks (2^15 points when
L <= 2^14) is cut at block boundaries into contiguous row ranges, one for
each CPU the process may run on (``len(os.sched_getaffinity(0))``, else
``os.cpu_count()``): the calling thread sweeps the first and persistent
worker threads the others, each holding one block at a time (under 1 MiB);
they overlap because NumPy's FFT and element-wise kernels release the GIL.
The workers start once the process has swept 2^22 points of such grids on
its own.  Until then, and for a smaller grid or a process with one CPU,
the calling thread sweeps alone.  The value is the largest of the same
per-block maxima either way, so it does not depend on the worker count.

Masked sequences are supported throughout: positions removed by a restriction
contribute the complex value 0, and the mean power used for normalization is
the number of live positions, i.e. A(0).
"""

from __future__ import annotations

import functools
import os
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cyclo import CycloValue, _embed, _fold, _from_conjugates
from .errors import EmptySequenceError, ParseError, SizeLimitError
from .gbf import PolyphaseSeq, _index, _require_product_bytes, _require_sequence_length, _roots

__all__ = [
    "CorrVector",
    "AacfVector",
    "FFT_SIZE_LIMIT",
    "cross_corr",
    "aacf",
    "set_aacf",
    "is_cs",
    "pmepr",
    "pmepr_autocorr_bound",
    "aacf_report",
    "set_report",
    "read_sequences",
    "write_sequences",
]

FFT_SIZE_LIMIT = 1 << 25  # largest n * L of one FFT chunk; derivation in the module docstring


def _shift_row(a: PolyphaseSeq, b: PolyphaseSeq, tau: int) -> np.ndarray:
    """Integer basis coefficients of C_{a,b}(tau), from a phase-difference histogram."""
    q, L = a.q, len(a)
    live = a.mask[tau:] & b.mask[: L - tau]
    diff = (a.phases[tau:][live] - b.phases[: L - tau][live]) % q
    return _fold(np.bincount(diff, minlength=q))


def _row0(a: PolyphaseSeq, b: PolyphaseSeq) -> np.ndarray:
    """The exact coordinates of C_{a,b}(0): ``[live, 0, ..]`` for an
    autocorrelation (``b is a``), live its unmasked count, else
    :func:`_shift_row`."""
    if b is not a:
        return _shift_row(a, b, 0)
    row = np.zeros(a.q // 2, dtype=np.int64)
    row[0] = a.mask.sum()
    return row


def _corr_coeff_matrix(a: PolyphaseSeq, b: PolyphaseSeq) -> np.ndarray:
    """The exact ``(L, q/2)`` coordinates of C_{a,b}(tau), tau = 0 .. L-1, one
    folded phase-difference histogram per shift: the fallback of
    :func:`_coeff_sum` and the reference for its FFT path."""
    return np.stack([_shift_row(a, b, tau) for tau in range(len(a))]).astype(np.int64, copy=False)


def _spectrum(a: PolyphaseSeq, exponents: np.ndarray, n: int) -> np.ndarray:
    """Length-n FFTs of the embeddings ``omega^(e * p[i])``, one row per exponent e."""
    x = _roots(a.q, np.outer(exponents, a.phases) % a.q)
    x[:, ~a.mask] = 0
    return np.fft.fft(x, n, axis=1)


def _fft_coeffs(pairs: Sequence[tuple[PolyphaseSeq, PolyphaseSeq]], q: int, L: int) -> np.ndarray:
    """Float estimate of the summed ``(L, q/2)`` coefficient matrix of the pairs.

    One spectrum per sequence and embedding lives at a time, so memory grows
    with L, not with the number of pairs.
    """
    n = 1 << (2 * L - 2).bit_length()

    def sigma(exponents: np.ndarray) -> np.ndarray:  # sigma_e of every shift
        total = 0
        for a, b in pairs:
            fa = _spectrum(a, exponents, n)
            total += fa.real**2 + fa.imag**2 if b is a else fa * _spectrum(b, exponents, n).conj()
        return np.fft.ifft(total, axis=1)[:, :L]

    return _from_conjugates(sigma, q)


def _coeff_sum(pairs: Sequence[tuple[PolyphaseSeq, PolyphaseSeq]]) -> np.ndarray:
    """Exact sum over the pairs of the ``(L, q/2)`` matrices of C_{a,b}, in
    chunks of at most ``FFT_SIZE_LIMIT // L`` pairs (at least one): a chunk's
    FFT estimate is used rounded when the three-part guard of the module
    docstring proves it; otherwise that chunk runs the exact shift loop.
    Spectra of more than :data:`~cskit.gbf.MAX_PRODUCT_BYTES` are refused
    with :class:`~cskit.errors.SizeLimitError` before anything is allocated.
    """
    q, L = pairs[0][0].q, len(pairs[0][0])
    if any(s.q != q or len(s) != L for pair in pairs for s in pair):
        raise ValueError("correlated sequences must share modulus and length")
    if not L:
        raise ValueError("correlation needs sequences of at least one entry")
    _require_product_bytes(16 * -(-q // 4) << (2 * L - 2).bit_length(), f"the spectra at q={q}, L={L}")
    step = max(1, FFT_SIZE_LIMIT // L)
    total = 0
    for chunk in (pairs[i : i + step] for i in range(0, len(pairs), step)):
        if len(chunk) * L <= FFT_SIZE_LIMIT:
            estimate = _fft_coeffs(chunk, q, L)
            coeffs = np.rint(estimate)
            row0 = sum(_row0(a, b) for a, b in chunk)
            if np.abs(estimate - coeffs).max() < 0.25 and np.array_equal(coeffs[0], row0):
                total += coeffs.astype(np.int64)
                continue
        total += sum(_corr_coeff_matrix(a, b) for a, b in chunk)
    return total


@dataclass(frozen=True, eq=False)
class CorrVector:
    """Exact correlation values at shifts 0 .. L-1.

    ``coeffs`` is a read-only int64 array of shape ``(L, q/2)``; row tau holds
    the basis coefficients of the value at shift tau.
    """

    q: int
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        self.coeffs.flags.writeable = False

    @property
    def L(self) -> int:
        return len(self.coeffs)

    @property
    def values(self) -> tuple[CycloValue, ...]:
        return tuple(CycloValue(self.q, tuple(row)) for row in self.coeffs.tolist())

    @property
    def peak(self) -> CycloValue:
        return self.at(0)

    def at(self, tau: int) -> CycloValue:
        if not 0 <= tau < self.L:
            raise IndexError(f"shift {tau} outside [0, {self.L})")
        return CycloValue(self.q, tuple(self.coeffs[tau].tolist()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CorrVector):
            return NotImplemented
        return self.q == other.q and np.array_equal(self.coeffs, other.coeffs)

    def nonzero_shifts(self) -> list[int]:
        return (np.flatnonzero(self.coeffs[1:].any(axis=1)) + 1).tolist()

    def to_json(self) -> dict:
        taus = self.nonzero_shifts()
        rows, mags = self.coeffs[taus], []
        if taus:  # _embed loops over all q/2 coordinates, even for no rows
            z = _embed(rows, self.q)
            mags = np.hypot(z.real, z.imag).tolist()
        off = [{"tau": t, "value": v, "abs": a} for t, v, a in zip(taus, rows.tolist(), mags)]
        return {
            "L": self.L,
            "q": self.q,
            "peak": self.coeffs[0].tolist(),
            "offpeak": off,
        }


class AacfVector(CorrVector):
    """Autocorrelation (of one sequence or summed over a set).

    Adds negative-shift access via conjugate symmetry,
    ``A(-tau) = conj(A(tau))``.
    """

    def at(self, tau: int) -> CycloValue:
        if abs(tau) >= self.L:
            raise IndexError(f"shift {tau} outside (-{self.L}, {self.L})")
        return super().at(tau) if tau >= 0 else super().at(-tau).conj()

    def offpeak_is_zero(self) -> bool:
        return not self.coeffs[1:].any()


def cross_corr(a: PolyphaseSeq, b: PolyphaseSeq) -> CorrVector:
    """Exact aperiodic cross-correlation at nonnegative shifts.

    For negative shifts use ``cross_corr(b, a).at(tau).conj()``.
    """
    return CorrVector(a.q, _coeff_sum([(a, b)]))


def aacf(a: PolyphaseSeq) -> AacfVector:
    """Exact aperiodic autocorrelation of a single sequence."""
    return AacfVector(a.q, _coeff_sum([(a, a)]))


def set_aacf(seqs: Sequence[PolyphaseSeq]) -> AacfVector:
    """Sum of the member autocorrelations, exactly."""
    if not seqs:
        raise ValueError("empty sequence set")
    return AacfVector(seqs[0].q, _coeff_sum([(s, s) for s in seqs]))


def is_cs(seqs: Sequence[PolyphaseSeq]) -> bool:
    """True when the summed autocorrelation vanishes at every nonzero shift."""
    return set_aacf(seqs).offpeak_is_zero()


# -- envelope statistics -------------------------------------------------------


def _live_count(a: PolyphaseSeq) -> int:
    live = int(a.mask.sum())
    if not live:
        raise EmptySequenceError("every position is masked, so the mean envelope power is zero")
    return live


# Complex entries per block of grid rows (256 KiB): about 16 rows at L = 1024,
# so a block and its FFT stay in cache while the grid is swept.
_GRID_BLOCK = 1 << 14
# Grids of at most this many points keep their twiddles cached (at most 4 MiB
# each, 32 MiB for the eight cached); larger grids compute them per block.
_CACHED_GRID = 1 << 18
# Grid points that a process sweeps on its calling thread before the grid
# workers start (64 grids of L = 1024 at oversample 64).  Starting them costs
# about 1 ms, and on a 2-vCPU virtual machine a worker woken in a process
# that has just begun often runs on the caller's own CPU, so `cskit pmepr` of
# 16 sequences of L = 512 took 135 ms with workers against 131 ms without;
# over a sustained sweep they are 1.3x faster.
_SERIAL_POINTS = 1 << 22
# The largest grid sampled: L = 2^24, the longest sequence, at oversample 64.
_MAX_GRID = 1 << 30


def _grid_factor(oversample: int, L: int) -> int:
    """``oversample`` as a Python int >= 1 by :func:`cskit.gbf._index` (bools,
    non-integers and integers below 1 raise ``ValueError``); a grid of more
    than 2^30 points raises :class:`~cskit.errors.SizeLimitError`."""
    factor = _index(oversample, "oversample must be an integer >= 1")
    if factor < 1:
        raise ValueError(f"oversample must be an integer >= 1, got {oversample!r}")
    if factor * L > _MAX_GRID:
        raise SizeLimitError(f"a grid of {factor} * {L} points exceeds the limit of 2^30")
    return factor


def _twiddle_rows(L: int, oversample: int, lo: int, hi: int) -> np.ndarray:
    """Rows lo..hi-1 of the ``(oversample, L)`` matrix ``w[r, n] = exp(-2 pi
    i r n / N)``, N = oversample * L.  Each angle is 2 pi times the quotient
    ``r n / N`` (r n < N, so no reduction mod N is needed) rounded once; a
    correctly rounded quotient depends only on the reduced fraction, so the
    grids O and c O share bit-identical twiddles at their shared points."""
    return np.exp(-2j * np.pi * (np.outer(np.arange(lo, hi), np.arange(L)) / (oversample * L)))


@functools.lru_cache(maxsize=8)
def _twiddles(L: int, oversample: int) -> np.ndarray:
    """All of :func:`_twiddle_rows`, read-only, for a grid of at most
    ``_CACHED_GRID`` points."""
    w = _twiddle_rows(L, oversample, 0, oversample)
    w.flags.writeable = False
    return w


def _grid_peak(x: np.ndarray, w: np.ndarray | None, oversample: int, lo: int, hi: int) -> float:
    """The largest ``|X|^2`` over grid rows lo .. hi-1, swept in blocks of
    ``max(1, _GRID_BLOCK // L)`` rows counted from lo, with the cached
    twiddles ``w`` or, when None, each block's :func:`_twiddle_rows`."""
    L = len(x)
    step = max(1, _GRID_BLOCK // L)
    peak = 0.0
    for r in range(lo, hi, step):
        end = min(r + step, hi)
        spectrum = np.fft.fft((_twiddle_rows(L, oversample, r, end) if w is None else w[r:end]) * x, axis=1)
        peak = max(peak, float((spectrum.real**2 + spectrum.imag**2).max()))
    return peak


def _cpu_count() -> int:
    """The CPUs this process may run on: its affinity mask where the platform
    has one, else ``os.cpu_count()``."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _serve(inbox) -> None:
    """A grid worker: run each ``(args, reply)`` task of the inbox through
    :func:`_grid_peak` and put ``(True, peak)`` or ``(False, exception)`` on
    the task's reply queue."""
    while True:
        args, reply = inbox.get()
        try:
            reply.put((True, _grid_peak(*args)))
        except Exception as exc:  # the caller re-raises it
            reply.put((False, exc))


class _GridWorkers:
    """Persistent daemon threads that run :func:`_grid_peak` on row ranges
    of a grid beside the calling thread, one for each available CPU but the
    caller's, each fed by its own ``SimpleQueue``.  They start once the
    process has swept ``_SERIAL_POINTS`` points of grids that could use
    them, and again in a forked child, which has none of its parent's
    threads (the PID tells).  ``queue`` is imported only then, so ``import
    cskit`` starts no thread and imports nothing more."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._pid = 0
        self._inboxes: list = []
        self._swept = 0

    def count(self, points: int) -> int:
        """The number of workers for a grid of ``points`` points: 0 while the
        process has swept fewer than ``_SERIAL_POINTS`` (counting this grid
        in), else the workers, started in this process if they are not yet."""
        pid = os.getpid()
        if self._pid != pid:
            with self._lock:
                if self._swept < _SERIAL_POINTS:
                    self._swept += points
                    return 0
                if self._pid != pid:
                    from queue import SimpleQueue

                    self._queue = SimpleQueue
                    self._inboxes = [SimpleQueue() for _ in range(_cpu_count() - 1)]
                    for inbox in self._inboxes:
                        threading.Thread(target=_serve, args=(inbox,), name="cskit-pmepr", daemon=True).start()
                    self._pid = pid
        return len(self._inboxes)

    def peak(self, x: np.ndarray, w: np.ndarray | None, oversample: int, cuts: list[int]) -> float:
        """The largest of :func:`_grid_peak` over the row ranges ``cuts[i] ..
        cuts[i+1]``: the first swept by the calling thread, each other one by
        a worker (at most :meth:`count` of them)."""
        reply = self._queue()
        for inbox, lo, hi in zip(self._inboxes, cuts[1:], cuts[2:]):
            inbox.put(((x, w, oversample, lo, hi), reply))
        peak = _grid_peak(x, w, oversample, cuts[0], cuts[1])
        for _ in cuts[2:]:
            ok, value = reply.get()
            if not ok:
                raise value
            peak = max(peak, value)
        return peak


_WORKERS = _GridWorkers()


def pmepr(a: PolyphaseSeq, oversample: int = 64) -> float:
    """Peak-to-mean envelope power ratio, sampled on an oversampled grid.

    The grid is P(t) at the ``N = oversample * L`` equispaced points
    ``t = -k / N`` of one symbol period, a point set symmetric under
    ``t -> -t``: the values ``|fft(a, N)|^2`` of the zero-padded FFT.  They
    are computed by its polyphase split (FFT pruning for an input that is
    zero past L): ``X[oversample * j + r] = FFT_L(a * w_r)[j]``, one
    length-L FFT per residue r, with the twiddles ``w_r`` of
    :func:`_twiddles`, whose angles come from the reduced fraction
    ``r n / N``, so a grid and its refinement by 2 agree exactly at their
    shared points.  The FFTs run over blocks of rows, about 16 rows
    at L = 1024.  For q = 2 the sequence is real, so ``|X[N-k]| = |X[k]|``
    and rows 0 .. oversample // 2 cover the grid.  For a grid of at most
    2^18 points the twiddles of the last eight ``(L, oversample)`` pairs are
    cached, 16 * oversample * L bytes each (4 MiB at L = 4096, oversample =
    64); a larger grid computes each block's rows with the same expression,
    bit-identical, and holds one block at a time.

    A grid of at least two whole blocks (2^15 points for L <= 2^14; measured
    on a 2-CPU host, 1.3-1.5x faster from there at L = 256 .. 4096, while a
    grid of one block plus a sliver gained nothing) is cut at block
    boundaries into one contiguous row range per available CPU, the CPUs of
    ``os.sched_getaffinity(0)`` or, where the platform has no affinity mask,
    ``os.cpu_count()``.  The calling thread sweeps the first range and
    persistent daemon threads the others, each holding one block at a time,
    under 1 MiB.  The threads start once the process has swept 2^22 points
    of such grids by itself (64 grids at L = 1024, oversample 64), so a short
    run never pays for them, and start again in a forked child.  Smaller
    grids, grids before that point and every grid in a process with one CPU
    are swept by the calling thread alone.  Each block is the same block as
    in a serial sweep and the result is the largest of their maxima, so it
    is bit-identical whatever the worker count.

    ``oversample`` must be an integer >= 1 (bools are refused), else
    ``ValueError``; a grid of more than 2^30 points (L = 2^24 at oversample
    64) raises :class:`~cskit.errors.SizeLimitError` before anything is
    allocated.  The mean power equals A(0), the number of live
    positions (= L for a full sequence); a sequence with none raises
    :class:`~cskit.errors.EmptySequenceError`.  The returned value is a
    slight underestimate of the true supremum, while
    :func:`pmepr_autocorr_bound` gives a certified overestimate.
    """
    L = len(a)
    oversample = _grid_factor(oversample, L)
    live = _live_count(a)
    x, rows = a.complex_values(), oversample
    if a.q == 2:
        x, rows = x.real, oversample // 2 + 1
    w = _twiddles(L, oversample) if oversample * L <= _CACHED_GRID else None
    step = max(1, _GRID_BLOCK // L)
    blocks, full = -(-rows // step), rows // step
    parts = min(full, _WORKERS.count(rows * L) + 1) if full > 1 else 1
    if parts == 1:
        return _grid_peak(x, w, oversample, 0, rows) / live
    return _WORKERS.peak(x, w, oversample, [step * (i * blocks // parts) for i in range(parts)] + [rows]) / live


def _autocorr_bound(vec: AacfVector) -> float:
    acf = _embed(vec.coeffs, vec.q)
    a0 = acf[0].real
    return float((a0 + 2.0 * np.hypot(acf[1:].real, acf[1:].imag).sum()) / a0)


def pmepr_autocorr_bound(a: PolyphaseSeq) -> float:
    """Upper bound (A(0) + 2 sum_{tau>0} |A(tau)|) / A(0) on the exact PMEPR."""
    _live_count(a)
    return _autocorr_bound(aacf(a))


# -- reports -------------------------------------------------------------------


def aacf_report(a: PolyphaseSeq, oversample: int = 64) -> dict:
    """JSON-ready summary of one sequence: exact AACF plus envelope numbers.

    ``pmepr_grid`` is :func:`pmepr` on the ``N = oversample * L`` grid and
    ``pmepr_bound`` is :func:`pmepr_autocorr_bound`.  ``pmepr_upper`` closes
    the interval ``[pmepr_grid, pmepr_upper]`` that holds the true PMEPR.
    P(t) is a nonnegative trigonometric polynomial of degree L - 1 in
    ``2 pi t``, so Bernstein's inequality gives ``|P''| <= (2 pi (L-1))^2 M``
    with M = max P.  At the maximiser P' = 0, and some grid point lies within
    ``1 / (2N)`` of it, so by Taylor's theorem the grid holds a value of at
    least ``M (1 - (pi (L-1) / N)^2 / 2)``.  Hence ``pmepr_upper`` is
    ``pmepr_grid / (1 - (pi (L-1) / N)^2 / 2)`` when that denominator is
    positive, capped by ``pmepr_bound``, and ``pmepr_bound`` otherwise.
    The upper end only bounds the PMEPR from above: it never proves that a
    bound is attained with equality (only a grid value equal to the bound
    could).
    """
    oversample = _grid_factor(oversample, len(a))
    vec = aacf(a)
    report = vec.to_json()
    grid, bound = pmepr(a, oversample), _autocorr_bound(vec)
    denominator = 1.0 - (np.pi * (len(a) - 1) / (oversample * len(a))) ** 2 / 2
    report["pmepr_grid"] = grid
    report["pmepr_bound"] = bound
    report["pmepr_upper"] = min(grid / denominator, bound) if denominator > 0 else bound
    report["oversample"] = oversample
    return report


def set_report(seqs: Sequence[PolyphaseSeq]) -> dict:
    """JSON-ready summary of a candidate complementary set."""
    vec = set_aacf(seqs)
    report = vec.to_json()
    report["n"] = len(seqs)
    report["is_cs"] = vec.offpeak_is_zero()
    return report


# -- sequence file format ------------------------------------------------------


def read_sequences(text: str, q: int | None = None) -> list[PolyphaseSeq]:
    """Parse sequences over Z_q from text; with ``q`` None, q is read from
    the ``# CS q=..`` header of :func:`cskit.construct.cs_to_text`.

    Lines starting with ``#`` (and inline ``#`` comments) are ignored.  Each
    remaining line carries one sequence as whitespace-separated symbols.  A
    file of several lines that each hold one symbol is refused: it could be
    one sequence written as a column or a set of length-1 sequences.  A line
    longer than a polynomial's value vector may be (2^MAX_VALUE_VECTOR_M
    symbols) raises :class:`SizeLimitError` before its symbols are read, so
    one pair of any file fits the exact FFT core.
    """
    if q is None:  # the last q= of the first '# CS' header line before any sequence
        for line in text.splitlines():
            body = line.strip()
            if body and not body.startswith("#"):
                break
            if body.lstrip("#").strip().startswith("CS "):
                tokens = [t for t in body.split() if t.startswith("q=")]
                if tokens:
                    try:
                        q = int(tokens[-1][2:])
                    except ValueError:
                        raise ParseError(f"bad header value {tokens[-1]!r}") from None
                break
        if q is None:
            raise ParseError("cannot determine the modulus: pass --q or use a file with a 'CS q=..' header")
    rows: list[list[int]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        tokens = body.split()
        _require_sequence_length(len(tokens))
        row = []
        for tok in tokens:
            try:
                v = int(tok)
            except ValueError:
                raise ParseError(f"line {lineno}: {tok!r} is not an integer") from None
            if not 0 <= v < q:
                raise ParseError(f"line {lineno}: symbol {v} out of range for q={q}")
            row.append(v)
        rows.append(row)
    if not rows:
        raise ParseError("no sequences found")
    if len(rows) > 1 and all(len(r) == 1 for r in rows):
        raise ParseError("every line holds one symbol: write each sequence on one line")
    if len({len(r) for r in rows}) != 1:
        raise ParseError("sequences in one file must share a common length")
    return [PolyphaseSeq(q, row) for row in rows]


def write_sequences(seqs: Sequence[PolyphaseSeq], header: Sequence[str] = ()) -> str:
    """Render sequences one per line, with optional ``#`` header lines."""
    lines = [f"# {h}" if not h.startswith("#") else h for h in header]
    for s in seqs:
        if not s.is_full:
            raise ValueError("masked sequences have no text representation")
        lines.append(" ".join(str(int(p)) for p in s.phases))
    return "\n".join(lines) + "\n"
