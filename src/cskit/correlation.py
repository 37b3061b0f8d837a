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
inverse FFTs.  For q = 2 the one embedding is the real +-1, and the
transforms are ``rfft`` and ``irfft``, which compute only the N/2 + 1
values that determine the rest by conjugation.  The coefficients are then
solved for and rounded.

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
   ``B < 0.13``, so rounding recovers the exact integers.  The same eps_N,
   so the same B, holds for the real transforms of q = 2.  An rfft of
   length N is the complex FFT of a real vector, and an irfft the inverse
   of a Hermitian one whose half holds the summed spectrum of the complex
   path, of the same 2-norm.  A real-data FFT leaves out the imaginary
   parts that are exactly zero and the conjugate half of each stage's
   Hermitian sub-transforms; a product with or a sum with an exact zero and
   a conjugation round nothing, so every value it computes carries the
   rounding of the complex transform's butterflies, at most log2(N) of them
   deep.  NumPy's pocketfft computes them with such real radix passes at
   the power-of-two N used here; a library that instead packs x into N/2
   complex values adds one untangling stage to log2(N) - 1 butterfly
   stages, and parts 2 and 3 check whatever it does.
2. ``max |c - rint(c)| < 1/4``, a check on the computed values.
3. Row 0 equals the exact shift-0 value, computed directly; for an
   autocorrelation that is the live-position count.

Parts 2 and 3 catch an FFT library that misses the bound of part 1.

A list of n sequences is a complementary set when their autocorrelations sum
to zero at every nonzero shift (the sum at shift 0 is then n*L).

**The envelope grid.**  The instantaneous envelope power of the OFDM-style
signal built from ``a`` is

    P(t) = |sum_i a[i] exp(2j*pi*i*t)|^2
         = A(0) + 2 * Re sum_{tau=1}^{L-1} A(tau) * exp(2j*pi*tau*t),

with t normalized to one symbol period.  :func:`pmepr` samples the second
form at the ``N = oversample * L`` points ``t = -k / N``.  A is the float
autocorrelation from the exact core's own transforms: the e = 1 spectrum of
length 2L, its power and the inverse (rfft and irfft for q = 2, where A is
real).  No shift wraps, so index n holds A at the signed lag tau(n): n
below L, n - 2L from L.  :func:`pmepr_autocorr_bound` bounds P by the exact
autocorrelation.

Count offsets in units of 1/(4N).  A grid row of 2L points, ``1 / (2L)``
apart, spans the offsets ``x + S j``, S = 2 oversample, and as tau(n) = n
(mod 2L) it is ``FFT_2L(A v_x)`` with ``v_x[n] = exp(-2 pi i tau(n) x /
(4N))``.  Such a product is Hermitian up to the rounding of A, so its FFT
is real up to rounding, and one complex FFT of ``A (v_u + i v_p)`` holds
the row at the base u in its real part and the row at its partner p in its
imaginary part, one complex multiply an entry.  For q > 2 the bases run
over [0, S/2) and the partner of u > 0 is its reflection -u, whose
twiddles ``conj v_u`` take no angle of their own; the partner of 0 is S/2.
For q = 2, P(t) = P(-t), so the bases in [0, S/4] cover the grid with the
partners u + S/2.  The grid points are the offsets divisible by 4: when S
and x are, the row at x is on the grid in full; when S = 2 (mod 4), at an
odd oversample, an even x holds grid points at the entries j = x/2 (mod 2),
and u and -u hold them at the same entries.  The bases are those with an
on-grid part.  The pairing depends on the offset alone, and every twiddle
angle comes from a reduced fraction (:func:`_twiddle_block`), so a grid and
its refinement by 2 agree exactly at their shared points.

So for q > 2 a grid takes ``oversample / 4`` FFTs of 2L when 4 divides the
oversample, ``(oversample + 2) / 4`` at another even one (all on the grid
but row 0's partner S/2) and ``(oversample + 1) / 2`` at an odd one (half of
each on the grid), about the work of rows of L.  For q = 2 it takes
``oversample // 8 + 1`` FFTs of 2L when 4 divides the oversample,
``oversample // 4 + 1`` at another even one and ``oversample // 2 + 1`` at
an odd one, each half on the grid in the last two cases: no partner rule
that depends on the offset alone pairs the rows of such a grid.  Each grid
sweeps its FFTs in a block of rows of at most 2^15 entries, 16 rows of 2L at
L = 1024, which it allocates and frees.  The packed twiddles of the last
eight grids of at most 2^18 points are cached; a larger grid builds each
block's with the same code, bit-identically.

Masked sequences are supported throughout: positions removed by a restriction
contribute the complex value 0, and the mean power used for normalization is
the number of live positions, i.e. A(0).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cyclo import CycloValue, _embed, _fold, _from_conjugates
from .errors import EmptySequenceError, ParseError, SizeLimitError
from .gbf import PolyphaseSeq, _ascii_int, _index, _require_product_bytes, _require_sequence_length, _roots

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


def _spectrum(a: PolyphaseSeq, exponents: np.ndarray | int, n: int) -> np.ndarray:
    """Length-n transforms of the embeddings ``omega^(e * p[i])`` (0 where
    masked), one row per exponent e, or one 1-D transform for an int e.  The
    zero-padded buffer is filled and transformed in place: for q = 2 the
    embedding is the real +-1 and the transform ``rfft``, whose n/2 + 1
    values determine the rest by conjugation; else ``fft``."""
    real = a.q == 2
    roots = _roots(a.q, np.multiply.outer(exponents, a.phases) & (a.q - 1))  # mod q, a power of two
    roots[..., ~a.mask] = 0
    buffer = np.zeros(roots.shape[:-1] + (n,), dtype=float if real else complex)
    buffer[..., : len(a)] = roots.real if real else roots
    return np.fft.rfft(buffer) if real else np.fft.fft(buffer, out=buffer)


def _power(spectrum: np.ndarray) -> np.ndarray:
    """``|F|^2`` of a spectrum of :func:`_spectrum`, as a real array."""
    return spectrum.real**2 + spectrum.imag**2


def _inverse(spectra: np.ndarray, q: int, n: int) -> np.ndarray:
    """Correlations from summed power or cross spectra of :func:`_spectrum`:
    the length-n ``irfft`` for q = 2, else ``ifft``."""
    return np.fft.irfft(spectra, n) if q == 2 else np.fft.ifft(spectra)


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
            total += _power(fa) if b is a else fa * _spectrum(b, exponents, n).conj()
        return _inverse(total, q, n)[:, :L]

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
        # any(axis=1) pays per row, and one NumPy call costs about as much as
        # 128 of its rows: an array of at least 128 rows a coordinate column
        # takes one != 0 pass per column (L = 4096, q = 4: 78 -> 20 us), a
        # wider one the reduction (q = 2^16, L = 64: 52 ms of passes against
        # under 1 ms)
        off = self.coeffs[1:]
        if off.shape[1] * 128 > len(off):
            live = off.any(axis=1)
        else:
            live = off[:, 0] != 0
            for col in off.T[1:]:
                live |= col != 0
        return (np.flatnonzero(live) + 1).tolist()

    def to_json(self) -> dict:
        taus = self.nonzero_shifts()
        rows, mags = self.coeffs[taus], []
        if taus:
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


# Complex entries per block of FFT rows (512 KiB): 16 rows of 2L at L = 1024
# and 4 at L = 4096, so a block and its FFT stay in cache while the grid is
# swept.  A row of more entries is filled in slices of this many.  Blocks of
# 2^14 entries, 2 rows of 2L at L = 4096, made those grids 1.7x slower on a
# 2-vCPU Xeon: one FFT call over 2 rows of 8192 cost about twice as much a
# row as over 4 (CHANGES.md, the entry on rows of 2L at every L).
_GRID_BLOCK = 1 << 15
# Grids of at most this many points keep their packed twiddles cached (2 MiB
# each for q > 2 and about 1 MiB for q = 2 when 4 divides the oversample, at
# most about 4 MiB otherwise); larger grids build them per block.
_CACHED_GRID = 1 << 18
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


@functools.lru_cache(maxsize=64)
def _geometry(oversample: int, mirrored: bool) -> tuple[int, int, tuple[slice, ...], tuple[tuple[slice, ...], ...]]:
    """``(step, rows, first, picks)`` of a grid, in the offsets of the module
    docstring: FFT row r, r < rows, has the base u = r step, its real part
    the grid row at u and its imaginary part the row at the partner (q = 2
    when ``mirrored``).  The slices select the on-grid values of an FFT row
    in its float64 view, where entry j is real part 2j and imaginary part 2j
    + 1: ``first`` those of FFT row 0 and ``picks[r % len(picks)]`` those of
    FFT row r > 0."""
    span, every = 2 * oversample, (slice(None),)
    if not mirrored:
        step = 4 if span % 4 == 0 else 2
        rows = -(-oversample // step)  # the bases in [0, S/2)
        if step == 4:  # the partner -u of u > 0 is on the grid with u; S/2 when 4 | oversample
            return step, rows, every if oversample % 4 == 0 else (slice(0, None, 2),), (every,)
        # u = 2r and -u hold grid points at the entries j = r (mod 2); S/2 is odd
        return step, rows, (slice(0, None, 4),), tuple((slice(2 * p, None, 4), slice(2 * p + 1, None, 4)) for p in (0, 1))
    on = 4 if span % 4 == 0 else 2  # rows at the multiples of on hold grid points
    step = on if span // 2 % on == 0 else on // 2

    def pick(u: int) -> tuple[slice, ...]:
        if on == 4:
            real, imag = u % 4 == 0, (u + span // 2) % 4 == 0
            return (slice(1 - real, None, 2 - (real and imag)),)
        x = u + span // 2 * (u % 2)  # the even one of u and u + S/2
        return (slice(x % 4 + u % 2, None, 4),)

    picks = tuple(pick(u) for u in range(0, 4, step))
    return step, span // 4 // step + 1, picks[0], picks


def _autocorrelation(a: PolyphaseSeq) -> np.ndarray:
    """The float autocorrelation A of the module docstring: the e = 1
    spectrum of length 2L, its power and the inverse, so no shift wraps;
    real for q = 2."""
    return _inverse(_power(_spectrum(a, 1, 2 * len(a))), a.q, 2 * len(a))


def _twiddle_block(L: int, oversample: int, mirrored: bool, lo: int, hi: int, cols: slice) -> np.ndarray:
    """Columns ``cols`` of FFT rows lo .. hi-1 of the packed twiddles: FFT
    row r is ``v_u + i v_p`` at the columns, with the base u and its partner
    p of :func:`_geometry`, ``v_x[n] = exp(-2 pi i tau(n) x / (4N))`` and
    tau(n) the signed lag of index n: n below L, n - 2L from L.  Each angle
    is a quotient of integers (below 2 in absolute value, so no reduction is
    needed) rounded once, and a correctly rounded quotient depends only on
    the reduced fraction, so grids O and c O build bit-identical twiddles
    for the offsets they share.  For q > 2 the partner of u > 0 is -u, so
    the row is ``v_u + i conj v_u = (Re v_u + Im v_u)(1 + i)``, one angle an
    entry; only row 0 and the rows of q = 2 take a second one."""
    step = _geometry(oversample, mirrored)[0]
    u = np.arange(lo, hi) * step
    lag = np.arange(*cols.indices(2 * L), dtype=float)
    lag[lag >= L] -= 2 * L

    def v(offsets: np.ndarray) -> np.ndarray:  # the rows v_x at the offsets
        angle = np.outer(offsets, lag)
        angle /= 4 * oversample * L
        out = np.multiply(angle, -2j * np.pi)
        return np.exp(out, out=out)

    packed = v(u)
    if mirrored:
        pair = v(u + oversample)  # S/2 = oversample
        packed.real -= pair.imag
        packed.imag += pair.real
        return packed
    packed.real += packed.imag
    packed.imag = packed.real
    if not lo:  # row 0 pairs v_0 = 1 with v_(S/2)
        pair = v(np.array([oversample]))[0]
        packed.real[0] = 1 - pair.imag
        packed.imag[0] = pair.real
    return packed


@functools.lru_cache(maxsize=8)
def _twiddles(L: int, oversample: int, mirrored: bool) -> np.ndarray:
    """The read-only ``(rows, 2L)`` packed twiddles of every FFT row of a
    grid of at most ``_CACHED_GRID`` points, built one block at a time by
    :func:`_twiddle_block`."""
    rows = _geometry(oversample, mirrored)[1]
    step, width = max(1, _GRID_BLOCK // (2 * L)), min(2 * L, _GRID_BLOCK)
    w = np.empty((rows, 2 * L), dtype=complex)
    for r in range(0, rows, step):
        for c in range(0, 2 * L, width):
            w[r : r + step, c : c + width] = _twiddle_block(L, oversample, mirrored, r, min(r + step, rows), slice(c, c + width))
    w.flags.writeable = False
    return w


def _grid_peak(acf: np.ndarray, w: np.ndarray | None, oversample: int) -> float:
    """The largest grid value of the autocorrelation ``acf`` (real for q = 2,
    whose grid is mirrored), swept in blocks of ``max(1, _GRID_BLOCK // 2L)``
    FFT rows of 2L entries, each filled as ``w * acf`` in column slices of
    at most ``_GRID_BLOCK``, one complex multiply an entry, with the cached
    twiddles ``w`` or, when None, each slice's :func:`_twiddle_block`.  Only
    the on-grid values of each FFT row, the slices of :func:`_geometry`, are
    read."""
    M, mirrored = len(acf), acf.dtype != complex
    _, height, first, picks = _geometry(oversample, mirrored)
    step, width = max(1, _GRID_BLOCK // M), min(M, _GRID_BLOCK)
    block = np.empty((min(step, height), M), dtype=complex)
    period, peak = len(picks), 0.0
    for r in range(0, height, step):
        rows = block[: min(step, height - r)]
        for c in range(0, M, width):
            cols = slice(c, c + width)
            t = _twiddle_block(M // 2, oversample, mirrored, r, r + len(rows), cols) if w is None else w[r : r + len(rows), cols]
            np.multiply(t, acf[cols], out=rows[:, cols])
        grid = np.fft.fft(rows, axis=1, out=rows).view(np.float64)
        skip = r == 0  # FFT row 0 has picks of its own
        if skip:
            peak = max(peak, *(float(grid[0, s].max()) for s in first))
        for i in range(skip, min(skip + period, len(rows))):
            peak = max(peak, *(float(grid[i::period, s].max()) for s in picks[(r + i) % period]))
    return peak


def pmepr(a: PolyphaseSeq, oversample: int = 64) -> float:
    """Peak-to-mean envelope power ratio, sampled on an oversampled grid.

    The grid is P(t) at the ``N = oversample * L`` equispaced points ``t =
    -k / N`` of one symbol period, a point set symmetric under ``t -> -t``:
    the values ``|fft(a, N)|^2`` of the zero-padded FFT, sampled from the
    autocorrelation as the module docstring describes.  The mean power is
    A(0), the number of live positions (= L for a full sequence).  The
    returned value is a slight underestimate of the true supremum, while
    :func:`pmepr_autocorr_bound` gives a certified overestimate.

    Memory, under tracemalloc: the autocorrelation holds 32 L bytes while
    the grid is swept (16 L for q = 2, where it is real), and the sweep about
    32 L bytes + 2.2 MiB (one block of rows and a block of twiddles), so 64 L
    + 2.2 MiB in all (48 L + 2.2 MiB for q = 2): 1.0 GiB at L = 2^24, the
    largest sequence (0.75 GiB for q = 2).  None of the sweep stays held
    after the call.  A grid of at most 2^18 points caches its packed
    twiddles: 8 * oversample * L bytes for q > 2 when 4 divides the
    oversample (2 MiB at L = 4096, oversample 64) and ``(oversample // 8 +
    1) * 32 L`` for q = 2, at most ``16 (oversample + 1) L`` otherwise.

    ``oversample`` must be an integer >= 1 (bools are refused), else
    ``ValueError``; a grid of more than 2^30 points (L = 2^24 at oversample
    64) raises :class:`~cskit.errors.SizeLimitError` before anything is
    allocated.  A sequence with no live position raises
    :class:`~cskit.errors.EmptySequenceError`.
    """
    L = len(a)
    oversample = _grid_factor(oversample, L)
    live = _live_count(a)
    acf = _autocorrelation(a)
    w = _twiddles(L, oversample, a.q == 2) if oversample * L <= _CACHED_GRID else None
    return _grid_peak(acf, w, oversample) / live


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
    remaining line carries one sequence as whitespace-separated symbols, each
    ASCII digits with an optional sign, and the header's q is ASCII digits.  A
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
                    value = tokens[-1][2:]
                    if not (value.isascii() and value.isdigit()):
                        raise ParseError(f"bad header value {tokens[-1]!r}")
                    q = int(value)
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
                v = _ascii_int(tok)
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
