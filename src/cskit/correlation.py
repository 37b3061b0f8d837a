"""Exact aperiodic correlation, complementarity checks, distances, envelopes.

The aperiodic cross-correlation of sequences ``a`` and ``b`` of length L at
shift ``tau >= 0`` is ``sum_{i=0}^{L-1-tau} a[i+tau] * conj(b[i])``; negative
shifts satisfy ``C_{a,b}(-tau) = conj(C_{b,a}(tau))``.  For polyphase
sequences (q = 2^h) every correlation value lies in Z[omega] and is held
exactly by its integer coordinates on the basis ``omega^0 .. omega^(q/2-1)``
of :mod:`cskit.cyclo`: a correlation vector is one int64 array of shape
``(L, q/2)``, and :class:`~cskit.cyclo.CycloValue` objects are built only
when a single value is asked for.

**Exact values from floating-point FFTs.**  An element ``c = sum_j c_j
omega^j`` is fixed by its q/2 Galois conjugates ``sigma_s(c) = sum_j c_j
omega^((2s+1) j)``, s < q/2.  This Vandermonde system is a size-q/2 DFT
scaled by ``diag(omega^j)``, so its inverse is ``V^H / (q/2)`` and it is
perfectly conditioned.  Conjugation commutes with ``sigma_s``, so
``sigma_s(C_{a,b}(tau))`` is the ordinary complex correlation of the embedded
sequences ``x_s[i] = omega^((2s+1) p[i])`` (0 where masked), which the
Wiener-Khinchin theorem gives as ``ifft(F_a * conj(F_b))`` with FFTs of
length N, the least power of two >= 2L - 1 (so no shift wraps around).  A set
sums ``|F|^2`` over its members before its one inverse transform per
embedding, and the embeddings s and q/2-1-s are complex conjugates, so a set
of n sequences costs n * ceil(q/4) forward and ceil(q/4) inverse FFTs.  The
coefficients are then solved for and rounded.

The rounded result is returned only when it is proven; otherwise the exact
shift loop runs (a phase-difference histogram per shift, O(L^2)), which is
also the reference the tests compare against.  The proof has three parts:

1. ``n * L <= FFT_SIZE_LIMIT = 2^25`` for n correlated pairs of length L.
   Higham, *Accuracy and Stability of Numerical Algorithms* (2nd ed.,
   section 24.1, Thm 24.2) bounds the relative 2-norm error of a length-N
   FFT by ``eps_N = log2(N) eta / (1 - log2(N) eta)``, with ``eta = mu +
   gamma_4 (sqrt(2) + mu)``, ``gamma_4 = 4u / (1 - 4u)``, unit roundoff
   ``u = 2^-53`` and twiddle error ``mu <= u``.  Carried through the
   embedding (|x_s[i]| <= 1), the forward transforms, the products, the
   running sum over the set, the inverse transform (whose input has 2-norm
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
directly, as ``|fft(a, oversample * L)|^2``; :func:`envelope_power` and
:func:`pmepr_autocorr_bound` use the exact autocorrelation of the second.

Masked sequences are supported throughout: positions removed by a restriction
contribute the complex value 0, and the mean power used for normalization is
the number of live positions, i.e. A(0).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cyclo import CycloValue
from .errors import EmptySequenceError, ParseError
from .gbf import PolyphaseSeq

__all__ = [
    "CorrVector",
    "AacfVector",
    "FFT_SIZE_LIMIT",
    "cross_corr",
    "aacf",
    "set_aacf",
    "is_cs",
    "lee_weight",
    "euclid_sq_weight",
    "lee_dist",
    "euclid_sq_dist",
    "min_distances",
    "envelope_power",
    "pmepr",
    "pmepr_autocorr_bound",
    "aacf_report",
    "set_report",
    "read_sequences",
    "write_sequences",
]

FFT_SIZE_LIMIT = 1 << 25  # largest n * L the FFT path accepts; derivation in the module docstring


def _shift_row(a: PolyphaseSeq, b: PolyphaseSeq, tau: int) -> np.ndarray:
    """Integer basis coefficients of C_{a,b}(tau), from a phase-difference histogram."""
    q, L, half = a.q, len(a), a.q // 2
    live = a.mask[tau:] & b.mask[: L - tau]
    diff = (a.phases[tau:][live] - b.phases[: L - tau][live]) % q
    counts = np.bincount(diff, minlength=q)
    return counts[:half] - counts[half:]


def _corr_coeff_matrix(a: PolyphaseSeq, b: PolyphaseSeq) -> np.ndarray:
    """Integer basis coefficients of C_{a,b}(tau) for tau = 0 .. L-1.

    Row tau holds q/2 integers c_j with C(tau) = sum_j c_j * omega^j.  Exact:
    the phase differences over the overlap are counted with ``bincount`` and
    the upper half of the histogram is folded in with a sign flip.  This is
    the fallback of :func:`_coeff_sum` and the reference for its FFT path.
    """
    out = np.zeros((len(a), a.q // 2), dtype=np.int64)
    for tau in range(len(a)):
        out[tau] = _shift_row(a, b, tau)
    return out


def _roots(q: int) -> np.ndarray:
    """``omega^e`` for e = 0 .. q-1."""
    return np.exp(2j * np.pi * np.arange(q) / q)


def _spectrum(a: PolyphaseSeq, exponents: np.ndarray, n: int) -> np.ndarray:
    """Length-n FFTs of the embeddings ``omega^(e * p[i])``, one row per exponent e."""
    x = _roots(a.q)[np.outer(exponents, a.phases) % a.q]
    x[:, ~a.mask] = 0
    return np.fft.fft(x, n, axis=1)


def _fft_coeffs(pairs: Sequence[tuple[PolyphaseSeq, PolyphaseSeq]], q: int, L: int) -> np.ndarray:
    """Float estimate of the summed ``(L, q/2)`` coefficient matrix of the pairs.

    One spectrum per sequence and embedding lives at a time, so memory grows
    with L, not with the number of pairs.
    """
    half = q // 2
    exponents = np.arange(1, half + 1, 2)  # 2s+1 for s < ceil(q/4); the rest are conjugates
    n = 1 << (2 * L - 2).bit_length()
    total = None
    for a, b in pairs:
        fa = _spectrum(a, exponents, n)
        prod = fa.real**2 + fa.imag**2 if b is a else fa * _spectrum(b, exponents, n).conj()
        if total is None:
            total = prod
        else:
            total += prod
    conjugates = np.fft.ifft(total, axis=1)[:, :L]  # sigma_s of every shift
    if half > 1:
        conjugates = np.concatenate([conjugates, conjugates[::-1].conj()])
    solved = np.fft.fft(conjugates, axis=0) * _roots(q)[-np.arange(half) % q, None]
    return solved.real.T / half


def _coeff_sum(pairs: Sequence[tuple[PolyphaseSeq, PolyphaseSeq]]) -> np.ndarray:
    """Exact sum over the pairs of the ``(L, q/2)`` matrices of C_{a,b}.

    The FFT estimate is returned rounded when the three-part guard of the
    module docstring proves it; otherwise the exact shift loop runs.
    """
    q, L = pairs[0][0].q, len(pairs[0][0])
    row0 = sum(_shift_row(a, b, 0) for a, b in pairs)
    if 0 < len(pairs) * L <= FFT_SIZE_LIMIT:
        estimate = _fft_coeffs(pairs, q, L)
        coeffs = np.rint(estimate)
        if np.abs(estimate - coeffs).max() < 0.25 and np.array_equal(coeffs[0], row0):
            return coeffs.astype(np.int64, order="C")
    return sum(_corr_coeff_matrix(a, b) for a, b in pairs)


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
        off = []
        for tau in self.nonzero_shifts():
            value = self.at(tau)
            off.append({"tau": tau, "value": list(value.coeffs), "abs": abs(value)})
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
    if a.q != b.q:
        raise ValueError(f"mixed moduli: {a.q} vs {b.q}")
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return CorrVector(a.q, _coeff_sum([(a, b)]))


def aacf(a: PolyphaseSeq) -> AacfVector:
    """Exact aperiodic autocorrelation of a single sequence."""
    return AacfVector(a.q, _coeff_sum([(a, a)]))


def set_aacf(seqs: Sequence[PolyphaseSeq]) -> AacfVector:
    """Sum of the member autocorrelations, exactly."""
    if not seqs:
        raise ValueError("empty sequence set")
    q, L = seqs[0].q, len(seqs[0])
    if any(s.q != q or len(s) != L for s in seqs):
        raise ValueError("sequences in a set must share modulus and length")
    return AacfVector(q, _coeff_sum([(s, s) for s in seqs]))


def is_cs(seqs: Sequence[PolyphaseSeq]) -> bool:
    """True when the summed autocorrelation vanishes at every nonzero shift."""
    return set_aacf(seqs).offpeak_is_zero()


# -- symbol-wise weights and distances ----------------------------------------


def _phase_array(x: PolyphaseSeq | Sequence[int] | np.ndarray, q: int | None) -> tuple[np.ndarray, int]:
    if isinstance(x, PolyphaseSeq):
        if not x.is_full:
            raise ValueError("weights and distances are defined for full sequences only")
        return x.phases, x.q
    if q is None:
        raise ValueError("q is required when passing a bare symbol array")
    return np.asarray(x, dtype=np.int64) % q, q


def lee_weight(x: PolyphaseSeq | Sequence[int], q: int | None = None) -> int:
    """Sum over symbols of min(a, q - a)."""
    arr, q = _phase_array(x, q)
    return int(np.minimum(arr, q - arr).sum())


def euclid_sq_weight(x: PolyphaseSeq | Sequence[int], q: int | None = None) -> float:
    """Squared Euclidean distance of omega^x from the all-ones sequence.

    Per symbol this is |omega^a - 1|^2 = 4 sin^2(pi a / q).
    """
    arr, q = _phase_array(x, q)
    return float(np.sum(4.0 * np.sin(np.pi * arr / q) ** 2))


def lee_dist(a, b, q: int | None = None) -> int:
    xa, qa = _phase_array(a, q)
    xb, qb = _phase_array(b, q)
    if qa != qb or len(xa) != len(xb):
        raise ValueError("distance needs equal-length sequences over one modulus")
    return lee_weight((xa - xb) % qa, qa)


def euclid_sq_dist(a, b, q: int | None = None) -> float:
    xa, qa = _phase_array(a, q)
    xb, qb = _phase_array(b, q)
    if qa != qb or len(xa) != len(xb):
        raise ValueError("distance needs equal-length sequences over one modulus")
    return euclid_sq_weight((xa - xb) % qa, qa)


def min_distances(seqs: Sequence[PolyphaseSeq | Sequence[int]], q: int | None = None) -> tuple[int, float]:
    """Minimum pairwise (Lee, squared-Euclidean) distances over a code.

    Duplicate sequences are reported with a warning and the offending pairs
    are skipped, so the result describes the distinct codewords.
    """
    arrs = []
    for s in seqs:
        arr, qq = _phase_array(s, q)
        q = qq
        arrs.append(arr)
    if len(arrs) < 2:
        raise ValueError("need at least two sequences")
    mat = np.stack(arrs)
    best_lee: int | None = None
    best_euc: float | None = None
    dupes = 0
    for i in range(len(mat) - 1):
        diff = (mat[i + 1 :] - mat[i]) % q
        nz = diff.any(axis=1)
        dupes += int((~nz).sum())
        if not nz.any():
            continue
        live = diff[nz]
        lee = np.minimum(live, q - live).sum(axis=1).min()
        euc = (4.0 * np.sin(np.pi * live / q) ** 2).sum(axis=1).min()
        best_lee = int(lee) if best_lee is None else min(best_lee, int(lee))
        best_euc = float(euc) if best_euc is None else min(best_euc, float(euc))
    if dupes:
        warnings.warn(f"{dupes} duplicate sequence pair(s) skipped in distance computation")
    if best_lee is None:
        raise ValueError("all sequences are identical; no nonzero distance exists")
    return best_lee, best_euc


# -- envelope statistics -------------------------------------------------------


def _acf_complex(vec: AacfVector) -> np.ndarray:
    return vec.coeffs @ _roots(vec.q)[: vec.q // 2]


def _live_count(a: PolyphaseSeq) -> int:
    live = int(a.mask.sum())
    if not live:
        raise EmptySequenceError("every position is masked, so the mean envelope power is zero")
    return live


def envelope_power(a: PolyphaseSeq, t: float | Sequence[float] | np.ndarray) -> np.ndarray | float:
    """Instantaneous power P(t) at normalized time(s) t in [0, 1)."""
    acf = _acf_complex(aacf(a))
    tt = np.asarray(t, dtype=float)
    tau = np.arange(1, len(a))
    osc = np.exp(2j * np.pi * np.outer(tt, tau))
    vals = acf[0].real + 2.0 * (osc @ acf[1:]).real
    return vals if tt.ndim else float(vals[0])


def pmepr(a: PolyphaseSeq, oversample: int = 64) -> float:
    """Peak-to-mean envelope power ratio, sampled on an oversampled grid.

    The grid is ``|fft(a, oversample * L)|^2``: P(t) at the ``oversample * L``
    equispaced points ``t = -k / (oversample * L)`` of one symbol period, a
    point set symmetric under ``t -> -t``.  The mean power equals A(0), the
    number of live positions (= L for a full sequence); a sequence with none
    raises :class:`~cskit.errors.EmptySequenceError`.  The returned value is
    a slight underestimate of the true supremum, while
    :func:`pmepr_autocorr_bound` gives a certified overestimate.
    """
    if oversample < 1:
        raise ValueError("oversample must be >= 1")
    live = _live_count(a)
    spectrum = np.fft.fft(a.complex_values(), oversample * len(a))
    return float((spectrum.real**2 + spectrum.imag**2).max()) / live


def _autocorr_bound(vec: AacfVector) -> float:
    acf = _acf_complex(vec)
    a0 = acf[0].real
    return float((a0 + 2.0 * np.abs(acf[1:]).sum()) / a0)


def pmepr_autocorr_bound(a: PolyphaseSeq) -> float:
    """Upper bound (A(0) + 2 sum_{tau>0} |A(tau)|) / A(0) on the exact PMEPR."""
    _live_count(a)
    return _autocorr_bound(aacf(a))


# -- reports -------------------------------------------------------------------


def aacf_report(a: PolyphaseSeq, oversample: int = 64) -> dict:
    """JSON-ready summary of one sequence: exact AACF plus envelope numbers."""
    vec = aacf(a)
    report = vec.to_json()
    report["pmepr_grid"] = pmepr(a, oversample)
    report["pmepr_bound"] = _autocorr_bound(vec)
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


def read_sequences(text: str, q: int) -> list[PolyphaseSeq]:
    """Parse sequences from text.

    Lines starting with ``#`` (and inline ``#`` comments) are ignored.  Each
    remaining line carries one sequence as whitespace-separated symbols; as a
    convenience, a file whose every line holds a single symbol is read as one
    column-format sequence.
    """
    rows: list[list[int]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        row = []
        for tok in body.split():
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
        rows = [[r[0] for r in rows]]
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
