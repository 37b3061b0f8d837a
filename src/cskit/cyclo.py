"""Exact values in Z[omega], omega a power-of-two root of unity.

Correlation values of polyphase sequences with q = 2**h phases are integer
combinations of ``omega^j`` (``omega = exp(2*pi*1j/q)``).  Because the
minimal polynomial of ``omega`` over the rationals is ``X^{q/2} + 1``, the
powers ``omega^0 .. omega^{q/2 - 1}`` form an integral basis and the
representation below is canonical: equality of :class:`CycloValue` instances
is exact equality of the underlying algebraic numbers.  This is what lets the
toolkit decide "is this correlation exactly zero?" without floating point.
Correlations are summed as integer arrays; a :class:`CycloValue` is the
read-only view of one entry, with equality, conjugation and the complex
embedding, and no arithmetic of its own.

This module is the one place that knows the basis.  An element is held as
its q/2 integer coordinates (a row of an int64 array, or ``coeffs``), and
``_fold`` turns a residue histogram (``counts[e]`` copies of ``omega^e``)
into coordinates by ``omega^(j + q/2) = -omega^j``.  ``_embed`` is the one
float embedding, ``sum_j c_j omega^j`` with ``omega^j = cmath.exp(2 pi i /
q) ** j`` summed in ascending j.  ``_from_conjugates`` is the conjugate
solve: an element is fixed by its Galois conjugates ``sigma_e = sum_j c_j
omega^(e j)`` at the odd e < q (``sigma_(q-e)`` is ``conj(sigma_e)``), whose
Vandermonde matrix is a size-q/2 DFT scaled by ``diag(omega^j)``, so its
inverse is ``V^H / (q/2)``.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .gbf import _index, _require_dense_modulus, _roots

__all__ = ["CycloValue"]


def _fold(counts: np.ndarray) -> np.ndarray:
    """Coordinates of ``sum_e counts[..., e] omega^e``: a residue histogram of
    length q on the last axis becomes q/2 coordinates."""
    half = counts.shape[-1] // 2
    return counts[..., :half] - counts[..., half:]


def _embed(coeffs: np.ndarray | Sequence[int], q: int) -> np.ndarray:
    """The complex value ``sum_j c_j omega^j`` of the coordinates on the last axis."""
    c, omega = np.asarray(coeffs, dtype=np.float64), cmath.exp(2j * cmath.pi / q)
    return sum(c[..., j] * omega**j for j in range(q // 2))


def _from_conjugates(sigma: Callable[[np.ndarray], np.ndarray], q: int) -> np.ndarray:
    """Float ``(n, q/2)`` coordinates of n elements from their conjugates:
    ``sigma(e)`` takes the exponents e = 2s+1, s < ceil(q/4), and returns one
    row per exponent, ``sigma_e`` of each of the n elements."""
    half = q // 2
    conjugates = sigma(np.arange(1, half + 1, 2))
    if half > 1:
        conjugates = np.concatenate([conjugates, conjugates[::-1].conj()])
    solved = np.fft.fft(conjugates, axis=0) * _roots(q, -np.arange(half) % q)[:, None]
    return solved.real.T / half


@dataclass(frozen=True, order=False)
class CycloValue:
    """An element of Z[omega], omega a primitive q-th root of unity, q = 2**h
    at most 2^MAX_VALUE_VECTOR_M (else :class:`~cskit.errors.SizeLimitError`):
    ``sum_j coeffs[j] * omega^j`` over ``0 <= j < q/2``."""

    q: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        _require_dense_modulus(self.q, "a cyclotomic value")
        object.__setattr__(self, "coeffs", tuple(_index(a, "coefficients must be integers") for a in self.coeffs))
        if len(self.coeffs) != self.q // 2:
            raise ValueError(f"need exactly q/2 = {self.q // 2} coefficients")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_int(cls, q: int, n: int) -> CycloValue:
        return cls(q, (n,) + (0,) * (q // 2 - 1))

    @classmethod
    def from_counts(cls, q: int, counts: Sequence[int]) -> CycloValue:
        """Sum of ``counts[e]`` copies of ``omega^e`` for e = 0 .. q-1."""
        if len(counts) != q:
            raise ValueError(f"need q = {q} counts")
        return cls(q, tuple(_fold(np.asarray(counts, dtype=object))))

    # -- queries -----------------------------------------------------------

    def conj(self) -> CycloValue:
        """Complex conjugate: ``omega^{-j} = -omega^{q/2 - j}`` for 0 < j < q/2."""
        return CycloValue(self.q, self.coeffs[:1] + tuple(-a for a in self.coeffs[:0:-1]))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __complex__(self) -> complex:
        return complex(_embed(self.coeffs, self.q))

    def __abs__(self) -> float:
        return abs(complex(self))

    def __repr__(self) -> str:
        if self.is_zero():
            return f"CycloValue.from_int({self.q}, 0)"
        body = " + ".join(f"{a}*w{j}" for j, a in enumerate(self.coeffs) if a)
        return f"<CycloValue q={self.q}: {body}>"

