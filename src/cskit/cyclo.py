"""Exact arithmetic with power-of-two roots of unity.

Correlation values of polyphase sequences with q = 2**h phases are integer
combinations of ``omega^j`` (``omega = exp(2*pi*1j/q)``).  Because the
minimal polynomial of ``omega`` over the rationals is ``X^{q/2} + 1``, the
powers ``omega^0 .. omega^{q/2 - 1}`` form an integral basis and the
representation below is canonical: equality of :class:`CycloValue` instances
is exact equality of the underlying algebraic numbers.  This is what lets the
toolkit decide "is this correlation exactly zero?" without floating point.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Iterable, Sequence

from .gbf import _require_power_of_two

__all__ = ["CycloValue"]


@dataclass(frozen=True, order=False)
class CycloValue:
    """An element of Z[omega], omega a primitive q-th root of unity, q = 2**h.

    ``coeffs[j]`` is the integer coefficient of ``omega^j`` for
    ``0 <= j < q/2``; higher powers are reduced with
    ``omega^(j + q/2) = -omega^j``.
    """

    q: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        _require_power_of_two(self.q, "a cyclotomic value")
        if len(self.coeffs) != self.q // 2:
            raise ValueError(f"need exactly q/2 = {self.q // 2} coefficients")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, q: int) -> CycloValue:
        return cls(q, (0,) * (q // 2))

    @classmethod
    def from_int(cls, q: int, n: int) -> CycloValue:
        return cls(q, (n,) + (0,) * (q // 2 - 1))

    @classmethod
    def from_power(cls, q: int, exponent: int) -> CycloValue:
        """The exact value ``omega^exponent``."""
        return cls.from_int(q, 1).times_power(exponent)

    @classmethod
    def from_counts(cls, q: int, counts: Sequence[int]) -> CycloValue:
        """Sum of ``counts[e]`` copies of ``omega^e`` for e = 0 .. q-1."""
        if len(counts) != q:
            raise ValueError(f"need q = {q} counts")
        half = q // 2
        return cls(q, tuple(int(counts[j]) - int(counts[j + half]) for j in range(half)))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: CycloValue) -> CycloValue:
        if not isinstance(other, CycloValue):
            return NotImplemented
        self._check(other)
        return CycloValue(self.q, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: CycloValue) -> CycloValue:
        if not isinstance(other, CycloValue):
            return NotImplemented
        self._check(other)
        return CycloValue(self.q, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> CycloValue:
        return CycloValue(self.q, tuple(-a for a in self.coeffs))

    def scale(self, n: int) -> CycloValue:
        return CycloValue(self.q, tuple(n * a for a in self.coeffs))

    def times_power(self, exponent: int) -> CycloValue:
        """Multiply by ``omega^exponent`` (an exact rotation of the basis)."""
        half = self.q // 2
        out = [0] * half
        for j, a in enumerate(self.coeffs):
            if not a:
                continue
            k = (j + exponent) % self.q
            if k < half:
                out[k] += a
            else:
                out[k - half] -= a
        return CycloValue(self.q, tuple(out))

    def conj(self) -> CycloValue:
        """Complex conjugate: ``omega^j -> omega^{-j}``."""
        half = self.q // 2
        out = [0] * half
        out[0] = self.coeffs[0]
        for j in range(1, half):
            out[half - j] -= self.coeffs[j]
        return CycloValue(self.q, tuple(out))

    # -- queries -----------------------------------------------------------

    def _check(self, other: CycloValue) -> None:
        if self.q != other.q:
            raise ValueError(f"mixed moduli: {self.q} vs {other.q}")

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __complex__(self) -> complex:
        omega = cmath.exp(2j * cmath.pi / self.q)
        return sum(a * omega**j for j, a in enumerate(self.coeffs) if a) or 0j

    def __abs__(self) -> float:
        return abs(complex(self))

    def __repr__(self) -> str:
        if self.is_zero():
            return f"CycloValue.zero({self.q})"
        body = " + ".join(f"{a}*w{j}" for j, a in enumerate(self.coeffs) if a)
        return f"<CycloValue q={self.q}: {body}>"


def cyclo_sum(q: int, values: Iterable[CycloValue]) -> CycloValue:
    total = CycloValue.zero(q)
    for v in values:
        total = total + v
    return total
