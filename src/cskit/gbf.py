"""Polynomials over binary variables with integer-residue coefficients.

A ``GbfPoly`` is a multilinear polynomial in variables ``x0 .. x{m-1}`` taking
values 0 or 1, with coefficients in ``Z_q`` (q even).  Every function from
``{0,1}^m`` to ``Z_q`` has exactly one such representation, so the term table
is a canonical form: monomials are variable subsets stored as bitmasks, zero
coefficients are dropped, and terms are kept sorted.

The point ``i`` of the domain is identified with the bit pattern of the
integer ``i``: variable ``x_a`` reads bit ``a`` (least-significant first).
Under this convention the length-``2^m`` value vector of ``f`` lists
``f(0), f(1), ..., f(2^m - 1)`` and the unit-modulus sequence associated with
``f`` is ``omega^{f(i)}`` with ``omega = exp(2*pi*1j/q)``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import ModulusError, ParseError

__all__ = [
    "GbfPoly",
    "Restriction",
    "PolyphaseSeq",
    "parse_gbf",
    "render_gbf",
    "gbf_to_json",
    "gbf_from_json",
    "psi",
    "psi_restricted",
]


def _check_modulus(q: int) -> None:
    if not isinstance(q, int) or q < 2 or q % 2:
        raise ValueError(f"modulus must be an even integer >= 2, got {q!r}")


def _require_power_of_two(q: int, what: str) -> int:
    """Return h with q = 2**h, or raise :class:`ModulusError` for any other modulus."""
    if not isinstance(q, int) or q < 2 or q & (q - 1):
        raise ModulusError(f"{what} requires a power-of-two modulus >= 2, got q={q!r}")
    return q.bit_length() - 1


@dataclass(frozen=True)
class GbfPoly:
    """Canonical multilinear polynomial ``{0,1}^m -> Z_q``.

    ``terms`` maps monomial bitmasks to nonzero coefficients in ``[1, q)``;
    construct instances through :meth:`from_terms` (or the parser) so the
    canonical invariants hold.  Instances are immutable and hashable, and
    support ``+``, ``-``, ``*`` (both polynomial and integer-scalar
    products), all taken modulo q.
    """

    q: int
    m: int
    terms: tuple[tuple[int, int], ...] = field(default=())

    def __post_init__(self) -> None:
        _check_modulus(self.q)
        if not isinstance(self.m, int) or self.m < 1:
            raise ValueError(f"need at least one variable, got m={self.m!r}")
        prev = -1
        for mask, coeff in self.terms:
            if mask <= prev:
                raise ValueError("terms must be sorted by strictly increasing mask")
            if mask >> self.m:
                raise ValueError(f"monomial mask {mask:#x} references variables beyond m={self.m}")
            if not 1 <= coeff < self.q:
                raise ValueError(f"coefficient {coeff} out of range [1, {self.q})")
            prev = mask

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_terms(cls, q: int, m: int, terms: Mapping[int, int] | Iterable[tuple[int, int]]) -> GbfPoly:
        """Build a polynomial from (mask, coefficient) pairs, canonicalizing.

        Repeated masks are summed and everything is reduced mod q; zero
        coefficients disappear.
        """
        _check_modulus(q)
        acc: dict[int, int] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for mask, coeff in items:
            acc[mask] = (acc.get(mask, 0) + coeff) % q
        packed = tuple(sorted((mask, c) for mask, c in acc.items() if c))
        return cls(q, m, packed)

    @classmethod
    def zero(cls, q: int, m: int) -> GbfPoly:
        return cls(q, m, ())

    @classmethod
    def const(cls, q: int, m: int, value: int) -> GbfPoly:
        return cls.from_terms(q, m, {0: value})

    @classmethod
    def variable(cls, q: int, m: int, index: int) -> GbfPoly:
        if not 0 <= index < m:
            raise ValueError(f"variable index {index} out of range for m={m}")
        return cls(q, m, ((1 << index, 1),))

    @classmethod
    def monomial(cls, q: int, m: int, variables: Iterable[int], coeff: int = 1) -> GbfPoly:
        mask = 0
        for v in variables:
            if not 0 <= v < m:
                raise ValueError(f"variable index {v} out of range for m={m}")
            mask |= 1 << v
        return cls.from_terms(q, m, {mask: coeff})

    # -- views -------------------------------------------------------------

    def coeff(self, mask: int) -> int:
        """Coefficient of the monomial with variable set ``mask`` (0 if absent)."""
        for tm, c in self.terms:
            if tm == mask:
                return c
        return 0

    def linear_coeff(self, index: int) -> int:
        """Coefficient of the bare variable ``x_index``."""
        return self.coeff(1 << index)

    @property
    def constant(self) -> int:
        return self.coeff(0)

    def support(self) -> int:
        """Bitmask of every variable that occurs in some term."""
        mask = 0
        for tm, _ in self.terms:
            mask |= tm
        return mask

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Largest monomial size; constants (and the zero polynomial) have degree 0."""
        return max((tm.bit_count() for tm, _ in self.terms), default=0)

    def effective_degree(self) -> int:
        """Degree after discounting powers of two in the coefficients.

        With q = 2**h, split f by residue layers: for each i < h reduce the
        coefficients mod 2**(i+1) and, when anything survives, record
        ``degree - i``.  The maximum over the surviving layers is the
        effective degree; a coefficient divisible by ``2**i`` therefore weighs
        as if its monomial were i steps smaller.  Returns 0 for the zero
        polynomial and may be negative (e.g. the constant 2 at q = 4 gives
        -1).
        """
        h = _require_power_of_two(self.q, "effective degree")
        best: int | None = None
        for i in range(h):
            mod = 1 << (i + 1)
            deg = max((tm.bit_count() for tm, c in self.terms if c % mod), default=-1)
            if deg >= 0:
                d = deg - i
                best = d if best is None else max(best, d)
        return 0 if best is None else best

    # -- algebra -----------------------------------------------------------

    def _compatible(self, other: GbfPoly) -> None:
        if self.q != other.q or self.m != other.m:
            raise ValueError(
                f"mixed domains: (q={self.q}, m={self.m}) vs (q={other.q}, m={other.m})"
            )

    def __add__(self, other: GbfPoly | int) -> GbfPoly:
        if isinstance(other, int):
            other = GbfPoly.const(self.q, self.m, other)
        if not isinstance(other, GbfPoly):
            return NotImplemented
        self._compatible(other)
        return GbfPoly.from_terms(self.q, self.m, list(self.terms) + list(other.terms))

    __radd__ = __add__

    def __neg__(self) -> GbfPoly:
        return GbfPoly(self.q, self.m, tuple((tm, self.q - c) for tm, c in self.terms))

    def __sub__(self, other: GbfPoly | int) -> GbfPoly:
        if isinstance(other, int):
            other = GbfPoly.const(self.q, self.m, other)
        if not isinstance(other, GbfPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: GbfPoly | int) -> GbfPoly:
        if isinstance(other, int):
            return GbfPoly.from_terms(self.q, self.m, ((tm, c * other) for tm, c in self.terms))
        if not isinstance(other, GbfPoly):
            return NotImplemented
        self._compatible(other)
        prods = (
            (tm1 | tm2, c1 * c2)
            for tm1, c1 in self.terms
            for tm2, c2 in other.terms
        )
        return GbfPoly.from_terms(self.q, self.m, prods)

    __rmul__ = __mul__

    # -- evaluation --------------------------------------------------------

    def __call__(self, point: int | Sequence[int]) -> int:
        """Evaluate at a point given as an integer bit pattern or a bit tuple.

        A sequence ``(b0, b1, ...)`` assigns ``x_a = b_a``; an integer ``i``
        assigns ``x_a`` the a-th bit of ``i``.
        """
        if not isinstance(point, int):
            bits = list(point)
            if len(bits) != self.m or any(b not in (0, 1) for b in bits):
                raise ValueError(f"point must be {self.m} bits")
            point = sum(b << a for a, b in enumerate(bits))
        if point >> self.m or point < 0:
            raise ValueError(f"point {point} out of range for m={self.m}")
        total = 0
        for tm, c in self.terms:
            if point & tm == tm:
                total += c
        return total % self.q

    def value_vector(self) -> np.ndarray:
        """All ``2^m`` values ``f(0) .. f(2^m - 1)`` as an int64 array."""
        idx = np.arange(1 << self.m, dtype=np.int64)
        total = np.zeros(1 << self.m, dtype=np.int64)
        for tm, c in self.terms:
            total += c * ((idx & tm) == tm)
        return total % self.q

    # -- restriction -------------------------------------------------------

    def restrict(self, restriction: Restriction) -> GbfPoly:
        """Substitute fixed bits for the restricted variables and re-canonicalize.

        The result lives on the same m variables (indices are preserved); the
        restricted ones simply no longer occur.  Reduction mod q happens after
        substitution, so terms may cancel.
        """
        fixed_mask = restriction.variable_mask(self.m)
        ones = restriction.ones_mask()
        out: list[tuple[int, int]] = []
        for tm, c in self.terms:
            hit = tm & fixed_mask
            if hit & ~ones:
                continue  # some factor is pinned to 0
            out.append((tm & ~fixed_mask, c))
        return GbfPoly.from_terms(self.q, self.m, out)

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        return render_gbf(self)

    def __repr__(self) -> str:
        return f"GbfPoly.parse({render_gbf(self)!r})"

    @staticmethod
    def parse(text: str) -> GbfPoly:
        return parse_gbf(text)


@dataclass(frozen=True)
class Restriction:
    """An assignment of fixed bits to a subset of the variables.

    ``indices`` are distinct and sorted ascending; ``bits[a]`` is the value
    assigned to the a-th smallest restricted index.  The empty restriction is
    allowed and acts as the identity.
    """

    indices: tuple[int, ...]
    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.indices) != len(self.bits):
            raise ValueError("indices and bits must have equal length")
        if list(self.indices) != sorted(set(self.indices)):
            raise ValueError("indices must be distinct and sorted ascending")
        if any(i < 0 for i in self.indices):
            raise ValueError("indices must be nonnegative")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("bits must be 0 or 1")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> Restriction:
        ordered = sorted(pairs)
        return cls(tuple(i for i, _ in ordered), tuple(b for _, b in ordered))

    @classmethod
    def assign(cls, indices: Iterable[int], word: int) -> Restriction:
        """Assign bit a of ``word`` to the a-th smallest of ``indices``."""
        idx = sorted(indices)
        return cls(tuple(idx), tuple((word >> a) & 1 for a in range(len(idx))))

    def __len__(self) -> int:
        return len(self.indices)

    def pairs(self) -> Iterator[tuple[int, int]]:
        return zip(self.indices, self.bits)

    def variable_mask(self, m: int) -> int:
        mask = 0
        for i in self.indices:
            if i >= m:
                raise ValueError(f"restricted index {i} out of range for m={m}")
            mask |= 1 << i
        return mask

    def ones_mask(self) -> int:
        mask = 0
        for i, b in self.pairs():
            if b:
                mask |= 1 << i
        return mask

    def word(self) -> int:
        """The assigned bits packed into an integer (a-th smallest index -> bit a)."""
        return sum(b << a for a, b in enumerate(self.bits))

    def bitstring(self) -> str:
        """Bits in index order, smallest restricted index first."""
        return "".join(str(b) for b in self.bits)

    def matches(self, point: int) -> bool:
        for i, b in self.pairs():
            if (point >> i) & 1 != b:
                return False
        return True

    def selector(self, m: int) -> np.ndarray:
        """Boolean mask over the 2^m points selecting those that match."""
        idx = np.arange(1 << m, dtype=np.int64)
        keep = np.ones(1 << m, dtype=bool)
        for i, b in self.pairs():
            keep &= ((idx >> i) & 1) == b
        return keep


class PolyphaseSeq:
    """A length-``2^m`` polyphase sequence, possibly with masked-out entries.

    ``phases[i]`` is the exponent of ``omega = exp(2*pi*1j/q)`` at position
    ``i``; where ``mask`` is False the entry is the complex number 0 (used for
    restricted sequences, which keep their original positions).  ``q`` must
    be a power of two, as exact correlation in Z[omega] requires.
    """

    __slots__ = ("q", "phases", "mask")

    def __init__(self, q: int, phases: np.ndarray | Sequence[int], mask: np.ndarray | None = None):
        _require_power_of_two(q, "a polyphase sequence")
        self.q = q
        self.phases = np.asarray(phases, dtype=np.int64) % q
        if self.phases.ndim != 1:
            raise ValueError("phases must be one-dimensional")
        if mask is None:
            self.mask = np.ones(len(self.phases), dtype=bool)
        else:
            self.mask = np.asarray(mask, dtype=bool)
            if self.mask.shape != self.phases.shape:
                raise ValueError("mask and phases must have the same length")

    def __len__(self) -> int:
        return len(self.phases)

    @property
    def is_full(self) -> bool:
        return bool(self.mask.all())

    def complex_values(self) -> np.ndarray:
        """The sequence as complex values (masked entries are exactly 0)."""
        roots = np.exp(2j * np.pi * np.arange(self.q) / self.q)
        return np.where(self.mask, roots[self.phases], 0.0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolyphaseSeq):
            return NotImplemented
        return (
            self.q == other.q
            and np.array_equal(self.mask, other.mask)
            and np.array_equal(self.phases[self.mask], other.phases[other.mask])
        )

    def __repr__(self) -> str:
        masked = "" if self.is_full else f", {int(self.mask.sum())} live entries"
        return f"<PolyphaseSeq q={self.q} L={len(self)}{masked}>"

    def to_text(self) -> str:
        """Whitespace-separated digits, one per line (full sequences only)."""
        if not self.is_full:
            raise ValueError("masked sequences have no text representation")
        return "\n".join(str(int(p)) for p in self.phases) + "\n"

    @classmethod
    def from_text(cls, text: str, q: int) -> PolyphaseSeq:
        digits = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            body = line.split("#", 1)[0]
            for tok in body.split():
                try:
                    v = int(tok)
                except ValueError:
                    raise ParseError(f"line {lineno}: {tok!r} is not an integer") from None
                if not 0 <= v < q:
                    raise ParseError(f"line {lineno}: symbol {v} out of range for q={q}")
                digits.append(v)
        if not digits:
            raise ParseError("no symbols found")
        return cls(q, digits)


def psi(f: GbfPoly) -> PolyphaseSeq:
    """The polyphase sequence ``omega^{f(i)}``, i = 0 .. 2^m - 1."""
    _require_power_of_two(f.q, "sequence construction")
    return PolyphaseSeq(f.q, f.value_vector())


def psi_restricted(f: GbfPoly, restriction: Restriction) -> PolyphaseSeq:
    """Like :func:`psi` but zeroing every position that disagrees with the
    restriction; surviving entries keep their original positions."""
    _require_power_of_two(f.q, "sequence construction")
    return PolyphaseSeq(f.q, f.value_vector(), restriction.selector(f.m))


# -- text format -------------------------------------------------------------

_HEAD_RE = re.compile(r"^q=(\d+);m=(\d+);(.*)$")
_VAR_RE = re.compile(r"^x(\d+)$")


def parse_gbf(text: str) -> GbfPoly:
    """Parse ``q=<int>;m=<int>; <term> + <term> + ...``.

    A term is either a bare integer constant or an optional ``<coeff>*``
    prefix followed by ``x<i>`` factors joined by ``*``.  Whitespace is
    ignored everywhere.  Repeated monomials are summed mod q (so the result
    may be the zero polynomial); repeated variables within one term collapse,
    since the variables only take values 0 and 1.
    """
    squeezed = re.sub(r"\s+", "", text)
    match = _HEAD_RE.match(squeezed)
    if not match:
        raise ParseError("expected 'q=<int>;m=<int>;<terms>'")
    q, m, body = int(match.group(1)), int(match.group(2)), match.group(3)
    if q < 2 or q % 2:
        raise ParseError(f"modulus must be even and >= 2, got q={q}")
    if m < 1:
        raise ParseError(f"need at least one variable, got m={m}")
    if not body:
        raise ParseError("empty term list (write an explicit 0 for the zero polynomial)")
    terms: list[tuple[int, int]] = []
    for raw in body.split("+"):
        if not raw:
            raise ParseError("empty term (stray '+'?)")
        factors = raw.split("*")
        coeff = 1
        start = 0
        if factors[0].isdigit():
            coeff = int(factors[0])
            start = 1
        elif not _VAR_RE.match(factors[0]):
            raise ParseError(f"bad term {raw!r}")
        mask = 0
        for fac in factors[start:]:
            vm = _VAR_RE.match(fac)
            if not vm:
                raise ParseError(f"bad factor {fac!r} in term {raw!r}")
            idx = int(vm.group(1))
            if idx >= m:
                raise ParseError(f"variable x{idx} out of range for m={m}")
            mask |= 1 << idx
        if start == 1 and len(factors) == 1:
            mask = 0  # pure constant
        terms.append((mask, coeff))
    return GbfPoly.from_terms(q, m, terms)


def _term_text(mask: int, coeff: int) -> str:
    if mask == 0:
        return str(coeff)
    vars_part = "*".join(f"x{i}" for i in range(mask.bit_length()) if (mask >> i) & 1)
    return vars_part if coeff == 1 else f"{coeff}*{vars_part}"


def render_gbf(f: GbfPoly) -> str:
    """Canonical text form; ``parse_gbf(render_gbf(f)) == f``.

    Terms are printed highest degree first, ties broken by variable indices,
    with the constant last.
    """

    def key(item: tuple[int, int]):
        mask, _ = item
        return (-mask.bit_count(), [i for i in range(mask.bit_length()) if (mask >> i) & 1])

    body = " + ".join(_term_text(mask, c) for mask, c in sorted(f.terms, key=key))
    if not body:
        body = "0"
    return f"q={f.q};m={f.m}; {body}"


# -- JSON --------------------------------------------------------------------


def gbf_to_json(f: GbfPoly) -> dict:
    """A stable dict form: ``{"q": .., "m": .., "terms": [{"vars": [...], "coeff": ..}]}``."""
    items = []
    for mask, coeff in sorted(f.terms, key=lambda t: (t[0].bit_count(), t[0])):
        variables = [i for i in range(mask.bit_length()) if (mask >> i) & 1]
        items.append({"vars": variables, "coeff": int(coeff)})
    return {"q": f.q, "m": f.m, "terms": items}


def gbf_from_json(obj: dict | str) -> GbfPoly:
    if isinstance(obj, str):
        try:
            obj = json.loads(obj)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON: {exc}") from None
    try:
        q, m = obj["q"], obj["m"]
        pairs = []
        for item in obj["terms"]:
            mask = 0
            for v in item["vars"]:
                mask |= 1 << int(v)
            pairs.append((mask, int(item["coeff"])))
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed polynomial object: {exc}") from None
    if not isinstance(q, int) or q < 2 or q % 2:
        raise ParseError(f"modulus must be even and >= 2, got q={q!r}")
    if not isinstance(m, int) or m < 1:
        raise ParseError(f"need at least one variable, got m={m!r}")
    for mask, _ in pairs:
        if mask >> m:
            raise ParseError(f"variable out of range for m={m}")
    return GbfPoly.from_terms(q, m, pairs)
