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
import operator
import re
from collections import deque
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ModulusError, ParseError, SizeLimitError

__all__ = [
    "MAX_VALUE_VECTOR_M",
    "MAX_PRODUCT_BYTES",
    "GbfPoly",
    "PolyphaseSeq",
    "parse_gbf",
    "render_gbf",
    "gbf_to_json",
    "gbf_from_json",
    "psi",
    "psi_restricted",
    "polys_from_rows",
    "anf_values",
    "restriction_table",
]


# Largest m whose 2^m-entry value vector is built.  At m = 24 the build peaks
# near three int64 arrays of 2^24 entries (384 MiB), and a pair of 2^24-symbol
# sequences fits one chunk of the exact FFT correlation core (n*L <= 2^25), so
# a set of any size from polynomials is summed chunk by chunk on the FFT path.
MAX_VALUE_VECTOR_M = 24

# Largest array, in bytes, whose size is a product of the modulus and a
# length.  Two are built: the builders' prediction, 2^m rows of q/2 int64
# coordinates (4 q 2^m bytes), and the exact correlation core's spectra,
# ceil(q/4) rows of N complex entries for sequences of length L, N the least
# power of two >= 2L - 1 (16 ceil(q/4) N bytes; for L >= 2 the core's q/2
# conjugate rows of L complex entries and its (L, q/2) int64 result are no
# larger).  2^30 bytes is what the spectra of the longest sequence, 2^24
# symbols (N = 2^25), take at q = 8, the largest modulus the benchmark
# verifies, and what the prediction takes at m = MAX_VALUE_VECTOR_M and
# q = 16; a shorter length admits a proportionally larger q.  Above it both
# raise SizeLimitError before anything is allocated.  The core's traced peak
# is about 3.5 times its spectra (q from 2 to 2^16), so at most about 3.5 GiB.
MAX_PRODUCT_BYTES = 1 << 30


def _require_product_bytes(nbytes: int, what: str) -> None:
    """Raise :class:`SizeLimitError` when ``nbytes`` exceed :data:`MAX_PRODUCT_BYTES`."""
    if nbytes > MAX_PRODUCT_BYTES:
        raise SizeLimitError(f"{what} would take {nbytes} bytes, above the budget of {MAX_PRODUCT_BYTES} bytes")


def _require_value_vector_size(m: int) -> None:
    """Raise :class:`SizeLimitError` when 2^m entries exceed the limit."""
    if m > MAX_VALUE_VECTOR_M:
        raise SizeLimitError(f"a sequence of 2^{m} entries exceeds the limit of 2^{MAX_VALUE_VECTOR_M}")


def _require_sequence_length(n: int) -> None:
    """Raise :class:`SizeLimitError` for a sequence of more than
    2^MAX_VALUE_VECTOR_M entries, the length of the largest value vector."""
    if n > 1 << MAX_VALUE_VECTOR_M:
        raise SizeLimitError(f"a sequence of {n} entries exceeds the limit of 2^{MAX_VALUE_VECTOR_M}")


def _check_domain(q: int, m: int, error: type[ValueError] = ValueError) -> None:
    """Raise ``error`` unless q is an even int >= 2 and m an int >= 1 (bools refused)."""
    if isinstance(q, bool) or not isinstance(q, int) or q < 2 or q % 2:
        raise error(f"modulus must be an even integer >= 2, got q={q!r}")
    if isinstance(m, bool) or not isinstance(m, int) or m < 1:
        raise error(f"need at least one variable, got m={m!r}")


def _index(n: object, rule: str) -> int:
    """``n`` as a Python int; bools and non-integers raise ``ValueError(f"{rule}, got {n!r}")``."""
    if type(n) is int:  # the common case, without the lookup of operator.index
        return n
    if not isinstance(n, bool):
        try:
            return operator.index(n)
        except TypeError:
            pass
    raise ValueError(f"{rule}, got {n!r}")


def _ascii_int(text: str) -> int:
    """``text`` as an int when it is an optional sign then ASCII digits, else
    ``ValueError``: ``int()`` also reads other Unicode digits, ``_``
    separators and surrounding whitespace."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if digits.isascii() and digits.isdigit():
        return int(text)
    raise ValueError(f"expected an optional sign and ASCII digits, got {text!r}")


def _variable_bit(v: object, m: int) -> int:
    """``1 << v`` for a variable index v in [0, m), read by :func:`_index`."""
    v = _index(v, "variable indices must be integers")
    if not 0 <= v < m:
        raise ValueError(f"variable index {v} out of range for m={m}")
    return 1 << v


def _word_text(word: int, k: int) -> str:
    """The k bits of a restriction word, bit 0 (the smallest restricted index) first."""
    return format(word, f"0{k}b")[::-1] if k else ""


def _require_power_of_two(q: int, what: str) -> int:
    """Return h with q = 2**h, or raise :class:`ModulusError` for any other modulus."""
    if not isinstance(q, int) or q < 2 or q & (q - 1):
        raise ModulusError(f"{what} requires a power-of-two modulus >= 2, got q={q!r}")
    return q.bit_length() - 1


def _require_dense_modulus(q: int, what: str) -> None:
    """:func:`_require_power_of_two`, then :class:`SizeLimitError` above
    q = 2^MAX_VALUE_VECTOR_M: an exact value's q/2 coordinates are a dense
    array, like a value vector."""
    _require_power_of_two(q, what)
    if q > 1 << MAX_VALUE_VECTOR_M:
        raise SizeLimitError(f"{what} with q={q} exceeds the modulus limit of 2^{MAX_VALUE_VECTOR_M}")


def _roots(q: int, exponents: np.ndarray) -> np.ndarray:
    """``omega^e`` for every entry e in [0, q) of an integer array, each as
    ``exp(2j * pi * e / q)``.  The q-entry table of every root is built only
    when it is no longer than the array; otherwise each entry is evaluated
    by the same expression, which gives the same bits without a table that
    grows with q."""
    if q <= exponents.size:
        return np.exp(2j * np.pi * np.arange(q) / q)[exponents]
    return np.exp(2j * np.pi * exponents / q)


@dataclass(frozen=True, slots=True)
class GbfPoly:
    """Canonical multilinear polynomial ``{0,1}^m -> Z_q``.

    ``terms`` maps monomial bitmasks to nonzero coefficients in ``[1, q)``;
    construct instances through :meth:`from_terms` (or the parser) so the
    canonical invariants hold.  Instances are immutable and hashable, and
    slotted: they hold ``q``, ``m`` and ``terms`` in slots, with no
    ``__dict__``.  ``+`` adds a polynomial or an int and ``*`` scales by an
    int, both modulo q; an int is read by :func:`_index`, so a bool raises
    ``ValueError``.
    """

    q: int
    m: int
    terms: tuple[tuple[int, int], ...] = field(default=())

    def __post_init__(self) -> None:
        _check_domain(self.q, self.m)
        prev = -1
        for mask, coeff in self.terms:
            mask, coeff = _index(mask, "monomial masks must be integers"), _index(coeff, "coefficients must be integers")
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
        _check_domain(q, m)
        acc: dict[int, int] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for mask, coeff in items:
            mask = _index(mask, "monomial masks must be integers")
            acc[mask] = (acc.get(mask, 0) + _index(coeff, "coefficients must be integers")) % q
        packed = tuple(sorted((mask, c) for mask, c in acc.items() if c))
        return cls(q, m, packed)

    @classmethod
    def variable(cls, q: int, m: int, index: int) -> GbfPoly:
        return cls.monomial(q, m, [index])

    @classmethod
    def monomial(cls, q: int, m: int, variables: Iterable[int]) -> GbfPoly:
        mask = 0
        for v in variables:
            mask |= _variable_bit(v, m)
        return cls.from_terms(q, m, {mask: 1})

    # -- views -------------------------------------------------------------

    def coeff(self, mask: int) -> int:
        """Coefficient of the monomial with variable set ``mask`` (0 if absent)."""
        for tm, c in self.terms:
            if tm == mask:
                return c
        return 0

    def linear_coeff(self, index: int) -> int:
        """Coefficient of the bare variable ``x_index``."""
        return self.coeff(_variable_bit(index, self.m))

    def support(self) -> int:
        """Bitmask of every variable that occurs in some term."""
        mask = 0
        for tm, _ in self.terms:
            mask |= tm
        return mask

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

    def __add__(self, other: GbfPoly | int) -> GbfPoly:
        if isinstance(other, int):
            other = GbfPoly.from_terms(self.q, self.m, {0: other})
        if not isinstance(other, GbfPoly):
            return NotImplemented
        if self.q != other.q or self.m != other.m:
            raise ValueError(
                f"mixed domains: (q={self.q}, m={self.m}) vs (q={other.q}, m={other.m})"
            )
        return GbfPoly.from_terms(self.q, self.m, list(self.terms) + list(other.terms))

    __radd__ = __add__

    def __mul__(self, other: int) -> GbfPoly:
        if not isinstance(other, int):
            return NotImplemented
        other = _index(other, "coefficients must be integers")  # a bool is refused, as by +
        return GbfPoly.from_terms(self.q, self.m, ((tm, c * other) for tm, c in self.terms))

    __rmul__ = __mul__

    # -- evaluation --------------------------------------------------------

    def __call__(self, point: int | Sequence[int]) -> int:
        """Evaluate at a point given as an integer bit pattern or a bit tuple.

        A sequence ``(b0, b1, ...)`` assigns ``x_a = b_a``; an integer ``i``
        assigns ``x_a`` the a-th bit of ``i``.
        """
        if not isinstance(point, Iterable):
            point = _index(point, "a point must be an integer or a sequence of bits")
        else:
            bits = [_index(b, f"point must be {self.m} bits") for b in point]
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
        """All ``2^m`` values ``f(0) .. f(2^m - 1)`` as an int64 array.

        The zeta (Moebius) transform of the coefficients over the Boolean
        lattice (:func:`anf_values`): O(m * 2^m) whatever the number of
        terms.  Raises :class:`SizeLimitError`, before allocating, when m
        exceeds :data:`MAX_VALUE_VECTOR_M`.
        """
        return anf_values(self.q, self.m, [tm for tm, _ in self.terms], [[c for _, c in self.terms]])[0]

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        return render_gbf(self)

    def __repr__(self) -> str:
        return f"parse_gbf({render_gbf(self)!r})"


def polys_from_rows(q: int, m: int, cols: np.ndarray, rows: np.ndarray) -> list[GbfPoly]:
    """One polynomial per row of Z_q ANF coefficients over the monomial masks
    ``cols``, trusted: with ``cols`` strictly ascending below 2^m and every
    entry in [0, q), a row's nonzero entries are a canonical term table, so
    no validation runs.

    A term is a ``(mask, coefficient)`` tuple of Python ints.  When there
    are at least q rows, each distinct pair of the chunk is built once,
    found through the dense ``column * q + coefficient`` index (at most
    ``len(cols) * q <= rows.size`` cells), and every word holding it holds
    the same tuple; tuples are immutable, so sharing them changes no
    polynomial, its ``==``, ``hash`` or text.  With fewer rows than q (one
    row of :func:`_poly_from_parts`, or a modulus too large for a dense
    index, up to q = 2^64) each term is a fresh tuple.

    No Python loop runs per word: the instances come from ``object.__new__``
    and their fields are written through the slot descriptors, each driven
    by ``map``.  That skips the frozen ``__setattr__`` here only; the
    finished instances are frozen like any other."""
    width = rows.shape[1]
    flat = np.flatnonzero(rows != 0)  # NumPy finds the nonzeros of a bool array fastest
    word, col = np.divmod(flat, width)
    if len(rows) >= q:
        keys = col * q + rows.ravel()[flat].astype(np.intp)
        used = np.zeros(len(cols) * q, dtype=bool)
        used[keys] = True
        live = np.flatnonzero(used)
        pairs = np.empty(len(used), dtype=object)
        pairs[live] = np.fromiter(zip(cols[live // q].tolist(), (live % q).tolist()), dtype=object, count=len(live))
        terms = tuple(pairs[keys].tolist())
    else:
        terms = tuple(zip(cols[col].tolist(), rows.ravel()[flat].tolist()))
    ends = np.searchsorted(word, np.arange(1, len(rows) + 1)).tolist()
    out = list(map(object.__new__, repeat(GbfPoly, len(rows))))
    deque(map(GbfPoly.q.__set__, out, repeat(q)), 0)
    deque(map(GbfPoly.m.__set__, out, repeat(m)), 0)
    deque(map(GbfPoly.terms.__set__, out, map(terms.__getitem__, map(slice, [0, *ends], ends))), 0)
    return out


def anf_values(q: int, m: int, cols: np.ndarray | Sequence[int], rows: np.ndarray | Sequence[Sequence[int]]) -> np.ndarray:
    """The ``(n, 2^m)`` int64 value vectors, mod q, of n rows of ANF
    coefficients over the distinct masks ``cols``: the zeta transform over the
    Boolean lattice (:func:`_subset_sums`).  Refuses m above the size limit
    before allocating."""
    _require_value_vector_size(m)
    vals = np.zeros((len(rows), 1 << m), dtype=np.int64)
    vals[:, cols] = rows
    return _subset_sums(vals, m) % q


def _subset_sums(vals: np.ndarray, k: int, inverse: bool = False) -> np.ndarray:
    """In place along the last axis, of length 2^k, the zeta transform: each
    entry becomes the sum of the entries whose index is a subset of its own,
    each point added into the points above it one bit at a time.  With
    ``inverse`` the points are subtracted instead: the Moebius transform."""
    step = np.subtract if inverse else np.add
    for i in range(k):
        pairs = vals.reshape(*vals.shape[:-1], vals.shape[-1] >> (i + 1), 2, 1 << i)
        step(pairs[..., 1, :], pairs[..., 0, :], out=pairs[..., 1, :])
    return vals


def _cell_dtype(bound: int) -> np.dtype:
    """int64 when every intermediate stays below ``bound <= 2^63``, else
    Python ints (object): the same transforms stay exact at any size."""
    return np.dtype(np.int64) if bound <= 1 << 63 else np.dtype(object)


def _mask_dtype(m: int) -> np.dtype:
    """int64 for masks on x0 .. x62, else Python ints (object)."""
    return _cell_dtype(1 << m)


def _word_masks(variables: Sequence[int]) -> list[int]:
    """The monomial mask of each k-bit word: bit a of the word selects
    ``variables[a]``."""
    masks = [0]
    for v in variables:
        masks += [mask | 1 << v for mask in masks]
    return masks


def restriction_table(f: GbfPoly, restricted: Sequence[int]) -> tuple[list[int], np.ndarray]:
    """The coefficients of ``f`` after each of the 2^k restrictions of the
    variables ``restricted`` (distinct, ascending).

    Returns ``(units, table)``: ``units`` are the distinct unrestricted parts
    u of f's monomials, ascending, and ``table[i, w]`` is, mod q, the
    coefficient of ``x_{units[i]}`` once bit a of the word w is substituted
    for ``x_{restricted[a]}``.  A term ``c x_u x_r`` survives the word w
    exactly when r is a subset of w's ones, so the table is the zeta transform
    over the k restricted bits of f's coefficients laid out by (u, r); its
    inverse, the Moebius transform, gives the coefficients back (see
    :func:`_poly_from_parts`).  Cells hold Python ints wherever a mask bit is
    63 or more or a sum can reach 2^63.
    """
    k = len(restricted)
    masks = np.array([tm for tm, _ in f.terms], dtype=_mask_dtype(f.m))
    words = np.zeros(len(masks), dtype=np.int64)
    for a, v in enumerate(restricted):
        words |= ((masks >> v) & 1).astype(np.int64) << a
    units, row = np.unique(masks & ~sum(1 << v for v in restricted), return_inverse=True)
    table = np.zeros((len(units), 1 << k), dtype=_cell_dtype(f.q << k))
    table[row, words] = [c for _, c in f.terms]
    return units.tolist(), _subset_sums(table, k) % f.q


def _poly_from_parts(q: int, m: int, restricted: Sequence[int], units: Sequence[int], anf: np.ndarray) -> GbfPoly:
    """The polynomial whose coefficient of ``x_{units[i]} x_r`` is
    ``anf[i, w]``, with r the restricted variables selected by the bits of
    w; the entries must lie in [0, q) and the units be distinct and free of
    restricted variables, so the terms are canonical once sorted."""
    dtype = _mask_dtype(m)
    masks = (np.array(units, dtype=dtype)[:, None] | np.array(_word_masks(restricted), dtype=dtype)).ravel()
    coeffs = anf.ravel()
    live = np.flatnonzero(coeffs)
    order = live[np.argsort(masks[live])]
    return polys_from_rows(q, m, masks[order], coeffs[order][None, :])[0]


class PolyphaseSeq:
    """A length-``2^m`` polyphase sequence, possibly with masked-out entries.

    ``phases[i]`` is the exponent of ``omega = exp(2*pi*1j/q)`` at position
    ``i``; where ``mask`` is False the entry is the complex number 0 (used for
    restricted sequences, which keep their original positions).  ``q`` must
    be a power of two, as exact correlation in Z[omega] requires, and at most
    2^MAX_VALUE_VECTOR_M (else :class:`SizeLimitError`, before the phases are
    read).  Phases of a bool or non-integer dtype raise ``ValueError``.
    """

    __slots__ = ("q", "phases", "mask")

    def __init__(self, q: int, phases: np.ndarray | Sequence[int], mask: np.ndarray | None = None):
        _require_dense_modulus(q, "a polyphase sequence")
        self.q = q
        phases = np.asarray(phases)
        if phases.size and not np.issubdtype(phases.dtype, np.integer):  # bool is no NumPy integer
            raise ValueError(f"phases must be integers, got an array of {phases.dtype}")
        self.phases = phases.astype(np.int64, copy=False) % q
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
        return np.where(self.mask, _roots(self.q, self.phases), 0.0)

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


def _full_seqs(q: int, phases: np.ndarray) -> list[PolyphaseSeq]:
    """One full sequence per row of an ``(n, L)`` int64 matrix already reduced
    mod q, a power of two, trusted: the rows are used as they are (views, no
    copy) and every sequence shares one read-only all-true mask."""
    mask = np.ones(phases.shape[1], dtype=bool)
    mask.flags.writeable = False
    out = [object.__new__(PolyphaseSeq) for _ in range(len(phases))]
    for seq, row in zip(out, phases):
        seq.q, seq.phases, seq.mask = q, row, mask
    return out


def psi(f: GbfPoly) -> PolyphaseSeq:
    """The polyphase sequence ``omega^{f(i)}``, i = 0 .. 2^m - 1.  Raises
    :class:`SizeLimitError`, before anything is allocated, when q or 2^m
    exceeds 2^MAX_VALUE_VECTOR_M."""
    _require_dense_modulus(f.q, "sequence construction")
    return PolyphaseSeq(f.q, f.value_vector())


def psi_restricted(f: GbfPoly, restricted: Sequence[int], word: int) -> PolyphaseSeq:
    """Like :func:`psi` but zeroing every position that disagrees with the
    restriction: bit a of ``word``, in [0, 2^k), is the value of the a-th
    smallest of the k distinct indices ``restricted``, each in [0, m) (the
    form of :func:`cskit.graphs.analyze`'s profiles).  Indices and word are
    read by :func:`_index`.  Surviving entries keep their original positions."""
    _require_dense_modulus(f.q, "sequence construction")
    values = f.value_vector()
    idx = sorted(_index(i, "restricted indices must be integers") for i in restricted)
    word = _index(word, "a restriction word must be an integer")
    if len(set(idx)) != len(idx) or not all(0 <= i < f.m for i in idx):
        raise ValueError(f"restricted indices {idx} must be distinct and in [0, {f.m})")
    if not 0 <= word < 1 << len(idx):
        raise ValueError(f"word {word} out of range for {len(idx)} restricted variables")
    fixed = sum(1 << i for i in idx)
    ones = sum(1 << i for a, i in enumerate(idx) if (word >> a) & 1)
    return PolyphaseSeq(f.q, values, (np.arange(len(values)) & fixed) == ones)


# -- text format -------------------------------------------------------------

# ASCII digits only: \d and str.isdigit also match other Unicode digits
_HEAD_RE = re.compile(r"^q=([0-9]+);m=([0-9]+);(.*)$")
_VAR_RE = re.compile(r"^x([0-9]+)$")


def parse_gbf(text: str) -> GbfPoly:
    """Parse ``q=<int>;m=<int>; <term> + <term> + ...``.

    A term is either a bare integer constant or an optional ``<coeff>*``
    prefix followed by ``x<i>`` factors joined by ``*``.  Every integer is
    written in ASCII digits.  Whitespace is ignored everywhere.  Repeated
    monomials are summed mod q (so the result may be the zero polynomial);
    repeated variables within one term collapse, since the variables only
    take values 0 and 1.
    """
    squeezed = re.sub(r"\s+", "", text)
    match = _HEAD_RE.match(squeezed)
    if not match:
        raise ParseError("expected 'q=<int>;m=<int>;<terms>'")
    q, m, body = int(match.group(1)), int(match.group(2)), match.group(3)
    _check_domain(q, m, ParseError)
    if not body:
        raise ParseError("empty term list (write an explicit 0 for the zero polynomial)")
    terms: list[tuple[int, int]] = []
    for raw in body.split("+"):
        if not raw:
            raise ParseError("empty term (stray '+'?)")
        factors = raw.split("*")
        coeff = 1
        start = 0
        if factors[0].isascii() and factors[0].isdigit():
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


def _bits(mask: int) -> list[int]:
    """The indices of the set bits of ``mask``, ascending."""
    return [i for i in range(mask.bit_length()) if (mask >> i) & 1]


def _term_key(mask: int) -> tuple[int, list[int]]:
    """The order of terms in the text form: highest degree first, ties broken
    by the variable indices, the constant last."""
    return (-mask.bit_count(), _bits(mask))


def _term_text(variables: str, coeff: int) -> str:
    """One term of the text form from its variables joined by ``*`` (empty
    for the constant)."""
    if not variables:
        return str(coeff)
    return variables if coeff == 1 else f"{coeff}*{variables}"


def render_gbf(f: GbfPoly) -> str:
    """Canonical text form; ``parse_gbf(render_gbf(f)) == f``.

    Terms are printed highest degree first, ties broken by variable indices,
    with the constant last.
    """
    body = " + ".join(_term_text("*".join(f"x{i}" for i in _bits(mask)), c) for mask, c in sorted(f.terms, key=lambda t: _term_key(t[0])))
    return f"q={f.q};m={f.m}; {body or '0'}"


# -- JSON --------------------------------------------------------------------


def _family_json(q: int, m: int, cols: np.ndarray, factors: np.ndarray) -> list[dict]:
    """:func:`gbf_to_json` of every member of a family: f = ``factors[0]``
    plus every pick from {0, r} for each later row r, all Z_q ANF coefficient
    rows (q a power of two) over the distinct int64 monomial masks ``cols``.
    Member b picks the i-th of the F factors after f when bit F-1-i of b is
    set, the order of ``construct._family_sum``.

    The columns are put in the text's term order (:func:`_term_key`: highest
    degree first; between terms of one degree, the one holding the first
    variable where they differ comes first), and each column's variables are
    written once.  The ordered columns are cut into runs.  A column that
    several factors touch is a run of its own, written once per coefficient
    its members take.  Every other run reads one factor or none: a column
    that no factor touches joins the run before it, unless there is none or
    that run is a column of several factors.  A run is joined once per value
    of the factor bits it reads, and member b joins, for each run, the piece
    that its own bits pick."""
    bits = (cols[:, None] >> np.arange(m)) & 1
    order = np.argsort(-(bits.sum(1) << m | bits @ (1 << np.arange(m)[::-1])))  # x0 read as the highest bit
    f, rest = factors[0, order], factors[1:, order]
    # every column's variables in one string, each column ended by a newline;
    # the constant, the one column without a variable, comes last
    row, var = np.nonzero(bits[order])
    names = np.array([*(f"x{i}*" for i in range(m)), *(f"x{i}\n" for i in range(m))], dtype=object)
    variables = "".join(names[var + m * np.append(row[1:] != row[:-1], True)].tolist()).split("\n")[: len(cols)]

    def term(j: int, c: int) -> str:
        # the term followed by its separator; a zero coefficient writes nothing
        return _term_text(variables[j], c) + " + " if c else ""

    col, factor = np.nonzero(rest.T)
    reads: dict[int, list[int]] = {}  # the factors that touch each column, ascending
    for j, i in zip(col.tolist(), factor.tolist()):
        reads.setdefault(j, []).append(i)
    runs = [[0, []]]  # the start of each run and the factors it reads
    for j, d in reads.items():
        start, held = runs[-1]
        if len(d) > 1:  # a run of its own, and a new run after it
            if j > start or held:
                runs.append([j, d])
            else:
                runs[-1][1] = d
            runs.append([j + 1, []])
        elif not held:
            runs[-1][1] = d
        elif held != d:
            runs.append([j, d])
    if runs[-1][0] == len(cols):  # begun after a last column that several factors touch, or no column at all
        runs.pop()
    plain = list(map(term, range(len(cols)), f.tolist()))  # no factor picked
    picked = plain[:]  # the one factor of each column picked
    one = [j for j, d in reads.items() if len(d) == 1]
    for j, c in zip(one, ((f[one] + rest[:, one].sum(0)) & (q - 1)).tolist()):
        picked[j] = term(j, c)
    pieces: list[str] = []
    index = []  # per run: its first piece, then the weight of each factor's bit
    for (a, d), b in zip(runs, [*(start for start, _ in runs[1:]), len(cols)]):
        weights = [0] * len(rest)
        for t, i in enumerate(d):
            weights[i] = 1 << t
        index.append([len(pieces), *weights])
        if len(d) > 1:  # the one column a: each coefficient that the picks of d give, written once
            picks = (np.arange(1 << len(d))[:, None] >> np.arange(len(d))) & 1
            coeffs = ((f[a] + picks @ rest[d, a]) & (q - 1)).tolist()
            texts = {c: term(a, c) for c in set(coeffs)}
            pieces += [texts[c] for c in coeffs]
        else:
            pieces += ["".join(plain[a:b]), "".join(picked[a:b])] if d else ["".join(plain[a:b])]
    # row 0 of the member bits is all ones, for the first piece; row 1 + i is factor i's bit
    member_bits = (np.arange(1 << len(rest)) >> np.arange(len(rest) + 1)[::-1, None]) & 1
    member_bits[0] = 1
    chosen = np.array(pieces, dtype=object)[(np.array(index, dtype=np.intp).reshape(-1, len(rest) + 1) @ member_bits).T]
    head = f"q={q};m={m}; "
    return [{"q": q, "m": m, "text": head + (body[:-3] or "0")} for body in map("".join, chosen.tolist())]


def gbf_to_json(f: GbfPoly) -> dict:
    """A stable dict form, ``{"q": .., "m": .., "text": render_gbf(f)}``."""
    return {"q": f.q, "m": f.m, "text": render_gbf(f)}


def gbf_from_json(obj: dict | str) -> GbfPoly:
    """The polynomial of a :func:`gbf_to_json` dict (or its JSON text).

    ``text`` is read by :func:`parse_gbf` and must agree with the ``q`` and
    ``m`` keys; anything else raises :class:`ParseError`."""
    if isinstance(obj, str):
        try:
            obj = json.loads(obj)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON: {exc}") from None
    try:
        q, m, text = obj["q"], obj["m"], obj["text"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed polynomial object: {exc}") from None
    _check_domain(q, m, ParseError)
    if not isinstance(text, str):
        raise ParseError("need a 'text' string")
    f = parse_gbf(text)
    if (f.q, f.m) != (q, m):
        raise ParseError(f"keys q={q}, m={m} disagree with the text's q={f.q}, m={f.m}")
    return f
