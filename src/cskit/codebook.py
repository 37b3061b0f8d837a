"""Codebook accounting: counting formulas, enumerators, rates, distances.

Everything here concerns codes of length ``2^m`` over ``Z_q`` (q = 2**h)
whose codewords come from polynomials of bounded *effective degree*: the
degree after discounting factors of two in the coefficients (see
``GbfPoly.effective_degree``).  ``F(r, m, h)`` below denotes the set of such
polynomials with effective degree at most r; it is closed under addition, so
the corresponding codes are linear or unions of cosets of linear codes, and
minimum distances equal minimum nonzero weights.

Three kinds of results live here:

* closed-form sizes — the complementary-set families with PMEPR bounds
  4/6/8 (:func:`family_size`), coset codes built from path representatives
  (:func:`coset_code_size`), and the unioned codes with PMEPR at most 4 and
  8 (:func:`union_code_size_pmepr4` / :func:`union_code_size_pmepr8`);
* explicit enumerators (:func:`enumerate_codebook`) generating exactly the
  counted polynomials, so the closed forms can be confronted with brute
  force.  Every family is a union of Cartesian sums of small factors
  (path representatives, couplings, generators of the linear part); a word
  is a dense Z_q row of ANF coefficients, one per monomial mask the family
  uses, built as a row sum mod q in blocks of bounded size and turned into a
  ``GbfPoly`` only when yielded.  One blocked engine
  (:func:`_cartesian_blocks`) sums these words.  No word repeats (the lemma
  below), so the word count is the closed-form product of the factor sizes,
  summed over the parts, and any family above 2^22 words is refused before
  anything is built;
* exact minimum distances of the bounded-effective-degree code
  (:func:`erm_min_distances`), for every code by one per-stratum argument
  in closed form: every codeword is 2^i times a polynomial with an odd
  coefficient, whose binary residue is a Reed–Muller word; a symbol 2^i * u
  with u odd has Lee weight at least 2^i, and sin^2(pi u / 2^{h-i}) over
  odd u is least at u = 1 and its mirror, so the monomial witness
  2^i * x_T attains the stratum's bound.  The Reed–Muller weights of every
  stratum come from one table of Plotkin's (u | u+v) recursion, filled
  once a call from RM(0, 0) up, level by level, so a distance takes under
  1 MiB at any m and h and no word of any code is built.  The exhaustive
  kernel that weighs every codeword is the tests' oracle, in
  ``tests/codebook_reference.py``.

Printed rate tables from the literature are embedded as fixtures with their
original spellings; :func:`golden_report` confronts them entry by entry with
the closed forms and records which entries cannot be reproduced (they are
carried as documented discrepancies, not silently patched), and
:func:`rate_rows` exports the computed rates.  Both walk the same list of
fixtures, one size formula per table.

**Lemma: every family is an injective Cartesian sum.**  Distinct picks of
one row per factor, in one part or in two parts of a union, give distinct
polynomials.  The ANF over Z_q is canonical, so a polynomial, its function
and its coefficient row determine one another; the picks are recovered from
the function.  Call the variables a part's representatives restrict
(x_{m-k} .. x_{m-1}) restricted, the others unrestricted.

* Within a part, picks are recoverable.  Each representative term holds two
  unrestricted variables; coupling and coset terms hold at most one, so the
  terms with two unrestricted variables are the representatives' alone.
  The generators (of ERM, of the coset codes, of the Golay linear part and
  constant) sit on distinct masks, and each is cyclic (a * step for a < n,
  with n * step = q), so its column gives back its pick.
* ``_Couplings`` masks x_{m-k-1} x_j (j restricted) are unused elsewhere in
  their part: ``excl`` drops the isolated coupler x_{m-k-1} from the coset
  code, and the pick e is its bit pattern times q/2.
* Path classes are recoverable.  The junta factors' indicators take the
  value 1 on disjoint sets of restriction words that cover them all, so
  under restriction word w only the factor whose indicator matches w adds
  edges, q/2 on each edge of its path and 0 elsewhere.  Distinct path
  classes up to reversal have distinct edge sets.
* Parts are disjoint by restriction-graph shape, and a word's restriction
  graphs are a function of the word.
  - Path-part words restrict to full paths on the unrestricted variables.
  - Isolated-part words restrict to paths that leave x_{m-k-1} out.
  - C8's k = 1 part restricts under (x_{m-2}, x_{m-1}) to full paths on
    x_0 .. x_{m-3} when x_{m-1} = 0, and to no full path (x_{m-3} is left
    out) when x_{m-1} = 1, where C8's path part restricts to full paths
    under every word and its isolated part under none.

``tests/test_codebook.py`` checks the lemma on every union-table row of at
most 2^22 words: its rows are pairwise distinct.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import EnumerationError, SizeLimitError
from .gbf import GbfPoly, _check_domain, _index, _subset_sums, _word_masks, polys_from_rows

__all__ = [
    "log2_f_count",
    "family_size",
    "rate",
    "log2_coset_count",
    "coset_code_size",
    "union_code_size_pmepr4",
    "union_code_size_pmepr8",
    "erm_distance_formulas",
    "erm_min_distances",
    "enumerate_codebook",
    "count_codebook",
    "rate_rows",
    "golden_report",
]


# -- bounded-effective-degree polynomial counting -------------------------------


class _Gen(NamedTuple):
    """The multiples a * step, 0 <= a < n, of one monomial."""

    mask: int
    step: int
    n: int

    def masks(self) -> list[int]:
        return [self.mask]

    def rows(self, lo: int, hi: int) -> np.ndarray:
        return np.arange(lo, hi, dtype=np.int64)[:, None] * self.step


def _f_generators(r: int, m: int, h: int, variables: Sequence[int] | None = None) -> list[_Gen]:
    """Generators of F(r, m, h), on ``variables`` (x0..x{m-1} by default).

    A coefficient on a degree-d monomial must be divisible by
    2^max(0, d - r); the allowed coefficients form the cyclic group generated
    by that power of two.
    """
    degrees = range(min(m, r + h - 1) + 1)  # from degree r + h on, only 0 is allowed
    masks = sorted(sum(1 << i for i in c) for d in degrees for c in itertools.combinations(range(m), d))
    gens = [_Gen(mask, 1 << v, 1 << (h - v)) for mask in masks if (v := max(0, mask.bit_count() - r)) < h]
    if variables is None:
        return gens
    return [g._replace(mask=sum(1 << x for a, x in enumerate(variables) if (g.mask >> a) & 1)) for g in gens]


def log2_f_count(r: int, m: int, h: int) -> int:
    """log2 of the number of polynomials on m variables over Z_{2^h} with
    effective degree at most r."""
    if m < 0 or h < 1:
        raise ValueError("need m >= 0 and h >= 1")
    total = 0
    for d in range(m + 1):
        free_bits = max(0, h - max(0, d - r))
        total += math.comb(m, d) * free_bits
    return total


# -- complementary-set family sizes ---------------------------------------------


def _exact_int(x: Fraction, what: str) -> int:
    if x.denominator != 1:
        raise ArithmeticError(f"{what} is not an integer: {x}")
    return int(x)


# the least m of each complementary-set family, by its PMEPR bound
_FAMILY_M_MIN = {4: 5, 6: 4, 8: 6}


def family_size(m: int, q: int, bound: int) -> int:
    """Guaranteed codebook size at PMEPR at most ``bound`` (4, 6, or 8).

    These count distinct sequences produced by the balanced construction
    (bound 4 and part of 8) and the doubled construction (bound 6 and the
    other part of 8) with one or two restricted variables.
    """
    _check_domain(q, m)
    if bound not in _FAMILY_M_MIN:
        raise ValueError(f"no family with PMEPR bound {bound}")
    if m < _FAMILY_M_MIN[bound]:
        raise ValueError(f"the PMEPR-{bound} family needs m >= {_FAMILY_M_MIN[bound]}")
    fact = math.factorial
    if bound == 4:
        count = Fraction(fact(m), 2) * (Fraction(fact(m - 2), 2) - 1) * q ** (2 * m - 3) * (q - 1) ** 2
    elif bound == 6:
        count = (2 * fact(m) + Fraction(fact(m) * fact(m - 2) * (m - 3), 4)) * q ** (2 * m - 2) * (q - 1) ** 2
    else:
        count = Fraction(3 * fact(m), 4) * (Fraction(fact(m - 3), 2) - 1) * q ** (3 * m - 8) * (q - 1) ** 2
        count += m * (m - 2) * Fraction(fact(m - 2), 2) ** 2 * q ** (2 * m - 3) * (q - 1) ** 2
    return _exact_int(count, f"family size (bound {bound}, m={m})")


def rate(size: int, m: int) -> float:
    """Code rate log2(size) / 2^m of a length-2^m codebook."""
    if size <= 0:
        raise ValueError("empty codebook has no rate")
    return math.log2(size) / (1 << m)


# -- coset codes over restricted variables --------------------------------------


def log2_coset_count(m: int, k: int, r: int, h: int, *, excl: bool = False) -> int:
    """log2 size of the linear code of polynomials linear in the first m-k
    variables with bounded-effective-degree ingredient functions of the top k.

    Couplings x_i * g_i(top k) for i < m-k draw g_i from F(r-1, k, h) and the
    free part g from F(r, k, h); with ``excl=True`` one designated coupling
    (the vertex used by the isolated-vertex representatives) is omitted.
    """
    _check_restricted(k, m)
    couplings = (m - k - 1) if excl else (m - k)
    return couplings * log2_f_count(r - 1, k, h) + log2_f_count(r, k, h)


def _check_restricted(k: int, m: int) -> None:
    if not 0 <= k < m:
        raise ValueError(f"need 0 <= k < m, got k={k}, m={m}")


def _pmepr_bound(k: int, M: int, balanced: bool) -> int:
    """The per-member PMEPR bound with k restricted variables and M path restrictions."""
    return 1 << (k + 1) if balanced else (1 << (k + 2)) - 2 * M


def _free_bits(r: int, h: int) -> int:
    """r + h - 3, the restricted bits a representative's path class may follow."""
    if r + h < 3:
        raise ValueError("need r + h >= 3")
    return r + h - 3


def _lower_range(r: int, h: int) -> bool:
    """The PMEPR-4 union code's r range, where the PMEPR-8 one has a third part."""
    return (h == 1 and 2 <= r <= 3) or (h > 1 and 1 <= r <= 2)


def _path_class_count(n: int) -> int:
    """Paths on n labelled vertices up to reversal."""
    if n < 1:
        raise ValueError("need at least one vertex")
    return 1 if n == 1 else math.factorial(n) // 2


def coset_code_size(m: int, k: int, r: int, h: int) -> int:
    """Size of the code of path-representative cosets: the baseline
    comparison code with PMEPR at most 2^{k+1}.

    Representatives assign one of (m-k)!/2 path classes per restriction,
    varying only with the first min(r+h-3, k) restricted bits so that the
    representative keeps effective degree at most r.
    """
    if m - k < 2:
        raise ValueError("representatives need at least two path vertices")
    t = min(_free_bits(r, h), k)
    return (1 << log2_coset_count(m, k, r, h)) * _path_class_count(m - k) ** (1 << t)


def union_code_size_pmepr4(m: int, r: int, h: int) -> int:
    """Size of the two-part union code with PMEPR at most 4 (one restricted
    variable; path cosets plus isolated-vertex cosets)."""
    if m <= 3:
        raise ValueError("needs m > 3")
    if not _lower_range(r, h):
        raise ValueError(f"(r={r}, h={h}) outside the stated range")
    return _union_parts(m, 1, r, h, 1)


def _union_parts(m: int, k: int, r: int, h: int, isolated: int) -> int:
    """The path-representative cosets plus ``isolated`` times the
    isolated-vertex cosets, with k restricted variables."""
    rr, exp = min(r, k + 1), 1 << min(r + h - 3, k)
    first = (1 << log2_coset_count(m, k, rr, h)) * _path_class_count(m - k) ** exp
    return first + isolated * (1 << log2_coset_count(m, k, rr, h, excl=True)) * _path_class_count(m - k - 1) ** exp


def _pmepr8_third(m: int, r: int, h: int) -> int:
    rp = min(r, 2)
    exp = 2 * min(1 << (r + h - 3), 1)
    return (1 << log2_coset_count(m, 1, rp, h)) * _path_class_count(m - 2) ** exp


def union_code_size_pmepr8(m: int, r: int, h: int) -> int:
    """Size of the union code with PMEPR at most 8 (two restricted variables,
    plus — in the lower part of the r range — two-isolated-vertex cosets)."""
    if m <= 4:
        raise ValueError("needs m > 4")
    _free_bits(r, h)  # refuses r + h < 3
    if _lower_range(r, h):
        return _union_parts(m, 2, r, h, 3) + _pmepr8_third(m, r, h)
    if (h == 1 and r == 4) or (h > 1 and r == 3):
        return _union_parts(m, 2, r, h, 3)
    raise ValueError(f"(r={r}, h={h}) outside the stated range")


# -- Cartesian sums of Z_q rows --------------------------------------------------

# A block holds at most 2^16 rows and 2^24 symbols (one byte each for
# q <= 256), so it stays within 16 MiB.
_BLOCK_WORDS = 1 << 16
_BLOCK_SYMBOLS = 1 << 24


def _cartesian_sum(row_sets: Iterable[np.ndarray], q: int, out: np.ndarray) -> np.ndarray:
    """Each row of ``out`` plus every pick of one row from each set, mod q (a
    power of two), one row per pick: the rows of ``out`` slowest, then the
    first set, the last set fastest."""
    for rows in row_sets:
        out = (out[:, None] + rows[None]).reshape(len(out) * len(rows), out.shape[1])
        out &= q - 1
    return out


def _cartesian_blocks(sizes: Sequence[int], rows: Callable, width: int, q: int) -> tuple[np.ndarray, Iterator[np.ndarray]]:
    """The Cartesian sum of factors whose ``rows(i, lo, hi)`` are rows lo..hi-1
    of factor i, as ``(block, heads)``: each head row plus each block row, in
    order, is each word in order.  ``block`` sums the longest trailing run of
    factors that fits ``_BLOCK_WORDS`` rows and ``_BLOCK_SYMBOLS`` symbols;
    a head is one pick of the other factors but the last, plus a chunk of
    rows of that last factor (the zero row when there is no other factor).
    """
    zero = np.zeros((1, width), dtype=np.min_scalar_type(q - 1))
    if 0 in sizes:  # an empty sum: one empty block, with nothing built
        return zero[:0], iter([zero])
    limit = max(1, min(_BLOCK_WORDS, _BLOCK_SYMBOLS // max(width, 1)))
    split, size = len(sizes), 1
    while split and size * sizes[split - 1] <= limit:
        split -= 1
        size *= sizes[split]
    block = _cartesian_sum((rows(i, 0, sizes[i]) for i in range(split, len(sizes))), q, zero)
    if not split:
        return block, iter([zero])
    step, last = max(1, limit // size), sizes[split - 1]

    def heads() -> Iterator[np.ndarray]:
        for pick in itertools.product(*map(range, sizes[: split - 1])):
            offset = sum((rows(i, a, a + 1) for i, a in enumerate(pick)), zero)
            for lo in range(0, last, step):
                yield (offset + rows(split - 1, lo, min(lo + step, last))) & (q - 1)

    return block, heads()


# -- minimum distances of the bounded-effective-degree code --------------------


def erm_distance_formulas(r: int, m: int, h: int) -> tuple[int, float]:
    """Claimed minimum Lee and squared Euclidean distances: 2^{m-r} and
    2^{m-r+2} sin^2(pi / 2^h)."""
    return 1 << (m - r), float(2 ** (m - r + 2) * math.sin(math.pi / 2**h) ** 2)


def _rm_distances(top: int, m: int) -> list[int]:
    """Minimum weights d(s, m) of the binary Reed–Muller codes RM(s, m), for
    s = 0..top with top <= m.

    The table starts from RM(0, 0) = {0, 1}, of weight 1, and fills one level
    k at a time by Plotkin's construction
    RM(s, k) = {(u | u + v) : u in RM(s, k-1), v in RM(s-1, k-1)}: a word with
    v = 0 weighs 2 wt(u), any other at least wt(u) + wt(u + v) >= wt(v), and
    (u | u) and (0 | v) attain both, so d(s, k) = min(2 d(s, k-1), d(s-1, k-1)),
    where RM(-1, k-1) = {0} has no nonzero word and RM(s, k-1) = RM(k-1, k-1)
    for s > k-1.  A level holds at most top + 1 ints, and only the level
    below it is kept.
    """
    d = [1]
    for k in range(1, m + 1):
        d = [2 * d[0]] + [min(2 * d[min(s, k - 1)], d[s - 1]) for s in range(1, min(top, k) + 1)]
    return d


def _min_weights_layered(r: int, m: int, h: int) -> tuple[int, float]:
    """Exact per-stratum minimum weights of F(r, m, h), in closed form.

    Every nonzero f is 2^i * g with g carrying an odd coefficient and
    deg(g) <= d = min(r+i, m), so g mod 2 is a nonzero word of RM(d, m)
    (:func:`_rm_distances`); strata with r + i < 0 hold no word.  Where g is
    odd the symbol is 2^i * u with u odd, a nonzero multiple of 2^i mod 2^h,
    so its Lee value is at least 2^i; its squared Euclidean value
    4 sin^2(pi u / 2^{h-i}) is least over odd u at u = 1 and its mirror
    2^{h-i} - 1.  A stratum weighs at least these symbol minima times the
    Reed–Muller weight, and the monomial witness 2^i * x_T with |T| = d, of
    2^{m-d} ones, attains that bound exactly when RM(d, m) weighs 2^{m-d},
    which is asserted for every stratum.
    """
    q = 1 << h
    weights = _rm_distances(min(r + h - 1, m), m)  # the top stratum has the largest d
    best_lee = best_euc = math.inf
    for i in range(max(0, -r), h):
        d = min(r + i, m)
        ones = 1 << (m - d)
        assert weights[d] == ones, f"the witness of stratum {i} does not attain its bound"
        best_lee = min(best_lee, (1 << i) * ones)
        # the symbol weight of 2^i as codebook_reference.weight_tables (in the tests) computes it, bit for bit
        best_euc = min(best_euc, float(4.0 * np.sin(np.pi * (1 << i) / q) ** 2) * ones)
    return best_lee, best_euc


# Squared Euclidean weights of a word of 2^m symbols reach 4 * 2^m, a float
# while m + 2 < sys.float_info.max_exp.
_MAX_DISTANCE_M = sys.float_info.max_exp - 3
# The least symbol weight is 4 sin^2(pi / 2^h); for large h, sin^2(pi / 2^h)
# is pi^2 / 4^h to within a rounding, in [2^(3-2h), 2^(4-2h)) as 8 < pi^2 < 16,
# so it is a normal float while 3 - 2h >= sys.float_info.min_exp - 1.
_MAX_DISTANCE_H = (4 - sys.float_info.min_exp) // 2


def erm_min_distances(r: int, m: int, h: int) -> tuple[int, float]:
    """Minimum Lee and squared Euclidean distances of the code of all
    effective-degree-<= r polynomials on m variables over Z_{2^h}.

    The code is linear, so distances equal minimum nonzero weights, and the
    per-stratum argument of :func:`_min_weights_layered` gives them exactly
    for every code, with no codeword built: the symbol minima of each
    stratum are closed forms (Lee 2^i, squared Euclidean
    4 sin^2(pi 2^i / 2^h)), and its binary Reed–Muller weight comes from
    one table of Plotkin's recursion, :func:`_rm_distances`, filled once
    per call up to the largest order a stratum needs, top = min(r + h - 1, m).
    The table holds at most top + 1 <= m + 1 ints of at most m + 1 bits a
    level, with two levels live, so a call takes under 1 MiB at any m and h.
    r, m and h are read as Python ints; a bool or a float raises
    ``ValueError``.  An m above 1021, where squared Euclidean weights leave
    the float range, or an h above 512, where sin^2(pi / 2^h) is no longer a
    normal float, raises :class:`~cskit.errors.SizeLimitError` before any
    work.
    """
    r = _index(r, "r must be an integer")
    m = _index(m, "m must be an integer")
    h = _index(h, "h must be an integer")
    if m > _MAX_DISTANCE_M:
        raise SizeLimitError(f"squared Euclidean weights of words of 2^{m} symbols exceed the float range (m <= {_MAX_DISTANCE_M})")
    if h > _MAX_DISTANCE_H:
        raise SizeLimitError(f"squared Euclidean symbol weights over Z_(2^{h}) fall below the normal float range (h <= {_MAX_DISTANCE_H})")
    if not log2_f_count(r, m, h):
        raise ValueError(f"F({r}, {m}, {h}) = {{0}}: a code with no nonzero word has no minimum distance")
    return _min_weights_layered(r, m, h)


# -- explicit codebook enumerators ----------------------------------------------

# Every family is a union of Cartesian sums.  A factor is a list of
# polynomials given by their ANF coefficients on the factor's own monomial
# masks; a word of a Cartesian sum adds one polynomial from each factor, and
# words come in lexicographic order of the picks (the last factor fastest).
# Words are held as Z_q coefficient rows over the family's columns (the sorted
# union of the factor masks), so a sum is a row sum mod q (summed in blocks by
# _cartesian_blocks), and a GbfPoly is made only for a word that is yielded.

_MAX_WORDS = 1 << 22
_YIELD_ROWS = 1 << 10  # rows turned into polynomials at a time


class _Paths:
    """``weight * ind * (edge sum of a path)``, one polynomial per path class
    on ``verts`` (up to reversal, in permutation order); ``ind`` is an ANF
    ``{mask: coefficient}`` on variables outside ``verts``."""

    def __init__(self, verts: Sequence[int], ind: dict[int, int], weight: int) -> None:
        self.verts = list(verts)
        self.ind = ind
        self.weight = weight
        self.n = _path_class_count(len(self.verts))
        self.pairs = sorted((1 << a) | (1 << b) for a, b in itertools.combinations(self.verts, 2))
        self._orders: np.ndarray | None = None

    def masks(self) -> list[int]:
        return [pair | t for pair in self.pairs for t in self.ind]

    def rows(self, lo: int, hi: int) -> np.ndarray:
        if self._orders is None:  # built on first use, after the size check
            orders = _paths_up_to_reversal(self.verts)
            self._orders = np.array(orders, dtype=np.int64).reshape(self.n, len(self.verts))
        orders = self._orders[lo:hi]
        edges = np.searchsorted(self.pairs, (1 << orders[:, :-1]) | (1 << orders[:, 1:]))
        hit = np.zeros((len(orders), len(self.pairs)), dtype=np.int64)
        np.put_along_axis(hit, edges, 1, axis=1)
        coeffs = self.weight * np.array(list(self.ind.values()), dtype=np.int64)
        return (hit[:, :, None] * coeffs).reshape(len(orders), -1)


class _Couplings:
    """``weight * x_l * sum_j e_j x_{m-1-j}`` for e = 1 .. 2^k - 1, bit j of
    e selecting the restricted variable m-1-j."""

    def __init__(self, l: int, m: int, k: int, weight: int) -> None:
        self.l, self.m, self.k, self.weight = l, m, k, weight
        self.n = (1 << k) - 1

    def masks(self) -> list[int]:
        return [(1 << self.l) | (1 << (self.m - 1 - j)) for j in range(self.k)]

    def rows(self, lo: int, hi: int) -> np.ndarray:
        e = np.arange(lo + 1, hi + 1, dtype=np.int64)[:, None]
        return ((e >> np.arange(self.k)) & 1) * self.weight


def _indicator_anf(variables: Sequence[int], words: Iterable[int], q: int) -> dict[int, int]:
    """ANF of the sum over ``words`` (each below 2^k, k = len(variables)) of
    the indicator that ``variables[a]`` equals bit a of the word: the Moebius
    transform of the words' histogram, each word w carrying coefficient
    ``anf[w]`` on the monomial of its variables.  Coefficients mod q, masks
    ascending."""
    k = len(variables)
    counts = np.bincount(np.fromiter(words, dtype=np.int64), minlength=1 << k)
    anf = _subset_sums(counts, k, inverse=True).tolist()
    return dict(sorted((mask, c % q) for mask, c in zip(_word_masks(variables), anf) if c % q))


def _row_blocks(factors: Sequence, cols: np.ndarray, q: int) -> Iterator[np.ndarray]:
    """Coefficient rows over ``cols`` of every word of one Cartesian sum, in
    order, one head of :func:`_cartesian_blocks` plus its block at a time."""
    sym = np.min_scalar_type(q - 1)
    pos = [np.searchsorted(cols, f.masks()) for f in factors]

    def rows(i: int, lo: int, hi: int) -> np.ndarray:
        out = np.zeros((hi - lo, len(cols)), dtype=sym)
        out[:, pos[i]] = factors[i].rows(lo, hi) & (q - 1)
        return out

    block, heads = _cartesian_blocks([f.n for f in factors], rows, len(cols), q)
    for head in heads:
        yield _cartesian_sum([block], q, head)


def _columns(parts: Sequence[Sequence]) -> np.ndarray:
    """The sorted union of the monomial masks of every factor."""
    return np.unique(np.array([mask for part in parts for f in part for mask in f.masks()], dtype=np.int64))


def _coefficient_words(parts: Sequence[Sequence], q: int, m: int) -> Iterator[GbfPoly]:
    """The words of a union of Cartesian sums (one factor list per part) as
    polynomials, in order: each part's rows over the family's columns from
    :func:`_row_blocks`, turned into polynomials ``_YIELD_ROWS`` at a time."""
    cols = _columns(parts)
    for part in parts:
        for block in _row_blocks(part, cols, q):
            for start in range(0, len(block), _YIELD_ROWS):
                yield from polys_from_rows(q, m, cols, block[start : start + _YIELD_ROWS])


def _refuse_above_limit(parts: Sequence[Sequence], what: str) -> int:
    """The number of words of the parts, the sum over parts of the product
    of their factor sizes, which counts distinct polynomials (the module's
    lemma); raise :class:`EnumerationError` when it is above 2^22, before
    anything is built."""
    words = sum(math.prod(f.n for f in part) for part in parts)
    if words > _MAX_WORDS:
        raise EnumerationError(f"{words} {what} requested, more than 2^22")
    return words


def _paths_up_to_reversal(verts: Sequence[int]) -> list[tuple[int, ...]]:
    verts = list(verts)
    if len(verts) == 1:
        return [tuple(verts)]
    return [p for p in itertools.permutations(verts) if p[0] < p[-1]]


def _coset_factors(m: int, k: int, r: int, h: int, *, excl: bool = False) -> list[_Gen]:
    """The linear code behind :func:`log2_coset_count`: couplings x_i * g_i
    with g_i in F(r-1, k, h), then g in F(r, k, h), on the top k variables."""
    top = list(range(m - k, m))
    couplers = list(range(m - k))
    if excl:
        couplers.remove(m - k - 1)
    gi = _f_generators(r - 1, k, h, top)
    return [g._replace(mask=g.mask | 1 << i) for i in couplers for g in gi] + _f_generators(r, k, h, top)


def _junta_paths(verts: Sequence[int], m: int, k: int, h: int, r: int) -> list[_Paths]:
    """One path class on ``verts`` per restriction, a junta of the first
    min(r+h-3, k) restricted bits: one factor per value of those bits."""
    if len(verts) < 2:
        raise ValueError("need at least two path vertices")
    t = min(_free_bits(r, h), k)
    q = 1 << h
    prefix = range(m - k, m - k + t)
    return [_Paths(verts, _indicator_anf(prefix, [w], q), q // 2) for w in range(1 << t)]


def _path_rep_factors(m: int, k: int, h: int, r: int) -> list[_Paths]:
    """Representatives: a path on every unrestricted vertex per restriction."""
    return _junta_paths(range(m - k), m, k, h, r)


def _isolated_rep_factors(m: int, k: int, h: int, r: int) -> list:
    """Representatives whose every restriction isolates the vertex m-k-1,
    with a balanced linear coupling to the restricted variables."""
    if m - k < 3:
        raise ValueError("need at least three unrestricted variables")
    return [_Couplings(m - k - 1, m, k, (1 << h) // 2), *_junta_paths(range(m - k - 1), m, k, h, r)]


def _multi_isolated_rep_factors(m: int, k: int, h: int, r: int, sizes: Sequence[int]) -> list[_Paths]:
    """Representatives with p >= 2 isolated vertices: restriction words are
    split into lexicographic blocks of the given sizes, block a isolating
    vertex m-k-1-a, with j = min(2^{r+h-3}, N_a) free path choices per block
    (the j-th choice serving the rest of the block)."""
    sizes = tuple(_index(n, "block sizes must be integers") for n in sizes)
    if len(sizes) < 2 or sum(sizes) != 1 << k or any(n < 1 for n in sizes):
        raise ValueError("block sizes must be >= 1, at least two blocks, summing to 2^k")
    if m - k < 3 or len(sizes) > m - k:
        raise ValueError("not enough unrestricted vertices")
    free = 1 << _free_bits(r, h)
    q = 1 << h
    restricted = range(m - k, m)
    factors = []
    at = 0
    for a, n in enumerate(sizes):
        verts = [v for v in range(m - k) if v != m - k - 1 - a]
        words = range(at, at + n)
        j = min(free, n)
        factors += [_Paths(verts, _indicator_anf(restricted, [w], q), q // 2) for w in words[: j - 1]]
        factors.append(_Paths(verts, _indicator_anf(restricted, words[j - 1 :], q), q // 2))
        at += n
    return factors


def _golay_factors(m: int, h: int) -> list:
    """Path classes on all m variables, then x_{m-1} .. x_0, then the constant."""
    if m < 2:
        raise ValueError("path polynomials need at least two variables")
    q = 1 << h
    return [_Paths(range(m), {0: 1}, q // 2), *(_Gen(1 << i, 1, q) for i in reversed(range(m))), _Gen(0, 1, q)]


def standard_golay_gbfs(m: int, h: int) -> Iterator[GbfPoly]:
    """All (m!/2) * q^{m+1} standard path polynomials, q = 2**h.

    ``(q/2) * sum_i x_{pi(i)} x_{pi(i+1)} + sum_i g_i x_i + g'`` over vertex
    orderings ``pi`` (up to reversal), all linear coefficients, and all
    constants, in a fixed deterministic order: orderings in permutation
    order, then the linear coefficients as a base-q counter with g_0 fastest,
    then the constant.  Lazy and unbounded; ``enumerate_codebook("GOLAY")``
    refuses above 2^22 words.
    """
    return _coefficient_words([_golay_factors(m, h)], 1 << h, m)


_FAMILIES = ("ERM", "A", "A1", "R", "R1", "R2", "C4", "C8", "GOLAY")


def _codebook_parts(fam: str, m: int, h: int, r: int | None, k: int | None, sizes: Sequence[int]) -> list[list]:
    """The factor lists of a named family (upper case), one per union part,
    over Z_(2^h) on m >= 1 variables, with 0 <= k < m restricted ones."""
    if fam not in _FAMILIES:
        raise ValueError(f"unknown family {fam!r}")
    m, h = _index(m, "m must be an integer"), _index(h, "h must be an integer")
    _check_domain(2**h, m)
    if fam == "GOLAY":
        return [_golay_factors(m, h)]
    if r is None:
        raise ValueError(f"family {fam!r} needs r")
    r = _index(r, "r must be an integer")
    if fam == "ERM":
        return [_f_generators(r, m, h)]
    if fam == "C4":
        rp = min(r, 2)
        return [
            _path_rep_factors(m, 1, h, r) + _coset_factors(m, 1, rp, h),
            _isolated_rep_factors(m, 1, h, r) + _coset_factors(m, 1, rp, h, excl=True),
        ]
    if fam == "C8":
        rpp = min(r, 3)
        parts = [
            _path_rep_factors(m, 2, h, r) + _coset_factors(m, 2, rpp, h),
            _isolated_rep_factors(m, 2, h, r) + _coset_factors(m, 2, rpp, h, excl=True),
        ]
        if _lower_range(r, h):
            rp = min(r, 2)
            parts.append(_multi_isolated_rep_factors(m, 1, h, r, (1, 1)) + _coset_factors(m, 1, rp, h))
        return parts
    if k is None:
        raise ValueError(f"family {fam!r} needs k")
    k = _index(k, "k must be an integer")
    _check_restricted(k, m)
    if fam in ("A", "A1"):
        return [_coset_factors(m, k, r, h, excl=fam == "A1")]
    if fam == "R":
        return [_path_rep_factors(m, k, h, r)]
    if fam == "R1":
        return [_isolated_rep_factors(m, k, h, r)]
    return [_multi_isolated_rep_factors(m, k, h, r, sizes)]


def enumerate_codebook(
    family: str,
    m: int,
    h: int,
    *,
    r: int | None = None,
    k: int | None = None,
    sizes: Sequence[int] = (),
) -> Iterator[GbfPoly]:
    """Generate the polynomials of a named codebook family, lazily.

    Families: ``ERM`` (all effective degree <= r), ``A``/``A1`` (linear coset
    codes, with/without the designated coupling), ``R``/``R1``/``R2``
    (path / single-isolated / multi-isolated representatives), ``C4``/``C8``
    (the PMEPR-4 and PMEPR-8 union codes), ``GOLAY`` (standard path
    polynomials).

    Every family is a union of Cartesian sums of factors (representatives,
    couplings, generators of the linear part), each word a Z_q row of ANF
    coefficients.  Distinct picks give distinct polynomials (the module's
    lemma), so every word is yielded once, and the word count comes in closed
    form from the factor sizes (m!/2 * q^{m+1} for GOLAY, classes^(2^t) for
    R, reps times code words for a union part); a request above 2^22 words
    raises :class:`EnumerationError` before anything is built.
    """
    fam = family.upper()
    parts = _codebook_parts(fam, m, h, r, k, sizes)
    _refuse_above_limit(parts, f"{fam} words")
    return _coefficient_words(parts, 1 << h, m)


def count_codebook(family: str, m: int, h: int, *, r: int | None = None, k: int | None = None, sizes: Sequence[int] = ()) -> int:
    """The number of words :func:`enumerate_codebook` yields, with no row
    or polynomial built: the closed-form product of the factor sizes, summed
    over the parts, which counts distinct polynomials by the module's lemma.
    Refused above 2^22 words alike."""
    fam = family.upper()
    return _refuse_above_limit(_codebook_parts(fam, m, h, r, k, sizes), f"{fam} words")


# -- printed reference tables ----------------------------------------------------

# Each fixture keeps the original spelling of the printed rates; tolerance is
# derived from the number of printed decimals (5e-5 for four decimals).  The
# reference columns of the PMEPR-4/6/8 family tables are printed-only values
# from cited prior work and have no formula here.

TABLE_RATE4 = [
    # (m, q, printed proposed rate, printed reference rate)
    (5, 2, "0.4346", "0.3440"),
    (6, 2, "0.3274", "0.2660"),
    (7, 2, "0.2202", "0.1800"),
    (8, 2, "0.1398", "0.1130"),
    (9, 2, "0.0855", "0.0660"),
    (10, 2, "0.0509", "0.0380"),
    (5, 4, "0.7524", "0.3750"),
    (6, 4, "0.5175", "0.2420"),
    (7, 4, "0.3309", "0.1480"),
    (8, 4, "0.2030", "0.0880"),
    (9, 4, "0.1210", "0.0510"),
    (10, 4, "0.0706", "0.0290"),
]

TABLE_RATE6 = [
    (4, 2, "0.7442"),
    (5, 2, "0.5384"),
    (6, 2, "0.3721"),
    (7, 2, "0.2440"),
    (8, 2, "0.1528"),
    (9, 2, "0.0925"),
    (10, 2, "0.0546"),
    (4, 4, "1.3173"),
    (5, 4, "0.8875"),
    (6, 4, "0.5779"),
    (7, 4, "0.3625"),
    (8, 4, "0.2199"),
    (9, 4, "0.1299"),
    (10, 4, "0.0753"),
]

TABLE_RATE8 = [
    (7, 2, "0.2371", "0.1720"),
    (8, 2, "0.1501", "0.1170"),
    (9, 2, "0.0916", "0.072"),
    (10, 2, "0.0544", "0.043"),
]

TABLE_UNION4 = [
    # (m, h, r, printed proposed, printed comparison, printed d_L, printed d_E^2)
    (4, 1, 2, "0.6060", "0.5990", 4, "16.00"),
    (4, 1, 3, "0.7010", "0.6980", 2, "8.00"),
    (4, 2, 1, "0.9150", "0.9120", 8, "16.00"),
    (4, 2, 2, "1.2000", "1.1980", 4, "8.00"),
    (5, 1, 2, "0.4270", "0.4250", 8, "32.00"),
    (5, 1, 3, "0.5373", "0.5366", 4, "16.00"),
    (5, 2, 1, "0.6134", "0.6120", 16, "32.00"),
    (5, 2, 2, "0.8492", "0.8491", 8, "16.00"),
    (6, 1, 2, "0.2809", "0.2798", 16, "64.00"),
    (6, 1, 3, "0.3723", "0.3721", 8, "32.00"),
    (6, 2, 1, "0.3897", "0.3892", 32, "64.00"),
    (6, 2, 2, "0.5596", "0.5596", 16, "32.00"),
]

TABLE_UNION8 = [
    (5, 1, 2, "0.4741", "0.4558", 8, "32.00"),
    (5, 1, 3, "0.6007", "0.5991", 4, "16.00"),
    (5, 1, 4, "0.6982", "0.6981", 2, "8.00"),
    (5, 2, 1, "0.6596", "0.6432", 16, "32.00"),
    (5, 2, 2, "1.006", "1.005", 8, "16.00"),
    (5, 2, 3, "1.1981", "1.1981", 4, "8.00"),
    (6, 1, 2, "0.3198", "0.3060", 16, "64.00"),
    (6, 1, 3, "0.4249", "0.4245", 8, "32.00"),
    (6, 1, 4, "0.5366", "0.5366", 4, "16.00"),
    (6, 2, 1, "0.4286", "0.4154", 32, "64.00"),
    (6, 2, 2, "0.6746", "0.6745", 16, "32.00"),
    (6, 2, 3, "0.8491", "0.8491", 8, "16.00"),
]

TABLE_BOUNDS = [
    # (k, construction, M, p, printed proposed bound, printed comparison bound)
    (1, "balanced", 0, 1, 4, "8"),
    (1, "doubled", 0, 1, 8, "8"),
    (1, "doubled", 0, 2, 8, ">=16"),
    (1, "doubled", 1, 1, 6, ">=8"),
    (1, "doubled", 2, 0, 4, "4"),
    (2, "balanced", 0, 1, 8, "16"),
    (2, "balanced", 0, 2, 8, ">=32"),
    (2, "balanced", 1, 1, 8, ">=16"),
    (2, "doubled", 0, 1, 16, "16"),
    (2, "doubled", 0, 2, 16, ">=32"),
    (2, "doubled", 0, 3, 16, ">=64"),
    (2, "doubled", 0, 4, 16, ">=128"),
    (2, "doubled", 1, 1, 14, ">=16"),
    (2, "doubled", 1, 2, 14, ">=32"),
    (2, "doubled", 1, 3, 14, ">=128"),
    (2, "doubled", 2, 1, 12, ">=16"),
    (2, "doubled", 2, 2, 12, ">=32"),
    (2, "doubled", 3, 1, 10, ">=16"),
    (2, "doubled", 4, 0, 8, "8"),
]

# The walk of golden_report and rate_rows over the rate fixtures, in order:
# (table, family, fixture, PMEPR bound) for the complementary-set families and
# (table, family, comparison family, k, fixture, size formula) for the union
# codes, whose comparison is the coset code with k restricted variables.
_FAMILY_TABLES = (
    ("rate4", "S1", TABLE_RATE4, 4),
    ("rate6", "S2", TABLE_RATE6, 6),
    ("rate8", "S3", TABLE_RATE8, 8),
)
_UNION_TABLES = (
    ("union4", "C4", "COSET-K1", 1, TABLE_UNION4, union_code_size_pmepr4),
    ("union8", "C8", "COSET-K2", 2, TABLE_UNION8, union_code_size_pmepr8),
)

# Printed entries that the stated formulas provably do not reproduce.  They
# are kept verbatim in the fixtures and reported as failures; this registry
# names them so tests can mark them expected and the CLI can annotate them.
KNOWN_DISCREPANCIES: dict[tuple[str, tuple, str], str] = {
    ("rate8", (7, 2), "proposed"): "size formula gives rate 0.227791; no variant of the printed formula reproduces 0.2371",
    ("rate8", (8, 2), "proposed"): "size formula gives rate 0.145659",
    ("rate8", (9, 2), "proposed"): "size formula gives rate 0.089591",
    ("rate8", (10, 2), "proposed"): "size formula gives rate 0.053588",
    ("union4", (4, 1, 2), "proposed"): "formula gives 0.606277 (diff 2.8e-4)",
    ("union4", (4, 1, 2), "comparison"): "formula gives 0.599060, which rounds to 0.5991, not the printed 0.5990",
    ("union4", (4, 1, 3), "proposed"): "formula gives 0.700591 (diff 4.1e-4)",
    ("union4", (4, 1, 3), "comparison"): "formula gives 0.698115 (diff 1.2e-4)",
    ("union4", (4, 2, 1), "proposed"): "formula gives 0.915241 (diff 2.4e-4)",
    ("union4", (4, 2, 1), "comparison"): "formula gives 0.911560 (diff 4.4e-4)",
    ("union4", (4, 2, 2), "proposed"): "formula gives 1.198744 (diff 1.3e-3)",
    ("union4", (4, 2, 2), "comparison"): "formula gives 1.198115 (diff 1.2e-4)",
    ("union4", (5, 1, 2), "proposed"): "formula gives 0.427263 (diff 2.6e-4)",
    ("union4", (5, 1, 2), "comparison"): "formula gives 0.424530 (diff 4.7e-4)",
    ("union8", (5, 2, 1), "comparison"): "formula gives 0.643280; the printed 0.6432 is a truncation, not a rounding",
}


def _printed_tolerance(text: str) -> float:
    """Half a unit in the last printed decimal place, floored at 5e-5.

    Four-decimal entries therefore get the strict 5e-5; the handful of
    entries printed to three decimals cannot be pinned tighter than their own
    rounding.
    """
    decimals = len(text.split(".")[1]) if "." in text else 0
    return max(5e-5, 0.5 * 10.0**-decimals)


@dataclass(frozen=True)
class GoldenEntry:
    table: str
    key: tuple
    column: str
    computed: float | int | None
    printed: str
    ok: bool | None
    note: str = ""

    def to_json(self) -> dict:
        return {
            "table": self.table,
            "key": list(self.key),
            "column": self.column,
            "computed": self.computed,
            "printed": self.printed,
            "ok": self.ok,
            "note": self.note,
        }


def _check(table: str, key: tuple, column: str, computed: float, printed: str, out: list[GoldenEntry]) -> None:
    tol = _printed_tolerance(printed)
    ok = abs(computed - float(printed)) <= tol
    note = "" if ok else f"|computed - printed| = {abs(computed - float(printed)):.2e} > {tol:.0e}"
    out.append(GoldenEntry(table, key, column, round(computed, 6), printed, ok, note))


def golden_report() -> list[GoldenEntry]:
    """Confront every printed table entry with the closed forms.

    Entries whose printed reference has no formula here are reported with
    ``ok=None``.  Discrepant entries are genuine and enumerated in
    :data:`KNOWN_DISCREPANCIES`: the printed PMEPR-8 family rates do not
    follow from the stated size formula, the m=4 rows (and the m=5, h=1, r=2
    row) of the PMEPR-4 union table disagree with the formulas in both
    columns, and one comparison entry was truncated rather than rounded.
    These stay red in the report on purpose.
    """
    out: list[GoldenEntry] = []
    for table, _, fixture, bound in _FAMILY_TABLES:
        for m, q, prop, *ref in fixture:
            _check(table, (m, q), "proposed", rate(family_size(m, q, bound), m), prop, out)
            if ref:
                out.append(GoldenEntry(table, (m, q), "reference", None, ref[0], None, "printed-only comparison"))
    for table, _, _, k, fixture, size in _UNION_TABLES:
        for m, h, r, prop, ref, d_lee, d_euc in fixture:
            key = (m, h, r)
            _check(table, key, "proposed", rate(size(m, r, h), m), prop, out)
            _check(table, key, "comparison", rate(coset_code_size(m, k, r, h), m), ref, out)
            fl, fe = erm_distance_formulas(r, m, h)
            out.append(GoldenEntry(table, key, "d_L", fl, str(d_lee), fl == d_lee))
            out.append(GoldenEntry(table, key, "d_E2", fe, d_euc, abs(fe - float(d_euc)) < 5e-3))
    for k, kind, bigm, p, prop, ref in TABLE_BOUNDS:
        formula = _pmepr_bound(k, bigm, kind == "balanced")
        out.append(
            GoldenEntry("bounds", (k, kind, bigm, p), "proposed", formula, str(prop), formula == prop)
        )
        cmp_formula = 1 << (k + p + 1)
        printed_val = int(ref.lstrip(">="))
        ok = printed_val >= cmp_formula if ref.startswith(">=") else printed_val == cmp_formula
        note = "" if ok else f"comparison formula gives {cmp_formula}"
        out.append(GoldenEntry("bounds", (k, kind, bigm, p), "comparison", cmp_formula, ref, ok, note))
    return out


# -- rate-table rows for export ---------------------------------------------------


def _rate_row(family: str, m: int, q_or_h: int, r: int | str, size: int, printed: str, d_L="", d_E2="") -> dict:
    return dict(family=family, m=m, q_or_h=q_or_h, r=r, log2_size=round(math.log2(size), 6),
                rate=round(rate(size, m), 6), rate_reference=printed, d_L=d_L, d_E2=d_E2)


def rate_rows() -> list[dict]:
    """Computed codebook rates as flat records (for the CSV export).

    ``rate_reference`` carries the printed value from the corresponding
    table entry when one exists.
    """
    rows: list[dict] = []
    for _, family, fixture, bound in _FAMILY_TABLES:
        for m, q, prop, *_ in fixture:
            rows.append(_rate_row(family, m, q, "", family_size(m, q, bound), prop))
    for _, family, comparison, k, fixture, size in _UNION_TABLES:
        for m, h, r, prop, ref, *_ in fixture:
            fl, fe = erm_distance_formulas(r, m, h)
            rows.append(_rate_row(family, m, h, r, size(m, r, h), prop, fl, round(fe, 2)))
            rows.append(_rate_row(comparison, m, h, r, coset_code_size(m, k, r, h), ref, fl, round(fe, 2)))
    return rows
