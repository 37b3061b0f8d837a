"""Complementary-set constructions driven by restriction profiles.

Given a polynomial whose 2^k restriction graphs all pass the shape check
(paths, or paths plus one isolated vertex, every edge weighing q/2), the
offset family

    f  +  (q/2) * ( sum_a d_a x_{j_a}  +  d * t(x) ),    d_a, d in {0, 1},

with ``t`` the indicator-weighted sum of per-restriction path endpoints, has
a summed autocorrelation supported on shifts 0 and +-2^l (one l per isolated
vertex), with exactly predictable values.  Three refinements are provided:

* :func:`balanced_cs` — when every isolated group's coupling surpluses split
  half 0 / half q/2, the off-peak contributions cancel and the 2^{k+1}
  offsets already form a complementary set;
* :func:`doubled_cs` — adjoining the same family shifted by
  (q/2) * sum of the isolated vertices always yields a complementary
  multiset of 2^{k+2} sequences;
* :func:`path_restriction_cs` — the all-paths case (no isolated vertex),
  which is the complementary set of Paterson (2000) and Schmidt (2007),
  and for k = 0 the Golay pair of Davis & Jedwab (1999)
  (:func:`golay_pair`).

Every family is a Cartesian sum of two-element factors over one f: the
members are f plus every pick from {0, (q/2) t}, {0, (q/2) x_{j_a}} for
each restricted variable and, when doubled, {0, (q/2) sum_l x_l}.  A
candidate holds f and the factors as Z_q ANF coefficient rows over the
union of their monomials, and reads its members, its sequences (one phase
matrix) and its JSON export off those rows.  It records the exact predicted
correlation alongside, so callers can confront prediction with brute-force
measurement.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .codebook import _cartesian_sum, _pmepr_bound, standard_golay_gbfs  # the latter re-exported: the standard Golay codebook
from .correlation import AacfVector, write_sequences
from .cyclo import _fold
from .errors import BalanceError, GraphShapeError
from .gbf import (
    GbfPoly,
    PolyphaseSeq,
    _cell_dtype,
    _family_json,
    _full_seqs,
    _index,
    _poly_from_parts,
    _require_dense_modulus,
    _require_power_of_two,
    _require_product_bytes,
    _require_value_vector_size,
    _subset_sums,
    _word_masks,
    anf_values,
    polys_from_rows,
)
from .graphs import RestrictionProfile, analyze

__all__ = [
    "CsCandidate",
    "offset_set",
    "balanced_cs",
    "doubled_cs",
    "path_restriction_cs",
    "golay_pair",
    "standard_golay_gbfs",
    "random_qualifying_gbf",
    "cs_to_text",
]


@dataclass(frozen=True, eq=False)
class CsCandidate:
    """A constructed family of polynomials with its predicted correlation.

    ``factors`` are Z_q ANF coefficient rows over the monomial masks
    ``cols``: f, then one row r per two-element factor {0, r}.  ``rows``
    holds f plus every pick of the factors (the first factor slowest), one
    row per member; ``members`` are those rows as polynomials, ordered by
    offset pattern (doubling shift, endpoint bit, then the restricted
    variables as an increasing word).  ``predicted`` is the exact summed
    autocorrelation the construction guarantees, and ``pmepr_bound`` bounds
    every member's peak-to-mean envelope power ratio.
    """

    q: int
    m: int
    cols: np.ndarray
    factors: np.ndarray
    provenance: str
    pmepr_bound: float
    predicted: AacfVector
    profile: RestrictionProfile

    @cached_property
    def rows(self) -> np.ndarray:
        return _family_sum(self.factors, self.q)

    @cached_property
    def members(self) -> tuple[GbfPoly, ...]:
        return tuple(polys_from_rows(self.q, self.m, self.cols, self.rows))

    @property
    def size(self) -> int:
        return 1 << (len(self.factors) - 1)

    def sequences(self) -> list[PolyphaseSeq]:
        """The members' sequences, read from one ``(size, L)`` phase matrix:
        the value vectors of the factor rows, summed like the rows."""
        return _full_seqs(self.q, _family_sum(anf_values(self.q, self.m, self.cols, self.factors), self.q))

    def is_complementary_prediction(self) -> bool:
        return self.predicted.offpeak_is_zero()

    def to_json(self) -> dict:
        """The candidate as a dict; each member in the form of ``gbf_to_json``,
        ``{"q", "m", "text"}`` with ``text`` equal to ``render_gbf(member)``,
        written from the factor rows without forming ``rows``."""
        return {
            "q": self.q,
            "m": self.m,
            "size": self.size,
            "provenance": self.provenance,
            "pmepr_bound": self.pmepr_bound,
            "members": _family_json(self.q, self.m, self.cols, self.factors),
            "predicted_aacf": self.predicted.to_json(),
        }


def _family_sum(rows: np.ndarray, q: int) -> np.ndarray:
    """``rows[0]`` plus every pick from {0, r} for each later row r, mod q: one
    row per member, the first factor slowest and the last fastest."""
    return _cartesian_sum(np.stack((np.zeros_like(rows[1:]), rows[1:]), axis=1), q, rows[:1])


def _predicted_aacf(profile: RestrictionProfile, doubled: bool) -> AacfVector:
    """Peak n * 2^m at shift 0; unless doubled, one value per isolated group
    at shift 2^l; zero everywhere else.  Its 4 q 2^m bytes are refused above
    :data:`~cskit.gbf.MAX_PRODUCT_BYTES` before they are allocated."""
    q, m, k = profile.q, profile.m, profile.k
    _require_value_vector_size(m)
    _require_product_bytes(4 * q << m, f"the prediction at q={q}, m={m}")
    coeffs = np.zeros((1 << m, q // 2), dtype=np.int64)
    coeffs[0, 0] = (1 << (k + 2) if doubled else 1 << (k + 1)) << m
    if not doubled:
        for g in profile.groups:
            coeffs[1 << g.l] = _fold(np.bincount((g.g_l + np.array(g.l_values)) % q, minlength=q)) << m
    return AacfVector(q, coeffs)


def _family(f: GbfPoly, profile: RestrictionProfile, provenance: str) -> CsCandidate:
    """The offset family of f as factor rows: f, then (doubled only) the
    shift (q/2) * sum of the isolated vertices, then (q/2) * t with t the
    indicator-weighted sum of the path endpoints, then (q/2) * x_j for the
    restricted variables, the largest first.  All-paths families (M = 2^k)
    meet the balanced bound 2^{k+1} with the offset one, 2^{k+2} - 2M."""
    doubled = provenance == "doubled"
    predicted = _predicted_aacf(profile, doubled)  # refuses an oversized domain before any row is built
    q, half = f.q, f.q // 2
    # t's coefficients: the Moebius transform, over the restricted bits, of the
    # (endpoint, word) indicator table; (q/2) * c mod q depends on c mod 2
    # only, so it is taken over Z_2
    words, ends = np.array(profile.endpoints, dtype=np.int64).reshape(-1, 2).T
    ends, which = np.unique(ends, return_inverse=True)
    table = np.zeros((len(ends), 1 << profile.k), dtype=np.int64)
    table[which, words] = 1
    e, w = np.nonzero(_subset_sums(table, profile.k, inverse=True) & 1)
    # every factor's masks, row after row, placed in one pass
    sizes = [len(f.terms), *([len(profile.groups)] if doubled else []), len(e), *[1] * profile.k]
    masks = np.concatenate([
        np.array([tm for tm, _ in f.terms], dtype=np.int64),
        np.array([1 << g.l for g in profile.groups] if doubled else [], dtype=np.int64),
        np.array(_word_masks(profile.restricted), dtype=np.int64)[w] | 1 << ends[e],
        1 << np.array(profile.restricted[::-1], dtype=np.int64),
    ])
    cols, at = np.unique(masks, return_inverse=True)
    rows = np.zeros((len(sizes), len(cols)), dtype=np.min_scalar_type(q - 1))
    rows[np.repeat(np.arange(len(sizes)), sizes), at] = [c for _, c in f.terms] + [half] * (len(masks) - len(f.terms))
    return CsCandidate(q, f.m, cols, rows, provenance, float(_pmepr_bound(profile.k, profile.M, provenance == "balanced")), predicted, profile)


def _profile(f: GbfPoly, profile: RestrictionProfile | None, restricted: Sequence[int]) -> RestrictionProfile:
    """The given profile, or ``analyze(f, restricted)``; a modulus that is
    not a power of two, or above 2^MAX_VALUE_VECTOR_M (the rows of the
    prediction are q/2 wide), is refused first."""
    _require_dense_modulus(f.q, "a complementary-set construction")
    return analyze(f, restricted) if profile is None else profile


def offset_set(f: GbfPoly, profile: RestrictionProfile | None = None, *, restricted: Sequence[int] = ()) -> CsCandidate:
    """The 2^{k+1} offset family with its exact predicted summed autocorrelation.

    Pass a ready-made profile or the restricted indices (``analyze`` is run
    for you).  The prediction: peak 2^{m+k+1}; at shift 2^l for each isolated
    vertex l the value ``2^m * omega^{g_l} * sum_c omega^{L_c}``; conjugates
    at negative shifts; zero everywhere else.  The per-member envelope bound
    is 2^{k+2} - 2M.  Raises :class:`ModulusError` unless q is a power of two.
    """
    profile = _profile(f, profile, restricted)
    return _family(f, profile, "offset")


def balanced_cs(f: GbfPoly, profile: RestrictionProfile | None = None, *, restricted: Sequence[int] = ()) -> CsCandidate:
    """The offset family as a genuine complementary set (balance required).

    Raises :class:`BalanceError` unless, in every isolated group, exactly
    half of the coupling surpluses are 0 and the other half q/2 — which
    forces the residual off-peak terms to cancel.  PMEPR bound 2^{k+1}.
    """
    profile = _profile(f, profile, restricted)
    for g in profile.groups:
        if not g.is_balanced(profile.q):
            zeros = sum(1 for v in g.l_values if v == 0)
            halves = sum(1 for v in g.l_values if v == profile.q // 2)
            raise BalanceError(
                f"isolated vertex x{g.l}: surpluses {list(g.l_values)} "
                f"(size {g.size}, {zeros} zeros, {halves} of value q/2) are not half/half"
            )
    cand = _family(f, profile, "balanced")
    assert cand.predicted.offpeak_is_zero(), "balance must cancel every off-peak term"
    return cand


def doubled_cs(f: GbfPoly, profile: RestrictionProfile | None = None, *, restricted: Sequence[int] = ()) -> CsCandidate:
    """Union of the offset family with its isolated-vertex shift: always complementary.

    The second half adds (q/2) * sum of the isolated vertices to every
    member, flipping the sign of each residual off-peak term; the union of
    2^{k+2} sequences (a multiset when there are no isolated vertices) has
    zero summed autocorrelation at every nonzero shift.  Per-member PMEPR
    bound 2^{k+2} - 2M.
    """
    profile = _profile(f, profile, restricted)
    return _family(f, profile, "doubled")


def path_restriction_cs(f: GbfPoly, profile: RestrictionProfile | None = None, *, restricted: Sequence[int] = ()) -> CsCandidate:
    """The offset family when every restriction is a path with q/2 edges.

    With no isolated vertex the prediction has no off-peak term, so the
    2^{k+1} members form a complementary set, and the offset bound
    2^{k+2} - 2M is 2^{k+1} (M = 2^k).  The polynomial may have any degree.
    With k = 0 the set is a Golay pair (provenance ``"golay"``); otherwise
    the provenance is ``"path-restriction"``.  Raises
    :class:`GraphShapeError` if some restriction isolates a vertex.
    """
    profile = _profile(f, profile, restricted)
    if not profile.all_paths:
        raise GraphShapeError("every restriction must reduce to a path (no isolated vertices)")
    return _family(f, profile, "golay" if profile.k == 0 else "path-restriction")


def golay_pair(f: GbfPoly) -> tuple[GbfPoly, GbfPoly]:
    """A complementary pair from a polynomial whose full coupling graph is a path.

    The two members of ``path_restriction_cs(f)``: ``f`` and
    ``f + (q/2) x_t``, with ``x_t`` the largest-index path endpoint.
    """
    return path_restriction_cs(f).members


def random_qualifying_gbf(
    m: int,
    k: int,
    q: int,
    group_sizes: Sequence[int] = (),
    *,
    balanced: bool = False,
    seed: int,
) -> tuple[GbfPoly, tuple[int, ...]]:
    """A reproducible random polynomial whose restriction profile has the
    requested shape.

    ``group_sizes`` lists how many of the 2^k restrictions should isolate
    each of ``len(group_sizes)`` distinct vertices; the remaining
    ``M = 2^k - sum(group_sizes)`` restrictions are full paths.  With
    ``balanced=True`` (even sizes only) the coupling surpluses are arranged
    half 0 / half q/2 per group.  Returns ``(f, restricted_indices)``; the
    same seed always yields the same instance.

    Each word's path edges and couplings are drawn as cells of f's
    restriction table (:func:`cskit.gbf.restriction_table`), which one
    Moebius transform over the restricted bits turns into f's coefficients;
    the free ingredients are then added to those coefficients directly.
    """
    _require_power_of_two(q, "random_qualifying_gbf")
    if not 0 <= k < m:
        raise ValueError(f"need 0 <= k < m, got k={k}, m={m}")
    sizes = tuple(_index(n, "group sizes must be integers") for n in group_sizes)
    if any(n < 1 for n in sizes):
        raise ValueError("group sizes must be positive")
    M = (1 << k) - sum(sizes)
    if M < 0:
        raise ValueError(f"group sizes {sizes} exceed the 2^k = {1 << k} restrictions")
    if sizes and m - k < 3:
        raise ValueError("isolated groups need at least three unrestricted variables")
    if len(sizes) > m - k:
        raise ValueError("more groups than unrestricted vertices")
    if balanced and any(n % 2 for n in sizes):
        raise ValueError("balance requires even group sizes")

    rng = random.Random(seed)
    half = q // 2
    restricted = sorted(rng.sample(range(m), k))
    unrestricted = [i for i in range(m) if i not in restricted]
    isolated = rng.sample(unrestricted, len(sizes))

    words = list(range(1 << k))
    rng.shuffle(words)
    cuts = list(itertools.accumulate((M, *sizes)))
    blocks = [words[a:b] for a, b in zip([0, *cuts], cuts)]

    # the cells of f's restriction table: the coefficient of each unrestricted
    # monomial (the constant, a vertex or a pair) after each word
    units = [0, *(1 << v for v in unrestricted), *((1 << a) | (1 << b) for a, b in itertools.combinations(unrestricted, 2))]
    row = {u: i for i, u in enumerate(units)}
    cells: list[int] = []  # row * 2^k + word of each cell set, one path and one coupling per word
    values: list[int] = []

    def add_path(word: int, verts: list[int]) -> None:
        order = verts[:]
        rng.shuffle(order)
        cells.extend(row[(1 << a) | (1 << b)] << k | word for a, b in zip(order, order[1:]))
        values.extend([half] * (len(order) - 1))

    for word in blocks[0]:
        add_path(word, unrestricted)
    for l, block in zip(isolated, blocks[1:]):
        for word in block:
            add_path(word, [v for v in unrestricted if v != l])
        coupled = rng.sample(block, len(block) // 2) if balanced else block
        cells.extend(row[1 << l] << k | word for word in coupled)
        values.extend([half] * len(coupled) if balanced else [rng.randrange(q) for _ in coupled])
    table = np.zeros((len(units), 1 << k), dtype=_cell_dtype(q << (k + 1)))
    table.ravel()[cells] = values
    anf = _subset_sums(table, k, inverse=True)

    # free ingredients: any polynomial in the restricted variables, any
    # linear part, any constant
    anf[0, 1:] += np.array([rng.randrange(q) for _ in range(1, 1 << k)], dtype=anf.dtype)
    for i in range(m):
        if i in restricted:
            anf[0, 1 << restricted.index(i)] += rng.randrange(q)
        else:
            anf[row[1 << i], 0] += rng.randrange(q)
    anf[0, 0] += rng.randrange(q)
    f = _poly_from_parts(q, m, restricted, units, anf % q)

    check = analyze(f, restricted)
    assert check.M == M and tuple(sorted(check.group_sizes)) == tuple(sorted(sizes))
    assert not balanced or check.is_balanced()
    return f, tuple(restricted)


# -- candidate serialization ---------------------------------------------------


def cs_to_text(cand: CsCandidate) -> str:
    """One sequence per line, preceded by the header comment ``# CS q=.. m=.. size=.. bound=.. provenance=..``."""
    bound = cand.pmepr_bound
    btxt = str(int(bound)) if float(bound).is_integer() else repr(bound)
    header = (
        f"CS q={cand.q} m={cand.m} size={cand.size} "
        f"bound={btxt} provenance={cand.provenance}"
    )
    return write_sequences(cand.sequences(), [header])
