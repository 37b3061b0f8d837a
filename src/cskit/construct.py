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
* specializations (:func:`golay_pair`, :func:`quadratic_cs`,
  :func:`path_restriction_cs`) that recover classical pair and set
  constructions as the all-paths case.

Every candidate records the exact predicted correlation alongside its
members, so callers can confront prediction with brute-force measurement.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .correlation import AacfVector, write_sequences
from .cyclo import CycloValue, cyclo_sum
from .errors import BalanceError, DegreeError, GraphShapeError, ParseError
from .gbf import GbfPoly, PolyphaseSeq, Restriction, _require_power_of_two, psi
from .graphs import RestrictionProfile, analyze

__all__ = [
    "CsCandidate",
    "indicator_poly",
    "path_quadratic",
    "offset_set",
    "balanced_cs",
    "doubled_cs",
    "golay_pair",
    "golay_candidate",
    "standard_golay_gbfs",
    "quadratic_cs",
    "path_restriction_cs",
    "random_qualifying_gbf",
    "cs_to_text",
    "cs_meta_from_text",
]


def indicator_poly(q: int, m: int, restriction: Restriction) -> GbfPoly:
    """The 0/1-valued polynomial that is 1 exactly on the restricted pattern.

    Product over the fixed variables of ``x_j`` (bit 1) or ``1 - x_j``
    (bit 0); the empty restriction gives the constant 1.
    """
    out = GbfPoly.const(q, m, 1)
    for j, b in restriction.pairs():
        xj = GbfPoly.variable(q, m, j)
        out = out * (xj if b else (GbfPoly.const(q, m, 1) - xj))
    return out


def path_quadratic(q: int, m: int, order: Sequence[int], weight: int) -> GbfPoly:
    """``weight * sum_i x_{order[i]} x_{order[i+1]}`` — the path's edge sum."""
    pairs = ((1 << order[i]) | (1 << order[i + 1]) for i in range(len(order) - 1))
    return GbfPoly.from_terms(q, m, ((mask, weight) for mask in pairs))


@dataclass(frozen=True)
class CsCandidate:
    """A constructed family of polynomials with its predicted correlation.

    ``members`` are ordered by their offset pattern (endpoint bit first,
    then the restricted-variable bits as an increasing word), ``predicted``
    is the exact summed autocorrelation the construction guarantees, and
    ``pmepr_bound`` bounds every member's peak-to-mean envelope power ratio.
    """

    q: int
    m: int
    members: tuple[GbfPoly, ...]
    provenance: str
    pmepr_bound: float
    predicted: AacfVector
    profile: RestrictionProfile | None = None

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def L(self) -> int:
        return 1 << self.m

    def sequences(self) -> list[PolyphaseSeq]:
        return [psi(g) for g in self.members]

    def is_complementary_prediction(self) -> bool:
        return self.predicted.offpeak_is_zero()

    def to_json(self) -> dict:
        from .gbf import gbf_to_json

        return {
            "q": self.q,
            "m": self.m,
            "size": self.size,
            "provenance": self.provenance,
            "pmepr_bound": self.pmepr_bound,
            "members": [gbf_to_json(g) for g in self.members],
            "predicted_aacf": self.predicted.to_json(),
        }


def _endpoint_poly(profile: RestrictionProfile) -> GbfPoly:
    """Indicator-weighted sum of the per-restriction path endpoints."""
    q, m = profile.q, profile.m
    total = GbfPoly.zero(q, m)
    for word, t in profile.endpoints:
        ind = indicator_poly(q, m, Restriction.assign(profile.restricted, word))
        total = total + ind * GbfPoly.variable(q, m, t)
    return total


def _sparse_aacf(q: int, m: int, peak: int, offpeak: Iterable[tuple[int, CycloValue]] = ()) -> AacfVector:
    """An autocorrelation that is ``peak`` at shift 0, the given values at the
    given shifts, and zero everywhere else."""
    coeffs = np.zeros((1 << m, q // 2), dtype=np.int64)
    coeffs[0, 0] = peak
    for tau, value in offpeak:
        coeffs[tau] = value.coeffs
    return AacfVector(q, coeffs)


def _predicted_aacf(profile: RestrictionProfile, doubled: bool) -> AacfVector:
    q, m, k = profile.q, profile.m, profile.k
    n = 1 << (k + 2) if doubled else 1 << (k + 1)
    offpeak = []
    if not doubled:
        for g in profile.groups:
            total = cyclo_sum(q, (CycloValue.from_power(q, v) for v in g.l_values))
            offpeak.append((1 << g.l, total.times_power(g.g_l).scale(1 << m)))
    return _sparse_aacf(q, m, n << m, offpeak)


def _offset_members(f: GbfPoly, profile: RestrictionProfile) -> tuple[GbfPoly, ...]:
    q, m = f.q, f.m
    half = q // 2
    t_poly = _endpoint_poly(profile)
    members = []
    for d in (0, 1):
        for word in range(1 << profile.k):
            off = GbfPoly.zero(q, m)
            if d:
                off = off + t_poly
            for a, j in enumerate(profile.restricted):
                if (word >> a) & 1:
                    off = off + GbfPoly.variable(q, m, j)
            members.append(f + half * off)
    return tuple(members)


def offset_set(f: GbfPoly, profile: RestrictionProfile | None = None, *, restricted: Sequence[int] = ()) -> CsCandidate:
    """The 2^{k+1} offset family with its exact predicted summed autocorrelation.

    Pass a ready-made profile or the restricted indices (``analyze`` is run
    for you).  The prediction: peak 2^{m+k+1}; at shift 2^l for each isolated
    vertex l the value ``2^m * omega^{g_l} * sum_c omega^{L_c}``; conjugates
    at negative shifts; zero everywhere else.  The per-member envelope bound
    is 2^{k+2} - 2M.
    """
    if profile is None:
        profile = analyze(f, restricted)
    members = _offset_members(f, profile)
    bound = (1 << (profile.k + 2)) - 2 * profile.M
    return CsCandidate(
        q=f.q,
        m=f.m,
        members=members,
        provenance="offset",
        pmepr_bound=float(bound),
        predicted=_predicted_aacf(profile, doubled=False),
        profile=profile,
    )


def balanced_cs(f: GbfPoly, profile: RestrictionProfile | None = None, *, restricted: Sequence[int] = ()) -> CsCandidate:
    """The offset family as a genuine complementary set (balance required).

    Raises :class:`BalanceError` unless, in every isolated group, exactly
    half of the coupling surpluses are 0 and the other half q/2 — which
    forces the residual off-peak terms to cancel.  PMEPR bound 2^{k+1}.
    """
    if profile is None:
        profile = analyze(f, restricted)
    for g in profile.groups:
        if not g.is_balanced(profile.q):
            zeros = sum(1 for v in g.l_values if v == 0)
            halves = sum(1 for v in g.l_values if v == profile.q // 2)
            raise BalanceError(
                f"isolated vertex x{g.l}: surpluses {list(g.l_values)} "
                f"(size {g.size}, {zeros} zeros, {halves} of value q/2) are not half/half"
            )
    base = offset_set(f, profile)
    assert base.predicted.offpeak_is_zero(), "balance must cancel every off-peak term"
    return CsCandidate(
        q=f.q,
        m=f.m,
        members=base.members,
        provenance="balanced",
        pmepr_bound=float(1 << (profile.k + 1)),
        predicted=base.predicted,
        profile=profile,
    )


def doubled_cs(f: GbfPoly, profile: RestrictionProfile | None = None, *, restricted: Sequence[int] = ()) -> CsCandidate:
    """Union of the offset family with its isolated-vertex shift: always complementary.

    The second half adds (q/2) * sum of the isolated vertices to every
    member, flipping the sign of each residual off-peak term; the union of
    2^{k+2} sequences (a multiset when there are no isolated vertices) has
    zero summed autocorrelation at every nonzero shift.  Per-member PMEPR
    bound 2^{k+2} - 2M.
    """
    if profile is None:
        profile = analyze(f, restricted)
    base = offset_set(f, profile)
    q, m = f.q, f.m
    shift = GbfPoly.from_terms(q, m, ((1 << g.l, q // 2) for g in profile.groups))
    members = base.members + tuple(g + shift for g in base.members)
    return CsCandidate(
        q=q,
        m=m,
        members=members,
        provenance="doubled",
        pmepr_bound=float((1 << (profile.k + 2)) - 2 * profile.M),
        predicted=_predicted_aacf(profile, doubled=True),
        profile=profile,
    )


def golay_pair(f: GbfPoly, add0: int = 0, add1: int = 0) -> tuple[GbfPoly, GbfPoly]:
    """A complementary pair from a polynomial whose full coupling graph is a path.

    Returns ``(f + add0, f + (q/2) x_t + add1)`` with ``x_t`` the
    largest-index path endpoint; the constants are arbitrary phase shifts.
    """
    profile = analyze(f, ())
    if not profile.all_paths:
        raise GraphShapeError("the unrestricted coupling graph must be a path on all vertices")
    t = profile.endpoint(0)
    half = f.q // 2
    partner = f + GbfPoly.monomial(f.q, f.m, [t], half)
    return (f + add0, partner + add1)


def golay_candidate(f: GbfPoly, add0: int = 0, add1: int = 0) -> CsCandidate:
    """:func:`golay_pair` wrapped as a size-2 candidate (PMEPR bound 2)."""
    return CsCandidate(
        q=f.q,
        m=f.m,
        members=golay_pair(f, add0=add0, add1=add1),
        provenance="golay",
        pmepr_bound=2.0,
        predicted=_sparse_aacf(f.q, f.m, 2 << f.m),
    )


def standard_golay_gbfs(m: int, h: int) -> Iterator[GbfPoly]:
    """All (m!/2) * q^{m+1} standard path polynomials, q = 2**h.

    ``(q/2) * sum_i x_{pi(i)} x_{pi(i+1)} + sum_i g_i x_i + g'`` over vertex
    orderings ``pi`` (up to reversal), all linear coefficients, and all
    constants, in a fixed deterministic order.
    """
    if m < 2:
        raise ValueError("path polynomials need at least two variables")
    q = 1 << h
    half = q // 2
    for pi in itertools.permutations(range(m)):
        if pi[0] > pi[-1]:
            continue
        quad = path_quadratic(q, m, pi, half)
        for gword in range(q**m):
            lin = quad
            w = gword
            for i in range(m):
                w, g = divmod(w, q)
                if g:
                    lin = lin + GbfPoly.monomial(q, m, [i], g)
            for const in range(q):
                yield lin + const if const else lin


def quadratic_cs(f: GbfPoly, deleted: Sequence[int]) -> CsCandidate:
    """Complementary set from a quadratic polynomial by deleting vertices.

    ``f`` must be quadratic overall, and restricting the ``deleted``
    variables in every possible way must leave a path with q/2 edges —
    the classical generalized-pair route.  Yields 2^{k+1} sequences with
    PMEPR at most 2^{k+1}.
    """
    if f.degree() > 2:
        raise DegreeError(f"need a quadratic polynomial, got degree {f.degree()}")
    profile = analyze(f, deleted)
    if not profile.all_paths:
        raise GraphShapeError("every restriction must reduce to a path (no isolated vertices)")
    base = offset_set(f, profile)
    return CsCandidate(
        q=f.q,
        m=f.m,
        members=base.members,
        provenance="quadratic",
        pmepr_bound=float(1 << (profile.k + 1)),
        predicted=base.predicted,
        profile=profile,
    )


def path_restriction_cs(f: GbfPoly, restricted: Sequence[int]) -> CsCandidate:
    """Complementary set from a polynomial of any degree, all of whose
    restrictions are paths with q/2 edges."""
    profile = analyze(f, restricted)
    if not profile.all_paths:
        raise GraphShapeError("every restriction must reduce to a path (no isolated vertices)")
    base = offset_set(f, profile)
    return CsCandidate(
        q=f.q,
        m=f.m,
        members=base.members,
        provenance="path-restriction",
        pmepr_bound=float(1 << (profile.k + 1)),
        predicted=base.predicted,
        profile=profile,
    )


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
    """
    _require_power_of_two(q, "random_qualifying_gbf")
    if not 0 <= k < m:
        raise ValueError(f"need 0 <= k < m, got k={k}, m={m}")
    sizes = tuple(int(n) for n in group_sizes)
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
    blocks = [words[:M]]
    at = M
    for n in sizes:
        blocks.append(words[at : at + n])
        at += n

    f = GbfPoly.zero(q, m)
    for word in blocks[0]:
        ind = indicator_poly(q, m, Restriction.assign(restricted, word))
        order = unrestricted[:]
        rng.shuffle(order)
        f = f + ind * path_quadratic(q, m, order, half)
    for l, block in zip(isolated, blocks[1:]):
        others = [v for v in unrestricted if v != l]
        for word in block:
            ind = indicator_poly(q, m, Restriction.assign(restricted, word))
            order = others[:]
            rng.shuffle(order)
            f = f + ind * path_quadratic(q, m, order, half)
        xl = GbfPoly.variable(q, m, l)
        if balanced:
            for word in rng.sample(block, len(block) // 2):
                ind = indicator_poly(q, m, Restriction.assign(restricted, word))
                f = f + half * (ind * xl)
        else:
            for word in block:
                rho = rng.randrange(q)
                if rho:
                    ind = indicator_poly(q, m, Restriction.assign(restricted, word))
                    f = f + rho * (ind * xl)

    # free ingredients: any polynomial in the restricted variables, any
    # linear part, any constant
    for mask_bits in range(1, 1 << k):
        mask = 0
        for a in range(k):
            if (mask_bits >> a) & 1:
                mask |= 1 << restricted[a]
        coeff = rng.randrange(q)
        if coeff:
            f = f + GbfPoly(q, m, ((mask, coeff),))
    for i in range(m):
        g = rng.randrange(q)
        if g:
            f = f + GbfPoly.monomial(q, m, [i], g)
    gp = rng.randrange(q)
    if gp:
        f = f + gp

    check = analyze(f, restricted)
    assert check.M == M and tuple(sorted(check.group_sizes)) == tuple(sorted(sizes))
    assert not balanced or check.is_balanced()
    return f, tuple(restricted)


# -- candidate serialization ---------------------------------------------------


def cs_to_text(cand: CsCandidate) -> str:
    """One sequence per line, preceded by a self-describing header comment."""
    bound = cand.pmepr_bound
    btxt = str(int(bound)) if float(bound).is_integer() else repr(bound)
    header = (
        f"CS q={cand.q} m={cand.m} size={cand.size} "
        f"bound={btxt} provenance={cand.provenance}"
    )
    return write_sequences(cand.sequences(), [header])


def cs_meta_from_text(text: str) -> dict | None:
    """Recover the header dictionary from exported text, if one is present."""
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        if not stripped.startswith("#"):
            return None
        body = stripped.lstrip("#").strip()
        if not body.startswith("CS "):
            continue
        meta: dict[str, object] = {}
        for tok in body[3:].split():
            if "=" not in tok:
                raise ParseError(f"bad header token {tok!r}")
            key, val = tok.split("=", 1)
            if key in ("q", "m", "size"):
                meta[key] = int(val)
            elif key == "bound":
                meta[key] = float(val)
            else:
                meta[key] = val
        return meta
    return None
