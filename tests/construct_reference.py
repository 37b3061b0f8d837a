"""Reference for the coefficient-row family core.

These are the constructions as they stood before every family was held as
Z_q coefficient rows: members built by ``GbfPoly`` algebra, one value vector
per member by summing every term over all 2^m points, each member exported
term by term, and the random qualifying polynomial summed by ``GbfPoly``
algebra, with the indicator and path polynomials it was summed from.  The
library keeps only sums and integer multiples, so the products are
:func:`product` here.
``test_construct_properties.py`` checks that the library gives the same
members, phases, text and JSON bytes, and the same random instances.
"""

import random
from typing import Sequence

import numpy as np

from cskit import GbfPoly, PolyphaseSeq, analyze, render_gbf, write_sequences
from cskit.graphs import RestrictionProfile

from cyclo_reference import folded, histogram


def product(f: GbfPoly, g: GbfPoly) -> GbfPoly:
    """The pointwise product mod q: every pair of terms multiplies into the
    monomial on the union of their variables, since ``x * x = x`` on bits."""
    return GbfPoly.from_terms(f.q, f.m, ((a | b, c * d) for a, c in f.terms for b, d in g.terms))


def indicator_poly(q: int, m: int, restricted: Sequence[int], word: int) -> GbfPoly:
    """The 0/1-valued polynomial that is 1 exactly where bit a of ``word``
    is the value of the a-th smallest restricted variable.

    Product over the restricted variables of ``x_j`` (bit 1) or ``1 - x_j``
    (bit 0); with none restricted it is the constant 1.
    """
    out = GbfPoly.from_terms(q, m, {0: 1})
    for a, j in enumerate(sorted(restricted)):
        xj = GbfPoly.variable(q, m, j)
        out = product(out, xj if (word >> a) & 1 else (q - 1) * xj + 1)
    return out


def path_quadratic(q: int, m: int, order: Sequence[int], weight: int) -> GbfPoly:
    """``weight * sum_i x_{order[i]} x_{order[i+1]}`` — the path's edge sum."""
    pairs = ((1 << order[i]) | (1 << order[i + 1]) for i in range(len(order) - 1))
    return GbfPoly.from_terms(q, m, ((mask, weight) for mask in pairs))


def value_vector(f: GbfPoly) -> np.ndarray:
    """All 2^m values, one pass over the points per term."""
    idx = np.arange(1 << f.m, dtype=np.int64)
    total = np.zeros(1 << f.m, dtype=np.int64)
    for tm, c in f.terms:
        total += c * ((idx & tm) == tm)
    return total % f.q


def _endpoint_poly(profile: RestrictionProfile) -> GbfPoly:
    """Indicator-weighted sum of the per-restriction path endpoints."""
    q, m = profile.q, profile.m
    total = GbfPoly(q, m)
    for word, t in profile.endpoints:
        ind = indicator_poly(q, m, profile.restricted, word)
        total = total + product(ind, GbfPoly.variable(q, m, t))
    return total


def _offset_members(f: GbfPoly, profile: RestrictionProfile) -> tuple[GbfPoly, ...]:
    q, m = f.q, f.m
    half = q // 2
    t_poly = _endpoint_poly(profile)
    members = []
    for d in (0, 1):
        for word in range(1 << profile.k):
            off = GbfPoly(q, m)
            if d:
                off = off + t_poly
            for a, j in enumerate(profile.restricted):
                if (word >> a) & 1:
                    off = off + GbfPoly.variable(q, m, j)
            members.append(f + half * off)
    return tuple(members)


def members(f: GbfPoly, profile: RestrictionProfile, doubled: bool) -> tuple[GbfPoly, ...]:
    """The offset family, or the doubled one: the offset family, then each
    member plus (q/2) * the sum of the isolated vertices."""
    base = _offset_members(f, profile)
    if not doubled:
        return base
    shift = GbfPoly.from_terms(f.q, f.m, ((1 << g.l, f.q // 2) for g in profile.groups))
    return base + tuple(g + shift for g in base)


def predicted_coeffs(profile: RestrictionProfile, doubled: bool) -> np.ndarray:
    """The predicted summed autocorrelation, each row folded from its
    exponent histogram: peak n * 2^m, and unless doubled the row ``2^m *
    sum_c omega^{g_l + L_c}`` at shift 2^l for each isolated group."""
    q, m, k = profile.q, profile.m, profile.k
    coeffs = np.zeros((1 << m, q // 2), dtype=np.int64)
    coeffs[0, 0] = (1 << (k + 2) if doubled else 1 << (k + 1)) << m
    if not doubled:
        for g in profile.groups:
            coeffs[1 << g.l] = folded(q, histogram(q, [(g.g_l + v, 1 << m) for v in g.l_values]))
    return coeffs


def pmepr_bound(profile: RestrictionProfile, provenance: str) -> int:
    """The per-member PMEPR bound each construction states."""
    if provenance in ("balanced", "golay", "path-restriction"):
        return 1 << (profile.k + 1)
    return (1 << (profile.k + 2)) - 2 * profile.M


def to_json(cand, polys: Sequence[GbfPoly]) -> dict:
    """``CsCandidate.to_json`` with every member rendered on its own."""
    return {
        "q": cand.q,
        "m": cand.m,
        "size": len(polys),
        "provenance": cand.provenance,
        "pmepr_bound": cand.pmepr_bound,
        "members": [{"q": g.q, "m": g.m, "text": render_gbf(g)} for g in polys],
        "predicted_aacf": cand.predicted.to_json(),
    }


def cs_to_text(cand, polys: Sequence[GbfPoly]) -> str:
    """``cs_to_text`` with each sequence from its own reference value vector."""
    bound = cand.pmepr_bound
    btxt = str(int(bound)) if float(bound).is_integer() else repr(bound)
    header = f"CS q={cand.q} m={cand.m} size={len(polys)} bound={btxt} provenance={cand.provenance}"
    return write_sequences([PolyphaseSeq(g.q, value_vector(g)) for g in polys], [header])


def random_qualifying_gbf(
    m: int, k: int, q: int, group_sizes: Sequence[int] = (), *, balanced: bool = False, seed: int
) -> tuple[GbfPoly, tuple[int, ...]]:
    """The random qualifying polynomial by ``GbfPoly`` algebra (argument
    checks left to the library, which runs them before any draw)."""
    sizes = tuple(int(n) for n in group_sizes)
    M = (1 << k) - sum(sizes)
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

    f = GbfPoly(q, m)
    for word in blocks[0]:
        ind = indicator_poly(q, m, restricted, word)
        order = unrestricted[:]
        rng.shuffle(order)
        f = f + product(ind, path_quadratic(q, m, order, half))
    for l, block in zip(isolated, blocks[1:]):
        others = [v for v in unrestricted if v != l]
        for word in block:
            ind = indicator_poly(q, m, restricted, word)
            order = others[:]
            rng.shuffle(order)
            f = f + product(ind, path_quadratic(q, m, order, half))
        xl = GbfPoly.variable(q, m, l)
        if balanced:
            for word in rng.sample(block, len(block) // 2):
                ind = indicator_poly(q, m, restricted, word)
                f = f + half * product(ind, xl)
        else:
            for word in block:
                rho = rng.randrange(q)
                if rho:
                    ind = indicator_poly(q, m, restricted, word)
                    f = f + rho * product(ind, xl)

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
            f = f + GbfPoly.monomial(q, m, [i]) * g
    gp = rng.randrange(q)
    if gp:
        f = f + gp

    check = analyze(f, restricted)
    assert check.M == M and tuple(sorted(check.group_sizes)) == tuple(sorted(sizes))
    assert not balanced or check.is_balanced()
    return f, tuple(restricted)
