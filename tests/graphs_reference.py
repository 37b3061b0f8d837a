"""Reference for the restriction-table analysis.

These are ``graphs.analyze`` and ``codebook._indicator_anf`` as they stood
before the restriction table: one restricted ``GbfPoly`` per restriction
word, its coupling graph built and classified on its own, the surpluses of
the isolated vertices read by ``l_value``, and the indicator ANF expanded
word by word.  ``test_restriction_table.py`` checks that the library gives
equal profiles, the same refusals for the same first word, and equal
indicator dicts in the same key order.
"""

import itertools
from typing import Iterable, Sequence

from cskit import GbfPoly, GraphShapeError, Restriction, graph_of, l_value
from cskit.graphs import IsolatedGroup, RestrictionProfile, classify


def analyze(f: GbfPoly, restricted: Sequence[int]) -> RestrictionProfile:
    """Classify the 2^k restrictions of ``f`` one restricted polynomial at a time."""
    idx = tuple(sorted(set(restricted)))
    if len(idx) != len(restricted):
        raise ValueError("restricted indices must be distinct")
    k = len(idx)
    if any(i < 0 or i >= f.m for i in idx):
        raise ValueError(f"restricted indices {idx} out of range for m={f.m}")
    if k >= f.m:
        raise ValueError("at least one variable must stay unrestricted")
    half = f.q // 2
    path_words: list[int] = []
    endpoints: list[tuple[int, int]] = []
    by_vertex: dict[int, list[int]] = {}
    for word in range(1 << k):
        r = Restriction.assign(idx, word)
        g = graph_of(f, r)
        shape = classify(g)
        if shape.kind == "other":
            raise GraphShapeError(
                f"restriction {r.bitstring() or '(empty)'} is neither a path nor "
                "a path plus one isolated vertex"
            )
        bad = {w for w in g.weights() if w != half}
        if bad:
            raise GraphShapeError(
                f"restriction {r.bitstring() or '(empty)'} has edge weight(s) "
                f"{sorted(bad)}; all must equal q/2 = {half}"
            )
        endpoints.append((word, max(shape.endpoints)))
        if shape.kind == "path":
            path_words.append(word)
        else:
            by_vertex.setdefault(shape.isolated, []).append(word)
    groups = []
    for l in sorted(by_vertex):
        words = tuple(sorted(by_vertex[l]))
        values = tuple(l_value(f, l, idx, w) for w in words)
        groups.append(IsolatedGroup(l, words, f.linear_coeff(l), values))
    return RestrictionProfile(
        q=f.q,
        m=f.m,
        restricted=idx,
        path_words=tuple(path_words),
        groups=tuple(groups),
        endpoints=tuple(endpoints),
    )


def indicator_anf(variables: Sequence[int], words: Iterable[int], q: int) -> dict[int, int]:
    """Each word's indicator expanded over the subsets S of its 0-bits as
    (-1)^|S| x_{ones + S}, summed; coefficients mod q, masks ascending."""
    acc: dict[int, int] = {}
    for word in words:
        bits = [(1 << v, (word >> a) & 1) for a, v in enumerate(variables)]
        ones = sum(b for b, bit in bits if bit)
        zeros = [b for b, bit in bits if not bit]
        for sub in itertools.product((0, 1), repeat=len(zeros)):
            mask = ones + sum(z for z, s in zip(zeros, sub) if s)
            acc[mask] = acc.get(mask, 0) + (-1) ** sum(sub)
    return {mask: c % q for mask, c in sorted(acc.items()) if c % q}
