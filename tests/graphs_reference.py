"""Reference for the restriction-table analysis.

These are ``graphs.analyze`` and ``codebook._indicator_anf`` as they stood
before the restriction table: one restricted ``GbfPoly`` per restriction
word (:func:`restrict`), its coupling graph built from the reduced terms
(:func:`graph_of`, a ``(vertices, edges)`` tuple) and classified on its own
by tracing the path through an adjacency list (:func:`classify`, a
``(kind, path, isolated)`` tuple), the surpluses of the isolated vertices
read from the restricted polynomial (:func:`l_value`), and the indicator
ANF expanded word by word.  ``test_restriction_table.py`` checks that the
library gives equal profiles, the same refusals for the same first word,
the same shape, isolated vertex and larger path end as the walk of
``graphs._path_shapes`` on every small graph, and equal indicator dicts in
the same key order.
"""

import itertools
from typing import Iterable, Sequence

from cskit import DegreeError, GbfPoly, GraphShapeError
from cskit.gbf import _bits
from cskit.graphs import IsolatedGroup, RestrictionProfile

Graph = tuple[tuple[int, ...], tuple[tuple[int, int, int], ...]]  # vertices, edges (u < v, weight)
Shape = tuple[str, tuple[int, ...], int | None]  # kind, path from its smaller end, isolated vertex


def assignment(m: int, restricted: Sequence[int], word: int) -> dict[int, int]:
    """Bit a of ``word`` for the a-th smallest restricted index, in index
    order; an index outside [0, m) is refused."""
    idx = sorted(restricted)
    if any(not 0 <= i < m for i in idx):
        raise ValueError(f"restricted indices {idx} out of range for m={m}")
    return {i: (word >> a) & 1 for a, i in enumerate(idx)}


def word_name(bits: dict[int, int]) -> str:
    """The assigned bits, smallest restricted index first."""
    return "".join(str(b) for b in bits.values()) or "(empty)"


def restrict(f: GbfPoly, restricted: Sequence[int], word: int) -> GbfPoly:
    """Substitute the word's bits for the restricted variables, term by
    term: a term holding a variable set to 0 vanishes, and a variable set to
    1 drops out of its monomial.  Indices are kept; the terms are re-summed
    mod q."""
    bits = assignment(f.m, restricted, word)
    out = []
    for mask, coeff in f.terms:
        fixed = [i for i in _bits(mask) if i in bits]
        if all(bits[i] for i in fixed):
            out.append((mask - sum(1 << i for i in fixed), coeff))
    return GbfPoly.from_terms(f.q, f.m, out)


def graph_of(f: GbfPoly, restricted: Sequence[int], word: int) -> Graph:
    """The coupling graph of the reduced restricted polynomial."""
    vertices = [i for i in range(f.m) if i not in restricted]
    if not vertices:
        raise ValueError("restriction fixes every variable")
    edges = []
    for mask, coeff in restrict(f, restricted, word).terms:
        deg = mask.bit_count()
        if deg >= 3:
            raise DegreeError(
                f"restriction {word_name(assignment(f.m, restricted, word))}: "
                f"term of degree {deg} on variables {_bits(mask)} survives the restriction; "
                "no pairwise-coupling graph exists"
            )
        if deg == 2:
            edges.append(((mask & -mask).bit_length() - 1, mask.bit_length() - 1, coeff))
    return tuple(vertices), tuple(sorted(edges))


def _trace_path(edges: Sequence[tuple[int, int, int]], verts: Sequence[int]) -> tuple[int, ...] | None:
    """Ordered vertices if the edge set forms a path on ``verts``."""
    n = len(verts)
    if n == 1:
        return (verts[0],) if not edges else None
    if len(edges) != n - 1:
        return None
    adj: dict[int, list[int]] = {v: [] for v in verts}
    for u, v, _ in edges:
        adj[u].append(v)
        adj[v].append(u)
    degs = {v: len(ns) for v, ns in adj.items()}
    ends = sorted(v for v, d in degs.items() if d == 1)
    if len(ends) != 2 or any(d > 2 for d in degs.values()):
        return None
    order = [ends[0]]
    seen = {ends[0]}
    while len(order) < n:
        nxt = [w for w in adj[order[-1]] if w not in seen]
        if len(nxt) != 1:
            return None
        order.append(nxt[0])
        seen.add(nxt[0])
    return tuple(order)


def classify(g: Graph) -> Shape:
    """A path, a path plus one isolated vertex, or neither ("other", with no
    path and no isolated vertex)."""
    vertices, edges = g
    path = _trace_path(edges, vertices)
    if path is not None:
        return "path", path, None
    isolated = [v for v in vertices if not any(v in (a, b) for a, b, _ in edges)]
    if len(isolated) == 1 and len(vertices) >= 3:
        path = _trace_path(edges, [v for v in vertices if v != isolated[0]])
        if path is not None:
            return "path-plus-isolated", path, isolated[0]
    return "other", (), None


def l_value(f: GbfPoly, l: int, restricted: Sequence[int], word: int) -> int:
    """The linear coefficient of ``x_l`` after the restriction, less its
    global one, mod q; refused while ``x_l`` is still coupled, which
    :func:`analyze` never asks for."""
    if l in restricted:
        raise ValueError(f"x{l} is itself restricted")
    reduced = restrict(f, restricted, word)
    for mask, _ in reduced.terms:
        if (mask >> l) & 1 and mask.bit_count() >= 2:
            raise ValueError(
                f"x{l} is still coupled through {_bits(mask)} at assignment {word_name(assignment(f.m, restricted, word))}"
            )
    return (reduced.linear_coeff(l) - f.linear_coeff(l)) % f.q


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
        name = word_name(assignment(f.m, idx, word))
        g = graph_of(f, idx, word)
        kind, path, isolated = classify(g)
        if kind == "other":
            raise GraphShapeError(
                f"restriction {name} is neither a path nor "
                "a path plus one isolated vertex"
            )
        bad = {w for _, _, w in g[1] if w != half}
        if bad:
            raise GraphShapeError(
                f"restriction {name} has edge weight(s) "
                f"{sorted(bad)}; all must equal q/2 = {half}"
            )
        endpoints.append((word, max(path[0], path[-1])))
        if kind == "path":
            path_words.append(word)
        else:
            by_vertex.setdefault(isolated, []).append(word)
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
