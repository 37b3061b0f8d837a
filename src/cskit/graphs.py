"""Graphs of pairwise couplings in restricted polynomials, and their shapes.

Fixing k of the m variables of a polynomial leaves a polynomial in the other
m - k.  When every surviving term has degree at most two, the quadratic part
defines a weighted graph on the unrestricted variables: an edge {u, v} with
weight equal to the (nonzero) coefficient of ``x_u x_v`` *after* reduction
mod q — cancellations matter, which is why the graph is always built from the
reduced restricted polynomial.

The complementary-set constructions in :mod:`cskit.construct` need each of
the 2^k restriction graphs to be either a path on all unrestricted vertices
or a path plus exactly one isolated vertex, with every path edge weighing
q/2.  :func:`analyze` checks this wholesale and returns a
:class:`RestrictionProfile` collecting everything the constructions consume:
which restrictions are pure paths, which isolate which vertex, the chosen
path endpoint per restriction, and the linear-coupling surpluses of the
isolated vertices.

:func:`analyze` reads all 2^k restrictions at once from the restriction
table of :func:`cskit.gbf.restriction_table` (one zeta transform over the
restricted variables): per word, the surviving coefficient of every pair
(the edges and their weights), of every larger monomial (a surviving cubic)
and of every vertex (the isolated-vertex surpluses).  The shapes are decided
for every word together from the vertex degrees and one walk along each
path.  No restricted polynomial is built unless a word fails: then that
word alone goes through the per-restriction path (:func:`graph_of`,
:func:`classify`), which raises the error of that restriction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Literal, Sequence

import numpy as np

from .errors import DegreeError, GraphShapeError, MixedCouplingError
from .gbf import GbfPoly, Restriction, _bits, restriction_table

__all__ = [
    "RestrictionGraph",
    "ShapeClass",
    "IsolatedGroup",
    "RestrictionProfile",
    "graph_of",
    "classify",
    "analyze",
    "l_value",
]


@dataclass(frozen=True)
class RestrictionGraph:
    """Weighted simple graph on variable indices; edges keyed with u < v."""

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int, int], ...]

    @classmethod
    def from_poly(cls, reduced: GbfPoly, vertices: Sequence[int]) -> RestrictionGraph:
        verts = tuple(sorted(vertices))
        vset = set(verts)
        edges = []
        for mask, coeff in reduced.terms:
            deg = mask.bit_count()
            if deg >= 3:
                raise DegreeError(
                    f"term of degree {deg} on variables {_bits(mask)} survives the restriction; "
                    "no pairwise-coupling graph exists"
                )
            if deg == 2:
                u = (mask & -mask).bit_length() - 1
                v = mask.bit_length() - 1
                if u not in vset or v not in vset:
                    raise ValueError(f"edge ({u},{v}) uses a vertex outside {verts}")
                edges.append((u, v, coeff))
        return cls(verts, tuple(sorted(edges)))

    def degree(self, v: int) -> int:
        return sum(1 for a, b, _ in self.edges if v in (a, b))

    def weights(self) -> set[int]:
        return {w for _, _, w in self.edges}


@dataclass(frozen=True)
class ShapeClass:
    """Classification of a restriction graph.

    ``kind`` is ``"path"`` (a single path covering every vertex; a lone
    vertex counts), ``"path-plus-isolated"`` (a path on n-1 >= 2 vertices
    plus exactly one degree-zero vertex), or ``"other"``.  For the first two
    kinds ``path`` lists the path vertices in order, starting from the
    smaller endpoint; ``isolated`` names the degree-zero vertex if any.
    """

    kind: Literal["path", "path-plus-isolated", "other"]
    path: tuple[int, ...] = ()
    isolated: int | None = None

    @property
    def endpoints(self) -> tuple[int, int] | None:
        if not self.path:
            return None
        return (self.path[0], self.path[-1])


def graph_of(f: GbfPoly, restriction: Restriction) -> RestrictionGraph:
    """Coupling graph of ``f`` after applying ``restriction``.

    Vertices are exactly the unrestricted variable indices; raises
    :class:`DegreeError` if a term of degree >= 3 survives the reduction.
    """
    fixed = set(restriction.indices)
    vertices = [i for i in range(f.m) if i not in fixed]
    if not vertices:
        raise ValueError("restriction fixes every variable")
    return RestrictionGraph.from_poly(f.restrict(restriction), vertices)


def _trace_path(g: RestrictionGraph, verts: Sequence[int]) -> tuple[int, ...] | None:
    """Ordered vertices if the induced edge set forms a path on ``verts``."""
    n = len(verts)
    if n == 1:
        return (verts[0],) if not g.edges else None
    if len(g.edges) != n - 1:
        return None
    adj: dict[int, list[int]] = {v: [] for v in verts}
    for u, v, _ in g.edges:
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


def classify(g: RestrictionGraph) -> ShapeClass:
    """Decide whether ``g`` is a path, a path plus one isolated vertex, or neither."""
    path = _trace_path(g, g.vertices)
    if path is not None:
        return ShapeClass("path", path=path)
    isolated = [v for v in g.vertices if g.degree(v) == 0]
    if len(isolated) == 1 and len(g.vertices) >= 3:
        rest = [v for v in g.vertices if v != isolated[0]]
        sub = RestrictionGraph(tuple(rest), g.edges)
        path = _trace_path(sub, rest)
        if path is not None:
            return ShapeClass("path-plus-isolated", path=path, isolated=isolated[0])
    return ShapeClass("other")


def l_value(f: GbfPoly, l: int, restricted: Sequence[int], word: int) -> int:
    """Coupling surplus of ``x_l`` under the restriction encoded by ``word``.

    This is the linear coefficient of ``x_l`` in the reduced restricted
    polynomial minus its global linear coefficient — i.e. the mod-q sum of
    the couplings of ``x_l`` to monomials in restricted variables, evaluated
    at the assignment.  Defined only when ``x_l`` is isolated there: if it
    still occurs in a term of degree >= 2, :class:`MixedCouplingError` is
    raised.
    """
    if l in restricted:
        raise ValueError(f"x{l} is itself restricted")
    r = Restriction.assign(restricted, word)
    reduced = f.restrict(r)
    for mask, _ in reduced.terms:
        if (mask >> l) & 1 and mask.bit_count() >= 2:
            raise MixedCouplingError(
                f"x{l} is still coupled through {_bits(mask)} at assignment {r.bitstring()}"
            )
    return (reduced.linear_coeff(l) - f.linear_coeff(l)) % f.q


@dataclass(frozen=True)
class IsolatedGroup:
    """All restrictions that isolate one particular vertex.

    ``members`` lists the restriction words, ``l_values[a]`` the coupling
    surplus of the isolated vertex at ``members[a]``, and ``g_l`` its global
    linear coefficient.
    """

    l: int
    members: tuple[int, ...]
    g_l: int
    l_values: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)

    def is_balanced(self, q: int) -> bool:
        """Half the surpluses are 0 and half are q/2 (requires even size)."""
        if self.size % 2:
            return False
        zeros = sum(1 for v in self.l_values if v == 0)
        halves = sum(1 for v in self.l_values if v == q // 2)
        return zeros == halves == self.size // 2


@dataclass(frozen=True)
class RestrictionProfile:
    """Everything :mod:`cskit.construct` needs about the 2^k restrictions.

    ``path_words`` are the restriction words whose graph is a full path
    (M = len(path_words)); ``groups`` collects the path-plus-isolated
    restrictions by isolated vertex; ``endpoints[word]`` is the chosen
    offset vertex — the largest-index endpoint of the path part.
    """

    q: int
    m: int
    restricted: tuple[int, ...]
    path_words: tuple[int, ...]
    groups: tuple[IsolatedGroup, ...]
    endpoints: tuple[tuple[int, int], ...]

    @property
    def k(self) -> int:
        return len(self.restricted)

    @property
    def M(self) -> int:
        return len(self.path_words)

    @property
    def group_sizes(self) -> tuple[int, ...]:
        return tuple(g.size for g in self.groups)

    @property
    def all_paths(self) -> bool:
        return not self.groups

    def is_balanced(self) -> bool:
        """True when every isolated group satisfies the half/half condition."""
        return all(g.is_balanced(self.q) for g in self.groups)

    def to_json(self) -> dict:
        bits = {w: Restriction.assign(self.restricted, w).bitstring() for w in range(1 << self.k)}
        return {
            "q": self.q,
            "m": self.m,
            "k": self.k,
            "restricted": list(self.restricted),
            "M": self.M,
            "path_words": [bits[w] for w in self.path_words],
            "groups": [
                {
                    "isolated": g.l,
                    "words": [bits[w] for w in g.members],
                    "g_l": g.g_l,
                    "l_values": list(g.l_values),
                    "balanced": g.is_balanced(self.q),
                }
                for g in self.groups
            ],
            "endpoints": {bits[w]: t for w, t in self.endpoints},
            "balanced": self.is_balanced(),
        }


def analyze(f: GbfPoly, restricted: Sequence[int]) -> RestrictionProfile:
    """Classify all 2^k restrictions of ``f`` and check the construction hypothesis.

    Every restriction graph must be a path on the unrestricted vertices or a
    path plus one isolated vertex, and every path edge must weigh exactly
    q/2; otherwise :class:`GraphShapeError` (or :class:`DegreeError`, for
    surviving cubic terms) is raised with the offending assignment.

    The graphs are read from the restriction table of ``f`` (see the module
    docstring), all words at once.  The first failing word, in word order,
    is checked again on its own by the per-restriction path, so the error
    names that word and says what :func:`graph_of` and :func:`classify`
    find wrong with it.

    The profiles of the last few ``(f, restricted)`` pairs are kept, so
    analyzing the same polynomial again (as the callers of
    :func:`cskit.construct.random_qualifying_gbf` do after its self-check)
    is free; both the polynomial and the profile are immutable.
    """
    return _analyze(f, tuple(restricted))


@lru_cache(maxsize=8)
def _analyze(f: GbfPoly, restricted: tuple[int, ...]) -> RestrictionProfile:
    idx = tuple(sorted(set(restricted)))
    if len(idx) != len(restricted):
        raise ValueError("restricted indices must be distinct")
    k = len(idx)
    if any(i < 0 or i >= f.m for i in idx):
        raise ValueError(f"restricted indices {idx} out of range for m={f.m}")
    if k >= f.m:
        raise ValueError("at least one variable must stay unrestricted")
    units, table = restriction_table(f, idx)
    verts = [i for i in range(f.m) if i not in idx]
    at = {v: p for p, v in enumerate(verts)}
    sizes = [u.bit_count() for u in units]
    pairs = np.array([i for i, d in enumerate(sizes) if d == 2], dtype=np.intp)
    live = table != 0
    edges = live[pairs]
    ok = ~live[[i for i, d in enumerate(sizes) if d >= 3]].any(0) & ~(edges & (table[pairs] != f.q // 2)).any(0)
    ends = np.array([(at[(units[i] & -units[i]).bit_length() - 1], at[units[i].bit_length() - 1]) for i in pairs], dtype=np.intp).reshape(-1, 2)
    shaped, end, isolated = _path_shapes(len(verts), ends, edges)
    ok &= shaped
    if not ok.all():
        _check_restriction(f, idx, int(np.argmin(ok)))
        raise AssertionError("the restriction table and the per-restriction check disagree")
    row = {u: i for i, u in enumerate(units)}
    groups = []
    for p in sorted(set(isolated.tolist()) - {-1}):
        l = verts[p]
        members = np.flatnonzero(isolated == p)
        linear = table[row[1 << l]] if 1 << l in row else np.zeros(1 << k, dtype=np.int64)
        values = (linear[members] - linear[0]) % f.q
        groups.append(IsolatedGroup(l, tuple(members.tolist()), f.linear_coeff(l), tuple(values.tolist())))
    return RestrictionProfile(
        q=f.q,
        m=f.m,
        restricted=idx,
        path_words=tuple(np.flatnonzero(isolated < 0).tolist()),
        groups=tuple(groups),
        endpoints=tuple(enumerate(np.array(verts)[end].tolist())),
    )


def _path_shapes(n: int, ends: np.ndarray, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shape of each word's graph on the vertex positions 0 .. n-1, whose
    edges are the pairs ``ends`` marked live in that word's column of
    ``edges``.  Per word: whether the graph is a path on every vertex or
    (n >= 3) a path plus one isolated vertex; the larger end of the path;
    and the isolated vertex, or -1."""
    words = np.arange(edges.shape[1])
    if n == 1:  # a lone vertex is a path
        return np.ones(len(words), dtype=bool), np.zeros(len(words), dtype=np.intp), np.full(len(words), -1)
    side = np.arange(n)[:, None] == ends.T[:, None, :]  # (end, vertex, edge)
    live = edges.astype(np.int64)
    degree = side.sum(0) @ live
    lone = (degree == 0).sum(0)
    ok = (degree.max(0) <= 2) & ((degree == 1).sum(0) == 2) & (lone <= (n >= 3))
    start = np.where(ok, np.argmax(degree == 1, axis=0), n)
    end = np.where(ok, n - 1 - np.argmax(degree[::-1] == 1, axis=0), 0)
    # Walk n-1 steps from the smaller end.  At degree <= 2 the next vertex
    # is the sum of the neighbours less the vertex before; past the other
    # end the walk runs down a chain of n extra positions, so the final
    # position tells how many steps the path took.  The graph is a path
    # (plus the isolated vertex) when that is its edge count: no cycle is
    # left over.  Words that already failed walk the chain from its start.
    nsum = np.zeros((2 * n, len(words)), dtype=np.int64)
    nsum[:n] = (side[0] * ends[:, 1] + side[1] * ends[:, 0]) @ live + n * (degree == 1)
    nsum[n] = n + 1 + end
    nsum[n + 1 :] = 2 * np.arange(n + 1, 2 * n)[:, None]
    cur, prev = start, np.where(ok, n, end)
    for _ in range(n - 1):
        cur, prev = nsum[cur, words] - prev, cur
    count = live.sum(0)
    ok &= cur == np.where(count == n - 1, end, 2 * n - 2 - count)
    return ok, end, np.where(lone == 1, np.argmax(degree == 0, axis=0), -1)


def _check_restriction(f: GbfPoly, idx: tuple[int, ...], word: int) -> None:
    """The per-restriction check of one word: raise the error that word
    earns (:class:`DegreeError` for a surviving cubic term,
    :class:`GraphShapeError` for a wrong shape or edge weight)."""
    r = Restriction.assign(idx, word)
    g = graph_of(f, r)
    if classify(g).kind == "other":
        raise GraphShapeError(
            f"restriction {r.bitstring() or '(empty)'} is neither a path nor "
            "a path plus one isolated vertex"
        )
    bad = {w for w in g.weights() if w != f.q // 2}
    if bad:
        raise GraphShapeError(
            f"restriction {r.bitstring() or '(empty)'} has edge weight(s) "
            f"{sorted(bad)}; all must equal q/2 = {f.q // 2}"
        )
