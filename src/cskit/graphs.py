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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Literal, Sequence

from .errors import DegreeError, GraphShapeError, MixedCouplingError
from .gbf import GbfPoly, Restriction, _bits

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
        endpoints.append((word, max(shape.endpoints)))  # type: ignore[arg-type]
        if shape.kind == "path":
            path_words.append(word)
        else:
            by_vertex.setdefault(shape.isolated, []).append(word)  # type: ignore[arg-type]
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
