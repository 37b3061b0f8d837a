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
path.  No restricted polynomial is built: the first failing word raises its
error from its own column of the table.  :func:`graph_of` and
:func:`l_value` read one column of the same table, and :func:`classify`
runs the same walk on one graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Literal, Sequence

import numpy as np

from .errors import DegreeError, GraphShapeError, MixedCouplingError
from .gbf import GbfPoly, Restriction, _bits, _index, _word_text, restriction_table

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

    def __post_init__(self) -> None:
        vset, pairs = set(self.vertices), {(u, v) for u, v, _ in self.edges}
        if len(vset) < len(self.vertices) or len(pairs) < len(self.edges) or not all(u < v and {u, v} <= vset for u, v in pairs):
            raise ValueError(f"not a simple graph with edges keyed u < v: {self.vertices}, {self.edges}")

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

    Vertices are exactly the unrestricted variable indices, and the edges
    are the pairs live in the restriction's column of the restriction table;
    raises :class:`DegreeError` if a term of degree >= 3 survives the
    reduction.
    """
    fixed = set(restriction.indices)
    vertices = tuple(i for i in range(f.m) if i not in fixed)
    if not vertices:
        raise ValueError("restriction fixes every variable")
    restriction.variable_mask(f.m)  # refuses a restricted index beyond x_{m-1}
    units, table = restriction_table(f, restriction.indices)
    column = table[:, restriction.word()].tolist()
    _refuse_cubic(units, column)
    edges = sorted((*_bits(u), c) for u, c in zip(units, column) if c and u.bit_count() == 2)
    return RestrictionGraph(vertices, tuple(edges))


def classify(g: RestrictionGraph) -> ShapeClass:
    """Decide whether ``g`` is a path, a path plus one isolated vertex, or neither."""
    verts = sorted(g.vertices)
    if not verts:
        return ShapeClass("other")
    at = {v: p for p, v in enumerate(verts)}
    ends = np.array([(at[u], at[v]) for u, v, _ in g.edges], dtype=np.intp).reshape(-1, 2)
    ok, _, isolated, order = _path_shapes(len(verts), ends, np.ones((len(ends), 1), dtype=bool))
    return _shape_class(verts, len(ends), ok[0], isolated[0], order[:, 0])


def _shape_class(verts: Sequence[int], count: int, ok: bool, isolated: int, order: np.ndarray) -> ShapeClass:
    """The :class:`ShapeClass` of one column of :func:`_path_shapes` on the
    vertices ``verts`` (ascending) with ``count`` edges: the path is the
    first ``count + 1`` positions of the walk."""
    if not ok:
        return ShapeClass("other")
    path = tuple(verts[p] for p in order[: count + 1].tolist())
    if isolated < 0:
        return ShapeClass("path", path=path)
    return ShapeClass("path-plus-isolated", path=path, isolated=verts[isolated])


def l_value(f: GbfPoly, l: int, restricted: Sequence[int], word: int) -> int:
    """Coupling surplus of ``x_l`` under the restriction encoded by ``word``.

    This is the linear coefficient of ``x_l`` in the reduced restricted
    polynomial minus its global linear coefficient — i.e. the mod-q sum of
    the couplings of ``x_l`` to monomials in restricted variables, evaluated
    at the assignment.  Both are cells of the restriction table: the column
    of ``word`` and that of word 0.  Defined only when ``x_l`` is isolated
    there: if it still occurs in a term of degree >= 2,
    :class:`MixedCouplingError` is raised.
    """
    l = _index(l, "variable indices must be integers")
    if l in restricted:
        raise ValueError(f"x{l} is itself restricted")
    if not 0 <= l < f.m:
        raise ValueError(f"x{l} is not a variable of a polynomial in m={f.m} variables")
    r = Restriction.assign(restricted, word)
    r.variable_mask(f.m)  # refuses a restricted index beyond x_{m-1}
    units, table = restriction_table(f, r.indices)
    for u, c in zip(units, table[:, r.word()].tolist()):
        if c and (u >> l) & 1 and u.bit_count() >= 2:
            raise MixedCouplingError(f"x{l} is still coupled through {_bits(u)} at assignment {r.bitstring()}")
    if 1 << l not in units:
        return 0
    now, base = table[units.index(1 << l), [r.word(), 0]].tolist()
    return (now - base) % f.q


def _refuse_cubic(units: Sequence[int], column: Sequence[int]) -> None:
    """Raise :class:`DegreeError` for the first unit of three or more
    variables live in ``column``."""
    for u, c in zip(units, column):
        if c and u.bit_count() >= 3:
            raise DegreeError(
                f"term of degree {u.bit_count()} on variables {_bits(u)} survives the restriction; "
                "no pairwise-coupling graph exists"
            )


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
        bits = [_word_text(w, self.k) for w in range(1 << self.k)]
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
    docstring), all words at once.  The error names the first failing word,
    in word order, and says what :func:`graph_of` and :func:`classify` find
    wrong with it: a surviving cubic first, then the shape, then the
    weights.  The restricted indices must be integers (bools and floats are
    refused); they are kept as Python ints.

    The profiles of the last few ``(f, restricted)`` pairs are kept, so
    analyzing the same polynomial again (as the callers of
    :func:`cskit.construct.random_qualifying_gbf` do after its self-check)
    is free; both the polynomial and the profile are immutable.
    """
    return _analyze(f, tuple(_index(i, "restricted indices must be integers") for i in restricted))


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
    ends = np.array([(at[(units[i] & -units[i]).bit_length() - 1], at[units[i].bit_length() - 1]) for i in pairs], dtype=np.intp).reshape(-1, 2)
    shaped, end, isolated, _ = _path_shapes(len(verts), ends, edges)
    ok = shaped & ~live[[i for i, d in enumerate(sizes) if d >= 3]].any(0) & ~(edges & (table[pairs] != f.q // 2)).any(0)
    if not ok.all():
        word = int(np.argmin(ok))
        column = table[:, word].tolist()
        _refuse_cubic(units, column)
        name = _word_text(word, k) or "(empty)"
        if not shaped[word]:
            raise GraphShapeError(f"restriction {name} is neither a path nor a path plus one isolated vertex")
        bad = sorted({c for u, c in zip(units, column) if u.bit_count() == 2 and c not in (0, f.q // 2)})
        raise GraphShapeError(f"restriction {name} has edge weight(s) {bad}; all must equal q/2 = {f.q // 2}")
    groups = []
    for p in sorted(set(isolated.tolist()) - {-1}):
        l = verts[p]
        members = np.flatnonzero(isolated == p)
        linear = table[units.index(1 << l)] if 1 << l in units else np.zeros(1 << k, dtype=np.int64)
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


def _path_shapes(n: int, ends: np.ndarray, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shape of each word's graph on the vertex positions 0 .. n-1, whose
    edges are the pairs ``ends`` marked live in that word's column of
    ``edges``.  Per word: whether the graph is a path on every vertex or
    (n >= 3) a path plus one isolated vertex; the larger end of the path;
    the isolated vertex, or -1; and, as an ``(n, words)`` array, the
    positions the walk visits, whose first edges + 1 are the path from its
    smaller end."""
    words = np.arange(edges.shape[1])
    if n == 1:  # a lone vertex is a path
        zeros = np.zeros(len(words), dtype=np.intp)
        return np.ones(len(words), dtype=bool), zeros, np.full(len(words), -1), zeros[None]
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
    order = [cur]
    for _ in range(n - 1):
        cur, prev = nsum[cur, words] - prev, cur
        order.append(cur)
    count = live.sum(0)
    ok &= cur == np.where(count == n - 1, end, 2 * n - 2 - count)
    return ok, end, np.where(lone == 1, np.argmax(degree == 0, axis=0), -1), np.array(order)
