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
path.  No restricted polynomial and no graph of one word is built: the first
failing word raises its error from its own column of the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import DegreeError, GraphShapeError
from .gbf import GbfPoly, _bits, _index, _word_text, restriction_table

__all__ = ["IsolatedGroup", "RestrictionProfile", "analyze"]


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
    in word order, and says what is wrong with it: a surviving cubic first,
    then the shape, then the weights.  The restricted indices must be integers (bools and floats are
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
    shaped, end, isolated = _path_shapes(len(verts), ends, edges)
    ok = shaped & ~live[[i for i, d in enumerate(sizes) if d >= 3]].any(0) & ~(edges & (table[pairs] != f.q // 2)).any(0)
    if not ok.all():
        word = int(np.argmin(ok))
        column = table[:, word].tolist()
        name = _word_text(word, k) or "(empty)"
        cubic = next((u for u, c in zip(units, column) if c and u.bit_count() >= 3), 0)
        if cubic:
            raise DegreeError(
                f"restriction {name}: term of degree {cubic.bit_count()} on variables {_bits(cubic)} survives the restriction; "
                "no pairwise-coupling graph exists"
            )
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
