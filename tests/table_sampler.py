"""A Hypothesis strategy over the construction's whole hypothesis.

The theorem asks only that each of the 2^k restrictions of f be a path on
the unrestricted vertices, or a path plus one isolated vertex, with q/2 on
every edge.  A restriction's linear part and constant are free, word by
word.  ``random_qualifying_gbf`` draws per-word cells only for the path
edges and the isolated vertex's coupling, so a path vertex's linear term
there is global, and no instance holds a term x_r x_v with r restricted and
v a path vertex.

:func:`qualifying_polys` draws every free cell of f's restriction table
(:func:`cskit.gbf.restriction_table`) from Hypothesis primitives, so a
failing instance shrinks.  Per word it draws:

* which isolated vertex, if any, the word sets aside;
* a path order over the other unrestricted vertices, each edge weighing q/2;
* a linear coefficient for every unrestricted vertex, the isolated one's
  being its coupling (half 0 and half q/2 from word 0's, when a balanced
  family is asked for);
* a constant.

One Moebius transform over the restricted bits turns the table into f.
"""

import itertools

import numpy as np
from hypothesis import strategies as st

from cskit.gbf import _poly_from_parts, _subset_sums


@st.composite
def qualifying_polys(draw, max_m: int = 7, max_k: int = 3):
    """``(f, restricted)`` with every restriction a q/2-weighted path, or a
    path plus one isolated vertex, and every other cell of the table free."""
    q = draw(st.sampled_from([2, 4, 8]))
    k = draw(st.integers(0, max_k))
    m = k + draw(st.sampled_from(range(1, max_m - k + 1)))  # at least one vertex free
    order = draw(st.permutations(range(m)))
    restricted, free = sorted(order[:k]), sorted(order[k:])
    words = 1 << k
    half = q // 2
    balanced = draw(st.booleans())

    isolated = order[k : k + draw(st.sampled_from([1, 2, 0]))] if len(free) >= 3 else []
    alone = [draw(st.sampled_from([*isolated, None])) for _ in range(words)]  # the vertex each word sets aside
    if balanced:  # balance needs even group sizes: an odd group hands its last word to the paths
        for l in isolated:
            group = [w for w in range(words) if alone[w] == l]
            if len(group) % 2:
                alone[group[-1]] = None

    units = [0, *(1 << v for v in free), *((1 << a) | (1 << b) for a, b in itertools.combinations(free, 2))]
    row = {u: i for i, u in enumerate(units)}
    table = [[0] * words for _ in units]
    for w in range(words):
        table[0][w] = draw(st.integers(0, q - 1))
        for v in free:
            table[row[1 << v]][w] = draw(st.integers(0, q - 1))
        path = draw(st.permutations([v for v in free if v != alone[w]]))
        for a, b in zip(path, path[1:]):
            table[row[(1 << a) | (1 << b)]][w] = half
    if balanced:  # half of each group's couplings equal word 0's, the other half differ by q/2
        for l in isolated:
            group = [w for w in range(words) if alone[w] == l]
            others = [w for w in group if w]
            flipped = set(draw(st.permutations(others))[: len(group) // 2])
            cells = table[row[1 << l]]
            for w in group:
                cells[w] = (cells[0] + half * (w in flipped)) % q
    anf = _subset_sums(np.array(table, dtype=np.int64), k, inverse=True) % q
    return _poly_from_parts(q, m, restricted, units, anf), tuple(restricted)


def word_linear_terms(f, profile) -> int:
    """The terms x_r x_v of f with r restricted and v an unrestricted vertex
    that no restriction sets aside, a path vertex in every word: what
    ``random_qualifying_gbf`` never draws."""
    restricted = sum(1 << r for r in profile.restricted)
    paths = sum(1 << v for v in range(f.m)) & ~restricted & ~sum(1 << g.l for g in profile.groups)
    return sum(1 for tm, _ in f.terms if tm.bit_count() == 2 and tm & restricted and tm & paths)
