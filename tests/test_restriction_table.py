"""The restriction table against the per-restriction reference.

``gbf.restriction_table`` holds the coefficient of every unrestricted
monomial after every restriction word; ``graphs.analyze``,
``random_qualifying_gbf`` and ``codebook._indicator_anf`` are built on it, and
``gbf._family_json`` writes a family's members from its factor rows.  Each is
checked against ``graphs_reference.py`` (the analysis one restricted
polynomial at a time, the indicator expanded word by word) or against
``render_gbf``: equal profiles, the same refusal (type and message) for the
same first word, equal indicator dicts in the same key order, and equal
member text.  The walk that ``analyze`` runs along every word's graph is
checked against the reference's adjacency-list path tracing on every small
graph.  Wide domains (masks on x63 and above, q = 2^64) run the same code
on Python ints.
"""

import itertools
import random

import numpy as np
import pytest

from cskit import DegreeError, GbfPoly, GraphShapeError, analyze, parse_gbf, random_qualifying_gbf, render_gbf
from cskit.codebook import _indicator_anf
from cskit.construct import _family_sum
from cskit.gbf import _family_json, _poly_from_parts, _subset_sums, polys_from_rows, restriction_table
from cskit.graphs import _path_shapes

import construct_reference
import graphs_reference as reference


def outcome(fn, *args):
    """The result of ``fn``, or the type and message of its refusal."""
    try:
        return fn(*args)
    except (ValueError, AssertionError) as exc:
        return type(exc), str(exc)


def random_poly(rng: random.Random, q: int, m: int, n_terms: int) -> GbfPoly:
    return GbfPoly.from_terms(q, m, [(rng.getrandbits(m) & rng.getrandbits(m), rng.randrange(q)) for _ in range(n_terms)])


def shapes(seed: int, count: int, m_max: int = 12, k_max: int = 7):
    """(m, k, q, group sizes, balanced, seed) accepted by random_qualifying_gbf."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        m = rng.randint(2, m_max)
        k = rng.randint(0, min(k_max, m - 1))
        q = rng.choice([2, 4, 8, 16])
        balanced = rng.random() < 0.5
        sizes, room = [], 1 << k
        if m - k >= 3:
            for _ in range(rng.randint(0, min(3, m - k))):
                choices = [n for n in range(1, room + 1) if not balanced or n % 2 == 0]
                if not choices:
                    break
                sizes.append(rng.choice(choices))
                room -= sizes[-1]
        out.append((m, k, q, tuple(sizes), balanced, rng.randrange(1 << 31)))
    return out


@pytest.mark.parametrize("q", [2, 4, 8, 16, 1 << 64])
def test_table_holds_every_restriction(q):
    """Column w of the table is f restricted by word w; the Moebius
    transform of the table gives f back."""
    rng = random.Random(q)
    for _ in range(40):
        m = rng.randint(1, 9)
        k = rng.randint(0, m)
        f = random_poly(rng, q, m, rng.randint(0, 40))
        idx = sorted(rng.sample(range(m), k))
        units, table = restriction_table(f, idx)
        assert units == sorted({tm & ~sum(1 << i for i in idx) for tm, _ in f.terms})
        for w in range(1 << k):
            want = dict(reference.restrict(f, idx, w).terms)
            assert {u: c for u, c in zip(units, table[:, w].tolist()) if c} == want
        anf = _subset_sums(table.copy(), k, inverse=True) % q
        assert _poly_from_parts(q, m, idx, units, anf) == f


def test_profiles_equal_the_reference():
    """m <= 12, k <= 7, q in {2, 4, 8, 16}, with and without isolated
    groups, balanced or not: one profile, field for field."""
    for m, k, q, sizes, balanced, seed in shapes(13, 150):
        f, restricted = random_qualifying_gbf(m, k, q, sizes, balanced=balanced, seed=seed)
        assert analyze(f, restricted) == reference.analyze(f, restricted)


def test_random_instances_equal_the_reference():
    """The table-built random polynomial is the GbfPoly-algebra one."""
    for m, k, q, sizes, balanced, seed in shapes(17, 60, m_max=10, k_max=6):
        got = random_qualifying_gbf(m, k, q, sizes, balanced=balanced, seed=seed)
        assert got == construct_reference.random_qualifying_gbf(m, k, q, sizes, balanced=balanced, seed=seed)


def test_refusals_equal_the_reference():
    """Qualifying polynomials with one term added (a surviving cubic, a wrong
    edge weight, an extra edge that makes a star, a cycle or two isolated
    vertices, or anything at all) and bad restricted indices: the same
    profile or the same refusal, type and message, for the same first word."""
    rng = random.Random(5)
    refused = {"DegreeError": 0, "neither a path": 0, "edge weight": 0, "restricted indices": 0, "unrestricted": 0}
    for m, k, q, sizes, balanced, seed in shapes(19, 200):
        f, restricted = random_qualifying_gbf(m, k, q, sizes, balanced=balanced, seed=seed)
        free = [v for v in range(m) if v not in restricted]
        picks = [
            rng.sample(free, min(3, len(free))) + rng.sample(restricted, rng.randint(0, k)),  # a cubic, maybe coupled
            rng.sample(free, min(2, len(free))),  # an edge: a new one or a changed weight
            rng.sample(range(m), rng.randint(0, m)),  # anything
        ]
        for variables in picks:
            g = f + GbfPoly.monomial(q, m, variables) * (rng.randrange(1, q) if q > 2 else 1)
            want = outcome(reference.analyze, g, restricted)
            assert outcome(analyze, g, restricted) == want
            refused.update((key, refused[key] + 1) for key in refused if key in str(want))
        for bad in ([*restricted, restricted[0]] if restricted else [0, 0], [m], [-1], list(range(m))):
            want = outcome(reference.analyze, f, bad)
            assert outcome(analyze, f, bad) == want
            refused.update((key, refused[key] + 1) for key in refused if key in str(want))
    assert all(refused.values()), refused


@pytest.mark.parametrize("labels", ["0..n-1", "3, 5, 7, ..."])
def test_classify_equals_the_reference_on_every_small_graph(labels):
    """Every simple graph on 1 to 6 vertices: the walk of all its edge sets
    at once accepts exactly the reference's paths and paths plus one
    isolated vertex, and finds the same isolated vertex and the same larger
    path end (the offset vertex of ``analyze``)."""
    for n in range(1, 7):
        verts = list(range(n)) if labels == "0..n-1" else list(range(3, 3 + 2 * n, 2))
        pairs = list(itertools.combinations(range(n), 2))
        edges = (np.arange(1 << len(pairs)) >> np.arange(len(pairs))[:, None]) & 1 == 1
        ok, end, isolated = _path_shapes(n, np.array(pairs, dtype=np.intp).reshape(-1, 2), edges)
        for s in range(edges.shape[1]):
            live = tuple((verts[u], verts[v], 2) for (u, v), e in zip(pairs, edges[:, s]) if e)
            kind, path, lone = reference.classify((tuple(verts), live))
            assert ok[s] == (kind != "other"), live
            if ok[s]:
                assert verts[end[s]] == max(path[0], path[-1]), live
                assert (verts[isolated[s]] if isolated[s] >= 0 else None) == lone, live


def test_first_failing_word_is_named():
    """Words 1 and 3 fail (x0 = 1 leaves the x2*x3 edge at weight 1, not
    q/2): both analyses name word 1, also when a second term makes word 2
    fail on its shape."""
    f = parse_gbf("q=4;m=4; 2*x2*x3 + 3*x0*x2*x3")
    for g in (f, f + parse_gbf("q=4;m=4; 2*x1*x2*x3")):
        want = outcome(reference.analyze, g, [0, 1])
        assert outcome(analyze, g, [0, 1]) == want
        assert want == (GraphShapeError, "restriction 10 has edge weight(s) [1]; all must equal q/2 = 2")


def test_indicator_anf_equals_the_reference():
    """Dicts equal, keys in the same (ascending) order, for any variable
    order, repeated words and moduli up to 2^64."""
    rng = random.Random(7)
    for _ in range(300):
        k = rng.randint(0, 7)
        variables = rng.sample(range(rng.choice([12, 70])), k)
        if rng.random() < 0.5:
            variables.sort()
        words = [rng.randrange(1 << k) for _ in range(rng.randint(0, 1 << k))]
        q = rng.choice([2, 4, 8, 16, 1 << 64])
        got = _indicator_anf(variables, words, q)
        want = reference.indicator_anf(variables, words, q)
        assert list(got.items()) == list(want.items())
    assert _indicator_anf([0, 2], range(4), 8) == {0: 1}  # every word: the constant 1


@pytest.mark.parametrize("m, q", [(70, 4), (8, 1 << 64), (70, 1 << 64)])
def test_wide_domains_stay_exact(m, q):
    """Masks on x63 and above and q = 2^64 run the same code on Python ints:
    the random instance, its profile and a refusal match the references."""
    for k, sizes, balanced, seed in [(3, (2, 4), True, 1), (2, (1,), False, 2), (0, (), False, 3)]:
        f, restricted = random_qualifying_gbf(m, k, q, sizes, balanced=balanced, seed=seed)
        assert (f, restricted) == construct_reference.random_qualifying_gbf(m, k, q, sizes, balanced=balanced, seed=seed)
        assert analyze(f, restricted) == reference.analyze(f, restricted)
        free = [v for v in range(m) if v not in restricted]
        cubic = f + GbfPoly.monomial(q, m, free[-3:]) * (q - 1)
        want = outcome(reference.analyze, cubic, restricted)
        assert outcome(analyze, cubic, restricted) == want and want[0] is DegreeError
    if m > 63:
        assert max(tm for tm, _ in f.terms).bit_length() > 63
    variables = [m - 1, m - 3, 1]
    assert _indicator_anf(variables, [0, 5, 5, 6], q) == reference.indicator_anf(variables, [0, 5, 5, 6], q)


def test_member_text_from_factor_rows():
    """Random factor rows over shared columns: columns that f alone holds,
    that one factor or several touch, zero columns and rows, and families of
    no factor at all.  Each text is render_gbf of the member that
    ``_family_sum`` adds up from the rows."""
    rng = np.random.default_rng(11)
    several = 0
    for _ in range(300):
        q = int(rng.choice([2, 4, 8, 16]))
        m = int(rng.integers(1, 10))
        cols = np.sort(rng.choice(1 << m, size=int(rng.integers(0, min(40, 1 << m) + 1)), replace=False)).astype(np.int64)
        factors = rng.integers(0, q, size=(int(rng.integers(1, 7)), len(cols)))
        factors[rng.random(factors.shape) < rng.random()] = 0
        factors[rng.random(len(factors)) < 0.1] = 0
        factors = factors.astype(np.uint8)
        texts = [blob["text"] for blob in _family_json(q, m, cols, factors)]
        assert texts == [render_gbf(g) for g in polys_from_rows(q, m, cols, _family_sum(factors, q))]
        several += bool(((factors[1:] != 0).sum(0) > 1).any())
    assert several
