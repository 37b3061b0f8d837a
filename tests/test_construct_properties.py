"""The coefficient-row family core against the GbfPoly-algebra reference.

Every builder is checked on random qualifying polynomials (m 3..10,
q in {2, 4, 8}, random isolated-group shapes) against
``construct_reference.py``: equal members, equal phases, and byte-equal JSON
and sequence text.  The trusted row constructor is checked against
``GbfPoly.from_terms`` and the zeta-transform value vector against the
term-by-term one.
"""

import collections
import itertools
import json
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cskit import (
    BalanceError,
    GbfPoly,
    PolyphaseSeq,
    analyze,
    balanced_cs,
    cs_to_text,
    doubled_cs,
    golay_pair,
    offset_set,
    path_restriction_cs,
    random_qualifying_gbf,
)
from cskit.gbf import anf_values, polys_from_rows, render_gbf

import construct_reference as reference

FAMILY = settings(max_examples=100, deadline=None, derandomize=True)


@st.composite
def qualifying_shapes(draw):
    """(m, k, q, group sizes, balanced, seed) that random_qualifying_gbf
    accepts, drawn uniformly from one seed: Hypothesis alone favors m = 3."""
    rng = random.Random(draw(st.integers(0, (1 << 32) - 1)))
    q = rng.choice([2, 4, 8])
    m = rng.randint(3, 10)
    k = rng.randint(0, min(4, m - 1))
    balanced = rng.random() < 0.5
    sizes = []
    room = 1 << k
    if m - k >= 3:
        for _ in range(rng.randint(0, min(2, m - k))):
            choices = [n for n in range(1, room + 1) if not balanced or n % 2 == 0]
            if not choices:
                break
            sizes.append(rng.choice(choices))
            room -= sizes[-1]
    return m, k, q, tuple(sizes), balanced, rng.randrange(1 << 31)


def assert_same_family(cand, ref_members):
    assert cand.members == ref_members
    phases = [s.phases for s in cand.sequences()]
    assert len(phases) == len(ref_members)
    for got, g in zip(phases, ref_members):
        assert np.array_equal(got, reference.value_vector(g))
    assert json.dumps(cand.to_json()) == json.dumps(reference.to_json(cand, ref_members))
    assert cs_to_text(cand) == reference.cs_to_text(cand, ref_members)


@FAMILY
@given(qualifying_shapes())
def test_builders_match_reference(shape):
    m, k, q, sizes, balanced, seed = shape
    f, restricted = random_qualifying_gbf(m, k, q, sizes, balanced=balanced, seed=seed)
    assert (f, restricted) == reference.random_qualifying_gbf(m, k, q, sizes, balanced=balanced, seed=seed)
    profile = analyze(f, restricted)
    offset = reference.members(f, profile, doubled=False)
    assert_same_family(offset_set(f, profile), offset)
    assert_same_family(doubled_cs(f, profile), reference.members(f, profile, doubled=True))
    if profile.is_balanced():
        assert_same_family(balanced_cs(f, profile), offset)
    else:
        with pytest.raises(BalanceError):
            balanced_cs(f, profile)
    if profile.all_paths:
        assert_same_family(path_restriction_cs(f, profile), offset)
        if k == 0:
            assert golay_pair(f) == offset


@FAMILY
@given(qualifying_shapes())
def test_predictions_match_the_cyclo_chain(shape):
    m, k, q, sizes, balanced, seed = shape
    f, restricted = random_qualifying_gbf(m, k, q, sizes, balanced=balanced, seed=seed)
    profile = analyze(f, restricted)
    builds = [(offset_set, False), (doubled_cs, True)]
    if profile.is_balanced():
        builds.append((balanced_cs, False))
    if profile.all_paths:
        builds.append((path_restriction_cs, False))
    for build, doubled in builds:
        cand = build(f, profile)
        assert np.array_equal(cand.predicted.coeffs, reference.predicted_coeffs(profile, doubled))
        assert cand.pmepr_bound == reference.pmepr_bound(profile, cand.provenance)


def test_sequences_equal_the_reference_sequences():
    """``sequences()`` wraps the rows of its phase matrix without copying:
    on the instances of acceptance criterion 2 (plus the doubled families)
    every sequence equals the one built from the reference value vector,
    with equal phase and mask arrays, and shares one read-only mask."""
    checked = 0
    for m, k, q in itertools.product(range(4, 9), range(3), (2, 4)):
        for seed in range(7):
            sizes = (1,) if m - k >= 3 else ()
            f, restricted = random_qualifying_gbf(m, k, q, sizes, seed=1000 * m + 100 * k + 10 * q + seed)
            profile = analyze(f, restricted)
            for build, doubled in ((offset_set, False), (doubled_cs, True)):
                seqs = build(f, profile).sequences()
                want = [PolyphaseSeq(q, reference.value_vector(g)) for g in reference.members(f, profile, doubled)]
                assert seqs == want
                for got, ref in zip(seqs, want):
                    assert got.q == q and got.phases.dtype == np.int64
                    assert np.array_equal(got.phases, ref.phases) and np.array_equal(got.mask, ref.mask)
                    assert got.mask is seqs[0].mask and not got.mask.flags.writeable
                checked += 1
    assert checked == 420


def test_export_writes_each_member_as_render_gbf():
    """The export written from factor runs, on offset, balanced and doubled
    families at q in {2, 4, 8}: every member is ``{"q", "m", "text"}`` with
    ``render_gbf`` of the member as its text.  The shapes cover k = 0, two
    isolated groups, and doubled families where the shift (q/2) x_l and the
    endpoint factor both touch the column x_l, a run of its own."""
    shapes = [(m, 0, ()) for m in (3, 5, 8)] + [(m, k, sizes) for m in (6, 8) for k, sizes in ((1, (1,)), (2, (2, 1)), (2, (2, 2)), (3, (4, 2)))]
    families, touched_twice = collections.Counter(), 0
    for (m, k, sizes), q, seed in itertools.product(shapes, (2, 4, 8), range(3)):
        balanced = all(n % 2 == 0 for n in sizes) and seed % 2 == 0
        f, restricted = random_qualifying_gbf(m, k, q, sizes, balanced=balanced, seed=100 * m + 10 * k + q + seed)
        profile = analyze(f, restricted)
        builds = (offset_set, doubled_cs, balanced_cs) if profile.is_balanced() else (offset_set, doubled_cs)
        for build in builds:
            cand = build(f, profile)
            assert cand.to_json()["members"] == [{"q": g.q, "m": g.m, "text": render_gbf(g)} for g in cand.members]
            touched_twice += bool(((cand.factors[1:] != 0).sum(0) > 1).any())
            families[build.__name__] += 1
    assert families == {"offset_set": 99, "doubled_cs": 99, "balanced_cs": 52}
    assert touched_twice == 19


def coefficient_rows(q, m, n, seed):
    """n rows of Z_q coefficients over up to 24 distinct ascending masks below
    2^m, in the dtypes the library passes (masks as Python ints above x62,
    rows as Python ints above 2^63): half the columns hold few distinct
    values, and some rows are all zero or repeat an earlier row."""
    rnd = random.Random(seed)
    cols = sorted({rnd.getrandbits(m) for _ in range(rnd.randrange(25))})
    values = [[0, *(rnd.randrange(q) for _ in range(3))] if rnd.random() < 0.5 else None for _ in cols]
    rows = []
    for _ in range(n):
        if rows and rnd.random() < 0.2:
            rows.append(rows[rnd.randrange(len(rows))])
        elif rnd.random() < 0.1:
            rows.append([0] * len(cols))
        else:
            rows.append([rnd.choice(v) if v else rnd.randrange(q) for v in values])
    wide = q > 1 << 63
    rows = np.array(rows, dtype=object if wide else np.min_scalar_type(q - 1)).reshape(n, len(cols))
    return np.array(cols, dtype=object if m > 62 else np.int64), rows


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from([2, 4, 8, 16, 1 << 24, 1 << 64]), st.sampled_from([1, 3, 8, 70]), st.sampled_from([0, 1, 2, "q - 1", "q", 1024]), st.integers(0, (1 << 32) - 1))
@example(2, 70, 1024, 1)  # shared pairs of masks above x62
@example(4, 8, "q", 2)
@example(1 << 24, 8, 1024, 3)
@example(1 << 64, 70, 1024, 4)
def test_trusted_constructor_equals_from_terms(q, m, n, seed):
    # at least q rows share each (mask, coefficient) pair; fewer build fresh ones
    n = min({"q - 1": q - 1, "q": q}.get(n, n), 1024)
    cols, rows = coefficient_rows(q, m, n, seed)
    got = polys_from_rows(q, m, cols, rows)
    want = [GbfPoly.from_terms(q, m, zip(cols.tolist(), row.tolist())) for row in rows]
    assert got == want
    assert [hash(g) for g in got] == [hash(w) for w in want]
    assert [g.terms for g in got] == [w.terms for w in want]
    assert [render_gbf(g) for g in got] == [render_gbf(w) for w in want]
    for g in got:
        assert all(type(x) is int for term in g.terms for x in term)
        GbfPoly(g.q, g.m, g.terms)  # passes the validation it skipped
    pairs = [term for g in got for term in g.terms]
    if n >= q:
        assert len({id(t) for t in pairs}) == len(set(pairs))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from([2, 4, 6, 8]), st.integers(1, 10), st.data())
def test_zeta_value_vector_equals_term_by_term(q, m, data):
    terms = data.draw(st.lists(st.tuples(st.integers(0, (1 << m) - 1), st.integers(0, q - 1)), max_size=40))
    f = GbfPoly.from_terms(q, m, terms)
    got = f.value_vector()
    assert got.dtype == np.int64
    assert np.array_equal(got, reference.value_vector(f))


@pytest.mark.parametrize("q", [2, 4, 6])
def test_zeta_value_vector_small_cases(q):
    for m in (1, 2):
        assert np.array_equal(GbfPoly(q, m).value_vector(), np.zeros(1 << m, dtype=np.int64))
    f = GbfPoly.from_terms(q, 1, {0: 1, 1: q - 1})
    assert f.value_vector().tolist() == [1, 0]
    cols = np.array([0, 1], dtype=np.int64)
    assert anf_values(q, 1, cols, np.array([[1, q - 1], [0, 1]])).tolist() == [[1, 0], [0, 1]]
