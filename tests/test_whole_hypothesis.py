"""The construction theorem on its whole hypothesis (``table_sampler.py``).

Every free cell of the restriction table is drawn, the per-word linear
terms of the path vertices included, and the properties of acceptance
criteria 2-4 are checked with shrinking: the predicted summed
autocorrelation equals ``set_aacf``, the balanced and doubled families are
complementary, and every member's PMEPR grid is at most the family's bound.
The JSON export writes every member as ``render_gbf`` does.
"""

from hypothesis import given, settings

from cskit import BalanceError, analyze, balanced_cs, doubled_cs, is_cs, offset_set, pmepr, render_gbf, set_aacf

from table_sampler import qualifying_polys, word_linear_terms


@settings(max_examples=300, deadline=None, derandomize=True)
@given(qualifying_polys())
def test_theorem_on_the_whole_hypothesis(instance):
    f, restricted = instance
    profile = analyze(f, restricted)
    offset, doubled = offset_set(f, profile), doubled_cs(f, profile)
    try:
        balanced = balanced_cs(f, profile)
    except BalanceError:
        assert not profile.is_balanced()
        balanced = None
    assert set_aacf(offset.sequences()).values == offset.predicted.values
    for cand in (doubled, balanced) if balanced else (doubled,):
        seqs = cand.sequences()
        assert set_aacf(seqs).values == cand.predicted.values
        assert is_cs(seqs)
        assert max(pmepr(s) for s in seqs) <= cand.pmepr_bound + 1e-6
    for cand in (offset, doubled):
        assert [g["text"] for g in cand.to_json()["members"]] == [render_gbf(g) for g in cand.members]


def test_sampler_draws_word_dependent_linear_terms():
    """The sampler reaches what ``random_qualifying_gbf`` does not: terms
    x_r x_v on a path vertex v, and balanced families."""
    seen = {"x_r x_v": 0, "balanced groups": 0}

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(qualifying_polys())
    def draw(instance):
        f, restricted = instance
        profile = analyze(f, restricted)
        seen["x_r x_v"] += word_linear_terms(f, profile)
        seen["balanced groups"] += bool(profile.groups) and profile.is_balanced()

    draw()
    assert all(seen.values()), seen
