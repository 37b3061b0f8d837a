"""The exhaustive census of a small domain: the theorems checked on every
(f, R) pair, not on a sample.

At (q, m) = (2, 4) every part of degree at least 2 (the 2^11 subsets of the
11 monomials of degree 2 to 4) meets every restricted set of at most two
variables (11 sets), 22,528 pairs.  ``analyze`` must agree with
``graphs_reference.analyze`` on each, refusal type and message included.
On each accepted pair the offset family's predicted summed autocorrelation
must be its measured one, and the balanced and doubled families must be
complementary.  Affine parts are left out; that they change no verdict of
``analyze`` is only spot-checked.
"""

import collections
import itertools

from cskit import GbfPoly, analyze, balanced_cs, doubled_cs, is_cs, offset_set, set_aacf

import graphs_reference as reference

Q, M, K_MAX = 2, 4, 2


def outcome(fn, *args):
    """The result of ``fn``, or the type and message of its refusal."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def test_census_q2_m4():
    monomials = [mask for mask in range(1 << M) if bin(mask).count("1") >= 2]
    restricted_sets = [r for k in range(K_MAX + 1) for r in itertools.combinations(range(M), k)]
    assert len(monomials) == 11 and len(restricted_sets) == 11
    verdicts, balanced, doubled = collections.Counter(), 0, 0
    for part in itertools.product((0, 1), repeat=len(monomials)):
        f = GbfPoly.from_terms(Q, M, [(mask, 1) for mask, c in zip(monomials, part) if c])
        for restricted in restricted_sets:
            profile = outcome(analyze, f, restricted)
            assert profile == outcome(reference.analyze, f, restricted)
            if isinstance(profile, tuple):
                verdicts[profile[0].__name__] += 1
                continue
            verdicts["accepted"] += 1
            cand = offset_set(f, profile)
            assert set_aacf(cand.sequences()) == cand.predicted
            if profile.is_balanced():
                assert is_cs(balanced_cs(f, profile).sequences())
                balanced += 1
            assert is_cs(doubled_cs(f, profile).sequences())
            doubled += 1
    assert verdicts == {"accepted": 1944, "GraphShapeError": 12968, "DegreeError": 7616}
    assert (balanced, doubled) == (1116, 1944)
