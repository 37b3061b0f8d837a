"""Randomized invariant checks (hypothesis, derandomized).

Four suites, each budgeted at 1000 generated cases:

  1. bilinear decomposition of cross-correlations over a deeper restriction,
  2. autocorrelation values against a direct float oracle + conjugate symmetry,
  3. the restricted sequences of a variable set partition the full sequence,
  4. the PMEPR grid estimate is sandwiched between 1 and the
     autocorrelation upper bound, and grows with grid refinement.

A counter records how many cases each suite actually executed.  The four
are not collected here (``__test__ = False``): acceptance criterion 9 in
``test_acceptance.py`` runs each once and pins its total at 1000 or more, so
a silently-shrunk search fails loudly.

A fifth suite checks the FFT correlation core against the exact shift loop,
a sixth the bit-sliced minimum-distance kernel against brute force, and a
seventh the coefficient-row codebook enumerators against the GbfPoly-algebra
reference in ``codebook_reference.py``, and an eighth the polyphase-split
PMEPR grid against one zero-padded FFT, with exact nesting of refined grids.
"""

import itertools
import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from cskit import (
    GbfPoly,
    PolyphaseSeq,
    aacf,
    cross_corr,
    pmepr,
    pmepr_autocorr_bound,
    psi,
    psi_restricted,
    set_aacf,
)
from cskit import codebook, correlation
from cskit.construct import standard_golay_gbfs
from cskit.errors import EnumerationError

import codebook_reference as reference
from cskit.correlation import _corr_coeff_matrix, _fft_coeffs

CASES = Counter()

COMMON = settings(max_examples=1000, deadline=None, derandomize=True)


def random_gbf(draw, q, m, max_terms=10):
    n_terms = draw(st.integers(0, max_terms))
    terms = [
        (draw(st.integers(0, (1 << m) - 1)), draw(st.integers(0, q - 1)))
        for _ in range(n_terms)
    ]
    return GbfPoly.from_terms(q, m, terms)


@st.composite
def gbf_pair_with_split(draw):
    """Two polynomials plus two disjoint restricted index sets."""
    q = draw(st.sampled_from([2, 4, 8]))
    m = draw(st.integers(2, 5))
    f = random_gbf(draw, q, m)
    g = random_gbf(draw, q, m)
    indices = draw(st.permutations(range(m)))
    k1 = draw(st.integers(0, min(2, m - 1)))
    k2 = draw(st.integers(1, min(2, m - k1)))
    return f, g, sorted(indices[:k1]), sorted(indices[k1 : k1 + k2])


@st.composite
def raw_seq(draw, max_m=8):
    q = draw(st.sampled_from([2, 4, 8, 16]))
    m = draw(st.integers(1, max_m))
    phases = draw(
        st.lists(st.integers(0, q - 1), min_size=1 << m, max_size=1 << m)
    )
    return PolyphaseSeq(q, phases)


@st.composite
def gbf_with_restriction(draw):
    q = draw(st.sampled_from([2, 4, 8]))
    m = draw(st.integers(1, 8))
    f = random_gbf(draw, q, m, max_terms=8)
    k = draw(st.integers(1, min(3, m)))
    restricted = sorted(draw(st.permutations(range(m)))[:k])
    return f, restricted


@COMMON
@given(gbf_pair_with_split())
def test_cross_corr_decomposes_over_restrictions(case):
    """Refining a restriction splits a cross-correlation into the double sum
    of the cross-correlations of all refined pieces, exactly."""
    CASES["decomposition"] += 1
    f, g, outer, inner = case
    outer_words = range(1 << len(outer))
    inner_words = range(1 << len(inner))
    deep = sorted(outer + inner)

    def deepen(word: int, extra: int) -> int:
        """The word on ``deep`` that puts ``word`` on outer and ``extra`` on inner."""
        bit = {v: (word >> a) & 1 for a, v in enumerate(outer)} | {v: (extra >> a) & 1 for a, v in enumerate(inner)}
        return sum(bit[v] << a for a, v in enumerate(deep))

    for c in outer_words:
        d = (c * 7 + 1) % (1 << len(outer)) if outer else 0
        whole = cross_corr(psi_restricted(f, outer, c), psi_restricted(g, outer, d))
        pieces = []
        for c2 in inner_words:
            pieces.append(
                [
                    cross_corr(
                        psi_restricted(f, deep, deepen(c, c2)),
                        psi_restricted(g, deep, deepen(d, d2)),
                    )
                    for d2 in inner_words
                ]
            )
        total = sum(piece.coeffs for row in pieces for piece in row)
        assert np.array_equal(total, whole.coeffs)


@COMMON
@given(raw_seq())
def test_aacf_matches_float_oracle_and_symmetry(a):
    CASES["oracle"] += 1
    vec = aacf(a)
    vals = a.complex_values()
    L = len(a)
    for tau in range(L):
        oracle = np.sum(vals[tau:] * np.conj(vals[: L - tau]))
        assert abs(complex(vec.at(tau)) - oracle) < 1e-7 * max(1.0, abs(oracle))
        assert vec.at(-tau) == vec.at(tau).conj()
        oracle = np.sum(vals[: L - tau] * np.conj(vals[tau:]))
        assert abs(complex(vec.at(-tau)) - oracle) < 1e-7 * max(1.0, abs(oracle))


@COMMON
@given(gbf_with_restriction())
def test_restrictions_partition_the_sequence(case):
    CASES["partition"] += 1
    f, restricted = case
    full = psi(f)
    masks = []
    accum = np.zeros(1 << f.m, dtype=complex)
    for word in range(1 << len(restricted)):
        piece = psi_restricted(f, restricted, word)
        masks.append(piece.mask)
        accum += piece.complex_values()
        # surviving entries agree with the unrestricted sequence
        assert np.array_equal(piece.phases[piece.mask], full.phases[piece.mask])
    stacked = np.array(masks)
    assert (stacked.sum(axis=0) == 1).all()  # each position in exactly one piece
    np.testing.assert_allclose(accum, full.complex_values(), atol=1e-12)


@COMMON
@given(raw_seq(max_m=6))
def test_pmepr_sandwich_and_refinement(a):
    CASES["sandwich"] += 1
    coarse = pmepr(a, oversample=4)
    fine = pmepr(a, oversample=8)
    bound = pmepr_autocorr_bound(a)
    assert coarse >= 1.0 - 1e-9
    assert fine >= coarse - 1e-12  # the coarse grid is a subset of the fine one
    assert fine <= bound + 1e-9


for _suite in (
    test_cross_corr_decomposes_over_restrictions,
    test_aacf_matches_float_oracle_and_symmetry,
    test_restrictions_partition_the_sequence,
    test_pmepr_sandwich_and_refinement,
):
    _suite.__test__ = False  # run by criterion 9 alone


@st.composite
def masked_set(draw):
    """One to eight masked sequences sharing a modulus and a length."""
    q = draw(st.sampled_from([2, 4, 8, 16]))
    L = draw(st.integers(1, 80))
    n = draw(st.integers(1, 8))
    seqs = []
    for _ in range(n):
        phases = draw(arrays(np.int64, L, elements=st.integers(0, q - 1)))
        mask = draw(arrays(bool, L) | st.just(np.ones(L, dtype=bool)))
        seqs.append(PolyphaseSeq(q, phases, mask))
    return seqs


@settings(max_examples=400, deadline=None, derandomize=True)
@given(masked_set())
def test_fft_core_matches_the_shift_loop(seqs):
    """The FFT estimate is within the rounding margin of the exact matrices,
    and cross_corr, aacf and set_aacf return those matrices."""
    a, b = seqs[0], seqs[-1]
    q, L = a.q, len(a)
    autos = [_corr_coeff_matrix(s, s) for s in seqs]
    exact_set, exact_cross = sum(autos), _corr_coeff_matrix(a, b)
    assert np.abs(_fft_coeffs([(s, s) for s in seqs], q, L) - exact_set).max() < 0.25
    assert np.abs(_fft_coeffs([(a, b)], q, L) - exact_cross).max() < 0.25
    assert np.array_equal(set_aacf(seqs).coeffs, exact_set)
    assert np.array_equal(aacf(a).coeffs, autos[0])
    assert np.array_equal(cross_corr(a, b).coeffs, exact_cross)


def naive_weights(gens, q, m):
    """Lee and squared Euclidean weights of every span element, one codeword
    at a time."""
    idx = np.arange(1 << m)
    cols = [((idx & mask) == mask).astype(np.int64) for mask, _, _ in gens]
    etab = 4.0 * np.sin(np.pi * np.arange(q) / q) ** 2
    lees, eucs = [], []
    for combo in itertools.product(*(range(count) for _, _, count in gens)):
        v = np.zeros(1 << m, dtype=np.int64)
        for (_, step, _), a, col in zip(gens, combo, cols):
            v += a * step * col
        v %= q
        lees.append(int(np.minimum(v, q - v).sum()))
        eucs.append(float(etab[v].sum()))
    return np.array(lees), np.array(eucs)


@st.composite
def generator_subset(draw):
    """A random subset of the generators of F(r, m, h), at most 2^9 words,
    and a prefix-block size that splits it into block and outer combinations."""
    h = draw(st.integers(1, 4))
    m = draw(st.integers(1, 7))
    r = draw(st.integers(0, m))
    gens = codebook._f_generators(r, m, h)
    chosen = draw(st.lists(st.sampled_from(gens), min_size=1, max_size=len(gens), unique=True))
    kept, size = [], 1
    for g in chosen:
        if size * g[2] <= 1 << 9:
            kept.append(g)
            size *= g[2]
    block_words = draw(st.sampled_from([1, 2, 8, 64, 1 << 16]))
    return kept, 1 << h, m, block_words


@settings(max_examples=300, deadline=None, derandomize=True)
@given(generator_subset())
def test_bit_sliced_min_weights_match_brute_force(case):
    """Lee weights agree exactly and squared Euclidean ones within 1e-9, for
    L < 64 (padded words), one 64-bit word (m = 6) and two (m = 7): every
    weight, and the minimum nonzero ones."""
    gens, q, m, block_words = case
    with mock.patch.object(codebook, "_BLOCK_WORDS", block_words):
        blocks = list(reference._span_weights(gens, q, m))
        lee, euc = reference._min_weights_direct(gens, q, m)
    want_lee, want_euc = naive_weights(gens, q, m)
    # the whole weight distribution, so that an adder fault shows even where
    # it misses the minimum
    assert np.array_equal(np.sort(np.concatenate([b[0] for b in blocks])), np.sort(want_lee))
    np.testing.assert_allclose(np.sort(np.concatenate([b[1] for b in blocks])), np.sort(want_euc), rtol=0, atol=1e-9)
    nonzero = want_lee > 0
    assert lee == want_lee[nonzero].min()
    assert abs(euc - want_euc[nonzero].min()) <= 1e-9


BLOCK_CAPS = st.sampled_from([1, 2, 8, None])  # None: the default


@st.composite
def cartesian_case(draw):
    """Up to six factors of 0..5 rows each, rows of width 0..4 over Z_q, and
    block caps that split the sum into blocks of a few rows."""
    q = draw(st.sampled_from([2, 4, 16]))
    width = draw(st.integers(0, 4))
    sizes = draw(st.lists(st.integers(0, 5), max_size=6))
    factors = [draw(arrays(np.uint8, (n, width), elements=st.integers(0, q - 1))) for n in sizes]
    caps = {"_BLOCK_WORDS": draw(BLOCK_CAPS), "_BLOCK_SYMBOLS": draw(BLOCK_CAPS)}
    return q, width, factors, {name: getattr(codebook, name) if cap is None else cap for name, cap in caps.items()}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cartesian_case())
def test_cartesian_blocks_match_the_unblocked_sum(case):
    """Every head plus the block, in order, is the unblocked sum, which is
    every pick of one row per factor (the first factor slowest), mod q; and
    no head times the block exceeds the caps."""
    q, width, factors, caps = case
    zero = np.zeros((1, width), dtype=np.uint8)
    with mock.patch.multiple(codebook, **caps):
        block, heads = codebook._cartesian_blocks([len(f) for f in factors], lambda i, lo, hi: factors[i][lo:hi], width, q)
        parts = [codebook._cartesian_sum([block], q, head) for head in heads]
    limit = max(1, min(caps["_BLOCK_WORDS"], caps["_BLOCK_SYMBOLS"] // max(width, 1)))
    assert all(len(part) <= limit for part in parts)
    unblocked = codebook._cartesian_sum(factors, q, zero)
    assert np.array_equal(np.concatenate(parts), unblocked)
    picks = [sum(pick, np.zeros(width, dtype=np.int64)) % q for pick in itertools.product(*factors)]
    assert np.array_equal(unblocked, np.array(picks, dtype=np.int64).reshape(len(picks), width))


# -- coefficient-row enumerators against the GbfPoly-algebra reference ----------

# block caps small enough that every family splits into many blocks, and the
# default; likewise for the rows turned into polynomials at a time
SPLITS = st.sampled_from([1, 3, 40, 1 << 24])
YIELDS = st.sampled_from([1, 7, 1 << 10])
HEAD = 600  # words compared per request
WHOLE = {("C4", 4, 2): 832}  # (family, m, r) of a union code compared in full, and its word count


@st.composite
def codebook_request(draw):
    """A small named family and its parameters."""
    family = draw(st.sampled_from(["ERM", "A", "A1", "R", "R1", "R2", "C4", "C8", "GOLAY"]))
    h = draw(st.integers(1, 3))
    kw = {}
    if family == "GOLAY":
        m = draw(st.integers(2, 4))
    elif family == "ERM":
        m = draw(st.integers(1, 4))
        kw["r"] = draw(st.integers(-1, m))
    elif family in ("A", "A1"):
        m = draw(st.integers(2, 5))
        kw["k"] = draw(st.integers(0, min(2, m - 1)))
        kw["r"] = draw(st.integers(0, 3))
    elif family in ("R", "R1"):
        m = draw(st.integers(3, 6))
        kw["k"] = draw(st.integers(0, m - 3))
        kw["r"] = 3 - h + draw(st.integers(0, 1))
    elif family == "R2":
        m = draw(st.integers(4, 6))
        k = draw(st.integers(1, min(2, m - 3)))
        blocks = draw(st.integers(2, min(1 << k, m - k)))
        cuts = sorted(draw(st.lists(st.integers(1, (1 << k) - 1), min_size=blocks - 1, max_size=blocks - 1, unique=True)))
        kw.update(k=k, r=3 - h + draw(st.integers(0, 1)), sizes=[b - a for a, b in zip([0, *cuts], [*cuts, 1 << k])])
    else:  # the unions: the reference builds every code word first, so keep the codes small
        h = 1
        m = draw(st.integers(4, 5)) if family == "C4" else 5
        kw["r"] = draw(st.integers(2, 3 if family == "C4" and m == 4 else 2))
    return family, m, h, kw


def outcome(make, head=HEAD):
    """The first ``head`` words, or the type of the error raised on the way."""
    try:
        return list(itertools.islice(make(), head))
    except ValueError as exc:  # EnumerationError included
        return type(exc)


def split_enumeration(block_symbols, yield_rows):
    return mock.patch.multiple(codebook, _BLOCK_SYMBOLS=block_symbols, _YIELD_ROWS=yield_rows)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(codebook_request(), SPLITS, YIELDS)
@example(("C4", 4, 1, {"r": 2}), 40, 7)
def test_enumerators_match_the_reference(request, block_symbols, yield_rows):
    """Every family yields the reference's polynomials in the reference's
    order, or raises the same error; above 2^22 words it refuses at the call,
    where the reference streams the representatives lazily."""
    family, m, h, kw = request
    try:
        words = sum(math.prod(f.n for f in part) for part in codebook._codebook_parts(family, m, h, kw.get("r"), kw.get("k"), kw.get("sizes", ())))
    except ValueError:
        words = 0
    with split_enumeration(block_symbols, yield_rows):
        if words > 1 << 22:
            with pytest.raises(EnumerationError):
                codebook.enumerate_codebook(family, m, h, **kw)
            return
        head = WHOLE.get((family, m, kw.get("r")), HEAD)
        got = outcome(lambda: codebook.enumerate_codebook(family, m, h, **kw), head)
    assert got == outcome(lambda: reference.enumerate_codebook(family, m, h, **kw), head)
    if isinstance(got, list) and words <= head:
        assert len(got) == words


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 3), st.integers(2, 4), SPLITS, YIELDS)
def test_embedded_f_polys_and_golay_match_the_reference(h, m, block_symbols, yield_rows):
    """The generators of F(1, 2, h) on the top variables of a larger domain
    (the coset codes' ingredient functions), and ``standard_golay_gbfs``
    without the size refusal."""
    with split_enumeration(block_symbols, yield_rows):
        f_polys = outcome(lambda: codebook._coefficient_words([codebook._f_generators(1, 2, h, [m - 2, m - 1])], 1 << h, m))
        golay = outcome(lambda: standard_golay_gbfs(m, h))
    assert f_polys == outcome(lambda: reference.enumerate_f_polys(1, 2, h, m=m, variables=[m - 2, m - 1]))
    assert golay == outcome(lambda: reference.standard_golay_gbfs(m, h))


@st.composite
def grid_case(draw):
    """A sequence (q in {2, 4, 8, 16}, L < 300, masked or full, at least one
    live position) and a grid factor."""
    q = draw(st.sampled_from([2, 4, 8, 16]))
    L = draw(st.integers(1, 299))
    phases = draw(arrays(np.int64, L, elements=st.integers(0, q - 1)))
    mask = draw(arrays(bool, L) | st.just(np.ones(L, dtype=bool)))
    mask[draw(st.integers(0, L - 1))] = True
    return PolyphaseSeq(q, phases, mask), draw(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 64]))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(grid_case())
@example((PolyphaseSeq(4, [3]), 64))
@example((PolyphaseSeq(2, [1]), 3))
@example((PolyphaseSeq(16, [5, 9], [False, True]), 1))
def test_pmepr_grid_matches_the_zero_padded_fft(case):
    """The polyphase-split grid against one zero-padded FFT of length O*L."""
    a, oversample = case
    spectrum = np.fft.fft(a.complex_values(), oversample * len(a))
    want = float((np.abs(spectrum) ** 2).max()) / int(a.mask.sum())
    assert pmepr(a, oversample) == pytest.approx(want, rel=1e-12)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(grid_case())
def test_pmepr_refined_grid_contains_the_coarse_one(case):
    """The grid O is a subset of the grid 2*O, computed bit-identically there."""
    a, oversample = case
    assert pmepr(a, 2 * oversample) >= pmepr(a, oversample)


@pytest.mark.parametrize("L", [2047, 2048, 2049, 3000, 4096])
def test_pmepr_grid_of_long_rows(L):
    """FFT rows of 2L at lengths of the benchmark and around them, full and
    masked, at oversamples of every residue mod 4, against one zero-padded
    FFT and refined by 2."""
    rng = np.random.default_rng(L)
    for q in (2, 4, 8):
        for masked in (False, True):
            mask = rng.random(L) < 0.7 if masked else np.ones(L, dtype=bool)
            mask[0] = True
            a = PolyphaseSeq(q, rng.integers(0, q, L), mask)
            for oversample in (1, 2, 3, 4, 5, 6, 7, 64):
                spectrum = np.fft.fft(a.complex_values(), oversample * L)
                want = float((np.abs(spectrum) ** 2).max()) / int(mask.sum())
                coarse = pmepr(a, oversample)
                assert coarse == pytest.approx(want, rel=1e-12)
                assert pmepr(a, 2 * oversample) >= coarse


def test_pmepr_twiddle_cache_is_bounded_and_read_only():
    twiddles = correlation._twiddles
    assert twiddles.cache_info().maxsize is not None
    pmepr(PolyphaseSeq(4, [0, 1, 2, 3, 0]), 3)
    w = twiddles(5, 3, False)
    assert w.shape == (2, 10) and not w.flags.writeable  # (FFT rows, 2L): bases 0 and 2 of an odd oversample
    with pytest.raises(ValueError):
        w[0, 0] = 0
