"""Codebook sizes, enumerators, distances, and the golden table report."""

import hashlib
import itertools
import math
import sys
import time
import tracemalloc

import numpy as np
import pytest

from cskit import GbfPoly, analyze, codebook, is_cs, offset_set, psi
from cskit.codebook import (
    KNOWN_DISCREPANCIES,
    coset_code_size,
    count_codebook,
    enumerate_codebook,
    erm_distance_formulas,
    erm_min_distances,
    family_size,
    golden_report,
    log2_coset_count,
    log2_f_count,
    rate,
    rate_rows,
    union_code_size_pmepr4,
    union_code_size_pmepr8,
)
from cskit.errors import EnumerationError, SizeLimitError
from cskit.gbf import render_gbf

import codebook_reference as reference


# -- counting the bounded-effective-degree polynomials --------------------------


def test_log2_f_count_values():
    assert log2_f_count(1, 2, 1) == 3
    assert log2_f_count(1, 2, 2) == 7
    # once r >= m every coefficient is free
    assert log2_f_count(3, 3, 2) == 2 * 8
    assert log2_f_count(0, 0, 4) == 4
    with pytest.raises(ValueError):
        log2_f_count(1, -1, 1)
    with pytest.raises(ValueError):
        log2_f_count(1, 2, 0)


def test_erm_words_match_the_effective_degree_filter():
    # brute force: every polynomial on 2 variables over Z4 with effective
    # degree <= 1, by filtering the whole 4^4 space
    q, m = 4, 2
    masks = [0b00, 0b01, 0b10, 0b11]
    want = set()
    for coeffs in itertools.product(range(q), repeat=4):
        f = GbfPoly.from_terms(q, m, list(zip(masks, coeffs)))
        if f.effective_degree() <= 1:
            want.add(f.terms)
    got = {f.terms for f in enumerate_codebook("ERM", 2, 2, r=1)}
    assert got == want
    assert len(got) == 1 << log2_f_count(1, 2, 2)


# -- closed-form family sizes ----------------------------------------------------


def test_family_size_values():
    assert family_size(5, 2, 4) == 15360
    # doubled-family closed form at its smallest domain point
    assert family_size(4, 2, 6) == (2 * 24 + 24 * 2 * 1 // 4) * 2**6
    with pytest.raises(ValueError):
        family_size(4, 2, 4)
    with pytest.raises(ValueError):
        family_size(5, 2, 8)
    with pytest.raises(ValueError):
        family_size(6, 3, 4)
    with pytest.raises(ValueError):
        family_size(6, 2, 5)


def test_rate():
    assert rate(1 << 16, 4) == 1.0
    assert rate(family_size(5, 2, 4), 5) == pytest.approx(0.4346, abs=5e-5)
    with pytest.raises(ValueError):
        rate(0, 4)


def test_coset_code_sizes():
    assert log2_coset_count(4, 1, 2, 1) == 8
    assert log2_coset_count(4, 1, 2, 1, excl=True) == 6
    assert coset_code_size(4, 1, 2, 1) == 768
    with pytest.raises(ValueError):
        coset_code_size(4, 3, 2, 1)
    with pytest.raises(ValueError):
        coset_code_size(4, 1, 1, 1)


def test_union_code_sizes_match_enumerators():
    # the closed forms count distinct sequences; check them against literal
    # enumeration, whose words are distinct (test_enumerable_union_rows_are_distinct)
    assert union_code_size_pmepr4(4, 2, 1) == 832
    assert union_code_size_pmepr4(4, 1, 2) == 25600
    assert union_code_size_pmepr8(5, 2, 1) == 36864
    assert sum(1 for _ in enumerate_codebook("C4", 4, 1, r=2)) == 832
    with pytest.raises(ValueError):
        union_code_size_pmepr4(3, 2, 1)
    with pytest.raises(ValueError):
        union_code_size_pmepr4(5, 4, 1)
    with pytest.raises(ValueError):
        union_code_size_pmepr8(4, 2, 1)
    with pytest.raises(ValueError):
        union_code_size_pmepr8(5, 5, 1)


def test_union_enumerators_match_closed_forms_larger():
    assert sum(1 for _ in enumerate_codebook("C4", 4, 2, r=1)) == 25600
    assert sum(1 for _ in enumerate_codebook("C8", 5, 1, r=2)) == 36864


UNION_TABLES = [("C4", union_code_size_pmepr4, codebook.TABLE_UNION4), ("C8", union_code_size_pmepr8, codebook.TABLE_UNION8)]
# every union-table row that the enumerators build: eight C4 rows and four C8
# rows, 6,213,760 words in all
ENUMERABLE_UNION_ROWS = [
    pytest.param(family, m, h, r, size(m, r, h), id=f"{family}-{m}-{h}-{r}")
    for family, size, table in UNION_TABLES
    for m, h, r, *_ in table
    if size(m, r, h) <= 1 << 22
]


def test_twelve_union_rows_are_enumerable():
    assert len(ENUMERABLE_UNION_ROWS) == 12
    assert sum(p.values[-1] for p in ENUMERABLE_UNION_ROWS) == 6213760


@pytest.mark.parametrize("family, m, h, r, size", ENUMERABLE_UNION_ROWS)
def test_enumerable_union_rows_are_distinct(family, m, h, r, size):
    """The lemma of the ``cskit.codebook`` docstring, that every family is an
    injective Cartesian sum, on every enumerable union row: the coefficient rows of all its parts are
    pairwise distinct, so the closed-form size counts distinct polynomials
    (the ANF is canonical) and ``count_codebook`` needs no row."""
    parts = codebook._codebook_parts(family, m, h, r, None, ())
    cols = codebook._columns(parts)
    rows, at = np.empty((size, len(cols)), dtype=np.uint8), 0
    for part in parts:
        for block in codebook._row_blocks(part, cols, 1 << h):
            rows[at : at + len(block)] = block
            at += len(block)
    assert at == size
    keys = rows.view(np.dtype((np.void, len(cols)))).ravel()
    keys.sort()  # in place: np.unique would hold two more copies of the rows
    assert np.count_nonzero(keys[1:] == keys[:-1]) == 0
    assert count_codebook(family, m, h, r=r) == size


@pytest.mark.parametrize(
    "family, m, h, kw",
    [
        pytest.param("GOLAY", 9, 2, {}, id="golay"),  # 9!/2 * 4^10 words
        pytest.param("R", 10, 3, dict(k=3, r=3), id="r"),  # (7!/2)^(2^3) representatives
        pytest.param("R1", 10, 3, dict(k=3, r=3), id="r1"),
        pytest.param("R2", 12, 3, dict(k=2, r=3, sizes=(2, 2)), id="r2"),
        pytest.param("C4", 9, 1, dict(r=2), id="c4"),  # 8!/2 path representatives times the coset code
        pytest.param("ERM", 6, 2, dict(r=3), id="erm"),
        pytest.param("A", 8, 2, dict(k=2, r=2), id="a"),
    ],
)
def test_enumerate_codebook_refuses_before_building(family, m, h, kw):
    # the word count comes in closed form from the factor sizes, so the
    # refusal allocates nothing of the family
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationError):
            enumerate_codebook(family, m, h, **kw)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_enumerate_codebook_is_lazy():
    # the first words of a 2^22-word code come from one block of at most
    # 2^12 coefficient rows, without the rest of the code
    tracemalloc.start()
    try:
        head = list(itertools.islice(enumerate_codebook("ERM", 6, 1, r=2), 3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [f.terms for f in head] == [(), ((0b110000, 1),), ((0b101000, 1),)]  # x4*x5, then x3*x5
    assert peak < 16 << 20



# sha256 of the rendered words, one a line, in enumeration order
WORD_DIGESTS = {
    ("C4", 4, 2, 1): (25600, "a9fe3f3f5f2f6c1b2e060f72cfc2714f187c2edb7ac7285d1e38ab309a04ab71"),
    ("C8", 5, 1, 2): (36864, "25a75ef6912f69b1e1b40a7b0a9d33bb0e69dab57b7620338e5e906347c61049"),
    ("GOLAY", 4, 2, None): (12288, "5b999f13d4eff417d7a36b5f821df5da088f96d174e28ddb48ff1431998d07ac"),
    ("GOLAY", 5, 1, None): (3840, "eaf6106c6fd4b2a306e2a5c68e40bc2b6f70f409903912679f29a503628be563"),
}


@pytest.mark.parametrize("family, m, h, r", list(WORD_DIGESTS))
def test_enumerated_words_are_pinned(family, m, h, r):
    digest, count = hashlib.sha256(), 0
    for f in enumerate_codebook(family, m, h, r=r):
        digest.update(render_gbf(f).encode() + b"\n")
        count += 1
    assert (count, digest.hexdigest()) == WORD_DIGESTS[family, m, h, r]


def test_enumerated_words_share_their_terms():
    # a block of words holds each (mask, coefficient) pair once, and each
    # word is slotted: the 36864 words of C8(5, 1, 2) keep about 6.1 MiB,
    # against about 13.6 MiB with a __dict__ per word and about 30 MiB with
    # a fresh pair per term as well
    tracemalloc.start()
    try:
        words = list(enumerate_codebook("C8", 5, 1, r=2))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(words) == 36864
    assert held < 9 << 20


def test_enumeration_streams_in_a_small_working_set():
    # words streamed and dropped: one chunk of 256 polynomials and one block
    # of at most 2^12 rows are alive at a time, so C8(5, 1, 2) peaks at about
    # 0.32 MiB, against 0.69 MiB with chunks of 1,024, 1.1 MiB with blocks of
    # 2^16 rows and 1.5 MiB with both
    sum(1 for _ in enumerate_codebook("C8", 5, 1, r=2))  # NumPy's first calls allocate caches
    tracemalloc.start()
    try:
        words = sum(1 for _ in enumerate_codebook("C8", 5, 1, r=2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert words == 36864
    assert peak <= 1 << 19


# -- representative enumerators ---------------------------------------------------


def test_path_reps():
    reps = list(enumerate_codebook("R", 5, 1, r=2, k=1))
    assert len(reps) == 12  # (m-k)!/2 path classes x 2^{min(r+h-3,k)} juntas... collapsed
    assert all(p.effective_degree() <= 2 for p in reps)
    assert len({p.terms for p in reps}) == len(reps)


def test_isolated_reps():
    reps = list(enumerate_codebook("R1", 5, 1, r=2, k=1))
    assert len(reps) == 3  # (m-2)!/2 = 3 path classes on the non-isolated vertices
    assert all(p.effective_degree() <= 2 for p in reps)
    # every representative really has the isolated-vertex shape
    for p in reps:
        prof = analyze(p, [4])
        assert prof.group_sizes == (2,)


@pytest.mark.parametrize("family, k, message", [("R", 3, "two path vertices"), ("R1", 2, "three unrestricted variables")])
def test_representatives_name_the_missing_vertices(family, k, message):
    with pytest.raises(ValueError, match=message):
        list(enumerate_codebook(family, 4, 1, r=2, k=k))


def test_multi_isolated_reps_exceed_degree_claim():
    # regression pin: these representatives do NOT stay within effective
    # degree r at the bottom of the parameter range — the enumerator is
    # faithful to the construction, and the codebook sizes are unaffected,
    # but the degree cannot be relied on here.
    reps = list(enumerate_codebook("R2", 6, 1, r=2, k=2, sizes=(2, 2)))
    assert len(reps) == 9
    assert max(p.effective_degree() for p in reps) == 3


def test_codebook_members_are_cs():
    # spot check: every C4 word admits a complementary set of size 4
    words = list(enumerate_codebook("C4", 4, 1, r=2))
    for f in words[:: len(words) // 16]:
        cand = offset_set(f, restricted=[3])
        assert is_cs(cand.sequences())


@pytest.mark.parametrize(
    "family, m, h, kw",
    [
        ("ERM", 4, 2, dict(r=1)),
        ("A1", 5, 1, dict(k=2, r=2)),
        ("R2", 6, 1, dict(k=2, r=2, sizes=(2, 2))),
        ("C4", 4, 1, dict(r=2)),
        ("C8", 5, 1, dict(r=2)),
        ("GOLAY", 3, 1, {}),
    ],
)
def test_count_codebook_counts_what_enumerate_yields(family, m, h, kw):
    assert count_codebook(family, m, h, **kw) == sum(1 for _ in enumerate_codebook(family, m, h, **kw))


def test_enumerate_codebook_argument_errors():
    with pytest.raises(ValueError):
        enumerate_codebook("ERM", 4, 1)  # r missing
    with pytest.raises(ValueError):
        enumerate_codebook("R", 4, 1, r=2)  # k missing
    with pytest.raises(ValueError):
        enumerate_codebook("XX", 4, 1, r=2)


# -- minimum distances -------------------------------------------------------------


def exhaustive_rm_weight(r: int, m: int) -> int:
    """The minimum weight of RM(r, m) = F(r, m, 1) by the reference kernel."""
    return reference._min_weights_direct(codebook._f_generators(r, m, 1), 2, m)[0]


def test_rm_min_weight():
    for r, m, weight in [(0, 3, 8), (1, 3, 4), (2, 4, 4), (3, 3, 1), (2, 5, 8)]:
        assert codebook._rm_distances(r, m)[r] == exhaustive_rm_weight(r, m) == weight, (r, m)


# Every Reed–Muller code that exhaustion can weigh beyond m = 0, up to m = 8.
RM_CODES = [(r, m) for m in range(1, 9) for r in range(m + 1) if sum(math.comb(m, d) for d in range(r + 1)) <= 17]


def test_rm_distance_matches_exhaustion():
    for r, m in RM_CODES:
        assert codebook._rm_distances(r, m)[r] == exhaustive_rm_weight(r, m), (r, m)


# Every code with m <= 6 and h <= 3 within the exhaustive kernel's budgets:
# at most 2^24 codewords and 2^28 symbols in all.
DIRECT_CODES = [
    (r, m, h)
    for m in range(7)
    for h in range(1, 4)
    for r in range(-h, m + 1)
    if 0 < (s := log2_f_count(r, m, h)) <= 24 and s + m <= 28
]


@pytest.mark.parametrize("r,m,h", DIRECT_CODES)
def test_erm_min_distances_match_exhaustion(r, m, h):
    # tuple for tuple, the float squared Euclidean distance bit for bit
    assert erm_min_distances(r, m, h) == reference._min_weights_direct(codebook._f_generators(r, m, h), 1 << h, m)


# The 16 (m, h, r) rows of the union tables, then codes of 2^21 to 2^82
# codewords and words of up to 2^40 symbols, then alphabets of 2^20 and
# 2^30 symbols, and one of 2^512 symbols on words of 2^200.
LARGE_CODES = [(r, m, h) for m in (5, 6) for h in (1, 2) for r in range(1, 5)]
LARGE_CODES += [(1, 20, 1), (2, 20, 1), (0, 25, 1), (1, 40, 2), (0, 2, 20), (1, 3, 30), (0, 200, 512)]


@pytest.mark.parametrize("r,m,h", LARGE_CODES)
def test_erm_min_distances_of_a_large_code_are_the_formulas(r, m, h):
    # no codeword and no symbol table is built
    tracemalloc.start()
    try:
        lee, euc = erm_min_distances(r, m, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want_lee, want_euc = erm_distance_formulas(r, m, h)
    assert lee == want_lee
    assert euc == pytest.approx(want_euc, rel=1e-12)
    assert peak < 1 << 20


@pytest.mark.parametrize("r,m,h", [(0, 200, 512), (0, 1000, 64)])
def test_erm_min_distances_of_many_strata_answer_within_a_second(r, m, h):
    # 512 and 64 strata share one Reed-Muller table, filled once a call
    start = time.perf_counter()
    erm_min_distances(r, m, h)
    assert time.perf_counter() - start < 1.0


def test_erm_min_distances_refuse_beyond_the_float_range_before_any_work(monkeypatch):
    lee, euc = erm_min_distances(0, 1021, 1)  # 4 * 2^1021 is the largest float power of two
    assert (lee, euc) == (1 << 1021, 2.0**1023)

    def weigh(top, m):
        raise AssertionError("a refused code was weighed")

    h = codebook._MAX_DISTANCE_H  # the last h whose sin^2(pi / 2^h) is a normal float
    assert math.sin(math.pi / 2**h) ** 2 >= sys.float_info.min > math.sin(math.pi / 2 ** (h + 1)) ** 2
    lee, euc = erm_min_distances(0, 2, h)
    assert lee == 4
    assert euc == pytest.approx(erm_distance_formulas(0, 2, h)[1], rel=1e-12)

    monkeypatch.setattr(codebook, "_rm_distances", weigh)
    with pytest.raises(SizeLimitError):
        erm_min_distances(0, 1022, 1)
    with pytest.raises(SizeLimitError):
        erm_min_distances(1022, 1022, 3)
    with pytest.raises(SizeLimitError):
        erm_min_distances(0, 2, h + 1)
    with pytest.raises(SizeLimitError):
        erm_min_distances(0, 2, 600)  # sin^2(pi / 2^600) is 0.0 in floats


def test_stratum_symbol_minima_are_the_closed_forms():
    # F(-i, 0, h) holds the constants 2^i * c, whose least weights are those
    # of the odd multiples 2^i * u: Lee 2^i and squared Euclidean
    # 4 sin^2(pi 2^i / 2^h), at u = 1 and its mirror 2^(h-i) - 1, which the
    # symbol table reads up to 3.1e-13 lower in relative terms for h <= 14
    for h in range(1, 13):
        lee_tab, euc_tab = reference.weight_tables(1 << h)
        for i in range(h):
            odd = (1 << i) * np.arange(1, 1 << (h - i), 2)
            lee, euc = erm_min_distances(-i, 0, h)
            assert lee == lee_tab[odd].min() == 1 << i, (h, i)
            assert euc == pytest.approx(euc_tab[odd].min(), rel=1e-12), (h, i)


def test_f_generators_match_the_mask_loop():
    for m, h in itertools.product(range(11), range(1, 4)):
        variables = [3 * a + 1 for a in reversed(range(m))]
        for r in range(-1, m + 1):
            assert codebook._f_generators(r, m, h) == reference.f_generators(r, m, h)
            assert codebook._f_generators(r, m, h, variables) == reference.f_generators(r, m, h, variables)


@pytest.mark.parametrize(
    "call",
    [lambda: exhaustive_rm_weight(0, 25), lambda: exhaustive_rm_weight(0, 30)],
    ids=["rm-0-25", "rm-0-30"],
)
def test_direct_weights_refuse_a_long_word_before_allocating(call):
    # a two-word code of 2^25 symbols: the reference kernel refuses its
    # length before building anything
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitError):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("r,m,h", [(1, 3, 1), (2, 3, 2), (1, 4, 2), (2, 4, 1)])
def test_erm_min_distances_methods_agree(r, m, h):
    direct = reference._min_weights_direct(codebook._f_generators(r, m, h), 1 << h, m)
    layered = codebook._min_weights_layered(r, m, h)
    formulas = erm_distance_formulas(r, m, h)
    assert direct[0] == layered[0] == formulas[0]
    assert direct[1] == pytest.approx(formulas[1], abs=1e-9)
    assert layered[1] == pytest.approx(formulas[1], abs=1e-9)


def test_layered_distances_prove_the_bound_is_attained(monkeypatch):
    # a Reed-Muller weight one too small lowers every stratum bound below
    # the witnesses, so the exactness obligation fails
    true_weights = codebook._rm_distances
    monkeypatch.setattr(codebook, "_rm_distances", lambda top, m: [w - 1 for w in true_weights(top, m)])
    with pytest.raises(AssertionError):
        codebook._min_weights_layered(1, 4, 2)


def test_erm_min_distances_of_the_zero_code_is_refused():
    assert log2_f_count(-1, 3, 1) == 0
    with pytest.raises(ValueError, match="no minimum distance"):
        erm_min_distances(-1, 3, 1)


@pytest.mark.slow
def test_erm_min_distances_direct_large():
    # 2^26-word code: a 2^16-word prefix block packed into bit planes, with
    # each of the 2^10 outer combinations added by the ripple-carry adder
    direct = reference._min_weights_direct(codebook._f_generators(2, 4, 2), 1 << 2, 4)
    formulas = erm_distance_formulas(2, 4, 2)
    assert direct[0] == formulas[0]
    assert direct[1] == pytest.approx(formulas[1], abs=1e-9)


# -- the golden report ---------------------------------------------------------------


def test_golden_report_reconciles_exactly():
    entries = golden_report()
    assert len(entries) == 180
    printed_only = [e for e in entries if e.ok is None]
    failing = {(e.table, e.key, e.column) for e in entries if e.ok is False}
    assert len(printed_only) == 16
    assert failing == set(KNOWN_DISCREPANCIES)
    # and the matching remainder
    assert sum(1 for e in entries if e.ok) == 180 - 16 - len(KNOWN_DISCREPANCIES)


def test_golden_entry_json():
    entry = golden_report()[0]
    blob = entry.to_json()
    assert blob["table"] == "rate4" and blob["ok"] is True


def test_rate_rows_structure():
    rows = rate_rows()
    assert len(rows) == 12 + 14 + 4 + 2 * 12 + 2 * 12
    families = {row["family"] for row in rows}
    assert families == {"S1", "S2", "S3", "C4", "COSET-K1", "C8", "COSET-K2"}
    for row in rows:
        assert set(row) == {
            "family", "m", "q_or_h", "r", "log2_size", "rate", "rate_reference", "d_L", "d_E2",
        }
    anchor = next(r for r in rows if r["family"] == "C8" and r["m"] == 5 and r["r"] == 2 and r["q_or_h"] == 1)
    assert anchor["rate"] == pytest.approx(0.4741, abs=5e-5)
