"""Brute-force reference for the codebook enumerators and distances.

These are the enumerators as they stood before the coefficient-row core:
every word is built by ``GbfPoly`` algebra (products by
``construct_reference.product``), and the union codes deduplicate
by value vector.  ``test_properties.py`` checks that the library yields the
same polynomials in the same order.

The exhaustive distance kernel is the one the library weighed codes with
before every minimum distance came from the closed-form stratum proof:
codewords summed by ``_cartesian_blocks``, held as packed bit planes, one
per bit of the symbol, with symbol counts taken by popcount and weighed
with the symbol tables of :func:`weight_tables`.  ``test_codebook.py``
checks ``erm_min_distances`` and the Reed–Muller weights against it.
"""

import itertools
import math
from typing import Iterator, Sequence

import numpy as np

from cskit import GbfPoly
from cskit.codebook import _Gen, _cartesian_blocks, _f_generators
from cskit.gbf import _require_value_vector_size
from construct_reference import indicator_poly, path_quadratic, product
from cskit.errors import EnumerationError


def weight_tables(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-symbol Lee weights min(a, q - a) and squared Euclidean weights
    |omega^a - 1|^2 = 4 sin^2(pi a / q), for a = 0 .. q-1."""
    a = np.arange(q)
    return np.minimum(a, q - a), 4.0 * np.sin(np.pi * a / q) ** 2


def f_generators(r: int, m: int, h: int, variables: Sequence[int] | None = None) -> list[tuple[int, int, int]]:
    """(mask, step, count) of F(r, m, h) from a loop over all 2^m masks."""
    gens = []
    for mask in range(1 << m):
        v = max(0, mask.bit_count() - r)
        if v < h:
            big = mask if variables is None else sum(1 << x for a, x in enumerate(variables) if (mask >> a) & 1)
            gens.append((big, 1 << v, 1 << (h - v)))
    return gens


def enumerate_f_polys(
    r: int, k: int, h: int, *, m: int | None = None, variables: Sequence[int] | None = None
) -> Iterator[GbfPoly]:
    """All polynomials of effective degree <= r on k chosen variables.

    By default the variables are x0..x{k-1} of a k-variable polynomial; pass
    ``m`` and ``variables`` to embed them in a larger domain (used for the
    coset codes, whose ingredient functions live on the top k variables).
    """
    if variables is None:
        variables = list(range(k))
    if m is None:
        m = k
    if len(variables) != k:
        raise ValueError("need exactly k variable indices")
    q = 1 << h
    gens = _f_generators(r, k, h)
    if sum(math.log2(cnt) for _, _, cnt in gens) > 22:
        raise EnumerationError("more than 2^22 polynomials requested")
    embedded = []
    for mask, step, count in gens:
        big = 0
        for a in range(k):
            if (mask >> a) & 1:
                big |= 1 << variables[a]
        embedded.append((big, step, count))
    for combo in itertools.product(*(range(cnt) for _, _, cnt in embedded)):
        terms = [(mask, a * step) for (mask, step, _), a in zip(embedded, combo) if a]
        yield GbfPoly.from_terms(q, m, terms)


def _paths_up_to_reversal(verts: Sequence[int]) -> list[tuple[int, ...]]:
    verts = list(verts)
    if len(verts) == 1:
        return [tuple(verts)]
    return [p for p in itertools.permutations(verts) if p[0] < p[-1]]


def _coset_polys(m: int, k: int, r: int, h: int, *, excl: bool = False) -> Iterator[GbfPoly]:
    """The linear code behind :func:`log2_coset_count`, explicitly."""
    q = 1 << h
    top = list(range(m - k, m))
    couplers = list(range(m - k))
    if excl:
        couplers.remove(m - k - 1)
    gi_polys = list(enumerate_f_polys(r - 1, k, h, m=m, variables=top))
    g_polys = list(enumerate_f_polys(r, k, h, m=m, variables=top))
    if (len(couplers) * math.log2(len(gi_polys)) + math.log2(len(g_polys))) > 22:
        raise EnumerationError("coset code too large to enumerate")
    for combo in itertools.product(gi_polys, repeat=len(couplers)):
        base = GbfPoly(q, m)
        for i, gi in zip(couplers, combo):
            base = base + product(GbfPoly.variable(q, m, i), gi)
        for g in g_polys:
            yield base + g


def _path_reps(m: int, k: int, h: int, r: int) -> Iterator[GbfPoly]:
    """Representatives: one path class per restriction, a junta of the first
    min(r+h-3, k) restricted bits."""
    if m - k < 2:
        raise ValueError("need at least two path vertices")
    if r + h < 3:
        raise ValueError("need r + h >= 3")
    q = 1 << h
    t = min(r + h - 3, k)
    classes = _paths_up_to_reversal(range(m - k))
    prefix_vars = list(range(m - k, m - k + t))
    for assignment in itertools.product(classes, repeat=1 << t):
        f = GbfPoly(q, m)
        for word, path in enumerate(assignment):
            ind = indicator_poly(q, m, prefix_vars, word)
            f = f + product(ind, path_quadratic(q, m, path, q // 2))
        yield f


def _isolated_reps(m: int, k: int, h: int, r: int) -> Iterator[GbfPoly]:
    """Representatives whose every restriction isolates the vertex m-k-1,
    with a balanced linear coupling to the restricted variables."""
    if m - k < 3:
        raise ValueError("need at least three unrestricted variables")
    if r + h < 3:
        raise ValueError("need r + h >= 3")
    q = 1 << h
    half = q // 2
    l1 = m - k - 1
    t = min(r + h - 3, k)
    classes = _paths_up_to_reversal(range(m - k - 1))
    prefix_vars = list(range(m - k, m - k + t))
    for e in range(1, 1 << k):
        coupling = GbfPoly(q, m)
        for j in range(k):
            if (e >> j) & 1:
                coupling = coupling + GbfPoly.monomial(q, m, [l1, m - 1 - j]) * half
        for assignment in itertools.product(classes, repeat=1 << t):
            f = coupling
            for word, path in enumerate(assignment):
                ind = indicator_poly(q, m, prefix_vars, word)
                f = f + product(ind, path_quadratic(q, m, path, half))
            yield f


def _multi_isolated_reps(m: int, k: int, h: int, r: int, sizes: Sequence[int]) -> Iterator[GbfPoly]:
    """Representatives with p >= 2 isolated vertices: restriction words are
    split into lexicographic blocks of the given sizes, block a isolating
    vertex m-k-1-a, with min(2^{r+h-3}, N_a) free path choices per block."""
    sizes = tuple(int(n) for n in sizes)
    if len(sizes) < 2 or sum(sizes) != 1 << k or any(n < 1 for n in sizes):
        raise ValueError("block sizes must be >= 1, at least two blocks, summing to 2^k")
    if m - k < 3 or len(sizes) > m - k:
        raise ValueError("not enough unrestricted vertices")
    if r + h < 3:
        raise ValueError("need r + h >= 3")
    q = 1 << h
    half = q // 2
    restricted = list(range(m - k, m))
    free = 1 << (r + h - 3)
    blocks: list[tuple[int, list[int], int]] = []  # (isolated vertex, words, free choices)
    at = 0
    for a, n in enumerate(sizes):
        blocks.append((m - k - 1 - a, list(range(at, at + n)), min(free, n)))
        at += n
    choice_spaces = []
    for l, _, j in blocks:
        classes = _paths_up_to_reversal([v for v in range(m - k) if v != l])
        choice_spaces.append(list(itertools.product(classes, repeat=j)))
    for picks in itertools.product(*choice_spaces):
        f = GbfPoly(q, m)
        for (l, words, j), paths in zip(blocks, picks):
            for rank, word in enumerate(words):
                ind = indicator_poly(q, m, restricted, word)
                f = f + product(ind, path_quadratic(q, m, paths[min(rank, j - 1)], half))
        yield f


def _union_codebook(parts: Sequence[tuple[Iterator[GbfPoly], Iterator[GbfPoly]]]) -> Iterator[GbfPoly]:
    """Union of rep + linear-code sums, deduplicated by value vector."""
    seen: set[bytes] = set()
    for reps, code in parts:
        code_list = list(code)
        for rep in reps:
            for g in code_list:
                f = rep + g
                key = f.value_vector().astype(np.int8).tobytes()
                if key not in seen:
                    seen.add(key)
                    yield f


def enumerate_codebook(
    family: str,
    m: int,
    h: int,
    *,
    r: int | None = None,
    k: int | None = None,
    sizes: Sequence[int] = (),
) -> Iterator[GbfPoly]:
    """Generate the polynomials of a named codebook family.

    Families: ``ERM`` (all effective degree <= r), ``A``/``A1`` (linear coset
    codes, with/without the designated coupling), ``R``/``R1``/``R2``
    (path / single-isolated / multi-isolated representatives), ``C4``/``C8``
    (the PMEPR-4 and PMEPR-8 union codes), ``GOLAY`` (standard path
    polynomials).  Raises :class:`EnumerationError` when the request exceeds
    2^22 words.
    """
    fam = family.upper()
    if fam == "GOLAY":
        return standard_golay_gbfs(m, h)
    if r is None:
        raise ValueError(f"family {family!r} needs r")
    if fam == "ERM":
        return enumerate_f_polys(r, m, h)
    if fam in ("A", "A1"):
        if k is None:
            raise ValueError(f"family {family!r} needs k")
        return _coset_polys(m, k, r, h, excl=fam == "A1")
    if fam == "R":
        if k is None:
            raise ValueError("family 'R' needs k")
        return _path_reps(m, k, h, r)
    if fam == "R1":
        if k is None:
            raise ValueError("family 'R1' needs k")
        return _isolated_reps(m, k, h, r)
    if fam == "R2":
        if k is None:
            raise ValueError("family 'R2' needs k")
        return _multi_isolated_reps(m, k, h, r, sizes)
    if fam == "C4":
        rp = min(r, 2)
        return _union_codebook(
            [
                (_path_reps(m, 1, h, r), _coset_polys(m, 1, rp, h)),
                (_isolated_reps(m, 1, h, r), _coset_polys(m, 1, rp, h, excl=True)),
            ]
        )
    if fam == "C8":
        rpp = min(r, 3)
        parts = [
            (_path_reps(m, 2, h, r), _coset_polys(m, 2, rpp, h)),
            (_isolated_reps(m, 2, h, r), _coset_polys(m, 2, rpp, h, excl=True)),
        ]
        if (h == 1 and 2 <= r <= 3) or (h > 1 and 1 <= r <= 2):
            rp = min(r, 2)
            parts.append((_multi_isolated_reps(m, 1, h, r, (1, 1)), _coset_polys(m, 1, rp, h)))
        return _union_codebook(parts)
    raise ValueError(f"unknown family {family!r}")


def standard_golay_gbfs(m: int, h: int) -> Iterator[GbfPoly]:
    """All (m!/2) * q^{m+1} standard path polynomials, q = 2**h.

    ``(q/2) * sum_i x_{pi(i)} x_{pi(i+1)} + sum_i g_i x_i + g'`` over vertex
    orderings ``pi`` (up to reversal), all linear coefficients, and all
    constants, in a fixed deterministic order.
    """
    if m < 2:
        raise ValueError("path polynomials need at least two variables")
    q = 1 << h
    half = q // 2
    for pi in itertools.permutations(range(m)):
        if pi[0] > pi[-1]:
            continue
        quad = path_quadratic(q, m, pi, half)
        for gword in range(q**m):
            lin = quad
            w = gword
            for i in range(m):
                w, g = divmod(w, q)
                if g:
                    lin = lin + GbfPoly.monomial(q, m, [i]) * g
            for const in range(q):
                yield lin + const if const else lin


def _bit_planes(words: np.ndarray, h: int, word: np.dtype) -> np.ndarray:
    """(h, B, W) bit planes of a (B, L) symbol array: bit b of every symbol,
    packed little-endian into W words of ``word`` per row."""
    return np.stack(
        [np.packbits((words >> b) & 1, axis=-1, bitorder="little").view(word) for b in range(h)]
    )


def _span_weights(gens: Sequence[_Gen], q: int, m: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Lee and squared Euclidean weights of every span element of the
    generators (the zero word included), one block of codewords at a time.

    The generators' rows ``a * step * (indicator of the monomial)``, in
    ascending order of size, go through :func:`_cartesian_blocks`.  Its block is
    packed once into h = log2 q bit planes; each head row is added to every
    row by a ripple-carry adder on the planes (the carry out of the top plane
    is the reduction mod q).  Per codeword, the count of each nonzero symbol
    a is the popcount of the AND of the planes or their complements selected
    by the bits of a, so the weights are exact integer histograms times the
    Lee and Euclidean symbol tables.
    """
    h = q.bit_length() - 1
    L = 1 << m
    sym = np.min_scalar_type(q - 1)
    word = np.dtype(f"u{max(1, min(L, 64) // 8)}")
    idx = np.arange(L, dtype=np.int64)
    order = sorted(gens, key=lambda g: g.n)
    values = [((idx & g.mask) == g.mask).astype(sym) for g in order]
    block, heads = _cartesian_blocks([g.n for g in order], lambda i, lo, hi: order[i].rows(lo, hi).astype(sym) * values[i], L, q)
    planes = _bit_planes(block, h, word)
    del block
    lee_tab, etab = (t[1:] for t in weight_tables(q))
    for head in heads:
        for ys in _bit_planes(head, h, word).swapaxes(0, 1):
            digits = [planes[0] ^ ys[0]]
            carry = planes[0] & ys[0]
            for x, y in zip(planes[1:], ys[1:]):
                s = x ^ y
                digits.append(s ^ carry)
                carry = (x & y) | (carry & s)
            # sel[a] marks the positions holding symbol a, built one plane at a time
            sel = [~digits[0], digits[0]]
            for d in digits[1:]:
                sel = [t & ~d for t in sel] + [t & d for t in sel]
            hist = np.bitwise_count(np.stack(sel[1:], axis=-1)).sum(axis=-2, dtype=np.int64)
            yield hist @ lee_tab, hist @ etab


def _min_weights_direct(gens: Sequence[_Gen], q: int, m: int) -> tuple[int, float]:
    """Visit every nonzero span element of the generators, tracking minimum
    Lee and squared Euclidean weights.  Exact and exhaustive; a word of more
    than 2^24 symbols raises :class:`~cskit.errors.SizeLimitError` before any allocation."""
    _require_value_vector_size(m)
    best_lee, best_euc = q << m, math.inf  # above every weight of a length-2^m word
    for lee, euc in _span_weights(gens, q, m):
        nz = lee > 0  # only the zero codeword has Lee weight 0
        best_lee = int(lee.min(where=nz, initial=best_lee))
        best_euc = float(euc.min(where=nz, initial=best_euc))
    assert best_lee < q << m, "span contained only the zero polynomial"
    return best_lee, best_euc
