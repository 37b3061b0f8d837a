import cmath
import random

import numpy as np
import pytest

from cskit.cyclo import CycloValue, _embed
from cskit.errors import ModulusError

from cyclo_reference import folded, histogram


def test_from_counts():
    v = CycloValue.from_counts(8, [3, 0, 1, 0, 1, 0, 0, 2])
    assert v.coeffs == (2, 0, 1, -2)


@pytest.mark.parametrize("q", [2, 4, 8, 16])
def test_complex_embedding_is_homomorphic(q):
    a = CycloValue.from_counts(q, [(i * 7 + 3) % 5 for i in range(q)])
    assert cmath.isclose(complex(a.conj()), complex(a).conjugate(), abs_tol=1e-9)


def test_zero_and_truthiness():
    z = CycloValue.from_int(8, 0)
    assert z.is_zero() and not z
    assert complex(z) == 0
    nz = CycloValue.from_int(8, 3)
    assert nz and not nz.is_zero()
    assert not CycloValue.from_counts(8, [3, 0, 0, 0, 3, 0, 0, 0])  # 3 + 3 w^4 = 0
    for q in (6, 1, 0):  # the package's one modulus check; ModulusError is a ValueError
        with pytest.raises(ModulusError):
            CycloValue.from_int(q, 0)


def test_exactness_where_floats_would_wobble():
    # w^1 + w^3 = 0 over Z_4 exactly, no epsilon
    assert CycloValue.from_counts(4, [0, 1, 0, 1]).is_zero()
    assert CycloValue.from_counts(8, [1] * 8).is_zero()


def test_abs():
    v = CycloValue.from_int(4, 3)
    assert abs(v) == pytest.approx(3.0)
    assert abs(CycloValue(8, (0, -1, 0, 0))) == pytest.approx(1.0)  # w^5 = -w^1


# -- the basis against exact histogram references -------------------------------


@pytest.mark.parametrize("q", [2, 4, 8, 16, 32, 64])
def test_basis_operations_match_the_histogram_reference(q):
    rng = random.Random(q)
    half = q // 2
    for _ in range(50):
        counts = [rng.randint(-9, 9) for _ in range(q)]
        v = CycloValue.from_counts(q, counts)
        assert v.coeffs == folded(q, counts)
        assert all(type(a) is int for a in v.coeffs)
        assert v.conj().coeffs == folded(q, histogram(q, [(-j, a) for j, a in enumerate(v.coeffs)]))
    big = [10**30 + e for e in range(q)]  # beyond int64: the reduction stays exact
    assert CycloValue.from_counts(q, big).coeffs == folded(q, big)
    assert CycloValue.from_counts(q, [0] * half + [10**30] * half).coeffs == (-(10**30),) * half


def test_basis_operations_keep_their_errors_and_repr():
    with pytest.raises(ValueError, match="need q = 8 counts"):
        CycloValue.from_counts(8, [1] * 7)
    assert repr(CycloValue.from_counts(8, [3, 0, 1, 0, 1, 0, 0, 2])) == "<CycloValue q=8: 2*w0 + 1*w2 + -2*w3>"
    assert repr(CycloValue.from_counts(4, [1, 0, 1, 0])) == "CycloValue.from_int(4, 0)"


@pytest.mark.parametrize("q", [2, 4, 8, 16, 32, 64])
def test_complex_is_the_ordered_power_sum(q):
    # the embedding is sum_j c_j * w^j with w^j = cmath.exp(2 pi i / q) ** j,
    # summed in ascending j: the form the exported abs values were pinned with
    omega = cmath.exp(2j * cmath.pi / q)
    rng = random.Random(q)
    for _ in range(50):
        coeffs = tuple(rng.choice([0, 0, rng.randint(-40, 40)]) for _ in range(q // 2))
        want = sum(a * omega**j for j, a in enumerate(coeffs) if a) or 0j
        assert complex(CycloValue(q, coeffs)) == want  # bit for bit, up to the sign of a zero
        assert abs(CycloValue(q, coeffs)) == abs(want)


def dense_embed(coeffs, q):
    """The embedding as a sum over all q/2 columns, ascending."""
    c, omega = np.asarray(coeffs, dtype=np.float64), cmath.exp(2j * cmath.pi / q)
    return sum(c[..., j] * omega**j for j in range(q // 2))


@pytest.mark.parametrize("q", [2, 4, 8, 16, 64, 256])
def test_embedding_of_the_live_columns_is_the_dense_sum(q):
    # bit for bit, the sign of every zero included
    rng = np.random.default_rng(q)
    half = q // 2
    shapes = [(half,), (0, half), (1, half), (5, half), (2, 3, half)]
    for i in range(150):
        shape = shapes[i % len(shapes)]
        coeffs = rng.integers(-40, 41, shape) * (rng.random(shape) < rng.choice([0.0, 0.05, 0.5, 1.0]))
        coeffs[..., rng.integers(half) :] *= i % 2  # whole zero columns
        got, want = np.asarray(_embed(coeffs, q)), np.asarray(dense_embed(coeffs, q), dtype=complex)
        assert got.dtype == np.complex128 and got.shape == want.shape == shape[:-1]
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(np.signbit(got.real), np.signbit(want.real))
        assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))
