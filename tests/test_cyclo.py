import cmath

import pytest

from cskit.cyclo import CycloValue, cyclo_sum
from cskit.errors import ModulusError


def w(q, e):
    return cmath.exp(2j * cmath.pi * e / q)


def test_from_power_reduction():
    # powers in the upper half fold with a sign flip
    assert CycloValue.from_power(4, 0).coeffs == (1, 0)
    assert CycloValue.from_power(4, 1).coeffs == (0, 1)
    assert CycloValue.from_power(4, 2).coeffs == (-1, 0)
    assert CycloValue.from_power(4, 3).coeffs == (0, -1)
    assert CycloValue.from_power(4, 5).coeffs == (0, 1)


def test_from_counts():
    v = CycloValue.from_counts(8, [3, 0, 1, 0, 1, 0, 0, 2])
    assert v.coeffs == (2, 0, 1, -2)


@pytest.mark.parametrize("q", [2, 4, 8, 16])
def test_complex_embedding_is_homomorphic(q):
    a = CycloValue.from_counts(q, [(i * 7 + 3) % 5 for i in range(q)])
    b = CycloValue.from_counts(q, [(i * 3 + 1) % 4 for i in range(q)])
    assert cmath.isclose(complex(a + b), complex(a) + complex(b), abs_tol=1e-9)
    assert cmath.isclose(complex(a - b), complex(a) - complex(b), abs_tol=1e-9)
    assert cmath.isclose(complex(a.scale(5)), 5 * complex(a), abs_tol=1e-9)
    for e in range(2 * q):
        assert cmath.isclose(complex(a.times_power(e)), complex(a) * w(q, e), abs_tol=1e-9)
    assert cmath.isclose(complex(a.conj()), complex(a).conjugate(), abs_tol=1e-9)


def test_zero_and_truthiness():
    z = CycloValue.zero(8)
    assert z.is_zero() and not z
    assert complex(z) == 0
    nz = CycloValue.from_int(8, 3)
    assert nz and not nz.is_zero()
    assert (nz - nz).is_zero()
    for q in (6, 1, 0):  # the package's one modulus check; ModulusError is a ValueError
        with pytest.raises(ModulusError):
            CycloValue.zero(q)


def test_exactness_where_floats_would_wobble():
    # w^1 + w^3 = 0 over Z_4 exactly, no epsilon
    v = CycloValue.from_power(4, 1) + CycloValue.from_power(4, 3)
    assert v.is_zero()
    total = cyclo_sum(8, [CycloValue.from_power(8, e) for e in range(8)])
    assert total.is_zero()


def test_abs():
    v = CycloValue.from_int(4, 3)
    assert abs(v) == pytest.approx(3.0)
    assert abs(CycloValue.from_power(8, 5)) == pytest.approx(1.0)
