import numpy as np
import pytest

from cliffcalc.algebra import CMultivector, Multivector, Paravector, isclose, parse_multivector
from cliffcalc.errors import DegenerateDirectionError, DomainError, SpectralPointError
from cliffcalc.spectral import (
    DegenerateProjectionWarning,
    eigenvalues,
    eigenvector,
    idempotents,
    resolvent,
    spectral_decomposition_residual,
    spectral_projection,
)

from conftest import random_mv, random_nonreal_pv, random_pv


def test_eigenvalues_real():
    data = eigenvalues(Paravector.from_scalar(2, 3.0))
    assert data.s_plus == data.s_minus == 3.0
    assert data.is_real
    assert data.iota_plus is None and data.iota_minus is None


def test_idempotents_are_built_on_first_read(rng, monkeypatch):
    import cliffcalc.spectral as spectral

    built = []
    monkeypatch.setattr(spectral, "idempotents", lambda s: built.append(s) or idempotents(s))
    for n in (1, 2, 3, 4):
        data = eigenvalues(random_nonreal_pv(rng, n))
        assert not built
        plus, minus = idempotents(data.s_unit)
        assert np.array_equal(data.iota_plus.coeffs, plus.coeffs)
        assert np.array_equal(data.iota_minus.coeffs, minus.coeffs)
        assert data.iota_plus is data.iota_plus
        assert len(built) == 1
        built.clear()


def test_eigenvalues_unit_direction():
    data = eigenvalues(Paravector(2, [0, 1, 0]))
    assert data.s_plus == 1j and data.s_minus == -1j
    assert data.s_unit == Paravector(2, [0, 1, 0])


def test_eigenvalues_example():
    data = eigenvalues(Paravector(2, [1, 2, 2]))
    assert abs(data.s_plus - (1 + 2 * np.sqrt(2) * 1j)) < 1e-14
    assert abs(data.s_minus - (1 - 2 * np.sqrt(2) * 1j)) < 1e-14
    assert data.s_plus.imag >= 0


def test_resolvent_examples():
    e1 = Paravector(2, [0, 1, 0])
    value = resolvent(2.0, e1)
    assert isclose(value, parse_multivector("0.4 + 0.2e1", 2).to_cmultivector())
    with pytest.raises(SpectralPointError):
        resolvent(1j, e1)
    k = Paravector(2, [1, 1, 0])
    value = resolvent(0.0, k)
    product = (0.0 - k.to_cmultivector()) * value
    assert isclose(product, CMultivector.from_scalar(2, 1.0))


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf"), "1e-12", None])
def test_resolvent_tolerance_must_be_finite_and_positive(tol):
    with pytest.raises(DomainError, match="tolerance"):
        resolvent(1j, Paravector(1, [0, 1]), tol=tol)


def test_resolvent_multiply_back(rng):
    for _ in range(50):
        n = int(rng.integers(0, 5))
        kappa = random_pv(rng, n, scale=2.0)
        lam = complex(rng.normal(scale=2.0), rng.normal(scale=2.0))
        data = eigenvalues(kappa)
        if min(abs(lam - s) for s in data.points) < 1e-3:
            continue
        value = resolvent(lam, kappa)
        shifted = lam - kappa.to_cmultivector()
        one = CMultivector.from_scalar(n, 1.0)
        assert (shifted * value - one).norm() <= 1e-12 * (1 + abs(lam) + kappa.norm())
        assert (value * shifted - one).norm() <= 1e-12 * (1 + abs(lam) + kappa.norm())


def test_projection_examples():
    e1 = Paravector(2, [0, 1, 0])
    one = CMultivector.from_scalar(2, 1.0)
    assert isclose(spectral_projection(e1, one, +1), CMultivector(2, [0.5, -0.5j, 0, 0]))


def test_projection_annihilation_and_partition(rng):
    for _ in range(30):
        n = int(rng.integers(1, 5))
        kappa = random_nonreal_pv(rng, n)
        a = random_mv(rng, n, complex_=True)
        plus_then_minus = spectral_projection(
            kappa, spectral_projection(kappa, a, +1), -1)
        assert plus_then_minus.norm() <= 1e-12 * max(1.0, a.norm())
        total = spectral_projection(kappa, a, +1) + spectral_projection(kappa, a, -1)
        assert isclose(total, a)


def test_projection_real_kappa_warns():
    a = CMultivector(2, [1, 2, 3, 4])
    with pytest.warns(DegenerateProjectionWarning):
        value = spectral_projection(Paravector.from_scalar(2, 1.5), a, +1)
    assert value == a


def test_idempotent_algebra(rng):
    for _ in range(20):
        n = int(rng.integers(1, 5))
        data = eigenvalues(random_nonreal_pv(rng, n))
        ip, im = data.iota_plus, data.iota_minus
        one = CMultivector.from_scalar(n, 1.0)
        assert (ip * ip - ip).norm() < 1e-14
        assert (im * im - im).norm() < 1e-14
        assert (ip * im).norm() < 1e-14
        assert (im * ip).norm() < 1e-14
        assert (ip + im - one).norm() < 1e-14


def test_decomposition_examples():
    e1 = Paravector(2, [0, 1, 0])
    assert spectral_decomposition_residual(e1, CMultivector.from_scalar(2, 1.0)) < 1e-15
    r = Paravector.from_scalar(2, 1.7)
    a = CMultivector(2, [1, 2j, 3, 0])
    assert spectral_decomposition_residual(r, a) < 1e-15


def test_decomposition_random(rng):
    for _ in range(100):
        n = int(rng.integers(1, 5))
        kappa = random_pv(rng, n)
        a = random_mv(rng, n, complex_=True)
        residual = spectral_decomposition_residual(kappa, a)
        assert residual <= 1e-12 * (1 + kappa.norm() * a.norm())


def test_eigenvector_examples():
    e1 = Paravector(2, [0, 1, 0])
    one = Multivector.from_scalar(2, 1.0)
    nu = eigenvector(e1, +1, one)
    assert isclose(nu, CMultivector(2, [1, -1j, 0, 0]))
    assert isclose(e1.to_cmultivector() * nu, 1j * nu)

    k = Paravector(2, [0, 1, 1])
    nu = eigenvector(k, +1, one)
    expected = CMultivector(2, [1, -1j / np.sqrt(2), -1j / np.sqrt(2), 0])
    assert isclose(nu, expected)


def test_eigenvector_multiply_back(rng):
    for _ in range(50):
        n = int(rng.integers(1, 5))
        kappa = random_nonreal_pv(rng, n)
        x = random_mv(rng, n)
        data = eigenvalues(kappa)
        for sign, s in ((+1, data.s_plus), (-1, data.s_minus)):
            nu = eigenvector(kappa, sign, x)
            defect = (kappa.to_cmultivector() * nu - s * nu).norm()
            assert defect <= 1e-12 * (1 + kappa.norm() * nu.norm())


def test_eigenvector_real_degenerate():
    with pytest.raises(DegenerateDirectionError):
        eigenvector(Paravector.from_scalar(2, 1.0), +1, Multivector.from_scalar(2, 1.0))


def test_spectrum_equality_same_profile(rng):
    # same scalar part and imaginary length, different directions
    for _ in range(20):
        n = int(rng.integers(2, 5))
        x, y = rng.normal(), abs(rng.normal()) + 0.1
        v1, v2 = rng.normal(size=n), rng.normal(size=n)
        k1 = Paravector(n, np.concatenate([[x], y * v1 / np.linalg.norm(v1)]))
        k2 = Paravector(n, np.concatenate([[x], y * v2 / np.linalg.norm(v2)]))
        d1, d2 = eigenvalues(k1), eigenvalues(k2)
        assert abs(d1.s_plus - d2.s_plus) < 1e-12
        assert abs(d1.s_minus - d2.s_minus) < 1e-12


def test_eigenvalue_scale_shift_covariance(rng):
    for _ in range(20):
        n = int(rng.integers(1, 5))
        kappa = random_pv(rng, n)
        alpha = abs(rng.normal()) + 0.1
        beta = rng.normal()
        scaled = eigenvalues(alpha * kappa + beta)
        base = eigenvalues(kappa)
        assert abs(scaled.s_plus - (alpha * base.s_plus + beta)) < 1e-12 * (1 + abs(alpha) * kappa.norm())
        assert abs(scaled.s_minus - (alpha * base.s_minus + beta)) < 1e-12 * (1 + abs(alpha) * kappa.norm())
