"""Spectrum, resolvent, and spectral projections of a paravector.

A paravector has the two-point spectrum ``Re(k) +/- i|Im(k)|`` inside the
complexified algebra.  Off the real axis the associated idempotents built
from the unit imaginary direction give explicit spectral projections for
left multiplication; on the real axis the spectrum collapses to a single
real point and the only projection is the identity.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import CMultivector, Multivector, Paravector
from .errors import DegenerateDirectionError, DomainError, SpectralPointError

__all__ = [
    "SpectralData",
    "DegenerateProjectionWarning",
    "eigenvalues",
    "resolvent",
    "spectral_projection",
    "spectral_decomposition_residual",
    "eigenvector",
    "idempotents",
]

SPECTRAL_POINT_TOL = 1e-12


class DegenerateProjectionWarning(UserWarning):
    """Projection requested for a real paravector; the identity was applied."""


@dataclass(frozen=True)
class SpectralData:
    """Eigenvalues of a paravector plus, when nonreal, its slice data.

    ``s_plus`` always carries the nonnegative imaginary part.  For a real
    paravector both eigenvalues coincide and the direction/idempotent fields
    are ``None``; callers must branch on :attr:`is_real`.  The idempotents
    are built when first read.
    """

    s_plus: complex
    s_minus: complex
    s_unit: Paravector | None = None

    @cached_property
    def _idempotents(self) -> tuple[CMultivector | None, CMultivector | None]:
        return (None, None) if self.s_unit is None else idempotents(self.s_unit)

    iota_plus = property(lambda self: self._idempotents[0])
    iota_minus = property(lambda self: self._idempotents[1])

    @property
    def is_real(self) -> bool:
        return self.s_unit is None

    @property
    def points(self) -> tuple[complex, ...]:
        """The spectrum as a set of complex points (one point when real)."""
        if self.is_real:
            return (self.s_plus,)
        return (self.s_plus, self.s_minus)


def idempotents(s_unit: Paravector) -> tuple[CMultivector, CMultivector]:
    """The commuting idempotents (1 -/+ i s)/2 attached to a unit imaginary s.

    They sum to one, multiply to zero, and project onto the eigenspaces of
    left multiplication by any paravector with imaginary direction ``s``.
    """
    s = s_unit.to_cmultivector()
    half = CMultivector.from_scalar(s_unit.n, 0.5)
    return half - 0.5j * s, half + 0.5j * s


def eigenvalues(kappa: Paravector) -> SpectralData:
    """Spectral data of a paravector: eigenvalues Re(k) +/- i|Im(k)|."""
    x = kappa.scalar
    y = kappa.vector_norm
    if y == 0.0:
        return SpectralData(complex(x, 0.0), complex(x, 0.0))
    direction = kappa.components / y  # kappa.unit_imaginary(), without a second norm
    direction[0] = 0.0
    return SpectralData(complex(x, y), complex(x, -y), Paravector(kappa.n, direction))


def resolvent(lam: complex, kappa: Paravector, tol: float = SPECTRAL_POINT_TOL) -> CMultivector:
    """Inverse of ``lam - kappa`` in the complexified algebra.

    Uses the closed form (lam - kappa*) / (lam**2 - 2 lam Re(k) + |k|**2);
    the scalar denominator vanishing is exactly membership of ``lam`` in the
    spectrum.  The tolerance ``tol`` must be a finite number > 0, or it
    raises ``DomainError``.
    """
    if not isinstance(tol, numbers.Real) or not 0.0 < tol < math.inf:
        raise DomainError(f"resolvent tolerance must be a finite number > 0, got {tol!r}")
    lam = complex(lam)
    kappa_norm2 = float(np.dot(kappa.components, kappa.components))
    den = lam * lam - 2.0 * lam * kappa.scalar + kappa_norm2
    scale = 1.0 + abs(lam) ** 2 + kappa_norm2
    if abs(den) < tol * scale:
        raise SpectralPointError(
            f"{lam} is (numerically) a spectral point of the paravector"
        )
    numer = lam - kappa.star().to_cmultivector()
    return numer / den


def spectral_projection(kappa: Paravector, a, sign: int = +1) -> CMultivector:
    """Apply the spectral projection of left multiplication by ``kappa``.

    ``sign`` selects the eigenvalue with positive (+1) or negative (-1)
    imaginary part.  For a real paravector the projection degenerates to the
    identity; a :class:`DegenerateProjectionWarning` flags that case.
    """
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if isinstance(a, (Paravector, Multivector)):
        a = a.to_cmultivector()
    data = eigenvalues(kappa)
    if data.is_real:
        warnings.warn(
            "real paravector: spectral projection is the identity",
            DegenerateProjectionWarning,
            stacklevel=2,
        )
        return a
    iota = data.iota_plus if sign > 0 else data.iota_minus
    return iota * a


def spectral_decomposition_residual(kappa: Paravector, a) -> float:
    """Defect of the eigen-decomposition of left multiplication.

    Returns ``|k a - s_+ P_+ a - s_- P_- a|``, which is zero in exact
    arithmetic for every paravector and algebra element.
    """
    if isinstance(a, (Paravector, Multivector)):
        a = a.to_cmultivector()
    data = eigenvalues(kappa)
    product = kappa.to_cmultivector() * a
    if data.is_real:
        reconstructed = data.s_plus * a
    else:
        reconstructed = data.s_plus * (data.iota_plus * a) + data.s_minus * (data.iota_minus * a)
    return (product - reconstructed).norm()


def eigenvector(kappa: Paravector, sign: int, x: Multivector) -> CMultivector:
    """Eigenvector (1 -/+ i Im(k)/|Im(k)|) x of left multiplication by ``kappa``.

    Requires a nonreal paravector; for real ones every element is an
    eigenvector and there is no distinguished direction.
    """
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    data = eigenvalues(kappa)
    if data.is_real:
        raise DegenerateDirectionError(
            "real paravector: every element is an eigenvector, no direction to pick"
        )
    factor = data.iota_plus if sign > 0 else data.iota_minus
    return (2.0 * factor) * x.to_cmultivector()
