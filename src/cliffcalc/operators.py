"""Finite-dimensional Clifford operators and their functional calculi.

An operator here is a family of real d x d matrices, one per basis blade,
acting on the free module R^d (x) Cl_n by matrix action on the vector factor
and left blade multiplication on the algebra factor.  Such operators commute
with all right multiplications.  The module provides their complexification
(a d*2^n square matrix), both spectra, the Riesz-Dunford contour calculus
with stem functions, the right S-resolvent slice calculus, and the
consistency checks tying the two together.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .algebra import (
    MAX_FORMAT_RANK,
    CMultivector,
    Paravector,
    digits_from_mask,
    mask_from_digits,
    _batch_mul_coeffs,
    _exponent,
    _mul_tables,
    _value_coeffs,
)
from .contour import (QUAD_TOL, RADIUS_FRACTION, Contour, _check_contour, build_contour,
                      contour_quadrature)
from .errors import (
    ContourSpectrumError,
    DomainError,
    FormatError,
    MaskRangeError,
    NoContourError,
    RankMismatchError,
    SingularInputError,
    StemViolationError,
)
from .stem import PlanarDomain, StemFunction, recombine, slice_point

__all__ = [
    "CliffordOperator",
    "SpectrumSet",
    "MembershipResult",
    "complexify",
    "left_mult_matrix",
    "right_mult_matrix",
    "complex_spectrum",
    "clifford_spectrum_contains",
    "clifford_spectrum_slice",
    "basis_conjugate",
    "real_subspace_defect",
    "operator_from_matrix",
    "riesz_dunford_matrix",
    "riesz_dunford_eval",
    "s_resolvent_right",
    "slice_calculus_eval",
    "spectral_mapping_distance",
    "tuple_operator",
    "hausdorff_distance",
    "operator_to_json",
    "operator_from_json",
]

SIZE_CAP = 256
SINGULARITY_TOL = 1e-10
FLAT_TOL = 1e-9


@lru_cache(maxsize=None)
def _left_mult_signs(n: int) -> np.ndarray:
    """Signs of left multiplication on the 2^n blade coefficients: the matrix
    of ``a`` is ``a[K ^ L] * signs[K, L]``, the sign of e_{K^L} e_L = +-e_K."""
    sign, partner = _mul_tables(n)
    signs = sign[partner, np.arange(1 << n)[:, None]]
    signs.setflags(write=False)
    return signs


def _left_mult(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Left-multiplication matrices of a (..., 2^n) stack of coefficient rows."""
    return coeffs[..., _mul_tables(n)[1]] * _left_mult_signs(n)


def _apply_left(blocks: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """``kron(blocks[k], I_d) @ mats[k]`` for stacks (N, 2^n, 2^n) and (N, m, m):
    the blade blocks act on the blade-major block rows of ``mats``."""
    return (blocks @ mats.reshape(len(mats), blocks.shape[-1], -1)).reshape(mats.shape)


def left_mult_matrix(a) -> np.ndarray:
    """Matrix of left multiplication by ``a`` on the blade coefficients."""
    if isinstance(a, Paravector):
        a = a.to_multivector()
    return _left_mult(a.coeffs, a.n)


def right_mult_matrix(a) -> np.ndarray:
    """Matrix of right multiplication by ``a`` on the blade coefficients:
    entry [L, K] is ``a[K ^ L]`` times the sign of e_K e_{K^L}."""
    if isinstance(a, Paravector):
        a = a.to_multivector()
    sign, partner = _mul_tables(a.n)
    return (a.coeffs[partner] * sign).T


@dataclass(frozen=True)
class CliffordOperator:
    """Right-linear operator sum-of-blades T = sum_J M_J e_J on R^d (x) Cl_n.

    ``components`` maps a blade bitmask to its real d x d matrix; absent
    masks are zero.  The operator acts by ``T(v e_K) = sum_J (M_J v) e_J e_K``.
    """

    d: int
    n: int
    components: dict

    def __post_init__(self):
        clean = {}
        for mask, mat in self.components.items():
            mask = int(mask)
            if not 0 <= mask < (1 << self.n):
                raise MaskRangeError(f"component mask {mask} out of range for rank {self.n}")
            arr = np.asarray(mat, dtype=np.float64)
            if arr.shape != (self.d, self.d):
                raise RankMismatchError(
                    f"component for mask {mask} must be {self.d}x{self.d}, got {arr.shape}"
                )
            if np.any(arr != 0.0):
                arr = arr.copy()
                arr.setflags(write=False)
                clean[mask] = arr
        object.__setattr__(self, "components", clean)

    @property
    def size(self) -> int:
        return self.d << self.n

    @classmethod
    def identity(cls, d: int, n: int) -> "CliffordOperator":
        return cls(d, n, {0: np.eye(d)})

    @classmethod
    def left_multiplication(cls, a) -> "CliffordOperator":
        """The operator of left multiplication by an algebra element (d = 1)."""
        if isinstance(a, Paravector):
            a = a.to_multivector()
        if np.iscomplexobj(a.coeffs):
            raise FormatError("left multiplication operators need real components")
        return cls(1, a.n, {
            mask: np.array([[a.coeffs[mask]]]) for mask in range(1 << a.n)
        })

    def matrix(self) -> np.ndarray:
        """Complexified matrix on the basis (vector basis) x (blades).

        Index order is blade-major: entry ``(K*d + i, L*d + j)``.  Real
        components make this a real-entried complex matrix.
        """
        blocks = np.zeros((1 << self.n, self.d, self.d))
        for mask, mat in self.components.items():
            blocks[mask] = mat
        # block (K, L) is the component of mask K ^ L times its blade sign
        out = _left_mult(blocks.transpose(1, 2, 0), self.n).transpose(2, 0, 3, 1)
        return out.reshape(self.size, self.size).astype(np.complex128)

    def frobenius(self) -> float:
        return float(np.linalg.norm(self.matrix()))

    def compose(self, other: "CliffordOperator") -> "CliffordOperator":
        """Operator composition; blades multiply, matrices compose."""
        if (self.d, self.n) != (other.d, other.n):
            raise RankMismatchError("operators live on different modules")
        sign, _ = _mul_tables(self.n)
        parts: dict[int, np.ndarray] = {}
        for j, mj in self.components.items():
            for k, mk in other.components.items():
                mask = j ^ k
                term = sign[j, mask] * (mj @ mk)
                parts[mask] = parts.get(mask, 0) + term
        return CliffordOperator(self.d, self.n, parts)

    def __add__(self, other: "CliffordOperator") -> "CliffordOperator":
        if not isinstance(other, CliffordOperator):
            return NotImplemented
        if (self.d, self.n) != (other.d, other.n):
            raise RankMismatchError("operators live on different modules")
        parts = {mask: mat.copy() for mask, mat in self.components.items()}
        for mask, mat in other.components.items():
            parts[mask] = parts.get(mask, 0) + mat
        return CliffordOperator(self.d, self.n, parts)

    def __sub__(self, other: "CliffordOperator") -> "CliffordOperator":
        return self + (-1.0) * other

    def __rmul__(self, factor: float) -> "CliffordOperator":
        if not isinstance(factor, (int, float)):
            return NotImplemented
        return CliffordOperator(
            self.d, self.n, {mask: factor * mat for mask, mat in self.components.items()}
        )

    def __matmul__(self, other: "CliffordOperator") -> "CliffordOperator":
        return self.compose(other)

    def power(self, exponent: int) -> "CliffordOperator":
        """``exponent``-fold composition; ``exponent`` must be an integer >= 0."""
        out = CliffordOperator.identity(self.d, self.n)
        for _ in range(_exponent(exponent)):
            out = out.compose(self)
        return out


def complexify(T: CliffordOperator) -> np.ndarray:
    """Matrix of the complex extension of ``T`` (see
    :meth:`CliffordOperator.matrix`)."""
    return T.matrix()


@dataclass(frozen=True)
class SpectrumSet:
    """Eigenvalues with multiplicity, stored conjugate-symmetrically."""

    eigenvalues: tuple[complex, ...]

    def upper(self) -> tuple[complex, ...]:
        """Representatives in the closed upper half plane, deduplicated to a
        relative 1e-9."""
        reps: list[complex] = []
        for lam in self.eigenvalues:
            lam = complex(lam.real, abs(lam.imag))
            if all(abs(lam - r) > 1e-9 * (1.0 + abs(lam)) for r in reps):
                reps.append(lam)
        return tuple(reps)

    def pairing_defect(self) -> float:
        """Worst distance from an eigenvalue to the conjugate of another."""
        worst = 0.0
        for lam in self.eigenvalues:
            worst = max(
                worst,
                min(abs(lam.conjugate() - mu) for mu in self.eigenvalues),
            )
        return worst


def complex_spectrum(T: CliffordOperator) -> SpectrumSet:
    """All eigenvalues of the complexified matrix.

    The matrix is real in the canonical basis, so the real Schur path of the
    solver returns exactly paired conjugate eigenvalues.
    """
    if T.size > SIZE_CAP:
        raise DomainError(f"operator size {T.size} exceeds the cap {SIZE_CAP}")
    matrix = T.matrix()
    eigs = np.linalg.eigvals(matrix.real)
    order = np.lexsort((eigs.imag, eigs.real))
    return SpectrumSet(tuple(complex(e) for e in eigs[order]))


@dataclass(frozen=True)
class MembershipResult:
    """Boolean verdict plus the margin of the underlying singularity test.

    ``margin`` is the smallest singular value of the quadratic pencil over
    the decision threshold: values below 1 mean membership.  Truthiness
    follows the verdict.
    """

    member: bool
    margin: float

    def __bool__(self) -> bool:
        return self.member


def _pencil_margin(T: CliffordOperator, kappa: Paravector) -> tuple[np.ndarray, float]:
    """The pencil ``T^2 - 2 Re(k) T + |k|^2`` and its smallest singular value over
    ``SINGULARITY_TOL`` times its max-norm: below 1, ``kappa`` is in the Clifford spectrum."""
    if kappa.n != T.n:
        raise RankMismatchError(f"rank mismatch: operator {T.n}, paravector {kappa.n}")
    matrix = T.matrix()
    kappa_norm2 = float(np.dot(kappa.components, kappa.components))
    pencil = matrix @ matrix - 2.0 * kappa.scalar * matrix + kappa_norm2 * np.eye(T.size)
    smallest = float(np.linalg.svd(pencil, compute_uv=False)[-1])
    return pencil, smallest / (SINGULARITY_TOL * max(1.0, float(np.max(np.abs(pencil)))))


def clifford_spectrum_contains(T: CliffordOperator, kappa: Paravector) -> MembershipResult:
    """Membership of a paravector in the Clifford spectrum of ``T``: whether
    the quadratic pencil is singular (see ``_pencil_margin``)."""
    _, margin = _pencil_margin(T, kappa)
    return MembershipResult(member=margin < 1.0, margin=margin)


def clifford_spectrum_slice(T: CliffordOperator, s_unit: Paravector) -> list[Paravector]:
    """Slice representatives of the Clifford spectrum along a unit direction:
    one paravector Re(l) + |Im(l)| s per upper-half eigenvalue of T."""
    if s_unit.n != T.n:
        raise RankMismatchError(f"rank mismatch: operator {T.n}, direction {s_unit.n}")
    reps = []
    for lam in complex_spectrum(T).upper():
        reps.append(slice_point(T.n, lam.real, abs(lam.imag), s_unit))
    return reps


def basis_conjugate(S: np.ndarray) -> np.ndarray:
    """Conjugation of a complexified operator by the real structure.

    In the canonical real basis this is entrywise complex conjugation; fixed
    points are exactly the operators mapping the real subspace to itself.
    """
    return np.conj(np.asarray(S))


def real_subspace_defect(S: np.ndarray) -> float:
    """Frobenius distance between ``S`` and its real-structure conjugate."""
    S = np.asarray(S)
    return float(np.linalg.norm(S - basis_conjugate(S)))


def operator_from_matrix(
    S: np.ndarray, d: int, n: int, tol: float = 1e-8
) -> CliffordOperator:
    """Project a complexified matrix back to blade components.

    Requires ``S`` to be (numerically) real in the canonical basis and
    right-linear, i.e. in the span of blade-left-multiplications tensor
    matrices; the reconstruction defect is checked against ``tol`` scaled by
    the matrix norm.
    """
    S = np.asarray(S, dtype=np.complex128)
    size = d << n
    if S.shape != (size, size):
        raise RankMismatchError(f"matrix shape {S.shape} does not match d={d}, n={n}")
    scale = max(1.0, float(np.linalg.norm(S)))
    imag_norm = float(np.linalg.norm(S.imag))
    if imag_norm > tol * scale:
        raise StemViolationError(
            f"matrix is not real in the canonical basis (defect {imag_norm:.3g})",
            residual=imag_norm,
        )
    real = S.real
    components = {}
    for mask in range(1 << n):
        block = real[mask * d:(mask + 1) * d, 0:d]
        if np.any(block != 0.0):
            components[mask] = block
    candidate = CliffordOperator(d, n, components)
    defect = float(np.linalg.norm(candidate.matrix().real - real))
    if defect > tol * scale:
        raise StemViolationError(
            f"matrix is not right-linear over the algebra (defect {defect:.3g})",
            residual=defect,
        )
    return candidate


# -- Riesz-Dunford calculus ----------------------------------------------------

def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stacked ``np.linalg.solve``; a singular system puts a node on the spectrum."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        raise ContourSpectrumError("singular resolvent at a quadrature node: the spectrum "
                                   "is too clustered or defective for the contour") from None


def _operator_contour(T: CliffordOperator, contour: Contour | None, domain: PlanarDomain | None,
                      stem: StemFunction | None, radius_fraction: float) -> Contour:
    """``contour``, or circles around the complex spectrum of ``T`` inside
    ``domain``, checked for admissibility (see ``contour._check_contour``)."""
    if stem is not None and stem.n != T.n:
        raise RankMismatchError(f"rank mismatch: function {stem.n}, operator {T.n}")
    spectrum = complex_spectrum(T).eigenvalues
    if contour is None:
        if domain is None:
            raise NoContourError("need a contour, or a stem function or domain to build one")
        contour = build_contour(spectrum, domain, radius_fraction=radius_fraction)
    _check_contour(contour, spectrum, stem)
    return contour


def _real_operator(S: np.ndarray, T: CliffordOperator, what: str, tol: float) -> CliffordOperator:
    """Project a calculus value back onto blade components; a violation of
    the real structure beyond ``FLAT_TOL`` (relative) reports a non-stem
    function."""
    scale = max(1.0, float(np.linalg.norm(S)))
    defect = real_subspace_defect(S)
    if defect > FLAT_TOL * scale:
        raise StemViolationError(
            f"{what} value is not fixed by the real structure (defect {defect:.3g}); "
            "the function is not a stem function",
            residual=defect,
        )
    return operator_from_matrix(S, T.d, T.n, tol=max(FLAT_TOL, 10 * tol))


def riesz_dunford_matrix(
    F,
    T: CliffordOperator,
    contour: Contour | None = None,
    radius_fraction: float = RADIUS_FRACTION,
    tol: float = QUAD_TOL,
) -> np.ndarray:
    """Contour functional calculus on the complexified matrix.

    Integrates ``F(z) (z - T)^{-1}`` around the complex spectrum and
    normalizes by 2 pi i; the resolvents of a batch of nodes come from one
    stacked linear solve.  Stem functions (values in the complexified
    algebra) act as left multiplications, evaluated once per node batch;
    raw callables must return complexified matrices satisfying
    F(conj z) = conj F(z) entrywise, and are called point by point.
    """
    stem = F if isinstance(F, StemFunction) else None
    if stem is None and not callable(F):
        raise FormatError("function must be a StemFunction or a matrix-valued callable")
    contour = _operator_contour(T, contour, stem and stem.domain, stem, radius_fraction)
    base = T.matrix()
    eye = np.eye(T.size, dtype=np.complex128)

    def integrand(zs: np.ndarray, dzs: np.ndarray) -> np.ndarray:
        shifted = zs[:, None, None] * eye - base
        resolvents = _solve(shifted, np.broadcast_to(eye, shifted.shape))
        if stem is None:
            return (np.array([F(z) for z in zs]) * dzs[:, None, None]) @ resolvents
        return _apply_left(_left_mult(F.values_at(zs) * dzs[:, None], T.n), resolvents)

    raw = contour_quadrature(integrand, contour, tol=tol)
    return raw / (2.0j * np.pi)


def riesz_dunford_eval(
    F,
    T: CliffordOperator,
    radius_fraction: float = RADIUS_FRACTION,
    tol: float = QUAD_TOL,
) -> CliffordOperator:
    """Riesz-Dunford calculus returning a real Clifford operator.

    For stem functions the integral is fixed by the real-structure
    conjugation, so it projects back onto blade components; a violation
    beyond ``FLAT_TOL`` (relative) reports the function as non-stem.
    """
    S = riesz_dunford_matrix(F, T, radius_fraction=radius_fraction, tol=tol)
    return _real_operator(S, T, "contour calculus", tol)


# -- slice calculus -------------------------------------------------------------

def s_resolvent_right(s: Paravector, T: CliffordOperator) -> np.ndarray:
    """Right S-resolvent ``-(T - s*) (T^2 - 2 Re(s) T + |s|^2)^{-1}`` on the
    complexified module, with the involution acting by left multiplication."""
    pencil, margin = _pencil_margin(T, s)
    if margin < 1.0:
        raise SingularInputError(
            f"paravector {s!r} lies in the Clifford spectrum; S-resolvent undefined"
        )
    star_mult = np.kron(left_mult_matrix(s.star()), np.eye(T.d))
    numerator = T.matrix() - star_mult
    return -numerator @ np.linalg.solve(pencil, np.eye(T.size, dtype=np.complex128))


def slice_calculus_eval(
    phi: StemFunction | Callable[[Paravector], CMultivector],
    T: CliffordOperator,
    s_unit: Paravector,
    contour: Contour | None = None,
    domain: PlanarDomain | None = None,
    radius_fraction: float = RADIUS_FRACTION,
    tol: float = QUAD_TOL,
) -> CliffordOperator:
    """Slice functional calculus through the right S-resolvent.

    The integration runs over the boundary of a plane region whose slice
    lift contains the Clifford spectrum of ``T``; the plane measure is the
    slice embedding of the complex line element, multiplied by minus the
    slice direction, and the integrand keeps the order value * measure *
    S-resolvent.  The result agrees with the Riesz-Dunford calculus of the
    corresponding stem function.

    ``phi`` is a stem function ``F``, valued ``F(z) i+(s) + F(conj z) i-(s)``
    at u + v s with the idempotents of s (batched), or a black-box function
    of a paravector called per node.  ``domain`` defaults to ``F.domain``.
    """
    if s_unit.n != T.n:
        raise RankMismatchError(f"rank mismatch: operator {T.n}, direction {s_unit.n}")
    stem = phi if isinstance(phi, StemFunction) else None
    if domain is None and stem is not None:
        domain = stem.domain
    contour = _operator_contour(T, contour, domain, stem, radius_fraction)

    n = T.n
    # the pencil and the S-resolvent are real: solve in real arithmetic
    eye = np.eye(T.size)
    base = T.matrix().real
    base2 = base @ base
    s_row = s_unit.to_multivector().coeffs
    unit_left = np.kron(left_mult_matrix(s_unit), np.eye(T.d))

    def slice_values(zs: np.ndarray) -> np.ndarray:
        if stem is not None:
            return recombine(*np.split(stem.values_at(np.concatenate([zs, zs.conj()])), 2),
                             s_unit)
        return np.array([_value_coeffs(phi(slice_point(n, z.real, z.imag, s_unit)), n)
                         for z in zs])

    def integrand(zs: np.ndarray, dzs: np.ndarray) -> np.ndarray:
        # s = u + v s_unit; the S-resolvent pencil only sees Re(s) and |s|^2
        u, v = zs.real[:, None, None], zs.imag[:, None, None]
        pencil = base2 - (2.0 * u) * base + (u * u + v * v) * eye
        numerator = base - u * eye + v * unit_left
        # S_R = -numerator pencil^{-1}, from the transposed systems
        s_res = -_solve(pencil.swapaxes(1, 2), numerator.swapaxes(1, 2)).swapaxes(1, 2)
        # plane measure: -s (du + s dv) = dv - du s under u + iv -> u + v s
        measure = np.outer(dzs.real, -s_row)
        measure[:, 0] += dzs.imag
        weights = _batch_mul_coeffs(slice_values(zs), measure, n)
        return _apply_left(_left_mult(weights, n), s_res)

    raw = contour_quadrature(integrand, contour, tol=tol)
    return _real_operator(raw / (2.0 * np.pi), T, "slice calculus", tol)


# -- derived checks -------------------------------------------------------------

def hausdorff_distance(a: Sequence[complex], b: Sequence[complex]) -> float:
    """Hausdorff distance between two finite sets of complex points."""
    if not a or not b:
        raise DomainError("Hausdorff distance needs nonempty sets")
    forward = max(min(abs(x - y) for y in b) for x in a)
    backward = max(min(abs(x - y) for y in a) for x in b)
    return max(forward, backward)


def spectral_mapping_distance(f: StemFunction, T: CliffordOperator) -> float:
    """Hausdorff distance between f(complex spectrum) and the complex
    spectrum of f(T), computed by two independent eigenvalue runs."""
    if not f.is_scalar:
        raise DomainError("the spectral mapping check applies to complex-valued functions")
    spectrum = complex_spectrum(T).eigenvalues
    mapped = [f.scalar_eval(lam) for lam in spectrum]
    image = riesz_dunford_eval(f, T)
    return hausdorff_distance(mapped, complex_spectrum(image).eigenvalues)


def tuple_operator(matrices: Sequence[np.ndarray], n: int | None = None) -> CliffordOperator:
    """Pack real matrices (T_0, T_1, ..., T_n) into the operator
    T_0 + T_1 e_1 + ... + T_n e_n; downstream calculus applies unchanged."""
    mats = [np.asarray(m, dtype=np.float64) for m in matrices]
    if not mats:
        raise FormatError("need at least one matrix")
    d = mats[0].shape[0]
    for m in mats:
        if m.shape != (d, d):
            raise RankMismatchError("tuple matrices must share one square shape")
    if n is None:
        n = len(mats) - 1
    if len(mats) > n + 1:
        raise MaskRangeError(f"got {len(mats)} matrices for rank {n}")
    components = {0: mats[0]}
    for j, m in enumerate(mats[1:], start=1):
        components[1 << (j - 1)] = m
    return CliffordOperator(d, n, components)


# -- JSON ------------------------------------------------------------------------

def operator_to_json(T: CliffordOperator) -> dict:
    return {
        "d": T.d,
        "n": T.n,
        "components": {
            digits_from_mask(mask): mat.tolist() for mask, mat in sorted(T.components.items())
        },
    }


def operator_from_json(obj: dict) -> CliffordOperator:
    try:
        d, n = obj["d"], obj["n"]
        raw = obj.get("components", {})
    except (KeyError, TypeError) as exc:
        raise FormatError(f"malformed operator JSON: {obj!r}") from exc
    if not (type(d) is int and d >= 1 and type(n) is int and 0 <= n <= MAX_FORMAT_RANK):
        raise FormatError(f"operator JSON needs integers d >= 1 and 0 <= n <= "
                          f"{MAX_FORMAT_RANK}, got d = {d!r}, n = {n!r}")
    if not isinstance(raw, dict):
        raise FormatError(f"operator JSON components must be an object, got {raw!r}")
    components = {}
    for key, value in raw.items():
        try:
            mask, matrix = mask_from_digits(key, n), np.asarray(value, dtype=np.float64)
        except (TypeError, ValueError, OverflowError):
            matrix = None
        if matrix is None or not np.all(np.isfinite(matrix)):
            raise FormatError(f"operator component {key!r} needs generator digits and finite "
                              f"entries, got {value!r}")
        components[mask] = matrix
    return CliffordOperator(d, n, components)
