"""Stem functions on conjugate-symmetric planar domains and their calculus.

A stem function satisfies ``F(conj(z)) == bar(F(z))`` on a domain that is
mirror-symmetric about the real axis.  Evaluating such a function at a
paravector combines its values at the two eigenvalues through the spectral
idempotents; the result lands in the real algebra exactly when the stem
identity holds.  Domains are finite unions of open disks and axis-aligned
rectangles, optionally punctured at isolated excluded points (poles), and
are mirrored at construction so conjugate symmetry holds by force.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .algebra import CMultivector, Multivector, Paravector, _mul_coeffs, _paravector_coeffs
from .errors import DomainError, FormatError, SaturationError
from .spectral import SpectralData, eigenvalues

__all__ = [
    "Disk",
    "Rect",
    "PlanarDomain",
    "StemFunction",
    "verify_stem",
    "evaluate_stem",
    "intrinsic_check",
    "zero_set_membership",
    "saturated_membership",
    "spectra_of_set_membership",
    "product_rule_residual",
    "representation_formula",
    "slice_lift",
    "slice_point",
    "halton",
]

STEM_TOL = 1e-10
STEM_SAMPLES = 512


# -- quasi-random sampling ----------------------------------------------------

def _radical_inverse(index: int, base: int) -> float:
    value, factor = 0.0, 1.0 / base
    while index:
        value += (index % base) * factor
        index //= base
        factor /= base
    return value


def halton(count: int, skip: int = 0) -> np.ndarray:
    """First ``count`` points of the 2-D Halton sequence (bases 2 and 3)."""
    idx = np.arange(skip + 1, skip + count + 1)
    return np.array([[_radical_inverse(i, 2), _radical_inverse(i, 3)] for i in idx])


# -- domain pieces ------------------------------------------------------------

@dataclass(frozen=True)
class Disk:
    center: complex
    radius: float

    def contains(self, z: complex) -> bool:
        return abs(z - self.center) < self.radius

    def clearance(self, z: complex) -> float:
        """Signed distance to the circle: positive inside."""
        return self.radius - abs(z - self.center)

    def mirrored(self) -> "Disk":
        return Disk(self.center.conjugate(), self.radius)

    def sample(self, points: np.ndarray) -> np.ndarray:
        r = self.radius * np.sqrt(points[:, 0])
        theta = 2.0 * np.pi * points[:, 1]
        return self.center + r * np.exp(1j * theta)


@dataclass(frozen=True)
class Rect:
    x0: float
    x1: float
    y0: float
    y1: float

    def __post_init__(self):
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise FormatError(f"degenerate rectangle {self!r}")

    def contains(self, z: complex) -> bool:
        return self.x0 < z.real < self.x1 and self.y0 < z.imag < self.y1

    def clearance(self, z: complex) -> float:
        inside = min(z.real - self.x0, self.x1 - z.real, z.imag - self.y0, self.y1 - z.imag)
        if inside > 0:
            return inside
        dx = max(self.x0 - z.real, 0.0, z.real - self.x1)
        dy = max(self.y0 - z.imag, 0.0, z.imag - self.y1)
        return -float(np.hypot(dx, dy))

    def mirrored(self) -> "Rect":
        return Rect(self.x0, self.x1, -self.y1, -self.y0)

    def sample(self, points: np.ndarray) -> np.ndarray:
        return (self.x0 + (self.x1 - self.x0) * points[:, 0]) + 1j * (
            self.y0 + (self.y1 - self.y0) * points[:, 1]
        )


class PlanarDomain:
    """Conjugate-symmetric finite union of open disks and rectangles.

    Every piece (and puncture) is mirrored across the real axis at
    construction, so membership is symmetric by construction.  Punctures are
    isolated excluded points; they do not change membership of nearby points
    but they do bound :meth:`clearance`, which is what keeps contours away
    from poles.
    """

    def __init__(self, pieces: Iterable[Disk | Rect], punctures: Iterable[complex] = ()):
        full: list[Disk | Rect] = []
        for piece in pieces:
            for candidate in (piece, piece.mirrored()):
                if candidate not in full:
                    full.append(candidate)
        if not full:
            raise FormatError("planar domain needs at least one piece")
        holes: list[complex] = []

        def add_hole(p: complex) -> None:
            if all(abs(p - q) > 1e-9 * (1.0 + abs(p)) for q in holes):
                holes.append(p)

        for p in punctures:
            p = complex(p)
            add_hole(p)
            if p.imag != 0.0:
                add_hole(p.conjugate())
        self.pieces: tuple[Disk | Rect, ...] = tuple(full)
        self.punctures: tuple[complex, ...] = tuple(holes)

    @classmethod
    def disk(cls, center: complex = 0.0, radius: float = 1.0) -> "PlanarDomain":
        return cls([Disk(complex(center), float(radius))])

    def contains(self, z: complex) -> bool:
        z = complex(z)
        for p in self.punctures:
            if abs(z - p) <= 1e-12 * (1.0 + abs(p)):
                return False
        return any(piece.contains(z) for piece in self.pieces)

    def contains_spectrum(self, data: SpectralData) -> bool:
        return all(self.contains(s) for s in data.points)

    def clearance(self, z: complex) -> float:
        """Signed clearance: for an interior point, a lower bound on the
        distance to the domain boundary and punctures (exact for a single
        piece); negative of the distance to the nearest piece outside."""
        z = complex(z)
        values = [piece.clearance(z) for piece in self.pieces]
        best = max(values)
        if best <= 0:
            return best
        for p in self.punctures:
            best = min(best, abs(z - p))
        return best

    def sample(self, count_per_piece: int = STEM_SAMPLES) -> np.ndarray:
        """Deterministic low-discrepancy points inside the domain."""
        chunks = []
        for k, piece in enumerate(self.pieces):
            pts = piece.sample(halton(count_per_piece, skip=k * count_per_piece))
            chunks.append(pts[[self.contains(z) for z in pts]])
        return np.concatenate(chunks)

    def to_json(self) -> dict:
        disks = [
            {"c": [p.center.real, p.center.imag], "r": p.radius}
            for p in self.pieces
            if isinstance(p, Disk)
        ]
        rects = [
            {"x": [p.x0, p.x1], "y": [p.y0, p.y1]}
            for p in self.pieces
            if isinstance(p, Rect)
        ]
        out = {"disks": disks, "rects": rects}
        if self.punctures:
            out["punctures"] = [[p.real, p.imag] for p in self.punctures]
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "PlanarDomain":
        if not isinstance(obj, dict):
            raise FormatError(f"domain JSON must be an object, got {obj!r}")
        try:
            pieces: list[Disk | Rect] = [
                Disk(complex(d["c"][0], d["c"][1]), float(d["r"]))
                for d in obj.get("disks", [])
            ]
            pieces += [
                Rect(float(r["x"][0]), float(r["x"][1]), float(r["y"][0]), float(r["y"][1]))
                for r in obj.get("rects", [])
            ]
            punctures = [complex(p[0], p[1]) for p in obj.get("punctures", [])]
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise FormatError(f"malformed domain JSON: {obj!r}") from exc
        return cls(pieces, punctures)

    def __repr__(self):
        return f"PlanarDomain(pieces={len(self.pieces)}, punctures={len(self.punctures)})"


# -- stem functions -----------------------------------------------------------

@dataclass(frozen=True)
class StemFunction:
    """A complexified-algebra-valued function on a conjugate-symmetric domain.

    ``fn`` maps a complex number to a :class:`CMultivector` of rank ``n``
    (plain complex return values are wrapped).  The flags record what the
    caller claims: ``is_analytic`` enables the contour machinery and
    ``is_scalar`` marks complex-valued functions.  ``derivative`` optionally
    supplies the complex derivative as another stem function, and ``batch``
    optionally evaluates at a whole (N,) array of points at once, returning
    the (N, 2**n) complex coefficient array (see :meth:`values_at`).
    """

    n: int
    fn: Callable[[complex], CMultivector]
    domain: PlanarDomain
    is_analytic: bool = False
    is_scalar: bool = False
    derivative: Callable[[], "StemFunction"] | None = None
    label: str = ""
    batch: Callable[[np.ndarray], np.ndarray] | None = None

    def __call__(self, z: complex) -> CMultivector:
        value = self.fn(complex(z))
        if isinstance(value, CMultivector):
            return value
        if isinstance(value, Multivector):
            return value.to_cmultivector()
        return CMultivector.from_scalar(self.n, complex(value))

    def values_at(self, zs: np.ndarray) -> np.ndarray:
        """Values at a (N,) array of points as a (N, 2**n) coefficient array:
        one call of the batch evaluator, or a loop over points without one."""
        zs = np.asarray(zs, dtype=np.complex128)
        if self.batch is not None:
            return self.batch(zs)
        out = np.empty((len(zs), 1 << self.n), dtype=np.complex128)
        for i, z in enumerate(zs):
            out[i] = self(z).coeffs
        return out

    def scalar_eval(self, z: complex) -> complex:
        value = self(z)
        return complex(value.coeffs[0])

    def at(self, kappa: Paravector) -> CMultivector:
        """Direct functional-calculus value at a paravector (see
        :func:`evaluate_stem`)."""
        return evaluate_stem(self, kappa)

    def differentiated(self, order: int = 1) -> "StemFunction":
        out = self
        for _ in range(order):
            if out.derivative is None:
                raise DomainError("stem function does not supply a derivative")
            out = out.derivative()
        return out

    def __mul__(self, other: "StemFunction") -> "StemFunction":
        """Pointwise product; the domain of the left factor is kept, so
        build products from functions sharing a domain."""
        if not isinstance(other, StemFunction):
            return NotImplemented
        deriv = None
        if self.derivative is not None and other.derivative is not None:
            left, right = self, other

            def deriv():
                return left.differentiated() * right + left * right.differentiated()

        return StemFunction(
            n=self.n,
            fn=lambda z: self(z) * other(z),
            domain=self.domain,
            is_analytic=self.is_analytic and other.is_analytic,
            is_scalar=self.is_scalar and other.is_scalar,
            derivative=deriv,
            label=f"({self.label})*({other.label})" if self.label and other.label else "",
        )

    def __add__(self, other: "StemFunction") -> "StemFunction":
        if not isinstance(other, StemFunction):
            return NotImplemented
        deriv = None
        if self.derivative is not None and other.derivative is not None:
            left, right = self, other

            def deriv():
                return left.differentiated() + right.differentiated()

        return StemFunction(
            n=self.n,
            fn=lambda z: self(z) + other(z),
            domain=self.domain,
            is_analytic=self.is_analytic and other.is_analytic,
            is_scalar=self.is_scalar and other.is_scalar,
            derivative=deriv,
        )

    def __rmul__(self, factor):
        if not isinstance(factor, (int, float)):
            return NotImplemented
        return StemFunction(
            n=self.n,
            fn=lambda z: factor * self(z),
            domain=self.domain,
            is_analytic=self.is_analytic,
            is_scalar=self.is_scalar,
            derivative=None if self.derivative is None
            else (lambda: factor * self.differentiated()),
        )


def verify_stem(
    fn, domain: PlanarDomain, samples: int = STEM_SAMPLES, tol: float = STEM_TOL, n: int | None = None
) -> tuple[bool, float]:
    """Sample-check the stem identity; returns (verdict, worst residual).

    The identity is universally quantified, so for black-box evaluators this
    is necessarily a sampled check over low-discrepancy points.
    """
    if samples < 1:
        raise DomainError("need at least one sample point")
    if isinstance(fn, StemFunction):
        F = fn
    else:
        if n is None:
            raise DomainError("raw evaluators need the algebra rank n")
        F = StemFunction(n=n, fn=fn, domain=domain)
    per_piece = max(1, samples // max(1, len(domain.pieces)))
    worst = 0.0
    for z in domain.sample(per_piece):
        z = complex(z)
        if not domain.contains(z.conjugate()):
            continue
        value = F(z)
        defect = (F(z.conjugate()) - value.bar()).norm()
        worst = max(worst, defect / max(1.0, value.norm()))
    return worst <= tol, worst


def evaluate_stem(F: StemFunction, kappa: Paravector) -> CMultivector:
    """Direct functional calculus: combine the two eigenvalue samples of
    ``F`` through the spectral idempotents of ``kappa``.

    For a real paravector this is plain evaluation.  When ``F`` satisfies
    the stem identity the result has (numerically) vanishing complex part.
    """
    if kappa.n != F.n:
        raise DomainError(f"rank mismatch: function rank {F.n}, paravector rank {kappa.n}")
    data = eigenvalues(kappa)
    if not F.domain.contains_spectrum(data):
        raise DomainError(f"spectrum {data.points} not inside the function domain")
    if data.is_real:
        return F(data.s_plus)
    plus, minus = F.values_at(np.array(data.points))
    # F+ (1 - i s)/2 + F- (1 + i s)/2, with the idempotents multiplied out
    s = _paravector_coeffs(data.s_unit.components, F.n)
    return CMultivector(F.n, 0.5 * (plus + minus) + _mul_coeffs(0.5j * (minus - plus), s, F.n))


def slice_point(n: int, x: float, y: float, s_unit: Paravector) -> Paravector:
    """The paravector x + y*s on the slice spanned by the unit imaginary s."""
    components = s_unit.components * y
    components = components.copy()
    components[0] = x
    return Paravector(n, components)


def _slice_components(value: CMultivector, s_unit: Paravector) -> tuple[complex, complex]:
    """Coordinates (u, v) of the projection of ``value`` onto 1 and s."""
    u = complex(value.coeffs[0])
    v = 0j
    for j in range(1, s_unit.n + 1):
        v += complex(value.coeffs[1 << (j - 1)]) * s_unit.components[j]
    return u, v


def intrinsic_check(
    f: StemFunction,
    slices: Sequence[Paravector],
    points: Sequence[tuple[float, float]],
    tol: float = STEM_TOL,
) -> tuple[bool, float]:
    """Sample-check that a complex-valued stem function is intrinsic.

    Checks, at ``x + y*s`` for every sampled slice ``s`` and point ``(x, y)``:
    the value stays in the slice plane, and evaluating at the involution of
    the paravector gives the involution of the value.
    """
    if not f.is_scalar:
        raise DomainError("intrinsic check applies to complex-valued functions")
    worst = 0.0
    for s_unit in slices:
        for x, y in points:
            kappa = slice_point(f.n, x, y, s_unit)
            if not f.domain.contains_spectrum(eigenvalues(kappa)):
                continue
            value = evaluate_stem(f, kappa)
            u, v = _slice_components(value, s_unit)
            # the slice plane has real coordinates: drop any complex part
            in_plane = (value - (u.real + v.real * s_unit.to_cmultivector())).norm()
            flip = (evaluate_stem(f, kappa.star()) - value.star()).norm()
            scale = max(1.0, value.norm())
            worst = max(worst, in_plane / scale, flip / scale)
    return worst <= tol, worst


def zero_set_membership(F: StemFunction, kappa: Paravector, tol: float = STEM_TOL) -> bool:
    """Whether the calculus value vanishes, decided on the eigenvalues.

    The value at ``kappa`` is zero exactly when ``F`` vanishes on the whole
    spectrum of ``kappa``, so membership only needs the two eigenvalue
    samples."""
    data = eigenvalues(kappa)
    if not F.domain.contains_spectrum(data):
        raise DomainError(f"spectrum {data.points} not inside the function domain")
    return all(F(s).norm() <= tol for s in data.points)


def saturated_membership(S: PlanarDomain, kappa: Paravector) -> bool:
    """Membership of a paravector in the spectral saturation of a planar set."""
    return S.contains_spectrum(eigenvalues(kappa))


def spectra_of_set_membership(
    predicate: Callable[[Paravector], bool],
    lam: complex,
    slices: Sequence[Paravector],
) -> bool:
    """Whether ``lam`` belongs to the union of spectra over a paravector set.

    The set is given as a predicate together with sampled slice directions;
    for a spectrally saturated set the answer is slice-independent, and a
    disagreement between slices is reported as an error.
    """
    if not slices:
        raise DomainError("need at least one slice direction")
    lam = complex(lam)
    answers = []
    for s_unit in slices:
        kappa = slice_point(s_unit.n, lam.real, abs(lam.imag), s_unit)
        answers.append(bool(predicate(kappa)))
    if any(a != answers[0] for a in answers):
        raise SaturationError(
            f"membership of {lam} is slice-dependent: the set is not spectrally saturated"
        )
    return answers[0]


def product_rule_residual(F: StemFunction, f: StemFunction, kappa: Paravector) -> float:
    """Defect of the module property: value of the product vs product of
    values, with the complex-valued factor on the right."""
    if not f.is_scalar:
        raise DomainError("the right factor must be complex-valued")
    combined = evaluate_stem(F * f, kappa)
    split = evaluate_stem(F, kappa) * evaluate_stem(f, kappa)
    return (combined - split).norm()


def representation_formula(
    F: StemFunction, x: float, y: float, s_unit: Paravector
) -> tuple[CMultivector, CMultivector]:
    """Recover F(x+iy) and F(x-iy) from two slice values of the calculus.

    Uses the two-point reconstruction through the idempotent pair attached
    to the slice direction; degenerates to plain evaluation for y = 0.
    """
    n = F.n
    if y == 0.0:
        value = evaluate_stem(F, Paravector.from_scalar(n, x))
        return value, value
    plus = evaluate_stem(F, slice_point(n, x, y, s_unit))
    minus = evaluate_stem(F, slice_point(n, x, -y, s_unit))
    s = s_unit.to_cmultivector()
    half_m = 0.5 * (1 - 1j * s)
    half_p = 0.5 * (1 + 1j * s)
    upper = plus * half_m + minus * half_p
    lower = plus * half_p + minus * half_m
    return upper, lower


def slice_lift(
    psi: Callable[[Paravector], CMultivector | Multivector],
    s_unit: Paravector,
    domain: PlanarDomain,
) -> StemFunction:
    """Lift a function defined on one slice to a stem function on the plane.

    ``psi`` is evaluated at the two slice points over each complex argument
    and recombined through the idempotent pair; if ``psi`` was the slice
    restriction of a calculus value, evaluating the lift reproduces it on
    every slice.  The lift always exists, but downstream regularity checks
    will flag a ``psi`` that was not slice regular.
    """
    n = s_unit.n
    s = s_unit.to_cmultivector()
    half_m = 0.5 * (1 - 1j * s)
    half_p = 0.5 * (1 + 1j * s)

    def promoted(kappa: Paravector) -> CMultivector:
        value = psi(kappa)
        if isinstance(value, Multivector):
            return value.to_cmultivector()
        if isinstance(value, CMultivector):
            return value
        return CMultivector.from_scalar(n, complex(value))

    def lifted(z: complex) -> CMultivector:
        x, y = z.real, z.imag
        return (
            promoted(slice_point(n, x, y, s_unit)) * half_m
            + promoted(slice_point(n, x, -y, s_unit)) * half_p
        )

    return StemFunction(n=n, fn=lifted, domain=domain)
