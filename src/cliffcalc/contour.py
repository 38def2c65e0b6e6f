"""Circle contours and spectrally accurate quadrature for Cauchy integrals.

Contours are finite unions of positively oriented, pairwise disjoint,
conjugate-symmetric circles placed around a given point set inside a planar
domain.  All integrals use the composite trapezoid rule on each circle
(exponentially convergent for analytic integrands) with node doubling until
two successive estimates agree.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Sequence

import numpy as np

from .algebra import (
    CMultivector,
    Paravector,
    _mul_coeffs,
    _mul_tables,
    _paravector_coeffs,
    _value_coeffs,
)
from .errors import (
    ContourSpectrumError,
    ConvergenceError,
    DegenerateDirectionError,
    DomainError,
    NoContourError,
)
from .spectral import eigenvalues
from .stem import PlanarDomain, StemFunction, slice_point

__all__ = [
    "Circle",
    "Contour",
    "build_contour",
    "contour_quadrature",
    "CauchyTransform",
    "cauchy_transform",
    "cauchy_derivative",
    "slice_regularity_residual",
]

DEFAULT_NODES = 64
MAX_NODES = 4096
QUAD_TOL = 1e-12
RADIUS_FRACTION = 0.5
FD_STEP = 1e-4
# A conjugate pair closer than this fraction of its domain clearance gets one
# real-centered circle.  Two separate circles would be tiny, and on them the
# resolvent's 1 / ((z - s) (z - conj(s))) grows like 1 / (radius * gap): its
# roundoff then keeps the node doubling from converging, or a node lands
# within the spectral-point guard.
PAIR_MERGE_FRACTION = 1e-3
# Most entries one integrand call of contour_quadrature may return: about
# 4 MB, four (256, 256) matrices at the operator size cap.
_CHUNK_ENTRIES = 1 << 18
# Largest samples the last Cauchy-transform state keeps for the next
# evaluator.  A state's samples are C * N * 2**n complex values: 64 KB at
# n = 4 on two circles of 128 nodes.
_SHARED_BYTES = 1 << 20


@dataclass(frozen=True)
class Circle:
    center: complex
    radius: float

    def encloses(self, z: complex) -> bool:
        return abs(z - self.center) < self.radius


@dataclass(frozen=True)
class Contour:
    """Disjoint positively oriented circles, conjugate symmetric as a set."""

    circles: tuple[Circle, ...]
    nodes: int = DEFAULT_NODES

    def __post_init__(self):
        if self.nodes < 1:
            raise DomainError(f"need at least one quadrature node per circle, got {self.nodes}")

    def encloses(self, z: complex) -> bool:
        return any(c.encloses(z) for c in self.circles)

    def margin(self, z: complex) -> float:
        """Distance from ``z`` to the contour trace (min over circles)."""
        return min(abs(abs(z - c.center) - c.radius) for c in self.circles)

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The circles' centres and radii as two read-only (C,) arrays."""
        centers = np.array([c.center for c in self.circles], dtype=np.complex128)
        radii = np.array([c.radius for c in self.circles], dtype=np.float64)
        centers.setflags(write=False)
        radii.setflags(write=False)
        return centers, radii

    def to_json(self) -> dict:
        return {
            "circles": [{"c": [c.center.real, c.center.imag], "r": c.radius} for c in self.circles],
            "nodes": self.nodes,
        }


@lru_cache(maxsize=None)
def _phases(num: int) -> np.ndarray:
    """The ``num`` unit-circle phases e^{2 pi i k / num}, k = 0 .. num - 1."""
    phases = np.exp(1j * (2.0 * np.pi * np.arange(num) / num))
    phases.setflags(write=False)
    return phases


def _cluster_geometry(groups: list[list[complex]]) -> tuple[list[complex], list[float]]:
    """Centroid and enclosing radius per group; conjugate-closed groups are
    centered exactly on the real axis."""
    centers = []
    radii = []
    for g in groups:
        c = sum(g) / len(g)
        symmetric = all(any(abs(w.conjugate() - v) < 1e-9 for v in g) for w in g)
        if symmetric:
            c = complex(c.real, 0.0)
        centers.append(c)
        radii.append(max(abs(w - c) for w in g))
    return centers, radii


def build_contour(
    points: Sequence[complex],
    domain: PlanarDomain,
    radius_fraction: float = RADIUS_FRACTION,
    nodes: int = DEFAULT_NODES,
) -> Contour:
    """One circle per conjugate-pair cluster of ``points``, inside ``domain``.

    Each circle takes ``radius_fraction`` of the clearance left between its
    cluster and the nearest of: the domain boundary (punctures included),
    or half the gap to another cluster (so neighbouring circles stay
    disjoint).  Clusters with no positive gap are merged first, and so is a
    conjugate pair whose gap is below ``PAIR_MERGE_FRACTION`` of its domain
    clearance; a merged conjugate pair becomes a single circle centered on
    the real axis.

    The contour depends on the inputs alone, so a call with the inputs of
    the one before (the same ``domain`` object) returns the same immutable
    :class:`Contour`.
    """
    global _last_contour
    key = (tuple(complex(z) for z in points), domain, radius_fraction, nodes)
    last = _last_contour
    if last is None or last[0] != key:
        last = _last_contour = (key, _build_contour(*key))
    return last[1]


# the inputs of the last build_contour call and its contour
_last_contour: tuple[tuple, Contour] | None = None


def _build_contour(points: tuple[complex, ...], domain: PlanarDomain, radius_fraction: float,
                   nodes: int) -> Contour:
    if not 0.0 < radius_fraction < 1.0:
        raise NoContourError(f"radius fraction must be in (0, 1), got {radius_fraction}")
    if not points:
        raise NoContourError("no points to enclose")
    for z in points:
        if domain.clearance(z) <= 0.0:
            raise NoContourError(f"point {z} is not interior to the domain")

    closed: list[complex] = []
    for z in points:
        for w in (z, z.conjugate()):
            if all(abs(w - q) > 1e-12 * (1.0 + abs(w)) for q in closed):
                closed.append(w)
    groups = [[z] for z in closed]

    while True:
        centers, hull_radii = _cluster_geometry(groups)
        radii = []
        remerge = None
        for i, (c, r) in enumerate(zip(centers, hull_radii)):
            clearance = domain.clearance(c)
            gap = clearance - r
            partner = None
            for j, (c2, r2) in enumerate(zip(centers, hull_radii)):
                if j != i:
                    pair_gap = (abs(c - c2) - r - r2) / 2.0
                    if c2 == c.conjugate() and pair_gap < PAIR_MERGE_FRACTION * clearance:
                        pair_gap, partner = 0.0, j
                    gap = min(gap, pair_gap)
            if gap <= 0.0:
                others = [j for j in range(len(groups)) if j != i]
                if not others:
                    raise NoContourError(
                        f"no room for a contour around {c}: available gap {gap:.3g}"
                    )
                if partner is None:
                    partner = min(others, key=lambda j: abs(centers[j] - c))
                remerge = (i, partner)
                break
            radii.append(r + radius_fraction * gap)
        if remerge is None:
            break
        i, j = remerge
        groups[i] = groups[i] + groups[j]
        del groups[j]

    circles = tuple(
        Circle(c, radius) for c, radius in sorted(
            zip(centers, radii), key=lambda item: (item[0].real, item[0].imag)
        )
    )
    for i, a in enumerate(circles):
        for b in circles[i + 1:]:
            if abs(a.center - b.center) <= a.radius + b.radius:
                raise NoContourError("contour circles intersect; merging failed")
    return Contour(circles, nodes=nodes)


def contour_quadrature(
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
    contour: Contour,
    tol: float = QUAD_TOL,
) -> np.ndarray:
    """Integrate ``fn(zs, dz/dt)`` over the contour parameter ``t``.

    ``fn`` maps a (N,) array of nodes on one circle (at most
    ``_CHUNK_ENTRIES`` values' worth) to the (N, ...) stack of its values.
    Returns ``sum over circles of (2 pi / N) * sum_k fn(z_k, z'_k)``, i.e.
    the raw parametric line integral; callers fold in their own
    normalization and measure.  The nodes double until two successive
    estimates agree (see :func:`_doubling`); they are nested as in
    :meth:`CauchyTransform._values`, so a doubling evaluates only the new
    odd nodes and adds them to each circle's raw sum.
    """
    per_node = 0  # entries in one node's value, known after the first call

    def raw_sum(circle: Circle, ks: np.ndarray, num: int) -> np.ndarray:
        nonlocal per_node
        phases = _phases(num)[ks]
        zs, dzs = circle.center + circle.radius * phases, 1j * circle.radius * phases
        total, start = 0.0, 0
        while start < len(zs):
            stop = start + (max(1, _CHUNK_ENTRIES // per_node) if per_node else 1)
            values = fn(zs[start:stop], dzs[start:stop])
            per_node, start = values[0].size, stop
            total = total + values.sum(axis=0)
        return total

    sums = [0.0] * len(contour.circles)

    def estimate(num: int) -> np.ndarray:
        ks = np.arange(num) if num == contour.nodes else np.arange(1, num, 2)
        sums[:] = [total + raw_sum(circle, ks, num) for total, circle in zip(sums, contour.circles)]
        return (sum(sums) * (2.0 * np.pi / num))[None]  # one row: the whole value

    return _doubling(estimate, contour.nodes, tol, "contour quadrature")[0]


def _doubling(estimate: Callable[[int], np.ndarray], num: int, tol: float, what: str) -> np.ndarray:
    """``estimate(num)``, with the node count doubling until two successive estimates differ by
    less than ``tol`` times the result scale.  The first axis of a 2-D or larger estimate holds
    independent rows; each row keeps the first estimate at which it converges."""
    if not 0.0 < tol < math.inf or num >= MAX_NODES:
        raise DomainError(f"need a finite tol > 0 and nodes < {MAX_NODES}: got {tol}, {num}")
    current = estimate(num)
    result = np.array(current)
    rows = result.reshape(len(result) if result.ndim > 1 else 1, -1)
    open_rows = np.ones(len(rows), dtype=bool)

    def row_norms(a: np.ndarray) -> np.ndarray:
        a = a.reshape(rows.shape)
        return np.sqrt((a.real ** 2).sum(axis=1) + (a.imag ** 2).sum(axis=1))

    while num < MAX_NODES:
        num *= 2
        refined = estimate(num)
        converged = row_norms(refined - current) <= tol * np.maximum(1.0, row_norms(refined))
        done = open_rows & converged
        rows[done], open_rows[done] = refined.reshape(rows.shape)[done], False
        if not open_rows.any():
            return result
        current = refined
    raise ConvergenceError(f"{what} not converged at {MAX_NODES} nodes per circle")


def _require_analytic(F: StemFunction) -> None:
    if not F.is_analytic:
        raise DomainError(f"{F.label or 'function'} is not marked analytic: no contour integral")


def _check_contour(contour: Contour, points: Sequence[complex], F: StemFunction | None = None):
    """Contour admissibility: every point enclosed, none within 1e-9 (relative)
    of the trace, and a stem function ``F`` analytic with every circle inside
    its domain."""
    if F is not None:
        _require_analytic(F)
    zs = np.asarray(points, dtype=np.complex128)
    centers, radii = contour._arrays
    # per point and circle: distance to the centre minus the radius, negative
    # exactly when the circle encloses the point (Contour.encloses), and in
    # modulus the point's distance to that circle's trace (Contour.margin)
    gaps = np.abs(zs[:, None] - centers) - radii
    outside = ~np.logical_or.reduce(gaps < 0.0, axis=1)
    failed = outside | (np.minimum.reduce(np.abs(gaps), axis=1, initial=np.inf)
                        <= 1e-9 * (1.0 + np.abs(zs)))
    if failed.any():
        first = int(failed.argmax())
        s = complex(zs[first])
        if outside[first]:
            raise ContourSpectrumError(f"spectral point {s} is not enclosed by the contour")
        raise ContourSpectrumError(f"contour passes through the spectral point {s}")
    if F is not None:
        for circle in contour.circles:
            if F.domain.clearance(circle.center) <= circle.radius:
                raise DomainError(f"contour circle {circle} is not inside the function domain")


class _TransformState:
    """What every Cauchy transform of one stem function on one set of circles
    shares: the node grids, the finest function samples so far, and whether
    the function was admitted on the circles (analytic, and every circle
    inside its domain)."""

    def __init__(self, F: StemFunction, contour: Contour):
        self.F = F
        self.circles = contour.circles
        self.centers, self.radii = (a[:, None] for a in contour._arrays)
        # per node count: the (C, count) nodes on the C circles and their weights
        self.grids: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        # the finest node count sampled so far and the read-only
        # (C, count, 2**n) samples on the C circles
        self.samples: tuple[int, np.ndarray | None] = (0, None)
        self.admitted = False

    def grid(self, num: int) -> tuple[np.ndarray, np.ndarray]:
        """The ``num`` nodes of every circle and their weights
        (1/2 pi i) dz = (r/num) e^{i t}."""
        if num not in self.grids:
            phases = _phases(num)
            self.grids[num] = (self.centers + self.radii * phases, phases * (self.radii / num))
        return self.grids[num]

    def values(self, num: int) -> np.ndarray:
        """The (C, num, 2**n) samples at the ``num`` nodes of every circle.

        Node ``k`` of ``num`` sits at angle ``2 pi k / num``; as ``2 pi (2k) /
        (2 num)`` equals ``2 pi k / num`` exactly in floating point, the nodes
        of ``num`` are every other node of ``2 num``.  So fewer nodes are a
        stride of held ones, and doubling samples only the new odd nodes,
        in one batch for all circles.
        """
        global _last_state
        have, held = self.samples
        stride = have // num
        if stride and stride * num == have and stride & (stride - 1) == 0:
            return held[:, ::stride]
        zs = self.grid(num)[0]
        if num == 2 * have:
            # interleave: old nodes at even, new ones at odd positions
            new = self.F.values_at(zs[:, 1::2].ravel()).reshape(len(zs), have, -1)
            samples = np.stack([held, new], axis=2).reshape(len(zs), num, -1)
        else:
            samples = self.F.values_at(zs.ravel()).reshape(*zs.shape, -1)
        if num > have:
            samples.setflags(write=False)
            self.samples = (num, samples)
            if samples.nbytes > _SHARED_BYTES and _last_state is self:
                _last_state = None  # too large to keep past its evaluators
        return samples


# the state of the last (stem function, circles) an evaluator was made for
_last_state: _TransformState | None = None


def _transform_state(F: StemFunction, contour: Contour) -> _TransformState:
    """The last state made if it is of this very ``F`` on the contour's
    circles, else a new one in its place.  ``F`` is matched by identity, as
    a stem function's fields need not be hashable; threads only ever replace
    the one reference, so a race at worst samples twice."""
    global _last_state
    state = _last_state
    if state is None or state.F is not F or state.circles != contour.circles:
        state = _last_state = _TransformState(F, contour)
    return state


class CauchyTransform:
    """Cauchy-transform evaluator for a fixed function on a fixed contour.

    Function samples at the quadrature nodes depend only on the node count,
    so they are kept; evaluating at another paravector costs two weighted
    sums of them and one Clifford product.  The nodes are nested: doubling
    their number keeps every old node, so only the new ones are sampled.
    The samples, node grids and the function's admission on the circles are
    shared with the next evaluator of the same function object on the same
    circles (see :func:`_transform_state`), so ``F`` must be pure: a function
    whose values change between calls may be read from earlier samples.
    Derivatives are the transforms of derived functions (see
    :func:`cauchy_derivative`).
    """

    def __init__(
        self,
        F: StemFunction,
        contour: Contour | None = None,
        tol: float = QUAD_TOL,
        spectrum_hint: Sequence[complex] | None = None,
        radius_fraction: float = RADIUS_FRACTION,
        nodes: int | None = None,
    ):
        if contour is None:
            if spectrum_hint is None:
                raise NoContourError("need either a contour or spectrum points to build one")
            contour = build_contour(spectrum_hint, F.domain, radius_fraction=radius_fraction,
                                    nodes=DEFAULT_NODES if nodes is None else nodes)
        elif nodes is not None and nodes != contour.nodes:
            contour = Contour(contour.circles, nodes=nodes)
        self.F = F
        self.contour = contour
        self.tol = tol
        self._state = _transform_state(F, contour)
        # the finest node count this evaluator needed and its samples
        self._samples: tuple[int, np.ndarray | None] = (0, None)

    def _values(self, num: int) -> np.ndarray:
        """The (C, num, 2**n) samples at the ``num`` nodes of every circle,
        from the shared state (see :meth:`_TransformState.values`)."""
        samples = self._state.values(num)
        if num > self._samples[0]:
            self._samples = (num, samples)
        return samples

    def _kernel(self, comps: np.ndarray, levels: Sequence[int]) -> np.ndarray:
        # (L, K, 2**n) estimates at node counts ``levels`` (the last the finest)
        # for the K paravectors of the (K, n + 1) components ``comps``.
        # (z - k)^-1 = ((z - x) + v) / q(z), q(z) = z^2 - 2zx + |k|^2, x the scalar
        # and v the vector part of k: the sum of w F(z) (z - k)^-1 is B0 + B1 v,
        # B the sums of the samples weighted by w (z - x) / q and w / q (a
        # coarser level's at every stride-th node), in matrix-matrix products:
        # vector-matrix products of these sizes can go to the BLAS thread pool.
        n, top, count = self.F.n, levels[-1], len(comps)
        zs, weights = (a.ravel() for a in self._state.grid(top))
        x, norm2 = comps[:, :1], np.einsum("ij,ij->i", comps, comps)[:, None]
        den = zs * zs - 2.0 * x * zs + norm2
        if (np.minimum.reduce(np.abs(den), axis=1) < 1e-14 * (1.0 + norm2[:, 0])).any():
            raise ContourSpectrumError("quadrature node hit a spectral point")
        stacked = np.zeros((len(levels), 2, count, zs.size), dtype=np.complex128)
        np.divide(weights, den, out=stacked[-1, 1])
        np.multiply(stacked[-1, 1], zs - x, out=stacked[-1, 0])
        for row, num in zip(stacked, levels[:-1]):
            row[..., ::top // num] = stacked[-1, ..., ::top // num] * (top // num)
        samples = self._values(top).reshape(zs.size, -1)
        sums = (samples.T @ stacked.reshape(-1, zs.size).T).T.reshape(len(levels), 2, count, -1)
        v = np.zeros((count, 1 << n))
        v[:, 1 << np.arange(n)] = comps[:, 1:]
        sign, partner = _mul_tables(n)
        return sums[:, 0] + (sums[:, 1, :, None] @ (sign * v[:, partner]))[..., 0, :]

    def eval_many(self, kappas: Sequence[Paravector]) -> list[CMultivector]:
        """The transforms at many paravectors, stacked in every doubling pass."""
        if any(k.n != self.F.n for k in kappas):
            raise DomainError(f"rank mismatch: function rank {self.F.n}, paravectors {kappas}")
        comps = np.array([k.components for k in kappas]).reshape(len(kappas), self.F.n + 1)
        # the spectrum x +/- i |v| of each paravector: the roots of q(z)
        spectrum = np.empty((len(comps), 2), dtype=np.complex128)
        spectrum.real = comps[:, :1]
        spectrum.imag[:, 0] = np.sqrt(np.einsum("ij,ij->i", comps[:, 1:], comps[:, 1:]))
        spectrum.imag[:, 1] = -spectrum.imag[:, 0]
        # the spectra every time; F against the circles once per shared state
        _check_contour(self.contour, spectrum.ravel(), None if self._state.admitted else self.F)
        self._state.admitted = True
        first, pending = self.contour.nodes, {}

        def estimate(num: int) -> np.ndarray:
            if num not in pending:
                levels = [num, 2 * num] if num == first and 2 * num <= MAX_NODES else [num]
                pending.update(zip(levels, self._kernel(comps, levels)))
            return pending.pop(num)

        value = _doubling(estimate, first, self.tol, "Cauchy transform")
        return [CMultivector(self.F.n, row) for row in value]

    def eval(self, kappa: Paravector) -> CMultivector:
        return self.eval_many([kappa])[0]

    __call__ = eval


def cauchy_transform(
    F: StemFunction,
    kappa: Paravector,
    contour: Contour | None = None,
    radius_fraction: float = RADIUS_FRACTION,
    tol: float = QUAD_TOL,
) -> CMultivector:
    """Contour-integral functional calculus: average the left-multiplied
    resolvent of ``kappa`` against ``F`` along circles around the spectrum.

    For analytic stem functions this reproduces the direct two-eigenvalue
    formula of :func:`cliffcalc.stem.evaluate_stem`.  ``F`` must be pure:
    the samples are kept for a following evaluator of the same function
    object on the same circles (see :class:`CauchyTransform`).
    """
    data = eigenvalues(kappa)
    evaluator = CauchyTransform(
        F,
        contour,
        tol=tol,
        spectrum_hint=data.points,
        radius_fraction=radius_fraction,
    )
    return evaluator.eval(kappa)


def _derivative_via_cauchy(F: StemFunction, order: int) -> StemFunction:
    """Order-th complex derivative of a black-box analytic function by
    differentiating its own Cauchy integral on a local circle."""

    factorial = math.factorial(order)

    def fn(z: complex) -> CMultivector:
        rho = 0.5 * F.domain.clearance(z)
        if rho <= 0.0:
            raise DomainError(f"point {z} too close to the domain boundary to differentiate")
        local = Contour((Circle(z, rho),), nodes=max(DEFAULT_NODES, 16 * (order + 1)))

        def integrand(ws: np.ndarray, dws: np.ndarray) -> np.ndarray:
            return F.values_at(ws) * (dws / (ws - z) ** (order + 1))[:, None]

        raw = contour_quadrature(integrand, local, tol=QUAD_TOL)
        return CMultivector(F.n, raw * (factorial / (2.0j * np.pi)))

    return StemFunction(n=F.n, fn=fn, domain=F.domain, is_analytic=True, is_scalar=F.is_scalar)


def cauchy_derivative(
    F: StemFunction,
    order: int,
    kappa: Paravector,
    contour: Contour | None = None,
    radius_fraction: float = RADIUS_FRACTION,
    tol: float = QUAD_TOL,
) -> CMultivector:
    """Extended derivative in the paravector variable: the Cauchy transform
    of the order-th complex derivative of ``F``.

    ``F`` must be marked analytic, and ``order`` an integer >= 0.  Functions
    carrying a symbolic derivative use it; black-box evaluators fall back to
    Cauchy-integral differentiation on smaller local circles.
    """
    if type(order) is not int or order < 0:
        raise DomainError(f"derivative order must be an integer >= 0, got {order!r}")
    _require_analytic(F)
    if F.derivative is None and order > 0:
        derived = _derivative_via_cauchy(F, order)
    else:
        derived = F.differentiated(order)
    return cauchy_transform(derived, kappa, contour, radius_fraction, tol)


def slice_regularity_residual(
    phi: Callable[[Paravector], CMultivector],
    kappa: Paravector,
    h: float = FD_STEP,
) -> float:
    """Central-difference estimate of the slice Cauchy-Riemann defect.

    On the slice through ``kappa``, forms (d/dx + (d/dy) s) / 2 applied to
    ``phi`` with the imaginary unit multiplied from the right; slice regular
    functions give O(h**2), the involution of the variable gives ~1).  A
    ``phi`` with an ``eval_many`` method gets the four points in one call.
    The step ``h`` must be a finite number > 0, or it raises ``DomainError``.
    """
    if not isinstance(h, numbers.Real) or not 0.0 < h < math.inf:
        raise DomainError(f"finite-difference step must be a finite number > 0, got {h!r}")
    data = eigenvalues(kappa)
    if data.is_real:
        raise DegenerateDirectionError("regularity stencil needs a paravector off the real axis")
    s_unit = data.s_unit
    n = kappa.n
    x, y = data.s_plus.real, data.s_plus.imag

    stencil = [slice_point(n, at_x, at_y, s_unit)
               for at_x, at_y in ((x + h, y), (x - h, y), (x, y + h), (x, y - h))]
    many = getattr(phi, "eval_many", None)
    values = many(stencil) if many is not None else [phi(point) for point in stencil]
    east, west, north, south = np.array([_value_coeffs(out, n) for out in values])
    # the CMultivector arithmetic (a - b) / (2 h), 0.5 (a + b s) and norm(), on the rows
    ddx = (east - west) * (1 / (2.0 * h))
    ddy = (north - south) * (1 / (2.0 * h))
    defect = 0.5 * (ddx + _mul_coeffs(ddy, _paravector_coeffs(s_unit.components, n), n))
    return math.sqrt(defect.real @ defect.real + defect.imag @ defect.imag)
