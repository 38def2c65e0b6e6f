import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffcalc.algebra import CMultivector, Multivector, Paravector, _batch_mul_coeffs, isclose
from cliffcalc.contour import (
    CauchyTransform,
    Circle,
    Contour,
    _doubling,
    build_contour,
    cauchy_derivative,
    cauchy_transform,
    slice_regularity_residual,
)
from cliffcalc.dsl import stem_function
from cliffcalc.errors import (
    ContourSpectrumError,
    DegenerateDirectionError,
    NoContourError,
)
from cliffcalc.spectral import eigenvalues, resolvent
from cliffcalc.stem import Disk, PlanarDomain, Rect, StemFunction, evaluate_stem, slice_point
from cliffcalc.verify import random_stem_source

from conftest import random_nonreal_pv, random_pv

BIG = PlanarDomain.disk(0, 10.0)


def scalar_fn(n, f):
    return StemFunction(n=n, fn=lambda z: CMultivector.from_scalar(n, f(z)),
                        domain=BIG, is_analytic=True, is_scalar=True)


def test_build_contour_conjugate_pair():
    dom = PlanarDomain.disk(0, 3.0)
    contour = build_contour([1j, -1j], dom)
    centers = sorted(c.center.imag for c in contour.circles)
    if len(contour.circles) == 2:
        assert centers == [-1.0, 1.0]
        assert all(c.radius <= 0.5 * 2.0 for c in contour.circles)
    else:
        assert len(contour.circles) == 1 and contour.circles[0].center.imag == 0.0
    assert contour.encloses(1j) and contour.encloses(-1j)


def test_build_contour_real_point():
    contour = build_contour([2.0], PlanarDomain.disk(0, 3.0))
    assert len(contour.circles) == 1
    assert contour.circles[0].center == 2.0 + 0j
    assert contour.circles[0].center.imag == 0.0


def test_build_contour_boundary_error():
    with pytest.raises(NoContourError):
        build_contour([3.0], PlanarDomain.disk(0, 3.0))


def test_build_contour_respects_punctures():
    dom = PlanarDomain([  # pole at 1.5 limits the circle around 1
        __import__("cliffcalc.stem", fromlist=["Disk"]).Disk(0j, 5.0)
    ], punctures=[1.5])
    contour = build_contour([1.0], dom)
    circle = contour.circles[0]
    assert abs(circle.center - 1.0) < 1e-12
    assert circle.radius < 0.5  # half of the distance to the puncture


def test_cauchy_constant_one(rng):
    one = scalar_fn(2, lambda z: 1.0)
    for _ in range(5):
        kappa = random_pv(rng, 2, scale=1.5)
        value = cauchy_transform(one, kappa)
        assert (value - CMultivector.from_scalar(2, 1.0)).norm() <= 1e-10


def test_cauchy_identity_matches_direct():
    ident = scalar_fn(2, lambda z: z)
    kappa = Paravector(2, [1, 1, 0])
    value = cauchy_transform(ident, kappa)
    assert (value - kappa.to_cmultivector()).norm() <= 1e-10


def test_cauchy_nonstem_constant_witness():
    # a constant that is not a stem function: the transform reproduces it,
    # and the value visibly leaves the real algebra
    const = StemFunction(n=2, fn=lambda z: CMultivector(2, [0, 1j, 0, 0]),
                         domain=BIG, is_analytic=True)
    value = cauchy_transform(const, Paravector(2, [0, 0, 1]))
    assert (value - CMultivector(2, [0, 1j, 0, 0])).norm() <= 1e-10
    assert value.imag.norm() > 0.5


def test_cauchy_agreement_random(rng):
    for _ in range(10):
        n = int(rng.integers(1, 4))
        F = stem_function("(1+0.3e1)*z^3 - e1*z + 0.25", n)
        kappa = random_pv(rng, n, scale=1.5)
        direct = evaluate_stem(F, kappa)
        value = cauchy_transform(F, kappa)
        assert (value - direct).norm() <= 1e-8 * max(1.0, direct.norm())


def test_contour_independence(rng):
    F = stem_function("z^2 - e1*z", 2)
    kappa = Paravector(2, [0.4, 1.1, -0.2])
    a = cauchy_transform(F, kappa, radius_fraction=0.35)
    b = cauchy_transform(F, kappa, radius_fraction=0.65)
    assert (a - b).norm() <= 1e-10


def test_explicit_contour_and_spectrum_check():
    F = stem_function("z^2", 2)
    kappa = Paravector(2, [0, 1, 0])
    bad = Contour((Circle(5.0 + 0j, 0.5),))  # does not enclose the spectrum
    with pytest.raises(ContourSpectrumError):
        cauchy_transform(F, kappa, contour=bad)
    through = Contour((Circle(0j, 1.0),))  # passes through +-i
    with pytest.raises(ContourSpectrumError):
        cauchy_transform(F, kappa, contour=through)


def test_node_doubling_convergence():
    F = stem_function("exp(0.4*z)*z^2", 1)
    kappa = Paravector(1, [0.3, 0.9])
    coarse = CauchyTransform(F, spectrum_hint=eigenvalues(kappa).points, nodes=64)
    value_a = coarse.eval(kappa)
    fine = CauchyTransform(F, contour=Contour(coarse.contour.circles, nodes=256))
    value_b = fine.eval(kappa)
    assert (value_a - value_b).norm() < 1e-10


def test_derivative_examples():
    sq = stem_function("z^2", 2)
    e1 = Paravector(2, [0, 1, 0])
    value = cauchy_derivative(sq, 1, e1)
    assert (value - CMultivector(2, [0, 2, 0, 0])).norm() <= 1e-10
    # order zero is the plain transform
    kappa = Paravector(2, [0.5, 0.7, 0.1])
    assert isclose(cauchy_derivative(sq, 0, kappa), cauchy_transform(sq, kappa), tol=1e-10)
    expf = stem_function("exp(z)", 1)
    value = cauchy_derivative(expf, 2, Paravector.from_scalar(1, 0.0))
    assert (value - CMultivector.from_scalar(1, 1.0)).norm() <= 1e-10


def test_derivative_blackbox_fallback():
    # no symbolic derivative attached: differentiation runs through local
    # Cauchy integrals of the function itself
    F = scalar_fn(1, lambda z: cmath.exp(0.5 * z))
    kappa = Paravector(1, [0.2, 0.4])
    value = cauchy_derivative(F, 1, kappa)
    expected = evaluate_stem(scalar_fn(1, lambda z: 0.5 * cmath.exp(0.5 * z)), kappa)
    assert (value - expected).norm() <= 1e-8


def test_derivative_refuses_non_analytic_functions_and_bad_orders():
    from cliffcalc.errors import DomainError

    conj = StemFunction(n=1, fn=lambda z: CMultivector.from_scalar(1, z.conjugate()), domain=BIG)
    kappa = Paravector(1, [0.2, 0.4])
    for order in (0, 1, 2):
        with pytest.raises(DomainError, match="analytic"):
            cauchy_derivative(conj, order, kappa)
    sq = stem_function("z^2", 1)
    for order in (-1, 1.5, True, "1"):
        with pytest.raises(DomainError, match="order"):
            cauchy_derivative(sq, order, kappa)


def test_power_series_consistency(rng):
    # entire function: transform equals the truncated power series
    F = stem_function("exp(0.5*z)", 2)
    kappa = random_nonreal_pv(rng, 2)
    series = CMultivector.zero(2)
    km = kappa.to_multivector()
    power = Multivector.from_scalar(2, 1.0)
    for k in range(40):
        series = series + (0.5 ** k / math.factorial(k)) * power.to_cmultivector()
        power = power * km
    value = cauchy_transform(F, kappa)
    assert (value - series).norm() <= 1e-8 * max(1.0, series.norm())


def test_regularity_identity_and_involution():
    phi_id = lambda kappa: kappa.to_cmultivector()
    kappa = Paravector(2, [0.5, 1.0, 0.3])
    assert slice_regularity_residual(phi_id, kappa) <= 1e-6
    phi_star = lambda kappa: kappa.star().to_cmultivector()
    assert abs(slice_regularity_residual(phi_star, kappa) - 1.0) <= 1e-6


def test_regularity_of_transforms(rng):
    F = stem_function("(1+e2)*z^2 - e12*z", 2)
    for _ in range(5):
        x, y = rng.uniform(-1, 1), rng.uniform(0.5, 1.5)
        v = rng.normal(size=2)
        s_unit = Paravector(2, np.concatenate([[0], v / np.linalg.norm(v)]))
        kappa = slice_point(2, x, y, s_unit)
        evaluator = CauchyTransform(F, spectrum_hint=eigenvalues(kappa).points)
        assert slice_regularity_residual(evaluator, kappa) <= 1e-6


def test_regularity_needs_offaxis_point():
    with pytest.raises(DegenerateDirectionError):
        slice_regularity_residual(lambda k: k.to_cmultivector(),
                                  Paravector.from_scalar(2, 1.0))


def test_quadrature_nonconvergence_error():
    from cliffcalc.errors import ConvergenceError

    # black-box function with a pole just outside the contour trace: the
    # node-doubling estimates keep disagreeing until the cap
    pole = 1.0 + 1e-3
    F = StemFunction(n=1, fn=lambda z: CMultivector.from_scalar(1, 1.0 / (z - pole)),
                     domain=BIG, is_analytic=True)
    contour = Contour((Circle(0j, 1.0),), nodes=64)
    with pytest.raises(ConvergenceError):
        cauchy_transform(F, Paravector.from_scalar(1, 0.3), contour=contour)


def counting_cubic(n, calls):
    def fn(z):
        calls.append(z)
        return CMultivector.from_scalar(n, z ** 3 - 2 * z + 1)

    return StemFunction(n=n, fn=fn, domain=BIG, is_analytic=True, is_scalar=True)


def test_nested_doubling_samples_each_node_once():
    calls = []
    kappa = Paravector(2, [0.5, 1.0, 0.0])
    value = cauchy_transform(counting_cubic(2, calls), kappa)
    data = eigenvalues(kappa)
    assert len(build_contour(data.points, BIG).circles) == 2
    # 64 nodes per circle, then only the 64 new odd nodes of 128
    assert len(calls) == 2 * 128 and len(set(calls)) == len(calls)
    expected = evaluate_stem(scalar_fn(2, lambda z: z ** 3 - 2 * z + 1), kappa)
    assert (value - expected).norm() <= 1e-10


def test_nested_doubling_is_bit_identical_to_full_resampling():
    F = StemFunction(n=1, fn=lambda z: CMultivector(1, [cmath.exp(z), z * cmath.sin(z)]),
                     domain=BIG, is_analytic=True)
    kappa = Paravector(1, [0.3, 0.9])
    hint = eigenvalues(kappa).points
    nested = CauchyTransform(F, spectrum_hint=hint, nodes=16)
    for num in (16, 32, 64, 128, 32, 16):
        full = CauchyTransform(F, spectrum_hint=hint, nodes=16)
        for got, want in zip(nested._values(num), full._values(num)):
            assert np.array_equal(got, want)
        assert np.array_equal(nested._kernel(kappa.components[None], [num])[0, 0],
                              full._kernel(kappa.components[None], [num])[0, 0])


def test_node_count_must_be_positive():
    from cliffcalc.errors import DomainError

    circles = (Circle(0j, 1.0),)
    for nodes in (0, -4):
        with pytest.raises(DomainError):
            Contour(circles, nodes=nodes)
        with pytest.raises(DomainError):
            CauchyTransform(scalar_fn(1, lambda z: z), spectrum_hint=[0.5], nodes=nodes)
        with pytest.raises(DomainError):
            CauchyTransform(scalar_fn(1, lambda z: z), Contour(circles), nodes=nodes)


def test_contour_quadrature_evaluates_each_node_once():
    from cliffcalc.contour import contour_quadrature

    seen = []

    def integrand(zs, dzs):
        seen.extend(zs.tolist())
        return (np.exp(zs) / (zs - 0.1) * dzs)[:, None]

    contour = Contour((Circle(0j, 1.0), Circle(3.0 + 0j, 0.5)), nodes=4)
    raw = contour_quadrature(integrand, contour)
    assert abs(raw[0] / (2j * np.pi) - cmath.exp(0.1)) <= 1e-12
    # every node of the finest level once, none twice: the doublings
    # evaluated only the new odd nodes (2 pi (2k) / (2N) is 2 pi k / N exactly)
    per_circle = len(seen) // 2
    assert per_circle >= 32 and per_circle & (per_circle - 1) == 0
    assert len(set(seen)) == len(seen)
    phases = np.exp(1j * (2.0 * np.pi * np.arange(per_circle) / per_circle))
    assert set(seen) == {c.center + c.radius * p for c in contour.circles for p in phases}


def test_non_analytic_stem_function_has_no_cauchy_transform():
    from cliffcalc.errors import DomainError

    flagged = StemFunction(n=1, fn=lambda z: CMultivector.from_scalar(1, z), domain=BIG)
    with pytest.raises(DomainError, match="analytic"):
        cauchy_transform(flagged, Paravector(1, [0.2, 0.5]))


def per_node_transform(evaluator, kappa):
    """Reference kernel: the sum over nodes of F(z) (z - k)^-1 w, with one
    resolvent and one Clifford product per node, doubled like ``eval``."""
    n = evaluator.F.n

    def estimate(num):
        total = 0.0
        phases = np.exp(1j * (2.0 * np.pi * np.arange(num) / num))
        for f_vals, circle in zip(evaluator._values(num), evaluator.contour.circles):
            zs = circle.center + circle.radius * phases
            res = np.array([resolvent(z, kappa).coeffs for z in zs])
            prod = _batch_mul_coeffs(f_vals, res, n)
            total = total + (prod * phases[:, None]).sum(axis=0) * (circle.radius / num)
        return total

    return _doubling(estimate, evaluator.contour.nodes, evaluator.tol, "reference transform")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_factored_kernel_matches_per_node_products(n):
    rng = np.random.default_rng(800 + n)
    for _ in range(2):
        F = stem_function(random_stem_source(rng, n, max_degree=3), n)
        for kappa in (random_nonreal_pv(rng, n), Paravector.from_scalar(n, rng.normal())):
            for order in (0, 1, 2):
                evaluator = CauchyTransform(F.differentiated(order),
                                            spectrum_hint=eigenvalues(kappa).points)
                want = per_node_transform(evaluator, kappa)
                got = evaluator.eval(kappa).coeffs
                assert np.linalg.norm(got - want) <= 1e-13 * max(1.0, np.linalg.norm(want))


@pytest.mark.parametrize("n", [1, 3])
def test_nearly_real_pairs_share_one_circle(n):
    F = stem_function("exp(0.5*z)*(1+e1) + z^3", n)
    direction = np.ones(n) / math.sqrt(n)
    for y in [10.0 ** -k for k in range(3, 10)] + [1e-200, 0.0]:
        kappa = Paravector(n, np.concatenate([[0.3], y * direction]))
        contour = build_contour(eigenvalues(kappa).points, F.domain)
        assert len(contour.circles) == 1 and contour.circles[0].center == 0.3
        expected = evaluate_stem(F, kappa)
        value = cauchy_transform(F, kappa)
        assert (value - expected).norm() <= 1e-8 * max(1.0, expected.norm())
    # a pair well apart keeps its two circles
    kappa = Paravector(n, np.concatenate([[0.3], 0.5 * direction]))
    assert len(build_contour(eigenvalues(kappa).points, F.domain).circles) == 2



def test_doubling_rows_keep_their_own_first_converged_level():
    from cliffcalc.errors import ConvergenceError

    # row 0 moves by 6.4e-13 from 64 to 128 nodes, so it converges there;
    # row 1 first moves by less than 1e-12 from 2048 to 4096 nodes
    def rows(num):
        return np.array([[1e-14 * num], [1.0 + (64.0 / num) ** 8]])

    value = _doubling(rows, 64, 1e-12, "rows")
    assert value[0, 0] == 1e-14 * 128 and value[1, 0] == 1.0 + (64.0 / 4096) ** 8
    # a 1-D estimate is one row: row 0's growth then keeps it from converging
    with pytest.raises(ConvergenceError):
        _doubling(lambda num: rows(num)[:, 0], 64, 1e-12, "one row")


def test_eval_many_matches_eval_row_by_row():
    F = stem_function("exp(0.5*z)*(1+e1) + z^3 - e12*z", 2)
    contour = Contour((Circle(0.3 + 0.8j, 0.4), Circle(0.3 - 0.8j, 0.4)))
    easy = [Paravector(2, [0.3, 0.8, 0.0]), Paravector(2, [0.25, 0.6, 0.45])]
    near = Paravector(2, [0.3, 0.0, 1.18])  # its spectrum is 0.02 inside the circles
    kappas = [easy[0], near, easy[1]]
    levels = []
    for kappa in kappas:
        alone = CauchyTransform(F, contour)
        alone.eval(kappa)
        levels.append(alone._samples[0])
    assert levels[0] == levels[2] == 128 and levels[1] >= 256
    evaluator = CauchyTransform(F, contour)
    stacked = evaluator.eval_many(kappas)
    assert evaluator._samples[0] == levels[1]
    for kappa, got in zip(kappas, stacked):
        want = CauchyTransform(F, contour).eval(kappa)
        assert (got - want).norm() <= 1e-14 * max(1.0, want.norm())
        assert (got - evaluate_stem(F, kappa)).norm() <= 1e-10


def test_eval_many_raises_like_eval_for_a_point_outside_the_contour():
    F = stem_function("z^2", 2)
    contour = Contour((Circle(0.3 + 0.8j, 0.4), Circle(0.3 - 0.8j, 0.4)))
    outside = Paravector(2, [0.3, 0.0, 1.5])
    with pytest.raises(ContourSpectrumError) as alone:
        CauchyTransform(F, contour).eval(outside)
    with pytest.raises(ContourSpectrumError) as stacked:
        CauchyTransform(F, contour).eval_many([Paravector(2, [0.3, 0.8, 0.0]), outside])
    assert str(stacked.value) == str(alone.value)


def test_regularity_stencil_uses_one_stacked_call(rng):
    F = stem_function("(1+e2)*z^2 - e12*z + exp(0.3*z)", 2)
    for _ in range(3):
        kappa = random_nonreal_pv(rng, 2)
        hint = eigenvalues(kappa).points
        stacked = slice_regularity_residual(CauchyTransform(F, spectrum_hint=hint), kappa)
        evaluator = CauchyTransform(F, spectrum_hint=hint)
        single = slice_regularity_residual(lambda k: evaluator.eval(k), kappa)
        assert abs(stacked - single) <= 1e-9
    # on a fresh two-circle transform the four stencil points share every
    # sample: each of the 2 x 128 nodes is evaluated once
    calls = []
    kappa = Paravector(2, [0.5, 1.0, 0.0])
    evaluator = CauchyTransform(counting_cubic(2, calls), spectrum_hint=eigenvalues(kappa).points)
    assert len(evaluator.contour.circles) == 2
    assert slice_regularity_residual(evaluator, kappa) <= 1e-6
    assert len(calls) == 2 * 128 and len(set(calls)) == len(calls)


@pytest.mark.parametrize("tol, nodes", [(0.0, 64), (-1.0, 64), (math.nan, 64), (math.inf, 64),
                                        (1e-12, 4096), (1e-12, 8192)])
def test_bad_quadrature_parameters_are_rejected_before_sampling(tol, nodes):
    from cliffcalc.contour import contour_quadrature
    from cliffcalc.errors import DomainError

    calls = []
    kappa = Paravector(2, [0.5, 1.0, 0.0])
    evaluator = CauchyTransform(counting_cubic(2, calls), spectrum_hint=eigenvalues(kappa).points,
                                tol=tol, nodes=nodes)
    with pytest.raises(DomainError):
        evaluator.eval(kappa)
    with pytest.raises(DomainError):
        contour_quadrature(lambda zs, dzs: calls.extend(zs) or dzs[:, None],
                           Contour((Circle(0j, 1.0),), nodes=nodes), tol=tol)
    assert calls == []


def test_rank_mismatch_is_refused():
    from cliffcalc.errors import DomainError

    # a rank-1 paravector used to broadcast into the rank-2 kernel silently
    with pytest.raises(DomainError, match="rank mismatch"):
        cauchy_transform(stem_function("z^2", 2), Paravector(1, [0.3, 0.8]))


def per_point_check(contour, points):
    """The admissibility rule point by point: the first point that is not
    enclosed, or that lies within 1e-9 (relative) of the trace, fails."""
    for s in points:
        if not contour.encloses(s):
            raise ContourSpectrumError(f"spectral point {s} is not enclosed by the contour")
        if contour.margin(s) <= 1e-9 * (1.0 + abs(s)):
            raise ContourSpectrumError(f"contour passes through the spectral point {s}")


def test_vectorised_contour_check_fails_like_the_per_point_rule():
    from cliffcalc.contour import _check_contour

    contour = Contour((Circle(0.3 + 0.8j, 0.4), Circle(0.3 - 0.8j, 0.4)))
    inside, outside, on_trace = 0.3 + 0.8j, 2.0 + 0.5j, 0.3 + 1.2j
    nan = complex(math.nan, 0.0)
    cases = [[inside, inside.conjugate()], [inside, outside], [inside, on_trace],
             [outside, on_trace], [on_trace, outside], [on_trace.conjugate(), inside, outside],
             [inside, nan, outside], [0.7 + 0.8j - 1e-12, 0.3 - 0.4j]]
    for points in cases:
        for given in (points, np.array(points)):
            try:
                per_point_check(contour, points)
            except ContourSpectrumError as expected:
                with pytest.raises(ContourSpectrumError) as got:
                    _check_contour(contour, given)
                assert str(got.value) == str(expected)
            else:
                _check_contour(contour, given)


def object_residual(values, kappa, h):
    """The stencil of slice_regularity_residual in CMultivector arithmetic, on
    the values at its four points (east, west, north, south)."""
    s_unit = eigenvalues(kappa).s_unit
    east, west, north, south = (out if isinstance(out, CMultivector) else out.to_cmultivector()
                                for out in values)
    ddx = (east - west) / (2.0 * h)
    ddy = (north - south) / (2.0 * h)
    return (0.5 * (ddx + ddy * s_unit.to_cmultivector())).norm()


def stencil(kappa, h):
    data = eigenvalues(kappa)
    x, y = kappa.scalar, kappa.vector_norm
    return [slice_point(kappa.n, at_x, at_y, data.s_unit)
            for at_x, at_y in ((x + h, y), (x - h, y), (x, y + h), (x, y - h))]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_array_residual_matches_the_object_residual(n):
    rng = np.random.default_rng(700 + n)
    anti_real = lambda k: k.star().to_multivector()  # noqa: E731 (criterion 06's witness)
    anti = lambda k: k.star().to_cmultivector()  # noqa: E731
    for _ in range(3):
        F = stem_function(random_stem_source(rng, n, max_degree=3), n)
        kappa = random_nonreal_pv(rng, n)
        hint = eigenvalues(kappa).points
        for h in (1e-4, 1e-2):
            points = stencil(kappa, h)
            want = object_residual(CauchyTransform(F, spectrum_hint=hint).eval_many(points),
                                   kappa, h)
            # the same arithmetic on the same values: equal to the last bit
            assert slice_regularity_residual(CauchyTransform(F, spectrum_hint=hint), kappa,
                                             h=h) == want
            for phi in (anti_real, anti):
                want = object_residual([phi(p) for p in points], kappa, h)
                assert want > 0.5 and slice_regularity_residual(phi, kappa, h=h) == want


def test_paravector_routes_build_no_intermediate_algebra_objects(monkeypatch):
    import cliffcalc.algebra as algebra
    import cliffcalc.contour as contour
    import cliffcalc.stem as stem

    created, products = [], []
    init, mul = algebra._Element.__init__, algebra._mul_coeffs

    def counting_init(self, n, coeffs):
        created.append(type(self))
        init(self, n, coeffs)

    def counting_mul(a, b, n):
        products.append(n)
        return mul(a, b, n)

    monkeypatch.setattr(algebra._Element, "__init__", counting_init)
    for module in (algebra, contour, stem):
        monkeypatch.setattr(module, "_mul_coeffs", counting_mul)
    F = stem_function("(1+e2)*z^2 - e12*z + exp(0.3*z)", 2)
    kappa = Paravector(2, [0.5, 1.0, 0.4])
    evaluator = CauchyTransform(F, spectrum_hint=eigenvalues(kappa).points)
    del created[:], products[:]
    # the four stencil values eval_many returns; the stencil itself is arrays
    assert slice_regularity_residual(evaluator, kappa) <= 1e-6
    assert created == [CMultivector] * 4 and len(products) == 1
    del created[:], products[:]
    evaluate_stem(F, kappa)
    assert created == [CMultivector] and len(products) == 1


def counting_batch(F, calls):
    """``F`` with a batch evaluator that records the size of every ``values_at`` call."""

    def batch(zs):
        calls.append(len(zs))
        return F.values_at(zs)

    return dataclasses.replace(F, batch=batch)


def test_a_paravector_task_samples_its_contour_once():
    calls = []
    F = counting_batch(stem_function("exp(0.5*z)*(1+e1) + z^3 - e12*z", 2), calls)
    kappa = Paravector(2, [0.5, 1.0, 0.4])
    hint = eigenvalues(kappa).points
    direct = evaluate_stem(F, kappa)
    assert calls == [2]  # the two eigenvalues
    cauchy_transform(F, kappa, radius_fraction=0.5)
    assert calls == [2, 2 * 128]  # the first pass samples 128 nodes on both circles
    # a second evaluator of the same function on the same contour samples nothing
    evaluator = CauchyTransform(F, spectrum_hint=hint)
    assert slice_regularity_residual(evaluator, kappa) <= 1e-6
    assert calls == [2, 2 * 128] and evaluator._samples[0] == 128
    # a coarser first level reads every other held node; _samples is the count it needed
    coarse = CauchyTransform(F, spectrum_hint=hint, nodes=32)
    assert coarse.contour.circles == evaluator.contour.circles
    assert (coarse.eval(kappa) - direct).norm() <= 1e-10
    assert calls == [2, 2 * 128] and coarse._samples[0] == 64


def test_shared_samples_give_the_values_of_an_empty_store(monkeypatch):
    import cliffcalc.contour as contour_module

    F = stem_function("exp(0.5*z)*(1+e1) + z^3 - e12*z", 2)
    contour = Contour((Circle(0.3 + 0.8j, 0.4), Circle(0.3 - 0.8j, 0.4)))
    kappas = [Paravector(2, [0.3, 0.8, 0.0]), Paravector(2, [0.3, 0.0, 1.18]),
              Paravector(2, [0.25, 0.6, 0.45])]
    CauchyTransform(F, contour).eval(kappas[1])  # the store now holds >= 256 nodes
    shared = [CauchyTransform(F, contour).eval(kappa) for kappa in kappas]
    stacked = CauchyTransform(F, contour).eval_many(kappas)
    for kappa, got in zip(kappas, shared):
        monkeypatch.setattr(contour_module, "_last_state", None)
        assert np.array_equal(got.coeffs, CauchyTransform(F, contour).eval(kappa).coeffs)
    monkeypatch.setattr(contour_module, "_last_state", None)
    for got, want in zip(stacked, CauchyTransform(F, contour).eval_many(kappas)):
        assert np.array_equal(got.coeffs, want.coeffs)


class UnhashableCubic:
    """A stem function's ``fn`` that cannot be hashed, so neither can the function."""

    __hash__ = None

    def __init__(self, calls):
        self.calls = calls

    def __call__(self, z):
        self.calls.append(z)
        return CMultivector.from_scalar(2, z ** 3 - 2 * z + 1)


def test_the_shared_state_is_per_function_object_and_circles():
    kappa = Paravector(2, [0.5, 1.0, 0.0])
    hint = eigenvalues(kappa).points
    calls = []
    F = counting_cubic(2, calls)
    CauchyTransform(F, spectrum_hint=hint).eval(kappa)
    assert len(calls) == 2 * 128
    CauchyTransform(F, spectrum_hint=hint).eval(kappa)
    assert len(calls) == 2 * 128
    # an equal function that is another object misses, and so do other circles
    CauchyTransform(counting_cubic(2, calls), spectrum_hint=hint).eval(kappa)
    assert len(calls) == 4 * 128
    other = CauchyTransform(F, spectrum_hint=hint, radius_fraction=0.35)
    assert other.contour.circles != CauchyTransform(F, spectrum_hint=hint).contour.circles
    other.eval(kappa)
    assert len(calls) == 6 * 128
    # a function with an unhashable field is matched by identity
    unhashable_calls = []
    G = StemFunction(n=2, fn=UnhashableCubic(unhashable_calls), domain=BIG, is_analytic=True,
                     is_scalar=True)
    with pytest.raises(TypeError):
        hash(G)
    values = [CauchyTransform(G, spectrum_hint=hint).eval(kappa) for _ in range(2)]
    assert len(unhashable_calls) == 2 * 128 and values[0] == values[1]
    H = StemFunction(n=2, fn=UnhashableCubic(unhashable_calls), domain=BIG, is_analytic=True,
                     is_scalar=True)
    CauchyTransform(H, spectrum_hint=hint).eval(kappa)
    assert len(unhashable_calls) == 4 * 128


def test_the_store_keeps_only_the_last_state_and_no_large_samples():
    import cliffcalc.contour as contour_module

    kappa = Paravector(2, [0.5, 1.0, 0.0])
    functions = [scalar_fn(2, lambda z, c=c: z * z + c) for c in range(3)]
    for F in functions:
        cauchy_transform(F, kappa)
        assert contour_module._last_state.F is F
    # samples beyond the byte cap live only as long as their evaluators
    big = scalar_fn(7, lambda z: z * z)
    evaluator = CauchyTransform(big, spectrum_hint=[0.5 + 1j, 0.5 - 1j], nodes=512)
    assert contour_module._last_state is evaluator._state
    evaluator.eval(Paravector(7, [0.5, 1.0] + [0.0] * 6))
    assert evaluator._samples[1].nbytes > contour_module._SHARED_BYTES
    assert contour_module._last_state is None


def test_an_admitted_function_still_has_every_spectrum_checked():
    from cliffcalc.errors import DomainError

    F = stem_function("z^2", 2)
    contour = Contour((Circle(0.3 + 0.8j, 0.4), Circle(0.3 - 0.8j, 0.4)))
    CauchyTransform(F, contour).eval(Paravector(2, [0.3, 0.8, 0.0]))
    for _ in range(2):
        with pytest.raises(ContourSpectrumError, match="not enclosed"):
            CauchyTransform(F, contour).eval(Paravector(2, [0.3, 0.0, 1.5]))
    flagged = StemFunction(n=2, fn=lambda z: z, domain=BIG)
    far = Contour((Circle(0.3 + 0.8j, 20.0),))
    for _ in range(2):
        with pytest.raises(DomainError, match="analytic"):
            CauchyTransform(flagged, contour).eval(Paravector(2, [0.3, 0.8, 0.0]))
        with pytest.raises(DomainError, match="function domain"):
            CauchyTransform(F, far).eval(Paravector(2, [0.3, 0.8, 0.0]))


def test_build_contour_returns_one_contour_per_input_and_raises_every_time():
    dom = PlanarDomain.disk(0, 3.0)
    contour = build_contour([1j, -1j], dom)
    assert build_contour((1j, -1j), dom) is contour
    assert build_contour([1j, -1j], dom, nodes=32).nodes == 32
    assert build_contour([1j, -1j], PlanarDomain.disk(0, 3.0)) == contour
    for _ in range(2):
        for points, fraction in (([3.0], 0.5), ([1j], 1.5), ([], 0.5)):
            with pytest.raises(NoContourError):
                build_contour(points, dom, radius_fraction=fraction)

    # the call with another domain object took the one slot
    assert build_contour([1j, -1j], dom) is not contour
    assert build_contour([1j, -1j], dom) == contour

    class UnhashableDomain(PlanarDomain):
        __hash__ = None

    unhashable = UnhashableDomain.disk(0, 3.0)
    assert build_contour([1j, -1j], unhashable) == contour
    assert build_contour([1j, -1j], unhashable) is build_contour([1j, -1j], unhashable)


@pytest.mark.parametrize("h", [0, 0.0, -1e-4, math.nan, math.inf, -math.inf, "1e-4", None])
def test_regularity_step_must_be_finite_and_positive(h):
    from cliffcalc.errors import DomainError

    calls = []
    kappa = Paravector(2, [0.5, 1.0, 0.0])
    evaluator = CauchyTransform(counting_cubic(2, calls), spectrum_hint=eigenvalues(kappa).points)
    with pytest.raises(DomainError, match="step"):
        slice_regularity_residual(evaluator, kappa, h=h)
    assert calls == []


def test_a_repeated_derivative_transform_samples_nothing(monkeypatch):
    F = stem_function("exp(0.5*z)*(1+e1) + z^3 - e12*z", 2)
    assert F.differentiated(2) is F.differentiated(2)
    kappa = Paravector(2, [0.5, 1.0, 0.4])
    first = cauchy_derivative(F, 1, kappa)
    calls = []
    values_at = StemFunction.values_at
    monkeypatch.setattr(StemFunction, "values_at",
                        lambda self, zs: calls.append(len(zs)) or values_at(self, zs))
    again = cauchy_derivative(F, 1, kappa)
    assert calls == [] and np.array_equal(again.coeffs, first.coeffs)


def _signed(value: float) -> str:
    return f"- {-value}" if value < 0 else f"+ {value}"


@settings(max_examples=40, deadline=None)
@given(poles=st.lists(st.tuples(st.floats(-4.0, 4.0), st.floats(0.05, 3.0)), min_size=1,
                      max_size=3),
       points=st.lists(st.tuples(st.floats(-4.0, 4.0), st.floats(0.0, 3.0)), min_size=1,
                       max_size=3),
       seed=st.integers(0, 2 ** 16))
def test_rational_stems_keep_their_poles_outside_every_circle(poles, points, seed):
    # each factor (z - a)^2 + b^2 has the conjugate poles a +/- ib
    divisor = "*".join(f"((z {_signed(-a)})^2 + {b * b})" for a, b in poles)
    numerator = random_stem_source(np.random.default_rng(seed), 2, max_degree=2)
    F = stem_function(f"({numerator})/({divisor})", 2)
    assert F.domain.punctures
    try:
        contour = build_contour([complex(x, y) for x, y in points], F.domain)
    except NoContourError:
        return  # a point on a pole, or no room between poles
    for q in F.domain.punctures:
        assert all(abs(q - c.center) > c.radius for c in contour.circles)


def _in_piece(piece, u: float, v: float) -> complex:
    """The point at fractions (u, v) across a disk (radius, angle) or a rectangle."""
    if isinstance(piece, Disk):
        return piece.center + u * piece.radius * cmath.exp(2j * math.pi * v)
    return complex(piece.x0 + u * (piece.x1 - piece.x0), piece.y0 + v * (piece.y1 - piece.y0))


placed = st.lists(st.tuples(st.integers(0, 2), st.floats(0.05, 0.95), st.floats(0.05, 0.95)),
                  min_size=1, max_size=4)


@settings(max_examples=60, deadline=None)
@given(disks=st.lists(st.tuples(st.floats(-6.0, 6.0), st.floats(-3.0, 3.0), st.floats(0.5, 3.0)),
                      min_size=1, max_size=2),
       rect=st.tuples(st.floats(-6.0, 4.0), st.floats(0.5, 3.0), st.floats(0.0, 2.0),
                      st.floats(0.5, 3.0)),
       holes=placed, points=placed)
def test_punctures_of_several_pieces_stay_outside_every_circle(disks, rect, holes, points):
    x0, width, y0, height = rect
    pieces = [Disk(complex(x, y), r) for x, y, r in disks] + [Rect(x0, x0 + width, y0, y0 + height)]
    # holes mirror the points' placement, so equal draws do not put a point on a hole
    domain = PlanarDomain(pieces, punctures=[_in_piece(pieces[i % len(pieces)], u, 1.0 - v)
                                             for i, u, v in holes])
    assert len(domain.pieces) >= 2
    try:
        contour = build_contour([_in_piece(pieces[i % len(pieces)], u, v) for i, u, v in points],
                                domain)
    except NoContourError:
        return  # a point on the boundary or a puncture, or no room between them
    for q in domain.punctures:
        assert all(abs(q - c.center) > c.radius for c in contour.circles)
