import cmath

import numpy as np
import pytest

from cliffcalc.algebra import CMultivector, Paravector, isclose
from cliffcalc.dsl import stem_function
from cliffcalc.errors import DomainError, RankMismatchError, SaturationError
from cliffcalc.stem import (
    Disk,
    PlanarDomain,
    Rect,
    StemFunction,
    evaluate_stem,
    intrinsic_check,
    product_rule_residual,
    representation_formula,
    saturated_membership,
    slice_lift,
    slice_point,
    spectra_of_set_membership,
    verify_stem,
    zero_set_membership,
)

from conftest import random_nonreal_pv, random_pv

BIG = PlanarDomain.disk(0, 10.0)


def scalar_fn(n, f):
    return StemFunction(n=n, fn=lambda z: CMultivector.from_scalar(n, f(z)),
                        domain=BIG, is_analytic=True, is_scalar=True)


def test_domain_mirroring_and_membership():
    dom = PlanarDomain([Disk(1j, 0.5)])
    assert len(dom.pieces) == 2
    assert dom.contains(1j) and dom.contains(-1j)
    assert not dom.contains(0.0)
    rect = PlanarDomain([Rect(0, 1, 0.2, 0.6)])
    assert rect.contains(0.5 + 0.4j) and rect.contains(0.5 - 0.4j)


def test_domain_clearance():
    dom = PlanarDomain.disk(0, 2.0)
    assert dom.clearance(0.0) == 2.0
    assert dom.clearance(1.5) == pytest.approx(0.5)
    assert dom.clearance(3.0) == pytest.approx(-1.0)
    punctured = PlanarDomain([Disk(0j, 2.0)], punctures=[1.0])
    assert punctured.clearance(0.5) == pytest.approx(0.5)
    assert not punctured.contains(1.0)


def test_domain_json_roundtrip():
    dom = PlanarDomain([Disk(1 + 1j, 0.5), Rect(-1, 1, -0.5, 0.5)], punctures=[2j])
    loaded = PlanarDomain.from_json(dom.to_json())
    assert loaded.to_json() == dom.to_json()


def test_verify_stem_examples():
    ok, _ = verify_stem(lambda z: CMultivector.from_scalar(2, z), BIG, 128, n=2)
    assert ok
    ok, worst = verify_stem(lambda z: CMultivector.from_scalar(2, 1j * z), BIG, 128, n=2)
    assert not ok and worst > 0.1
    e1 = CMultivector.basis_blade(2, 1)
    ok, _ = verify_stem(lambda z: z * e1, BIG, 128, n=2)
    assert ok


def test_evaluate_identity():
    F = scalar_fn(2, lambda z: z)
    k = Paravector(2, [1, 1, 0])
    assert isclose(evaluate_stem(F, k), k.to_cmultivector())


def test_evaluate_square_matches_direct_product():
    F = scalar_fn(2, lambda z: z * z)
    k = Paravector(2, [0, 1, 1])
    direct = k.to_multivector() * k.to_multivector()
    assert isclose(evaluate_stem(F, k), direct.to_cmultivector())


def test_evaluate_exponential_example():
    F = scalar_fn(2, cmath.exp)
    k = Paravector(2, [0, np.pi / 2, 0])
    assert isclose(evaluate_stem(F, k), CMultivector.basis_blade(2, 1))


def test_evaluate_real_branch():
    F = scalar_fn(1, lambda z: z ** 3 + 1)
    assert isclose(evaluate_stem(F, Paravector.from_scalar(1, 2.0)),
                   CMultivector.from_scalar(1, 9.0))


def test_evaluate_domain_error():
    small = PlanarDomain.disk(0, 0.5)
    F = StemFunction(n=1, fn=lambda z: CMultivector.from_scalar(1, z), domain=small)
    with pytest.raises(DomainError):
        evaluate_stem(F, Paravector(1, [1.0, 1.0]))


def test_stem_value_lands_in_real_algebra(rng):
    F = stem_function("z^3 - (1+2e1)*z + e12", 2)
    for _ in range(30):
        kappa = random_pv(rng, 2, scale=1.5)
        value = evaluate_stem(F, kappa)
        assert value.imag.norm() <= 1e-12 * max(1.0, value.norm())


def test_non_stem_value_leaves_real_algebra(rng):
    F = StemFunction(n=2, fn=lambda z: CMultivector.from_scalar(2, 1j), domain=BIG)
    kappa = random_nonreal_pv(rng, 2)
    assert evaluate_stem(F, kappa).imag.norm() > 0.1


def test_stem_failure_yields_witness_over_failing_point(rng):
    # the reverse direction: where the stem identity fails at some point,
    # a paravector with that point in its spectrum leaves the real algebra
    F = StemFunction(n=3, fn=lambda z: CMultivector.from_scalar(3, 1j * z), domain=BIG)
    ok, _ = verify_stem(F, BIG, 64)
    assert not ok
    lam = 0.7 + 1.3j  # any sample where the identity fails
    defect = (F(lam.conjugate()) - F(lam).bar()).norm()
    assert defect > 1e-3
    found = 0.0
    for _ in range(8):
        v = rng.normal(size=3)
        s_unit = Paravector(3, np.concatenate([[0], v / np.linalg.norm(v)]))
        kappa = slice_point(3, lam.real, lam.imag, s_unit)
        found = max(found, evaluate_stem(F, kappa).imag.norm())
    assert found > 1e-3


def test_intrinsic_examples(rng):
    slices = [Paravector(2, [0, 1, 0]), Paravector(2, [0, 0.6, 0.8])]
    points = [(rng.uniform(-1, 1), rng.uniform(0.2, 1.5)) for _ in range(10)]
    sq = scalar_fn(2, lambda z: z * z)
    ok, _ = intrinsic_check(sq, slices, points)
    assert ok
    const_i = StemFunction(n=2, fn=lambda z: CMultivector.from_scalar(2, 1j),
                           domain=BIG, is_scalar=True)
    ok, worst = intrinsic_check(const_i, slices, points)
    assert not ok and worst > 0.1
    expf = scalar_fn(2, cmath.exp)
    ok, _ = intrinsic_check(expf, slices, points)
    assert ok


def test_zero_set_examples():
    F = scalar_fn(2, lambda z: z * z + 1)
    assert zero_set_membership(F, Paravector(2, [0, 1, 0]))
    assert not zero_set_membership(F, Paravector(2, [0, 2, 0]))


def test_zero_set_agrees_with_value(rng):
    for _ in range(100):
        n = int(rng.integers(1, 4))
        roots = [complex(rng.normal(), rng.normal()) for _ in range(2)]
        # real-coefficient polynomial: pair each root with its conjugate
        def poly(z, roots=roots):
            out = 1.0 + 0j
            for r in roots:
                out *= (z - r) * (z - r.conjugate())
            return out
        F = scalar_fn(n, poly)
        kappa = random_pv(rng, n, scale=1.5)
        by_eigenvalues = zero_set_membership(F, kappa, tol=1e-8)
        by_value = evaluate_stem(F, kappa).norm() <= 1e-8
        assert by_eigenvalues == by_value


def test_saturated_membership_examples(rng):
    ball = PlanarDomain.disk(0, 1.0)
    assert saturated_membership(ball, Paravector(2, [0.3, 0.4, 0.0]))
    assert not saturated_membership(ball, Paravector(2, [0, 2, 0]))
    # real points: membership iff the point itself is in the set
    band = PlanarDomain([Rect(0, 1, -0.5, 0.5)])
    assert saturated_membership(band, Paravector.from_scalar(2, 0.5))
    assert not saturated_membership(band, Paravector.from_scalar(2, 2.0))
    # |kappa| < r characterizes membership for the disk at the origin
    for _ in range(50):
        kappa = random_pv(rng, 3, scale=0.8)
        assert saturated_membership(ball, kappa) == (kappa.norm() < 1.0)


def test_spectra_of_set_membership():
    slices = [Paravector(3, [0, 1, 0, 0]), Paravector(3, [0, 0, 0.6, 0.8])]
    ball = lambda kappa: kappa.norm() < 1.0
    assert spectra_of_set_membership(ball, 0.5j, slices)
    assert not spectra_of_set_membership(ball, 2.0, slices)
    half = lambda kappa: kappa.components[1] > 0  # not spectrally saturated
    with pytest.raises(SaturationError):
        spectra_of_set_membership(half, 0.5j, slices)


def test_spectra_roundtrip_on_grid():
    S = PlanarDomain.disk(0.5, 1.2)
    pred = lambda kappa: saturated_membership(S, kappa)
    slices = [Paravector(2, [0, 1, 0])]
    for x in np.linspace(-2, 2, 17):
        for y in np.linspace(-2, 2, 17):
            lam = complex(x, y)
            if abs(S.clearance(lam)) < 1e-9:
                continue
            assert spectra_of_set_membership(pred, lam, slices) == S.contains(lam)


def test_product_rule_examples(rng):
    e1_const = StemFunction(n=2, fn=lambda z: CMultivector.basis_blade(2, 1),
                            domain=BIG, is_analytic=True)
    ident = scalar_fn(2, lambda z: z)
    assert product_rule_residual(e1_const, ident, Paravector(2, [0, 0, 1])) < 1e-14
    assert product_rule_residual(ident, ident, random_pv(rng, 2)) < 1e-12
    for _ in range(100):
        n = int(rng.integers(1, 4))
        F = stem_function("(1+0.5e1)*z^2 - e1*z", n) if n >= 1 else None
        f = scalar_fn(n, lambda z: 0.5 * z ** 2 - 1.0)
        kappa = random_pv(rng, n, scale=1.5)
        scale = max(1.0, evaluate_stem(F, kappa).norm() * evaluate_stem(f, kappa).norm())
        assert product_rule_residual(F, f, kappa) <= 1e-10 * scale


def test_product_rule_requires_scalar_right_factor():
    e1_const = StemFunction(n=2, fn=lambda z: CMultivector.basis_blade(2, 1),
                            domain=BIG, is_analytic=True)
    with pytest.raises(DomainError):
        product_rule_residual(e1_const, e1_const, Paravector(2, [0, 1, 0]))


def test_representation_formula_examples(rng):
    ident = scalar_fn(2, lambda z: z)
    e1 = Paravector(2, [0, 1, 0])
    upper, lower = representation_formula(ident, 1.0, 2.0, e1)
    assert isclose(upper, CMultivector.from_scalar(2, 1 + 2j))
    assert isclose(lower, CMultivector.from_scalar(2, 1 - 2j))
    # y = 0 gives the plain value in both slots
    F = stem_function("z^2 + e1*z", 2)
    upper, lower = representation_formula(F, 0.7, 0.0, e1)
    assert isclose(upper, F(0.7)) and isclose(lower, F(0.7))
    for _ in range(20):
        G = stem_function("(1+e2)*z^3 - 2e12*z +0.5", 2)
        x, y = rng.uniform(-1.5, 1.5), rng.uniform(0.1, 1.5)
        upper, lower = representation_formula(G, x, y, e1)
        scale = max(1.0, G(complex(x, y)).norm())
        assert (upper - G(complex(x, y))).norm() <= 1e-10 * scale
        assert (lower - G(complex(x, -y))).norm() <= 1e-10 * scale


def test_slice_lift_identity():
    e1 = Paravector(2, [0, 1, 0])
    lift = slice_lift(lambda kappa: kappa.to_cmultivector(), e1, BIG)
    for z in (0.3 + 0.7j, -1.2 - 0.4j, 2.0):
        value = lift(complex(z))
        assert isclose(value, CMultivector.from_scalar(2, complex(z)))


def test_slice_lift_square(rng):
    sq = stem_function("z^2", 2)
    e1 = Paravector(2, [0, 1, 0])
    lift = slice_lift(sq.at, e1, BIG)
    for _ in range(20):
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        assert (lift(z) - CMultivector.from_scalar(2, z * z)).norm() <= 1e-12 * (1 + abs(z) ** 2)


def test_slice_lift_antiregular_witness():
    from cliffcalc.contour import slice_regularity_residual

    e1 = Paravector(2, [0, 1, 0])
    anti = lambda kappa: kappa.star().to_cmultivector()
    lift = slice_lift(anti, e1, BIG)
    # the lift exists and is even a stem function ...
    ok, _ = verify_stem(lift, BIG, 64)
    assert ok
    # ... but pushing it back through the calculus reproduces the
    # anti-regular input, which the regularity stencil flags
    pushed = lambda kappa: evaluate_stem(lift, kappa)
    residual = slice_regularity_residual(pushed, Paravector(2, [0.3, 0.9, 0.2]))
    assert residual > 0.5


def test_slice_independence_of_scalar_functions(rng):
    # for complex-valued functions, the scalar-and-direction coordinates
    # of the value do not depend on the slice direction
    f = scalar_fn(3, lambda z: cmath.sin(z) + z ** 2)
    x, y = 0.4, 1.1
    coords = []
    for _ in range(6):
        v = rng.normal(size=3)
        s = Paravector(3, np.concatenate([[0], v / np.linalg.norm(v)]))
        value = evaluate_stem(f, slice_point(3, x, y, s))
        u = value.coeffs[0]
        w = sum(value.coeffs[1 << (j - 1)] * s.components[j] for j in range(1, 4))
        coords.append((complex(u), complex(w)))
    base = coords[0]
    for u, w in coords[1:]:
        assert abs(u - base[0]) < 1e-12 and abs(w - base[1]) < 1e-12


def test_gfc_linearity(rng):
    F = stem_function("(1+e1)*z^2", 2)
    G = stem_function("e12*z - 2", 2)
    for _ in range(10):
        kappa = random_pv(rng, 2, scale=1.5)
        alpha, beta = rng.normal(), rng.normal()
        combo = alpha * F + beta * G
        left = evaluate_stem(combo, kappa)
        right = alpha * evaluate_stem(F, kappa) + beta * evaluate_stem(G, kappa)
        assert isclose(left, right, tol=1e-12)


def test_sampled_injectivity(rng):
    # distinct stem functions are told apart by some sampled paravector
    F = stem_function("z^2 + e1", 2)
    G = stem_function("z^2 - e1", 2)
    separated = False
    for _ in range(10):
        kappa = random_pv(rng, 2)
        if (evaluate_stem(F, kappa) - evaluate_stem(G, kappa)).norm() > 1e-6:
            separated = True
            break
    assert separated


def idempotent_products(F, kappa):
    """The direct route as the idempotent products F+ iota+ + F- iota-."""
    from cliffcalc.spectral import eigenvalues, idempotents

    data = eigenvalues(kappa)
    plus, minus = F.values_at(np.array(data.points))
    iota_plus, iota_minus = idempotents(data.s_unit)
    return CMultivector(F.n, plus) * iota_plus + CMultivector(F.n, minus) * iota_minus


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_expanded_idempotent_formula_matches_idempotent_products(n):
    from cliffcalc.algebra import Multivector
    from cliffcalc.dsl import Add, CliffLit, Lit, Mul, Pow, Var
    from cliffcalc.verify import random_stem_source

    rng = np.random.default_rng(900 + n)
    functions = [stem_function(random_stem_source(rng, n, max_degree=3), n) for _ in range(4)]
    # trees with complex literals: not stem functions, so values off the real algebra
    top = CliffLit(Multivector.basis_blade(n, (1 << n) - 1))
    functions.append(stem_function(Add(Mul(Lit(0.5 - 2j), Pow(Var(), 2)),
                                       Mul(top, Mul(Lit(1j), Var()))), n))
    functions.append(StemFunction(n=n, fn=lambda z: CMultivector.from_scalar(n, 1j * z),
                                  domain=BIG))
    for F in functions:
        for _ in range(10):
            kappa = random_nonreal_pv(rng, n)
            want = idempotent_products(F, kappa)
            assert (evaluate_stem(F, kappa) - want).norm() <= 1e-15 * want.norm()


def test_stem_function_rank_must_be_a_nonnegative_integer():
    for n in (-1, 1.5, True, "2"):
        with pytest.raises(DomainError, match="rank"):
            stem_function("z", n)


def test_recombine_matches_the_idempotent_products():
    from cliffcalc.spectral import idempotents
    from cliffcalc.stem import recombine

    rng = np.random.default_rng(31)
    for n in (1, 2, 3, 4):
        v = rng.normal(size=n)
        s_unit = Paravector(n, np.concatenate([[0.0], v / np.linalg.norm(v)]))
        iota_plus, iota_minus = idempotents(s_unit)
        plus, minus = (rng.normal(size=(6, 1 << n)) + 1j * rng.normal(size=(6, 1 << n))
                       for _ in range(2))
        stacked = recombine(plus, minus, s_unit)
        assert stacked.shape == plus.shape
        for p, m, row in zip(plus, minus, stacked):
            want = (CMultivector(n, p) * iota_plus + CMultivector(n, m) * iota_minus).coeffs
            for got in (recombine(p, m, s_unit), row):
                assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)


def test_combinators_keep_the_poles_of_both_parts():
    from cliffcalc.contour import cauchy_transform
    from cliffcalc.operators import CliffordOperator, riesz_dunford_eval

    f, g = stem_function("z", 1), stem_function("1/(z - 0.5)", 1)
    assert not f.domain.punctures and len(g.domain.punctures) == 1
    kappa = Paravector(1, [0.45, 0.0])
    T = CliffordOperator(1, 1, {0: [[0.45]]})
    for combined, exact in ((f * g, -9.0), (g * f, -9.0), (f + g, -19.55), (2.0 * g, -40.0)):
        assert combined.domain.punctures == g.domain.punctures
        assert abs(cauchy_transform(combined, kappa).coeffs[0] - exact) <= 1e-10 * abs(exact)
        value = riesz_dunford_eval(combined, T).components[0][0, 0]
        assert abs(value - exact) <= 1e-10 * abs(exact)
    h = stem_function("1/(z + 2)", 1)
    for combined in (g * h, h + g):
        assert sorted(p.real for p in combined.domain.punctures) == pytest.approx([-2.0, 0.5])


def test_combinators_need_the_same_domain_pieces():
    f = stem_function("z", 1)
    for domain in (PlanarDomain.disk(0, 5.0), PlanarDomain([Disk(0j, 10.0), Rect(-1, 1, 9, 11)])):
        other = stem_function("z", 1, domain=domain)
        for combine in (lambda: f * other, lambda: other * f, lambda: f + other):
            with pytest.raises(DomainError, match="domain pieces"):
                combine()
    with pytest.raises(RankMismatchError):
        f * stem_function("z", 2)


def test_combinators_evaluate_a_batch_through_the_parts_batches():
    F, g = stem_function("(1+e1)*z^2 - e1", 1), stem_function("exp(0.5*z)", 1)
    zs = np.array([0.3 + 0.2j, -1.0, 2.0 - 1.5j])
    for combined, pointwise in ((F * g, lambda z: F(z) * g(z)), (F + g, lambda z: F(z) + g(z)),
                                (2.5 * F, lambda z: 2.5 * F(z))):
        want = np.array([pointwise(z).coeffs for z in zs])
        assert combined.batch is not None
        assert np.array_equal(combined.values_at(zs), want)
        assert np.array_equal(combined(zs[0]).coeffs, want[0])
    # a derivative when every part supplies one: here the product rule
    z = 0.3 + 0.2j
    dF, dg = F.differentiated(), g.differentiated()
    assert isclose((F * g).differentiated()(z), dF(z) * g(z) + F(z) * dg(z))
    blackbox = scalar_fn(1, cmath.exp)
    assert (F * blackbox).derivative is None and (F + blackbox).derivative is None


def test_function_values_are_coerced_alike_at_every_site():
    from cliffcalc.algebra import Multivector
    from cliffcalc.contour import slice_regularity_residual
    from cliffcalc.errors import FormatError
    from cliffcalc.operators import CliffordOperator, slice_calculus_eval

    n, e1 = 2, Paravector(2, [0, 1, 0])
    T = CliffordOperator(1, n, {0: [[0.4]], 1: [[0.3]]})
    kappa = Paravector(n, [0.4, 0.3, 0.2])

    def sites(value):
        const = StemFunction(n=n, fn=lambda z: value, domain=BIG)
        return [lambda: const(0.3 + 0.2j).coeffs,
                lambda: const.values_at(np.array([0.3, -0.5j])),
                lambda: slice_lift(lambda k: value, e1, BIG)(0.3 + 0.2j).coeffs,
                lambda: slice_calculus_eval(lambda k: value, T, e1, domain=BIG).matrix()[:, 0],
                lambda: slice_regularity_residual(lambda k: value, kappa)]

    two = CMultivector.from_scalar(n, 2.0).coeffs
    for value in (CMultivector.from_scalar(n, 2.0), Multivector.from_scalar(n, 2.0),
                  Paravector.from_scalar(n, 2.0), 2, 2.0, 2 + 0j, np.float64(2.0)):
        const, values, lifted, operator, residual = (site() for site in sites(value))
        assert np.array_equal(const, two) and np.array_equal(lifted, two)
        assert np.array_equal(values, [two, two])
        assert np.abs(operator - two).max() <= 1e-12 and residual == 0.0
    for value, error in (("2", FormatError), (None, FormatError), ([2.0], FormatError),
                         (CMultivector.from_scalar(1, 2.0), RankMismatchError),
                         (Paravector.from_scalar(3, 2.0), RankMismatchError)):
        for site in sites(value):
            with pytest.raises(error):
                site()
