import numpy as np
import pytest
import scipy.linalg

from cliffcalc.algebra import Multivector, Paravector
from cliffcalc.dsl import Lit, Mul, Var, stem_function
from cliffcalc.errors import SingularInputError, StemViolationError
from cliffcalc.operators import (
    CliffordOperator,
    basis_conjugate,
    clifford_spectrum_contains,
    clifford_spectrum_slice,
    complex_spectrum,
    complexify,
    hausdorff_distance,
    left_mult_matrix,
    operator_from_json,
    operator_from_matrix,
    operator_to_json,
    riesz_dunford_eval,
    right_mult_matrix,
    s_resolvent_right,
    slice_calculus_eval,
    spectral_mapping_distance,
    tuple_operator,
)
from cliffcalc.spectral import eigenvalues
from cliffcalc.stem import PlanarDomain

from conftest import random_mv, random_pv

BIG = PlanarDomain.disk(0, 10.0)


def random_operator(rng, d, n, scale=0.7):
    return CliffordOperator(d, n, {m: rng.normal(scale=scale, size=(d, d))
                                   for m in range(1 << n)})


def left_e1():
    return CliffordOperator.left_multiplication(Multivector(1, [0, 1]))


def test_complexify_identity():
    I = CliffordOperator.identity(3, 2)
    assert np.array_equal(complexify(I), np.eye(12))


def test_complexify_left_e1():
    assert np.array_equal(complexify(left_e1()).real, np.array([[0.0, -1.0], [1.0, 0.0]]))


def test_complexified_operator_is_right_linear(rng):
    d, n = 2, 2
    T = random_operator(rng, d, n)
    Tm = complexify(T)
    for _ in range(10):
        a = random_mv(rng, n, complex_=True)
        Ra = np.kron(right_mult_matrix(a), np.eye(d))
        assert np.linalg.norm(Tm @ Ra - Ra @ Tm) <= 1e-12 * (1 + np.linalg.norm(Tm) * a.norm())


def test_complex_spectrum_examples(rng):
    assert set(complex_spectrum(left_e1()).eigenvalues) == {1j, -1j}

    diag = CliffordOperator(3, 0, {0: np.diag([1.0, 2.0, 3.0])})
    assert sorted(z.real for z in complex_spectrum(diag).eigenvalues) == [1.0, 2.0, 3.0]

    kappa = random_pv(rng, 2)
    L = CliffordOperator.left_multiplication(kappa.to_multivector())
    spectrum = complex_spectrum(L)
    assert len(spectrum.eigenvalues) == 4  # multiplicity fills the module
    data = eigenvalues(kappa)
    assert hausdorff_distance(spectrum.eigenvalues, data.points) <= 1e-10 * (1 + kappa.norm())


def test_clifford_spectrum_membership_examples():
    T = left_e1()
    assert clifford_spectrum_contains(T, Paravector(1, [0, -1]))
    assert not clifford_spectrum_contains(T, Paravector.from_scalar(1, 1.0))
    rotation = CliffordOperator(2, 0, {0: np.array([[0.0, -1.0], [1.0, 0.0]])})
    for x in (-2.0, 0.0, 0.5, 3.0):
        assert not clifford_spectrum_contains(rotation, Paravector(0, [x]))


def test_membership_margin_is_informative():
    result = clifford_spectrum_contains(left_e1(), Paravector(1, [0, 1]))
    assert result.member and result.margin < 1.0
    result = clifford_spectrum_contains(left_e1(), Paravector.from_scalar(1, 2.0))
    assert not result.member and result.margin > 1.0


def test_clifford_spectrum_slice_examples(rng):
    reps = clifford_spectrum_slice(left_e1(), Paravector(1, [0, 1]))
    assert len(reps) == 1 and reps[0] == Paravector(1, [0, 1])

    sym = CliffordOperator(2, 1, {0: np.array([[1.0, 0.0], [0.0, 2.0]])})
    reps = clifford_spectrum_slice(sym, Paravector(1, [0, 1]))
    assert all(r.vector_norm == 0.0 for r in reps)

    T = random_operator(rng, 2, 2)
    for rep in clifford_spectrum_slice(T, Paravector(2, [0, 0.6, 0.8])):
        assert clifford_spectrum_contains(T, rep)


def test_riesz_dunford_constant_and_square(rng):
    T = random_operator(rng, 2, 1)
    one = stem_function("1", 1)
    assert np.linalg.norm(complexify(riesz_dunford_eval(one, T)) - np.eye(T.size)) <= 1e-10
    sq = stem_function("z^2", 1)
    value = riesz_dunford_eval(sq, T)
    assert np.linalg.norm(complexify(value) - complexify(T.power(2))) <= 1e-9 * (1 + T.frobenius() ** 2)


def test_riesz_dunford_exponential_oracle():
    T = CliffordOperator.left_multiplication(Multivector(1, [0, np.pi / 2]))
    expf = stem_function("exp(z)", 1)
    value = riesz_dunford_eval(expf, T)
    oracle = scipy.linalg.expm(complexify(T))
    assert np.linalg.norm(complexify(value) - oracle) <= 1e-9
    assert np.linalg.norm(complexify(value) - complexify(left_e1())) <= 1e-9


def test_riesz_dunford_output_is_right_linear(rng):
    T = random_operator(rng, 2, 2)
    F = stem_function("(1+e1)*z^2 - e12", 2)
    S = complexify(riesz_dunford_eval(F, T))
    for _ in range(5):
        a = random_mv(rng, 2, complex_=True)
        Ra = np.kron(right_mult_matrix(a), np.eye(2))
        assert np.linalg.norm(S @ Ra - Ra @ S) <= 1e-9 * (1 + np.linalg.norm(S) * a.norm())


def test_riesz_dunford_nonstem_rejected(rng):
    T = random_operator(rng, 2, 1)
    bad = stem_function(Mul(Lit(1j), Var()), 1)
    with pytest.raises(StemViolationError) as excinfo:
        riesz_dunford_eval(bad, T)
    assert excinfo.value.residual > 1e-3


def test_basis_conjugate():
    real = np.arange(9.0).reshape(3, 3)
    assert np.array_equal(basis_conjugate(real), real)
    assert np.array_equal(basis_conjugate(1j * np.eye(2)), -1j * np.eye(2))
    rng = np.random.default_rng(5)
    S1 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    S2 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert np.allclose(basis_conjugate(S1 @ S2), basis_conjugate(S1) @ basis_conjugate(S2))
    assert np.array_equal(basis_conjugate(basis_conjugate(S1)), S1)


def test_operator_from_matrix_roundtrip(rng):
    T = random_operator(rng, 3, 2)
    recovered = operator_from_matrix(complexify(T), 3, 2)
    assert np.linalg.norm(complexify(recovered) - complexify(T)) <= 1e-12


def test_s_resolvent_examples():
    T = left_e1()
    S = s_resolvent_right(Paravector.from_scalar(1, 2.0), T)
    expected = (2 * np.eye(2) + complexify(T).real) / 5.0
    assert np.linalg.norm(S - expected) <= 1e-12
    with pytest.raises(SingularInputError):
        s_resolvent_right(Paravector(1, [0, 1]), T)


def test_s_resolvent_identity(rng):
    # (z - s) S_R(s, T) = S_R(s, T) (z - T) - 1 with s as a left multiplication
    for _ in range(10):
        d, n = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        T = random_operator(rng, d, n)
        s = random_pv(rng, n, scale=1.5)
        if clifford_spectrum_contains(T, s):
            continue
        S = s_resolvent_right(s, T)
        z = complex(rng.normal(), rng.normal())
        eye = np.eye(T.size)
        Ls = np.kron(left_mult_matrix(s), np.eye(d))
        lhs = (z * eye - Ls) @ S
        rhs = S @ (z * eye - complexify(T)) - eye
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * (1 + np.linalg.norm(S))


def test_slice_calculus_examples(rng):
    T = left_e1()
    e1 = Paravector(1, [0, 1])
    one = stem_function("1", 1)
    S = slice_calculus_eval(one.at, T, e1, domain=BIG)
    assert np.linalg.norm(complexify(S) - np.eye(2)) <= 1e-8
    ident = stem_function("z", 1)
    S = slice_calculus_eval(ident.at, T, e1, domain=BIG)
    assert np.linalg.norm(complexify(S) - complexify(T)) <= 1e-8


def test_slice_calculus_matches_riesz(rng):
    for _ in range(5):
        d, n = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        T = random_operator(rng, d, n)
        F = stem_function("(1+0.5e1)*z^2 - e1*z + 0.25", n)
        v = rng.normal(size=n)
        s_unit = Paravector(n, np.concatenate([[0], v / np.linalg.norm(v)]))
        via_slice = slice_calculus_eval(F.at, T, s_unit, domain=BIG)
        via_riesz = riesz_dunford_eval(F, T)
        assert (via_slice - via_riesz).frobenius() <= 1e-6 * (1 + via_riesz.frobenius())


def test_slice_calculus_on_a_nearly_real_pair():
    from cliffcalc.verify import random_operator as verify_random_operator

    # the first 6 x 6 operator of this stream whose conjugate pair is closer
    # than 2e-3 (1.35e-3 apart): one real-centered circle encloses the pair
    rng = np.random.default_rng(0)
    while True:
        T = verify_random_operator(rng, 3, 1)
        gaps = [2 * abs(e.imag) for e in np.linalg.eigvals(T.matrix().real) if e.imag]
        if gaps and min(gaps) < 2e-3:
            break
    F = stem_function("1 + z^2", 1)
    via_riesz = riesz_dunford_eval(F, T)
    via_slice = slice_calculus_eval(F.at, T, Paravector(1, [0.0, 1.0]), domain=BIG)
    assert (via_slice - via_riesz).frobenius() <= 1e-6 * (1 + via_riesz.frobenius())


def test_spectral_mapping_examples(rng):
    T = random_operator(rng, 2, 1)
    ident = stem_function("z", 1)
    assert spectral_mapping_distance(ident, T) <= 1e-8

    sq = stem_function("z^2", 1)
    L = left_e1()
    assert spectral_mapping_distance(sq, L) <= 1e-10
    image = riesz_dunford_eval(sq, L)
    assert hausdorff_distance(complex_spectrum(image).eigenvalues, [-1.0]) <= 1e-10


def test_tuple_operator_examples(rng):
    I = tuple_operator([np.eye(2)], n=2)
    assert np.array_equal(complexify(I), np.eye(8))

    # scalars reduce to left multiplication by a paravector
    kappa = Paravector(2, [0.5, -1.0, 2.0])
    packed = tuple_operator([np.array([[c]]) for c in kappa.components], n=2)
    L = CliffordOperator.left_multiplication(kappa.to_multivector())
    assert np.linalg.norm(complexify(packed) - complexify(L)) <= 1e-14

    # non-commuting pair: polynomial calculus equals direct expansion
    A1, A2 = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
    assert np.linalg.norm(A1 @ A2 - A2 @ A1) > 1e-6
    T = tuple_operator([np.zeros((2, 2)), A1, A2], n=2)
    P = stem_function("1 + 2*z + z^3", 2)
    value = riesz_dunford_eval(P, T)
    direct = (complexify(CliffordOperator.identity(2, 2)) + 2 * complexify(T)
              + complexify(T.power(3)))
    assert np.linalg.norm(complexify(value) - direct) <= 1e-9 * (1 + np.linalg.norm(direct))


def test_module_property_over_scalar_functions(rng):
    # (F f)(T) = F(T) f(T) for an algebra-valued F and a scalar f
    for _ in range(5):
        d, n = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        T = random_operator(rng, d, n)
        F = stem_function("(1+0.4e1)*z^2 - e1", n)
        f = stem_function("0.5*z^2 - z + 1", n)
        combined = riesz_dunford_eval(F * f, T)
        split = riesz_dunford_eval(F, T).compose(riesz_dunford_eval(f, T))
        assert (combined - split).frobenius() <= 1e-8 * (1 + split.frobenius())


def test_operator_json_roundtrip(rng):
    T = random_operator(rng, 2, 2)
    again = operator_from_json(operator_to_json(T))
    assert np.linalg.norm(complexify(again) - complexify(T)) == 0.0


def test_conjugate_symmetry_of_spectrum(rng):
    for _ in range(10):
        T = random_operator(rng, int(rng.integers(1, 4)), int(rng.integers(0, 3)))
        assert complex_spectrum(T).pairing_defect() <= 1e-10


def test_membership_routes_agree(rng):
    # direct pencil singularity vs eigenvalue intersection
    for index in range(60):
        d, n = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        T = random_operator(rng, d, n)
        spectrum = complex_spectrum(T)
        if index % 3 == 0:
            lam = spectrum.eigenvalues[int(rng.integers(0, len(spectrum.eigenvalues)))]
            v = rng.normal(size=n)
            s = np.concatenate([[0], v / np.linalg.norm(v)])
            kappa = Paravector(n, np.concatenate([[lam.real], abs(lam.imag) * s[1:]]))
        else:
            kappa = random_pv(rng, n, scale=1.2)
        direct = bool(clifford_spectrum_contains(T, kappa))
        data = eigenvalues(kappa)
        dist = min(abs(l - s) for l in spectrum.eigenvalues for s in data.points)
        assert direct == (dist < 1e-6 * (1 + max(abs(x) for x in spectrum.eigenvalues)))


@pytest.mark.parametrize("d, n", [(3, 1), (3, 2), (8, 3)])
def test_slice_calculus_stem_path_matches_blackbox(d, n):
    import cliffcalc.contour as contour_module
    from cliffcalc.contour import Circle, Contour

    rng = np.random.default_rng(100 + d * n)
    T = random_operator(rng, d, n, scale=0.3)
    F = stem_function("(1+0.5e1)*z^2 - e1*z + 0.25", n)
    v = rng.normal(size=n)
    s_unit = Paravector(n, np.concatenate([[0], v / np.linalg.norm(v)]))
    # one circle around the whole spectrum, 128 nodes to start with
    radius = 1.5 * max(abs(z) for z in complex_spectrum(T).eigenvalues) + 0.1
    contour = Contour((Circle(0j, radius),), nodes=128)
    sizes = []
    solve = np.linalg.solve

    def spy(a, b):
        sizes.append(len(a))
        return solve(a, b)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "solve", spy)
        via_stem = slice_calculus_eval(F, T, s_unit, contour=contour)
    via_blackbox = slice_calculus_eval(F.at, T, s_unit, contour=contour)
    assert (via_stem - via_blackbox).frobenius() <= 1e-12 * via_blackbox.frobenius()
    if T.size == 64:
        # every level of 128 or more nodes is split into stacks of 64
        chunk = contour_module._CHUNK_ENTRIES // T.size ** 2
        assert chunk == 64 and max(sizes) == chunk and sum(sizes) >= 2 * 128


def test_riesz_dunford_stem_matches_matrix_callable(rng):
    from cliffcalc.contour import build_contour
    from cliffcalc.operators import riesz_dunford_matrix

    for d, n in [(2, 1), (3, 2)]:
        T = random_operator(rng, d, n)
        F = stem_function("(1+0.5e1)*z^3 - e1*z + exp(0.3*z)", n)
        contour = build_contour(complex_spectrum(T).eigenvalues, F.domain)

        def matrix_fn(z):
            return np.kron(left_mult_matrix(F(z)), np.eye(d))

        via_stem = riesz_dunford_matrix(F, T)
        via_callable = riesz_dunford_matrix(matrix_fn, T, contour)
        assert np.linalg.norm(via_stem - via_callable) <= 1e-12 * np.linalg.norm(via_callable)


def test_singular_stacked_solve_is_numeric_error():
    from cliffcalc.errors import NumericError

    # J_3(1) + 0.5 I e1: each eigenvalue 1 +- 0.5i is a triple, split by ~6e-9
    T = CliffordOperator(3, 1, {0: np.eye(3) + np.diag([1.0, 1.0], 1), 1: 0.5 * np.eye(3)})
    with pytest.raises(NumericError):
        riesz_dunford_eval(stem_function("z^2 + e1*z", 1), T)


def test_non_analytic_stem_function_is_rejected():
    from cliffcalc.algebra import CMultivector
    from cliffcalc.errors import DomainError
    from cliffcalc.operators import riesz_dunford_matrix
    from cliffcalc.stem import StemFunction

    flagged = StemFunction(n=1, fn=lambda z: CMultivector.from_scalar(1, z * z), domain=BIG)
    assert not flagged.is_analytic
    T = random_operator(np.random.default_rng(3), 2, 1)
    for call in (lambda: riesz_dunford_matrix(flagged, T),
                 lambda: riesz_dunford_eval(flagged, T),
                 lambda: slice_calculus_eval(flagged, T, Paravector(1, [0, 1]))):
        with pytest.raises(DomainError, match="analytic"):
            call()


@pytest.mark.parametrize("exponent", [-1, 2.5, True])
def test_operator_power_needs_an_int_exponent(exponent):
    from cliffcalc.errors import DomainError

    T = CliffordOperator(2, 1, {0: np.diag([1.0, 2.0]), 1: np.eye(2)})
    with pytest.raises(DomainError):
        T.power(exponent)
    square = complexify(T) @ complexify(T)
    assert np.array_equal(complexify(T.power(2)), square)
    assert np.array_equal(complexify(T.power(np.int64(2))), square)
