import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffcalc.algebra import (
    CMultivector,
    Multivector,
    Paravector,
    basis_mul,
    conjugation_bar,
    format_multivector,
    involution,
    isclose,
    multivector_from_json,
    multivector_to_json,
    mv_mul,
    norm,
    paravector_inverse,
    parse_multivector,
)
from cliffcalc.errors import (
    FormatError,
    MaskRangeError,
    RankMismatchError,
    SingularInputError,
)

from conftest import random_mv, random_pv


def test_basis_mul_defining_relations():
    assert basis_mul(0b01, 0b10, 2) == (1, 0b11)   # e1 e2 = e12
    assert basis_mul(0b01, 0b01, 2) == (-1, 0)     # e1 e1 = -1
    assert basis_mul(0b01, 0b11, 2) == (-1, 0b10)  # e1 e12 = -e2


def test_basis_mul_mask_range():
    with pytest.raises(MaskRangeError):
        basis_mul(4, 0, 2)
    with pytest.raises(MaskRangeError):
        basis_mul(0, -1, 2)


def test_product_examples():
    a = parse_multivector("1 + e1", 2)
    b = parse_multivector("1 + e2", 2)
    assert mv_mul(a, b) == parse_multivector("1 + e1 + e2 + e12", 2)
    v = parse_multivector("e1 + e2", 2)
    assert mv_mul(v, v) == Multivector.from_scalar(2, -2.0)


def test_product_identity_random(rng):
    for n in range(0, 5):
        a = random_mv(rng, n, complex_=True)
        one = CMultivector.from_scalar(n, 1.0)
        assert isclose(one * a, a)
        assert isclose(a * one, a)


def test_rank_mismatch():
    with pytest.raises(RankMismatchError):
        mv_mul(Multivector.from_scalar(1, 1.0), Multivector.from_scalar(2, 1.0))


def test_involution_examples():
    assert involution(parse_multivector("e12", 2)) == parse_multivector("-e12", 2)
    assert involution(parse_multivector("1 + 2e1", 2)) == parse_multivector("1 - 2e1", 2)
    r = Multivector.from_scalar(3, 2.5)
    assert involution(r) == r


def test_involution_antiautomorphism(rng):
    for _ in range(25):
        n = int(rng.integers(0, 6))
        a, b = random_mv(rng, n, complex_=True), random_mv(rng, n, complex_=True)
        assert isclose(involution(a * b), involution(b) * involution(a))
        assert isclose(involution(involution(a)), a)


def test_conjugation_examples():
    c = CMultivector(2, [0, 1, 1j, 0])  # e1 + i e2
    assert conjugation_bar(c) == CMultivector(2, [0, 1, -1j, 0])


def test_conjugation_automorphism(rng):
    # multiplicative, additive, squares to the identity, fixes exactly
    # the elements with no complex part
    for _ in range(100):
        n = int(rng.integers(0, 5))
        c, d = random_mv(rng, n, complex_=True), random_mv(rng, n, complex_=True)
        assert isclose(conjugation_bar(c * d), conjugation_bar(c) * conjugation_bar(d))
        assert isclose(conjugation_bar(c + d), conjugation_bar(c) + conjugation_bar(d))
        assert isclose(conjugation_bar(conjugation_bar(c)), c)
        fixed = (conjugation_bar(c) - c).norm() <= 1e-12 * max(1.0, c.norm())
        assert fixed == (c.imag.norm() <= 1e-12 * max(1.0, c.norm()))


def test_norm_examples():
    assert norm(parse_multivector("1 + e1 + e2 + e12", 2)) == 2.0
    assert norm(Multivector.zero(3)) == 0.0


def test_norm_matches_paravector_identity(rng):
    for _ in range(50):
        n = int(rng.integers(0, 5))
        kappa = random_pv(rng, n, scale=2.0)
        product = kappa.to_multivector() * kappa.star().to_multivector()
        assert abs(product.scalar - norm(kappa.to_multivector()) ** 2) <= 1e-12 * max(
            1.0, kappa.norm() ** 2
        )
        assert product.nonscalar().norm() <= 1e-12 * max(1.0, kappa.norm() ** 2)


def test_norms_are_bit_identical_to_numpy(rng):
    for n in range(5):
        for value in (random_mv(rng, n), random_mv(rng, n, complex_=True)):
            assert value.norm() == float(np.linalg.norm(value.coeffs))
        kappa = random_pv(rng, n, scale=2.0)
        assert kappa.norm() == float(np.linalg.norm(kappa.components))
        assert kappa.vector_norm == float(np.linalg.norm(kappa.components[1:]))


def test_paravector_inverse_examples():
    k = Paravector(2, [1, 1, 0])
    assert isclose(paravector_inverse(k).to_multivector(), parse_multivector("0.5 - 0.5e1", 2))
    e1 = Paravector(2, [0, 1, 0])
    assert paravector_inverse(e1) == Paravector(2, [0, -1, 0])
    with pytest.raises(SingularInputError):
        paravector_inverse(Paravector(3, [0, 0, 0, 0]))


def test_paravector_inverse_multiply_back(rng):
    for _ in range(100):
        n = int(rng.integers(0, 5))
        kappa = random_pv(rng, n, scale=2.0)
        if kappa.norm() < 1e-3:
            continue
        product = kappa.to_multivector() * paravector_inverse(kappa).to_multivector()
        assert isclose(product, Multivector.from_scalar(n, 1.0))


def test_exhaustive_triple_associativity_small():
    for n in range(0, 4):
        dim = 1 << n
        for j in range(dim):
            for k in range(dim):
                s1, m1 = basis_mul(j, k, n)
                for l in range(dim):
                    sa, ma = basis_mul(m1, l, n)
                    s2, m2 = basis_mul(k, l, n)
                    sb, mb = basis_mul(j, m2, n)
                    assert (s1 * sa, ma) == (s2 * sb, mb)


def test_anticommutation():
    n = 5
    for j in range(1, n + 1):
        ej = Multivector.basis_blade(n, 1 << (j - 1))
        assert (ej * ej + 1).norm() == 0.0
        for k in range(j + 1, n + 1):
            ek = Multivector.basis_blade(n, 1 << (k - 1))
            assert (ej * ek + ek * ej).norm() == 0.0


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=4),
    data=st.data(),
)
def test_associativity_property(n, data):
    dim = 1 << n
    box = st.floats(min_value=-2, max_value=2, allow_nan=False)
    pick = lambda: Multivector(n, data.draw(st.lists(box, min_size=dim, max_size=dim)))
    a, b, c = pick(), pick(), pick()
    left = (a * b) * c
    right = a * (b * c)
    assert (left - right).norm() <= 1e-11 * max(1.0, a.norm() * b.norm() * c.norm())


def test_rank_zero_algebra():
    one = Multivector.from_scalar(0, 3.0)
    assert (one * one).scalar == 9.0
    assert involution(one) == one
    k = Paravector(0, [2.0])
    assert paravector_inverse(k) == Paravector(0, [0.5])
    assert norm(one) == 3.0


def test_text_format_roundtrip(rng):
    assert format_multivector(parse_multivector("1 - 2.5e13 + e2", 3)) == "1 + e2 - 2.5e13"
    for _ in range(20):
        n = int(rng.integers(0, 5))
        mv = random_mv(rng, n)
        assert parse_multivector(format_multivector(mv), n) == mv


def test_text_format_scientific_exponent():
    # a signed exponent is a number; an unsigned one spells a blade
    assert parse_multivector("1e+1", 3).scalar == 10.0
    assert parse_multivector("1e1", 3) == Multivector.basis_blade(3, 1)


def test_text_format_errors():
    with pytest.raises(FormatError):
        parse_multivector("", 2)
    with pytest.raises(FormatError):
        parse_multivector("1 + e21", 2)  # digits must increase
    with pytest.raises(MaskRangeError):
        parse_multivector("e3", 2)
    with pytest.raises(FormatError):
        parse_multivector("1 2", 2)  # missing operator


def test_json_roundtrip(rng):
    for _ in range(10):
        n = int(rng.integers(0, 5))
        mv = random_mv(rng, n)
        assert multivector_from_json(multivector_to_json(mv)) == mv
        cm = random_mv(rng, n, complex_=True)
        assert multivector_from_json(multivector_to_json(cm)) == cm
    sparse = multivector_from_json({"n": 2, "coeffs": {"": 1.0, "12": -2.0}})
    assert sparse == Multivector(2, [1, 0, 0, -2])


def test_immutability():
    mv = Multivector.from_scalar(2, 1.0)
    with pytest.raises(AttributeError):
        mv.n = 3
    with pytest.raises(ValueError):
        mv.coeffs[0] = 5.0


def test_mul_tables_match_basis_mul():
    from cliffcalc.algebra import _mul_tables

    for n in range(7):
        sign, partner = _mul_tables(n)
        dim = 1 << n
        for j in range(dim):
            for l in range(dim):
                assert partner[j, l] == j ^ l
                assert sign[j, l] == basis_mul(j, j ^ l, n)[0]


def test_power_by_squaring_matches_repeated_products(rng):
    for n in range(5):
        for _ in range(3):
            x = random_mv(rng, n, complex_=True, scale=0.6)
            expected = CMultivector.from_scalar(n, 1)
            for k in range(13):
                assert isclose(x ** k, expected, tol=1e-13)
                expected = expected * x


def test_large_power_is_fast():
    import cmath
    import time

    # 0.6 + 0.8 e1 multiplies like the unit complex number 0.6 + 0.8i
    start = time.perf_counter()
    value = Multivector(1, [0.6, 0.8]) ** 200000
    assert time.perf_counter() - start < 0.05
    expected = cmath.exp(200000j * cmath.phase(0.6 + 0.8j))
    assert abs(value.coeffs[0] - expected.real) <= 1e-9
    assert abs(value.coeffs[1] - expected.imag) <= 1e-9


def test_paravector_text_matches_the_multivector_text():
    from cliffcalc.algebra import format_multivector

    rng = np.random.default_rng(31)
    cases = [Paravector(0, [0.0]), Paravector(0, [-0.0]), Paravector(0, [-3.0]),
             Paravector(2, [-0.0, 0.0, -0.0]), Paravector(3, [1.0, -1.0, 2.0, -7.0]),
             Paravector(2, [1e16, -1e16, 9.999999999999998e15]),
             Paravector(3, [1e300, -1e-300, 5e-324, -1.7976931348623157e308])]
    for _ in range(200):
        n = int(rng.integers(0, 10))
        components = rng.normal(size=n + 1) * 10.0 ** rng.integers(-300, 300, size=n + 1)
        components[rng.random(n + 1) < 0.3] = 0.0
        whole = rng.random(n + 1) < 0.3
        components[whole] = rng.integers(-1000, 1000, size=whole.sum())
        cases.append(Paravector(n, components))
    for p in cases:
        assert str(p) == format_multivector(p.to_multivector())
        assert repr(p) == f"Paravector({p.n}, {format_multivector(p.to_multivector())!r})"
