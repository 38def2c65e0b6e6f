import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffcalc.algebra import CMultivector, Multivector
from cliffcalc.dsl import (
    Add,
    CliffLit,
    Func,
    Lit,
    Mul,
    Pow,
    Var,
    differentiate,
    evaluate,
    parse,
    pretty,
    stem_function,
)
from cliffcalc.errors import MaskRangeError, ParseError, SingularInputError
from cliffcalc.stem import verify_stem


def test_parse_examples():
    tree = parse("z^2 + (1+2e1)*z - e12", 2)
    assert tree == Sub_expected()
    assert parse("exp(3*z)", 2) == Func("exp", Mul(Lit(3 + 0j), Var()))


def Sub_expected():
    from cliffcalc.dsl import Sub

    return Sub(
        Add(Pow(Var(), 2), Mul(Add(Lit(1 + 0j), CliffLit(2 * Multivector.basis_blade(2, 1))), Var())),
        CliffLit(Multivector.basis_blade(2, 3)),
    )


def test_parse_rank_violation():
    with pytest.raises(MaskRangeError):
        parse("e5", 4)


def test_parse_syntax_errors_carry_position():
    with pytest.raises(ParseError) as excinfo:
        parse("z + * 2", 2)
    assert "position" in str(excinfo.value)
    with pytest.raises(ParseError):
        parse("exp(z", 2)
    with pytest.raises(ParseError):
        parse("z^z", 2)
    with pytest.raises(ParseError):
        parse("", 2)


def test_parse_rejects_nonscalar_divisor_and_arg():
    with pytest.raises(ParseError):
        parse("z/(e1)", 2)
    with pytest.raises(ParseError):
        parse("exp(e1*z)", 2)


def test_eval_examples():
    assert evaluate(parse("z", 2), 1 + 2j, 2) == CMultivector.from_scalar(2, 1 + 2j)
    assert evaluate(parse("e1*z", 2), 1j, 2) == CMultivector(2, [0, 1j, 0, 0])
    assert evaluate(parse("2.5e13", 3), 0.0, 3) == 2.5 * CMultivector.basis_blade(3, 0b101)


def test_eval_division_by_zero():
    with pytest.raises(SingularInputError):
        evaluate(parse("1/z", 1), 0.0, 1)


def test_eval_precedence():
    assert evaluate(parse("-2*z", 1), 3.0, 1).scalar == -6.0       # unary binds before *
    assert evaluate(parse("-z^2", 1), 2.0, 1).scalar == -4.0       # ^ binds before unary
    assert evaluate(parse("1+2*3", 1), 0.0, 1).scalar == 7.0
    assert evaluate(parse("2^3", 1), 0.0, 1).scalar == 8.0


def test_stem_identity_random(rng):
    sources = [
        "z^3 - 2*z + 1",
        "(1+2e1)*z^2 - e12*z",
        "exp(0.5*z)*z",
        "sin(z) + cosh(0.25*z)",
        "z^2/(z^2 + 4)",
        "(e1+e2)*z^4 - 3e12",
    ]
    for src in sources:
        expr = parse(src, 2)
        for _ in range(170):
            lam = complex(rng.normal(scale=2.0), rng.normal(scale=2.0))
            value = evaluate(expr, lam, 2)
            mirrored = evaluate(expr, lam.conjugate(), 2)
            defect = (mirrored - value.bar()).norm()
            assert defect <= 1e-12 * max(1.0, value.norm())


def test_differentiate_examples():
    assert pretty(differentiate(parse("z^2", 2))) == "2*z"
    assert pretty(differentiate(parse("exp(3*z)", 2))) == "3*exp(3*z)"
    assert pretty(differentiate(parse("cos(z)", 2))) == "-sin(z)"


def test_differentiate_finite_difference(rng):
    sources = [
        "z^4 - 2*z^2 + z",
        "exp(0.5*z)*z^2",
        "(1+2e1)*z^3 - e12*z",
        "sin(z)*cos(0.5*z)",
        "z/(z^2 + 4)",
        "(e1*z + e2*z^2)^2",
    ]
    h = 1e-5
    for src in sources:
        expr = parse(src, 2)
        derived = differentiate(expr)
        for _ in range(10):
            z = complex(rng.normal(), rng.normal())
            fd = (evaluate(expr, z + h, 2) - evaluate(expr, z - h, 2)) / (2 * h)
            sym = evaluate(derived, z, 2)
            assert (fd - sym).norm() <= 1e-6 * max(1.0, sym.norm())


def test_derivative_stays_in_dsl(rng):
    F = stem_function("exp(0.5*z)*(1+e1)*z^2", 2)
    G = F.differentiated()
    ok, worst = verify_stem(G, G.domain, 64)
    assert ok, worst


def test_pretty_roundtrip_corpus():
    corpus = [
        "z^2 + (1 + 2e1)*z - e12",
        "exp(3*z)",
        "-z^3 + 2*z",
        "sin(z)/z",
        "(e1 + e2)*z^2",
        "1 - 2.5e13 + e2",
        "cosh(0.25*z)*(1 - z)",
        "z^2/(z^2 + 4)",
        "-(z + 1)*e1",
        "z^2 - (z - 1)",
    ]
    for src in corpus:
        tree = parse(src, 3)
        assert pretty(tree) == src
        assert parse(pretty(tree), 3) == tree


@settings(max_examples=60, deadline=None)
@given(
    coeffs=st.lists(st.integers(min_value=-8, max_value=8), min_size=1, max_size=5),
    point=st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
)
def test_polynomial_eval_matches_horner(coeffs, point):
    src = " + ".join(f"({c})*z^{k}" for k, c in enumerate(coeffs))
    value = evaluate(parse(src, 1), point, 1).scalar
    expected = 0j
    for c in reversed(coeffs):
        expected = expected * point + c
    assert abs(value - expected) <= 1e-9 * max(1.0, abs(expected))


def test_every_parsed_expression_is_stem(rng):
    from cliffcalc.verify import random_stem_source

    for _ in range(20):
        n = int(rng.integers(1, 4))
        F = stem_function(random_stem_source(rng, n), n)
        ok, worst = verify_stem(F, F.domain, 128)
        assert ok, (F.label, worst)


def test_pole_detection():
    F = stem_function("z/(z^2+4)", 1)
    poles = sorted(F.domain.punctures, key=lambda p: p.imag)
    assert len(poles) == 2
    assert abs(poles[0] + 2j) < 1e-6 and abs(poles[1] - 2j) < 1e-6
    assert not F.domain.contains(2j)
    assert F.domain.contains(1.9j)


def test_programmatic_nonstem_trees():
    bad = stem_function(Mul(Lit(1j), Var()), 2)
    ok, worst = verify_stem(bad, bad.domain, 64)
    assert not ok and worst > 0.1


# -- compiled batch evaluation --------------------------------------------------

def reference_eval(e, z, n):
    """Per-point tree walk over Multivector arithmetic and cmath: an
    independent check on the compiled evaluator."""
    import cmath

    from cliffcalc.dsl import CliffLit, Div, Func, Lit, Neg, Pow, Sub, Var

    def scalar(value):
        return complex(value.coeffs[0]) if isinstance(value, (Multivector, CMultivector)) \
            else complex(value)

    def walk(e):
        if isinstance(e, Lit):
            return complex(e.value)
        if isinstance(e, CliffLit):
            return e.value
        if isinstance(e, Var):
            return z
        if isinstance(e, Add):
            return walk(e.left) + walk(e.right)
        if isinstance(e, Sub):
            return walk(e.left) - walk(e.right)
        if isinstance(e, Mul):
            return walk(e.left) * walk(e.right)
        if isinstance(e, Div):
            return walk(e.left) * (1.0 / scalar(walk(e.right)))
        if isinstance(e, Neg):
            return -walk(e.inner)
        if isinstance(e, Pow):
            out = 1.0
            for _ in range(e.exponent):
                out = out * walk(e.base)
            return out
        if isinstance(e, Func):
            return getattr(cmath, e.name)(scalar(walk(e.arg)))
        raise TypeError(e)

    value = walk(e)
    if isinstance(value, (Multivector, CMultivector)):
        return value.coeffs.astype(complex)
    return CMultivector.from_scalar(n, value).coeffs


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=4),
    rational=st.booleans(),
    squared=st.booleans(),
    order=st.integers(min_value=0, max_value=2),
)
def test_batch_matches_pointwise(seed, n, rational, squared, order):
    from cliffcalc.stem import PlanarDomain
    from cliffcalc.verify import random_stem_source

    rng = np.random.default_rng(seed)
    src = random_stem_source(rng, n, entire_prob=0.5)
    if squared:  # a power of a Clifford-valued base
        src = f"({src})^2"
    if rational:  # poles at |z| >= 2.8, outside the sampled disk
        c = round(float(rng.uniform(8.0, 16.0)), 3)
        src = f"({src})/(z^2 {'+' if rng.random() < 0.5 else '-'} {c})"
    expr = parse(src, n)
    for _ in range(order):
        expr = differentiate(expr)
    F = stem_function(expr, n, domain=PlanarDomain.disk(0, 10.0))
    zs = 2.5 * np.sqrt(rng.random(16)) * np.exp(2j * np.pi * rng.random(16))
    batch = F.values_at(zs)
    assert batch.shape == (16, 1 << n)
    for z, row in zip(zs, batch):
        ref = reference_eval(expr, complex(z), n)
        scale = max(1.0, float(np.linalg.norm(ref)))
        assert np.linalg.norm(row - ref) <= 1e-13 * scale, (src, order, z)
        assert np.linalg.norm(row - evaluate(expr, z, n).coeffs) <= 1e-13 * scale


def test_blackbox_values_at_loops_over_points():
    from cliffcalc.stem import PlanarDomain, StemFunction

    F = StemFunction(n=1, fn=lambda z: CMultivector(1, [z, 2 * z]), domain=PlanarDomain.disk())
    assert F.batch is None
    assert np.array_equal(F.values_at(np.array([1j, 2.0])), [[1j, 2j], [2.0, 4.0]])


def test_batch_division_reports_first_singular_point():
    from cliffcalc.stem import PlanarDomain

    F = stem_function("1/(z - 1)", 1, domain=PlanarDomain.disk(0, 10.0))
    with pytest.raises(SingularInputError, match=r"z=\(1\+0j\)"):
        F.values_at(np.array([0.5, 1.0, 2.0, 1.0]))


def test_large_exponent_by_squaring():
    import time

    start = time.perf_counter()
    value = evaluate(parse("(0.6 + 0.8e1)^200000 + z^2000000", 1), 1.0, 1)
    assert time.perf_counter() - start < 0.05
    a, b = (value.coeffs - [1.0, 0.0]).real  # the power has modulus one
    assert abs(np.hypot(a, b) - 1.0) < 1e-9


def test_nonfinite_values_raise_numeric_error():
    from cliffcalc.errors import NumericError

    F = stem_function("exp(1000*z)", 1)
    with pytest.raises(NumericError):
        F(1.0)
    with pytest.raises(NumericError):
        stem_function("(1+e1)^200000", 1)(0.0)


def test_parse_rejects_nonfinite_literals():
    with pytest.raises(ParseError):
        parse("1e+400*z", 1)
    assert parse("1e-400*z", 1) == Mul(Lit(0j), Var())


def test_parse_caps_nesting_depth():
    from cliffcalc.dsl import MAX_DEPTH

    assert parse("(" * 50 + "z" + ")" * 50, 1) == Var()
    for src in ["(" * 300 + "z" + ")" * 300,
                "exp(" * 300 + "z" + ")" * 300,
                "-" * 300 + "z",
                " + ".join(["z"] * (MAX_DEPTH + 1))]:
        with pytest.raises(ParseError):
            parse(src, 1)


def test_derivative_of_large_clifford_power_stays_shallow():
    # e1*z + 1 commutes with its derivative e1, so (u^k)' = k e1 u^(k-1)
    D = stem_function("(e1*z + 1)^1500", 1).differentiated()
    z = 0.01
    u = Multivector(1, [1.0, z])
    expected = Multivector(1, [0.0, 1500.0]) * (u ** 1499)
    value = D(z)
    assert np.linalg.norm(value.coeffs - expected.coeffs) <= 1e-12 * expected.norm()


@pytest.mark.parametrize("base, exponent", [
    ("e1*z + 1", 2), ("e1 + e2*z", 3), ("(1+e12)*z - e1", 5), ("e1*z^2 + e2", 7),
])
def test_clifford_power_derivative_matches_term_sum(base, exponent):
    # reference: the sum of u^i u' u^(k-1-i) over i, from values of u and u'
    n = 2
    U = stem_function(base, n)
    dU = U.differentiated()
    F = stem_function(f"({base})^{exponent}", n)
    for z in [0.3 + 0.2j, -1.1 + 0.5j, 0.7, 2j]:
        u, du = U(z), dU(z)
        powers = [CMultivector.from_scalar(n, 1.0)]
        for _ in range(exponent - 1):
            powers.append(powers[-1] * u)
        reference = CMultivector.zero(n)
        for i in range(exponent):
            reference = reference + powers[i] * du * powers[exponent - 1 - i]
        value = F.differentiated()(z)
        assert (value - reference).norm() <= 1e-13 * max(1.0, reference.norm()), z


# -- the tree rules, checked where a tree compiles ---------------------------------

import numbers  # noqa: E402

import cliffcalc.errors  # noqa: E402
from cliffcalc.dsl import _FUNCTIONS, Div, Neg, Sub, is_scalar_expr  # noqa: E402

E1 = Multivector.basis_blade(1, 1)
NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("tree, error", [
    (Div(Lit(1), CliffLit(E1)), "DomainError"),
    (Func("tan", Var()), "ParseError"),
    (Func("exp", Mul(CliffLit(E1), Var())), "DomainError"),
    (Pow(Var(), 2.5), "DomainError"),
    (Pow(Var(), True), "DomainError"),
    (42, "FormatError"),
    (Add(Var(), None), "FormatError"),
    (Lit(INF), "ParseError"),
    (Lit(complex(0.0, NAN)), "ParseError"),
    (Lit(10**400), "ParseError"),
    (Lit("abc"), "ParseError"),
    (CliffLit(Multivector(1, [NAN, 1.0])), "ParseError"),
    (CliffLit(42), "ParseError"),
])
def test_hand_built_trees_that_break_a_rule_are_refused(tree, error):
    expected = getattr(cliffcalc.errors, error)
    with pytest.raises(expected):
        evaluate(tree, 0.5, 1)
    with pytest.raises(expected):
        stem_function(tree, 1)


def test_negative_exponent_is_refused_not_looped():
    # repeated squaring never reaches zero from -1, so this must fail before it runs
    import os
    import subprocess
    import sys
    from pathlib import Path

    probe = ("from cliffcalc.dsl import Pow, Var, evaluate, stem_function\n"
             "from cliffcalc.errors import DomainError\n"
             "for call in (lambda: evaluate(Pow(Var(), -1), 2.0, 1),\n"
             "             lambda: stem_function(Pow(Var(), -1), 1)):\n"
             "    try:\n"
             "        call()\n"
             "    except DomainError:\n"
             "        continue\n"
             "    raise SystemExit('no DomainError')\n")
    src = Path(__import__("cliffcalc").__file__).resolve().parent.parent
    path = os.pathsep.join([str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
                   timeout=60, check=True)


def test_numpy_integer_exponent_is_an_exponent():
    assert evaluate(Pow(Var(), np.int64(3)), 0.5 + 1j, 1) == evaluate(Pow(Var(), 3), 0.5 + 1j, 1)
    assert stem_function(Pow(Var(), np.int64(2)), 1).label == "z^2"


def test_printer_and_differentiator_refuse_non_nodes():
    with pytest.raises(cliffcalc.errors.FormatError):
        pretty(Add(Var(), 42))
    with pytest.raises(cliffcalc.errors.FormatError):
        differentiate(Mul(Var(), "z"))


def reference_rule_break(e):
    """Name of the error a hand-built tree must raise, or None for a tree that
    keeps every rule: the tree walk of the rules, children first, as a check
    on the checks inside the compiler."""
    if isinstance(e, Lit):
        try:
            finite = isinstance(e.value, numbers.Number) and np.isfinite(complex(e.value))
        except OverflowError:
            finite = False
        return None if finite else "ParseError"
    if isinstance(e, CliffLit):
        finite = isinstance(e.value, Multivector) and np.isfinite(e.value.coeffs).all()
        return None if finite else "ParseError"
    if isinstance(e, Var):
        return None
    if isinstance(e, (Add, Sub, Mul, Div)):
        children = [e.left, e.right]
    elif isinstance(e, Neg):
        children = [e.inner]
    elif isinstance(e, Pow):
        children = [e.base]
    elif isinstance(e, Func):
        children = [e.arg]
    else:
        return "FormatError"
    for child in children:
        broken = reference_rule_break(child)
        if broken:
            return broken
    if isinstance(e, Func):
        if e.name not in _FUNCTIONS:
            return "ParseError"
        if not is_scalar_expr(e.arg):
            return "DomainError"
    if isinstance(e, Div) and not is_scalar_expr(e.right):
        return "DomainError"
    k = getattr(e, "exponent", 0)
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 0:
        return "DomainError"
    return None


def hand_built_trees():
    valid = st.sampled_from([Var(), Lit(0j), Lit(1.5), Lit(-2j), CliffLit(E1),
                             CliffLit(Multivector(1, [2.0, 0.0])),
                             CliffLit(Multivector(1, [0.5, -1.0]))])
    junk = st.sampled_from([Lit(NAN), Lit(INF), Lit(complex(1, INF)),
                            CliffLit(Multivector(1, [NAN, 0.0])),
                            CliffLit(Multivector(1, [0.0, INF])),
                            Lit("abc"), Lit(10**400), CliffLit(42),
                            42, 2.5j, None, Multivector(1, [1.0, NAN])])
    # one leaf in ten is junk, so that about half the trees keep every rule
    leaves = st.integers(0, 9).flatmap(lambda k: junk if k == 0 else valid)

    def extend(children):
        return st.one_of(
            st.builds(Add, children, children),
            st.builds(Sub, children, children),
            st.builds(Mul, children, children),
            st.builds(Div, children, children),
            st.builds(Neg, children),
            st.builds(Pow, children, st.sampled_from([0, 1, 2, 3, np.int64(2), -1, 2.5, True])),
            st.builds(Func, st.sampled_from(["exp", "sin", "cos", "sinh", "cosh", "tan"]),
                      children),
        )

    return st.recursive(leaves, extend, max_leaves=8)


def _outcome(call):
    try:
        return call()
    except cliffcalc.errors.ToolkitError as exc:
        return type(exc).__name__


@settings(max_examples=300, deadline=None, derandomize=True)
@given(tree=hand_built_trees())
def test_hand_built_trees_evaluate_or_raise_a_toolkit_error(tree):
    z = 0.3 + 0.7j
    direct = _outcome(lambda: evaluate(tree, z, 1).coeffs)
    F = _outcome(lambda: stem_function(tree, 1))
    broken = reference_rule_break(tree)
    if broken:
        assert direct == F == broken, tree
    elif isinstance(F, str):
        # the pole scan may meet a zero of an inner divisor on its grid
        assert F == "SingularInputError", tree
    else:
        batch = _outcome(lambda: F.values_at(np.array([z]))[0])
        if isinstance(direct, str) or isinstance(batch, str):
            assert direct == batch, tree
        else:
            assert direct.tobytes() == batch.tobytes(), tree
