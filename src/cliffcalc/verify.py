"""Named invariant suites over randomized inputs, with fixed seeds.

Each suite draws its inputs from a seeded generator, exercises one family of
identities at the documented tolerances, and reports the worst residual per
check.  The CLI ``check`` command runs them by name; the acceptance tests
run them with the pinned counts and tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import dsl, operators as ops, spectral, stem
from .algebra import CMultivector, Multivector, Paravector, basis_mul, format_multivector
from .contour import CauchyTransform, build_contour, cauchy_transform, slice_regularity_residual
from .errors import InputError
from .stem import PlanarDomain, StemFunction, evaluate_stem, slice_lift, slice_point

__all__ = [
    "Check",
    "SuiteResult",
    "SUITES",
    "run_suite",
    "suite_names",
    "random_multivector",
    "random_paravector",
    "random_nonreal_paravector",
    "random_unit_imaginary",
    "random_operator",
    "random_stem_source",
    "random_scalar_stem_source",
    "nonstem_functions",
]


@dataclass
class Check:
    name: str
    passed: bool
    worst: float
    tolerance: float
    detail: str = ""

    def to_json(self) -> dict:
        out = {
            "name": self.name,
            "passed": self.passed,
            "worst": self.worst,
            "tolerance": self.tolerance,
        }
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass
class SuiteResult:
    suite: str
    checks: list[Check] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, worst: float, tolerance: float, detail: str = "") -> None:
        self.checks.append(Check(name, worst <= tolerance, float(worst), tolerance, detail))

    def add_flag(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append(Check(name, ok, 0.0 if ok else 1.0, 0.5, detail))

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "checks": [c.to_json() for c in self.checks],
        }


# -- random input factories -----------------------------------------------------

def random_multivector(rng, n: int, scale: float = 1.0, complex_: bool = False):
    coeffs = rng.normal(scale=scale, size=1 << n)
    if complex_:
        return CMultivector(n, coeffs + 1j * rng.normal(scale=scale, size=1 << n))
    return Multivector(n, coeffs)


def random_paravector(rng, n: int, scale: float = 1.0) -> Paravector:
    return Paravector(n, rng.normal(scale=scale, size=n + 1))


def random_nonreal_paravector(rng, n: int, scale: float = 1.0) -> Paravector:
    while True:
        kappa = random_paravector(rng, n, scale)
        if kappa.vector_norm > 0.2 * scale:
            return kappa


def random_unit_imaginary(rng, n: int) -> Paravector:
    while True:
        v = rng.normal(size=n)
        length = np.linalg.norm(v)
        if length > 1e-3:
            return Paravector(n, np.concatenate([[0.0], v / length]))


def random_operator(rng, d: int, n: int, scale: float = 0.7) -> ops.CliffordOperator:
    components = {}
    for mask in range(1 << n):
        if mask == 0 or rng.random() < 0.8:
            components[mask] = rng.normal(scale=scale, size=(d, d))
    return ops.CliffordOperator(d, n, components)


def _round_mv(rng, n: int, blades: int, scale: float) -> Multivector:
    coeffs = np.zeros(1 << n)
    for _ in range(blades):
        coeffs[rng.integers(0, 1 << n)] = round(float(rng.uniform(-scale, scale)), 3)
    if np.all(coeffs == 0.0):
        coeffs[0] = 1.0
    return Multivector(n, coeffs)


def random_stem_source(rng, n: int, max_degree: int = 4, entire_prob: float = 0.35) -> str:
    """Random DSL source: Clifford-coefficient polynomial, occasionally
    multiplied by an entire scalar factor."""
    degree = int(rng.integers(1, max_degree + 1))
    terms = []
    for k in range(degree + 1):
        if k != degree and rng.random() < 0.35:
            continue
        text = format_multivector(_round_mv(rng, n, blades=int(rng.integers(1, 3)), scale=1.5))
        if k == 0:
            terms.append(f"({text})")
        elif k == 1:
            terms.append(f"({text})*z")
        else:
            terms.append(f"({text})*z^{k}")
    src = " + ".join(terms)
    if rng.random() < entire_prob:
        name = ["exp", "sin", "cos", "sinh", "cosh"][int(rng.integers(0, 5))]
        c = round(float(rng.uniform(0.1, 0.6)), 3)
        src = f"({src})*{name}({c}*z)"
    return src


def random_scalar_stem_source(rng, max_degree: int = 3, entire_prob: float = 0.3) -> str:
    degree = int(rng.integers(1, max_degree + 1))
    terms = []
    for k in range(degree + 1):
        c = round(float(rng.uniform(-1.5, 1.5)), 3)
        if c == 0.0:
            continue
        if k == 0:
            terms.append(f"({c})")
        elif k == 1:
            terms.append(f"({c})*z")
        else:
            terms.append(f"({c})*z^{k}")
    src = " + ".join(terms) if terms else "z"
    if rng.random() < entire_prob:
        name = ["exp", "sin", "cos"][int(rng.integers(0, 3))]
        c = round(float(rng.uniform(0.1, 0.5)), 3)
        src = f"({src})*{name}({c}*z)"
    return src


def nonstem_functions(n: int) -> list[StemFunction]:
    """Ten hand-built functions violating the stem identity (complex
    literals have no surface syntax, so these are assembled as trees)."""
    from .dsl import Add, CliffLit, Func, Lit, Mul, Pow, Var

    e_first = CliffLit(Multivector.basis_blade(n, 1)) if n >= 1 else Lit(1.0)
    trees = [
        Lit(1j),
        Mul(Lit(1j), Var()),
        Mul(Lit(1j), e_first),
        Add(Var(), Lit(1j)),
        Mul(Lit(1j), Pow(Var(), 2)),
        Add(Mul(Lit(1j), Var()), e_first),
        Mul(Lit(1 + 0.5j), Var()),
        Mul(Lit(1j), Func("exp", Mul(Lit(0.5), Var()))),
        Add(Pow(Var(), 2), Mul(Lit(2j), e_first)),
        Mul(Lit(0.25j), Func("sin", Var())),
    ]
    return [dsl.stem_function(tree, n) for tree in trees]


# -- suites -----------------------------------------------------------------------

def suite_algebra(seed: int = 0, max_exhaustive: int = 5, max_dense: int = 6,
                  tol: float = 1e-12) -> SuiteResult:
    result = SuiteResult("algebra")
    rng = np.random.default_rng(seed)

    bad = 0
    for n in range(max_exhaustive + 1):
        dim = 1 << n
        for j in range(dim):
            for k in range(dim):
                s1, m1 = basis_mul(j, k, n)
                for l in range(dim):
                    sa, ma = basis_mul(m1, l, n)
                    s2, m2 = basis_mul(k, l, n)
                    sb, mb = basis_mul(j, m2, n)
                    if (s1 * sa, ma) != (s2 * sb, mb):
                        bad += 1
    result.add_flag(f"exhaustive blade-triple associativity n<={max_exhaustive}", bad == 0,
                    detail=f"{bad} violations")

    worst = 0.0
    for n in range(max_dense + 1):
        for _ in range(4):
            a, b, c = (random_multivector(rng, n, complex_=True) for _ in range(3))
            scale = max(1.0, a.norm() * b.norm() * c.norm())
            worst = max(worst, ((a * b) * c - a * (b * c)).norm() / scale)
    result.add(f"random dense associativity n<={max_dense}", worst, tol)

    worst = 0.0
    for n in range(1, max_dense + 1):
        for j in range(1, n + 1):
            ej = Multivector.basis_blade(n, 1 << (j - 1))
            worst = max(worst, (ej * ej + 1).norm())
            for k in range(j + 1, n + 1):
                ek = Multivector.basis_blade(n, 1 << (k - 1))
                worst = max(worst, (ej * ek + ek * ej).norm())
    result.add("anti-commutation and unit squares", worst, 0.0)

    worst = 0.0
    for n in range(max_dense + 1):
        for _ in range(4):
            a = random_multivector(rng, n, complex_=True)
            b = random_multivector(rng, n, complex_=True)
            scale = max(1.0, a.norm() * b.norm())
            worst = max(worst, ((a * b).star() - b.star() * a.star()).norm() / scale)
            worst = max(worst, (a.star().star() - a).norm() / max(1.0, a.norm()))
            worst = max(worst, ((a * b).bar() - a.bar() * b.bar()).norm() / scale)
            worst = max(worst, (a.bar().bar() - a).norm() / max(1.0, a.norm()))
    result.add("involution and conjugation identities", worst, tol)
    return result


def suite_paravector(seed: int = 0, count: int = 1000, tol: float = 1e-12) -> SuiteResult:
    result = SuiteResult("paravector")
    rng = np.random.default_rng(seed)
    worst_identity = 0.0
    worst_resolvent = 0.0
    for _ in range(count):
        n = int(rng.integers(0, 5))
        kappa = random_paravector(rng, n, scale=2.0)
        product = kappa.to_multivector() * kappa.star().to_multivector()
        scale = max(1.0, kappa.norm() ** 2)
        worst_identity = max(
            worst_identity,
            abs(product.scalar - kappa.norm() ** 2) / scale,
            product.nonscalar().norm() / scale,
        )
        lam = complex(rng.normal(scale=2.0), rng.normal(scale=2.0))
        data = spectral.eigenvalues(kappa)
        if min(abs(lam - s) for s in data.points) < 1e-3:
            continue
        res = spectral.resolvent(lam, kappa)
        shifted = lam - kappa.to_cmultivector()
        one = CMultivector.from_scalar(n, 1.0)
        worst_resolvent = max(
            worst_resolvent,
            (shifted * res - one).norm(),
            (res * shifted - one).norm(),
        )
    result.add("scalar(k k*) = |k|^2 with no higher grades", worst_identity, tol)
    result.add("resolvent multiply-back = 1 (both sides)", worst_resolvent, tol)
    return result


def suite_projections(seed: int = 0, count: int = 500, tol: float = 1e-12) -> SuiteResult:
    result = SuiteResult("projections")
    rng = np.random.default_rng(seed)
    worst_idem = 0.0
    worst_decomp = 0.0
    for _ in range(count):
        n = int(rng.integers(1, 5))
        kappa = random_nonreal_paravector(rng, n)
        a = random_multivector(rng, n, complex_=True)
        data = spectral.eigenvalues(kappa)
        ip, im = data.iota_plus, data.iota_minus
        one = CMultivector.from_scalar(n, 1.0)
        worst_idem = max(
            worst_idem,
            (ip * ip - ip).norm(),
            (im * im - im).norm(),
            (ip * im).norm(),
            (im * ip).norm(),
            (ip + im - one).norm(),
        )
        scale = 1.0 + kappa.norm() * a.norm()
        worst_decomp = max(worst_decomp,
                           spectral.spectral_decomposition_residual(kappa, a) / scale)
    result.add("idempotent algebra of the spectral projections", worst_idem, tol)
    result.add("left-multiplication eigen-decomposition residual", worst_decomp, tol)
    return result


def suite_stem_realness(seed: int = 0, stem_count: int = 50, kappa_count: int = 50,
                   nonstem_count: int = 10, tol: float = 1e-10,
                   witness_floor: float = 1e-3) -> SuiteResult:
    result = SuiteResult("stem-realness")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(stem_count):
        n = int(rng.integers(1, 5))
        F = dsl.stem_function(random_stem_source(rng, n), n)
        for _ in range(kappa_count):
            kappa = random_paravector(rng, n, scale=1.5)
            value = evaluate_stem(F, kappa)
            worst = max(worst, value.imag.norm() / max(1.0, value.norm()))
    result.add("stem functions land in the real algebra", worst, tol)

    n = 3
    missing = 0
    smallest_witness = float("inf")
    for F in nonstem_functions(n)[:nonstem_count]:
        found = 0.0
        for _ in range(64):
            kappa = random_nonreal_paravector(rng, n, scale=1.5)
            value = evaluate_stem(F, kappa)
            found = max(found, value.imag.norm())
            if found > witness_floor:
                break
        smallest_witness = min(smallest_witness, found)
        if found <= witness_floor:
            missing += 1
    result.add_flag(
        f"non-stem witnesses found (> {witness_floor:g})",
        missing == 0,
        detail=f"weakest witness {smallest_witness:.3g}",
    )
    return result


def suite_agreement(seed: int = 0, count: int = 100, tol: float = 1e-8,
                    independence_tol: float = 1e-10) -> SuiteResult:
    result = SuiteResult("agreement")
    rng = np.random.default_rng(seed)
    worst_agreement = 0.0
    worst_independence = 0.0
    for _ in range(count):
        n = int(rng.integers(1, 5))
        F = dsl.stem_function(random_stem_source(rng, n), n)
        kappa = random_paravector(rng, n, scale=1.5)
        direct = evaluate_stem(F, kappa)
        via_contour = cauchy_transform(F, kappa, radius_fraction=0.5)
        scale = max(1.0, direct.norm())
        worst_agreement = max(worst_agreement, (via_contour - direct).norm() / scale)
        other = cauchy_transform(F, kappa, radius_fraction=0.35)
        worst_independence = max(worst_independence, (via_contour - other).norm() / scale)
    result.add("contour transform agrees with the direct formula", worst_agreement, tol)
    result.add("independence of the contour radius policy", worst_independence, independence_tol)
    return result


def suite_regularity(seed: int = 0, fn_count: int = 20, point_count: int = 20,
                     h: float = 1e-4, tol: float = 1e-6,
                     witness_floor: float = 0.5) -> SuiteResult:
    result = SuiteResult("regularity")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(fn_count):
        n = int(rng.integers(1, 4))
        F = dsl.stem_function(random_stem_source(rng, n, max_degree=3), n)
        for _ in range(point_count):
            x = float(rng.uniform(-1.5, 1.5))
            y = float(rng.uniform(0.4, 1.8))
            s_unit = random_unit_imaginary(rng, n)
            kappa = slice_point(n, x, y, s_unit)
            data = spectral.eigenvalues(kappa)
            evaluator = CauchyTransform(F, spectrum_hint=data.points)
            worst = max(worst, slice_regularity_residual(evaluator, kappa, h=h))
    result.add("slice Cauchy-Riemann residual of contour transforms", worst, tol)

    n = 2
    anti = lambda kappa: kappa.star().to_cmultivector()
    residual = slice_regularity_residual(anti, Paravector(n, [0.4, 0.8, 0.3]), h=h)
    result.add_flag(
        f"anti-regular witness residual >= {witness_floor}",
        residual >= witness_floor,
        detail=f"residual {residual:.3g}",
    )
    return result


def suite_multiplicativity(seed: int = 0, count: int = 100, tol: float = 1e-8,
                           poly_tol: float = 1e-10) -> SuiteResult:
    result = SuiteResult("multiplicativity")
    rng = np.random.default_rng(seed)

    worst = 0.0
    for _ in range(count):
        n = int(rng.integers(1, 5))
        F = dsl.stem_function(random_stem_source(rng, n, max_degree=3), n)
        f = dsl.stem_function(random_scalar_stem_source(rng), n)
        kappa = random_paravector(rng, n, scale=1.5)
        scale = max(1.0, evaluate_stem(F, kappa).norm() * evaluate_stem(f, kappa).norm())
        worst = max(worst, stem.product_rule_residual(F, f, kappa) / scale)
    result.add("value of product = product of values (paravector)", worst, tol)

    worst = 0.0
    for _ in range(12):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(1, 3))
        T = random_operator(rng, d, n)
        f = dsl.stem_function(random_scalar_stem_source(rng), n)
        g = dsl.stem_function(random_scalar_stem_source(rng), n)
        fg = ops.riesz_dunford_eval(f * g, T)
        split = ops.riesz_dunford_eval(f, T).compose(ops.riesz_dunford_eval(g, T))
        scale = max(1.0, fg.frobenius())
        worst = max(worst, (fg - split).frobenius() / scale)
    result.add("operator calculus is multiplicative on scalar functions", worst, tol)

    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 5))
        degree = int(rng.integers(1, 5))
        coeffs = [_round_mv(rng, n, blades=2, scale=1.5) for _ in range(degree + 1)]
        src = " + ".join(
            f"({format_multivector(c)})" + ("" if k == 0 else f"*z^{k}" if k > 1 else "*z")
            for k, c in enumerate(coeffs)
        )
        P = dsl.stem_function(src, n)
        kappa = random_paravector(rng, n, scale=1.5)
        km = kappa.to_multivector()
        direct = Multivector.zero(n)
        power = Multivector.from_scalar(n, 1.0)
        for c in coeffs:
            direct = direct + c * power
            power = power * km
        value = evaluate_stem(P, kappa)
        worst = max(worst, (value - direct.to_cmultivector()).norm() / max(1.0, direct.norm()))
    result.add("polynomial calculus equals direct powers (paravector)", worst, poly_tol)

    worst = 0.0
    for _ in range(8):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(1, 3))
        T = random_operator(rng, d, n)
        degree = int(rng.integers(1, 4))
        matrices = [random_operator(rng, d, n) for _ in range(degree + 1)]
        mats = [A.matrix() for A in matrices]

        def matrix_fn(z: complex) -> np.ndarray:
            out = np.zeros_like(mats[0])
            zk = 1.0 + 0j
            for A in mats:
                out = out + A * zk
                zk *= z
            return out

        contour = build_contour(
            ops.complex_spectrum(T).eigenvalues, PlanarDomain.disk(0, 10.0))
        S = ops.riesz_dunford_matrix(matrix_fn, T, contour)
        direct = np.zeros_like(S)
        for k, A in enumerate(mats):
            direct = direct + A @ ops.complexify(T.power(k))
        worst = max(worst, float(np.linalg.norm(S - direct)) /
                    max(1.0, float(np.linalg.norm(direct))))
    result.add("operator polynomial calculus equals direct powers", worst, poly_tol)
    return result


def suite_operator_spectra(seed: int = 0, count: int = 200, pairing_tol: float = 1e-10
                           ) -> SuiteResult:
    result = SuiteResult("operator-spectra")
    rng = np.random.default_rng(seed)
    disagreements = 0
    worst_pairing = 0.0
    for index in range(count):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(0, 3))
        T = random_operator(rng, d, n)
        spectrum = ops.complex_spectrum(T)
        worst_pairing = max(worst_pairing, spectrum.pairing_defect())
        if index % 4 == 0 and n >= 1:
            # constructed member: lift an eigenvalue to a paravector
            lam = spectrum.eigenvalues[int(rng.integers(0, len(spectrum.eigenvalues)))]
            kappa = slice_point(n, lam.real, abs(lam.imag), random_unit_imaginary(rng, n))
        else:
            kappa = random_paravector(rng, n, scale=1.2)
        direct = bool(ops.clifford_spectrum_contains(T, kappa))
        data = spectral.eigenvalues(kappa)
        distance = min(
            abs(lam - s) for lam in spectrum.eigenvalues for s in data.points
        )
        via_eigen = distance < 1e-6 * (1.0 + max(abs(x) for x in spectrum.eigenvalues))
        if direct != via_eigen:
            disagreements += 1
    result.add_flag(
        "pencil singularity agrees with eigenvalue intersection",
        disagreements == 0,
        detail=f"{disagreements} disagreements of {count}",
    )
    result.add("conjugate-symmetric eigenvalue pairing", worst_pairing, pairing_tol)

    # slice representatives reconstruct the complex spectrum
    worst = 0.0
    for _ in range(10):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(1, 3))
        T = random_operator(rng, d, n)
        s_unit = random_unit_imaginary(rng, n)
        reps = ops.clifford_spectrum_slice(T, s_unit)
        reconstructed = []
        for kappa in reps:
            reconstructed.extend(spectral.eigenvalues(kappa).points)
        worst = max(worst, ops.hausdorff_distance(
            reconstructed, ops.complex_spectrum(T).eigenvalues))
        for kappa in reps:
            if not ops.clifford_spectrum_contains(T, kappa):
                worst = max(worst, 1.0)
    result.add("slice representatives reconstruct the complex spectrum", worst, 1e-8)
    return result


def suite_flat_invariance(seed: int = 0, stem_count: int = 10, tol: float = 1e-9,
                          witness_floor: float = 1e-3) -> SuiteResult:
    result = SuiteResult("flat-invariance")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(stem_count):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(1, 3))
        T = random_operator(rng, d, n)
        F = dsl.stem_function(random_stem_source(rng, n, max_degree=3), n)
        S = ops.riesz_dunford_matrix(F, T)
        worst = max(worst, ops.real_subspace_defect(S) / max(1.0, float(np.linalg.norm(S))))
    result.add("contour calculus of stem functions fixes the real subspace", worst, tol)

    n = 2
    T = random_operator(rng, 2, n)
    weakest = float("inf")
    for F in nonstem_functions(n)[:3]:
        S = ops.riesz_dunford_matrix(F, T)
        weakest = min(weakest, ops.real_subspace_defect(S))
    result.add_flag(
        f"non-stem witness defect > {witness_floor:g}",
        weakest > witness_floor,
        detail=f"weakest defect {weakest:.3g}",
    )
    return result


def suite_equivalence(seed: int = 0, count: int = 20, tol: float = 1e-6) -> SuiteResult:
    result = SuiteResult("equivalence")
    rng = np.random.default_rng(seed)
    domain = PlanarDomain.disk(0, 10.0)
    worst = 0.0
    for _ in range(count):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(1, 3))
        T = random_operator(rng, d, n)
        F = dsl.stem_function(random_stem_source(rng, n, max_degree=3, entire_prob=0.0), n)
        s_unit = random_unit_imaginary(rng, n)
        via_riesz = ops.riesz_dunford_eval(F, T)
        via_slice = ops.slice_calculus_eval(F, T, s_unit, domain=domain)
        scale = max(1.0, via_riesz.frobenius())
        worst = max(worst, (via_riesz - via_slice).frobenius() / scale)
    result.add("slice calculus equals the contour calculus", worst, tol)
    return result


def suite_spectral_mapping(seed: int = 0, count: int = 20, tol: float = 1e-6) -> SuiteResult:
    result = SuiteResult("spectral-mapping")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(count):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(0, 3))
        T = random_operator(rng, d, n)
        f = dsl.stem_function(random_scalar_stem_source(rng, entire_prob=0.0), n)
        worst = max(worst, ops.spectral_mapping_distance(f, T))
    result.add("image of the spectrum is the spectrum of the image", worst, tol)
    return result


def suite_representation_lift(seed: int = 0, fn_count: int = 5, points: int = 100,
                              tol: float = 1e-10) -> SuiteResult:
    result = SuiteResult("representation-lift")
    rng = np.random.default_rng(seed)

    worst_repr = 0.0
    worst_lift = 0.0
    per_fn = max(1, points // fn_count)
    for _ in range(fn_count):
        n = int(rng.integers(1, 4))
        F = dsl.stem_function(random_stem_source(rng, n, max_degree=3), n)
        s_unit = random_unit_imaginary(rng, n)
        lifted = slice_lift(F.at, s_unit, F.domain)
        for _ in range(per_fn):
            z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            expected = F(z)
            scale = max(1.0, expected.norm())
            upper, lower = stem.representation_formula(F, z.real, abs(z.imag), s_unit)
            target = upper if z.imag >= 0 else lower
            worst_repr = max(worst_repr, (target - expected).norm() / scale)
            worst_lift = max(worst_lift, (lifted(z) - expected).norm() / scale)
    result.add("two-slice reconstruction returns the plane values", worst_repr, tol)
    result.add("slice lift reproduces the original stem function", worst_lift, tol)
    return result


def suite_determinism(seed: int = 0) -> SuiteResult:
    from .cli import render_job

    result = SuiteResult("determinism")
    jobs = [
        {"command": "spectrum", "args": {"paravector": "1+2e1+2e2", "n": 2}},
        {
            "command": "eval",
            "args": {"fn": "z^2", "at": "e1+e2", "n": 2, "method": "both"},
        },
        {"command": "mul", "args": {"a": "1+e1", "b": "1+e2", "n": 2}},
    ]
    for job in jobs:
        first = render_job(job)
        second = render_job(job)
        result.add_flag(
            f"byte-identical report: {job['command']}",
            first == second,
            detail=f"{len(first)} bytes",
        )
    return result


SUITES = {
    "algebra": suite_algebra,
    "paravector": suite_paravector,
    "projections": suite_projections,
    "stem-realness": suite_stem_realness,
    "agreement": suite_agreement,
    "regularity": suite_regularity,
    "multiplicativity": suite_multiplicativity,
    "operator-spectra": suite_operator_spectra,
    "flat-invariance": suite_flat_invariance,
    "equivalence": suite_equivalence,
    "spectral-mapping": suite_spectral_mapping,
    "representation-lift": suite_representation_lift,
    "determinism": suite_determinism,
}


def suite_names() -> list[str]:
    return list(SUITES) + ["all"]


def run_suite(name: str, seed: int = 0) -> list[SuiteResult]:
    if name == "all":
        return [fn(seed=seed) for fn in SUITES.values()]
    if name not in SUITES:
        raise InputError(f"unknown suite {name!r}; choose from {', '.join(suite_names())}")
    return [SUITES[name](seed=seed)]
