"""Seeded inputs, tasks and correctness gates for the benchmark workloads.

``WORKLOADS[name](seed, workdir)`` generates every input from the seed, builds
stem functions and operators, warms the process up and returns a
``Workload``: a list of tasks, each a zero-argument callable that runs the
program on its inputs and returns ``(passed, detail)``.  Tasks reach the
program through the ``cliffcalc`` package attributes at call time, so the
wrappers of ``spans.Tracer`` see every call.  The gates use the acceptance
tolerances unchanged:

* direct vs Cauchy transform, relative          <= 1e-8   (criterion 05)
* slice regularity residual                     <= 1e-6   (criterion 06)
* Riesz-Dunford vs slice calculus, relative     <= 1e-6   (criterion 10)
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

AGREEMENT_TOL = 1e-8
REGULARITY_TOL = 1e-6
EQUIVALENCE_TOL = 1e-6
PAIRING_TOL = 1e-10
FD_STEP = 1e-4
# smallest distance allowed between distinct eigenvalues of a generated
# operator, conjugates included; see separated_operator
MIN_SEPARATION = 0.02

Task = Callable[[], "tuple[bool, str]"]


@dataclass
class Workload:
    tasks: list[Task]
    # tasks run by a traced run; fixed so its counts repeat exactly
    trace_tasks: int
    # Set when a task runs in a child process: the same tasks with the child
    # tracing itself; the children's trace summaries land in child_summaries.
    traced: list[Task] | None = None
    child_summaries: list = field(default_factory=list)


def rational_source(rng, n: int) -> str:
    """``P(z)/(z^2 + c)`` with a scalar divisor.

    ``|c|`` lies in [8, 16], so the poles sit at distance >= 2.8 from the
    origin, on the real or the imaginary axis: outside the sampled spectra
    but inside the default disk of radius 10, where the pole scan must
    find and puncture them.
    """
    from cliffcalc.verify import random_stem_source

    numerator = random_stem_source(rng, n, max_degree=3)
    c = round(float(rng.uniform(8.0, 16.0)), 3) * (1 if rng.random() < 0.5 else -1)
    return f"({numerator})/(z^2 {'+' if c > 0 else '-'} {abs(c)})"


def separated_operator(rng, d: int, n: int):
    """``random_operator(rng, d, n)``, drawn again while two distinct points of
    its spectrum and the spectrum's conjugate lie closer than MIN_SEPARATION.

    Such a spectrum is a nearly real conjugate pair in practice: about 2% of
    draws at d = 3, n = 1 and 0.1% at larger sizes.  ``build_contour`` then
    puts a tiny circle around each point, and ``slice_calculus_eval`` raises
    ConvergenceError when the pair is closer than about 3e-3 (see README.md,
    "Excluded inputs").  That regime belongs to an adversarial suite, not to
    a benchmark on which no operation may fail.
    """
    from cliffcalc.verify import random_operator

    while True:
        T = random_operator(rng, d, n)
        points: list[complex] = []
        for z in np.linalg.eigvals(T.matrix().real):
            for w in (complex(z), complex(z).conjugate()):
                # exact repeats (the complexified matrix doubles each
                # eigenvalue at n >= 2) are one point
                if all(abs(w - q) > 1e-9 * (1.0 + abs(w)) for q in points):
                    points.append(w)
        if all(abs(a - b) >= MIN_SEPARATION for i, a in enumerate(points) for b in points[i + 1:]):
            return T


def _slice_paravector(rng, n: int):
    """A nonreal paravector as in criterion 06: x in [-1.5, 1.5], y in [0.4, 1.8]."""
    from cliffcalc import slice_point
    from cliffcalc.verify import random_unit_imaginary

    x = float(rng.uniform(-1.5, 1.5))
    y = float(rng.uniform(0.4, 1.8))
    return slice_point(n, x, y, random_unit_imaginary(rng, n))


def _agreement(direct, other) -> float:
    return (other - direct).norm() / max(1.0, direct.norm())


# -- paravector ---------------------------------------------------------------

PARAVECTOR_STEMS = 128
PARAVECTOR_TASKS = 4000


def paravector(seed: int, workdir: Path) -> Workload:
    import cliffcalc as cc
    from cliffcalc.verify import random_stem_source

    rng = np.random.default_rng([seed, 1])
    stems = []
    for j in range(PARAVECTOR_STEMS):
        n = 1 + j % 4
        # every fourth block of four is rational, so each rank gets its share
        src = rational_source(rng, n) if (j // 4) % 4 == 3 else \
            random_stem_source(rng, n, max_degree=3)
        stems.append(cc.stem_function(src, n))
    points = [_slice_paravector(rng, stems[i % PARAVECTOR_STEMS].n)
              for i in range(PARAVECTOR_TASKS)]

    def make(F, kappa):
        def task():
            direct = cc.evaluate_stem(F, kappa)
            via_contour = cc.cauchy_transform(F, kappa, radius_fraction=0.5)
            evaluator = cc.CauchyTransform(F, spectrum_hint=cc.eigenvalues(kappa).points)
            residual = cc.slice_regularity_residual(evaluator, kappa, h=FD_STEP)
            agreement = _agreement(direct, via_contour)
            ok = agreement <= AGREEMENT_TOL and residual <= REGULARITY_TOL
            return ok, f"{F.label} at {kappa}: agreement {agreement:.3g}, residual {residual:.3g}"
        return task

    tasks = [make(stems[i % PARAVECTOR_STEMS], points[i]) for i in range(PARAVECTOR_TASKS)]
    for task in tasks[:4]:  # warm-up: one task per rank fills the product tables
        task()
    return Workload(tasks, trace_tasks=250)


# -- cli-cold -----------------------------------------------------------------

CLI_TASKS = 180
# op-eval jobs cost about twice the others; a third of the jobs, so the tail
# percentile falls inside their group rather than on its edge
CLI_KINDS = ("eval", "op-eval", "eval-rational", "regularity", "op-eval", "spectrum",
             "op-spectrum", "op-eval")
# m = d * 2**n <= 12
CLI_SHAPES = ((3, 1), (3, 2))


def _json_norm(coeffs: dict) -> float:
    total = 0.0
    for value in coeffs.values():
        if isinstance(value, list):
            total += value[0] ** 2 + value[1] ** 2
        else:
            total += value ** 2
    return math.sqrt(total)


def _operator_norm(obj: dict) -> float:
    """Frobenius norm of the complexified matrix of an operator JSON: its blade
    blocks are disjoint, so it is sqrt(2**n) times the components' norm."""
    squares = sum(float(np.sum(np.square(m))) for m in obj["components"].values())
    return math.sqrt((1 << obj["n"]) * squares)


def _cli_check(kind: str, report: dict, expect) -> tuple[bool, str]:
    result = report["result"]
    if kind in ("eval", "eval-rational"):
        scale = max(1.0, _json_norm(result["direct"]["coeffs"]))
        return result["residual"] <= AGREEMENT_TOL * scale, f"residual {result['residual']:.3g}"
    if kind == "regularity":
        return result["residual"] <= REGULARITY_TOL, f"residual {result['residual']:.3g}"
    if kind == "spectrum":
        got = complex(*result["s_plus"]), complex(*result["s_minus"])
        ok = all(abs(g - e) <= 1e-12 * (1.0 + abs(e)) for g, e in zip(got, expect))
        return ok, f"spectrum {got} vs {expect}"
    if kind == "op-spectrum":
        ok = len(result["eigenvalues"]) == expect and result["pairing_defect"] <= PAIRING_TOL
        return ok, f"{len(result['eigenvalues'])} eigenvalues, pairing {result['pairing_defect']:.3g}"
    scale = max(1.0, _operator_norm(result["riesz"]))
    return result["residual"] <= EQUIVALENCE_TOL * scale, f"residual {result['residual']:.3g}"


def cli_job(kind: str, rng, index: int, workdir: Path) -> tuple[dict, object]:
    """One job document for ``kind`` and what its check expects."""
    from cliffcalc import Paravector, format_multivector, operator_to_json, parse_multivector
    from cliffcalc.verify import random_stem_source

    if kind.startswith("op-"):
        d, n = CLI_SHAPES[(index // len(CLI_KINDS)) % len(CLI_SHAPES)]
        matrix = workdir / f"op{index}.json"
        matrix.write_text(json.dumps(operator_to_json(separated_operator(rng, d, n))))
        if kind == "op-spectrum":
            return {"command": kind, "args": {"matrix": str(matrix)}}, d << n
        fn = random_stem_source(rng, n, max_degree=3, entire_prob=0.0)
        return {"command": kind, "args": {"matrix": str(matrix), "fn": fn, "method": "both"}}, None
    n = 1 + (index // len(CLI_KINDS)) % 4
    kappa = _slice_paravector(rng, n)
    at = format_multivector(kappa.to_multivector())
    if kind == "spectrum":
        # parse back what the job will read, so the expectation is exact
        parsed = Paravector.from_multivector(parse_multivector(at, n))
        x, y = parsed.scalar, float(np.linalg.norm(parsed.vector))
        return {"command": kind, "args": {"paravector": at, "n": n}}, (complex(x, y), complex(x, -y))
    if kind == "regularity":
        fn = random_stem_source(rng, n, max_degree=3)
        return {"command": kind, "args": {"fn": fn, "at": at, "n": n}}, None
    fn = rational_source(rng, n) if kind == "eval-rational" else \
        random_stem_source(rng, n, max_degree=3)
    return {"command": "eval", "args": {"fn": fn, "at": at, "n": n, "method": "both"}}, None


def cli_cold(seed: int, workdir: Path) -> Workload:
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    rng = np.random.default_rng([seed, 4])
    workload = Workload([], trace_tasks=24, traced=[])
    child = Path(__file__).resolve().parent / "cli_child.py"

    def make(kind, job_path, expect, traced):
        command = [sys.executable, str(child), str(job_path)] if traced else \
            [sys.executable, "-m", "cliffcalc.cli", "--job", str(job_path)]

        def task():
            proc = subprocess.run(command, cwd=root, env=env, capture_output=True, timeout=60)
            if proc.returncode != 0:
                return False, f"{kind}: exit {proc.returncode}: {proc.stdout[-300:]!r}"
            if traced:
                workload.child_summaries.append(json.loads(proc.stderr.decode().splitlines()[-1]))
            try:
                report = json.loads(proc.stdout)
            except ValueError:
                return False, f"{kind}: invalid JSON {proc.stdout[-300:]!r}"
            return _cli_check(kind, report, expect)
        return task

    for i in range(CLI_TASKS):
        kind = CLI_KINDS[i % len(CLI_KINDS)]
        job, expect = cli_job(kind, rng, i, workdir)
        path = workdir / f"job{i}.json"
        path.write_text(json.dumps(job))
        workload.tasks.append(make(kind, path, expect, traced=False))
        workload.traced.append(make(kind, path, expect, traced=True))
    workload.tasks[0]()  # warm-up: no timed job pays for writing bytecode
    return workload


WORKLOADS = {
    "paravector": paravector,
    "cli-cold": cli_cold,
}
