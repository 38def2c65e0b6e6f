"""Command-line surface: evaluate, inspect spectra, run verification suites.

Every invocation produces one JSON document (stdout, or ``--out``).  A job
file holding ``{"command": ..., "args": {...}}`` can be replayed with
``--job``; identical jobs render byte-identical reports, which the
``determinism`` suite checks.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .algebra import MAX_FORMAT_RANK, Paravector, multivector_to_json, parse_multivector
from .contour import CauchyTransform, slice_regularity_residual
from .dsl import DEFAULT_RADIUS, stem_function
from .errors import DegenerateDirectionError, FormatError, InputError, ToolkitError
from .operators import (
    clifford_spectrum_slice,
    complex_spectrum,
    operator_from_json,
    operator_to_json,
    riesz_dunford_eval,
    slice_calculus_eval,
)
from .spectral import eigenvalues, resolvent
from .stem import PlanarDomain, evaluate_stem

__all__ = ["main", "render_job", "run_job"]


def _pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


_KIND_NAMES = {int: "an integer", float: "a number", complex: "a complex number"}


def _number(args: dict, key: str, kind: type, default=None):
    """``args[key]``, or ``default`` when it is absent, as an int, float or
    complex: from a number of that kind (an int for a float, a float for a
    complex; never a bool), from its text, or, for a complex, from a
    ``[re, im]`` pair.  Anything else is a FormatError."""
    if key not in args and default is None:
        raise FormatError(f"missing argument {key!r}")
    value = args.get(key, default)
    allowed = (int,) if kind is int else (int, float)
    try:
        if isinstance(value, str):
            return kind(value.replace(" ", "") if kind is complex else value)
        if kind is complex and isinstance(value, list) and len(value) == 2:
            return complex(*(_number({key: part}, key, float) for part in value))
        if type(value) in allowed:
            return kind(value)
    except (ValueError, OverflowError):
        pass
    raise FormatError(f"argument {key!r} must be {_KIND_NAMES[kind]}, got {value!r}")


def _rank(args: dict) -> int:
    """The algebra rank ``n``, checked against the text format's range before
    anything is built at that rank."""
    n = _number(args, "n", int)
    if not 0 <= n <= MAX_FORMAT_RANK:
        raise FormatError(f"the text format supports ranks 0 to {MAX_FORMAT_RANK}, got {n}")
    return n


def _paravector(text: str, n: int) -> Paravector:
    return Paravector.from_multivector(parse_multivector(text, n))


def _paravector_json(p: Paravector) -> dict:
    return {"n": p.n, "components": list(p.components)}


def _load_json(path: str, what: str):
    """Parsed contents of a JSON input file; I/O and syntax errors become
    input errors, reported like any other."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {what} file {path!r}: {exc.strerror or exc}") from None
    except ValueError as exc:  # JSON syntax, or bytes that are not UTF-8
        raise FormatError(f"{what} file {path!r} is not valid JSON: {exc}") from None


def _domain(args: dict, n: int) -> PlanarDomain:
    if args.get("domain"):
        return PlanarDomain.from_json(_load_json(args["domain"], "domain"))
    return PlanarDomain.disk(0.0, DEFAULT_RADIUS)


def _stem(args: dict, n: int) -> "StemFunction":
    fn_text = args.get("fn")
    if not fn_text:
        raise InputError("missing --fn expression")
    domain = _domain(args, n) if args.get("domain") else None
    return stem_function(fn_text, n, domain=domain)


def _slice_unit(args: dict, n: int) -> Paravector:
    text = args.get("slice_unit") or ("e1" if n >= 1 else None)
    if text is None:
        raise DegenerateDirectionError("rank 0 has no imaginary directions")
    raw = _paravector(text, n)
    if raw.scalar != 0.0 or raw.vector_norm == 0.0:
        raise InputError(f"slice unit must be purely imaginary and nonzero: {text!r}")
    return Paravector(n, np.concatenate([[0.0], raw.vector / raw.vector_norm]))


# -- commands -------------------------------------------------------------------

def cmd_mul(args: dict) -> dict:
    n = _rank(args)
    a = parse_multivector(args["a"], n)
    b = parse_multivector(args["b"], n)
    return {"product": multivector_to_json(a * b)}


def cmd_spectrum(args: dict) -> dict:
    n = _rank(args)
    data = eigenvalues(_paravector(args["paravector"], n))
    out = {
        "s_plus": _pair(data.s_plus),
        "s_minus": _pair(data.s_minus),
        "is_real": data.is_real,
    }
    if not data.is_real:
        out["s_unit"] = _paravector_json(data.s_unit)
        out["iota_plus"] = multivector_to_json(data.iota_plus)
        out["iota_minus"] = multivector_to_json(data.iota_minus)
    return out


def cmd_resolvent(args: dict) -> dict:
    n = _rank(args)
    kappa = _paravector(args["paravector"], n)
    lam = _number(args, "lambda", complex)
    tol = _number(args, "tol", float, 1e-12)
    value = resolvent(lam, kappa, tol=tol)
    return {"value": multivector_to_json(value)}


def cmd_eval(args: dict) -> dict:
    n = _rank(args)
    method = args.get("method", "direct")
    if method not in ("direct", "cauchy", "both"):
        raise InputError(f"unknown method {method!r}")
    F = _stem(args, n)
    kappa = _paravector(args["at"], n)
    out: dict = {"fn": F.label}
    if method in ("direct", "both"):
        direct = evaluate_stem(F, kappa)
        out["direct"] = multivector_to_json(direct)
    if method in ("cauchy", "both"):
        evaluator = CauchyTransform(
            F,
            spectrum_hint=eigenvalues(kappa).points,
            radius_fraction=_number(args, "radius_frac", float, 0.5),
            nodes=_number(args, "nodes", int, 64),
            tol=_number(args, "tol", float, 1e-12),
        )
        via_contour = evaluator.eval(kappa)
        out["cauchy"] = multivector_to_json(via_contour)
        out["contour"] = evaluator.contour.to_json()
    if method == "both":
        out["residual"] = (direct - via_contour).norm()
    return out


def cmd_regularity(args: dict) -> dict:
    n = _rank(args)
    F = _stem(args, n)
    kappa = _paravector(args["at"], n)
    h = _number(args, "fd_step", float, 1e-4)
    evaluator = CauchyTransform(F, spectrum_hint=eigenvalues(kappa).points)
    residual = slice_regularity_residual(evaluator, kappa, h=h)
    return {"residual": residual, "fd_step": h, "fn": F.label}


def cmd_op_spectrum(args: dict) -> dict:
    T = operator_from_json(_load_json(args["matrix"], "matrix"))
    spectrum = complex_spectrum(T)
    out = {
        "d": T.d,
        "n": T.n,
        "eigenvalues": [_pair(z) for z in spectrum.eigenvalues],
        "pairing_defect": spectrum.pairing_defect(),
    }
    if T.n >= 1:
        s_unit = _slice_unit(args, T.n)
        out["slice_unit"] = _paravector_json(s_unit)
        out["slice_representatives"] = [
            _paravector_json(p) for p in clifford_spectrum_slice(T, s_unit)
        ]
    return out


def cmd_op_eval(args: dict) -> dict:
    T = operator_from_json(_load_json(args["matrix"], "matrix"))
    method = args.get("method", "riesz")
    if method not in ("riesz", "slice", "both"):
        raise InputError(f"unknown method {method!r}")
    F = _stem(args, T.n)
    radius_frac = _number(args, "radius_frac", float, 0.5)
    tol = _number(args, "tol", float, 1e-12)
    out: dict = {"fn": F.label}
    if method in ("riesz", "both"):
        via_riesz = riesz_dunford_eval(F, T, radius_fraction=radius_frac, tol=tol)
        out["riesz"] = operator_to_json(via_riesz)
    if method in ("slice", "both"):
        s_unit = _slice_unit(args, T.n)
        via_slice = slice_calculus_eval(F, T, s_unit, radius_fraction=radius_frac, tol=tol)
        out["slice"] = operator_to_json(via_slice)
        out["slice_unit"] = _paravector_json(s_unit)
    if method == "both":
        out["residual"] = (via_riesz - via_slice).frobenius()
    return out


def cmd_check(args: dict) -> dict:
    from .verify import run_suite  # only this command needs the suites

    seed = _number(args, "seed", int, 0)
    results = run_suite(args.get("suite", "all"), seed=seed)
    return {
        "seed": seed,
        "passed": all(r.passed for r in results),
        "suites": [r.to_json() for r in results],
    }


_COMMANDS = {
    "mul": cmd_mul,
    "spectrum": cmd_spectrum,
    "resolvent": cmd_resolvent,
    "eval": cmd_eval,
    "regularity": cmd_regularity,
    "op-spectrum": cmd_op_spectrum,
    "op-eval": cmd_op_eval,
    "check": cmd_check,
}


def run_job(job: dict) -> dict:
    command = job.get("command")
    if command not in _COMMANDS:
        raise InputError(f"unknown command {command!r}")
    args = dict(job.get("args", {}))
    result = _COMMANDS[command](args)
    return {"command": command, "inputs": args, "result": result}


def render_job(job: dict) -> bytes:
    """Run one job and encode the report canonically (byte-reproducible)."""
    report = run_job(job)
    return (json.dumps(report, sort_keys=True, indent=2, ensure_ascii=False) + "\n").encode()


# -- argument parsing -------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # validation errors exit with code 1
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cliffcalc", description=__doc__)
    parser.add_argument("--job", help="run a JSON job file instead of a subcommand")
    parser.add_argument("--out", help="write the JSON report to a file instead of stdout")
    sub = parser.add_subparsers(dest="command")

    def common(p, needs_n=True):
        if needs_n:
            p.add_argument("-n", type=int, required=True, help="algebra rank")
        p.add_argument("--out", help="write the JSON report to a file")

    p = sub.add_parser("mul", help="multiply two multivectors")
    common(p)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)

    p = sub.add_parser("spectrum", help="spectral data of a paravector")
    common(p)
    p.add_argument("--paravector", required=True)

    p = sub.add_parser("resolvent", help="resolvent of a paravector at a complex point")
    common(p)
    p.add_argument("--paravector", required=True)
    p.add_argument("--lambda", dest="lam", required=True, help='complex point, e.g. "2+3j"')
    p.add_argument("--tol", type=float, default=1e-12)

    p = sub.add_parser("eval", help="evaluate a stem function at a paravector")
    common(p)
    p.add_argument("--fn", required=True)
    p.add_argument("--at", required=True)
    p.add_argument("--method", default="direct", choices=["direct", "cauchy", "both"])
    p.add_argument("--domain", help="planar-domain JSON file")
    p.add_argument("--nodes", type=int, default=64)
    p.add_argument("--radius-frac", type=float, default=0.5, dest="radius_frac")
    p.add_argument("--tol", type=float, default=1e-12)

    p = sub.add_parser("regularity", help="slice-regularity residual of a contour transform")
    common(p)
    p.add_argument("--fn", required=True)
    p.add_argument("--at", required=True)
    p.add_argument("--domain")
    p.add_argument("--fd-step", type=float, default=1e-4, dest="fd_step")

    p = sub.add_parser("op-spectrum", help="complex spectrum of an operator JSON file")
    common(p, needs_n=False)
    p.add_argument("--matrix", required=True)
    p.add_argument("--slice-unit", dest="slice_unit")

    p = sub.add_parser("op-eval", help="functional calculus of an operator")
    common(p, needs_n=False)
    p.add_argument("--matrix", required=True)
    p.add_argument("--fn", required=True)
    p.add_argument("--method", default="riesz", choices=["riesz", "slice", "both"])
    p.add_argument("--domain")
    p.add_argument("--slice-unit", dest="slice_unit")
    p.add_argument("--radius-frac", type=float, default=0.5, dest="radius_frac")
    p.add_argument("--tol", type=float, default=1e-12)

    p = sub.add_parser("check", help="run a named verification suite")
    common(p, needs_n=False)
    p.add_argument("--suite", default="all", help="suite name, or all")
    p.add_argument("--seed", type=int, default=0)

    return parser


_ARG_KEYS = {
    "mul": ["n", "a", "b"],
    "spectrum": ["n", "paravector"],
    "resolvent": ["n", "paravector", "lam", "tol"],
    "eval": ["n", "fn", "at", "method", "domain", "nodes", "radius_frac", "tol"],
    "regularity": ["n", "fn", "at", "domain", "fd_step"],
    "op-spectrum": ["matrix", "slice_unit"],
    "op-eval": ["matrix", "fn", "method", "domain", "slice_unit", "radius_frac", "tol"],
    "check": ["suite", "seed"],
}


def _namespace_to_job(namespace: argparse.Namespace) -> dict:
    args = {}
    for key in _ARG_KEYS[namespace.command]:
        value = getattr(namespace, key, None)
        if value is not None:
            args["lambda" if key == "lam" else key] = value
    return {"command": namespace.command, "args": args}


def main(argv=None) -> int:
    parser = build_parser()
    namespace = parser.parse_args(argv)
    if not namespace.job and not namespace.command:
        parser.print_help()
        return 1
    code = 0
    try:
        if namespace.job:
            job = _load_json(namespace.job, "job")
            if not isinstance(job, dict):
                raise FormatError(f"job file {namespace.job!r} must hold a JSON object")
            if not namespace.out and job.get("out"):
                namespace.out = job["out"]
        else:
            job = _namespace_to_job(namespace)
        payload = render_job(job)
    except ToolkitError as exc:
        payload, code = _error_document(exc), getattr(exc, "exit_code", 2)
    out = getattr(namespace, "out", None)
    if out:
        try:
            with open(out, "wb") as handle:
                handle.write(payload)
            return code
        except OSError as exc:
            error = InputError(f"cannot write report file {out!r}: {exc.strerror or exc}")
            payload, code = _error_document(error), error.exit_code
    sys.stdout.buffer.write(payload)
    sys.stdout.buffer.flush()
    return code


def _error_document(exc: ToolkitError) -> bytes:
    error = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    return (json.dumps(error, sort_keys=True, indent=2) + "\n").encode()


if __name__ == "__main__":
    raise SystemExit(main())
