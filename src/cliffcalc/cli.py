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
from .contour import (DEFAULT_NODES, FD_STEP, QUAD_TOL, RADIUS_FRACTION, CauchyTransform,
                      slice_regularity_residual)
from .dsl import stem_function
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


# -- arguments --------------------------------------------------------------------

# Each command's arguments, key -> (kind, default): the one description that the
# subcommand flags, the job check and the values handed to ``cmd_*`` are built
# from.  A kind is "rank", "int", "float", "complex", "text" or the tuple of a
# choice's values; the default _REQUIRED marks a required key, and None an
# optional key with no default.
_REQUIRED = object()
_RANK = ("rank", _REQUIRED)
_TEXT = ("text", _REQUIRED)
_OPTIONAL = ("text", None)
_TOL = ("float", QUAD_TOL)
_RADIUS = ("float", RADIUS_FRACTION)

_ARGS = {
    "mul": {"n": _RANK, "a": _TEXT, "b": _TEXT},
    "spectrum": {"n": _RANK, "paravector": _TEXT},
    "resolvent": {"n": _RANK, "paravector": _TEXT, "lambda": ("complex", _REQUIRED), "tol": _TOL},
    "eval": {"n": _RANK, "fn": _TEXT, "at": _TEXT,
             "method": (("direct", "cauchy", "both"), "direct"), "domain": _OPTIONAL,
             "nodes": ("int", DEFAULT_NODES), "radius_frac": _RADIUS, "tol": _TOL},
    "regularity": {"n": _RANK, "fn": _TEXT, "at": _TEXT, "domain": _OPTIONAL,
                   "fd_step": ("float", FD_STEP)},
    "op-spectrum": {"matrix": _TEXT, "slice_unit": _OPTIONAL},
    "op-eval": {"matrix": _TEXT, "fn": _TEXT, "method": (("riesz", "slice", "both"), "riesz"),
                "domain": _OPTIONAL, "slice_unit": _OPTIONAL, "radius_frac": _RADIUS, "tol": _TOL},
    "check": {"suite": ("text", "all"), "seed": ("int", 0)},
}

_FLAG_HELP = {"n": "algebra rank", "lambda": 'complex point, e.g. "2+3j"',
              "domain": "planar-domain JSON file", "suite": "suite name, or all"}

# kind -> (conversion from text, JSON number types it also takes, name)
_KINDS = {"rank": (int, (int,), "an integer"), "int": (int, (int,), "an integer"),
          "float": (float, (int, float), "a number"),
          "complex": (complex, (int, float), "a complex number"), "text": (str, (), "text")}


def _convert(key: str, kind, value):
    """A job argument as its kind: text as given, a choice from its values, an
    int, float or complex from a number of that kind (an int for a float, a float
    for a complex; never a bool), from its text or, for a complex, from a
    ``[re, im]`` pair, and a rank as an int in the text format's range."""
    if isinstance(kind, tuple):
        if value in kind:
            return value
        raise FormatError(f"argument {key!r} must be one of {', '.join(kind)}, got {value!r}")
    if kind == "rank":
        n = _convert(key, "int", value)
        if not 0 <= n <= MAX_FORMAT_RANK:
            raise FormatError(f"the text format supports ranks 0 to {MAX_FORMAT_RANK}, got {n}")
        return n
    cast, number_types, name = _KINDS[kind]
    try:
        if isinstance(value, str):
            return cast(value.replace(" ", "") if cast is complex else value)
        if cast is complex and isinstance(value, list) and len(value) == 2:
            return complex(*(_convert(key, "float", part) for part in value))
        if type(value) in number_types:
            return cast(value)
    except (ValueError, OverflowError):
        pass
    raise FormatError(f"argument {key!r} must be {name}, got {value!r}")


def _job_args(command: str, args) -> dict:
    """A ``command`` job's ``args`` checked against the table and converted, with
    every absent optional key at its default."""
    if not isinstance(args, dict):
        raise FormatError(f"job 'args' must be a JSON object, got {args!r}")
    table = _ARGS[command]
    for key in args:
        if key not in table:
            raise FormatError(f"unknown argument {key!r} for {command}; "
                              f"expected one of {', '.join(table)}")
    values = {}
    for key, (kind, default) in table.items():
        if key in args:
            values[key] = _convert(key, kind, args[key])
        elif default is _REQUIRED:
            raise FormatError(f"missing argument {key!r}")
        else:
            values[key] = default
    return values


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


def _stem(args: dict, n: int) -> "StemFunction":
    path = args["domain"]
    domain = PlanarDomain.from_json(_load_json(path, "domain")) if path else None
    return stem_function(args["fn"], n, domain=domain)


def _slice_unit(args: dict, n: int) -> Paravector:
    text = args["slice_unit"] or ("e1" if n >= 1 else None)
    if text is None:
        raise DegenerateDirectionError("rank 0 has no imaginary directions")
    raw = _paravector(text, n)
    if raw.scalar != 0.0 or raw.vector_norm == 0.0:
        raise InputError(f"slice unit must be purely imaginary and nonzero: {text!r}")
    return Paravector(n, np.concatenate([[0.0], raw.vector / raw.vector_norm]))


# -- commands -------------------------------------------------------------------
# Each takes the arguments _job_args checked and converted.

def cmd_mul(args: dict) -> dict:
    a = parse_multivector(args["a"], args["n"])
    b = parse_multivector(args["b"], args["n"])
    return {"product": multivector_to_json(a * b)}


def cmd_spectrum(args: dict) -> dict:
    data = eigenvalues(_paravector(args["paravector"], args["n"]))
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
    kappa = _paravector(args["paravector"], args["n"])
    value = resolvent(args["lambda"], kappa, tol=args["tol"])
    return {"value": multivector_to_json(value)}


def cmd_eval(args: dict) -> dict:
    n, method = args["n"], args["method"]
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
            radius_fraction=args["radius_frac"],
            nodes=args["nodes"],
            tol=args["tol"],
        )
        via_contour = evaluator.eval(kappa)
        out["cauchy"] = multivector_to_json(via_contour)
        out["contour"] = evaluator.contour.to_json()
    if method == "both":
        out["residual"] = (direct - via_contour).norm()
    return out


def cmd_regularity(args: dict) -> dict:
    F = _stem(args, args["n"])
    kappa = _paravector(args["at"], args["n"])
    h = args["fd_step"]
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
    method, radius_frac, tol = args["method"], args["radius_frac"], args["tol"]
    F = _stem(args, T.n)
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

    results = run_suite(args["suite"], seed=args["seed"])
    return {
        "seed": args["seed"],
        "passed": all(r.passed for r in results),
        "suites": [r.to_json() for r in results],
    }


# command -> (function, one-line help)
_COMMANDS = {
    "mul": (cmd_mul, "multiply two multivectors"),
    "spectrum": (cmd_spectrum, "spectral data of a paravector"),
    "resolvent": (cmd_resolvent, "resolvent of a paravector at a complex point"),
    "eval": (cmd_eval, "evaluate a stem function at a paravector"),
    "regularity": (cmd_regularity, "slice-regularity residual of a contour transform"),
    "op-spectrum": (cmd_op_spectrum, "complex spectrum of an operator JSON file"),
    "op-eval": (cmd_op_eval, "functional calculus of an operator"),
    "check": (cmd_check, "run a named verification suite"),
}


def run_job(job: dict) -> dict:
    command = job.get("command")
    if not isinstance(command, str) or command not in _COMMANDS:
        raise InputError(f"unknown command {command!r}")
    args = job.get("args", {})
    result = _COMMANDS[command][0](_job_args(command, args))
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
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--out", help="write the JSON report to a file")
    for command, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text, parents=[shared])
        for key, (kind, default) in _ARGS[command].items():
            p.add_argument(
                "-n" if kind == "rank" else "--" + key.replace("_", "-"),
                type=_KINDS[kind][0] if kind in ("rank", "int", "float") else None,
                choices=kind if isinstance(kind, tuple) else None,
                required=default is _REQUIRED,
                default=None if default is _REQUIRED else default,
                help=_FLAG_HELP.get(key),
            )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    namespace = parser.parse_args(argv)
    if not namespace.job and not namespace.command:
        parser.print_help()
        return 1
    out, code = namespace.out, 0
    try:
        if namespace.job:
            job = _load_json(namespace.job, "job")
            if not isinstance(job, dict):
                raise FormatError(f"job file {namespace.job!r} must hold a JSON object")
            if not isinstance(job.get("out", ""), str):
                raise FormatError(f"job key 'out' must be text, got {job['out']!r}")
            out = out or job.get("out")
        else:
            given = vars(namespace)
            job = {"command": namespace.command, "args": {
                key: given[key] for key in _ARGS[namespace.command] if given[key] is not None}}
        payload = render_job(job)
    except ToolkitError as exc:
        payload, code = _error_document(exc), getattr(exc, "exit_code", 2)
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
