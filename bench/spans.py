"""Spans and counters recorded around cliffcalc's layers, from outside the package.

``Tracer.installed()`` replaces every module global and class attribute that
refers to one of the functions in ``SPANS`` or ``COUNTERS`` with a wrapper,
and puts the originals back on exit.  A span wrapper appends one span (name,
parent, start, end) to flat arrays; a counter wrapper bumps a count.
Spans stay in memory until ``summary`` reduces them to calls and self time
per name, where self time is a span's duration minus that of its children.
"""

from __future__ import annotations

import array
import functools
import importlib
import sys
import time
from contextlib import contextmanager

# (span name, module, attribute path); one name may cover several functions.
SPANS = [
    ("algebra.product", "cliffcalc.algebra", "_Element.__mul__"),
    ("algebra.product", "cliffcalc.algebra", "_Element.__rmul__"),
    ("algebra.batch_product", "cliffcalc.algebra", "_batch_mul_coeffs"),
    ("dsl.evaluate", "cliffcalc.dsl", "evaluate"),
    ("dsl.stem_function", "cliffcalc.dsl", "stem_function"),
    ("spectral.eigenvalues", "cliffcalc.spectral", "eigenvalues"),
    ("stem.evaluate_stem", "cliffcalc.stem", "evaluate_stem"),
    ("contour.build_contour", "cliffcalc.contour", "build_contour"),
    ("contour.contour_quadrature", "cliffcalc.contour", "contour_quadrature"),
    ("contour.cauchy_transform", "cliffcalc.contour", "cauchy_transform"),
    ("contour.CauchyTransform.eval", "cliffcalc.contour", "CauchyTransform.eval"),
    ("contour.slice_regularity_residual", "cliffcalc.contour", "slice_regularity_residual"),
    ("operators.complex_spectrum", "cliffcalc.operators", "complex_spectrum"),
    ("operators.riesz_dunford_eval", "cliffcalc.operators", "riesz_dunford_eval"),
    ("operators.slice_calculus_eval", "cliffcalc.operators", "slice_calculus_eval"),
    ("operators.left_mult_matrix", "cliffcalc.operators", "left_mult_matrix"),
    ("operators.linalg_solve", "numpy.linalg", "solve"),
    ("operators.kron", "numpy", "kron"),
    ("cli.main", "cliffcalc.cli", "main"),
]
COUNTERS = [
    # Multivector.__init__ delegates here, so this counts both element types.
    ("algebra.element.created", "cliffcalc.algebra", "_Element.__init__"),
]
# Calculus calls are also timed per operator size m = d * 2**n.
SIZED = {"operators.riesz_dunford_eval", "operators.slice_calculus_eval"}
OPERATOR_SIZES = (6, 12)


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner.__dict__[attr]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.current = -1
        self.counts: dict[str, int] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, name: str, fn):
        nid = self._id(name)
        sized = {m: self._id(f"{name}@m{m}") for m in OPERATOR_SIZES} if name in SIZED else None
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            if sized is None:
                name_id.append(nid)
            else:
                T = args[1] if len(args) > 1 else kwargs["T"]
                name_id.append(sized.get(T.size, nid))
            parent.append(self.current)
            end.append(0.0)
            self.current = idx
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                self.current = parent[idx]

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every reference to the traced functions for the block's duration."""
        originals = {}
        for name, module, path in SPANS:
            fn = _resolve(module, path)
            originals[id(fn)] = (fn, self._span(name, fn))
        for name, module, path in COUNTERS:
            fn = _resolve(module, path)
            originals[id(fn)] = (fn, self._counter(name, fn))
        # Modules bind imported functions as globals and classes alias
        # methods (CauchyTransform.__call__ = eval): patch every reference.
        owners = [m for k, m in list(sys.modules.items())
                  if k == "cliffcalc" or k.startswith("cliffcalc.")]
        owners += [v for m in owners for v in list(vars(m).values()) if isinstance(v, type)
                   and v.__module__.startswith("cliffcalc")]
        owners += [importlib.import_module("numpy"), importlib.import_module("numpy.linalg")]
        patches = []
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    patches.append((owner, attr, value))
                    setattr(owner, attr, hit[1])
        try:
            yield self
        finally:
            for owner, attr, value in reversed(patches):
                setattr(owner, attr, value)

    def summary(self) -> dict:
        """Calls and self seconds per span name, plus the ancestry-based ratios."""
        count = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(count)]
        child = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        ids = self._ids
        eval_id = ids.get("contour.CauchyTransform.eval", -2)
        calculus_ids = {i for n, i in ids.items() if n.split("@")[0] in SIZED}
        operator_ids = {i for n, i in ids.items() if n.startswith("operators.")
                        and n not in ("operators.linalg_solve", "operators.kron")}
        # parents precede children, so one forward pass propagates ancestry
        in_eval = bytearray(count)
        in_calculus = bytearray(count)
        in_operator = bytearray(count)
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                pid = self.name_id[p]
                in_eval[i] = in_eval[p] or pid == eval_id
                in_calculus[i] = in_calculus[p] or pid in calculus_ids
                in_operator[i] = in_operator[p] or pid in operator_ids

        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        total_s: dict[str, float] = {}
        integrand = solves = calculus_solves = 0
        solve_self = 0.0
        evaluate_id = ids.get("dsl.evaluate", -2)
        solve_id = ids.get("operators.linalg_solve", -2)
        for i in range(count):
            nid = self.name_id[i]
            full = self.names[nid]
            base = full.split("@")[0]
            if nid == solve_id:
                # solves outside the operator layer are not its work
                if not in_operator[i]:
                    continue
                solves += 1
                solve_self += dur[i] - child[i]
                calculus_solves += in_calculus[i]
                continue
            if nid == evaluate_id and in_eval[i]:
                integrand += 1
            calls[base] = calls.get(base, 0) + 1
            self_s[base] = self_s.get(base, 0.0) + dur[i] - child[i]
            if base != full:
                calls[full] = calls.get(full, 0) + 1
                total_s[full] = total_s.get(full, 0.0) + dur[i]
        calls["operators.linalg_solve"] = solves
        self_s["operators.linalg_solve"] = solve_self
        evals = calls.get("contour.CauchyTransform.eval", 0)
        calculus_evals = sum(calls.get(n, 0) for n in SIZED)
        return {
            "calls": calls,
            "self_s": self_s,
            "total_s": total_s,
            "counts": dict(self.counts),
            "integrand_evals": integrand,
            "calculus_solves": calculus_solves,
            "cauchy_evals": evals,
            "calculus_evals": calculus_evals,
        }


def merge(a: dict, b: dict) -> dict:
    """Sum two summaries (e.g. the benchmark process's and one CLI child's)."""
    out = {}
    for key in a.keys() | b.keys():
        x, y = a.get(key), b.get(key)
        if isinstance(x, dict) or isinstance(y, dict):
            x, y = x or {}, y or {}
            out[key] = {k: x.get(k, 0) + y.get(k, 0) for k in x.keys() | y.keys()}
        else:
            out[key] = (x or 0) + (y or 0)
    return out


def layer_metrics(summary: dict) -> dict[str, float]:
    """The per-layer metric values named in BENCHMARK.json (bar trace.* and cli.*)."""
    calls, self_s, total_s = summary["calls"], summary["self_s"], summary["total_s"]
    out: dict[str, float] = {}
    for name in ("algebra.product", "algebra.batch_product", "dsl.evaluate",
                 "dsl.stem_function", "spectral.eigenvalues", "stem.evaluate_stem",
                 "contour.CauchyTransform.eval", "operators.linalg_solve"):
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in ("contour.build_contour", "contour.contour_quadrature",
                 "operators.complex_spectrum", "operators.kron", "cli.main"):
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    out["algebra.element.created"] = summary["counts"].get("algebra.element.created", 0)
    out["operators.left_mult_matrix.calls"] = calls.get("operators.left_mult_matrix", 0)
    evals = summary["cauchy_evals"]
    out["contour.integrand_per_eval"] = summary["integrand_evals"] / evals if evals else 0.0
    calculus = summary["calculus_evals"]
    out["operators.solves_per_eval"] = summary["calculus_solves"] / calculus if calculus else 0.0
    for name in sorted(SIZED):
        for m in OPERATOR_SIZES:
            n = calls.get(f"{name}@m{m}", 0)
            out[f"{name}.ms.m{m}"] = 1e3 * total_s.get(f"{name}@m{m}", 0.0) / n if n else 0.0
    return out
