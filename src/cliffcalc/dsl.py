"""Small expression language for stem functions usable from the CLI.

Grammar (precedence ``^`` > unary ``-`` > ``*`` ``/`` > ``+`` ``-``)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' digits)?
    atom   := NUMBER [BLADE] | BLADE | 'z' | FUNC '(' expr ')' | '(' expr ')'

``NUMBER`` is a real decimal; a scientific exponent needs an explicit sign
(``1.5e+3``), since ``e`` followed by bare digits spells a basis blade
(``2.5e13`` is the blade e_1 e_3 with coefficient 2.5).  ``FUNC`` is one of
exp, sin, cos, sinh, cosh and takes a scalar argument; divisors must be
scalar as well.  Parsed expressions have real Clifford-constant coefficients
only, which makes every parsed function a stem function by construction;
complex literals exist as AST nodes (for building counterexamples
programmatically) but have no surface syntax.
"""

from __future__ import annotations

import numbers
import re
from dataclasses import dataclass
from functools import cache
from typing import Callable, Union

import numpy as np

from .algebra import (
    CMultivector,
    Multivector,
    _batch_mul_coeffs,
    _power,
    format_multivector,
    mask_from_digits,
)
from .errors import DomainError, MaskRangeError, NumericError, ParseError, SingularInputError
from .stem import Disk, PlanarDomain, StemFunction

__all__ = [
    "Expr",
    "Lit",
    "CliffLit",
    "Var",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Neg",
    "Pow",
    "Func",
    "parse",
    "evaluate",
    "differentiate",
    "pretty",
    "is_scalar_expr",
    "stem_function",
    "DEFAULT_RADIUS",
]

DEFAULT_RADIUS = 10.0
# Deepest expression tree the parser accepts; the evaluator, the printer and
# the differentiator all recurse on the tree.
MAX_DEPTH = 100
_FUNCTIONS = {
    "exp": (np.exp, "exp"),
    "sin": (np.sin, "cos"),
    "cos": (np.cos, "-sin"),
    "sinh": (np.sinh, "cosh"),
    "cosh": (np.cosh, "sinh"),
}


# -- AST ----------------------------------------------------------------------

@dataclass(frozen=True)
class Lit:
    value: complex


@dataclass(frozen=True)
class CliffLit:
    value: Multivector


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Sub:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Mul:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Div:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Neg:
    inner: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


@dataclass(frozen=True)
class Func:
    name: str
    arg: "Expr"


Expr = Union[Lit, CliffLit, Var, Add, Sub, Mul, Div, Neg, Pow, Func]


def _children(e: Expr) -> tuple[Expr, ...]:
    if isinstance(e, (Add, Sub, Mul, Div)):
        return (e.left, e.right)
    if isinstance(e, Neg):
        return (e.inner,)
    if isinstance(e, Pow):
        return (e.base,)
    if isinstance(e, Func):
        return (e.arg,)
    return ()


def _depth(e: Expr) -> int:
    deepest, stack = 0, [(e, 1)]
    while stack:
        node, level = stack.pop()
        deepest = max(deepest, level)
        stack.extend((child, level + 1) for child in _children(node))
    return deepest


def is_scalar_expr(e: Expr) -> bool:
    """Whether the expression stays in the scalar (complex) subalgebra."""
    if isinstance(e, (Lit, Var, Func)):
        return True
    if isinstance(e, CliffLit):
        return bool(np.all(e.value.nonscalar().coeffs == 0.0))
    if isinstance(e, Neg):
        return is_scalar_expr(e.inner)
    if isinstance(e, Pow):
        return is_scalar_expr(e.base)
    return is_scalar_expr(e.left) and is_scalar_expr(e.right)


def validate(e: Expr) -> None:
    """Enforce the structural invariants on (possibly hand-built) trees:
    function arguments and divisors are scalar expressions."""
    if isinstance(e, Func):
        if e.name not in _FUNCTIONS:
            raise ParseError(f"unknown function {e.name!r}")
        if not is_scalar_expr(e.arg):
            raise DomainError(f"argument of {e.name} must be scalar")
        validate(e.arg)
    elif isinstance(e, Div):
        if not is_scalar_expr(e.right):
            raise DomainError("divisor must be a scalar expression")
        validate(e.left)
        validate(e.right)
    elif isinstance(e, (Add, Sub, Mul)):
        validate(e.left)
        validate(e.right)
    elif isinstance(e, Neg):
        validate(e.inner)
    elif isinstance(e, Pow):
        if e.exponent < 0:
            raise DomainError("negative exponents are not supported; divide instead")
        validate(e.base)


# -- lexer / parser -----------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<func>exp|sinh|cosh|sin|cos)(?=\s*\()"
    r"|(?P<blade>e\d+)"
    r"|(?P<var>z)"
    r"|(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]\d+)?)"
    r"|(?P<op>[-+*/^()])"
    r")"
)


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(src):
        match = _TOKEN_RE.match(src, pos)
        if not match or match.end() == match.start():
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", position=pos)
        for kind in ("func", "blade", "var", "num", "op"):
            text = match.group(kind)
            if text is not None:
                tokens.append((kind, text, match.start(kind)))
                break
        pos = match.end()
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str, n: int):
        self.src = src
        self.n = n
        self.tokens = _tokenize(src)
        self.index = 0
        self.nesting = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.index]

    def advance(self) -> tuple[str, str, int]:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect(self, kind: str, text: str | None = None) -> tuple[str, str, int]:
        token = self.advance()
        if token[0] != kind or (text is not None and token[1] != text):
            want = text or kind
            raise ParseError(f"expected {want!r}, found {token[1]!r}", position=token[2])
        return token

    def parse(self) -> Expr:
        e = self.expr()
        token = self.peek()
        if token[0] != "end":
            raise ParseError(f"unexpected trailing input {token[1]!r}", position=token[2])
        if _depth(e) > MAX_DEPTH:
            raise ParseError(f"expression tree deeper than {MAX_DEPTH} levels")
        return e

    def expr(self) -> Expr:
        node = self.term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            _, op, _ = self.advance()
            right = self.term()
            node = Add(node, right) if op == "+" else Sub(node, right)
        return node

    def term(self) -> Expr:
        node = self.unary()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            _, op, pos = self.advance()
            right = self.unary()
            if op == "*":
                node = Mul(node, right)
            else:
                if not is_scalar_expr(right):
                    raise ParseError("divisor must be a scalar expression", position=pos)
                node = Div(node, right)
        return node

    def unary(self) -> Expr:
        # every parenthesis, function call and unary minus passes through here
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise ParseError(f"expression nests deeper than {MAX_DEPTH} levels",
                             position=self.peek()[2])
        if self.peek()[:2] == ("op", "-"):
            self.advance()
            node = Neg(self.unary())
        else:
            node = self.power()
        self.nesting -= 1
        return node

    def power(self) -> Expr:
        base = self.atom()
        if self.peek()[:2] == ("op", "^"):
            _, _, pos = self.advance()
            kind, text, tpos = self.advance()
            if kind != "num" or not text.isdigit():
                raise ParseError("exponent must be a nonnegative integer", position=tpos)
            return Pow(base, int(text))
        return base

    def _blade(self, text: str, pos: int) -> Multivector:
        try:
            mask = mask_from_digits(text[1:], self.n)
        except MaskRangeError as exc:
            raise MaskRangeError(f"{exc} (at position {pos})") from None
        return Multivector.basis_blade(self.n, mask)

    def atom(self) -> Expr:
        kind, text, pos = self.advance()
        if kind == "num":
            value = float(text)
            if not np.isfinite(value):
                raise ParseError(f"number {text} overflows a double", position=pos)
            if self.peek()[0] == "blade":
                _, blade_text, bpos = self.advance()
                return CliffLit(value * self._blade(blade_text, bpos))
            return Lit(complex(value))
        if kind == "blade":
            return CliffLit(self._blade(text, pos))
        if kind == "var":
            return Var()
        if kind == "func":
            self.expect("op", "(")
            arg = self.expr()
            self.expect("op", ")")
            if not is_scalar_expr(arg):
                raise ParseError(f"argument of {text} must be scalar", position=pos)
            return Func(text, arg)
        if (kind, text) == ("op", "("):
            inner = self.expr()
            self.expect("op", ")")
            return inner
        raise ParseError(f"unexpected token {text!r}", position=pos)


def parse(src: str, n: int) -> Expr:
    """Parse an expression at algebra rank ``n`` (generator indices <= n)."""
    return _Parser(src, n).parse()


# -- evaluation -----------------------------------------------------------------
#
# An expression compiles once into a closure over a (N,) complex array of
# points.  A scalar node yields a (N,) array and a Clifford-valued node a
# (N, 2**n) coefficient array; constant nodes yield a 0-d or (2**n,) array
# that numpy broadcasts against the others.

Batch = Callable[[np.ndarray], np.ndarray]


def _embed(value: np.ndarray, dim: int) -> np.ndarray:
    """Scalar values as coefficient arrays of the unit blade."""
    out = np.zeros(np.shape(value) + (dim,), dtype=np.complex128)
    out[..., 0] = value
    return out


def _as_clifford(node: Batch, dim: int) -> Batch:
    return lambda zs: _embed(node(zs), dim)


def _rows(value: np.ndarray, count: int) -> np.ndarray:
    return value if value.ndim == 2 else np.broadcast_to(value, (count, value.shape[-1]))


def _compile(e: Expr, n: int) -> tuple[Batch, bool]:
    """Closure for ``e`` and whether it is scalar (as :func:`is_scalar_expr`)."""
    dim = 1 << n
    if isinstance(e, Lit):
        value = np.complex128(e.value)
        return (lambda zs: value), True
    if isinstance(e, CliffLit):
        if e.value.n != n:
            raise MaskRangeError(f"Clifford literal has rank {e.value.n}, expected {n}")
        coeffs = e.value.coeffs  # real and read-only; numpy promotes it exactly
        if not coeffs[1:].any():
            value = np.complex128(coeffs[0])
            return (lambda zs: value), True
        return (lambda zs: coeffs), False
    if isinstance(e, Var):
        return (lambda zs: zs), True
    if isinstance(e, Neg):
        inner, scalar = _compile(e.inner, n)
        return (lambda zs: -inner(zs)), scalar
    if isinstance(e, Func):
        arg, _ = _compile(e.arg, n)
        ufunc = _FUNCTIONS[e.name][0]
        return (lambda zs: ufunc(arg(zs))), True
    if isinstance(e, Pow):
        base, scalar = _compile(e.base, n)
        k = e.exponent
        if scalar:
            one = np.complex128(1)
            return (lambda zs: _power(base(zs), k, np.multiply, one)), True
        unit = _embed(np.complex128(1), dim)

        def clifford_mul(a, b):
            return _batch_mul_coeffs(a, b, n)

        return (lambda zs: _power(_rows(base(zs), len(zs)), k, clifford_mul, unit)), False
    left, left_scalar = _compile(e.left, n)
    right, right_scalar = _compile(e.right, n)
    if isinstance(e, Div):

        def divide(zs):
            divisor = right(zs)
            small = np.abs(divisor) < 1e-150
            if small.any():
                z = zs[np.flatnonzero(np.broadcast_to(small, zs.shape))[0]]
                raise SingularInputError(f"division by (near-)zero divisor at z={z}")
            inverse = 1.0 / divisor
            numerator = left(zs)
            return numerator * (inverse if left_scalar else inverse[..., None])

        return divide, left_scalar
    if isinstance(e, (Add, Sub)):
        op = np.add if isinstance(e, Add) else np.subtract
        if left_scalar and not right_scalar:
            left = _as_clifford(left, dim)
        elif right_scalar and not left_scalar:
            right = _as_clifford(right, dim)
        return (lambda zs: op(left(zs), right(zs))), left_scalar and right_scalar
    if isinstance(e, Mul):
        if left_scalar and right_scalar:
            return (lambda zs: left(zs) * right(zs)), True
        if left_scalar:
            return (lambda zs: left(zs)[..., None] * right(zs)), False
        if right_scalar:
            return (lambda zs: left(zs) * right(zs)[..., None]), False
        return (lambda zs: _batch_mul_coeffs(
            _rows(left(zs), len(zs)), _rows(right(zs), len(zs)), n)), False
    raise TypeError(f"not an expression node: {e!r}")


def _compile_batch(e: Expr, n: int) -> Batch:
    """Compile ``e`` into a function from a (N,) array of complex points to
    the (N, 2**n) coefficient array of its values there.

    Raises :class:`SingularInputError` at the first division whose divisor
    falls below 1e-150 at some point, and :class:`NumericError` when a value
    is not finite (an overflow, say).
    """
    node, scalar = _compile(e, n)
    dim = 1 << n

    def batch(zs: np.ndarray) -> np.ndarray:
        zs = np.asarray(zs, dtype=np.complex128)
        with np.errstate(all="ignore"):
            value = node(zs)
        out = np.zeros((len(zs), dim), dtype=np.complex128)
        if scalar:
            out[:, 0] = value
        else:
            out[:] = value
        finite = np.isfinite(out).all(axis=1)
        if not finite.all():
            z = zs[np.argmin(finite)]
            raise NumericError(f"non-finite value at z={z}")
        return out

    return batch


def evaluate(e: Expr, z: complex, n: int) -> CMultivector:
    """Evaluate at a complex point; the value lives in the rank-n
    complexified algebra.  Compiles ``e`` on every call; a function built
    by :func:`stem_function` compiles once and also evaluates whole arrays
    of points (``StemFunction.values_at``)."""
    return CMultivector(n, _compile_batch(e, n)(np.array([complex(z)]))[0])


# -- differentiation -------------------------------------------------------------

def _is_zero(e: Expr) -> bool:
    return isinstance(e, Lit) and e.value == 0


def _is_one(e: Expr) -> bool:
    return isinstance(e, Lit) and e.value == 1


def _add(a: Expr, b: Expr) -> Expr:
    if _is_zero(a):
        return b
    if _is_zero(b):
        return a
    return Add(a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if _is_zero(a) or _is_zero(b):
        return Lit(0)
    if _is_one(a):
        return b
    if _is_one(b):
        return a
    return Mul(a, b)


def _pow(base: Expr, k: int) -> Expr:
    if k == 0:
        return Lit(1)
    if k == 1:
        return base
    return Pow(base, k)


def differentiate(e: Expr) -> Expr:
    """Symbolic derivative in z; stays inside the DSL."""
    if isinstance(e, (Lit, CliffLit)):
        return Lit(0)
    if isinstance(e, Var):
        return Lit(1)
    if isinstance(e, Add):
        return _add(differentiate(e.left), differentiate(e.right))
    if isinstance(e, Sub):
        da, db = differentiate(e.left), differentiate(e.right)
        if _is_zero(db):
            return da
        if _is_zero(da):
            return Neg(db)
        return Sub(da, db)
    if isinstance(e, Mul):
        return _add(_mul(differentiate(e.left), e.right), _mul(e.left, differentiate(e.right)))
    if isinstance(e, Div):
        du, dv = differentiate(e.left), differentiate(e.right)
        first = Lit(0) if _is_zero(du) else Div(du, e.right)
        if _is_zero(dv):
            return first
        second = Div(_mul(e.left, dv), Pow(e.right, 2))
        return first if _is_zero(second) else (Neg(second) if _is_zero(first) else Sub(first, second))
    if isinstance(e, Neg):
        return Neg(differentiate(e.inner))
    if isinstance(e, Pow):
        if e.exponent == 0:
            return Lit(0)
        db = differentiate(e.base)
        if _is_zero(db):
            return Lit(0)
        if is_scalar_expr(e.base):
            return _mul(Lit(e.exponent), _mul(_pow(e.base, e.exponent - 1), db))
        # noncommuting base: (u^k)' = (u^a)' u^b + u^a (u^b)' with a + b = k;
        # halving k keeps the tree depth logarithmic in the exponent
        def power_derivative(k: int) -> Expr:
            if k == 1:
                return db
            a = k // 2
            return _add(_mul(power_derivative(a), _pow(e.base, k - a)),
                        _mul(_pow(e.base, a), power_derivative(k - a)))

        return power_derivative(e.exponent)
    if isinstance(e, Func):
        da = differentiate(e.arg)
        outer = _FUNCTIONS[e.name][1]
        if outer.startswith("-"):
            chain = Neg(Func(outer[1:], e.arg))
        else:
            chain = Func(outer, e.arg)
        return _mul(da, chain)
    raise TypeError(f"not an expression node: {e!r}")


# -- pretty printing --------------------------------------------------------------

_PREC = {Add: 1, Sub: 1, Mul: 2, Div: 2, Neg: 3, Pow: 4}


def _prec(e: Expr) -> int:
    if isinstance(e, CliffLit):
        text = format_multivector(e.value)
        return 1 if " " in text else 5
    if isinstance(e, Lit):
        value = e.value
        if value.imag != 0 or value.real < 0:
            return 0  # always parenthesized inside larger expressions
        return 5
    return _PREC.get(type(e), 5)


def _fmt_number(value: complex) -> str:
    if value.imag == 0:
        real = value.real
        if real == int(real) and abs(real) < 1e16:
            return str(int(real))
        return repr(real)
    return repr(complex(value))


def pretty(e: Expr) -> str:
    """Render with minimal parentheses; reparsing gives the same tree."""

    def wrap(child: Expr, minimum: int) -> str:
        text = pretty(child)
        return f"({text})" if _prec(child) < minimum else text

    if isinstance(e, Lit):
        return _fmt_number(e.value)
    if isinstance(e, CliffLit):
        return format_multivector(e.value)
    if isinstance(e, Var):
        return "z"
    if isinstance(e, Add):
        return f"{wrap(e.left, 1)} + {wrap(e.right, 2)}"
    if isinstance(e, Sub):
        return f"{wrap(e.left, 1)} - {wrap(e.right, 2)}"
    if isinstance(e, Mul):
        return f"{wrap(e.left, 2)}*{wrap(e.right, 3)}"
    if isinstance(e, Div):
        return f"{wrap(e.left, 2)}/{wrap(e.right, 3)}"
    if isinstance(e, Neg):
        return f"-{wrap(e.inner, 3)}"
    if isinstance(e, Pow):
        return f"{wrap(e.base, 5)}^{e.exponent}"
    if isinstance(e, Func):
        return f"{e.name}({pretty(e.arg)})"
    raise TypeError(f"not an expression node: {e!r}")


# -- poles and stem-function construction ------------------------------------------

def _divisors(e: Expr, acc: list[Expr]) -> list[Expr]:
    if isinstance(e, Div):
        acc.append(e.right)
    for child in _children(e):
        _divisors(child, acc)
    return acc


def _find_poles(divisor: Expr, n: int, radius: float) -> list[complex]:
    """Heuristic zero scan of a scalar divisor: coarse grid seeds polished
    by Newton iteration with the symbolic derivative, all seeds at once.
    A seed whose iterates overflow is dropped, not reported."""
    value_node, _ = _compile(divisor, n)
    slope_node, _ = _compile(differentiate(divisor), n)

    def value(zs: np.ndarray) -> np.ndarray:
        return np.broadcast_to(value_node(zs), zs.shape)

    grid = np.linspace(-radius, radius, 41)
    points = (grid[:, None] + 1j * grid[None, :]).ravel()
    seeds = points[np.abs(points) < radius]
    if not len(seeds):
        return []
    with np.errstate(all="ignore"):
        magnitudes = np.abs(value(seeds))
        # the median by sorting: np.median would import numpy.ma (half a MB)
        ordered = np.sort(magnitudes)
        median = 0.5 * (ordered[(len(ordered) - 1) // 2] + ordered[len(ordered) // 2])
        cutoff = 0.25 * float(median) + 1e-30
        zs = seeds[magnitudes <= cutoff]
        active = np.ones(len(zs), dtype=bool)
        for _ in range(40):
            idx = np.flatnonzero(active)
            if not len(idx):
                break
            z = zs[idx]
            dv = np.broadcast_to(slope_node(z), z.shape)
            flat = np.abs(dv) < 1e-14
            step = value(z) / np.where(flat, 1.0, dv)
            z = np.where(flat, z, z - step)
            zs[idx] = z
            active[idx[flat | (np.abs(step) < 1e-13 * (1.0 + np.abs(z)))]] = False
        found = zs[(np.abs(zs) < radius) & (np.abs(value(zs)) < 1e-8)]
    roots: list[complex] = []
    for z in found.tolist():
        if all(abs(z - r) > 1e-7 * (1.0 + abs(z)) for r in roots):
            roots.append(z)
    return roots


def stem_function(source: str | Expr, n: int, domain: PlanarDomain | None = None) -> StemFunction:
    """Build a stem function from DSL source or a hand-built tree.

    The default domain is the origin-centered disk of radius ``DEFAULT_RADIUS``,
    punctured at divisor zeros found by sampling (a heuristic: a pole the
    scan misses goes unpunctured).  The symbolic derivative is attached, built
    on first use and kept, so derivative-based operations need no extra
    quadrature.
    """
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 0:
        raise DomainError(f"algebra rank must be an integer >= 0, got {n!r}")
    expr = parse(source, n) if isinstance(source, str) else source
    validate(expr)
    batch = _compile_batch(expr, n)
    label = pretty(expr)
    if domain is None:
        poles: list[complex] = []
        for divisor in _divisors(expr, []):
            poles.extend(_find_poles(divisor, n, DEFAULT_RADIUS))
        domain = PlanarDomain([Disk(0j, DEFAULT_RADIUS)], punctures=poles)

    def fn(z: complex) -> CMultivector:
        return CMultivector(n, batch(np.array([z]))[0])

    @cache  # one derived function object, so its transforms share their samples
    def derivative() -> StemFunction:
        return stem_function(differentiate(expr), n, domain=domain)

    return StemFunction(
        n=n,
        fn=fn,
        domain=domain,
        is_analytic=True,
        is_scalar=is_scalar_expr(expr),
        derivative=derivative,
        label=label,
        batch=batch,
    )
