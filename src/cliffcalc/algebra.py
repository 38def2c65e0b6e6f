"""Dense arithmetic in Clifford algebras with all generators squaring to -1.

An element of rank ``n`` is a length ``2**n`` coefficient array indexed by
bitmask: bit ``i-1`` set means generator ``e_i`` divides the basis blade, so
mask 0 is the scalar unit, mask 0b101 is ``e_1 e_3``, and so on.  Three value
types are provided:

* :class:`Multivector` -- real coefficients (an element of the real algebra),
* :class:`CMultivector` -- complex coefficients (the complexified algebra),
* :class:`Paravector` -- scalar plus grade-one part, stored compactly.

All values are immutable; every operation returns a new object, so instances
can be shared freely across threads.
"""

from __future__ import annotations

import math
import numbers
import re
from functools import lru_cache

import numpy as np

from .errors import FormatError, MaskRangeError, RankMismatchError, SingularInputError

__all__ = [
    "Multivector",
    "CMultivector",
    "Paravector",
    "basis_mul",
    "mv_mul",
    "involution",
    "conjugation_bar",
    "norm",
    "paravector_inverse",
    "isclose",
    "format_multivector",
    "parse_multivector",
    "multivector_to_json",
    "multivector_from_json",
    "mask_from_digits",
    "digits_from_mask",
]

DEFAULT_TOL = 1e-12

# Text and JSON formats spell blades with one decimal digit per generator,
# which caps the representable rank; dense coefficient storage gives out at
# about the same size anyway.
MAX_FORMAT_RANK = 9


def basis_mul(j: int, k: int, n: int) -> tuple[int, int]:
    """Product of basis blades: ``e_J e_K = sign * e_L`` with ``L = J ^ K``.

    The sign counts the transpositions needed to interleave the two sorted
    generator words, plus one factor -1 per shared generator (each generator
    squares to -1).
    """
    dim = 1 << n
    if not 0 <= j < dim or not 0 <= k < dim:
        raise MaskRangeError(f"blade mask out of range for rank {n}: ({j}, {k})")
    swaps = 0
    a = j >> 1
    while a:
        swaps += (a & k).bit_count()
        a >>= 1
    swaps += (j & k).bit_count()
    return (-1 if swaps & 1 else 1), j ^ k


@lru_cache(maxsize=None)
def _mul_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-rank gather tables for the product, indexed as [j, result-mask].

    ``partner[j, l] = j ^ l`` is the right factor that lands on blade ``l``
    when the left factor is blade ``j``, and ``sign[j, l]`` is the sign of
    that basis product.
    """
    dim = 1 << n
    masks = np.arange(dim)
    partner = masks[:, None] ^ masks[None, :]
    # basis_mul's sign for every pair at once: the parity of the swap count
    # sum_s popcount((j >> s) & k) is the parity of the XOR of those terms
    left = masks[:, None]
    folded = np.zeros_like(partner)
    for shift in range(n):
        folded ^= (left >> shift) & partner
    parity = np.zeros_like(partner)
    for shift in range(n):
        parity ^= (folded >> shift) & 1
    sign = 1.0 - 2.0 * parity
    sign.setflags(write=False)
    partner.setflags(write=False)
    return sign, partner


@lru_cache(maxsize=None)
def _star_signs(n: int) -> np.ndarray:
    """Per-mask sign of the involution: (-1)**(g*(g+1)/2) for grade g."""
    grades = np.array([m.bit_count() for m in range(1 << n)])
    signs = np.where((grades * (grades + 1) // 2) % 2, -1.0, 1.0)
    signs.setflags(write=False)
    return signs


def _mul_coeffs(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    # (a b)[l] = sum_j sign[j, l] a[j] b[j^l]; the gather keeps summation
    # order fixed, so products are bit-for-bit reproducible.
    sign, partner = _mul_tables(n)
    return (a[:, None] * (sign * b[partner])).sum(axis=0)


def _paravector_coeffs(components: np.ndarray, n: int) -> np.ndarray:
    """The (..., 2**n) blade coefficients of a (..., n + 1) stack of
    paravector components: component j > 0 sits at mask 1 << (j - 1)."""
    out = np.zeros(components.shape[:-1] + (1 << n,))
    out[..., 0] = components[..., 0]
    out[..., 1 << np.arange(n)] = components[..., 1:]
    return out


def _batch_mul_coeffs(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Row-wise products of two (N, 2**n) coefficient stacks."""
    sign, partner = _mul_tables(n)
    return np.einsum("kj,jl,kjl->kl", a, sign, b[:, partner])


def _power(base, exponent: int, mul, one):
    """``base ** exponent`` by repeated squaring: about 2 log2(exponent)
    calls of ``mul``, which only ever multiplies powers of ``base``, so the
    order of the factors does not matter.  ``one`` is returned for exponent 0."""
    result = None
    while exponent:
        if exponent & 1:
            result = base if result is None else mul(result, base)
        exponent >>= 1
        if exponent:
            base = mul(base, base)
    return one if result is None else result


class _Element:
    """Coefficient-array arithmetic shared by the real and complex types."""

    __slots__ = ("n", "coeffs")
    _dtype: type = np.float64

    def __init__(self, n: int, coeffs):
        if n < 0:
            raise MaskRangeError(f"algebra rank must be >= 0, got {n}")
        arr = np.array(coeffs, dtype=self._dtype)  # a private copy
        if arr.shape != (1 << n,):
            raise MaskRangeError(
                f"rank {n} needs exactly {1 << n} coefficients, got shape {arr.shape}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", arr)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_scalar(cls, n: int, value):
        coeffs = np.zeros(1 << n, dtype=cls._dtype)
        coeffs[0] = value
        return cls(n, coeffs)

    @classmethod
    def basis_blade(cls, n: int, mask: int):
        if not 0 <= mask < (1 << n):
            raise MaskRangeError(f"blade mask {mask} out of range for rank {n}")
        coeffs = np.zeros(1 << n, dtype=cls._dtype)
        coeffs[mask] = 1
        return cls(n, coeffs)

    @classmethod
    def zero(cls, n: int):
        return cls(n, np.zeros(1 << n, dtype=cls._dtype))

    # -- structure ---------------------------------------------------------

    @property
    def scalar(self):
        """Coefficient of the unit blade."""
        return self.coeffs[0].item()

    def nonscalar(self):
        """Copy with the scalar blade removed (grade >= 1 content)."""
        coeffs = self.coeffs.copy()
        coeffs[0] = 0
        return type(self)(self.n, coeffs)

    def norm(self) -> float:
        c = self.coeffs  # np.linalg.norm's sums (bit-identical), without its checks
        return math.sqrt(c.real @ c.real + c.imag @ c.imag)

    def star(self):
        """The algebra involution; on the complexification it also conjugates."""
        signs = _star_signs(self.n)
        if np.iscomplexobj(self.coeffs):
            return type(self)(self.n, signs * np.conj(self.coeffs))
        return type(self)(self.n, signs * self.coeffs)

    # -- arithmetic --------------------------------------------------------

    def _binary(self, other, op):
        a, b, cls = _coerce_pair(self, other)
        if a is None:
            return NotImplemented
        return cls(self.n, op(a, b))

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return self._binary(other, lambda a, b: b - a)

    def __neg__(self):
        return type(self)(self.n, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, numbers.Number):
            return self._scale(other)
        a, b, cls = _coerce_pair(self, other)
        if a is None:
            return NotImplemented
        return cls(self.n, _mul_coeffs(a, b, self.n))

    def __rmul__(self, other):
        if isinstance(other, numbers.Number):
            return self._scale(other)
        a, b, cls = _coerce_pair(self, other)
        if a is None:
            return NotImplemented
        return cls(self.n, _mul_coeffs(b, a, self.n))

    def _scale(self, factor):
        coeffs = self.coeffs * factor
        cls = CMultivector if np.iscomplexobj(coeffs) else Multivector
        return cls(self.n, coeffs)

    def __truediv__(self, other):
        if isinstance(other, numbers.Number):
            if other == 0:
                raise ZeroDivisionError("division of a multivector by zero")
            return self._scale(1 / other)
        return NotImplemented

    def __pow__(self, exponent):
        if not isinstance(exponent, numbers.Integral) or exponent < 0:
            return NotImplemented
        return _power(self, int(exponent), lambda a, b: a * b, type(self).from_scalar(self.n, 1))

    def __eq__(self, other):
        if isinstance(other, _Element):
            return self.n == other.n and bool(np.array_equal(
                self.coeffs, np.asarray(other.coeffs, dtype=self.coeffs.dtype)))
        return NotImplemented

    __hash__ = None

    def __str__(self):
        return format_multivector(self)

    def __repr__(self):
        return f"{type(self).__name__}({self.n}, {format_multivector(self)!r})"


class Multivector(_Element):
    """Element of the real Clifford algebra: 2**n real blade coefficients."""

    _dtype = np.float64

    def __init__(self, n, coeffs):
        arr = np.asarray(coeffs)
        if np.iscomplexobj(arr):
            raise FormatError("Multivector coefficients must be real; use CMultivector")
        super().__init__(n, arr)

    def to_cmultivector(self) -> "CMultivector":
        return CMultivector(self.n, self.coeffs.astype(np.complex128))

    def bar(self) -> "Multivector":
        """The conjugation of the complexification fixes the real algebra."""
        return self


class CMultivector(_Element):
    """Element of the complexified algebra: 2**n complex blade coefficients."""

    _dtype = np.complex128

    @property
    def real(self) -> Multivector:
        """Real-algebra part of the splitting c = a + i b."""
        return Multivector(self.n, self.coeffs.real)

    @property
    def imag(self) -> Multivector:
        """Real-algebra part b of the splitting c = a + i b."""
        return Multivector(self.n, self.coeffs.imag)

    def bar(self) -> "CMultivector":
        """Conjugation a + i b -> a - i b: an automorphism squaring to one."""
        return CMultivector(self.n, np.conj(self.coeffs))


def _coerce_pair(x, y):
    """Promote a pair of algebra values to a common coefficient dtype."""
    if isinstance(y, Paravector):
        y = y.to_multivector()
    if isinstance(y, numbers.Number):
        cls = type(x)
        if isinstance(y, numbers.Complex) and not isinstance(y, numbers.Real):
            cls = CMultivector
        other = np.zeros(1 << x.n, dtype=cls._dtype)
        other[0] = y
        a = x.coeffs.astype(cls._dtype, copy=False)
        return a, other, cls
    if not isinstance(y, _Element):
        return None, None, None
    if x.n != y.n:
        raise RankMismatchError(f"rank mismatch: {x.n} vs {y.n}")
    if isinstance(x, CMultivector) or isinstance(y, CMultivector):
        return (
            x.coeffs.astype(np.complex128, copy=False),
            y.coeffs.astype(np.complex128, copy=False),
            CMultivector,
        )
    return x.coeffs, y.coeffs, Multivector


class Paravector:
    """Scalar-plus-vector element ``a_0 + a_1 e_1 + ... + a_n e_n``.

    These are exactly the elements whose product with their involution is the
    squared norm, hence the nonzero ones are invertible.
    """

    __slots__ = ("n", "components")

    def __init__(self, n: int, components):
        arr = np.array(components, dtype=np.float64)  # a private copy
        if arr.shape != (n + 1,):
            raise MaskRangeError(f"rank {n} paravector needs {n + 1} components")
        arr.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "components", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Paravector is immutable")

    @classmethod
    def from_scalar(cls, n: int, value: float) -> "Paravector":
        components = np.zeros(n + 1)
        components[0] = value
        return cls(n, components)

    @classmethod
    def basis(cls, n: int, j: int) -> "Paravector":
        """The generator e_j (j >= 1) or the unit (j = 0) as a paravector."""
        if not 0 <= j <= n:
            raise MaskRangeError(f"generator index {j} out of range for rank {n}")
        components = np.zeros(n + 1)
        components[j] = 1
        return cls(n, components)

    @classmethod
    def from_multivector(cls, mv: _Element, tol: float = DEFAULT_TOL) -> "Paravector":
        coeffs = np.asarray(mv.coeffs)
        if np.iscomplexobj(coeffs):
            if np.max(np.abs(coeffs.imag), initial=0.0) > tol * max(1.0, mv.norm()):
                raise FormatError("multivector has non-real coefficients")
            coeffs = coeffs.real
        components = np.zeros(mv.n + 1)
        components[0] = coeffs[0]
        rest = coeffs.copy()
        rest[0] = 0
        for j in range(1, mv.n + 1):
            components[j] = coeffs[1 << (j - 1)]
            rest[1 << (j - 1)] = 0
        if np.max(np.abs(rest), initial=0.0) > tol * max(1.0, mv.norm()):
            raise FormatError("multivector has grade >= 2 content, not a paravector")
        return cls(mv.n, components)

    @property
    def scalar(self) -> float:
        return float(self.components[0])

    @property
    def vector(self) -> np.ndarray:
        return self.components[1:]

    @property
    def vector_norm(self) -> float:
        """Euclidean length of the grade-one part."""
        return math.sqrt(self.components[1:] @ self.components[1:])

    @property
    def is_real(self) -> bool:
        return bool(np.all(self.components[1:] == 0.0))

    def unit_imaginary(self) -> "Paravector | None":
        """Direction of the grade-one part, or None for a real paravector."""
        y = self.vector_norm
        if y == 0.0:
            return None
        components = self.components.copy()
        components[0] = 0.0
        return Paravector(self.n, components / y)

    def norm(self) -> float:
        return math.sqrt(self.components @ self.components)

    def star(self) -> "Paravector":
        components = self.components.copy()
        components[1:] *= -1
        return Paravector(self.n, components)

    def inverse(self) -> "Paravector":
        nrm2 = float(np.dot(self.components, self.components))
        if nrm2 == 0.0:
            raise SingularInputError("zero paravector has no inverse")
        return Paravector(self.n, self.star().components / nrm2)

    def to_multivector(self) -> Multivector:
        return Multivector(self.n, _paravector_coeffs(self.components, self.n))

    def to_cmultivector(self) -> CMultivector:
        return self.to_multivector().to_cmultivector()

    # Elementary arithmetic that stays inside the paravector subspace; any
    # other combination goes through the full algebra.

    def __add__(self, other):
        if isinstance(other, Paravector):
            if other.n != self.n:
                raise RankMismatchError(f"rank mismatch: {self.n} vs {other.n}")
            return Paravector(self.n, self.components + other.components)
        if isinstance(other, numbers.Real):
            components = self.components.copy()
            components[0] += other
            return Paravector(self.n, components)
        return self.to_multivector() + other

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-1) * other if isinstance(other, (Paravector, numbers.Real)) \
            else self.to_multivector() - other

    def __rsub__(self, other):
        return (-1) * self + other

    def __neg__(self):
        return Paravector(self.n, -self.components)

    def __mul__(self, other):
        if isinstance(other, numbers.Real):
            return Paravector(self.n, self.components * other)
        return self.to_multivector() * other

    def __rmul__(self, other):
        if isinstance(other, numbers.Real):
            return Paravector(self.n, self.components * other)
        return other * self.to_multivector()

    def __eq__(self, other):
        if isinstance(other, Paravector):
            return self.n == other.n and bool(np.array_equal(self.components, other.components))
        return NotImplemented

    __hash__ = None

    def __str__(self):
        # format_multivector(self.to_multivector()), without the multivector:
        # component j > 0 is the coefficient of the blade e_j
        return _format_terms((str(j) if j else "", c)
                             for j, c in enumerate(self.components.tolist()) if c != 0)

    def __repr__(self):
        return f"Paravector({self.n}, {str(self)!r})"


# -- operation aliases matching the module contract -------------------------

def mv_mul(a, b):
    """Bilinear product of two algebra elements of equal rank."""
    result = a * b
    if result is NotImplemented:
        raise TypeError(f"cannot multiply {type(a).__name__} by {type(b).__name__}")
    return result


def involution(a):
    """Anti-automorphism with e_j -> -e_j; reverses products."""
    return a.star()


def conjugation_bar(c):
    """Conjugation of the complexification; fixes exactly the real algebra."""
    return c.bar()


def norm(a) -> float:
    """Euclidean norm of the coefficient vector (complex moduli squared)."""
    return a.norm()


def paravector_inverse(kappa: Paravector) -> Paravector:
    """Inverse of a nonzero paravector: the involution over the squared norm."""
    return kappa.inverse()


def isclose(a, b, tol: float = DEFAULT_TOL) -> bool:
    """Absolute comparison scaled by the larger operand norm (floor 1)."""
    if isinstance(a, Paravector):
        a = a.to_multivector()
    if isinstance(b, Paravector):
        b = b.to_multivector()
    diff = a - b
    return diff.norm() <= tol * max(1.0, a.norm(), b.norm())


# -- text format -------------------------------------------------------------
#
# Signed terms `c`, `c e<digits>`, or `e<digits>`, e.g. `1 - 2.5e13 + e2`.
# Generator digits are strictly increasing, so `e13` is the blade e_1 e_3 and
# the `-2.5` in front of it is its coefficient.  Scientific notation therefore
# requires a signed exponent (`1e+10`), otherwise the `e` starts a blade.

_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-]?)\s*"
    r"(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]\d+)?)\s*)?"
    r"(?:e(?P<blade>\d+))?"
)


def digits_from_mask(mask: int) -> str:
    return "".join(str(j + 1) for j in range(mask.bit_length()) if mask >> j & 1)


def mask_from_digits(digits: str, n: int) -> int:
    if n > MAX_FORMAT_RANK:
        raise FormatError(f"digit blade keys support rank <= {MAX_FORMAT_RANK}")
    mask = 0
    prev = 0
    for ch in digits:
        j = int(ch)
        if j <= prev:
            raise FormatError(f"generator digits must be strictly increasing: e{digits}")
        if j > n:
            raise MaskRangeError(f"generator e{j} exceeds rank {n}")
        mask |= 1 << (j - 1)
        prev = j
    return mask


def _format_coeff(value) -> str:
    if isinstance(value, complex):
        if value.imag == 0.0:
            value = value.real
        else:
            return f"({value.real:.12g}{value.imag:+.12g}j)"
    value = float(value)
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def format_multivector(mv: _Element) -> str:
    """Render in the signed-term text format (see module notes)."""
    return _format_terms((digits_from_mask(mask), c)
                         for mask, c in enumerate(mv.coeffs.tolist()) if c != 0)


def _format_terms(terms) -> str:
    """The signed-term text of nonzero ``(blade digits, coefficient)`` pairs
    in blade order; empty digits are the scalar blade."""
    parts = []
    for digits, c in terms:
        is_neg = isinstance(c, float) and c < 0
        mag = -c if is_neg else c
        body = _format_coeff(mag)
        if digits:
            blade = "e" + digits
            body = blade if body == "1" else f"{body}{blade}"
        if not parts:
            parts.append(f"-{body}" if is_neg else body)
        else:
            parts.append(f"- {body}" if is_neg else f"+ {body}")
    return " ".join(parts) if parts else "0"


def parse_multivector(text: str, n: int) -> Multivector:
    """Parse the signed-term text format into a real multivector."""
    if not 0 <= n <= MAX_FORMAT_RANK:
        raise FormatError(f"the text format supports ranks 0 to {MAX_FORMAT_RANK}, got {n}")
    coeffs = np.zeros(1 << n)
    pos = 0
    first = True
    while pos < len(text):
        match = _TERM_RE.match(text, pos)
        if not match or (match.group("num") is None and match.group("blade") is None):
            raise FormatError(f"cannot parse multivector term at position {pos}: {text!r}")
        sign_txt, num, blade = match.group("sign", "num", "blade")
        if not first and sign_txt == "":
            raise FormatError(f"missing +/- between terms at position {pos}: {text!r}")
        sign = -1.0 if sign_txt == "-" else 1.0
        value = float(num) if num is not None else 1.0
        mask = mask_from_digits(blade, n) if blade is not None else 0
        coeffs[mask] += sign * value
        pos = match.end()
        first = False
        while pos < len(text) and text[pos].isspace():
            pos += 1
    if first:
        raise FormatError("empty multivector text")
    return Multivector(n, coeffs)


# -- JSON format --------------------------------------------------------------

def multivector_to_json(mv) -> dict:
    """JSON object ``{"n": n, "coeffs": {"13": c, ...}}``; zeros omitted.

    Complex coefficients are emitted as two-element ``[re, im]`` arrays.
    """
    if isinstance(mv, Paravector):
        mv = mv.to_multivector()
    if mv.n > MAX_FORMAT_RANK:
        raise FormatError(f"JSON blade keys support rank <= {MAX_FORMAT_RANK}")
    coeffs = {}
    complex_valued = np.iscomplexobj(mv.coeffs)
    for mask in range(1 << mv.n):
        c = mv.coeffs[mask].item()
        if c == 0:
            continue
        key = digits_from_mask(mask)
        coeffs[key] = [c.real, c.imag] if complex_valued else c
    return {"n": mv.n, "coeffs": coeffs}


def multivector_from_json(obj: dict):
    """Inverse of :func:`multivector_to_json`; missing keys mean zero."""
    try:
        n = int(obj["n"])
        entries = obj.get("coeffs", {})
    except (KeyError, TypeError) as exc:
        raise FormatError(f"malformed multivector JSON: {obj!r}") from exc
    coeffs = np.zeros(1 << n, dtype=np.complex128)
    for key, value in entries.items():
        mask = mask_from_digits(key, n)
        if isinstance(value, (list, tuple)):
            if len(value) != 2:
                raise FormatError(f"complex coefficient must be [re, im]: {value!r}")
            coeffs[mask] = complex(value[0], value[1])
        else:
            coeffs[mask] = float(value)
    if np.all(coeffs.imag == 0.0):
        return Multivector(n, coeffs.real)
    return CMultivector(n, coeffs)
