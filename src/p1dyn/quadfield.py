"""Exact arithmetic in Q and in the imaginary quadratic fields Q(sqrt(-d)).

An element is a + b*sqrt(-d) with exact rational a, b and a field tag
d in {0, 1, 3}.  The tag d = 0 marks plain rationals (b must vanish).
All three rings of integers (Z, Z[i], Z[(1+sqrt(-3))/2]) are
norm-Euclidean, so gcds are computed by repeated division with
remainder and then pinned to a canonical associate.

The string grammar used by the CLI and the map files is handled here:
rationals are written `p/q`, a generic element `a+b*w` where `w` stands
for sqrt(-d) of the ambient field, e.g. `-1/2+1/2*w`, `3`, `2*w`.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError, FieldMismatchError, MapSpecError

SUPPORTED_D = (0, 1, 3)

_HALF = Fraction(1, 2)


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


class QuadFieldElement:
    """Exact element a + b*sqrt(-d) of Q (d=0), Q(i) (d=1) or Q(sqrt(-3)) (d=3)."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, a, b=0, d=0):
        if d not in SUPPORTED_D:
            raise DomainError(f"unsupported field tag d={d}; supported: {SUPPORTED_D}")
        a = _as_fraction(a)
        b = _as_fraction(b)
        if d == 0 and b != 0:
            raise DomainError("rational field (d=0) cannot hold a sqrt part")
        self._a = a
        self._b = b
        self._d = d

    @property
    def a(self) -> Fraction:
        return self._a

    @property
    def b(self) -> Fraction:
        return self._b

    @property
    def d(self) -> int:
        return self._d

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls, d=0):
        return cls(0, 0, d)

    @classmethod
    def one(cls, d=0):
        return cls(1, 0, d)

    def embed(self, d: int) -> "QuadFieldElement":
        """Lift this element into the field tagged d.

        Only the canonical embedding of Q into a quadratic field is
        available; moving between two distinct quadratic fields is an error.
        """
        if d == self._d:
            return self
        if self._d == 0:
            return QuadFieldElement(self._a, 0, d)
        raise FieldMismatchError(
            f"cannot embed an element of d={self._d} into d={d}"
        )

    # -- coercion -------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, QuadFieldElement):
            if other._d != self._d:
                raise FieldMismatchError(
                    f"field tags differ: d={self._d} vs d={other._d}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return QuadFieldElement(other, 0, self._d)
        return None

    # -- ring operations ------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadFieldElement(self._a + o._a, self._b + o._b, self._d)

    __radd__ = __add__

    def __neg__(self):
        return QuadFieldElement(-self._a, -self._b, self._d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadFieldElement(self._a - o._a, self._b - o._b, self._d)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a1, b1, a2, b2 = self._a, self._b, o._a, o._b
        return QuadFieldElement(
            a1 * a2 - self._d * b1 * b2, a1 * b2 + b1 * a2, self._d
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadFieldElement":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        return QuadFieldElement(self._a / n, -self._b / n, self._d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = QuadFieldElement.one(self._d)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- field-specific structure ----------------------------------------------

    def conj(self) -> "QuadFieldElement":
        return QuadFieldElement(self._a, -self._b, self._d)

    def norm(self) -> Fraction:
        """Field norm a^2 + d*b^2 (the square of the complex modulus)."""
        return self._a * self._a + self._d * self._b * self._b

    def is_zero(self) -> bool:
        return self._a == 0 and self._b == 0

    def is_rational(self) -> bool:
        return self._b == 0

    def is_integral(self) -> bool:
        """Membership in the ring of integers of the tagged field.

        d=0: Z.  d=1: Z[i].  d=3: Z[(1+sqrt(-3))/2], i.e. half-integer
        coordinates with matching parity are allowed.
        """
        a, b = self._a, self._b
        if self._d in (0, 1):
            return a.denominator == 1 and b.denominator == 1
        u = a - b
        v = 2 * b
        return u.denominator == 1 and v.denominator == 1

    def basis_pair(self):
        """Coordinates in the integral basis: (1, i) for d=1, (1, omega) for d=3.

        omega = (1 + sqrt(-3))/2.  For d=0 the second coordinate is 0.
        Integral elements give plain ints, everything else Fractions, so
        callers can clear denominators coordinate-wise.
        """
        if self._d == 3:
            u = self._a - self._b
            v = 2 * self._b
        else:
            u, v = self._a, self._b
        if u.denominator == 1 and v.denominator == 1:
            return int(u), int(v)
        return u, v

    @classmethod
    def from_basis_pair(cls, u: int, v: int, d: int) -> "QuadFieldElement":
        if d == 3:
            return cls(Fraction(2 * u + v, 2), Fraction(v, 2), 3)
        return cls(u, v, d)

    def __complex__(self) -> complex:
        return complex(float(self._a), float(self._b) * math.sqrt(self._d))

    # -- comparison / hashing ----------------------------------------------------

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except FieldMismatchError:
            return False
        if o is None:
            return NotImplemented
        return self._a == o._a and self._b == o._b

    def __hash__(self):
        return hash((self._a, self._b, self._d))

    def __bool__(self):
        return not self.is_zero()

    # -- formatting ----------------------------------------------------------------

    def __str__(self):
        return format_element(self)

    def __repr__(self):
        return f"QuadFieldElement({self._a!r}, {self._b!r}, d={self._d})"


# ---------------------------------------------------------------------------
# Ring-of-integers machinery: rounding, Euclidean division, gcd.
# ---------------------------------------------------------------------------


def _round_fraction(x: Fraction) -> int:
    """Nearest integer, ties toward +infinity; |x - result| <= 1/2."""
    return math.floor(x + _HALF)


def round_to_integers(x: QuadFieldElement) -> QuadFieldElement:
    """Nearest element of the ring of integers.

    The covering radius of each integer lattice is < 1 in the norm, which
    is what makes the Euclidean division below terminate: d=0 gives
    error <= 1/4, d=1 gives <= 1/2, d=3 (hexagonal lattice) gives <= 3/4.
    """
    if x.d in (0, 1):
        return QuadFieldElement(_round_fraction(x.a), _round_fraction(x.b), x.d)
    u = _round_fraction(x.a - x.b)
    v = _round_fraction(2 * x.b)
    return QuadFieldElement.from_basis_pair(u, v, 3)


def divmod_integral(x: QuadFieldElement, y: QuadFieldElement):
    """Euclidean division x = q*y + r in the ring of integers, norm(r) < norm(y)."""
    if y.d != x.d:
        raise FieldMismatchError(f"field tags differ: d={x.d} vs d={y.d}")
    if not (x.is_integral() and y.is_integral()):
        raise DomainError("divmod_integral requires algebraic integers")
    if y.is_zero():
        raise ZeroDivisionError("division by zero")
    q = round_to_integers(x / y)
    r = x - q * y
    return q, r


_GAUSS_UNITS = None
_EISENSTEIN_UNITS = None


def _units(d: int):
    global _GAUSS_UNITS, _EISENSTEIN_UNITS
    if d == 0:
        return (QuadFieldElement(1), QuadFieldElement(-1))
    if d == 1:
        if _GAUSS_UNITS is None:
            i = QuadFieldElement(0, 1, 1)
            _GAUSS_UNITS = (QuadFieldElement.one(1), i, i * i, i * i * i)
        return _GAUSS_UNITS
    if _EISENSTEIN_UNITS is None:
        z6 = QuadFieldElement(_HALF, _HALF, 3)  # primitive sixth root of unity
        us = [QuadFieldElement.one(3)]
        for _ in range(5):
            us.append(us[-1] * z6)
        _EISENSTEIN_UNITS = tuple(us)
    return _EISENSTEIN_UNITS


def _is_normalized_associate(x: QuadFieldElement) -> bool:
    # Argument in [0, pi/2) for d=1, [0, pi/3) for d=3, positive for d=0.
    if x.d == 0:
        return x.a > 0
    if x.d == 1:
        return x.a > 0 and x.b >= 0
    return x.a > 0 and x.b >= 0 and x.b < x.a


def normalize_unit(x: QuadFieldElement) -> QuadFieldElement:
    """The canonical associate of x (zero stays zero).

    Exactly one unit multiple of a nonzero x has complex argument in
    [0, pi/2) for d=1, in [0, pi/3) for d=3, or is positive for d=0.
    """
    if x.is_zero():
        return x
    for u in _units(x.d):
        c = x * u
        if _is_normalized_associate(c):
            return c
    raise AssertionError(f"no normalized associate found for {x!r}")


def integral_gcd(x: QuadFieldElement, y: QuadFieldElement) -> QuadFieldElement:
    """Greatest common divisor in the ring of integers, unit-normalized."""
    if x.d != y.d:
        raise FieldMismatchError(f"field tags differ: d={x.d} vs d={y.d}")
    if not (x.is_integral() and y.is_integral()):
        raise DomainError("integral_gcd requires algebraic integers")
    if x.is_zero() and y.is_zero():
        raise DomainError("gcd(0, 0) is undefined")
    while not y.is_zero():
        _, r = divmod_integral(x, y)
        x, y = y, r
    return normalize_unit(x)


def sqrt_in_field(x: QuadFieldElement):
    """An exact square root of x inside its own field, or None.

    Used to split quadratics over the supported fields when locating
    two-torsion abscissas.
    """

    def _rat_sqrt(f: Fraction):
        if f < 0:
            return None
        pn, pd = f.numerator, f.denominator
        rn, rd = math.isqrt(pn), math.isqrt(pd)
        if rn * rn == pn and rd * rd == pd:
            return Fraction(rn, rd)
        return None

    if x.is_zero():
        return QuadFieldElement.zero(x.d)
    if x.b == 0:
        r = _rat_sqrt(x.a)
        if r is not None:
            return QuadFieldElement(r, 0, x.d)
        if x.d != 0 and x.a < 0:
            r = _rat_sqrt(-x.a / x.d)
            if r is not None:
                return QuadFieldElement(0, r, x.d)
        return None
    # Solve (a + b w)^2 = x: a^2 - d b^2 = x.a and 2ab = x.b.
    disc = _rat_sqrt(x.a * x.a + x.d * x.b * x.b)
    if disc is None:
        return None
    for s in (1, -1):
        asq = (x.a + s * disc) / 2
        a = _rat_sqrt(asq)
        if a is not None and a != 0:
            b = x.b / (2 * a)
            cand = QuadFieldElement(a, b, x.d)
            if cand * cand == x:
                return cand
    return None


# ---------------------------------------------------------------------------
# String grammar.
# ---------------------------------------------------------------------------


def parse_element(text: str, d: int) -> QuadFieldElement:
    """Parse `a+b*w` / `p/q` / `b*w` into an element of the field tagged d.

    Whitespace is ignored.  `w` denotes sqrt(-d) and is rejected for d=0.
    Errors carry the position of the offending character in the original
    string.
    """
    if d not in SUPPORTED_D:
        raise DomainError(f"unsupported field tag d={d}")
    stripped = []
    positions = []
    for idx, ch in enumerate(text):
        if not ch.isspace():
            stripped.append(ch)
            positions.append(idx)
    if not stripped:
        raise MapSpecError("empty coefficient string", position=0)
    s = "".join(stripped)

    def _pos(i: int) -> int:
        return positions[min(i, len(positions) - 1)]

    # Split into sign-led terms.
    terms = []
    start = 0
    for i in range(len(s)):
        if i > start and s[i] in "+-" and s[i - 1] not in "+-/*":
            terms.append((start, s[start:i]))
            start = i
    terms.append((start, s[start:]))

    a_total = Fraction(0)
    b_total = Fraction(0)
    for off, term in terms:
        if not term or term in "+-":
            raise MapSpecError("empty term", position=_pos(off))
        sign = 1
        body = term
        if body[0] in "+-":
            sign = -1 if body[0] == "-" else 1
            body = body[1:]
        is_w = False
        if body == "w":
            coef = Fraction(1)
            is_w = True
        elif body.endswith("*w"):
            coef_text = body[:-2]
            is_w = True
            try:
                coef = Fraction(coef_text)
            except (ValueError, ZeroDivisionError):
                raise MapSpecError(
                    f"bad rational {coef_text!r}", position=_pos(off)
                ) from None
        else:
            if "w" in body:
                raise MapSpecError(
                    f"malformed term {term!r}", position=_pos(off)
                )
            try:
                coef = Fraction(body)
            except (ValueError, ZeroDivisionError):
                raise MapSpecError(
                    f"bad rational {body!r}", position=_pos(off)
                ) from None
        if is_w:
            if d == 0:
                raise MapSpecError(
                    "w is not allowed over the rationals (d=0)",
                    position=_pos(off),
                )
            b_total += sign * coef
        else:
            a_total += sign * coef
    return QuadFieldElement(a_total, b_total, d)


def format_element(x: QuadFieldElement) -> str:
    """Canonical string form accepted back by parse_element."""
    if x.b == 0:
        return str(x.a)
    if x.b == 1:
        w = "w"
    elif x.b == -1:
        w = "-w"
    else:
        w = f"{x.b}*w"
    if x.a == 0:
        return w
    if x.b > 0:
        return f"{x.a}+{w}"
    return f"{x.a}{w}"
