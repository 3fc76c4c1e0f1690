"""Exact arithmetic in Q and in the imaginary quadratic fields Q(sqrt(-d)).

An element a + b*sqrt(-d) of the field tagged d in {0, 1, 3} (d = 0:
the rationals) is held as (u + v*w)/den, ints u, v on the integral basis
(1, w) of basis_pair over the least positive den, as a Poly coefficient
is, and its ring operations are the basis pair kernels below.  All three
rings of integers (Z, Z[i], Z[(1+sqrt(-3))/2]) are norm-Euclidean, so
gcds are computed by repeated division with remainder, on residues modulo
the gcd of the two norms in Z, and then pinned to a canonical associate.

The string grammar used by the CLI and the map files is handled here:
rationals are written `p/q`, a generic element `a+b*w` where `w` stands
for sqrt(-d) of the ambient field, e.g. `-1/2+1/2*w`, `3`, `2*w`.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError, FieldMismatchError, MapSpecError

SUPPORTED_D = (0, 1, 3)


def _as_rational(value):
    if isinstance(value, (int, Fraction)):
        return value
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


class QuadFieldElement:
    """Exact element a + b*sqrt(-d) of Q (d=0), Q(i) (d=1) or Q(sqrt(-3)) (d=3)."""

    __slots__ = ("_u", "_v", "_den", "_d")

    def __init__(self, a, b=0, d=0):
        if d not in SUPPORTED_D:
            raise DomainError(f"unsupported field tag d={d}; supported: {SUPPORTED_D}")
        a = _as_rational(a)
        b = _as_rational(b)
        if d == 0 and b != 0:
            raise DomainError("rational field (d=0) cannot hold a sqrt part")
        if d == 3:
            # sqrt(-3) = 2*omega - 1
            a, b = a - b, 2 * b
        # reduced a and b make den the least denominator
        den = math.lcm(a.denominator, b.denominator)
        self._u = a.numerator * (den // a.denominator)
        self._v = b.numerator * (den // b.denominator)
        self._den, self._d = den, d

    @classmethod
    def _of(cls, u: int, v: int, den: int, d: int) -> "QuadFieldElement":
        """The element (u + v*w)/den for ints u, v and any den != 0."""
        g = math.gcd(u, v, den)
        if den < 0:
            g = -g
        out = object.__new__(cls)
        out._u, out._v, out._den, out._d = u // g, v // g, den // g, d
        return out

    @property
    def a(self) -> Fraction:
        if self._d == 3:
            return Fraction(2 * self._u + self._v, 2 * self._den)
        return Fraction(self._u, self._den)

    @property
    def b(self) -> Fraction:
        return Fraction(self._v, 2 * self._den if self._d == 3 else self._den)

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

    # -- coercion -------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, QuadFieldElement):
            if other._d != self._d:
                raise FieldMismatchError(
                    f"field tags differ: d={self._d} vs d={other._d}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return QuadFieldElement._of(
                other.numerator, 0, other.denominator, self._d
            )
        return None

    # -- ring operations ------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        s, r = self._den, o._den
        return QuadFieldElement._of(
            self._u * r + o._u * s, self._v * r + o._v * s, s * r, self._d
        )

    __radd__ = __add__

    def __neg__(self):
        return QuadFieldElement._of(-self._u, -self._v, self._den, self._d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + -o

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        u, v = pair_mul((self._u, self._v), (o._u, o._v), omega_flag(self._d))
        return QuadFieldElement._of(u, v, self._den * o._den, self._d)

    __rmul__ = __mul__

    def inverse(self) -> "QuadFieldElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        x, t = (self._u, self._v), omega_flag(self._d)
        u, v = pair_conj(x, t)
        return QuadFieldElement._of(
            u * self._den, v * self._den, pair_norm(x, t), self._d
        )

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
        return _power(self, exponent, QuadFieldElement.one(self._d))

    # -- field-specific structure ----------------------------------------------

    def conj(self) -> "QuadFieldElement":
        u, v = pair_conj((self._u, self._v), omega_flag(self._d))
        return QuadFieldElement._of(u, v, self._den, self._d)

    def norm(self) -> Fraction:
        """Field norm a^2 + d*b^2 (the square of the complex modulus)."""
        n = pair_norm((self._u, self._v), omega_flag(self._d))
        return Fraction(n, self._den * self._den)

    def is_zero(self) -> bool:
        return not (self._u or self._v)

    def is_integral(self) -> bool:
        """Membership in the ring of integers of the tagged field.

        d=0: Z.  d=1: Z[i].  d=3: Z[(1+sqrt(-3))/2], i.e. half-integer
        coordinates with matching parity are allowed.
        """
        return self._den == 1

    def basis_pair(self):
        """Coordinates in the integral basis: (1, i) for d=1, (1, omega) for d=3.

        omega = (1 + sqrt(-3))/2.  For d=0 the second coordinate is 0.
        Integral elements give plain ints, everything else Fractions, so
        callers can clear denominators coordinate-wise.
        """
        if self._den == 1:
            return self._u, self._v
        return Fraction(self._u, self._den), Fraction(self._v, self._den)

    @classmethod
    def from_basis_pair(cls, u: int, v: int, d: int) -> "QuadFieldElement":
        if d not in SUPPORTED_D or (d == 0 and v):
            raise DomainError(f"({u}, {v}) is no basis pair of d={d}")
        return cls._of(u, v, 1, d)

    def __complex__(self) -> complex:
        # int / int rounds correctly, as float(Fraction) does
        u, v, den = self._u, self._v, self._den
        if self._d == 3:
            return complex((2 * u + v) / (2 * den),
                           v / (2 * den) * math.sqrt(3))
        return complex(u / den, v / den * math.sqrt(self._d))

    # -- comparison / hashing ----------------------------------------------------

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except FieldMismatchError:
            return False
        if o is None:
            return NotImplemented
        return (self._u, self._v, self._den) == (o._u, o._v, o._den)

    def __hash__(self):
        # a rational's hash when v = 0, since the element equals it then
        if self._v:
            return hash((self._u, self._v, self._den, self._d))
        return hash(self._u if self._den == 1 else Fraction(self._u, self._den))

    def __bool__(self):
        return not self.is_zero()

    # -- formatting ----------------------------------------------------------------

    def __str__(self):
        return format_element(self)

    def __repr__(self):
        return f"QuadFieldElement({self.a!r}, {self.b!r}, d={self._d})"


# ---------------------------------------------------------------------------
# Ring-of-integers machinery on integral basis pairs: rounding, Euclidean
# division, gcd.
#
# An algebraic integer is the int pair (u, v) meaning u + v*w, w as in
# basis_pair.  With t = 1 for d=3 and t = 0 otherwise, w^2 = t*w - 1,
# conj(w) = t - w and N(u + v*w) = u^2 + t*u*v + v^2, so one set of
# formulas serves all three rings.  Multiplying by w (the unit i or
# omega) maps (u, v) to (-v, u + t*v).
# ---------------------------------------------------------------------------


def _power(base, e: int, one):
    """base**e for an int e >= 0 by repeated squaring, from `one`."""
    while e:
        if e & 1:
            one = one * base
        base = base * base
        e >>= 1
    return one


def omega_flag(d: int) -> int:
    """t for the field tag d: 1 for Z[omega], 0 for Z and Z[i]."""
    return 1 if d == 3 else 0


def pair_mul(x, y, t: int) -> tuple:
    """Product of two basis pairs."""
    m = x[1] * y[1]
    return (x[0] * y[0] - m, x[0] * y[1] + x[1] * y[0] + t * m)


def pair_conj(x, t: int) -> tuple:
    return (x[0] + t * x[1], -x[1])


def pair_norm(x, t: int) -> int:
    return x[0] * x[0] + t * x[0] * x[1] + x[1] * x[1]


def _round_ratio(n: int, m: int) -> int:
    """Nearest integer to n/m for m > 0, ties toward +infinity."""
    return (2 * n + m) // (2 * m)


def pair_divmod(x, y, t: int) -> tuple:
    """Euclidean division x = q*y + r of basis pairs, N(r) < N(y).

    q rounds each basis coordinate of x*conj(y)/N(y) to the nearest
    integer, ties toward +infinity.  N(r) < N(y) because each lattice of
    integers has covering radius below 1 in the norm: the rounding error
    is at most 1/4 for d=0, 1/2 for d=1 and 3/4 for d=3 (hexagonal).
    """
    n = pair_norm(y, t)
    p0, p1 = pair_mul(x, pair_conj(y, t), t)
    q = (_round_ratio(p0, n), _round_ratio(p1, n))
    qy = pair_mul(q, y, t)
    return q, (x[0] - qy[0], x[1] - qy[1])


def pair_gcd(x, y, t: int) -> tuple:
    """Unit-normalized gcd of two basis pairs, not both zero.

    The gcd divides N(x) = x conj(x) and N(y), so it divides their gcd h
    in Z, and it is gcd(h, x, y): h = 1 decides coprimality from two
    norms, and otherwise Euclid runs on the residues mod h
    (pair_gcd_mod), whose sizes follow h, not x and y.
    """
    if x[1] == 0 and y[1] == 0:
        # two rational integers: Bezout in Z makes their gcd in Z the gcd
        # in every ring of integers
        return (math.gcd(x[0], y[0]), 0)
    h = math.gcd(pair_norm(x, t), pair_norm(y, t))
    if h == 1:
        return (1, 0)
    return pair_gcd_mod(h, x, y, t)


def pair_gcd_mod(h: int, x, y, t: int) -> tuple:
    """Unit-normalized gcd(h, x, y) for a positive integer h.

    Euclid from h, on the residues of x and y mod h, which differ from x
    and y by elements of hO_K and so leave the gcd with h as it is.
    """
    a = (h, 0)
    for z in (x, y):
        b = (z[0] % h, z[1] % h)
        while b[0] or b[1]:
            a, b = b, pair_divmod(a, b, t)[1]
    return pair_normalize(a, t)


def unit_turns(x, t: int) -> int:
    """The k for which w^k * x is the canonical associate of nonzero x.

    Exactly one unit multiple of a nonzero x has complex argument in
    [0, pi/2) for d=1 or in [0, pi/3) for d=3, or is positive for d=0; in
    basis coordinates that is u > 0 and v >= 0 in every ring.  With t = 0
    a rational x (v = 0) needs k = 0 or 2, and w^2 = -1, so d=0 fits the
    same rule.
    """
    u, v = x
    k = 0
    while not (u > 0 and v >= 0):
        u, v = -v, u + t * v
        k += 1
    return k


def pair_turn(x, k: int, t: int) -> tuple:
    """w^k * x."""
    u, v = x
    for _ in range(k):
        u, v = -v, u + t * v
    return (u, v)


def pair_normalize(x, t: int) -> tuple:
    """The canonical associate of a basis pair (zero stays zero)."""
    if not (x[0] or x[1]):
        return x
    return pair_turn(x, unit_turns(x, t), t)


def pair_divexact(x, y, t: int) -> tuple:
    """x / y for basis pairs; DomainError unless y divides x."""
    n = pair_norm(y, t)
    u, v = pair_mul(x, pair_conj(y, t), t)
    if u % n or v % n:
        raise DomainError("basis pair division is not exact")
    return (u // n, v // n)


def integral_gcd(x: QuadFieldElement, y: QuadFieldElement) -> QuadFieldElement:
    """Greatest common divisor in the ring of integers, unit-normalized."""
    if x.d != y.d:
        raise FieldMismatchError(f"field tags differ: d={x.d} vs d={y.d}")
    if not (x.is_integral() and y.is_integral()):
        raise DomainError("integral_gcd requires algebraic integers")
    if x.is_zero() and y.is_zero():
        raise DomainError("gcd(0, 0) is undefined")
    u, v = pair_gcd(x.basis_pair(), y.basis_pair(), omega_flag(x.d))
    return QuadFieldElement.from_basis_pair(u, v, x.d)


# ---------------------------------------------------------------------------
# Vectors of elements over one common denominator.
# ---------------------------------------------------------------------------


def cleared_pairs(elements) -> tuple:
    """(pairs, den): pairs[k] is the integral basis pair of den*elements[k],
    for the least positive integer den that makes all of them integral."""
    den = math.lcm(*(x._den for x in elements))
    return [(x._u * (den // x._den), x._v * (den // x._den))
            for x in elements], den


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
