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
import sys

from .errors import DomainError, FieldMismatchError, MapSpecError

SUPPORTED_D = (0, 1, 3)

_HASH_MODULUS, _HASH_INF = sys.hash_info.modulus, sys.hash_info.inf


def _fraction_type():
    """fractions.Fraction if that module is loaded, else None: no value
    can be a Fraction before it is, so type tests need not load it."""
    module = sys.modules.get("fractions")
    return None if module is None else module.Fraction


def _ratio(value) -> tuple:
    """(num, den), den > 0, of an int, a Fraction or a rational literal."""
    if isinstance(value, int):
        return value, 1
    if isinstance(value, str):
        return parse_rational(value)
    fraction = _fraction_type()
    if fraction is not None and isinstance(value, fraction):
        return value.numerator, value.denominator
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


class QuadFieldElement:
    """Exact element a + b*sqrt(-d) of Q (d=0), Q(i) (d=1) or Q(sqrt(-3)) (d=3)."""

    __slots__ = ("_u", "_v", "_den", "_d")

    def __init__(self, a, b=0, d=0):
        self._set(_ratio(a), _ratio(b), d)

    def _set(self, a, b, d) -> None:
        """Hold a + b*sqrt(-d) for a, b given as (num, den), den > 0."""
        if d not in SUPPORTED_D:
            raise DomainError(f"unsupported field tag d={d}; supported: {SUPPORTED_D}")
        if d == 0 and b[0]:
            raise DomainError("rational field (d=0) cannot hold a sqrt part")
        u, v, den = a[0] * b[1], b[0] * a[1], a[1] * b[1]
        if d == 3:
            # sqrt(-3) = 2*omega - 1
            u, v = u - v, 2 * v
        # den > 0, so g > 0, and dividing it out leaves the least den
        g = math.gcd(u, v, den)
        self._u, self._v, self._den, self._d = u // g, v // g, den // g, d

    @classmethod
    def _from_ratios(cls, a: tuple, b: tuple, d: int) -> "QuadFieldElement":
        """The element a + b*sqrt(-d) for a, b given as (num, den), den > 0."""
        out = object.__new__(cls)
        out._set(a, b, d)
        return out

    @classmethod
    def _of(cls, u: int, v: int, den: int, d: int) -> "QuadFieldElement":
        """The element (u + v*w)/den for ints u, v and any den != 0."""
        g = math.gcd(u, v, den)
        if den < 0:
            g = -g
        out = object.__new__(cls)
        out._u, out._v, out._den, out._d = u // g, v // g, den // g, d
        return out

    def _ab(self) -> tuple:
        """(a, b) as unreduced (num, den) int pairs, den > 0."""
        if self._d == 3:
            return (2 * self._u + self._v, 2 * self._den), (self._v, 2 * self._den)
        return (self._u, self._den), (self._v, self._den)

    @property
    def a(self):
        from fractions import Fraction

        return Fraction(*self._ab()[0])

    @property
    def b(self):
        from fractions import Fraction

        return Fraction(*self._ab()[1])

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
        if isinstance(other, int):
            return QuadFieldElement._of(other, 0, 1, self._d)
        fraction = _fraction_type()
        if fraction is not None and isinstance(other, fraction):
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

    def norm(self):
        """Field norm a^2 + d*b^2 (the square of the complex modulus), a
        Fraction."""
        from fractions import Fraction

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
        from fractions import Fraction

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
        u, den = self._u, self._den
        if self._v:
            return hash((u, self._v, den, self._d))
        if den == 1:
            return hash(u)
        # hash(Fraction(u, den)), by Python's rule for rational hashes:
        # |u|/den mod P, inf where den has no inverse mod P, with u's sign;
        # hash() reads -1 as -2, as it does for a Fraction
        try:
            inv = pow(den, -1, _HASH_MODULUS)
        except ValueError:
            h = _HASH_INF
        else:
            h = hash(hash(abs(u)) * inv)
        return -h if u < 0 else h

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


def _digits(text: str, signed: bool = False) -> int:
    """The int of a run of decimal digits, with single underscores
    between digits, and with an optional sign when signed; ValueError
    otherwise."""
    body = text[1:] if signed and text[:1] in ("+", "-") else text
    if not all(part.isdecimal() for part in body.split("_")):
        raise ValueError(f"invalid rational literal {text!r}")
    return int(text)


def parse_rational(text: str) -> tuple:
    """(num, den) in lowest terms, den > 0, of the rational that
    fractions.Fraction(text) reads on Python 3.12 and 3.13, computed on
    ints, the same on every supported Python: an optional sign, then
    digits and an optional /digits with whitespace allowed around the
    slash, or a decimal with an optional exponent, with whitespace
    around; single underscores may join digits.  ValueError or
    ZeroDivisionError where that Fraction(text) raises it."""
    s = text.strip()
    negative = s[:1] == "-"
    if s[:1] in ("+", "-"):
        s = s[1:]
    head, slash, tail = s.partition("/")
    if slash:
        num, den = _digits(head.rstrip()), _digits(tail.lstrip())
        if not den:
            raise ZeroDivisionError(f"rational {text!r} has denominator 0")
    else:
        mantissa, e, exp = s.replace("E", "e").partition("e")
        whole, _, frac = mantissa.partition(".")
        # a digit first, or a point and a digit
        if not (whole or frac[:1].isdecimal()):
            raise ValueError(f"invalid rational literal {text!r}")
        num, den = (_digits(whole) if whole else 0), 1
        if frac:
            den = 10 ** len(frac.replace("_", ""))
            num = num * den + _digits(frac)
        if e:
            k = _digits(exp, signed=True)
            if k >= 0:
                num *= 10**k
            else:
                den *= 10**-k
    g = math.gcd(num, den)
    return (-num if negative else num) // g, den // g


def _ratio_str(num: int, den: int) -> str:
    """str() of the Fraction num/den, den > 0.  Raises DomainError for
    an int past Python's cap on int-to-string conversion
    (sys.get_int_max_str_digits, 3.10.7 and later)."""
    g = math.gcd(num, den)
    num, den = num // g, den // g
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:
        raise DomainError(
            "a coefficient is too long to print: it has more digits than "
            f"Python's limit of {sys.get_int_max_str_digits()} for "
            "int-to-string conversion") from None


def parse_element(text: str, d: int) -> QuadFieldElement:
    """Parse `a+b*w` / `p/q` / `b*w` into an element of the field tagged d.

    Whitespace is ignored.  `w` denotes sqrt(-d) and is rejected for d=0.
    Each rational reads as parse_rational reads it.  Errors carry the
    position of the offending character in the original string.
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

    # a and b as (num, den), indexed by is_w
    totals = [(0, 1), (0, 1)]
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
            coef = (1, 1)
            is_w = True
        elif body.endswith("*w"):
            coef_text = body[:-2]
            is_w = True
            try:
                coef = parse_rational(coef_text)
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
                coef = parse_rational(body)
            except (ValueError, ZeroDivisionError):
                raise MapSpecError(
                    f"bad rational {body!r}", position=_pos(off)
                ) from None
        if is_w and d == 0:
            raise MapSpecError(
                "w is not allowed over the rationals (d=0)",
                position=_pos(off),
            )
        n, m = totals[is_w]
        totals[is_w] = (n * coef[1] + sign * coef[0] * m, m * coef[1])
    return QuadFieldElement._from_ratios(totals[0], totals[1], d)


def format_element(x: QuadFieldElement) -> str:
    """Canonical string form accepted back by parse_element; DomainError
    for a part too long to print (see _ratio_str)."""
    (an, ad), (bn, bd) = x._ab()
    a = _ratio_str(an, ad)
    if not bn:
        return a
    if bn == bd:
        w = "w"
    elif bn == -bd:
        w = "-w"
    else:
        w = f"{_ratio_str(bn, bd)}*w"
    if not an:
        return w
    if bn > 0:
        return f"{a}+{w}"
    return f"{a}{w}"
