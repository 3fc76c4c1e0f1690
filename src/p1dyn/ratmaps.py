"""Rational maps on the projective line with exact coefficients.

Polynomials are stored dense, lowest degree first, over one of the
supported quadratic fields (or the rationals).  Maps are kept in a
normalized form: numerator and denominator coprime, denominator monic
(numerator monic for the constant-infinity map), so structural equality
is coefficient equality.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from itertools import zip_longest

from .errors import DomainError, FieldMismatchError
from .quadfield import (
    QuadFieldElement,
    _power,
    cleared_pairs,
    omega_flag,
    pair_divexact,
    pair_gcd,
    pair_norm,
    pair_turn,
    parse_element,
    format_element,
    unit_turns,
)


def _coerce_coeff(c, d: int) -> QuadFieldElement:
    if isinstance(c, QuadFieldElement):
        if c.d != d:
            raise FieldMismatchError(
                f"coefficient lives in d={c.d}, polynomial in d={d}"
            )
        return c
    return QuadFieldElement(c, 0, d)


class Poly:
    """Univariate polynomial with exact quadratic-field coefficients.

    Coefficient k is (u[k] + v[k]*w)/den on the integral basis (1, w) of
    quadfield.basis_pair: int lists u, v without trailing zeros, and den
    the least positive common denominator, so equal polynomials store
    equal ints.  Arithmetic runs on the ints; coefficients become
    QuadFieldElements only when asked for.
    """

    __slots__ = ("_u", "_v", "_den", "_d")

    def __init__(self, coeffs: Iterable, d: int = 0):
        pairs, den = cleared_pairs([_coerce_coeff(x, d) for x in coeffs])
        self._u, self._v = _trim([p[0] for p in pairs], [p[1] for p in pairs])
        self._den, self._d = den, d

    @classmethod
    def _of(cls, u: list, v: list, den: int, d: int) -> "Poly":
        """The polynomial with coefficients (u[k] + v[k]*w)/den, den > 0."""
        u, v = _trim(u, v)
        g = math.gcd(den, *u, *v)
        out = object.__new__(cls)
        out._u, out._v = [a // g for a in u], [b // g for b in v]
        out._den, out._d = den // g, d
        return out

    @property
    def d(self) -> int:
        return self._d

    @property
    def coeffs(self) -> tuple:
        return tuple(self.coeff(k) for k in range(len(self._u)))

    @property
    def degree(self) -> int:
        # zero polynomial reports -1
        return len(self._u) - 1

    def is_zero(self) -> bool:
        return not self._u

    def __bool__(self) -> bool:
        return bool(self._u)

    def coeff(self, k: int) -> QuadFieldElement:
        if 0 <= k < len(self._u):
            return QuadFieldElement._of(
                self._u[k], self._v[k], self._den, self._d
            )
        return QuadFieldElement.zero(self._d)

    def leading(self) -> QuadFieldElement:
        if not self._u:
            raise DomainError("zero polynomial has no leading coefficient")
        return self.coeff(self.degree)

    def _check(self, other: "Poly") -> None:
        if self._d != other._d:
            raise FieldMismatchError(
                f"polynomials over d={self._d} and d={other._d}"
            )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return (self._d, self._den, self._u, self._v) == (
            other._d, other._den, other._u, other._v
        )

    def __hash__(self) -> int:
        return hash((self._d, self._den, tuple(self._u), tuple(self._v)))

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        ((a, b), (c, e)), den = _coords(self, other)
        return Poly._of(
            [x + y for x, y in zip_longest(a, c, fillvalue=0)],
            [x + y for x, y in zip_longest(b, e, fillvalue=0)],
            den, self._d,
        )

    def __sub__(self, other: "Poly") -> "Poly":
        return self + -other

    def __neg__(self) -> "Poly":
        return Poly._of(
            [-a for a in self._u], [-b for b in self._v], self._den, self._d
        )

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            other = Poly([other], self._d)
        self._check(other)
        u, v = _field_convolve((self._u, self._v), (other._u, other._v),
                               omega_flag(self._d))
        return Poly._of(u, v, self._den * other._den, self._d)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise DomainError("negative polynomial power")
        return _power(self, n, Poly._of([1], [0], 1, self._d))

    def derivative(self) -> "Poly":
        return Poly._of([k * a for k, a in enumerate(self._u)][1:],
                        [k * b for k, b in enumerate(self._v)][1:],
                        self._den, self._d)

    def __call__(self, z):
        """Value at the field element z, by Horner's rule."""
        z = _coerce_coeff(z, self._d)
        acc = QuadFieldElement.zero(self._d)
        for k in range(self.degree, -1, -1):
            acc = acc * z + self.coeff(k)
        return acc

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeff(k)
            if c.is_zero():
                continue
            cs = format_element(c)
            if k == 0:
                term = cs if ("+" not in cs[1:] and "-" not in cs[1:]) else f"({cs})"
            else:
                zk = "z" if k == 1 else f"z^{k}"
                if cs == "1":
                    term = zk
                elif cs == "-1":
                    term = f"-{zk}"
                elif "+" in cs[1:] or "-" in cs[1:]:
                    term = f"({cs})*{zk}"
                else:
                    term = f"{cs}*{zk}"
            parts.append(term)
        out = parts[0]
        for t in parts[1:]:
            out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return out

    def __repr__(self) -> str:
        return f"Poly({self})"


def _convolve(x: list, y: list) -> list:
    """Coefficient list of the product of two integer polynomials."""
    if not x or not y:
        return []
    out = [0] * (len(x) + len(y) - 1)
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                out[i + j] += a * b
    return out


def _field_convolve(x: tuple, y: tuple, t: int) -> tuple:
    """Product of two polynomials on integral basis pairs.

    A polynomial is a pair (u, v) of int lists, coefficient k being
    u[k] + v[k]*w with w^2 = t*w - 1 (see quadfield.pair_mul).  Rational
    factors (v all zero) take one or two integer products, the rest three
    (Karatsuba's trick for the cross term).
    """
    (A, B), (C, E) = x, y
    ac = _convolve(A, C)
    if not any(B):
        return ac, _convolve(A, E) if any(E) else [0] * len(ac)
    if not any(E):
        return ac, _convolve(B, C)
    be = _convolve(B, E)
    s = _convolve([a + b for a, b in zip(A, B)], [c + e for c, e in zip(C, E)])
    return (
        [p - q for p, q in zip(ac, be)],
        [u - p - q + t * q for u, p, q in zip(s, ac, be)],
    )


def _times_conj(x: tuple, y: tuple, t: int) -> tuple:
    """(A, B, N(L)) with (A, B) = x * conj(L), L the leading coefficient
    of y; basis pairs.  x/L is the polynomial (A, B)/N(L)."""
    (A, B), la, lb = x, y[0][-1], y[1][-1]
    # conj(la + lb*w) = (la + t*lb) - lb*w
    lc = la + t * lb
    return (
        [a * lc + b * lb for a, b in zip(A, B)],
        [b * la - a * lb for a, b in zip(A, B)],
        la * lc + lb * lb,
    )


def _pseudo_divmod(x: tuple, y: tuple, t: int) -> tuple:
    """(s, q, r) with s*x = q*y + r, deg r < deg y, s a positive integer.

    x, y on basis pairs as in _field_convolve, y trimmed, nonzero.  With
    y scaled by u for its leading coefficient L, so that its leading
    coefficient n = u*L is a positive integer, a step that cancels a
    nonzero top coefficient c maps r to n*r - c*z^k*u*y and q to
    n*q + c*z^k, all in the integers; s gains a factor n.  u is conj(L)
    and n = N(L), except that a rational L takes u = sign(L), n = |L|.
    """
    la, lb = y[0][-1], y[1][-1]
    if lb:
        C, E, n = _times_conj(y, y, t)
    else:
        n = abs(la)
        C, E = (v if la > 0 else [-a for a in v] for v in y)
    m, s = len(C) - 1, 1
    # the quotient builds up above the remainder, q_k at index k + m
    ra, rb = list(x[0]), list(x[1])
    for k in range(len(ra) - 1 - m, -1, -1):
        ca, cb = ra[k + m], rb[k + m]
        if ca or cb:
            s *= n
            ra, rb = [a * n for a in ra], [b * n for b in rb]
            ra[k + m], rb[k + m] = ca, cb
            for j in range(m):
                be = cb * E[j]
                ra[k + j] -= ca * C[j] - be
                rb[k + j] -= ca * E[j] + cb * C[j] + t * be
    q = (ra[m:], rb[m:])
    if lb:
        q = _times_conj(q, y, t)[:2]
    elif la < 0:
        q = tuple([-a for a in v] for v in q)
    return s, q, (ra[:m], rb[:m])


def _gcd_coords(x: tuple, y: tuple, t: int) -> tuple:
    """A gcd of trimmed basis pair vectors, not both zero: the primitive
    remainder sequence (Collins, J. ACM 14, 1967)."""
    while y[0]:
        A, B = _trim(*_pseudo_divmod(x, y, t)[2])
        g = math.gcd(*A, *B) or 1
        x, y = y, ([a // g for a in A], [b // g for b in B])
    return x


def _coords(*polys) -> tuple:
    """(vectors, den): the (u, v) basis pair vectors of den*p for each p
    in polys, den their least common denominator."""
    den = math.lcm(*(p._den for p in polys))
    return [
        ([a * (den // p._den) for a in p._u],
         [b * (den // p._den) for b in p._v])
        for p in polys
    ], den


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd, by Euclid on integer pseudo-remainders."""
    f._check(g)
    if f.is_zero() and g.is_zero():
        raise DomainError("gcd of two zero polynomials")
    t = omega_flag(f.d)
    x = _gcd_coords((f._u, f._v), (g._u, g._v), t)
    return Poly._of(*_times_conj(x, x, t), f.d)


class ProjPoint:
    """Point of the projective line over a quadratic field.

    Stored as the coordinate pair (x0 : x1) it was given, x1 = 0 meaning
    infinity.  Equality and hashing compare the canonical pair of
    reduced_pair, computed once per point, so representatives never need
    to be scaled by hand.
    """

    __slots__ = ("_x0", "_x1", "_d", "_pair")

    def __init__(self, x0, x1, d: int | None = None):
        if d is None:
            if isinstance(x0, QuadFieldElement):
                d = x0.d
            elif isinstance(x1, QuadFieldElement):
                d = x1.d
            else:
                d = 0
        self._x0 = _coerce_coeff(x0, d)
        self._x1 = _coerce_coeff(x1, d)
        self._d = d
        self._pair = None
        if self._x0.is_zero() and self._x1.is_zero():
            raise DomainError("(0 : 0) is not a projective point")

    @classmethod
    def affine(cls, z, d: int | None = None) -> "ProjPoint":
        if isinstance(z, QuadFieldElement):
            return cls(z, QuadFieldElement.one(z.d), z.d)
        return cls(z, 1, d if d is not None else 0)

    @classmethod
    def infinity(cls, d: int = 0) -> "ProjPoint":
        return cls(1, 0, d)

    @property
    def d(self) -> int:
        return self._d

    @property
    def x0(self) -> QuadFieldElement:
        return self._x0

    @property
    def x1(self) -> QuadFieldElement:
        return self._x1

    def is_infinity(self) -> bool:
        return self._x1.is_zero()

    def value(self) -> QuadFieldElement:
        if self.is_infinity():
            raise DomainError("point at infinity has no affine value")
        return self._x0 / self._x1

    def reduced_pair(self) -> tuple:
        """Integral coprime representative, gcd-normalized.

        Clears denominators with one rational integer, removes the
        integral gcd, and turns by the unit that makes x1 (x0 at
        infinity) its canonical associate.  Computed on first use and
        kept: the ring of integers is a PID, so this pair is the same
        for every representative of the point.
        """
        if self._pair is None:
            d, t = self._d, omega_flag(self._d)
            (a, b), _ = cleared_pairs((self._x0, self._x1))
            g = pair_gcd(a, b, t)
            if g != (1, 0):
                a, b = pair_divexact(a, g, t), pair_divexact(b, g, t)
            k = unit_turns(b if any(b) else a, t)
            self._pair = (
                QuadFieldElement.from_basis_pair(*pair_turn(a, k, t), d),
                QuadFieldElement.from_basis_pair(*pair_turn(b, k, t), d),
            )
        return self._pair

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProjPoint):
            return NotImplemented
        return (self._d == other._d
                and self.reduced_pair() == other.reduced_pair())

    def __hash__(self) -> int:
        return hash(self.reduced_pair() + (self._d,))

    def __complex__(self) -> complex:
        if self.is_infinity():
            raise DomainError("point at infinity has no complex value")
        return complex(self.value())

    def __str__(self) -> str:
        return f"({format_element(self._x0)} : {format_element(self._x1)})"

    def __repr__(self) -> str:
        return f"ProjPoint{self}"


class RationalMap:
    """Endomorphism of the projective line, num(z)/den(z)."""

    __slots__ = ("_num", "_den", "_d", "_deg", "_kernel")

    def __init__(self, num: Poly, den: Poly):
        if num.d != den.d:
            raise FieldMismatchError("numerator and denominator field mismatch")
        if num.is_zero() and den.is_zero():
            raise DomainError("0/0 does not define a map")
        (x, y), _ = _coords(num, den)
        t = omega_flag(num.d)
        # gcd(0, f) = f, so a constant map comes out as c/1 or 1/0
        g = _gcd_coords(x, y, t)
        if len(g[0]) > 1:
            # s*x = p*g and r*y = q*g, both exact: x/y = p*r/(q*s)
            (s, p, _), (r, q, _) = (_pseudo_divmod(v, g, t) for v in (x, y))
            x = tuple([a * r for a in v] for v in p)
            y = tuple([a * s for a in v] for v in q)
        self._set_scaled(x, y, num.d)

    @classmethod
    def _from_coprime(cls, num: tuple, den: tuple, d: int) -> "RationalMap":
        """The map num/den for coprime polynomials, without a gcd.

        num and den are (u, v) basis pair vectors as in _field_convolve,
        scaled by one common nonzero factor and not both zero.  Callers
        vouch for coprimality, each saying why: compose, __reduce__ (a
        map's own reduced forms) and lattes, so the gcd of __init__ runs
        only on maps from outside the package.  Only the scale is
        normalized.
        """
        out = object.__new__(cls)
        out._set_scaled(num, den, d)
        return out

    def _set_scaled(self, num: tuple, den: tuple, d: int) -> None:
        # canonical scale: monic denominator, else monic numerator
        num, den = _trim(*num), _trim(*den)
        lead = den if den[0] else num
        self._d = d
        self._num = Poly._of(*_times_conj(num, lead, omega_flag(d)), d)
        self._den = Poly._of(*_times_conj(den, lead, omega_flag(d)), d)
        self._deg = max(self._num.degree, self._den.degree)
        self._kernel = None

    @classmethod
    def from_strings(
        cls, num: Sequence[str], den: Sequence[str], d: int
    ) -> "RationalMap":
        return cls(Poly([parse_element(s, d) for s in num], d),
                   Poly([parse_element(s, d) for s in den], d))

    @property
    def num(self) -> Poly:
        return self._num

    @property
    def den(self) -> Poly:
        return self._den

    @property
    def d(self) -> int:
        return self._d

    @property
    def degree(self) -> int:
        return self._deg

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalMap):
            return NotImplemented
        return (
            self._d == other._d
            and self._num == other._num
            and self._den == other._den
        )

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    def __reduce__(self):
        # rebuilt from its forms, so pickle and deepcopy never meet the
        # compiled kernel, a closure, in the _kernel slot
        return (RationalMap._from_coprime,
                (*_coords(self._num, self._den)[0], self._d))

    def __call__(self, p: ProjPoint) -> ProjPoint:
        f0, f1 = self.eval_pair(p.x0, p.x1)
        return ProjPoint(f0, f1, self._d)

    def _form_kernel(self):
        """The kernel of num and den as forms of degree self.degree."""
        if self._kernel is None:
            from .formkernel import form_kernel

            # each form as its nonzero terms (k, basis pair of den * f)
            self._kernel = form_kernel(
                [[(k, c) for k, c in enumerate(zip(f._u, f._v)) if any(c)]
                 for f in (self._num, self._den)], self._deg,
                omega_flag(self._d))
        return self._kernel

    def eval_pair(self, x0, x1):
        """Homogeneous evaluation at a coordinate pair."""
        d, num, den = self._d, self._num, self._den
        (p0, p1), e = cleared_pairs([_coerce_coeff(x, d) for x in (x0, x1)])
        scale = e**self._deg
        u0, v0, u1, v1 = self._form_kernel()(*p0, *p1)
        return (QuadFieldElement._of(u0, v0, num._den * scale, d),
                QuadFieldElement._of(u1, v1, den._den * scale, d))

    def compose(self, inner: "RationalMap") -> "RationalMap":
        """self after inner, by homogeneous substitution.

        The substituted pair needs no gcd: a common root of the composite
        forms would be mapped by inner to a common root of the outer
        forms, which has none (the composite's resultant is a product of
        powers of the two nonzero resultants).  It runs self's kernel on
        the inner pair (p, q), each int vector A packed as A(2^bits),
        which commutes with sums and products (Kronecker substitution),
        and reads the composite back as balanced digits.  The bound: with
        ||(a, b)|| = |a| + |b|, ||xy|| <= 2 ||x|| ||y|| on basis pairs
        (t <= 1) and so on polynomials under the sum of coefficient norms;
        sum_k c_k p^k q^(m-k) takes m products per term, so its
        coefficients have |u|, |v| <= S(c) (2M)^m: S(c) the one-norm of
        the outer form, scaled by the other form's denominator as the
        kernel binds each over its own, M the larger one-norm of p and q,
        and bits = bit_length(bound) + 2.
        """
        if self._d != inner._d:
            raise FieldMismatchError("composition across different fields")
        m, num, den = self._deg, self._num, self._den
        # the common denominator of the inner pair only scales the
        # composite, which _from_coprime normalizes away
        p, q = _coords(inner._num, inner._den)[0]
        big_m = max(_one_norm(x) for x in (p, q))
        big_s = max(den._den * _one_norm((num._u, num._v)),
                    num._den * _one_norm((den._u, den._v)))
        bits = (big_s * (2 * big_m) ** m).bit_length() + 2
        f = self._form_kernel()(*(_pack(a, bits) for a in (*p, *q)))
        size = m * inner._deg + 1
        out = RationalMap._from_coprime(
            *(tuple(_unpack(x * scale, bits, size) for x in f[i:i + 2])
              for i, scale in ((0, den._den), (2, num._den))), self._d)
        if out.degree != self._deg * inner._deg and self._deg and inner._deg:
            raise DomainError("degree collapsed under composition")
        return out

    def commutes_with(self, other: "RationalMap") -> bool:
        return self.compose(other) == other.compose(self)

    def integral_model(self) -> tuple:
        """Basis pair lists of an integral content-free model.

        Both forms are scaled by one rational so every coefficient is an
        algebraic integer, and divided by the gcd of all of them, so that
        their joint gcd is a unit.  Lists are padded to length degree+1
        (homogeneous form).
        """
        t, n = omega_flag(self._d), self._deg + 1
        pairs = [(a, b) for A, B in _coords(self._num, self._den)[0]
                 for a, b in zip(A + [0] * (n - len(A)),
                                 B + [0] * (n - len(B)))]
        g = (0, 0)
        for x in pairs:
            if x != (0, 0) and pair_norm(g, t) != 1:
                g = pair_gcd(g, x, t)
        out = [pair_divexact(x, g, t) for x in pairs]
        return out[:n], out[n:]

    def complex_pair(self) -> tuple:
        """(num coeffs, den coeffs) as complex lists padded to degree+1."""
        n = [complex(self._num.coeff(k)) for k in range(self._deg + 1)]
        m = [complex(self._den.coeff(k)) for k in range(self._deg + 1)]
        return n, m

    def __str__(self) -> str:
        if self._den.degree <= 0 and not self._den.is_zero():
            if self._den.coeff(0) == QuadFieldElement.one(self._d):
                return str(self._num)
        return f"({self._num}) / ({self._den})"

    def __repr__(self) -> str:
        return f"RationalMap({self})"


def _one_norm(x: tuple) -> int:
    """sum |u| + |v| over an (A, B) basis pair vector."""
    return sum(map(abs, x[0])) + sum(map(abs, x[1]))


def _pack(A: list, bits: int) -> int:
    """A(2^bits) for the int vector A, lowest coefficient first."""
    return sum(a << bits * j for j, a in enumerate(A))


def _unpack(x: int, bits: int, size: int) -> list:
    """The `size` lowest digits of x in base 2^bits, each in [-2^(bits-1),
    2^(bits-1)): A, padded by zeros, for x = A(2^bits) with such digits."""
    out, half, mask = [], 1 << (bits - 1), (1 << bits) - 1
    for _ in range(size):
        # the low bits, sign-extended from bit bits-1
        c = ((x & mask) ^ half) - half
        out.append(c)
        x = (x - c) >> bits
    return out


def _trim(A: list, B: list) -> tuple:
    """Drop trailing zero coefficients from an (A, B) basis pair vector."""
    n = len(A)
    while n and not (A[n - 1] or B[n - 1]):
        n -= 1
    return A[:n], B[:n]
