"""Integer kernels of the exact core against slow Fraction oracles.

The exact core runs on integral basis pairs: a field element and every
Poly coefficient are held as one over a least common denominator, so the
ring operations, the evaluation of forms, integral_gcd, pair_normalize,
pair_divmod, ProjPoint.reduced_pair, cleared_pairs, integral_model and
every Poly operation run on ints; compose skips poly_gcd, and
the resultant and the Bezout certificate share one fraction-free
elimination.  A lone Poly is evaluated by Horner's rule on field
elements, against the Fraction Horner oracle_eval_pair; the forms of a
map by one kernel, formkernel.form_kernel, for a map's image of a
point, composition and both height loops: its stride r is the gcd of
the exponent gaps within each form, the order of the rotation z ->
zeta z that a Lattes map commutes with (2 on E1, 3 on E2), and it
evaluates each form as x0^s x1^s' G(x0^r, x1^r) from powers of x0^r
and x1^r, skips zero coefficients and takes two int products for a
rational one; it takes and returns flat ints, kernel(a0, b0, a1, b1,
mod) -> (u0, v0, u1, v1), so its oracles' pairs are compared flattened
(flat).  It is straight-line code that formkernel.kernel_factory
compiles once per shape of forms, the coefficients bound in its
closure.  Its oracles are the shared-power
evaluator it replaced, oracle_eval_forms, on forms of stride 1-4, mixed
residues, single terms, zero forms and the height engines of the
catalog, and Horner's rule on basis pairs, one form at a time, three
pair products per coefficient, with and without a modulus; two kernels
of one shape share one compiled factory, one kernel holds on calls that
alternate between no modulus and a modulus, a 5000-digit coefficient
evaluates under Python's 640-digit int-to-str limit, a traceback from
inside a kernel names its shape and shows the generated line,
linecache keeps no more kernel sources than the factory cache holds, and
the source of each catalog engine's shape has no loop.  Composition runs
the outer map's kernel on the inner pair packed into integers A(2^bits);
its oracle is the substitution it replaced, oracle_compose, on all three
fields, constant maps and 1/0, general and 50-digit coefficients and
degree products up to 81, and _pack and _unpack round-trip every digit
of the balanced range.  Height engines are cached per map, at most 128,
and each subcommand, in a fresh interpreter, compiles one kernel per
map whose forms it evaluates: none for import p1dyn, catalog, green,
ramify, table-check and the analytic subcommands.
The archimedean loop takes the last pair's
log in double precision, of the norm itself from alpha^n = 2^13 on and
of its 40th square below, and the shift's log 2 and the division by
alpha^n as one division of ints (_log_ratio); its oracle is the Decimal
epilogue it replaced, decimal_epilogue, which takes an exact log below
2^13.  The two give the same double on every catalog map and on a
seeded sweep of 20,000 and more last pairs, shifts and alpha^n, and
the quotient before it rounds is within the restated 2^-58.7 of the
mpmath sum; the integer log 2 is within one unit of mpmath's, and
neither import p1dyn nor an exact subcommand runs an import of decimal
from p1dyn.  The other oracles below
are the Fraction versions: elements with Fraction coordinates on the
basis (1, sqrt(-d)) and Horner's rule on them, Euclid through exact
field division with nearest rounding (ties toward +infinity), a search
of the unit group for the canonical associate, coefficient-wise sums,
negation, derivative and monic scaling of field elements, the
schoolbook product of field elements, long division of polynomials over
the field for the pseudo-division on basis pair vectors, its Euclidean
remainder sequence, which also cancels the common factor of a map's
forms, Yun's square-free split, the full gcd constructor
RationalMap(num, den), and Gaussian elimination
over the field for the Sylvester determinant and the cofactor systems,
which the elimination runs on integral forms as basis pairs; it skips
products with a zero entry, and on sparse forms, leading and trailing
zeros and vanishing resultants included, it must return the (R, sols) of
the dense elimination it replaced, oracle_bareiss_dense, exactly.
The height engine's archimedean Green sum runs on integer pairs shifted
by powers of two, at a size that falls along the orbit; its oracle is the
same sum in mpmath, one logarithm per step, and, run past the engine's
step count at a higher precision, the orbit limit that the sum approaches.
Every step that shifts leaves its pair at exactly the size the heights
docstring certifies, on every catalog map and (10^200 z^2 + 1)/z.
"""

import decimal
import json
import linecache
import math
import os
import random
import re
import subprocess
import sys
import traceback
from fractions import Fraction
from functools import lru_cache

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from p1dyn.errors import DomainError, FieldMismatchError
from p1dyn import heights
from p1dyn.formkernel import form_kernel, kernel_factory
from p1dyn.heights import (
    _ARCH_CAP,
    _bareiss,
    _engine,
    _ln2_fixed,
    _log_ratio,
    canonical_height,
    cofactor_certificate,
    log_one_norm,
)
from p1dyn.lattes import (
    catalog,
    catalog_entry,
    catalog_names,
    curve_for_name,
)
from p1dyn.quadfield import (
    QuadFieldElement as QF,
    cleared_pairs,
    integral_gcd,
    omega_flag,
    pair_conj,
    pair_divexact,
    pair_divmod,
    pair_gcd,
    pair_gcd_mod,
    pair_mul,
    pair_norm,
    pair_normalize,
    pair_turn,
    parse_element,
)
from p1dyn.ratmaps import (
    Poly,
    ProjPoint,
    RationalMap,
    _coords,
    _field_convolve,
    _pack,
    _pseudo_divmod,
    _unpack,
    poly_gcd,
)
from p1dyn.torus import preimage_multiplicities, two_torsion_targets

# --------------------------------------------------------------------------
# Fraction oracles
# --------------------------------------------------------------------------


class FracQF:
    """The Fraction element format: a + b*sqrt(-d) with Fraction a, b,
    multiplied, inverted and normed by the (1, sqrt(-d)) formulas."""

    def __init__(self, a, b, d):
        self.a, self.b, self.d = Fraction(a), Fraction(b), d

    @classmethod
    def of(cls, x: QF) -> "FracQF":
        return cls(x.a, x.b, x.d)

    @classmethod
    def from_basis_pair(cls, u, v, d: int) -> "FracQF":
        if d == 3:
            return cls(Fraction(2 * u + v, 2), Fraction(v, 2), 3)
        return cls(u, v, d)

    def qf(self) -> QF:
        return QF(self.a, self.b, self.d)

    def __add__(self, o):
        return FracQF(self.a + o.a, self.b + o.b, self.d)

    def __sub__(self, o):
        return FracQF(self.a - o.a, self.b - o.b, self.d)

    def __neg__(self):
        return FracQF(-self.a, -self.b, self.d)

    def __mul__(self, o):
        return FracQF(self.a * o.a - self.d * self.b * o.b,
                      self.a * o.b + self.b * o.a, self.d)

    def norm(self) -> Fraction:
        return self.a * self.a + self.d * self.b * self.b

    def conj(self):
        return FracQF(self.a, -self.b, self.d)

    def inverse(self):
        n = self.norm()
        return FracQF(self.a / n, -self.b / n, self.d)

    def __truediv__(self, o):
        return self * o.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** -e
        out = FracQF(1, 0, self.d)
        for _ in range(e):
            out = out * self
        return out

    def __eq__(self, o):
        return (self.a, self.b, self.d) == (o.a, o.b, o.d)

    def basis_pair(self) -> tuple:
        u, v = (self.a - self.b, 2 * self.b) if self.d == 3 else (self.a, self.b)
        if u.denominator == 1 and v.denominator == 1:
            return int(u), int(v)
        return u, v

    def is_integral(self) -> bool:
        return all(type(c) is int for c in self.basis_pair())


def oracle_eval_pair(f: Poly, x0: FracQF, x1: FracQF, deg: int) -> FracQF:
    """Horner on Fraction elements: sum_k c_k x0^k x1^(deg-k)."""
    c = [FracQF.of(f.coeff(k)) for k in range(deg + 1)]
    acc, p1 = c[deg], x1
    for k in range(deg - 1, -1, -1):
        acc = acc * x0 + c[k] * p1
        p1 = p1 * x1
    return acc


def poly_terms(f: Poly) -> list:
    """The nonzero terms (k, basis pair) of f times its denominator, the
    term list that RationalMap._form_kernel builds for each form."""
    return [(k, c) for k, c in enumerate(zip(f._u, f._v)) if any(c)]


def oracle_eval_form(coeffs: list, x0, x1, t: int, mod: int = 0) -> tuple:
    """Horner on basis pairs, one form at a time: sum_k c_k x0^k
    x1^(deg-k) for the deg+1 pairs c_k, with three pair products per
    coefficient and everything reduced mod `mod`, if set, at every step."""
    acc = coeffs[-1]
    p1 = x1
    for c in reversed(coeffs[:-1]):
        s, u = pair_mul(acc, x0, t), pair_mul(c, p1, t)
        acc = (s[0] + u[0], s[1] + u[1])
        p1 = pair_mul(p1, x1, t)
        if mod:
            acc = (acc[0] % mod, acc[1] % mod)
            p1 = (p1[0] % mod, p1[1] % mod)
    return acc


def oracle_eval_forms(forms: list, deg: int, x0, x1, t: int,
                      mod: int = 0) -> list:
    """The shared-power evaluator that form_kernel replaced: sum_k c_k x0^k
    x1^(deg-k) on basis pairs for each form, a form being the list of its
    nonzero terms (k, c).  It builds every power of x0 up to the largest k
    and of x1 up to deg minus the smallest, each reduced mod `mod` if set,
    takes each monomial that a form needs once, as one product of two of
    them, and reduces each sum mod `mod` once, at the end."""
    ks = {k for form in forms for k, _ in form}
    if not ks:
        return [(0, 0)] * len(forms)
    pows = []
    for x, n in ((x0, max(ks)), (x1, deg - min(ks))):
        a, b = u, v = (x[0] % mod, x[1] % mod) if mod else x
        out = [(1, 0), (u, v)]
        for _ in range(n - 1):
            m = v * b
            u, v = u * a - m, u * b + v * a + t * m
            if mod:
                u, v = u % mod, v % mod
            out.append((u, v))
        pows.append(out)
    p0, p1 = pows
    monos = {
        k: p1[deg] if k == 0 else p0[deg] if k == deg
        else pair_mul(p0[k], p1[deg - k], t)
        for k in ks
    }
    sums = []
    for form in forms:
        su = sv = 0
        for k, (cu, cv) in form:
            mu, mv = monos[k]
            if cv:
                m = cv * mv
                su += cu * mu - m
                sv += cu * mv + cv * mu + t * m
            else:
                su += cu * mu
                sv += cu * mv
        sums.append((su % mod, sv % mod) if mod else (su, sv))
    return sums


def flat(pairs) -> tuple:
    """The flat tuple (u0, v0, u1, v1, ...) of basis pairs, as a form
    kernel returns them."""
    return tuple(c for pair in pairs for c in pair)


def engine_forms(eng) -> list:
    """The nonzero terms (k, basis pair) of a height engine's two forms."""
    return [[(k, c) for k, c in enumerate(cs) if c != (0, 0)]
            for cs in eng.phi.integral_model()]


def model_elements(phi: RationalMap) -> list:
    """phi's integral model as two lists of field elements."""
    return [[QF.from_basis_pair(u, v, phi.d) for u, v in cs]
            for cs in phi.integral_model()]


def _round_half_up(x: Fraction) -> int:
    return math.floor(x + Fraction(1, 2))


def oracle_round(x: QF) -> QF:
    if x.d in (0, 1):
        return QF(_round_half_up(x.a), _round_half_up(x.b), x.d)
    u = _round_half_up(x.a - x.b)
    v = _round_half_up(2 * x.b)
    return QF.from_basis_pair(u, v, 3)


def oracle_divmod(x: QF, y: QF):
    q = oracle_round(x / y)
    return q, x - q * y


def oracle_units(d: int) -> list:
    if d == 0:
        return [QF(1), QF(-1)]
    gen = QF(0, 1, 1) if d == 1 else QF(Fraction(1, 2), Fraction(1, 2), 3)
    units = [QF.one(d)]
    while len(units) < (4 if d == 1 else 6):
        units.append(units[-1] * gen)
    return units


def _is_canonical(c: QF) -> bool:
    # argument in [0, pi/2) for d=1, [0, pi/3) for d=3, positive for d=0
    if c.d == 0:
        return c.a > 0
    if c.d == 1:
        return c.a > 0 and c.b >= 0
    return c.a > 0 and 0 <= c.b < c.a


def oracle_normalize(x: QF) -> QF:
    if x.is_zero():
        return x
    (c,) = [x * u for u in oracle_units(x.d) if _is_canonical(x * u)]
    return c


def oracle_gcd(x: QF, y: QF) -> QF:
    while not y.is_zero():
        x, y = y, oracle_divmod(x, y)[1]
    return oracle_normalize(x)


def euclid_pair_gcd(x, y, t: int) -> tuple:
    """Plain Euclid on two basis pairs, not both zero, normalized: the
    remainder sequence of x and y themselves, with no norm gcd first."""
    while y[0] or y[1]:
        x, y = y, pair_divmod(x, y, t)[1]
    return pair_normalize(x, t)


def oracle_reduced_pair(P: ProjPoint) -> tuple:
    den = 1
    for coord in (P.x0, P.x1):
        for c in coord.basis_pair():
            den = math.lcm(den, Fraction(c).denominator)
    a, b = P.x0 * den, P.x1 * den
    g = oracle_gcd(a, b)
    a, b = a / g, b / g
    lead = b if not b.is_zero() else a
    u = oracle_normalize(lead) / lead
    return a * u, b * u


def oracle_cleared_pairs(elements: list) -> tuple:
    xs = [FracQF.of(x) for x in elements]
    den = 1
    for x in xs:
        for c in x.basis_pair():
            den = math.lcm(den, Fraction(c).denominator)
    return [(x * FracQF(den, 0, x.d)).basis_pair() for x in xs], den


def oracle_integral_model(phi: RationalMap) -> tuple:
    _, den = oracle_cleared_pairs(list(phi.num.coeffs + phi.den.coeffs))
    c0 = [phi.num.coeff(k) * den for k in range(phi.degree + 1)]
    c1 = [phi.den.coeff(k) * den for k in range(phi.degree + 1)]
    nz = [x for x in c0 + c1 if not x.is_zero()]
    g = nz[0]
    for x in nz[1:]:
        g = oracle_gcd(g, x)
    g = oracle_normalize(g)
    return tuple([(x / g).basis_pair() for x in cs] for cs in (c0, c1))


def _trimmed(coeffs: list) -> tuple:
    while coeffs and coeffs[-1].is_zero():
        coeffs = coeffs[:-1]
    return tuple(coeffs)


def oracle_poly_add(f: Poly, g: Poly, sign: int = 1) -> tuple:
    """Coefficients of f + sign*g, one field element at a time."""
    n = max(len(f.coeffs), len(g.coeffs))
    return _trimmed([f.coeff(k) + sign * g.coeff(k) for k in range(n)])


def oracle_poly_neg(f: Poly) -> tuple:
    return _trimmed([-c for c in f.coeffs])


def oracle_poly_derivative(f: Poly) -> tuple:
    c = f.coeffs
    return _trimmed([k * c[k] for k in range(1, len(c))])


def oracle_poly_monic(f: Poly) -> tuple:
    if f.is_zero():
        return ()
    inv = f.leading().inverse()
    return _trimmed([inv * c for c in f.coeffs])


def oracle_poly_divmod(f: Poly, g: Poly) -> tuple:
    """Long division over the field, one Fraction coefficient at a time."""
    rem = list(f.coeffs)
    dq = len(rem) - len(g.coeffs)
    if dq < 0:
        return Poly([], f.d), f
    inv_lead = g.leading().inverse()
    quot = [QF.zero(f.d)] * (dq + 1)
    for k in range(dq, -1, -1):
        t = rem[k + g.degree] * inv_lead
        quot[k] = t
        if t.is_zero():
            continue
        for j, b in enumerate(g.coeffs):
            rem[k + j] = rem[k + j] - t * b
    return Poly(quot, f.d), Poly(rem[: g.degree], f.d)


def oracle_poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd by the Euclidean remainder sequence over the field."""
    a, b = f, g
    while not b.is_zero():
        a, b = b, oracle_poly_divmod(a, b)[1]
    return Poly(oracle_poly_monic(a), a.d)


def oracle_map_coeffs(num: Poly, den: Poly) -> tuple:
    """Coefficients of num/den in lowest terms, by long division through
    the Euclidean gcd, with a monic denominator (numerator for 1/0)."""
    g = oracle_poly_gcd(num, den)
    num, den = oracle_poly_divmod(num, g)[0], oracle_poly_divmod(den, g)[0]
    inv = (den if not den.is_zero() else num).leading().inverse()
    return (_trimmed([inv * c for c in num.coeffs]),
            _trimmed([inv * c for c in den.coeffs]))


def oracle_yun(h: Poly) -> list:
    """Yun's square-free split: (multiplicity, square-free factor) pairs."""
    out = []
    g = oracle_poly_gcd(h, h.derivative())
    w = oracle_poly_divmod(h, g)[0]
    y = oracle_poly_divmod(h.derivative(), g)[0]
    i = 1
    while w.degree >= 1:
        z = y - w.derivative()
        a = oracle_poly_gcd(w, z)
        if a.degree >= 1:
            out.append((i, a))
        w = oracle_poly_divmod(w, a)[0]
        y = oracle_poly_divmod(z, a)[0]
        i += 1
    return out


def oracle_multiplicities(phi: RationalMap, target: ProjPoint) -> list:
    h = target.x1 * phi.num - target.x0 * phi.den
    mults = [phi.degree - h.degree] if phi.degree > h.degree else []
    if h.degree >= 1:
        for mult, factor in oracle_yun(h):
            mults.extend([mult] * factor.degree)
    return sorted(mults, reverse=True)


def schoolbook(f: Poly, g: Poly) -> Poly:
    if f.is_zero() or g.is_zero():
        return Poly([], f.d)
    out = [QF.zero(f.d)] * (len(f.coeffs) + len(g.coeffs) - 1)
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            out[i + j] = out[i + j] + a * b
    return Poly(out, f.d)


def oracle_compose_by_gcd(outer: RationalMap,
                          inner: RationalMap) -> RationalMap:
    """Substitution on field elements through the gcd constructor."""
    d, m = outer.d, outer.degree
    num, den = Poly([], d), Poly([], d)
    for k in range(m + 1):
        cross = schoolbook(inner.num ** k, inner.den ** (m - k))
        num = num + outer.num.coeff(k) * cross
        den = den + outer.den.coeff(k) * cross
    return RationalMap(num, den)


def oracle_compose(outer: RationalMap, inner: RationalMap) -> RationalMap:
    """The substitution that the packed kernel replaced: power tables of
    the inner pair on basis pair vectors, one product p^k q^(m-k) per k
    that either outer form uses, and each outer coefficient times it
    added by hand, through the trusted constructor."""
    if outer.d != inner.d:
        raise FieldMismatchError("composition across different fields")
    d, t = outer.d, omega_flag(outer.d)
    m = outer.degree
    p, q = _coords(inner.num, inner.den)[0]
    coeffs = [
        (A + [0] * (m + 1 - len(A)), B + [0] * (m + 1 - len(B)))
        for A, B in _coords(outer.num, outer.den)[0]
    ]
    pp = [([1], [0])]
    qq = [([1], [0])]
    for _ in range(m):
        pp.append(_field_convolve(pp[-1], p, t))
        qq.append(_field_convolve(qq[-1], q, t))
    size = m * inner.degree + 1
    num = ([0] * size, [0] * size)
    den = ([0] * size, [0] * size)
    for k in range(m + 1):
        cross = None
        for (acc_a, acc_b), (c_a, c_b) in zip((num, den), coeffs):
            ca, cb = c_a[k], c_b[k]
            if not (ca or cb):
                continue
            if cross is None:
                cross = _field_convolve(pp[k], qq[m - k], t)
            for j, (u, v) in enumerate(zip(*cross)):
                bv = cb * v
                acc_a[j] += ca * u - bv
                acc_b[j] += ca * v + cb * u + t * bv
    out = RationalMap._from_coprime(num, den, d)
    if out.degree != outer.degree * inner.degree and m and inner.degree:
        raise DomainError("degree collapsed under composition")
    return out


def oracle_resultant(c0: list, c1: list, deg: int) -> QF:
    """Sylvester determinant by Gaussian elimination over the field."""
    d = c0[0].d
    n = 2 * deg
    zero = QF.zero(d)
    mat = []
    for coeffs in (c0, c1):
        for shift in range(deg):
            row = [zero] * n
            for j in range(deg + 1):
                row[shift + j] = coeffs[deg - j]
            mat.append(row)
    det = QF.one(d)
    sign = 1
    for col in range(n):
        piv = next(
            (r for r in range(col, n) if not mat[r][col].is_zero()), None
        )
        if piv is None:
            return zero
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            sign = -sign
        det = det * mat[col][col]
        inv = mat[col][col].inverse()
        for r in range(col + 1, n):
            f = mat[r][col] * inv
            if f.is_zero():
                continue
            for c in range(col, n):
                mat[r][c] = mat[r][c] - f * mat[col][c]
    return det if sign == 1 else -det


def oracle_solve(mat: list, rhs: list) -> list:
    """Gaussian elimination over the field; mat is modified in place."""
    n = len(mat)
    x = list(rhs)
    for col in range(n):
        piv = next(r for r in range(col, n) if not mat[r][col].is_zero())
        mat[col], mat[piv] = mat[piv], mat[col]
        x[col], x[piv] = x[piv], x[col]
        inv = mat[col][col].inverse()
        for r in range(col + 1, n):
            f = mat[r][col] * inv
            if f.is_zero():
                continue
            for c in range(col, n):
                mat[r][c] = mat[r][c] - f * mat[col][c]
            x[r] = x[r] - f * x[col]
    out = [None] * n
    for r in range(n - 1, -1, -1):
        acc = x[r]
        for c in range(r + 1, n):
            acc = acc - mat[r][c] * out[c]
        out[r] = acc * mat[r][r].inverse()
    return out


def oracle_certificate(c0: list, c1: list, deg: int) -> tuple:
    """R and the solutions of A0*F0 + A1*F1 = R*x^(2deg-1) and of the
    mirror system ending in R*z^(2deg-1)."""
    R = oracle_resultant(c0, c1, deg)
    n = 2 * deg
    zero = QF.zero(R.d)
    sols = []
    for top in (True, False):
        mat = [[zero] * n for _ in range(n)]
        for k in range(n):
            for i in range(deg):
                if 0 <= k - i <= deg:
                    mat[k][i] = c0[k - i]
                    mat[k][deg + i] = c1[k - i]
        rhs = [zero] * n
        rhs[n - 1 if top else 0] = R
        sols.append(oracle_solve(mat, rhs))
    return R, sols


def oracle_arch_value(eng, x0: QF, x1: QF, n_arch: int,
                      bits: int = 0) -> tuple:
    """oracle_arch_sum rounded to a double, and the tail."""
    total, tail = oracle_arch_sum(eng, x0, x1, n_arch, bits)
    return float(total), tail


def oracle_arch_sum(eng, x0: QF, x1: QF, n_arch: int, bits: int = 0) -> tuple:
    """The height engine's archimedean Green sum, as an mpf, and tail in
    mpmath: the coefficients and the point lifted to complex numbers at
    `bits` bits (64 + n_arch * _amp_bits if not given), divided by their
    sup-norm at every step, with one logarithm per step, so nothing is
    truncated."""
    bits = bits or 64 + n_arch * eng._amp_bits

    def sup_norm(w0, w1):
        # the sum telescopes for any divisors, so the sup-norm rounded to
        # 64 bits serves, and divides a long pair cheaply; its logarithm
        # to 128 bits errs by at most 2^-127 |log m|, far below a double
        with mpmath.workprec(64):
            m = max(abs(w0), abs(w1))
        with mpmath.workprec(128):
            return m, mpmath.log(m)

    with mpmath.workprec(bits):
        sq = mpmath.sqrt(eng.d) if eng.d else None

        def lift(x):
            re = mpmath.mpf(x.a.numerator) / x.a.denominator
            if not x.b:
                return mpmath.mpc(re, 0)
            im = mpmath.mpf(x.b.numerator) / x.b.denominator * sq
            return mpmath.mpc(re, im)

        g0, g1 = ([lift(c) for c in cs] for cs in model_elements(eng.phi))
        w0, w1 = lift(x0), lift(x1)
        total = mpmath.mpf(0)
        scale = mpmath.mpf(1)
        for _ in range(n_arch):
            m, log_m = sup_norm(w0, w1)
            total += log_m * scale
            w0, w1 = w0 / m, w1 / m
            acc0, acc1, p1 = g0[-1], g1[-1], w1
            for k in range(eng.alpha - 1, -1, -1):
                acc0 = acc0 * w0 + g0[k] * p1
                acc1 = acc1 * w0 + g1[k] * p1
                p1 = p1 * w1
            w0, w1 = acc0, acc1
            scale /= eng.alpha
        total += sup_norm(w0, w1)[1] * scale
        tail = eng.c_bound / (eng.alpha - 1) * float(scale)
        return total, tail


def orbit_values(eng, x0: QF, x1: QF, n_arch: int) -> tuple:
    """The archimedean value by the engine's schedule, unrounded, from the
    old evaluator: the pair cut to max(64, 64 + (n-k) amp - drop) bits after
    step k, and the last pair's log both by Decimal.ln and by math.log."""
    alpha, t = eng.alpha, eng._t
    alpha_n = alpha**n_arch
    drop = min(40, alpha_n.bit_length() - 1)
    forms = engine_forms(eng)
    w0, w1 = x0.basis_pair(), x1.basis_pair()
    shift = 0
    for k in range(1, n_arch + 1):
        bits = max(64, 64 + (n_arch - k) * eng._amp_bits - drop)
        f0, f1 = oracle_eval_forms(forms, alpha, w0, w1, t)
        e = max(0, max(map(int.bit_length, f0 + f1)) - bits)
        w0, w1 = ((f[0] >> e, f[1] >> e) for f in (f0, f1))
        shift = shift * alpha + e
    top = max(pair_norm(w0, t), pair_norm(w1, t))
    prec = 30 + len(str(shift))
    with decimal.localcontext(decimal.Context(prec=prec)):
        return tuple(
            (shift * decimal_ln2(prec) + ln / 2) / alpha_n
            for ln in (decimal.Decimal(top).ln(),
                       decimal.Decimal(math.log(top)))
        )


@lru_cache(maxsize=16)
def decimal_ln2(prec: int) -> decimal.Decimal:
    """log 2 to `prec` digits, correctly rounded by Decimal.ln."""
    with decimal.localcontext(decimal.Context(prec=prec)):
        return decimal.Decimal(2).ln()


def decimal_epilogue(top: int, shift: int, alpha_n: int) -> float:
    """The archimedean value from the last pair's norm top and its shift,
    as the engine took it before _log_ratio: in Decimal, at 30 digits
    more than shift has, the log of top exact below alpha^n = 2^13 and a
    double's from there on."""
    prec = 30 + len(str(shift))
    with decimal.localcontext(decimal.Context(prec=prec)):
        if alpha_n >> 13:
            ln = decimal.Decimal(math.log(top))
        else:
            ln = decimal.Decimal(top).ln()
        return float((shift * decimal_ln2(prec) + ln / 2) / alpha_n)


# --------------------------------------------------------------------------
# Strategies
# --------------------------------------------------------------------------

FIELDS = st.sampled_from([0, 1, 3])
# small, medium and up to 200-digit coordinates
COORDS = st.one_of(
    st.integers(-9, 9),
    st.integers(-10**6, 10**6),
    st.integers(-10**200, 10**200),
)


@st.composite
def integers_of(draw, d):
    """An algebraic integer of the ring tagged d, from its basis pair."""
    u = draw(COORDS)
    v = draw(COORDS) if d else 0
    return QF.from_basis_pair(u, v, d)


@st.composite
def rationals_of(draw, d):
    """A field element with mixed denominators, or a d=3 half-integer."""
    if d == 3 and draw(st.booleans()):
        return draw(integers_of(3))
    dens = st.integers(1, 10**6)
    a = Fraction(draw(st.integers(-10**30, 10**30)), draw(dens))
    b = Fraction(draw(st.integers(-10**30, 10**30)), draw(dens)) if d else 0
    return QF(a, b, d)


@st.composite
def polys_of(draw, d):
    """Zero, constant or longer polynomials, zero coefficients included."""
    n = draw(st.sampled_from([0, 1, 1, 2, 5, 12]))
    coeffs = [
        QF.zero(d) if draw(st.integers(0, 4)) == 0 else draw(rationals_of(d))
        for _ in range(n)
    ]
    return Poly(coeffs, d)


@st.composite
def kernel_coeffs(draw, d):
    """Zero, small, non-integral, 50-digit, or (d=3) half-integer."""
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return QF.zero(d)
    if kind == 1:
        u, v = draw(st.integers(-9, 9)), draw(st.integers(-9, 9))
    elif kind == 2:
        u = Fraction(draw(st.integers(-99, 99)), draw(st.integers(1, 12)))
        v = Fraction(draw(st.integers(-99, 99)), draw(st.integers(1, 12)))
        return QF(u, v if d else 0, d)
    elif kind == 3:
        u = draw(st.integers(-10**50, 10**50))
        v = draw(st.integers(-10**50, 10**50))
    else:
        return draw(rationals_of(d))
    # basis pairs: odd v gives d=3 half-integer coordinates
    return QF.from_basis_pair(u, v if d else 0, d)


@st.composite
def kernel_polys(draw, d, lengths=(0, 1, 2, 3, 5, 8)):
    """Zero for length 0, else with a nonzero top coefficient."""
    n = draw(st.sampled_from(lengths))
    if n == 0:
        return Poly([], d)
    coeffs = [draw(kernel_coeffs(d)) for _ in range(n - 1)]
    return Poly(coeffs + [draw(kernel_coeffs(d).filter(bool))], d)


# small, medium and 20-digit coordinates keep the Fraction oracle quick
FORM_COORDS = st.one_of(
    st.integers(-9, 9), st.integers(-10**6, 10**6),
    st.integers(-10**20, 10**20),
)


@st.composite
def forms_of(draw, d, n, integral=True):
    """n coefficients of a binary form, zeros included.

    Integral coefficients come from basis pairs, so d=3 gives half-integer
    coordinates; otherwise coordinates have mixed denominators.
    """

    def coord():
        if integral:
            return draw(FORM_COORDS)
        return Fraction(draw(FORM_COORDS), draw(st.integers(1, 60)))

    def coeff():
        if draw(st.integers(0, 3)) == 0:
            return QF.zero(d)
        if integral:
            return QF.from_basis_pair(coord(), coord() if d else 0, d)
        return QF(coord(), coord() if d else 0, d)

    return [coeff() for _ in range(n)]


def times_linear(lin: list, g: list) -> list:
    """Coefficients of the product of a linear form and a form."""
    out = [QF.zero(lin[0].d)] * (len(g) + 1)
    for i, a in enumerate(lin):
        for j, b in enumerate(g):
            out[i + j] = out[i + j] + a * b
    return out


# --------------------------------------------------------------------------
# The element format against the Fraction element oracle
# --------------------------------------------------------------------------


@st.composite
def element_coords(draw, d):
    """(a, b) of zero, an algebraic integer (d=3 half-integers among them)
    or an element with mixed denominators; coordinates up to 200 digits."""
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return Fraction(0), Fraction(0)
    if kind == 1:
        x = FracQF.from_basis_pair(draw(COORDS), draw(COORDS) if d else 0, d)
        return x.a, x.b
    dens = st.integers(1, 10**6)
    a = Fraction(draw(COORDS), draw(dens))
    return a, Fraction(draw(COORDS), draw(dens)) if d else Fraction(0)


def elements_of(d):
    return element_coords(d).map(lambda ab: QF(ab[0], ab[1], d))


def both(d, data) -> tuple:
    """One drawn element in the element format and in the oracle's."""
    a, b = data.draw(element_coords(d))
    return QF(a, b, d), FracQF(a, b, d)


def assert_same(x: QF, X: FracQF) -> None:
    """x is X, held as the basis pair over the least denominator."""
    assert (x.a, x.b, x.d) == (X.a, X.b, X.d)
    u, v = (Fraction(c) for c in X.basis_pair())
    den = math.lcm(u.denominator, v.denominator)
    assert (x._u, x._v, x._den) == (u * den, v * den, den)


@st.composite
def maps_of(draw, d):
    """A catalog map over d, or num/den from kernel_polys, not both zero."""
    names = [n for n in catalog_names() if catalog(n).d == d]
    if names and draw(st.booleans()):
        return catalog(draw(st.sampled_from(names)))
    num = draw(kernel_polys(d))
    den = draw(kernel_polys(d).filter(bool) if num.is_zero()
               else kernel_polys(d))
    return RationalMap(num, den)


class TestElementFormat:
    @settings(max_examples=150, deadline=None)
    @given(d=FIELDS, data=st.data())
    def test_ring_operations_match_fraction_oracle(self, d, data):
        x, X = both(d, data)
        y, Y = both(d, data)
        assert_same(x, X)
        assert_same(x + y, X + Y)
        assert_same(x - y, X - Y)
        assert_same(-x, -X)
        assert_same(x * y, X * Y)
        assert_same(x.conj(), X.conj())
        for k in (0, 1, 2, 5):
            assert_same(x**k, X**k)
        n = x.norm()
        assert type(n) is Fraction and n == X.norm()
        r = Fraction(data.draw(COORDS), data.draw(st.integers(1, 10**6)))
        R = FracQF(r, 0, d)
        assert_same(x + r, X + R)
        assert_same(r - x, R - X)
        assert_same(x * r, X * R)
        assert_same(3 * x - 1, FracQF(3, 0, d) * X - FracQF(1, 0, d))
        if y.is_zero():
            for call in (y.inverse, lambda: x / y, lambda: r / y):
                with pytest.raises(ZeroDivisionError):
                    call()
            return
        assert_same(y.inverse(), Y.inverse())
        assert_same(x / y, X / Y)
        assert_same(r / y, R / Y)
        assert_same(y**-3, Y**-3)

    @settings(max_examples=150, deadline=None)
    @given(d=FIELDS, data=st.data())
    def test_equality_and_hash(self, d, data):
        x, X = both(d, data)
        y, Y = both(d, data)
        assert (x == y) == (X == Y) and (x != y) == (not X == Y)
        # an unreduced representative, negative denominators included
        k = data.draw(st.sampled_from([-7, -1, 2, 10**30]))
        z = QF._of(x._u * k, x._v * k, x._den * k, d)
        assert_same(z, X)
        assert z == x and hash(z) == hash(x)
        if X.b == 0:
            assert x == X.a and X.a == x and hash(x) == hash(X.a)
            assert {X.a: 1}[x] == 1
        else:
            assert x != X.a
        assert x != QF(X.a, 0, 0 if d else 1)

    @settings(max_examples=150, deadline=None)
    @given(d=FIELDS, data=st.data())
    def test_basis_pair_and_integrality(self, d, data):
        x, X = both(d, data)
        got, want = x.basis_pair(), X.basis_pair()
        assert got == want
        assert [type(c) for c in got] == [type(c) for c in want]
        assert x.is_integral() == X.is_integral()
        u, v = data.draw(COORDS), data.draw(COORDS) if d else 0
        assert_same(QF.from_basis_pair(u, v, d), FracQF.from_basis_pair(u, v, d))
        if x.is_integral():
            assert QF.from_basis_pair(*got, d) == x

    @settings(max_examples=60, deadline=None)
    @given(d=FIELDS, data=st.data())
    def test_poly_call_matches_element_horner(self, d, data):
        f = data.draw(kernel_polys(d))
        x, X = both(d, data)
        one = FracQF(1, 0, d)
        assert_same(f(x), oracle_eval_pair(f, X, one, max(f.degree, 0)))
        # ints and Fractions are taken as coefficients are
        k = data.draw(st.integers(-10**20, 10**20))
        assert_same(f(k), oracle_eval_pair(f, FracQF(k, 0, d), one,
                                           max(f.degree, 0)))
        assert_same(f(Fraction(k, 7)),
                    oracle_eval_pair(f, FracQF(Fraction(k, 7), 0, d), one,
                                     max(f.degree, 0)))
        # a float and an element of another field are refused before
        # any term is read, by the zero polynomial too
        for g in (f, Poly([], d)):
            with pytest.raises(TypeError, match="cannot interpret 0.5"):
                g(0.5)
            other = 3 if d == 1 else 1
            with pytest.raises(FieldMismatchError, match=(
                    f"coefficient lives in d={other}, polynomial in d={d}")):
                g(QF(1, 1, other))

    @settings(max_examples=60, deadline=None)
    @given(d=FIELDS, data=st.data())
    def test_map_call_matches_element_horner(self, d, data):
        phi = data.draw(maps_of(d))
        x0, X0 = both(d, data)
        x1, X1 = both(d, data)
        if x0.is_zero() and x1.is_zero():
            return
        F0 = oracle_eval_pair(phi.num, X0, X1, phi.degree)
        F1 = oracle_eval_pair(phi.den, X0, X1, phi.degree)
        image = phi(ProjPoint(x0, x1, d))
        assert_same(image.x0, F0)
        assert_same(image.x1, F1)
        assert phi.eval_pair(x0, x1) == (image.x0, image.x1)

    def test_rational_examples(self):
        assert 3 in {QF(3)}
        assert QF(1, 0, 3) == Fraction(1) and Fraction(1) == QF(1, 0, 3)
        assert hash(QF(1, 0, 3)) == hash(Fraction(1)) == hash(1)
        assert {QF(Fraction(1, 2), 0, 1): 1}[Fraction(1, 2)] == 1
        assert QF(0, 1, 1) != QF(0, 1, 3)
        for u, v, d in ((1, 1, 0), (1, 0, 2)):
            with pytest.raises(DomainError):
                QF.from_basis_pair(u, v, d)


def _count_fractions(monkeypatch, made: list) -> None:
    """Record every Fraction built, through __new__ or, where the
    fractions module has it, the constructor its arithmetic uses."""
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    coprime = getattr(Fraction, "_from_coprime_ints", None)
    if coprime is not None:
        def counting_coprime(cls, n, d):
            made.append((n, d))
            return coprime(n, d)

        monkeypatch.setattr(
            Fraction, "_from_coprime_ints", classmethod(counting_coprime)
        )


class TestRingOperationsBuildNoFractions:
    def test_ring_operations_cleared_pairs_and_images(self, monkeypatch):
        xs = [QF(Fraction(7, 2), Fraction(-3, 4), 3), QF(5, -2, 3),
              QF(0, 0, 3), QF(Fraction(-1, 6), Fraction(2, 9), 1),
              QF(4, 1, 1), QF(Fraction(10**200 + 1, 3)), QF(-12)]
        r, half, third = Fraction(5, 7), Fraction(1, 2), Fraction(1, 3)
        phi = catalog("phi_1+i")
        P = ProjPoint(QF(half, 1, 1), QF(2, Fraction(-5, 3), 1), 1)
        made = []
        _count_fractions(monkeypatch, made)
        out = []
        for x in xs:
            for y in xs:
                if x.d == y.d:
                    out += [x + y, x - y, x * y, x == y, x != y]
                    if y:
                        out += [x / y, y**-2]
            out += [-x, x.conj(), x**3, x + 1, 2 - x, x * r, r - x, x == r,
                    x.is_integral(), x.is_zero()]
            if x:
                out += [x.inverse(), r / x]
        for d in (0, 1, 3):
            out.append(cleared_pairs([x for x in xs if x.d == d]))
        out += [phi(P), phi.eval_pair(P.x0, P.x1), phi.num(P.x0),
                xs[1].basis_pair()]
        assert made == [] and len(out) > 100
        # the counter is live: Fraction arithmetic and a coordinate read
        half + third
        assert len(made) == 1
        xs[0].a
        assert len(made) == 2


@st.composite
def form_pairs(draw, d, deg):
    """deg+1 basis pairs: all zero, with a zero top coefficient, or free;
    each zero, rational (v = 0) or, for d != 0, general."""
    shape = draw(st.sampled_from(["zero", "top zero", "free"]))
    if shape == "zero":
        return [(0, 0)] * (deg + 1)
    kinds = ["zero", "rational"] + (["general"] if d else [])
    out = []
    for _ in range(deg + 1):
        kind = draw(st.sampled_from(kinds))
        u = draw(COORDS) if kind != "zero" else 0
        out.append((u, draw(COORDS) if kind == "general" else 0))
    if shape == "top zero":
        out[-1] = (0, 0)
    return out


MODULI = [0, 1, 2, 97, 2**64 + 13, 3**900, 10**200 + 7]


class TestSharedPowerEvaluator:
    @pytest.mark.parametrize("d", [0, 1, 3])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_per_form_horner(self, d, data):
        t, deg = omega_flag(d), data.draw(st.integers(1, 9))
        forms = [data.draw(form_pairs(d, deg))
                 for _ in range(data.draw(st.integers(1, 3)))]
        x0, x1 = ((data.draw(COORDS), data.draw(COORDS) if d else 0)
                  for _ in range(2))
        mod = data.draw(st.sampled_from(MODULI))
        terms = [[(k, c) for k, c in enumerate(f) if c != (0, 0)]
                 for f in forms]
        got = form_kernel(terms, deg, t)(*x0, *x1, mod)
        want = [oracle_eval_form(f, x0, x1, t, mod) for f in forms]
        if mod:
            assert all(0 <= c < mod for c in got)
            want = [(u % mod, v % mod) for u, v in want]
        assert got == flat(want)

    @settings(max_examples=60, deadline=None)
    @given(d=FIELDS, data=st.data())
    def test_map_pair_matches_one_form_at_a_time(self, d, data):
        # num and den share one set of powers; their supports differ, a
        # polynomial map's den being a constant
        phi = data.draw(maps_of(d))
        x0, X0 = both(d, data)
        x1, X1 = both(d, data)
        deg, t = phi.degree, omega_flag(d)
        for f, y in zip((phi.num, phi.den), phi.eval_pair(x0, x1)):
            assert_same(y, oracle_eval_pair(f, X0, X1, deg))
        (p0, p1), _ = cleared_pairs([x0, x1])
        one_at_a_time = [form_kernel([poly_terms(f)], deg, t)(*p0, *p1)
                         for f in (phi.num, phi.den)]
        assert phi._form_kernel()(*p0, *p1) == sum(one_at_a_time, ())

    @settings(max_examples=40, deadline=None)
    @given(d=FIELDS, data=st.data())
    def test_kernel_follows_the_degree(self, d, data):
        # a form's terms build the kernel of the degree they are evaluated
        # at, as the lower-degree form of a map pads with powers of x1
        f = data.draw(kernel_polys(d))
        x0, X0 = both(d, data)
        x1, X1 = both(d, data)
        (p0, p1), e = cleared_pairs([x0, x1])
        low = max(f.degree, 0)
        for deg in (low + 2, low, low + 1, low + 2):
            u, v = form_kernel([poly_terms(f)], deg, omega_flag(d))(*p0, *p1)
            assert_same(QF._of(u, v, f._den * e**deg, d),
                        oracle_eval_pair(f, X0, X1, deg))


@st.composite
def strided_forms(draw, d, deg):
    """1-3 term lists of degree-deg forms for form_kernel, each zero, one
    term, the exponents of a shared stride 1-4 from the form's own offset,
    those of a stride 1-4 of its own, or free (mixed residues); each
    coefficient rational (v = 0) or, for d != 0, general."""
    shared = draw(st.integers(1, 4))
    forms = []
    for _ in range(draw(st.integers(1, 3))):
        shape = draw(st.sampled_from(["zero", "one", "shared", "own", "free"]))
        stride = draw(st.integers(1, 4)) if shape == "own" else shared
        start = draw(st.integers(0, min(stride - 1, deg)))
        pool = range(start, deg + 1, stride)
        if shape == "zero":
            ks = []
        elif shape == "one":
            ks = [draw(st.integers(0, deg))]
        else:
            ks = sorted(set(draw(st.lists(
                st.sampled_from(pool if shape != "free" else range(deg + 1)),
                min_size=1, max_size=deg + 1))))
        kinds = ["rational"] + (["general"] if d else [])
        form = []
        for k in ks:
            u = draw(COORDS.filter(bool))
            general = draw(st.sampled_from(kinds)) == "general"
            form.append((k, (u, draw(COORDS) if general else 0)))
        forms.append(form)
    return forms


def _stride(kernel) -> int:
    """The stride r that a kernel's shape name records."""
    return int(re.search(r" r=(\d+) ", kernel.__code__.co_filename)[1])


class TestFormKernel:
    """form_kernel against the evaluator it replaced, oracle_eval_forms."""

    @pytest.mark.parametrize("d", [0, 1, 3])
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_old_evaluator(self, d, data):
        t, deg = omega_flag(d), data.draw(st.integers(0, 12))
        forms = data.draw(strided_forms(d, deg))
        x0, x1 = ((data.draw(COORDS), data.draw(COORDS) if d else 0)
                  for _ in range(2))
        mod = data.draw(st.sampled_from(MODULI))
        got = form_kernel(forms, deg, t)(*x0, *x1, mod)
        assert got == flat(oracle_eval_forms(forms, deg, x0, x1, t, mod))

    @pytest.mark.parametrize("name", catalog_names() + ["big"])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_engines_match_old_evaluator(self, name, data):
        eng = _engine(_big_map() if name == "big" else catalog(name))
        d, t = eng.d, eng._t
        x0, x1 = ((data.draw(COORDS), data.draw(COORDS) if d else 0)
                  for _ in range(2))
        mod = data.draw(st.sampled_from(
            [0, eng.m_R**2, eng.n_R * eng.m_R**2, eng.m_R**5, 97]))
        want = oracle_eval_forms(engine_forms(eng), eng.alpha, x0, x1, t, mod)
        assert eng._plan(*x0, *x1, mod) == flat(want)

    @pytest.mark.parametrize("name", catalog_names() + ["big"])
    def test_stride_is_the_rotation(self, name):
        # a Lattes map commutes with z -> -z on E1 and z -> omega z on
        # E2, so its forms step by 2 and 3; z^n/1 has one term per form,
        # and the big map steps by 2
        phi = _big_map() if name == "big" else catalog(name)
        curve = "big" if name == "big" else catalog_entry(name).curve_name
        stride = {"E1": 2, "E2": 3, "big": 2}.get(curve, 1)
        assert _stride(_engine(phi)._plan) == stride
        assert _stride(phi._form_kernel()) == stride
        assert _stride(form_kernel([poly_terms(phi.num), poly_terms(phi.den)],
                                   phi.degree, omega_flag(phi.d))) == stride

    @staticmethod
    def _forms(coeffs: list) -> list:
        # one shape, deg 11 at stride 2 over Z[omega]: both forms under the
        # prefactor x0, sharing the monomials x1^10 and x0^10
        it = iter(coeffs)
        return [[(k, next(it)) for k in (1, 5, 11)],
                [(k, next(it)) for k in (1, 11)]]

    def test_one_factory_per_shape(self):
        kernel_factory.cache_clear()
        forms_a = self._forms([(3, 0), (2, 7), (-4, 0), (5, 1), (6, 0)])
        forms_b = self._forms([(10**30, 0), (-1, 2), (9, 0), (1, -8), (7, 0)])
        a, b = form_kernel(forms_a, 11, 1), form_kernel(forms_b, 11, 1)
        info = kernel_factory.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert a.__code__ is b.__code__
        x0, x1 = (17, -5), (-3, 11)
        for forms, plan in ((forms_a, a), (forms_b, b)):
            for mod in (0, 97):
                want = oracle_eval_forms(forms, 11, x0, x1, 1, mod)
                assert plan(*x0, *x1, mod) == flat(want)

    def test_alternating_moduli(self):
        plan_forms = self._forms([(3, 0), (2, 7), (-4, 0), (5, 1), (6, 0)])
        plan = form_kernel(plan_forms, 11, 1)
        rng = random.Random(23)
        for i in range(12):
            mod = 0 if i % 2 == 0 else rng.choice([2, 97, 2**64 + 13])
            x0 = (rng.randrange(-10**6, 10**6), rng.randrange(-10**6, 10**6))
            x1 = (rng.randrange(-10**6, 10**6), rng.randrange(-10**6, 10**6))
            want = oracle_eval_forms(plan_forms, 11, x0, x1, 1, mod)
            assert plan(*x0, *x1, mod) == flat(want)

    def test_huge_coefficient_under_the_digit_limit(self):
        # the coefficients live in the kernel's closure, never in its
        # source, so no int is ever turned into digits
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("no int digit limit before Python 3.11")
        big = 7 * 10**4999 + 3
        forms = self._forms([(big, 0), (2, -big), (-4, 0), (5, 1), (big, 0)])
        x0, x1 = (12, 5), (-7, 2)
        old = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(640)
            got = [form_kernel(forms, 11, 1)(*x0, *x1, mod)
                   for mod in (0, 97)]
            want = [flat(oracle_eval_forms(forms, 11, x0, x1, 1, mod))
                    for mod in (0, 97)]
            assert got == want
        finally:
            sys.set_int_max_str_digits(old)

    def test_traceback_shows_the_generated_line(self):
        # a str coordinate fails inside the kernel; the traceback names
        # the shape and shows the generated line that raised
        kernel_factory.cache_clear()
        plan = form_kernel([[(7, (1, 0))], [(0, (1, 0))]], 7, 0)
        with pytest.raises(TypeError) as info:
            plan("3", 0, 1, 0)
        frame = traceback.extract_tb(info.value.__traceback__)[-1]
        assert frame.filename.startswith("<form_kernel t=0 r=1 deg=7 ")
        line = linecache.getline(frame.filename, frame.lineno).strip()
        assert line and frame.line == line
        text = "".join(traceback.format_exception(
            type(info.value), info.value, info.value.__traceback__))
        assert f'File "{frame.filename}", line {frame.lineno}' in text
        assert line in text

    def test_source_lives_with_the_factory(self):
        # linecache keeps a shape's source while its factory is cached, so
        # it holds at most as many kernel sources as the cache
        kernel_factory.cache_clear()
        plan = form_kernel([[(7, (1, 0))], [(0, (1, 0))]], 7, 0)
        name = plan.__code__.co_filename
        assert linecache.getline(name, 1).startswith("def make(")
        kernel_factory.cache_clear()
        assert name not in linecache.cache
        assert plan(3, 1, 2, 0) == (-1992, 2456, 128, 0)
        for k in range(kernel_factory.cache_info().maxsize + 5):
            form_kernel([[(k, (1, 0))]], 300, 0)
        kept = [k for k in linecache.cache if k.startswith("<form_kernel ")]
        assert len(kept) == kernel_factory.cache_info().maxsize

    @pytest.mark.parametrize("name", catalog_names() + ["big"])
    def test_catalog_kernel_is_straight_line(self, name):
        # each catalog engine's shape compiles to loop-free source under a
        # name with its t, r and degree, and its kernel gives the old
        # evaluator's values where a coordinate or both are zero
        eng = _engine(_big_map() if name == "big" else catalog(name))
        forms = engine_forms(eng)
        plan = form_kernel(forms, eng.alpha, eng._t)
        filename = plan.__code__.co_filename
        assert re.fullmatch(
            rf"<form_kernel t={eng._t} r=\d+ deg={eng.alpha} [0-9a-f]{{8}}>",
            filename)
        src = "".join(linecache.getlines(filename))
        assert src.startswith("def make(")
        assert "kernel(a0, b0, a1, b1, mod=0)" in src
        assert not re.search(r"\b(for|while)\b", src)
        zero, one = (0, 0), (1, 0)
        points = [(one, zero), (zero, one), (zero, zero), ((-1, 0), (3, 0))]
        if eng.d:
            points.append(((0, 1), (2, -1)))
        for x0, x1 in points:
            for mod in (0, 1, 97, eng.m_R**2):
                want = flat(oracle_eval_forms(forms, eng.alpha, x0, x1,
                                              eng._t, mod))
                assert plan(*x0, *x1, mod) == want
                assert eng._plan(*x0, *x1, mod) == want


# --------------------------------------------------------------------------
# gcd, unit normalization, division, reduced pairs
# --------------------------------------------------------------------------


def divmod_pairs(x: QF, y: QF):
    """pair_divmod on two algebraic integers, as field elements."""
    q, r = pair_divmod(x.basis_pair(), y.basis_pair(), omega_flag(x.d))
    return QF.from_basis_pair(*q, x.d), QF.from_basis_pair(*r, x.d)


class TestGcdOracle:
    @settings(max_examples=80, deadline=None)
    @given(d=FIELDS, data=st.data())
    def test_gcd_matches_fraction_euclid(self, d, data):
        g = data.draw(integers_of(d))
        x = g * data.draw(integers_of(d))
        y = g * data.draw(integers_of(d))
        if x.is_zero() and y.is_zero():
            with pytest.raises(DomainError):
                integral_gcd(x, y)
            return
        assert integral_gcd(x, y) == oracle_gcd(x, y)
        assert integral_gcd(y, x) == oracle_gcd(y, x)

    @settings(max_examples=80, deadline=None)
    @given(d=FIELDS, data=st.data())
    def test_normalize_unit_matches_unit_search(self, d, data):
        # the canonical associate of x is that of den*x, divided by den
        x = data.draw(st.one_of(integers_of(d), rationals_of(d)))
        (p,), den = cleared_pairs([x])
        u, v = pair_normalize(p, omega_flag(d))
        assert QF.from_basis_pair(u, v, d) / den == oracle_normalize(x)

    @settings(max_examples=60, deadline=None)
    @given(d=FIELDS, data=st.data())
    def test_divmod_matches_fraction_rounding(self, d, data):
        x = data.draw(integers_of(d))
        y = data.draw(integers_of(d).filter(lambda e: not e.is_zero()))
        assert divmod_pairs(x, y) == oracle_divmod(x, y)

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.sampled_from([1, 3]),
        half=st.sampled_from([(1, 0), (0, 1), (1, 1)]),
        data=st.data(),
    )
    def test_rounding_ties(self, d, half, data):
        # y = 2s and x = s*(2k + h): each basis coordinate of x/y = k + h/2
        # with h in {0, 1} sits exactly on a tie where h is 1
        s = data.draw(integers_of(d).filter(lambda e: not e.is_zero()))
        k = data.draw(integers_of(d))
        x = s * (2 * k + QF.from_basis_pair(*half, d))
        y = 2 * s
        q, r = divmod_pairs(x, y)
        assert (q, r) == oracle_divmod(x, y)
        # ties go toward +infinity: q = k + h in basis coordinates
        assert q == k + QF.from_basis_pair(*half, d)
        assert integral_gcd(x, y) == oracle_gcd(x, y)

    def test_eisenstein_tie_examples(self):
        omega = QF.from_basis_pair(0, 1, 3)
        # (1 + omega)/2 rounds both coordinates up
        q, r = divmod_pairs(1 + omega, QF(2, 0, 3))
        assert q == 1 + omega and r == -1 - omega
        # -1/2 rounds to 0, not -1
        q, r = divmod_pairs(QF(-1, 0, 3), QF(2, 0, 3))
        assert q == QF(0, 0, 3) and r == QF(-1, 0, 3)

    @settings(max_examples=60, deadline=None)
    @given(d=FIELDS, data=st.data())
    def test_reduced_pair_matches_oracle(self, d, data):
        x0 = data.draw(rationals_of(d))
        x1 = data.draw(rationals_of(d))
        if x0.is_zero() and x1.is_zero():
            return
        P = ProjPoint(x0, x1, d)
        assert P.reduced_pair() == oracle_reduced_pair(P)


    @settings(max_examples=60, deadline=None)
    @given(d=FIELDS, data=st.data())
    def test_cleared_pairs_match_oracle(self, d, data):
        xs = data.draw(st.lists(
            st.one_of(kernel_coeffs(d), elements_of(d)), max_size=6
        ))
        pairs, den = cleared_pairs(xs)
        assert (pairs, den) == oracle_cleared_pairs(xs)
        assert all(type(u) is int and type(v) is int for u, v in pairs)
        assert [QF.from_basis_pair(u, v, d) / den for u, v in pairs] == xs

    @settings(max_examples=40, deadline=None)
    @given(d=FIELDS, data=st.data())
    def test_integral_model_matches_oracle(self, d, data):
        num = data.draw(kernel_polys(d))
        den = data.draw(kernel_polys(d))
        if num.is_zero() and den.is_zero():
            return
        phi = RationalMap(num, den)
        assert phi.integral_model() == oracle_integral_model(phi)

    @pytest.mark.parametrize("name", catalog_names())
    def test_catalog_integral_model_matches_oracle(self, name):
        phi = catalog(name)
        assert phi.integral_model() == oracle_integral_model(phi)


# split primes (2 + i and its conjugate, 2 + omega and its conjugate),
# then a ramified and an inert one of each quadratic ring; two rational
# primes for d = 0
PRIMES = {
    0: [(3, 0), (7, 0)],
    1: [(2, 1), (2, -1), (3, 2), (1, 1), (3, 0)],
    3: [(2, 1), (3, -1), (3, 1), (1, 1), (2, 0)],
}


def pair_pow(x, k, t):
    out = (1, 0)
    for _ in range(k):
        out = pair_mul(out, x, t)
    return out


def random_pair(rng, d, bits):
    return (rng.getrandbits(bits) - (1 << (bits - 1)),
            rng.getrandbits(bits) - (1 << (bits - 1)) if d else 0)


class TestNormGcd:
    """pair_gcd takes h = gcd(N(x), N(y)) first and runs Euclid on the
    residues mod h; plain Euclid on x and y is its oracle."""

    @pytest.mark.parametrize("d", [0, 1, 3])
    def test_zeros_units_and_associates(self, d):
        t = omega_flag(d)
        rng = random.Random(f"units:{d}")
        units = [pair_turn((1, 0), k, t) for k in range(6 if d == 3 else 4)]
        if d == 0:
            units = [(1, 0), (-1, 0)]
        for _ in range(20):
            x = random_pair(rng, d, 40)
            if x == (0, 0):
                continue
            cases = [(x, (0, 0)), ((0, 0), x)]
            cases += [(x, pair_mul(u, x, t)) for u in units]
            cases += [(u, x) for u in units] + [(x, u) for u in units]
            for a, b in cases:
                assert pair_gcd(a, b, t) == euclid_pair_gcd(a, b, t)
            assert pair_gcd(x, (0, 0), t) == pair_normalize(x, t)
            for u in units:
                assert pair_gcd(x, pair_mul(u, x, t), t) == pair_normalize(
                    x, t)
                assert pair_gcd(u, x, t) == (1, 0)

    @pytest.mark.parametrize("d", [0, 1, 3])
    def test_thousand_bit_pairs_sharing_a_prime_power(self, d):
        t = omega_flag(d)
        rng = random.Random(f"prime-power:{d}")
        for p in PRIMES[d]:
            for k in (1, 5, 40):
                q = pair_pow(p, k, t)
                bits = 1000 - q[0].bit_length()
                x = pair_mul(q, random_pair(rng, d, bits), t)
                y = pair_mul(q, random_pair(rng, d, bits), t)
                assert max(map(abs, x + y)).bit_length() >= 990
                g = pair_gcd(x, y, t)
                assert g == euclid_pair_gcd(x, y, t)
                assert pair_divmod(g, q, t)[1] == (0, 0)

    @pytest.mark.parametrize("d,p", [(1, (2, 1)), (1, (3, 2)), (3, (2, 1)),
                                     (3, (3, 1))])
    def test_conjugate_primes_share_a_norm_but_no_factor(self, d, p):
        # a p and b conj(p) for a, b free of the primes above N(p): their
        # norms share N(p), so Euclid runs modulo h > 1, and still ends
        # on a unit
        t = omega_flag(d)
        q = pair_conj(p, t)
        n_p = pair_norm(p, t)
        rng = random.Random(f"conjugates:{d}:{p}")
        checked = 0
        while checked < 20:
            a = random_pair(rng, d, 500)
            b = random_pair(rng, d, 500)
            if pair_norm(a, t) % n_p == 0 or pair_norm(b, t) % n_p == 0:
                continue
            x, y = pair_mul(a, p, t), pair_mul(b, q, t)
            assert math.gcd(pair_norm(x, t), pair_norm(y, t)) % n_p == 0
            assert pair_gcd(x, y, t) == euclid_pair_gcd(x, y, t)
            if euclid_pair_gcd(a, b, t) == (1, 0):
                assert pair_gcd(x, y, t) == (1, 0)
            checked += 1
        assert pair_gcd(p, q, t) == (1, 0)

    @pytest.mark.parametrize("d", [0, 1, 3])
    def test_gcd_mod_matches_euclid(self, d):
        # gcd(h, x, y) for any positive h, the form the tracker calls
        t = omega_flag(d)
        rng = random.Random(f"mod:{d}")
        for _ in range(200):
            h = rng.choice([1, 2, 5, 12, 65, rng.randrange(1, 10**12)])
            x, y = random_pair(rng, d, 60), random_pair(rng, d, 60)
            expect = euclid_pair_gcd(euclid_pair_gcd((h, 0), x, t), y, t)
            assert pair_gcd_mod(h, x, y, t) == expect


# --------------------------------------------------------------------------
# Pseudo-division, gcd, common factors and fiber multiplicities
# --------------------------------------------------------------------------


def pseudo_divmod_polys(f: Poly, g: Poly) -> tuple:
    """_pseudo_divmod on the basis pair vectors of f and g over their
    common denominator D, with (s, q, r) read back as Polys: s*D*f =
    q*D*g + r."""
    (x, y), den = _coords(f, g)
    s, q, r = _pseudo_divmod(x, y, omega_flag(f.d))
    return s, den, *(Poly._of(*v, 1, f.d) for v in (x, y, q, r))


class TestPolyDivision:
    @settings(max_examples=80, deadline=None)
    @given(d=FIELDS, data=st.data())
    def test_pseudo_divmod_matches_fraction_loop(self, d, data):
        f = data.draw(kernel_polys(d, lengths=(0, 1, 2, 4, 7, 12)))
        g = data.draw(kernel_polys(d).filter(lambda p: not p.is_zero()))
        s, den, x, y, q, r = pseudo_divmod_polys(f, g)
        assert type(s) is int and s > 0
        assert s * x == q * y + r
        assert r.degree < y.degree
        # f = (q/s) g + r/(s D), the quotient and remainder over the field
        assert (q * Poly([Fraction(1, s)], d),
                r * Poly([Fraction(1, s * den)], d)) == oracle_poly_divmod(
                    f, g)

    @settings(max_examples=80, deadline=None)
    @given(d=FIELDS, data=st.data())
    def test_rational_lead_scales_by_its_absolute_value(self, d, data):
        # a divisor whose leading coefficient L is rational, its other
        # coefficients anything: each step scales by |L|, never by
        # N(L) = L^2, and a quotient coefficient is nonzero exactly
        # where a step cancelled a top coefficient
        f = data.draw(kernel_polys(d, lengths=(0, 1, 2, 4, 7, 12)))
        low = data.draw(st.lists(kernel_coeffs(d), max_size=4))
        lead = Fraction(data.draw(st.integers(-10**6, 10**6).filter(bool)),
                        data.draw(st.integers(1, 12)))
        g = Poly(low + [QF(lead, 0, d)], d)
        (x, y), _ = _coords(f, g)
        L, t = y[0][-1], omega_flag(d)
        assert y[1][-1] == 0
        s, q, r = _pseudo_divmod(x, y, t)
        steps = sum(1 for a, b in zip(*q) if a or b)
        assert s == abs(L) ** steps
        x, y, q, r = (Poly._of(*v, 1, d) for v in (x, y, q, r))
        assert s * x == q * y + r
        assert r.degree < y.degree

    @settings(max_examples=60, deadline=None)
    @given(d=FIELDS, data=st.data())
    def test_common_factor_cancels(self, d, data):
        # g non-monic and non-integral, a or b possibly zero
        g = data.draw(kernel_polys(d, lengths=(1, 2, 3, 4)))
        a = data.draw(kernel_polys(d, lengths=(0, 1, 2, 3, 5)))
        b = data.draw(kernel_polys(d, lengths=(0, 1, 2, 3, 5)))
        if a.is_zero() and b.is_zero():
            return
        phi = RationalMap(a * g, b * g)
        assert phi == RationalMap(a, b)
        assert (phi.num.coeffs, phi.den.coeffs) == oracle_map_coeffs(a, b)

    @pytest.mark.parametrize("d", [0, 1, 3])
    def test_common_factor_cancels_on_fixed_forms(self, d):
        half = QF(Fraction(1, 2), Fraction(-3, 4) if d else 0, d)
        g = Poly([Fraction(-2, 3), half, 7], d)
        z, one, zero = Poly([0, 1], d), Poly([1], d), Poly([], d)
        c = Poly([half], d)
        # (z^2 + z)/(z^2 - 1) is z/(z - 1)
        assert RationalMap.from_strings(["0", "1", "1"], ["-1", "0", "1"],
                                        d) == RationalMap(z, z - one)
        for a, b in ((z, z - one), (zero, z), (z, zero), (c, one)):
            assert RationalMap(a * g, b * g) == RationalMap(a, b)
        # constant maps come out as c/1 or 1/0
        assert RationalMap(zero, g) == RationalMap(zero, one)
        assert RationalMap(g, zero) == RationalMap(one, zero)
        assert RationalMap(c * g, g) == RationalMap(c, one)
        assert RationalMap(c * g, g).num == c

    @pytest.mark.parametrize("name", catalog_names())
    def test_catalog_map_cancels_common_factor(self, name):
        # the curve maps' forms reach degree 9 with large coefficients;
        # a map over Q also cancels once embedded in Q(i) and Q(sqrt -3)
        phi = catalog(name)
        for d in ((phi.d,) if phi.d else (0, 1, 3)):
            num, den = (Poly([QF(c.a, c.b, d) for c in f.coeffs], d)
                        for f in (phi.num, phi.den))
            half = QF(Fraction(1, 2), Fraction(-3, 4) if d else 0, d)
            g = Poly([Fraction(-2, 3), half, 7], d)
            psi = RationalMap(num * g, den * g)
            assert psi == RationalMap(num, den)
            assert (psi.num.coeffs, psi.den.coeffs) == (num.coeffs,
                                                        den.coeffs)
            assert (psi.num.coeffs, psi.den.coeffs) == oracle_map_coeffs(
                num, den)
            if d == phi.d:
                assert psi == phi

    @settings(max_examples=60, deadline=None)
    @given(d=FIELDS, data=st.data())
    def test_gcd_matches_fraction_euclid(self, d, data):
        # a common factor h makes most gcds nontrivial
        h = data.draw(kernel_polys(d, lengths=(1, 2, 3, 4)))
        f = data.draw(kernel_polys(d)) * h
        g = data.draw(kernel_polys(d)) * h
        if f.is_zero() and g.is_zero():
            with pytest.raises(DomainError):
                poly_gcd(f, g)
            return
        expect = oracle_poly_gcd(f, g)
        assert poly_gcd(f, g) == expect
        assert poly_gcd(g, f) == expect

    def test_gcd_zero_and_constants(self):
        f = Poly([QF(Fraction(1, 3), 2, 3), QF(0, Fraction(1, 2), 3)], 3)
        one = Poly([1], 3)
        monic = Poly(oracle_poly_monic(f), 3)
        assert poly_gcd(f, Poly([], 3)) == monic
        assert poly_gcd(Poly([], 3), f) == monic
        assert poly_gcd(f, Poly([QF(5, 7, 3)], 3)) == one
        with pytest.raises(DomainError):
            poly_gcd(Poly([], 3), Poly([], 3))

    @settings(max_examples=50, deadline=None)
    @given(d=FIELDS, data=st.data())
    def test_multiplicities_of_linear_products(self, d, data):
        roots = data.draw(st.lists(
            kernel_coeffs(d).filter(lambda c: c.is_zero() or c.norm() < 10**6),
            min_size=1, max_size=3, unique=True,
        ))
        exps = [data.draw(st.integers(1, 5)) for _ in roots]
        h = Poly([data.draw(kernel_coeffs(d).filter(bool))], d)
        for r, e in zip(roots, exps):
            h = h * Poly([-r, 1], d) ** e
        want = sorted(exps, reverse=True)
        zero, inf = ProjPoint(0, 1, d), ProjPoint.infinity(d)
        # the fiber of h over 0 and of 1/h over infinity
        for phi, target in (
            (RationalMap(h, Poly([1], d)), zero),
            (RationalMap(Poly([1], d), h), inf),
        ):
            assert preimage_multiplicities(phi, target) == want
            assert oracle_multiplicities(phi, target) == want

    @settings(max_examples=40, deadline=None)
    @given(d=FIELDS, data=st.data())
    def test_multiplicities_match_yun(self, d, data):
        square = data.draw(kernel_polys(d, lengths=(2, 3)))
        num = data.draw(kernel_polys(d, lengths=(1, 2, 3))) * square * square
        den = data.draw(kernel_polys(d, lengths=(1, 2, 3)))
        phi = RationalMap(num, den)
        if phi.degree < 1:
            return
        # half the time the fiber over 0, where the square shows
        x0, x1 = data.draw(st.one_of(
            st.just((QF.zero(d), QF.one(d))),
            st.tuples(kernel_coeffs(d), kernel_coeffs(d)),
        ))
        if x0.is_zero() and x1.is_zero():
            return
        target = ProjPoint(x0, x1, d)
        if (x1 * phi.num - x0 * phi.den).is_zero():
            return
        assert preimage_multiplicities(phi, target) == oracle_multiplicities(
            phi, target
        )

    @pytest.mark.parametrize(
        "name", [n for n in catalog_names() if catalog_entry(n).curve_name]
    )
    def test_two_torsion_fibers_match_yun(self, name):
        phi = catalog(name)
        for target in two_torsion_targets(curve_for_name(name)):
            assert preimage_multiplicities(
                phi, target
            ) == oracle_multiplicities(phi, target)


# --------------------------------------------------------------------------
# Poly sums, negation, derivative; equality and hashing
# --------------------------------------------------------------------------


class TestPolyLinear:
    @settings(max_examples=80, deadline=None)
    @given(d=FIELDS, data=st.data())
    def test_sum_and_difference_match_fraction_loop(self, d, data):
        f = data.draw(polys_of(d))
        g = data.draw(polys_of(d))
        assert (f + g).coeffs == oracle_poly_add(f, g)
        assert (f - g).coeffs == oracle_poly_add(f, g, -1)
        assert (f - f).is_zero() and f + Poly([], d) == f

    @settings(max_examples=80, deadline=None)
    @given(d=FIELDS, data=st.data())
    def test_unary_maps_match_fraction_loop(self, d, data):
        f = data.draw(polys_of(d))
        assert (-f).coeffs == oracle_poly_neg(f)
        assert f.derivative().coeffs == oracle_poly_derivative(f)

    @pytest.mark.parametrize("d", [0, 1, 3])
    def test_zero_and_constants(self, d):
        zero, c = Poly([], d), Poly([QF(Fraction(-3, 4), 0, d)], d)
        for f in (zero, c):
            assert (-f).coeffs == oracle_poly_neg(f)
            assert f.derivative() == zero
        assert (c + c).coeffs == (QF(Fraction(-3, 2), 0, d),)
        assert (c - c) == zero and zero.degree == -1 and c.degree == 0

    @pytest.mark.parametrize("d", [0, 1, 3])
    def test_equal_and_hash_across_constructions(self, d):
        half = QF(Fraction(1, 2), Fraction(1, 2) if d else 0, d)
        f = Poly([half, 0, QF(Fraction(-2, 3), 0, d), 5], d)
        w = "+1/2*w" if d else ""
        routes = [
            Poly([half, 0, Fraction(-2, 3), 5, 0, 0], d),
            Poly([parse_element(s, d) for s in (f"1/2{w}", "0", "-2/3", "5")],
                 d),
            (f * Poly([3], d)) * Poly([Fraction(1, 3)], d),
            (f + Poly([1, 2, 3, 4, 5], d)) - Poly([1, 2, 3, 4, 5], d),
            -(-f),
            RationalMap(f * Poly([-half, 1], d), Poly([-half, 1], d)).num,
            Poly([half], d) + Poly([0, 0, Fraction(-2, 3), 5], d),
            Poly(f.coeffs, d),
        ]
        for g in routes:
            assert g == f and hash(g) == hash(f)
            assert g.coeffs == f.coeffs
        assert len(set(routes + [f])) == 1
        assert {f: 1}[routes[2]] == 1
        assert f != f + Poly([0, 0, 0, 0, 1], d)
        # same stored ints over another field
        other = 3 if d != 3 else 1
        assert f != Poly([Fraction(1, 2), 0, Fraction(-2, 3), 5], other)


def _guard_polys(d: int) -> list:
    half = Fraction(1, 2)
    c = QF(half, half if d else 0, d)
    return [
        Poly([c, 3, Fraction(-7, 5), 1], d),
        Poly([-2, c, 9], d),
        Poly([c], d),
        Poly([], d),
    ]


class TestPolyBuildsNoFieldElements:
    @pytest.mark.parametrize("d", [0, 1, 3])
    def test_poly_by_poly_arithmetic(self, d, monkeypatch):
        polys = _guard_polys(d)
        built = []
        init, of = QF.__init__, QF._of.__func__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        def counting_of(cls, *args):
            built.append(args)
            return of(cls, *args)

        # elements come from the constructor or from _of
        monkeypatch.setattr(QF, "__init__", counting_init)
        monkeypatch.setattr(QF, "_of", classmethod(counting_of))
        out = []
        for f in polys:
            out += [f.derivative(), -f, f**3]
            for g in polys:
                out += [f + g, f - g, f * g]
                if not g.is_zero():
                    # the constructor cancels g on basis pair vectors
                    out += [RationalMap(f * g, g).num]
        assert built == [] and all(isinstance(p, Poly) for p in out)
        # the counter is live: a coefficient read builds one
        polys[0].leading()
        assert len(built) == 1


# --------------------------------------------------------------------------
# Poly multiplication
# --------------------------------------------------------------------------


class TestPolyMultiply:
    @settings(max_examples=80, deadline=None)
    @given(d=FIELDS, data=st.data())
    def test_product_matches_schoolbook(self, d, data):
        f = data.draw(polys_of(d))
        g = data.draw(polys_of(d))
        assert f * g == schoolbook(f, g)

    @settings(max_examples=40, deadline=None)
    @given(d=FIELDS, data=st.data())
    def test_scalar_product(self, d, data):
        f = data.draw(polys_of(d))
        s = data.draw(rationals_of(d))
        expect = Poly([s * c for c in f.coeffs], d)
        assert s * f == expect
        assert f * s == expect

    def test_zero_and_constant(self):
        f = Poly([QF(Fraction(1, 3), Fraction(-1, 2), 3), QF(0, 1, 3)], 3)
        assert (f * Poly([], 3)).is_zero()
        assert (Poly([], 3) * f).is_zero()
        assert f * Poly([1], 3) == f
        assert f * 0 == Poly([], 3)
        half = QF(Fraction(1, 2), Fraction(1, 2), 3)
        assert f * Poly([half], 3) == schoolbook(f, Poly([half], 3))


# --------------------------------------------------------------------------
# Composition through the trusted constructor
# --------------------------------------------------------------------------


def _same_field_pairs():
    names = catalog_names()
    return [
        (a, b)
        for a in names
        for b in names
        if catalog(a).d == catalog(b).d
        and catalog(a).degree * catalog(b).degree <= 81
    ]


def _constants(d: int) -> dict:
    c = QF(Fraction(2, 3), Fraction(-5, 7) if d else 0, d)
    return {
        "const": RationalMap(Poly([c], d), Poly([1], d)),
        "zero": RationalMap(Poly([], d), Poly([1], d)),
        "inf": RationalMap(Poly([1], d), Poly([], d)),
    }


class TestComposeTrusted:
    @pytest.mark.parametrize("outer,inner", _same_field_pairs())
    def test_catalog_pair_matches_gcd_constructor(self, outer, inner):
        f, g = catalog(outer), catalog(inner)
        comp = f.compose(g)
        assert comp == oracle_compose_by_gcd(f, g) == oracle_compose(f, g)
        assert comp.degree == f.degree * g.degree

    @pytest.mark.parametrize(
        "name", ["pow_2", "phi_1+i", "phi_sqrt-3", "phi_3@E1"]
    )
    def test_constant_maps_inner_and_outer(self, name):
        phi = catalog(name)
        consts = _constants(phi.d)
        for c in consts.values():
            for outer, inner in ((phi, c), (c, phi)):
                comp = outer.compose(inner)
                assert comp == oracle_compose_by_gcd(outer, inner)
                assert comp.degree == 0
        for a in consts.values():
            for b in consts.values():
                assert a.compose(b) == oracle_compose_by_gcd(a, b)
        # phi(infinity) and infinity as the value of a constant map
        assert phi.compose(consts["inf"]) == RationalMap(
            Poly([phi(ProjPoint.infinity(phi.d)).x0], phi.d),
            Poly([phi(ProjPoint.infinity(phi.d)).x1], phi.d),
        )
        assert consts["inf"].compose(phi) == consts["inf"]


# --------------------------------------------------------------------------
# Composition through the outer map's kernel on packed polynomials
# --------------------------------------------------------------------------


@st.composite
def compose_maps(draw, d):
    """A catalog map over d (degree 2-9), a constant c/1 from
    kernel_coeffs, 0/1 or 1/0, or num/den from kernel_polys up to degree
    9, so that two of them have a degree product up to 81."""
    kind = draw(st.sampled_from(["catalog", "const", "zero", "inf", "free"]))
    names = [n for n in catalog_names() if catalog(n).d == d]
    if kind == "catalog" and names:
        return catalog(draw(st.sampled_from(names)))
    if kind == "const":
        return RationalMap(Poly([draw(kernel_coeffs(d))], d), Poly([1], d))
    if kind == "zero":
        return RationalMap(Poly([], d), Poly([1], d))
    if kind == "inf":
        return RationalMap(Poly([1], d), Poly([], d))
    lengths = (0, 1, 2, 3, 5, 8, 10)
    num = draw(kernel_polys(d, lengths))
    den = draw(kernel_polys(d, lengths).filter(bool) if num.is_zero()
               else kernel_polys(d, lengths))
    return RationalMap(num, den)


# the chains phi^n that periodic_points builds, up to degree 128
CHAINS = [("pow_2", 7), ("phi_1+i", 6), ("phi_sqrt-3", 4), ("phi_2@E1", 3),
          ("phi_1+2i", 3), ("phi_3@E1", 2)]


class TestComposeKernel:
    """compose against the substitution it replaced, oracle_compose."""

    @pytest.mark.parametrize("d", [0, 1, 3])
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_matches_old_substitution(self, d, data):
        outer = data.draw(compose_maps(d))
        inner = data.draw(compose_maps(d))
        comp = outer.compose(inner)
        assert comp == oracle_compose(outer, inner)
        assert comp.degree == outer.degree * inner.degree

    @pytest.mark.parametrize("name,n", CHAINS)
    def test_chain(self, name, n):
        phi = catalog(name)
        psi = want = phi
        for _ in range(n - 1):
            psi, want = phi.compose(psi), oracle_compose(want, phi)
        assert psi == want
        assert psi.degree == phi.degree**n

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatchError):
            catalog("phi_1+i").compose(catalog("phi_sqrt-3"))

    @pytest.mark.parametrize("bits", [2, 3, 7, 8, 9, 63, 64, 65, 1000])
    def test_pack_round_trip(self, bits):
        # every digit of the range that compose's bound leaves, its ends
        # and zero among them, at the bottom, middle and top of a vector
        top = (1 << (bits - 1)) - 1
        rng = random.Random(bits)
        for A in ([top], [-top], [0], [], [top, -top, 0, top], [0, 0, -top],
                  [-top, 0, 0], [rng.randint(-top, top) for _ in range(40)]):
            x = _pack(A, bits)
            assert _unpack(x, bits, len(A)) == A
            assert _unpack(x, bits, len(A) + 3) == A + [0, 0, 0]
        # and the one digit below the range of the bound
        assert _unpack(_pack([-top - 1, top], bits), bits, 2) == [-top - 1, top]


# import p1dyn in a fresh interpreter; added() then lists which of the
# modules in `lazy` have loaded since, counting only modules that the
# interpreter's own start-up had not loaded before `import p1dyn`
_SPY = """
import contextlib, io, json, sys
lazy = ("dataclasses", "decimal", "fractions", "inspect", "numbers", "numpy",
        "p1dyn.formkernel", "p1dyn.greenpoint", "p1dyn.heights",
        "p1dyn.measures", "p1dyn.periodic", "p1dyn.roots", "p1dyn.torus")
before = set(sys.modules)
def added():
    return sorted(m for m in lazy if m in sys.modules and m not in before)
import p1dyn
loaded = {"import": added()}
"""


def _command(argv):
    """_SPY, then argv through cli.main; prints its exit status and, under
    the subcommand's name, what loaded since the import."""
    return _SPY + """
from p1dyn import cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(%r)
loaded[%r] = added()
print(json.dumps([rc, loaded]))
""" % (argv, argv[0])


def spy(script):
    """What script prints as JSON, run in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(heights.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=src), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_and_each_command_load_only_what_they_run(tmp_path):
    # each command in a fresh interpreter, so that no command's loads
    # hide another's.  import p1dyn and catalog load no rational type, no
    # height engine, no torus, no kernel and no root solver; commute and
    # compose compile the outer map's form kernel; green loads its
    # numpy-free module alone; a height loads the height engine, which
    # compiles its form kernel; the 2-torsion and the parity table load
    # torus alone, which evaluates G on field elements: no kernel, no
    # numpy and no height engine; periodic takes a catalog map's closed
    # forms without numpy, and solves any other map with roots, which
    # loads numpy but not measures
    kernel = ["p1dyn.formkernel"]
    engine = [*kernel, "p1dyn.heights"]
    torus = ["p1dyn.torus"]
    spec = tmp_path / "two_z2.json"
    spec.write_text('{"num": ["0", "0", "2"], "den": ["1"]}')
    for argv, loads in (
        (["catalog"], []),
        (["commute", "--catalog", "phi_1+i", "phi_1-i"], kernel),
        (["compose", "--catalog", "phi_sqrt-3", "phi_sqrt-3*rho"], kernel),
        (["green", "--catalog", "pow_2", "--point", "0.5,0"],
         ["p1dyn.greenpoint"]),
        (["height", "--catalog", "pow_2", "--point", "7,3"], engine),
        (["nt-height", "--curve", "E1", "--point", "2"], engine),
        (["ramify", "--catalog", "phi_1+2i"], torus),
        (["table-check", "--lambda", "2,0,1"], torus),
        (["periodic", "--catalog", "phi_1+i", "--depth", "2"],
         [*kernel, "p1dyn.periodic", "p1dyn.torus"]),
    ):
        assert spy(_command(argv)) == [0, {"import": [], argv[0]: loads}]
    # numpy loads modules of the list itself (inspect, numbers), which
    # depend on its version
    rc, loaded = spy(_command(["periodic", "--map", str(spec)]))
    assert rc == 0 and loaded["import"] == []
    got = set(loaded["periodic"])
    assert {"numpy", "p1dyn.periodic", "p1dyn.roots"} <= got
    assert "p1dyn.measures" not in got


# argv through cli.main in a fresh interpreter; prints its exit status
# and how many kernels it compiled, 0 if formkernel never loaded
_KERNELS = """
import contextlib, io, json, sys
from p1dyn import cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(%r)
fk = sys.modules.get("p1dyn.formkernel")
print(json.dumps([rc, fk.kernel_factory.cache_info().misses if fk else 0]))
"""


@pytest.mark.parametrize("argv,compiled", [
    ("catalog", 0),
    ("green --catalog pow_2 --point 0.5,0", 0),
    ("ramify --catalog phi_1+2i", 0),
    ("table-check --lambda 1,2,1", 0),
    ("density-compare --catalog phi_2@E2 --depth 5", 0),
    ("measure --catalog phi_2@E1 --res 64", 0),
    # the fixed-point lift; the curve lattice evaluates G on elements
    ("periodic --catalog phi_2@E2 --depth 2", 1),
    ("periodic --catalog pow_3 --depth 2", 1),
    ("height --catalog pow_2 --point 7,3", 1),
    ("nt-height --curve E1 --point 2", 1),
    # compose runs the outer map's kernel, commute each map's in turn
    ("compose --catalog phi_sqrt-3 phi_sqrt-3*rho", 1),
    ("commute --catalog phi_2@E2 phi_3@E2", 2),
])
def test_kernels_compiled_per_command(argv, compiled):
    # only a map's forms compile a kernel: a Poly, G among them, is
    # evaluated on field elements
    assert spy(_KERNELS % argv.split()) == [0, compiled]


def test_torus_names_are_served_from_torus():
    import p1dyn
    from p1dyn import torus

    # ramification_profile among them
    for name in p1dyn._TORUS_NAMES:
        assert getattr(p1dyn, name) is getattr(torus, name)


def test_lift_loads_only_its_numpy_free_module():
    # a map's Lift, its forms at a point and a Green value on it
    script = _SPY + """
lift = p1dyn.Lift.from_map(p1dyn.catalog("pow_2"))
lift.eval(3.0, 1.0)
p1dyn.green(lift, 2.0, 30)
loaded["Lift"] = added()
print(json.dumps(loaded))
"""
    assert spy(script) == {"import": [], "Lift": ["p1dyn.greenpoint"]}


class TestEngineCache:
    def test_equal_maps_share_one_engine(self):
        phi = catalog("phi_3@E2")
        again = RationalMap(phi.num, phi.den)
        assert again is not phi and again == phi
        assert _engine(again) is _engine(phi)

    def test_cache_is_bounded(self):
        maxsize = _engine.cache_info().maxsize
        assert maxsize == 128
        maps = [RationalMap(Poly([k, 0, 1], 0), Poly([1], 0))
                for k in range(maxsize + 5)]
        engines = [_engine(phi) for phi in maps]
        assert _engine.cache_info().currsize == maxsize
        # the most recent ones are still cached, the first is not
        assert _engine(maps[-1]) is engines[-1]
        assert _engine(maps[0]) is not engines[0]

# --------------------------------------------------------------------------
# Resultant and Bezout certificate
# --------------------------------------------------------------------------

DEGREES = st.integers(1, 7)


def _same_up_to_sign(xs: list, ys: list) -> bool:
    return xs == ys or xs == [-y for y in ys]


def pairs_of(cs: list) -> list:
    """The basis pairs of integral field elements, as _bareiss takes them."""
    return [c.basis_pair() for c in cs]


def _check_certificate(c0: list, c1: list, deg: int) -> None:
    """The kernel's R and solutions against the oracle's, and log S, on
    integral forms given as field elements."""
    d = c0[0].d
    t = omega_flag(d)
    R, sols = oracle_certificate(c0, c1, deg)
    R_k, pairs = _bareiss(pairs_of(c0), pairs_of(c1), deg, t)
    assert QF.from_basis_pair(*R_k, d) == R
    for sol, ys in zip(sols, pairs):
        mine = [QF.from_basis_pair(u, v, d) for u, v in ys]
        assert _same_up_to_sign(mine, sol)
    log_s = max(log_one_norm([int(x.norm()) for x in sol]) for sol in sols)
    assert cofactor_certificate(pairs_of(c0), pairs_of(c1), deg, t) == (
        R_k, log_s)


def oracle_bareiss_dense(c0: list, c1: list, deg: int, t: int) -> tuple:
    """_bareiss as it ran before it skipped products with a zero entry:
    every pair product of the elimination taken through pair_mul.  Its
    (R, sols) are the reference the sparse elimination must match."""
    n, zero = 2 * deg, (0, 0)
    mat = [
        [c0[k - i] if 0 <= k - i <= deg else zero for i in range(deg)]
        + [c1[k - i] if 0 <= k - i <= deg else zero for i in range(deg)]
        + [(int(k == n - 1), 0), (int(k == 0), 0)]
        for k in range(n)
    ]
    sign, det = (-1) ** deg, (1, 0)
    for k in range(n):
        piv = next((r for r in range(k, n) if mat[r][k] != zero), None)
        if piv is None:
            return zero, None
        if piv != k:
            mat[k], mat[piv] = mat[piv], mat[k]
            sign = -sign
        top = mat[k]
        for row in mat[k + 1:]:
            for c in range(k + 1, n + 2):
                u, v = pair_mul(row[c], top[k], t)
                x, y = pair_mul(row[k], top[c], t)
                row[c] = pair_divexact((u - x, v - y), det, t)
        det = top[k]
    sols = []
    for col in (n, n + 1):
        y = [zero] * n
        for k in range(n - 1, -1, -1):
            u, v = pair_mul(mat[k][col], det, t)
            for c in range(k + 1, n):
                x, w = pair_mul(mat[k][c], y[c], t)
                u, v = u - x, v - w
            y[k] = pair_divexact((u, v), mat[k][k], t)
        sols.append(y)
    return (sign * det[0], sign * det[1]), sols


@st.composite
def sparse_forms_of(draw, d, deg):
    """deg + 1 integral coefficients of a binary form, each zero with
    probability 1/2 at least; one time in four each, a run of its first
    or last coefficients is zero too, a form that a power of x or of z
    divides."""
    nonzero = forms_of(d, 1).filter(lambda c: not c[0].is_zero())
    coeffs = [QF.zero(d) if draw(st.booleans()) else draw(nonzero)[0]
              for _ in range(deg + 1)]

    def run(most):
        if most and draw(st.sampled_from([True, False, False, False])):
            return draw(st.sampled_from(range(1, most + 1)))
        return 0

    lead = run(deg + 1)
    trail = run(deg + 1 - lead)
    zero = QF.zero(d)
    return [zero] * lead + coeffs[lead:deg + 1 - trail] + [zero] * trail


def resultant(c0: list, c1: list, deg: int) -> QF:
    """_bareiss's R of integral forms given as field elements, as one."""
    d = c0[0].d
    R = _bareiss(pairs_of(c0), pairs_of(c1), deg, omega_flag(d))[0]
    return QF.from_basis_pair(*R, d)


class TestResultantKernel:
    @settings(max_examples=40, deadline=None)
    @given(d=FIELDS, deg=DEGREES, data=st.data())
    def test_resultant_matches_sylvester_oracle(self, d, deg, data):
        c0 = data.draw(forms_of(d, deg + 1))
        c1 = data.draw(forms_of(d, deg + 1))
        assert resultant(c0, c1, deg) == oracle_resultant(c0, c1, deg)

    @settings(max_examples=40, deadline=None)
    @given(d=FIELDS, deg=DEGREES, data=st.data())
    def test_certificate_matches_oracle(self, d, deg, data):
        c0 = data.draw(forms_of(d, deg + 1))
        c1 = data.draw(forms_of(d, deg + 1))
        if oracle_resultant(c0, c1, deg).is_zero():
            with pytest.raises(DomainError):
                cofactor_certificate(pairs_of(c0), pairs_of(c1), deg,
                                     omega_flag(d))
        else:
            _check_certificate(c0, c1, deg)

    @settings(max_examples=40, deadline=None)
    @given(d=FIELDS, deg=DEGREES, at_infinity=st.booleans(), data=st.data())
    def test_shared_root_vanishes(self, d, deg, at_infinity, data):
        # the linear form a*y + b*x vanishes at (-a : b); b = 0 puts the
        # common root at infinity
        a = data.draw(forms_of(d, 1).filter(lambda c: not c[0].is_zero()))[0]
        b = QF.zero(d) if at_infinity else data.draw(forms_of(d, 1))[0]
        c0 = times_linear([a, b], data.draw(forms_of(d, deg)))
        c1 = times_linear([a, b], data.draw(forms_of(d, deg)))
        assert oracle_resultant(c0, c1, deg).is_zero()
        assert resultant(c0, c1, deg).is_zero()
        with pytest.raises(DomainError):
            cofactor_certificate(pairs_of(c0), pairs_of(c1), deg,
                                 omega_flag(d))

    @pytest.mark.parametrize("name", catalog_names())
    def test_catalog_integral_models(self, name):
        phi = catalog(name)
        _check_certificate(*model_elements(phi), phi.degree)

    @pytest.mark.parametrize("d", [0, 1, 3])
    @settings(max_examples=100, deadline=None)
    @given(deg=st.sampled_from([1, 2, 3, 5, 7]), data=st.data())
    def test_sparse_forms_match_dense_elimination(self, d, deg, data):
        # the elimination skips products with a zero entry and entries
        # that stay zero; R and both solution vectors are the dense
        # elimination's, exactly, and R is the Sylvester determinant's
        c0 = data.draw(sparse_forms_of(d, deg))
        c1 = data.draw(sparse_forms_of(d, deg))
        t = omega_flag(d)
        got = _bareiss(pairs_of(c0), pairs_of(c1), deg, t)
        assert got == oracle_bareiss_dense(pairs_of(c0), pairs_of(c1), deg, t)
        R = oracle_resultant(c0, c1, deg)
        assert QF.from_basis_pair(*got[0], d) == R
        assert (got[1] is None) == R.is_zero()
        if not R.is_zero():
            _check_certificate(c0, c1, deg)

    @pytest.mark.parametrize("d", [0, 1, 3])
    @pytest.mark.parametrize("c0, c1, vanishes", [
        # x^3 and z^3: a monomial each, resultant a unit
        ([0, 0, 0, 1], [1, 0, 0, 0], False),
        # a common root at infinity and at 0: leading or trailing zeros
        # in both forms
        ([2, 3, 5, 0], [7, 0, 1, 0], True),
        ([0, 3, 0, 5], [0, 0, 1, 4], True),
        # one form zero
        ([0, 0, 0, 0], [1, 2, 0, 3], True),
        # sparse, coprime, leading and trailing zeros in turn
        ([0, 2, 0, 1], [3, 0, 1, 0], False),
    ])
    def test_sparse_edge_forms(self, d, c0, c1, vanishes):
        t = omega_flag(d)
        p0, p1 = ([(c, 0) for c in cs] for cs in (c0, c1))
        got = _bareiss(p0, p1, 3, t)
        assert got == oracle_bareiss_dense(p0, p1, 3, t)
        c0, c1 = ([QF(c, 0, d) for c in cs] for cs in (c0, c1))
        assert QF.from_basis_pair(*got[0], d) == oracle_resultant(c0, c1, 3)
        assert (got[0] == (0, 0)) == vanishes == (got[1] is None)
        if not vanishes:
            _check_certificate(c0, c1, 3)


class TestLogOneNorm:
    @settings(max_examples=80, deadline=None)
    @given(norms=st.lists(st.integers(0, 10**300), min_size=1, max_size=20))
    def test_plain_float_sum_in_range(self, norms):
        if any(norms):
            assert log_one_norm(norms) == math.log(
                sum(math.sqrt(float(n)) for n in norms)
            )

    @settings(max_examples=80, deadline=None)
    @given(
        norms=st.lists(st.integers(0, 10**1200), min_size=1, max_size=20)
    )
    def test_upper_bound_beyond_float_range(self, norms):
        if not any(norms):
            return
        with mpmath.workprec(200):
            exact = mpmath.log(sum(mpmath.sqrt(mpmath.mpf(n)) for n in norms))
            got = log_one_norm(norms)
            assert got >= exact - 1e-12 * abs(exact)
            assert got - exact <= 1e-12 * max(1.0, abs(exact))


# --------------------------------------------------------------------------
# Archimedean Green sum on integer pairs
# --------------------------------------------------------------------------

ARCH_TOLS = (1e-6, 1e-9, 1e-11)


def _arch_steps(eng, target: float) -> int:
    # the step count height() picks for a certifiable target error
    return eng._steps_needed(1, _ARCH_CAP, eng.c_bound, (target - 2e-12) / 2)


def _check_arch(phi: RationalMap, points: list, steps=()) -> None:
    # at `steps`, or else at the step counts of ARCH_TOLS
    eng = _engine(phi)
    for P in points:
        x0, x1 = P.reduced_pair()
        for n in steps or sorted({_arch_steps(eng, t) for t in ARCH_TOLS}):
            got, want = eng._arch_value(x0, x1, n), oracle_arch_value(
                eng, x0, x1, n
            )
            assert got[1] == want[1], (str(P), n)
            # the oracle rounds sqrt(3), so where the orbit keeps a unit
            # as its largest coordinate it returns a few units of its
            # working precision instead of the exact 0
            assert got[0] == want[0] or (
                got[0] == 0.0 and abs(want[0]) < 2.0**-64
            ), (str(P), n, got, want)


def _check_limit(phi: RationalMap, points: list, tol: float = 1e-11):
    """_arch_value at the step count of tol against the orbit limit: the
    mpmath loop run until its own tail is below 1e-13, at
    max(2000, 64 + (n + 10) * _amp_bits) bits for the engine's n."""
    eng = _engine(phi)
    n = _arch_steps(eng, tol)
    far = eng._steps_needed(n, n + 10, eng.c_bound, 1e-13)
    bits = max(2000, 64 + (n + 10) * eng._amp_bits)
    for P in points:
        x0, x1 = P.reduced_pair()
        got, tail = eng._arch_value(x0, x1, n)
        limit, far_tail = oracle_arch_value(eng, x0, x1, far, bits)
        assert far <= n + 10 and far_tail <= 1e-13, (far, n)
        assert abs(got - limit) <= tail + 1e-11, (str(P), n, got, limit)


def _sample_points(d: int, seed: str) -> list:
    """Eight points: 1-, 3- and 12-digit coordinates, integral and not."""
    rng = random.Random(seed)

    def coord(digits):
        lo, hi = 10 ** (digits - 1), 10**digits - 1
        a = Fraction(rng.randint(lo, hi) * rng.choice((-1, 1)),
                     rng.choice((1, 1, 2, 7)))
        b = rng.randint(-hi, hi) if d else 0
        return QF(a, Fraction(b, 2) if d == 3 else b, d)

    return [ProjPoint(coord(k), coord(j), d)
            for k, j in ((1, 1), (1, 3), (3, 1), (3, 3),
                         (12, 1), (1, 12), (12, 12), (3, 12))]


def _special_points(name: str) -> tuple:
    """0, infinity, 1 and -1, and the torsion points among them or beside
    them: all four for the power maps, infinity and the images of
    2-torsion for the Lattes maps."""
    d = catalog(name).d
    pts = [ProjPoint.affine(QF(k, 0, d)) for k in (0, 1, -1)]
    if not catalog_entry(name).curve_name:
        return pts + [ProjPoint.infinity(d)], pts + [ProjPoint.infinity(d)]
    torsion = two_torsion_targets(curve_for_name(name))
    return pts + torsion, torsion


def _composite() -> RationalMap:
    """phi_1+2i o phi_1+2i, of degree 25."""
    return catalog("phi_1+2i").compose(catalog("phi_1+2i"))


def _composite_points() -> list:
    d = catalog("phi_1+2i").d
    return [
        ProjPoint(QF(3, 1, d), QF(1, 0, d), d),
        ProjPoint(QF(Fraction(7, 2), -5, d), QF(2, 9, d), d),
        ProjPoint.affine(QF(0, 1, d)),
    ]


def _big_map() -> RationalMap:
    """(10^200 z^2 + 1)/z, whose 1332 bits per step give the archimedean
    loop its largest drop."""
    return RationalMap.from_strings(["1", "0", str(10**200)], ["0", "1"], 0)


BIG_POINTS = [ProjPoint(a, b) for a, b in ((3, 1), (7, 2), (1, 1), (-5, 3))]


def _arch_case(name: str) -> tuple:
    """A catalog map at its _sample_points, the degree-25 composite
    "phi_1+2i^2" at its three points, or the "big" map at BIG_POINTS."""
    if name == "phi_1+2i^2":
        return _composite(), _composite_points()
    if name == "big":
        return _big_map(), BIG_POINTS
    phi = catalog(name)
    return phi, _sample_points(phi.d, name)


class TestArchOracle:
    @pytest.mark.parametrize("name", catalog_names())
    def test_catalog_matches_mpmath_loop(self, name):
        phi = catalog(name)
        _check_arch(phi, _sample_points(phi.d, name))

    @pytest.mark.parametrize("name", catalog_names())
    def test_special_points(self, name):
        phi = catalog(name)
        pts, torsion = _special_points(name)
        _check_arch(phi, pts)
        for P in torsion:
            h = canonical_height(phi, P)
            assert h.value <= h.error_bound

    @pytest.mark.parametrize("d", [1, 3])
    def test_roots_of_unity_under_power_maps(self, d):
        w = QF(0, 1, 1) if d == 1 else QF(Fraction(1, 2), Fraction(1, 2), 3)
        pts = [ProjPoint.affine(w), ProjPoint.affine(w * w),
               ProjPoint.affine(-w)]
        for name in ("pow_2", "pow_3", "pow_4"):
            phi = RationalMap(*(Poly([QF(c.a, c.b, d) for c in f.coeffs], d)
                                for f in (catalog(name).num,
                                          catalog(name).den)))
            _check_arch(phi, pts)
            for P in pts:
                h = canonical_height(phi, P)
                assert h.value <= h.error_bound

    def test_degree_25_composite(self):
        _check_arch(_composite(), _composite_points())

    @pytest.mark.parametrize("name", catalog_names() + ["phi_1+2i^2", "big"])
    def test_matches_orbit_limit(self, name):
        _check_limit(*_arch_case(name))

    # floor(n log2 alpha) > 40 at each of these, so the drop is capped
    @pytest.mark.parametrize("name, n", [
        ("phi_3@E2", 40), ("phi_1+2i^2", 12), ("phi_1+i", 60), ("big", 60),
    ])
    def test_capped_drop_matches_mpmath_loop(self, name, n):
        phi, points = _arch_case(name)
        assert (phi.degree**n).bit_length() - 1 > 40
        _check_arch(phi, points, steps=(n,))

    @pytest.mark.parametrize("name, n, uncut", [
        ("big", 60, 7), ("phi_1+i", 30, 6),
    ])
    def test_bits_follow_the_schedule(self, monkeypatch, name, n, uncut):
        # the pair entering step k + 1 was cut to bits_k once it outgrew
        # them: from step 7 on for the big map, from step 6 for phi_1+i
        phi, points = _arch_case(name)
        eng = _engine(phi)
        sizes = []

        plan = eng._plan

        def recording(a0, b0, a1, b1, mod=0):
            sizes.append(max(map(int.bit_length, (a0, b0, a1, b1))))
            return plan(a0, b0, a1, b1, mod)

        monkeypatch.setattr(eng, "_plan", recording)
        x0, x1 = points[0].reduced_pair()
        eng._arch_value(x0, x1, n)
        drop = min(40, (phi.degree**n).bit_length() - 1)
        want = [max(64, 64 + (n - k) * eng._amp_bits - drop)
                for k in range(1, n)]
        assert len(sizes) == n
        assert all(s < w for s, w in zip(sizes[1:uncut], want))
        assert sizes[uncut:] == want[uncut - 1:]

    @pytest.mark.parametrize("name", catalog_names() + ["big"])
    def test_every_shift_keeps_the_certified_bits(self, monkeypatch, name):
        # the schedule the heights docstring certifies: step k of n that
        # shifts leaves its pair at exactly bits_k = max(64, 64 + (n - k)
        # amp - drop) bits, and a step that does not shift passes its
        # pair on whole.  The kernel sees each step's pair before and
        # after it; the last step's pair reaches pair_norm
        phi, points = _arch_case(name)
        eng = _engine(phi)
        plan, norm = eng._plan, heights.pair_norm
        steps, last = [], []

        def size(*xs):
            return max(x.bit_length() for x in xs)

        def recording(a0, b0, a1, b1, mod=0):
            out = plan(a0, b0, a1, b1, mod)
            steps.append((size(a0, b0, a1, b1), size(*out)))
            return out

        def last_pair(x, t):
            last.append(size(*x))
            return norm(x, t)

        monkeypatch.setattr(eng, "_plan", recording)
        monkeypatch.setattr(heights, "pair_norm", last_pair)
        shifted = 0
        for n in sorted({1, 7, 30,
                         eng._steps_needed(1, _ARCH_CAP, eng.c_bound, 1e-9)}):
            drop = min(40, (phi.degree**n).bit_length() - 1)
            for P in points:
                del steps[:], last[:]
                eng._arch_value(*P.reduced_pair(), n)
                assert len(steps) == n and len(last) == 2
                kept = [s for s, _ in steps[1:]] + [max(last)]
                for k, ((_, made), s) in enumerate(zip(steps, kept), 1):
                    bits = max(64, 64 + (n - k) * eng._amp_bits - drop)
                    if made > bits:
                        assert s == bits, (str(P), n, k)
                        shifted += 1
                    else:
                        assert s == made, (str(P), n, k)
        assert shifted > 0

    @pytest.mark.parametrize("name", catalog_names() + ["big"])
    def test_double_log_of_the_last_pair(self, monkeypatch, name):
        # on both sides of alpha^n = 2^13 the value is the Decimal path's
        # double (an exact log below, a double's from there on), and
        # _log_ratio's quotient, before it rounds, is within the restated
        # 2^-58.7 of the mpmath sum
        phi, points = _arch_case(name)
        eng = _engine(phi)
        low = 1
        while eng.alpha ** (low + 1) < 1 << 13:
            low += 1
        ratios = []

        def recording(*args):
            ratios.append(_log_ratio(*args))
            return ratios[-1]

        monkeypatch.setattr(heights, "_log_ratio", recording)
        for n in (low, low + 1):
            for P in points:
                x0, x1 = P.reduced_pair()
                by_ln, by_log = orbit_values(eng, x0, x1, n)
                taken = by_log if eng.alpha**n >= 1 << 13 else by_ln
                del ratios[:]
                got, _ = eng._arch_value(x0, x1, n)
                assert got == float(taken) == float(by_ln), (str(P), n)
                (num, den), = ratios
                want, _ = oracle_arch_sum(eng, x0, x1, n)
                with mpmath.workprec(256):
                    err = abs(mpmath.mpf(num) / den - want)
                assert err <= 2**-58.7, (str(P), n, float(err))

    def test_log_ratio_matches_the_decimal_epilogue(self):
        # a seeded sweep of last pairs: top < 3 * 2^128 of every size,
        # shifts of 0-3 and up to 2^80, and alpha^n from 2 to 5^13, every
        # power of two below 2^13 among them and crossing it, since
        # _log_ratio squares top below 2^13 and the epilogue took an
        # exact log there
        rng = random.Random("log-ratio")
        powers = sorted({a**n for a in range(2, 17) for n in range(1, 31)
                         if a**n <= 5**13})
        assert {1 << k for k in range(1, 14)} <= set(powers)
        cases = [(top, shift, 1 << k)
                 for k in range(1, 14)
                 for top in (1, 2, 3, (1 << 128) - 1, (3 << 128) - 1)
                 for shift in (0, 1, 2**80)]
        for _ in range(20_000):
            top = rng.randrange(1, 3 << rng.randint(0, 128))
            shift = (rng.randint(0, 3) if rng.random() < 0.5
                     else rng.randrange(1 << rng.randint(0, 80)))
            cases.append((top, shift, rng.choice(powers)))
        missed = []
        for top, shift, alpha_n in cases:
            num, den = _log_ratio(top, shift, alpha_n)
            if num / den != decimal_epilogue(top, shift, alpha_n):
                missed.append((top, shift, alpha_n))
        assert len(cases) > 20_000 and not missed, missed[:5]

    def test_caller_decimal_context_does_not_leak(self):
        phi = catalog("phi_1+i")
        P = ProjPoint(QF(3, 1, 1), QF(2, 0, 1), 1)
        want = canonical_height(phi, P, 1e-9)
        with decimal.localcontext() as ctx:
            ctx.prec, ctx.rounding = 5, decimal.ROUND_FLOOR
            ctx.traps[decimal.Inexact] = True
            assert canonical_height(phi, P, 1e-9) == want

    def test_log_two_is_within_one_unit(self):
        # more sizes than the cache holds, in an order that both hits
        # and evicts, and sizes that are no multiple of 64
        sizes = [64 * k for k in range(1, 21)] + [128, 64, 1280, 3, 73, 64]
        _ln2_fixed.cache_clear()
        for p in sizes:
            got = _ln2_fixed(p)
            with mpmath.workprec(p + 64):
                assert abs(got - mpmath.ldexp(mpmath.log(2), p)) <= 1, p
        info = _ln2_fixed.cache_info()
        assert info.hits == 2 and info.misses == len(sizes) - 2

    def test_tail_is_the_geometric_bound(self):
        eng = _engine(catalog("phi_3@E2"))
        for n in (1, 5, 40):
            _, tail = eng._arch_value(QF(2, 0, 3), QF(1, 0, 3), n)
            assert tail == eng.c_bound / (eng.alpha - 1) * (1 / eng.alpha**n)
