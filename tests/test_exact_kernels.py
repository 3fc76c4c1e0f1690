"""Integer kernels of the exact core against slow Fraction oracles.

integral_gcd, normalize_unit, divmod_integral, ProjPoint.reduced_pair,
cleared_pairs and integral_model run on integral basis pairs; Poly
multiplication, division, poly_gcd and preimage_multiplicities on integer
coordinate vectors; compose, scalar_multiple and embed skip poly_gcd, and
the resultant and the Bezout certificate share one fraction-free
elimination.  The oracles below are the Fraction versions: Euclid through
exact field division with nearest rounding (ties toward +infinity), a
search of the unit group for the canonical associate, the schoolbook
product of field elements, long division of polynomials over the field,
its Euclidean remainder sequence, Yun's square-free split, the full gcd
constructor RationalMap(num, den), and Gaussian elimination over the field
for the Sylvester determinant and the cofactor systems.
"""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from p1dyn.errors import DomainError
from p1dyn.lattes import (
    catalog,
    catalog_entry,
    catalog_names,
    curve_for_name,
    two_torsion_targets,
)
from p1dyn.quadfield import (
    QuadFieldElement as QF,
    cleared_pairs,
    divmod_integral,
    integral_gcd,
    normalize_unit,
)
from p1dyn.ratmaps import (
    Poly,
    ProjPoint,
    RationalMap,
    _bareiss,
    cofactor_certificate,
    homogeneous_resultant,
    log_one_norm,
    poly_gcd,
    preimage_multiplicities,
)

# --------------------------------------------------------------------------
# Fraction oracles
# --------------------------------------------------------------------------


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
    den = 1
    for x in elements:
        for c in x.basis_pair():
            den = math.lcm(den, Fraction(c).denominator)
    return [(x * den).basis_pair() for x in elements], den


def oracle_integral_model(phi: RationalMap) -> tuple:
    _, den = oracle_cleared_pairs(list(phi.num.coeffs + phi.den.coeffs))
    c0 = [phi.num.coeff(k) * den for k in range(phi.degree + 1)]
    c1 = [phi.den.coeff(k) * den for k in range(phi.degree + 1)]
    nz = [x for x in c0 + c1 if not x.is_zero()]
    g = nz[0]
    for x in nz[1:]:
        g = oracle_gcd(g, x)
    g = oracle_normalize(g)
    return [x / g for x in c0], [x / g for x in c1]


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
    return a.monic()


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


def oracle_compose(outer: RationalMap, inner: RationalMap) -> RationalMap:
    d, m = outer.d, outer.degree
    num, den = Poly([], d), Poly([], d)
    for k in range(m + 1):
        cross = schoolbook(inner.num ** k, inner.den ** (m - k))
        num = num + outer.num.coeff(k) * cross
        den = den + outer.den.coeff(k) * cross
    return RationalMap(num, den)


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
# gcd, unit normalization, division, reduced pairs
# --------------------------------------------------------------------------


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
        x = data.draw(st.one_of(integers_of(d), rationals_of(d)))
        assert normalize_unit(x) == oracle_normalize(x)

    @settings(max_examples=60, deadline=None)
    @given(d=FIELDS, data=st.data())
    def test_divmod_matches_fraction_rounding(self, d, data):
        x = data.draw(integers_of(d))
        y = data.draw(integers_of(d).filter(lambda e: not e.is_zero()))
        assert divmod_integral(x, y) == oracle_divmod(x, y)

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
        q, r = divmod_integral(x, y)
        assert (q, r) == oracle_divmod(x, y)
        # ties go toward +infinity: q = k + h in basis coordinates
        assert q == k + QF.from_basis_pair(*half, d)
        assert integral_gcd(x, y) == oracle_gcd(x, y)

    def test_eisenstein_tie_examples(self):
        omega = QF.from_basis_pair(0, 1, 3)
        # (1 + omega)/2 rounds both coordinates up
        q, r = divmod_integral(1 + omega, QF(2, 0, 3))
        assert q == 1 + omega and r == -1 - omega
        # -1/2 rounds to 0, not -1
        q, r = divmod_integral(QF(-1, 0, 3), QF(2, 0, 3))
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
        xs = data.draw(st.lists(kernel_coeffs(d), max_size=6))
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


# --------------------------------------------------------------------------
# Poly division, gcd and fiber multiplicities
# --------------------------------------------------------------------------


class TestPolyDivision:
    @settings(max_examples=80, deadline=None)
    @given(d=FIELDS, data=st.data())
    def test_divmod_matches_fraction_loop(self, d, data):
        f = data.draw(kernel_polys(d, lengths=(0, 1, 2, 4, 7, 12)))
        g = data.draw(kernel_polys(d).filter(lambda p: not p.is_zero()))
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.degree < g.degree
        assert (q, r) == oracle_poly_divmod(f, g)
        assert f // g == q

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod(Poly([1, 2], 1), Poly([], 1))

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
        assert poly_gcd(f, Poly([], 3)) == f.monic()
        assert poly_gcd(Poly([], 3), f) == f.monic()
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
        assert comp == oracle_compose(f, g)
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
                assert comp == oracle_compose(outer, inner)
                assert comp.degree == 0
        for a in consts.values():
            for b in consts.values():
                assert a.compose(b) == oracle_compose(a, b)
        # phi(infinity) and infinity as the value of a constant map
        assert phi.compose(consts["inf"]) == RationalMap(
            Poly([phi(ProjPoint.infinity(phi.d)).x0], phi.d),
            Poly([phi(ProjPoint.infinity(phi.d)).x1], phi.d),
        )
        assert consts["inf"].compose(phi) == consts["inf"]

    @pytest.mark.parametrize("name", catalog_names())
    def test_scalar_multiple_and_embed(self, name):
        phi = catalog(name)
        s = QF(Fraction(-3, 2), Fraction(1, 5) if phi.d else 0, phi.d)
        assert phi.scalar_multiple(s) == RationalMap(s * phi.num, phi.den)
        if phi.d == 0:
            for d in (1, 3):
                assert phi.embed(d) == RationalMap(
                    phi.num.embed(d), phi.den.embed(d)
                )


# --------------------------------------------------------------------------
# Resultant and Bezout certificate
# --------------------------------------------------------------------------

DEGREES = st.integers(1, 7)


def _same_up_to_sign(xs: list, ys: list) -> bool:
    return xs == ys or xs == [-y for y in ys]


def _check_certificate(c0: list, c1: list, deg: int) -> None:
    """The kernel's R and solutions against the oracle's, and log S."""
    d = c0[0].d
    R, sols = oracle_certificate(c0, c1, deg)
    R_k, den, pairs = _bareiss(c0, c1, deg)
    assert R_k == R
    # the cleared matrix scales every solution by den^(2deg-1)
    scale = den ** (2 * deg - 1)
    for sol, ys in zip(sols, pairs):
        mine = [QF.from_basis_pair(u, v, d) / scale for u, v in ys]
        assert _same_up_to_sign(mine, sol)
    log_s = max(
        log_one_norm([int(x.norm() * scale**2) for x in sol]) for sol in sols
    ) - (2 * deg - 1) * math.log(den)
    assert cofactor_certificate(c0, c1, deg) == (R, log_s)


class TestResultantKernel:
    @settings(max_examples=40, deadline=None)
    @given(d=FIELDS, deg=DEGREES, data=st.data())
    def test_resultant_matches_sylvester_oracle(self, d, deg, data):
        c0 = data.draw(forms_of(d, deg + 1))
        c1 = data.draw(forms_of(d, deg + 1))
        assert homogeneous_resultant(c0, c1, deg) == oracle_resultant(
            c0, c1, deg
        )

    @settings(max_examples=25, deadline=None)
    @given(d=FIELDS, deg=DEGREES, data=st.data())
    def test_fraction_inputs(self, d, deg, data):
        c0 = data.draw(forms_of(d, deg + 1, integral=False))
        c1 = data.draw(forms_of(d, deg + 1, integral=False))
        R = oracle_resultant(c0, c1, deg)
        assert homogeneous_resultant(c0, c1, deg) == R
        if not R.is_zero():
            _check_certificate(c0, c1, deg)

    @settings(max_examples=40, deadline=None)
    @given(d=FIELDS, deg=DEGREES, data=st.data())
    def test_certificate_matches_oracle(self, d, deg, data):
        c0 = data.draw(forms_of(d, deg + 1))
        c1 = data.draw(forms_of(d, deg + 1))
        if oracle_resultant(c0, c1, deg).is_zero():
            with pytest.raises(DomainError):
                cofactor_certificate(c0, c1, deg)
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
        assert homogeneous_resultant(c0, c1, deg).is_zero()
        with pytest.raises(DomainError):
            cofactor_certificate(c0, c1, deg)

    @pytest.mark.parametrize("name", catalog_names())
    def test_catalog_integral_models(self, name):
        phi = catalog(name)
        _check_certificate(*phi.integral_model(), phi.degree)


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
