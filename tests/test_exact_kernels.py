"""Integer kernels of the exact core against slow Fraction oracles.

integral_gcd, normalize_unit, divmod_integral and ProjPoint.reduced_pair
run on integral basis pairs, Poly multiplication on integer coordinate
vectors, and compose, scalar_multiple and embed skip poly_gcd.  The
oracles below are the Fraction versions: Euclid through exact field
division with nearest rounding (ties toward +infinity), a search of the
unit group for the canonical associate, the schoolbook product of field
elements, and the full gcd constructor RationalMap(num, den).
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from p1dyn.errors import DomainError
from p1dyn.lattes import catalog, catalog_names
from p1dyn.quadfield import (
    QuadFieldElement as QF,
    divmod_integral,
    integral_gcd,
    normalize_unit,
)
from p1dyn.ratmaps import Poly, ProjPoint, RationalMap

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
