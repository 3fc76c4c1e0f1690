import copy
import math
import pickle
import random
from fractions import Fraction

import pytest

from p1dyn import ratmaps
from p1dyn.errors import DomainError, FieldMismatchError
from p1dyn.heights import (
    _bareiss,
    canonical_height,
    cofactor_certificate,
    height_constants,
)
from p1dyn.lattes import catalog, catalog_names
from p1dyn.quadfield import QuadFieldElement as QF
from p1dyn.ratmaps import (
    Poly,
    ProjPoint,
    RationalMap,
    _pseudo_divmod,
    poly_gcd,
)
from p1dyn.torus import preimage_multiplicities


def P(*coeffs, d=0):
    return Poly(coeffs, d)


def rmap(num, den, d=0):
    return RationalMap(Poly(num, d), Poly(den, d))


def critical_points_poly(phi: RationalMap) -> Poly:
    """Wronskian num'*den - num*den'; finite critical points are its roots."""
    return (
        phi.num.derivative() * phi.den - phi.num * phi.den.derivative()
    )


class TestPoly:
    def test_product(self):
        assert P(1, 1) * P(1, 1) == P(1, 2, 1)

    def test_pseudo_divmod_exact(self):
        # z^3 - 1 = (z^2 + z + 1)(z - 1), on basis pair vectors
        s, q, r = _pseudo_divmod(([-1, 0, 0, 1], [0] * 4), ([-1, 1], [0, 0]),
                                 0)
        assert (s, q, r) == (1, ([1, 1, 1], [0, 0, 0]), ([0], [0]))

    def test_pseudo_divmod_remainder(self):
        # z^2 + 1 = (z - 3)(z + 3) + 10
        s, q, r = _pseudo_divmod(([1, 0, 1], [0] * 3), ([3, 1], [0, 0]), 0)
        assert (s, q, r) == (1, ([-3, 1], [0, 0]), ([10], [0]))
        # a non-monic divisor scales by its leading coefficient, not by
        # its square: 4(z^2 + 1) = (2z - 3)(2z + 3) + 13
        s, q, r = _pseudo_divmod(([1, 0, 1], [0] * 3), ([3, 2], [0, 0]), 0)
        assert (s, q, r) == (4, ([-3, 2], [0, 0]), ([13], [0]))
        assert s * P(1, 0, 1) == P(*q[0]) * P(3, 2) + P(*r[0])
        # and by its absolute value: 4(z^2 + 1) = (-2z - 3)(-2z + 3) + 13
        s, q, r = _pseudo_divmod(([1, 0, 1], [0] * 3), ([3, -2], [0, 0]), 0)
        assert (s, q, r) == (4, ([-3, -2], [0, 0]), ([13], [0]))
        assert s * P(1, 0, 1) == P(*q[0]) * P(3, -2) + P(*r[0])

    def test_gcd(self):
        g = poly_gcd(P(-1, 0, 1), P(1, -2, 1))
        assert g == P(-1, 1)

    def test_eval(self):
        f = P(1, 0, 2)
        assert f(QF(3)) == QF(19)

    def test_trim_and_degree(self):
        assert P(1, 2, 0, 0).degree == 1
        assert P().degree == -1

    def test_string(self):
        assert str(P(1, -2, 0, 1)) == "z^3 - 2*z + 1"
        assert str(Poly([])) == "0"

    def test_from_strings(self):
        # a monic denominator leaves the numerator as written
        f = RationalMap.from_strings(["1/2", "-w"], ["1"], 1).num
        assert f.coeff(0) == QF(Fraction(1, 2), 0, 1)
        assert f.coeff(1) == QF(0, -1, 1)

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatchError):
            P(1, 1, d=1) + P(1, 1, d=3)


class TestProjPoint:
    def test_affine_equality_ignores_scale(self):
        assert ProjPoint(6, 4) == ProjPoint(3, 2)
        assert ProjPoint.affine(Fraction(3, 2)) == ProjPoint(3, 2)

    def test_infinity(self):
        assert ProjPoint.infinity().is_infinity()
        assert ProjPoint.infinity() == ProjPoint(5, 0)
        assert ProjPoint.infinity() != ProjPoint(0, 1)

    def test_value(self):
        assert ProjPoint(6, 4).value() == QF(Fraction(3, 2))
        with pytest.raises(DomainError):
            ProjPoint.infinity().value()

    def test_zero_zero_rejected(self):
        with pytest.raises(DomainError):
            ProjPoint(0, 0)

    def test_string(self):
        # the coordinates as given, not reduced
        p = ProjPoint(QF(Fraction(1, 2), -1, 1), QF(3, 0, 1))
        assert str(p) == "(1/2-w : 3)"
        assert repr(p) == "ProjPoint(1/2-w : 3)"
        assert str(ProjPoint(6, 4)) == "(6 : 4)"
        assert str(ProjPoint.infinity()) == "(1 : 0)"
        assert repr(ProjPoint.infinity()) == "ProjPoint(1 : 0)"

    def test_reduced_pair_rational(self):
        assert ProjPoint(6, 4).reduced_pair() == (QF(3), QF(2))
        assert ProjPoint(Fraction(1, 2), 3).reduced_pair() == (QF(1), QF(6))

    def test_reduced_pair_gaussian(self):
        p = ProjPoint(QF(1, 1, 1), QF(2, 0, 1))
        assert p.reduced_pair() == (QF(0, 1, 1), QF(1, 1, 1))

    def test_hash_consistent(self):
        assert hash(ProjPoint(6, 4)) == hash(ProjPoint(3, 2))
        assert len({ProjPoint(6, 4), ProjPoint(3, 2), ProjPoint(1, 1)}) == 2

    @pytest.mark.parametrize("name, d", [("pow_2", 0), ("phi_1+i", 1),
                                         ("phi_1+i", 0), ("phi_sqrt-3", 3)])
    def test_one_reduction_per_point(self, monkeypatch, name, d):
        # a point is reduced on first use and never again, however often
        # it is compared, hashed or measured; the map's engine is built
        # first, as its integral model takes gcds of its own
        phi = catalog(name)
        height_constants(phi)
        calls = []
        gcd = ratmaps.pair_gcd
        monkeypatch.setattr(ratmaps, "pair_gcd",
                            lambda *a: calls.append(a) or gcd(*a))
        half = QF(Fraction(1, 2), Fraction(3, 2) if d else 0, d)
        P = ProjPoint(half * 6, QF(-4, 2 if d else 0, d), d)
        Q = ProjPoint(P.x0 * half, P.x1 * half, d)
        assert P.reduced_pair() is P.reduced_pair()
        assert len(calls) == 1
        assert P == Q and hash(P) == hash(Q) and len({P, Q}) == 1
        assert len(calls) == 2
        for tol in (1e-9, 1e-9, 1e-4):
            canonical_height(phi, P, tol)
            canonical_height(phi, Q, tol)
        assert P != ProjPoint.infinity(d) and Q in {P}
        assert len(calls) == 3
        assert (P.x0, P.x1) == (half * 6, QF(-4, 2 if d else 0, d))

    @pytest.mark.parametrize("d", [0, 1, 3])
    def test_scaled_representatives_agree(self, d):
        # == and hash agree on every representative: the same point
        # scaled by a unit and an element with a denominator, and
        # different points by the cross-multiplication oracle
        rng = random.Random(f"scaled:{d}")
        unit = {0: QF(-1), 1: QF(0, 1, 1),
                3: QF(Fraction(1, 2), Fraction(1, 2), 3)}[d]

        def elem(size, den=3):
            return QF(Fraction(rng.randint(-size, size), rng.randint(1, den)),
                      Fraction(rng.randint(-size, size), rng.randint(1, den))
                      if d else 0, d)

        def point():
            while True:
                x0, x1 = elem(1, 2), elem(1, 2)
                if x0 or x1:
                    return ProjPoint(x0, x1, d)

        equal = 0
        for _ in range(300):
            P, R = point(), point()
            c = QF(0, 0, d)
            while not c:
                c = elem(10**20)
            c = c * unit ** rng.randrange(6)
            Q = ProjPoint(c * P.x0, c * P.x1, d)
            assert P == Q and hash(P) == hash(Q)
            assert P.reduced_pair() == Q.reduced_pair()
            same = (P.x0 * R.x1 - R.x0 * P.x1).is_zero()
            assert (P == R) == same == (R == Q)
            if same:
                equal += 1
                assert hash(P) == hash(R)
            x0, x1 = P.reduced_pair()
            assert x0.is_integral() and x1.is_integral()
            if d == 0:
                # the same pair over another field is another point
                assert P != ProjPoint(QF(P.x0.a, 0, 1), QF(P.x1.a, 0, 1), 1)
        assert equal >= 5


class TestRationalMap:
    def test_normalization(self):
        f = rmap([2, 0, 2], [0, 2])
        assert f.num == P(1, 0, 1)
        assert f.den == P(0, 1)
        assert rmap([2, 0, 2], [0, 2]) == rmap([1, 0, 1], [0, 1])

    def test_common_factor_cancelled(self):
        # (z^2 - 1)/(z - 1) is the degree-1 map z + 1
        f = rmap([-1, 0, 1], [-1, 1])
        assert f.degree == 1
        assert f.num == P(1, 1)

    def test_evaluation(self):
        sq = rmap([0, 0, 1], [1])
        assert sq(ProjPoint.affine(QF(3))) == ProjPoint.affine(QF(9))
        assert sq(ProjPoint.infinity()).is_infinity()
        inv = rmap([1], [0, 1])
        assert inv(ProjPoint.affine(QF(0))).is_infinity()
        assert inv(ProjPoint.infinity()) == ProjPoint.affine(QF(0))

    def test_compose_power_maps(self):
        sq = rmap([0, 0, 1], [1])
        cube = rmap([0, 0, 0, 1], [1])
        assert sq.compose(cube) == rmap([0, 0, 0, 0, 0, 0, 1], [1])
        assert sq.commutes_with(cube)

    def test_compose_hand_checked(self):
        # f = (z^2+1)/(2z); f(f(z)) = (z^4+6z^2+1)/(4z^3+4z)
        f = rmap([1, 0, 1], [0, 2])
        ff = f.compose(f)
        assert ff == rmap([1, 0, 6, 0, 1], [0, 4, 0, 4])

    def test_noncommuting_pair(self):
        f = rmap([1, 0, 1], [1])  # z^2 + 1
        g = rmap([0, 0, 1], [1])  # z^2
        assert f.compose(g) == rmap([1, 0, 0, 0, 1], [1])
        assert g.compose(f) == rmap([1, 0, 2, 0, 1], [1])
        assert not f.commutes_with(g)

    def test_iterate(self):
        sq = rmap([0, 0, 1], [1])
        p = ProjPoint.affine(QF(2))
        for _ in range(3):
            p = sq(p)
        assert p == ProjPoint.affine(QF(256))

    def test_integral_model(self):
        f = rmap(
            [QF(0, 0, 1), QF(0, 0, 1), QF(Fraction(1, 2), Fraction(1, 2), 1)],
            [QF(2, 0, 1)],
            d=1,
        )
        c0, c1 = ([QF.from_basis_pair(u, v, 1) for u, v in cs]
                  for cs in f.integral_model())
        assert len(c0) == len(c1) == f.degree + 1
        # the map is (1+i)/4 z^2 over 1: cleared, (1+i) z^2 and 4, whose
        # content 1 + i leaves z^2 and 2 - 2i
        assert c0 == [QF(0, 0, 1), QF(0, 0, 1), QF(1, 0, 1)]
        assert c1 == [QF(2, -2, 1), QF(0, 0, 1), QF(0, 0, 1)]
        # same map after clearing: cross-check one evaluation
        z = QF(3, 1, 1)
        lhs = f(ProjPoint.affine(z))
        num_v = sum(c0[k] * z**k for k in range(len(c0)))
        den_v = sum(c1[k] * z**k for k in range(len(c1)))
        assert ProjPoint(num_v, den_v) == lhs

    def test_zero_over_zero_rejected(self):
        with pytest.raises(DomainError):
            rmap([0], [0])

    def test_zero_over_z_is_the_constant_zero(self):
        f = rmap([0], [0, 1])
        assert f.degree == 0
        assert f == rmap([0], [1]) == rmap([0], [3, 0, 2])
        for p in (ProjPoint(0, 1), ProjPoint.infinity(), ProjPoint(5, 2)):
            assert f(p) == ProjPoint.affine(QF(0))

    def test_z_over_zero_is_the_constant_infinity(self):
        f = rmap([0, 1], [0])
        assert f.degree == 0
        assert f == rmap([1], [0]) == rmap([0, 0, 7], [0])
        for p in (ProjPoint(0, 1), ProjPoint.infinity(), ProjPoint(5, 2)):
            assert f(p).is_infinity()

    def test_constant_maps_compose(self):
        zero, sq = rmap([0], [0, 1]), rmap([0, 0, 1], [1])
        assert zero.compose(sq) == sq.compose(zero) == rmap([0], [1])
        assert rmap([0, 1], [0]).compose(zero) == rmap([1], [0])

    def test_str(self):
        assert str(rmap([0, 0, 1], [1])) == "z^2"
        assert str(rmap([1, 0, 1], [0, 2])) == "(1/2*z^2 + 1/2) / (z)"


def _shared_factor_map():
    """z/z^2 built past the gcd, as only _from_coprime's callers could."""
    return RationalMap._from_coprime(([0, 1], [0, 0]), ([0, 0, 1], [0, 0, 0]),
                                     0)


class TestRefusedInputs:
    def test_coefficient_from_another_field(self):
        with pytest.raises(FieldMismatchError, match="lives in d=1"):
            Poly([QF(1, 1, 1)], 0)

    def test_zero_polynomial_has_no_leading_coefficient(self):
        with pytest.raises(DomainError, match="no leading coefficient"):
            P(0).leading()

    def test_negative_power(self):
        with pytest.raises(DomainError, match="negative polynomial power"):
            P(1, 1) ** -1

    def test_infinity_has_no_complex_value(self):
        with pytest.raises(DomainError, match="no complex value"):
            complex(ProjPoint.infinity())

    def test_forms_from_two_fields(self):
        with pytest.raises(FieldMismatchError, match="field mismatch"):
            RationalMap(P(1), P(1, d=1))

    def test_degree_collapse_guard(self):
        # the outer forms z, z^2 share the root 0, where 1/z sends the
        # leading coefficients: the composite z/1 drops a degree
        with pytest.raises(DomainError, match="degree collapsed"):
            _shared_factor_map().compose(rmap([1], [0, 1]))

    def test_fiber_refusals(self):
        sq = rmap([0, 0, 1], [1])
        with pytest.raises(FieldMismatchError, match="different field"):
            preimage_multiplicities(sq, ProjPoint(1, 1, 1))
        with pytest.raises(DomainError, match="constant maps"):
            preimage_multiplicities(rmap([2], [1]), ProjPoint(1, 1))
        # z/z, built past the gcd, is the constant 1 off z = 0, so the
        # fiber polynomial over 1 is z - z = 0
        collapsed = RationalMap._from_coprime(([0, 1], [0, 0]),
                                              ([0, 1], [0, 0]), 0)
        with pytest.raises(DomainError, match="constant value"):
            preimage_multiplicities(collapsed, ProjPoint(1, 1))

    def test_certificate_refusals(self):
        one = (1, 0)
        with pytest.raises(DomainError, match="length deg"):
            cofactor_certificate([one, one], [one], 1, 0)
        with pytest.raises(DomainError, match="degree >= 1"):
            cofactor_certificate([one], [one], 0, 0)


_HUGE = RationalMap.from_strings(["1", "0", str(10**200)], ["0", "1"], 0)


def _seeded_point(d: int, seed: int) -> ProjPoint:
    rng = random.Random(seed)
    x0 = QF(rng.randint(-9, 9), rng.randint(-9, 9) if d else 0, d)
    return ProjPoint(x0, QF(rng.randint(1, 9), 0, d), d)


class TestCopies:
    """An evaluated or composed map pickles and deep-copies to an equal
    map, with none of its compiled kernel."""

    @pytest.mark.parametrize("name", [*catalog_names(), "huge"])
    def test_round_trips(self, name):
        phi = _HUGE if name == "huge" else catalog(name)
        P = _seeded_point(phi.d, 7)
        for step in ("evaluated", "composed"):
            if step == "evaluated":
                image = phi(P)
                maps = [phi]
            else:
                comp = phi.compose(phi)
                maps = [phi, comp]
            assert phi._kernel is not None
            for f in maps:
                for g in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
                    assert g == f and hash(g) == hash(f)
                    assert g._kernel is None
                    assert g(P) == f(P)
            assert phi(P) == image
        assert comp(P) == phi(phi(P))


class TestFibers:
    def test_square_map_fibers(self):
        sq = rmap([0, 0, 1], [1])
        assert preimage_multiplicities(sq, ProjPoint.affine(QF(0))) == [2]
        assert preimage_multiplicities(sq, ProjPoint.affine(QF(1))) == [1, 1]
        assert preimage_multiplicities(sq, ProjPoint.infinity()) == [2]
        assert len(preimage_multiplicities(sq, ProjPoint.affine(QF(4)))) == 2
        assert len(preimage_multiplicities(sq, ProjPoint.infinity())) == 1

    def test_joukowski_fibers(self):
        # z + 1/z ramifies over 2 and -2, and splits infinity
        f = rmap([1, 0, 1], [0, 1])
        assert preimage_multiplicities(f, ProjPoint.affine(QF(2))) == [2]
        assert preimage_multiplicities(f, ProjPoint.affine(QF(-2))) == [2]
        assert preimage_multiplicities(f, ProjPoint.affine(QF(0))) == [1, 1]
        assert preimage_multiplicities(f, ProjPoint.infinity()) == [1, 1]

    def test_cubic_fiber_mixed(self):
        # z^3 - 3z has a double point and a simple point over 2
        f = rmap([0, -3, 0, 1], [1])
        assert preimage_multiplicities(f, ProjPoint.affine(QF(2))) == [2, 1]
        assert len(preimage_multiplicities(f, ProjPoint.affine(QF(2)))) == 2

    def test_total_multiplicity_is_degree(self):
        f = rmap([1, 0, 6, 0, 1], [0, 4, 0, 4])
        for t in (
            ProjPoint.affine(QF(0)),
            ProjPoint.affine(QF(1)),
            ProjPoint.affine(QF(7)),
            ProjPoint.infinity(),
        ):
            assert sum(preimage_multiplicities(f, t)) == f.degree

    def test_critical_points(self):
        f = rmap([1, 0, 1], [0, 1])
        w = critical_points_poly(f)
        assert poly_gcd(w, w) == P(-1, 0, 1)


def ints(*coeffs) -> list:
    """Rational integers as basis pairs, the forms _bareiss takes."""
    return [(c, 0) for c in coeffs]


class TestResultant:
    def test_power_pair(self):
        r = _bareiss(ints(0, 0, 1), ints(1, 0, 0), 2, 0)[0]
        assert r == (1, 0)

    def test_linear_forms(self):
        # res(z - a, z - b) = a - b up to the fixed sign convention
        r = _bareiss(ints(-2, 1), ints(-5, 1), 1, 0)[0]
        assert r in ((-3, 0), (3, 0))

    def test_quadratic_pair(self):
        r = _bareiss(ints(1, 0, 1), ints(-1, 0, 1), 2, 0)[0]
        assert r == (4, 0)

    def test_shared_root_vanishes(self):
        r = _bareiss(ints(-1, 0, 1), ints(-1, 1, 0), 2, 0)[0]
        assert r == (0, 0)

    def test_cofactor_certificate_power_map(self):
        R, log_s = cofactor_certificate(ints(0, 0, 1), ints(1, 0, 0), 2, 0)
        assert R == (1, 0)
        assert log_s == pytest.approx(0.0, abs=1e-12)

    def test_cofactor_certificate_shared_root(self):
        with pytest.raises(DomainError):
            cofactor_certificate(ints(-1, 0, 1), ints(-1, 1, 0), 2, 0)

    def test_cofactor_identity_holds(self):
        # reconstruct A0*F0 + A1*F1 for a non-trivial pair and check the
        # certified inequality at a sample of unit-box points
        c0 = [1, 2, 3]
        c1 = [-1, 0, 1]
        R, log_s = cofactor_certificate(ints(*c0), ints(*c1), 2, 0)

        def at(cs, z):
            return sum(c * z**k for k, c in enumerate(cs))

        Rc = abs(R[0])
        for z in (0.3 + 0.4j, -0.9j, 1.0, 0.99 - 0.1j):
            v = max(abs(at(c0, z)), abs(at(c1, z)))
            assert v >= Rc / math.exp(log_s) * max(abs(z), 1.0) ** 2 * 0.999999
