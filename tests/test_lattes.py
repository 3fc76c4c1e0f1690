from fractions import Fraction

import pytest

from p1dyn.errors import DomainError, MapSpecError
from p1dyn.lattes import (
    EllipticCurveCM,
    catalog,
    catalog_entry,
    catalog_names,
    curve_E1,
    curve_E2,
    curve_for_name,
    lattes_double,
    lattes_triple,
    map_for_multiplier,
    predict_profile,
    ramification_profile,
    two_torsion_targets,
)
from p1dyn.quadfield import QuadFieldElement as QF
from p1dyn.ratmaps import Poly, ProjPoint, RationalMap, preimage_multiplicities


OMEGA = QF(Fraction(-1, 2), Fraction(1, 2), 3)  # primitive cube root of 1
RHO6 = QF(Fraction(1, 2), Fraction(1, 2), 3)  # primitive sixth root


class TestDoubling:
    def test_square_lattice_formula(self):
        expect = RationalMap(Poly([1, 0, -2, 0, 1], 1), Poly([0, 4, 0, 4], 1))
        assert lattes_double(curve_E1()) == expect

    def test_hexagonal_lattice_formula(self):
        expect = RationalMap(Poly([0, -8, 0, 0, 1], 3), Poly([4, 0, 0, 4], 3))
        assert lattes_double(curve_E2()) == expect

    def test_degree(self):
        assert lattes_double(curve_E1()).degree == 4
        assert lattes_double(curve_E2()).degree == 4

    def test_doubling_agrees_with_group_law(self):
        # P = (2, sqrt(10)) on y^2 = x^3 + x: x(2P) = 9/40
        dbl = lattes_double(curve_E1())
        assert dbl.eval_affine(QF(2, 0, 1)).value() == QF(Fraction(9, 40), 0, 1)


class TestTripling:
    def test_tripling_agrees_with_group_law(self):
        # chord-and-tangent on y^2 = x^3 + x from P = (2, sqrt(10)):
        # x(2P) = 9/40, then x(2P + P) = 242/5041, worked out by hand
        tri = lattes_triple(curve_E1())
        assert tri.eval_affine(QF(2, 0, 1)).value() == QF(
            Fraction(242, 5041), 0, 1
        )

    def test_degree(self):
        assert lattes_triple(curve_E1()).degree == 9
        assert lattes_triple(curve_E2()).degree == 9

    def test_square_lattice_coefficients(self):
        tri = lattes_triple(curve_E1())
        assert tri == RationalMap(
            Poly([0, 9, 0, 36, 0, 30, 0, -12, 0, 1], 1),
            Poly([1, 0, -12, 0, 30, 0, 36, 0, 9], 1),
        )

    def test_hexagonal_lattice_coefficients(self):
        tri = lattes_triple(curve_E2())
        num = Poly([64, 0, 0, 48, 0, 0, -96, 0, 0, 1], 3)
        den = Poly([0, 0, 9], 3) * Poly([4, 0, 0, 1], 3) ** 2
        assert tri == RationalMap(num, den)

    def test_rejects_non_depressed_cubic(self):
        curve = EllipticCurveCM(Poly([1, 0, 1, 1], 1), 1)
        with pytest.raises(DomainError):
            lattes_triple(curve)


class TestCurveValidation:
    def test_singular_curve_rejected(self):
        with pytest.raises(DomainError):
            EllipticCurveCM(Poly([0, 0, 0, 1], 1), 1)

    def test_non_monic_rejected(self):
        with pytest.raises(DomainError):
            EllipticCurveCM(Poly([1, 0, 0, 2], 1), 1)

    def test_quadratic_rejected(self):
        with pytest.raises(DomainError):
            EllipticCurveCM(Poly([1, 0, 1], 1), 1)


class TestCatalog:
    def test_names_are_stable(self):
        assert catalog_names() == sorted(
            [
                "phi_1+i",
                "phi_1-i",
                "phi_1+2i",
                "phi_1-2i",
                "phi_2+i",
                "phi_2-i",
                "phi_2@E1",
                "phi_3@E1",
                "phi_2@E2",
                "phi_3@E2",
                "phi_sqrt-3",
                "phi_sqrt-3*rho",
                "phi_eps",
                "pow_2",
                "pow_3",
                "pow_4",
            ]
        )

    def test_unknown_name(self):
        with pytest.raises(MapSpecError) as err:
            catalog("phi_7")
        assert "phi_sqrt-3" in str(err.value)

    def test_degree_equals_norm(self):
        for name in catalog_names():
            entry = catalog_entry(name)
            if entry.lam is None:
                continue
            assert entry.map.degree == int(entry.lam.norm()), name

    def test_degree_two_pair_frozen(self):
        # (1/(1+i)^2) (z^2+1)/z = -i/2 (z^2+1)/z
        half_mi = QF(0, Fraction(-1, 2), 1)
        expect = RationalMap(
            half_mi * Poly([1, 0, 1], 1), Poly([0, 1], 1)
        )
        assert catalog("phi_1+i") == expect
        assert catalog("phi_1-i") == RationalMap(
            -half_mi * Poly([1, 0, 1], 1), Poly([0, 1], 1)
        )

    def test_degree_five_frozen(self):
        num = Poly([0, 25, 0, QF(10, -20, 1), 0, QF(-3, -4, 1)], 1)
        den = Poly([QF(-3, -4, 1), 0, QF(10, -20, 1), 0, 25], 1)
        assert catalog("phi_1+2i") == RationalMap(num, den)

    def test_degree_three_frozen(self):
        expect = RationalMap(Poly([-4, 0, 0, -1], 3), Poly([0, 0, 3], 3))
        assert catalog("phi_sqrt-3") == expect
        assert catalog("phi_sqrt-3*rho") == RationalMap(
            -OMEGA * Poly([4, 0, 0, 1], 3), Poly([0, 0, 3], 3)
        )

    def test_power_maps(self):
        assert catalog("pow_2") == RationalMap(Poly([0, 0, 1], 0), Poly([1], 0))
        assert catalog("pow_3").degree == 3

    def test_curve_lookup(self):
        assert curve_for_name("phi_1+i").d == 1
        assert curve_for_name("phi_eps").d == 3
        with pytest.raises(DomainError):
            curve_for_name("pow_2")


class TestCompositionIdentities:
    def test_conjugate_pair_composes_to_doubling(self):
        f = catalog("phi_1+i")
        g = catalog("phi_1-i")
        dbl = lattes_double(curve_E1())
        assert f.compose(g) == dbl
        assert g.compose(f) == dbl

    def test_sqrt3_squares_to_tripling(self):
        f = catalog("phi_sqrt-3")
        assert f.compose(f) == lattes_triple(curve_E2())

    def test_eps_is_the_composition(self):
        f = catalog("phi_sqrt-3")
        g = catalog("phi_sqrt-3*rho")
        assert f.compose(g) == catalog("phi_eps")
        assert g.compose(f) == catalog("phi_eps")

    def test_eps_is_omega_times_tripling(self):
        tri = lattes_triple(curve_E2())
        assert catalog("phi_eps") == tri.scalar_multiple(OMEGA)

    def test_degree_five_products(self):
        f = catalog("phi_1+2i")
        g = catalog("phi_1-2i")
        prod = f.compose(g)
        assert prod.degree == 25
        assert prod == g.compose(f)

    def test_commuting_family_on_E1(self):
        names = ["phi_1+i", "phi_2@E1", "phi_1+2i", "phi_3@E1", "phi_2-i"]
        maps = [catalog(n) for n in names]
        for i, f in enumerate(maps):
            for g in maps[i + 1 :]:
                assert f.commutes_with(g)

    def test_commuting_family_on_E2(self):
        names = ["phi_sqrt-3", "phi_sqrt-3*rho", "phi_2@E2", "phi_eps"]
        maps = [catalog(n) for n in names]
        for i, f in enumerate(maps):
            for g in maps[i + 1 :]:
                assert f.commutes_with(g)


class TestTwoTorsion:
    def test_square_lattice_targets(self):
        targets = two_torsion_targets(curve_E1())
        assert targets[0].is_infinity()
        finite = [t.value() for t in targets[1:]]
        assert finite == [QF(0, -1, 1), QF(0, 0, 1), QF(0, 1, 1)]

    def test_hexagonal_lattice_targets(self):
        targets = two_torsion_targets(curve_E2())
        assert targets[0].is_infinity()
        finite = [t.value() for t in targets[1:]]
        one_minus_rho = QF(Fraction(1, 2), Fraction(-1, 2), 3)
        assert finite == [QF(-1, 0, 3), one_minus_rho, RHO6]
        # every finite target is a root of z^3 + 1
        for x in finite:
            assert (x ** 3 + 1).is_zero()

    def test_unsplittable_curve_errors(self):
        curve = EllipticCurveCM(Poly([-2, 0, 0, 1], 1), 1)
        with pytest.raises(DomainError):
            two_torsion_targets(curve)


class TestProfiles:
    def test_doubling_profile(self):
        prof = ramification_profile(lattes_double(curve_E1()), curve_E1())
        assert prof.as_multiset() == (4, 2, 2, 2)

    def test_degree_two_profile(self):
        prof = ramification_profile(catalog("phi_1+i"), curve_E1())
        assert prof.as_multiset() == (2, 2, 1, 1)

    def test_degree_five_profile(self):
        prof = ramification_profile(catalog("phi_1+2i"), curve_E1())
        assert prof.as_multiset() == (3, 3, 3, 3)

    def test_tripling_profile(self):
        prof = ramification_profile(lattes_triple(curve_E1()), curve_E1())
        assert prof.as_multiset() == (5, 5, 5, 5)

    def test_sqrt3_profile(self):
        prof = ramification_profile(catalog("phi_sqrt-3"), curve_E2())
        assert prof.as_multiset() == (2, 2, 2, 2)

    def test_eps_profile(self):
        prof = ramification_profile(catalog("phi_eps"), curve_E2())
        assert prof.as_multiset() == (5, 5, 5, 5)

    def test_all_ramification_over_torsion_images(self):
        # sum of counts = 2 deg + 2 exactly when the critical locus sits
        # entirely above the four targets
        for name in catalog_names():
            entry = catalog_entry(name)
            if entry.curve_name is None:
                continue
            curve = curve_for_name(name)
            prof = ramification_profile(entry.map, curve)
            assert sum(prof.counts) == 2 * entry.map.degree + 2, name

    def test_degree_five_multiplicity_pattern(self):
        # every 2-torsion image of the degree-5 map pulls back as one
        # simple point plus two double points
        phi = catalog("phi_1+2i")
        for t in two_torsion_targets(curve_E1()):
            assert preimage_multiplicities(phi, t) == [2, 2, 1]


class TestPredictions:
    def test_odd_norm_rows(self):
        assert predict_profile(QF(3, 0, 1)).counts == (5, 5, 5, 5)
        assert predict_profile(QF(1, 2, 1)).counts == (3, 3, 3, 3)
        assert predict_profile(QF(0, 1, 3)).counts == (2, 2, 2, 2)

    def test_even_rows(self):
        assert predict_profile(QF(2, 0, 1)).counts == (4, 2, 2, 2)
        assert predict_profile(QF(2, 2, 1)).counts == (6, 4, 4, 4)
        assert predict_profile(QF(2, 0, 3)).counts == (4, 2, 2, 2)

    def test_split_even_rows(self):
        assert predict_profile(QF(1, 1, 1)).counts == (1, 2, 1, 2)
        assert predict_profile(QF(1, 3, 1)).counts == (5, 6, 5, 6)

    def test_half_coordinates_rejected(self):
        lam = QF(-3, 0, 3) * OMEGA
        with pytest.raises(DomainError) as err:
            predict_profile(lam)
        assert "basis pair" in str(err.value)

    def test_norm_too_small(self):
        with pytest.raises(DomainError):
            predict_profile(QF(1, 0, 1))

    def test_prediction_matches_computation(self):
        cases = [
            (QF(2, 0, 1), "phi_2@E1", curve_E1()),
            (QF(1, 2, 1), "phi_1+2i", curve_E1()),
            (QF(3, 0, 1), "phi_3@E1", curve_E1()),
            (QF(0, 1, 3), "phi_sqrt-3", curve_E2()),
        ]
        for lam, name, curve in cases:
            computed = ramification_profile(catalog(name), curve)
            predicted = predict_profile(lam)
            assert computed.as_multiset() == predicted.as_multiset(), name


class TestMultiplierLookup:
    def test_lookup(self):
        assert map_for_multiplier(QF(2, 0, 1)).name == "phi_2@E1"
        assert map_for_multiplier(QF(0, 1, 3)).name == "phi_sqrt-3"
        assert map_for_multiplier(QF(1, -2, 1)).name == "phi_1-2i"

    def test_unknown_multiplier(self):
        with pytest.raises(DomainError) as err:
            map_for_multiplier(QF(7, 0, 1))
        assert "known multipliers" in str(err.value)


class TestLattesEvaluation:
    def test_two_torsion_collapses_to_targets(self):
        # doubling sends each 2-torsion image to the image of the origin
        dbl = lattes_double(curve_E1())
        for t in two_torsion_targets(curve_E1()):
            assert dbl(t).is_infinity()

    def test_order_six_point_triples_to_two_torsion(self):
        # (2, 3) has order 6 on y^2 = x^3 + 1, so x(3P) is the 2-torsion
        # x-coordinate -1
        tri = lattes_triple(curve_E2())
        q = tri(ProjPoint.affine(QF(2, 0, 3)))
        assert q.value() == QF(-1, 0, 3)
