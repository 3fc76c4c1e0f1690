import copy
import json
import os
import pickle
import random
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from p1dyn import lattes, torus
from p1dyn.errors import DomainError, MapSpecError
from p1dyn.heights import HeightValue
from p1dyn.lattes import (
    CURVES,
    CatalogEntry,
    EllipticCurveCM,
    catalog,
    catalog_entry,
    catalog_names,
    curve_E1,
    curve_E2,
    curve_for_name,
    entry_for_map,
    lattes_double,
    lattes_triple,
    map_for_multiplier,
)
from p1dyn.quadfield import QuadFieldElement as QF, format_element
from p1dyn.ratmaps import Poly, ProjPoint, RationalMap, poly_gcd
from p1dyn.torus import (
    RamificationProfile,
    predict_profile,
    preimage_multiplicities,
    ramification_profile,
    two_torsion_targets,
)


OMEGA = QF(Fraction(-1, 2), Fraction(1, 2), 3)  # primitive cube root of 1
RHO6 = QF(Fraction(1, 2), Fraction(1, 2), 3)  # primitive sixth root


def parity_table_by_associate(lam: QF) -> tuple:
    """Oracle for predict_profile: the table on the coordinates a, b of
    lambda = a + b*sqrt(-d), an Eisenstein multiplier with half-integer
    coordinates read through its associate omega^k * lambda with integer
    ones.  Returns the counts, and raises DomainError where no row
    applies."""
    units = [QF.one(lam.d)]
    if lam.d == 3:
        units += [OMEGA, OMEGA * OMEGA]
    for u in units:
        cand = u * lam
        if cand.a.denominator == 1 and cand.b.denominator == 1:
            break
    else:
        raise DomainError("no associate with integer coordinates")
    n = int(lam.norm())
    if n < 2:
        raise DomainError("norm below 2")
    a, b, d = int(cand.a), int(cand.b), cand.d
    if (a + b * d) % 2 == 1:
        return ((n + 1) // 2,) * 4
    if a % 2 == 0 and b % 2 == 0 or d == 3:
        # lambda lies in 2 O_K; for d = 3 so does every a + b sqrt(-3)
        # with a = b mod 2, such as 2 omega = -1 + sqrt(-3)
        return (4, 2, 2, 2) if n == 4 else (n // 2 + 2,) + (n // 2,) * 3
    if a % 2 == 1 and (b * d) % 2 == 1:
        return (1, 2, 1, 2) if n == 2 else (n // 2, n // 2 + 1) * 2
    raise DomainError("no parity row")


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
        x2 = dbl(ProjPoint.affine(QF(2, 0, 1))).value()
        assert x2 == QF(Fraction(9, 40), 0, 1)


class TestTripling:
    def test_tripling_agrees_with_group_law(self):
        # chord-and-tangent on y^2 = x^3 + x from P = (2, sqrt(10)):
        # x(2P) = 9/40, then x(2P + P) = 242/5041, worked out by hand
        tri = lattes_triple(curve_E1())
        assert tri(ProjPoint.affine(QF(2, 0, 1))).value() == QF(
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


@pytest.mark.parametrize("name", ["E1", "E2"])
def test_multiplication_maps_are_cached_per_curve(name):
    # an equal curve built afresh finds the map of the first call, which
    # is the catalog's: neron_tate builds no map after the first call
    for build, k in ((lattes_double, 2), (lattes_triple, 3)):
        first = build(CURVES[name]())
        assert build(CURVES[name]()) is first
        assert first == catalog(f"phi_{k}@{name}")


class TestCurveValidation:
    @pytest.mark.parametrize("coeffs, d", [
        ([0, 0, 0, 1], 1),  # x^3
        # (x - i)^2 (x - 1)
        ([1, QF(-1, 2, 1), QF(-1, -2, 1), 1], 1),
        # (x - sqrt(-3))^2 (x + 2 sqrt(-3))
        ([QF(0, -6, 3), 9, 0, 1], 3),
    ], ids=["triple-root", "double-root-Q(i)", "double-root-Q(sqrt-3)"])
    def test_singular_curve_rejected(self, coeffs, d):
        G = Poly(coeffs, d)
        assert poly_gcd(G, G.derivative()).degree > 0
        with pytest.raises(DomainError, match="squarefree"):
            EllipticCurveCM(G, d)

    def test_discriminant_agrees_with_the_gcd(self):
        # the smoothness test against the gcd of G and G' on monic cubics
        # with small coefficients, a double or triple root among them
        rng = random.Random(5)
        for d in (1, 3):
            for _ in range(150):
                roots = [QF(rng.randint(-2, 2), rng.randint(-2, 2), d)
                         for _ in range(2)]
                if rng.random() < 0.5:
                    G = Poly([-roots[0], 1], d) ** 2 * Poly([-roots[1], 1], d)
                else:
                    G = Poly([QF(rng.randint(-3, 3), rng.randint(-3, 3), d)
                              for _ in range(3)] + [1], d)
                singular = poly_gcd(G, G.derivative()).degree > 0
                try:
                    EllipticCurveCM(G, d)
                except DomainError:
                    assert singular, G
                else:
                    assert not singular, G

    def test_non_monic_rejected(self):
        with pytest.raises(DomainError):
            EllipticCurveCM(Poly([1, 0, 0, 2], 1), 1)

    def test_quadratic_rejected(self):
        with pytest.raises(DomainError):
            EllipticCurveCM(Poly([1, 0, 1], 1), 1)

    def test_rational_field_rejected(self):
        with pytest.raises(DomainError, match="tags are 1 and 3"):
            EllipticCurveCM(Poly([1, 0, 0, 1], 0), 0)

    def test_curve_table(self):
        assert {n: f() for n, f in CURVES.items()} == {
            "E1": curve_E1(), "E2": curve_E2()}
        for name in catalog_names():
            entry = catalog_entry(name)
            if entry.curve_name is not None:
                assert curve_for_name(name) == CURVES[entry.curve_name]()

    def test_tag_outside_the_field_of_G_rejected(self):
        # y^2 = x^3 + x over Q(i) tagged as a hexagonal-lattice curve
        with pytest.raises(DomainError, match="CM tag"):
            EllipticCurveCM(Poly([0, 1, 0, 1], 1), 3)


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

    @pytest.mark.parametrize(
        "name", [n for n in catalog_names() if catalog_entry(n).lam is not None]
    )
    def test_label_is_the_multiplier(self, name):
        # infinity is the image of the curve's origin, where phi_lambda has
        # multiplier lambda^2 (Milnor, "On Lattes maps"): den_(a-1)/num_a
        # for phi = num/den of degree a
        entry = catalog_entry(name)
        a = entry.map.degree
        assert entry.map.den.coeff(a - 1) / entry.map.num.coeff(a) == (
            entry.lam ** 2
        )
        assert map_for_multiplier(entry.lam) is entry

    def test_power_maps(self):
        assert catalog("pow_2") == RationalMap(Poly([0, 0, 1], 0), Poly([1], 0))
        assert catalog("pow_3").degree == 3

    def test_curve_lookup(self):
        assert curve_for_name("phi_1+i").d == 1
        assert curve_for_name("phi_eps").d == 3
        with pytest.raises(DomainError):
            curve_for_name("pow_2")


# the two catalog curves and the smooth depressed cubics x^3 - 2x over
# Q(i) and x^3 - 27 over Q(sqrt(-3)), which the 2-torsion tests build too
SMOOTH_CURVES = {
    "E1": curve_E1(),
    "E2": curve_E2(),
    "x^3-2x": EllipticCurveCM(Poly([0, -2, 0, 1], 1), 1),
    "x^3-27": EllipticCurveCM(Poly([-27, 0, 0, 1], 3), 3),
}

# count the calls a fresh `import p1dyn` makes, by code object (Python
# 3.10 has no co_qualname), and print those of the map gcd
_IMPORT_CALLS = """
import collections, json, sys
calls = collections.Counter()

def profile(frame, event, arg):
    if event == "call":
        calls[frame.f_code] += 1

sys.setprofile(profile)
import p1dyn
sys.setprofile(None)
from p1dyn import ratmaps
print(json.dumps([calls[ratmaps.RationalMap.__init__.__code__],
                  calls[ratmaps._gcd_coords.__code__]]))
"""


class TestCoprimeConstruction:
    """lattes builds its maps without a gcd, from forms that each
    construction proves coprime; the gcd-reduced map of the same forms is
    the oracle that the proof holds."""

    @pytest.mark.parametrize("name", catalog_names())
    def test_catalog_map_is_reduced(self, name):
        phi = catalog_entry(name).map
        assert RationalMap(phi.num, phi.den) == phi

    @pytest.mark.parametrize("curve", SMOOTH_CURVES.values(),
                             ids=SMOOTH_CURVES.keys())
    @pytest.mark.parametrize("build, degree",
                             [(lattes_double, 4), (lattes_triple, 9)])
    def test_multiplication_map_is_reduced(self, curve, build, degree):
        phi = build(curve)
        assert phi.degree == degree
        assert RationalMap(phi.num, phi.den) == phi

    def test_import_takes_no_gcd(self):
        # building the catalog calls no RationalMap.__init__, and
        # EllipticCurveCM tests E1 and E2 for a double root by the
        # discriminant, without a gcd
        src = os.path.dirname(os.path.dirname(lattes.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_CALLS], capture_output=True,
            text=True, env=dict(os.environ, PYTHONPATH=src), timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [0, 0]


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
        assert catalog("phi_eps") == RationalMap(OMEGA * tri.num, tri.den)

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

    @pytest.mark.parametrize(
        "coeffs,expect",
        [
            # x^3 - 1/8: roots 1/2 and (-1 +- sqrt(-3))/4
            ([Fraction(-1, 8), 0, 0, 1],
             [QF(Fraction(-1, 4), Fraction(-1, 4), 3),
              QF(Fraction(-1, 4), Fraction(1, 4), 3),
              QF(Fraction(1, 2), 0, 3)]),
            # x^3 - 1000: roots 10 and -5 +- 5*sqrt(-3)
            ([-1000, 0, 0, 1], [QF(-5, -5, 3), QF(-5, 5, 3), QF(10, 0, 3)]),
        ],
    )
    def test_hexagonal_curves_beyond_small_roots(self, coeffs, expect):
        targets = two_torsion_targets(EllipticCurveCM(Poly(coeffs, 3), 3))
        assert targets[0].is_infinity()
        assert [t.value() for t in targets[1:]] == expect

    def test_huge_coefficients_split(self):
        # x^3 + a^2 x = x (x - a*i) (x + a*i)
        a = 10**30 + 7
        curve = EllipticCurveCM(Poly([0, a * a, 0, 1], 1), 1)
        finite = [t.value() for t in two_torsion_targets(curve)[1:]]
        assert finite == [QF(0, -a, 1), QF(0, 0, 1), QF(0, a, 1)]

    def test_close_roots_beside_a_huge_one_split(self):
        # roots 0, 1 and 10^100: a double guess cannot tell 0 from 1
        big = 10**100
        curve = EllipticCurveCM(Poly([0, big, -(big + 1), 1], 1), 1)
        finite = [t.value() for t in two_torsion_targets(curve)[1:]]
        assert finite == [QF(0, 0, 1), QF(1, 0, 1), QF(big, 0, 1)]

    def test_found_once_per_curve(self, monkeypatch):
        # x^3 - 27: a curve whose 2-torsion no other test asks for, so
        # its first call solves
        curve = EllipticCurveCM(Poly([-27, 0, 0, 1], 3), 3)
        first = two_torsion_targets(curve)
        first_values = [t.value() for t in first[1:]]
        first.clear()

        def no_solve(G):
            raise AssertionError("root guesses taken again")

        monkeypatch.setattr(torus, "_root_guesses", no_solve)
        # an equal curve built anew finds the same cached points
        again = two_torsion_targets(EllipticCurveCM(Poly([-27, 0, 0, 1], 3),
                                                    3))
        other = two_torsion_targets(curve)
        assert again is not other
        assert again[0].is_infinity()
        assert [t.value() for t in again[1:]] == first_values
        assert again == other

    @pytest.mark.parametrize("coeffs", [[-2, 0, 0, 1], [0, -2, 0, 1]])
    def test_unsplittable_curve_errors(self, coeffs):
        # x^3 - 2 has no root in Q(i), and x^3 - 2x only the root 0
        curve = EllipticCurveCM(Poly(coeffs, 1), 1)
        with pytest.raises(DomainError, match="does not split"):
            two_torsion_targets(curve)


class TestProfiles:
    @pytest.mark.parametrize("counts,degree,message", [
        ((1, 1, 1), 2, "exactly four counts"),
        ((0, 1, 1, 1), 2, "count 0 outside"),
        ((1, 1, 1, 5), 4, "count 5 outside"),
    ])
    def test_profile_validation(self, counts, degree, message):
        with pytest.raises(DomainError, match=message):
            RamificationProfile(counts, degree)

    @pytest.mark.parametrize("degree", [3, 4])
    def test_power_map_profile(self, degree):
        # z^n over Q(i) is no Lattes map: over infinity and 0 it has one
        # preimage each, so its counts fall outside n <= 2r <= n + 5
        phi = RationalMap.from_strings(["0"] * degree + ["1"], ["1"], 1)
        curve = curve_E1()
        want = tuple(len(preimage_multiplicities(phi, t))
                     for t in two_torsion_targets(curve))
        prof = ramification_profile(phi, curve)
        assert prof.counts == want and prof.degree == degree
        assert prof.counts == (1, degree, 1, degree)

    def test_map_and_curve_fields_must_agree(self):
        with pytest.raises(DomainError, match="different fields"):
            ramification_profile(catalog("phi_1+i"), curve_E2())

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

    def test_half_coordinates_read_from_a_unit_associate(self):
        # -3*omega (phi_eps) and sqrt(-3)*omega (phi_sqrt-3*rho) have
        # half-integer coordinates; their associates -3 and sqrt(-3) do not
        assert predict_profile(QF(-3, 0, 3) * OMEGA).counts == (5, 5, 5, 5)
        assert predict_profile(QF(0, 1, 3) * OMEGA).counts == (2, 2, 2, 2)
        # u * phi_lambda = phi_(lambda / u) for a cube root of unity u, so
        # every associate predicts the computed counts of phi_lambda;
        # 2 omega = -1 + sqrt(-3) takes the even row, like 2
        for name in ("phi_2@E2", "phi_3@E2", "phi_sqrt-3"):
            entry = catalog_entry(name)
            computed = ramification_profile(entry.map, curve_E2())
            for u in (OMEGA, OMEGA * OMEGA, -OMEGA, QF(-1, 0, 3)):
                assert predict_profile(u * entry.lam).as_multiset() == (
                    computed.as_multiset()), (name, u)

    @pytest.mark.parametrize("lam", [
        QF(Fraction(1, 2), Fraction(1, 2), 1), QF(Fraction(3, 2), 0, 3),
        QF(Fraction(1, 3), 1, 3),
    ])
    def test_non_integral_multiplier_rejected(self, lam):
        with pytest.raises(DomainError) as err:
            predict_profile(lam)
        assert "basis pair" in str(err.value)

    def test_norm_too_small(self):
        with pytest.raises(DomainError):
            predict_profile(QF(1, 0, 1))

    @pytest.mark.parametrize("d", [0, 1, 3])
    def test_matches_the_associate_oracle(self, d):
        # every lambda = a + b sqrt(-d) with a, b in (1/2)Z, |a|, |b| <= 20
        halves = [Fraction(k, 2) for k in range(-40, 41)]
        for a in halves:
            for b in halves if d else [0]:
                lam = QF(a, b, d)
                try:
                    want = parity_table_by_associate(lam)
                except DomainError:
                    with pytest.raises(DomainError):
                        predict_profile(lam)
                    continue
                assert predict_profile(lam).counts == want, lam

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

    def test_conjugate_multiplier_has_conjugate_map(self):
        f = catalog("phi_1+2i")
        conj = RationalMap(
            *(Poly([c.conj() for c in p.coeffs], 1) for p in (f.num, f.den))
        )
        assert map_for_multiplier(QF(1, -2, 1)).map == conj
        # and the unit i twists it: phi_(i*lambda) = -phi_lambda on E1
        assert catalog("phi_2+i") == RationalMap(-1 * conj.num, conj.den)

    def test_unknown_multiplier(self):
        with pytest.raises(DomainError) as err:
            map_for_multiplier(QF(7, 0, 1))
        assert "known multipliers" in str(err.value)

    @staticmethod
    def _scan(lam):
        """The entry a scan of the catalog finds for lam, or None."""
        return next((catalog_entry(n) for n in catalog_names()
                     if catalog_entry(n).lam is not None
                     and catalog_entry(n).lam == lam), None)

    @pytest.mark.parametrize("name", [
        n for n in catalog_names() if catalog_entry(n).lam is not None
    ])
    def test_index_agrees_with_a_scan(self, name):
        lam = catalog_entry(name).lam
        unit = {1: QF(0, 1, 1), 3: RHO6}[lam.d]
        for k in range({1: 4, 3: 6}[lam.d]):
            assoc = unit**k * lam
            entry = self._scan(assoc)
            if entry is None:
                with pytest.raises(DomainError, match="known multipliers"):
                    map_for_multiplier(assoc)
            else:
                assert map_for_multiplier(assoc) is entry
        assert map_for_multiplier(lam) is catalog_entry(name)

    def test_two_in_each_field(self):
        # equal hashes, yet no field's 2 equals another's
        twos = [QF(2, 0, d) for d in (0, 1, 3)]
        assert len({hash(x) for x in twos}) == 1
        assert twos[0] != twos[1] != twos[2] != twos[0]
        assert map_for_multiplier(twos[1]).name == "phi_2@E1"
        assert map_for_multiplier(twos[2]).name == "phi_2@E2"
        known = sorted(format_element(e.lam) + " (d=%d)" % e.lam.d
                       for e in map(catalog_entry, catalog_names())
                       if e.lam is not None)
        assert len(known) == len(set(known)) == 13
        with pytest.raises(DomainError) as err:
            map_for_multiplier(twos[0])
        assert str(err.value) == (
            "no catalog map has multiplier 2 over d=0; known multipliers: "
            + "; ".join(known))


def _scan_for_map(phi: RationalMap):
    """The first catalog entry, by name, whose map equals phi."""
    return next((catalog_entry(n) for n in catalog_names()
                 if catalog(n) == phi), None)


def _golden_commute_pairs() -> list:
    golden = json.loads((Path(__file__).parent / "golden"
                         / "cli_stdout.json").read_text())
    return [(shlex.split(case)[2:], json.loads(out)["composition_equals"])
            for case, out in sorted(golden.items())
            if case.startswith("commute --catalog ")]


class TestMapLookup:
    def test_catalog_maps_are_pairwise_distinct(self):
        # so the index from map to entry loses no entry
        maps = [catalog(n) for n in catalog_names()]
        assert len(maps) == 16
        assert all(a != b for i, a in enumerate(maps) for b in maps[i + 1:])
        assert len(set(maps)) == len(maps)

    @pytest.mark.parametrize("name", catalog_names())
    def test_every_catalog_map_finds_its_entry(self, name):
        entry = entry_for_map(catalog(name))
        assert entry is catalog_entry(name) is _scan_for_map(catalog(name))
        # an equal map built anew finds it too
        phi = catalog(name)
        assert entry_for_map(RationalMap(phi.num, phi.den)) is entry

    def test_golden_commute_composites(self):
        pairs = _golden_commute_pairs()
        assert len(pairs) == 4
        for (a, b), named in pairs:
            comp = catalog(a).compose(catalog(b))
            entry = entry_for_map(comp)
            assert entry is _scan_for_map(comp)
            assert (entry.name if entry else None) == named

    def test_maps_outside_the_catalog(self):
        z2_plus_1 = RationalMap(Poly([1, 0, 1], 0), Poly([1], 0))
        assert entry_for_map(z2_plus_1) is None
        # pow_2 over Z[i] is not the catalog's pow_2 over Q
        pow_2 = catalog("pow_2")
        assert entry_for_map(RationalMap(
            *(Poly([QF(c.a, c.b, 1) for c in f.coeffs], 1)
              for f in (pow_2.num, pow_2.den)))) is None


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


# (type, fields, valid values, values that validation refuses and the
# message it raises with, or None for a type without validation)
VALUE_TYPES = [
    pytest.param(EllipticCurveCM, ("G", "d"), (Poly([0, 1, 0, 1], 1), 1),
                 ((Poly([0, 1, 0, 1], 1), 3), "CM tag d=3 is not the field"),
                 id="EllipticCurveCM"),
    pytest.param(RamificationProfile, ("counts", "degree"), ((3, 3, 3, 3), 5),
                 (((1, 2, 3), 4), "exactly four counts"),
                 id="RamificationProfile"),
    pytest.param(HeightValue, ("value", "iterations_used", "error_bound"),
                 (0.5, 3, 1e-9),
                 ((0.5, 3, -1.0), "error bound must be nonnegative"),
                 id="HeightValue"),
    pytest.param(CatalogEntry, ("name", "map", "lam", "curve_name"),
                 ("phi_1+i", catalog("phi_1+i"), QF(1, 1, 1), "E1"), None,
                 id="CatalogEntry"),
]


class TestValueTypes:
    """The frozen value types: construction, validation, equality, hash,
    repr, immutability, copy and pickle."""

    @pytest.mark.parametrize("cls,fields,values,refused", VALUE_TYPES)
    def test_contract(self, cls, fields, values, refused):
        x = cls(*values)
        assert tuple(getattr(x, f) for f in fields) == values
        y = cls(**dict(zip(fields, values)))
        assert x == y and x is not y and hash(x) == hash(y)
        assert hash(x) == hash(values)
        assert x != values and x != object()
        assert cls.__match_args__ == fields
        assert repr(x) == "%s(%s)" % (cls.__name__, ", ".join(
            f"{f}={v!r}" for f, v in zip(fields, values)))
        assert not hasattr(x, "__dict__")
        for f in fields:
            with pytest.raises(AttributeError):
                setattr(x, f, values[0])
            with pytest.raises(AttributeError):
                delattr(x, f)
        with pytest.raises(AttributeError):
            x.extra = 1
        assert x == y
        for twin in (copy.copy(x), copy.deepcopy(x),
                     pickle.loads(pickle.dumps(x))):
            assert type(twin) is cls and twin == x and hash(twin) == hash(x)
        # built past validation, field by field
        raw = object.__new__(cls)
        for f, v in zip(fields, values):
            object.__setattr__(raw, f, v)
        assert raw == x
        if refused is not None:
            bad, message = refused
            with pytest.raises(DomainError, match=message):
                cls(*bad)

    def test_catalog_entry_defaults(self):
        entry = CatalogEntry("pow_2", catalog("pow_2"))
        assert entry.lam is None and entry.curve_name is None
        assert entry == catalog_entry("pow_2")

    def test_equal_curves_share_a_cache_entry(self):
        torus._two_torsion_targets.cache_clear()
        first = two_torsion_targets(EllipticCurveCM(Poly([0, 1, 0, 1], 1), 1))
        again = two_torsion_targets(EllipticCurveCM(Poly([0, 1, 0, 1], 1), 1))
        assert first == again
        info = torus._two_torsion_targets.cache_info()
        assert (info.hits, info.misses) == (1, 1)
