import math
import random
import runpy
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from p1dyn.errors import DomainError, IterationBudgetError
from p1dyn import heights
from p1dyn.heights import (
    HeightValue,
    _log_int,
    _trial_factor,
    canonical_height,
    height_constants,
    neron_tate,
)
from p1dyn.lattes import (
    catalog,
    catalog_names,
    curve_E1,
    curve_E2,
    lattes_double,
)
from p1dyn.quadfield import QuadFieldElement as QF, integral_gcd
from p1dyn.ratmaps import Poly, ProjPoint, RationalMap
from test_exact_kernels import FracQF, oracle_eval_pair


def rmap(num, den, d=0):
    return RationalMap(Poly(num, d), Poly(den, d))


def pt(x, y, d=0):
    return ProjPoint(QF(x, 0, d) if not isinstance(x, QF) else x,
                     QF(y, 0, d) if not isinstance(y, QF) else y, d)


def model_polys(phi) -> list:
    """The two forms of phi's integral model, as Polys."""
    return [Poly([QF.from_basis_pair(u, v, phi.d) for u, v in cs], phi.d)
            for cs in phi.integral_model()]


def tate_limit_raw(phi, P, steps):
    """Exact gcd-reduced orbit heights h(phi^n P) / alpha^n, n = 1..steps.

    The direct definition, a slow oracle for the decomposed engine; P
    lies in phi's field.  Coordinate sizes grow like alpha^n.
    """
    alpha = phi.degree
    f0, f1 = model_polys(phi)
    x0, x1 = P.reduced_pair()
    out = []
    for n in range(1, steps + 1):
        X0, X1 = FracQF.of(x0), FracQF.of(x1)
        y0, y1 = (oracle_eval_pair(f, X0, X1, alpha).qf() for f in (f0, f1))
        g = integral_gcd(y0, y1)
        x0, x1 = y0 / g, y1 / g
        out.append(0.5 * math.log(int(max(x0.norm(), x1.norm()))) / alpha**n)
    return out


def reduced_height(P: ProjPoint) -> float:
    """Naive Weil height: half the log of the larger coordinate norm of
    the integral coprime pair, whose finite places all contribute 0."""
    a, b = P.reduced_pair()
    return 0.5 * math.log(int(max(a.norm(), b.norm())))


def naive_height_by_places(P: ProjPoint) -> HeightValue:
    """Oracle route over the rationals: explicit sum of local terms.

    No gcd pre-reduction: the finite places are read off the prime
    factorization, so this cross-checks the reduce-first shortcut.
    Raises DomainError when the coordinate gcd does not factor by trial
    division.
    """
    if P.d != 0:
        raise DomainError("place-by-place oracle is for rational points")
    x, y = P.x0, P.x1
    if not (x.is_integral() and y.is_integral()):
        raise DomainError("oracle expects integral coordinates")
    xi, yi = int(x.a), int(y.a)
    total = _log_int(max(abs(xi), abs(yi)))
    exps, rest = _trial_factor(math.gcd(xi, yi))
    if rest != 1:
        raise DomainError(
            f"coordinate gcd keeps the cofactor {rest} after trial division"
        )
    for p, e in exps.items():
        # min of the two valuations is the valuation of the integer gcd
        total -= e * math.log(p)
    return HeightValue(max(total, 0.0), 0, 0.0)


def naive(P: ProjPoint) -> float:
    """The naive height of P, read as its canonical height under z^2 over
    P's field (equal on every point), checked against reduced_height."""
    h = canonical_height(rmap([0, 0, 1], [1], P.d), P, 1e-10).value
    assert abs(h - reduced_height(P)) <= 1e-10 * max(1.0, h)
    return h


class TestNaive:
    def test_trivial_points(self):
        assert naive(pt(1, 1)) == 0.0
        assert naive(ProjPoint.infinity()) == 0.0
        assert naive(pt(0, 1)) == 0.0

    def test_two_to_one(self):
        assert naive(pt(2, 1)) == pytest.approx(math.log(2), abs=1e-10)

    def test_reduction_first(self):
        assert naive(pt(6, 4)) == pytest.approx(math.log(3), abs=1e-10)
        assert naive(pt(Fraction(1, 2), 3)) == pytest.approx(
            math.log(6), abs=1e-10
        )

    def test_gaussian_point(self):
        p = ProjPoint(QF(1, 1, 1), QF(1, 0, 1), 1)
        assert naive(p) == pytest.approx(0.5 * math.log(2), abs=1e-10)

    def test_eisenstein_point(self):
        rho = QF(Fraction(1, 2), Fraction(1, 2), 3)
        p = ProjPoint(rho, QF(1, 0, 3), 3)
        # unit coordinate: height 0
        assert naive(p) == pytest.approx(0.0, abs=1e-10)

    def test_huge_coordinates(self):
        n = 7**500
        assert naive(pt(n, 1)) == pytest.approx(500 * math.log(7), rel=1e-12)


class TestByPlaces:
    @pytest.mark.parametrize(
        "x,y,expect",
        [(6, 4, math.log(3)), (1, 0, 0.0), (10, 1, math.log(10)),
         (12, 18, math.log(3)), (-9, 6, math.log(3))],
    )
    def test_oracle_values(self, x, y, expect):
        assert naive_height_by_places(pt(x, y)).value == pytest.approx(
            expect, abs=1e-12
        )

    def test_matches_reducing_route(self):
        for x, y in [(6, 4), (100, 64), (81, 24), (7, 13), (0, 5)]:
            a = naive_height_by_places(pt(x, y)).value
            b = reduced_height(pt(x, y))
            assert abs(a - b) <= 1e-12

    def test_rejects_non_rational(self):
        with pytest.raises(DomainError):
            naive_height_by_places(ProjPoint(QF(1, 1, 1), QF(1, 0, 1), 1))


class TestHeightValue:
    def test_nonnegative(self):
        with pytest.raises(DomainError):
            HeightValue(-0.5, 3, 0.0)
        with pytest.raises(DomainError):
            HeightValue(0.5, 3, -1.0)


class TestPowerMaps:
    def test_square_map_equals_naive(self):
        sq = rmap([0, 0, 1], [1])
        for x, y in [(2, 1), (3, 2), (7, 5), (1, 1), (100, 9)]:
            hv = canonical_height(sq, pt(x, y), 1e-9)
            assert abs(hv.value - reduced_height(pt(x, y))) <= 1e-9

    def test_cube_and_fifth_power(self):
        for k in (3, 5):
            phi = rmap([0] * k + [1], [1])
            for x, y in [(2, 1), (5, 3)]:
                hv = canonical_height(phi, pt(x, y), 1e-9)
                assert abs(hv.value - reduced_height(pt(x, y))) <= 1e-9

    def test_constants_are_zero(self):
        sq = rmap([0, 0, 1], [1])
        c = height_constants(sq)
        assert c["c_upper"] == 0.0
        assert c["c_lower"] == 0.0
        assert c["resultant_norm"] == 1
        assert c["bad_primes"] == []


class TestPreperiodicCancellation:
    """Preperiodic points force the finite sum to cancel the archimedean
    part exactly; the two sides come from unrelated machinery."""

    def test_doubling_at_zero_and_infinity(self):
        dbl = lattes_double(curve_E1())
        assert canonical_height(dbl, pt(0, 1, 1), 1e-10).value == 0.0
        assert canonical_height(dbl, ProjPoint.infinity(1), 1e-10).value == 0.0

    def test_doubling_at_one(self):
        # 1 -> 0 -> infinity: ramified prime 2 carries all the content
        dbl = lattes_double(curve_E1())
        hv = canonical_height(dbl, pt(1, 1, 1), 1e-10)
        assert hv.value <= hv.error_bound

    def test_sqrt3_at_minus_one(self):
        # fixed 2-torsion image; prime 3 ramifies in the hexagonal order
        phi = catalog("phi_sqrt-3")
        hv = canonical_height(phi, pt(-1, 1, 3), 1e-10)
        assert hv.value <= hv.error_bound

    def test_degree5_fixed_point_at_i(self):
        # phi_1+2i fixes i; primes 2 and 5 (split) both appear
        phi = catalog("phi_1+2i")
        hv = canonical_height(phi, ProjPoint(QF(0, 1, 1), QF(1, 0, 1), 1), 1e-10)
        assert hv.value <= hv.error_bound

    def test_inert_prime_preperiodic(self):
        # (z^2 - 9)/(3z) over the Gaussian field: 3 is inert; the orbit
        # 3 -> 0 -> infinity is preperiodic
        phi = rmap([-9, 0, 1], [0, 3], d=1)
        hv = canonical_height(phi, pt(3, 1, 1), 1e-10)
        assert hv.value <= hv.error_bound

    def test_split_prime_preperiodic(self):
        # (z^2 - 49)/(7z) over the Eisenstein field: 7 splits; orbit
        # 7 -> 0 -> infinity
        phi = rmap([-49, 0, 1], [0, 7], d=3)
        hv = canonical_height(phi, pt(7, 1, 3), 1e-10)
        assert hv.value <= hv.error_bound

    def test_order_six_torsion_on_E2(self):
        assert neron_tate(curve_E2(), 2, 1e-9).value <= 1e-9


class TestCanonicalGeneric:
    def test_against_raw_tate_oracle(self):
        dbl = lattes_double(curve_E1())
        hv = canonical_height(dbl, pt(2, 1, 1), 1e-10)
        raw = tate_limit_raw(dbl, pt(2, 1, 1), 6)
        c = height_constants(dbl)
        c_raw = max(c["c_upper"], c["c_lower"] + 0.5 * math.log(c["resultant_norm"]))
        tail = c_raw / (4**6 * 3)
        assert abs(hv.value - raw[-1]) <= tail + hv.error_bound

    def test_raw_oracle_hexagonal(self):
        phi = catalog("phi_sqrt-3")
        hv = canonical_height(phi, pt(2, 1, 3), 1e-10)
        raw = tate_limit_raw(phi, pt(2, 1, 3), 7)
        c = height_constants(phi)
        c_raw = max(c["c_upper"], c["c_lower"] + 0.5 * math.log(c["resultant_norm"]))
        tail = c_raw / (3**7 * 2)
        assert abs(hv.value - raw[-1]) <= tail + hv.error_bound

    def test_functional_equation(self):
        dbl = lattes_double(curve_E1())
        p = pt(2, 1, 1)
        image = dbl(p)
        h1 = canonical_height(dbl, image, 1e-10)
        h2 = canonical_height(dbl, p, 1e-10)
        assert abs(h1.value - 4 * h2.value) <= h1.error_bound + 4 * h2.error_bound + 1e-12

    def test_functional_equation_degree_5(self):
        phi = catalog("phi_1+2i")
        p = pt(2, 1, 1)
        h1 = canonical_height(phi, phi(p), 1e-9)
        h2 = canonical_height(phi, p, 1e-9)
        assert abs(h1.value - 5 * h2.value) <= h1.error_bound + 5 * h2.error_bound + 1e-12

    def test_commuting_maps_share_height(self):
        p = pt(2, 1, 1)
        h_dbl = canonical_height(lattes_double(curve_E1()), p, 1e-8)
        h_deg2 = canonical_height(catalog("phi_1+i"), p, 1e-8)
        h_conj = canonical_height(catalog("phi_1-i"), p, 1e-8)
        assert abs(h_dbl.value - h_deg2.value) <= 1e-6
        assert abs(h_deg2.value - h_conj.value) <= 1e-6

    def test_commuting_power_maps_share_height(self):
        p = pt(3, 2)
        h2 = canonical_height(rmap([0, 0, 1], [1]), p, 1e-9)
        h3 = canonical_height(rmap([0, 0, 0, 1], [1]), p, 1e-9)
        assert abs(h2.value - h3.value) <= 1e-9

    def test_hexagonal_commuting_pair(self):
        p = pt(2, 1, 3)
        ha = canonical_height(catalog("phi_sqrt-3"), p, 1e-8)
        hb = canonical_height(catalog("phi_sqrt-3*rho"), p, 1e-8)
        assert abs(ha.value - hb.value) <= 1e-6

    @pytest.mark.parametrize(
        "outer, inner", [("phi_1+2i", "phi_1+2i"), ("phi_3@E1", "phi_2@E1")]
    )
    def test_composite_shares_height(self, outer, inner):
        # phi o psi commutes with phi and psi, with eigenvalue alpha*beta,
        # so it has their canonical height; degrees 25 and 36
        phi = catalog(outer)
        comp = phi.compose(catalog(inner))
        assert comp.degree == phi.degree * catalog(inner).degree
        for p in (pt(3, 1, 1), pt(QF(1, 2, 1), 5, 1)):
            hc = canonical_height(comp, p, 1e-9)
            hp = canonical_height(phi, p, 1e-9)
            assert abs(hc.value - hp.value) <= hc.error_bound + hp.error_bound

    def test_rational_point_embeds(self):
        dbl = lattes_double(curve_E1())
        a = canonical_height(dbl, pt(2, 1), 1e-9).value
        b = canonical_height(dbl, pt(2, 1, 1), 1e-9).value
        assert a == b
        # a rational point feeds every map over Q(i) and Q(sqrt -3) as it
        # is, with the bits of the same point written over the map's field
        for name in catalog_names():
            phi = catalog(name)
            if not phi.d:
                continue
            rng = random.Random(f"embed:{name}")
            pairs = [(Fraction(rng.randint(-60, 60), rng.randint(1, 9)),
                      Fraction(rng.randint(-60, 60), rng.randint(1, 9)))
                     for _ in range(6)] + [(1, 0), (0, 1), (-6, 4)]
            for x0, x1 in pairs:
                if not (x0 or x1):
                    continue
                P = pt(x0, x1)
                E = pt(x0, x1, phi.d)
                for tol in (1e-11, 1e-3):
                    a = canonical_height(phi, P, tol)
                    b = canonical_height(phi, E, tol)
                    assert (a.value.hex(), a.error_bound.hex(),
                            a.iterations_used) == (b.value.hex(),
                                                   b.error_bound.hex(),
                                                   b.iterations_used)
            other = 4 - phi.d
            with pytest.raises(DomainError, match=(
                    f"point over d={other} cannot feed a map over "
                    f"d={phi.d}")):
                canonical_height(phi, pt(QF(1, 1, other), 2, other))

    def test_error_bound_honored(self):
        dbl = lattes_double(curve_E1())
        hv = canonical_height(dbl, pt(5, 3, 1), 1e-6)
        assert hv.error_bound <= 1e-6
        hv2 = canonical_height(dbl, pt(5, 3, 1), 1e-10)
        assert abs(hv.value - hv2.value) <= 1e-6 + hv2.error_bound


def seeded_points(name: str, count: int = 6) -> list:
    """count points (x0 : x1) of the map's field with small coordinates."""
    d = catalog(name).d
    rng = random.Random(f"bound:{name}")
    return [pt(QF(rng.randint(-15, 15), rng.randint(-15, 15) if d else 0, d),
               rng.randint(1, 15), d) for _ in range(count)]


def mobius(rng, d):
    """M(z) = (az + b)/(cz + e) in PGL_2(O_K), entries u + v*w with |u|,
    |v| <= 3 (v = 0 over Q), and its inverse (ez - b)/(-cz + a)."""
    def entry():
        return QF.from_basis_pair(rng.randint(-3, 3),
                                  rng.randint(-3, 3) if d else 0, d)

    while True:
        a, b, c, e = (entry() for _ in range(4))
        if a * e - b * c:
            return (RationalMap(Poly([b, a], d), Poly([e, c], d)),
                    RationalMap(Poly([-b, e], d), Poly([a, -c], d)))


def small_point(rng, d):
    """(u + v*w : n) with |u|, |v| <= 9 (v = 0 over Q) and 1 <= n <= 9."""
    return pt(QF.from_basis_pair(rng.randint(-9, 9),
                                 rng.randint(-9, 9) if d else 0, d),
              rng.randint(1, 9), d)


def conjugate(phi, M, M_inv):
    """M^-1 o phi o M by exact composition."""
    return M_inv.compose(phi.compose(M))


# commuting catalog pairs over each field; conjugating both by one M
# gives commuting pairs outside the catalog
CONJUGATED_PAIRS = [
    ("phi_1+i", "phi_1-i"), ("phi_2@E1", "phi_3@E1"),
    ("phi_1+2i", "phi_2-i"), ("phi_2@E2", "phi_sqrt-3"),
    ("phi_eps", "phi_sqrt-3*rho"), ("pow_2", "pow_3"),
]


class TestMobiusConjugates:
    """Canonical heights are functorial (Call and Silverman, Compositio
    Math. 89, 1993): psi = M^-1 phi M has h_psi(x) = h_phi(Mx) exactly,
    so the height engine on psi's large coefficients, which no closed
    form covers, is judged against phi's."""

    @pytest.mark.parametrize("name", catalog_names())
    def test_height_is_functorial(self, name):
        phi = catalog(name)
        d = phi.d
        rng = random.Random(f"mobius:{name}")
        M, M_inv = mobius(rng, d)
        psi = conjugate(phi, M, M_inv)
        assert psi.degree == phi.degree and conjugate(psi, M_inv, M) == phi
        for _ in range(2):
            x = small_point(rng, d)
            hx = canonical_height(psi, x)
            hm = canonical_height(phi, M(x))
            assert abs(hx.value - hm.value) <= (
                hx.error_bound + hm.error_bound), (name, str(x))

    @pytest.mark.parametrize("a, b", CONJUGATED_PAIRS)
    def test_conjugated_commuting_maps_share_heights(self, a, b):
        # the paper's shared heights (c05), on a pair the catalog lacks
        d = catalog(a).d
        rng = random.Random(f"mobius:{a}:{b}")
        M, M_inv = mobius(rng, d)
        psi, psi2 = (conjugate(catalog(n), M, M_inv) for n in (a, b))
        assert psi.commutes_with(psi2)
        for _ in range(2):
            x = small_point(rng, d)
            h1, h2 = canonical_height(psi, x), canonical_height(psi2, x)
            assert abs(h1.value - h2.value) <= (
                h1.error_bound + h2.error_bound), (a, b, str(x))


class TestBoundAtLooseTargets:
    # a loose target stops the finite loop after zero steps, where the
    # whole finite sum is left to the tail
    @pytest.mark.parametrize("name", catalog_names())
    def test_error_bound_covers_the_error(self, name):
        phi = catalog(name)
        points = seeded_points(name)
        if name == "phi_3@E2":
            points.append(pt(QF(-11, 13, 3), 11, 3))
        for P in points:
            ref = canonical_height(phi, P, 1e-11).value
            for target in (3.0, 10.0, 40.0):
                hv = canonical_height(phi, P, target)
                assert abs(hv.value - ref) <= hv.error_bound + 1e-11, (
                    str(P), target, hv, ref)


# Chebyshev maps: T_d(y + 1/y) = y^d + y^-d, and T_2 and T_3 are both
# T_6 when composed either way round
CHEBYSHEV = [
    RationalMap.from_strings(["-2", "0", "1"], ["1"], 0),
    RationalMap.from_strings(["0", "-3", "0", "1"], ["1"], 0),
]


class TestChebyshev:
    def test_t2_and_t3_commute(self):
        t2, t3 = CHEBYSHEV
        assert t2.commutes_with(t3)

    # the orbit of y + 1/y under T_d is y^n + y^-n, n = d^k, whose height
    # is 2 n h(y) up to a bounded term, so the canonical height is 2 h(y)
    @pytest.mark.parametrize("y", [Fraction(3), Fraction(5, 2),
                                   Fraction(7, 3), Fraction(12, 5)])
    def test_height_is_twice_the_height_of_y(self, y):
        x = y + 1 / y
        P = pt(x.numerator, x.denominator)
        expect = 2 * math.log(max(y.numerator, y.denominator))
        hv = [canonical_height(t, P, 1e-11) for t in CHEBYSHEV]
        for h in hv:
            assert h.error_bound <= 1e-11
            assert abs(h.value - expect) <= h.error_bound, (str(y), h)
        assert abs(hv[0].value - hv[1].value) <= (
            hv[0].error_bound + hv[1].error_bound
        )


SMOKE_MAPS = runpy.run_path(
    str(Path(__file__).resolve().parents[1] / "tools" / "smoke.py")
)["MAP_FILES"]


def smoke_map(name: str) -> RationalMap:
    """A --map file of tools/smoke.py, as the CLI reads it."""
    spec = SMOKE_MAPS[name]
    return RationalMap.from_strings(spec["num"], spec["den"],
                                    spec.get("field", {}).get("d", 0))


ENGINE_MAPS = [catalog(name) for name in catalog_names()] + [
    smoke_map(name) for name in SMOKE_MAPS]


def plain_steps(first, cap, c, alpha, tol):
    """The step count as a plain walk from `first`."""
    n = first
    bound = c / (alpha - 1)
    while bound / alpha**n > tol and n <= cap:
        n += 1
    return n


class TestStepCounts:
    # targets on both sides of the certifiable floor 8e-12, and the tol
    # that height() derives from each, as it derives it
    TARGETS = [10.0 ** (-k / 4) for k in range(4, 53)]

    @pytest.mark.parametrize("phi", [catalog(name) for name in catalog_names()]
                             + [smoke_map("restart.json"),
                                smoke_map("bigarch.json")],
                             ids=catalog_names() + ["restart", "bigarch"])
    def test_jump_start_keeps_the_plain_count(self, phi):
        eng = heights._HeightEngine(phi)
        for target in self.TARGETS:
            certifiable = target > 8e-12
            tol = (target - 2e-12) / 2 if certifiable else 2e-12
            for first, cap, c in ((1, heights._ARCH_CAP, eng.c_bound),
                                  (0, heights._FIN_CAP, 0.5 * eng.log_nR)):
                assert eng._steps_needed(first, cap, c, tol) == plain_steps(
                    first, cap, c, eng.alpha, tol), (target, first)

    def test_a_start_past_the_cap_stays_at_cap_plus_one(self):
        eng = heights._HeightEngine(smoke_map("bigarch.json"))
        assert eng._steps_needed(1, 3, eng.c_bound, 1e-12) == 4
        assert plain_steps(1, 3, eng.c_bound, eng.alpha, 1e-12) == 4


def count_constructions(fn) -> dict:
    """Run fn and count the QuadFieldElements and Fractions it builds, by
    the Python frames of their constructors."""
    codes = {
        QF.__init__.__code__: "QuadFieldElement",
        QF._of.__func__.__code__: "QuadFieldElement",
        Fraction.__new__.__code__: "Fraction",
    }
    # Python 3.12 on builds reduced results without __new__
    direct = getattr(Fraction, "_from_coprime_ints", None)
    if direct is not None:
        codes[direct.__func__.__code__] = "Fraction"
    counts = {"QuadFieldElement": 0, "Fraction": 0}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            counts[codes[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return counts


class TestEngineOnIntegers:
    def test_counter_sees_both_kinds(self):
        counts = count_constructions(
            lambda: (QF(1, 2, 1) * QF(3, 0, 1)).norm() + Fraction(1, 3))
        assert counts["QuadFieldElement"] >= 2 and counts["Fraction"] >= 2

    def test_building_an_engine_makes_no_element_and_no_fraction(self):
        # the integral model, resultant, certificate and norms are basis
        # pairs and ints, for every catalog map and smoke --map map
        for phi in ENGINE_MAPS:
            counts = count_constructions(lambda: heights._HeightEngine(phi))
            assert counts == {"QuadFieldElement": 0, "Fraction": 0}, str(phi)


class TestNeronTate:
    def test_two_torsion_vanishes(self):
        assert neron_tate(curve_E1(), 0).value == 0.0
        assert neron_tate(curve_E2(), -1, 1e-10).value <= 1e-10

    def test_independent_of_the_map(self):
        h_via_dbl = neron_tate(curve_E1(), 2, 1e-8)
        h_via_deg2 = canonical_height(catalog("phi_1+i"), pt(2, 1, 1), 1e-8)
        assert abs(h_via_dbl.value - h_via_deg2.value) <= 1e-6

    def test_nontorsion_positive(self):
        # x = 1/4 gives a non-torsion point on y^2 = x^3 + x
        hv = neron_tate(curve_E1(), Fraction(1, 4), 1e-8)
        assert hv.value > 0.01

    @pytest.mark.parametrize("curve", [curve_E1(), curve_E2()])
    @pytest.mark.parametrize("x", [2, Fraction(1, 4), Fraction(-7, 3)])
    def test_every_form_of_x_is_one_point(self, curve, x):
        # an int, a Fraction, an element of the curve's field and a
        # ProjPoint are the same affine x
        x = Fraction(x)
        d = curve.d
        forms = [x, QF(x, 0, d),
                 ProjPoint(x.numerator, x.denominator, d)]
        if x.denominator == 1:
            forms.append(x.numerator)
        want = neron_tate(curve, forms[-1], 1e-10)
        for form in forms:
            assert neron_tate(curve, form, 1e-10) == want, form


class TestBudgetsAndErrors:
    def test_budget_exceeded_carries_partial(self):
        dbl = lattes_double(curve_E1())
        with pytest.raises(IterationBudgetError) as err:
            canonical_height(dbl, pt(2, 1, 1), 1e-300)
        partial = err.value.partial
        assert isinstance(partial, HeightValue)
        assert partial.value > 0

    def test_degree_one_rejected(self):
        with pytest.raises(DomainError):
            canonical_height(rmap([1, 1], [1]), pt(2, 1), 1e-9)

    @pytest.mark.parametrize("n", [0, -3])
    def test_log_of_non_positive_integer(self, n):
        with pytest.raises(DomainError, match="non-positive"):
            _log_int(n)

    def test_height_below_its_error_budget_is_refused(self, monkeypatch):
        # a loop that undershot by more than its bound raises, where a
        # small negative value within the bound is clamped to 0
        monkeypatch.setattr(heights._HeightEngine, "_arch_value",
                            lambda self, x0, x1, n: (-1.0, 0.0))
        with pytest.raises(DomainError, match="negative beyond the error"):
            canonical_height(rmap([1, 0, 1], [0, 1]), pt(3, 1), 1e-9)

    @pytest.mark.parametrize("target", [0.0, -1e-9, math.nan])
    def test_bad_target(self, target):
        with pytest.raises(DomainError, match="must be positive"):
            canonical_height(rmap([0, 0, 1], [1]), pt(2, 1), target)
        with pytest.raises(DomainError, match="must be positive"):
            neron_tate(curve_E1(), 2, target)

    def test_field_mismatch(self):
        dbl = lattes_double(curve_E1())
        with pytest.raises(DomainError):
            canonical_height(dbl, pt(1, 1, 3), 1e-9)
