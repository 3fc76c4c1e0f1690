"""End-to-end acceptance checks, one test per criterion.

Each test prints a single `criterion NN <label>: PASS/FAIL (time)` line
to the real stdout so the run log always carries the per-criterion
verdicts.  Timings are informational, never asserted.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from p1dyn.quadfield import QuadFieldElement
from p1dyn.ratmaps import (
    ProjPoint,
    RationalMap,
    preimage_multiplicities,
)
from p1dyn.heights import canonical_height
from p1dyn.lattes import (
    CURVES,
    catalog,
    catalog_names,
    curve_E1,
    curve_for_name,
    lattes_double,
    map_for_multiplier,
    predict_profile,
    ramification_profile,
    two_torsion_targets,
)
from p1dyn.measures import (
    Lift,
    compare_l1,
    green,
    green_field,
    julia_raster,
    lattes_density,
    measure_from_green,
    preimage_sample,
    sample_histogram,
)
from p1dyn.periodic import periodic_points
from test_measures import (
    curve_families, ks_uniform_statistic, metric_field, scaled_lift,
)


def _line(capfd, text: str) -> None:
    # bypass pytest's fd capture so the verdict reaches the run log
    with capfd.disabled():
        print(text, flush=True)


@contextmanager
def criterion(capfd, num: int, label: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        _line(capfd, f"criterion {num:02d} {label}: FAIL "
              f"({time.perf_counter() - t0:.2f}s)")
        raise
    _line(capfd, f"criterion {num:02d} {label}: PASS "
          f"({time.perf_counter() - t0:.2f}s)")


def gauss(a, b):
    return QuadFieldElement(a, b, 1)


def generic_points(d: int, count: int = 10) -> list:
    pts = []
    for k in range(count):
        if d == 0:
            x = QuadFieldElement(k + 2, 0, 0)
            y = QuadFieldElement(2 * k - 1, 0, 0)
        else:
            x = QuadFieldElement(k + 2, (k % 3) - 1, d)
            y = QuadFieldElement(2 * k - 1, (k + 1) % 2, d)
        pts.append(ProjPoint(x, y, d))
    return pts


def test_c01_exact_commuting_identities(capfd):
    with criterion(capfd, 1, "exact commuting identities"):
        a = catalog("phi_1+i")
        b = catalog("phi_1-i")
        ab = a.compose(b)
        ba = b.compose(a)
        expected = RationalMap.from_strings(
            ["1", "0", "-2", "0", "1"], ["0", "4", "0", "4"], 1
        )
        assert ab == expected
        assert ba == expected

        assert catalog("phi_sqrt-3").compose(
            catalog("phi_sqrt-3*rho")
        ) == catalog("phi_eps")

        assert catalog("phi_1+2i").commutes_with(catalog("phi_1-2i"))
        assert catalog("phi_2+i").commutes_with(catalog("phi_2-i"))


def test_c02_doubling_map_matches_catalog(capfd):
    with criterion(capfd, 2, "doubling map identity"):
        assert lattes_double(curve_E1()) == catalog("phi_2@E1")


def test_c03_power_map_height_is_naive(capfd):
    with criterion(capfd, 3, "power-map height equals naive height"):
        rational = [
            ProjPoint(a, (2 * a + 11) % 9 + 1, 0)
            for a in range(-9, 10)
            if a != 0
        ][:10] + [
            ProjPoint(a, -((3 * a + 7) % 8 + 1), 0)
            for a in range(-5, 6)
            if a != 0
        ][:10]
        gaussian = [
            ProjPoint(gauss(a, (a + 4) % 7 - 3), gauss((2 * a) % 9 - 4, 1))
            for a in range(-9, 10)
        ] + [ProjPoint(gauss(9, -9), gauss(-9, 9), 1)]
        assert len(rational) == 20 and len(gaussian) == 20
        for d, pts in ((0, rational), (1, gaussian)):
            for power in (2, 3):
                phi = RationalMap.from_strings(
                    ["0"] * power + ["1"], ["1"], d
                )
                for P in pts:
                    hv = canonical_height(phi, P, target_error=1e-10)
                    # the naive height, from the reduced coordinates
                    naive = 0.5 * math.log(
                        int(max(x.norm() for x in P.reduced_pair())))
                    assert abs(hv.value - naive) <= 1e-9


def test_c04_height_functional_equation(capfd):
    with criterion(capfd, 4, "height functional equation"):
        for name in catalog_names():
            phi = catalog(name)
            for P in generic_points(phi.d):
                h_p = canonical_height(phi, P, target_error=1e-8).value
                h_fp = canonical_height(phi, phi(P), target_error=1e-8).value
                assert abs(h_fp - phi.degree * h_p) <= 1e-6, name


def test_c05_commuting_maps_share_heights(capfd):
    with criterion(capfd, 5, "commuting maps share heights"):
        pairs = (
            (catalog("phi_1+i"), catalog("phi_1-i")),
            (catalog("phi_2@E1"), catalog("phi_1+i")),
        )
        for a, b in pairs:
            for P in generic_points(1):
                ha = canonical_height(a, P, target_error=1e-8).value
                hb = canonical_height(b, P, target_error=1e-8).value
                assert abs(ha - hb) <= 1e-6


def test_c06_ramification_table(capfd):
    with criterion(capfd, 6, "ramification table"):
        cases = [gauss(1, 1), gauss(2, 0), gauss(3, 0), gauss(1, 2),
                 QuadFieldElement(0, 1, 3)]
        for lam in cases:
            entry = map_for_multiplier(lam)
            curve = curve_for_name(entry.name)
            computed = ramification_profile(entry.map, curve).as_multiset()
            predicted = predict_profile(lam).as_multiset()
            assert computed == predicted, entry.name

        # norm-5 fibers: record the per-target multiplicity pattern
        phi = catalog("phi_1+2i")
        patterns = {
            tuple(preimage_multiplicities(phi, t))
            for t in two_torsion_targets(curve_E1())
        }
        _line(capfd, f"criterion 06 note: norm-5 fiber multiplicity patterns "
              f"{sorted(patterns)}")


def test_c07_power_map_measure_is_circular(capfd):
    with criterion(capfd, 7, "power-map measure on the unit circle"):
        s = preimage_sample(catalog("pow_2"), 2.0, 12, seed=0)
        ks = ks_uniform_statistic(np.angle(s.points), period=2 * math.pi)
        assert ks <= 0.02

        window = (-2.0, 2.0, -2.0, 2.0)
        field = green_field(Lift.from_map(catalog("pow_2")), window, 128, 24)
        grid = measure_from_green(field)
        xs = np.linspace(window[0], window[1], 129)
        xs = 0.5 * (xs[:-1] + xs[1:])
        ys = np.linspace(window[2], window[3], 129)
        ys = 0.5 * (ys[:-1] + ys[1:])
        r = np.abs(xs[None, :] + 1j * ys[:, None])
        ring = (r >= 0.9) & (r <= 1.1)
        assert grid.mass[ring].sum() >= 0.95


def test_c08_lattes_density_comparison(capfd):
    with criterion(capfd, 8, "closed-form density vs preimage histogram"):
        # commuting maps share the canonical measure: every map on a
        # curve against the one density of that curve, each sampled at
        # the least depth with deg^depth >= 2e5 (measured L1: 0.0092 to
        # 0.0132)
        window = (-3.0, 3.0, -3.0, 3.0)
        families = curve_families()
        assert sum(map(len, families.values())) == 13
        for curve, names in families.items():
            dens = lattes_density(CURVES[curve](), window, 64)
            smooth = dens.mass <= np.quantile(dens.mass, 0.98)
            for name in names:
                phi = catalog(name)
                depth = next(n for n in range(1, 23)
                             if phi.degree ** n >= 200_000)
                s = preimage_sample(phi, 2.0, depth, seed=0)
                hist = sample_histogram(s, window, 64)
                assert compare_l1(hist, dens) <= 0.02, name
                corr = np.corrcoef(hist.mass[smooth],
                                   dens.mass[smooth])[0, 1]
                assert corr >= 0.9, name


def test_c09_commuting_green_fields_agree(capfd):
    with criterion(capfd, 9, "commuting maps share the Green field"):
        window = (-2.0, 2.0, -2.0, 2.0)
        families = curve_families()
        assert sorted(map(len, families.values())) == [5, 8]
        for curve, names in families.items():
            first = metric_field(names[0], window, 128, 200)
            for name in names[1:]:
                got = metric_field(name, window, 128, 200)
                assert np.max(np.abs(got - first)) <= 1e-14, (curve, name)


def test_c10_metric_functional_equation(capfd):
    with criterion(capfd, 10, "metric functional equation, start independence"):
        rng = np.random.default_rng(20260816)
        for name in catalog_names():
            phi = catalog(name)
            lift = Lift.from_map(phi)
            d = phi.degree

            pts = []
            while len(pts) < 100:
                z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                w0, w1 = lift.eval(z, 1.0 + 0j)
                if abs(w1) > 1e-8 * max(1.0, abs(w0)):
                    pts.append((z, complex(w0), complex(w1)))
            for z, w0, w1 in pts:
                g_p = green(lift, z, 30)
                g_fp = math.log(abs(w1)) + green(lift, w0 / w1, 30)
                assert abs(g_fp / d - g_p) <= 1e-4, name

            # scaling one starting lift by 5 shifts g by log5 * sum d^-k;
            # the gap to the limit must shrink geometrically at rate 1/d
            scaled = scaled_lift(lift, 5.0)
            z0 = 0.37 + 0.29j
            limit = math.log(5.0) / (d - 1)
            gaps = []
            for n in range(2, 8):
                delta = green(scaled, z0, n) - green(lift, z0, n)
                gaps.append(abs(delta - limit))
            for n, gap in zip(range(2, 8), gaps):
                assert gap <= limit * d ** (-n) * (1 + 1e-9) + 1e-12, name
            ratios = [
                b / a for a, b in zip(gaps, gaps[1:]) if a > 1e-13
            ]
            for r in ratios:
                assert abs(r - 1.0 / d) <= 0.1 / d, name


def test_c11_julia_circle_and_raster_agreement(capfd):
    with criterion(capfd, 11, "repelling cycles on the circle, raster match"):
        phi = catalog("pow_2")
        for n in range(1, 5):
            for z, mult in periodic_points(phi, n):
                if np.isfinite(z.real) and abs(mult) > 1:
                    assert abs(abs(z) - 1.0) <= 1e-8

        window = (-2.0, 2.0, -2.0, 2.0)
        ra = julia_raster(green_field(catalog("phi_1+i"), window, 64, 24))
        rb = julia_raster(green_field(catalog("phi_1-i"), window, 64, 24))
        gap = np.abs(ra.astype(int) - rb.astype(int)).max()
        assert gap <= 1
