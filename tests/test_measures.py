import cmath
import math
import time

import numpy as np
import pytest

from p1dyn.errors import ConvergenceError, DomainError
from p1dyn.lattes import (
    catalog,
    catalog_entry,
    curve_E1,
    curve_E2,
    curve_for_name,
    lattes_double,
    two_torsion_targets,
)
from p1dyn.measures import (
    ComplexSampleSet,
    DensityGrid,
    GreenField,
    INF_POINT,
    Lift,
    _CYCLE_TOL,
    _grid_centers,
    compare_l1,
    green,
    green_field,
    julia_raster,
    ks_uniform_statistic,
    lattes_density,
    map_samples,
    measure_from_green,
    periodic_points,
    poly_roots,
    preimage_sample,
    sample_histogram,
    write_csv,
    write_pgm,
    write_ppm,
)
from p1dyn.ratmaps import RationalMap

SQUARE = Lift([0, 0, 1], [1, 0, 0])
WIN = (-2.0, 2.0, -2.0, 2.0)


class TestLift:
    def test_from_map_padding(self):
        lift = Lift.from_map(catalog("phi_1+i"))
        assert lift.degree == 2
        assert len(lift.f0) == 3 and len(lift.f1) == 3

    def test_degenerate_rejected(self):
        with pytest.raises(DomainError):
            Lift([0, 0, 1], [0, 0, 2])  # shared double root at 0
        with pytest.raises(DomainError):
            Lift([1, 2, 1], [1, 1, 0])  # common factor z + 1

    def test_eval_homogeneous(self):
        w0, w1 = SQUARE.eval(3 + 0j, 2 + 0j)
        assert w0 == 9 and w1 == 4


class TestGreen:
    def test_power_map_closed_form(self):
        for z, expect in [(2, math.log(2)), (3 + 4j, math.log(5)),
                          (0.5, 0.0), (1e150, math.log(1e150))]:
            assert green(SQUARE, z, 12) == pytest.approx(expect, abs=1e-12)

    def test_unit_circle_zero(self):
        for t in (0.3, 1.1, 2.9):
            z = cmath.exp(1j * t)
            assert abs(green(SQUARE, z, 10)) <= 1e-12

    def test_needs_iteration(self):
        with pytest.raises(DomainError):
            green(SQUARE, 2, 0)

    def test_functional_equation_catalog(self):
        # max over pseudo-random points of |g(F(z))/deg - g(z)|
        for name, bound in [("phi_1+i", 1e-4), ("phi_sqrt-3", 1e-4),
                            ("phi_2@E1", 1e-4)]:
            phi = catalog(name)
            lift = Lift.from_map(phi)
            rng = np.random.default_rng(11)
            pts = rng.uniform(-2, 2, 100) + 1j * rng.uniform(-2, 2, 100)
            worst = 0.0
            for z in pts:
                w0, w1 = lift.eval(complex(z), 1.0 + 0j)
                if abs(w1) <= 1e-14 * abs(w0):
                    continue
                g_img = math.log(abs(w1)) + green(lift, complex(w0 / w1), 30)
                worst = max(worst, abs(g_img / phi.degree - green(lift, z, 30)))
            assert worst <= bound

    def test_scaled_lift_constant_pattern(self):
        # degree 2: deviation from the limit shift is exactly log(c)/2^n
        z = 1.7 + 0.3j
        lift = Lift.from_map(catalog("phi_1+i"))
        for n in (6, 10, 12):
            shift = green(lift.scaled(5.0), z, n) - green(lift, z, n)
            expect = math.log(5.0) * (1.0 - 0.5**n)
            assert shift == pytest.approx(expect, abs=1e-13)

    def test_metric_choice_within_tail(self):
        z = 1.7 + 0.3j
        lift = Lift.from_map(catalog("phi_1+i"))
        for n in (8, 12):
            gap = green(lift, z, n, metric0="fs") - green(lift, z, n)
            assert 0.0 <= gap <= 0.5 * math.log(2.0) / 2**n
        with pytest.raises(DomainError):
            green(lift, z, 5, metric0="euclid")


class TestGreenField:
    def test_power_closed_form_grid(self):
        f = green_field(SQUARE, WIN, 32, 16)
        cz, _, _ = _grid_centers(f.window, 32, 32)
        expect = np.log(np.maximum(np.abs(cz), 1.0))
        assert np.max(np.abs(f.values - expect)) <= 1e-12

    def test_doubling_n_geometric_tail(self):
        lift = Lift.from_map(catalog("phi_1+i"))
        f1 = green_field(lift, WIN, 32, 8)
        f2 = green_field(lift, WIN, 32, 16)
        f3 = green_field(lift, WIN, 32, 32)
        d12 = np.max(np.abs(f1.values - f2.values))
        d23 = np.max(np.abs(f2.values - f3.values))
        assert d23 <= d12 / 100  # tail shrinks like 2^-n
        assert d12 <= 1e-2

    def test_commuting_fields_agree(self):
        ga = green_field(Lift.from_map(catalog("phi_1+i")), WIN, 64, 30)
        gb = green_field(Lift.from_map(catalog("phi_1-i")), WIN, 64, 30)
        diff = ga.values - gb.values
        assert float(np.std(diff)) <= 1e-3
        aligned = np.abs((ga.values - ga.values.mean())
                         - (gb.values - gb.values.mean()))
        assert float(aligned.max()) <= 1e-3

    def test_window_validation(self):
        with pytest.raises(DomainError):
            green_field(SQUARE, (2, -2, -2, 2), 32, 8)
        with pytest.raises(DomainError):
            green_field(SQUARE, (0, 1, 0), 32, 8)


class TestMeasureFromGreen:
    def test_power_map_annulus(self):
        f = green_field(SQUARE, WIN, 128, 20)
        m = measure_from_green(f)
        assert m.mass.sum() == pytest.approx(1.0, abs=1e-9)
        cz, _, _ = _grid_centers(m.window, 128, 128)
        r = np.abs(cz)
        ring = (r >= 0.9) & (r <= 1.1)
        assert float(m.mass[ring].sum()) >= 0.95

    def test_resolution_floor(self):
        f = green_field(SQUARE, WIN, 16, 8)
        with pytest.raises(DomainError):
            measure_from_green(f)

    def test_flat_field_rejected(self):
        # window inside the unit disk: g identically zero, no curvature
        f = green_field(SQUARE, (-0.4, 0.4, -0.4, 0.4), 32, 10)
        with pytest.raises(DomainError):
            measure_from_green(f)

    def test_density_tracks_inverse_cubic(self):
        dbl = lattes_double(curve_E1())
        f = green_field(Lift.from_map(dbl), (-3, 3, -3, 3), 128, 24)
        m = measure_from_green(f)
        cz, _, _ = _grid_centers(m.window, 128, 128)
        gz = np.abs(cz**3 + cz)
        mask = (gz > 1e-3) & (m.mass > 0)
        corr = np.corrcoef(m.mass[mask], (1.0 / gz)[mask])[0, 1]
        assert corr >= 0.9


class TestPolyRoots:
    def test_simple(self):
        r = poly_roots([-1, 0, 1])
        assert r == sorted(r, key=lambda z: (z.real, z.imag))
        assert abs(r[0] + 1) <= 1e-10 and abs(r[1] - 1) <= 1e-10

    def test_cubic_with_zero(self):
        r = poly_roots([0, 1, 0, 1])
        vals = sorted((round(z.real, 8), round(z.imag, 8)) for z in r)
        assert vals == [(-0.0, -1.0), (0.0, 0.0), (0.0, 1.0)]

    def test_random_degree9_residuals(self):
        rng = np.random.default_rng(7)
        c = list(rng.normal(size=10) + 1j * rng.normal(size=10))
        scale = sum(abs(x) for x in c)
        for z in poly_roots(c):
            val = 0j
            for ck in reversed(c):
                val = val * z + ck
            assert abs(val) <= 1e-10 * scale * max(1.0, abs(z)) ** 9

    def test_input_validation(self):
        with pytest.raises(DomainError):
            poly_roots([3])
        with pytest.raises(DomainError):
            poly_roots([1, 1, 0])

    def test_linear(self):
        assert poly_roots([6, -2]) == [3 + 0j]

    def test_repeated_root(self):
        r = poly_roots([1, 2, 1])  # (z+1)^2
        assert all(abs(z + 1) <= 1e-4 for z in r)


class TestPreimageSampling:
    def test_depth_zero(self):
        s = preimage_sample(catalog("pow_2"), 2.0, 0)
        assert s.size == 1 and s.points[0] == 2.0

    def test_tree_size_and_radii(self):
        s = preimage_sample(catalog("pow_2"), 2.0, 10, seed=1)
        assert s.size == 1024 and s.n_infinite == 0
        # all preimages sit on |z| = 2^(2^-10), to root-finder accuracy
        expect = 2.0 ** (2.0**-10)
        assert np.max(np.abs(np.abs(s.points) - expect)) <= 1e-6

    def test_angles_uniform(self):
        s = preimage_sample(catalog("pow_2"), 2.0, 10, seed=1)
        ks = ks_uniform_statistic(np.angle(s.points), period=2 * math.pi)
        assert ks <= 0.05

    def test_exceptional_seed(self):
        with pytest.raises(DomainError, match="generic"):
            preimage_sample(catalog("pow_2"), 0.0, 3)

    def test_budget(self):
        with pytest.raises(DomainError):
            preimage_sample(catalog("pow_2"), 2.0, 23)

    def test_reproducible(self):
        a = preimage_sample(catalog("phi_1+i"), 2.0, 6, seed=9)
        b = preimage_sample(catalog("phi_1+i"), 2.0, 6, seed=9)
        assert np.array_equal(a.points, b.points)

    def test_lattes_matches_closed_form(self):
        dbl = lattes_double(curve_E1())
        s = preimage_sample(dbl, 2.0, 9, seed=3)
        assert s.size == 4**9
        win = (-3.0, 3.0, -3.0, 3.0)
        hist = sample_histogram(s, win, 64)
        dens = lattes_density(curve_E1(), win, 64)
        assert compare_l1(hist, dens) <= 0.15

    def test_pushforward_invariance(self):
        dbl = lattes_double(curve_E1())
        s = preimage_sample(dbl, 2.0, 8, seed=3)
        h_before = sample_histogram(s, (-3, 3, -3, 3), 32)
        h_after = sample_histogram(map_samples(dbl, s), (-3, 3, -3, 3), 32)
        assert compare_l1(h_before, h_after) <= 0.05

    def test_two_constructions_agree(self):
        f = green_field(SQUARE, WIN, 256, 20)
        m = measure_from_green(f).coarsen(8)
        s = preimage_sample(catalog("pow_2"), 2.0, 16, seed=5)
        h = sample_histogram(s, WIN, 32)
        assert compare_l1(m, h) <= 0.1


class TestLattesDensity:
    def test_mass_one(self):
        d = lattes_density(curve_E1(), WIN, 64)
        assert d.mass.sum() == pytest.approx(1.0, abs=1e-9)
        assert 0.0 < d.window_fraction <= 1.0

    def test_E1_point_symmetry(self):
        d = lattes_density(curve_E1(), WIN, 64)
        assert np.max(np.abs(d.mass - d.mass[::-1, ::-1])) == 0.0

    def test_E2_rotation_invariance(self):
        # |G(rho^2 z)| = |G(z)| exactly; grid-level check via symmetric
        # sampling of the window under 180-degree-free rotation
        rho2 = cmath.exp(2j * math.pi / 3)
        rng = np.random.default_rng(0)
        z = rng.uniform(-2, 2, 400) + 1j * rng.uniform(-2, 2, 400)
        gap = np.abs(np.abs(z**3 + 1) - np.abs((rho2 * z) ** 3 + 1))
        assert float(gap.max()) <= 1e-3
        d = lattes_density(curve_E2(), WIN, 96)
        assert d.mass.sum() == pytest.approx(1.0, abs=1e-9)

    def test_singular_cells_finite(self):
        # roots of G sit inside the window; their cells must stay finite
        d = lattes_density(curve_E1(), WIN, 64)
        assert np.all(np.isfinite(d.mass))
        assert float(d.mass.max()) < 0.5


class TestCompare:
    def test_identical(self):
        d = lattes_density(curve_E1(), WIN, 32)
        assert compare_l1(d, d) == 0.0

    def test_disjoint(self):
        a = np.zeros((32, 32))
        b = np.zeros((32, 32))
        a[0, 0] = 1.0
        b[-1, -1] = 1.0
        ga = DensityGrid(WIN, (32, 32), a)
        gb = DensityGrid(WIN, (32, 32), b)
        assert compare_l1(ga, gb) == 1.0

    def test_shape_mismatch(self):
        a = DensityGrid(WIN, (32, 32), np.full((32, 32), 1 / 1024))
        b = DensityGrid(WIN, (16, 16), np.full((16, 16), 1 / 256))
        with pytest.raises(DomainError):
            compare_l1(a, b)

    def test_grid_invariants(self):
        with pytest.raises(DomainError):
            DensityGrid(WIN, (4, 4), np.full((4, 4), 1.0))
        with pytest.raises(DomainError):
            DensityGrid(WIN, (2, 2), np.array([[0.5, 0.6], [-0.1, 0.0]]))


class TestPeriodicPoints:
    def test_square_fixed(self):
        pp = periodic_points(catalog("pow_2"), 1)
        pts = [p for p, _ in pp]
        mults = [abs(m) for _, m in pp]
        assert len(pp) == 3
        assert abs(pts[0]) <= 1e-10
        assert abs(pts[1] - 1) <= 1e-10
        assert pts[2] == INF_POINT
        assert mults == pytest.approx([0.0, 2.0, 0.0], abs=1e-10)

    def test_square_period_two_repelling(self):
        pp = periodic_points(catalog("pow_2"), 2)
        rep = [p for p, m in pp if abs(m) > 1]
        assert len(rep) == 3  # cube roots of unity
        for p in rep:
            assert abs(abs(p) - 1.0) <= 1e-9
            assert abs(p**3 - 1.0) <= 1e-8

    def test_lattes_all_repelling(self):
        dbl = lattes_double(curve_E1())
        pp = periodic_points(dbl, 2)
        finite = [(p, m) for p, m in pp if p != INF_POINT]
        assert len(pp) == 4**2 + 1
        for _, m in pp:
            assert abs(m) > 1.0

    def test_budget(self):
        with pytest.raises(DomainError):
            periodic_points(lattes_double(curve_E1()), 4)

    def test_identity_iterate_refused(self):
        # every point is periodic when phi^n is the identity
        inv = RationalMap.from_strings(["1"], ["0", "1"], 0)
        ident = RationalMap.from_strings(["0", "1"], ["1"], 0)
        for phi, n in ((inv, 2), (inv, 4), (ident, 1), (ident, 3)):
            with pytest.raises(DomainError, match="identity"):
                periodic_points(phi, n)
        fixed = sorted(z.real for z, _ in periodic_points(inv, 1))
        assert fixed == pytest.approx([-1.0, 1.0], abs=1e-12)

    @pytest.mark.parametrize(
        "name,n",
        [("phi_sqrt-3", 4), ("phi_1+i", 6), ("phi_2@E1", 3), ("phi_3@E1", 2)],
    )
    def test_cap_cases_right_or_refused(self, name, n):
        # degree^n = 64 or 81, at the cap: each call either passes the
        # Lattes multiplier identity |mult| = |lambda|^n (Milnor, "On Lattes
        # maps") off the postcritical set, or raises ConvergenceError, and
        # does so in well under the time a caller would wait
        entry = catalog_entry(name)
        phi = entry.map
        t0 = time.perf_counter()
        try:
            pts = periodic_points(phi, n)
        except ConvergenceError as exc:
            assert max(exc.residuals) > _CYCLE_TOL
        else:
            post = [complex(t) for t in two_torsion_targets(
                curve_for_name(name)) if not t.is_infinity()]
            want = abs(complex(entry.lam)) ** n
            assert len(pts) == phi.degree**n + 1
            for z, mult in pts:
                if z != INF_POINT and all(abs(z - q) > 1e-6 for q in post):
                    assert abs(abs(mult) - want) <= 1e-6 * want
        assert time.perf_counter() - t0 < 20.0


class TestRaster:
    def test_dark_ring(self):
        img = julia_raster(catalog("pow_2"), WIN, 96, n=20)
        assert img.dtype == np.uint8 and img.shape == (96, 96)
        cz, _, _ = _grid_centers(WIN, 96, 96)
        ring = np.abs(np.abs(cz) - 1.0) < 0.03
        assert float(img[ring].mean()) < 128
        assert img[0, 0] == 255

    def test_deterministic(self):
        a = julia_raster(catalog("pow_2"), WIN, 64, n=16)
        b = julia_raster(catalog("pow_2"), WIN, 64, n=16)
        assert np.array_equal(a, b)

    def test_field_input(self):
        f = green_field(SQUARE, WIN, 64, 16)
        img = julia_raster(f)
        assert img.shape == (64, 64)

    def test_degree_one_rejected_upstream(self):
        from p1dyn.ratmaps import Poly, RationalMap
        linear = RationalMap(Poly([1, 1], 0), Poly([1], 0))
        with pytest.raises(DomainError):
            preimage_sample(linear, 2.0, 2)


class TestExport:
    def test_pgm_bytes(self, tmp_path):
        img = julia_raster(catalog("pow_2"), WIN, 64, n=16)
        p1 = tmp_path / "a.pgm"
        p2 = tmp_path / "b.pgm"
        meta = {"map": "pow_2", "window": "-2,2,-2,2", "seed": 0}
        write_pgm(p1, img, meta)
        write_pgm(p2, img, meta)
        b1 = p1.read_bytes()
        assert b1 == p2.read_bytes()
        assert b1.startswith(b"P5\n# map=pow_2\n")
        assert b"64 64\n255\n" in b1
        assert len(b1.split(b"255\n", 1)[1]) == 64 * 64

    def test_ppm(self, tmp_path):
        img = np.zeros((4, 5), dtype=np.uint8)
        p = tmp_path / "x.ppm"
        write_ppm(p, img)
        data = p.read_bytes()
        assert data.startswith(b"P6\n5 4\n255\n")
        assert len(data.split(b"255\n", 1)[1]) == 4 * 5 * 3

    def test_csv_and_sidecar(self, tmp_path):
        d = lattes_density(curve_E1(), WIN, 32)
        p = tmp_path / "d.csv"
        write_csv(d, p)
        rows = p.read_text().strip().split("\n")
        assert len(rows) == 32 and len(rows[0].split(",")) == 32
        total = sum(float(v) for row in rows for v in row.split(","))
        assert total == pytest.approx(1.0, abs=1e-9)
        import json

        meta = json.loads((tmp_path / "d.csv.json").read_text())
        assert meta["schema"] == 1 and meta["resolution"] == [32, 32]

    def test_csv_deterministic(self, tmp_path):
        d = lattes_density(curve_E1(), WIN, 32)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(d, pa)
        write_csv(d, pb)
        assert pa.read_bytes() == pb.read_bytes()


class TestKS:
    def test_uniform_grid_is_small(self):
        ks = ks_uniform_statistic(np.linspace(0.0005, 0.9995, 1000))
        assert ks <= 0.002

    def test_clustered_is_large(self):
        ks = ks_uniform_statistic(np.full(100, 0.5))
        assert ks >= 0.5

    def test_empty(self):
        with pytest.raises(DomainError):
            ks_uniform_statistic([])
