import cmath
import json
import math
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from p1dyn import measures, periodic, roots, torus
from p1dyn.errors import ConvergenceError, DomainError
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
    lattes_double,
)
from p1dyn.greenpoint import Lift, green
from p1dyn.measures import (
    ComplexSampleSet,
    DensityGrid,
    GreenField,
    _abs_g_on,
    _header_comments,
    _lattice_leaves,
    _coords,
    _preimage_tree,
    _series,
    compare_l1,
    green_field,
    julia_raster,
    lattes_density,
    measure_from_green,
    preimage_sample,
    sample_histogram,
    write_csv,
    write_pgm,
)
from p1dyn.periodic import INF_POINT, periodic_points
from p1dyn.roots import poly_roots
from p1dyn.quadfield import QuadFieldElement
from p1dyn.ratmaps import Poly, RationalMap
from p1dyn.torus import Lattice, curve_lattice, two_torsion_targets
from test_analytic_kernels import _grid_centers


# helpers that only the tests use, as oracles and fixtures
def ks_uniform_statistic(values, period: float = 1.0) -> float:
    """Kolmogorov-Smirnov distance of values mod period from uniform."""
    u = np.sort(np.mod(np.asarray(values, dtype=float), period) / period)
    n = len(u)
    if n == 0:
        raise DomainError("empty sample")
    k = np.arange(1, n + 1)
    return float(max(np.max(k / n - u), np.max(u - (k - 1) / n)))


def map_samples(phi: RationalMap, samples: ComplexSampleSet) -> ComplexSampleSet:
    """Push a sample set forward through phi (sizes are preserved)."""
    f0, f1 = (np.array(f) for f in phi.complex_pair())
    z = samples.points
    big = np.abs(z) > 1.0
    a0 = np.where(big, z / np.maximum(np.abs(z), 1.0), z)
    a1 = np.where(big, 1.0 / np.maximum(np.abs(z), 1.0), np.ones_like(z))
    w0, w1, p = f0[-1] * np.ones_like(a0), f1[-1] * np.ones_like(a0), a1
    for k in range(phi.degree - 1, -1, -1):
        w0, w1, p = w0 * a0 + f0[k] * p, w1 * a0 + f1[k] * p, p * a1
    if samples.n_infinite:
        # the point at infinity, (1 : 0), goes to (f0[-1] : f1[-1])
        w0 = np.concatenate([w0, np.repeat(f0[-1], samples.n_infinite)])
        w1 = np.concatenate([w1, np.repeat(f1[-1], samples.n_infinite)])
    finite = np.abs(w1) > 1e-14 * np.abs(w0)
    return ComplexSampleSet(
        w0[finite] / w1[finite],
        int(np.sum(~finite)),
        samples.seed,
        samples.depth,
    )


def coarsen(grid: DensityGrid, factor: int) -> DensityGrid:
    """Sum blocks of factor x factor cells into a coarser grid."""
    nx, ny = grid.resolution
    if factor < 1 or nx % factor or ny % factor:
        raise DomainError("factor must divide both resolutions")
    m = grid.mass.reshape(ny // factor, factor, nx // factor, factor)
    return DensityGrid(
        grid.window,
        (nx // factor, ny // factor),
        m.sum(axis=(1, 3)),
        grid.window_fraction,
    )


def write_ppm(path, image, metadata=None) -> None:
    """Binary PPM; grayscale input is replicated across channels."""
    img = np.asarray(image, dtype=np.uint8)
    if img.ndim == 2:
        img = np.repeat(img[:, :, None], 3, axis=2)
    if img.ndim != 3 or img.shape[2] != 3:
        raise DomainError("PPM wants (h, w) or (h, w, 3)")
    h, w, _ = img.shape
    with open(path, "wb") as f:
        f.write(b"P6\n")
        f.write(_header_comments(metadata))
        f.write(f"{w} {h}\n255\n".encode())
        f.write(img.tobytes())


SQUARE = Lift.from_map(catalog("pow_2"))
WIN = (-2.0, 2.0, -2.0, 2.0)


def scaled_lift(lift, c):
    """The lift c(F0, F1) of lift's map: from_map never builds it for
    c != 1, since the map's canonical scale fixes the pair."""
    out = Lift()
    out._set(*([c * a for a in f] for f in lift._coeffs))
    return out


class TestLift:
    def test_from_map_padding(self):
        lift = Lift.from_map(catalog("phi_1+i"))
        assert lift.degree == 2
        assert [len(f) for f in lift._coeffs] == [3, 3]

    def test_equal_maps_share_one_lift(self):
        phi = catalog("phi_3@E2")
        again = RationalMap(phi.num, phi.den)
        assert Lift.from_map(phi) is Lift.from_map(phi)
        assert again is not phi and Lift.from_map(again) is Lift.from_map(phi)

    def test_eval_takes_one_point(self):
        with pytest.raises(TypeError):
            SQUARE.eval(np.array([1.0 + 0j, 2.0 + 0j]), np.ones(2, complex))

    def test_no_raw_constructor(self):
        with pytest.raises(TypeError):
            Lift([0, 0, 1], [1, 0, 0])

    def test_degenerate_rejected(self):
        # a shared root cancels in the exact map, which then has too
        # small a degree: z^2/(2z^2) = 1/2 and (z+1)^2/(z(z+1)) = (z+1)/z
        for num, den in ((["0", "0", "1"], ["0", "0", "2"]),
                         (["1", "2", "1"], ["0", "1", "1"])):
            phi = RationalMap.from_strings(num, den, 0)
            assert phi.degree < 2
            for call in (lambda: green(phi, 0.5, 8),
                         lambda: green_field(phi, WIN, 8, 8)):
                with pytest.raises(DomainError, match="degree at least 2"):
                    call()

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

    def test_degree_one_refused(self):
        # z -> 2z: the sum n*log 2 grows without limit
        lift = Lift.from_map(RationalMap.from_strings(["0", "2"], ["1"], 0))
        for call in (lambda: green(lift, 0.5, 1000),
                     lambda: green_field(lift, WIN, 32, 16)):
            with pytest.raises(DomainError, match="degree at least 2"):
                call()

    def test_lift_that_rounds_away_is_refused(self):
        # z^2/(10^400 z^2 + 1) has the lift (10^-400 z^2, z^2 + 10^-400),
        # whose 10^-400 rounds to 0.0: from (0, 1) both forms vanish.
        # z^3/(z + 2^-1060) takes z = 0.5 to (0, 1) in double precision,
        # where its second form is 2^-1060 and the next 1/m overflows
        vanishing = RationalMap.from_strings(
            ["0", "0", "1"], ["1", "0", str(10**400)], 0)
        tiny = RationalMap(Poly([0, 0, 0, 1], 0),
                           Poly([Fraction(1, 2**1060), 1], 0))
        for phi, z, reason in ((vanishing, 0.5, "vanishes"),
                               (tiny, 0.5, "underflows")):
            with pytest.raises(DomainError, match=reason):
                green(phi, z, 30)

    def test_tiny_lift_is_right_or_refused(self):
        # z^3/(z + 2^-1060) takes z in the unit disc towards 0, and a
        # double loses z^3 before it loses z: from z = 2^-512 the iterate
        # (z^2, 1) reads (0, 1), so the next m = |z^2 + 2^-1060| reads
        # 2^-1060 instead of 2^-1024, which moves the value at 0.5 by
        # 1.4e-4.  Scaling the iterate past 1/m's overflow would return
        # that value; green refuses it.  Outside the disc the orbit runs
        # to infinity, and the value is right
        tiny = RationalMap(Poly([0, 0, 0, 1], 0),
                           Poly([Fraction(1, 2**1060), 1], 0))

        def orbit(z, n):
            with mpmath.workdps(60):
                eps = mpmath.mpf(2) ** -1060
                w0, w1 = mpmath.mpc(z), mpmath.mpc(1)
                m = max(abs(w0), abs(w1))
                g, s = mpmath.log(m), mpmath.mpf(1)
                for _ in range(n):
                    s /= 3
                    w0, w1 = w0 / m, w1 / m
                    w0, w1 = w0**3, w0 * w1**2 + eps * w1**3
                    m = max(abs(w0), abs(w1))
                    g += s * mpmath.log(m)
                return float(g)

        returned = 0
        for z in (0.5, 0.9, 0.3 + 0.2j, 0.0, 1.5, -2 + 1j, 1e3j):
            try:
                g = green(tiny, z, 30)
            except DomainError:
                continue
            returned += 1
            assert abs(g - orbit(z, 30)) <= 1e-13, z
        assert returned == 3

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
        scaled = scaled_lift(lift, 5.0)
        for n in (6, 10, 12):
            shift = green(scaled, z, n) - green(lift, z, n)
            expect = math.log(5.0) * (1.0 - 0.5**n)
            assert shift == pytest.approx(expect, abs=1e-13)


CURVE_MAPS = [n for n in catalog_names() if catalog_entry(n).curve_name]


def curve_families() -> dict:
    """The catalog's curve maps by curve: maps on one curve commute."""
    families = {}
    for name in catalog_names():
        curve = catalog_entry(name).curve_name
        if curve:
            families.setdefault(curve, []).append(name)
    return families


def metric_field(name, window, resolution, n):
    """green_field of a curve map less log|a_d|/(d - 1), a_d the leading
    coefficient of its lift: the canonical metric of its curve, which
    every map on that curve shares (TestNeronOracle gives it in closed
    form)."""
    lift = Lift.from_map(catalog(name))
    field = green_field(lift, window, resolution, n)
    a_d = lift._coeffs[0][-1]
    return field.values - math.log(abs(a_d)) / (lift.degree - 1)


def neron_local(lat, x: float, y: float) -> float:
    """The Neron local height lambda(u) of u = (x + y tau) w1 on the
    curve of lat, by its q-product (Silverman, Advanced Topics, Thm.
    VI.3.4): with y reduced to [0, 1), t = e^(2 pi i (x + y tau)) and
    q = e^(2 pi i tau),
        lambda(u) = -B2(y) log|q| / 2 - log|1 - t|
                    - sum_n log|(1 - q^n t)(1 - q^n / t)|,
    B2(y) = y^2 - y + 1/6.  |q| < 0.005 on both curves, so 20 terms
    leave a tail far below 2^-53."""
    y %= 1.0
    q = cmath.exp(2j * math.pi * lat.tau)
    t = cmath.exp(2j * math.pi * (x + y * lat.tau))
    out = -0.5 * (y * y - y + 1 / 6) * math.log(abs(q)) - math.log(abs(1 - t))
    for n in range(1, 21):
        out -= math.log(abs((1 - q**n * t) * (1 - q**n / t)))
    return out


def neron_local_mp(lat, x: float, y: float, dps: int = 50):
    """neron_local at dps digits, the product summed by Jacobi's theta:
    with nome p = e^(i pi tau), q = p^2 and v = x + y tau,
    prod_n (1 - q^n t)(1 - q^n / t)
        = theta_1(pi v, p) / (2 p^(1/4) sin(pi v) (q; q)_inf)."""
    with mpmath.workdps(dps):
        y = mpmath.mpf(y) % 1
        tau = mpmath.mpc(lat.tau)
        v = x + y * tau
        p = mpmath.exp(1j * mpmath.pi * tau)
        q = p * p
        t = mpmath.exp(2j * mpmath.pi * v)
        prod = mpmath.jtheta(1, mpmath.pi * v, p) / (
            2 * mpmath.exp(1j * mpmath.pi * tau / 4)
            * mpmath.sin(mpmath.pi * v) * mpmath.qp(q))
        return (-(y * y - y + mpmath.mpf(1) / 6) * mpmath.log(abs(q)) / 2
                - mpmath.log(abs(1 - t)) - mpmath.log(abs(prod)))


class TestNeronOracle:
    """The canonical metric of a Lattes map in closed form: for the lift
    F of a curve map of degree d, a_d the leading coefficient of its
    first form, and z = wp(u),
        green(F, z) = 2 lambda(u) + log|a_d|/(d - 1)
                      + (1/6) log|16 disc G|,
    disc G = -4 on E1 and -27 on E2 (Silverman, Advanced Topics, Thm.
    VI.3.4).  Measured over the 13 maps' seeded points below: at most
    1.9e-15, and 1.8e-15 over their 8 x 8 fields."""

    @pytest.mark.parametrize("curve", ["E1", "E2"])
    def test_local_height_matches_50_digits(self, curve):
        lat = curve_lattice(CURVES[curve]())
        rng = np.random.default_rng(3)
        for x, y in [(0.25, 0.0), (0.0, 0.5), (-0.5, -0.5),
                     *rng.uniform(-0.5, 0.5, (5, 2))]:
            got = neron_local(lat, float(x), float(y))
            want = neron_local_mp(lat, float(x), float(y))
            assert abs(got - want) <= 1e-14 * max(1.0, abs(got)), (x, y)

    @staticmethod
    def oracle(name):
        """The lift of a curve map, its curve's lattice and the constant
        log|a_d|/(d - 1) + (1/6) log|16 disc G|."""
        entry = catalog_entry(name)
        lift = Lift.from_map(entry.map)
        disc = {"E1": -4, "E2": -27}[entry.curve_name]
        const = (math.log(abs(lift._coeffs[0][-1])) / (lift.degree - 1)
                 + math.log(abs(16 * disc)) / 6)
        return lift, curve_lattice(curve_for_name(name)), const

    @pytest.mark.parametrize("name", CURVE_MAPS)
    def test_green_is_twice_the_local_height(self, name):
        lift, lat, const = self.oracle(name)
        rng = np.random.default_rng(20)
        for z in rng.uniform(-5, 5, 20) + 1j * rng.uniform(-5, 5, 20):
            x, y = measures._elliptic_log(lat, complex(z))
            lam = neron_local(lat, float(x), float(y))
            assert abs(green(lift, z, 200) - 2 * lam - const) <= 1e-14, z

    @pytest.mark.parametrize("name", CURVE_MAPS)
    def test_green_field_is_twice_the_local_height(self, name):
        # the same identity through green_field's block Horner
        lift, lat, const = self.oracle(name)
        window = (-5.0, 5.0, -5.0, 5.0)
        field = green_field(lift, window, 8, 200).values
        centers, _, _ = _grid_centers(window, 8, 8)
        for z, g in zip(centers.ravel(), field.ravel()):
            x, y = measures._elliptic_log(lat, complex(z))
            lam = neron_local(lat, float(x), float(y))
            assert abs(g - 2 * lam - const) <= 1e-14, z


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
        # every curve family, cell by cell, on a window off the origin
        window = (-3.0, 1.0, -1.0, 3.0)
        for curve, names in curve_families().items():
            first = metric_field(names[0], window, 48, 200)
            for name in names[1:]:
                got = metric_field(name, window, 48, 200)
                assert np.max(np.abs(got - first)) <= 1e-14, (curve, name)

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

    def test_window_fraction_is_the_raw_mass(self):
        # z^2's measure lives on the unit circle: off it the grid is
        # normalised noise, and the window fraction says so
        f = green_field(SQUARE, (10.0, 11.0, 10.0, 11.0), 64, 24)
        assert 0.0 <= measure_from_green(f).window_fraction < 1e-6
        ring = measure_from_green(green_field(SQUARE, WIN, 128, 20))
        assert ring.window_fraction == 1.0

    def test_window_fraction_matches_the_lattice(self):
        # the Laplacian mass in (-3, 3)^2 is the measure of the window,
        # which lattes_density reads off exactly; commuting maps share
        # the measure, so their Green fields give the same mass
        win = (-3.0, 3.0, -3.0, 3.0)
        for curve, pair in ((curve_E1(), ("phi_2@E1", "phi_1+i")),
                            (curve_E2(), ("phi_2@E2", "phi_3@E2"))):
            exact = lattes_density(curve, win, 256).window_fraction
            a, b = (measure_from_green(green_field(
                catalog(name), win, 256, 24)).window_fraction
                for name in pair)
            assert a == pytest.approx(exact, rel=1e-2)
            assert a == pytest.approx(b, abs=1e-6)

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

    @pytest.mark.parametrize(
        "coeffs", [[0, 1], [0j, -1], [0, 1 + 1j], [-0.0, 2], [-0.0 - 0.0j, -3j]]
    )
    def test_linear_root_at_zero_is_unsigned(self, coeffs):
        # -0.0 == 0.0, so only copysign sees the sign
        (r,) = poly_roots(coeffs)
        assert r == 0
        assert math.copysign(1.0, r.real) == 1.0
        assert math.copysign(1.0, r.imag) == 1.0

    @pytest.mark.parametrize(
        "coeffs", [[0, 0, 1], [-0.0, 1, 1], [-0.0 - 0.0j, -0.0, 1, 1j]]
    )
    def test_split_roots_at_zero_are_unsigned(self, coeffs):
        zeros = [r for r in poly_roots(coeffs) if r == 0]
        assert len(zeros) == next(k for k, c in enumerate(coeffs) if c)
        for r in zeros:
            assert math.copysign(1.0, r.real) == 1.0
            assert math.copysign(1.0, r.imag) == 1.0

    def test_repeated_root(self):
        r = poly_roots([1, 2, 1])  # (z+1)^2
        assert all(abs(z + 1) <= 1e-4 for z in r)

    @pytest.mark.parametrize("coeffs", [
        [math.nan, 1], [math.inf, 1], [1, 0, math.nan], [1, math.inf, 1],
        [1, 2, complex(1, math.nan)], [1, 1j, -math.inf * 1j],
    ])
    def test_non_finite_coefficient_is_refused(self, coeffs):
        with pytest.raises(DomainError, match="finite"):
            poly_roots(coeffs)

    def test_linear_root_beyond_the_double_range_is_refused(self):
        with pytest.raises(DomainError, match="floating-point range"):
            poly_roots([1e308, 1e-308])
        # the largest double is still a root
        assert poly_roots([-1.7976931348623157e308, 1]) == [
            1.7976931348623157e308 + 0j]


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
        # the lattice path and the Aberth tree side by side
        dbl = lattes_double(curve_E1())
        win = (-3.0, 3.0, -3.0, 3.0)
        dens = lattes_density(curve_E1(), win, 64)
        for s in (preimage_sample(dbl, 2.0, 9, seed=3),
                  _preimage_tree(dbl, 2.0, 9, 3)):
            assert s.size == 4**9
            hist = sample_histogram(s, win, 64)
            assert compare_l1(hist, dens) <= 0.15

    def test_pushforward_invariance(self):
        dbl = lattes_double(curve_E1())
        for s in (preimage_sample(dbl, 2.0, 8, seed=3),
                  _preimage_tree(dbl, 2.0, 8, 3)):
            h_before = sample_histogram(s, (-3, 3, -3, 3), 32)
            h_after = sample_histogram(map_samples(dbl, s), (-3, 3, -3, 3),
                                       32)
            assert compare_l1(h_before, h_after) <= 0.05

    def test_missed_solves_raise(self, monkeypatch):
        # with no Aberth sweep every row misses the target: 31 rows of the
        # depth-5 tree, more than the 16 that are forgiven
        monkeypatch.setattr(measures, "_PREIMAGE_SWEEPS", 0)
        with pytest.raises(ConvergenceError, match="31 of 32"):
            preimage_sample(catalog("pow_2"), 2.0, 5, seed=1)

    def test_degree_drop_in_both_charts(self):
        # (z^2+3z+1)/(z^2+5z+1) sends 0 and infinity to 1: the row of the
        # seed 1 is -2z, with no leading coefficient in either chart, and
        # keeps both preimages only through the nudged coefficient
        phi = RationalMap.from_strings(["1", "3", "1"], ["1", "5", "1"], 0)
        one = preimage_sample(phi, 1.0, 1, seed=1)
        assert one.points.tolist() == [0j] and one.n_infinite == 1
        # 0 pulls back to the roots of z^2+3z+1, infinity to those of
        # z^2+5z+1
        two = preimage_sample(phi, 1.0, 2, seed=1)
        assert two.n_infinite == 0
        want = [(-3 - 5**0.5) / 2, (-3 + 5**0.5) / 2,
                (-5 - 21**0.5) / 2, (-5 + 21**0.5) / 2]
        got = sorted(two.points, key=lambda z: z.real)
        assert np.allclose(got, sorted(want), rtol=0, atol=1e-9)

    def test_two_constructions_agree(self):
        f = green_field(SQUARE, WIN, 256, 20)
        m = coarsen(measure_from_green(f), 8)
        s = preimage_sample(catalog("pow_2"), 2.0, 16, seed=5)
        h = sample_histogram(s, WIN, 32)
        assert compare_l1(m, h) <= 0.1


# ------------------------------------------------ Lattes leaves, one by one

# the thirteen catalog maps attached to a curve, phi(wp(u)) = wp(lam u)
CURVE_MAPS = [n for n in catalog_names() if catalog_entry(n).lam is not None]


def tree_levels(monkeypatch, phi, z0, depth, seed):
    """_preimage_tree's result and each generation it solved, as points:
    the children of point p of one generation are points deg*p to
    deg*p + deg - 1 of the next."""
    levels = []
    solve = measures._solve_generation

    def spy(*args):
        a0, a1, missed = solve(*args)
        with np.errstate(divide="ignore", invalid="ignore"):
            levels.append(a0 / a1)
        return a0, a1, missed

    monkeypatch.setattr(measures, "_solve_generation", spy)
    return _preimage_tree(phi, complex(z0), depth, seed), levels


def tree_error_bounds(phi, z0, levels, chunk=1 << 16):
    """A first-order bound on each tree leaf's distance to an exact leaf.

    The tree accepts a root z of p = F0 - w F1 once |p(z)| <= tau B(z),
    with B = sum |a_k||z|^k and tau = _PREIMAGE_TOL, and its parent w is
    itself off by the parent's bound, which moves p by that much times
    |F1(z)|.  With r the sum, z lies within the smaller of r/|p'(z)| and
    sqrt(2r/|p''(z)|) of a root: the second holds near a double root,
    where p' vanishes, so the bound loosens near critical values, and
    read at the computed root it is at least half the distance.  It is
    evaluated generation by generation at the tree's own points, chunk
    parents at a time.
    """
    f0, f1 = (np.array(c) for c in phi.complex_pair())
    deg = phi.degree
    parents, bound = np.array([complex(z0)]), np.zeros(1)
    for level in levels:
        out = np.empty(level.shape)
        for lo in range(0, parents.size, chunk):
            w = parents[lo:lo + chunk].repeat(deg)
            up = bound[lo:lo + chunk].repeat(deg)
            z = level[lo * deg:lo * deg + w.size]
            p = dp = ddp = f = np.zeros_like(z)
            size = np.zeros(z.shape)
            for k in range(deg, -1, -1):
                a = f0[k] - w * f1[k]
                ddp = ddp * z + 2 * dp
                dp = dp * z + p
                p = p * z + a
                size = size * np.abs(z) + np.abs(a)
                f = f * z + f1[k]
            r = measures._PREIMAGE_TOL * size + up * np.abs(f)
            # fmin: a root exactly 0 with r = 0 and p'' = 0 reads 0/0
            with np.errstate(divide="ignore", invalid="ignore"):
                out[lo * deg:lo * deg + w.size] = np.fmin(
                    r / np.abs(dp), np.sqrt(2 * r / np.abs(ddp)))
        parents, bound = level, out
    return bound


def match_leaves(tree, lattice, tol):
    """For each tree leaf, the index of a lattice leaf within its tol, one
    to one; -1 where none is left.

    Both sets are sorted by real part, and each tree leaf's candidates
    are the lattice leaves in the window of its tol.  A pair that is the
    only candidate of both its leaves is taken as it is; the rest, the
    clusters at critical values, are taken greedily, nearest first.
    """
    ot, ol = np.argsort(tree.real), np.argsort(lattice.real)
    t, lat, tol = tree[ot], lattice[ol], tol[ot]
    lo = np.searchsorted(lat.real, t.real - tol)
    count = np.searchsorted(lat.real, t.real + tol, "right") - lo
    ti = np.repeat(np.arange(t.size), count)
    li = np.arange(ti.size) + np.repeat(lo - np.cumsum(count) + count, count)
    d = np.abs(t[ti] - lat[li])
    keep = d <= tol[ti]
    ti, li, d = ti[keep], li[keep], d[keep]
    alone = ((np.bincount(ti, minlength=t.size) == 1)[ti]
             & (np.bincount(li, minlength=lat.size) == 1)[li])
    partner = np.full(t.size, -1)
    partner[ti[alone]] = li[alone]
    taken = np.zeros(lat.size, dtype=bool)
    taken[li[alone]] = True
    rest = np.flatnonzero(~alone)
    for k in rest[np.argsort(d[rest], kind="stable")]:
        if partner[ti[k]] < 0 and not taken[li[k]]:
            partner[ti[k]] = li[k]
            taken[li[k]] = True
    out = np.full(t.size, -1)
    out[ot] = np.where(partner >= 0, ol[partner], -1)
    return out


def assert_leaves_match(monkeypatch, name, z0, depth, seed=1):
    """The lattice path against the Aberth tree, leaf by leaf.

    Each tree leaf must have its own lattice leaf within twice its
    error bound (see tree_error_bounds), plus 16 ulps of max(1, |z|) for
    the lattice leaf's rounding, measured at 5 at most against wp at 50
    digits.  Returns the largest distance over its allowance.
    """
    phi = catalog(name)
    got = preimage_sample(phi, z0, depth, seed=seed)
    tree, levels = tree_levels(monkeypatch, phi, z0, depth, seed)
    assert (got.size, got.n_infinite) == (tree.size, tree.n_infinite)
    finite = np.abs(levels[-1]) < 1e14
    tol = (2 * tree_error_bounds(phi, z0, levels)[finite]
           + 2.0**-48 * np.maximum(1.0, np.abs(tree.points)))
    del levels
    partner = match_leaves(tree.points, got.points, tol)
    assert np.all(partner >= 0), f"{np.sum(partner < 0)} tree leaves unmatched"
    return float(np.max(np.abs(tree.points - got.points[partner]) / tol))


def wp(lat, v):
    """wp(w1 v) on a Lattice by the vectorised series, for complex v
    anywhere."""
    x, y = _coords(lat, np.asarray(v, dtype=complex))
    s = np.sin(math.pi * (x + y * lat.tau))
    return _series(lat, s * s, np.empty_like(s)) * lat.scale


class TestLatticeLeaves:
    """The closed-form leaves of the curve maps against the Aberth tree,
    which keeps every other map."""

    @pytest.mark.parametrize("name,z0,depth", [
        ("phi_2@E1", 1.7 + 0.9j, 9),
        ("phi_2@E1", -0.3 + 0.05j, 7),
        ("phi_2@E2", 1.7 + 0.9j, 9),
        ("phi_2@E2", 0.2 - 2.4j, 7),
        ("phi_1+i", 0.3 - 0.2j, 14),
        ("phi_1-i", 2.0, 11),
        ("phi_sqrt-3", 2 + 1j, 8),
        ("phi_sqrt-3*rho", -0.7 + 0.4j, 7),
        ("phi_1+2i", 0.7 + 0.1j, 5),
        ("phi_2-i", 0.2 + 0.3j, 5),
        ("phi_3@E2", 0.1 + 2j, 5),
        ("phi_eps", 1.3 - 0.6j, 4),
    ])
    def test_leaves_match_tree(self, monkeypatch, name, z0, depth):
        # measured at most 1.5e-4 of the allowance away from the seeds of G
        assert assert_leaves_match(monkeypatch, name, z0, depth) <= 1e-2

    def test_cap(self, monkeypatch):
        # depth * log2(deg) = 22: 4,194,304 leaves, about 11 s in all
        assert assert_leaves_match(monkeypatch, "phi_2@E1", 0.4 + 1.3j,
                                   11) <= 1e-2

    @pytest.mark.parametrize("name,root", [
        ("phi_2@E1", 0), ("phi_2@E1", 1j), ("phi_2@E1", -1j),
        ("phi_2@E2", -1), ("phi_2@E2", cmath.exp(1j * math.pi / 3)),
        ("phi_2@E2", cmath.exp(-1j * math.pi / 3)),
        ("phi_1+i", 0), ("phi_sqrt-3", -1), ("phi_3@E1", 1j),
    ])
    def test_seed_at_root_of_g(self, monkeypatch, name, root):
        # wp'(u0) = 0 and the tree's clusters resolve only to about the
        # root of its backward error: measured 0.16 of the allowance
        depth = {2: 7, 3: 5, 4: 6, 9: 3}[catalog(name).degree]
        assert assert_leaves_match(monkeypatch, name, root, depth) <= 0.5

    @pytest.mark.parametrize("name,z0,depth", [
        ("phi_2@E1", 1e6, 6), ("phi_2@E1", 1e-6, 6), ("phi_2@E2", -1e6j, 6),
        ("phi_2@E2", 1e-6j, 6), ("phi_1+2i", 1e6 + 1e6j, 4),
        # 0 is fixed here, so the tree splits off exact roots 0, and the
        # lattice leaf there is off by its rounding alone
        ("phi_2@E2", 0, 5), ("phi_1-2i", 0, 4),
    ])
    def test_special_seeds(self, monkeypatch, name, z0, depth):
        # measured 0.15 of the allowance at most
        assert assert_leaves_match(monkeypatch, name, z0, depth) <= 0.5

    def test_leaf_at_infinity(self, monkeypatch):
        # from 1e12 the largest depth-4 leaf is about 4^4 * 1e12, which
        # both paths count at infinity
        assert_leaves_match(monkeypatch, "phi_2@E1", 1e12, 4)
        assert preimage_sample(catalog("phi_2@E1"), 1e12, 4).n_infinite == 1

    def test_leaves_against_mpmath(self):
        # one Newton step on phi^n(z) = z0 at 50 digits moves each of 60
        # leaves by at most 16 ulps of max(1, |z|) (measured: 4.7)
        rng = np.random.default_rng(2)
        with mpmath.workdps(50):
            for name, z0, depth in [("phi_2@E1", 1.7 + 0.9j, 9),
                                    ("phi_2@E2", 0.2 - 2.4j, 9),
                                    ("phi_1+2i", 0.7 + 0.1j, 6)]:
                phi = catalog(name)
                num, den = ([mpmath.mpc(complex(c)) for c in p.coeffs]
                            for p in (phi.num, phi.den))
                dnum, dden = ([k * c for k, c in enumerate(p)][:0:-1]
                              for p in (num, den))
                leaves = preimage_sample(phi, z0, depth).points
                for z in rng.choice(leaves, 60, replace=False):
                    w, dw = mpmath.mpc(z), mpmath.mpc(1)
                    for _ in range(depth):
                        n, d = (mpmath.polyval(p[::-1], w) for p in (num, den))
                        dn, dd = (mpmath.polyval(p, w) for p in (dnum, dden))
                        dw *= (dn * d - n * dd) / d**2
                        w = n / d
                    step = abs((w - z0) / dw)
                    assert step <= 16 * 2.0**-52 * max(1.0, abs(z)), (name, z)

    @pytest.mark.parametrize("name", CURVE_MAPS)
    def test_functional_equation(self, name):
        # phi(wp(u)) = wp(lam u) with lam as the catalog embeds it, and
        # wp'^2 = 4G(wp) by a five-point difference
        entry = catalog_entry(name)
        curve = curve_for_name(name)
        lat = curve_lattice(curve)
        v = np.array([0.31 + 0.12j, -0.27 + 0.4 * lat.tau, 0.05 + 0.2j])
        x = wp(lat, v)
        f0, f1 = (np.array(c) for c in entry.map.complex_pair())
        image = np.polyval(f0[::-1], x) / np.polyval(f1[::-1], x)
        want = wp(lat, complex(entry.lam) * v)
        assert np.all(np.abs(image - want) <= 1e-13 * np.maximum(1, abs(want)))
        h = 2e-4
        w1 = math.pi / np.sqrt(lat.scale)
        d = (-wp(lat, v + 2 * h) + 8 * wp(lat, v + h)
             - 8 * wp(lat, v - h) + wp(lat, v - 2 * h)) / (12 * h * w1)
        g = np.polyval([complex(curve.G.coeff(k)) for k in range(3, -1, -1)],
                       x)
        assert np.all(np.abs(d * d - 4 * g) <= 1e-9 * np.abs(4 * g))

    @pytest.mark.parametrize("name", ["E1", "E2"])
    def test_scalar_series_matches_vector(self, name):
        # Lattice.wp in Python complex and the numpy series that the
        # leaves run, on the same cached lattice (measured: 2 ulps)
        lat = curve_lattice(CURVES[name]())
        rng = np.random.default_rng(5)
        xy = rng.uniform(-0.5, 0.5, (400, 2))
        xy = xy[np.hypot(xy[:, 0], xy[:, 1]) > 1e-3]
        got = wp(lat, xy[:, 0] + xy[:, 1] * lat.tau)
        want = np.array([lat.wp(x, y) for x, y in xy])
        err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
        assert np.max(err) <= 8 * 2.0**-52

    def test_lattice_built_once_per_curve(self, monkeypatch):
        # after one call per curve no leaf or density solves a cubic or
        # runs the AGM again, and the bytes stay the same
        names = ("phi_2@E1", "phi_sqrt-3")

        def run():
            leaves = [preimage_sample(catalog(n), 0.6 - 1.1j, 5)
                      for n in names]
            dens = [lattes_density(c, WIN, 64) for c in (curve_E1(),
                                                         curve_E2())]
            return ([x.points.tobytes() for x in leaves]
                    + [(d.mass.tobytes(), repr(d.window_fraction))
                       for d in dens])

        want = run()

        def refuse(*args):
            raise AssertionError("the lattice was built again")

        monkeypatch.setattr(roots, "poly_roots", refuse)
        monkeypatch.setattr(torus, "_periods", refuse)
        assert run() == want
        assert curve_lattice.cache_info().currsize <= 2

    def test_map_file_copy_takes_lattice(self, monkeypatch, tmp_path):
        from p1dyn import cli

        phi = catalog("phi_2@E1")
        spec = tmp_path / "dbl.json"
        spec.write_text(json.dumps({
            "num": [str(c) for c in phi.num.coeffs],
            "den": [str(c) for c in phi.den.coeffs], "field": {"d": 1}}))
        copy = cli._map_from_file(str(spec))
        assert copy is not phi and copy == phi
        want = preimage_sample(phi, 0.3 + 0.2j, 5)

        def no_tree(*args):
            raise AssertionError("the tree ran")

        monkeypatch.setattr(measures, "_preimage_tree", no_tree)
        got = preimage_sample(copy, 0.3 + 0.2j, 5)
        assert got.points.tobytes() == want.points.tobytes()

    def test_other_maps_keep_tree(self, monkeypatch):
        phi = catalog("phi_2@E1")
        # conjugate by z -> 2z: z -> phi(2z)/2 is another Lattes map,
        # attached to no catalog entry
        double = RationalMap.from_strings(["0", "2"], ["1"], 1)
        half = RationalMap.from_strings(["0", "1/2"], ["1"], 1)
        conj = half.compose(phi.compose(double))
        assert conj != phi and conj.degree == 4

        def no_lattice(*args):
            raise AssertionError("the lattice path ran")

        monkeypatch.setattr(measures, "_lattice_leaves", no_lattice)
        for psi in (conj, catalog("pow_2")):
            got = preimage_sample(psi, 0.3 + 0.2j, 4, seed=2)
            want = _preimage_tree(psi, 0.3 + 0.2j, 4, 2)
            assert got.points.tobytes() == want.points.tobytes()

    def test_same_bytes_across_runs_and_seeds(self):
        phi = catalog("phi_sqrt-3")
        runs = [preimage_sample(phi, 0.6 - 1.1j, 6, seed=s) for s in (0, 0, 7)]
        assert len({r.points.tobytes() for r in runs}) == 1
        assert [r.seed for r in runs] == [0, 0, 7]

    def test_log_budget_raises(self, monkeypatch):
        # no residual is small enough: the steps run out
        monkeypatch.setattr(measures, "_LOG_ULPS", -1)
        with pytest.raises(ConvergenceError, match="elliptic logarithm"):
            preimage_sample(catalog("phi_2@E1"), 0.3 + 0.2j, 2)


def oracle_plane_mass(gc, roots, radius=8.0, base=64, levels=6):
    """Coarse oracle for the integral of 1/|G| over the plane.

    Midpoint rule on [-radius, radius]^2, cells near a root of G split 4x4
    down `levels` times, plus 2*pi/radius for the tail outside the disc of
    that radius.  The square's corners are counted twice, and it is off
    by up to about 0.5 %.
    """
    cell = 2.0 * radius / base
    xs = -radius + cell * (np.arange(base) + 0.5)
    cx, cy = np.meshgrid(xs, xs)
    centers = (cx + 1j * cy).ravel()
    sizes = np.full(centers.shape, cell)
    rts = np.array(roots)
    total = 0.0
    for level in range(levels):
        dmin = np.min(np.abs(centers[:, None] - rts[None, :]), axis=1)
        near = dmin < 1.5 * sizes * math.sqrt(2.0)
        total += float(np.sum(sizes[~near] ** 2
                              / _abs_g_on(gc, centers[~near])))
        centers, sizes = centers[near], sizes[near]
        if level < levels - 1:
            offs = np.arange(4) - 1.5
            ox, oy = np.meshgrid(offs, offs)
            shift = (ox + 1j * oy).ravel()
            centers = (centers[:, None]
                       + sizes[:, None] / 4.0 * shift[None, :]).ravel()
            sizes = np.repeat(sizes / 4.0, 16)
    vals = _abs_g_on(gc, centers)
    keep = vals > 1e-300
    total += float(np.sum(sizes[keep] ** 2 / vals[keep]))
    return total + 2.0 * math.pi / radius


def curve_roots(curve):
    gc = [complex(curve.G.coeff(k)) for k in range(4)]
    return gc, poly_roots(gc)


CUBIC_ROOT = st.builds(
    complex, st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)
)


def separated(roots):
    return min(abs(roots[i] - roots[j])
               for i in range(3) for j in range(i)) >= 0.1


class TestLatticeMass:
    """Lattice.mass is the integral of 1/|G|, half the covolume of the
    period lattice of dx/y on y^2 = G."""

    def test_closed_forms(self):
        g = math.gamma
        e1 = g(0.25) ** 4 / (4.0 * math.pi)
        e2 = math.sqrt(3.0) * g(1.0 / 3.0) ** 6 / (
            2.0 ** (8.0 / 3.0) * math.pi**2)
        for curve, exact in ((curve_E1(), e1), (curve_E2(), e2)):
            _, roots = curve_roots(curve)
            assert Lattice(roots).mass == pytest.approx(exact, rel=1e-13)

    def test_curve_masses_keep_their_bits(self):
        # every window_fraction of lattes_density divides by these bits
        assert repr(curve_lattice(curve_E1()).mass) == "13.750371636040741"
        assert repr(curve_lattice(curve_E2()).mass) == "10.216231435665113"

    def test_root_order_is_irrelevant(self):
        roots = [0.3 + 1.1j, -1.7 - 0.2j, 2.2 - 0.9j]
        ref = Lattice(roots).mass
        for perm in ((1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)):
            assert Lattice([roots[i] for i in perm]).mass == pytest.approx(
                ref, rel=1e-13)

    @settings(max_examples=200, deadline=None)
    @given(roots=st.lists(CUBIC_ROOT, min_size=3, max_size=3).filter(
        separated), shift=CUBIC_ROOT, scale=CUBIC_ROOT.filter(
        lambda s: 0.1 <= abs(s)))
    def test_translation_and_scaling(self, roots, shift, scale):
        ref = Lattice(roots).mass
        moved = Lattice([r + shift for r in roots]).mass
        assert moved == pytest.approx(ref, rel=1e-12)
        scaled = Lattice([r * scale for r in roots]).mass
        assert scaled == pytest.approx(ref / abs(scale), rel=1e-12)

    def test_periods_by_direct_integration(self):
        # 2 * integral of dx/y from e_a to e_b is a period of dx/y; on a
        # segment that misses e_c, sqrt(e_a - e_c) sqrt(1 + t r) continues
        # y along it (real roots: the middle one first)
        def period(ea, eb, ec):
            r = (eb - ea) / (ea - ec)
            return 2 * mpmath.quad(
                lambda t: 1 / (mpmath.sqrt(t * (1 - t))
                               * mpmath.sqrt(1 + t * r)),
                [0, 1]) / mpmath.sqrt(ea - ec)

        rng = np.random.default_rng(5)
        cases = [[0.25 + 0j, -1.0 + 0j, 2.0 + 0j]]
        cases += [list(rng.normal(size=3) + 1j * rng.normal(size=3))
                  for _ in range(4)]
        with mpmath.workdps(30):
            for roots in cases:
                e1, e2, e3 = (mpmath.mpc(r) for r in roots)
                w1, w2 = period(e1, e2, e3), period(e1, e3, e2)
                exact = abs(mpmath.im(mpmath.conj(w1) * w2)) / 2
                assert Lattice(roots).mass == pytest.approx(
                    float(exact), rel=1e-13)

    def test_coarse_quadrature_agrees(self):
        cases = [curve_roots(curve_E1()), curve_roots(curve_E2())]
        rng = np.random.default_rng(11)
        while len(cases) < 8:
            roots = list(rng.uniform(-2, 2, 3) + 1j * rng.uniform(-2, 2, 3))
            if separated(roots):
                cases.append((list(np.poly(roots)[::-1]), roots))
        for gc, roots in cases:
            exact = Lattice(roots).mass
            assert oracle_plane_mass(gc, roots) == pytest.approx(
                exact, rel=1e-2)

    def test_double_root_raises(self):
        # b = sqrt(e1 - e2) = 0, and AGM(a, 0) halves a forever
        with pytest.raises(ConvergenceError, match="AGM"):
            Lattice([1.0 + 0j, 1.0 + 0j, -1.0 + 0j])


class TestLattesDensity:
    def test_window_fraction_is_gridded_over_exact_mass(self):
        win = (-3.0, 3.0, -3.0, 3.0)
        d = lattes_density(curve_E2(), win, 128)
        assert d.window_fraction == pytest.approx(0.81246, abs=5e-6)

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

    def test_curve_that_does_not_split_raises(self):
        # y^2 = x^3 - 2x: the roots +-sqrt(2) are not in Q(i)
        curve = EllipticCurveCM(Poly([0, -2, 0, 1], 1), 1)
        with pytest.raises(DomainError, match="does not split"):
            lattes_density(curve, WIN, 16)

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
        # abs(nan - 1.0) > 1e-9 is False: the total alone lets NaN through
        with pytest.raises(DomainError, match="non-finite"):
            DensityGrid(WIN, (2, 2), np.array([[np.nan, 0.5], [0.5, 0.0]]))
        with pytest.raises(DomainError, match="non-finite"):
            DensityGrid(WIN, (2, 1), np.array([[np.inf, -np.inf]]))
        quarter = np.full((2, 2), 0.25)
        for frac in (float("nan"), -1.0, 2.0, np.nextafter(1.0, 2.0)):
            with pytest.raises(DomainError, match="window_fraction"):
                DensityGrid(WIN, (2, 2), quarter, window_fraction=frac)
        for frac in (0.0, 1.0):
            DensityGrid(WIN, (2, 2), quarter.copy(), window_fraction=frac)
        # compare_l1 would broadcast a (4,) grid against a (2, 2) one
        for res, mass in (((4, 1), quarter), ((2, 2), np.full(4, 0.25)),
                          ((1, 2), np.full((1, 2), 0.5))):
            with pytest.raises(DomainError, match="shape"):
                DensityGrid(WIN, res, mass)
        DensityGrid(WIN, (1, 2), np.full((2, 1), 0.5))


# every curve-attached catalog map at periods 1 and 2 (degree^2 <= 81)
_INF_CASES = [(name, n) for name in catalog_names()
              if catalog_entry(name).lam is not None for n in (1, 2)]



def _largest_period(name):
    n = 1
    while catalog(name).degree ** (n + 1) <= 200:
        n += 1
    return n


# every curve-attached map at its largest period under the degree^n <= 200
# cap, and the two degree-2 maps at n = 6 as well: the ten cases that the
# old start refused are among them
_CAP_CASES = sorted(
    {(name, _largest_period(name)) for name in catalog_names()
     if catalog_entry(name).lam is not None}
    | {("phi_1+i", 6), ("phi_1-i", 6)})


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

    def test_chebyshev_multipliers(self):
        # T_2 = z^2 - 2 is conjugate to z^2 on [-2, 2] through
        # z = y + 1/y, so T_2^3 = T_8 has multiplier T_8'(2 cos t) =
        # 8 sin 8t / sin t = +-8 at each fixed point 2 cos t inside
        # (-2, 2), 8^2 = 64 at z = 2 and 0 at infinity
        t2 = RationalMap.from_strings(["-2", "0", "1"], ["1"], 0)
        pp = periodic_points(t2, 3)
        assert len(pp) == 9
        assert pp[-1] == (INF_POINT, 0j)
        *inner, (top, m_top) = pp[:-1]
        assert abs(top - 2) <= 1e-10 and abs(m_top - 64) <= 1e-10
        for z, m in inner:
            assert abs(z.imag) <= 1e-10 and -2 < z.real < 2
            assert abs(abs(m.real) - 8) <= 1e-10 and abs(m.imag) <= 1e-10

    def test_identity_iterate_refused(self):
        # every point is periodic when phi^n is the identity
        inv = RationalMap.from_strings(["1"], ["0", "1"], 0)
        ident = RationalMap.from_strings(["0", "1"], ["1"], 0)
        for phi, n in ((inv, 2), (inv, 4), (ident, 1), (ident, 3)):
            with pytest.raises(DomainError, match="identity"):
                periodic_points(phi, n)
        fixed = sorted(z.real for z, _ in periodic_points(inv, 1))
        assert fixed == pytest.approx([-1.0, 1.0], abs=1e-12)

    @pytest.mark.parametrize("name,n", _INF_CASES)
    def test_infinity_multiplier_is_exact(self, name, n):
        # infinity is the image of the curve's origin, where the multiplier
        # of phi_lambda^n is lambda^(2n) (Milnor, "On Lattes maps"); read
        # from two exact coefficients, it is that number to the last bit
        entry = catalog_entry(name)
        pts = periodic_points(entry.map, n)
        (m_inf,) = [m for z, m in pts if z == INF_POINT]
        assert m_inf == complex(entry.lam ** (2 * n))
        # == cannot see a signed zero
        assert m_inf.imag or math.copysign(1.0, m_inf.imag) == 1.0

    def test_infinity_multiplier_of_affine_map(self):
        # z -> 2z + 1 is w -> w / (2 + w) at w = 1/z
        phi = RationalMap.from_strings(["1", "2"], ["1"], 0)
        assert periodic_points(phi, 1)[-1] == (INF_POINT, 0.5 + 0j)

    @pytest.mark.parametrize("name,n", _CAP_CASES)
    def test_cap_cases_right(self, name, n):
        # degree^n = 64, 81, 125 or 128, at the cap: every point is found,
        # and off the postcritical set each multiplier has modulus
        # |lambda|^n (Milnor, "On Lattes maps"), well within the time a
        # caller waits
        entry = catalog_entry(name)
        phi = entry.map
        t0 = time.perf_counter()
        pts = periodic_points(phi, n)
        assert time.perf_counter() - t0 < 1.0
        assert len(pts) == phi.degree**n + 1
        post = [complex(t) for t in two_torsion_targets(
            curve_for_name(name)) if not t.is_infinity()]
        want = abs(complex(entry.lam)) ** n
        for z, mult in pts:
            if z != INF_POINT and all(abs(z - q) > 1e-6 for q in post):
                assert abs(abs(mult) - want) <= 1e-6 * want

    @pytest.mark.parametrize("name,other,n", [
        ("phi_1+i", "phi_1-i", 4), ("phi_2@E1", "phi_1+i", 3),
        ("phi_3@E1", "phi_1+2i", 2), ("phi_sqrt-3", "phi_2@E2", 3),
        ("phi_eps", "phi_sqrt-3*rho", 2), ("pow_2", "pow_3", 5),
    ])
    def test_commuting_map_keeps_the_periodic_set(self, name, other, n):
        # psi o phi = phi o psi, so psi carries each point of period
        # dividing n under phi to another one
        phi, psi = catalog(name), catalog(other)
        assert phi.commutes_with(psi)
        pts = [z for z, _ in periodic_points(phi, n)]
        lift = Lift.from_map(psi)
        pairs = [(1.0 + 0j, 0j) if z == INF_POINT else (z, 1.0 + 0j)
                 for z in pts]

        def chordal(p, q):
            return abs(p[0] * q[1] - p[1] * q[0]) / (
                math.hypot(abs(p[0]), abs(p[1]))
                * math.hypot(abs(q[0]), abs(q[1])))

        for p in pairs:
            image = tuple(complex(w) for w in lift.eval(*p))
            assert min(chordal(image, q) for q in pairs) <= 1e-8

    def test_roots_off_their_cycles_raise(self, monkeypatch):
        # with no tolerance the rounding of the float orbit alone fails the
        # check; the roots and their residuals come with the error.  z^2 + i
        # is no catalog map, so it takes the root solve
        monkeypatch.setattr(periodic, "_CYCLE_TOL", 0.0)
        phi = RationalMap.from_strings(["w", "0", "1"], ["1"], 1)
        with pytest.raises(ConvergenceError, match="miss their cycles") as err:
            periodic_points(phi, 2)
        assert len(err.value.partial) == len(err.value.residuals) == 4
        assert max(err.value.residuals) > 0.0

    def test_root_at_zero_is_exact(self):
        # z^9 - z has the root 0, split off before the iteration
        pts = periodic_points(catalog("pow_3"), 2)
        (zero,) = [(z, m) for z, m in pts if abs(z) < 0.5]
        assert zero == (0j, 0j)
        assert not any(math.copysign(1.0, x) < 0
                       for x in (zero[0].real, zero[0].imag))


def _arcsine_mass(a, b):
    """mu([a, b]) of the arcsine law on [-2, 2], the measure of T_2."""
    a, b = (min(max(t, -2.0), 2.0) for t in (a, b))
    return (math.asin(b / 2) - math.asin(a / 2)) / math.pi


class TestChebyshevArcsine:
    # T_2 = z^2 - 2 has Julia set [-2, 2] and the arcsine law as its
    # measure: a measure on a segment, which the Lattes and circle checks
    # never reach.  The values are deterministic; each bound is the value
    # measured when the check was written, with the margin stated.
    T2 = RationalMap.from_strings(["-2", "0", "1"], ["1"], 0)

    def test_measure_from_green_columns(self):
        window = (-2.5, 2.5, -0.5, 0.5)
        field = green_field(self.T2, window, (200, 40), 30)
        cols = measure_from_green(field).mass.sum(axis=0)
        edges = np.linspace(-2.5, 2.5, 201)
        want = [_arcsine_mass(a, b) for a, b in zip(edges, edges[1:])]
        # measured 0.0311 (half L1, as compare_l1); margin 1/8
        assert 0.5 * np.sum(np.abs(cols - want)) <= 0.035

    def test_preimage_tree_histogram(self):
        tree = preimage_sample(self.T2, 0.3 + 0.1j, 14, seed=1)
        assert tree.n_infinite == 0 and tree.size == 2**14
        hist, edges = np.histogram(tree.points.real, bins=200,
                                   range=(-2.0, 2.0))
        want = [_arcsine_mass(a, b) for a, b in zip(edges, edges[1:])]
        # measured 0.0018 (half L1 over the 200 bins); margin 1/3
        assert 0.5 * np.sum(np.abs(hist / tree.size - want)) <= 0.0024
        # the Julia set is real; the clusters near +-2 resolve only to
        # about sqrt(backward error): measured 6.2e-6, margin 1/3
        assert np.max(np.abs(tree.points.imag)) <= 8.2e-6


class TestRaster:
    def test_dark_ring(self):
        img = julia_raster(green_field(catalog("pow_2"), WIN, 96, 20))
        assert img.dtype == np.uint8 and img.shape == (96, 96)
        cz, _, _ = _grid_centers(WIN, 96, 96)
        ring = np.abs(np.abs(cz) - 1.0) < 0.03
        assert float(img[ring].mean()) < 128
        assert img[0, 0] == 255

    def test_deterministic(self):
        a = julia_raster(green_field(catalog("pow_2"), WIN, 64, 16))
        b = julia_raster(green_field(catalog("pow_2"), WIN, 64, 16))
        assert np.array_equal(a, b)

    def test_field_input(self):
        f = green_field(SQUARE, WIN, 64, 16)
        img = julia_raster(f)
        assert img.shape == (64, 64)

    def test_window_without_julia_set_stays_light(self):
        # (20, 21)^2 holds a share of about 1e-10 of the measure of z^2;
        # normalised to mass 1 its round-off would fill the raster
        img = julia_raster(
            green_field(catalog("pow_2"), (20, 21, 20, 21), 64, 24))
        assert (img == 255).all()
        # the whole Julia set in view keeps its dark cells
        img = julia_raster(
            green_field(catalog("pow_2"), (-2, 2, -2, 2), 64, 24))
        assert int((img < 128).sum()) == 124

    def test_degree_one_rejected_upstream(self):
        from p1dyn.ratmaps import Poly, RationalMap
        linear = RationalMap(Poly([1, 1], 0), Poly([1], 0))
        with pytest.raises(DomainError):
            preimage_sample(linear, 2.0, 2)


class TestExport:
    def test_pgm_bytes(self, tmp_path):
        img = julia_raster(green_field(catalog("pow_2"), WIN, 64, 16))
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


def _far_density():
    # |G| overflows to inf on every cell, so each cell's mass is 0.0
    lattes_density(curve_E1(), (1e150, 2e150, 1e150, 2e150), 8)


class TestInputErrors:
    """Every refused input of the analytic layer raises with its reason."""

    @pytest.mark.parametrize("call,message", [
        (lambda: green_field(SQUARE, WIN, 1, 8), "at least 2 cells"),
        (lambda: green("pow_2", 2.0, 4), "expected a Lift or a RationalMap"),
        (lambda: GreenField(WIN, (2, 2), np.full((2, 2), np.nan), 1),
         "non-finite entries"),
        (lambda: green_field(SQUARE, WIN, 32, 0), "at least one iteration"),
        (lambda: preimage_sample(catalog("pow_2"), 2.0, -1),
         "depth must be nonnegative"),
        (lambda: preimage_sample(catalog("pow_2"), complex("nan"), 2),
         "seed_point must be finite"),
        (lambda: sample_histogram(preimage_sample(catalog("pow_2"), 2.0, 4),
                                  (10, 11, 10, 11), 8),
         "no sample points fall inside the window"),
        (_far_density, "window captures no mass"),
        # |G| times z overflows to nan, and the cell area dx dy to inf
        (lambda: lattes_density(curve_E1(), (1e300, 1.5e300, -1e300, 1e300),
                                8),
         "window captures no mass"),
        # the same in the subsampled cells at the root 0 of G
        (lambda: lattes_density(curve_E1(), (0, 1e160, 0, 1e160), 8),
         "window captures no mass"),
        # b - a overflows to inf, so every cell centre is inf or nan
        (lambda: green_field(SQUARE, (-1e308, 1e308, 0, 1), 8, 8),
         "nonempty finite rectangle"),
        (lambda: periodic_points(catalog("pow_2"), 0),
         "period must be at least 1"),
        (lambda: write_pgm(None, np.zeros((2, 2, 2))), "2-D grayscale"),
    ])
    def test_domain_error(self, call, message):
        with pytest.raises(DomainError, match=message):
            call()

    def test_multiplier_outside_the_lattice_endomorphisms(self):
        # 1/2 maps no period lattice into itself
        half = QuadFieldElement(1, 0, 1) / 2
        entry = CatalogEntry("phi_2@E1", catalog("phi_2@E1"), half, "E1")
        with pytest.raises(ConvergenceError, match="period lattice"):
            _lattice_leaves(entry, 2.0, 1)

    def test_density_of_a_window_without_roots(self):
        # no root of G = z^3 + z within a cell of this window, so every
        # cell keeps its midpoint value
        win = (2.0, 3.0, 2.0, 3.0)
        d = lattes_density(curve_E1(), win, 8)
        cz, dx, dy = _grid_centers(win, 8, 8)
        mid = dx * dy / np.abs(cz**3 + cz)
        assert np.allclose(d.mass, mid / mid.sum(), rtol=1e-12, atol=0)


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
