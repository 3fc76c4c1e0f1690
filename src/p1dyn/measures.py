"""Complex-analytic layer: Green's functions, equilibrium measures,
preimage sampling, periodic points, and raster export.

Everything here runs in double precision.  Tolerances are those of
numerical potential theory (grids, histograms, root residuals), not the
certified bounds of the height engine; see heights for the exact side.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .lattes import EllipticCurveCM
from .ratmaps import Poly, RationalMap

TWO_PI = 2.0 * math.pi

# point at infinity marker used in periodic-point listings
INF_POINT = complex(float("inf"), 0.0)


def _check_window(window):
    try:
        a, b, c, d = (float(t) for t in window)
    except (TypeError, ValueError):
        raise DomainError("window is (re_min, re_max, im_min, im_max)")
    if not all(math.isfinite(t) for t in (a, b, c, d)) or a >= b or c >= d:
        raise DomainError("window must be a nonempty finite rectangle")
    return (a, b, c, d)


def _resolution_pair(resolution):
    if isinstance(resolution, (int, np.integer)):
        nx = ny = int(resolution)
    else:
        nx, ny = (int(t) for t in resolution)
    if nx < 2 or ny < 2:
        raise DomainError("resolution must be at least 2 cells per axis")
    return nx, ny


def _grid_centers(window, nx, ny):
    a, b, c, d = window
    dx = (b - a) / nx
    dy = (d - c) / ny
    xs = a + dx * (np.arange(nx) + 0.5)
    ys = c + dy * (np.arange(ny) + 0.5)
    return xs[None, :] + 1j * ys[:, None], dx, dy


class Lift:
    """Homogeneous lift (F0, F1) of a degree-alpha map to C^2.

    Rescaling the pair by a constant is the lift ambiguity; Green values
    shift by an additive constant and every derived measure is unchanged.
    Coefficient lists are constant-term first, padded to degree + 1.
    """

    def __init__(self, f0, f1, degree: int | None = None):
        f0 = [complex(c) for c in f0]
        f1 = [complex(c) for c in f1]
        if degree is None:
            degree = max(len(f0), len(f1)) - 1
        if degree < 1:
            raise DomainError("lift degree must be at least 1")
        if len(f0) > degree + 1 or len(f1) > degree + 1:
            raise DomainError("coefficient list longer than degree + 1")
        f0 = f0 + [0j] * (degree + 1 - len(f0))
        f1 = f1 + [0j] * (degree + 1 - len(f1))
        self.degree = int(degree)
        self.f0 = np.array(f0, dtype=complex)
        self.f1 = np.array(f1, dtype=complex)
        self.f0.setflags(write=False)
        self.f1.setflags(write=False)
        if self._degenerate():
            raise DomainError("degenerate lift: resultant vanishes")

    def _degenerate(self) -> bool:
        n = self.degree
        M = np.zeros((2 * n, 2 * n), dtype=complex)
        a = self.f0[::-1]
        b = self.f1[::-1]
        for i in range(n):
            M[i, i : i + n + 1] = a
            M[n + i, i : i + n + 1] = b
        sign, logdet = np.linalg.slogdet(M)
        if sign == 0 or not np.isfinite(logdet):
            return True
        hadamard = np.sum(np.log(np.maximum(
            np.sqrt(np.sum(np.abs(M) ** 2, axis=1)), 1e-300)))
        return logdet < hadamard + math.log(1e-12)

    @classmethod
    def from_map(cls, phi: RationalMap) -> "Lift":
        n, m = phi.complex_pair()
        return cls(n, m, phi.degree)

    def scaled(self, c) -> "Lift":
        c = complex(c)
        if c == 0:
            raise DomainError("lift scale must be nonzero")
        return Lift(list(self.f0 * c), list(self.f1 * c), self.degree)

    def eval(self, w0, w1):
        """Evaluate both forms; accepts scalars or numpy arrays."""
        acc0 = self.f0[-1] * np.ones_like(w0)
        acc1 = self.f1[-1] * np.ones_like(w0)
        p1 = w1
        for k in range(self.degree - 1, -1, -1):
            acc0 = acc0 * w0 + self.f0[k] * p1
            acc1 = acc1 * w0 + self.f1[k] * p1
            p1 = p1 * w1
        return acc0, acc1


def _as_lift(obj) -> Lift:
    if isinstance(obj, Lift):
        return obj
    if isinstance(obj, RationalMap):
        return Lift.from_map(obj)
    raise DomainError("expected a Lift or a RationalMap")


@dataclass(frozen=True, eq=False)
class GreenField:
    """Grid of Green values g(z) over a window."""

    window: tuple
    resolution: tuple
    values: np.ndarray
    iterations: int

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise DomainError("Green field has non-finite entries")
        self.values.setflags(write=False)


@dataclass(frozen=True, eq=False)
class DensityGrid:
    """Nonnegative cell masses over a window, summing to one.

    window_fraction records how much of the full measure the window is
    believed to capture (1.0 when unknown/irrelevant).
    """

    window: tuple
    resolution: tuple
    mass: np.ndarray
    window_fraction: float = 1.0

    def __post_init__(self):
        if np.any(self.mass < 0):
            raise DomainError("density grid has negative cells")
        total = float(self.mass.sum())
        if abs(total - 1.0) > 1e-9:
            raise DomainError(f"density grid mass {total} is not 1")
        self.mass.setflags(write=False)

    def coarsen(self, factor: int) -> "DensityGrid":
        """Sum blocks of factor x factor cells into a coarser grid."""
        nx, ny = self.resolution
        if factor < 1 or nx % factor or ny % factor:
            raise DomainError("factor must divide both resolutions")
        m = self.mass.reshape(ny // factor, factor, nx // factor, factor)
        return DensityGrid(
            self.window,
            (nx // factor, ny // factor),
            m.sum(axis=(1, 3)),
            self.window_fraction,
        )


def _green_core(lift: Lift, w0, w1, n: int, metric0: str):
    if metric0 not in ("sup", "fs"):
        raise DomainError("metric0 must be 'sup' or 'fs'")
    m = np.maximum(np.abs(w0), np.abs(w1))
    g = np.log(m)
    w0 = w0 / m
    w1 = w1 / m
    scale = 1.0
    for _ in range(n):
        w0, w1 = lift.eval(w0, w1)
        m = np.maximum(np.abs(w0), np.abs(w1))
        scale /= lift.degree
        g = g + np.log(m) * scale
        w0 = w0 / m
        w1 = w1 / m
    if metric0 == "fs":
        g = g + 0.5 * scale * np.log(np.abs(w0) ** 2 + np.abs(w1) ** 2)
    return g


def green(lift, z, n: int, metric0: str = "sup") -> float:
    """n-th renormalized Green value at the point (z, 1).

    Successive n differ by at most C/deg^n, so the returned value is
    within C/(deg^n (deg-1)) of the limit.  metric0 picks the norm read
    off at the last step: plain sup or the rotation-invariant quadratic
    mean; the choice moves the value by at most (log 2)/(2 deg^n).
    """
    if n < 1:
        raise DomainError("need at least one iteration")
    lift = _as_lift(lift)
    val = _green_core(
        lift, np.asarray(complex(z)), np.asarray(1.0 + 0j), n, metric0
    )
    return float(val)


def green_field(
    lift, window, resolution, n: int, metric0: str = "sup"
) -> GreenField:
    """green() evaluated on the cell centers of a window grid."""
    if n < 1:
        raise DomainError("need at least one iteration")
    lift = _as_lift(lift)
    window = _check_window(window)
    nx, ny = _resolution_pair(resolution)
    centers, _, _ = _grid_centers(window, nx, ny)
    vals = _green_core(
        lift, centers, np.ones_like(centers), n, metric0
    )
    return GreenField(window, (nx, ny), np.asarray(vals, dtype=float), n)


def measure_from_green(field: GreenField) -> DensityGrid:
    """Equilibrium measure as the normalized discrete Laplacian of g.

    Five-point stencil on interior cells, negative noise clamped to
    zero, boundary ring zeroed, mass normalized to one.
    """
    nx, ny = field.resolution
    if min(nx, ny) < 32:
        raise DomainError("needs resolution of at least 32 cells per axis")
    a, b, c, d = field.window
    dx = (b - a) / nx
    dy = (d - c) / ny
    g = field.values
    lap = np.zeros_like(g)
    lap[1:-1, 1:-1] = (
        (g[1:-1, 2:] + g[1:-1, :-2] - 2.0 * g[1:-1, 1:-1]) / dx**2
        + (g[2:, 1:-1] + g[:-2, 1:-1] - 2.0 * g[1:-1, 1:-1]) / dy**2
    )
    mass = np.maximum(lap, 0.0) * (dx * dy) / TWO_PI
    total = float(mass.sum())
    if total <= 0.0:
        raise DomainError("flat Green field: no measure in this window")
    return DensityGrid(field.window, (nx, ny), mass / total)


# ---------------------------------------------------------------- roots

def _poly_val(C, z):
    # C: (N, w) constant-first rows; z: (N, m); Horner down the columns
    acc = np.broadcast_to(C[:, -1][:, None], z.shape).copy()
    for k in range(C.shape[1] - 2, -1, -1):
        acc = acc * z + C[:, k][:, None]
    return acc


def _aberth_batch(C, rng=None, tol=1e-10, max_iter=300):
    """Simultaneous root iteration on a batch of same-degree polynomials.

    C is (N, deg+1), constant term first, leading column nonzero.
    Returns (roots (N, deg), converged (N,), residuals (N, deg)).
    The convergence test is scale-free: |p(z)| against the coefficient
    one-norm times max(1, |z|)^deg.
    """
    C = np.asarray(C, dtype=complex)
    N, w = C.shape
    deg = w - 1
    monic = C / C[:, -1][:, None]
    dC = monic[:, 1:] * np.arange(1, deg + 1)

    # Fujiwara bound: 2 * max_k |a_{deg-k}|^(1/k) encloses every root
    mags = np.abs(monic[:, deg - 1 :: -1])
    exps = 1.0 / np.arange(1, deg + 1)
    radius = 2.0 * np.max(mags ** exps[None, :], axis=1) + 0.25
    angles = TWO_PI * (np.arange(deg) + 0.376) / deg
    tilt = (
        rng.uniform(0.0, TWO_PI / deg, size=N)
        if rng is not None
        else np.full(N, 0.19)
    )
    z = radius[:, None] * np.exp(1j * (angles[None, :] + tilt[:, None]))

    scale = np.sum(np.abs(monic), axis=1)[:, None]
    active = np.ones(N, dtype=bool)
    for _ in range(max_iter):
        val = _poly_val(monic, z)
        bound = tol * scale * np.maximum(1.0, np.abs(z)) ** deg
        row_done = np.all(np.abs(val) <= bound, axis=1)
        active = ~row_done
        if not np.any(active):
            break
        vald = _poly_val(dC[active], z[active])
        vald = np.where(vald == 0, 1e-300, vald)
        newton = val[active] / vald
        diff = z[active, :, None] - z[active, None, :]
        idx = np.arange(deg)
        diff[:, idx, idx] = 1.0
        diff = np.where(diff == 0, 1e-300, diff)
        s = np.sum(1.0 / diff, axis=2) - 1.0 / diff[:, idx, idx]
        denom = 1.0 - newton * s
        denom = np.where(np.abs(denom) < 1e-30, 1e-30, denom)
        zn = z[active] - newton / denom
        z[active] = zn
    val = _poly_val(monic, z)
    bound = tol * scale * np.maximum(1.0, np.abs(z)) ** deg
    converged = np.all(np.abs(val) <= bound, axis=1)
    return z, converged, np.abs(val)


def poly_roots(coeffs, tol: float = 1e-10, max_iter: int = 300) -> list:
    """All complex roots by simultaneous (Aberth-style) iteration.

    coeffs is constant term first.  Residuals are checked against
    tol * ||p||_1 * max(1,|root|)^deg; failure to reach that after
    max_iter sweeps raises with the residual list attached.
    """
    c = [complex(x) for x in coeffs]
    if len(c) < 2:
        raise DomainError("need degree at least 1")
    if c[-1] == 0:
        raise DomainError("leading coefficient must be nonzero")
    deg = len(c) - 1
    if deg == 1:
        return [-c[0] / c[1]]
    roots, ok, resid = _aberth_batch(
        np.array([c]), rng=None, tol=tol, max_iter=max_iter
    )
    if not ok[0]:
        raise ConvergenceError(
            f"root iteration stalled after {max_iter} sweeps",
            residuals=[float(r) for r in resid[0]],
        )
    out = [complex(r) for r in roots[0]]
    out.sort(key=lambda r: (r.real, r.imag))
    return out


# ------------------------------------------------------------- sampling

@dataclass(frozen=True, eq=False)
class ComplexSampleSet:
    """A generation of preimages: finite points plus an infinity count."""

    points: np.ndarray
    n_infinite: int
    seed: int
    depth: int

    def __post_init__(self):
        self.points.setflags(write=False)

    @property
    def size(self) -> int:
        return len(self.points) + self.n_infinite


_BATCH = 1 << 16


def _solve_generation(f0, f1, deg, a0, a1, rng, tol=1e-8, max_iter=120):
    """All preimages of the projective points (a0[i] : a1[i]).

    Solves a1*F0 - a0*F1 = 0 per point, flipping to the w = 1/z chart
    for points far from the origin so the root finder stays conditioned.
    Returns projective pairs of the next generation and the count of
    rows that missed the (relaxed) residual target.
    """
    n = len(a0)
    out0 = np.empty(n * deg, dtype=complex)
    out1 = np.empty(n * deg, dtype=complex)
    missed = 0
    for lo in range(0, n, _BATCH):
        hi = min(lo + _BATCH, n)
        b0, b1 = a0[lo:hi], a1[lo:hi]
        C = b1[:, None] * f0[None, :] - b0[:, None] * f1[None, :]
        # chart per row: far points solve in w = 1/z, and a collapsing
        # leading coefficient (preimage at the chart's infinity) forces
        # the other chart regardless
        cmax = np.max(np.abs(C), axis=1)
        flip = np.abs(b0) > 2.0 * np.abs(b1)
        weak_z = np.abs(C[:, -1]) < 1e-13 * cmax
        weak_w = np.abs(C[:, 0]) < 1e-13 * cmax
        flip = np.where(weak_z & ~weak_w, True, flip)
        flip = np.where(weak_w & ~weak_z, False, flip)
        C[flip] = C[flip, ::-1]
        lead_ok = np.abs(C[:, -1]) > 0
        if not np.all(lead_ok):
            # a vanishing leading coefficient in both charts means the
            # point sits on tree branches through an exact degree drop;
            # nudge the coefficient rather than losing the whole row
            C[~lead_ok, -1] = 1e-280
        roots, converged, _ = _aberth_batch(
            C, rng=rng, tol=tol, max_iter=max_iter
        )
        missed += int(np.sum(~converged))
        r0 = np.where(flip[:, None], np.ones_like(roots), roots)
        r1 = np.where(flip[:, None], roots, np.ones_like(roots))
        # renormalize each pair to keep coordinates bounded
        m = np.maximum(np.abs(r0), np.abs(r1))
        m = np.where(m == 0, 1.0, m)
        out0[lo * deg : hi * deg] = (r0 / m).ravel()
        out1[lo * deg : hi * deg] = (r1 / m).ravel()
    return out0, out1, missed


def preimage_sample(
    phi: RationalMap, seed_point, depth: int, seed: int = 0
) -> ComplexSampleSet:
    """depth-th full preimage generation of a point under phi.

    Every level replaces each point by all deg solutions of
    phi(z) = point, so the result carries deg^depth points (infinity
    counted separately).  Reproducible for a given seed, which only
    perturbs root-finder starting configurations.
    """
    deg = phi.degree
    if deg < 2:
        raise DomainError("sampling needs a map of degree at least 2")
    if depth < 0:
        raise DomainError("depth must be nonnegative")
    if depth * math.log2(deg) > 22:
        raise DomainError("preimage tree would exceed ~4M points")
    z = complex(seed_point)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError("seed_point must be finite")
    if depth == 0:
        return ComplexSampleSet(np.array([z]), 0, seed, 0)

    lift = Lift.from_map(phi)
    f0, f1 = lift.f0, lift.f1
    rng = np.random.default_rng(seed)
    if abs(z) > 1.0:
        a0 = np.array([z / abs(z)])
        a1 = np.array([1.0 / abs(z)], dtype=complex)
    else:
        a0 = np.array([z])
        a1 = np.array([1.0 + 0j])
    total_missed = 0
    for level in range(depth):
        a0, a1, missed = _solve_generation(f0, f1, deg, a0, a1, rng)
        total_missed += missed
        if level == 0:
            finite = np.abs(a1) > 1e-14 * np.abs(a0)
            w = a0[finite] / a1[finite]
            # a degree-deg root cluster at the seed resolves only to
            # about tol^(1/deg), so the collapse test must be loose
            if len(w) == len(a0) and np.all(
                np.abs(w - z) <= 1e-2 * max(1.0, abs(z))
            ):
                raise DomainError(
                    "seed_point is exceptional (its only preimage is "
                    "itself); pick a generic seed"
                )
    if total_missed > max(16, a0.size // 500):
        raise ConvergenceError(
            f"{total_missed} of {a0.size} preimage solves missed the "
            "residual target"
        )
    infinite = np.abs(a1) <= 1e-14 * np.abs(a0)
    pts = a0[~infinite] / a1[~infinite]
    return ComplexSampleSet(pts, int(np.sum(infinite)), seed, depth)


def map_samples(phi: RationalMap, samples: ComplexSampleSet) -> ComplexSampleSet:
    """Push a sample set forward through phi (sizes are preserved)."""
    lift = Lift.from_map(phi)
    z = samples.points
    big = np.abs(z) > 1.0
    a0 = np.where(big, z / np.maximum(np.abs(z), 1.0), z)
    a1 = np.where(big, 1.0 / np.maximum(np.abs(z), 1.0), np.ones_like(z))
    w0, w1 = lift.eval(a0, a1)
    if samples.n_infinite:
        i0, i1 = lift.eval(np.array([1.0 + 0j]), np.array([0j]))
        w0 = np.concatenate([w0, np.repeat(i0, samples.n_infinite)])
        w1 = np.concatenate([w1, np.repeat(i1, samples.n_infinite)])
    finite = np.abs(w1) > 1e-14 * np.abs(w0)
    return ComplexSampleSet(
        w0[finite] / w1[finite],
        int(np.sum(~finite)),
        samples.seed,
        samples.depth,
    )


def sample_histogram(
    samples: ComplexSampleSet, window, resolution
) -> DensityGrid:
    """Normalized 2-D histogram of the finite sample points in a window."""
    window = _check_window(window)
    nx, ny = _resolution_pair(resolution)
    a, b, c, d = window
    z = samples.points
    inside = (
        (z.real >= a) & (z.real < b) & (z.imag >= c) & (z.imag < d)
    )
    z = z[inside]
    if len(z) == 0:
        raise DomainError("no sample points fall inside the window")
    ix = np.minimum(((z.real - a) / (b - a) * nx).astype(int), nx - 1)
    iy = np.minimum(((z.imag - c) / (d - c) * ny).astype(int), ny - 1)
    counts = np.zeros((ny, nx), dtype=float)
    np.add.at(counts, (iy, ix), 1.0)
    return DensityGrid(window, (nx, ny), counts / counts.sum())


# ------------------------------------------------------ closed-form side

def _abs_g_on(gc, z):
    acc = np.full(np.shape(z), gc[-1], dtype=complex)
    for k in range(len(gc) - 2, -1, -1):
        acc = acc * z + gc[k]
    return np.abs(acc)


def _quad_total_mass(gc, roots, radius=8.0, base=64, levels=6):
    """integral of 1/|G| over the plane by midpoint refinement.

    Cells near a root of G are split 4x4 down `levels` times; beyond
    `radius` the cubic decay gives the exact tail 2*pi/radius.
    """
    cell = 2.0 * radius / base
    xs = -radius + cell * (np.arange(base) + 0.5)
    cx, cy = np.meshgrid(xs, xs)
    centers = (cx + 1j * cy).ravel()
    sizes = np.full(centers.shape, cell)
    total = 0.0
    rts = np.array(roots)
    for level in range(levels):
        dmin = np.min(
            np.abs(centers[:, None] - rts[None, :]), axis=1
        ) if len(rts) else np.full(centers.shape, np.inf)
        near = dmin < 1.5 * sizes * math.sqrt(2.0)
        far_c, far_s = centers[~near], sizes[~near]
        total += float(np.sum(far_s**2 / _abs_g_on(gc, far_c)))
        centers, sizes = centers[near], sizes[near]
        if centers.size == 0:
            break
        if level < levels - 1:
            quarter = sizes / 4.0
            offs = (np.arange(4) - 1.5)
            ox, oy = np.meshgrid(offs, offs)
            shift = (ox + 1j * oy).ravel()
            centers = (
                centers[:, None] + quarter[:, None] * shift[None, :]
            ).ravel()
            sizes = np.repeat(quarter, 16)
    if centers.size:
        vals = _abs_g_on(gc, centers)
        keep = vals > 1e-300
        total += float(np.sum(sizes[keep] ** 2 / vals[keep]))
    return total + TWO_PI / radius


def lattes_density(
    curve: EllipticCurveCM, window, resolution
) -> DensityGrid:
    """Smooth-side density 1/|G| of the doubling measure, gridded.

    Cell values are midpoint evaluations except cells containing a root
    of G, which get a 4x4 subsample.  window_fraction reports the share
    of the full plane mass captured by the window.
    """
    window = _check_window(window)
    nx, ny = _resolution_pair(resolution)
    gc = [complex(c) for c in
          (curve.G.coeff(k) for k in range(curve.G.degree + 1))]
    roots = poly_roots(gc)
    centers, dx, dy = _grid_centers(window, nx, ny)
    vals = _abs_g_on(gc, centers)
    mass = np.where(vals > 1e-300, (dx * dy) / np.maximum(vals, 1e-300), 0.0)
    # subsample every cell whose closed rectangle contains a root; a
    # root on a shared edge belongs to all touching cells, which keeps
    # symmetric windows symmetric
    a, b, c, d = window

    def _cells(val, lo, step, count):
        eps = 1e-9 * max(1.0, abs(val))
        i0 = max(0, math.floor((val - eps - lo) / step))
        i1 = min(count - 1, math.floor((val + eps - lo) / step))
        return range(int(i0), int(i1) + 1)

    for r in roots:
        if not (a - dx <= r.real <= b + dx and c - dy <= r.imag <= d + dy):
            continue
        for iy in _cells(r.imag, c, dy, ny):
            for ix in _cells(r.real, a, dx, nx):
                x0 = a + ix * dx
                y0 = c + iy * dy
                sub_x = x0 + dx / 4.0 * (np.arange(4) + 0.5)
                sub_y = y0 + dy / 4.0 * (np.arange(4) + 0.5)
                sx, sy = np.meshgrid(sub_x, sub_y)
                sv = _abs_g_on(gc, (sx + 1j * sy).ravel())
                keep = sv > 1e-300
                mass[iy, ix] = float(
                    np.sum((dx / 4.0) * (dy / 4.0) / sv[keep])
                )
    window_mass = float(mass.sum())
    if window_mass <= 0.0:
        raise DomainError("window captures no mass")
    total = _quad_total_mass(gc, roots)
    return DensityGrid(
        window,
        (nx, ny),
        mass / window_mass,
        window_fraction=min(1.0, window_mass / total),
    )


def compare_l1(a: DensityGrid, b: DensityGrid) -> float:
    """Half the L1 distance between two grids; 0 equal, 1 disjoint."""
    if a.window != b.window or a.resolution != b.resolution:
        raise DomainError("grids must share window and resolution")
    return 0.5 * float(np.sum(np.abs(a.mass - b.mass)))


# ------------------------------------------------------- periodic points

# largest chordal distance from a returned finite periodic point to its
# n-th image; true cycles of the catalog maps come back within about
# 1e-6, roots that are not periodic points land near distance 1
_CYCLE_TOL = 1e-3


def _unit_pair(w0: complex, w1: complex) -> tuple:
    """(w0 : w1) rescaled so its largest real or imaginary part is 1."""
    s = max(abs(w0.real), abs(w0.imag), abs(w1.real), abs(w1.imag))
    if not 0.0 < s < math.inf:
        return complex("nan"), complex("nan")
    return w0 / s, w1 / s


def _cycle_residual(f0: list, f1: list, z: complex, n: int) -> float:
    """Chordal distance from z to its n-th image under the lift (f0, f1),
    iterated in double precision on pairs renormalised after each step,
    so orbits through infinity stay finite; nan when the pair degenerates."""
    p0, p1 = _unit_pair(z, 1.0)
    w0, w1 = p0, p1
    for _ in range(n):
        # homogeneous Horner as in Lift.eval, but on scalars: building a
        # Lift runs its float resultant test, which huge coefficients
        # overflow
        a0, a1, q = f0[-1], f1[-1], w1
        for k in range(len(f0) - 2, -1, -1):
            a0 = a0 * w0 + f0[k] * q
            a1 = a1 * w0 + f1[k] * q
            q = q * w1
        w0, w1 = _unit_pair(a0, a1)
    return abs(p0 * w1 - p1 * w0) / (
        math.hypot(abs(p0), abs(p1)) * math.hypot(abs(w0), abs(w1))
    )


def periodic_points(phi: RationalMap, n: int) -> list:
    """Points of period dividing n, with multipliers.

    Returns (point, multiplier) pairs sorted by real then imaginary
    part; the point at infinity, when periodic, appears last as
    complex(inf, 0).  A point is repelling iff |multiplier| > 1.
    Raises DomainError when phi^n is the identity, and ConvergenceError
    when a finite root found is not within _CYCLE_TOL (chordal) of its
    n-th image under phi.
    """
    if n < 1:
        raise DomainError("period must be at least 1")
    if phi.degree**n > 200:
        raise DomainError("degree^n capped at 200")
    psi = phi
    for _ in range(n - 1):
        psi = psi.compose(phi)
    alpha = psi.degree
    num, den = psi.num, psi.den
    zpoly = Poly([0, 1], phi.d)
    fixed = num - zpoly * den
    if fixed.is_zero():
        raise DomainError(
            f"phi^{n} is the identity: every point has period dividing {n}"
        )
    coeffs = [complex(fixed.coeff(k)) for k in range(fixed.degree + 1)]
    inf_mult_count = (alpha + 1) - fixed.degree
    roots = poly_roots(coeffs) if fixed.degree >= 1 else []
    f0, f1 = phi.complex_pair()
    resid = [_cycle_residual(f0, f1, r, n) for r in roots]
    if not all(e <= _CYCLE_TOL for e in resid):
        raise ConvergenceError(
            f"period-{n} roots miss their cycles by up to chordal "
            f"distance {max(resid):.3g}",
            partial=roots, residuals=resid,
        )
    dpsi = psi.derivative_map()
    dn = [complex(dpsi.num.coeff(k)) for k in range(dpsi.num.degree + 1)]
    dd = [complex(dpsi.den.coeff(k)) for k in range(dpsi.den.degree + 1)]

    def _at(cs, z):
        acc = 0j
        for ck in reversed(cs):
            acc = acc * z + ck
        return acc

    out = [(r, _at(dn, r) / _at(dd, r)) for r in roots]
    out.sort(key=lambda t: (t[0].real, t[0].imag))
    if inf_mult_count > 0:
        # flip charts: the multiplier at infinity is the derivative of
        # the conjugated map at zero
        top = alpha
        fn = [psi.den.coeff(top - k) for k in range(top + 1)]
        fd = [psi.num.coeff(top - k) for k in range(top + 1)]
        flipped = RationalMap(Poly(fn, phi.d), Poly(fd, phi.d))
        dflip = flipped.derivative_map()
        m_inf = complex(dflip.num.coeff(0)) / complex(dflip.den.coeff(0))
        out.extend([(INF_POINT, m_inf)] * inf_mult_count)
    return out


# --------------------------------------------------------------- rasters

def julia_raster(source, window=None, resolution=None, n: int = 24):
    """Grayscale image of the canonical measure; dense cells are dark.

    source is a GreenField or a map/lift (then window and resolution are
    required).  Returns a uint8 array, deterministic for fixed inputs.
    """
    if isinstance(source, GreenField):
        field = source
    else:
        if window is None or resolution is None:
            raise DomainError("window and resolution needed with a map")
        field = green_field(_as_lift(source), window, resolution, n)
    grid = measure_from_green(field)
    v = grid.mass
    pos = v[v > 0]
    peak = float(np.quantile(pos, 0.98))
    if peak <= 0.0:
        peak = float(pos.max())
    img = 255.0 * (1.0 - np.minimum(v / peak, 1.0))
    return np.asarray(np.rint(img), dtype=np.uint8)


def _header_comments(metadata) -> bytes:
    if not metadata:
        return b""
    lines = []
    for k in sorted(metadata):
        lines.append(f"# {k}={metadata[k]}\n".encode())
    return b"".join(lines)


def write_pgm(path, image, metadata=None) -> None:
    """Binary 8-bit PGM with sorted key=value comment lines."""
    img = np.asarray(image, dtype=np.uint8)
    if img.ndim != 2:
        raise DomainError("PGM wants a 2-D grayscale array")
    h, w = img.shape
    with open(path, "wb") as f:
        f.write(b"P5\n")
        f.write(_header_comments(metadata))
        f.write(f"{w} {h}\n255\n".encode())
        f.write(img.tobytes())


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


def write_csv(grid: DensityGrid, path, sidecar: bool = True) -> None:
    """Row-major CSV of cell masses plus a JSON metadata sidecar."""
    with open(path, "w") as f:
        for row in grid.mass:
            f.write(",".join(format(v, ".12e") for v in row))
            f.write("\n")
    if sidecar:
        meta = {
            "schema": 1,
            "window": list(grid.window),
            "resolution": list(grid.resolution),
            "window_fraction": grid.window_fraction,
        }
        with open(str(path) + ".json", "w") as f:
            json.dump(meta, f, sort_keys=True, indent=1)
            f.write("\n")


def ks_uniform_statistic(values, period: float = 1.0) -> float:
    """Kolmogorov-Smirnov distance of values mod period from uniform."""
    u = np.sort(np.mod(np.asarray(values, dtype=float), period) / period)
    n = len(u)
    if n == 0:
        raise DomainError("empty sample")
    k = np.arange(1, n + 1)
    return float(max(np.max(k / n - u), np.max(u - (k - 1) / n)))
