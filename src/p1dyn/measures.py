"""Complex-analytic layer: Green's functions, equilibrium measures,
preimage sampling, and raster export.

Everything here runs in double precision.  Tolerances are those of
numerical potential theory (grids, histograms, root residuals), not the
certified bounds of the height engine; see heights for the exact side.

Working memory: each pass over a grid or a sample runs on blocks of
_CELL_BLOCK cells, or on green_field's worker blocks, so a call holds
its result at full size plus the temporaries of one block per worker,
with the same elementwise operations in the same order as on the whole
array, and no output bit depends on a block size.  What still spans the
whole array is named where it is made: the sums that normalize a grid,
julia_raster's copy of the positive cells (partitioned in place by
np.quantile), and the generations of a preimage tree.
A map's complex lift (Lift), the Green value at one point (green) and
the scalar Horner of the forms live in greenpoint, which needs no
numpy; the Aberth solver that the preimage trees run lives in roots.
"""

from __future__ import annotations

import json
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .greenpoint import _ONE, Lift, check_green
from .lattes import CURVES, EllipticCurveCM, entry_for_map
from .ratmaps import RationalMap
from .roots import _aberth_batch
from .torus import TWO_PI, _basis_matrix, _hermite, curve_lattice


def _check_window(window):
    try:
        a, b, c, d = (float(t) for t in window)
    except (TypeError, ValueError):
        raise DomainError("window is (re_min, re_max, im_min, im_max)")
    if not (a < b and c < d and all(map(math.isfinite, (b - a, d - c)))):
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


def _grid_of(make, nx, ny):
    """make((ny, nx)), np.empty or np.zeros, for a float grid of ny rows
    of nx cells.  Each grid is allocated before its axes are built, so
    one too large for memory is refused first; numpy refuses a size past
    its index range with a ValueError, which is the same refusal."""
    try:
        return make((ny, nx))
    except ValueError as exc:
        raise MemoryError(f"a {nx} x {ny} grid: {exc}") from None


def _grid_axes(window, nx, ny):
    """(xs, ys, dx, dy): cell (i, j) of a window grid, row i of ny and
    column j of nx, is centered at xs[j] + ys[i] 1j."""
    a, b, c, d = window
    dx = (b - a) / nx
    dy = (d - c) / ny
    return (a + dx * (np.arange(nx) + 0.5), c + dy * (np.arange(ny) + 0.5),
            dx, dy)


def _centers(xs, ys, lo, k):
    """Centers of the cells lo, ..., lo + k - 1 of the row-major grid
    whose axes are xs and ys (see _grid_axes), as a complex array."""
    i = np.arange(lo, lo + k)
    out = np.empty(k, complex)
    out.real = xs[i % len(xs)]
    out.imag = ys[i // len(xs)]
    return out


# cells, or points, that each pass over a grid or a sample below takes
# at a time, outside the worker blocks of green_field, the leaf blocks
# of _lattice_leaves and the root blocks of _solve_generation: every
# such pass keeps only its result at full size, and the temporaries of
# one block near 1 MB.  write_csv formats 64 rows of 512 at a time
_CELL_BLOCK = 32768


def _blocks(n):
    """The slices of range(n) that take _CELL_BLOCK at a time."""
    return [slice(lo, lo + _CELL_BLOCK) for lo in range(0, n, _CELL_BLOCK)]


def _front(out, parts):
    """Writes the arrays of parts, in order, from the front of the 1-D
    array out, and returns that front.  parts may be a generator that
    reads out itself, block by block, ahead of the front."""
    kept = 0
    for part in parts:
        out[kept:kept + part.size] = part
        kept += part.size
    return out[:kept]


def _all_blocks(test, a) -> bool:
    """Whether test(block) holds everywhere on every block of a's cells."""
    flat = a.reshape(-1)
    return all(np.all(test(flat[s])) for s in _blocks(flat.size))


def _forms_into(lift: Lift, bufs: list) -> list:
    """F(w0, w1) on arrays, writing only into preallocated arrays.

    bufs holds seven complex arrays of one shape: w0 and w1, which are
    read and not written, and five scratch arrays.  Returns the same
    seven, reordered: the two forms first, then five free arrays (w0
    and w1 among them).  Each form's Horner starts at its top nonzero
    coefficient t, as f[t] * w1^(deg - t), and below it a coefficient
    that is exactly zero costs only acc * w0.  Both skip terms that are
    0 * w0 + 0 or 0 * w1^(deg-k), which could only have set the sign of
    a zero, so a component that is exactly zero may flip sign, but no
    magnitude and no Green value moves (inf or nan inputs may give other
    non-finite values, which GreenField refuses).  No complex product is
    written over one of its factors: on a one-element array numpy then
    takes a loop that rounds like the scalar arithmetic, not like the
    array loop (which can fuse a multiply-add).
    """
    w0, w1, a0, a1, tmp, p, q = bufs
    accs = [a0, a1]
    deg = lift.degree
    forms = list(zip(lift._coeffs, lift._tops))
    for acc, (f, t) in zip(accs, forms):
        if t == deg:
            acc.fill(f[-1] * _ONE)
    p1 = w1
    for k in range(deg - 1, -1, -1):
        for i, (f, t) in enumerate(forms):
            if k > t:
                continue
            acc = accs[i]
            if k == t:
                np.multiply(f[k], p1, out=acc)
                continue
            np.multiply(acc, w0, out=tmp)
            if f[k]:
                np.multiply(f[k], p1, out=acc)
                acc += tmp
            else:
                accs[i], tmp = tmp, acc
        if k:
            nxt = q if p1 is p else p
            np.multiply(p1, w1, out=nxt)
            p1 = nxt
    return [accs[0], accs[1], w0, w1, tmp, p, q]


@dataclass(frozen=True, eq=False)
class GreenField:
    """Grid of Green values g(z) over a window."""

    window: tuple
    resolution: tuple
    values: np.ndarray
    iterations: int

    def __post_init__(self):
        if not _all_blocks(np.isfinite, self.values):
            raise DomainError("Green field has non-finite entries")
        self.values.setflags(write=False)


@dataclass(frozen=True, eq=False)
class DensityGrid:
    """Nonnegative cell masses over a window, summing to one.

    window_fraction is the share of the whole measure that the window
    captures, as estimated by the construction that built the grid (see
    measure_from_green and lattes_density); 1.0 where none is estimated,
    as for sample histograms.
    """

    window: tuple
    resolution: tuple
    mass: np.ndarray
    window_fraction: float = 1.0

    def __post_init__(self):
        nx, ny = self.resolution
        if np.shape(self.mass) != (ny, nx):
            raise DomainError(f"density grid of shape {np.shape(self.mass)} "
                              f"does not match resolution {nx}x{ny}")
        if not _all_blocks(np.isfinite, self.mass):
            raise DomainError("density grid has non-finite cells")
        if not _all_blocks(lambda b: b >= 0, self.mass):
            raise DomainError("density grid has negative cells")
        if not 0.0 <= self.window_fraction <= 1.0:
            raise DomainError(f"window_fraction {self.window_fraction} "
                              "is not in [0, 1]")
        total = float(self.mass.sum())
        if abs(total - 1.0) > 1e-9:
            raise DomainError(f"density grid mass {total} is not 1")
        self.mass.setflags(write=False)


# cells of the flattened grid that a worker iterates at a time.  A
# ufunc call on a block releases the GIL for its whole length, so the
# block must be long enough that the workers' calls overlap rather than
# queue for the GIL.  On 2 vCPUs (numpy 2.4.6) the two 512^2 fields of
# 24 steps in perfbench's analytic pass took 180-210 ms at 16384 cells
# with two workers (265-305 ms with one); at 8192 cells two workers took
# 260-270 ms, no less than one (250-275 ms): each call then lasts about
# 10 us, and the threads spend it handing the GIL over
_GREEN_BLOCK = 16384
# the block when the process may run on one CPU, and so has one worker;
# no longer than _GREEN_BLOCK.  Pinned to one CPU the same two fields
# took 255-263 ms at 8192 cells against 285-302 ms at 16384, whose ten
# scratch arrays (2.3 MB) overflow a 2 MB L2 cache
_SOLO_BLOCK = 8192


def _cpus() -> int:
    """CPUs that the process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _workers(blocks: int) -> int:
    """Workers for a grid of this many blocks: one per CPU that the
    process may run on, and no more than there are blocks."""
    return max(1, min(_cpus(), blocks))


def _green_block(lift: Lift, z, n: int, bufs: list, inv, m, t, g) -> None:
    """n-th Green values of the points (z, 1) of one block, into g.

    bufs holds seven complex arrays (see _forms_into), inv a complex
    array whose imaginary parts are +0.0 (only its real parts are
    written), and m, t two float arrays, all of the block's length.
    Every step writes into them with out=, in the plain iteration's
    order of operations, so the bits are those of a fresh array per
    operation.
    The loop stops once scale underflows to 0.0: every later step would
    add log(m) * 0.0 and leave g as it is.

    Both coordinates are divided by m as w * (1/m): numpy divides a
    complex number by a real one by Smith's rule, whose ratio is then 0
    and whose scale is 1/m, so the product has the quotient's bits, and
    one real division serves both coordinates.  numpy would multiply by
    1/m cast to complex; writing 1/m into inv.real makes that cast once
    and skips the casting loop's buffers.  These two products are
    written over w, unlike those of _forms_into: a product by a real
    rounds alike in every loop.
    """
    bufs[0][...] = z
    bufs[1].fill(1.0)
    np.abs(bufs[0], out=m)
    np.abs(bufs[1], out=t)
    np.maximum(m, t, out=m)
    np.log(m, out=g)
    scale = 1.0
    for _ in range(n):
        scale /= lift.degree
        if scale == 0.0:
            break
        np.divide(1.0, m, out=inv.real)
        bufs[0] *= inv
        bufs[1] *= inv
        bufs = _forms_into(lift, bufs)
        np.abs(bufs[0], out=m)
        np.abs(bufs[1], out=t)
        np.maximum(m, t, out=m)
        np.log(m, out=t)
        t *= scale
        g += t


def green_field(lift, window, resolution, n: int) -> GreenField:
    """green() evaluated on the cell centers of a window grid.

    The flattened grid is cut into blocks of _GREEN_BLOCK cells
    (_SOLO_BLOCK on one CPU), which the workers take one at a time: one
    thread per CPU in the process's affinity mask, no more than there
    are blocks, and the calling thread is one of them, so a grid of one
    block starts no thread.  The calling thread allocates each worker's
    arrays before any starts.  Workers ignore floating-point errors,
    whatever the caller's np.errstate: an overflow, 0 * inf or log 0
    ends as a non-finite cell, which GreenField refuses.  A block that
    raises stops the other workers at their next block, and the first
    exception is re-raised here once every thread has ended.
    Every cell takes the same operations whichever worker iterates it,
    so neither the worker count nor the block size moves a bit.
    Each block's cell centers are built from the grid's two axes, so the
    call holds the values and, per worker, the arrays of one block.
    """
    lift = check_green(lift, n)
    window = _check_window(window)
    nx, ny = _resolution_pair(resolution)
    vals = _grid_of(np.empty, nx, ny)
    xs, ys, _, _ = _grid_axes(window, nx, ny)
    out = vals.ravel()
    block = min(_GREEN_BLOCK, out.size)
    if _cpus() == 1:
        block = min(block, _SOLO_BLOCK)
    starts = range(0, out.size, block)
    scratch = [
        ([np.empty(block, complex) for _ in range(7)],
         np.zeros(block, complex), np.empty(block), np.empty(block))
        for _ in range(_workers(len(starts)))
    ]
    todo = iter(starts)
    lock = threading.Lock()
    errors = []

    def work(bufs, inv, m, t):
        try:
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                while not errors:
                    with lock:
                        lo = next(todo, None)
                    if lo is None:
                        return
                    k = min(block, out.size - lo)
                    _green_block(lift, _centers(xs, ys, lo, k), n,
                                 [b[:k] for b in bufs], inv[:k], m[:k],
                                 t[:k], out[lo:lo + k])
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=work, args=sc) for sc in scratch[1:]]
    for th in threads:
        th.start()
    work(*scratch[0])
    for th in threads:
        th.join()
    if errors:
        raise errors[0]
    return GreenField(window, (nx, ny), vals, n)


def measure_from_green(field: GreenField) -> DensityGrid:
    """Equilibrium measure as the normalized discrete Laplacian of g.

    Five-point stencil on interior cells, negative noise clamped to
    zero, boundary ring zeroed, mass normalized to one.  window_fraction
    is the mass of the Laplacian / 2 pi after clamping and before
    normalizing, capped at 1 because the measure is a probability measure.
    The stencil, the clamp and both scalings run on blocks of rows of
    _CELL_BLOCK cells, written into the one grid that is returned, so the
    call holds that grid and the temporaries of one block.
    """
    nx, ny = field.resolution
    if min(nx, ny) < 32:
        raise DomainError("needs resolution of at least 32 cells per axis")
    a, b, c, d = field.window
    dx = (b - a) / nx
    dy = (d - c) / ny
    if not all(0.0 < h * h < math.inf for h in (dx, dy)):
        raise DomainError("window cells are too small or too large for "
                          "the Laplacian in double precision")
    g = field.values
    mass = np.zeros_like(g)
    dx2, dy2, cell = dx**2, dy**2, dx * dy
    step = max(1, _CELL_BLOCK // nx)
    for lo in range(1, ny - 1, step):
        hi = min(lo + step, ny - 1)
        # (g[r, 2:] + g[r, :-2] - 2 g[r, 1:-1]) / dx^2 + (the same along
        # columns) / dy^2, then max(., 0) dx dy / 2 pi, in that order
        out = mass[lo:hi, 1:-1]
        mid = 2.0 * g[lo:hi, 1:-1]
        across = g[lo:hi, 2:] + g[lo:hi, :-2]
        across -= mid
        across /= dx2
        np.add(g[lo + 1:hi + 1, 1:-1], g[lo - 1:hi - 1, 1:-1], out=out)
        out -= mid
        out /= dy2
        np.add(across, out, out=out)
        np.maximum(out, 0.0, out=out)
        out *= cell
        out /= TWO_PI
    total = float(mass.sum())
    if total <= 0.0:
        raise DomainError("flat Green field: no measure in this window")
    mass /= total
    return DensityGrid(field.window, (nx, ny), mass,
                       window_fraction=min(1.0, total))


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


# _solve_generation: rows solved at a time, so the temporaries of an
# Aberth sweep on a degree-4 map stay in cache; the relaxed backward-error
# target of a preimage tree, and its sweep cap; rows that miss the target
# are counted, not raised
_ROOT_BLOCK = 4096
_PREIMAGE_TOL = 1e-8
_PREIMAGE_SWEEPS = 120


def _solve_generation(f0, f1, deg, a0, a1, rng):
    """All preimages of the projective points (a0[i] : a1[i]).

    Solves a1*F0 - a0*F1 = 0 per point, flipping to the w = 1/z chart
    for points far from the origin so the root finder stays conditioned.
    The tilts of the starting circles are drawn once for the generation,
    so the blocks of _ROOT_BLOCK rows do not change a bit of the result.
    Returns projective pairs of the next generation and the count of
    rows that missed the (relaxed) backward-error target.
    """
    n = len(a0)
    tilt = rng.uniform(0.0, TWO_PI / deg, size=n)
    out0 = np.empty(n * deg, dtype=complex)
    out1 = np.empty(n * deg, dtype=complex)
    missed = 0
    # an overflow in C, or a point that is not finite, makes a row that
    # is not finite: _aberth_batch flags it, and its preimages are nan,
    # which _preimage_tree refuses
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for lo in range(0, n, _ROOT_BLOCK):
            hi = min(lo + _ROOT_BLOCK, n)
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
                C, tilt[lo:hi], _PREIMAGE_TOL, _PREIMAGE_SWEEPS
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
    phi(z) = point, so the result carries deg^depth points; a point of
    modulus 1e14 or more, or not finite, is counted at infinity.  A map
    equal to a catalog map with a curve and a multiplier lam, for which
    phi(wp(u)) = wp(lam u), takes its leaves in closed form from the
    period lattice (see _lattice_leaves): seed is recorded but has no
    effect there, and a finite seed_point short of overflow has no leaf
    at infinity.  Every other map solves the tree level by level (see
    _preimage_tree), reproducibly for a given seed, which only perturbs
    root-finder starting configurations.  The points come in no
    promised order.  The finite leaves are moved to the front of the
    leaves' own array, one block at a time, and returned as a view of
    it: no leaf is copied at full size.
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
    entry = entry_for_map(phi)
    if entry is None or entry.lam is None or not entry.curve_name:
        return _preimage_tree(phi, z, depth, seed)
    x = _lattice_leaves(entry, z, depth)
    pts = _front(x, (x[s][np.abs(x[s]) < 1e14] for s in _blocks(x.size)))
    return ComplexSampleSet(pts, x.size - pts.size, seed, depth)


def _preimage_tree(phi: RationalMap, z: complex, depth: int,
                   seed: int) -> ComplexSampleSet:
    """preimage_sample by root solves, level by level, for checked
    arguments and depth >= 1: the rows of a generation are the
    preimages of its points in order, deg per point.  Raises
    ConvergenceError when more solves miss the residual target than
    max(16, leaves / 500) allows, and when any leaf is not finite.  Each
    generation is held whole, and the next one while it is solved; the
    last one's tests and quotients run one block at a time, into its own
    first coordinate array."""
    deg = phi.degree
    f0, f1 = (np.array(f, dtype=complex)
              for f in Lift.from_map(phi)._coeffs)
    # a row a1 F0 - a0 F1 of _solve_generation, with |a0|, |a1| <= 1,
    # has parts below 4 t for forms whose parts are below t, so below
    # 2^1022 for t = 2^1020; larger forms are scaled there by one power of
    # two, which is exact and moves no root
    top = max(np.max(np.abs(f.view(float))) for f in (f0, f1))
    if top >= 2.0**1020:
        unit = math.ldexp(1.0, 1020 - math.frexp(top)[1])
        f0, f1 = f0 * unit, f1 * unit
    rng = np.random.default_rng(seed)
    scale = max(abs(z), 1.0)
    a0 = np.array([z / scale])
    a1 = np.array([1.0 / scale], dtype=complex)
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
    lost = sum(np.count_nonzero(~(np.isfinite(a0[s]) & np.isfinite(a1[s])))
               for s in _blocks(a0.size))
    if lost:
        raise ConvergenceError(
            f"{lost} of {a0.size} preimages are not finite"
        )

    def finite_leaves():
        for s in _blocks(a0.size):
            finite = np.abs(a1[s]) > 1e-14 * np.abs(a0[s])
            yield a0[s][finite] / a1[s][finite]

    pts = _front(a0, finite_leaves())
    return ComplexSampleSet(pts, a0.size - pts.size, seed, depth)


def sample_histogram(
    samples: ComplexSampleSet, window, resolution
) -> DensityGrid:
    """Normalized 2-D histogram of the finite sample points in a window.

    The points are counted _CELL_BLOCK at a time, each adding 1.0 to its
    cell of the one grid that is returned (np.add.at: a np.bincount of a
    block would be as long as the grid), so the call holds that grid and
    the temporaries of one block.  The counts are integers below 2^53,
    exact in any order.
    """
    window = _check_window(window)
    nx, ny = _resolution_pair(resolution)
    a, b, c, d = window
    counts = _grid_of(np.zeros, nx, ny)
    flat = counts.reshape(-1)
    for s in _blocks(len(samples.points)):
        z = samples.points[s]
        z = z[(z.real >= a) & (z.real < b) & (z.imag >= c) & (z.imag < d)]
        ix = np.minimum(((z.real - a) / (b - a) * nx).astype(int), nx - 1)
        iy = np.minimum(((z.imag - c) / (d - c) * ny).astype(int), ny - 1)
        np.add.at(flat, iy * nx + ix, 1.0)
    total = counts.sum()
    if total == 0:
        raise DomainError("no sample points fall inside the window")
    counts /= total
    return DensityGrid(window, (nx, ny), counts)


# ------------------------------------------------------ closed-form side

def _abs_g_on(gc, z):
    acc = np.full(np.shape(z), gc[-1], dtype=complex)
    # far out |G| overflows to inf or nan, which gives its cell the mass 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(len(gc) - 2, -1, -1):
            acc = acc * z + gc[k]
        return np.abs(acc)


# leaves of a Lattes tree evaluated at a time, so the temporaries of the
# q-series stay in cache; the Newton steps of the elliptic logarithm, and
# the residual it must reach, in ulps of max(1, |z|)
_LEAF_BLOCK = 8192
_LOG_STEPS = 40
_LOG_ULPS = 8


def _coords(lat, v):
    """(x, y) with v = x + y tau mod Z + tau Z, both in [-1/2, 1/2]."""
    y = v.imag / lat.tau.imag
    x = v.real - y * lat.tau.real
    return x - np.rint(x), y - np.rint(y)


def _series(lat, sig, out):
    """(w1/pi)^2 wp into out, from sigma = sin(pi v)^2: the q-series of
    torus.Lattice, vectorised."""
    np.divide(1.0, sig, out=out)
    out += lat.K
    t, num = np.empty_like(sig), np.empty_like(sig)
    for c, b in zip(lat.c, lat.b):
        np.add(sig, b, out=t)
        np.multiply(t, t, out=t)
        np.multiply(sig, c, out=num)
        num -= 2.0 * b
        num /= t
        out += num
    return out


def _elliptic_log(lat, z: complex) -> tuple:
    """Coordinates (x, y) of a u with wp(u) = z.

    Newton steps on the series, for Z = (w1/pi)^2 z, from a 7 x 7
    grid, the half periods (where wp' = 0, so a root of G is met
    exactly) and the root of the leading terms 1/sigma + K = Z, all
    at once.  For |Z| > 1 they are Newton's steps on 1/wp - 1/Z, as
    1/wp is a square near the pole.  Raises ConvergenceError unless
    some start reaches |wp(u) - z| <= _LOG_ULPS ulps of max(1, |z|).
    """
    Z = z / lat.scale
    g = (np.arange(7) - 3) / 7.0
    tau, K = lat.tau, lat.K
    c, b = np.array(lat.c), np.array(lat.b)
    with np.errstate(all="ignore"):
        v = np.concatenate([(g[:, None] + g * tau).ravel(), [
            0.5, tau / 2, (1 + tau) / 2,
            np.arcsin(np.sqrt(1.0 / complex(Z - K))) / math.pi]])
        v[~np.isfinite(v)] = 0.5
        tol = _LOG_ULPS * 2.0**-52 * max(1.0, abs(z)) / abs(lat.scale)
        for _ in range(_LOG_STEPS):
            s, co = np.sin(math.pi * v), np.cos(math.pi * v)
            sig = s * s
            t = sig[:, None] + b
            f = 1.0 / sig + K + np.sum(
                (c * sig[:, None] - 2.0 * b) / t**2, axis=1)
            df = TWO_PI * s * co * (np.sum(
                (c * b + 4.0 * b - c * sig[:, None]) / t**3, axis=1)
                - 1.0 / sig**2)
            res = np.nan_to_num(np.abs(f - Z), nan=np.inf)
            k = int(np.argmin(res))
            if res[k] <= tol:
                return _coords(lat, v[k])
            step = (Z - f) / df * (f / Z if abs(Z) > 1 else 1.0)
            step[~np.isfinite(step)] = 0.0
            x, y = _coords(lat, v + step)
            v = x + y * tau
    raise ConvergenceError(
        f"no elliptic logarithm of {z} within {_LOG_ULPS} ulps after "
        f"{_LOG_STEPS} Newton steps",
        residuals=[float(res[k] * abs(lat.scale))])


def _lattice_leaves(entry, z: complex, depth: int) -> np.ndarray:
    """The depth-th preimages of z under a curve's catalog map, in
    closed form.

    With phi(wp(u)) = wp(lam u) and z = wp(u0), they are the
    wp((u0 + w)/lam^n) for w in L/lam^n L (Milnor, "On Lattes maps",
    arXiv math/0402147).  On the reduced basis (w1, w2) of the curve's
    torus.curve_lattice, lam
    is an integer matrix M of determinant N = |lam|^2, so in the
    coordinates (x, y) of v = u/w1 = x + y tau the leaves are the group
    H = A Z^2 / N^n mod Z^2, A = adj(M^n), translated by A u0 / N^n.
    By the Hermite normal form of A in exact integers (torus._hermite),
    H is the points (i/g + j X/N^n, j g/N^n) for i < g and j < N^n/g,
    with g = gcd(A21, A22).  So sin(pi v) = sin(pi x_i)
    cos(pi B_j) + cos(pi x_i) sin(pi B_j), with x_i real and B_j
    complex: a sum of two outer products of 1-D tables.  Each table
    entry is an exact rational rounded once, reduced to [-1/2, 1/2]
    (the real part of B_j to [-1/2g, 1/2g], which permutes the row), so
    leaves near the pole keep their relative accuracy.  The leaves come
    row j by row j.
    """
    lat = curve_lattice(CURVES[entry.curve_name]())
    x, y = _elliptic_log(lat, z)
    lam, tau = complex(entry.lam), lat.tau
    p, q, r, s = _basis_matrix(lam, lam * tau, tau, f"{entry.name}: lam")
    a11, a12, a21, a22 = 1, 0, 0, 1
    for _ in range(depth):  # adj(M^n) = adj(M)^n
        a11, a12, a21, a22 = (a11 * s - a12 * r, a12 * p - a11 * q,
                              a21 * s - a22 * r, a22 * p - a21 * q)
    nn, g, X = _hermite(a11, a12, a21, a22)
    rows = nn // g
    x0, y0 = (a11 * x + a12 * y) / nn, (a21 * x + a22 * y) / nn
    i = np.arange(g)
    xi = x0 + (i - g * np.rint(i / g + x0)) / g
    j = np.arange(rows, dtype=np.int64)
    jx = j * X % nn
    bj = ((jx - rows * np.rint(jx / rows)) / nn
          + (y0 + (j - rows * np.rint(j / rows + y0)) / rows) * tau)
    sx, cx = np.sin(math.pi * xi), np.cos(math.pi * xi)
    sb, cb = np.sin(math.pi * bj), np.cos(math.pi * bj)
    out = np.empty((rows, g), dtype=complex)
    step = max(1, _LEAF_BLOCK // g)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for lo in range(0, rows, step):
            hi = min(lo + step, rows)
            sig = cb[lo:hi, None] * sx + sb[lo:hi, None] * cx
            np.multiply(sig, sig, out=sig)
            _series(lat, sig, out[lo:hi])
        out *= lat.scale
    return out.ravel()


def lattes_density(
    curve: EllipticCurveCM, window, resolution
) -> DensityGrid:
    """Smooth-side density 1/|G| of the doubling measure, gridded.

    Cell values are midpoint evaluations except cells containing a root
    of G, which get a 4x4 subsample.  window_fraction is the window's
    gridded mass over the exact plane mass, capped at 1.  The roots and
    the mass come from the curve's torus.curve_lattice, so G must split
    over the curve's field (DomainError otherwise).  |G| is evaluated on
    blocks of _CELL_BLOCK cells, written into the one grid that is
    returned, so the call holds that grid and the temporaries of one
    block.
    """
    window = _check_window(window)
    nx, ny = _resolution_pair(resolution)
    lat = curve_lattice(curve)
    gc = [complex(c) for c in
          (curve.G.coeff(k) for k in range(curve.G.degree + 1))]
    mass = _grid_of(np.zeros, nx, ny)
    xs, ys, dx, dy = _grid_axes(window, nx, ny)
    flat = mass.reshape(-1)
    for s in _blocks(flat.size):
        vals = _abs_g_on(gc, _centers(xs, ys, s.start, flat[s].size))
        # mass 0.0 where |G| is tiny or overflows, and dx dy may overflow
        np.divide(dx * dy, vals, out=flat[s],
                  where=(vals > 1e-300) & (vals < math.inf))
    # subsample every cell whose closed rectangle contains a root; a
    # root on a shared edge belongs to all touching cells, which keeps
    # symmetric windows symmetric
    a, b, c, d = window

    def _cells(val, lo, step, count):
        eps = 1e-9 * max(1.0, abs(val))
        i0 = max(0, math.floor((val - eps - lo) / step))
        i1 = min(count - 1, math.floor((val + eps - lo) / step))
        return range(int(i0), int(i1) + 1)

    for r in lat.roots:
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
                sv = sv[sv > 1e-300]
                mass[iy, ix] = float(np.sum(np.divide(
                    (dx / 4.0) * (dy / 4.0), sv, out=np.zeros_like(sv),
                    where=sv < math.inf)))
    window_mass = float(mass.sum())
    if window_mass <= 0.0:
        raise DomainError("window captures no mass")
    mass /= window_mass
    return DensityGrid(
        window,
        (nx, ny),
        mass,
        window_fraction=min(1.0, window_mass / lat.mass),
    )


def compare_l1(a: DensityGrid, b: DensityGrid) -> float:
    """Half the L1 distance between two grids; 0 equal, 1 disjoint."""
    if a.window != b.window or a.resolution != b.resolution:
        raise DomainError("grids must share window and resolution")
    return 0.5 * float(np.sum(np.abs(a.mass - b.mass)))


# --------------------------------------------------------------- rasters

def julia_raster(field: GreenField):
    """Grayscale image of the canonical measure of a Green field (see
    green_field); dense cells are dark.

    Cell masses are scaled by the window's share of the measure before
    the 0.98-quantile sets full darkness, so a window that holds almost
    none of it stays light.  Returns a uint8 array, deterministic for
    fixed inputs.  Past measure_from_green's grid, the call holds the
    image, a copy of the positive cells, which np.quantile partitions in
    place, and the temporaries of one block of _CELL_BLOCK cells, which
    are scaled in place.
    """
    grid = measure_from_green(field)
    v = grid.mass.reshape(-1)
    spans = _blocks(v.size)
    pos = np.empty(sum(np.count_nonzero(v[s] > 0) for s in spans))
    _front(pos, (v[s][v[s] > 0] for s in spans))
    peak = float(np.quantile(pos, 0.98, overwrite_input=True))
    img = np.empty(grid.mass.shape, dtype=np.uint8)
    flat = img.reshape(-1)
    for s in spans:
        # 255 (1 - min(v f / peak, 1)), rounded to the nearest integer
        t = v[s] * grid.window_fraction
        t /= peak
        np.minimum(t, 1.0, out=t)
        np.subtract(1.0, t, out=t)
        t *= 255.0
        flat[s] = np.rint(t, out=t)
    return img


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


# 10**k correctly rounded (int to float and int / int both round
# correctly), at index k + 87 for the k = 12 - e of exponents |e| < 100
_CSV_POW10 = np.array([float(10**k) if k >= 0 else 1 / 10**-k
                       for k in range(-87, 112)])

# little-endian ASCII words: "ab" for 0 <= 10a + b < 100, "abcd",
# "a.bc", "ab" followed by "e+" or "e-"
_CSV_PAIR = np.array([(48 + k // 10) | (48 + k % 10) << 8
                      for k in range(100)], "<u4")
_CSV_QUAD = (_CSV_PAIR[:, None] | _CSV_PAIR << 16).ravel()
_CSV_HEAD = ((48 + np.arange(10, dtype="<u4"))[:, None] | 46 << 8
             | _CSV_PAIR << 16).ravel()
_CSV_TAIL = (_CSV_PAIR | np.array([101 | 43 << 8, 101 | 45 << 8],
                                  "<u4")[:, None] << 16).ravel()


def _csv_significands(block):
    """(e, n, fast) for a 2-D float array: where fast, "%.12e" prints the
    cell as the digits of the integer n (a float) and the exponent e;
    elsewhere n is 0.  See write_csv for why the digits are those."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        e = np.floor(np.log10(block))
        ok = np.abs(e) < 100
        e[~ok] = 0.0
        e = e.astype(np.intp)
        y = block * _CSV_POW10[99 - e]
        n = np.rint(y)
        fast = ok & (y >= 1e12) & (n < 1e13)
        fast &= 0.5 - np.abs(y - n) > 5e-16 * y
    fast |= (block == 0.0) & ~np.signbit(block)
    n[~fast] = 0.0
    return e, n, fast


def _csv_text(block) -> str:
    """The CSV lines of a 2-D float array, as "%.12e" prints each cell."""
    rows, cols = block.shape
    e, n, fast = _csv_significands(block)
    # one record of five 4-byte words a cell: "d.dd", "dddd", "dddd",
    # "dde+" or "dde-", then the exponent digits and the separator.  n <
    # 1e13 is an integer, so each floor of a quotient by a power of ten
    # is exact: the quotient's rounding cannot reach the next integer
    rec = np.empty((rows, cols, 5), "<u4")
    q = np.floor(n / 1e10)
    n -= q * 1e10
    rec[..., 0] = _CSV_HEAD[q.astype(np.intp)]
    np.floor(n / 1e6, out=q)
    n -= q * 1e6
    rec[..., 1] = _CSV_QUAD[q.astype(np.intp)]
    np.floor(n / 100, out=q)
    n -= q * 100
    rec[..., 2] = _CSV_QUAD[q.astype(np.intp)]
    rec[..., 3] = _CSV_TAIL[n.astype(np.intp) + 100 * (e < 0)]
    rec[..., 4] = _CSV_PAIR[np.abs(e)]
    rec[:, :-1, 4] |= ord(",") << 16
    rec[:, -1, 4] |= ord("\n") << 16
    slow = np.flatnonzero(~fast)
    long_rows = set()
    if slow.size:
        texts = ["%.12e" % v for v in block.ravel()[slow].tolist()]
        fits = np.array([len(t) == 18 for t in texts])
        cells = rec.view(np.uint8).reshape(rows * cols, 20)
        cells[slow[fits], :18] = np.frombuffer(
            "".join([t for t in texts if len(t) == 18]).encode(), np.uint8
        ).reshape(-1, 18)
        long_rows = set((slow[~fits] // cols).tolist())
    # each record less its last byte, which is zero
    text = np.ndarray((rows * cols,), "V19", rec, strides=(20,))
    text = text.tobytes().decode("ascii")
    if not long_rows:
        return text
    line = ",".join(["%.12e"] * cols) + "\n"
    width = 19 * cols
    return "".join(line % tuple(block[r].tolist()) if r in long_rows
                   else text[r * width:(r + 1) * width] for r in range(rows))


def write_csv(grid: DensityGrid, path) -> None:
    """Row-major CSV of cell masses plus a JSON metadata sidecar; when
    the sidecar cannot be written, the CSV is removed and the error
    raised.

    Each cell is written byte for byte as "%.12e" writes it, by a numpy
    kernel, one block of rows at a time.  A cell 0 < v < 1e100 prints as
    d.dddddddddddde+XX, 18 bytes.  With e = floor(log10 v) and P = 10^k,
    k = 12 - e, correctly rounded, y = v P carries two roundings, so
    |y - v 10^k| < 2.3e-16 y.  Where y >= 1e12, n = rint(y) < 1e13 and y
    lies more than 5e-16 y from a half-integer, no half-integer separates
    y from v 10^k: n is the correctly rounded 13-digit significand of the
    exact binary value, which is what "%.12e" prints.  No exact log10 is
    needed: with e one too small, n >= 1e13; with e one too large, y <
    1e12 unless v rounds up to 10^e, and then n = 1e12 is right.  +0.0
    is n = 0, e = 0.  Every other cell (near-halves, -0.0, NaN, infinities,
    negatives, exponents of three digits) is formatted by "%.12e" itself,
    and a row holding a text that is not 18 bytes long by the row format.
    """
    mass = grid.mass
    step = max(1, _CELL_BLOCK // mass.shape[1])
    with open(path, "w") as f:
        for lo in range(0, mass.shape[0], step):
            f.write(_csv_text(mass[lo:lo + step]))
    meta = {
        "schema": 1,
        "window": list(grid.window),
        "resolution": list(grid.resolution),
        "window_fraction": grid.window_fraction,
    }
    try:
        with open(str(path) + ".json", "w") as f:
            json.dump(meta, f, sort_keys=True, indent=1)
            f.write("\n")
    except OSError:
        # no CSV without its sidecar
        os.remove(path)
        raise
