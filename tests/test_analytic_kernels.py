"""Checks of the analytic kernels against their plain forms.

The oracles below are the straightforward kernels that the blocked
Green iteration, the Aberth kernel and the row-formatted CSV writer
replaced: a fresh array for every operation, every row evaluated on
every sweep, one value formatted at a time.  The Green iteration and the
CSV writer must return the same bits, compared through tobytes() so
that a one-ulp change or a flipped zero sign shows; so must the field
for any number of worker threads, and green()'s loop on Python complex
against the oracle on numpy scalars, compared by repr, with green's abs
(numpy's complex abs, replicated) and log (math.log) in the oracle.
That abs must match np.abs bit for bit, and green must give the same
values and refusals in a process without numpy.  The Aberth kernel
starts elsewhere and stops by another test than its oracle, so its
roots are matched one to one against the oracle's, within the distance
that the two backward errors allow; its own bits must not depend on the
block size.  Without an oracle, green() and green_field() must agree
cell by cell to rounding, and green() must obey the finite-n step
relation g_n(F(w)) = deg * g_(n+1)(w) on every lift.  Both Horners
start each form at its top nonzero coefficient; against the full Horner
(full_forms_into, full_forms_scalar) they must keep every |F| and every
Green value bit for bit, on the catalog lifts, on Mobius conjugates
M^-1 phi M, whose forms are dense, and on random sparse lifts, and the
conjugates' Green values must differ from phi's at Mz by log|cz + e|
plus a constant.  Every grid and sample pass of measures runs block by
block: with its block patched small it must give the bits of its
whole-array form (the oracle_* functions below, _grid_centers among
them), and under tracemalloc its peak must stay within its result plus
a few blocks.  The trees are
built by _preimage_tree: on the curve maps
below, preimage_sample takes its leaves from the period lattice and
never reaches the Aberth kernel.
"""

import contextlib
import json
import math
import random
import sys
import threading
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from p1dyn import greenpoint, measures, periodic, roots
from p1dyn.errors import ConvergenceError, DomainError
from p1dyn.greenpoint import Lift, cabs, green
from p1dyn.lattes import (
    catalog,
    catalog_entry,
    catalog_names,
    curve_E1,
    curve_E2,
)
from p1dyn.measures import (
    ComplexSampleSet,
    DensityGrid,
    GreenField,
    _forms_into,
    _preimage_tree,
    green_field,
    julia_raster,
    lattes_density,
    measure_from_green,
    preimage_sample,
    sample_histogram,
    write_csv,
)
from p1dyn.quadfield import QuadFieldElement
from p1dyn.ratmaps import Poly, RationalMap
from p1dyn.roots import _aberth_batch, poly_roots
from p1dyn.torus import curve_lattice
from test_heights import conjugate, mobius

TWO_PI = math.tau

# ------------------------------------------------------------- oracles


def oracle_eval(lift, w0, w1):
    # each form's Horner from its top nonzero coefficient t, as
    # f[t] * w1^(deg - t), on fresh arrays or numpy scalars
    deg = lift.degree
    accs = []
    for f in lift._coeffs:
        f = np.array(f)
        top = max((k for k in range(deg + 1) if f[k]), default=deg)
        acc = f[-1] * np.ones_like(w0) if top == deg else None
        p1 = w1
        for k in range(deg - 1, -1, -1):
            if k == top:
                acc = f[k] * p1
            elif k < top:
                acc = acc * w0 + f[k] * p1
            p1 = p1 * w1
        accs.append(acc)
    return tuple(accs)


def full_forms_scalar(coeffs, w0: complex, w1: complex):
    """_forms_scalar's Horner run from the top coefficient, zero or not:
    the reference whose |F| the start at the top nonzero one keeps."""
    f0, f1 = coeffs
    a0 = f0[-1] * (1.0 + 0j)
    a1 = f1[-1] * (1.0 + 0j)
    p = w1
    for k in range(len(f0) - 2, -1, -1):
        a0 = a0 * w0 + f0[k] * p
        a1 = a1 * w0 + f1[k] * p
        p = p * w1
    return a0, a1


def full_forms_into(lift, bufs):
    """_forms_into from the top coefficient, zero or not, as full_forms_scalar."""
    w0, w1, a0, a1, tmp, p, q = bufs
    accs = [a0, a1]
    for acc, f in zip(accs, lift._coeffs):
        acc.fill(f[-1] * (1.0 + 0j))
    p1 = w1
    for k in range(lift.degree - 1, -1, -1):
        for i, f in enumerate(lift._coeffs):
            acc = accs[i]
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


def oracle_green_core(lift, w0, w1, n, absf=np.abs, logf=np.log):
    m = np.maximum(absf(w0), absf(w1))
    g = logf(m)
    w0 = w0 / m
    w1 = w1 / m
    scale = 1.0
    for _ in range(n):
        scale /= lift.degree
        if scale == 0.0:
            # deg^-k has underflowed: each later term is log(m) * 0.0,
            # which leaves g as it is, unless the forms have underflowed
            # to zero and the term is 0 * -inf = nan.  green and
            # green_field stop here, and so does the oracle
            break
        w0, w1 = oracle_eval(lift, w0, w1)
        m = np.maximum(absf(w0), absf(w1))
        g = g + logf(m) * scale
        w0 = w0 / m
        w1 = w1 / m
    return g


def scalar_abs(w):
    # green's abs, numpy's complex abs replicated on Python floats
    return cabs(complex(w))


def scalar_log(m):
    # green's log, math.log, with numpy's -inf at 0, where green refuses
    return math.log(m) if m else -math.inf


def oracle_green(lift, z, n):
    """The plain iteration on numpy scalars, with green's abs and log."""
    val = oracle_green_core(
        lift, np.asarray(complex(z)), np.asarray(1.0 + 0j), n,
        absf=scalar_abs, logf=scalar_log,
    )
    return float(val)


def oracle_histogram(points, window, nx, ny):
    """sample_histogram's masses, with the counts added by np.add.at."""
    a, b, c, d = window
    z = points[(points.real >= a) & (points.real < b)
               & (points.imag >= c) & (points.imag < d)]
    ix = np.minimum(((z.real - a) / (b - a) * nx).astype(int), nx - 1)
    iy = np.minimum(((z.imag - c) / (d - c) * ny).astype(int), ny - 1)
    counts = np.zeros((ny, nx), dtype=float)
    np.add.at(counts, (iy, ix), 1.0)
    return counts / counts.sum()


def oracle_bincount_histogram(points, window, nx, ny):
    """sample_histogram as one pass over the whole sample."""
    a, b, c, d = window
    z = points[(points.real >= a) & (points.real < b)
               & (points.imag >= c) & (points.imag < d)]
    if len(z) == 0:
        raise DomainError("no sample points fall inside the window")
    ix = np.minimum(((z.real - a) / (b - a) * nx).astype(int), nx - 1)
    iy = np.minimum(((z.imag - c) / (d - c) * ny).astype(int), ny - 1)
    counts = np.bincount(iy * nx + ix, minlength=nx * ny).reshape(ny, nx)
    return counts / counts.sum()


def oracle_measure(field):
    """measure_from_green's (mass, window_fraction) as whole-grid
    arrays."""
    nx, ny = field.resolution
    a, b, c, d = field.window
    dx, dy = (b - a) / nx, (d - c) / ny
    g = field.values
    lap = np.zeros_like(g)
    lap[1:-1, 1:-1] = (
        (g[1:-1, 2:] + g[1:-1, :-2] - 2.0 * g[1:-1, 1:-1]) / dx**2
        + (g[2:, 1:-1] + g[:-2, 1:-1] - 2.0 * g[1:-1, 1:-1]) / dy**2
    )
    mass = np.maximum(lap, 0.0) * (dx * dy) / TWO_PI
    total = float(mass.sum())
    return mass / total, min(1.0, total)


def oracle_julia(field):
    """julia_raster as whole-grid arrays."""
    v, fraction = oracle_measure(field)
    peak = float(np.quantile(v[v > 0], 0.98))
    img = 255.0 * (1.0 - np.minimum(v * fraction / peak, 1.0))
    return np.asarray(np.rint(img), dtype=np.uint8)


def oracle_lattes_density(curve, window, nx, ny):
    """lattes_density's (mass, window_fraction) with |G| evaluated on the
    whole grid of centers at once."""
    lat = curve_lattice(curve)
    gc = [complex(c) for c in
          (curve.G.coeff(k) for k in range(curve.G.degree + 1))]
    centers, dx, dy = _grid_centers(window, nx, ny)
    vals = measures._abs_g_on(gc, centers)
    mass = np.divide(dx * dy, vals, out=np.zeros_like(vals),
                     where=(vals > 1e-300) & (vals < math.inf))
    a, b, c, d = window

    def cells(val, lo, step, count):
        eps = 1e-9 * max(1.0, abs(val))
        i0 = max(0, math.floor((val - eps - lo) / step))
        i1 = min(count - 1, math.floor((val + eps - lo) / step))
        return range(int(i0), int(i1) + 1)

    for r in lat.roots:
        if not (a - dx <= r.real <= b + dx and c - dy <= r.imag <= d + dy):
            continue
        for iy in cells(r.imag, c, dy, ny):
            for ix in cells(r.real, a, dx, nx):
                x0, y0 = a + ix * dx, c + iy * dy
                sx, sy = np.meshgrid(x0 + dx / 4.0 * (np.arange(4) + 0.5),
                                     y0 + dy / 4.0 * (np.arange(4) + 0.5))
                sv = measures._abs_g_on(gc, (sx + 1j * sy).ravel())
                sv = sv[sv > 1e-300]
                mass[iy, ix] = float(np.sum(np.divide(
                    (dx / 4.0) * (dy / 4.0), sv, out=np.zeros_like(sv),
                    where=sv < math.inf)))
    window_mass = float(mass.sum())
    if window_mass <= 0.0:
        raise DomainError("window captures no mass")
    return mass / window_mass, min(1.0, window_mass / lat.mass)


def oracle_lattice_leaves(entry, z, depth):
    """_lattice_leaves with its tables of rows j, jx, bj, sb and cb
    built for the whole leaf set, as a (rows, g) array.  The q-series
    runs on the blocks of _LEAF_BLOCK // g rows that _lattice_leaves
    takes: numpy's complex products may round differently in a vector
    loop and in its tail (on AVX-512 hosts they do), so their bits
    depend on where a block ends."""
    lat = curve_lattice(measures.CURVES[entry.curve_name]())
    x, y = measures._elliptic_log(lat, z)
    lam, tau = complex(entry.lam), lat.tau
    p, q, r, s = measures._basis_matrix(lam, lam * tau, tau, entry.name)
    a11, a12, a21, a22 = 1, 0, 0, 1
    for _ in range(depth):
        a11, a12, a21, a22 = (a11 * s - a12 * r, a12 * p - a11 * q,
                              a21 * s - a22 * r, a22 * p - a21 * q)
    nn, g, X = measures._hermite(a11, a12, a21, a22)
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
    step = max(1, measures._LEAF_BLOCK // g)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for lo in range(0, rows, step):
            hi = min(lo + step, rows)
            sig = cb[lo:hi, None] * sx + sb[lo:hi, None] * cx
            np.multiply(sig, sig, out=sig)
            out[lo:hi] = lat.series(sig)
        out *= lat.scale
    return out


def oracle_finite_leaves(a0, a1):
    """The leaves of a tree's last generation (a0 : a1), as one pass:
    (finite points, count at infinity)."""
    infinite = np.abs(a1) <= 1e-14 * np.abs(a0)
    return a0[~infinite] / a1[~infinite], int(np.sum(infinite))


def _grid_centers(window, nx, ny):
    """The complex cell centers of a window grid, as one array, with the
    cell sizes: the grid that green_field and lattes_density build block
    by block from its two axes."""
    a, b, c, d = window
    dx = (b - a) / nx
    dy = (d - c) / ny
    out = np.empty((ny, nx), dtype=complex)
    out.real = a + dx * (np.arange(nx) + 0.5)
    out.imag = (c + dy * (np.arange(ny) + 0.5))[:, None]
    return out, dx, dy


def oracle_green_field(lift, window, nx, ny, n):
    centers, _, _ = _grid_centers(window, nx, ny)
    vals = oracle_green_core(lift, centers, np.ones_like(centers), n)
    return np.asarray(vals, dtype=float)


def oracle_poly_val(C, z):
    acc = np.broadcast_to(C[:, -1][:, None], z.shape).copy()
    for k in range(C.shape[1] - 2, -1, -1):
        acc = acc * z + C[:, k][:, None]
    return acc


def oracle_aberth(C, tilt, tol, max_iter):
    # the kernel before Newton-polygon starts: every root on one Fujiwara
    # circle, every row stopped by a normwise residual test
    C = np.asarray(C, dtype=complex)
    N, w = C.shape
    deg = w - 1
    monic = C / C[:, -1][:, None]
    dC = monic[:, 1:] * np.arange(1, deg + 1)
    mags = np.abs(monic[:, deg - 1 :: -1])
    exps = 1.0 / np.arange(1, deg + 1)
    radius = 2.0 * np.max(mags ** exps[None, :], axis=1) + 0.25
    angles = TWO_PI * (np.arange(deg) + 0.376) / deg
    z = radius[:, None] * np.exp(1j * (angles[None, :] + tilt[:, None]))
    scale = np.sum(np.abs(monic), axis=1)[:, None]
    active = np.ones(N, dtype=bool)
    for _ in range(max_iter):
        val = oracle_poly_val(monic, z)
        bound = tol * scale * np.maximum(1.0, np.abs(z)) ** deg
        row_done = np.all(np.abs(val) <= bound, axis=1)
        active = ~row_done
        if not np.any(active):
            break
        vald = oracle_poly_val(dC[active], z[active])
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
    val = oracle_poly_val(monic, z)
    bound = tol * scale * np.maximum(1.0, np.abs(z)) ** deg
    converged = np.all(np.abs(val) <= bound, axis=1)
    return z, converged, np.abs(val)


def oracle_csv(grid):
    out = []
    for row in grid.mass:
        out.append(",".join(format(v, ".12e") for v in row))
        out.append("\n")
    return "".join(out).encode()


def oracle_text(mass):
    return oracle_csv(SimpleNamespace(mass=mass)).decode()


# ------------------------------------------------------------- helpers


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and (
        a.tobytes() == b.tobytes()
    )


# a cubic over Q(i) that is no catalog map, and whose lift keeps a zero
# coefficient: (3-2i + 15z + 5i/2 z^2 - 7z^3)/(10 - 4i z + z^3)
USER_MAP = RationalMap.from_strings(
    ["3/10-1/5*w", "3/2", "1/4*w", "-7/10"], ["1", "-2/5*w", "0", "1/10"], 1)
LIFTS = [(name, Lift.from_map(catalog(name))) for name in catalog_names()]
LIFTS.append(("user", Lift.from_map(USER_MAP)))
LIFT_IDS = [name for name, _ in LIFTS]
WINDOW = (-1.7, 1.9, -1.3, 1.45)
# Mobius conjugates M^-1 phi M of six catalog maps, three each: their
# forms are dense where the catalog's are sparse
CONJUGATED = ["pow_3", "phi_1+i", "phi_2@E1", "phi_2@E2", "phi_sqrt-3",
              "phi_1+2i"]


def conjugates(name):
    """(M, psi) three times: psi = M^-1 phi M for the catalog map phi."""
    phi = catalog(name)
    rng = random.Random(f"green:{name}")
    out = []
    for _ in range(3):
        M, M_inv = mobius(rng, phi.d)
        out.append((M, conjugate(phi, M, M_inv)))
    return out


DENSE = [(f"{name}~{k}", Lift.from_map(psi))
         for name in CONJUGATED
         for k, (_, psi) in enumerate(conjugates(name))]


# ---------------------------------------------------------------- eval


def forms_into(lift, w0, w1):
    """_forms_into on fresh scratch arrays: the two forms."""
    bufs = [w0, w1] + [np.empty(w0.shape, complex) for _ in range(5)]
    return _forms_into(lift, bufs)[:2]


@pytest.mark.parametrize("name,lift", LIFTS, ids=LIFT_IDS)
def test_eval_arrays_match_oracle(name, lift):
    # the block Horner of green_field, on a wide block and on one- and
    # two-element slices
    rng = np.random.default_rng(11)
    w0 = rng.normal(size=301) + 1j * rng.normal(size=301)
    w1 = rng.normal(size=301) + 1j * rng.normal(size=301)
    for lo, hi in ((0, 301), (5, 6), (7, 9)):
        a0, a1 = w0[lo:hi].copy(), w1[lo:hi].copy()
        got = forms_into(lift, a0, a1)
        want = oracle_eval(lift, a0, a1)
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])


@pytest.mark.parametrize("name,lift", LIFTS, ids=LIFT_IDS)
def test_eval_scalars_match_oracle(name, lift):
    # Python complex against numpy scalars, signed zeros included
    rng = np.random.default_rng(12)
    pairs = [(complex(rng.normal(), rng.normal()),
              complex(rng.normal(), rng.normal())) for _ in range(40)]
    pairs += [(0j, 1 + 0j), (complex(-0.0, 0.0), complex(0.5, -0.0)),
              (complex(0.0, -0.0), complex(-0.0, -0.0)),
              (np.complex128(1e-200j), np.asarray(1e30 + 0j))]
    for w0, w1 in pairs:
        got = lift.eval(w0, w1)
        want = oracle_eval(lift, w0, w1)
        assert type(got[0]) is type(got[1]) is complex
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])


def test_eval_leaves_inputs_alone():
    lift = LIFTS[0][1]
    w0 = np.array([0.5 + 0.25j, -1.0 + 2.0j])
    w1 = np.array([1.0 + 0j, 0.5 - 0.5j])
    c0, c1 = w0.copy(), w1.copy()
    for lo, hi in ((0, 2), (1, 2)):
        forms_into(lift, w0[lo:hi], w1[lo:hi])
    assert same_bits(w0, c0) and same_bits(w1, c1)


# ------------------------------------------- Horner from the top term


def assert_same_forms(got, want):
    # the components equal as numbers, so |F| bit for bit, wherever the
    # full Horner is finite, and non-finite in the same places
    for g, w in zip(got, want):
        g, w = np.asarray(g), np.asarray(w)
        finite = np.isfinite(w)
        assert np.array_equal(np.isfinite(g), finite)
        assert np.array_equal(g[finite], w[finite])
        assert same_bits(np.abs(g)[finite], np.abs(w)[finite])


def full_horner_outcomes(fn, *args):
    """fn(*args) as it is and with the full Horner patched in: a value
    or the exception type, each."""
    out = []
    for full in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            if full:
                mp.setattr(measures, "_forms_into", full_forms_into)
                mp.setattr(greenpoint, "_forms_scalar",
                           lambda coeffs, tops, w0, w1:
                           full_forms_scalar(coeffs, w0, w1))
            try:
                out.append(fn(*args))
            except DomainError as exc:
                out.append(type(exc))
    return out


def assert_green_as_full_horner(lift, points, n):
    for z in points:
        got, want = full_horner_outcomes(green, lift, z, n)
        assert type(got) is type(want) and repr(got) == repr(want), z
    got, want = full_horner_outcomes(green_field, lift, WINDOW, (23, 11), n)
    if isinstance(want, type):
        assert got is want
    else:
        assert same_bits(got.values, want.values)


def sample_points(seed, size):
    # normal points at scales 1e-5 to 1e5, some of them with zero or
    # negative zero components
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-5, 5, size)
    w = (rng.normal(size=size) + 1j * rng.normal(size=size)) * scale
    w[::7] = w[::7].real
    w[1::7] = complex(-0.0, 0.0)
    w[2::7] = 1j * w[2::7].imag
    return w


def check_top_start(lift, seed):
    w0, w1 = sample_points(seed, 301), sample_points(seed + 1, 301)
    for lo, hi in ((0, 301), (5, 6), (7, 9)):
        a0, a1 = w0[lo:hi].copy(), w1[lo:hi].copy()
        bufs = [a0, a1] + [np.empty(a0.shape, complex) for _ in range(5)]
        # coefficients near 1e300 overflow, as green_field's workers allow
        with np.errstate(over="ignore", invalid="ignore"):
            got = forms_into(lift, a0, a1)
            want = full_forms_into(lift, bufs)[:2]
        assert_same_forms(got, want)
    for a, b in zip(w0[:60].tolist(), w1[:60].tolist()):
        got = lift.eval(a, b)
        assert_same_forms(got, full_forms_scalar(lift._coeffs, a, b))


@pytest.mark.parametrize("name,lift", LIFTS + DENSE,
                         ids=LIFT_IDS + [name for name, _ in DENSE])
def test_top_start_keeps_the_full_horner(name, lift):
    # the catalog's forms start below the top, pow_k's denominators at
    # their constant term; the conjugates' forms are dense
    check_top_start(lift, 21)
    assert_green_as_full_horner(lift, [0.5, -1.25 + 0.75j, 3j, 1e-3], 30)


# coefficients of every size, exact zeros included, so that forms start
# anywhere and lone terms occur
SPARSE_COEFFS = st.one_of(
    st.just(0j),
    st.complex_numbers(min_magnitude=0.1, max_magnitude=10,
                       allow_nan=False, allow_infinity=False),
    st.builds(lambda c, e: c * 10.0**e,
              st.complex_numbers(min_magnitude=1, max_magnitude=9,
                                 allow_nan=False, allow_infinity=False),
              st.sampled_from([-300, -299, 299, 300])),
)


@st.composite
def sparse_lifts(draw):
    """A lift of degree 1 to 6 whose forms have random supports: a zero
    top, a lone term or no term at all in either form."""
    deg = draw(st.integers(1, 6))
    forms = []
    for _ in range(2):
        support = draw(st.sets(st.integers(0, deg), max_size=deg + 1))
        forms.append([draw(SPARSE_COEFFS.filter(bool)) if k in support
                      else 0j for k in range(deg + 1)])
    lift = Lift()
    lift._set(*forms)
    return lift


@settings(max_examples=80, deadline=None)
@given(lift=sparse_lifts(), seed=st.integers(0, 2**32 - 1))
def test_top_start_keeps_the_full_horner_on_random_lifts(lift, seed):
    check_top_start(lift, seed)
    if lift.degree >= 2:
        assert_green_as_full_horner(lift, [0.5, -1.25 + 0.75j, 3j], 12)


@pytest.mark.parametrize("name", CONJUGATED)
def test_green_of_a_conjugate(name):
    # psi = M^-1 phi M for M(z) = (az + b)/(cz + e): psi's lift is a
    # multiple of M^-1 F M on C^2, for the matrices of M and M^-1 and F
    # phi's lift, and the Green function of a lift takes log|lambda| from
    # a scalar lambda, so g_psi(z) - g_phi(Mz) - log|cz + e| does not
    # depend on z.  Dense forms on the left, the catalog's on the right
    phi = catalog(name)
    rng = random.Random(f"green-points:{name}")
    window = (-1.3, 1.1, -0.9, 1.2)
    cells = _grid_centers(window, 4, 2)[0].ravel().tolist()
    for M, psi in conjugates(name):
        (b, a), (e, c) = M.complex_pair()

        def pulled(z):
            return green(phi, (a * z + b) / (c * z + e), 60) + math.log(
                abs(c * z + e))

        points = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                  for _ in range(8)]
        diffs = [green(psi, z, 60) - pulled(z) for z in points]
        field = green_field(psi, window, (4, 2), 60).values.ravel()
        diffs += [g - pulled(z) for g, z in zip(field.tolist(), cells)]
        assert max(diffs) - min(diffs) <= 1e-12, (str(M), diffs)


# --------------------------------------------------------------- green


@pytest.mark.parametrize("name,lift", LIFTS, ids=LIFT_IDS)
def test_green_field_matches_oracle(name, lift):
    # 97 x 61 = 5917 cells: one block, not a multiple of any block size
    got = green_field(lift, WINDOW, (97, 61), 12).values
    want = oracle_green_field(lift, WINDOW, 97, 61, 12)
    assert same_bits(got, want)


@pytest.mark.parametrize(
    "block,res", [(1, (9, 7)), (7, (9, 7)), (1000, (97, 61)), (5916, (97, 61))]
)
def test_green_field_block_edges(monkeypatch, block, res):
    # block 5916 leaves a last block of one cell, block 1 makes them all
    # one cell: numpy's one-element loops must round like its array loops
    monkeypatch.setattr(measures, "_GREEN_BLOCK", block)
    for name in ("phi_3@E1", "pow_2", "phi_1+i"):
        lift = Lift.from_map(catalog(name))
        got = green_field(lift, WINDOW, res, 9).values
        want = oracle_green_field(lift, WINDOW, *res, 9)
        assert same_bits(got, want), name


def test_green_field_with_zero_components_matches_oracle():
    # at odd resolution on (-1, 1)^2 the middle row and column of cell
    # centers are exactly 0 on one axis, and the centre cell is 0: the
    # zero terms that Lift.eval skips may flip the sign of a zero
    # component, never a Green value
    window = (-1.0, 1.0, -1.0, 1.0)
    centers, _, _ = _grid_centers(window, 15, 15)
    assert np.all(centers[7].imag == 0) and np.all(centers[:, 7].real == 0)
    for name, lift in LIFTS:
        got = green_field(lift, window, 15, 9).values
        want = oracle_green_field(lift, window, 15, 15, 9)
        assert same_bits(got, want), name


@pytest.mark.parametrize("name,lift", LIFTS, ids=LIFT_IDS)
def test_scalar_green_matches_oracle(name, lift):
    rng = np.random.default_rng(13)
    zs = [0j, 1.0 + 0j, 2.5 - 0.5j, 1e-3j, -40.0 + 3.0j, 1e-200 - 0j,
          complex(-0.0, 1e-200), 1e150 - 3e149j]
    zs += list(1.5 * (rng.normal(size=12) + 1j * rng.normal(size=12)))
    for z in zs:
        for n in (1, 7, 30):
            got = green(lift, z, n)
            assert repr(got) == repr(oracle_green(lift, z, n))


@pytest.mark.parametrize("name", ["pow_2", "phi_3@E1", "user"])
def test_green_past_scale_underflow_matches_oracle(name):
    # deg^-n underflows to 0.0 (n = 1075 for degree 2, 340 for 9, 679
    # for 3); every later step adds log(m) * 0.0
    lift = dict(LIFTS)[name]
    for z in (0.3 + 0.1j, 1.7 - 0.2j, 0.99j):
        want = oracle_green(lift, z, 1100)
        assert repr(green(lift, z, 1100)) == repr(want)
        assert repr(green(lift, z, 10**8)) == repr(want)
    got = green_field(lift, WINDOW, (13, 11), 1500).values
    assert same_bits(got, oracle_green_field(lift, WINDOW, 13, 11, 1500))


def gaussian(a, b):
    return QuadFieldElement(a, b, 1)


@st.composite
def random_maps(draw):
    """A map over Q(i) of degree 2-4, unless num and den share a root,
    with small Gaussian rational coefficients, often exactly zero, and
    sometimes so small that their doubles are subnormal.  The top
    coefficient of the denominator is never small: dividing by it, for
    the monic denominator, keeps every coefficient in double range."""
    deg = draw(st.integers(2, 4))
    small = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 16))
    tiny = st.builds(lambda k, e: Fraction(k, 2**e),
                     st.integers(-7, 7), st.integers(1026, 1070))
    part = st.one_of(st.just(0), small, tiny)
    coeff = st.one_of(st.just(0), st.builds(gaussian, part, part))
    top = st.builds(gaussian, small, small).filter(bool)
    k = draw(st.integers(0, deg))  # the degree of den
    num = draw(st.lists(coeff, min_size=deg, max_size=deg))
    num.append(draw(top if k < deg else coeff))
    den = draw(st.lists(coeff, min_size=k, max_size=k)) + [draw(top)]
    return RationalMap(Poly(num, 1), Poly(den, 1))


def lift_or_power(phi):
    """phi's lift, or z^2's when phi cancels to degree below 2."""
    if phi.degree < 2:
        phi = catalog("pow_2")
    return Lift.from_map(phi)


# z^2 / (z^4 + 2z + 2^-1026), whose constant term is subnormal: from
# (1, 1) the normalized forms reach (0, 2^-1026), where 1/m overflows,
# at step 540, two steps after 4^-k has underflowed
LATE_UNDERFLOW = RationalMap(Poly([0, 0, 1]),
                             Poly([Fraction(1, 2**1026), 2, 0, 0, 1]))


@example(phi=LATE_UNDERFLOW, logr=0.0, turn=0.0, n=1100)
@settings(max_examples=60, deadline=None)
@given(
    phi=random_maps(),
    logr=st.floats(-200.0, 150.0),
    turn=st.floats(0.0, 1.0),
    n=st.one_of(st.integers(1, 40), st.integers(500, 1100)),
)
def test_scalar_green_matches_oracle_on_random_lifts(phi, logr, turn, n):
    # |z| from 1e-200 to 1e150; n past 1075 / log2(deg), where deg^-n
    # has underflowed, for every degree drawn.  green refuses exactly
    # where the plain iteration's value, up to that step, is not
    # finite: a subnormal coefficient can take both forms to zero or to
    # where 1/m overflows (the plain iteration also divides by the last
    # m, which may warn)
    lift = lift_or_power(phi)
    z = 10.0 ** logr * np.exp(2j * np.pi * turn)
    with np.errstate(all="ignore"):
        want = oracle_green(lift, z, n)
    try:
        got = green(lift, z, n)
    except DomainError:
        assert not np.isfinite(want)
    else:
        assert repr(got) == repr(want)


@example(phi=LATE_UNDERFLOW, logr=0.0, turn=0.0, n=1100)
@settings(max_examples=60, deadline=None)
@given(
    phi=random_maps(),
    logr=st.floats(-200.0, 150.0),
    turn=st.floats(0.0, 1.0),
    n=st.one_of(st.integers(1, 40), st.integers(500, 1100)),
)
def test_green_field_matches_oracle_on_random_lifts(phi, logr, turn, n):
    # the field twin of the scalar test: a 3 x 2 window around z, with
    # no np.errstate here, so a worker that warned would fail the test
    lift = lift_or_power(phi)
    z = 10.0 ** logr * np.exp(2j * np.pi * turn)
    h = 0.25 * abs(z)
    window = (z.real - h, z.real + h, z.imag - h, z.imag + h)
    with np.errstate(all="ignore"):
        want = oracle_green_field(lift, window, 3, 2, n)
    try:
        got = green_field(lift, window, (3, 2), n)
    except DomainError as exc:
        assert "non-finite" in str(exc)
        assert not np.all(np.isfinite(want))
    else:
        assert same_bits(got.values, want)


@pytest.mark.parametrize("name,lift", LIFTS, ids=LIFT_IDS)
def test_green_field_cells_match_scalar_green(name, lift):
    # green() runs the iteration on Python complex numbers, green_field
    # on blocks of arrays, whose products may fuse a multiply-add: cell
    # by cell they agree to rounding, not bit for bit
    centers, _, _ = _grid_centers(WINDOW, 13, 11)
    got = green_field(lift, WINDOW, (13, 11), 12).values
    want = np.array([[green(lift, z, 12) for z in row] for row in centers])
    assert np.all(np.abs(got - want) <= 1e-13 * (1.0 + np.abs(want)))


@pytest.mark.parametrize("name,lift", LIFTS, ids=LIFT_IDS)
def test_green_steps_by_the_degree(name, lift):
    # the n-th value is log|F^n(z, 1)| / deg^n, so with F(z, 1) = (a, b)
    # it obeys g_n(a/b) + log|b| = deg * g_(n+1)(z) at every n, not only
    # in the limit: a scale off by one step shows at n = 1
    rng = np.random.default_rng(17)
    zs = [0.5 + 0.25j, -1.3 + 0.7j, 2.0 - 1.1j]
    zs += list(1.5 * (rng.normal(size=8) + 1j * rng.normal(size=8)))
    for z in zs:
        a, b = lift.eval(complex(z), 1.0 + 0j)
        assert abs(b) > 1e-8 * abs(a)
        log_b = float(np.log(abs(b)))
        for n in (1, 6, 20):
            lhs = green(lift, complex(a / b), n) + log_b
            rhs = lift.degree * green(lift, z, n + 1)
            assert abs(lhs - rhs) <= 1e-13 * (1.0 + abs(log_b) + abs(rhs))


# ------------------------------------------------------ numpy-free green


def cabs_samples(seed, size):
    """Complex doubles whose parts run over every scale: normal values
    from 1e-300 to 1e300 each, part ratios near 2^+-1000, zeros of both
    signs, subnormals, the largest doubles, and inf and nan parts."""
    rng = np.random.default_rng(seed)
    re = rng.normal(size=size) * 10.0 ** rng.uniform(-300, 300, size)
    im = rng.normal(size=size) * 10.0 ** rng.uniform(-300, 300, size)
    ratios = slice(0, None, 5)
    re[ratios] = rng.normal(size=size)[ratios]
    im[ratios] = re[ratios] * 2.0 ** rng.uniform(-1000, 1000, size)[ratios]
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-310, 1.0,
               1.7976931348623157e308, -1.7976931348623157e308, 2.0**-1000,
               2.0**1000, np.inf, -np.inf, np.nan]
    k = size // 10
    re[:k] = rng.choice(special, k)
    im[:k] = rng.choice(special, k)
    im[k:2 * k] = rng.choice(special, k)
    out = np.empty(size, complex)
    out.real, out.imag = re, im
    return out


def assert_same_abs(got, want):
    # bit for bit, and nan where numpy gives nan (whatever its payload)
    got, want = np.asarray(got), np.asarray(want)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert same_bits(got[~nan], want[~nan])


def test_cabs_is_numpys_complex_abs():
    # numpy's SIMD loops for complex abs (X86_V3 and up) compute this
    # formula; its baseline loop, taken when they are switched off, is
    # hypot-like and differs in a few values.  green's bits depend on
    # neither, since green calls no numpy
    w = cabs_samples(31, 60_000)
    got = np.array([cabs(z) for z in w.tolist()])
    assert_same_abs(got, np.abs(w))
    # numpy's scalar path, which green's numpy loop took, rounds alike
    some = w[::50]
    assert_same_abs(got[::50], [np.abs(z) for z in some])


def test_every_green_is_the_numpy_free_one():
    import p1dyn

    assert greenpoint.green is p1dyn.green
    assert measures.Lift is greenpoint.Lift is p1dyn.Lift
    # each lazy name is served by one module
    names = [n for ns in p1dyn._LAZY.values() for n in ns]
    assert len(names) == len(set(names))


def test_each_name_has_one_home():
    # the solver is served from roots alone, and measures re-exports
    # neither it nor green
    import p1dyn

    assert p1dyn.poly_roots is roots.poly_roots
    assert not hasattr(measures, "poly_roots")
    assert not hasattr(measures, "green")


# green's values and refusals: the list `out` of repr or "DomainError:
# message" per case, from the same code with and without numpy
_GREEN_CASES = """
from p1dyn.errors import DomainError
from p1dyn.greenpoint import green
from p1dyn.lattes import catalog
from p1dyn.quadfield import QuadFieldElement
from p1dyn.ratmaps import Poly, RationalMap
tiny = RationalMap(Poly([0, 0, 0, 1], 0),
                   Poly([QuadFieldElement(1, 0, 0) / 2**1060, 1], 0))
cases = [(catalog(name), z, n)
         for name in ("pow_2", "phi_1+i", "phi_3@E1", "phi_sqrt-3")
         for z in (0.5, -1.25 + 0.75j, 3j, 1e-3, 1e150 - 3e149j)
         for n in (1, 30, 1100)]
cases += [(tiny, z, 30) for z in (0.5, 0.9, 0.3 + 0.2j, 0.0, 1.5, -2 + 1j)]
import p1dyn
lift = p1dyn.Lift.from_map(catalog("phi_1+i"))
cases += [(lift, z, n) for z in (0.5, -1.25 + 0.75j) for n in (1, 30)]
cases += [
    (RationalMap.from_strings(["0", "0", "1"], ["1", "0", str(10**400)], 0),
     0.5, 30),
    (RationalMap.from_strings([str(10**308), "0", str(10**308)], ["0", "1"],
                              0), 1.0, 3),
    (RationalMap.from_strings(["0", "2"], ["1"], 0), 0.5, 1000),
    (catalog("pow_2"), 2.0, 0),
    ("pow_2", 2.0, 4),
    (catalog("pow_2"), complex("nan"), 4),
]
out = []
for phi, z, n in cases:
    try:
        out.append(repr(green(phi, z, n)))
    except DomainError as exc:
        out.append(f"DomainError: {exc}")
out.append(repr(lift.eval(0.5 - 0.25j, 1.0)))
"""


def test_green_runs_and_refuses_without_numpy():
    # the values and refusals of green, on maps and on a Lift, and the
    # Lift's forms at a point, in a process with numpy blocked are those
    # of this process, where measures is loaded
    import os
    import subprocess

    script = ('import json, sys\nsys.modules["numpy"] = None\n'
              + _GREEN_CASES
              + 'print(json.dumps([out, sys.modules["numpy"] is None]))\n')
    src = os.path.dirname(os.path.dirname(measures.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=300)
    assert proc.returncode == 0, proc.stderr
    out, blocked = json.loads(proc.stdout)
    assert blocked
    here = {}
    exec(_GREEN_CASES, here)
    assert out == here["out"]
    refusals = [v for v in out if v.startswith("DomainError")]
    assert len(refusals) == 10, refusals
    for reason in ("underflows", "vanishes", "overflows",
                   "degree at least 2", "at least one iteration",
                   "expected a Lift or a RationalMap", "must be finite"):
        assert any(reason in v for v in refusals), reason


# ------------------------------------------------------------- workers


def pin_cpus(monkeypatch, cpus):
    monkeypatch.setattr(measures.os, "sched_getaffinity",
                        lambda pid: set(range(cpus)), raising=False)


BLOCK_KERNEL = measures._green_block


def every_worker_takes_a_block(monkeypatch, workers):
    """Hold each thread at its first block until every worker has one,
    so that the workers' blocks interleave; returns the thread ids that
    ran each block."""
    barrier = threading.Barrier(workers, timeout=30)
    seen = []

    def held(*args):
        first = threading.get_ident() not in seen
        seen.append(threading.get_ident())
        if first:
            barrier.wait()
        return BLOCK_KERNEL(*args)

    monkeypatch.setattr(measures, "_green_block", held)
    return seen


@pytest.mark.parametrize("cpus", [1, 2, 3, 5])
def test_green_field_workers_match_oracle(monkeypatch, cpus):
    # 9 x 7 cells in blocks of 4: 16 blocks, the last of 3 cells
    pin_cpus(monkeypatch, cpus)
    monkeypatch.setattr(measures, "_GREEN_BLOCK", 4)
    before = threading.active_count()
    for name in ("phi_3@E1", "pow_2", "user"):
        lift = dict(LIFTS)[name]
        seen = every_worker_takes_a_block(monkeypatch, cpus)
        got = green_field(lift, WINDOW, (9, 7), 9).values
        assert same_bits(got, oracle_green_field(lift, WINDOW, 9, 7, 9))
        assert len(seen) == 16 and len(set(seen)) == cpus
        assert threading.get_ident() in seen
        assert threading.active_count() == before


def test_workers_share_blocks_under_fast_switching(monkeypatch):
    # more workers than cores, one cell a block and a thread switch every
    # microsecond: a block taken twice or never leaves a wrong or
    # uninitialized cell
    pin_cpus(monkeypatch, 8)
    monkeypatch.setattr(measures, "_GREEN_BLOCK", 1)
    lift = dict(LIFTS)["phi_1+i"]
    want = oracle_green_field(lift, WINDOW, 13, 11, 6)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            got = green_field(lift, WINDOW, (13, 11), 6).values
            assert same_bits(got, want)
    finally:
        sys.setswitchinterval(interval)


def test_worker_count_follows_the_affinity_mask(monkeypatch):
    pin_cpus(monkeypatch, 3)
    assert [measures._workers(b) for b in (1, 2, 3, 7)] == [1, 2, 3, 3]
    monkeypatch.delattr(measures.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(measures.os, "cpu_count", lambda: 5)
    assert [measures._workers(b) for b in (1, 4, 9)] == [1, 4, 5]
    monkeypatch.setattr(measures.os, "cpu_count", lambda: None)
    assert measures._workers(9) == 1


def test_one_block_starts_no_thread(monkeypatch):
    pin_cpus(monkeypatch, 4)
    started = []
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: started.append(self))
    lift = dict(LIFTS)["pow_2"]
    got = green_field(lift, WINDOW, (128, 128), 5).values
    assert started == []
    assert same_bits(got, oracle_green_field(lift, WINDOW, 128, 128, 5))


def test_worker_error_reaches_the_caller(monkeypatch):
    pin_cpus(monkeypatch, 3)
    monkeypatch.setattr(measures, "_GREEN_BLOCK", 4)
    seen = every_worker_takes_a_block(monkeypatch, 3)
    held = measures._green_block

    def failing(*args):
        held(*args)
        if threading.get_ident() != threading.main_thread().ident:
            raise ZeroDivisionError("raised in a worker")

    monkeypatch.setattr(measures, "_green_block", failing)
    before = threading.active_count()
    with pytest.raises(ZeroDivisionError, match="raised in a worker"):
        green_field(dict(LIFTS)["pow_2"], WINDOW, (9, 7), 9)
    assert len(set(seen)) == 3
    assert threading.active_count() == before


# (10^308 z^2 + 10^308)/z: near |z| = 1 the first form overflows, then
# 1/m = 0 meets inf in w * (1/m)
OVERFLOWING = Lift.from_map(RationalMap.from_strings(
    [str(10**308), "0", str(10**308)], ["0", "1"], 0))


@pytest.mark.parametrize("cpus", [1, 2, 5])
def test_workers_keep_floating_point_errors_to_themselves(monkeypatch, cpus):
    # every worker, the calling thread included, ignores the overflow
    # whatever the caller's np.errstate, and GreenField refuses the
    # non-finite cells; tier-1 turns a RuntimeWarning into an error, so
    # a worker that warned would raise one here
    pin_cpus(monkeypatch, cpus)
    monkeypatch.setattr(measures, "_GREEN_BLOCK", 4)
    window = (0.9, 1.1, -0.1, 0.1)
    for state in ({}, {"all": "raise"}, {"all": "ignore"}):
        seen = every_worker_takes_a_block(monkeypatch, cpus)
        with np.errstate(**state):
            with pytest.raises(DomainError, match="non-finite"):
                green_field(OVERFLOWING, window, (9, 7), 3)
        assert len(set(seen)) == cpus


def test_green_refuses_a_non_finite_value():
    # the first form overflows at z = 1, and the value is nan; every
    # finite value keeps its bits (test_scalar_green_matches_oracle)
    with pytest.raises(DomainError, match="not finite"):
        green(OVERFLOWING, 1.0, 3)


def test_one_cpu_takes_shorter_blocks(monkeypatch):
    # 128 x 96 cells: pinned to one CPU, blocks of _SOLO_BLOCK = 8192 and
    # the 4096 left; on two CPUs the one block of 12288; the same bits
    lift = dict(LIFTS)["phi_1+i"]
    want = oracle_green_field(lift, WINDOW, 128, 96, 6)
    for cpus, sizes in ((1, [8192, 4096]), (2, [12288])):
        pin_cpus(monkeypatch, cpus)
        seen = []

        def recording(lift_, z, *args):
            seen.append(len(z))
            return BLOCK_KERNEL(lift_, z, *args)

        monkeypatch.setattr(measures, "_green_block", recording)
        got = green_field(lift, WINDOW, (128, 96), 6).values
        assert seen == sizes
        assert same_bits(got, want)


# ----------------------------------------------------------- histogram


def test_sample_histogram_matches_add_at_oracle():
    # random points inside and around the window, points on its right
    # and top edges (outside: the window is half-open), the last floats
    # before them (whose cell index rounds up to nx or ny and is clamped),
    # and its left and bottom edges
    window = (-1.5, 2.0, -1.0, 1.25)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-2.0, 2.5, 5000) + 1j * rng.uniform(-1.5, 1.75, 5000)
    right, top = 2.0, 1.25
    below_r, below_t = np.nextafter(right, 0.0), np.nextafter(top, 0.0)
    edges = [complex(right, 0.3), complex(0.2, top), complex(right, top),
             complex(below_r, 0.3), complex(0.2, below_t),
             complex(below_r, below_t), complex(-1.5, -1.0),
             complex(-1.5, 0.1), complex(0.1, -1.0)]
    pts = np.concatenate([pts, np.repeat(edges, 3)])
    for res in ((37, 23), (64, 64), (2, 2)):
        got = sample_histogram(ComplexSampleSet(pts, 0, 0, 1), window, res)
        assert same_bits(got.mass, oracle_histogram(pts, window, *res))


# -------------------------------------------------------------- aberth


def _batch(seed, n_rows, deg):
    rng = np.random.default_rng(seed)
    C = rng.normal(size=(n_rows, deg + 1)) + 1j * rng.normal(
        size=(n_rows, deg + 1)
    )
    # clustered rows converge late, scaled rows early
    C[::3] = np.poly(np.full(deg, 0.5) + 1e-3 * np.arange(deg))[::-1]
    C[1::5] *= 1e6
    return C


def _tilts(seed, n_rows, deg):
    return np.random.default_rng(seed).uniform(0.0, TWO_PI / deg, n_rows)


def backward_errors(C, roots):
    # |p(z)| / sum_k |a_k| |z|^k by plain Horner, row by row
    C = np.asarray(C, dtype=complex)
    return np.abs(oracle_poly_val(C, roots)) / oracle_poly_val(
        np.abs(C), np.abs(roots))


def greedy_match(got, want):
    # one to one, closest pair first
    dist = np.abs(got[:, None] - want[None, :])
    perm = np.empty(len(got), dtype=int)
    for _ in range(len(got)):
        i, j = np.unravel_index(np.argmin(dist), dist.shape)
        perm[i] = j
        dist[i, :] = np.inf
        dist[:, j] = np.inf
    return want[perm]


def assert_roots_match(C, got, want):
    """Each row's roots pair off one to one with the oracle's, each pair
    no farther apart than 4 (|p(g)| + |p(w)| + rounding) / |p'(g)|: the
    first-order distance their residuals allow."""
    C = np.asarray(C, dtype=complex)
    deg = C.shape[1] - 1
    dC = C[:, 1:] * np.arange(1, deg + 1)
    for row in range(C.shape[0]):
        c, g = C[row : row + 1], got[row][None, :]
        w = greedy_match(got[row], want[row])[None, :]
        rounding = 4 * deg * 2.2e-16 * oracle_poly_val(np.abs(c), np.abs(g))
        allowed = 4.0 * (np.abs(oracle_poly_val(c, g))
                         + np.abs(oracle_poly_val(c, w)) + rounding
                         ) / np.abs(oracle_poly_val(dC[row : row + 1], g))
        assert np.all(np.abs(g - w) <= allowed), row


def oracle_hull_radii(coeffs):
    # upper convex hull of (k, log|a_k|) by Andrew's monotone chain, then
    # one radius per root slot
    pts = [(k, np.log(abs(c))) for k, c in enumerate(coeffs) if c != 0]
    hull = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) >= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    radii = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        radii += [np.exp((y1 - y2) / (x2 - x1))] * (x2 - x1)
    return radii


@pytest.mark.parametrize("coeffs", [
    [1, 1e-3, 1e4, 1e-2, 1],
    [1e20, 0, 0, 1e-6, 3, 0, 1],
    [2.5, 0, 1],
    [1, 1, 1, 1, 1, 1],
    [1e-30, 1e30, 1e-30],
])
def test_starts_sit_on_the_newton_polygon(coeffs):
    C = np.array(coeffs, dtype=complex)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        z = roots._newton_starts(C, np.array([0.3]))[:, 0]
    want = np.array(oracle_hull_radii(coeffs))
    assert np.allclose(np.abs(z), want, rtol=1e-12)
    # the roots of one circle are equally spaced
    for r in set(want.tolist()):
        on = z[np.isclose(np.abs(z), r, rtol=1e-12)]
        gaps = np.diff(np.sort(np.angle(on / on[0]) % TWO_PI))
        assert np.allclose(gaps, TWO_PI / len(on))


@pytest.mark.parametrize("deg", [2, 4, 5, 9])
def test_aberth_rows_finish_on_different_sweeps(deg):
    C = _batch(deg, 40, deg)
    tilt = _tilts(5, 40, deg)
    counts = [int(np.sum(_aberth_batch(C, tilt, 1e-10, k)[1]))
              for k in range(40)]
    # the batch really does thin out over several sweeps
    assert len(set(counts)) >= 4
    roots, ok, err = _aberth_batch(C, tilt, 1e-10, 300)
    want, want_ok, _ = oracle_aberth(C, tilt, 1e-10, 300)
    assert np.all(ok) and np.all(want_ok)
    # the errors are those of the iterate that passed; the roots returned,
    # one correction further, pass too
    assert np.all(err <= 1e-10)
    assert np.all(backward_errors(C, roots) <= 1e-10)
    assert_roots_match(C, roots, want)


def test_aberth_hits_max_iter():
    C = _batch(21, 30, 6)
    roots, ok, err = _aberth_batch(C, _tilts(2, 30, 6), 1e-14, 6)
    assert not np.all(ok) and np.any(ok)
    assert np.array_equal(ok, np.all(err <= 1e-14, axis=1))
    # a flagged row is returned as it stands, with its own errors
    np.testing.assert_allclose(err[~ok], backward_errors(C[~ok], roots[~ok]),
                               rtol=1e-12, atol=1e-300)


def test_aberth_single_row_and_no_rng():
    # a row's bits depend on its coefficients and tilt alone: solved on
    # its own, with poly_roots's fixed tilt or a drawn one, it matches
    # the same row inside a batch
    C = _batch(3, 12, 7)
    for tilt in (np.full(12, roots._ROOT_TILT), _tilts(9, 12, 7)):
        batch = _aberth_batch(C, tilt, 1e-10, 300)
        for row in (0, 1, 7):
            alone = _aberth_batch(C[row : row + 1], tilt[row : row + 1],
                                  1e-10, 300)
            for a, b in zip(alone, batch):
                assert same_bits(a[0], b[row])
        want = oracle_aberth(C, tilt, 1e-10, 300)[0]
        assert_roots_match(C, batch[0], want)


def test_zero_roots_are_split_off_exactly():
    # the last row leaves z - 1, a remainder of degree 1, whose pair
    # table is empty
    C = np.array([[0, 0, 1, 2j, -1], [-0.0, 1, 1, 1, 1],
                  [-0.0 - 0.0j, -0.0, -0.0, -0.0, 5], [1, 2, 3, 4, 5],
                  [0, 0, 0, -1, 1]],
                 dtype=complex)
    tilt = _tilts(4, 5, 4)
    roots, ok, err = _aberth_batch(C, tilt, 1e-13, 300)
    assert np.all(ok)
    assert abs(roots[4][3] - 1) <= 1e-15
    for row, k in enumerate((2, 1, 4, 0, 3)):
        zeros = roots[row][:k]
        assert np.all(zeros == 0) and not np.any(err[row][:k])
        # -0.0 == 0.0, so only the sign bits show an unsigned zero
        assert not np.any(np.signbit(zeros.real) | np.signbit(zeros.imag))
        if k < 4:
            # the others are the roots of the row shifted down by k
            alone = _aberth_batch(C[row : row + 1, k:], tilt[row : row + 1],
                                  1e-13, 300)[0][0]
            assert same_bits(roots[row][k:], alone)
    # the same split of z^2 - z, whose fixed points are 0, 1 and infinity
    pts = [z for z, _ in periodic._generic_periodic(catalog("pow_2"), 1)]
    assert pts == [0j, 1 + 0j, periodic.INF_POINT]


def test_rows_that_are_not_finite_are_flagged():
    # a row with an inf or nan coefficient anywhere, below a split-off
    # zero or in the leading column among them, is not swept: it comes
    # back flagged with nan roots and errors, and the finite rows keep
    # the bits they take without it
    C = _batch(8, 7, 4)
    C[5, :2] = 0
    tilt = _tilts(8, 7, 4)
    bad = C.copy()
    bad[1, 2] = np.inf
    bad[3, 0] = np.nan
    bad[4, 4] = complex(1, np.nan)
    bad[6, :3] = [0, -np.inf, 1]
    with np.errstate(all="raise"):
        got = _aberth_batch(bad, tilt, 1e-12, 300)
    want = _aberth_batch(C, tilt, 1e-12, 300)
    ok = np.array([1, 0, 1, 0, 0, 1, 0], dtype=bool)
    assert np.array_equal(got[1], ok) and np.all(want[1])
    assert np.all(np.isnan(got[0][~ok])) and np.all(np.isnan(got[2][~ok]))
    for a, b in zip(got, want):
        assert same_bits(a[ok], b[ok])


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_tree_refuses_leaves_that_are_not_finite(monkeypatch, depth):
    # the first row of every batch is given an infinite coefficient, so
    # the kernel flags it and its preimages are nan; the 2 to 8 such
    # leaves are within the allowance of 16 missed solves, and still
    # raise, with no numpy warning on the way
    def poisoned(C, *args):
        C = C.copy()
        C[0, 0] = np.inf
        return _aberth_batch(C, *args)

    monkeypatch.setattr(measures, "_aberth_batch", poisoned)
    with pytest.raises(ConvergenceError, match="not finite"):
        preimage_sample(catalog("pow_2"), 0.3 + 0.2j, depth)


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_tree_scales_forms_that_would_overflow_a_row(depth):
    # (B z^2 + B)/(z - B): at B = 17e307 every coefficient of a1 F0 - a0
    # F1 would overflow, and the forms are scaled by 2^-4 first; the map
    # is -(z^2 + 1) to within 1/B, so its leaves are those at B = 17e300
    def tree(e):
        big = str(17 * 10**e)
        phi = RationalMap.from_strings([big, "0", big], ["-" + big, "1"], 0)
        return preimage_sample(phi, 0.3 + 0.2j, depth)

    got, want = tree(307), tree(300)
    assert got.n_infinite == want.n_infinite == 0
    nearest, dist = chordal_match(*_leaf_pairs(got), *_leaf_pairs(want))
    assert len(set(nearest.tolist())) == got.size == 2**depth
    assert dist.max() <= 1e-8


def test_lazy_compaction_keeps_each_column_its_own_bits():
    # rows with a cluster of width 10^-t at 0.5 finish later as t grows:
    # the batch finishes over several sweeps, and on most of them fewer
    # than half of its rows are done, so finished columns stay in the
    # sweeps, masked, beside the live ones
    deg, n = 4, 24
    rng = np.random.default_rng(1)
    C = rng.normal(size=(n, deg + 1)) + 1j * rng.normal(size=(n, deg + 1))
    for row in range(n // 4, n):
        spread = 10.0 ** -(1 + 5 * row / n)
        C[row] = np.poly(0.5 + spread * rng.normal(size=deg))[::-1]
    tilt = _tilts(1, n, deg)
    counts = {int(np.sum(_aberth_batch(C, tilt, 1e-12, k)[1]))
              for k in range(40)} - {0}
    assert len(counts) >= 4
    assert 2 * sum(2 * c < n for c in counts) > len(counts)
    batch = _aberth_batch(C, tilt, 1e-12, 300)
    assert np.all(batch[1])
    for row in range(n):
        alone = _aberth_batch(C[row : row + 1], tilt[row : row + 1],
                              1e-12, 300)
        for a, b in zip(alone, batch):
            assert same_bits(a[0], b[row]), row


def test_poly_roots_convergence_error_residuals(monkeypatch):
    monkeypatch.setattr(roots, "_ROOT_SWEEPS", 2)
    coeffs = [1.0, -3.0, 0.5j, 2.0, 0.0, 1.0, -1.0]
    with pytest.raises(ConvergenceError) as err:
        poly_roots(coeffs)
    C = np.array([coeffs], dtype=complex)
    got, ok, _ = _aberth_batch(C, np.array([roots._ROOT_TILT]),
                               roots._ROOT_TOL, 2)
    assert not ok[0]
    resid = err.value.residuals
    assert max(resid) > roots._ROOT_TOL
    np.testing.assert_allclose(resid, backward_errors(C, got)[0],
                               rtol=1e-12)


def chordal_match(a0, a1, b0, b1):
    # nearest b point of every a point, in the chordal metric
    na = np.sqrt(np.abs(a0) ** 2 + np.abs(a1) ** 2)
    nb = np.sqrt(np.abs(b0) ** 2 + np.abs(b1) ** 2)
    dist = np.abs(a0[:, None] * b1[None, :] - a1[:, None] * b0[None, :]) / (
        na[:, None] * nb[None, :])
    nearest = np.argmin(dist, axis=1)
    return nearest, dist[np.arange(len(a0)), nearest]


CURVE_MAPS = [name for name in catalog_names()
              if catalog_entry(name).curve_name]
# the depth at which a tree of each degree has at most 64 leaves
CONJUGATE_DEPTH = {2: 6, 3: 3, 4: 3, 5: 2, 9: 1}
# drawn conjugates whose tree leaves miss their exact partners; see the
# FOUND line on measures._preimage_tree in CHANGES.md
TREE_MISSES = {("phi_3@E1", 0)}


def _leaf_pairs(sample):
    """The leaves of a ComplexSampleSet as projective pairs, infinity as
    (1, 0)."""
    inf = sample.n_infinite
    return (np.concatenate([sample.points, np.ones(inf)]),
            np.concatenate([np.ones(len(sample.points)), np.zeros(inf)]))


@pytest.mark.parametrize("name,draw", [
    pytest.param(name, draw, marks=pytest.mark.xfail(
        strict=True, reason="the tree accepts leaves of a cluster that "
        "are far from the exact ones")) if (name, draw) in TREE_MISSES
    else (name, draw)
    for name in CURVE_MAPS for draw in range(2)])
def test_preimages_of_a_conjugate(name, draw):
    # psi = M^-1 phi M is in no catalog, so preimage_sample takes the
    # Aberth tree on it, while psi^-k(z) = M^-1(phi^-k(M z)) and phi's
    # side takes the closed form of the period lattice.  The two agree as
    # multisets within 1e-9 chordal, or the tree raises
    # ConvergenceError.  Measured over 10 draws of each curve map at
    # these depths: 7.2e-11 at most where the tree found the leaves, and
    # two draws of 130 where it did not, 2.7e-2 and 6.5e-2 away
    phi = catalog(name)
    rng = random.Random(f"preimage:{name}:{draw}")
    M, M_inv = mobius(rng, phi.d)
    psi = conjugate(phi, M, M_inv)
    depth = CONJUGATE_DEPTH[phi.degree]
    z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    try:
        got = preimage_sample(psi, z, depth)
    except ConvergenceError:
        return
    (b, a), (e, c) = M.complex_pair()
    w0, w1 = _leaf_pairs(preimage_sample(phi, (a * z + b) / (c * z + e),
                                         depth))
    (b, a), (e, c) = M_inv.complex_pair()
    nearest, dist = chordal_match(*_leaf_pairs(got), a * w0 + b * w1,
                                  c * w0 + e * w1)
    assert got.size == len(w0) == phi.degree**depth
    assert len(set(nearest.tolist())) == len(w0)
    assert dist.max() <= 1e-9, (str(M), dist.max())


def test_preimage_tree_matches_oracle_kernel(monkeypatch):
    # the tree itself: preimage_sample takes the lattice path on this map
    phi = catalog("phi_2@E1")
    got = _preimage_tree(phi, 0.3 + 0.2j, 5, 4)
    monkeypatch.setattr(measures, "_aberth_batch", oracle_aberth)
    want = _preimage_tree(phi, 0.3 + 0.2j, 5, 4)
    assert got.n_infinite == want.n_infinite
    ones = np.ones(len(got.points))
    nearest, dist = chordal_match(got.points, ones, want.points, ones)
    # one to one, and each point where the oracle kernel put it
    assert len(set(nearest.tolist())) == len(got.points)
    assert np.all(dist <= 1e-6)


@pytest.mark.parametrize("name,depth", [
    ("phi_2@E1", 4), ("phi_3@E1", 3), ("pow_2", 7), ("phi_1+2i", 3),
    ("phi_eps", 3),
])
def test_preimage_tree_block_edges(monkeypatch, name, depth):
    # blocks of 1 and 7 rows, and a last block shorter than the others,
    # give the same bits as the default blocks
    phi = catalog(name)
    want = _preimage_tree(phi, 0.3 + 0.2j, depth, 6)
    # and they are preimages: phi^depth takes each back to the seed, in
    # the chordal metric (measured: 2.6e-14 at most)
    lift = Lift.from_map(phi)
    w0, w1 = want.points, np.ones_like(want.points)
    for _ in range(depth):
        w0, w1 = oracle_eval(lift, w0, w1)
        m = np.maximum(np.abs(w0), np.abs(w1))
        w0, w1 = w0 / m, w1 / m
    _, dist = chordal_match(w0, w1, np.array([0.3 + 0.2j]), np.ones(1))
    assert np.all(dist <= 1e-12)
    for block in (1, 7):
        monkeypatch.setattr(measures, "_ROOT_BLOCK", block)
        got = _preimage_tree(phi, 0.3 + 0.2j, depth, 6)
        assert same_bits(got.points, want.points), block
        assert got.n_infinite == want.n_infinite


# ----------------------------------------------------------------- csv


def loose_grid(mass):
    """What write_csv reads of a DensityGrid, with no check on the mass,
    so the kernel meets values that no grid holds."""
    return SimpleNamespace(window=WINDOW, resolution=mass.shape[::-1],
                           mass=mass, window_fraction=1.0)


def near_ties(count, seed):
    """The doubles nearest to decimals of 14 significant digits ending in
    5, half-way between two of 13 digits, and both their neighbours."""
    rng = np.random.default_rng(seed)
    digits = rng.integers(10**12, 10**13, count) * 10 + 5
    exps = rng.integers(-40, 30, count)
    ties = np.array([float(f"{d}e{x}") for d, x in zip(digits, exps)])
    return np.concatenate([np.nextafter(ties, 0.0), ties,
                           np.nextafter(ties, np.inf)])


def special_values():
    powers = np.array([float(f"1e-{k}") for k in range(31)])
    return np.concatenate([
        np.nextafter(powers, 0.0), powers, np.nextafter(powers, 2.0),
        near_ties(300, 7),
        [1e-300, 5e-324, 0.0, -0.0, 1.0, 0.5, 1e-99, 1e-100, 9.9e99, 1e100,
         2.2e-308, np.nextafter(1e-99, 0.0)],
    ])


def test_csv_bytes_match_oracle(tmp_path):
    field = green_field(Lift.from_map(catalog("phi_2@E1")), WINDOW,
                        (45, 37), 12)
    grids = [measure_from_green(field)]
    mass = np.array([[0.0, 1e-300, 5e-324], [0.25, 0.5, 0.25 - 1e-300]])
    grids.append(DensityGrid(WINDOW, (3, 2), mass))
    grids.append(DensityGrid(WINDOW, (1, 1), np.array([[1.0]])))
    for i, grid in enumerate(grids):
        path = tmp_path / f"g{i}.csv"
        write_csv(grid, path)
        assert path.read_bytes() == oracle_csv(grid)


@pytest.mark.parametrize("cols", [1, 7, 512])
def test_csv_special_values_match_oracle(tmp_path, cols):
    vals = special_values()
    vals = np.resize(vals, (len(vals) + cols - 1) // cols * cols)
    path = tmp_path / "special.csv"
    mass = vals.reshape(-1, cols)
    write_csv(loose_grid(mass), path)
    assert path.read_bytes() == oracle_csv(loose_grid(mass))


def test_csv_non_grid_values_match_oracle():
    vals = np.array([-0.0, -1.5, np.nan, np.inf, -np.inf, 1e300, -1e-300,
                     1e100, -2.5e-7, 1e308, np.nextafter(1e100, 0.0)])
    for block in (vals[:, None], vals[None, :], vals.reshape(1, -1)[:, ::-1]):
        assert measures._csv_text(block) == oracle_text(block)


def test_csv_three_digit_exponent_row_among_regular_rows(tmp_path):
    mass = np.full((6, 5), 1 / 29)
    mass[3, 2] = 1e-300
    mass[3, 4] = 0.0
    mass[3, 4] = 1.0 - mass.sum()
    grid = DensityGrid(WINDOW, (5, 6), mass)
    path = tmp_path / "g.csv"
    write_csv(grid, path)
    text = path.read_bytes()
    assert text == oracle_csv(grid)
    assert b"1.000000000000e-300" in text.splitlines()[3]


@pytest.mark.parametrize("shape", [(1, 1), (130, 1), (63, 512), (64, 512),
                                   (65, 512), (130, 512)])
@pytest.mark.parametrize("block", [None, 64])
def test_csv_block_edges(monkeypatch, tmp_path, shape, block):
    # the rows of every block, with slow cells on either side of an edge
    if block:
        monkeypatch.setattr(measures, "_CELL_BLOCK", block * shape[1])
    rng = np.random.default_rng(shape[0] * shape[1])
    mass = rng.random(shape) ** 8
    ties = near_ties(2, 3)
    for r in {0, 62, 63, 64, shape[0] - 1}:
        if r < shape[0]:
            mass[r, -1] = ties[r % len(ties)]
            mass[r, 0] = (0.0, -0.0)[r % 2]
    if shape[0] > 64:
        mass[64, shape[1] // 2] = 1e-300
    path = tmp_path / "g.csv"
    write_csv(loose_grid(mass), path)
    assert path.read_bytes() == oracle_csv(loose_grid(mass))


def test_csv_pow2_measure_matches_oracle(tmp_path):
    # the unit circle of z^2 on (-2, 2)^2: most cells are exact zeros
    field = green_field(catalog("pow_2"), (-2.0, 2.0, -2.0, 2.0), 128, 24)
    grid = measure_from_green(field)
    assert np.count_nonzero(grid.mass == 0.0) > grid.mass.size // 2
    path = tmp_path / "pow2.csv"
    write_csv(grid, path)
    assert path.read_bytes() == oracle_csv(grid)


_EDGES = st.sampled_from([float(f"1e{k}") for k in range(-110, 110)])
_CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(0.0, 1.0),
    _EDGES,
    _EDGES.map(lambda p: float(np.nextafter(p, 0.0))),
    _EDGES.map(lambda p: float(np.nextafter(p, np.inf))),
    st.integers(10**12, 10**13 - 1).map(lambda d: (d * 10 + 5) * 1e-17),
)


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2,
                                               max_side=9), elements=_CELLS))
def test_csv_text_matches_format(block):
    assert measures._csv_text(block) == oracle_text(block)


def test_csv_fast_path_covers_the_grid():
    # fewer than 1 % of a measure's cells may reach "%.12e": the kernel
    # that formats every cell itself is the one this guards against
    field = green_field(catalog("phi_2@E1"), WINDOW, 512, 24)
    mass = measure_from_green(field).mass
    _, _, fast = measures._csv_significands(mass)
    assert np.count_nonzero(~fast) < 0.01 * mass.size


@pytest.mark.parametrize("shift", [-1.0, -1e-3, 1e-3, 1.0])
def test_csv_digits_do_not_rest_on_log10(monkeypatch, shift):
    # an exponent one off, from a log10 that rounds across an integer,
    # may only send cells to "%.12e"
    block = np.concatenate([special_values(),
                            np.random.default_rng(5).random(500)])
    block = block[:, None]
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda x: log10(x) + shift)
    assert measures._csv_text(block) == oracle_text(block)


# -------------------------------------------------------------- blocks
#
# Every pass of measures over a grid or a sample runs on blocks of
# _CELL_BLOCK cells (green_field on its worker blocks), keeping only its
# result at full size: with the block patched small it must give the
# whole-array oracles' bits, and numpy reports its buffers to tracemalloc,
# so its peak must stay within its result plus a few blocks


@contextlib.contextmanager
def tracing():
    """Traces allocations in the with block, from a reset peak."""
    was = tracemalloc.is_tracing()
    if not was:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        yield
    finally:
        if not was:
            tracemalloc.stop()


def traced(fn, *args):
    """(fn(*args), peak bytes traced above the call's start)."""
    with tracing():
        start = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - start


# what one pass may hold past its result: eight complex arrays of one
# block (4 MiB); the parent's whole-array temporaries of the sizes below
# were each well past it
SLACK = 8 * 16 * measures._CELL_BLOCK
BIG_WINDOW = (-1.5, 1.5, -1.5, 1.5)


@pytest.fixture(scope="module")
def big_field():
    # 1024^2 cells of pow_2, two steps, on two workers
    with pytest.MonkeyPatch.context() as mp:
        pin_cpus(mp, 2)
        return traced(green_field, catalog("pow_2"), BIG_WINDOW, 1024, 2)


def test_green_field_holds_its_values_and_the_workers_blocks(big_field):
    # each worker's ten scratch arrays and its block of centers: 13
    # complex arrays of one block at most
    field, peak = big_field
    assert peak < field.values.nbytes + 2 * 13 * 16 * measures._GREEN_BLOCK


def test_measure_from_green_holds_its_grid(big_field):
    field, _ = big_field
    grid, peak = traced(measure_from_green, field)
    assert peak < grid.mass.nbytes + SLACK


def test_julia_raster_holds_the_measure_and_its_positive_cells(big_field):
    field, _ = big_field
    img, peak = traced(julia_raster, field)
    positive = np.count_nonzero(measure_from_green(field).mass > 0)
    assert peak < img.nbytes + 8 * (img.size + positive) + SLACK


def test_sample_histogram_holds_its_grid():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=2**20) + 1j * rng.normal(size=2**20)
    grid, peak = traced(sample_histogram, ComplexSampleSet(pts, 0, 0, 1),
                        BIG_WINDOW, 64)
    assert peak < grid.mass.nbytes + SLACK


def test_lattes_density_holds_its_grid():
    grid, peak = traced(lattes_density, curve_E1(), BIG_WINDOW, 1024)
    assert peak < grid.mass.nbytes + SLACK


def test_lattice_leaves_are_not_copied():
    # 4^10 leaves of phi_2@E1 from the period lattice, none at infinity:
    # the q-series tables of 1024 rows and columns are small
    sample, peak = traced(preimage_sample, catalog("phi_2@E1"),
                          0.3 + 0.2j, 10)
    assert sample.size == 4**10 and sample.n_infinite == 0
    assert peak < sample.points.nbytes + SLACK


def test_lattice_leaves_hold_one_block_of_rows():
    # 5^8 leaves of phi_1+2i in 5^8 rows of one leaf (g = 1): the rows of
    # the q-series tables are built block by block, not for all leaves
    sample, peak = traced(preimage_sample, catalog("phi_1+2i"),
                          0.3 + 0.2j, 8)
    assert sample.size == 5**8 and sample.n_infinite == 0
    assert peak < sample.points.nbytes + SLACK


def test_tree_leaves_are_not_copied(monkeypatch):
    # from the return of the last generation's solve, which holds the
    # coordinates (a0 : a1) of 2^18 leaves and the 2^17 of the generation
    # before, the infinity test and the quotients a0/a1 take a few blocks
    solve = measures._solve_generation

    def solving(*args):
        out = solve(*args)
        tracemalloc.reset_peak()
        return out

    monkeypatch.setattr(measures, "_solve_generation", solving)
    with tracing():
        start = tracemalloc.get_traced_memory()[0]
        sample = preimage_sample(catalog("pow_2"), 0.3 + 0.2j, 18)
        peak = tracemalloc.get_traced_memory()[1] - start
    assert sample.size == 2**18 and sample.n_infinite == 0
    assert peak < 3 * sample.points.nbytes + SLACK // 2


# cell blocks for the bit-identity tests: one cell, a few cells, some
# rows and a remainder, and the default
CELL_BLOCKS = [1, 7, 3 * 37 + 5, None]


def patch_cell_block(monkeypatch, block):
    if block:
        monkeypatch.setattr(measures, "_CELL_BLOCK", block)


@pytest.mark.parametrize("block", CELL_BLOCKS)
@pytest.mark.parametrize("name,res", [("pow_2", (37, 33)),
                                      ("phi_2@E1", (40, 35)),
                                      ("user", (37, 64))])
def test_measure_and_raster_blocks_match_oracle(monkeypatch, block, name,
                                                res):
    field = green_field(dict(LIFTS)[name], WINDOW, res, 12)
    want, fraction = oracle_measure(field)
    image = oracle_julia(field)
    patch_cell_block(monkeypatch, block)
    grid = measure_from_green(field)
    assert same_bits(grid.mass, want)
    assert repr(grid.window_fraction) == repr(fraction)
    assert same_bits(julia_raster(field), image)


@pytest.mark.parametrize("block", CELL_BLOCKS)
def test_sample_histogram_blocks_match_oracle(monkeypatch, block):
    # 5027 points, inside, outside and on every edge of the window
    window = (-1.5, 2.0, -1.0, 1.25)
    rng = np.random.default_rng(8)
    pts = rng.uniform(-2.0, 2.5, 5000) + 1j * rng.uniform(-1.5, 1.75, 5000)
    below_r, below_t = np.nextafter(2.0, 0.0), np.nextafter(1.25, 0.0)
    edges = [complex(2.0, 0.3), complex(0.2, 1.25), complex(2.0, 1.25),
             complex(below_r, 0.3), complex(0.2, below_t),
             complex(below_r, below_t), complex(-1.5, -1.0)]
    pts = np.concatenate([pts, np.repeat(edges, 3), [np.nan, np.inf]])
    patch_cell_block(monkeypatch, block)
    for res in ((37, 23), (64, 64), (2, 2)):
        got = sample_histogram(ComplexSampleSet(pts, 0, 0, 1), window, res)
        assert same_bits(got.mass, oracle_bincount_histogram(pts, window,
                                                             *res))
    # a window that no point falls in, over many blocks
    with pytest.raises(DomainError, match="no sample points"):
        sample_histogram(ComplexSampleSet(pts, 0, 0, 1),
                         (3.0, 4.0, 3.0, 4.0), 8)


@pytest.mark.parametrize("block", CELL_BLOCKS)
def test_lattes_density_blocks_match_oracle(monkeypatch, block):
    # the windows hold roots of G, whose cells are subsampled
    cases = [(curve_E1(), WINDOW, (37, 23)), (curve_E2(), WINDOW, (30, 41)),
             (curve_E1(), (-1.0, 1.0, -1.0, 1.0), (15, 15))]
    patch_cell_block(monkeypatch, block)
    for curve, window, res in cases:
        got = lattes_density(curve, window, res)
        want, fraction = oracle_lattes_density(curve, window, *res)
        assert same_bits(got.mass, want)
        assert repr(got.window_fraction) == repr(fraction)
    # |G| overflows in every cell: a window without mass
    with pytest.raises(DomainError, match="no mass"):
        lattes_density(curve_E1(), (1e200, 2e200, 1e200, 2e200), 9)


def captured(monkeypatch, name):
    """Replaces measures.<name> by a wrapper that keeps a copy of each
    result; returns the list of copies."""
    fn, seen = getattr(measures, name), []

    def keeping(*args):
        out = fn(*args)
        seen.append(tuple(np.copy(a) for a in out)
                    if isinstance(out, tuple) else np.copy(out))
        return out

    monkeypatch.setattr(measures, name, keeping)
    return seen


@pytest.mark.parametrize("block", CELL_BLOCKS)
def test_lattice_leaves_at_infinity_match_oracle(monkeypatch, block):
    # from 1e12 one depth-4 leaf of phi_2@E1 is past 1e14
    patch_cell_block(monkeypatch, block)
    seen = captured(monkeypatch, "_lattice_leaves")
    got = preimage_sample(catalog("phi_2@E1"), 1e12, 4)
    x = seen[-1]
    finite = np.abs(x) < 1e14
    assert got.n_infinite == np.count_nonzero(~finite) == 1
    assert same_bits(got.points, x[finite])


@pytest.mark.parametrize("name,depth", [
    ("phi_1+2i", 4), ("phi_2-i", 4), ("phi_2@E1", 5), ("phi_sqrt-3", 5),
    ("phi_3@E2", 3),
])
def test_lattice_leaf_blocks_match_oracle(monkeypatch, name, depth):
    # tables of rows built a block at a time give the bits of the whole
    # tables, at the default block and at blocks of one row, of three
    # rows and of all rows but one, the last two leaving a last block of
    # one row on 5^4 rows
    entry = catalog_entry(name)
    rows, g = oracle_lattice_leaves(entry, 0.3 + 0.2j, depth).shape
    assert rows > 3
    for block in (None, 1, 3 * g, (rows - 1) * g):
        if block:
            monkeypatch.setattr(measures, "_LEAF_BLOCK", block)
        want = oracle_lattice_leaves(entry, 0.3 + 0.2j, depth)
        got = measures._lattice_leaves(entry, 0.3 + 0.2j, depth)
        assert same_bits(got, want.ravel()), block


@pytest.mark.parametrize("block", CELL_BLOCKS)
def test_tree_leaves_at_infinity_match_oracle(monkeypatch, block):
    # phi = (z^3+3z+1)/(z^3+5z^2+1) sends infinity to 1, and the row of
    # the seed 1 is 3z - 5z^2: its leaves are 0, 3/5 and infinity
    phi = RationalMap.from_strings(["1", "3", "0", "1"], ["1", "0", "5", "1"],
                                   0)
    patch_cell_block(monkeypatch, block)
    seen = captured(monkeypatch, "_solve_generation")
    got = preimage_sample(phi, 1.0, 1, seed=2)
    pts, n_infinite = oracle_finite_leaves(*seen[-1][:2])
    assert got.n_infinite == n_infinite == 1
    assert same_bits(got.points, pts)
    assert np.allclose(sorted(pts.real), [0.0, 0.6]) and not pts.imag.any()


@pytest.mark.parametrize("block", [1, 2, None])
def test_grid_checks_reach_every_block(monkeypatch, block):
    # a negative cell in the first block and a nan in the last: the nan
    # is named, as by one pass over the grid
    patch_cell_block(monkeypatch, block)
    mass = np.full((3, 4), 1 / 12)
    mass[0, 0] = -0.0
    mass[2, 3] = np.nan
    with pytest.raises(DomainError, match="non-finite"):
        DensityGrid(WINDOW, (4, 3), mass.copy())
    mass[2, 3] = -1 / 12
    mass[0, 1] += 2 / 12
    with pytest.raises(DomainError, match="negative"):
        DensityGrid(WINDOW, (4, 3), mass.copy())
    values = np.zeros((3, 4))
    values[2, 3] = np.inf
    with pytest.raises(DomainError, match="non-finite"):
        GreenField(WINDOW, (4, 3), values, 1)
