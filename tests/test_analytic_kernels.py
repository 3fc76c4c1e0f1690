"""Bit-for-bit checks of the analytic kernels against their plain forms.

The oracles below are the straightforward kernels that the blocked
Green iteration, the active-row Aberth sweep and the row-formatted CSV
writer replaced: a fresh array for every operation, every row evaluated
on every sweep, one value formatted at a time.  Each optimised kernel
must return the same bits, compared through tobytes() so that a one-ulp
change or a flipped zero sign shows.
"""

import numpy as np
import pytest

from p1dyn import measures
from p1dyn.errors import ConvergenceError
from p1dyn.lattes import catalog, catalog_names
from p1dyn.measures import (
    DensityGrid,
    Lift,
    _aberth_batch,
    _grid_centers,
    green,
    green_field,
    measure_from_green,
    poly_roots,
    preimage_sample,
    write_csv,
)

TWO_PI = measures.TWO_PI

# ------------------------------------------------------------- oracles


def oracle_eval(lift, w0, w1):
    acc0 = lift.f0[-1] * np.ones_like(w0)
    acc1 = lift.f1[-1] * np.ones_like(w0)
    p1 = w1
    for k in range(lift.degree - 1, -1, -1):
        acc0 = acc0 * w0 + lift.f0[k] * p1
        acc1 = acc1 * w0 + lift.f1[k] * p1
        p1 = p1 * w1
    return acc0, acc1


def oracle_green_core(lift, w0, w1, n, metric0):
    m = np.maximum(np.abs(w0), np.abs(w1))
    g = np.log(m)
    w0 = w0 / m
    w1 = w1 / m
    scale = 1.0
    for _ in range(n):
        w0, w1 = oracle_eval(lift, w0, w1)
        m = np.maximum(np.abs(w0), np.abs(w1))
        scale /= lift.degree
        g = g + np.log(m) * scale
        w0 = w0 / m
        w1 = w1 / m
    if metric0 == "fs":
        g = g + 0.5 * scale * np.log(np.abs(w0) ** 2 + np.abs(w1) ** 2)
    return g


def oracle_green(lift, z, n, metric0="sup"):
    val = oracle_green_core(
        lift, np.asarray(complex(z)), np.asarray(1.0 + 0j), n, metric0
    )
    return float(val)


def oracle_green_field(lift, window, nx, ny, n, metric0="sup"):
    centers, _, _ = _grid_centers(window, nx, ny)
    vals = oracle_green_core(lift, centers, np.ones_like(centers), n, metric0)
    return np.asarray(vals, dtype=float)


def oracle_poly_val(C, z):
    acc = np.broadcast_to(C[:, -1][:, None], z.shape).copy()
    for k in range(C.shape[1] - 2, -1, -1):
        acc = acc * z + C[:, k][:, None]
    return acc


def oracle_aberth(C, rng, tol, max_iter):
    C = np.asarray(C, dtype=complex)
    N, w = C.shape
    deg = w - 1
    monic = C / C[:, -1][:, None]
    dC = monic[:, 1:] * np.arange(1, deg + 1)
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


# ------------------------------------------------------------- helpers


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and (
        a.tobytes() == b.tobytes()
    )


USER_LIFT = Lift([0.3 - 0.2j, 1.5, 0.25j, -0.7], [1.0, -0.4j, 0.0, 0.1])
LIFTS = [(name, Lift.from_map(catalog(name))) for name in catalog_names()]
LIFTS.append(("user", USER_LIFT))
LIFT_IDS = [name for name, _ in LIFTS]
WINDOW = (-1.7, 1.9, -1.3, 1.45)


# ---------------------------------------------------------------- eval


@pytest.mark.parametrize("name,lift", LIFTS, ids=LIFT_IDS)
def test_eval_arrays_match_oracle(name, lift):
    rng = np.random.default_rng(11)
    w0 = rng.normal(size=301) + 1j * rng.normal(size=301)
    w1 = rng.normal(size=301) + 1j * rng.normal(size=301)
    for lo, hi in ((0, 301), (5, 6), (7, 9)):
        a0, a1 = w0[lo:hi].copy(), w1[lo:hi].copy()
        got = lift.eval(a0, a1)
        want = oracle_eval(lift, a0, a1)
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])


@pytest.mark.parametrize("name,lift", LIFTS, ids=LIFT_IDS)
def test_eval_scalars_match_oracle(name, lift):
    rng = np.random.default_rng(12)
    for _ in range(40):
        w0 = complex(rng.normal(), rng.normal())
        w1 = complex(rng.normal(), rng.normal())
        got = lift.eval(w0, w1)
        want = oracle_eval(lift, w0, w1)
        assert type(got[0]) is type(want[0]) is np.complex128
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])


def test_eval_leaves_inputs_alone():
    lift = LIFTS[0][1]
    w0 = np.array([0.5 + 0.25j, -1.0 + 2.0j])
    w1 = np.array([1.0 + 0j, 0.5 - 0.5j])
    c0, c1 = w0.copy(), w1.copy()
    lift.eval(w0, w1)
    assert same_bits(w0, c0) and same_bits(w1, c1)


# --------------------------------------------------------------- green


@pytest.mark.parametrize("metric0", ["sup", "fs"])
@pytest.mark.parametrize("name,lift", LIFTS, ids=LIFT_IDS)
def test_green_field_matches_oracle(name, lift, metric0):
    # 97 x 61 = 5917 cells: one block, not a multiple of any block size
    got = green_field(lift, WINDOW, (97, 61), 12, metric0).values
    want = oracle_green_field(lift, WINDOW, 97, 61, 12, metric0)
    assert same_bits(got, want)


@pytest.mark.parametrize(
    "block,res", [(1, (9, 7)), (7, (9, 7)), (1000, (97, 61)), (5916, (97, 61))]
)
@pytest.mark.parametrize("metric0", ["sup", "fs"])
def test_green_field_block_edges(monkeypatch, block, res, metric0):
    # block 5916 leaves a last block of one cell, block 1 makes them all
    # one cell: numpy's one-element loops must round like its array loops
    monkeypatch.setattr(measures, "_GREEN_BLOCK", block)
    for name in ("phi_3@E1", "pow_2", "phi_1+i"):
        lift = Lift.from_map(catalog(name))
        got = green_field(lift, WINDOW, res, 9, metric0).values
        want = oracle_green_field(lift, WINDOW, *res, 9, metric0)
        assert same_bits(got, want), name


@pytest.mark.parametrize("metric0", ["sup", "fs"])
@pytest.mark.parametrize("name,lift", LIFTS, ids=LIFT_IDS)
def test_scalar_green_matches_oracle(name, lift, metric0):
    rng = np.random.default_rng(13)
    zs = [0j, 1.0 + 0j, 2.5 - 0.5j, 1e-3j, -40.0 + 3.0j]
    zs += list(1.5 * (rng.normal(size=12) + 1j * rng.normal(size=12)))
    for z in zs:
        for n in (1, 7, 30):
            got = green(lift, z, n, metric0)
            assert repr(got) == repr(oracle_green(lift, z, n, metric0))


@pytest.mark.parametrize("metric0", ["sup", "fs"])
def test_green_past_scale_underflow_matches_oracle(metric0):
    # 2^-1075 underflows to 0.0; every later step adds log(m) * 0.0
    lift = Lift.from_map(catalog("pow_2"))
    for z in (0.3 + 0.1j, 1.7 - 0.2j, 0.99j):
        want = oracle_green(lift, z, 1100, metric0)
        assert repr(green(lift, z, 1100, metric0)) == repr(want)
        assert repr(green(lift, z, 10**8, metric0)) == repr(want)
    got = green_field(lift, WINDOW, (13, 11), 1500, metric0).values
    assert same_bits(got, oracle_green_field(lift, WINDOW, 13, 11, 1500,
                                             metric0))


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


def _converged_counts(C, seed, tol):
    # rows converged after 0, 1, ..., 79 sweeps
    counts = []
    for k in range(80):
        _, ok, _ = oracle_aberth(C, np.random.default_rng(seed), tol, k)
        counts.append(int(np.sum(ok)))
    return counts


@pytest.mark.parametrize("deg", [2, 4, 5, 9])
def test_aberth_rows_finish_on_different_sweeps(deg):
    C = _batch(deg, 40, deg)
    counts = _converged_counts(C, 5, 1e-10)
    # the batch really does thin out over several sweeps
    assert len(set(counts)) >= 4
    for max_iter in (300, 3, 0):
        got = _aberth_batch(C, np.random.default_rng(5), 1e-10, max_iter)
        want = oracle_aberth(C, np.random.default_rng(5), 1e-10, max_iter)
        for g, w in zip(got, want):
            assert same_bits(g, w)


def test_aberth_hits_max_iter():
    C = _batch(21, 30, 6)
    got = _aberth_batch(C, np.random.default_rng(2), 1e-14, 6)
    want = oracle_aberth(C, np.random.default_rng(2), 1e-14, 6)
    assert not np.all(want[1]) and np.any(want[1])
    for g, w in zip(got, want):
        assert same_bits(g, w)


def test_aberth_single_row_and_no_rng():
    C = _batch(3, 1, 7)
    for make_rng in (lambda: None, lambda: np.random.default_rng(9)):
        got = _aberth_batch(C, make_rng(), 1e-10, 300)
        want = oracle_aberth(C, make_rng(), 1e-10, 300)
        for g, w in zip(got, want):
            assert same_bits(g, w)


def test_poly_roots_convergence_error_residuals(monkeypatch):
    monkeypatch.setattr(measures, "_ROOT_SWEEPS", 2)
    coeffs = [1.0, -3.0, 0.5j, 2.0, 0.0, 1.0, -1.0]
    with pytest.raises(ConvergenceError) as err:
        poly_roots(coeffs)
    _, ok, resid = oracle_aberth(np.array([coeffs], dtype=complex), None,
                                 measures._ROOT_TOL, 2)
    assert not ok[0]
    assert err.value.residuals == [float(r) for r in resid[0]]


def test_preimage_tree_matches_oracle_kernel(monkeypatch):
    phi = catalog("phi_2@E1")
    got = preimage_sample(phi, 0.3 + 0.2j, 5, seed=4)
    monkeypatch.setattr(measures, "_aberth_batch", oracle_aberth)
    want = preimage_sample(phi, 0.3 + 0.2j, 5, seed=4)
    assert same_bits(got.points, want.points)
    assert got.n_infinite == want.n_infinite


# ----------------------------------------------------------------- csv


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
