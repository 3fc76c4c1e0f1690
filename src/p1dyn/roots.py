"""Polynomial roots: one batched Aberth solver.

poly_roots solves one polynomial, and _aberth_batch a batch of them,
one row each: measures' preimage trees solve a generation of preimages
at a time, and periodic's generic route the one polynomial
num - z den of phi^n.  Roots at 0 split off exactly; the others start
on the circles of each row's Newton polygon and stop by componentwise
backward error, as in MPSolve (Bini and Robol, J. Comput. Appl. Math.
272, 2014).  Everything runs in double precision, on numpy.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, DomainError


def _newton_starts(C, tilt):
    """Starting roots (deg, N) of the columns of C (deg+1, N), whose
    constant and leading coefficients are nonzero.

    The roots of a column go on the circles of its Newton polygon, the
    upper convex hull of the points (k, log|a_k|): a hull edge from k to
    m carries m - k roots at radius (|a_k|/|a_m|)^(1/(m-k)), equally
    spaced and turned by the column's tilt (the start of MPSolve; Bini
    and Robol, J. Comput. Appl. Math. 272, 2014).  Vertex k is on the
    hull iff no slope to its right exceeds a slope to its left, read off
    a (deg+1, deg+1, N) table of slopes.  Run under np.errstate: a zero
    coefficient has log -inf, so the slopes into it are -inf and those
    out of it +inf (or nan), and it never sets a maximum to its right,
    a minimum to its left, or a hull vertex.
    """
    w = C.shape[0]
    k = np.arange(w)
    L = np.log(np.abs(C))
    gap = k[None, :] - k[:, None]
    later = gap > 0
    slope = (L[None, :, :] - L[:, None, :]) * (
        1.0 / np.where(later, gap, 1))[:, :, None]
    slope[~later] = -np.inf
    right = slope.max(axis=1)
    slope[~later] = np.inf
    left = slope.min(axis=0)
    hull = (right < left) & np.isfinite(L)
    # root slot t sits on the edge from the last vertex <= t to the first
    # vertex > t
    lo = np.maximum.accumulate(np.where(hull, k[:, None], 0), axis=0)[:-1]
    hi = np.minimum.accumulate(
        np.where(hull, k[:, None], w)[::-1], axis=0)[::-1][1:]
    count = hi - lo
    radius = np.exp((np.take_along_axis(L, lo, 0)
                     - np.take_along_axis(L, hi, 0)) / count)
    angle = math.tau * ((k[:-1, None] - lo) / count + lo / w) + tilt
    return radius * np.exp(1j * angle)


def _horner(C, A, z):
    """p(z), p'(z) and sum_k |a_k||z|^k in one pass, for coefficient
    columns C (deg+1, N), their moduli A and roots z (deg, N).  No
    complex product is written over one of its factors (see
    measures._forms_into), so a one-column block rounds like a wide
    one."""
    az = np.abs(z)
    p = np.broadcast_to(C[-1], z.shape).copy()
    dp = np.zeros_like(z)
    bound = np.broadcast_to(A[-1], z.shape).copy()
    tmp = np.empty_like(z)
    for k in range(C.shape[0] - 2, -1, -1):
        np.multiply(dp, z, out=tmp)
        np.add(tmp, p, out=dp)
        np.multiply(p, z, out=tmp)
        np.add(tmp, C[k], out=p)
        bound *= az
        bound += A[k]
    return p, dp, bound


def _aberth_sweeps(C, z, tol, max_iter):
    """Aberth sweeps on the columns C (deg+1, N) from the starts z
    (deg, N).  Returns (roots, errors, converged).

    A column that passes still takes that sweep's correction, which near
    simple roots takes an error e to O(e^3), and is then written back.
    It stays in the sweeps, masked out, until at least half of the
    columns swept are done; only then are the live ones compacted, so a
    batch whose columns finish one by one is not copied on every sweep.
    Columns never mix, so a masked one changes no bit of the others.

    s_i = sum_{j != i} 1/(z_i - z_j) takes one division per pair j < i:
    numpy's complex division is odd in its divisor, so 1/(z_j - z_i) is
    the exact negation.  Both go into a table (deg, deg, columns) whose
    diagonal stays 0, and a sum over its outermost axis adds in the
    order j = 0..deg-1 whatever the width.
    """
    deg, N = z.shape
    A = np.abs(C)
    roots = np.empty_like(z)
    err = np.empty(z.shape)
    converged = np.zeros(N, dtype=bool)
    cols = np.arange(N)
    live = np.ones(N, dtype=bool)
    lo, hi = np.triu_indices(deg, 1)
    upper = lo * deg + hi
    lower = hi * deg + lo
    table = np.zeros((deg * deg, N), dtype=complex)
    for sweep in range(max_iter + 1):
        p, dp, bound = _horner(C, A, z)
        e = np.abs(p) / bound
        if sweep == max_iter:
            roots[:, cols[live]] = z[:, live]
            err[:, cols[live]] = e[:, live]
            converged[cols[live]] = np.all(e[:, live] <= tol, axis=0)
            break
        done = np.all(e <= tol, axis=0) & live
        recip = z[hi] - z[lo]
        np.divide(1.0, recip, out=recip)
        table[upper] = recip
        table[lower] = np.negative(recip, out=recip)
        s = table.reshape(deg, deg, -1).sum(axis=0)
        z = z - p / (dp - p * s)
        if np.any(done):
            roots[:, cols[done]] = z[:, done]
            err[:, cols[done]] = e[:, done]
            converged[cols[done]] = True
            live &= ~done
            n_live = np.count_nonzero(live)
            if n_live == 0:
                break
            if 2 * n_live <= live.size:
                cols, z, C, A = cols[live], z[:, live], C[:, live], A[:, live]
                live = np.ones(n_live, dtype=bool)
                table = np.zeros((deg * deg, n_live), dtype=complex)
    return roots, err, converged


def _aberth_batch(C, tilt, tol, max_iter):
    """Simultaneous (Aberth) root iteration on a batch of polynomials.

    C is (N, deg+1), constant term first, leading column nonzero; tilt
    (N,) turns each row's starting circles.  Returns (roots (N, deg),
    converged (N,), errors (N, deg)).

    A row whose k lowest coefficients vanish has k roots exactly 0; the
    others are the roots of the row shifted down by k.  Those start on
    the circles of the row's Newton polygon (see _newton_starts) and stop
    by componentwise backward error (Bini and Robol): a row is done once
    every root has |p(z)| <= tol * sum_k |a_k||z|^k, computed in the
    Horner pass that gives p and p'.  The errors returned are those
    ratios, and the roots one Aberth correction past them.  A row not
    done after max_iter sweeps is returned as it stands, flagged, with
    the errors of the roots returned.  Roots are stored root-major,
    (deg, N), and each row's bits depend on its own coefficients and
    tilt only, not on the other rows of the batch or the sweeps on which
    they finish: _aberth_sweeps masks and compacts columns, never mixes
    them.  A shifted row of degree 1 has no pairs, so its Aberth
    correction is the Newton step.  A row with an inf or nan coefficient
    has no Newton polygon: it is not swept, and is returned flagged, its
    roots and errors nan.
    """
    C = np.asarray(C, dtype=complex)
    N, w = C.shape
    deg = w - 1
    finite = np.all(np.isfinite(C), axis=1)
    roots = np.zeros((deg, N), dtype=complex)
    err = np.zeros((deg, N))
    roots[:, ~finite] = np.nan
    err[:, ~finite] = np.nan
    converged = finite.copy()
    # w, past every shift, keeps the rows that are not finite out of the
    # sweeps
    low = np.where(finite, np.argmax(C != 0, axis=1), w)
    # a row that fails, through a coincidence or an overflow, does so
    # into nan or inf, which never passes the test and leaves it flagged
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in np.flatnonzero(np.bincount(low)[:deg]):
            rows = low == k
            Ck = np.ascontiguousarray(C[rows, k:].T)
            r, e, ok = _aberth_sweeps(Ck, _newton_starts(Ck, tilt[rows]),
                                      tol, max_iter)
            roots[k:, rows] = r
            err[k:, rows] = e
            converged[rows] = ok
    return roots.T, converged, err.T


def _finite(z: complex) -> bool:
    return math.isfinite(z.real) and math.isfinite(z.imag)


# poly_roots: backward-error target, sweep cap, and the fixed tilt of
# its starting circles
_ROOT_TOL = 1e-13
_ROOT_SWEEPS = 300
_ROOT_TILT = 0.19


def poly_roots(coeffs) -> list:
    """All complex roots by simultaneous (Aberth) iteration.

    coeffs is constant term first.  Roots at 0 are split off exactly;
    the others start on the circles of the Newton polygon of log|c_k|
    and stop once each has componentwise backward error
    |p(z)| / sum_k |c_k||z|^k at most _ROOT_TOL (see _aberth_batch).
    Failure to reach that after _ROOT_SWEEPS sweeps raises with those
    errors attached as residuals.  Sorted by real then imaginary part.
    A coefficient that is inf or nan, and the root of a degree-1
    polynomial beyond the floating-point range, raise DomainError.
    """
    c = [complex(x) for x in coeffs]
    if len(c) < 2:
        raise DomainError("need degree at least 1")
    if not all(map(_finite, c)):
        raise DomainError("coefficients must be finite")
    if c[-1] == 0:
        raise DomainError("leading coefficient must be nonzero")
    deg = len(c) - 1
    if deg == 1:
        r = -c[0] / c[1]
        if not _finite(r):
            raise DomainError(f"the root {r} is beyond the floating-point "
                              "range")
        # x + 0.0 turns -0.0 into 0.0 and leaves every other x alone
        return [complex(r.real + 0.0, r.imag + 0.0)]
    roots, ok, err = _aberth_batch(
        np.array([c]), np.array([_ROOT_TILT]), _ROOT_TOL, _ROOT_SWEEPS
    )
    if not ok[0]:
        raise ConvergenceError(
            f"root iteration stalled after {_ROOT_SWEEPS} sweeps",
            residuals=[float(r) for r in err[0]],
        )
    out = [complex(r) for r in roots[0]]
    out.sort(key=lambda r: (r.real, r.imag))
    return out
