"""Periodic points of rational maps, with their multipliers.

The catalog's maps take their periodic points in closed form, without
numpy: the power maps z^k have 0, infinity and roots of unity, and a
Lattes map phi(wp(u)) = wp(lam u) has the wp(u) with lam^n u = +-u on
the period lattice (Milnor, "On Lattes maps", arXiv math/0402147).  One
Newton step on phi^n(z) = z in fixed-point integers (_newton_polish)
then makes every component the correctly rounded value, for a root of
unity as for the first point of a Lattes cycle; on fixed-point complex
integers, the map's forms run on its formkernel.form_kernel kernel at
t = 0, as every exact form does.  Every other map solves num - z den = 0
for phi^n = num/den with roots.poly_roots, which loads numpy.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

from .errors import ConvergenceError, DomainError
from .lattes import CURVES, entry_for_map
from .quadfield import cleared_pairs
from .ratmaps import Poly, RationalMap
from .torus import _basis_matrix, _hermite, curve_lattice

# point at infinity marker used in periodic-point listings
INF_POINT = complex(float("inf"), 0.0)

# largest period taken; a map of degree 2 or more is capped lower, by
# degree^n <= 200
_MAX_PERIOD = 200

# largest chordal distance from a root of _generic_periodic to its n-th
# image, for maps outside the catalog (the catalog's maps take the closed
# forms and never reach it); roots that are not periodic points land near
# distance 1
_CYCLE_TOL = 1e-3

# fraction bits of the fixed-point arithmetic: a Newton step from a start
# a few ulps off leaves an error near 2^-100, and the forms that carry it
# round a cycle multiply it by at most |lam|^n <= 15, far below the half
# ulp that decides the rounding
_BITS = 128
_ONE = 1 << _BITS


def periodic_points(phi: RationalMap, n: int) -> list:
    """Points of period dividing n, with multipliers.

    Returns (point, multiplier) pairs sorted by real then imaginary
    part; the point at infinity, when periodic, appears last as
    complex(inf, 0).  A point is repelling iff |multiplier| > 1.

    A catalog map takes the closed form: every finite component is the
    correctly rounded value, a component that a symmetry of the lattice
    makes zero is +0.0, and every multiplier is an exact number rounded
    once (see _power_points and _lattes_points).  Every other map takes
    the root solve of _generic_periodic, which raises ConvergenceError
    when a root misses its cycle.  Raises DomainError when n or degree^n
    exceeds 200, or phi^n is the identity.
    """
    if n < 1:
        raise DomainError("period must be at least 1")
    # n first: degree^n of a huge n takes unbounded time, and a map of
    # degree 1 has no power cap, while the root solve composes n times
    if n > _MAX_PERIOD:
        raise DomainError(f"period capped at {_MAX_PERIOD}")
    if phi.degree**n > 200:
        raise DomainError("degree^n capped at 200")
    entry = entry_for_map(phi)
    if entry is None:
        return _generic_periodic(phi, n)
    if entry.curve_name is None:
        out, m_inf = _power_points(phi, n)
    else:
        out, m_inf = _lattes_points(entry, n)
    out.sort(key=lambda t: (t[0].real, t[0].imag))
    out.append((INF_POINT, m_inf))
    return out


# ------------------------------------------------------------ closed forms

def _power_points(phi: RationalMap, n: int) -> tuple:
    """The finite points of phi = z^k of period dividing n, and the
    multiplier at infinity: 0 with multiplier 0, and the N-th roots of
    unity, N = k^n - 1, with multiplier k^n; infinity has multiplier 0.

    The roots on the axes are exact.  The others are the powers of
    zeta = exp(2 pi i/N) in fixed point, each rounded once; zeta starts
    from cmath.exp, of modulus at most 1, and takes the one Newton step
    on phi^n(z) = z that every closed form takes (_newton_polish), with
    slope k^n - 1 = N.  zeta^j takes j products, each truncating
    2^-_BITS, so its error is at most j times zeta's plus j 2^-_BITS."""
    k = phi.degree
    N = k**n - 1
    (zr, zi), _ = _newton_polish(_fixed_point_lift(phi),
                                 cmath.exp(1j * (math.tau / N)), n, complex(N))
    mult = complex(k**n)
    pr, pi = _ONE, 0
    out = [(0j, 0j)]
    for j in range(N):
        if 4 * j % N == 0:
            z = (1 + 0j, 1j, -1 + 0j, complex(0.0, -1.0))[4 * j // N]
        else:
            z = complex(pr / _ONE, pi / _ONE)
        out.append((z, mult))
        pr, pi = (pr * zr - pi * zi) >> _BITS, (pr * zi + pi * zr) >> _BITS
    return out, 0j


class _Curve:
    """What the periodic points of every map on one curve share.

    lattice is the curve's torus.curve_lattice; conj and unit are the
    integer matrices of u -> conj(u) and u -> zeta u on its basis, zeta
    = i on E1 and omega on E2 (zeta^-2 multiplies x by -1 or by omega);
    half maps the coordinates (2x, 2y) of each nonzero half period to
    the exact root of G that wp takes there.
    """

    def __init__(self, name: str):
        curve = CURVES[name]()
        self.lattice = lat = curve_lattice(curve)
        self.conj = _basis_matrix(lat.w1.conjugate() / lat.w1,
                                  lat.w2.conjugate() / lat.w1, lat.tau,
                                  "conjugation")
        zeta = 1j if curve.d == 1 else cmath.exp(1j * math.tau / 3)
        self.unit = _basis_matrix(zeta, zeta * lat.tau, lat.tau, "the unit")
        self.square = curve.d == 1
        self.half = {}
        for x, y in ((1, 0), (0, 1), (1, 1)):
            w = lat.wp(x / 2, y / 2)
            self.half[x, y] = min(lat.roots, key=lambda e: abs(e - w))


# one _Curve per curve name
_curve = lru_cache(maxsize=None)(_Curve)


@lru_cache(maxsize=None)
def _fixed_point_lift(phi: RationalMap):
    """The form_kernel of both forms of phi, their coefficients as (re,
    im) integer pairs on one common scale: exact over Q and Q(i), and
    over Q(sqrt -3) with sqrt 3 to _BITS fraction bits (math.isqrt).
    Complex integers multiply as the basis pairs of Z[i], so t = 0."""
    from .formkernel import form_kernel

    deg = phi.degree
    pairs, _ = cleared_pairs([p.coeff(k) for p in (phi.num, phi.den)
                              for k in range(deg + 1)])
    if phi.d == 3:
        # u + v omega = (2u + v)/2 + i v sqrt(3)/2
        root3 = math.isqrt(3 << 2 * _BITS)
        pairs = [((2 * u + v) << _BITS, v * root3) for u, v in pairs]
    return form_kernel([[(k, c) for k, c in enumerate(pairs[i:i + deg + 1])
                         if c[0] or c[1]] for i in (0, deg + 1)], deg, 0)


def _lattes_points(entry, n: int) -> tuple:
    """The finite points of a Lattes map of period dividing n, and the
    multiplier at infinity.

    On the reduced basis of the curve's Lattice, lam is an integer matrix
    M, and the points are wp(u) for u in ker(M^n - eps I), eps = +-1, up
    to u -> -u: by _hermite, each kernel adj(A) Z^2 / det A mod Z^2 is a
    grid of exact rationals.  The multiplier is eps lam^n, and lam^(2n)
    at the 2-torsion, where wp' = 0, and at u = 0, which is infinity;
    each is exact in K and rounded once.  A 2-torsion point is the exact
    root of G, and a point with zeta u = +-u is 0.  Every other cycle of
    u -> lam u takes its first point from the q-series and one Newton
    step (_newton_polish), and the others from the map's form kernel
    (_step) along the cycle.  A point's imaginary part is +0.0 when
    conj(u) = +-u, and on E1 its real part is +0.0 when conj(u) = +-i u,
    since wp(i u) = -wp(u).
    """
    cv = _curve(entry.curve_name)
    lat = cv.lattice
    lam = complex(entry.lam)
    p, q, r, s = _basis_matrix(lam, lam * lat.tau, lat.tau,
                               f"{entry.name}: lam")
    mp, mq, mr, ms = 1, 0, 0, 1
    for _ in range(n):
        mp, mq, mr, ms = (p * mp + q * mr, p * mq + q * ms,
                          r * mp + s * mr, r * mq + s * ms)
    lam_n = entry.lam**n
    mults = {1: complex(lam_n), -1: complex(-lam_n)}
    m2 = complex(lam_n * lam_n)
    kernels = []
    for eps in (1, -1):
        # adj(M^n - eps I)
        nn, g, X = _hermite(ms - eps, -mq, -mr, mp - eps)
        rows = nn // g
        kernels.append((eps, nn, [((i * rows + j * X) % nn, j * g)
                                  for j in range(rows) for i in range(g)]))
    L = math.lcm(kernels[0][1], kernels[1][1])
    classes = {}
    for eps, nn, pts in kernels:
        for x, y in pts:
            x, y = x * (L // nn), y * (L // nn)
            classes.setdefault(min((x, y), (-x % L, -y % L)), eps)
    kernel = _fixed_point_lift(entry.map)

    def same(a, b):
        """a = +-b on R^2/Z^2, for numerators over L."""
        return ((a[0] - b[0]) % L == 0 == (a[1] - b[1]) % L
                or (a[0] + b[0]) % L == 0 == (a[1] + b[1]) % L)

    def act(m, u):
        return (m[0] * u[0] + m[1] * u[1]) % L, (m[2] * u[0] + m[3] * u[1]) % L

    def rounded(u, pair):
        z = _ratio(*pair)
        ubar = act(cv.conj, u)
        if same(ubar, u):
            return complex(z.real, 0.0)
        if cv.square and same(ubar, act(cv.unit, u)):
            return complex(0.0, z.imag)
        return z

    out = []
    done = {(0, 0)}
    for u0, eps in classes.items():
        if u0 in done:
            continue
        done.add(u0)
        if 2 * u0[0] % L == 0 == 2 * u0[1] % L:
            out.append((cv.half[2 * u0[0] // L, 2 * u0[1] // L], m2))
            continue
        mult = mults[eps]
        if same(act(cv.unit, u0), u0):
            out.append((0j, mult))
            continue
        # u0's cycle u -> lam u: u0 by Newton, the others by the kernel
        x, y = (t - L if 2 * t > L else t for t in u0)
        pair = _newton_polish(kernel, lat.wp(x / L, y / L), n, mult - 1.0)
        u = u0
        while True:
            out.append((rounded(u, pair), mult))
            done.add(u)
            u = act((p, q, r, s), u)
            u = min(u, (-u[0] % L, -u[1] % L))
            if u == u0:
                break
            pair = _step(kernel, *pair)
    return out, m2


def _ratio(a, b) -> complex:
    """a/b for complex integers (re, im), each component rounded once
    (int / int rounds correctly)."""
    (ar, ai), (br, bi) = a, b
    norm = br * br + bi * bi
    return complex((ar * br + ai * bi) / norm, (ai * br - ar * bi) / norm)


def _newton_polish(kernel, z: complex, n: int, slope: complex) -> tuple:
    """z after one Newton step on phi^n(z) = z with the given slope, as
    a projective pair of complex integers.

    The step runs in the chart w = z, or w = 1/z when |z| > 1, on w as
    an integer over 2^_BITS.  The orbit of (w, 1), or of (1, w), is that
    of the form kernel on complex integers (_step).  phi^n(w) - w
    is exact from the last pair, rounded once; w's correction, a few
    ulps, takes a double division, whose error is that times 2^-53.
    """
    flip = abs(z) > 1.0
    w = 1.0 / z if flip else z
    wr, wi = int(w.real * _ONE), int(w.imag * _ONE)
    a, b = ((_ONE, 0), (wr, wi)) if flip else ((wr, wi), (_ONE, 0))
    for _ in range(n):
        a, b = _step(kernel, a, b)
    if flip:
        a, b = b, a
    # (a - w b) / b, with w b exact over 2^_BITS
    (ar, ai), (br, bi) = a, b
    f = _ratio(((ar << _BITS) - (wr * br - wi * bi),
                (ai << _BITS) - (wr * bi + wi * br)),
               (br << _BITS, bi << _BITS))
    step = f / slope
    w = (wr - int(step.real * _ONE), wi - int(step.imag * _ONE))
    return ((_ONE, 0), w) if flip else (w, (_ONE, 0))


def _step(kernel, a, b) -> tuple:
    """(F0(a, b), F1(a, b)) for complex integers a, b by the forms'
    kernel (_fixed_point_lift), shifted right so that the largest
    component keeps _BITS bits: a relative error of 2^-_BITS a step, on
    a projective pair."""
    ur, ui, vr, vi = kernel(*a, *b)
    top = max(abs(ur), abs(ui), abs(vr), abs(vi))
    shift = max(0, top.bit_length() - _BITS)
    return (ur >> shift, ui >> shift), (vr >> shift, vi >> shift)


# ------------------------------------------------------------ generic route

def _generic_periodic(phi: RationalMap, n: int) -> list:
    """periodic_points by a root solve, for any map and checked n.

    The finite points are the roots of num - z den for phi^n = num/den,
    found by roots.poly_roots; phi^n is built as phi after phi^(n-1),
    so each of its n - 1 compositions runs phi's one compiled kernel.
    Each finite multiplier comes from the chain rule on the lift of phi
    along the point's orbit, det J / (d^n c^2) (see _cycle), which holds
    in every chart; the one at infinity is den_(alpha-1) / num_alpha,
    one exact division.  Raises DomainError when phi^n is the identity,
    and ConvergenceError when a finite root found is not within
    _CYCLE_TOL (chordal) of its n-th image under phi.
    """
    from .greenpoint import Lift
    from .roots import poly_roots

    psi = phi
    for _ in range(n - 1):
        psi = phi.compose(psi)
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
    f0, f1 = Lift.from_map(phi)._coeffs
    cycles = [_cycle(f0, f1, r, n) for r in roots]
    resid = [e for e, _ in cycles]
    if not all(e <= _CYCLE_TOL for e in resid):
        raise ConvergenceError(
            f"period-{n} roots miss their cycles by up to chordal "
            f"distance {max(resid):.3g}",
            partial=roots, residuals=resid,
        )
    out = [(r, m) for r, (_, m) in zip(roots, cycles)]
    out.sort(key=lambda t: (t[0].real, t[0].imag))
    if inf_mult_count > 0:
        # den has degree below alpha, so in the chart w = 1/z psi is
        # w -> w^alpha den(1/w) / w^alpha num(1/w), whose derivative at 0
        # is den_(alpha-1) / num_alpha: one exact division
        m_inf = complex(den.coeff(alpha - 1) / num.coeff(alpha))
        out.extend([(INF_POINT, m_inf)] * inf_mult_count)
    return out


def _pair_scale(w0: complex, w1: complex) -> float:
    """Largest real or imaginary part of the pair (w0, w1)."""
    return max(abs(w0.real), abs(w0.imag), abs(w1.real), abs(w1.imag))


def _jet(f0, f1, w0: complex, w1: complex) -> tuple:
    """(F, dF/dw0, dF/dw1) at (w0, w1) for both forms of the lift whose
    coefficient lists f0, f1 multiply w0^k w1^(d-k), k = 0..d."""
    d = len(f0) - 1
    p0 = [1.0 + 0j]
    p1 = [1.0 + 0j]
    for _ in range(d):
        p0.append(p0[-1] * w0)
        p1.append(p1[-1] * w1)
    return [
        (sum(f[k] * p0[k] * p1[d - k] for k in range(d + 1)),
         sum(k * f[k] * p0[k - 1] * p1[d - k] for k in range(1, d + 1)),
         sum((d - k) * f[k] * p0[k] * p1[d - k - 1] for k in range(d)))
        for f in (f0, f1)
    ]


def _cycle(f0, f1, z: complex, n: int) -> tuple:
    """Chordal distance from z to its n-th image, and the multiplier of
    phi^n at z, from the lift F of phi with coefficient lists f0, f1.

    The orbit of p = (z, 1) is rescaled after each step, so it stays
    finite through infinity, and J is the product of the Jacobians of
    the rescaled steps: the Jacobian at p of a lift of phi^n of degree
    D = d^n.  The orbit returns as c p.  Then p is an eigenvector of J
    with eigenvalue D c (Euler's identity), and the other eigenvalue is c
    times the multiplier, which is therefore det J / (D c^2).  Both are
    nan when a pair degenerates.
    """
    s = _pair_scale(z, 1.0)
    p0, p1 = z / s, 1.0 / s
    w0, w1 = p0, p1
    j00, j01, j10, j11 = 1.0, 0.0, 0.0, 1.0
    for _ in range(n):
        (v0, a, b), (v1, c, d) = _jet(f0, f1, w0, w1)
        s = _pair_scale(v0, v1)
        if not 0.0 < s < math.inf:
            return math.nan, complex("nan")
        w0, w1 = v0 / s, v1 / s
        j00, j01, j10, j11 = (
            (a * j00 + b * j10) / s, (a * j01 + b * j11) / s,
            (c * j00 + d * j10) / s, (c * j01 + d * j11) / s,
        )
    norm = abs(p0) ** 2 + abs(p1) ** 2
    resid = abs(p0 * w1 - p1 * w0) / math.sqrt(
        norm * (abs(w0) ** 2 + abs(w1) ** 2))
    c = (w0 * p0.conjugate() + w1 * p1.conjugate()) / norm
    det = j00 * j11 - j01 * j10
    # a constant map has J = 0 and D = 0, and multiplier 0
    return resid, det / ((len(f0) - 1) ** n * c * c) if det else 0j
