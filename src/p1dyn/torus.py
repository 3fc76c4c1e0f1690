"""Period lattices of the catalog's CM curves, in pure Python.

The closed forms of the Lattes maps live on the torus C/L of the curve
y^2 = 4G(x): phi_lam(wp(u)) = wp(lam u) (Milnor, "On Lattes maps",
arXiv math/0402147).  This module holds what they share and what needs
no numpy: the periods by the complex AGM, a reduced basis, the integer
matrix of a lattice endomorphism on that basis, the Hermite normal form
of an integer matrix, wp at one point by its q-series, and one cached
Lattice per curve (curve_lattice), from the exact roots of G, with the
plane mass of 1/|G|.  A curve's roots, periods and mass come only from
that Lattice: periodic takes the periodic points from it, measures runs
the same q-series vectorised for the lattice leaves, and lattes_density
reads the roots and the mass.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

from .errors import ConvergenceError
from .lattes import EllipticCurveCM, two_torsion_targets

TWO_PI = 2.0 * math.pi

# _agm: steps before it gives up; roots 1e-300 apart need 13
_AGM_STEPS = 40


def _agm(a: complex, b: complex) -> complex:
    """Optimal arithmetic-geometric mean: each step takes the root of a*b
    nearer (a + b)/2."""
    for _ in range(_AGM_STEPS):
        if abs(a - b) <= 1e-15 * abs(a):
            return a
        a, b = (a + b) / 2, cmath.sqrt(a * b)
        if abs(a - b) > abs(a + b):
            b = -b
    raise ConvergenceError(f"AGM not converged after {_AGM_STEPS} steps")


def _periods(roots) -> tuple:
    """A basis pi/AGM(a, b), pi*i/AGM(a, c) of the period lattice of
    dx/y on y^2 = 4G(x), for G monic with these roots, from the optimal
    complex AGM (Cremona and Thongjunthug, J. Number Theory 133, 2013):
    the Weierstrass function of this lattice has wp'^2 = 4G(wp)."""
    e1, e2, e3 = roots
    a, b, c = (cmath.sqrt(e1 - e3), cmath.sqrt(e1 - e2),
               cmath.sqrt(e2 - e3))
    if abs(a - b) > abs(a + b):
        b = -b
    if abs(a - c) > abs(a + c):
        c = -c
    return math.pi / _agm(a, b), 1j * math.pi / _agm(a, c)


def _reduced(w1: complex, w2: complex) -> tuple:
    """A basis of the same lattice with tau = w2/w1 in the fundamental
    domain: Im tau > 0, |Re tau| <= 1/2 and |tau| >= 1, so |q| =
    |exp(2 pi i tau)| is at most exp(-pi sqrt 3)."""
    if (w2 / w1).imag < 0:
        w2 = -w2
    while True:
        w2 -= round((w2 / w1).real) * w1
        if abs(w2) >= abs(w1):
            return w1, w2
        w1, w2 = w2, -w1


def _basis_matrix(c1: complex, c2: complex, tau: complex, what: str):
    """The integer matrix [[p, q], [r, s]] with c1 = p + r tau and
    c2 = q + s tau: on the coordinates (x, y) of v = x + y tau, the map
    that sends 1 to c1 and tau to c2.  Raises ConvergenceError unless
    every coordinate is within 1e-6 of an integer."""
    raw = [[(c - c.imag / tau.imag * tau).real, c.imag / tau.imag]
           for c in (c1, c2)]
    mat = [[round(r) for r in col] for col in raw]
    if max(abs(r - k) for a, b in zip(raw, mat) for r, k in zip(a, b)) > 1e-6:
        raise ConvergenceError(f"{what} does not map the period lattice "
                               "into itself")
    (p, r), (q, s) = mat
    return p, q, r, s


def _hermite(a11: int, a12: int, a21: int, a22: int) -> tuple:
    """(nn, g, X) for the integer matrix A = [[a11, a12], [a21, a22]] of
    determinant nn > 0.

    With g = gcd(a21, a22) = a21 a + a22 b (extended Euclid) and X =
    (a11 a + a12 b) mod nn, the lattice A Z^2 is spanned by (X, g) and
    (nn/g, 0), so the group A Z^2 / nn mod Z^2 is the nn points
    (i/g + j X/nn, j g/nn) mod Z^2 for i < g and j < nn/g.
    """
    nn = a11 * a22 - a12 * a21
    g, a, b = a22, 0, 1  # extended Euclid: g = a21 a + a22 b
    h, c, d = a21, 1, 0
    while h:
        k = g // h
        g, a, b, h, c, d = h, c, d, g - k * h, a - k * c, b - k * d
    if g < 0:
        g, a, b = -g, -a, -b
    return nn, g, (a11 * a + a12 * b) % nn


class Lattice:
    """wp of the period lattice of a curve with roots e1, e2, e3 (kept
    as roots), at one point at a time, by its q-series in Python complex.

    On the reduced basis (w1, w2), tau = w2/w1, for v = u/w1 with
    |Im v| <= Im tau/2, sigma = sin(pi v)^2, c_n = q^n + q^-n and b_n =
    (c_n - 2)/4,
        (w1/pi)^2 wp(u)
            = 1/sigma + K + sum_n (c_n sigma - 2b_n)/(sigma + b_n)^2,
    K = 8 sum_n n q^n/(1 - q^n) - 1/3: Silverman's series (Advanced
    Topics, Thm. I.6.2) with the terms of n and -n paired.  Pair n is
    under 8 |q|^(n - 1/2)/(1 - |q|^(1/2))^2 < 10 |q|^(n - 1/2), so the
    sum stops at the least N with |q|^(N + 1/2) <= 2^-53.

    mass is the integral of 1/|G| over the plane, half the covolume of
    the period lattice of dx/y on y^2 = G: twice that of the basis of
    _periods, as y^2 = 4G halves the periods.
    """

    def __init__(self, roots):
        self.roots = roots
        w1, w2 = _periods(roots)
        self.mass = 2.0 * abs((w1.conjugate() * w2).imag)
        self.w1, self.w2 = _reduced(w1, w2)
        self.tau = self.w2 / self.w1
        self.scale = (math.pi / self.w1) ** 2
        q = cmath.exp(1j * TWO_PI * self.tau)
        terms = math.ceil(53 * math.log(2) / -math.log(abs(q)) - 0.5)
        qn = [q ** n for n in range(1, terms + 1)]
        self.c = [t + 1.0 / t for t in qn]
        self.b = [(c - 2.0) / 4.0 for c in self.c]
        self.K = 8.0 * sum(n * t / (1.0 - t) for n, t in
                           enumerate(qn, 1)) - 1.0 / 3.0

    def wp(self, x: float, y: float) -> complex:
        """wp(u) for u = (x + y tau) w1, with x and y in [-1/2, 1/2] and
        not both 0."""
        s = cmath.sin(math.pi * (x + y * self.tau))
        sig = s * s
        out = 1.0 / sig + self.K
        for c, b in zip(self.c, self.b):
            t = sig + b
            out += (c * sig - 2.0 * b) / (t * t)
        return out * self.scale


@lru_cache(maxsize=16)
def curve_lattice(curve: EllipticCurveCM) -> Lattice:
    """The Lattice of a curve, built once per curve value from the exact
    roots of its G (lattes.two_torsion_targets, which raises DomainError
    unless G splits over the curve's field)."""
    return Lattice([complex(t) for t in two_torsion_targets(curve)
                    if not t.is_infinity()])
