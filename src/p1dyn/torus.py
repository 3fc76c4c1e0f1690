"""The 2-torsion and the torus of the catalog's CM curves, in pure Python.

The closed forms of the Lattes maps live on the torus C/L of the curve
y^2 = 4G(x): phi_lam(wp(u)) = wp(lam u) (Milnor, "On Lattes maps",
arXiv math/0402147), and wp sends the 2-torsion of C/L to infinity and
the roots of G.  This module holds what they share and what needs no
numpy: the exact roots of G (two_torsion_targets); the ramification of a
map over the 2-torsion, computed (ramification_profile) and predicted
for a multiplier by the parity table (predict_profile); the periods by
the complex AGM, a reduced basis, the integer matrix of a lattice
endomorphism on that basis, the Hermite normal form of an integer
matrix, wp at one point by its q-series, and one cached Lattice per
curve (curve_lattice), from the exact roots of G, with the plane mass
of 1/|G|.  A curve's roots, periods and mass come only from that
Lattice: periodic takes the periodic points from it, measures runs the
same q-series vectorised for the lattice leaves, and lattes_density
reads the roots and the mass.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

from .errors import ConvergenceError, DomainError, FieldMismatchError
from .lattes import EllipticCurveCM, _Frozen
from .quadfield import QuadFieldElement, cleared_pairs, omega_flag, pair_norm
from .ratmaps import Poly, ProjPoint, RationalMap, poly_gcd

TWO_PI = 2.0 * math.pi

# Durand-Kerner sweeps of the double-precision root guess of a cubic
_GUESS_SWEEPS = 100


def _dyadic(x: float, s: int) -> tuple:
    """x * 2^s exactly, as (num, den)."""
    num, den = x.as_integer_ratio()
    return (num << s, den) if s >= 0 else (num, den << -s)


def _root_guesses(G: Poly) -> tuple:
    """(guesses, s): the roots of the monic cubic G over Q(i) or
    Q(sqrt(-3)) in double precision, as exact elements, and an s with
    roots of modulus at most about 2^s.

    The Durand-Kerner sweeps run on G(2^s y)/2^(3s), whose roots have
    modulus about 1, so coefficients of any size fit a double.
    """
    d = G.d
    pairs, den = cleared_pairs(G.coeffs)

    def norm_bits(k):
        # bit lengths of N(coefficient k) in lowest terms, num minus den
        n, m = pair_norm(pairs[k], omega_flag(d)), den * den
        g = math.gcd(n, m)
        return (n // g).bit_length() - (m // g).bit_length()

    s = max(norm_bits(k) // (6 - 2 * k) for k in range(3) if any(pairs[k]))
    c0, c1, c2 = (
        complex(G.coeff(k) / (1 << s * (3 - k)) if s >= 0
                else G.coeff(k) * (1 << -s * (3 - k)))
        for k in range(3))
    ys = [(0.4 + 0.9j) ** k for k in range(3)]
    for _ in range(_GUESS_SWEEPS):
        for k, y in enumerate(ys):
            ys[k] = y - (((y + c2) * y + c1) * y + c0) / (
                (y - ys[k - 1]) * (y - ys[k - 2]))
    return [QuadFieldElement._from_ratios(
        _dyadic(y.real, s), _dyadic(y.imag / math.sqrt(d), s), d,
    ) for y in ys], s


def _round_half_even(n: int, m: int) -> int:
    """n/m for m > 0 rounded to the nearest integer, ties to even, as
    round() rounds a Fraction."""
    q, r = divmod(n, m)
    return q + (2 * r > m or (2 * r == m and q & 1))


def _snap(x: QuadFieldElement, D: int) -> QuadFieldElement:
    """A point of (1/D)O_K nearest x in each basis coordinate."""
    [(u, v)], den = cleared_pairs([x])
    return QuadFieldElement.from_basis_pair(
        _round_half_even(D * u, den), _round_half_even(D * v, den), x.d) / D


def two_torsion_targets(curve: EllipticCurveCM) -> list:
    """Images of the 2-torsion: infinity plus the roots of G, sorted.

    For D the common denominator of G, D*e is a root of the monic
    integral cubic D^3 G(x/D), so every root e lies on (1/D)O_K.  Each
    double-precision guess is polished by exact Newton steps, each
    rounded back onto that lattice, and anything short of three distinct
    exact roots raises DomainError.  The points are found once per
    curve; each call returns a new list of them.
    """
    return list(_two_torsion_targets(curve))


@lru_cache(maxsize=16)
def _two_torsion_targets(curve: EllipticCurveCM) -> tuple:
    G = curve.G
    dG = G.derivative()
    _, D = cleared_pairs(G.coeffs)
    guesses, s = _root_guesses(G)
    roots = set()
    for e in guesses:
        e = _snap(e, D)
        # near a pair of close roots Newton halves its distance per step
        # until it resolves the pair, at most about log2(2^s*D) steps
        for _ in range(abs(s) + D.bit_length() + 64):
            value, slope = G(e), dG(e)
            if value.is_zero() or slope.is_zero():
                break
            step = _snap(e - value / slope, D)
            if step == e:
                break
            e = step
        if G(e).is_zero():
            roots.add(e)
    if len(roots) != 3:
        raise DomainError(
            f"G = {G} does not split over its coefficient field: "
            f"{len(roots)} of 3 roots found on (1/{D})O_K"
        )
    # sorted by (a, b): for the roots (u + v w)/den over their common den,
    # the key (2u + t v, v) is 2 den (a, b) over Z[omega] (t = 1) and
    # den (2a, b) over Z[i]
    roots = list(roots)
    pairs, _ = cleared_pairs(roots)
    t = omega_flag(curve.d)
    order = sorted(range(3), key=lambda k: (
        2 * pairs[k][0] + t * pairs[k][1], pairs[k][1]))
    return (ProjPoint.infinity(curve.d),
            *(ProjPoint.affine(roots[k]) for k in order))


class RamificationProfile(_Frozen):
    """Distinct-preimage counts in [1, degree] over the 2-torsion images."""

    __slots__ = ("counts", "degree")

    def __init__(self, counts: tuple, degree: int):
        super().__init__(counts, degree)
        if len(self.counts) != 4:
            raise DomainError("profile needs exactly four counts")
        n = self.degree
        for r in self.counts:
            if not (1 <= r <= n):
                raise DomainError(f"count {r} outside [1, {n}]")

    def as_multiset(self) -> tuple:
        return tuple(sorted(self.counts, reverse=True))


def distinct_preimages(phi: RationalMap, target: ProjPoint) -> int:
    """Number of distinct solutions of phi(z) = target."""
    return len(preimage_multiplicities(phi, target))


def preimage_multiplicities(phi: RationalMap, target: ProjPoint) -> list:
    """Multiplicity multiset of the fiber over target, sorted descending.

    Finite fiber points are the roots of t1*num - t0*den; infinity
    contributes when that polynomial drops below the map degree.
    """
    if phi.d != target.d:
        raise FieldMismatchError("target lives in a different field")
    if phi.degree < 1:
        raise DomainError("constant maps have no fibers of interest")
    h = target.x1 * phi.num - target.x0 * phi.den
    if h.is_zero():
        raise DomainError("target equals the constant value of the map")
    mults = []
    m_inf = phi.degree - h.degree
    if m_inf > 0:
        mults.append(m_inf)
    # g <- gcd(g, g') from g = h lowers every root's multiplicity by one,
    # so deg g_k = sum of max(e - k, 0) over the roots, e their multiplicity
    g, degs = h, []
    while g.degree > 0:
        degs.append(g.degree)
        g = poly_gcd(g, g.derivative())
    degs += [0, 0]
    for k in range(1, len(degs) - 1):
        mults.extend([k] * (degs[k - 1] - 2 * degs[k] + degs[k + 1]))
    return sorted(mults, reverse=True)


def ramification_profile(
    phi: RationalMap, curve: EllipticCurveCM
) -> RamificationProfile:
    """Computed distinct-preimage counts over the 2-torsion images."""
    if phi.d != curve.d:
        raise DomainError("map and curve live over different fields")
    counts = tuple(
        distinct_preimages(phi, t) for t in two_torsion_targets(curve)
    )
    return RamificationProfile(counts, phi.degree)


def predict_profile(lam: QuadFieldElement) -> RamificationProfile:
    """Parity-table prediction of the four counts for a multiplier.

    phi_lambda acts on the 2-torsion E[2] = O_K/2O_K through lambda mod
    2O_K, so the table is indexed by the parities of lambda's basis pair
    (u, v), lambda = u + v*w.  With h = N(lambda)//2: an odd norm gives
    (h+1)^4, lambda in 2O_K gives (h+2, h, h, h), and the rest, only over
    Z[i] since 2 is inert in Z[omega], gives (h, h+1, h, h+1).  A
    non-integral multiplier and a norm below 2 are refused.
    """
    u, v = lam.basis_pair()
    if not lam.is_integral():
        raise DomainError(
            f"no parity row covers the non-integral basis pair {u}, {v}")
    n = pair_norm((u, v), omega_flag(lam.d))
    if n < 2:
        raise DomainError("multiplier norm below 2 has trivial dynamics")
    h = n // 2
    if n % 2:
        counts = (h + 1,) * 4
    elif u % 2 == 0 and v % 2 == 0:
        counts = (h + 2, h, h, h)
    else:
        counts = (h, h + 1, h, h + 1)
    return RamificationProfile(counts, n)


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
    roots of its G (two_torsion_targets, which raises DomainError
    unless G splits over the curve's field)."""
    return Lattice([complex(t) for t in two_torsion_targets(curve)
                    if not t.is_infinity()])
