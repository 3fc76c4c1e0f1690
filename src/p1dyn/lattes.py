"""CM elliptic curves and their quotient dynamics on the projective line.

A curve y^2 = G(x) with complex multiplication pushes each multiplication
map lambda down to a rational map on x-coordinates.  This module holds
the two standard curves (square and hexagonal lattice), explicit degree-2
through degree-9 quotient maps, doubling and tripling built from division
polynomials, and the parity-table oracle that predicts how the four
2-torsion images ramify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, MapSpecError
from .quadfield import QuadFieldElement, format_element, sqrt_in_field
from .ratmaps import Poly, ProjPoint, RationalMap, distinct_preimages, poly_gcd


@dataclass(frozen=True)
class EllipticCurveCM:
    """Short Weierstrass curve y^2 = G(x) with CM by the order of tag d."""

    G: Poly
    d: int

    def __post_init__(self):
        if self.G.degree != 3:
            raise DomainError("G must be a cubic")
        if self.G.leading() != QuadFieldElement.one(self.G.d):
            raise DomainError("G must be monic")
        if poly_gcd(self.G, self.G.derivative()).degree > 0:
            raise DomainError("G must be squarefree (smooth curve)")
        if self.d not in (1, 3):
            raise DomainError("supported CM discriminant tags are 1 and 3")


def curve_E1() -> EllipticCurveCM:
    """y^2 = x^3 + x, square lattice, CM by the Gaussian integers."""
    return EllipticCurveCM(Poly([0, 1, 0, 1], 1), 1)


def curve_E2() -> EllipticCurveCM:
    """y^2 = x^3 + 1, hexagonal lattice, CM by the Eisenstein integers."""
    return EllipticCurveCM(Poly([1, 0, 0, 1], 3), 3)


@dataclass(frozen=True)
class RamificationProfile:
    """Distinct-preimage counts over the four 2-torsion images."""

    counts: tuple
    degree: int

    def __post_init__(self):
        if len(self.counts) != 4:
            raise DomainError("profile needs exactly four counts")
        n = self.degree
        for r in self.counts:
            if not (1 <= r <= n):
                raise DomainError(f"count {r} outside [1, {n}]")
            if not (n <= 2 * r and 2 * r <= n + 5):
                raise DomainError(f"count {r} fails the sanity bounds for degree {n}")

    def as_multiset(self) -> tuple:
        return tuple(sorted(self.counts, reverse=True))


def lattes_double(curve: EllipticCurveCM) -> RationalMap:
    """x-coordinate doubling: ((G')^2 - 8zG) / (4G), degree 4."""
    G = curve.G
    dG = G.derivative()
    z = Poly([0, 1], curve.d)
    num = dG * dG - 8 * z * G
    den = 4 * G
    out = RationalMap(num, den)
    if out.degree != 4:
        raise DomainError("doubling map degenerated; curve is singular")
    return out


def lattes_triple(curve: EllipticCurveCM) -> RationalMap:
    """x-coordinate tripling via division polynomials, degree 9.

    Requires the depressed form x^3 + Ax + B.  psi_3 and psi_2*psi_4 are
    classical polynomials in x alone.
    """
    G = curve.G
    if not G.coeff(2).is_zero():
        raise DomainError("tripling formula needs a depressed cubic")
    d = curve.d
    A = G.coeff(1)
    B = G.coeff(0)
    psi3 = Poly([-(A * A), 12 * B, 6 * A, 0, 3], d)
    # psi_2 * psi_4 = 8 G(x) q(x)
    q = Poly(
        [
            -8 * B * B - A * A * A,
            -4 * A * B,
            -5 * A * A,
            20 * B,
            5 * A,
            0,
            1,
        ],
        d,
    )
    z = Poly([0, 1], d)
    num = z * psi3 * psi3 - 8 * G * q
    den = psi3 * psi3
    out = RationalMap(num, den)
    if out.degree != 9:
        raise DomainError("tripling map degenerated")
    return out


def _roots_in_field(f: Poly) -> list:
    """All roots of a monic polynomial of degree <= 3, inside its field.

    Raises when a root requires an extension; callers surface that as a
    request for explicit splitting data.
    """
    d = f.d
    if f.degree <= 0:
        return []
    f = f.monic()
    if f.degree == 1:
        return [-f.coeff(0)]
    if f.degree == 2:
        b, c = f.coeff(1), f.coeff(0)
        disc = b * b - 4 * c
        s = sqrt_in_field(disc)
        if s is None:
            raise DomainError(
                "quadratic factor does not split over the coefficient field"
            )
        half = QuadFieldElement(Fraction(1, 2), 0, d)
        return [(-b + s) * half, (-b - s) * half]
    # cubic: strip a zero root or scan small integral divisors of the
    # constant term, then recurse on the quotient
    zero = QuadFieldElement.zero(d)
    if f.coeff(0).is_zero():
        rest = Poly(list(f.coeffs)[1:], d)
        return [zero] + _roots_in_field(rest)
    root = _linear_root_scan(f)
    if root is None:
        raise DomainError(
            "cubic does not visibly split over the coefficient field; "
            "supply torsion data for this curve"
        )
    lin = Poly([-root, QuadFieldElement.one(d)], d)
    return [root] + _roots_in_field(f // lin)


def _linear_root_scan(f: Poly):
    d = f.d
    c0 = f.coeff(0)
    if not c0.is_integral():
        return None
    bound = int(c0.norm())
    if bound > 400:
        return None
    L = math.isqrt(bound) + 1
    for u in range(-L, L + 1):
        for v in range(-L, L + 1):
            if d == 0 and v != 0:
                continue
            r = QuadFieldElement.from_basis_pair(u, v, d)
            if r.is_zero() or r.norm() > bound:
                continue
            if f(r).is_zero():
                return r
    return None


def two_torsion_targets(curve: EllipticCurveCM) -> list:
    """Images of the 2-torsion: infinity plus the roots of G, sorted."""
    roots = _roots_in_field(curve.G)
    roots.sort(key=lambda r: (r.a, r.b))
    return [ProjPoint.infinity(curve.d)] + [
        ProjPoint.affine(r) for r in roots
    ]


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

    The table is indexed by the parities of lambda = a + b*sqrt(-d); it
    only covers multipliers with integer coordinates, and reports the
    parity signature when asked outside that range.
    """
    a, b, d = lam.a, lam.b, lam.d
    n_frac = lam.norm()
    if a.denominator != 1 or b.denominator != 1 or n_frac.denominator != 1:
        u, v = lam.basis_pair()
        raise DomainError(
            "no parity row covers coordinates "
            f"a={a}, b={b} (basis pair {u}, {v})"
        )
    n = int(n_frac)
    if n < 2:
        raise DomainError("multiplier norm below 2 has trivial dynamics")
    a_i, b_i = int(a), int(b)
    if (a_i + b_i * d) % 2 == 1:
        r = (n + 1) // 2
        counts = (r, r, r, r)
    elif a_i % 2 == 0 and b_i % 2 == 0:
        if n == 4:
            counts = (4, 2, 2, 2)
        else:
            counts = (n // 2 + 2, n // 2, n // 2, n // 2)
    elif a_i % 2 == 1 and (b_i * d) % 2 == 1:
        if n == 2:
            counts = (1, 2, 1, 2)
        else:
            counts = (n // 2, n // 2 + 1, n // 2, n // 2 + 1)
    else:
        raise DomainError(
            f"no parity row matches a mod 2 = {a_i % 2}, "
            f"b*d mod 2 = {(b_i * d) % 2}"
        )
    return RamificationProfile(counts, n)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    map: RationalMap
    lam: QuadFieldElement | None = None
    curve_name: str | None = None


def _gauss(a, b) -> QuadFieldElement:
    return QuadFieldElement(a, b, 1)


def _eis(a, b) -> QuadFieldElement:
    return QuadFieldElement(a, b, 3)


def _build_catalog() -> dict:
    entries = {}

    def add(name, num, den, lam=None, curve_name=None):
        entries[name] = CatalogEntry(name, RationalMap(num, den), lam, curve_name)

    z1 = Poly([0, 1], 1)
    one1 = Poly([1], 1)
    # conjugate degree-2 pair over the square lattice: c (z^2+1)/z with
    # c = 1/(1+i)^2 and its negative
    c = (_gauss(1, 1) ** 2).inverse()
    s = Poly([1, 0, 1], 1)
    add("phi_1+i", c * s, z1, _gauss(1, 1), "E1")
    add("phi_1-i", -c * s, z1, _gauss(1, -1), "E1")

    # degree-5 family: a*z*(z^2+t)^2 / (5z^2+u)^2
    t_plus = Poly([_gauss(1, 2), 0, 1], 1)
    t_minus = Poly([_gauss(1, -2), 0, 1], 1)
    u_plus = Poly([_gauss(1, 2), 0, 5], 1)
    u_minus = Poly([_gauss(1, -2), 0, 5], 1)
    add(
        "phi_1+2i",
        _gauss(-3, -4) * (z1 * t_plus * t_plus),
        u_minus * u_minus,
        _gauss(1, 2),
        "E1",
    )
    add(
        "phi_1-2i",
        _gauss(3, 4) * (z1 * t_plus * t_plus),
        u_minus * u_minus,
        _gauss(1, -2),
        "E1",
    )
    add(
        "phi_2+i",
        _gauss(3, -4) * (z1 * t_minus * t_minus),
        u_plus * u_plus,
        _gauss(2, 1),
        "E1",
    )
    add(
        "phi_2-i",
        _gauss(-3, 4) * (z1 * t_minus * t_minus),
        u_plus * u_plus,
        _gauss(2, -1),
        "E1",
    )

    e1 = curve_E1()
    e2 = curve_E2()
    dbl1 = lattes_double(e1)
    dbl2 = lattes_double(e2)
    tri1 = lattes_triple(e1)
    tri2 = lattes_triple(e2)
    entries["phi_2@E1"] = CatalogEntry("phi_2@E1", dbl1, _gauss(2, 0), "E1")
    entries["phi_3@E1"] = CatalogEntry("phi_3@E1", tri1, _gauss(3, 0), "E1")
    entries["phi_2@E2"] = CatalogEntry("phi_2@E2", dbl2, _eis(2, 0), "E2")
    entries["phi_3@E2"] = CatalogEntry("phi_3@E2", tri2, _eis(3, 0), "E2")

    # hexagonal-lattice degree-3 pair and their degree-9 composition;
    # omega is the primitive cube root of unity acting on x-coordinates
    omega = _eis(Fraction(-1, 2), Fraction(1, 2))
    cub = Poly([4, 0, 0, 1], 3)  # z^3 + 4
    den3 = Poly([0, 0, 3], 3)
    add("phi_sqrt-3", -1 * cub, den3, _eis(0, 1), "E2")
    add("phi_sqrt-3*rho", -omega * cub, den3, _eis(0, 1) * omega, "E2")
    m_poly = Poly([64, 0, 0, 48, 0, 0, -96, 0, 0, 1], 3)
    add(
        "phi_eps",
        omega * m_poly,
        Poly([0, 0, 9], 3) * cub * cub,
        _eis(-3, 0) * omega,
        "E2",
    )

    for k in (2, 3, 4):
        zeros = [0] * k + [1]
        entries[f"pow_{k}"] = CatalogEntry(
            f"pow_{k}", RationalMap(Poly(zeros, 0), Poly([1], 0))
        )
    return entries


_CATALOG = _build_catalog()


def catalog_names() -> list:
    return sorted(_CATALOG)


def catalog_entry(name: str) -> CatalogEntry:
    try:
        return _CATALOG[name]
    except KeyError:
        raise MapSpecError(
            f"unknown catalog map {name!r}; valid names: "
            + ", ".join(catalog_names())
        ) from None


def catalog(name: str) -> RationalMap:
    return catalog_entry(name).map


def map_for_multiplier(lam: QuadFieldElement) -> CatalogEntry:
    """Catalog entry whose multiplier equals lam, if one exists."""
    for entry in _CATALOG.values():
        if entry.lam is not None and entry.lam == lam:
            return entry
    known = sorted(
        format_element(e.lam) + " (d=%d)" % e.lam.d
        for e in _CATALOG.values()
        if e.lam is not None
    )
    raise DomainError(
        f"no catalog map has multiplier {format_element(lam)} over d={lam.d}; "
        "known multipliers: " + "; ".join(known)
    )


def curve_for_name(name: str) -> EllipticCurveCM:
    entry = catalog_entry(name)
    if entry.curve_name == "E1":
        return curve_E1()
    if entry.curve_name == "E2":
        return curve_E2()
    raise DomainError(f"catalog map {name!r} is not attached to a curve")
