"""CM elliptic curves and their quotient dynamics on the projective line.

A curve y^2 = G(x) with complex multiplication pushes each multiplication
map lambda down to a rational map on x-coordinates.  This module holds
the two standard curves (square and hexagonal lattice), doubling and
tripling built from division polynomials, a catalog of quotient maps of
degree 2 to 9 derived from a few base maps by conjugation and units, and
the parity-table oracle that predicts how the four 2-torsion images
ramify.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, MapSpecError
from .quadfield import QuadFieldElement, cleared_pairs, format_element
from .ratmaps import Poly, ProjPoint, RationalMap, distinct_preimages, poly_gcd


class _Frozen:
    """Base of the exact value types: immutable records of their __slots__.

    A subclass names its fields in __slots__ and sets them in its own
    __init__ through _Frozen.__init__, in slot order.  Equality, hash,
    repr and __match_args__ follow the fields, as for a frozen dataclass;
    copy and pickle rebuild through the constructor, since __setattr__
    refuses every assignment.  dataclasses would import inspect, which a
    process that only imports p1dyn should not pay for.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = cls.__slots__

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return "%s(%s)" % (self.__class__.__qualname__, ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._fields()


class EllipticCurveCM(_Frozen):
    """Short Weierstrass curve y^2 = G(x) with CM by the order of tag d."""

    __slots__ = ("G", "d")

    def __init__(self, G: Poly, d: int):
        super().__init__(G, d)
        if self.G.degree != 3:
            raise DomainError("G must be a cubic")
        if self.G.leading() != QuadFieldElement.one(self.G.d):
            raise DomainError("G must be monic")
        if poly_gcd(self.G, self.G.derivative()).degree > 0:
            raise DomainError("G must be squarefree (smooth curve)")
        if self.d not in (1, 3):
            raise DomainError("supported CM discriminant tags are 1 and 3")
        if self.d != self.G.d:
            raise DomainError(
                f"CM tag d={self.d} is not the field d={self.G.d} of G")


def curve_E1() -> EllipticCurveCM:
    """y^2 = x^3 + x, square lattice, CM by the Gaussian integers."""
    return EllipticCurveCM(Poly([0, 1, 0, 1], 1), 1)


def curve_E2() -> EllipticCurveCM:
    """y^2 = x^3 + 1, hexagonal lattice, CM by the Eisenstein integers."""
    return EllipticCurveCM(Poly([1, 0, 0, 1], 3), 3)


# the curves by the names that catalog entries and --curve options use
CURVES = {"E1": curve_E1, "E2": curve_E2}


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


# Durand-Kerner sweeps of the double-precision root guess of a cubic
_GUESS_SWEEPS = 100


def _root_guesses(G: Poly) -> tuple:
    """(guesses, s): the roots of the monic cubic G in double precision,
    as exact elements, and an s with roots of modulus at most about 2^s.

    The Durand-Kerner sweeps run on G(2^s y)/2^(3s), whose roots have
    modulus about 1, so coefficients of any size fit a double.
    """
    d = G.d
    norms = [G.coeff(k).norm() for k in range(3)]
    s = max((n.numerator.bit_length() - n.denominator.bit_length())
            // (6 - 2 * k) for k, n in enumerate(norms) if n)
    scale = Fraction(2) ** s
    c0, c1, c2 = (complex(G.coeff(k) / scale ** (3 - k)) for k in range(3))
    ys = [(0.4 + 0.9j) ** k for k in range(3)]
    for _ in range(_GUESS_SWEEPS):
        for k, y in enumerate(ys):
            ys[k] = y - (((y + c2) * y + c1) * y + c0) / (
                (y - ys[k - 1]) * (y - ys[k - 2]))
    return [QuadFieldElement(
        Fraction(y.real) * scale,
        Fraction(y.imag / math.sqrt(d) if d else 0) * scale, d,
    ) for y in ys], s


def _snap(x: QuadFieldElement, D: int) -> QuadFieldElement:
    """A point of (1/D)O_K nearest x in each basis coordinate."""
    u, v = x.basis_pair()
    return QuadFieldElement.from_basis_pair(round(D * u), round(D * v),
                                            x.d) / D


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
    return (ProjPoint.infinity(curve.d), *(
        ProjPoint.affine(r) for r in sorted(roots, key=lambda r: (r.a, r.b))
    ))


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
    n = int(lam.norm())
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


class CatalogEntry(_Frozen):
    """A catalog map by name, with its multiplier and curve name when it
    is a Lattes map."""

    __slots__ = ("name", "map", "lam", "curve_name")

    def __init__(self, name: str, map: RationalMap,
                 lam: QuadFieldElement | None = None,
                 curve_name: str | None = None):
        super().__init__(name, map, lam, curve_name)


def _gauss(a, b) -> QuadFieldElement:
    return QuadFieldElement(a, b, 1)


def _eis(a, b) -> QuadFieldElement:
    return QuadFieldElement(a, b, 3)


def _build_catalog() -> dict:
    """The catalog from its base maps and two exact symmetries.

    Conjugating every coefficient of phi_lambda gives phi_conj(lambda),
    and a unit u acts on x-coordinates as multiplication by u^-2 (x -> -x
    on E1, x -> omega*x on E2), so phi_(u*lambda) = u^-2 * phi_lambda.
    Each derived entry takes both its map and its multiplier from these
    rules, so a map cannot carry the label of another.
    """
    entries = {}

    def add(name, phi, lam=None, curve_name=None):
        entries[name] = CatalogEntry(name, phi, lam, curve_name)

    def derive(name, base, unit, conjugate=False):
        phi, lam = entries[base].map, entries[base].lam
        num, den = phi.num, phi.den
        if conjugate:
            num, den = (Poly([c.conj() for c in p.coeffs], p.d)
                        for p in (num, den))
            lam = lam.conj()
        add(name, RationalMap(unit ** -2 * num, den), unit * lam,
            entries[base].curve_name)

    # degree 2 over the square lattice: (z^2+1)/((1+i)^2 z)
    one_i = _gauss(1, 1)
    add("phi_1+i", RationalMap(one_i ** -2 * Poly([1, 0, 1], 1),
                               Poly([0, 1], 1)), one_i, "E1")
    # degree 5: conj(t)^2 z (z^2+t)^2 / (5z^2+conj(t))^2 with t = 1+2i
    t = _gauss(1, 2)
    num = t.conj() ** 2 * (Poly([0, 1], 1) * Poly([t, 0, 1], 1) ** 2)
    add("phi_1+2i", RationalMap(num, Poly([t.conj(), 0, 5], 1) ** 2), t, "E1")
    # degree 3 over the hexagonal lattice: -(z^3+4)/(3z^2)
    add("phi_sqrt-3", RationalMap(Poly([-4, 0, 0, -1], 3), Poly([0, 0, 3], 3)),
        _eis(0, 1), "E2")
    for name, field in (("E1", _gauss), ("E2", _eis)):
        curve = CURVES[name]()
        add(f"phi_2@{name}", lattes_double(curve), field(2, 0), name)
        add(f"phi_3@{name}", lattes_triple(curve), field(3, 0), name)

    i = _gauss(0, 1)
    omega = _eis(Fraction(-1, 2), Fraction(1, 2))  # primitive cube root of 1
    derive("phi_1-i", "phi_1+i", _gauss(1, 0), conjugate=True)
    derive("phi_1-2i", "phi_1+2i", _gauss(1, 0), conjugate=True)
    derive("phi_2+i", "phi_1+2i", i, conjugate=True)  # i(1-2i)
    derive("phi_2-i", "phi_1+2i", -i)  # -i(1+2i)
    derive("phi_sqrt-3*rho", "phi_sqrt-3", omega)
    derive("phi_eps", "phi_3@E2", -omega)  # -3*omega

    for k in (2, 3, 4):
        add(f"pow_{k}", RationalMap(Poly([0] * k + [1], 0), Poly([1], 0)))
    return entries


_CATALOG = _build_catalog()
# the catalog's maps are pairwise distinct, so each map names one entry,
# and so are its multipliers (equal only within one field)
_BY_MAP = {entry.map: entry for entry in _CATALOG.values()}
_BY_LAM = {e.lam: e for e in _CATALOG.values() if e.lam is not None}


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


def entry_for_map(phi: RationalMap) -> CatalogEntry | None:
    """The catalog entry whose map equals phi, or None."""
    return _BY_MAP.get(phi)


def map_for_multiplier(lam: QuadFieldElement) -> CatalogEntry:
    """Catalog entry whose multiplier equals lam, if one exists."""
    if lam in _BY_LAM:
        return _BY_LAM[lam]
    known = sorted(format_element(x) + " (d=%d)" % x.d for x in _BY_LAM)
    raise DomainError(
        f"no catalog map has multiplier {format_element(lam)} over d={lam.d}; "
        "known multipliers: " + "; ".join(known)
    )


def curve_for_name(name: str) -> EllipticCurveCM:
    entry = catalog_entry(name)
    if entry.curve_name is not None:
        return CURVES[entry.curve_name]()
    raise DomainError(f"catalog map {name!r} is not attached to a curve")
