"""CM elliptic curves and their quotient dynamics on the projective line.

A curve y^2 = G(x) with complex multiplication pushes each multiplication
map lambda down to a rational map on x-coordinates.  This module holds
the two standard curves (square and hexagonal lattice), doubling and
tripling built from division polynomials, a catalog of quotient maps of
degree 2 to 9 derived from a few base maps by conjugation and units.
Each map is built from forms proved coprime, without a gcd.  The
2-torsion of a curve, the ramification over it and the parity table
that predicts it live in torus, with the curve's lattice.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import DomainError, MapSpecError
from .quadfield import QuadFieldElement, format_element
from .ratmaps import Poly, RationalMap, _coords


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
        # the discriminant of x^3 + ax^2 + bx + c, zero exactly when G
        # has a double root
        c, b, a = (self.G.coeff(k) for k in range(3))
        if (a * a * b * b - 4 * b * b * b - 4 * a * a * a * c - 27 * c * c
                + 18 * a * b * c).is_zero():
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


def _coprime_map(num: Poly, den: Poly) -> RationalMap:
    """num/den, for forms the caller has proved coprime: no gcd."""
    return RationalMap._from_coprime(*_coords(num, den)[0], num.d)


@lru_cache(maxsize=16)
def lattes_double(curve: EllipticCurveCM) -> RationalMap:
    """x-coordinate doubling: ((G')^2 - 8zG) / (4G), degree 4, cached per
    curve.  A common root of the forms would be a double root of G."""
    G = curve.G
    dG = G.derivative()
    z = Poly([0, 1], curve.d)
    return _coprime_map(dG * dG - 8 * z * G, 4 * G)


@lru_cache(maxsize=16)
def lattes_triple(curve: EllipticCurveCM) -> RationalMap:
    """x-coordinate tripling via division polynomials, degree 9.

    Requires the depressed form x^3 + Ax + B.  psi_3 and psi_2*psi_4 are
    classical polynomials in x alone.  Cached per curve, as lattes_double.
    Its forms phi_3 and psi_3^2 are coprime on a smooth curve (Silverman,
    The Arithmetic of Elliptic Curves, Exercise 3.7).
    """
    G = curve.G
    if not G.coeff(2).is_zero():
        raise DomainError("tripling formula needs a depressed cubic")
    d = curve.d
    A = G.coeff(1)
    B = G.coeff(0)
    psi3 = Poly([-(A * A), 12 * B, 6 * A, 0, 3], d)
    # psi_2 * psi_4 = 8 G(x) q(x)
    q = Poly([-8 * B * B - A * A * A, -4 * A * B, -5 * A * A, 20 * B, 5 * A,
              0, 1], d)
    z = Poly([0, 1], d)
    return _coprime_map(z * psi3 * psi3 - 8 * G * q, psi3 * psi3)


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
    rules, so a map cannot carry the label of another.  No map takes a
    gcd: a unit multiple or a conjugate of a coprime pair is coprime, and
    the comments below say why each base pair is.
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
        add(name, _coprime_map(unit ** -2 * num, den), unit * lam,
            entries[base].curve_name)

    # degree 2 over the square lattice: (z^2+1)/((1+i)^2 z), 0^2+1 != 0
    one_i = _gauss(1, 1)
    add("phi_1+i", _coprime_map(one_i ** -2 * Poly([1, 0, 1], 1),
                                Poly([0, 1], 1)), one_i, "E1")
    # degree 5: conj(t)^2 z (z^2+t)^2 / (5z^2+conj(t))^2 with t = 1+2i,
    # whose roots 0, z^2 = -t and z^2 = -conj(t)/5 differ in modulus
    t = _gauss(1, 2)
    num = t.conj() ** 2 * (Poly([0, 1], 1) * Poly([t, 0, 1], 1) ** 2)
    add("phi_1+2i", _coprime_map(num, Poly([t.conj(), 0, 5], 1) ** 2), t, "E1")
    # degree 3 over the hexagonal lattice: -(z^3+4)/(3z^2), 0^3+4 != 0
    add("phi_sqrt-3", _coprime_map(Poly([-4, 0, 0, -1], 3),
                                   Poly([0, 0, 3], 3)), _eis(0, 1), "E2")
    for name, field in (("E1", _gauss), ("E2", _eis)):
        curve = CURVES[name]()
        add(f"phi_2@{name}", lattes_double(curve), field(2, 0), name)
        add(f"phi_3@{name}", lattes_triple(curve), field(3, 0), name)

    i = _gauss(0, 1)
    # primitive cube root of 1, (-1 + sqrt(-3))/2 = omega - 1
    omega = QuadFieldElement.from_basis_pair(-1, 1, 3)
    derive("phi_1-i", "phi_1+i", _gauss(1, 0), conjugate=True)
    derive("phi_1-2i", "phi_1+2i", _gauss(1, 0), conjugate=True)
    derive("phi_2+i", "phi_1+2i", i, conjugate=True)  # i(1-2i)
    derive("phi_2-i", "phi_1+2i", -i)  # -i(1+2i)
    derive("phi_sqrt-3*rho", "phi_sqrt-3", omega)
    derive("phi_eps", "phi_3@E2", -omega)  # -3*omega

    for k in (2, 3, 4):  # z^k/1
        add(f"pow_{k}", _coprime_map(Poly([0] * k + [1], 0), Poly([1], 0)))
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
