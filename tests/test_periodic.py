"""Closed-form periodic points of the catalog maps.

Every catalog map at every period n with degree^n <= 200 is checked
against two oracles: a 60-digit mpmath Newton polish of phi^n(z) = z
from each returned point, with the multiplier there by the chain rule,
and the root solve that every other map takes (_generic_periodic).
"""

import math
import sys

import mpmath
import pytest

from p1dyn import periodic
from p1dyn.lattes import (
    catalog,
    catalog_entry,
    catalog_names,
    curve_for_name,
    two_torsion_targets,
)
from p1dyn.periodic import INF_POINT, _generic_periodic, periodic_points
from p1dyn.quadfield import QuadFieldElement
from p1dyn.ratmaps import RationalMap

DPS = 60


def _cases():
    for name in catalog_names():
        deg = catalog(name).degree
        n = 1
        while deg**n <= 200:
            yield name, n
            n += 1


CASES = list(_cases())


def _mp(c):
    """An exact field element as an mpmath complex."""
    a, b = (mpmath.mpf(x.numerator) / x.denominator for x in c.basis_pair())
    if c.d == 3:
        return a + b * (1 + mpmath.sqrt(-3)) / 2
    return mpmath.mpc(a, b)


def _horner(cs, z):
    p, dp = mpmath.mpc(0), mpmath.mpc(0)
    for c in reversed(cs):
        dp = dp * z + p
        p = p * z + c
    return p, dp


def _polish(phi, z, n):
    """The fixed point of phi^n nearest z, by Newton at DPS digits, and
    the multiplier of phi^n there."""
    with mpmath.workdps(DPS):
        num = [_mp(phi.num.coeff(k)) for k in range(phi.num.degree + 1)]
        den = [_mp(phi.den.coeff(k)) for k in range(phi.den.degree + 1)]
        x = mpmath.mpc(z.real, z.imag)
        for _ in range(4):
            w, slope = x, mpmath.mpc(1)
            for _ in range(n):
                a, da = _horner(num, w)
                b, db = _horner(den, w)
                slope *= (da * b - a * db) / (b * b)
                w = a / b
            x -= (w - x) / (slope - 1)
        return x, slope


def _plus_zero(x):
    return x == 0.0 and math.copysign(1.0, x) == 1.0


@pytest.mark.parametrize("name,n", CASES)
def test_closed_form_is_correctly_rounded(monkeypatch, name, n):
    # no numpy anywhere on the way
    monkeypatch.setitem(sys.modules, "numpy", None)
    entry = catalog_entry(name)
    phi = entry.map
    pts = periodic_points(phi, n)
    assert len(pts) == phi.degree**n + 1
    assert pts[-1][0] == INF_POINT
    finite = [z for z, _ in pts[:-1]]
    assert finite == sorted(finite, key=lambda z: (z.real, z.imag))
    assert len(set(finite)) == len(finite)
    if entry.curve_name is None:
        want_inf, roots = 0j, []
    else:
        lam_n = entry.lam**n
        want_inf = complex(lam_n * lam_n)
        roots = [complex(t) for t in two_torsion_targets(
            curve_for_name(name)) if not t.is_infinity()]
    assert pts[-1][1] == want_inf
    tiny = mpmath.mpf(10) ** (20 - DPS)
    for z, mult in pts[:-1]:
        ref, ref_mult = _polish(phi, z, n)
        for got, want in ((z.real, ref.real), (z.imag, ref.imag)):
            if got == 0.0:
                # zero by a symmetry of the lattice, and +0.0
                assert _plus_zero(got) and abs(want) < tiny, (z, want)
            else:
                assert got == float(want), (z, mpmath.nstr(want, 25))
        if entry.curve_name is None:
            expect_exact = QuadFieldElement(0 if z == 0 else phi.degree**n)
        elif z in roots:
            expect_exact = lam_n * lam_n
        else:
            eps = 1 if abs(ref_mult - _mp(lam_n)) < 1 else -1
            expect_exact = eps * lam_n
        expect = complex(expect_exact)
        with mpmath.workdps(DPS):
            assert abs(ref_mult - _mp(expect_exact)) < tiny
        # repr tells the signs of zeros apart
        assert repr(mult) == repr(expect)


def _chordal(p, q):
    return abs(p[0] * q[1] - p[1] * q[0]) / (
        math.hypot(abs(p[0]), abs(p[1])) * math.hypot(abs(q[0]), abs(q[1])))


def _family(name):
    entry = catalog_entry(name)
    return entry.map.d, entry.curve_name


@pytest.mark.parametrize("name,n", CASES)
def test_commuting_maps_permute_the_set(monkeypatch, name, n):
    # psi o phi = phi o psi, so each psi of the same family carries the
    # set to itself; psi runs on Python complex numbers, no numpy
    monkeypatch.setitem(sys.modules, "numpy", None)
    pairs = [(1.0 + 0j, 0j) if z == INF_POINT else (z, 1.0 + 0j)
             for z, _ in periodic_points(catalog(name), n)]
    for other in catalog_names():
        if _family(other) != _family(name):
            continue
        f0, f1 = catalog(other).complex_pair()
        for w0, w1 in pairs:
            image = (sum(c * w0**k * w1**(len(f0) - 1 - k)
                         for k, c in enumerate(f0)),
                     sum(c * w0**k * w1**(len(f1) - 1 - k)
                         for k, c in enumerate(f1)))
            assert min(_chordal(image, q) for q in pairs) <= 1e-9, other


@pytest.mark.parametrize("name,n", CASES)
def test_closed_form_matches_the_root_solve(name, n):
    # one to one, within the root solve's own error at the cap (5.2e-9
    # relative on phi_1+i at n = 7) and its multipliers' (1.3e-6)
    phi = catalog(name)
    closed = periodic_points(phi, n)
    solved = _generic_periodic(phi, n)
    assert len(solved) == len(closed)
    assert closed[-1] == solved[-1]
    left = list(solved[:-1])
    for z, mult in closed[:-1]:
        k = min(range(len(left)), key=lambda i: abs(left[i][0] - z))
        w, m = left.pop(k)
        assert abs(w - z) <= 1e-8 * max(1.0, abs(z))
        assert abs(m - mult) <= 1e-5 * abs(mult) + 1e-9


def test_a_catalog_map_built_elsewhere_takes_the_closed_form():
    phi = catalog("phi_1+i")
    again = RationalMap(phi.num, phi.den)
    assert periodic_points(again, 3) == periodic_points(phi, 3)
    assert periodic_points(again, 3) != _generic_periodic(phi, 3)


def test_other_maps_take_the_root_solve(monkeypatch):
    # z^2 - 2 is no catalog map: its points come from poly_roots
    calls = []
    monkeypatch.setattr(periodic, "_generic_periodic",
                        lambda phi, n: calls.append(n) or [])
    periodic_points(RationalMap.from_strings(["-2", "0", "1"], ["1"], 0), 2)
    periodic_points(catalog("pow_2"), 2)
    assert calls == [2]
