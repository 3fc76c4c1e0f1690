"""A map's complex lift, and its Green values at single points, on
Python floats: no numpy.

Lift is the one record of a map's homogeneous lift to C^2, built once
per map (Lift.from_map, cached), which every numeric path reads: green
here, and measures' green_field and preimage trees and periodic's
generic route.  green(lift, z, n) runs the renormalized iteration of
measures' green_field at one point, with the forms' Horner on Python
complex numbers (_forms_scalar), so that `p1dyn green` and the exact
subcommands load neither numpy nor measures.  Its abs is numpy's
complex abs, replicated bit for bit (cabs), and its logarithm is
math.log.  measures re-exports Lift and green, so measures.green and
p1dyn.green are this function.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import DomainError
from .ratmaps import RationalMap

_ONE = 1.0 + 0j
# the largest double whose reciprocal overflows: 1/m is finite for every
# larger m
_RECIP_OVERFLOW = 2.0 ** -1024
_INF = math.inf


class Lift:
    """Homogeneous lift (F0, F1) of an exact map of degree alpha to C^2.

    Lift.from_map is the only constructor: it takes the pair (num, den)
    of the map's canonical scale, whose resultant is exactly nonzero.
    The map's other lifts c(F0, F1), c != 0, are the lift ambiguity: in
    the limit their Green values differ by log|c|/(alpha-1), and every
    derived measure is the same.  The coefficients are held once, as
    two tuples of complex, constant term first, of length degree + 1.
    """

    def _set(self, f0, f1) -> None:
        self._coeffs = (tuple(map(complex, f0)), tuple(map(complex, f1)))
        self.degree = len(self._coeffs[0]) - 1
        # each form's highest nonzero coefficient, where its Horner starts
        self._tops = tuple(
            max((k for k, c in enumerate(f) if c), default=self.degree)
            for f in self._coeffs)

    @classmethod
    @lru_cache(maxsize=128)
    def from_map(cls, phi: RationalMap) -> "Lift":
        """The lift (num, den) of phi; a constant map c0/c1 gets the
        degree-0 lift (c0, c1).  Cached for the 128 most recently used
        maps, so equal maps share one Lift."""
        lift = cls()
        lift._set(*phi.complex_pair())
        return lift

    def eval(self, w0, w1) -> tuple:
        """Both forms at one point (w0, w1), by _forms_scalar's Horner,
        as Python complex."""
        return _forms_scalar(self._coeffs, self._tops, complex(w0),
                             complex(w1))


def _forms_scalar(coeffs, tops, w0: complex, w1: complex):
    """F(w0, w1) in Python complex.  Each Horner starts at its form's top
    nonzero coefficient t, as f[t] * w1^(deg - t), and from there keeps
    every term, as the plain Horner on numpy scalars does, so every
    product and sum rounds as there.  The steps skipped above t are
    0 * w0 + 0, which can only set the sign of a zero: a component that
    is exactly zero may flip sign, and no magnitude moves."""
    f0, f1 = coeffs
    t0, t1 = tops
    a0 = a1 = None
    # p = w1^(deg - k) at step k: 1, then w1 and the plain Horner's chain
    p = _ONE
    for k in range(len(f0) - 1, -1, -1):
        if k < t0:
            a0 = a0 * w0 + f0[k] * p
        elif k == t0:
            a0 = f0[k] * p
        if k < t1:
            a1 = a1 * w0 + f1[k] * p
        elif k == t1:
            a1 = f1[k] * p
        p = w1 if p is _ONE else p * w1
    return a0, a1


def cabs(w: complex) -> float:
    """|w| as numpy's complex abs rounds it: with a >= b the moduli of
    the parts, a * sqrt(fma(b/a, b/a, 1)), inf if a part is infinite,
    else nan if one is nan.  r = b/a is the double n/d, so r^2 + 1 is
    (n^2 + d^2)/d^2 exactly, and int true division rounds that once,
    as the fma does."""
    a, b = abs(w.real), abs(w.imag)
    if a == _INF or b == _INF:
        return _INF
    if a != a or b != b:
        return a + b
    if a < b:
        a, b = b, a
    if a == 0.0:
        return 0.0
    n, d = (b / a).as_integer_ratio()
    return a * math.sqrt((n * n + d * d) / (d * d))


def _abs_max(w0: complex, w1: complex) -> float:
    a, b = cabs(w0), cabs(w1)
    # np.maximum's rule: a NaN wins
    return a if a >= b or a != a else b


def check_green(lift, n: int) -> Lift:
    """lift as a Lift (a RationalMap's cached one), once n and the
    degree allow a Green value."""
    if n < 1:
        raise DomainError("need at least one iteration")
    if isinstance(lift, RationalMap):
        lift = Lift.from_map(lift)
    elif not isinstance(lift, Lift):
        raise DomainError("expected a Lift or a RationalMap")
    if lift.degree < 2:
        # 1/deg^n never shrinks: the sum grows without limit
        raise DomainError("Green functions need a map of degree at least 2")
    return lift


def green(lift, z, n: int) -> float:
    """n-th renormalized Green value at the point (z, 1).

    lift is a Lift, or a RationalMap, whose cached Lift is read.
    Successive n differ by at most C/deg^n, so the returned value is
    within C/(deg^n (deg-1)) of the limit.  Counts past
    about 1075/log2(deg) cost no more: deg^-n has underflowed and the
    value no longer changes.  The iteration runs on Python complex
    numbers, with numpy's complex abs (cabs) and math.log: the bits of
    the plain iteration on numpy scalars with that abs and log, and
    within rounding of green_field's cell at the point.  Python's
    complex products and sums raise no floating-point warning, so a lift
    that overflows gives inf or nan without one, and that raises
    DomainError, as a non-finite cell of green_field does.  So does a
    lift whose forms both round to zero at some step, or to 2^-1024 or
    less before another: the loop stops there, before the log of zero
    or an overflowing reciprocal.
    """
    lift = check_green(lift, n)
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError("point must be finite")
    coeffs, tops, degree = lift._coeffs, lift._tops, lift.degree
    w0, w1 = z, _ONE
    m = _abs_max(w0, w1)
    g = math.log(m)
    scale = 1.0
    for _ in range(n):
        scale /= degree
        if scale == 0.0:
            break
        if m <= _RECIP_OVERFLOW:
            # 1/m would overflow, and put inf or nan into every later
            # iterate
            raise DomainError(f"Green value at {z} is not finite: the lift "
                              "underflows in double precision")
        inv = 1.0 / m
        w0, w1 = _forms_scalar(coeffs, tops, w0 * inv, w1 * inv)
        m = _abs_max(w0, w1)
        if m == 0.0:
            raise DomainError(f"Green value at {z} is not finite: the lift "
                              "vanishes in double precision")
        g = g + math.log(m) * scale
    if not math.isfinite(g):
        raise DomainError(f"Green value at {z} is not finite: the lift "
                          "overflows in double precision")
    return g
