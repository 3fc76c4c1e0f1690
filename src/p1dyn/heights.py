"""Naive and canonical heights with certified error bounds.

The canonical height of a point under a degree-alpha map splits into an
archimedean Green value plus finite-place corrections:

    h_hat(P) = g_inf(v0) - sum_k (1/alpha^(k+1)) * (1/2) log N(g_k)

where v0 is an integral coprime representative, g_k is the coordinate
content extracted at step k of the exact orbit, and g_inf is the limit
of renormalized sup-norms.  The archimedean part iterates renormalized
coordinates at a working precision padded against worst-case round-off
amplification.  The finite part runs one tracker on integral basis
pairs modulo a power of m_R, the least positive integer in the ideal of
the resultant R of the lifted map: the content of a coprime pair divides
R, so a gcd against R reads it without factoring anything, and each
step costs at most one factor m_R of precision, so the needed modulus is
known in advance.  Both tails carry explicit geometric bounds derived
from the coefficient one-norms (upper) and an exact Bezout certificate
(lower).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .errors import DomainError, IterationBudgetError
from .lattes import EllipticCurveCM, lattes_double
from .quadfield import (
    QuadFieldElement,
    integral_gcd,
    omega_flag,
    pair_divexact,
    pair_gcd,
    pair_mul,
    pair_norm,
)
from .ratmaps import ProjPoint, RationalMap, cofactor_certificate

_LN2 = math.log(2)
_ARCH_CAP = 300
_FIN_CAP = 64
# bad primes are reported by trial division below this bound
_TRIAL_LIMIT = 1 << 16


def _log_int(n: int) -> float:
    """log of a positive integer, safe for thousands of digits."""
    if n <= 0:
        raise DomainError("log of non-positive integer")
    if n.bit_length() <= 900:
        return math.log(n)
    k = n.bit_length() - 60
    return math.log(n >> k) + k * _LN2

def _log_fraction(fr: Fraction) -> float:
    return _log_int(fr.numerator) - _log_int(fr.denominator)


def _trial_factor(n: int) -> tuple:
    """Prime exponents of n found by trial division, and the cofactor left.

    Divides by 2 and the odd numbers below _TRIAL_LIMIT.  A cofactor
    below _TRIAL_LIMIT**2 that survives has no two prime factors left,
    so it is prime and joins the exponents; the returned cofactor is
    then 1.
    """
    exps = {}
    p = 2
    while p < _TRIAL_LIMIT and p * p <= n:
        while n % p == 0:
            exps[p] = exps.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if 1 < n < _TRIAL_LIMIT**2:
        exps[n] = 1
        n = 1
    return exps, n


@dataclass(frozen=True)
class HeightValue:
    value: float
    iterations_used: int
    error_bound: float

    def __post_init__(self):
        if self.value < 0:
            raise DomainError("height value must be nonnegative")
        if self.error_bound < 0:
            raise DomainError("error bound must be nonnegative")


def naive_height(P: ProjPoint) -> HeightValue:
    """Weil height: half the log of the largest coordinate norm.

    Coordinates are first made integral and coprime, after which only the
    one complex place (or the real place, over the rationals)
    contributes.
    """
    a, b = P.reduced_pair()
    nmax = max(a.norm(), b.norm())
    return HeightValue(0.5 * _log_fraction(nmax), 0, 0.0)


def naive_height_by_places(P: ProjPoint) -> HeightValue:
    """Oracle route over the rationals: explicit sum of local terms.

    No gcd pre-reduction: the finite places are read off the prime
    factorization, so this cross-checks the reduce-first shortcut.
    Raises DomainError when the coordinate gcd does not factor by trial
    division.
    """
    if P.d != 0:
        raise DomainError("place-by-place oracle is for rational points")
    x, y = P.x0, P.x1
    if not (x.is_integral() and y.is_integral()):
        raise DomainError("oracle expects integral coordinates")
    xi, yi = int(x.a), int(y.a)
    total = _log_int(max(abs(xi), abs(yi)))
    exps, rest = _trial_factor(math.gcd(xi, yi))
    if rest != 1:
        raise DomainError(
            f"coordinate gcd keeps the cofactor {rest} after trial division"
        )
    for p, e in exps.items():
        # min of the two valuations is the valuation of the integer gcd
        total -= e * math.log(p)
    return HeightValue(max(total, 0.0), 0, 0.0)


def _eval_form(coeffs, x0, x1, mod, t):
    """sum_k c_k x0^k x1^(deg-k) on basis pairs, reduced mod `mod`."""
    acc = coeffs[-1]
    p1 = x1
    for c in reversed(coeffs[:-1]):
        s, u = pair_mul(acc, x0, t), pair_mul(c, p1, t)
        acc = ((s[0] + u[0]) % mod, (s[1] + u[1]) % mod)
        p1 = tuple(z % mod for z in pair_mul(p1, x1, t))
    return acc


class _HeightEngine:
    """Per-map state for canonical height evaluation."""

    def __init__(self, phi: RationalMap):
        if phi.degree < 2:
            raise DomainError("canonical heights need a map of degree >= 2")
        self.phi = phi
        self.alpha = phi.degree
        self.d = phi.d
        c0, c1 = phi.integral_model()
        self.c0 = c0
        self.c1 = c1
        R, s_cof = cofactor_certificate(c0, c1, self.alpha)
        n_R = R.norm()
        if n_R.denominator != 1:
            raise DomainError("integral model produced a non-integral resultant")
        self.n_R = int(n_R)
        # the least positive integer in the ideal (R)
        self.m_R = self.n_R // math.gcd(*R.basis_pair())
        self.log_nR = _log_fraction(n_R)
        s_up = max(
            sum(math.sqrt(float(c.norm())) for c in c0),
            sum(math.sqrt(float(c.norm())) for c in c1),
        )
        self.c_up = max(0.0, math.log(s_up))
        self.c_low = max(0.0, math.log(s_cof) - 0.5 * self.log_nR)
        self.c_bound = max(self.c_up, self.c_low)
        # per-step error amplification of the renormalized iteration:
        # the differential of w -> F(w/||w||) on the unit sphere is at
        # most alpha * e^{c_up}, and the next division by ||F|| costs
        # another e^{c_low}; the 4 soaks up evaluation round-off
        amp = 4.0 * self.alpha * math.exp(self.c_up + self.c_low)
        self._amp_bits = max(2, math.ceil(math.log2(amp)))
        self._ab0 = [(c.a, c.b) for c in c0]
        self._ab1 = [(c.a, c.b) for c in c1]
        self._bp0 = [c.basis_pair() for c in c0]
        self._bp1 = [c.basis_pair() for c in c1]
        self._t = omega_flag(self.d)

    def _arch_steps_needed(self, tol: float) -> int:
        if self.c_bound == 0.0:
            return 1
        n = 1
        bound = self.c_bound / (self.alpha - 1)
        while bound / self.alpha**n > tol and n <= _ARCH_CAP:
            n += 1
        return n

    def _fin_steps_needed(self, tol: float) -> int:
        if self.n_R == 1:
            return 0
        n = 0
        bound = 0.5 * self.log_nR / (self.alpha - 1)
        while bound / self.alpha**n > tol and n <= _FIN_CAP:
            n += 1
        return n

    def _arch_value(self, x0, x1, n_arch):
        # plain doubles are not enough here: orbits through transversally
        # repelling configurations blow round-off up by _amp_bits bits per
        # step, so pad the working mantissa to absorb the full run
        bits = 64 + n_arch * self._amp_bits
        with mpmath.workprec(bits):
            sq = mpmath.sqrt(self.d) if self.d else None

            def lift(ab):
                a, b = ab
                re = mpmath.mpf(a.numerator) / a.denominator
                if not b:
                    return mpmath.mpc(re, 0)
                im = mpmath.mpf(b.numerator) / b.denominator * sq
                return mpmath.mpc(re, im)

            g0 = [lift(ab) for ab in self._ab0]
            g1 = [lift(ab) for ab in self._ab1]
            w0 = lift((x0.a, x0.b))
            w1 = lift((x1.a, x1.b))
            total = mpmath.mpf(0)
            scale = mpmath.mpf(1)
            for _ in range(n_arch):
                m = max(abs(w0), abs(w1))
                total += mpmath.log(m) * scale
                w0, w1 = w0 / m, w1 / m
                acc0, acc1, p1 = g0[-1], g1[-1], w1
                for k in range(self.alpha - 1, -1, -1):
                    acc0 = acc0 * w0 + g0[k] * p1
                    acc1 = acc1 * w0 + g1[k] * p1
                    p1 = p1 * w1
                w0, w1 = acc0, acc1
                scale /= self.alpha
            m = max(abs(w0), abs(w1))
            total += mpmath.log(m) * scale
            tail = self.c_bound / (self.alpha - 1) * float(scale)
            return float(total), tail

    def _fin_value(self, x0, x1, n_fin):
        if n_fin == 0:
            return 0.0, 0.0
        t, n_R = self._t, self.n_R
        # every content divides R and so m_R: after k < n_fin steps the
        # pair is still known modulo m_R^2, a multiple of n_R, which is
        # all that reading the next content needs
        mod = self.m_R ** (n_fin + 1)
        v0, v1 = x0.basis_pair(), x1.basis_pair()
        total = 0.0
        scale = 1.0
        for _ in range(n_fin):
            scale /= self.alpha
            f0 = _eval_form(self._bp0, v0, v1, mod, t)
            f1 = _eval_form(self._bp1, v0, v1, mod, t)
            # N(g) divides this integer, and g divides N(g)
            h = math.gcd(pair_norm(f0, t) % n_R, pair_norm(f1, t) % n_R, n_R)
            if h > 1:
                g = pair_gcd((h, 0), (f0[0] % h, f0[1] % h), t)
                g = pair_gcd(g, (f1[0] % h, f1[1] % h), t)
                n_g = pair_norm(g, t)
                total += 0.5 * _log_int(n_g) * scale
                f0 = pair_divexact(f0, g, t)
                f1 = pair_divexact(f1, g, t)
            v0, v1 = f0, f1
        tail = 0.5 * self.log_nR / (self.alpha - 1) * scale
        return total, tail

    def height(self, P: ProjPoint, target_error: float) -> HeightValue:
        x0, x1 = P.reduced_pair()
        # flat budget for double-precision accumulation outside the
        # padded-precision archimedean loop
        slack = 2e-12
        certifiable = target_error > 4 * slack
        tol = (target_error - slack) / 2 if certifiable else slack
        n_arch = self._arch_steps_needed(tol)
        n_fin = self._fin_steps_needed(tol)
        over_budget = (
            not certifiable or n_arch > _ARCH_CAP or n_fin > _FIN_CAP
        )
        n_arch = min(n_arch, _ARCH_CAP)
        n_fin = min(n_fin, _FIN_CAP)
        g_arch, err_arch = self._arch_value(x0, x1, n_arch)
        fin_sum, err_fin = self._fin_value(x0, x1, n_fin)
        value = g_arch - fin_sum
        err = err_arch + err_fin + slack
        if value < 0:
            if value < -(err + 1e-9):
                raise DomainError(
                    f"computed height {value} is negative beyond the error "
                    "budget; internal inconsistency"
                )
            value = 0.0
        result = HeightValue(value, max(n_arch, n_fin), err)
        if over_budget:
            raise IterationBudgetError(
                f"target error {target_error} is below the certifiable "
                f"floor or needs more than {_ARCH_CAP} archimedean / "
                f"{_FIN_CAP} finite iterations",
                partial=result,
            )
        return result


_ENGINES: dict = {}


def _engine(phi: RationalMap) -> _HeightEngine:
    eng = _ENGINES.get(phi)
    if eng is None:
        eng = _HeightEngine(phi)
        _ENGINES[phi] = eng
    return eng


def _coerce_point(phi: RationalMap, P: ProjPoint) -> ProjPoint:
    if P.d == phi.d:
        return P
    if P.d == 0:
        return ProjPoint(P.x0.embed(phi.d), P.x1.embed(phi.d), phi.d)
    raise DomainError(
        f"point over d={P.d} cannot feed a map over d={phi.d}"
    )


def canonical_height(
    phi: RationalMap, P: ProjPoint, target_error: float = 1e-9
) -> HeightValue:
    """Canonical height of P under phi, accurate to target_error.

    The reported error_bound is a rigorous bound on |value - true|,
    derived from coefficient norms and the resultant; it is at most
    target_error unless the iteration caps are hit, which raises with
    the partial value attached.
    """
    if target_error <= 0:
        raise DomainError("target_error must be positive")
    return _engine(phi).height(_coerce_point(phi, P), target_error)


def height_constants(phi: RationalMap) -> dict:
    """Expansion constants and bad primes of the lifted map (diagnostic).

    The bad primes divide the resultant norm and come from trial
    division; "unfactored" is the part of the norm that trial division
    leaves, 1 when it factors completely.
    """
    eng = _engine(phi)
    exps, rest = _trial_factor(eng.n_R)
    return {
        "c_upper": eng.c_up,
        "c_lower": eng.c_low,
        "resultant_norm": eng.n_R,
        "bad_primes": sorted(exps),
        "unfactored": rest,
    }


def tate_limit_raw(phi: RationalMap, P: ProjPoint, steps: int) -> list:
    """Exact gcd-reduced orbit heights h(phi^n P) / alpha^n.

    The direct definition, kept as a slow cross-check for the decomposed
    engine.  Coordinate sizes grow like alpha^n, so keep steps small.
    """
    if phi.degree < 2:
        raise DomainError("needs degree >= 2")
    P = _coerce_point(phi, P)
    eng = _engine(phi)
    from .ratmaps import Poly

    f0 = Poly(eng.c0, phi.d)
    f1 = Poly(eng.c1, phi.d)
    x0, x1 = P.reduced_pair()
    out = []
    weight = 1.0
    for _ in range(steps):
        y0 = f0.eval_pair(x0, x1, eng.alpha)
        y1 = f1.eval_pair(x0, x1, eng.alpha)
        g = integral_gcd(y0, y1)
        x0, x1 = y0 / g, y1 / g
        weight /= eng.alpha
        nmax = max(x0.norm(), x1.norm())
        out.append(0.5 * _log_fraction(nmax) * weight)
    return out


def neron_tate(
    curve: EllipticCurveCM, x, target_error: float = 1e-9
) -> HeightValue:
    """Height of the curve point above x, via the doubling quotient map."""
    if isinstance(x, ProjPoint):
        point = x
    elif isinstance(x, QuadFieldElement):
        point = ProjPoint.affine(x)
    else:
        point = ProjPoint.affine(QuadFieldElement(x, 0, curve.d))
    return canonical_height(lattes_double(curve), point, target_error)
