"""Canonical heights with certified error bounds.

The canonical height of a point under a degree-alpha map splits into an
archimedean Green value plus finite-place corrections:

    h_hat(P) = g_inf(v0) - sum_k (1/alpha^(k+1)) * (1/2) log N(g_k)

where v0 is an integral coprime representative, g_k is the coordinate
content extracted at step k of the exact orbit, and g_inf is the limit of
renormalized sup-norms.  The archimedean part iterates the integral model
exactly on integral basis pairs, shifted right by powers of two, and takes
one logarithm at the end, divided by alpha^n.  A shift at step k of n
loses a relative 2^(4 - bits) at most, and each later step amplifies that
at most A = alpha e^(c_up + c_low) times, so step k keeps
bits_k = max(64, 64 + (n - k) amp - drop) bits, with amp = ceil(log2(4A))
and drop = min(40, floor(n log2 alpha)).  The last pair's relative error
then stays below 2^(-59.58 + drop), which moves the value by less than
2^-59.5, and the working size falls from 64 + n amp bits to 64 along the
orbit.  From alpha^n >= 2^13 on, the last pair's log is a double's,
which adds less than 2^-59.98: the value's error stays below 2^-58.7.
Both loops run one kernel of the forms (formkernel.form_kernel), in x0^r
and x1^r for r the order of the rotation that a Lattes map commutes with,
shared by every engine of one shape of forms.  Engines are cached per
map, the 128 most recently used ones.
The finite part runs one tracker on integral basis pairs modulo an integer
M: the content g of a coprime pair's image divides the resultant R of the
lifted map, so it divides m_R, the least positive integer in (R), and it
divides both norms N(F0) and N(F1).  So g divides h = gcd(N(F0), N(F1),
m_R) and g = gcd(h, F0, F1), which reads it without factoring anything,
by Euclid on residues mod h, and reading it needs only m_R | M.  Dividing
out g leaves the pair known modulo (M/g), inside (M/m_g) for m_g the
least positive integer in (g), so M shrinks by m_g and stays where the
orbit spends it.  M starts at m_R^2; a step that would start with m_R not
dividing M restarts the orbit from a start larger by the m_g spent so far
and one more m_R, which clears that step.  The start never exceeds
m_R^(n_fin+1), where m_R | M holds at every step as m_g | m_R, so the
restarts are finitely many.  Every content is read exactly, so the sum
does not depend on where M starts.
The finite loop stops early on a proved cycle of trivial contents, when
rad_R, the product of the distinct primes of m_R, has no prime above 64
(else it runs every step).  (1) Whether h = 1 depends only on v mod rad_R:
a prime p divides N(F_i(v)) according to v mod p, and rad_R has exactly
the primes of m_R.  (2) If h = 1 then g = 1, as g | h, so the next pair is
F(v), and its residue mod rad_R is F(v mod rad_R) mod rad_R; the tracker
holds v mod M with rad_R | m_R | M at every step.  (3) So a residue met
again after steps with only h = 1 repeats forever: every later content is
1, and every later term of the sum exactly 0, so the loop returns there,
after the divisions of the step scale that the remaining steps would
make.  The value, the tail and the step count are those of the full
loop, bit for bit.  Both tails carry explicit geometric bounds derived
from the coefficient one-norms (upper) and an exact Bezout certificate
(lower).
"""

from __future__ import annotations

import math
from decimal import Context, Decimal, localcontext
from functools import lru_cache

from .errors import DomainError, IterationBudgetError
from .lattes import EllipticCurveCM, _Frozen, lattes_double
from .quadfield import (
    QuadFieldElement,
    omega_flag,
    pair_divexact,
    pair_gcd_mod,
    pair_norm,
)
from .ratmaps import (
    ProjPoint,
    RationalMap,
    cofactor_certificate,
    log_one_norm,
)

_LN2 = math.log(2)
_ARCH_CAP = 300
_FIN_CAP = 64
# target errors whose step counts an engine keeps
_STEPS_MEMO = 16
# bad primes are reported by trial division below this bound
_TRIAL_LIMIT = 1 << 16
# the product of the primes below 64
_PRIMORIAL_64 = math.prod(
    p for p in range(2, 64) if all(p % q for q in range(2, p))
)


def _log_int(n: int) -> float:
    """log of a positive integer, safe for thousands of digits."""
    if n <= 0:
        raise DomainError("log of non-positive integer")
    if n.bit_length() <= 900:
        return math.log(n)
    k = n.bit_length() - 60
    return math.log(n >> k) + k * _LN2


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


@lru_cache(maxsize=16)
def _ln2(prec: int) -> Decimal:
    """log 2 to `prec` digits.  Decimal.ln rounds correctly, so the cached
    value has the digits a fresh one would."""
    with localcontext(Context(prec=prec)):
        return Decimal(2).ln()


class HeightValue(_Frozen):
    """A height, its certified error bound, and iterations_used: the larger
    of the archimedean and finite step counts that the error budget calls
    for.  A finite loop that stops on a cycle of trivial contents still
    counts every step it was budgeted."""

    __slots__ = ("value", "iterations_used", "error_bound")

    def __init__(self, value: float, iterations_used: int,
                 error_bound: float):
        super().__init__(value, iterations_used, error_bound)
        if self.value < 0:
            raise DomainError("height value must be nonnegative")
        if self.error_bound < 0:
            raise DomainError("error bound must be nonnegative")


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
        R, log_s_cof = cofactor_certificate(c0, c1, self.alpha)
        if not R.is_integral():
            raise DomainError("integral model produced a non-integral resultant")
        self.n_R = int(R.norm())
        # the least positive integer in the ideal (R)
        self.m_R = self.n_R // math.gcd(*R.basis_pair())
        # rad_R, the product of the distinct primes of m_R, when all of
        # them are below 64, else 0: _fin_value's residues mod rad_R
        rad = math.gcd(self.m_R, _PRIMORIAL_64)
        rest = self.m_R
        while (g := math.gcd(rest, rad)) > 1:
            rest //= g
        self.rad_R = rad if rest == 1 else 0
        self.log_nR = _log_int(self.n_R)
        log_s_up = max(
            log_one_norm([int(c.norm()) for c in cs]) for cs in (c0, c1)
        )
        self.c_up = max(0.0, log_s_up)
        self.c_low = max(0.0, log_s_cof - 0.5 * self.log_nR)
        self.c_bound = max(self.c_up, self.c_low)
        # bits per remaining step that _arch_value pads its pairs by: a
        # relative error in w grows by at most alpha * e^{c_up} under F and
        # by e^{c_low} in the next renormalization, so by at most
        # A = alpha * e^{c_up + c_low} <= 2^(amp - 2) per step, and the 4
        # leaves 2 bits per step for the truncation itself.  F and its
        # coefficients are exact; each right shift to `bits` moves a basis
        # coordinate by less than one unit, so an element by less than 2
        # units (|i| = |omega| = 1), against a largest element of at least
        # (sqrt(3)/2) 2^(bits-1): a relative error below 2^(4 - bits)
        log2_amp = (
            math.log2(4.0 * self.alpha) + (self.c_up + self.c_low) / _LN2
        )
        self._amp_bits = max(2, math.ceil(log2_amp))
        self._t = omega_flag(self.d)
        # (n_arch, n_fin) per target error, as height computes them
        self._steps = {}
        from .formkernel import form_kernel

        self._plan = form_kernel(
            [[(k, c.basis_pair()) for k, c in enumerate(cs) if c]
             for cs in (c0, c1)],
            self.alpha, self._t,
        )

    def _steps_needed(self, first: int, cap: int, c: float,
                      tol: float) -> int:
        """Steps n from `first` until the tail c/((alpha-1) alpha^n) is at
        most tol; cap + 1 when the cap comes first."""
        n = first
        bound = c / (self.alpha - 1)
        while bound / self.alpha**n > tol and n <= cap:
            n += 1
        return n

    def _arch_value(self, x0, x1, n_arch):
        # F^n(v) = 2^shift * (w0, w1) up to the truncation of each shift,
        # and the Green sum telescopes to log ||F^n(v)|| / alpha^n for any
        # representatives, so only the final pair needs a logarithm, and
        # divided by alpha^n it needs a relative error of only about
        # 2^-60 alpha^n.  Step k of n cuts its pair to bits_k = max(64,
        # 64 + (n-k) amp - drop) bits, a relative error below
        # 2^(4 - bits_k) that reaches the last pair amplified at most
        # A^(n-k) <= 2^((n-k)(amp-2)) times: below 2^(-60 + drop - 2(n-k)).
        # The n steps stay below (4/3) 2^(-60 + drop) < 2^-59.58 alpha^n,
        # as 2^drop <= alpha^n, and the cap of 40 on drop keeps that
        # relative error below 2^-19, where log(1 + delta) is within
        # 1.00001 delta: the value moves by less than 2^-59.5.  The last
        # pair's coordinates are below 2^64, so top < 3 * 2^128, and a
        # double's log of it errs by one ulp of a value below 128 and the
        # int's rounding, 2^-46 + 2^-53; halved and divided by alpha^n >=
        # 2^13 that is below 2^-59.98, and the value's error below 2^-58.7
        t, alpha, plan, amp = self._t, self.alpha, self._plan, self._amp_bits
        alpha_n = alpha**n_arch
        # floor(n log2 alpha), exactly; bits runs down to bits_k at step k
        drop = min(40, alpha_n.bit_length() - 1)
        bits = 64 + n_arch * amp - drop
        (a0, b0), (a1, b1) = x0.basis_pair(), x1.basis_pair()
        shift = 0
        for _ in range(n_arch):
            bits -= amp
            if bits < 64:
                bits = 64
            a0, b0, a1, b1 = plan(a0, b0, a1, b1)
            shift *= alpha
            e = max(a0.bit_length(), b0.bit_length(), a1.bit_length(),
                    b1.bit_length()) - bits
            if e > 0:
                a0, b0, a1, b1 = a0 >> e, b0 >> e, a1 >> e, b1 >> e
                shift += e
        top = max(pair_norm((a0, b0), t), pair_norm((a1, b1), t))
        prec = 30 + len(str(shift))
        # a fresh context, so a caller's decimal settings cannot leak in
        with localcontext(Context(prec=prec)):
            ln = Decimal(math.log(top)) if alpha_n >> 13 else Decimal(top).ln()
            log_top = shift * _ln2(prec) + ln / 2
            value = float(log_top / alpha_n)
        tail = self.c_bound / (alpha - 1) * (1 / alpha_n)
        return value, tail

    def _fin_value(self, x0, x1, n_fin):
        t, m_R, plan = self._t, self.m_R, self._plan
        # the pair is known modulo mod.  The content g of F(v) divides R,
        # so m_R, and both norms N(F0) and N(F1), so it divides h =
        # gcd(N(F0), N(F1), m_R), and g = gcd(h, F0, F1).  With m_R | mod,
        # h comes from the norms of the residues mod m_R, and g from
        # Euclid on the residues mod h (pair_gcd_mod).  Its rational part
        # c = gcd(m_R, F0, F1) comes first, from one integer gcd: g = c g'
        # for g' the content of F/c, which divides m_R/c, so the same
        # reading with m_R/c in place of m_R gives h' and g', and Euclid
        # runs only when h' > 1.  c g' is the canonical associate when g'
        # is, so g, F/g and N(g) are the integers that Euclid on h would
        # give.  Dividing out g leaves the pair known modulo (mod/g),
        # inside (mod/m_g) as g | m_g.  A step that finds m_R not dividing
        # mod restarts the orbit from start * spent * m_R, where that step
        # has mod = start * m_R again.  Every m_g divides m_R, so from
        # m_R^(n_fin+1) the modulus stays a multiple of m_R for all n_fin
        # steps: that start never restarts.
        # The stop: whether h = 1 depends only on v mod rad_R, the product
        # of the primes of m_R, as a prime p divides N(F_i(v)) according
        # to v mod p.  After h = 1, g = 1 and the next pair is F(v), so
        # its key v mod rad_R is F(key) mod rad_R (rad_R | m_R | mod).  A
        # key met again since the last h > 1 therefore closes a cycle of
        # keys with h = 1: every later content is 1 and every later term
        # 0.  So the loop returns there, after the divisions of scale that
        # the remaining steps would make, and scale reaches alpha^-n_fin
        # as in a loop that runs them.
        # h > 1 holds exactly when c > 1 or h' > 1: c > 1 divides h, and
        # c = 1 leaves h' = h
        cap = m_R ** (n_fin + 1)
        start = min(m_R * m_R, cap)
        rad_R, alpha = self.rad_R, self.alpha
        # zero steps leave the whole finite sum, at most this at scale 1
        lead = 0.5 * self.log_nR / (alpha - 1)
        while True:
            mod = start
            spent = 1
            (a0, b0), (a1, b1) = x0.basis_pair(), x1.basis_pair()
            total = 0.0
            scale = 1.0
            # keys of the steps with h = 1 since the last h > 1
            trivial = set()
            for k in range(n_fin):
                if mod % m_R:
                    break
                scale /= alpha
                if rad_R:
                    key = (a0 % rad_R, b0 % rad_R, a1 % rad_R, b1 % rad_R)
                    if key in trivial:
                        for _ in range(k + 1, n_fin):
                            scale /= alpha
                        return total, lead * scale
                a0, b0, a1, b1 = plan(a0, b0, a1, b1, mod)
                c = math.gcd(m_R, a0, b0, a1, b1)
                m = m_R // c
                if c > 1:
                    a0, b0, a1, b1 = a0 // c, b0 // c, a1 // c, b1 // c
                u, v, x, y = a0 % m, b0 % m, a1 % m, b1 % m
                h = math.gcd(u * u + t * u * v + v * v,
                             x * x + t * x * y + y * y, m)
                if c > 1 or h > 1:
                    trivial.clear()
                    # n_g = c^2 N(g') and m_g = c N(g')/gcd(g')
                    n_g, m_g = c * c, c
                    if h > 1:
                        f0, f1 = (a0, b0), (a1, b1)
                        g = pair_gcd_mod(h, f0, f1, t)
                        a0, b0 = pair_divexact(f0, g, t)
                        a1, b1 = pair_divexact(f1, g, t)
                        n = pair_norm(g, t)
                        n_g *= n
                        m_g *= n // math.gcd(*g)
                    total += 0.5 * _log_int(n_g) * scale
                    mod //= m_g
                    spent *= m_g
                elif rad_R:
                    trivial.add(key)
            else:
                return total, lead * scale
            start = min(start * spent * m_R, cap)

    def height(self, P: ProjPoint, target_error: float) -> HeightValue:
        x0, x1 = P.reduced_pair()
        # flat budget for double-precision accumulation outside the
        # padded-precision archimedean loop
        slack = 2e-12
        certifiable = target_error > 4 * slack
        tol = (target_error - slack) / 2 if certifiable else slack
        steps = self._steps.get(target_error)
        if steps is None:
            if len(self._steps) >= _STEPS_MEMO:
                self._steps.clear()
            steps = self._steps[target_error] = (
                self._steps_needed(1, _ARCH_CAP, self.c_bound, tol),
                self._steps_needed(0, _FIN_CAP, 0.5 * self.log_nR, tol))
        n_arch, n_fin = steps
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


_engine = lru_cache(maxsize=128)(_HeightEngine)


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
    if not target_error > 0:
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
