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
orbit.  The last pair's log is a double's, of its norm from alpha^n >=
2^13 on and below that of the norm squared 40 times in 128 bits, which
adds less than 2^-59.98; the shift's log 2 and the division by alpha^n
are one correctly rounded division of integers, within 2^-72 before it
rounds.  So the value's error stays below 2^-58.7.
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
The engine is built from integral basis pairs alone: the map's integral
model (RationalMap.integral_model), and its resultant R and certificate
from one fraction-free elimination of them (cofactor_certificate).
n_R, m_R and the one-norms are pair norms, so no field element and no
Fraction is made.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import lru_cache

from .errors import DomainError, IterationBudgetError
from .lattes import EllipticCurveCM, _Frozen, lattes_double
from .quadfield import (
    omega_flag,
    pair_conj,
    pair_divexact,
    pair_gcd_mod,
    pair_mul,
    pair_norm,
)
from .ratmaps import ProjPoint, RationalMap

_LN2 = math.log(2)
# integers from here up round to infinity as floats
_FLOAT_LIMIT = (1 << 1024) - (1 << 970)
_ARCH_CAP = 300
_FIN_CAP = 64
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
def _ln2_fixed(p: int) -> int:
    """log 2 * 2^p within one unit, from log 2 = 2 atanh(1/3) =
    sum 2/((2k+1) 3^(2k+1)).  Each term is the floor of its value at
    g = bitlen(p) + 3 guard bits, a nested floor of exact quotients, so
    the sum of the p/3 or so terms and its tail falls short by less than
    2^(g-2) and the rounded shift lands within one unit."""
    g = p.bit_length() + 3
    x = (1 << (p + g)) // 3
    total = 0
    k = 1
    while x:
        total += x // k
        x //= 9
        k += 2
    return (total + (1 << (g - 2))) >> (g - 1)


def _log_ratio(top: int, shift: int, alpha_n: int) -> tuple:
    """(num, den), ints whose quotient is (shift log 2 + log(top)/2) /
    alpha_n within 2^-59.9, for 1 <= top < 3 * 2^128.

    From alpha_n = 2^13 on, j = 0; below, top is squared j = 40 times,
    each square cut to its top 128 bits and the s bits cut counted, so
    that log(top) = (log(top_j) + s log 2) / 2^j, where the cuts leave a
    relative error below 2^(j - 126) in top_j: less than 2^-127 in the
    value.  A double's log of top_j (below 2^130) errs by one ulp of a
    value below 128 and the int's rounding, 2^-46 + 2^-53, and the value
    takes it divided by 2^(j+1) alpha_n: below 2^-59.98 from 2^13 on, and
    below 2^-32 of an ulp of any value with top >= 2 (at least
    log(2) / (2 alpha_n)) below 2^13, so the double is the one an exact
    log would round to, but for a tie that close (top = 1 has log 0).
    With S = 2^(j+1) shift + s and P >= 72 + bitlen(S), num = S L +
    floor(log(top_j) 2^P) for L within one unit of log(2) 2^P, so S L is
    within 2^(P-72) of S log(2) 2^P, and den = 2^(j+1) alpha_n 2^P:
    num / den rounds once, correctly.
    """
    j = 0 if alpha_n >> 13 else 40
    s = 0
    for _ in range(j):
        top *= top
        e = top.bit_length() - 128
        if e > 0:
            top >>= e
            s += s + e
        else:
            s += s
    S = (shift << (j + 1)) + s
    # at least 72 + bitlen(S), a multiple of 64: few sizes reach the cache
    P = (S.bit_length() + 135) >> 6 << 6
    # a double log of an int >= 1 is 0 or at least 2^-1, so log(top_j)
    # 2^P is an int, and d a power of two that divides 2^P
    n, d = math.log(top).as_integer_ratio()
    return S * _ln2_fixed(P) + (n << P) // d, alpha_n << (j + 1 + P)


def _bareiss(c0: Sequence, c1: Sequence, deg: int, t: int) -> tuple:
    """Resultant R of two forms, with the solutions of their cofactor system.

    c0 and c1 are deg + 1 integral basis pair tuples each, with t =
    omega_flag(d).  Column i < deg of the cofactor matrix M holds c0
    shifted down by i and column deg + i holds c1 shifted by i; it is the
    Sylvester matrix transposed with its columns and each block of rows
    reversed, so R = (-1)^deg det M.  M, with the unit columns e_(2deg-1)
    and e_0 appended, is eliminated fraction-free (Bareiss, Math. Comp.
    22, 1968), each division exact or DomainError.  Returns (R, sols), R
    a basis pair and sols the two integral vectors +-det(M) * M^-1 e, or
    None when R = 0.
    """
    if len(c0) != deg + 1 or len(c1) != deg + 1:
        raise DomainError("coefficient lists must have length deg+1")
    n, zero = 2 * deg, (0, 0)
    mat = [
        [c0[k - i] if 0 <= k - i <= deg else zero for i in range(deg)]
        + [c1[k - i] if 0 <= k - i <= deg else zero for i in range(deg)]
        + [(int(k == n - 1), 0), (int(k == 0), 0)]
        for k in range(n)
    ]
    sign, det = (-1) ** deg, (1, 0)
    for k in range(n):
        piv = next((r for r in range(k, n) if mat[r][k] != zero), None)
        if piv is None:
            return zero, None
        if piv != k:
            mat[k], mat[piv] = mat[piv], mat[k]
            sign = -sign
        top = mat[k]
        # row[c] <- (row[c] top[k] - row[k] top[c]) / det, with pair_mul
        # and pair_divexact inlined and the conjugate and norm of det taken
        # once; a product with a zero factor is skipped, and so is an entry
        # that stays zero, as the banded matrix has many
        (s0, s1), (dc0, dc1) = top[k], pair_conj(det, t)
        det_norm = pair_norm(det, t)
        for row in mat[k + 1:]:
            r0, r1 = row[k]
            for c in range(k + 1, n + 2):
                x0, x1 = row[c]
                y0, y1 = top[c]
                u = v = 0
                if x0 or x1:
                    m = x1 * s1
                    u, v = x0 * s0 - m, x0 * s1 + x1 * s0 + t * m
                if (r0 or r1) and (y0 or y1):
                    m = r1 * y1
                    u, v = u - (r0 * y0 - m), v - (r0 * y1 + r1 * y0 + t * m)
                if u or v:
                    m = v * dc1
                    u, v = u * dc0 - m, u * dc1 + v * dc0 + t * m
                    if u % det_norm or v % det_norm:
                        raise DomainError("basis pair division is not exact")
                    row[c] = (u // det_norm, v // det_norm)
                elif x0 or x1:
                    row[c] = zero
        det = top[k]
    # row k now reads mat[k][k] y_k + sum_(c > k) mat[k][c] y_c = det * b_k
    # for y = det * M^-1 e, an integral vector
    sols = []
    for col in (n, n + 1):
        y = [zero] * n
        for k in range(n - 1, -1, -1):
            u, v = pair_mul(mat[k][col], det, t)
            for c in range(k + 1, n):
                x, w = pair_mul(mat[k][c], y[c], t)
                u, v = u - x, v - w
            y[k] = pair_divexact((u, v), mat[k][k], t)
        sols.append(y)
    return (sign * det[0], sign * det[1]), sols


def log_one_norm(norms: Sequence) -> float:
    """log sum(sqrt(n)) over integer norms, not all zero, without overflow.

    Each norm is shifted right by 2k bits, rounded up, and k*log(2) added
    back, an upper bound; k = 0, the plain float sum, when all norms fit.
    """
    big = max(norms)
    k = 0 if big < _FLOAT_LIMIT else (big.bit_length() - 1022) // 2
    return (
        math.log(sum(math.sqrt(float(-(-n >> 2 * k))) for n in norms))
        + k * _LN2
    )


def cofactor_certificate(c0: Sequence, c1: Sequence, deg: int,
                         t: int) -> tuple:
    """Resultant R plus a bound certificate for the fiber of the pair.

    c0 and c1 are integral basis pairs as _bareiss takes them.  Solves
    A0*F0 + A1*F1 = R*x^(2deg-1) and the mirror equation ending in
    R*z^(2deg-1); returns (R, log S), R a basis pair and S the larger
    coefficient one-norm of a solving pair.  On the unit polydisc this
    certifies max(|F0|, |F1|) >= |R| / S.
    """
    if deg < 1:
        raise DomainError("a certificate needs forms of degree >= 1")
    R, sols = _bareiss(c0, c1, deg, t)
    if sols is None:
        raise DomainError("forms share a root; resultant vanishes")
    return R, max(log_one_norm([pair_norm(x, t) for x in y]) for y in sols)


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
        t = self._t = omega_flag(self.d)
        c0, c1 = phi.integral_model()
        R, log_s_cof = cofactor_certificate(c0, c1, self.alpha, t)
        self.n_R = pair_norm(R, t)
        # the least positive integer in the ideal (R)
        self.m_R = self.n_R // math.gcd(*R)
        # rad_R, the product of the distinct primes of m_R, when all of
        # them are below 64, else 0: _fin_value's residues mod rad_R
        rad = math.gcd(self.m_R, _PRIMORIAL_64)
        rest = self.m_R
        while (g := math.gcd(rest, rad)) > 1:
            rest //= g
        self.rad_R = rad if rest == 1 else 0
        self.log_nR = _log_int(self.n_R)
        log_s_up = max(
            log_one_norm([pair_norm(c, t) for c in cs]) for cs in (c0, c1)
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
        from .formkernel import form_kernel

        self._plan = form_kernel(
            [[(k, c) for k, c in enumerate(cs) if c != (0, 0)]
             for cs in (c0, c1)],
            self.alpha, t,
        )

    def _steps_needed(self, first: int, cap: int, c: float,
                      tol: float) -> int:
        """Steps n from `first` until the tail c/((alpha-1) alpha^n) is at
        most tol; cap + 1 when the cap comes first.

        The walk starts one below floor(log_alpha(bound/tol)), which the
        least such n is at least, so the count is the plain walk's from
        `first`."""
        n = first
        bound = c / (self.alpha - 1)
        if bound > tol:
            start = math.floor(math.log(bound / tol, self.alpha)) - 1
            n = max(first, min(start, cap + 1))
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
        # pair's coordinates are below 2^64, so top < 3 * 2^128, and
        # _log_ratio's division errs by less than 2^-59.9 before it
        # rounds: the value's error stays below 2^-58.7
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
        num, den = _log_ratio(top, shift, alpha_n)
        value = num / den
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
        n_arch = self._steps_needed(1, _ARCH_CAP, self.c_bound, tol)
        n_fin = self._steps_needed(0, _FIN_CAP, 0.5 * self.log_nR, tol)
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


def canonical_height(
    phi: RationalMap, P: ProjPoint, target_error: float = 1e-9
) -> HeightValue:
    """Canonical height of P under phi, accurate to target_error.

    The reported error_bound is a rigorous bound on |value - true|,
    derived from coefficient norms and the resultant; it is at most
    target_error unless the iteration caps are hit, which raises with
    the partial value attached.

    P lies over phi's field or over Q.  A rational P feeds the engine as
    it is: its reduced pair, (u0, 0) and (u1, 0) on the integral basis,
    is the same ints in Z, Z[i] and Z[omega], since pair_gcd of two
    rational pairs is math.gcd in every ring, and the unit that turns
    (u, 0) to (|u|, 0) is +-1 for t = 0 and t = 1 alike.
    """
    if not target_error > 0:
        raise DomainError("target_error must be positive")
    if P.d not in (0, phi.d):
        raise DomainError(
            f"point over d={P.d} cannot feed a map over d={phi.d}"
        )
    return _engine(phi).height(P, target_error)


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
    point = x if isinstance(x, ProjPoint) else ProjPoint.affine(x, curve.d)
    return canonical_height(lattes_double(curve), point, target_error)
