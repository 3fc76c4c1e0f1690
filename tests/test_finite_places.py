"""The finite-place part of the height engine.

The engine reads each step's content gcd(F0, F1) from one tracker that
works modulo an integer that starts at m_R^2, for m_R the least positive
integer in the resultant's ideal, and shrinks by the least integer of
each content it divides out, restarting from a larger start when m_R no
longer divides it.  These tests compare it with the contents of the
exact orbit, evaluated by Horner's rule on Fraction elements, on
hand-made maps and on degree-5 and degree-9 catalog models, and, equal
in hex, with a fixed-modulus tracker (modulo m_R^(n+1) for n steps) that
reads each content through the resultant's norm n_R and plain Euclid,
on every curve map of the catalog; they count the evaluations of a
restart, follow a split prime whose norm both forms share while no
prime above it divides both, run the tracker on a map whose resultant
has only 31-digit prime factors, and check that the lazy names of the
package resolve.  The loop stops once the pair's residues modulo rad_R,
the product of the distinct primes of m_R, repeat over steps with h = 1:
on every curve map at 30 steps the stop fires on some point, and never
before the oracle's last content other than 1; it stays off when m_R has
a prime above 64.  The loop returns at the stop, and its (total, tail)
is that of the full loop it replaced, full_fin_value, which runs through
the idle steps after it, bit for bit.
"""

import json
import math
import random

import pytest

import p1dyn
from p1dyn import cli, heights
from p1dyn.errors import DomainError
from p1dyn.heights import (
    _FIN_CAP,
    _engine,
    _log_int,
    canonical_height,
    height_constants,
)
from p1dyn.lattes import catalog, catalog_entry, catalog_names
from p1dyn.quadfield import (
    format_element,
    integral_gcd,
    pair_divexact,
    pair_gcd_mod,
    pair_norm,
    parse_element,
)
from p1dyn.quadfield import QuadFieldElement as QF
from p1dyn.ratmaps import Poly, ProjPoint, RationalMap
from test_exact_kernels import (
    FracQF,
    engine_forms,
    euclid_pair_gcd,
    oracle_eval_forms,
    oracle_eval_pair,
)
from test_heights import model_polys, naive_height_by_places


def point(x, y, d):
    return ProjPoint(parse_element(x, d), parse_element(y, d), d)


def exact_content_sum(phi, P, steps):
    """(1/2) sum_k log N(g_k) / alpha^(k+1) along the exact orbit."""
    eng = _engine(phi)
    f0, f1 = model_polys(phi)
    x0, x1 = P.reduced_pair()
    total = 0.0
    scale = 1.0
    for _ in range(steps):
        # the element Horner oracle, not the shared evaluator the engine uses
        X0, X1 = FracQF.of(x0), FracQF.of(x1)
        y0 = oracle_eval_pair(f0, X0, X1, eng.alpha).qf()
        y1 = oracle_eval_pair(f1, X0, X1, eng.alpha).qf()
        g = integral_gcd(y0, y1)
        x0, x1 = y0 / g, y1 / g
        scale /= eng.alpha
        total += 0.5 * math.log(g.norm()) * scale
    return total


# (num, den, d, points): each map's resultant has primes of the kinds
# named; every point picks up content along its orbit
FINITE_CASES = [
    # Q: 2, 3, 5; the orbit of 5 ends on the fixed point 1 with content 6
    (["5", "0", "1"], ["0", "6"], 0, [("5", "1"), ("7", "2")]),
    # Q(i): 5 split, 3 inert
    (["5", "0", "1"], ["0", "3"], 1, [("2+w", "1"), ("1", "2")]),
    # Q(i): 5 split, content 2+i at every step
    (["1", "0", "1"], ["0", "5"], 1, [("3+w", "2")]),
    # Q(i): 2 ramified, 3 inert, 5 split
    (["10", "0", "1"], ["0", "6"], 1, [("1+w", "1"), ("2", "3")]),
    # Q(omega): 7 split, 2 and 5 inert
    (["7", "0", "1"], ["0", "10"], 3, [("2+w", "1"), ("2*w", "1")]),
    # Q(omega): 3 ramified, 7 and 13 split, 2 inert
    (["3", "21", "0", "1"], ["0", "0", "26"], 3, [("w", "1"), ("3", "1")]),
    # Q(omega): 3 ramified, then a prime above 7 at every step
    (["3", "0", "1"], ["0", "21"], 3, [("-6-w", "2")]),
    # (p^2 z^2 + p z) / (p z^2 + 1): the contents depend on deep digits of
    # the point, so a modulus of m_R^2 at every step misreads these orbits
    (["0", "5", "25"], ["1", "0", "5"], 0, [("-19", "5")]),
    (["0", "5", "25"], ["1", "0", "5"], 1, [("5-52*w", "4")]),
    (["0", "3", "9"], ["1", "0", "3"], 3, [("43-16*w", "3")]),
    (["0", "13", "169"], ["1", "0", "13"], 3, [("3-26*w", "24")]),
]


def catalog_case(name, points):
    """A FINITE_CASES row for the catalog map `name`, by its strings."""
    phi = catalog(name)
    num, den = (
        [format_element(c) for c in p.coeffs] for p in (phi.num, phi.den)
    )
    return pytest.param(num, den, phi.d, points, id=name)


# catalog integral models: phi_3@E2 (degree 9, rational coefficients over
# Q(omega)) keeps the modulus m_R^(n+1) of a 106-bit m_R, phi_eps is the
# same map times a unit, so its coefficients are general, and phi_1+2i
# is a degree-5 model over Q(i)
FINITE_CASES += [
    catalog_case("phi_3@E2", [("2+w", "1")]),
    catalog_case("phi_eps", [("2", "1")]),
    catalog_case("phi_1+2i", [("1", "1"), ("2+w", "1")]),
]


class TestContentTracker:
    @pytest.mark.parametrize("num,den,d,points", FINITE_CASES)
    def test_matches_exact_orbit_contents(self, num, den, d, points):
        phi = RationalMap.from_strings(num, den, d)
        eng = _engine(phi)
        for x, y in points:
            P = point(x, y, d)
            for steps in (3, 4):
                expect = exact_content_sum(phi, P, steps)
                got, _ = eng._fin_value(*P.reduced_pair(), steps)
                assert expect > 0
                assert abs(got - expect) <= 1e-12 * max(1.0, expect)

    def test_split_prime_in_both_norms_but_not_in_both_forms(
            self, monkeypatch):
        # (z^2 + 2z)/(z + 5) over Q(i), m_R = 15, at (-3 : 2-i): F0 =
        # 3i(2+i) and F1 = (2-i)(7-5i), so 5 divides both norms and m_R,
        # and h = 5, while no prime above 5 divides both forms: g = 1
        phi = RationalMap.from_strings(["0", "2", "1"], ["5", "1"], 1)
        eng = _engine(phi)
        assert eng.m_R == 15
        seen = []

        def recorded(h, x, y, t):
            g = pair_gcd_mod(h, x, y, t)
            seen.append((h, g))
            return g

        monkeypatch.setattr(heights, "pair_gcd_mod", recorded)
        P = point("-3", "2-w", 1)
        pair = P.reduced_pair()
        assert eng._fin_value(*pair, 1)[0] == 0.0
        assert seen == [(5, (1, 0))]
        for steps in (3, 4):
            got = eng._fin_value(*pair, steps)
            assert got == oracle_fin_value(eng, *pair, steps)
            expect = exact_content_sum(phi, P, steps)
            assert abs(got[0] - expect) <= 1e-12 * max(1.0, expect)
        # 5 is a prime of rad_R too: a step with h = 5 and g = 1 counts
        # as h > 1 for the residue-cycle stop and clears its keys
        assert eng.rad_R == 15
        got = eng._fin_value(*pair, 30)
        assert [v.hex() for v in got] == [
            v.hex() for v in oracle_fin_value(eng, *pair, 30)]


def oracle_content_norms(eng, x0, x1, n_fin):
    """N(g_k) for the n_fin steps of the finite loop at the fixed modulus
    m_R^(n_fin+1), one factor m_R spent per step, which never needs a
    restart or a stop; each content is read through n_R = N(R), which
    m_R^2 holds, and found by plain Euclid."""
    t, n_R = eng._t, eng.n_R
    forms = engine_forms(eng)
    mod = eng.m_R ** (n_fin + 1)
    v0, v1 = x0.basis_pair(), x1.basis_pair()
    norms = []
    for _ in range(n_fin):
        f0, f1 = oracle_eval_forms(forms, eng.alpha, v0, v1, t, mod)
        h = math.gcd(pair_norm(f0, t) % n_R, pair_norm(f1, t) % n_R, n_R)
        g = (1, 0)
        if h > 1:
            g = euclid_pair_gcd((h, 0), (f0[0] % h, f0[1] % h), t)
            g = euclid_pair_gcd(g, (f1[0] % h, f1[1] % h), t)
            f0 = pair_divexact(f0, g, t)
            f1 = pair_divexact(f1, g, t)
        norms.append(pair_norm(g, t))
        v0, v1 = f0, f1
        mod //= eng.m_R
    return norms


def oracle_fin_value(eng, x0, x1, n_fin):
    """The finite sum and tail of oracle_content_norms."""
    total = 0.0
    scale = 1.0
    for n_g in oracle_content_norms(eng, x0, x1, n_fin):
        scale /= eng.alpha
        total += 0.5 * _log_int(n_g) * scale
    tail = 0.5 * eng.log_nR / (eng.alpha - 1) * scale
    return total, tail


def sample_points(phi, rows_points, count=6):
    """A row's own points and `count` seeded ones with small coordinates."""
    d = phi.d
    rng = random.Random(f"fin:{phi}")
    points = [point(x, y, d) for x, y in rows_points]
    for _ in range(count):
        x = QF(rng.randint(-40, 40), rng.randint(-40, 40) if d else 0, d)
        points.append(ProjPoint(x, QF(rng.randint(1, 40), 0, d), d))
    return points


# the (p^2 z^2 + p z) / (p z^2 + 1) rows, whose contents come from deep
# digits of the point, and the 13 curve maps of the catalog
ORACLE_CASES = [
    pytest.param(*row, id=f"p={row[0][1]},d={row[2]}")
    for row in FINITE_CASES if not hasattr(row, "id") and row[0][0] == "0"
] + [
    catalog_case(name, [])
    for name in catalog_names() if catalog_entry(name).curve_name
]


def count_evaluations(monkeypatch, eng):
    """Record the arguments (a0, b0, a1, b1, modulus) of every call to
    the engine's form kernel."""
    calls = []
    evaluate = eng._plan

    def counted(*args):
        calls.append(args)
        return evaluate(*args)

    monkeypatch.setattr(eng, "_plan", counted)
    return calls


class TestSpentModulus:
    @pytest.mark.parametrize("num,den,d,points", ORACLE_CASES)
    def test_matches_fixed_modulus_oracle(self, num, den, d, points):
        phi = RationalMap.from_strings(num, den, d)
        eng = _engine(phi)
        for P in sample_points(phi, points):
            pair = P.reduced_pair()
            for n_fin in (1, 4, 12, 30):
                got = eng._fin_value(*pair, n_fin)
                expect = oracle_fin_value(eng, *pair, n_fin)
                assert [v.hex() for v in got] == [v.hex() for v in expect], (
                    str(P), n_fin)

    def test_short_modulus_restarts(self, monkeypatch):
        # m_R = 750; the contents of steps 1 and 2 spend 30 and 2 of the
        # start m_R^2, so m_R no longer divides what is left before step
        # 3, and the orbit restarts from m_R^2 * 60 * m_R, below the cap
        # m_R^5, and runs all four steps: 2 + 4 evaluations
        phi = RationalMap.from_strings(["0", "5", "25"], ["1", "0", "5"], 0)
        eng = _engine(phi)
        pair = point("-19", "5", 0).reduced_pair()
        calls = count_evaluations(monkeypatch, eng)
        got = eng._fin_value(*pair, 4)
        m_R = eng.m_R
        assert m_R == 750
        assert [c[-1] for c in calls] == [
            m_R**2, m_R**2 // 30,
            60 * m_R**3, 2 * m_R**3, m_R**3, m_R**3 // 2,
        ]
        assert got == oracle_fin_value(eng, *pair, 4)

    @pytest.mark.parametrize("num,den,d,points", FINITE_CASES)
    def test_one_step_never_restarts(self, num, den, d, points, monkeypatch):
        phi = RationalMap.from_strings(num, den, d)
        eng = _engine(phi)
        calls = count_evaluations(monkeypatch, eng)
        for P in sample_points(phi, points):
            del calls[:]
            eng._fin_value(*P.reduced_pair(), 1)
            # one evaluation, at the fixed modulus m_R^2
            assert [c[-1] for c in calls] == [eng.m_R**2]


def last_pass_evaluations(calls):
    """Evaluations of the last pass of one _fin_value call: a restart
    starts above every modulus the pass before it reached."""
    mods = [c[-1] for c in calls]
    starts = [k for k in range(1, len(mods)) if mods[k] > mods[k - 1]]
    return len(mods) - max(starts, default=0)


CURVE_MAPS = [name for name in catalog_names()
              if catalog_entry(name).curve_name]


class TestResidueCycleStop:
    @pytest.mark.parametrize("name", CURVE_MAPS)
    def test_stops_but_never_before_the_last_content(self, name,
                                                      monkeypatch):
        # a stop skips the steps after its last evaluation: their oracle
        # contents must all be 1, and the sum must keep every bit
        n_fin = 30
        phi = catalog(name)
        eng = _engine(phi)
        calls = count_evaluations(monkeypatch, eng)
        stopped = 0
        for P in sample_points(phi, []):
            pair = P.reduced_pair()
            del calls[:]
            got = eng._fin_value(*pair, n_fin)
            assert [v.hex() for v in got] == [
                v.hex() for v in oracle_fin_value(eng, *pair, n_fin)]
            evaluated = last_pass_evaluations(calls)
            norms = oracle_content_norms(eng, *pair, n_fin)
            assert all(n_g == 1 for n_g in norms[evaluated:]), str(P)
            stopped += evaluated < n_fin
        assert stopped > 0

    @pytest.mark.parametrize("name", catalog_names())
    def test_rad_is_the_product_of_the_primes_of_m_R(self, name):
        eng = _engine(catalog(name))
        exps, rest = heights._trial_factor(eng.m_R)
        assert rest == 1 and max(exps, default=2) < 64
        assert eng.rad_R == math.prod(exps)

    def test_a_prime_above_64_turns_the_stop_off(self):
        # (7 z^2 + 1) / (67 z): m_R = 7 * 67^2, and the stop needs every
        # prime of m_R
        phi = RationalMap.from_strings(["1", "0", "7"], ["0", "67"], 0)
        assert _engine(phi).m_R == 7 * 67**2
        assert _engine(phi).rad_R == 0

    def test_big_resultant_runs_every_step(self, monkeypatch):
        # m_R has 31-digit primes: no stop, and these contents are all 1,
        # so no restart either
        eng = _engine(big_map())
        assert eng.rad_R == 0
        calls = count_evaluations(monkeypatch, eng)
        pair = point("2", "1", 0).reduced_pair()
        got = eng._fin_value(*pair, 30)
        assert len(calls) == 30
        assert got == oracle_fin_value(eng, *pair, 30)


def full_fin_value(eng, x0, x1, n_fin):
    """_fin_value as it ran before it returned at a proved cycle: every
    step runs, and a step whose key repeats is idle (it divides scale and
    keeps the pair).  Returns ((total, tail), the number of idle steps)."""
    t, m_R, rad_R = eng._t, eng.m_R, eng.rad_R
    cap = m_R ** (n_fin + 1)
    start = min(m_R * m_R, cap)
    while True:
        mod = start
        spent = 1
        v0, v1 = x0.basis_pair(), x1.basis_pair()
        total = 0.0
        scale = 1.0
        trivial = set()
        idle = 0
        for _ in range(n_fin):
            if mod % m_R:
                break
            scale /= eng.alpha
            if rad_R:
                key = (v0[0] % rad_R, v0[1] % rad_R,
                       v1[0] % rad_R, v1[1] % rad_R)
                if key in trivial:
                    idle += 1
                    continue
            f = eng._plan(*v0, *v1, mod)
            f0, f1 = f[:2], f[2:]
            c = math.gcd(m_R, *f0, *f1)
            m = m_R // c
            if c > 1:
                f0 = (f0[0] // c, f0[1] // c)
                f1 = (f1[0] // c, f1[1] // c)
            h = math.gcd(
                pair_norm((f0[0] % m, f0[1] % m), t),
                pair_norm((f1[0] % m, f1[1] % m), t), m,
            )
            if c > 1 or h > 1:
                trivial.clear()
                n_g, m_g = c * c, c
                if h > 1:
                    g = pair_gcd_mod(h, f0, f1, t)
                    f0 = pair_divexact(f0, g, t)
                    f1 = pair_divexact(f1, g, t)
                    n = pair_norm(g, t)
                    n_g *= n
                    m_g *= n // math.gcd(*g)
                total += 0.5 * _log_int(n_g) * scale
                mod //= m_g
                spent *= m_g
            elif rad_R:
                trivial.add(key)
            v0, v1 = f0, f1
        else:
            tail = 0.5 * eng.log_nR / (eng.alpha - 1) * scale
            return (total, tail), idle
        start = min(start * spent * m_R, cap)


class TestCycleExit:
    @pytest.mark.parametrize("name", catalog_names() + ["restart", "big"])
    def test_matches_the_full_loop(self, name):
        # the return at a proved cycle keeps (total, tail) bit for bit,
        # against the loop that runs through the idle steps: on the
        # catalog, on the map of tools/smoke.py whose orbits restart, and
        # on the 31-digit-prime map, where rad_R = 0 leaves no idle step
        if name == "restart":
            phi = RationalMap.from_strings(["0", "5", "25"], ["1", "0", "5"],
                                           0)
            rows_points = [("-19", "5")]
        elif name == "big":
            phi, rows_points = big_map(), [("2", "1")]
        else:
            phi, rows_points = catalog(name), []
        eng = _engine(phi)
        idle = 0
        for P in sample_points(phi, rows_points):
            pair = P.reduced_pair()
            for n_fin in (0, 1, _FIN_CAP):
                want, skipped = full_fin_value(eng, *pair, n_fin)
                got = eng._fin_value(*pair, n_fin)
                assert [v.hex() for v in got] == [v.hex() for v in want], (
                    str(P), n_fin)
                idle += skipped
        assert (idle > 0) == (eng.rad_R > 0) == (name != "big")


# four 31-digit primes; (C z^2 + B z + A) / (D z) has resultant A C D^2
# up to sign, so trial division finds none of its prime factors
BIG_A = 8665615322153222214338126608253
BIG_B = 2824741362180460075340360596117
BIG_C = 6473297521872677890786520439071
BIG_D = 4522228361873140535516143229483


def big_map():
    return RationalMap.from_strings(
        [str(BIG_A), str(BIG_B), str(BIG_C)], ["0", str(BIG_D)], 0
    )


class TestBigResultant:
    def test_constants_report_the_cofactor(self):
        c = height_constants(big_map())
        assert c["bad_primes"] == []
        assert c["unfactored"] == (BIG_A * BIG_C * BIG_D**2) ** 2
        assert c["resultant_norm"] == c["unfactored"]

    def test_functional_equation(self):
        phi = big_map()
        P = point("2", "1", 0)
        h = canonical_height(phi, P, 1e-9)
        h_img = canonical_height(phi, phi(P), 1e-9)
        assert h.error_bound <= 1e-9 and h_img.error_bound <= 1e-9
        assert h.value > 0
        assert abs(h_img.value - 2 * h.value) <= (
            h_img.error_bound + 2 * h.error_bound
        )

    def test_cli_height_map(self, tmp_path, capsys):
        path = tmp_path / "bigmap.json"
        path.write_text(json.dumps({
            "field": {"d": 0},
            "num": [str(BIG_A), str(BIG_B), str(BIG_C)],
            "den": ["0", str(BIG_D)],
        }))
        rc = cli.main(["height", "--map", str(path), "--point", "2,1",
                       "--tol", "1e-9"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["bad_primes"] == []
        assert payload["unfactored_cofactor"] == (BIG_A * BIG_C * BIG_D**2) ** 2
        assert payload["results"][0]["error_bound"] <= 1e-9

    def test_catalog_height_has_no_cofactor_key(self, capsys):
        rc = cli.main(["height", "--catalog", "phi_2@E1", "--point", "2,1"])
        assert rc == 0
        assert "unfactored_cofactor" not in json.loads(capsys.readouterr().out)


class TestTrialDivision:
    def test_cofactor_below_the_square_is_prime(self):
        # 4294967291 is prime and below 2^32, so trial division to 2^16
        # leaves it and it is taken as prime
        q = 4294967291
        hv = naive_height_by_places(point(str(2 * q), str(q), 0))
        assert hv.value == pytest.approx(math.log(2), abs=1e-12)

    def test_unfactored_gcd_is_rejected(self):
        n = 65537 * 65539
        with pytest.raises(DomainError):
            naive_height_by_places(point(str(n), str(n), 0))


def test_lazy_names_resolve_in_process(monkeypatch):
    # other tests import p1dyn.measures and p1dyn.periodic directly, which
    # leaves the lazy names unset until the first attribute lookup takes
    # __getattr__
    for name in (*p1dyn._MEASURES_NAMES, *p1dyn._PERIODIC_NAMES):
        monkeypatch.delitem(vars(p1dyn), name, raising=False)
    from p1dyn import measures, periodic

    assert p1dyn.green is measures.green
    assert p1dyn.periodic_points is periodic.periodic_points
    for module, names in ((measures, p1dyn._MEASURES_NAMES),
                          (periodic, p1dyn._PERIODIC_NAMES)):
        for name in names:
            assert getattr(p1dyn, name) is getattr(module, name)
        assert set(names) <= set(dir(p1dyn))
    with pytest.raises(AttributeError, match="no_such_name"):
        p1dyn.no_such_name
