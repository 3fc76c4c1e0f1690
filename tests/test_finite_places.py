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
has only 31-digit prime factors, and check that the package imports
without sympy or mpmath, and that the exact subcommands run without
numpy.
"""

import json
import math
import os
import random
import subprocess
import sys

import pytest

import p1dyn
from p1dyn import cli, heights
from p1dyn.errors import DomainError
from p1dyn.heights import (
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
from test_cli_golden import GOLDEN
from test_exact_kernels import (
    FracQF,
    engine_forms,
    euclid_pair_gcd,
    oracle_eval_forms,
    oracle_eval_pair,
)
from test_heights import naive_height_by_places


def point(x, y, d):
    return ProjPoint(parse_element(x, d), parse_element(y, d), d)


def exact_content_sum(phi, P, steps):
    """(1/2) sum_k log N(g_k) / alpha^(k+1) along the exact orbit."""
    eng = _engine(phi)
    f0, f1 = Poly(eng.c0, phi.d), Poly(eng.c1, phi.d)
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


def oracle_fin_value(eng, x0, x1, n_fin):
    """The finite loop at the fixed modulus m_R^(n_fin+1), one factor m_R
    spent per step, which never needs a restart; each content is read
    through n_R = N(R), which m_R^2 holds, and found by plain Euclid."""
    t, n_R = eng._t, eng.n_R
    forms = engine_forms(eng)
    mod = eng.m_R ** (n_fin + 1)
    v0, v1 = x0.basis_pair(), x1.basis_pair()
    total = 0.0
    scale = 1.0
    for _ in range(n_fin):
        scale /= eng.alpha
        f0, f1 = oracle_eval_forms(forms, eng.alpha, v0, v1, t, mod)
        h = math.gcd(pair_norm(f0, t) % n_R, pair_norm(f1, t) % n_R, n_R)
        if h > 1:
            g = euclid_pair_gcd((h, 0), (f0[0] % h, f0[1] % h), t)
            g = euclid_pair_gcd(g, (f1[0] % h, f1[1] % h), t)
            total += 0.5 * _log_int(pair_norm(g, t)) * scale
            f0 = pair_divexact(f0, g, t)
            f1 = pair_divexact(f1, g, t)
        v0, v1 = f0, f1
        mod //= eng.m_R
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
    """Record the arguments (pair, pair, modulus) of every call to the
    engine's form kernel."""
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


# one command per exact subcommand, and periodic on catalog maps (a
# power map and Lattes maps over both fields, one with omega in its
# coefficients), whose closed forms need no numpy either
EXACT_CASES = [
    "height --catalog pow_2 --point 7,3 --point=-10,9 --tol 1e-9",
    "nt-height --curve E1 --point 2,1 --point 1/4 --point 3+w,2",
    "commute --catalog phi_1+i phi_1-i",
    "compose --catalog phi_sqrt-3 phi_sqrt-3*rho",
    "ramify --catalog phi_2@E2",
    "table-check --lambda 1,2,1",
    "catalog",
    "periodic --catalog pow_3 --depth 2",
    "periodic --catalog phi_1+i --depth 2",
    "periodic --catalog phi_2@E2 --depth 2",
    "periodic --catalog phi_sqrt-3*rho --depth 3",
]

# run EXACT_CASES through cli.main in a fresh interpreter (with numpy
# blocked when argv[1] is "blocked"), then inspect the package surface;
# prints one JSON object
_FRESH_RUN = """
import contextlib, io, json, shlex, sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None
import p1dyn
from p1dyn import cli
runs = {}
for case in json.loads(sys.argv[2]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(shlex.split(case))
    runs[case] = [rc, buf.getvalue()]
report = {
    "runs": runs,
    "loaded": sorted(m for m in ("mpmath", "numpy", "sympy")
                     if sys.modules.get(m) is not None),
    "dir": dir(p1dyn),
}
if sys.argv[1] == "open":
    report["all"] = p1dyn.__all__
    report["unresolved"] = [n for n in p1dyn.__all__
                            if getattr(p1dyn, n, None) is None]
    star = {}
    exec("from p1dyn import *", star)
    report["star"] = sorted(n for n in star if not n.startswith("__"))
print(json.dumps(report))
"""


def _fresh_run(mode: str) -> dict:
    src = os.path.dirname(os.path.dirname(p1dyn.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_RUN, mode, json.dumps(EXACT_CASES)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_does_not_load_sympy(capsys):
    expected = {}
    for case in EXACT_CASES:
        if case in GOLDEN:
            expected[case] = GOLDEN[case]
        else:
            assert cli.main(case.split()) == 0
            expected[case] = capsys.readouterr().out
    lazy = ["measures", *p1dyn._MEASURES_NAMES,
            "periodic", *p1dyn._PERIODIC_NAMES]

    report = _fresh_run("open")
    # the exact subcommands load none of the numeric packages
    assert report["loaded"] == []
    assert report["runs"] == {c: [0, out] for c, out in expected.items()}
    # the lazy names are listed before anything loads them
    assert set(lazy) <= set(report["dir"])
    assert set(lazy) <= set(report["all"])
    assert report["unresolved"] == []
    assert report["star"] == sorted(report["all"])

    blocked = _fresh_run("blocked")
    assert blocked["loaded"] == []
    assert blocked["runs"] == report["runs"]


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
