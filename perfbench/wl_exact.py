"""`exact` workload: certified heights and exact Lattes algebra, in process.

Why: quadfield, ratmaps, lattes and heights do nearly all the work here
and measures almost none.  Each height engine is built cold once per map
and then amortised over many points.

One pass, in this order:
  1. an engine op (`height_constants`) per catalog map;
  2. per map, per coordinate size (1, 2 and 6 digits), per target error
     (1e-9, 1e-11) and per point: h(P), h(phi(P)) and h_psi(P) for the next map
     psi of the same commuting family.  Oracles: h(phi(P)) = deg * h(P)
     and h_psi(P) = h(P), each within the summed error bounds;
  3. `neron_tate` on E1 and E2 at x and at phi_lambda(x); oracle
     h(phi_lambda(x)) = N(lambda) * h(x);
  4. `commutes_with` on every same-field catalog pair with degree
     product <= 81; oracle: the pair commutes exactly when both maps come
     from one curve, or both are power maps;
  5. `compose` on pairs with a known answer; oracle: the catalog identity
     and (a o b)(P) = a(b(P)) at seeded points;
  6. `ramification_profile` for every curve-attached map against the
     parity-table prediction of a unit associate of its multiplier;
  7. `periodic_points` below the degree^n <= 200 cap, ending with the cap
     case phi_sqrt-3 at n = 4.  Oracles: deg^n + 1 points, and every
     finite non-postcritical point has |multiplier| = |lambda|^n (|z| = 1
     and |multiplier| = deg^n for power maps).

The cap case is a known defect, listed in ROADMAP.md: it returns
multipliers of modulus about 0.04, so its op fails the oracle until that
defect is fixed.  Its time, about 17 s, is left out of wall_s and
wall_ref_s, which therefore follow the rest of the pass.  Other cases at the cap (phi_1+i
at n = 6, phi_2@E1 at n = 3, phi_3@E1 at n = 2) stay out of the pass:
through the same defect each takes from 20 s to minutes, which no run
length here can hold.
"""

from __future__ import annotations

import math
import random
import resource
from fractions import Fraction

# one pass is about 9-12 s, plus about 17 s for the cap case
PASSES = 1
IN_PROCESS = True
# interpreter-bound big-integer and Fraction work (common.probe)
PROBE_MIX = {"python": 1.0}

SIZES = (("1digit", 1, 9), ("2digit", 10, 99), ("6digit", 100000, 999999))
TOLS = (1e-9, 1e-11)
# points per map, size and target error; with 2 a pass has 701 ops
HEIGHT_POINTS = 2
MAX_PAIR_DEGREE = 81

# (map, periods): everything here finishes well under a second except the
# cap case, which is the last op of the pass
PERIODIC = (
    ("pow_2", range(1, 8)),
    ("pow_3", range(1, 5)),
    ("pow_4", range(1, 4)),
    ("phi_1+i", range(1, 6)),
    ("phi_1-i", range(1, 5)),
    ("phi_sqrt-3", range(1, 4)),
    ("phi_sqrt-3*rho", range(1, 4)),
    ("phi_2@E1", range(1, 3)),
    ("phi_2@E2", range(1, 3)),
    ("phi_1+2i", range(1, 3)),
    ("phi_3@E1", range(1, 2)),
    ("phi_3@E2", range(1, 2)),
    ("phi_eps", range(1, 2)),
    ("phi_sqrt-3", range(4, 5)),
)
KNOWN_DEFECTS = {
    "periodic_points phi_sqrt-3 n=4":
        "root residual test is vacuous at degree 81",
}

# neron_tate oracle: curve -> catalog map of a multiplier on that curve
NT_LAMBDA = {"E1": "phi_1+i", "E2": "phi_sqrt-3"}
NT_POINTS = 3
COMPOSE_POINTS = 2

# rounding slack on top of the rigorous bounds: the values are doubles
REL_SLACK = 1e-12


def _coord(rng, d, lo, hi):
    a = rng.randint(lo, hi) * rng.choice((-1, 1))
    if d == 0:
        return str(a)
    b = rng.randint(lo, hi) * rng.choice((-1, 1))
    return f"{a}{b:+d}*w"


def _family(p1dyn, name):
    entry = p1dyn.catalog_entry(name)
    return (entry.map.d, entry.curve_name or "pow")


def prepare(p1dyn, seed: int, workdir) -> dict:
    rng = random.Random(f"exact:{seed}")
    names = p1dyn.catalog_names()
    families: dict = {}
    for name in names:
        families.setdefault(_family(p1dyn, name), []).append(name)
    partner = {}
    for members in families.values():
        for i, name in enumerate(members):
            partner[name] = members[(i + 1) % len(members)]

    heights = []
    for name in names:
        d = p1dyn.catalog(name).d
        for label, lo, hi in SIZES:
            for tol in TOLS:
                for _ in range(HEIGHT_POINTS):
                    pt = (_coord(rng, d, lo, hi), _coord(rng, d, lo, hi))
                    heights.append((name, label, tol, pt))

    nt = []
    for curve_name, lam_map in NT_LAMBDA.items():
        d = p1dyn.catalog(lam_map).d
        for _ in range(NT_POINTS):
            nt.append((curve_name, lam_map, _coord(rng, d, 10, 99)))

    pairs = []
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            fa, fb = _family(p1dyn, a), _family(p1dyn, b)
            ma, mb = p1dyn.catalog(a), p1dyn.catalog(b)
            if ma.d == mb.d and ma.degree * mb.degree <= MAX_PAIR_DEGREE:
                pairs.append((a, b, fa == fb))

    pow6 = p1dyn.RationalMap.from_strings(["0"] * 6 + ["1"], ["1"], 0)
    composes = []
    for a, b, expect in (
        ("phi_sqrt-3", "phi_sqrt-3*rho", p1dyn.catalog("phi_eps")),
        ("phi_1+i", "phi_1-i", p1dyn.catalog("phi_2@E1")),
        ("pow_2", "pow_3", pow6),
        ("phi_3@E1", "phi_3@E1", None),
    ):
        d = p1dyn.catalog(a).d
        pts = [(_coord(rng, d, 1, 9), _coord(rng, d, 1, 9))
               for _ in range(COMPOSE_POINTS)]
        composes.append((a, b, expect, pts))

    ramify = [n for n in names if p1dyn.catalog_entry(n).curve_name]
    return {"names": names, "partner": partner, "heights": heights,
            "nt": nt, "pairs": pairs, "composes": composes,
            "ramify": ramify}


def _point(p1dyn, rec, pair, d):
    x = rec.call("quadfield.parse_element", p1dyn.parse_element, pair[0], d)
    y = rec.call("quadfield.parse_element", p1dyn.parse_element, pair[1], d)
    return p1dyn.ProjPoint(x, y, d)


def _height_op(p1dyn, rec, fn):
    op = rec.run("canonical_height", fn)
    if op.ok:
        rec.count("heights.iterations", op.value.iterations_used)
    elif op.reason == "raised " + p1dyn.IterationBudgetError.__name__:
        rec.count("heights.budget_errors", 1)
    return op


def _close(a, b, bound) -> bool:
    return abs(a - b) <= bound + REL_SLACK * max(1.0, abs(a), abs(b))


def run_pass(p1dyn, inp: dict, rec) -> None:
    cat = p1dyn.catalog
    for name in inp["names"]:
        rec.run("height_constants", lambda: rec.call(
            "heights.height_constants", p1dyn.height_constants, cat(name)))

    for name, label, tol, pt in inp["heights"]:
        phi = cat(name)
        psi = cat(inp["partner"][name])
        P = _point(p1dyn, rec, pt, phi.d)
        base = _height_op(p1dyn, rec, lambda: rec.call(
            "heights.canonical_height", p1dyn.canonical_height, phi, P, tol))
        if not base.ok:
            continue
        hp = base.value

        img = _height_op(p1dyn, rec, lambda: rec.call(
            "heights.canonical_height", p1dyn.canonical_height, phi,
            rec.call("ratmaps.RationalMap.__call__", phi, P), tol))
        if img.ok:
            rec.check(img, _close(img.value.value, phi.degree * hp.value,
                                  img.value.error_bound
                                  + phi.degree * hp.error_bound),
                      f"h(phi P) != deg h(P) for {name} {label}")

        com = _height_op(p1dyn, rec, lambda: rec.call(
            "heights.canonical_height", p1dyn.canonical_height, psi, P, tol))
        if com.ok:
            rec.check(com, _close(com.value.value, hp.value,
                                  com.value.error_bound + hp.error_bound),
                      f"commuting heights differ for {name} {label}")

    curves = {"E1": p1dyn.curve_E1(), "E2": p1dyn.curve_E2()}
    for curve_name, lam_map, xs in inp["nt"]:
        curve, lam_phi = curves[curve_name], cat(lam_map)
        x = p1dyn.parse_element(xs, curve.d)
        X = lam_phi(p1dyn.ProjPoint.affine(x))
        a = rec.run("neron_tate", lambda: rec.call(
            "heights.neron_tate", p1dyn.neron_tate, curve, x))
        b = rec.run("neron_tate", lambda: rec.call(
            "heights.neron_tate", p1dyn.neron_tate, curve, X))
        if a.ok and b.ok:
            rec.check(b, _close(b.value.value, lam_phi.degree * a.value.value,
                                b.value.error_bound
                                + lam_phi.degree * a.value.error_bound),
                      f"neron_tate functional equation fails on {curve_name}")

    for a, b, expect in inp["pairs"]:
        op = rec.run("commutes_with", lambda: rec.call(
            "ratmaps.RationalMap.commutes_with", cat(a).commutes_with, cat(b)))
        rec.check(op, op.value == expect, f"commutes_with({a}, {b}) != {expect}")

    for a, b, expect, pts in inp["composes"]:
        ma, mb = cat(a), cat(b)
        op = rec.run("compose", lambda: rec.call(
            "ratmaps.RationalMap.compose", ma.compose, mb))
        if not op.ok:
            continue
        comp = op.value
        good = comp.degree == ma.degree * mb.degree
        if expect is not None:
            good = good and comp == expect
        for xs, ys in pts:
            P = p1dyn.ProjPoint(p1dyn.parse_element(xs, ma.d),
                                p1dyn.parse_element(ys, ma.d), ma.d)
            good = good and comp(P) == ma(mb(P))
        rec.check(op, good, f"compose({a}, {b}) is wrong")

    for name in inp["ramify"]:
        entry = p1dyn.catalog_entry(name)
        curve = p1dyn.curve_for_name(name)
        op = rec.run("ramification_profile", lambda: rec.call(
            "lattes.ramification_profile", p1dyn.ramification_profile,
            entry.map, curve))
        if op.ok:
            rec.check(op, op.value.as_multiset()
                      == _predicted(p1dyn, entry.lam),
                      f"ramification profile of {name} off the parity table")

    for name, periods in PERIODIC:
        for n in periods:
            phi = cat(name)
            op = rec.run("periodic_points", lambda: rec.call(
                "measures.periodic_points", p1dyn.periodic_points, phi, n),
                label=f"periodic_points {name} n={n}")
            if op.ok:
                misses = _periodic_misses(p1dyn, name, n, op.value)
                rec.count("measures.periodic_points.oracle_misses", misses)
                rec.check(op, misses == 0,
                          f"{misses} periodic points of {name} n={n} off the "
                          "multiplier oracle")


def _predicted(p1dyn, lam):
    """Parity-table multiset for lam or, when its row is missing, for a
    unit associate with integer coordinates: a unit multiple of lambda
    changes the map by an automorphism of the curve, which permutes the
    2-torsion images and keeps the multiset."""
    q = p1dyn.QuadFieldElement
    units = {1: [q(0, 1, 1)],
             3: [q(Fraction(1, 2), Fraction(1, 2), 3),
                 q(Fraction(-1, 2), Fraction(1, 2), 3)]}[lam.d]
    tried = [lam] + [u * lam for u in units] + [-(u * lam) for u in units]
    for cand in tried:
        try:
            return p1dyn.predict_profile(cand).as_multiset()
        except p1dyn.DomainError:
            continue
    return None


def _periodic_misses(p1dyn, name, n, pts) -> int:
    entry = p1dyn.catalog_entry(name)
    phi = entry.map
    misses = 0 if len(pts) == phi.degree ** n + 1 else 1
    if entry.curve_name:
        post = [complex(t) for t in
                p1dyn.two_torsion_targets(p1dyn.curve_for_name(name))
                if not t.is_infinity()]
        want = abs(complex(entry.lam)) ** n
    else:
        post = [0j]
        want = float(phi.degree ** n)
    for z, mult in pts:
        if not math.isfinite(z.real) or any(abs(z - q) < 1e-6 for q in post):
            continue
        bad = abs(abs(mult) - want) > 1e-6 * want
        if entry.curve_name is None:
            bad = bad or abs(abs(z) - 1.0) > 1e-8
        misses += bad
    return misses


def peak_rss_mb(inp) -> float:
    """Peak RSS of this process, which ran every op."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
