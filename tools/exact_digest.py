"""Print a JSON digest of the exact core's results, to compare two commits.

    PYTHONPATH=src python3 tools/exact_digest.py > digest.json

Run it in two checkouts and compare the files byte for byte (`cmp`).  The
digest holds, with floats by `repr` so a one-ulp change shows:
  - for every catalog map: canonical num/den, integral_model and
    height_constants;
  - compose and commutes_with on every same-field catalog pair with
    degree product <= 81;
  - periodic_points on the `exact` benchmark workload's cases below the
    degree^n cap;
  - value, error bound and iteration count of every canonical_height and
    neron_tate of the `exact` workload's points for one seed;
  - under "images", for every point of that workload: each coordinate
    string after a parse_element/format_element round trip, and both
    coordinates of its image under the map it is fed to (phi(P) for the
    heights, the multiplication map for neron_tate, the inner map and the
    composite for the compositions), so the representatives a map's
    __call__ returns are compared, not only their heights;
  - under "analytic", the double-precision kernels: sha256 of the
    green_field values of every catalog map (a grid of three blocks),
    repr of scalar green values (one past the underflow of 2^-n), sha256
    of the depth-6 preimage_sample points, repr of poly_roots on fixed
    polynomials, and sha256 of write_csv's bytes;
  - under "densities", for E1 and E2 on two windows: sha256 of the
    lattes_density cell masses, and repr of the window_fraction of
    lattes_density and of measure_from_green on the curve's doubling map.

Without numpy the digest leaves out "analytic" and "densities", says so
on stderr, and holds the five exact keys, which are the same bytes on
every Python.  `--exact` blocks numpy as tools/smoke.py does and prints
those five keys alone, whatever is installed; their md5 is pinned in
tools/exact_digest.md5:

    PYTHONPATH=src python3 tools/exact_digest.py --exact | md5sum -c tools/exact_digest.md5

A change that moves an exact bit fails that check and re-pins the md5.
"""

import hashlib
import importlib.util
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import p1dyn  # noqa: E402
import wl_exact  # noqa: E402

SEED = 3


def _poly(p):
    return [str(p.coeff(k)) for k in range(p.degree + 1)]


def _map(phi):
    return [_poly(phi.num), _poly(phi.den)]


def _height(h):
    return [repr(h.value), repr(h.error_bound), h.iterations_used]


def _catalog(cat, names) -> dict:
    out = {}
    for name in names:
        phi = cat(name)
        consts = p1dyn.height_constants(phi)
        out[name] = {
            "map": _map(phi),
            "integral_model": [
                [str(p1dyn.QuadFieldElement.from_basis_pair(*c, phi.d))
                 for c in cs] for cs in phi.integral_model()],
            "height_constants": {k: repr(v) for k, v in consts.items()},
        }
    return out


def _pairs(cat, names) -> dict:
    out = {}
    for a in names:
        for b in names:
            fa, fb = cat(a), cat(b)
            small = fa.degree * fb.degree <= wl_exact.MAX_PAIR_DEGREE
            if fa.d == fb.d and small:
                out[f"{a} o {b}"] = {"compose": _map(fa.compose(fb)),
                                     "commutes": fa.commutes_with(fb)}
    return out


def _periodic(cat) -> dict:
    out = {}
    for name, periods in wl_exact.PERIODIC:
        for n in periods:
            label = f"periodic_points {name} n={n}"
            if label in wl_exact.KNOWN_DEFECTS:
                continue
            pts = p1dyn.periodic_points(cat(name), n)
            out[label] = [[repr(z), repr(m)] for z, m in pts]
    return out


def _heights(cat) -> list:
    with tempfile.TemporaryDirectory() as work:
        inp = wl_exact.prepare(p1dyn, SEED, work)
    out = []
    for name, label, tol, (xs, ys) in inp["heights"]:
        phi, psi = cat(name), cat(inp["partner"][name])
        P = p1dyn.ProjPoint(p1dyn.parse_element(xs, phi.d),
                            p1dyn.parse_element(ys, phi.d), phi.d)
        row = [name, label, tol, xs, ys]
        for f, Q in ((phi, P), (phi, phi(P)), (psi, P)):
            try:
                row.append(_height(p1dyn.canonical_height(f, Q, tol)))
            except p1dyn.IterationBudgetError as exc:
                row.append(f"raised {exc}")
        out.append(row)
    curves = {"E1": p1dyn.curve_E1(), "E2": p1dyn.curve_E2()}
    for curve_name, lam_map, xs in inp["nt"]:
        curve = curves[curve_name]
        x = p1dyn.parse_element(xs, curve.d)
        X = cat(lam_map)(p1dyn.ProjPoint.affine(x))
        out.append([curve_name, lam_map, xs,
                    _height(p1dyn.neron_tate(curve, x)),
                    _height(p1dyn.neron_tate(curve, X))])
    return out


def _images(cat) -> list:
    with tempfile.TemporaryDirectory() as work:
        inp = wl_exact.prepare(p1dyn, SEED, work)

    def image(f, g, pair):
        d = f.d
        xs = [p1dyn.parse_element(s, d) for s in pair]
        P = p1dyn.ProjPoint(*xs, d)
        out = [p1dyn.format_element(x) for x in xs]
        for h in (f, g):
            P = h(P)
            out += [str(P.x0), str(P.x1)]
        return out

    out = [[name] + image(cat(name), cat(inp["partner"][name]), pt)
           for name, _, _, pt in inp["heights"]]
    out += [[lam_map] + image(cat(lam_map), cat(lam_map), (xs, "1"))
            for _, lam_map, xs in inp["nt"]]
    out += [[a, b] + image(cat(b), cat(a), pt)
            for a, b, _, pts in inp["composes"] for pt in pts]
    return out


GREEN_WINDOW = (-1.9, 2.1, -1.7, 1.8)
GREEN_POINTS = (0.3 + 0.1j, 2.5 - 0.5j, -0.7 + 1.2j, 0j)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _analytic(cat, names) -> dict:
    import numpy as np

    m = p1dyn.measures
    fields, greens, trees = {}, {}, {}
    for name in names:
        phi = cat(name)
        # " sup", the norm read off at the last step, keeps the keys that
        # digests of earlier commits have
        f = m.green_field(phi, GREEN_WINDOW, (130, 127), 24)
        fields[f"{name} sup"] = _sha(f.values.tobytes())
        greens[f"{name} sup"] = [
            repr(m.green(phi, z, 24)) for z in GREEN_POINTS
        ]
        try:
            s = m.preimage_sample(phi, 0.3 + 0.2j, 6, seed=SEED)
            trees[name] = [_sha(s.points.tobytes()), s.n_infinite]
        except (p1dyn.DomainError, p1dyn.ConvergenceError) as exc:
            trees[name] = f"raised {type(exc).__name__}: {exc}"
    greens["pow_2 n=1100"] = [repr(m.green(cat("pow_2"), 1.7 - 0.2j, 1100))]
    rng = np.random.default_rng(SEED)
    polys = [[complex(curve.G.coeff(k)) for k in range(curve.G.degree + 1)]
             for curve in (p1dyn.curve_E1(), p1dyn.curve_E2())]
    for deg in (2, 3, 5, 8, 13, 21):
        polys.append(list(rng.normal(size=deg + 1)
                          + 1j * rng.normal(size=deg + 1)))
    roots = [[repr(r) for r in m.poly_roots(c)] for c in polys]
    grid = m.measure_from_green(m.green_field(
        cat("phi_2@E1"), GREEN_WINDOW, (130, 127), 24))
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "grid.csv")
        m.write_csv(grid, path)
        with open(path, "rb") as f:
            csv = _sha(f.read())
    return {"green_field": fields, "green": greens, "preimage": trees,
            "poly_roots": roots, "csv": csv}


DENSITY_WINDOWS = ((-3.0, 3.0, -3.0, 3.0), GREEN_WINDOW)


def _densities(cat) -> dict:
    m = p1dyn.measures
    out = {}
    for name, curve in (("E1", p1dyn.curve_E1()), ("E2", p1dyn.curve_E2())):
        for window in DENSITY_WINDOWS:
            dens = m.lattes_density(curve, window, 128)
            grid = m.measure_from_green(m.green_field(
                cat(f"phi_2@{name}"), window, 128, 24))
            out[f"{name} {window}"] = {
                "mass": _sha(dens.mass.tobytes()),
                "window_fraction": [repr(dens.window_fraction),
                                    repr(grid.window_fraction)],
            }
    return out


def main() -> None:
    exact = sys.argv[1:] == ["--exact"]
    if sys.argv[1:] and not exact:
        sys.exit("usage: exact_digest.py [--exact]")
    if exact:
        # a blocked module sits in sys.modules as None
        sys.modules["numpy"] = None
    cat, names = p1dyn.catalog, p1dyn.catalog_names()
    digest = {
        "catalog": _catalog(cat, names),
        "pairs": _pairs(cat, names),
        "periodic": _periodic(cat),
        "heights": _heights(cat),
        "images": _images(cat),
    }
    if not exact and importlib.util.find_spec("numpy") is not None:
        digest["analytic"] = _analytic(cat, names)
        digest["densities"] = _densities(cat)
    elif not exact:
        print("exact_digest: numpy is not importable; left out: analytic, "
              "densities", file=sys.stderr)
    json.dump(digest, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
