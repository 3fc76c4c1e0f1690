"""The CLI smoke table: one list of p1dyn commands, run end to end.

    PYTHONPATH=src python3 tools/smoke.py

The EXACT rows, the exact subcommands and green, which runs on Python
floats, run through p1dyn.cli.main with numpy blocked.  Each must exit
0, and afterwards none of numpy, mpmath or sympy may be imported.
Each row's stdout is written to stdout in table order, with the
temporary directory spelled `{tmp}`, so the output of two Pythons can be
compared byte for byte.  tools/smoke.md5 holds the md5 of that output,
so on each Python

    set -o pipefail
    PYTHONPATH=src python3 tools/smoke.py | md5sum -c tools/smoke.md5

checks both the exit status and the bytes.  A change that moves a row's
bytes, or adds a row, updates tools/smoke.md5.

Then numpy is unblocked and the NUMERIC rows run, if numpy is importable;
if not, one stderr line says they were skipped.  Their stdout is dropped,
so stdout is the same with numpy and without.  They must exit 0 too, and
leave neither of the test-only packages mpmath and sympy imported.

A row is (label, command): the label says what the row exercises, and
the command is split on whitespace into main's argv.  `{tmp}` in a
command is a temporary directory that holds the map files of MAP_FILES.
The exit status is 0 when every row that ran passed, 1 otherwise.
"""

import contextlib
import importlib.util
import io
import json
import os
import sys
import tempfile

MAP_FILES = {
    "twozsq.json": {"num": ["0", "0", "2"], "den": ["1"]},
    # (25z^2 + 5z)/(5z^2 + 1)
    "restart.json": {"num": ["0", "5", "25"], "den": ["1", "0", "5"]},
    # (10^200 z^2 + 1)/z
    "bigarch.json": {"num": ["1", "0", str(10**200)], "den": ["0", "1"]},
    # (3-2i + 15z + 5i/2 z^2 - 7z^3)/(10 - 4i z + z^3) over Q(i)
    "user.json": {"field": {"d": 1},
                  "num": ["3/10-1/5*w", "3/2", "1/4*w", "-7/10"],
                  "den": ["1", "-2/5*w", "0", "1/10"]},
    # z^4 over Q(i), no Lattes map
    "quartic.json": {"field": {"d": 1}, "num": ["0", "0", "0", "0", "1"],
                     "den": ["1"]},
    # ((1+i)/2 z^2)/(z + (1+i)/2) over Q(i)
    "content.json": {"field": {"d": 1}, "num": ["0", "0", "1/2+1/2*w"],
                     "den": ["1/2+1/2*w", "1"]},
}

EXACT = [
    ("height of pow_2: form kernel at stride 1, one term per form",
     "height --catalog pow_2 --point 7,3 --point=-10,9 --tol 1e-9"),
    ("height of phi_3@E2: stride 3 on a degree-9 model, one form under "
     "the prefactor x0^2 x1 and one without",
     "height --catalog phi_3@E2 --point=2+w,1 --tol 1e-11"),
    ("height of phi_3@E1: stride 2, both forms under a prefactor (x0, x1)",
     "height --catalog phi_3@E1 --point=2+w,1"),
    ("height of phi_2@E2: stride 3, both forms under a prefactor (x0, x1)",
     "height --catalog phi_2@E2 --point=2+w,1"),
    ("height of (25z^2+5z)/(5z^2+1): m_R = 750, the finite loop starts at "
     "m_R^2, restarts once, after two steps, from 60 m_R^3, and stops "
     "seven steps later on a repeated residue mod 30",
     "height --map {tmp}/restart.json --point=-19,5 --tol 1e-11"),
    ("height of (10^200 z^2+1)/z: the archimedean working size falls 1332 "
     "bits a step; stride 2, its one-term form under the prefactor x0 x1",
     "height --map {tmp}/bigarch.json --point 3,1"),
    ("height of (10^200 z^2+1)/z at tolerance 0.5: n = 11, so alpha^n = "
     "2^11 and the last pair's norm is squared before its log, under a "
     "shift of hundreds of bits",
     "height --map {tmp}/bigarch.json --point 3,1 --tol 0.5"),
    ("height of ((1+i)/2 z^2)/(z + (1+i)/2) over Q(i): its integral model "
     "z^2 and (1-i) z + 1 divides the cleared forms by their content 1 + i, "
     "which is no rational integer",
     "height --map {tmp}/content.json --point=2+w,3"),
    ("nt-height on E2 at an affine x",
     "nt-height --curve E2 --point=3"),
    ("nt-height on E1 at a pair, an affine rational and a Gaussian pair",
     "nt-height --curve E1 --point 2,1 --point 1/4 --point 3+w,2"),
    ("commute: phi_1+i and phi_1-i, whose composite is phi_2@E1",
     "commute --catalog phi_1+i phi_1-i"),
    ("commute: phi_2@E2 and phi_3@E2, each outer kernel on packed "
     "polynomials, both ways round",
     "commute --catalog phi_2@E2 phi_3@E2"),
    ("compose: phi_sqrt-3 after phi_sqrt-3*rho, omega in the coefficients",
     "compose --catalog phi_sqrt-3 phi_sqrt-3*rho"),
    ("compose: phi_3@E1 after itself, its kernel on packed polynomials, "
     "degree 81",
     "compose --catalog phi_3@E1 phi_3@E1"),
    ("compose: phi_1+i after phi_1-i over Z[i]",
     "compose --catalog phi_1+i phi_1-i"),
    ("ramify phi_1+2i: the 2-torsion of E1 from double-precision root "
     "guesses polished exactly",
     "ramify --catalog phi_1+2i"),
    ("ramify phi_2@E2 over E2",
     "ramify --catalog phi_2@E2"),
    ("ramify phi_eps: degree 9 over E2, multiplier -3 omega",
     "ramify --catalog phi_eps"),
    ("ramify z^4 over E1: no Lattes map, so the counts (1, 4, 1, 4) lie "
     "outside the Lattes bound n <= 2r <= n + 5",
     "ramify --map {tmp}/quartic.json --curve E1"),
    ("table-check 1+2i finds phi_1+2i",
     "table-check --lambda 1,2,1"),
    ("table-check 1-2i finds phi_1-2i, a conjugated entry",
     "table-check --lambda 1,-2,1"),
    ("table-check: the parity table on the half-integer Eisenstein "
     "multiplier 3/2-3/2w, which is phi_eps's",
     "table-check --lambda 3/2,-3/2,3"),
    ("table-check 2 over d=3 finds phi_2@E2 in the index by multiplier, "
     "which holds phi_2@E1's 2 over d=1 under the same hash",
     "table-check --lambda 2,0,3"),
    ("catalog: all 16 entries",
     "catalog"),
    ("periodic points of pow_3 in closed form: roots of unity, powers of "
     "one root in fixed point, which takes one Newton step on the map's "
     "form kernel at t = 0",
     "periodic --catalog pow_3 --depth 2"),
    ("periodic points of phi_1+i in closed form, on E1's period lattice; "
     "each cycle runs on the map's form kernel at t = 0",
     "periodic --catalog phi_1+i --depth 2"),
    ("periodic points of phi_2@E2 in closed form, on E2's period lattice; "
     "each cycle runs on the map's form kernel at t = 0, sqrt 3 in fixed "
     "point",
     "periodic --catalog phi_2@E2 --depth 2"),
    ("periodic points of phi_sqrt-3*rho in closed form, omega in its "
     "coefficients; each cycle runs on the map's form kernel at t = 0",
     "periodic --catalog phi_sqrt-3*rho --depth 3"),
    ("periodic points of phi_sqrt-3 in closed form at period 4; each cycle "
     "runs on the map's form kernel at t = 0",
     "periodic --catalog phi_sqrt-3 --depth 4"),
    # green runs on Python floats (p1dyn.greenpoint), so with numpy blocked
    ("green of pow_2 at a real point",
     "green --catalog pow_2 --point 0.5,0"),
    ("green of a cubic over Q(i) from a map file, the one way into the "
     "Green value for a map outside the catalog; its lift keeps a zero "
     "coefficient",
     "green --map {tmp}/user.json --point 0.5,0.25 --point=-1.5,2"),
]

NUMERIC = [
    ("periodic points of 2z^2, no catalog map, by the root solve: the row "
     "2z - 1, once the root 0 is split off, takes the Aberth sweeps",
     "periodic --map {tmp}/twozsq.json --depth 1"),
    ("density-compare phi_2@E2: lattice leaves on E2's period lattice",
     "density-compare --catalog phi_2@E2 --depth 5"),
    ("density-compare phi_3@E1: lattice leaves on E1's period lattice",
     "density-compare --catalog phi_3@E1 --depth 3"),
    ("density-compare phi_1+i at depth 8, where lam^8 = 16",
     "density-compare --catalog phi_1+i --depth 8"),
    ("density-compare phi_sqrt-3: lam^5 is no integer, so the leaves take "
     "a Hermite normal form with a nonzero shift",
     "density-compare --catalog phi_sqrt-3 --depth 5"),
    ("measure of phi_2@E1: Green field, then the measure, as JSON",
     "measure --catalog phi_2@E1 --res 64"),
    ("measure of pow_2 as CSV: half its cells exact zeros, and a few "
     "through the '%.12e' fallback",
     "measure --catalog pow_2 --res 64 --format csv --out {tmp}/pow2.csv"),
    ("julia of pow_2: rasters its Green field, built as measure builds it",
     "julia --catalog pow_2 --res 32 --out {tmp}/pow2.pgm"),
]


def _loaded(names) -> list:
    # a blocked module sits in sys.modules as None
    return [n for n in names if sys.modules.get(n) is not None]


def main() -> int:
    # find_spec answers None for a module the caller blocked too
    numeric = importlib.util.find_spec("numpy") is not None
    sys.modules["numpy"] = None
    from p1dyn import cli

    failures = []

    def run(rows, tmp, echo):
        for label, command in rows:
            argv = [a.replace("{tmp}", tmp) for a in command.split()]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = cli.main(argv)
            if echo:
                # a map file's label is its path: print it as written
                sys.stdout.write(out.getvalue().replace(tmp, "{tmp}"))
            if rc != 0:
                failures.append(f"exit {rc}: {label}: p1dyn {command}")

    with tempfile.TemporaryDirectory() as tmp:
        for name, spec in MAP_FILES.items():
            with open(os.path.join(tmp, name), "w") as f:
                json.dump(spec, f)
        run(EXACT, tmp, echo=True)
        loaded = _loaded(("numpy", "mpmath", "sympy"))
        if loaded:
            failures.append("the exact rows imported " + ", ".join(loaded))
        if numeric:
            del sys.modules["numpy"]
            run(NUMERIC, tmp, echo=False)
            loaded = _loaded(("mpmath", "sympy"))
            if loaded:
                failures.append(
                    "the numeric rows imported " + ", ".join(loaded))
        else:
            print(f"smoke: numpy is not importable; the {len(NUMERIC)} "
                  "numeric rows were skipped", file=sys.stderr)
    for line in failures:
        print("smoke: FAIL " + line, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
