"""Command-line front end.

Every subcommand prints a single JSON object (sorted keys, top-level
"schema": 1) to stdout; grid and raster payloads go to files named by
--out.  Exit status: 0 success, 1 domain/convergence error or a number
beyond the floating-point range, 2 usage or map-spec error.  Identical
arguments and seed give byte-identical output.

Run configs are plain argparse namespaces; build_parser registers each
subcommand once, with its handler.  A handler only computes its
payload: main, the one path from arguments to stdout, stamps "command"
and "schema" on it.  Each handler imports what only it runs: height
and nt-height import heights; ramify and table-check import torus;
measure, density-compare and julia import measures, and with it numpy;
periodic on a map outside the catalog imports roots, the root solver,
and with it numpy, but not measures.  green runs on greenpoint's Python
floats, so it and the exact subcommands never load numpy.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager

from .errors import (
    ConvergenceError,
    DomainError,
    MapSpecError,
)
from .quadfield import (
    SUPPORTED_D,
    QuadFieldElement,
    format_element,
    parse_element,
    parse_rational,
)
from .ratmaps import ProjPoint, RationalMap
from . import lattes


# ---------------------------------------------------------------- parsing


def _parse_exact_point(text: str, d: int) -> ProjPoint:
    parts = text.split(",")
    if len(parts) != 2:
        raise MapSpecError(
            f"point {text!r} must be two comma-separated coordinates"
        )
    x = parse_element(parts[0], d)
    y = parse_element(parts[1], d)
    if x.is_zero() and y.is_zero():
        raise MapSpecError(f"point {text!r} is (0 : 0), no projective point")
    return ProjPoint(x, y, d)


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise MapSpecError(f"point {text!r} must be re,im decimals")
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        raise MapSpecError(f"point {text!r} must be re,im decimals") from None


def _parse_window(text: str) -> tuple:
    # argparse prints an ArgumentTypeError's text, not a ValueError's
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            f"window {text!r} must be x0,x1,y0,y1")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"window {text!r} must be four decimals") from None


def _field_tag(d, where: str) -> int:
    # type(), not isinstance: True and 1.0 both compare equal to 1
    if type(d) is not int or d not in SUPPORTED_D:
        raise MapSpecError(f"{where}: field d must be 0, 1 or 3, got {d!r}")
    return d


def _parse_lambda(text: str) -> QuadFieldElement:
    parts = text.split(",")
    if len(parts) != 3:
        raise MapSpecError(f"--lambda {text!r} must be a,b,d")
    try:
        a, b = parse_rational(parts[0]), parse_rational(parts[1])
        d = int(parts[2])
    except (ValueError, ZeroDivisionError):
        raise MapSpecError(
            f"--lambda {text!r} needs two rationals and an integer d"
        ) from None
    if b[0] and d == 0:
        raise MapSpecError(f"--lambda {text!r}: b must be 0 for d=0")
    return QuadFieldElement._from_ratios(
        a, b, _field_tag(d, f"--lambda {text!r}"))


def _map_from_file(path: str) -> RationalMap:
    try:
        with open(path) as f:
            spec = json.load(f)
    except OSError as exc:
        raise MapSpecError(f"cannot read map file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise MapSpecError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}"
        ) from None
    if not isinstance(spec, dict) or "num" not in spec or "den" not in spec:
        raise MapSpecError(f"{path}: map spec needs 'num' and 'den' lists")
    field = spec.get("field", {})
    if not isinstance(field, dict):
        raise MapSpecError(f"{path}: 'field' must be an object, got {field!r}")
    d = _field_tag(field.get("d", 0), path)

    # raised messages get the path prefix from the except clause below
    def strings(key):
        coeffs = spec[key]
        if not isinstance(coeffs, list) or not coeffs:
            raise MapSpecError(f"{key!r} must be a non-empty list")
        out = []
        for c in coeffs:
            if isinstance(c, bool) or not isinstance(c, (int, str)):
                raise MapSpecError(
                    f"coefficient {c!r} must be an integer or an "
                    "exact-grammar string"
                )
            out.append(str(c))
        return out

    try:
        return RationalMap.from_strings(strings("num"), strings("den"), d)
    except MapSpecError as exc:
        raise MapSpecError(f"{path}: {exc}") from None


def _load_maps(args, need: int):
    """(label, map) pairs from --catalog names and --map files, in order."""
    pairs = [(n, lattes.catalog(n)) for n in (args.catalog or [])]
    pairs += [(p, _map_from_file(p)) for p in (args.map or [])]
    if len(pairs) != need:
        raise MapSpecError(
            f"expected {need} map(s) via --catalog/--map, got {len(pairs)}"
        )
    return pairs


def _emit(payload: dict) -> None:
    payload = {"schema": 1, **payload}
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")


def _fmt_point(p: ProjPoint) -> str:
    return format_element(p.x0) + "," + format_element(p.x1)


def _czpair(z: complex) -> list:
    return [float(z.real), float(z.imag)]


# ---------------------------------------------------------------- handlers


def _cmd_height(args) -> dict:
    from . import heights

    label, phi = _load_maps(args, 1)[0]
    if not args.point:
        raise MapSpecError("height needs at least one --point X,Y")
    consts = heights.height_constants(phi)
    results = []
    for text in args.point:
        P = _parse_exact_point(text, phi.d)
        hv = heights.canonical_height(phi, P, target_error=args.tol)
        results.append(
            {
                "point": _fmt_point(P),
                "value": hv.value,
                "error_bound": hv.error_bound,
                "iterations": hv.iterations_used,
            }
        )
    out = {
        "map": label,
        "degree": phi.degree,
        "bad_primes": consts["bad_primes"],
        "results": results,
    }
    if consts["unfactored"] != 1:
        out["unfactored_cofactor"] = consts["unfactored"]
    return out


def _cmd_nt_height(args) -> dict:
    from . import heights

    curve = lattes.CURVES[args.curve]()
    if not args.point:
        raise MapSpecError("nt-height needs at least one --point")
    results = []
    for text in args.point:
        if "," in text:
            P = _parse_exact_point(text, curve.d)
        else:
            P = ProjPoint.affine(parse_element(text, curve.d))
        hv = heights.neron_tate(curve, P, target_error=args.tol)
        results.append(
            {
                "point": _fmt_point(P),
                "value": hv.value,
                "error_bound": hv.error_bound,
            }
        )
    return {"curve": args.curve, "results": results}


def _cmd_commute(args) -> dict:
    (la, a), (lb, b) = _load_maps(args, 2)
    # a.commutes_with(b) would compose a after b a second time
    ab = a.compose(b)
    commute = ab == b.compose(a)
    entry = lattes.entry_for_map(ab) if commute else None
    return {
        "maps": [la, lb],
        "commute": commute,
        "composition_equals": entry.name if entry else None,
    }


def _poly_strings(poly) -> list:
    return [format_element(poly.coeff(k)) for k in range(poly.degree + 1)]


def _cmd_compose(args) -> dict:
    (la, a), (lb, b) = _load_maps(args, 2)
    comp = a.compose(b)
    return {
        "maps": [la, lb],
        "d": comp.d,
        "degree": comp.degree,
        "num": _poly_strings(comp.num),
        "den": _poly_strings(comp.den),
    }


def _cmd_ramify(args) -> dict:
    from . import torus

    label, phi = _load_maps(args, 1)[0]
    if args.catalog and args.curve:
        raise MapSpecError(
            "ramify takes --curve only with --map: a catalog map names its "
            "own curve"
        )
    if args.catalog:
        curve = lattes.curve_for_name(label)
    elif args.curve:
        curve = lattes.CURVES[args.curve]()
    else:
        raise MapSpecError("ramify needs --catalog NAME or --curve E1|E2")
    prof = torus.ramification_profile(phi, curve)
    out = {
        "map": label,
        "degree": prof.degree,
        "counts": list(prof.counts),
        "multiset": list(prof.as_multiset()),
    }
    if args.catalog:
        entry = lattes.catalog_entry(label)
        if entry.lam is not None:
            pred = torus.predict_profile(entry.lam)
            out["predicted"] = list(pred.as_multiset())
            out["match"] = pred.as_multiset() == prof.as_multiset()
    return out


def _cmd_table_check(args) -> dict:
    from . import torus

    lam = _parse_lambda(getattr(args, "lambda"))
    pred = torus.predict_profile(lam)
    out = {
        "lambda": format_element(lam),
        "d": lam.d,
        "degree": pred.degree,
        "predicted": list(pred.as_multiset()),
        "computed": None,
        "match": None,
    }
    try:
        entry = lattes.map_for_multiplier(lam)
    except DomainError:
        return out
    curve = lattes.curve_for_name(entry.name)
    prof = torus.ramification_profile(entry.map, curve)
    out["map"] = entry.name
    out["computed"] = list(prof.as_multiset())
    out["match"] = prof.as_multiset() == pred.as_multiset()
    return out


def _cmd_green(args) -> dict:
    from .greenpoint import green

    label, phi = _load_maps(args, 1)[0]
    if not args.point:
        raise MapSpecError("green needs at least one --point re,im")
    results = []
    for text in args.point:
        z = _parse_complex(text)
        g = green(phi, z, args.iters)
        results.append({"point": _czpair(z), "value": g})
    return {"map": label, "iterations": args.iters, "results": results}


def _grid_files(args, grid) -> dict:
    """Write the grid per --out/--format; return stdout metadata."""
    from . import measures

    out = {
        "window": list(grid.window),
        "resolution": list(grid.resolution),
        "window_fraction": grid.window_fraction,
        "max_cell": float(grid.mass.max()),
        "nonzero_cells": int((grid.mass > 0).sum()),
    }
    if args.out:
        with _writing(args.out):
            if args.format == "csv":
                measures.write_csv(grid, args.out)
                out["written"] = [args.out, args.out + ".json"]
            else:
                with open(args.out, "w") as f:
                    json.dump(
                        {"schema": 1, **out, "mass": grid.mass.tolist()},
                        f,
                        sort_keys=True,
                    )
                    f.write("\n")
                out["written"] = [args.out]
    return out


@contextmanager
def _writing(path: str):
    """Turn an OSError while writing path, or a sidecar of it, into one
    usage error that names the file once."""
    try:
        yield
    except OSError as exc:
        raise MapSpecError(
            f"cannot write {exc.filename or path}: {exc.strerror or exc}"
        ) from None


def _cmd_measure(args) -> dict:
    from . import measures

    label, phi = _load_maps(args, 1)[0]
    field = measures.green_field(phi, args.window, args.res, args.iters)
    grid = measures.measure_from_green(field)
    return {
        "map": label,
        "iterations": args.iters,
        **_grid_files(args, grid),
    }


def _cmd_density_compare(args) -> dict:
    from . import measures

    label, phi = _load_maps(args, 1)[0]
    if not args.catalog:
        raise MapSpecError(
            "density-compare needs a --catalog map attached to a curve"
        )
    curve = lattes.curve_for_name(label)
    if args.point and len(args.point) > 1:
        raise MapSpecError("density-compare takes one --point seed")
    seed_z = _parse_complex(args.point[0] if args.point else "2,0")
    samples = measures.preimage_sample(phi, seed_z, args.depth, seed=args.seed)
    hist = measures.sample_histogram(samples, args.window, args.res)
    dens = measures.lattes_density(curve, args.window, args.res)
    l1 = measures.compare_l1(hist, dens)
    return {
        "map": label,
        "depth": args.depth,
        "seed": args.seed,
        "samples": samples.size,
        "samples_at_infinity": samples.n_infinite,
        "l1": l1,
        "density_window_fraction": dens.window_fraction,
        **_grid_files(args, hist),
    }


def _cmd_periodic(args) -> dict:
    from . import periodic

    label, phi = _load_maps(args, 1)[0]
    pts = []
    for z, mult in periodic.periodic_points(phi, args.depth):
        finite = z != periodic.INF_POINT
        pts.append(
            {
                "z": _czpair(z) if finite else "inf",
                "multiplier": _czpair(mult),
                "repelling": bool(abs(mult) > 1),
            }
        )
    return {
        "map": label,
        "period": args.depth,
        "count": len(pts),
        "points": pts,
    }


def _cmd_julia(args) -> dict:
    from . import measures

    label, phi = _load_maps(args, 1)[0]
    if not args.out:
        raise MapSpecError("julia needs --out PATH for the raster")
    field = measures.green_field(phi, args.window, args.res, args.iters)
    img = measures.julia_raster(field)
    meta = {
        "command": "julia",
        "map": label,
        "window": ",".join("%g" % w for w in args.window),
        "iters": args.iters,
    }
    with _writing(args.out):
        measures.write_pgm(args.out, img, meta)
    return {
        "map": label,
        "window": list(args.window),
        "resolution": [img.shape[1], img.shape[0]],
        "iterations": args.iters,
        "written": [args.out],
    }


def _cmd_catalog(args) -> dict:
    entries = []
    for name in lattes.catalog_names():
        e = lattes.catalog_entry(name)
        entries.append(
            {
                "name": name,
                "degree": e.map.degree,
                "d": e.map.d,
                "multiplier": None if e.lam is None else format_element(e.lam),
                "curve": e.curve_name,
            }
        )
    return {"count": len(entries), "entries": entries}


# ------------------------------------------------------------- dispatch

def _window_arg(sp, default):
    sp.add_argument(
        "--window",
        type=_parse_window,
        default=default,
        metavar="x0,x1,y0,y1",
        help="view window (default %s)" % ",".join("%g" % w for w in default),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="p1dyn",
        description="Dynamics on the projective line: heights, Lattes "
        "maps, Green functions and invariant measures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, maps=0, points=False):
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(handler=handler)
        if maps:
            sp.add_argument(
                "--catalog",
                nargs="+",
                metavar="NAME",
                help="catalog map name(s)",
            )
            sp.add_argument(
                "--map", nargs="+", metavar="FILE", help="JSON map spec file(s)"
            )
        if points:
            sp.add_argument(
                "--point",
                action="append",
                metavar="X,Y",
                help="point (repeatable)",
            )
        return sp

    sp = add("height", _cmd_height, "canonical height of exact points",
             maps=1, points=True)
    sp.add_argument("--tol", type=float, default=1e-9, metavar="R")

    sp = add("nt-height", _cmd_nt_height,
             "curve height above an x-coordinate", points=True)
    sp.add_argument("--curve", choices=tuple(lattes.CURVES), default="E1",
                    help="curve (default E1)")
    sp.add_argument("--tol", type=float, default=1e-9, metavar="R")

    add("commute", _cmd_commute, "test whether two maps commute", maps=2)
    add("compose", _cmd_compose, "compose two maps (first after second)",
        maps=2)
    sp = add("ramify", _cmd_ramify,
             "preimage counts over the 2-torsion images", maps=1)
    sp.add_argument("--curve", choices=tuple(lattes.CURVES),
                    help="target curve")

    sp = add("table-check", _cmd_table_check,
             "predicted vs computed ramification multiset")
    sp.add_argument(
        "--lambda", required=True, metavar="a,b,d", help="multiplier a+b*w"
    )

    sp = add("green", _cmd_green, "Green value at complex points",
             maps=1, points=True)
    sp.add_argument("--iters", type=int, default=30, metavar="N")

    sp = add("measure", _cmd_measure, "equilibrium measure on a window grid",
             maps=1)
    _window_arg(sp, (-2.0, 2.0, -2.0, 2.0))
    sp.add_argument("--res", type=int, default=64, metavar="N")
    sp.add_argument("--iters", type=int, default=24, metavar="N")
    sp.add_argument("--out", metavar="PATH")
    sp.add_argument("--format", choices=("json", "csv"), default="json")

    sp = add("density-compare", _cmd_density_compare,
             "preimage histogram vs closed-form curve density",
             maps=1, points=True)
    _window_arg(sp, (-3.0, 3.0, -3.0, 3.0))
    sp.add_argument("--depth", type=int, default=9, metavar="N")
    sp.add_argument("--res", type=int, default=64, metavar="N")
    sp.add_argument("--seed", type=int, default=0, metavar="N")
    sp.add_argument("--out", metavar="PATH")
    sp.add_argument("--format", choices=("json", "csv"), default="json")

    sp = add("periodic", _cmd_periodic, "periodic points and multipliers",
             maps=1)
    sp.add_argument(
        "--depth", type=int, default=1, metavar="N", help="period bound"
    )

    sp = add("julia", _cmd_julia,
             "grayscale raster of the canonical measure", maps=1)
    _window_arg(sp, (-2.0, 2.0, -2.0, 2.0))
    sp.add_argument("--res", type=int, default=256, metavar="N")
    sp.add_argument("--iters", type=int, default=24, metavar="N")
    sp.add_argument("--out", metavar="PATH")

    add("catalog", _cmd_catalog, "list the built-in maps")
    return parser


# options whose values may start with '-': a point, window or multiplier
_DASH_VALUE_OPTIONS = ("--point", "--window", "--lambda")


def _option_strings(parser: argparse.ArgumentParser) -> set:
    """Every option string of the parser and of its subcommands."""
    out = set()
    for action in parser._actions:
        out.update(action.option_strings)
        if isinstance(action.choices, dict):
            for sp in action.choices.values():
                out |= _option_strings(sp)
    return out


def _join_dash_values(argv: list, options: set) -> list:
    """Spell `--point -1,2` as `--point=-1,2`.

    argparse reads a token that starts with '-' as an option, so a value
    such as a negative coordinate is joined to its option unless the
    token is one of the parser's option strings.
    """
    out = []
    for tok in argv:
        if (
            out
            and out[-1] in _DASH_VALUE_OPTIONS
            and tok.startswith("-")
            and tok not in options
        ):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(
            _join_dash_values(argv, _option_strings(parser))
        )
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        # before the handler computes the grid that it could not print
        if getattr(args, "format", None) == "csv" and not args.out:
            raise MapSpecError("--format csv needs --out PATH")
        payload = args.handler(args)
    except MapSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OverflowError as exc:
        # exact input too large for the floating-point stages
        print(f"error: number out of floating-point range: {exc}",
              file=sys.stderr)
        return 1
    except MemoryError as exc:
        # an array too large for this machine, refused when allocated
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    _emit({"command": args.command, **payload})
    return 0


if __name__ == "__main__":
    sys.exit(main())
