"""Per-layer micro-timings, run in a fresh interpreter by the traced run.

    python3 perfbench/micro.py --seed N

prints one JSON object of metrics.  A fresh process makes the height
engine builds cold, as they are in every `p1dyn` call, and keeps these
loops out of the workload's own memory and caches.  Inputs come from the
catalog maps and the seed; each figure is the median over BLOCKS blocks.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import sys
import time

from common import THREAD_ENV, import_p1dyn

BLOCKS = 7


def _per_call(fn, args_list, scale):
    """Median over blocks of the mean time per call, times scale."""
    per_block = []
    for _ in range(BLOCKS):
        t0 = time.perf_counter()
        for args in args_list:
            fn(*args)
        per_block.append((time.perf_counter() - t0) / len(args_list))
    return statistics.median(per_block) * scale


def _gauss(p1dyn, rng, lo, hi):
    return p1dyn.QuadFieldElement(rng.randint(lo, hi) * rng.choice((-1, 1)),
                                  rng.randint(lo, hi) * rng.choice((-1, 1)), 1)


def measure(seed: int) -> dict:
    p1dyn = import_p1dyn()
    from p1dyn.ratmaps import poly_gcd

    rng = random.Random(f"micro:{seed}")
    out = {}

    # engine builds first, while every engine is cold
    builds = []
    for name in p1dyn.catalog_names():
        phi = p1dyn.catalog(name)
        t0 = time.perf_counter()
        p1dyn.height_constants(phi)
        builds.append((time.perf_counter() - t0) * 1e3)
    out["heights.engine_build.p50_ms"] = statistics.median(builds)
    out["heights.engine_build.max_ms"] = max(builds)

    tri = p1dyn.catalog("phi_3@E1")
    coeffs = [tri.num.coeff(k) for k in range(tri.num.degree + 1)]
    pairs = [(rng.choice(coeffs), _gauss(p1dyn, rng, 10, 99))
             for _ in range(2000)]
    out["quadfield.mul.ns"] = _per_call(lambda a, b: a * b, pairs, 1e9)

    gpairs = []
    for _ in range(100):
        g = _gauss(p1dyn, rng, 1, 99)
        gpairs.append((g * _gauss(p1dyn, rng, 100, 9999),
                       g * _gauss(p1dyn, rng, 100, 9999)))
    out["quadfield.integral_gcd.us"] = _per_call(
        p1dyn.integral_gcd, gpairs, 1e6)

    polys = [(tri.num, p1dyn.Poly([_gauss(p1dyn, rng, 10, 99)
                                   for _ in range(10)], 1))
             for _ in range(20)]
    out["ratmaps.poly_mul.us"] = _per_call(lambda a, b: a * b, polys, 1e6)

    gcds = []
    for _ in range(3):
        common = p1dyn.Poly([_gauss(p1dyn, rng, 1, 9) for _ in range(3)], 1)
        gcds.append((tri.num * common, tri.den * common))
    out["ratmaps.poly_gcd.ms"] = _per_call(poly_gcd, gcds, 1e3)

    dbl = p1dyn.catalog("phi_2@E1")
    third = dbl.compose(dbl).compose(dbl)
    targets = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
               for _ in range(5)]
    deg64 = [([complex(third.num.coeff(k)) - w * complex(third.den.coeff(k))
               for k in range(third.degree + 1)],) for w in targets]
    out["measures.poly_roots.deg64_ms"] = _per_call(
        p1dyn.poly_roots, deg64, 1e3)

    lift = p1dyn.Lift.from_map(dbl)
    cx, cy = rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05)
    window = (cx - 2.0, cx + 2.0, cy - 2.0, cy + 2.0)
    out["measures.green_field_256.ms"] = _per_call(
        p1dyn.green_field, [(lift, window, 256, 24)], 1e3)
    field = p1dyn.green_field(lift, window, 512, 24)
    out["measures.laplacian_512.ms"] = _per_call(
        p1dyn.measure_from_green, [(field,)], 1e3)
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    if any(os.environ.get(k) != v for k, v in THREAD_ENV.items()):
        print("micro.py: thread caps are not set", file=sys.stderr)
        return 2
    print(json.dumps(measure(args.seed), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
