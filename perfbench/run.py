"""p1dyn benchmark: end-to-end and per-layer metrics for one workload.

    python3 perfbench/run.py --workload exact|analytic|cli|all --seed N
        [--trace 0|1] [--held-out-seed M]

Run from anywhere inside a checkout; the package is imported from the
checkout's src/.  Prints a report (every metric by name and unit, sample
counts, the environment and the correctness summary) and, as the last
line, one JSON object with the keys correct, attempted, failed and
metrics.  With --trace 0 the metrics are the bounded end-to-end ones
(setup_s, wall_ref_s, peak_rss_mb), with --trace 1 the per-layer ones;
see perfbench/README.md.  Result files and span dumps go to .bench_out/
in the checkout.
"""

from __future__ import annotations

import os
import sys

from common import THREAD_ENV

# the BLAS pool is sized when numpy loads, so cap it before any import can
# pull numpy in
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import common  # noqa: E402
import wl_analytic  # noqa: E402
import wl_cli  # noqa: E402
import wl_exact  # noqa: E402
from common import (  # noqa: E402
    OUT, ROOT, Recorder, SourceMissing, median, span_table, tail,
)

WORKLOADS = {"exact": wl_exact, "analytic": wl_analytic, "cli": wl_cli}

# end-to-end metrics of a --trace 0 run: BOUNDED are bounded in
# BENCHMARK.json; the raw pass time and the latencies are reported, not
# bounded (see README.md)
END_TO_END = (
    ("setup_s", "s"),
    ("wall_ref_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_wall_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
)
BOUNDED = ("setup_s", "wall_ref_s", "peak_rss_mb")

# per-layer metric -> (unit, source); "span:<name>:<stat>" reads the span
# table of the traced passes, "count:<name>" a counter, "micro", "import"
# and "derived" are filled in by layer_metrics().  Seconds and counts are
# per traced pass.
PER_LAYER = {
    "setup.sympy_ms": ("ms", "import"),
    "setup.numpy_ms": ("ms", "import"),
    "setup.mpmath_ms": ("ms", "import"),
    "lattes.catalog_build_ms": ("ms", "import"),
    "heights.engine_build.p50_ms": ("ms", "micro"),
    "heights.engine_build.max_ms": ("ms", "micro"),
    "heights.canonical_height.calls": (
        "count", "span:heights.canonical_height:calls"),
    "heights.canonical_height.s": ("s", "span:heights.canonical_height:s"),
    "heights.canonical_height.p50_ms": (
        "ms", "span:heights.canonical_height:p50_ms"),
    "heights.iterations": ("count", "count:heights.iterations"),
    "heights.budget_errors": ("count", "count:heights.budget_errors"),
    "heights.neron_tate.s": ("s", "span:heights.neron_tate:s"),
    "quadfield.mul.ns": ("ns", "micro"),
    "quadfield.integral_gcd.us": ("us", "micro"),
    "quadfield.parse_element.s": ("s", "span:quadfield.parse_element:s"),
    "ratmaps.poly_mul.us": ("us", "micro"),
    "ratmaps.poly_gcd.ms": ("ms", "micro"),
    "ratmaps.compose.s": ("s", "span:ratmaps.RationalMap.compose:s"),
    "ratmaps.commutes_with.s": (
        "s", "span:ratmaps.RationalMap.commutes_with:s"),
    "lattes.ramification_profile.s": (
        "s", "span:lattes.ramification_profile:s"),
    "measures.periodic_points.s": ("s", "span:measures.periodic_points:s"),
    "measures.periodic_points.oracle_misses": (
        "count", "count:measures.periodic_points.oracle_misses"),
    "measures.green_field.s": ("s", "span:measures.green_field:s"),
    "measures.green_field.cell_iters": (
        "count", "count:measures.green_field.cell_iters"),
    "measures.green_field.mcell_iters_per_s": ("M/s", "derived"),
    "measures.green_field.bytes_computed": ("bytes", "derived"),
    "measures.green_field_256.ms": ("ms", "micro"),
    "measures.measure_from_green.s": (
        "s", "span:measures.measure_from_green:s"),
    "measures.laplacian_512.ms": ("ms", "micro"),
    "measures.julia_raster.s": ("s", "span:measures.julia_raster:s"),
    "measures.preimage_sample.s": ("s", "span:measures.preimage_sample:s"),
    "measures.preimage_sample.roots": (
        "count", "count:measures.preimage_sample.roots"),
    "measures.preimage_sample.roots_per_s": ("1/s", "derived"),
    "measures.poly_roots.deg64_ms": ("ms", "micro"),
    "measures.sample_histogram.s": ("s", "span:measures.sample_histogram:s"),
    "measures.lattes_density.s": ("s", "span:measures.lattes_density:s"),
    "measures.green.p50_ms": ("ms", "span:measures.green:p50_ms"),
    "measures.write_pgm.s": ("s", "span:measures.write_pgm:s"),
    "measures.write_csv.s": ("s", "span:measures.write_csv:s"),
    "measures.out_bytes": ("bytes", "count:measures.out_bytes"),
    "cli.spawn_ms": ("ms", "derived"),
    **{f"cli.{sub}.ms": ("ms", f"span:cli.{sub}:p50_ms")
       for sub in wl_cli.SUBCOMMANDS},
    "cli.height_bigmap.ms": ("ms", "span:cli.height_bigmap:p50_ms"),
    "cli.timeouts": ("count", "count:cli.timeouts"),
    "cli.stdout_bytes": ("bytes", "count:cli.stdout_bytes"),
    **{f"self_s.{layer}": ("s", "derived")
       for layer in common.LAYERS + ("bench",)},
    "trace.spans": ("count", "derived"),
    "trace.span_cost_us": ("us", "derived"),
    "trace.overhead_pct": ("%", "derived"),
}


def _setup_slots(passes: int) -> list:
    """SETUP_REPEATS split over the gaps before, between and after the
    passes, so that set-up is sampled across the whole run."""
    slots = passes + 1
    n = common.SETUP_REPEATS
    return [n // slots + (i < n % slots) for i in range(slots)]


def _net_wall(wl, wall: float, rec) -> float:
    """Pass wall time without the ops of the known defects and without
    the speed probes."""
    return wall - rec.probe_s - sum(op.seconds for op in rec.ops
                                    if op.label in wl.KNOWN_DEFECTS)


def _wall_ref_s(wl, recs) -> float:
    """Time of a pass's ops at the reference speed, known-defect ops left
    out: their total time over the passes, per pass, divided by the
    machine's mean slowness while they ran (the probes between them,
    weighted by op time)."""
    ops = [op for rec in recs for op in rec.ops
           if op.label not in wl.KNOWN_DEFECTS]
    busy = sum(op.seconds for op in ops)
    slowness = sum(op.seconds * op.slowness for op in ops) / busy
    return busy / len(recs) / slowness


def _micro(seed: int) -> dict:
    r = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "micro.py"),
         "--seed", str(seed)],
        capture_output=True, text=True, env=common.child_env(), cwd=ROOT,
        timeout=150, check=True)
    return json.loads(r.stdout.splitlines()[-1])


def _span_stat(table: dict, name: str, stat: str, n: int) -> float:
    row = table.get(name)
    if row is None:
        return 0.0
    if stat == "p50_ms":
        return median(row["durations"]) * 1e3
    return row[stat] / n


def layer_metrics(traced, untraced_walls, traced_walls, micro, imports,
                  spawn) -> dict:
    """Per-layer metrics of the traced passes; the walls are net of the
    known-defect ops, as wall_s is."""
    n = len(traced)
    table: dict = {}
    for rec in traced:
        for name, row in span_table(rec.spans).items():
            agg = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                          "durations": []})
            for key in ("calls", "s", "self_s"):
                agg[key] += row[key]
            agg["durations"] += row["durations"]
    counters: dict = {}
    for rec in traced:
        for name, v in rec.counters.items():
            counters[name] = counters.get(name, 0) + v
    selfs = common.layer_self_seconds(table)

    out = {}
    for name, (_, source) in PER_LAYER.items():
        if source == "micro":
            out[name] = micro[name]
        elif source == "import":
            out[name] = imports[name]
        elif source.startswith("span:"):
            _, span, stat = source.split(":")
            out[name] = _span_stat(table, span, stat, n)
        elif source.startswith("count:"):
            out[name] = counters.get(source[6:], 0) / n
    gf_s = out["measures.green_field.s"]
    cells = out["measures.green_field.cell_iters"]
    out["measures.green_field.mcell_iters_per_s"] = (
        cells / gf_s / 1e6 if gf_s else 0.0)
    out["measures.green_field.bytes_computed"] = (
        cells * wl_analytic.GREEN_BYTES_PER_CELL_ITER)
    pre_s = out["measures.preimage_sample.s"]
    out["measures.preimage_sample.roots_per_s"] = (
        out["measures.preimage_sample.roots"] / pre_s if pre_s else 0.0)
    out["cli.spawn_ms"] = spawn
    for layer, s in selfs.items():
        out[f"self_s.{layer}"] = s / n
    out["trace.spans"] = sum(len(rec.spans) for rec in traced) / n
    out["trace.span_cost_us"] = _span_cost_us()
    out["trace.overhead_pct"] = (
        median(traced_walls) / median(untraced_walls) - 1.0) * 100.0
    return out


def _kind_summary(ops) -> dict:
    """Per op kind: count, failures, median and max latency in ms."""
    kinds: dict = {}
    for op in ops:
        kinds.setdefault(op.kind, []).append(op)
    return {kind: {"ops": len(group),
                   "failed": sum(not op.ok for op in group),
                   "p50_ms": median([op.seconds * 1e3 for op in group]),
                   "max_ms": max(op.seconds * 1e3 for op in group)}
            for kind, group in kinds.items()}


def _span_cost_us(calls: int = 20000) -> float:
    """Recorder cost per traced call, net of the call itself."""
    def noop():
        return None

    rec = Recorder(trace=True)
    t0 = time.perf_counter()
    for _ in range(calls):
        rec.call("calibration", noop)
    traced = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    plain = time.perf_counter() - t0
    return (traced - plain) / calls * 1e6


def run_workload(name: str, seed: int, trace: bool, seed_role: str) -> dict:
    wl = WORKLOADS[name]
    common.check_source()
    env = common.environment(seed, seed_role)
    workdir = OUT / "work" / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    imports = common.measure_import_layers() if trace else {}
    p1dyn = common.import_p1dyn() if wl.IN_PROCESS else None
    inp = wl.prepare(p1dyn, seed, workdir)

    # a traced run alternates untraced and traced passes after one
    # discarded warm-up pass, so that both sides of the overhead are warm.
    # The known-defect ops, which wall_s and wall_ref_s leave out, run once
    # per pass that reports them: the first pass of an untraced run, every
    # traced pass of a traced one.
    passes = max(wl.PASSES, 2) if trace else wl.PASSES
    if trace:
        wl.run_pass(p1dyn, inp, Recorder(False, omit=wl.KNOWN_DEFECTS))
    else:
        common.warm_import()
    slots = [0] * (passes + 1) if trace else _setup_slots(passes)
    setup = common.measure_setup(slots[0])
    recs, walls = [], []
    for i in range(passes):
        traced = trace and i % 2 == 1
        defects = traced or (not trace and i == 0)
        rec = Recorder(trace=traced,
                       omit=() if defects else wl.KNOWN_DEFECTS,
                       probe_mix=None if trace else wl.PROBE_MIX)
        t0 = time.perf_counter()
        wl.run_pass(p1dyn, inp, rec)
        walls.append(_net_wall(wl, time.perf_counter() - t0, rec))
        rec.probe_pending()
        recs.append(rec)
        setup += common.measure_setup(slots[i + 1])
    peak = wl.peak_rss_mb(inp)
    env["threads"] = common.thread_count()

    ops = [op for rec in recs for op in rec.ops]
    failed = [op for op in ops if not op.ok]
    known = [op for op in failed if op.label in wl.KNOWN_DEFECTS]
    untraced = [i for i, rec in enumerate(recs) if not rec.trace]
    lat = [op.seconds * 1e3 for i in untraced for op in recs[i].ops]
    tl = tail(lat)
    tail_note = (f"p{tl[0]} of {len(lat)} ops, {tl[2]} beyond" if tl
                 else "undefined: fewer than 11 ops")
    samples = {
        "setup_s": f"median of {len(setup)} fresh imports at the reference"
                   " speed",
        "setup_wall_s": f"median of {len(setup)} fresh imports",
        "wall_s": f"median of {len(untraced)} passes, known-defect ops"
                  " left out",
        "wall_ref_s": f"ops of {len(untraced)} passes at the reference"
                      " speed, per pass, known-defect ops left out",
        "op_p50_ms": f"median of {len(lat)} ops",
        "op_tail_ms": tail_note,
        "peak_rss_mb": ("getrusage(RUSAGE_SELF)" if wl.IN_PROCESS
                        else "wait4 ru_maxrss, max over completed children"),
    }
    if trace:
        traced = [rec for rec in recs if rec.trace]
        metrics = layer_metrics(
            traced, [walls[i] for i in untraced],
            [w for w, rec in zip(walls, recs) if rec.trace],
            _micro(seed), imports, wl_cli.spawn_ms())
        units = {k: PER_LAYER[k][0] for k in metrics}
        for i, rec in enumerate(traced):
            rec.write_spans(OUT / f"spans_{name}_seed{seed}_pass{i}.jsonl")
    else:
        metrics = {"setup_s": median([ref for _, ref in setup]),
                   "setup_wall_s": median([wall for wall, _ in setup]),
                   "wall_ref_s": _wall_ref_s(wl, recs),
                   "wall_s": median([walls[i] for i in untraced]),
                   "peak_rss_mb": peak,
                   "op_p50_ms": median(lat),
                   "op_tail_ms": tl[1] if tl else None}
        units = dict(END_TO_END)
    result = {
        "workload": name,
        "trace": int(trace),
        "environment": env,
        "passes": len(recs),
        "pass_walls_s": walls,
        "pass_walls_ref_s": [_wall_ref_s(wl, [rec]) for rec in recs
                             if rec.probe_mix],
        "setup_samples_s": [wall for wall, _ in setup],
        "setup_samples_ref_s": [ref for _, ref in setup],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items() if v is not None},
        "samples": samples,
        "attempted": len(ops),
        "failed": len(failed),
        "fail_ratio": len(failed) / len(ops),
        "op_kinds": _kind_summary(ops),
        "known_defects": sorted({f"{op.label} ({wl.KNOWN_DEFECTS[op.label]}):"
                                 f" {op.reason}" for op in known}),
        "unexpected_failures": sorted({f"{op.label}: {op.reason}"
                                       for op in failed if op not in known}),
    }
    result["correct"] = not result["unexpected_failures"]
    path = OUT / f"result_{name}_seed{seed}_trace{int(trace)}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return result


def print_report(r: dict) -> None:
    env = r["environment"]
    print(f"# workload {r['workload']}  seed {env['seed']} ({env['seed_role']})"
          f"  trace {r['trace']}  passes {r['passes']}")
    print("# env " + " ".join(f"{k}={v}" for k, v in sorted(env.items())))
    for name, m in r["metrics"].items():
        note = r["samples"].get(name, "")
        print(f"  {name:42s} {m['value']:>16.6g} {m['unit']:6s} {note}")
    print(f"  {'fail_ratio':42s} {r['fail_ratio']:>16.6g} {'1':6s} "
          f"{r['failed']} failed of {r['attempted']} ops")
    print(f"# correct={r['correct']}: {r['attempted'] - r['failed']} of "
          f"{r['attempted']} ops passed their oracles")
    for line in r["known_defects"]:
        print(f"#   known defect, counted failed: {line}")
    for line in r["unexpected_failures"]:
        print(f"#   UNEXPECTED failure: {line}")


def _run_child(name: str, seed: int, role: str, args) -> dict:
    """One workload in a fresh interpreter, so that no cache, heap or child
    accounting carries over from another workload or seed."""
    r = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed", str(seed),
         "--seed-role", role, "--trace", str(args.trace)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, check=True)
    lines = r.stdout.splitlines()
    print("\n".join(lines[:-1]), flush=True)
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True,
                        help="seed the change was written against")
    parser.add_argument("--held-out-seed", type=int,
                        help="also run on this seed, one not tuned against; "
                        "its metrics carry a held_out. prefix")
    parser.add_argument("--seconds", type=int, default=30,
                        help="nominal run length (run_seconds in "
                        "BENCHMARK.json); accepted, but the work of a run "
                        "is fixed by each workload's PASSES")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seed-role", default="tuning", help=argparse.SUPPRESS)
    args = parser.parse_args()

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    runs = [(args.seed, args.seed_role, "")]
    if args.held_out_seed is not None:
        runs.append((args.held_out_seed, "held-out", "held_out."))
    try:
        if len(runs) * len(names) == 1:
            r = run_workload(names[0], args.seed, bool(args.trace),
                             args.seed_role)
            print_report(r)
            if not args.trace:
                r["metrics"] = {k: r["metrics"][k] for k in BOUNDED}
            results = [("", r)]
        else:
            common.check_source()
            results = [
                (prefix + (f"{name}." if len(names) > 1 else ""),
                 _run_child(name, seed, role, args))
                for seed, role, prefix in runs for name in names]
    except SourceMissing as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2

    print(json.dumps({
        "correct": all(r["correct"] for _, r in results),
        "attempted": sum(r["attempted"] for _, r in results),
        "failed": sum(r["failed"] for _, r in results),
        "metrics": {scope + k: m for scope, r in results
                    for k, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
