"""Paired A/B runs of the benchmark on two revisions of this repository.

    python3 tools/pair.py --parent REV --change REV --workload W --seeds A-B
        [--held-out S|A-B] [--aa] [--out BENCH_<n>.json]

Run from inside a git checkout.  Each revision is extracted with
`git archive` under .bench_out/pair/ in the checkout, and
`perfbench/run.py --workload W --seed S --trace 0` runs unchanged in
each, with PYTHONDONTWRITEBYTECODE=1 as the benchmark runs, once per
seed: one pair per seed, the parent first in even pairs and the change
first in odd ones.  --held-out runs a second batch of pairs on seeds not
used while the change was written.  --aa extracts a second copy of the
parent and runs it in every pair too, each of the three sides first in
every third pair, for an A/A row: the same statistics for the parent
against itself, the noise floor of every other row.

For each metric on run.py's JSON line (the bounded end-to-end ones) and
each batch it prints and records each side's median and quartiles, the
median over pairs of change/parent, the pairs the change won (ties count
for neither), each side's failed operations, whether every run read
correct, whether the change's median is within the metric's bound in
the parent's BENCHMARK.json, and the verdict of the rule for a claimed
gain.  The bound reads "unresolved" where the parent's quartile distance
over its median is wider than the bound, unless every change run reads
better than every parent run.  A gain needs every run correct, no more
failed operations in the change than in the parent, at least ten pairs,
the change better in at least nine tenths of them, and the medians
further apart, in the change's favour, than the parent's quartile
distance.  It reports and never gates: the exit status is 0 whenever
every run produced its JSON line.

--out writes the record that BENCH_<n>.json files share: change,
harness, machine (numpy's SIMD dispatch included), claim (the rows
above, per batch) and paired_runs (every run's metrics and failed
count).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

# share of pairs the change must win, and least pair count, for a gain
WIN_SHARE = 0.9
MIN_PAIRS = 10


def git(root: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=root, check=True,
                          capture_output=True, text=True).stdout.strip()


def seed_range(text: str) -> list:
    """The seeds of "A-B" (both included) or of one seed "S"."""
    lo, _, hi = text.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def extract(root: Path, commit: str, dest: Path) -> Path:
    """A fresh `git archive` of commit at dest."""
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", "--format=tar", commit],
                               cwd=root, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait():
        raise RuntimeError(f"git archive {commit} exited {archive.returncode}")
    return dest


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """run.py's JSON line for one run in checkout."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"run.py in {checkout} at seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr.strip()}")
    return json.loads(lines[-1])


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def compare(base: list, other: list, better: str, bound: float,
            failed: tuple, correct: bool) -> dict:
    """The statistics of other against base over paired runs; failed is
    (base's, other's) total of failed operations, and correct whether
    every run of both sides read correct."""
    sign = 1 if better == "lower" else -1
    won = sum(sign * (b - o) > 0 for b, o in zip(base, other))
    med_b, med_o = statistics.median(base), statistics.median(other)
    q1, q3 = quartiles(base)
    gap = sign * (med_b - med_o)
    worse = -gap / med_b if med_b else 0.0
    # a bound finer than the parent's own spread cannot be told apart,
    # unless the change reads better in every run than the parent in any
    within = worse <= bound
    if med_b and (q3 - q1) / med_b > bound and not all(
            sign * (b - o) > 0 for b in base for o in other):
        within = "unresolved"
    row = {
        "parent_median": med_b, "parent_quartiles": list(quartiles(base)),
        "change_median": med_o, "change_quartiles": list(quartiles(other)),
        "paired_median_ratio": statistics.median(
            o / b for b, o in zip(base, other) if b),
        "pairs": len(base), "pairs_won": won,
        "medians_apart": gap, "parent_quartile_distance": q3 - q1,
        "parent_failed": failed[0], "change_failed": failed[1],
        "all_correct": correct,
        "bound": bound, "within_bound": within,
        # no gain counts where the change fails more operations than the
        # parent or any run reads incorrect
        "gain": (correct and failed[1] <= failed[0]
                 and len(base) >= MIN_PAIRS and won >= WIN_SHARE * len(base)
                 and gap > q3 - q1),
    }
    bound_text = {True: "within the bound of %g",
                  False: "beyond the bound of %g",
                  "unresolved": "the parent's spread is wider than the "
                                "bound of %g: unresolved"}[within] % bound
    row["summary"] = (
        "parent median {parent_median:.4g} (quartiles {pq[0]:.4g}-"
        "{pq[1]:.4g}) against {change_median:.4g} ({cq[0]:.4g}-{cq[1]:.4g}), "
        "change better in {pairs_won} of {pairs} pairs, paired median ratio "
        "{paired_median_ratio:.4f}; medians {medians_apart:.4g} apart in the "
        "change's favour against the parent's quartile distance "
        "{parent_quartile_distance:.4g}; failed operations {parent_failed} "
        "against {change_failed}, all runs correct: {all_correct}; "
        "{bound_text}; gain: {gain}"
    ).format(pq=row["parent_quartiles"], cq=row["change_quartiles"],
             bound_text=bound_text, **row)
    return row


def machine() -> dict:
    import numpy as np
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return {
        "platform": platform.platform(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "simd_baseline": list(umath.__cpu_baseline__),
        "simd_dispatch": list(umath.__cpu_dispatch__),
        "simd_found": [k for k, v in umath.__cpu_features__.items() if v],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=seed_range)
    parser.add_argument("--held-out", type=seed_range, default=[])
    parser.add_argument("--aa", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()

    root = Path(git(Path.cwd(), "rev-parse", "--show-toplevel"))
    commits = {side: git(root, "rev-parse", "--verify", rev + "^{commit}")
               for side, rev in (("parent", args.parent),
                                 ("change", args.change))}
    work = root / ".bench_out" / "pair"
    sides = {"parent": extract(root, commits["parent"], work / "parent"),
             "change": extract(root, commits["change"], work / "change")}
    if args.aa:
        sides["copy"] = extract(root, commits["parent"], work / "copy")
    spec = json.loads((sides["parent"] / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    batches = {f"{args.workload}_{kind}_{b[0]}_{b[-1]}": b for kind, b in
               (("seeds", args.seeds), ("held_out_seeds", args.held_out)) if b}
    paired, claim = {}, {"workload": args.workload}
    for batch, seeds in batches.items():
        runs = []
        for i, seed in enumerate(seeds):
            # the first side rotates: parent and change alternate, and
            # with the copy each side leads every third pair
            order = [*sides][i % len(sides):] + [*sides][:i % len(sides)]
            got = {side: run_once(sides[side], args.workload, seed)
                   for side in order}
            runs.append({
                "seed_or_pair": seed, "first": order[0],
                **{side: {k: m["value"]
                          for k, m in got[side]["metrics"].items()}
                   for side in sides},
                "failed": [got[side]["failed"] for side in sides],
                "correct": [got[side]["correct"] for side in sides],
            })
            print(f"{batch} seed {seed}: " + json.dumps(runs[-1]), flush=True)
        paired[batch] = runs
        failed = {side: sum(r["failed"][i] for r in runs)
                  for i, side in enumerate(sides)}
        correct = {side: all(r["correct"][i] for r in runs)
                   for i, side in enumerate(sides)}

        def row(name, side):
            spec_m = metrics[name]
            return compare([r["parent"][name] for r in runs],
                           [r[side][name] for r in runs],
                           spec_m["better"], spec_m["bound"],
                           (failed["parent"], failed[side]),
                           correct["parent"] and correct[side])

        rows = {}
        for name in runs[0]["parent"]:
            rows[name] = row(name, "change")
            print(f"{batch} {name}: {rows[name]['summary']}")
            if args.aa:
                rows[name]["aa"] = row(name, "copy")
                print(f"{batch} {name} A/A: {rows[name]['aa']['summary']}")
        claim[batch] = rows

    record = {
        "change": git(root, "log", "-1", "--format=%h %s", commits["change"]),
        "harness": (
            f"tools/pair.py: perfbench/run.py --workload {args.workload} "
            "--seed S --trace 0 with PYTHONDONTWRITEBYTECODE=1, in git "
            f"archives of parent {commits['parent'][:7]} and change "
            f"{commits['change'][:7]}" + (
                ", and a second copy of the parent; each side first in every "
                "third pair" if args.aa else "; parent first in even pairs")),
        "machine": machine(),
        "claim": claim,
        "paired_runs": paired,
    }
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
