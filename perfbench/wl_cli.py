"""`cli` workload: every `p1dyn` subcommand as a subprocess.

Why: this is the only workload where interpreter start-up, `import
p1dyn` and one cold height engine per call sit on the critical path,
and where measures runs at small sizes, so fixed per-call overhead that
a big-grid rewrite adds shows up here and not in `analytic`.

One pass runs the 12 subcommands on small, seeded inputs, plus `height
--map` on a seeded degree-2 map over Q, (c z^2 + b z + a) / (d z), whose
four coefficients are 31-digit primes.  Oracles: exit code 0, one line of sorted-key JSON with
"schema": 1 and the right "command", a per-command content check, and
byte-identical stdout and --out files for identical invocations in later
passes of the run.

The big-resultant height is a known defect, listed in ROADMAP.md: the height
engine factors the resultant norm (a c d^2)^2 with sympy.factorint and
runs for minutes.  The invocation runs in the first pass only; it is
killed at TIME_LIMIT_S and counted failed.

Each invocation runs the same code as the installed `p1dyn` console
script (`from p1dyn.cli import main; sys.exit(main())`) with the
checkout's src on PYTHONPATH.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import signal
import subprocess
import sys
import threading
import time

from common import ROOT, child_env

# one pass is about 11 s, plus the TIME_LIMIT_S kill in the first; the
# determinism oracle compares a pass with the first one, so it needs two
PASSES = 2
IN_PROCESS = False
# process start-up and imports, which only a fresh interpreter follows
# (common.probe)
PROBE_MIX = {"spawn": 0.75}

TIME_LIMIT_S = 5.0
BIG_PRIME_DIGITS = 31
HEIGHT_TOL = 1e-9
DENSITY_L1_LIMIT = 0.4
KNOWN_DEFECTS = {
    "height_bigmap": "the height engine factors a ~245-digit resultant norm",
}

LAUNCH = [sys.executable, "-c",
          "import sys; from p1dyn.cli import main; sys.exit(main())"]

SUBCOMMANDS = ("catalog", "height", "nt-height", "commute", "compose",
               "ramify", "table-check", "green", "measure",
               "density-compare", "periodic", "julia")


def _gauss(rng, lo, hi):
    a = rng.randint(lo, hi) * rng.choice((-1, 1))
    b = rng.randint(lo, hi) * rng.choice((-1, 1))
    return f"{a}{b:+d}*w"


def prepare(p1dyn, seed: int, workdir) -> dict:
    from sympy import nextprime

    rng = random.Random(f"cli:{seed}")
    # (c z^2 + b z + a) / (d z): its resultant is a c d^2 up to sign, so
    # every seed gives a norm whose prime factors all have 31 digits
    lo = 10 ** (BIG_PRIME_DIGITS - 1)
    primes = [str(nextprime(rng.randrange(lo, 9 * lo))) for _ in range(4)]
    bigmap = workdir / "bigmap.json"
    bigmap.write_text(json.dumps(
        {"field": {"d": 0}, "num": primes[:3], "den": ["0", primes[3]]}))

    def window(half):
        cx, cy = rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1)
        return ",".join(f"{v:.6f}" for v in
                        (cx - half, cx + half, cy - half, cy + half))

    green_pts = [(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3)]
    seq = [
        ("catalog", ["catalog"], None),
        ("height", ["height", "--catalog", "phi_2@E1", "--point="
                    + _gauss(rng, 10, 99) + "," + _gauss(rng, 10, 99),
                    "--tol", repr(HEIGHT_TOL)], None),
        ("height_bigmap", ["height", "--map", str(bigmap), "--point", "2,1",
                           "--tol", repr(HEIGHT_TOL)], None),
        ("nt-height", ["nt-height", "--curve", "E1",
                       "--point=" + _gauss(rng, 1, 9)], None),
        ("commute", ["commute", "--catalog", "phi_1+i", "phi_1-i"], None),
        ("compose", ["compose", "--catalog", "phi_sqrt-3",
                     "phi_sqrt-3*rho"], None),
        ("ramify", ["ramify", "--catalog",
                    rng.choice(("phi_1+2i", "phi_2+i", "phi_2@E1",
                                "phi_sqrt-3"))], None),
        ("table-check", ["table-check", "--lambda",
                         rng.choice(("1,1,1", "1,2,1", "2,0,1", "0,1,3",
                                     "2,0,3"))], None),
        ("green", ["green", "--catalog", "pow_2"]
         + [f"--point={x:.6f},{y:.6f}" for x, y in green_pts],
         None),
        ("measure", ["measure", "--catalog", "phi_2@E1", "--res", "64",
                     "--format", "csv", "--window=" + window(2.0), "--out",
                     str(workdir / "measure.csv")],
         [workdir / "measure.csv", workdir / "measure.csv.json"]),
        ("density-compare", ["density-compare", "--catalog", "phi_2@E1",
                             "--depth", "6", "--seed", str(seed)], None),
        ("periodic", ["periodic", "--catalog",
                      rng.choice(("pow_2", "phi_1+i", "phi_sqrt-3")),
                      "--depth", "2"], None),
        ("julia", ["julia", "--catalog", "phi_1+i", "--res", "128",
                   "--window=" + window(2.0), "--out",
                   str(workdir / "julia.pgm")], [workdir / "julia.pgm"]),
    ]
    return {"seq": seq, "first": {}, "workdir": workdir, "peak_kb": 0}


def peak_rss_mb(inp) -> float:
    """Largest peak RSS of the invocations that ran to completion."""
    return inp["peak_kb"] / 1024.0


def _invoke(argv, workdir):
    """Run one invocation; (exit code, stdout, peak RSS in KiB), or None
    when it was killed at TIME_LIMIT_S.

    os.wait4 gives this child's own peak RSS, so the size of a child that
    was killed, which depends on where the kill caught it, stays out of
    peak_rss_mb.
    """
    out_path = workdir / "stdout.bin"
    with open(out_path, "wb") as out:
        proc = subprocess.Popen(LAUNCH + argv, stdout=out,
                                stderr=subprocess.DEVNULL, env=child_env(),
                                cwd=ROOT)
    lock = threading.Lock()
    state = {"exited": False, "killed": False}

    def kill():
        with lock:
            if not state["exited"]:
                os.kill(proc.pid, signal.SIGKILL)
                state["killed"] = True

    timer = threading.Timer(TIME_LIMIT_S, kill)
    timer.start()
    # wait without reaping, so the timer can only ever signal our child
    os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
    with lock:
        state["exited"] = True
    timer.cancel()
    timer.join()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if state["killed"]:
        return None
    return proc.returncode, out_path.read_bytes(), usage.ru_maxrss


def _content_ok(name, argv, obj) -> bool:
    try:
        return _content_check(name, argv, obj)
    except (KeyError, TypeError, IndexError):
        return False


def _content_check(name, argv, obj) -> bool:
    if name == "catalog":
        return obj["count"] == 16 == len(obj["entries"])
    if name in ("height", "height_bigmap", "nt-height"):
        return all(r["value"] >= 0 and r["error_bound"] <= HEIGHT_TOL
                   for r in obj["results"])
    if name == "commute":
        return obj["commute"] is True
    if name == "compose":
        return obj["degree"] == 9
    if name in ("ramify", "table-check"):
        return obj["match"] is True
    if name == "green":
        # pow_2: the Green function is log+|z|
        return all(abs(r["value"] - math.log(max(1.0, math.hypot(*r["point"]))))
                   <= 1e-9 for r in obj["results"])
    if name == "measure":
        return obj["nonzero_cells"] > 0
    if name == "density-compare":
        return obj["l1"] <= DENSITY_L1_LIMIT
    if name == "periodic":
        deg = {"pow_2": 2, "phi_1+i": 2, "phi_sqrt-3": 3}[argv[2]]
        return obj["count"] == deg ** 2 + 1
    if name == "julia":
        return obj["resolution"] == [128, 128]
    raise KeyError(name)


def run_pass(p1dyn, inp: dict, rec) -> None:
    for name, argv, outs in inp["seq"]:
        op = rec.run(name, lambda: rec.call(
            "cli." + name, _invoke, argv, inp["workdir"]), label=name)
        if not op.ok:
            continue
        if op.value is None:
            rec.fail(op, f"killed at the {TIME_LIMIT_S:g} s limit")
            rec.count("cli.timeouts", 1)
            continue
        code, out, rss_kb = op.value
        inp["peak_kb"] = max(inp["peak_kb"], rss_kb)
        rec.count("cli.stdout_bytes", len(out))
        if not rec.check(op, code == 0, f"exit code {code}"):
            continue
        lines = out.decode().splitlines()
        try:
            obj = json.loads(lines[0]) if len(lines) == 1 else None
        except json.JSONDecodeError:
            obj = None
        if not rec.check(op, isinstance(obj, dict)
                         and json.dumps(obj, sort_keys=True) == lines[0]
                         and obj.get("schema") == 1
                         and obj.get("command") == argv[0],
                         "stdout is not one sorted-key schema-1 JSON line"):
            continue
        rec.check(op, _content_ok(name, argv, obj), "wrong content")
        digest = hashlib.sha256(out)
        for path in outs or ():
            digest.update(path.read_bytes() if path.exists() else b"missing")
        first = inp["first"].setdefault(name, digest.hexdigest())
        rec.check(op, first == digest.hexdigest(),
                  "output differs from the first identical invocation")


def spawn_ms(repeats: int = 5) -> float:
    """Median wall time of a bare interpreter start, in ms."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=child_env(),
                       cwd=ROOT, check=True, timeout=60)
        times.append((time.perf_counter() - t0) * 1e3)
    return sorted(times)[len(times) // 2]
