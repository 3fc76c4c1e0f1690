"""Shared machinery of the p1dyn benchmark: op recording, spans, statistics,
set-up timing and the environment record.

Every workload is a closed loop run by one caller: each operation starts
when the previous one has returned.  An operation is one step of the
workload's fixed sequence (one public API call, or one `p1dyn`
invocation); the calls it makes into the package's modules are recorded
as spans when tracing is on.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# One caller and no BLAS pool: OpenBLAS counts the calling thread as one
# of its threads, so a cap of 1 keeps every process at a single compute
# thread, below nproc.
BLAS_THREADS = 1
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": str(BLAS_THREADS),
    "OMP_NUM_THREADS": str(BLAS_THREADS),
    "MKL_NUM_THREADS": str(BLAS_THREADS),
}

LAYERS = ("quadfield", "ratmaps", "lattes", "heights", "measures", "cli")

# fresh-interpreter imports per run, spread over the run (see run.py);
# set-up is reported as their median at the reference speed
SETUP_REPEATS = 6
IMPORTTIME_REPEATS = 3


class SourceMissing(RuntimeError):
    """The checkout holds no p1dyn sources to benchmark."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def check_source() -> None:
    if not (SRC / "p1dyn" / "__init__.py").is_file():
        raise SourceMissing(f"no p1dyn package under {SRC}")


def import_p1dyn():
    """Import p1dyn from this checkout's sources, never from elsewhere."""
    check_source()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import p1dyn

    where = Path(p1dyn.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SourceMissing(f"p1dyn imported from {where}, not from {SRC}")
    return p1dyn


# ------------------------------------------------------------ recording


class Op:
    __slots__ = ("kind", "label", "ok", "value", "reason", "seconds",
                 "slowness")

    def __init__(self, kind, label=None):
        self.kind = kind
        self.label = label or kind
        self.ok = True
        self.value = None
        self.reason = None
        self.seconds = 0.0
        self.slowness = 1.0


class Recorder:
    """Times operations; with tracing on, also keeps one span per call.

    A span is (name, start_ns, end_ns, parent, op_id).  Op spans are the
    roots; the calls an op makes into a layer are its children.  Spans
    stay in memory until the run writes them out.  Ops whose label is in
    omit are neither run nor recorded.  Given a probe mix, the speed probes
    run between ops, once the ops since the last probe have used the
    largest PROBE_EVERY_S of the mix, outside the ops' time; probe_s is
    their total time.  The ops between two probes take the
    mean of the two as their slowness, since the machine's speed while
    they ran lies between what the probes saw on either side.
    """

    def __init__(self, trace: bool, omit=(), probe_mix=None):
        self.trace = trace
        self.omit = omit
        self.probe_mix = probe_mix
        self._probe_every = max((PROBE_EVERY_S[k] for k in probe_mix or ()),
                                default=0.0)
        self.probe_s = 0.0
        self._unprobed: list = []
        self._last_slowness = None
        self.ops: list = []
        self.spans: list = []
        self.counters: dict = {}
        self._parent = -1
        self._op_id = -1

    def count(self, name: str, n) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def call(self, name: str, fn, *args, **kwargs):
        """One call into a layer; name is '<module>.<function>'."""
        if not self.trace:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        self.spans.append(None)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[idx] = (
                name, t0, time.perf_counter_ns(), self._parent, self._op_id
            )

    def run(self, kind: str, fn, label=None) -> Op:
        """Run one operation; an exception fails it and does not stop the run.

        kind groups ops for reporting; label names this one op when a
        known defect has to be told apart from the rest of its kind.  An
        omitted op comes back failed and unrecorded, so that callers skip
        their checks on it.
        """
        op = Op(kind, label)
        if op.label in self.omit:
            op.ok = False
            op.reason = "omitted"
            return op
        op_id = len(self.ops)
        self.ops.append(op)
        idx = len(self.spans)
        if self.trace:
            self.spans.append(None)
            self._parent, self._op_id = idx, op_id
        t0 = time.perf_counter_ns()
        try:
            op.value = fn()
        except Exception as exc:  # noqa: BLE001 - the run must go on
            op.ok = False
            op.reason = "raised " + type(exc).__name__
        t1 = time.perf_counter_ns()
        op.seconds = (t1 - t0) * 1e-9
        if self.trace:
            self.spans[idx] = ("op." + kind, t0, t1, -1, op_id)
            self._parent = self._op_id = -1
        if self.probe_mix:
            self._unprobed.append(op)
            if sum(o.seconds for o in self._unprobed) >= self._probe_every:
                self.probe_pending()
        return op

    def probe_pending(self) -> None:
        """Probe the machine for the ops run since the last probe."""
        if not self._unprobed:
            return
        t0 = time.perf_counter()
        slowness = probe(self.probe_mix,
                         sum(op.seconds for op in self._unprobed))
        before = self._last_slowness or slowness
        for op in self._unprobed:
            op.slowness = (before + slowness) / 2
        self._last_slowness = slowness
        self._unprobed = []
        self.probe_s += time.perf_counter() - t0

    @staticmethod
    def fail(op: Op, reason: str) -> None:
        if op.ok:
            op.ok = False
            op.reason = reason

    def check(self, op: Op, condition: bool, reason: str) -> bool:
        """Oracle verdict on an op that returned; a mismatch fails it."""
        if op.ok and not condition:
            self.fail(op, reason)
        return op.ok

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for i, (name, t0, t1, parent, op_id) in enumerate(self.spans):
                f.write(json.dumps({
                    "id": i, "name": name, "start_ns": t0, "end_ns": t1,
                    "parent": parent, "op": op_id,
                }) + "\n")


def span_table(spans) -> dict:
    """Per span name: call count, total and self seconds, durations.

    Self time is a span's duration minus the time its children cover;
    children of one op never overlap, since the caller is sequential.
    """
    child_ns = [0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0
    table: dict = {}
    for i, (name, t0, t1, _, _) in enumerate(spans):
        row = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                      "durations": []})
        dur = (t1 - t0) * 1e-9
        row["calls"] += 1
        row["s"] += dur
        row["self_s"] += dur - child_ns[i] * 1e-9
        row["durations"].append(dur)
    return table


def layer_self_seconds(table: dict) -> dict:
    """Self time per layer; op spans are the benchmark's own code."""
    out = {layer: 0.0 for layer in LAYERS + ("bench",)}
    for name, row in table.items():
        layer = name.split(".", 1)[0]
        out["bench" if layer == "op" else layer] += row["self_s"]
    return out


# ---------------------------------------------------------- calibration
#
# The shared host's speed drifts by half and more, within seconds and over
# minutes, in user CPU time as much as in wall time.  Fixed probes, timed
# between ops, see the same drift, so an op's time divided by the probes'
# slowness (their time over their time at rest) is the op's time at the
# reference speed.  The probes do no p1dyn work: a change to the
# package moves the op times and not the probes.
#
# Three probes, because the drift hits three kinds of work differently:
#   python  Fraction sums, interpreter-bound like the exact layers;
#   memory  numpy on fresh 1 MiB arrays: page faults and memory traffic;
#   spawn   a fresh interpreter that imports numpy, timed from outside:
#           process start-up and module loading, which the in-process
#           probes do not follow (README.md).
# Each workload raises each probe's slowness to a power (PROBE_MIX): the
# share of the drift that probe sees which its ops follow.  The ops follow
# it only in part where a share of their time (memory stalls, page faults)
# drifts less than a small probe does; the powers were fitted over the
# recorded runs (README.md).

# each probe block's time on the reference machine (README.md), so that
# wall_ref_s reads in seconds there
PROBE_REF_S = {"python": 2.0e-4, "memory": 8.0e-4, "spawn": 0.15}
# one block of a probe per this much op time, so that a long op gets a
# longer look at the machine; probes cost about 5-10 % of the op time
PROBE_EVERY_S = {"python": 0.02, "memory": 0.02, "spawn": 2.0}

_GRID = []


def _python_block() -> None:
    acc = Fraction(0)
    for i in range(1, 60):
        acc += Fraction(i % 17 + 1, i + 3)


def _memory_block() -> None:
    if not _GRID:
        import numpy as np

        axis = np.linspace(-0.5, 0.5, 256)
        _GRID.append(axis[:, None] + 1j * axis[None, :])
    z = _GRID[0].copy()
    for _ in range(4):
        z = z * z + 0.1j


def _spawn_block() -> None:
    subprocess.run([sys.executable, "-c", "import numpy"], env=child_env(),
                   cwd=ROOT, capture_output=True, timeout=60, check=True)


PROBE_BLOCKS = {"python": _python_block, "memory": _memory_block,
                "spawn": _spawn_block}


def probe(mix: dict, op_seconds: float) -> float:
    """Slowness of the machine now, as the ops feel it: over a look sized
    to the ops, the product of each probe's block time over its time at
    rest, raised to the probe's power in the mix."""
    slowness = 1.0
    for name, power in mix.items():
        n = max(1, int(op_seconds / PROBE_EVERY_S[name]))
        block = PROBE_BLOCKS[name]
        t0 = time.perf_counter()
        for _ in range(n):
            block()
        block_s = (time.perf_counter() - t0) / n
        slowness *= (block_s / PROBE_REF_S[name]) ** power
    return slowness


# ----------------------------------------------------------- statistics


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values):
    """Highest whole percentile with at least ten samples beyond it.

    Returns (percentile, value, samples_beyond) by the nearest-rank rule,
    or None when there are too few samples to have one.
    """
    n = len(values)
    if n < 11:
        return None
    q = math.floor(100.0 * (n - 10) / n)
    rank = max(1, math.ceil(q / 100.0 * n))
    ordered = sorted(values)
    return q, ordered[rank - 1], n - rank


# --------------------------------------------------------------- set-up

_IMPORT_SNIPPET = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "import p1dyn\n"
    "sys.stdout.write(repr(time.perf_counter() - t))\n"
)


def _spawn_import(extra_flags=()) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *extra_flags, "-c", _IMPORT_SNIPPET],
        capture_output=True, text=True, env=child_env(), cwd=ROOT,
        timeout=120, check=True,
    )


def warm_import() -> None:
    """One untimed import, which fills the bytecode cache as an installed
    package would have it."""
    _spawn_import()


# an import is start-up and module loading, so the spawn probe times it
SETUP_PROBE = {"spawn": 0.75}


def measure_setup(repeats: int) -> list:
    """`import p1dyn` in `repeats` fresh interpreters: per import, its wall
    seconds and its seconds at the reference speed, the wall time divided
    by the mean of the spawn probes just before and just after it."""
    out = []
    before = probe(SETUP_PROBE, 0.0) if repeats else None
    for _ in range(repeats):
        wall = float(_spawn_import().stdout)
        after = probe(SETUP_PROBE, 0.0)
        out.append((wall, wall / ((before + after) / 2)))
        before = after
    return out


_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|(\s*)(\S+)")


def measure_import_layers() -> dict:
    """Import-time split from `-X importtime`, medians over fresh imports.

    sympy, numpy and mpmath are cumulative times of their first import;
    the catalog build is the self time of p1dyn.lattes, whose module body
    builds the 16 catalog maps.
    """
    keys = {"sympy": ("setup.sympy_ms", 1), "numpy": ("setup.numpy_ms", 1),
            "mpmath": ("setup.mpmath_ms", 1),
            "p1dyn.lattes": ("lattes.catalog_build_ms", 0)}
    samples: dict = {name: [] for name, _ in keys.values()}
    for _ in range(IMPORTTIME_REPEATS):
        err = _spawn_import(("-X", "importtime")).stderr
        seen = set()
        for line in err.splitlines():
            m = _IMPORTTIME.match(line)
            if m and m.group(4) in keys and m.group(4) not in seen:
                seen.add(m.group(4))
                name, col = keys[m.group(4)]
                samples[name].append(int(m.group(1 + col)) / 1000.0)
    return {name: median(v) for name, v in samples.items()}


# ---------------------------------------------------------- environment


def _git_commit() -> str:
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "p1dyn").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _version(dist: str) -> str:
    from importlib import metadata

    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "missing"


def environment(seed: int, seed_role: str) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "sympy": _version("sympy"),
        "mpmath": _version("mpmath"),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "seed_role": seed_role,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "machine": platform.machine(),
    }


def thread_count() -> int:
    """Threads of this process now (Linux), to show the BLAS cap held."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0
