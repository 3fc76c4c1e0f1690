"""tools/pair.py against two commits of a throwaway git repository whose
perfbench/run.py is a stub: the runner's schema, order and statistics,
with no real benchmark run."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PAIR = Path(__file__).resolve().parent.parent / "tools" / "pair.py"

# prints a JSON line as run.py does: setup_s scales with SPEED, which the
# change lowers; wall_ref_s is the same on both sides; peak_rss_mb grows
# by RSS, beyond its bound; FAILED operations fail.  Each run appends its checkout and seed to
# the log named by PAIR_TEST_LOG, and a run without --trace 0 or without
# PYTHONDONTWRITEBYTECODE=1 exits 3
_STUB = """
import json, os, sys
from pathlib import Path
here = Path(__file__).resolve().parent.parent
args = sys.argv[1:]
if args[args.index("--trace") + 1] != "0" or \\
        os.environ.get("PYTHONDONTWRITEBYTECODE") != "1":
    sys.exit(3)
seed = int(args[args.index("--seed") + 1])
with open(os.environ["PAIR_TEST_LOG"], "a") as log:
    log.write(f"{here.name} {seed}\\n")
SPEED, RSS, FAILED = %s, %s, %s
print("report line")
print(json.dumps({"correct": True, "attempted": 5, "failed": FAILED, "metrics": {
    "setup_s": {"value": SPEED * (1 + 0.01 * (seed %% 3)), "unit": "s"},
    "wall_ref_s": {"value": 2.0, "unit": "s"},
    "peak_rss_mb": {"value": RSS, "unit": "MB"}}}))
"""

_SPEC = {"end_to_end": [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "wall_ref_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
]}


def _commit(repo, speed, rss, message, failed=0):
    (repo / "perfbench" / "run.py").write_text(_STUB % (speed, rss, failed))
    for args in (["add", "-A"], ["commit", "-q", "-m", message]):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                        *args], cwd=repo, check=True)
    return subprocess.run(["git", "rev-parse", "HEAD"], cwd=repo, check=True,
                          capture_output=True, text=True).stdout.strip()


def _pair(repo, *args):
    """pair.py's record and stdout in repo, and the log of the runs."""
    log = repo.parent / (repo.name + ".log")
    log.unlink(missing_ok=True)
    proc = subprocess.run(
        [sys.executable, str(PAIR), *args, "--workload", "cli",
         "--out", "out.json"],
        cwd=repo, capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PAIR_TEST_LOG=str(log)))
    assert proc.returncode == 0, proc.stderr
    return (json.loads((repo / "out.json").read_text()),
            log.read_text().split("\n")[:-1], proc.stdout)


@pytest.fixture(scope="module")
def repo(tmp_path_factory):
    """The stub repository: (path, parent, the faster change, the faster
    change that fails an operation in every run)."""
    repo = tmp_path_factory.mktemp("repo")
    subprocess.run(["git", "init", "-q"], cwd=repo, check=True)
    (repo / "perfbench").mkdir()
    (repo / "BENCHMARK.json").write_text(json.dumps(_SPEC))
    return (repo, _commit(repo, 1.0, 50.0, "parent"),
            _commit(repo, 0.8, 60.0, "make it faster"),
            _commit(repo, 0.8, 50.0, "fail faster", failed=1))


@pytest.fixture(scope="module")
def paired(repo):
    path, parent, change, _ = repo
    return (*_pair(path, "--parent", parent[:10], "--change", change,
                   "--seeds", "1-10", "--held-out", "99", "--aa"), parent)


def test_record_has_the_shared_schema(paired):
    record, _, _, parent = paired
    assert list(record) == ["change", "harness", "machine", "claim",
                            "paired_runs"]
    assert record["change"].endswith(" make it faster")
    assert parent[:7] in record["harness"]
    assert record["machine"]["simd_baseline"] is not None
    assert record["claim"]["workload"] == "cli"
    assert set(record["paired_runs"]) == {"cli_seeds_1_10",
                                          "cli_held_out_seeds_99_99"}
    first = record["paired_runs"]["cli_seeds_1_10"][0]
    assert set(first) == {"seed_or_pair", "first", "parent", "change",
                          "copy", "failed", "correct"}
    assert set(first["parent"]) == {"setup_s", "wall_ref_s", "peak_rss_mb"}


def test_every_side_runs_once_per_seed_and_each_leads_in_turn(paired):
    record, log, _, _ = paired
    runs = record["paired_runs"]["cli_seeds_1_10"]
    assert [r["seed_or_pair"] for r in runs] == list(range(1, 11))
    assert [r["first"] for r in runs[:3]] == ["parent", "change", "copy"]
    # the log lists the checkouts in the order they ran
    assert log[:6] == ["parent 1", "change 1", "copy 1",
                       "change 2", "copy 2", "parent 2"]
    assert len(log) == 3 * 11


def test_statistics_and_verdicts(paired):
    record, _, stdout, _ = paired
    rows = record["claim"]["cli_seeds_1_10"]
    setup = rows["setup_s"]
    assert setup["pairs"] == 10 and setup["pairs_won"] == 10
    assert setup["paired_median_ratio"] == pytest.approx(0.8)
    assert setup["parent_median"] == pytest.approx(1.01)
    assert setup["change_median"] == pytest.approx(0.808)
    assert setup["gain"] and setup["within_bound"] is True
    # equal values tie, and a tie counts for neither side
    wall = rows["wall_ref_s"]
    assert wall["pairs_won"] == 0
    assert not wall["gain"] and wall["within_bound"] is True
    assert rows["peak_rss_mb"]["within_bound"] is False
    # the A/A row: the copy ties the parent in every pair
    assert setup["aa"]["pairs_won"] == 0
    assert setup["aa"]["paired_median_ratio"] == 1.0
    assert not setup["aa"]["gain"]
    # one held-out pair is no claim, however it reads
    held = record["claim"]["cli_held_out_seeds_99_99"]["setup_s"]
    assert held["pairs"] == held["pairs_won"] == 1 and not held["gain"]
    assert "cli_seeds_1_10 setup_s: parent median 1.01" in stdout


def test_no_gain_where_the_change_fails_more_operations(repo):
    path, parent, _, failing = repo
    record, _, stdout = _pair(path, "--parent", parent, "--change", failing,
                              "--seeds", "1-10")
    setup = record["claim"]["cli_seeds_1_10"]["setup_s"]
    # faster in every pair, but one failed operation a run
    assert setup["pairs_won"] == 10
    assert (setup["parent_failed"], setup["change_failed"]) == (0, 10)
    assert not setup["gain"]
    assert "failed operations 0 against 10" in stdout


def _compare():
    spec = importlib.util.spec_from_file_location("pair", PAIR)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.compare


def test_no_gain_where_a_run_reads_incorrect():
    compare = _compare()
    base, other = [1.0] * 10, [0.5] * 10
    assert compare(base, other, "lower", 0.25, (0, 0), True)["gain"]
    assert not compare(base, other, "lower", 0.25, (0, 0), False)["gain"]


def test_a_bound_finer_than_the_parents_spread_is_unresolved():
    compare = _compare()
    # the parent's quartile distance is about 40% of its median
    base = [0.8, 1.2, 0.8, 1.2, 1.0, 0.8, 1.2, 0.8, 1.2, 1.0]
    mixed = [b * 1.01 for b in base]
    assert compare(base, mixed, "lower", 0.05, (0, 0), True)[
        "within_bound"] == "unresolved"
    assert compare(base, mixed, "lower", 0.5, (0, 0), True)[
        "within_bound"] is True
    # better in every run than the parent in any, however noisy
    assert compare(base, [0.7] * 10, "lower", 0.05, (0, 0), True)[
        "within_bound"] is True
    assert compare(base, [1.3] * 10, "higher", 0.05, (0, 0), True)[
        "within_bound"] is True
