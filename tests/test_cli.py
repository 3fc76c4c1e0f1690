"""Command-line behavior: dispatch, exit codes, determinism, file output."""

import argparse
import hashlib
import json
import math
import os
import random
import runpy
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import p1dyn
from p1dyn import cli, lattes, measures
from p1dyn.lattes import catalog, catalog_names
from p1dyn.ratmaps import RationalMap
from test_cli_golden import GOLDEN
from test_heights import CONJUGATED_PAIRS, conjugate, mobius

# Pythons without a cap on int-string conversion read any integer
NO_DIGIT_LIMIT = pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0,
    reason="no cap on int-to-string conversion")


def run(args, capsys):
    rc = cli.main(args)
    out = capsys.readouterr()
    return rc, out.out, out.err


def run_json(args, capsys):
    rc, out, err = run(args, capsys)
    assert rc == 0, err
    payload = json.loads(out)
    assert payload["schema"] == 1
    return payload


def map_spec_file(tmp_path, phi, name="map.json"):
    spec = {
        "field": {"d": phi.d},
        "num": cli._poly_strings(phi.num),
        "den": cli._poly_strings(phi.den),
    }
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return str(path)


# one small run of each subcommand
_ONE_RUN_EACH = [
    ["height", "--catalog", "pow_2", "--point", "7,3"],
    ["nt-height", "--point", "0"],
    ["commute", "--catalog", "pow_2", "pow_3"],
    ["compose", "--catalog", "pow_2", "pow_3"],
    ["ramify", "--catalog", "phi_1+i"],
    ["table-check", "--lambda", "2,0,3"],
    ["green", "--catalog", "pow_2", "--point", "2,0"],
    ["measure", "--catalog", "pow_2", "--res", "32"],
    ["density-compare", "--catalog", "phi_2@E1", "--depth", "3",
     "--res", "32"],
    ["periodic", "--catalog", "pow_2"],
    ["julia", "--catalog", "pow_2", "--res", "32", "--out", "{out}"],
    ["catalog"],
]


class TestDispatchCoverage:
    def subcommands(self):
        parser = cli.build_parser()
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                return list(action.choices)
        raise AssertionError("no subparsers found")

    def test_every_subcommand_registered(self):
        assert self.subcommands() == [argv[0] for argv in _ONE_RUN_EACH]

    @pytest.mark.parametrize("argv", _ONE_RUN_EACH)
    def test_main_stamps_command_and_schema(self, argv, tmp_path, capsys):
        argv = [a.format(out=tmp_path / "img.pgm") for a in argv]
        args = cli.build_parser().parse_args(argv)
        payload = args.handler(args)
        assert "command" not in payload and "schema" not in payload
        assert run_json(argv, capsys) == {
            "schema": 1, "command": argv[0], **json.loads(json.dumps(payload))
        }

    @pytest.mark.parametrize("name", ["nt-height", "ramify"])
    def test_curve_choices_come_from_the_curve_table(self, name):
        parser = cli.build_parser()
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        opt = next(a for a in sub.choices[name]._actions if a.dest == "curve")
        assert tuple(opt.choices) == tuple(lattes.CURVES) == ("E1", "E2")


class TestSpecExamples:
    def test_commute_example(self, capsys):
        payload = run_json(
            ["commute", "--catalog", "phi_1+i", "phi_1-i"], capsys
        )
        assert payload["commute"] is True
        assert payload["composition_equals"] == "phi_2@E1"

    def test_height_example(self, capsys):
        payload = run_json(
            ["height", "--catalog", "pow_2", "--point", "2,1"], capsys
        )
        r = payload["results"][0]
        assert abs(r["value"] - math.log(2)) <= 1e-9
        assert r["error_bound"] <= 1e-9 + 1e-15

    def test_table_check_example(self, capsys):
        payload = run_json(["table-check", "--lambda", "1,2,1"], capsys)
        assert payload["predicted"] == [3, 3, 3, 3]
        assert payload["computed"] == [3, 3, 3, 3]
        assert payload["match"] is True


class TestHeight:
    def test_multiple_points_and_tol(self, capsys):
        payload = run_json(
            [
                "height",
                "--catalog",
                "phi_2@E1",
                "--point",
                "2,1",
                "--point",
                "1,1",
                "--tol",
                "1e-7",
            ],
            capsys,
        )
        assert len(payload["results"]) == 2
        for r in payload["results"]:
            assert r["error_bound"] <= 1e-7
        assert payload["bad_primes"] == [2]

    def test_loose_tol_bound_keeps_the_finite_tail(self, capsys):
        # at --tol 5 the archimedean loop takes one step and the finite
        # loop none; the value is 0.4056 from the 1e-11 one, and the
        # finite tail must cover it
        loose = run_json(["height", "--catalog", "phi_1+i", "--point", "3,1",
                          "--tol", "5"], capsys)["results"][0]
        tight = run_json(["height", "--catalog", "phi_1+i", "--point", "3,1",
                          "--tol", "1e-11"], capsys)["results"][0]
        gap = abs(loose["value"] - tight["value"])
        assert gap > 0.4056
        assert loose["error_bound"] >= gap

    def test_map_file_matches_catalog(self, tmp_path, capsys):
        path = map_spec_file(tmp_path, catalog("phi_1+i"))
        a = run_json(["height", "--map", path, "--point", "3,2"], capsys)
        b = run_json(
            ["height", "--catalog", "phi_1+i", "--point", "3,2"], capsys
        )
        assert a["results"] == b["results"]

    def test_gaussian_point(self, capsys):
        payload = run_json(
            ["height", "--catalog", "phi_1+i", "--point", "1+w,1-w"], capsys
        )
        assert payload["results"][0]["value"] >= 0.0

    def test_missing_point_is_usage_error(self, capsys):
        rc, _, err = run(["height", "--catalog", "pow_2"], capsys)
        assert rc == 2
        assert "point" in err

    def test_nan_tolerance_is_one_error_line(self, capsys):
        rc, out, err = run(["height", "--catalog", "pow_2", "--point", "7,3",
                            "--tol", "nan"], capsys)
        assert rc == 1
        assert out == ""
        assert err == "error: target_error must be positive\n"


class TestNtHeight:
    def test_affine_equals_pair(self, capsys):
        a = run_json(["nt-height", "--point", "1/4"], capsys)
        b = run_json(["nt-height", "--point", "1/4,1"], capsys)
        assert a["results"][0]["value"] == b["results"][0]["value"]
        assert a["results"][0]["value"] > 0.01

    def test_torsion_is_zero(self, capsys):
        payload = run_json(["nt-height", "--point", "0,1"], capsys)
        assert payload["results"][0]["value"] == 0.0

    def test_curve_choice(self, capsys):
        payload = run_json(
            ["nt-height", "--curve", "E2", "--point", "1/3"], capsys
        )
        assert payload["curve"] == "E2"
        assert payload["results"][0]["value"] > 0.01


class TestCommute:
    @pytest.mark.parametrize(
        "case", sorted(c for c in GOLDEN if c.startswith("commute "))
    )
    def test_composes_each_way_once(self, case, capsys, monkeypatch):
        calls = []
        compose = RationalMap.compose

        def counted(a, b):
            calls.append((a, b))
            return compose(a, b)

        monkeypatch.setattr(RationalMap, "compose", counted)
        rc, out, _ = run(shlex.split(case), capsys)
        assert (rc, out) == (0, GOLDEN[case])
        assert len(calls) == 2


class TestCompose:
    def test_power_maps_compose(self, capsys):
        payload = run_json(["compose", "--catalog", "pow_2", "pow_2"], capsys)
        assert payload["degree"] == 4
        assert payload["num"] == ["0", "0", "0", "0", "1"]
        assert payload["den"] == ["1"]

    def test_output_round_trips(self, capsys):
        payload = run_json(
            ["compose", "--catalog", "phi_sqrt-3", "phi_sqrt-3*rho"], capsys
        )
        rebuilt = RationalMap.from_strings(
            payload["num"], payload["den"], payload["d"]
        )
        expected = catalog("phi_sqrt-3").compose(catalog("phi_sqrt-3*rho"))
        assert rebuilt == expected
        assert rebuilt == catalog("phi_eps")

    def test_needs_two_maps(self, capsys):
        rc, _, err = run(["compose", "--catalog", "pow_2"], capsys)
        assert rc == 2
        assert "2 map" in err


class TestRamify:
    def test_catalog_map_with_prediction(self, capsys):
        payload = run_json(["ramify", "--catalog", "phi_sqrt-3"], capsys)
        assert payload["match"] is True
        assert sum(payload["counts"]) >= payload["degree"]

    @pytest.mark.parametrize("name", [
        name for name in catalog_names()
        if p1dyn.catalog_entry(name).lam is not None
    ])
    def test_every_curve_map_matches_its_prediction(self, name, capsys):
        payload = run_json(["ramify", "--catalog", name], capsys)
        assert payload["match"] is True

    def test_map_file_with_curve(self, tmp_path, capsys):
        path = map_spec_file(tmp_path, catalog("phi_2@E1"))
        a = run_json(["ramify", "--map", path, "--curve", "E1"], capsys)
        b = run_json(["ramify", "--catalog", "phi_2@E1"], capsys)
        assert a["multiset"] == b["multiset"]
        assert "predicted" not in a

    def test_power_map_file_with_curve(self, tmp_path, capsys):
        # z^4 over Q(i) is no Lattes map; its counts are still counts
        path = tmp_path / "quartic.json"
        path.write_text('{"field": {"d": 1}, "num": ["0", "0", "0", "0", '
                        '"1"], "den": ["1"]}')
        payload = run_json(["ramify", "--map", str(path), "--curve", "E1"],
                           capsys)
        assert payload["degree"] == 4
        assert payload["counts"] == [1, 4, 1, 4]
        assert payload["multiset"] == [4, 4, 1, 1]

    def test_no_curve_is_usage_error(self, tmp_path, capsys):
        path = map_spec_file(tmp_path, catalog("pow_2"))
        rc, _, err = run(["ramify", "--map", path], capsys)
        assert rc == 2
        assert "curve" in err

    def test_curve_with_catalog_map_is_usage_error(self, capsys):
        # a catalog map names its own curve, which --curve would not move
        rc, out, err = run(
            ["ramify", "--catalog", "phi_1+i", "--curve", "E2"], capsys
        )
        assert (rc, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1


class TestTableCheck:
    def test_prediction_only_outside_catalog(self, capsys):
        payload = run_json(["table-check", "--lambda", "3,2,1"], capsys)
        assert payload["degree"] == 13
        assert payload["predicted"] == [7, 7, 7, 7]
        assert payload["computed"] is None
        assert payload["match"] is None

    def test_eisenstein_catalog_multiplier(self, capsys):
        payload = run_json(["table-check", "--lambda", "0,1,3"], capsys)
        assert payload["map"] == "phi_sqrt-3"
        assert payload["match"] is True

    def test_bad_lambda_is_usage_error(self, capsys):
        rc, _, err = run(["table-check", "--lambda", "1,2"], capsys)
        assert rc == 2

    def test_unsupported_lambda_field_is_usage_error(self, capsys):
        # the same exit code as a map file's unsupported d
        rc, out, err = run(["table-check", "--lambda", "1,2,5"], capsys)
        assert rc == 2 and out == ""
        assert err == (
            "error: --lambda '1,2,5': field d must be 0, 1 or 3, got 5\n"
        )

    def test_sqrt_part_over_rationals_is_usage_error(self, capsys):
        rc, out, err = run(["table-check", "--lambda", "1,1,0"], capsys)
        assert rc == 2 and out == ""
        assert err == "error: --lambda '1,1,0': b must be 0 for d=0\n"

    def test_gaussian_catalog_multiplier_picks_its_own_map(self, capsys):
        payload = run_json(["table-check", "--lambda", "1,-2,1"], capsys)
        assert payload["map"] == "phi_1-2i"
        assert payload["match"] is True

    def test_half_integer_eisenstein_multiplier(self, capsys):
        # -3 omega: the table reads its basis pair (3, -3) mod 2, odd norm 9
        payload = run_json(["table-check", "--lambda", "3/2,-3/2,3"], capsys)
        assert payload["map"] == "phi_eps"
        assert payload["predicted"] == [5, 5, 5, 5]
        assert payload["match"] is True

    def test_half_integer_lambda_is_domain_error(self, capsys):
        # (1 + i)/2 is no algebraic integer, so no parity row covers it
        rc, _, err = run(["table-check", "--lambda", "1/2,1/2,1"], capsys)
        assert rc == 1
        assert "parity" in err


class TestGreen:
    def test_power_map_values(self, capsys):
        payload = run_json(
            [
                "green",
                "--catalog",
                "pow_2",
                "--point",
                "2,0",
                "--point",
                "0.25,0.25",
            ],
            capsys,
        )
        vals = [r["value"] for r in payload["results"]]
        assert abs(vals[0] - math.log(2)) <= 1e-12
        assert vals[1] == 0.0

    def test_bad_complex_point(self, capsys):
        rc, _, err = run(
            ["green", "--catalog", "pow_2", "--point", "one,0"], capsys
        )
        assert rc == 2

    @pytest.mark.parametrize("point", ["nan,0", "inf,0", "0,-inf"])
    def test_non_finite_point_is_one_error_line(self, point, capsys):
        rc, out, err = run(
            ["green", "--catalog", "pow_2", "--point", point], capsys
        )
        assert rc == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_huge_iteration_count_returns_fast(self):
        # the loop stops once 2^-n underflows, so 10^8 iterations cost
        # what about 1075 do
        src = str(Path(p1dyn.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        args = ["green", "--catalog", "pow_2", "--point", "0.3,0.1"]
        runs = []
        for iters in ("100000000", "1100"):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "p1dyn.cli", *args, "--iters", iters],
                capture_output=True, text=True, env=env, timeout=60,
            )
            runs.append((time.perf_counter() - t0, proc))
        (elapsed, big), (_, small) = runs
        assert big.returncode == 0, big.stderr
        assert elapsed < 5.0
        value = json.loads(big.stdout)["results"][0]["value"]
        assert value == json.loads(small.stdout)["results"][0]["value"]


def degree_one_map(tmp_path):
    """z -> 2z, whose Green sum n*log 2 has no limit."""
    path = tmp_path / "deg1.json"
    path.write_text(json.dumps({"num": ["0", "2"], "den": ["1"]}))
    return str(path)


class TestDegreeOne:
    @pytest.mark.parametrize("args", [
        ["green", "--point", "0.5,0", "--iters", "1000"],
        ["measure", "--res", "40"],
    ])
    def test_green_is_one_error_line(self, tmp_path, capsys, args):
        rc, out, err = run(
            [args[0], "--map", degree_one_map(tmp_path), *args[1:]], capsys
        )
        assert rc == 1
        assert out == ""
        assert err == (
            "error: Green functions need a map of degree at least 2\n"
        )

    def test_periodic_points_still_run(self, tmp_path, capsys):
        payload = run_json(
            ["periodic", "--map", degree_one_map(tmp_path), "--depth", "2"],
            capsys,
        )
        assert payload["count"] == 2


class TestConstantMaps:
    """0/z is the constant map 0 and z/0 the constant map infinity."""

    @pytest.mark.parametrize("num,den,z", [
        (["0"], ["0", "1"], [0.0, 0.0]), (["0", "1"], ["0"], "inf"),
    ])
    @pytest.mark.parametrize("depth", ["1", "3"])
    def test_periodic_is_the_constant(self, tmp_path, capsys, num, den, z,
                                      depth):
        path = tmp_path / "const.json"
        path.write_text(json.dumps({"num": num, "den": den}))
        payload = run_json(
            ["periodic", "--map", str(path), "--depth", depth], capsys
        )
        assert payload["count"] == 1
        (point,) = payload["points"]
        assert point["z"] == z
        if z != "inf":
            # -0.0 == 0.0; the printed sign shows only through copysign
            assert [math.copysign(1.0, x) for x in point["z"]] == [1.0, 1.0]
        assert point["multiplier"] == [0.0, 0.0]

    def test_compose(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"num": ["0"], "den": ["0", "1"]}))
        payload = run_json(
            ["compose", "--catalog", "pow_2", "--map", str(path)], capsys
        )
        assert payload["degree"] == 0
        assert payload["num"] == [] and payload["den"] == ["1"]


def test_map_file_common_factor_cancels(tmp_path, capsys, monkeypatch):
    # (z^2 + z)/(z^2 - 1) is z/(z - 1); each file is map.json in its own
    # directory, so the "maps" key reads the same
    outs = []
    for name, num, den in (("common", ["0", "1", "1"], ["-1", "0", "1"]),
                           ("reduced", ["0", "1"], ["-1", "1"])):
        (tmp_path / name).mkdir()
        (tmp_path / name / "map.json").write_text(
            json.dumps({"num": num, "den": den}))
        monkeypatch.chdir(tmp_path / name)
        outs.append([run(["compose", *args], capsys) for args in (
            ["--map", "map.json", "map.json"],
            ["--map", "map.json", "--catalog", "pow_2"],
            ["--catalog", "pow_2", "--map", "map.json"],
        )])
    assert outs[0] == outs[1]
    assert [(rc, err) for rc, _, err in outs[0]] == [(0, "")] * 3
    assert json.loads(outs[0][0][1])["num"] == ["0", "1"]


class TestMeasure:
    def test_subnormal_window_is_one_error_line(self, capsys):
        # cells 2.5e-322 wide square to 0.0 in double precision
        rc, out, err = run(
            ["measure", "--catalog", "pow_2", "--res", "40",
             "--window", "0,1e-320,0,1e-320"],
            capsys,
        )
        assert rc == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_summary_fields(self, capsys):
        payload = run_json(
            ["measure", "--catalog", "pow_2", "--res", "48"], capsys
        )
        assert payload["resolution"] == [48, 48]
        assert payload["max_cell"] > 0
        assert "written" not in payload

    def test_grid_too_large_is_one_error_line(self, capsys):
        # 10^16 cells: numpy refuses the allocation outright
        rc, out, err = run(
            ["measure", "--catalog", "pow_2", "--res", "100000000"], capsys
        )
        assert rc == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["measure", "julia"])
    def test_grid_past_the_index_range_is_out_of_memory(
        self, tmp_path, capsys, command
    ):
        # 10^18 cells of 8 bytes: numpy's allocation fails
        out_file = tmp_path / "out"
        rc, out, err = run(
            [command, "--catalog", "pow_2", "--res", "1000000000",
             "--out", str(out_file)],
            capsys,
        )
        assert (rc, out) == (1, "")
        assert err.startswith("error: out of memory:")
        assert err.count("\n") == 1
        assert not out_file.exists()

    @pytest.mark.parametrize("argv", [
        ["measure", "--catalog", "pow_2"],
        ["julia", "--catalog", "pow_2", "--out", "{out}"],
        ["density-compare", "--catalog", "phi_2@E1"],
    ])
    def test_grid_past_the_index_range_is_refused_unallocated(
        self, tmp_path, capsys, argv
    ):
        # 2^64 cells: numpy refuses the shape with a ValueError before
        # it allocates anything, reported as out of memory
        out_file = tmp_path / "out"
        argv = [a.replace("{out}", str(out_file)) for a in argv]
        rc, out, err = run([*argv, "--res", str(2**32)], capsys)
        assert (rc, out) == (1, "")
        assert err.startswith(
            "error: out of memory: a 4294967296 x 4294967296 grid: ")
        assert err.count("\n") == 1
        assert not out_file.exists()

    def test_csv_requires_out(self, capsys, monkeypatch):
        # refused before any grid is computed: neither kernel may run
        def refuse(*args, **kwargs):
            raise AssertionError("computed a grid that cannot be printed")

        monkeypatch.setattr(measures, "green_field", refuse)
        monkeypatch.setattr(measures, "preimage_sample", refuse)
        for argv in (
            ["measure", "--catalog", "phi_2@E1", "--res", "1024"],
            ["density-compare", "--catalog", "phi_1+i", "--depth", "20",
             "--res", "512"],
        ):
            rc, out, err = run(argv + ["--format", "csv"], capsys)
            assert (rc, out) == (2, "")
            assert err == "error: --format csv needs --out PATH\n"

    def test_csv_output_deterministic(self, tmp_path, capsys):
        out = str(tmp_path / "grid.csv")
        args = [
            "measure",
            "--catalog",
            "pow_2",
            "--res",
            "48",
            "--format",
            "csv",
            "--out",
            out,
        ]
        payload = run_json(args, capsys)
        assert payload["written"] == [out, out + ".json"]
        first = open(out, "rb").read()
        sidecar = json.load(open(out + ".json"))
        assert sidecar["resolution"] == [48, 48]
        run_json(args, capsys)
        assert open(out, "rb").read() == first
        assert len(first.splitlines()) == 48

    def test_json_file_output(self, tmp_path, capsys):
        out = str(tmp_path / "grid.json")
        payload = run_json(
            ["measure", "--catalog", "pow_2", "--res", "48", "--out", out],
            capsys,
        )
        assert payload["written"] == [out]
        data = json.load(open(out))
        assert data["schema"] == 1
        total = sum(sum(row) for row in data["mass"])
        assert abs(total - 1.0) <= 1e-9


class TestDensityCompare:
    def test_lattes_histogram_close(self, capsys):
        payload = run_json(
            ["density-compare", "--catalog", "phi_2@E1", "--depth", "7"],
            capsys,
        )
        assert payload["samples"] == 4**7
        assert payload["l1"] <= 0.2

    def test_same_seed_byte_identical(self, capsys):
        args = [
            "density-compare",
            "--catalog",
            "phi_2@E1",
            "--depth",
            "6",
            "--seed",
            "5",
        ]
        rc, out1, _ = run(args, capsys)
        assert rc == 0
        rc, out2, _ = run(args, capsys)
        assert rc == 0
        assert out1 == out2

    def test_needs_curve_backed_map(self, capsys):
        rc, _, err = run(
            ["density-compare", "--catalog", "pow_2", "--depth", "4"], capsys
        )
        assert rc in (1, 2)

    def test_second_point_is_usage_error(self, capsys):
        # the histogram grows from one seed point
        rc, out, err = run(
            ["density-compare", "--catalog", "phi_2@E1", "--point", "2,0",
             "--point", "5,5"],
            capsys,
        )
        assert (rc, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1


def shift_map(tmp_path):
    """z -> z + 1, of degree 1."""
    path = tmp_path / "shift.json"
    path.write_text(json.dumps({"num": ["1", "1"], "den": ["1"]}))
    return str(path)


class TestPeriodic:
    def test_fixed_points_of_squaring(self, capsys):
        payload = run_json(
            ["periodic", "--catalog", "pow_2", "--depth", "1"], capsys
        )
        assert payload["count"] == 3
        zs = [p["z"] for p in payload["points"]]
        assert "inf" in zs
        repelling = [p for p in payload["points"] if p["repelling"]]
        assert len(repelling) == 1
        zr, zi = repelling[0]["z"]
        assert abs(zr - 1.0) <= 1e-8 and abs(zi) <= 1e-8
        mr, mi = repelling[0]["multiplier"]
        assert abs(mr - 2.0) <= 1e-8 and abs(mi) <= 1e-8

    @pytest.mark.parametrize(
        "num,den,depth", [(["1"], ["0", "1"], 2), (["0", "1"], ["1"], 1)]
    )
    def test_identity_iterate_is_one_error_line(
        self, tmp_path, capsys, num, den, depth
    ):
        path = tmp_path / "map.json"
        path.write_text(json.dumps({"num": num, "den": den}))
        rc, out, err = run(
            ["periodic", "--map", str(path), "--depth", str(depth)], capsys
        )
        assert rc == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("catalog_map,depth", [
        ("pow_3", "30000000"),
        (None, "1000000000"),
    ])
    def test_huge_period_is_refused_at_once(self, tmp_path, capsys,
                                            catalog_map, depth):
        # refused before degree^n is computed, and before z + 1, which
        # degree^n does not cap, is composed n times
        maps = (["--catalog", catalog_map] if catalog_map
                else ["--map", shift_map(tmp_path)])
        t0 = time.perf_counter()
        rc, out, err = run(["periodic", *maps, "--depth", depth], capsys)
        assert time.perf_counter() - t0 < 1.0
        assert (rc, out) == (1, "")
        assert err == "error: period capped at 200\n"

    def test_degree_one_runs_at_the_period_cap(self, tmp_path, capsys):
        payload = run_json(
            ["periodic", "--map", shift_map(tmp_path), "--depth", "200"],
            capsys,
        )
        assert payload["period"] == 200


class TestJulia:
    def test_raster_written_and_deterministic(self, tmp_path, capsys):
        out = str(tmp_path / "img.pgm")
        args = [
            "julia",
            "--catalog",
            "pow_2",
            "--res",
            "48",
            "--iters",
            "16",
            "--out",
            out,
        ]
        payload = run_json(args, capsys)
        assert payload["written"] == [out]
        first = open(out, "rb").read()
        assert first.startswith(b"P5\n")
        run_json(args, capsys)
        assert open(out, "rb").read() == first

    def test_out_required(self, capsys):
        rc, _, err = run(["julia", "--catalog", "pow_2"], capsys)
        assert rc == 2

    def test_header_comment_lines(self, tmp_path, capsys):
        out = str(tmp_path / "img.pgm")
        run_json(["julia", "--catalog", "pow_2", "--res", "32", "--iters",
                  "8", "--window", "-2,2,-1.5,1.5", "--out", out], capsys)
        head = open(out, "rb").read().split(b"\n")[:7]
        assert head == [b"P5", b"# command=julia", b"# iters=8",
                        b"# map=pow_2", b"# window=-2,2,-1.5,1.5",
                        b"32 32", b"255"]

    def test_map_path_with_line_breaks_stays_in_comments(self, tmp_path,
                                                         capsys):
        # the map label is the path; its LF and CR are written as \n and
        # \r, so no part of it is read as the size line
        spec = map_spec_file(tmp_path, catalog("pow_2"), "a\nb\r.json")
        out = str(tmp_path / "img.pgm")
        run_json(["julia", "--map", spec, "--res", "32", "--out", out],
                 capsys)
        head = open(out, "rb").read().split(b"\n32 32\n255\n")[0]
        lines = head.split(b"\n")
        assert lines[0] == b"P5"
        assert all(line.startswith(b"#") for line in lines[1:])
        assert b"# map=" + spec.replace("\n", r"\n").replace(
            "\r", r"\r").encode() in lines


# windows whose width overflows to inf, and one whose Green field does
_FAR_WINDOWS = [
    ["measure", "--catalog", "phi_1+i", "--window=-1e308,1e308,-1e308,1e308"],
    ["julia", "--catalog", "phi_1+i", "--window=-1e308,1e308,-1e308,1e308",
     "--out", "{out}"],
    ["density-compare", "--catalog", "phi_2@E1", "--depth", "2",
     "--window=-1e308,1e308,-1e308,1e308"],
    ["measure", "--catalog", "phi_1+i", "--window=1e308,1.5e308,1e308,1.5e308"],
    ["julia", "--catalog", "phi_1+i", "--window=1e308,1.5e308,1e308,1.5e308",
     "--out", "{out}"],
]

# run each argv of the JSON list argv[1] through main in a fresh
# interpreter, every warning shown, and print [rc, stdout, stderr] of each
_FAR_RUN = """
import contextlib, io, json, sys, warnings
from p1dyn import cli
warnings.simplefilter("always")
runs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    runs.append([rc, out.getvalue(), err.getvalue()])
print(json.dumps(runs))
"""


def _far_runs(argvs) -> list:
    """[rc, stdout, stderr] of each argv, run by _FAR_RUN."""
    src = str(Path(p1dyn.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _FAR_RUN, json.dumps(argvs)],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_far_windows_end_in_one_error_line(tmp_path):
    # numpy's warnings go to stderr outside pytest's filter, ahead of the
    # error line, unless the window check or green_field's workers,
    # which ignore floating-point errors, stop them
    runs = _far_runs([[a.format(out=tmp_path / "img.pgm") for a in argv]
                      for argv in _FAR_WINDOWS])
    assert [rc for rc, _, _ in runs] == [1] * len(_FAR_WINDOWS)
    for (_, out, err), argv in zip(runs, _FAR_WINDOWS):
        assert out == "" and err.count("\n") == 1, (argv, err)
    assert [err for _, _, err in runs] == (
        ["error: window must be a nonempty finite rectangle\n"] * 3
        + ["error: Green field has non-finite entries\n"] * 2)


def test_vanishing_lift_is_one_error_line(tmp_path):
    # z^2/(10^400 z^2 + 1): the lift's 10^-400 rounds to 0.0, so from the
    # second step both forms vanish, where numpy's log of zero would warn
    path = tmp_path / "vanish.json"
    path.write_text(json.dumps(
        {"num": ["0", "0", "1"], "den": ["1", "0", str(10**400)]}))
    [(rc, out, err)] = _far_runs(
        [["green", "--map", str(path), "--point", "0.5,0"]])
    assert (rc, out) == (1, "")
    assert err == ("error: Green value at (0.5+0j) is not finite: the lift "
                   "vanishes in double precision\n")


@pytest.mark.parametrize("a, b", [p for p in CONJUGATED_PAIRS
                                  if lattes.catalog_entry(p[0]).curve_name])
def test_conjugated_maps_from_files(tmp_path, capsys, a, b):
    # psi = M^-1 phi M and its partner psi' = M^-1 phi' M for a commuting
    # catalog pair, as --map files: no route of theirs takes a closed
    # form.  Every run exits 0 or 1, and 1 with exactly one error line
    d = catalog(a).d
    M, M_inv = mobius(random.Random(f"cli:{a}:{b}"), d)
    psi, partner = (map_spec_file(tmp_path, conjugate(catalog(n), M, M_inv),
                                  f"{n}.json") for n in (a, b))
    for argv in (["height", "--map", psi, "--point", "2,1"],
                 ["green", "--map", psi, "--point", "0.5,0.25"],
                 ["periodic", "--map", psi, "--depth", "1"],
                 ["commute", "--map", psi, partner]):
        rc, out, err = run(argv, capsys)
        assert rc in (0, 1), (argv, err)
        if rc:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert out == ""
        else:
            assert json.loads(out)["schema"] == 1 and err == ""
    assert json.loads(out)["commute"] is True


class TestCatalogCmd:
    def test_lists_all_entries(self, capsys):
        payload = run_json(["catalog"], capsys)
        assert payload["count"] == len(catalog_names())
        names = [e["name"] for e in payload["entries"]]
        assert names == catalog_names()
        assert {"name", "degree", "d", "multiplier", "curve"} == set(
            payload["entries"][0]
        )


class TestErrorPaths:
    def test_unknown_catalog_name(self, capsys):
        rc, _, err = run(
            ["height", "--catalog", "nope", "--point", "1,1"], capsys
        )
        assert rc == 2
        assert "nope" in err

    def test_bad_map_file_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        rc, _, err = run(
            ["height", "--map", str(path), "--point", "1,1"], capsys
        )
        assert rc == 2
        assert "line" in err

    def test_bad_coefficient_has_position(self, tmp_path, capsys):
        path = tmp_path / "badcoef.json"
        path.write_text(
            '{"field": {"d": 0}, "num": ["1", "2x"], "den": ["1"]}'
        )
        rc, _, err = run(
            ["height", "--map", str(path), "--point", "1,1"], capsys
        )
        assert rc == 2
        assert "position" in err

    @pytest.mark.parametrize(
        "field", ['[]', '"Q"', '{"d": true}', '{"d": 1.0}', '{"d": "1"}',
                  '{"d": 2}'],
    )
    def test_bad_field_is_one_error_line(self, tmp_path, capsys, field):
        # true and 1.0 compare equal to 1 but are no field tag
        path = tmp_path / "badfield.json"
        path.write_text(
            '{"field": %s, "num": ["0", "0", "1"], "den": ["1"]}' % field
        )
        rc, out, err = run(
            ["compose", "--map", str(path), "--catalog", "pow_2"], capsys
        )
        assert rc == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("body", [
        pytest.param(b'{"num": [%s], "den": [1]}' % (b"7" * 5000),
                     marks=NO_DIGIT_LIMIT),
        b"[" * 200000,
        b"\xff\xfe{}",
    ], ids=["digits", "nesting", "bytes"])
    def test_unreadable_map_file_is_one_error_line(self, tmp_path, capsys,
                                                   body):
        # an integer past the int-string digit limit, arrays nested past
        # the recursion limit, and bytes that are no UTF-8
        path = tmp_path / "bad.json"
        path.write_bytes(body)
        rc, out, err = run(["compose", "--map", str(path), str(path)],
                           capsys)
        assert (rc, out) == (2, "")
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("coeffs", ['[true]', '[1.5]', '[]', '"1"'])
    def test_map_file_error_names_path_once(self, tmp_path, capsys, coeffs):
        path = tmp_path / "badcoef.json"
        path.write_text('{"num": %s, "den": ["1"]}' % coeffs)
        rc, _, err = run(
            ["height", "--map", str(path), "--point", "1,1"], capsys
        )
        assert rc == 2
        assert err.count(str(path)) == 1

    @pytest.mark.parametrize("argv", [
        ["height", "--catalog", "pow_2", "--point", "0,0"],
        ["nt-height", "--point", "0,0"],
        ["nt-height", "--point", "0/3,0*w"],
    ])
    def test_zero_zero_point_is_usage_error(self, argv, capsys):
        rc, out, err = run(argv, capsys)
        assert (rc, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "(0 : 0)" in err

    def test_unparseable_point(self, capsys):
        rc, _, err = run(
            ["height", "--catalog", "pow_2", "--point", "2+q,1"], capsys
        )
        assert rc == 2
        assert "position" in err

    def test_domain_error_exit_one(self, capsys):
        rc, _, err = run(["ramify", "--catalog", "pow_2"], capsys)
        assert rc == 1
        assert "curve" in err

    def test_unknown_subcommand(self, capsys):
        rc, _, _ = run(["frobnicate"], capsys)
        assert rc == 2

    def test_no_arguments(self, capsys):
        rc, _, _ = run([], capsys)
        assert rc == 2

    def test_help_exits_zero(self, capsys):
        rc, _, _ = run(["--help"], capsys)
        assert rc == 0

    @pytest.mark.parametrize("args,message", [
        (["height", "--catalog", "pow_2", "--point", "1,2,3"],
         "point '1,2,3' must be two comma-separated coordinates"),
        (["green", "--catalog", "pow_2", "--point", "1"],
         "point '1' must be re,im decimals"),
        (["table-check", "--lambda", "x,0,1"],
         "--lambda 'x,0,1' needs two rationals and an integer d"),
        (["nt-height"], "nt-height needs at least one --point"),
        (["green", "--catalog", "pow_2"],
         "green needs at least one --point re,im"),
        (["density-compare", "--map", "{curve_map}"],
         "density-compare needs a --catalog map attached to a curve"),
        (["height", "--map", "{missing}", "--point", "1,1"],
         "cannot read map file {missing}: "),
        (["height", "--map", "{no_den}", "--point", "1,1"],
         "{no_den}: map spec needs 'num' and 'den' lists"),
    ])
    def test_usage_error_is_one_line(self, tmp_path, capsys, args, message):
        no_den = tmp_path / "no_den.json"
        no_den.write_text('{"num": ["1"]}')
        files = {
            "curve_map": map_spec_file(tmp_path, catalog("phi_2@E1")),
            "missing": str(tmp_path / "missing.json"),
            "no_den": str(no_den),
        }
        rc, out, err = run([a.format(**files) for a in args], capsys)
        assert rc == 2 and out == ""
        assert err.startswith("error: " + message.format(**files))
        assert err.count("\n") == 1

    @pytest.mark.parametrize("window,message", [
        ("0,1,2", "must be x0,x1,y0,y1"), ("0,1,a,2", "must be four decimals"),
    ])
    def test_bad_window(self, capsys, window, message):
        with pytest.raises(argparse.ArgumentTypeError, match=message):
            cli._parse_window(window)
        rc, out, err = run(["measure", "--catalog", "pow_2", "--window",
                            window], capsys)
        assert rc == 2 and out == ""
        assert "argument --window" in err and message in err


_OUT_COMMANDS = {
    "csv": ["measure", "--catalog", "pow_2", "--res", "32",
            "--format", "csv"],
    "json": ["measure", "--catalog", "pow_2", "--res", "32"],
    "histogram": ["density-compare", "--catalog", "phi_2@E1", "--depth",
                  "3", "--res", "32", "--format", "csv"],
    "pgm": ["julia", "--catalog", "pow_2", "--res", "32", "--iters", "8"],
}


class TestUnwritableOut:
    """An --out that cannot be written is one usage error line."""

    @pytest.mark.parametrize("kind", sorted(_OUT_COMMANDS))
    @pytest.mark.parametrize("where", ["missing_dir", "directory"])
    def test_one_error_line(self, tmp_path, capsys, kind, where):
        path = tmp_path / "missing" / "x.out"
        if where == "directory":
            path = tmp_path
        rc, out, err = run(_OUT_COMMANDS[kind] + ["--out", str(path)],
                           capsys)
        assert rc == 2 and out == ""
        assert err.startswith(f"error: cannot write {path}: ")
        assert err.count("\n") == 1 and err.count(str(path)) == 1

    def test_sidecar_is_named(self, tmp_path, capsys):
        path = tmp_path / "grid.csv"
        (tmp_path / "grid.csv.json").mkdir()
        rc, out, err = run(_OUT_COMMANDS["csv"] + ["--out", str(path)],
                           capsys)
        assert rc == 2 and out == ""
        assert err == f"error: cannot write {path}.json: Is a directory\n"
        # no CSV is left without its sidecar
        assert not path.exists()


class TestDashValues:
    """A value starting with '-' may follow its option after a space."""

    @pytest.mark.parametrize(
        "args",
        [
            ["green", "--catalog", "phi_2@E1", "--point", "-0.5,0.3"],
            ["measure", "--catalog", "pow_2", "--res", "32",
             "--window", "-1,1,-1,1"],
            ["table-check", "--lambda", "-1,1,1"],
        ],
    )
    def test_same_bytes_as_equals_spelling(self, args, capsys):
        joined = args[:-2] + [args[-2] + "=" + args[-1]]
        assert run(args, capsys) == run(joined, capsys)
        assert run(args, capsys)[0] == 0

    def test_option_is_not_taken_as_value(self, capsys):
        rc, _, err = run(
            ["height", "--catalog", "pow_2", "--point", "--tol", "1e-9"],
            capsys,
        )
        assert rc == 2
        assert "--point: expected one argument" in err


class TestBigCoefficients:
    """(10^200 z^2 + 1)/z: the certificate sizes exceed the float range."""

    def spec(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(
            json.dumps({"num": ["1", "0", str(10**200)], "den": ["0", "1"]})
        )
        return str(path)

    @pytest.mark.parametrize("tol", [1e-6, 1e-9])
    def test_height_certified(self, tmp_path, capsys, tol):
        payload = run_json(
            ["height", "--map", self.spec(tmp_path), "--point", "3,1",
             "--tol", str(tol)],
            capsys,
        )
        (result,) = payload["results"]
        assert result["error_bound"] <= tol
        assert result["value"] > 200 * math.log(10)

    def test_analytic_commands_run(self, tmp_path, capsys):
        # the float lift holds 1e200, whose float resultant overflows;
        # pytest turns numpy's overflow warnings into errors
        spec = self.spec(tmp_path)
        green = run_json(["green", "--map", spec, "--point", "0.5,0.3"],
                         capsys)
        assert all(math.isfinite(r["value"]) for r in green["results"])
        measure = run_json(["measure", "--map", spec], capsys)
        assert math.isfinite(measure["max_cell"])
        assert measure["nonzero_cells"] > 0
        out = tmp_path / "big.pgm"
        julia = run_json(["julia", "--map", spec, "--out", str(out)], capsys)
        assert julia["written"] == [str(out)]
        assert out.read_bytes().startswith(b"P5")

    def test_float_overflow_is_one_error_line(self, tmp_path, capsys):
        rc, out, err = run(
            ["periodic", "--map", self.spec(tmp_path), "--depth", "2"],
            capsys,
        )
        assert rc == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1


@NO_DIGIT_LIMIT
def test_coefficient_too_long_to_print_is_one_error_line(tmp_path, capsys):
    # 10^2500 z^2 composed with itself: the result's leading coefficient,
    # 10^7500, has more digits than Python converts to a string by
    # default, though its input's exponent is under the parser's cap
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"num": ["0", "0", "1e2500"], "den": ["1"]}))
    rc, out, err = run(["compose", "--map", str(path), str(path)], capsys)
    assert rc == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"limit of {sys.get_int_max_str_digits()}" in err


def test_huge_exponent_is_refused_before_its_power(capsys):
    # 10^999999999 would take hours to build; the parser refuses the
    # exponent first (the time is reported, not gated)
    start = time.perf_counter()
    rc, out, err = run(
        ["height", "--catalog", "pow_2", "--point", "1e999999999,1"], capsys)
    seconds = time.perf_counter() - start
    assert (rc, out) == (2, ""), f"after {seconds:.3f} s"
    assert err.startswith("error: bad rational '1e999999999'")
    assert err.count("\n") == 1


@pytest.mark.parametrize("point, reason", [
    ("1e999999999,1", "exponent of '1e999999999' exceeds "),
    ("1/0,1", "rational '1/0' has denominator 0"),
    ("1_/2,1", "invalid rational literal '1_'"),
])
def test_refused_rational_names_its_reason(point, reason, capsys):
    # the parser's own message follows the quoted text
    rc, out, err = run(["height", "--catalog", "pow_2", "--point", point],
                       capsys)
    assert (rc, out) == (2, "")
    assert err.startswith("error: bad rational ") and reason in err
    assert err.count("\n") == 1


def test_map_file_reads_signed_exponents(tmp_path, capsys):
    # coefficients with signed exponents, alone and inside an element,
    # read as the same values written as fractions
    path = tmp_path / "map.json"
    payloads = []
    for num in (["1e-3", "0", "2.5E-1+w"], ["1/1000", "0", "1/4+w"]):
        path.write_text(json.dumps(
            {"field": {"d": 1}, "num": num, "den": ["1"]}))
        payloads.append(run_json(["compose", "--map", str(path), str(path)],
                                 capsys))
    assert payloads[0] == payloads[1]
    assert payloads[0]["num"][0] == "4001/4000000+1/1000000*w"


class TestOverflowingLift:
    """(10^308 z^2 + 10^308)/z: its first form overflows near |z| = 1."""

    def test_green_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(
            {"num": [str(10**308), "0", str(10**308)], "den": ["0", "1"]}))
        rc, out, err = run(["green", "--map", str(path), "--point", "1,0"],
                           capsys)
        assert rc == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "nan" not in err.lower()


class TestModuleExecution:
    def test_python_dash_m(self):
        # run the package under test, also when only pytest's pythonpath
        # setting (not the environment) puts src/ on the import path
        src = str(Path(p1dyn.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        proc = subprocess.run(
            [sys.executable, "-m", "p1dyn.cli", "catalog"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["schema"] == 1


SMOKE = Path(__file__).resolve().parents[1] / "tools" / "smoke.py"

# run tools/smoke.py as a script in a fresh interpreter (with numpy
# blocked when argv[2] is "blocked"), then inspect the package surface;
# prints one JSON object
_SMOKE_RUN = """
import contextlib, io, json, runpy, sys, types
if sys.argv[2] == "blocked":
    sys.modules["numpy"] = None
out = io.StringIO()
rc = None
with contextlib.redirect_stdout(out):
    try:
        runpy.run_path(sys.argv[1], run_name="__main__")
    except SystemExit as exc:
        rc = exc.code
import p1dyn
report = {"rc": rc, "stdout": out.getvalue(), "dir": dir(p1dyn),
          "all": p1dyn.__all__}
if sys.argv[2] == "open":
    report["lazy"] = [n for ns in p1dyn._LAZY.values() for n in ns]
    report["unresolved"] = [n for n in p1dyn.__all__ + report["lazy"]
                            if getattr(p1dyn, n, None) is None]
    star = {}
    exec("from p1dyn import *", star)
    report["star"] = sorted(n for n in star if not n.startswith("__"))
    report["modules"] = sorted(n for n in p1dyn.__all__
                               if isinstance(star[n], types.ModuleType))
print(json.dumps(report))
"""


def _smoke_run(mode: str) -> tuple:
    src = str(Path(p1dyn.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", _SMOKE_RUN, str(SMOKE), mode],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout), proc.stderr


def test_smoke_table_with_and_without_numpy():
    exact = runpy.run_path(str(SMOKE))["EXACT"]
    report, err = _smoke_run("open")
    blocked, blocked_err = _smoke_run("blocked")
    assert report["rc"] == blocked["rc"] == 0, (err, blocked_err)
    assert "skipped" not in err
    assert "numeric rows were skipped" in blocked_err
    assert blocked_err.count("\n") == 1
    assert blocked["stdout"] == report["stdout"]

    # one JSON line per exact row, in table order, and the pinned ones
    # byte for byte
    lines = report["stdout"].splitlines(keepends=True)
    assert len(lines) == len(exact)
    pinned = [(GOLDEN[cmd], line) for (_, cmd), line in zip(exact, lines)
              if cmd in GOLDEN]
    assert len(pinned) >= 10
    for want, got in pinned:
        assert got == want
    # and the whole table as tools/smoke.md5 pins it for every Python
    md5 = hashlib.md5(report["stdout"].encode()).hexdigest()
    assert (SMOKE.parent / "smoke.md5").read_text() == f"{md5}  -\n"

    # the lazy modules and names are listed without loading them (numpy
    # was blocked), and all resolve; __all__ holds the eager names only,
    # not the lazy ones nor the modules, so a star import binds exactly
    # __all__ and no module object
    lazy = [*p1dyn._MEASURES_NAMES, *p1dyn._PERIODIC_NAMES]
    assert {"measures", "periodic", *lazy} <= set(blocked["dir"])
    assert report["unresolved"] == []
    assert report["star"] == sorted(report["all"])
    assert not set(report["lazy"]) & set(report["all"])
    assert report["modules"] == []


def test_star_import_loads_no_lazy_module():
    # in a fresh interpreter with numpy blocked, as CI runs it
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from p1dyn import *\n"
        "import p1dyn\n"
        "print([m for m in p1dyn._LAZY if 'p1dyn.' + m in sys.modules])\n"
    )
    src = str(Path(p1dyn.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("name", [
    "poly_from_strings", "lattes_triple", "distinct_preimages",
    "preimage_multiplicities",
])
def test_names_kept_in_their_modules_are_not_package_names(name):
    assert name not in dir(p1dyn)
    with pytest.raises(AttributeError, match=name):
        getattr(p1dyn, name)
