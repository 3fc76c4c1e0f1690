"""Command-line behavior: dispatch, exit codes, determinism, file output."""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import p1dyn
from p1dyn import cli
from p1dyn.lattes import catalog, catalog_names
from p1dyn.ratmaps import RationalMap


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


class TestDispatchCoverage:
    def subcommands(self):
        parser = cli.build_parser()
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                return set(action.choices)
        raise AssertionError("no subparsers found")

    def test_every_subcommand_registered(self):
        assert self.subcommands() == set(cli.OPERATIONS)

    def test_each_operation_has_exactly_one_subcommand(self):
        seen = {}
        for name, (_, reaches) in cli.OPERATIONS.items():
            for op in reaches:
                assert op not in seen, f"{op} under {name} and {seen[op]}"
                seen[op] = name
        assert len(seen) >= 12

    def test_operations_resolve(self):
        for _, reaches in cli.OPERATIONS.values():
            for dotted in reaches:
                obj = p1dyn
                for part in dotted.split("."):
                    obj = getattr(obj, part)
                assert callable(obj), dotted


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

    def test_map_file_with_curve(self, tmp_path, capsys):
        path = map_spec_file(tmp_path, catalog("phi_2@E1"))
        a = run_json(["ramify", "--map", path, "--curve", "E1"], capsys)
        b = run_json(["ramify", "--catalog", "phi_2@E1"], capsys)
        assert a["multiset"] == b["multiset"]
        assert "predicted" not in a

    def test_no_curve_is_usage_error(self, tmp_path, capsys):
        path = map_spec_file(tmp_path, catalog("pow_2"))
        rc, _, err = run(["ramify", "--map", path], capsys)
        assert rc == 2
        assert "curve" in err


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

    def test_half_integer_lambda_is_domain_error(self, capsys):
        rc, _, err = run(["table-check", "--lambda", "1/2,1/2,3"], capsys)
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


class TestMeasure:
    def test_summary_fields(self, capsys):
        payload = run_json(
            ["measure", "--catalog", "pow_2", "--res", "48"], capsys
        )
        assert payload["resolution"] == [48, 48]
        assert payload["max_cell"] > 0
        assert "written" not in payload

    def test_csv_requires_out(self, capsys):
        rc, _, err = run(
            ["measure", "--catalog", "pow_2", "--format", "csv"], capsys
        )
        assert rc == 2

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

    def test_height_certified(self, tmp_path, capsys):
        payload = run_json(
            ["height", "--map", self.spec(tmp_path), "--point", "3,1",
             "--tol", "1e-6"],
            capsys,
        )
        (result,) = payload["results"]
        assert result["error_bound"] <= 1e-6
        assert result["value"] > 200 * math.log(10)

    def test_float_overflow_is_one_error_line(self, tmp_path, capsys):
        rc, out, err = run(
            ["periodic", "--map", self.spec(tmp_path), "--depth", "2"],
            capsys,
        )
        assert rc == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1


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
