import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import pwlab
from pwlab import checks
from pwlab.calibration import CALIBRATION_EPS, DEFAULT_CALIBRATION, SAFETY, calibrate
from pwlab.cli import builtin_body, run, write_json
from pwlab.geometry import GeometryError


def cli_at_blas_threads(threads: str, args: list[str]) -> str:
    """The stdout of `pwlab.cli *args` run in a subprocess at `threads` BLAS threads."""
    src = str(Path(pwlab.__file__).resolve().parents[1])
    env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "pwlab.cli", *args], env=env, check=True,
                          capture_output=True, text=True, timeout=600).stdout


def reports_at_blas_threads(tmp_path, args: list[str]) -> list[bytes]:
    """The report of `pwlab.cli *args` run in subprocesses at 1 and 2 BLAS threads."""
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.json"
        cli_at_blas_threads(threads, [*args, "--out", str(out)])
        reports.append(out.read_bytes())
    return reports


def strict_json(path) -> dict:
    """A report parsed as strict JSON: NaN, Infinity and -Infinity raise."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(Path(path).read_text(), parse_constant=refuse)


class TestDispatch:
    def test_omega_anchor_output(self, capsys):
        assert run(["omega", "--body", "ball2", "--point", "1,0"]) == 0
        assert capsys.readouterr().out.strip() == "1.228370"

    def test_omega_monte_carlo(self, capsys):
        assert run(["omega", "--body", "square", "--point", "0.5,1",
                    "--mode", "mc", "--samples", "100000", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert abs(float(out.split()[0]) - 0.5) < 0.02

    @pytest.mark.parametrize("argv", [
        ["omega", "--body", "triangle", "--point", "0.6,0.6", "--mode", "mc", "--samples", "-5"],
        ["omega", "--body", "triangle", "--point", "0.6,0.6", "--mode", "mc", "--samples", "0"],
        ["sublevel", "--body", "triangle", "--samples", "0"],
        ["sublevel", "--body", "square", "--samples", "-5"],
        ["omega", "--body", "cube", "--point", "0.5,0.5,0.5", "--mode", "mc", "--samples", "0"]])
    def test_sample_count_below_one_is_failure(self, capsys, argv):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"error: .*at least 1 sample\n", captured.err)

    def test_calibrate_writes_closed_form(self, tmp_path, capsys):
        out = tmp_path / "calib.json"
        assert run(["calibrate", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert json.loads(capsys.readouterr().out) == doc
        c = SAFETY / (4.0 + CALIBRATION_EPS ** 2)
        assert doc["containment_c"] == c and doc["bump_c1"] == c / math.sqrt(2.0)
        assert doc["eps0"] == math.sqrt(1.0 / c - 4.0)
        assert doc["frozen_default"] == DEFAULT_CALIBRATION.as_dict()
        assert {k: v for k, v in doc.items() if k != "frozen_default"} == calibrate().as_dict()
        # the containment is decided exactly, so nothing is sampled or seeded
        assert run(["calibrate", "--samples", "10"]) == 2

    @pytest.mark.parametrize("argv, dims", [
        (["omega", "--body", "square", "--point", "0.5,0.5,0.5"], (3, 2)),
        (["omega", "--body", "square", "--point", "0.5"], (1, 2)),
        (["omega", "--body", "ball2", "--point", "0.5,0.5,0.5"], (3, 2)),
        (["omega", "--body", "cube", "--mode", "mc", "--point", "0.5,0.5"], (2, 3))])
    def test_point_of_the_wrong_dimension_is_failure(self, capsys, argv, dims):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"error: (a )?%d-D points? for a %d-D body\n" % dims, captured.err)

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trial_count_below_one_is_failure(self, capsys, trials):
        assert run(["hardy", "--family", "halfline_product", "--trials", trials]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --trials must be at least 1, got {trials}\n"

    @pytest.mark.parametrize("body", ["triangle", "no_such_file"])
    def test_halfline_family_refuses_a_body(self, tmp_path, capsys, body):
        out = tmp_path / "h.json"
        assert run(["hardy", "--family", "halfline_product", "--body", body,
                    "--trials", "1", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == "error: the half-line family takes no --body\n"

    @pytest.mark.parametrize("eps, counts", [("0.4,0.4,0.4,0.4", "[7]"),
                                             ("0.4,0.39,0.38,0.37", "[7, 8]")])
    def test_sweep_over_fewer_than_four_n_is_failure(self, capsys, eps, counts):
        assert run(["nehari-sweep", "--p", "6", "--eps", eps]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: need at least 4 distinct N for a slope fit, "
                                f"the eps list gives N in {counts}\n")

    def test_nan_schatten_exponent_is_failure(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        assert run(["nehari-sweep", "--p", "nan", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == "error: Schatten exponent must satisfy p >= 1\n"

    def test_infinite_schatten_exponent_is_failure(self, tmp_path, capsys):
        out, table = tmp_path / "sweep.json", tmp_path / "sweep.csv"
        assert run(["nehari-sweep", "--p", "inf", "--out", str(out), "--csv", str(table)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists() and not table.exists()
        assert captured.err == "error: the sweep needs a finite Schatten exponent, got p = inf\n"

    def test_orthogonality_flag_is_gone(self, capsys):
        assert run(["nehari-sweep", "--p", "6", "--orthogonality"]) == 2
        assert "unrecognized arguments: --orthogonality" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["hardy", "--family", "corner_bumps", "--d", "nan"],
         "weight exponent d must be finite, got nan"),
        (["hardy", "--family", "tent_product", "--body", "square", "--d", "inf"],
         "weight exponent d must be finite, got inf"),
        (["hardy", "--family", "integrability", "--body", "ball2", "--d", "nan"],
         "weight exponent d must be finite, got nan"),
        (["omega", "--body", "triangle", "--point", "nan,0.2"], "points must be finite"),
        (["omega", "--body", "triangle", "--point", "nan,0.2", "--mode", "mc"],
         r"point \[nan 0.2\] is not finite"),
        (["simplicial", "--poly", "pyramid", "--eps", "inf"], "eps must be finite, got inf"),
        (["simplicial", "--poly", "cube", "--eps", "0.2,nan"],
         "eps must be finite, got nan"),
        # finite parameters whose result is not a finite number
        (["hardy", "--family", "integrability", "--body", "square", "--d", "100"],
         r"corner ratio inf at d=100\.0: w\^\(-d\) leaves the float range"),
        (["hardy", "--family", "corner_bumps", "--d", "100"],
         r"corner ratio inf at d=100\.0: w\^\(-d\) leaves the float range"),
        (["hardy", "--family", "corner_bumps", "--d", "-200"],
         r"corner ratio 0\.0 at d=-200\.0: w\^\(-d\) leaves the float range"),
        (["simplicial", "--poly", "pyramid", "--eps", ","],
         "simplicial sequence needs at least one eps")])
    def test_non_finite_parameter_is_failure(self, tmp_path, capsys, argv, message):
        out = tmp_path / "report.json"
        assert run(argv + (["--out", str(out)] if argv[0] != "omega" else [])) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert re.fullmatch(f"error: {message}\n", captured.err)

    def test_non_finite_report_value_writes_no_file(self, tmp_path):
        out = tmp_path / "report.json"
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_json(str(out), {"ratios": [1.0, math.nan]})
        assert not out.exists()

    def test_sweep_prints_the_n_range_of_an_ascending_ladder(self, capsys):
        assert run(["nehari-sweep", "--p", "6", "--eps", "0.15,0.2,0.3,0.4"]) == 0
        assert capsys.readouterr().out.endswith(" over N in [7, 20]\n")

    def test_unknown_command_usage_error(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_unknown_body_is_failure(self, capsys):
        assert run(["omega", "--body", "dodecahedron", "--point", "0,0"]) == 1

    @pytest.mark.parametrize("mode", ["exact", "mc"])
    def test_unbounded_body_is_failure(self, tmp_path, capsys, mode):
        path = tmp_path / "quad.json"
        path.write_text(json.dumps({"dim": 2, "halfspaces": [
            {"normal": [-1, 0], "offset": 0}, {"normal": [0, -1], "offset": 0}]}))
        assert run(["omega", "--body", str(path), "--point", "0.5,0.7", "--mode", mode]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "unbounded" in captured.err

    def test_builtin_table(self):
        for name in ("ball2", "ball3", "square", "cube", "triangle",
                     "pyramid", "halfline-model"):
            builtin_body(name)

    def test_body_file_roundtrip(self, tmp_path):
        path = tmp_path / "poly.json"
        path.write_text(json.dumps({"dim": 2, "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}))
        body = builtin_body(str(path))
        assert body.dim == 2


class TestReports:
    def test_sublevel_csv_and_json(self, tmp_path, capsys):
        out = tmp_path / "sub.json"
        csv_path = tmp_path / "sub.csv"
        code = run(["sublevel", "--body", "halfline-model", "--t-min", "1e-2",
                    "--t-max", "1e-1", "--count", "6", "--samples", "200000",
                    "--seed", "4", "--out", str(out), "--csv", str(csv_path)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert {"exponent", "residual", "config"} <= set(doc)
        header = csv_path.read_text().splitlines()[0]
        assert header == "t,measure,stderr"

    def test_triangle_sublevel_exponent(self, tmp_path):
        # polytope sublevel measures sit in the t log(1/t) regime, so the
        # fitted exponent falls below 1; the report is thread-invariant
        reports = reports_at_blas_threads(tmp_path, ["sublevel", "--body", "triangle",
                                                     "--samples", "200000", "--seed", "11"])
        assert reports[0] == reports[1]
        assert 0.75 < json.loads(reports[0])["exponent"] < 1.0

    def test_nehari_report_byte_identical(self, tmp_path):
        args = ["nehari-sweep", "--p", "6", "--eps", "0.4,0.3,0.2,0.15",
                "--seed", "7"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        doc = json.loads(a.read_text())
        assert len(doc["rows"]) == 4
        assert "log_ratio_vs_log_N_slope" in doc

    def test_nehari_report_independent_of_blas_threads(self, tmp_path):
        reports = reports_at_blas_threads(tmp_path, ["nehari-sweep", "--p", "6",
                                                     "--eps", "0.4,0.3,0.2,0.15"])
        assert reports[0] == reports[1]

    def test_orthogonal_sum_law_independent_of_blas_threads(self):
        # criterion 5: the union matrix is exactly the part matrices' direct
        # sum, decided entry for entry with no eigensolve, so the deviation is
        # 0 at any thread count
        outputs = [cli_at_blas_threads(t, ["verify", "--suite", "hankel"]) for t in ("1", "2")]
        untimed = [re.sub(r"\d+(\.\d+)?s\b", "", out) for out in outputs]
        assert untimed[0] == untimed[1]
        line, = [ln for ln in untimed[0].splitlines() if "criterion  5:" in ln]
        assert line.startswith("[PASS]") and "dev 0.0e+00" in line

    def test_halfline_report_independent_of_blas_threads(self, tmp_path):
        reports = reports_at_blas_threads(tmp_path, ["hardy", "--family", "halfline_product",
                                                     "--trials", "20", "--seed", "5"])
        assert reports[0] == reports[1]

    def test_hardy_tent_report(self, tmp_path, capsys):
        out = tmp_path / "tent.json"
        assert run(["hardy", "--family", "tent_product", "--body", "square",
                    "--d", "1.0", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert abs(doc["ratio"] - 4.0) < 0.05

    def test_integrability_only_on_the_square(self, tmp_path, capsys):
        out = tmp_path / "square.json"
        assert run(["hardy", "--family", "integrability", "--body", "square",
                    "--d", "1.5", "--out", str(out)]) == 0
        assert strict_json(out)["verdict"] == "fails-evidence"
        capsys.readouterr()
        assert run(["hardy", "--family", "integrability", "--body", "triangle",
                    "--d", "1.5"]) == 1
        assert "corner family covers only the unit square" in capsys.readouterr().err

    def test_integrability_on_the_3_ball_is_fast(self, tmp_path, capsys):
        # the closed form is radial, so the 3-ball builds no 3-D grid
        out = tmp_path / "ball3.json"
        t0 = time.monotonic()
        assert run(["hardy", "--family", "integrability", "--body", "ball3",
                    "--d", "0.4", "--out", str(out)]) == 0
        assert time.monotonic() - t0 < 1.0
        doc = strict_json(out)
        assert doc["verdict"] == "holds-evidence"
        assert doc["evidence"]["integral"] == pytest.approx(184.2040093076, rel=1e-10)
        assert capsys.readouterr().out == "ball3 d=0.4: holds-evidence\n"

    @pytest.mark.parametrize("body, d, verdict, integral", [
        ("ball2", 0.6, "holds-evidence", 103.508090782),
        ("halfline-model", 0.5, "holds-evidence", 4.0),  # 2 (2 rho)^(1-d) / (1-d), rho = 1/2
        ("ball2", 0.8, "inconclusive", None),
        ("ball3", 0.5, "inconclusive", None),
        ("halfline-model", 1.5, "inconclusive", None)])
    def test_integrability_reports(self, tmp_path, body, d, verdict, integral):
        # a divergent integral is written as null, never as Infinity
        out = tmp_path / "report.json"
        assert run(["hardy", "--family", "integrability", "--body", body,
                    "--d", str(d), "--out", str(out)]) == 0
        doc = strict_json(out)
        assert doc["verdict"] == verdict
        if integral is None:
            assert doc["evidence"] == {"integral": None}
        else:
            assert doc["evidence"]["integral"] == pytest.approx(integral, rel=1e-10)

    @pytest.mark.parametrize("body", ["triangle", "ball3"])
    def test_tent_product_only_on_unit_boxes(self, tmp_path, capsys, body):
        out = tmp_path / "tent.json"
        assert run(["hardy", "--family", "tent_product", "--body", body,
                    "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == "error: the tent product covers only translates of (0, 1)^n\n"

    @pytest.mark.parametrize("body", ["triangle", "ball2", "cube"])
    def test_corner_bumps_only_on_the_unit_square(self, tmp_path, capsys, body):
        # the family is the unit square's whatever the body, so a report
        # under another body's name would misname what it computed
        out = tmp_path / "corner.json"
        assert run(["hardy", "--family", "corner_bumps", "--body", body, "--d", "1.5",
                    "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == "error: the corner family covers only the unit square\n"

    def test_simplicial_report(self, tmp_path, capsys):
        out = tmp_path / "approx.json"
        assert run(["simplicial", "--poly", "pyramid", "--eps", "0.2,0.1",
                    "--seed", "11", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["all_checks_pass"]
        assert len(doc["stages"]) == 2
        stage = doc["stages"][0]
        assert {"vertices", "facet_incidences", "certificates",
                "containment_margin", "checks"} <= set(stage)
        assert all(len(r["rho"]) == 5 for r in stage["certificates"])

    def test_verify_single_suite(self, capsys):
        assert run(["verify", "--suite", "geometry"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] criterion 12" in out and "[PASS] criterion 13" in out
        assert "FAIL" not in out and "2/2 criteria passed" in out
        assert all(re.search(r"  \(\d+\.\ds\)$", line) for line in out.splitlines()[:2])

    def test_verify_failure_exits_one(self, capsys, monkeypatch):
        monkeypatch.setitem(checks.CRITERIA, 12,
                            lambda fast=False: checks.CheckResult(12, "forced", False, "margin -1"))
        assert run(["verify", "--suite", "geometry"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] criterion 12: forced  [margin -1]" in out
        assert "1/2 criteria passed" in out
