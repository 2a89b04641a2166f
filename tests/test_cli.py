import json

import pytest

from quasieq.catalog import figure1_instance, qvi_instance
from quasieq.cli import main
from quasieq.reporting import report_from_json, report_to_json, solution_csv


class TestCatalogCommands:
    def test_list_names(self, capsys):
        assert main(["catalog", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("figure1", "quasiconvex-variant", "remark", "qvi-unit"):
            assert name in out

    def test_figure1_empty_csv_with_gap_floor(self, capsys, tmp_path):
        out = tmp_path / "fig1.csv"
        code = main(["catalog", "run", "figure1", "--eps", "0.05", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines == ["index,x_1,membership_residual,min_f,gap,status"]
        summary = json.loads(capsys.readouterr().err.strip())
        assert summary["solutions"] == 0
        assert summary["min_gap_over_fixed_points"] == pytest.approx(0.1, abs=0.005)

    def test_quasiconvex_variant_single_row(self, capsys, tmp_path):
        out = tmp_path / "variant.csv"
        assert main(["catalog", "run", "quasiconvex-variant", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[0] == "0" and fields[1] == "1"
        assert fields[-1] == "ok"


class TestVerifyCommand:
    def test_remark_verdict_triple(self, tmp_path):
        out = tmp_path / "remark.json"
        assert main(["verify", "remark", "--seed", "1729", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["checks"]["condition_ii"]["verdict"] == "NO_VIOLATION_FOUND"
        assert doc["checks"]["qcvx_second"]["verdict"] == "FAIL"
        assert doc["checks"]["diagonal_zero"]["verdict"] == "FAIL"
        assert doc["anomaly"] is False

    def test_anomaly_exit_code(self, tmp_path):
        # a 2-point grid has no near-fixed points: all checks clean, no solutions
        out = tmp_path / "anomaly.json"
        code = main(["verify", "quasiconvex-variant", "--grid", "2", "--out", str(out)])
        assert code == 3
        doc = json.loads(out.read_text())
        assert doc["anomaly"] is True

    def test_clean_verify_exit_zero(self, tmp_path):
        out = tmp_path / "variant.json"
        code = main(["verify", "quasiconvex-variant", "--grid", "201", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert all(
            c["verdict"] == "NO_VIOLATION_FOUND"
            for name, c in doc["checks"].items()
            if name in ("closed_graph", "lsc", "convex_values", "condition_ii", "condition_iii", "condition_iv")
        )


class TestSolveCommand:
    def test_spec_file_csv_and_json(self, tmp_path):
        spec = tmp_path / "problem.spec"
        spec.write_text(figure1_instance().serialize())
        out_csv = tmp_path / "a.csv"
        out_json = tmp_path / "a.json"
        assert main(["solve", str(spec), "--eps", "0.05", "--out", str(out_csv)]) == 0
        assert main(["solve", str(spec), "--eps", "0.05", "--format", "json", "--out", str(out_json)]) == 0
        doc = json.loads(out_json.read_text())
        assert doc["problem_kind"] == "QOPT"
        assert doc["solutions"] == []
        assert doc["min_gap_over_fixed_points"] == pytest.approx(0.1, abs=0.005)

    def test_json_report_round_trips(self, tmp_path):
        inst = qvi_instance(0)
        rep = inst.solve(inst.config(points_per_axis=(101,)))
        text = report_to_json(rep)
        assert report_from_json(text) == rep

    def test_gap_column_empty_for_qvi(self, tmp_path):
        inst = qvi_instance(0)
        rep = inst.solve(inst.config(points_per_axis=(101,)))
        csv = solution_csv(rep, 1)
        lines = csv.splitlines()
        assert lines[0] == "index,x_1,membership_residual,min_f,gap,status"
        assert lines[1].split(",")[4] == ""

    def test_twelve_significant_digits(self):
        inst = qvi_instance(0)
        rep = inst.solve(inst.config(points_per_axis=(7,), eps=1.0))
        csv = solution_csv(rep, 1)
        row = csv.splitlines()[2]
        x = row.split(",")[1]
        assert x == f"{1/6 * 1.0:.12g}"

    def test_byte_identical_reruns(self, tmp_path):
        spec = tmp_path / "problem.spec"
        spec.write_text(figure1_instance().serialize())
        outs = []
        for name in ("one.csv", "two.csv"):
            out = tmp_path / name
            assert main(["solve", str(spec), "--grid", "501", "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestExitCodes:
    def test_unknown_target(self, capsys):
        assert main(["solve", "no-such-thing"]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert main(["solve", "figure1", "--frobnicate"]) == 2

    def test_unknown_subcommand(self, capsys):
        assert main(["explode"]) == 2

    def test_bad_spec_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.spec"
        bad.write_text("[domain]\ndim = banana\n")
        assert main(["solve", str(bad)]) == 2

    @pytest.mark.parametrize("flag, value", [("--grid", "abc"), ("--eps", "-1"), ("--delta", "-1")])
    def test_bad_numeric_flag(self, capsys, flag, value):
        assert main(["solve", "figure1", flag, value]) == 2
        err = capsys.readouterr().err
        assert f"error: argument {flag}" in err and "Traceback" not in err

    @pytest.mark.parametrize("old, new", [("grid = 2001", "grid = abc"), ("eps = 0.05", "eps = abc")])
    def test_bad_spec_number(self, tmp_path, capsys, old, new):
        text = figure1_instance().serialize()
        assert old in text
        spec = tmp_path / "bad.spec"
        spec.write_text(text.replace(old, new))
        assert main(["solve", str(spec)]) == 2
        assert capsys.readouterr().err.startswith("error: [solver]")

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_non_finite_objective(self, tmp_path, capsys, command):
        spec = tmp_path / "overflow.spec"
        spec.write_text(
            "[domain]\ndim = 1\nlower = 0.0\nupper = 2.0\n\n[map]\nkind = constant\n\n"
            "[payload]\nkind = objective\nexpr = power(x_1, 2000) - power(x_1, 2000)\n\n"
            "[solver]\ngrid = 21\n"
        )
        assert main([command, str(spec), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        if command == "solve":
            assert "grid point (1.5,)" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "figure1", "--seed", "3"],
            ["catalog", "run", "figure1", "--seed", "3"],
            ["verify", "remark", "--format", "json"],
            ["solve", "figure1", "--workers", "2"],
        ],
    )
    def test_flag_only_on_command_that_reads_it(self, capsys, argv):
        assert main(argv) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
