import hashlib
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import quasieq
from quasieq.bifunction import check_diagonal_zero, check_quasiconcave_first, check_quasiconvex_second
from quasieq.catalog import figure1_instance, get_instance, quasiconvex_variant_instance, qvi_instance
from quasieq.cli import main
from quasieq.geometry import GRID_POINT_BUDGET, Grid
from quasieq.reporting import report_from_json, report_to_json, solution_csv, verify_to_json
from quasieq.solver import EXTRA_CHECKS, verify_theorem_instance


def _cli_child(argv: list) -> subprocess.CompletedProcess:
    """``quasieq.cli.main(argv)`` in a child process with 1 GiB of address space, killed after 60 s."""
    paths = [str(Path(quasieq.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    # BLAS thread buffers would take a share of the address space
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)), OPENBLAS_NUM_THREADS="1")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    code = "import sys; from quasieq.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, timeout=60, env=env, preexec_fn=limit
    )


# images are nonempty at the file's grid of 201 but empty at grid point 0.5005 of grid 2001
HOLE_SPEC = """
[domain]
dim = 1
lower = 0.0
upper = 1.0

[map]
kind = moving_box
lower_1 = 0
upper_1 = 1000*abs(x_1 - 0.5005) - 0.1

[payload]
kind = objective
expr = abs(x_1 - 0.25)
"""


def _objective_spec(expr: str) -> str:
    """A 1-D objective problem over [0, 1] with the constant map, at grid 11."""
    return (
        "[domain]\ndim = 1\nlower = 0.0\nupper = 1.0\n\n[map]\nkind = constant\n\n"
        f"[payload]\nkind = objective\nexpr = {expr}\n\n[solver]\ngrid = 11\n"
    )


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

    @pytest.mark.parametrize("seed", [1729, 1736, 1744])
    def test_remark_matches_the_benchmark_reference(self, tmp_path, seed):
        """``quasieq verify remark`` hashes, as perfbench's gate hashes it, to the verify-exact reference digest."""
        reference = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
        digests = json.loads(reference.read_text(encoding="utf-8"))["digests"]
        out = tmp_path / "remark.json"
        code = main(["verify", "remark", "--seed", str(seed), "--out", str(out)])
        data = f"exit={code}\n".encode() + out.read_bytes()
        assert hashlib.sha256(data).hexdigest() == digests[f"cli-verify/remark --seed {seed}"]

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

    def test_default_trials_and_seed_are_the_library_defaults(self, tmp_path):
        plain, flagged = tmp_path / "plain.json", tmp_path / "flagged.json"
        assert main(["verify", "quasiconvex-variant", "--out", str(plain)]) == 0
        assert main(["verify", "quasiconvex-variant", "--trials", "400", "--seed", "1729", "--out", str(flagged)]) == 0
        assert plain.read_bytes() == flagged.read_bytes()
        inst = quasiconvex_variant_instance()
        cfg = inst.config()
        f = inst.bifunction()
        extra = {
            "qcvx_second": check_quasiconvex_second(f, inst.C),
            "qccv_first": check_quasiconcave_first(f, inst.C),
            "diagonal_zero": check_diagonal_zero(f, cfg.grid),
        }
        assert plain.read_bytes() == verify_to_json(verify_theorem_instance(inst, cfg), extra).encode("utf-8")

    def test_checks_run_selects_the_extra_checks(self, tmp_path):
        spec = tmp_path / "variant.spec"
        spec.write_text(quasiconvex_variant_instance().serialize() + "\n[checks]\nrun = diagonal_zero\n")
        out = tmp_path / "variant.json"
        assert main(["verify", str(spec), "--grid", "201", "--out", str(out)]) == 0
        checks = json.loads(out.read_text())["checks"]
        assert sorted(checks) == sorted(
            ["closed_graph", "lsc", "convex_values", "condition_ii", "condition_iii", "condition_iv", "diagonal_zero"]
        )

    def test_repeated_check_runs_once(self, tmp_path, monkeypatch):
        calls = []
        check = EXTRA_CHECKS["qccv_first"]
        monkeypatch.setitem(EXTRA_CHECKS, "qccv_first", lambda *args: calls.append(args) or check(*args))
        spec = tmp_path / "repeat.spec"
        spec.write_text(_objective_spec("abs(x_1 - 0.25)") + "\n[checks]\nrun = qccv_first, qccv_first, qccv_first\n")
        out = tmp_path / "repeat.json"
        assert main(["verify", str(spec), "--out", str(out)]) == 0
        assert len(calls) == 1
        assert "qccv_first" in json.loads(out.read_text())["checks"]

    def test_checks_run_refuses_a_theorem_check(self, tmp_path, capsys):
        spec = tmp_path / "variant.spec"
        spec.write_text(quasiconvex_variant_instance().serialize() + "\n[checks]\nrun = condition_ii\n")
        assert main(["verify", str(spec), "--grid", "201", "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [checks]") and "condition_ii" in err
        assert not (tmp_path / "out").exists()


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

    def test_exact_report_round_trips(self):
        rep = get_instance("remark").solve()
        assert report_from_json(report_to_json(rep)) == rep

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_an_infinite_eps_on_an_exact_grid(self, capsys, command):
        # exact residuals compare with the float inf, as on float grids: every grid point is a solution
        assert main([command, "remark", "--eps", "inf"]) == 0
        assert json.loads(capsys.readouterr().err.strip())["solutions"] == 101

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_stdout_carries_the_out_file_bytes(self, tmp_path, capsys, fmt):
        out = tmp_path / "figure1.out"
        assert main(["solve", "figure1", "--format", fmt, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["solve", "figure1", "--format", fmt]) == 0
        assert capsys.readouterr().out == out.read_text(encoding="utf-8")

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

    @pytest.mark.parametrize(
        "flag, value",
        [("--grid", "abc"), ("--eps", "-1"), ("--delta", "-1"), ("--trials", "0"), ("--trials", "-3"), ("--trials", "x")],
    )
    def test_bad_numeric_flag(self, capsys, flag, value):
        command = ["verify", "qvi-unit"] if flag == "--trials" else ["solve", "figure1"]
        assert main(command + [flag, value]) == 2
        err = capsys.readouterr().err
        assert f"error: argument {flag}" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--eps", "abc"], "error: argument --eps: expected a number, got 'abc'"),
            (["--grid", "5,5"], "error: --grid must have 1 or dim entries"),
        ],
    )
    def test_bad_flag_value_names_the_fault(self, capsys, flags, message):
        assert main(["solve", "figure1", *flags]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_trials_over_the_budget_exit_2_before_any_draw(self, capsys, monkeypatch):
        # one over the budget is refused by its count alone; the budget itself parses (never run here)
        from quasieq import cli, sampling

        def drew(*_args):
            raise AssertionError("the target was resolved")

        monkeypatch.setattr(cli, "_resolve_target", drew)
        over = str(sampling.TRIALS_BUDGET + 1)
        assert main(["verify", "remark", "--trials", over]) == 2
        err = capsys.readouterr().err
        assert f"error: argument --trials: must be at most sampling.TRIALS_BUDGET = {2**24}, got '{over}'" in err
        assert "Traceback" not in err
        assert cli._trials_arg(str(sampling.TRIALS_BUDGET)) == sampling.TRIALS_BUDGET

    def test_unread_spec_key_refused(self, tmp_path, capsys):
        # vertex_3 without a vertex_2 is not read, so it is refused rather than dropped
        text = _objective_spec("x_1").replace("kind = objective\nexpr = x_1", "kind = qvi_operator\nvertex_1 = 1\nvertex_3 = -1")
        spec = tmp_path / "gap.spec"
        spec.write_text(text)
        assert main(["solve", str(spec)]) == 2
        assert capsys.readouterr().err.splitlines() == ["error: [payload] unknown key(s): vertex_3"]

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
        payloads = [
            # (payload, the point the error names, or None where only solve names it)
            ("kind = objective\nexpr = power(x_1, 2000) - power(x_1, 2000)", "grid point (1.5,)" if command == "solve" else None),
            ("kind = qvi_operator\nvertex_1 = 1e300 * x_1 * 1e300", "(0.1,)"),
        ]
        for payload, named in payloads:
            spec = tmp_path / "overflow.spec"
            spec.write_text(
                "[domain]\ndim = 1\nlower = 0.0\nupper = 2.0\n\n[map]\nkind = constant\n\n"
                f"[payload]\n{payload}\n\n[solver]\ngrid = 21\n"
            )
            assert main([command, str(spec), "--out", str(tmp_path / "out")]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err
            assert named is None or named in err, err
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_infinite_map_bound_refused_before_clipping(self, tmp_path, capsys, command):
        # clipped to the domain the bound would read 1.0; solve once accepted it and verify refused it
        spec = tmp_path / "inf-bound.spec"
        spec.write_text(
            "[domain]\ndim = 1\nlower = 0.0\nupper = 1.0\n\n[map]\nkind = moving_box\nlower_1 = 0\n"
            "upper_1 = 1e300 * 1e300 * (x_1 + 1)\n\n[payload]\nkind = objective\nexpr = x_1\n\n[solver]\ngrid = 11\n"
        )
        assert main([command, str(spec), "--out", str(tmp_path / "out")]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "(0.0,)" in lines[0], lines
        assert not (tmp_path / "out").exists()

    def test_nan_inside_a_block_with_finite_corners(self, tmp_path, capsys):
        # the row clips to -5 and 5 at the block's extreme corners but is inf - inf = NaN inside it
        spec = tmp_path / "clipped.spec"
        spec.write_text(
            "[domain]\ndim = 2\nlower = 0.0, 0.0\nupper = 1.0, 1.0\n\n[map]\nkind = constant\n\n[payload]\n"
            "kind = bifunction\nexpr = max(min(1e300*(y_1 - x_1)*1e300 - (-1e300)*(y_2 - x_2)*1e300, 5), -5)\n\n"
            "[solver]\ngrid = 11, 11\n"
        )
        assert main(["solve", str(spec), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "is nan at grid point (0.0, 0.1)" in err, err
        assert "Traceback" not in err and not (tmp_path / "out").exists()

    def test_empty_image_on_the_scanned_grid(self, tmp_path, capsys):
        spec = tmp_path / "hole.spec"
        spec.write_text(HOLE_SPEC)
        assert main(["solve", str(spec), "--out", str(tmp_path / "coarse")]) == 0
        capsys.readouterr()
        assert main(["solve", str(spec), "--grid", "2001", "--out", str(tmp_path / "fine")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: image of grid point (0.5005") and "empty" in err
        assert "Traceback" not in err and not (tmp_path / "fine").exists()

    def test_oversized_grid_refused_before_any_axis(self, tmp_path, capsys, monkeypatch):
        def no_axes(grid, k):
            raise AssertionError("an axis was built")

        monkeypatch.setattr(Grid, "_axis_coords", no_axes)
        too_many = str(GRID_POINT_BUDGET + 1)
        spec = tmp_path / "huge.spec"
        spec.write_text(figure1_instance().serialize().replace("grid = 2001", f"grid = {too_many}"))
        for argv in (["solve", "figure1", "--grid", too_many], ["verify", "figure1", "--grid", too_many], ["solve", str(spec)]):
            assert main(argv + ["--out", str(tmp_path / "out")]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and f"exceeds the budget of {GRID_POINT_BUDGET}" in err
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("lower, upper", [("0.0", "0.0"), ("-1e308", "1e308")])
    def test_domain_of_zero_or_infinite_diameter(self, tmp_path, capsys, lower, upper):
        spec = tmp_path / "flat.spec"
        spec.write_text(
            f"[domain]\ndim = 1\nlower = {lower}\nupper = {upper}\n\n[map]\nkind = constant\n\n"
            "[payload]\nkind = objective\nexpr = x_1\n\n[solver]\ngrid = 11\n"
        )
        assert main(["solve", str(spec), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1 and "diameter" in err, err
        # verify once looped forever in its probe ladder here: a child with a timeout and an
        # address-space limit turns a regression into a quick failure
        verify = _cli_child(["verify", str(spec), "--out", str(tmp_path / "out")])
        assert verify.returncode == 2, verify.stderr
        assert verify.stderr.startswith("error: ") and len(verify.stderr.splitlines()) == 1, verify.stderr
        assert "diameter" in verify.stderr and not (tmp_path / "out").exists()

    def test_objective_of_201_terms_solves(self, tmp_path, capsys):
        # every chained sum was once bracketed, and CPython refuses 200 nested brackets
        spec = tmp_path / "long.spec"
        spec.write_text(_objective_spec(" + ".join(f"{k}*x_1" for k in range(1, 202))))
        assert main(["solve", str(spec), "--out", str(tmp_path / "out")]) == 0
        assert json.loads(capsys.readouterr().err)["solutions"] == 1

    @pytest.mark.parametrize(
        "expr",
        ["(" * 3000 + "x_1" + ")" * 3000, "-" * 5000 + "x_1", " + ".join(["x_1"] * 5000)],
        ids=["3000-brackets", "5000-minuses", "5000-terms"],
    )
    def test_expression_nested_too_deeply(self, tmp_path, capsys, expr):
        spec = tmp_path / "deep.spec"
        spec.write_text(_objective_spec(expr))
        assert main(["solve", str(spec), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1, err
        assert "nests deeper than 1000 levels" in err and not (tmp_path / "out").exists()

    def test_file_that_is_not_utf8(self, tmp_path, capsys):
        spec = tmp_path / "latin1.spec"
        spec.write_bytes(figure1_instance().serialize().replace("[map]", "[map] ; caf\u00e9").encode("latin-1"))
        for command in ("solve", "verify"):
            assert main([command, str(spec), "--out", str(tmp_path / "out")]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {spec} is not UTF-8 text") and len(err.splitlines()) == 1, err
            assert not (tmp_path / "out").exists()

    def test_a_line_configparser_cannot_read(self, tmp_path, capsys):
        spec = tmp_path / "no-equals.spec"
        spec.write_text(_objective_spec("x_1").replace("grid = 11", "grid 2**30 201"))
        for command in ("solve", "verify"):
            assert main([command, str(spec)]) == 2
            err = capsys.readouterr().err
            assert err == "error: bad problem definition: line 14: 'grid 2**30 201' is not a key = value line\n"

    def test_one_parser_for_every_call(self, tmp_path, capsys):
        # the parser is built once per process: calls in turn, with different flags, give what fresh processes give
        calls = [
            ["solve", "figure1", "--grid", "101", "--format", "json"],
            ["verify", "quasiconvex-variant", "--grid", "41", "--trials", "60", "--seed", "11"],
            ["verify", "remark", "--trials", "0"],
            ["solve", "figure1", "--format", "csv"],
        ]
        for argv in calls:
            code = main(argv)
            out, err = capsys.readouterr()
            child = _cli_child(argv)
            assert (code, out) == (child.returncode, child.stdout)
            if code == 2:  # the usage message too; a run's summary holds its wall time
                assert err == child.stderr

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
