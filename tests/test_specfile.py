import pytest

from quasieq.catalog import ProblemInstance, figure1_instance
from quasieq.errors import InstanceDefinitionError, SpecError
from quasieq.specfile import DEFAULT_EPS, DEFAULT_GRID, build_instance, load_spec

MINIMAL = """
[domain]
dim = 1
lower = 0.0
upper = 1.0

[map]
kind = constant

[payload]
kind = objective
expr = abs(x_1 - 0.25)
"""


class TestLoadSpec:
    def test_figure1_round_trip(self):
        inst = figure1_instance()
        text = inst.serialize()
        spec = load_spec(text)
        again = build_instance(spec, name="figure1")
        assert again.serialize() == text
        assert spec.grid_default == (2001,)

    def test_the_file_loads_into_one_instance(self):
        spec = load_spec(MINIMAL + "\n[checks]\nrun = diagonal_zero\n")
        assert isinstance(spec, ProblemInstance) and spec.name == "spec"
        assert spec.checks_run == ("diagonal_zero",)
        renamed = build_instance(spec, name="minimal")
        assert renamed.name == "minimal" and spec.name == "spec"
        assert (renamed.C, renamed.K, renamed.payload) == (spec.C, spec.K, spec.payload)
        assert renamed.checks_run == spec.checks_run

    @pytest.mark.parametrize(
        "text, message",
        [
            (MINIMAL + "grid 2**30 201\n", "line 13: 'grid 2**30 201' is not a key = value line"),
            ("dim = 1" + MINIMAL, "line 1: 'dim = 1' comes before any [section]"),
            (MINIMAL.replace("dim = 1", "dim = 1\ndim = 2"), "line 4: option 'dim' in section 'domain' already exists"),
            (MINIMAL + "[map]\nkind = constant\n", "line 13: section 'map' already exists"),
        ],
        ids=["no-equals", "no-section-header", "duplicate-option", "duplicate-section"],
    )
    def test_parse_error_on_one_line(self, text, message):
        with pytest.raises(SpecError) as err:
            load_spec(text)
        assert str(err.value) == f"bad problem definition: {message}"

    def test_defaults_applied(self):
        spec = load_spec(MINIMAL)
        assert spec.grid_default == (DEFAULT_GRID,)
        assert spec.eps_default == DEFAULT_EPS
        assert spec.delta_default == 0.0

    def test_missing_section(self):
        with pytest.raises(SpecError):
            load_spec("[domain]\ndim = 1\nlower = 0\nupper = 1\n")

    def test_bad_map_kind(self):
        bad = MINIMAL.replace("kind = constant", "kind = fancy")
        with pytest.raises(SpecError):
            load_spec(bad)

    def test_undeclared_variable_in_objective(self):
        bad = MINIMAL.replace("abs(x_1 - 0.25)", "abs(y_1 - 0.25)")
        with pytest.raises(SpecError) as err:
            load_spec(bad)
        assert "y_1" in str(err.value)

    def test_dimension_indexed_variable(self):
        bad = MINIMAL.replace("abs(x_1 - 0.25)", "x_2 + 1")
        with pytest.raises(SpecError):
            load_spec(bad)

    def test_exact_kind_rejected(self):
        bad = MINIMAL.replace("dim = 1", "dim = 1\nscalar = exact")
        with pytest.raises(SpecError) as err:
            load_spec(bad)
        assert "catalog" in str(err.value)

    @pytest.mark.parametrize("scalar", ["complex", "float", "Real", ""])
    def test_scalar_loads_only_as_real(self, scalar):
        assert load_spec(MINIMAL.replace("dim = 1", "dim = 1\nscalar = real")).C == load_spec(MINIMAL).C
        with pytest.raises(SpecError) as err:
            load_spec(MINIMAL.replace("dim = 1", f"dim = 1\nscalar = {scalar}"))
        assert str(err.value) == f"[domain] scalar must be real, got {scalar!r}"

    @pytest.mark.parametrize("checks_run", [("diagonal_zero",), ("qccv_first", "qcvx_second"), ()])
    def test_serialize_writes_the_checks_it_loaded(self, checks_run):
        text = MINIMAL + "\n[checks]\nrun = " + ", ".join(checks_run) + "\n"
        spec = load_spec(text)
        assert spec.checks_run == checks_run
        again = load_spec(spec.serialize())
        assert again.checks_run == checks_run and again.serialize() == spec.serialize()

    def test_default_checks_serialize_without_a_checks_section(self):
        spec = load_spec(MINIMAL)
        assert "[checks]" not in spec.serialize()
        assert load_spec(spec.serialize()).checks_run == spec.checks_run

    def test_parse_error_carries_context(self):
        bad = MINIMAL.replace("abs(x_1 - 0.25)", "abs(x_1 - )")
        with pytest.raises(SpecError) as err:
            load_spec(bad)
        assert "position" in str(err.value)

    def test_qvi_payload_vertices(self):
        text = MINIMAL.replace(
            "kind = objective\nexpr = abs(x_1 - 0.25)",
            "kind = qvi_operator\nvertex_1 = 1.0\nvertex_2 = 2*x_1 + 0.5",
        )
        spec = load_spec(text)
        assert len(spec.payload.vertex_exprs) == 2
        inst = build_instance(spec)
        assert inst.payload.vertices((0.25,)) == ((1.0,), (1.0,))

    def test_checks_section(self):
        assert load_spec(MINIMAL).checks_run == ("qcvx_second", "qccv_first", "diagonal_zero")
        text = MINIMAL + "\n[checks]\nrun = diagonal_zero, qcvx_second\n"
        assert load_spec(text).checks_run == ("diagonal_zero", "qcvx_second")
        # verify always runs the six theorem checks, so run cannot name them
        with pytest.raises(SpecError, match="condition_ii.*always runs the six"):
            load_spec(MINIMAL + "\n[checks]\nrun = condition_ii, qcvx_second\n")
        # verify takes its trials and seed from --trials and --seed only
        for line, flag in (("trials = 50", "--trials"), ("seed = 3", "--seed")):
            with pytest.raises(SpecError) as err:
                load_spec(text + line + "\n")
            assert "[checks]" in str(err.value) and flag in str(err.value)

    def test_repeated_check_name_runs_once(self):
        text = MINIMAL + "\n[checks]\nrun = qccv_first, qccv_first, diagonal_zero, qccv_first\n"
        assert load_spec(text).checks_run == ("qccv_first", "diagonal_zero")

    def test_unknown_checks_key_rejected(self):
        with pytest.raises(SpecError) as err:
            load_spec(MINIMAL + "\n[checks]\nrun = condition_ii\nrepeat = 2\n")
        assert "[checks]" in str(err.value) and "repeat" in str(err.value)

    def test_unknown_check_rejected(self):
        text = MINIMAL + "\n[checks]\nrun = condition_v\n"
        with pytest.raises(SpecError):
            load_spec(text)

    @pytest.mark.parametrize(
        "section, line, key",
        [
            ("solver", "grid = abc", "grid"),
            ("solver", "grid = 41, x", "grid"),
            ("solver", "eps = abc", "eps"),
            ("solver", "delta = 1e-3e", "delta"),
            ("solver", "workers = 4", "workers"),
            ("solver", "grid = 11, 11", "grid"),
            ("solver", "grid = 1", "grid"),
            ("solver", "eps = -1", "eps"),
            ("checks", "trials = many", "trials"),
        ],
    )
    def test_bad_value_names_its_key(self, section, line, key):
        with pytest.raises(SpecError) as err:
            load_spec(MINIMAL + f"\n[{section}]\n{line}\n")
        assert f"[{section}]" in str(err.value) and key in str(err.value)

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("[domain]", "[box]", "missing [domain] section"),
            ("dim = 1", "dim = 4", "[domain] dim must be 1, 2 or 3"),
            ("lower = 0.0", "lower = 0.0, 1.0", "[domain] lower must have 1 comma-separated value(s), got 2"),
            ("lower = 0.0", "lower = zero", "bad number in [domain] lower"),
            ("kind = constant", "kind = moving_box\nlower_1 = 0", "[map] needs lower_1 and upper_1"),
            ("[payload]", "[objective]", "missing [payload] section"),
            ("kind = objective", "kind = operator", "[payload] kind must be one of objective, bifunction, qvi_operator"),
            ("expr = abs(x_1 - 0.25)", "", "[payload] needs expr"),
            ("kind = objective", "kind = qvi_operator\nvertex_1 = 1.0, 2.0", "[payload] vertex_1 must have 1 coordinate(s)"),
            ("kind = objective", "kind = qvi_operator", "[payload] qvi_operator needs at least vertex_1"),
            ("dim = 1", "dim = 1\ndim = 2", "bad problem definition"),
            ("dim = 1", "dim = 1\nlower_2 = 0", "[domain] unknown key(s): lower_2"),
            ("kind = constant", "kind = constant\nlower_1 = 0\nupper_1 = 1", "[map] unknown key(s): lower_1, upper_1"),
            ("kind = objective", "kind = qvi_operator\nvertex_1 = 1", "[payload] unknown key(s): expr"),
            (
                "kind = objective\nexpr = abs(x_1 - 0.25)",
                "kind = qvi_operator\nvertex_1 = 1\nvertex_3 = -1",
                "[payload] unknown key(s): vertex_3",
            ),
            ("[payload]", "[solvr]\ngrid = 11\neps = 0.5\n\n[payload]", "unknown section(s): solvr"),
            ("[domain]", "[DEFAULT]\ngrid = 11\n\n[domain]", "unknown section(s): DEFAULT"),
        ],
    )
    def test_refusal_names_the_fault(self, old, new, message):
        with pytest.raises(SpecError) as err:
            load_spec(MINIMAL.replace(old, new, 1))
        assert str(err.value).startswith(message)

    def test_spec_error_comes_before_an_empty_box(self):
        # every key is checked before the box, map and payload are built
        text = MINIMAL.replace("upper = 1.0", "upper = -1.0") + "\n[solver]\ngird = 11\n"
        with pytest.raises(SpecError, match=r"\[solver\] unknown key\(s\): gird"):
            load_spec(text)


class TestBuildValidation:
    def test_image_outside_domain_names_offender(self):
        text = """
[domain]
dim = 1
lower = 0.0
upper = 1.0

[map]
kind = moving_box
lower_1 = x_1 + 2
upper_1 = x_1 + 3

[payload]
kind = objective
expr = x_1
"""
        inst = build_instance(load_spec(text))  # evaluates no bound: the solve checks the grid it scans
        with pytest.raises(InstanceDefinitionError) as err:
            inst.solve()
        assert "image of grid point (0.0,) is empty" in str(err.value)

    def test_bifunction_payload_solves(self):
        text = """
[domain]
dim = 1
lower = 0.0
upper = 1.0

[map]
kind = constant

[payload]
kind = bifunction
expr = y_1 - x_1

[solver]
grid = 11
eps = 0.0
"""
        inst = build_instance(load_spec(text))
        rep = inst.solve(inst.config())
        assert [r.point for r in rep.solutions] == [(0.0,)]
        assert rep.problem_kind == "EP"
