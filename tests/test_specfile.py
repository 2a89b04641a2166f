import pytest

from quasieq.catalog import figure1_instance
from quasieq.errors import SpecError
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
        assert spec.grid == (2001,)

    def test_defaults_applied(self):
        spec = load_spec(MINIMAL)
        assert spec.grid == (DEFAULT_GRID,)
        assert spec.eps == DEFAULT_EPS
        assert spec.delta == 0.0

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
        assert len(spec.vertices) == 2
        inst = build_instance(spec)
        assert inst.payload.vertices((0.25,)) == ((1.0,), (1.0,))

    def test_checks_section(self):
        text = MINIMAL + "\n[checks]\nrun = condition_ii, qcvx_second\n"
        assert load_spec(text).checks_run == ("condition_ii", "qcvx_second")
        # verify takes its trials and seed from --trials and --seed only
        for line, flag in (("trials = 50", "--trials"), ("seed = 3", "--seed")):
            with pytest.raises(SpecError) as err:
                load_spec(text + line + "\n")
            assert "[checks]" in str(err.value) and flag in str(err.value)

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
            ("checks", "trials = many", "trials"),
        ],
    )
    def test_bad_value_names_its_key(self, section, line, key):
        with pytest.raises(SpecError) as err:
            load_spec(MINIMAL + f"\n[{section}]\n{line}\n")
        assert f"[{section}]" in str(err.value) and key in str(err.value)


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
        spec = load_spec(text)
        with pytest.raises(Exception) as err:
            build_instance(spec)
        assert "0.0" in str(err.value)

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
