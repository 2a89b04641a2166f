"""Characterization digests: solver reports and checker output pinned byte for byte.

Each case solves one problem and hashes the ``report_to_json`` bytes.  The
digests were recorded before the QEP and QOpt scans were merged into one
kernel; they cover the paths the benchmark's problem pools do not reach
(constant and callable maps, exact grids, 1-D adapters, small 2-D grids), so
a scan change that alters any solution, residual, inner minimum, gap or
degenerate count shows up here.  The checker digests further down pin the
hypothesis checkers the same way.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from quasieq import cli
from quasieq.bifunction import (
    Bifunction,
    ObjectiveFunction,
    check_condition_ii,
    check_condition_iii,
    check_condition_iv,
    check_quasiconcave_first,
    check_quasiconvex_second,
    make_opt_bifunction,
)
from quasieq.catalog import (
    CATALOG,
    figure1_instance,
    get_instance,
    quasiconvex_variant_instance,
    qvi_instance,
    random_instance,
)
from quasieq.expressions import parse_expression
from quasieq.geometry import CompactBox, Grid, Root2
from quasieq.reporting import _sanitize, report_to_json, verify_to_json
from quasieq.setmap import SetValuedMap, check_closed_graph, check_convex_values, check_lsc
from quasieq.solver import (
    SolverConfig,
    smap_closed_graph_probe,
    solve_qep,
    solve_qopt,
    verify_theorem_instance,
)
from quasieq.specfile import build_instance, load_spec

AFFINE_FIELD_SPEC = """
[domain]
dim = 2
lower = 0.0, 0.0
upper = 1.0, 1.0

[map]
kind = moving_box
lower_1 = (0.45 + 0.1*x_2) - 0.3
upper_1 = (0.45 + 0.1*x_2) + 0.3
lower_2 = (0.55 - 0.15*x_1) - 0.25
upper_2 = (0.55 - 0.15*x_1) + 0.25

[payload]
kind = bifunction
expr = (0.6*x_1 - 0.4*x_2 + 0.1)*(y_1 - x_1) + (-0.3*x_1 + 0.8*x_2 - 0.2)*(y_2 - x_2)

[solver]
grid = 41, 41
eps = 1e-06
delta = 0.0
"""


DEGENERATE_SPEC = """
[domain]
dim = 1
lower = 0.0
upper = 1.0

[map]
kind = moving_box
lower_1 = piecewise(x_1 <= 0.5, x_1 - 0.1, min(x_1 + 0.02, 0.97))
upper_1 = piecewise(x_1 <= 0.5, x_1 + 0.1, min(x_1 + 0.03, 0.98))

[payload]
kind = objective
expr = abs(x_1 - 0.3)

[solver]
grid = 11
eps = 1e-06
delta = 0.05
"""


def _catalog(name):
    inst = get_instance(name)
    return inst.solve(inst.config())


def _identity_singleton():
    C = CompactBox((0.0,), (1.0,))
    K = SetValuedMap(C, [lambda x: x[0]], [lambda x: x[0]])
    h = ObjectiveFunction(lambda x: (x[0] - 0.3) ** 2)
    return solve_qopt(h, K, SolverConfig(Grid(C, (1001,)), 0.0, 0.0))


def _degenerate_spec():
    inst = build_instance(load_spec(DEGENERATE_SPEC), name="degenerate")
    return inst.solve(inst.config())


def _degenerate_callable():
    # the spec's map as plain callables, through the opt adapter
    C = CompactBox((0.0,), (1.0,))
    K = SetValuedMap(
        C,
        [lambda x: x[0] - 0.1 if x[0] <= 0.5 else min(x[0] + 0.02, 0.97)],
        [lambda x: x[0] + 0.1 if x[0] <= 0.5 else min(x[0] + 0.03, 0.98)],
    )
    h = ObjectiveFunction(lambda x: abs(x[0] - 0.3))
    return solve_qep(make_opt_bifunction(h, C), K, SolverConfig(Grid(C, (11,)), 1e-6, 0.05))


def _exact_problem():
    box = CompactBox((Root2(0),), (Root2(1),))
    K = SetValuedMap(box, [lambda x: x[0] * Fraction(1, 2)], [lambda x: (x[0] + 1) * Fraction(1, 2)])
    h = ObjectiveFunction(lambda p: p[0] * p[0] - p[0])
    return h, K, SolverConfig(Grid(box, (17,)), 0.0, 0.0)


def _exact_qopt():
    h, K, cfg = _exact_problem()
    return solve_qopt(h, K, cfg)


def _exact_qep_adapter():
    h, K, cfg = _exact_problem()
    return solve_qep(make_opt_bifunction(h, K.domain), K, cfg)


def _qopt(inst, m):
    return solve_qopt(inst.payload, inst.K, inst.config(points_per_axis=(m,) * inst.C.dim))


def _qep_adapter(inst, m):
    f = make_opt_bifunction(inst.payload, inst.C)
    return solve_qep(f, inst.K, inst.config(points_per_axis=(m,) * inst.C.dim))


def _affine_field():
    inst = build_instance(load_spec(AFFINE_FIELD_SPEC), name="affine-field")
    return inst.solve(inst.config())


CASES = {
    "qvi-unit": lambda: _catalog("qvi-unit"),
    "qvi-negative": lambda: _catalog("qvi-negative"),
    "qvi-zero": lambda: _catalog("qvi-zero"),
    "identity-singleton@1001": _identity_singleton,
    "degenerate-spec@11": _degenerate_spec,
    "degenerate-callable@11": _degenerate_callable,
    "remark": lambda: _catalog("remark"),
    "exact-qopt@17": _exact_qopt,
    "exact-qep-adapter@17": _exact_qep_adapter,
    "figure1-qopt@2001": lambda: _qopt(figure1_instance(), 2001),
    "figure1-qep-adapter@2001": lambda: _qep_adapter(figure1_instance(), 2001),
    "variant-qopt@2001": lambda: _qopt(quasiconvex_variant_instance(), 2001),
    "variant-qep-adapter@2001": lambda: _qep_adapter(quasiconvex_variant_instance(), 2001),
    "random(13,1)-qopt@201": lambda: _qopt(random_instance(13, 1), 201),
    "random(13,1)-qep-adapter@201": lambda: _qep_adapter(random_instance(13, 1), 201),
    "random(1004,2)-qopt@41": lambda: _qopt(random_instance(1004, 2), 41),
    "random(1004,2)-qep-adapter@41": lambda: _qep_adapter(random_instance(1004, 2), 41),
    "qvi_instance(8)@41": lambda: qvi_instance(8).solve(qvi_instance(8).config()),
    "affine-field-spec@41": _affine_field,
}

DIGESTS = {
    "affine-field-spec@41": "d34c6343d532bd2659e209355800ee597f459a488ceca36b528b5c7a503d4955",
    "degenerate-callable@11": "dcc9697550cfc32006950b0aeb3b0e7d9c46853f02914d31da351aafc81ea358",
    "degenerate-spec@11": "6298072eb2094ca6d9f52fe5e564546e455b2bf8663675d54591629f5f43ad62",
    "exact-qep-adapter@17": "55af693f28a76858d2abd8563c9af1ddc7481011b31eb3168b76e646c096c90e",
    "exact-qopt@17": "f497096eea1d8f03540139452fbf241d9d032f9e3e763361253331fc9d3f1d25",
    "figure1-qep-adapter@2001": "4462f8612c06beff1e83c4df0e9dbc7b37debf3e62b706d987887faa84f11d00",
    "figure1-qopt@2001": "beb6e7cca759b923c07f6062cb277de5cd0970d690f3f9de2b9355fb99a1633e",
    "identity-singleton@1001": "6a1d0278a155bb63f4a26c6d141ab40c52b153e56c5edc1d325fc640d63092c7",
    "qvi-negative": "cc2fff70bf684a0a5b08e1a9b2a37a985d6353ef1d097bd9da4043bbf547187b",
    "qvi-unit": "12a19e6bd62200ccfdc6fdf24b3ea47b208cb41a923f427c92efd56c180da629",
    "qvi-zero": "3ce6b792d22931b6fee78fe7f68b41a5d7bfdf20cf3c164bbb8bc4be51224590",
    "qvi_instance(8)@41": "e4b30a80b40ff285393de022c7bba61dd3b147085ea9f368dbf012442f3459dc",
    "random(1004,2)-qep-adapter@41": "23ba8f41b78140a2cf5693e33e00455b58477e5831e3bb0d1042209a15d4b763",
    "random(1004,2)-qopt@41": "0babda65453a598825a8d23c61f4c5c5588a36dbcd807cb2f64abc5b773a44c4",
    "random(13,1)-qep-adapter@201": "a4c0e4fc48ad1d0e60d8e73f6c5a79348e522b7ea78282525579bc5a6dbfc265",
    "random(13,1)-qopt@201": "4f5e52fdf0521f29e224389c8555a269127cfa898b778549b5ca3545a8d3ae6a",
    "remark": "24f174af772025eb43e4f37e01f6f45938498c722bb776062e6897b0f8af20f0",
    "variant-qep-adapter@2001": "4d805900527e55c0db72d139ca4c36de45b659db1a381d7ce02d241f95f2b62c",
    "variant-qopt@2001": "98f41bb74ccbc84a9929b4350422c612dfa1b7027d95704e65007db277007cd4",
}


def digest(name: str) -> str:
    return hashlib.sha256(report_to_json(CASES[name]()).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_digest(name):
    assert digest(name) == DIGESTS[name]


# -- checker output ---------------------------------------------------------
#
# Digests of the hypothesis checkers' output, recorded before their sampling
# plans moved into one module: verdicts, witnesses, samples_used and probe
# radii.  ``quasieq verify`` is hashed as its report file; a lone checker as
# the sorted-key JSON of its report through the reporting sanitizer.

BOX3D_SPEC = """
[domain]
dim = 3
lower = 0.0, 0.0, 0.0
upper = 1.0, 1.0, 1.0

[map]
kind = moving_box
lower_1 = (0.5 + 0.1*x_2) - 0.22
upper_1 = (0.5 + 0.1*x_2) + 0.22
lower_2 = (0.4 - 0.15*x_3) - 0.2
upper_2 = (0.4 - 0.15*x_3) + 0.2
lower_3 = (0.6 + 0.05*x_1) - 0.25
upper_3 = (0.6 + 0.05*x_1) + 0.25

[payload]
kind = objective
expr = abs(x_1 - 0.3) + 0.8*abs(x_2 - 0.6) + max(0.5*x_3 - 0.2*x_1, 0.1 - 0.3*x_2)

[solver]
grid = 9, 9, 9
eps = 0.01
delta = 0.0
"""


def _cli_verify(name, tmp_path):
    out = tmp_path / "verify.json"
    assert cli.main(["verify", name, "--out", str(out)]) in (0, 3)
    return out.read_bytes()


def _theorem(inst, cfg):
    return verify_to_json(verify_theorem_instance(inst, cfg)).encode()


def _lone(report):
    # vars, not dataclasses.asdict: asdict deep-copies a witness, and a Root2 cannot be copied
    return json.dumps(_sanitize(vars(report)), sort_keys=True).encode()


def _half_open_map():
    C = CompactBox((0.0,), (1.0,))
    return SetValuedMap(C, [lambda x: 0.0], [lambda x: 1.0], member_predicate=lambda x, z: z[0] < 1.0)


def _step_map():
    C = CompactBox((0.0,), (2.0,))
    return SetValuedMap(C, [lambda x: 0.0], [lambda x: 1.0 if x[0] <= 0.5 else 0.25])


def _union_map():
    C = CompactBox((0.0,), (1.0,))
    return SetValuedMap(
        C, [lambda x: 0.0], [lambda x: 1.0], member_predicate=lambda x, z: z[0] <= 0.2 or z[0] >= 0.8
    )


def _concave_objective():
    C = CompactBox((0.0,), (2.0,))
    h = ObjectiveFunction(parse_expression("-power(x_1 - 1, 2)"))
    return make_opt_bifunction(h, C), C


def _jump():
    box = CompactBox((0.0,), (1.0,))
    return Bifunction(lambda x, y: 1.0 if y[0] > 0.5 else -1.0, box)


def _smap_probe(inst, m):
    cfg = inst.config(points_per_axis=(m,) * inst.C.dim)
    return _lone(smap_closed_graph_probe(inst.bifunction(), inst.K, cfg))


def _smap_jump():
    # argmin of y over an image that jumps up at x = 1/2: the selection map's graph is not closed
    C = CompactBox((0.0,), (1.0,))
    K = SetValuedMap(C, [lambda x: 0.0 if x[0] < 0.5 else 0.6], [lambda x: 1.0])
    h = ObjectiveFunction(lambda x: x[0])
    cfg = SolverConfig(Grid(C, (101,)), 1e-6, 0.0)
    return _lone(smap_closed_graph_probe(make_opt_bifunction(h, C), K, cfg))


def _box3d():
    return build_instance(load_spec(BOX3D_SPEC), name="box3d")


def _segment_case(check, inst, trials=400, plain=False):
    """A segment falsifier on an instance's bifunction; ``plain`` wraps its f in a plain callable (no batch form)."""
    f = inst.bifunction()
    return _lone(check(Bifunction(f.fn, f.domain) if plain else f, inst.C, trials))


def _condition_iii_case(make, trials=400):
    """condition_iii on the bifunction of ``make()``, an instance or a bare Bifunction."""
    f = make()
    f, C = (f, f.domain) if isinstance(f, Bifunction) else (f.bifunction(), f.C)
    return _lone(check_condition_iii(f, C, trials))


def _bifunction(fn, C):
    """A maker of the Bifunction of fn, an expression's text or a callable, on C."""
    return lambda: Bifunction(parse_expression(fn) if isinstance(fn, str) else fn, C)


_UNIT, _EXACT_UNIT = CompactBox((0.0,), (1.0,)), CompactBox((Root2(0),), (Root2(1),))
# f < 0 only where x_1 is in the notch (0.001, 0.024), where no lattice midpoint lies, or the dip [0.45, 0.55] or
# [2/5, 1/2], where one does
_III_PAYLOADS = {
    "random(3000,1)": lambda: random_instance(3000, 1),
    "random(3101,2)": lambda: random_instance(3101, 2),
    "remark": lambda: get_instance("remark"),
    "notch": _bifunction("piecewise(x_1 > 0.001, piecewise(x_1 < 0.024, -1, 1), 1) + 0 * y_1", _UNIT),
}

def _exact_notch():
    """f(x, y) = -1 for x_1 strictly between 3/1024 and 1/256, else 1: of the lattice points of [0, 1] combined at
    multiples of 1/64, only 0 and 1/20 at lambda 15/16 land in the notch."""
    lo, hi = Root2(Fraction(3, 1024)), Root2(Fraction(1, 256))
    return Bifunction(lambda x, y: Root2(-1) if lo < x[0] < hi else Root2(1), _EXACT_UNIT)


def _exact_off_1024():
    """f(x, y) = 1 where x_1 is a multiple of 1/1024, else -1: 1/256 points combined at 1/2, 1/4 or 3/4 stay on it."""
    return Bifunction(lambda x, y: Root2(1) if (x[0] * 1024).a.denominator == 1 else Root2(-1), _EXACT_UNIT)


CHECKER_CASES = {
    **{f"verify-{name}": (lambda tmp, _n=name: _cli_verify(_n, tmp)) for name in sorted(CATALOG)},
    "theorem-random(3101,2)@41": lambda tmp: _theorem(
        random_instance(3101, 2), random_instance(3101, 2).config(points_per_axis=(41, 41))
    ),
    "theorem-box3d@9": lambda tmp: _theorem(_box3d(), _box3d().config()),
    "closed-graph-half-open@101": lambda tmp: _lone(
        check_closed_graph(_half_open_map(), Grid(_half_open_map().domain, (101,)))
    ),
    "lsc-step@201": lambda tmp: _lone(check_lsc(_step_map(), Grid(_step_map().domain, (201,)))),
    "convex-values-union@101": lambda tmp: _lone(
        check_convex_values(_union_map(), Grid(_union_map().domain, (101,)))
    ),
    "condition-iii-concave": lambda tmp: _lone(check_condition_iii(*_concave_objective())),
    "condition-iv-jump@101": lambda tmp: _lone(check_condition_iv(_jump(), Grid(_jump().domain, (101,)))),
    "smap-figure1@401": lambda tmp: _smap_probe(figure1_instance(), 401),
    "smap-variant@401": lambda tmp: _smap_probe(quasiconvex_variant_instance(), 401),
    "smap-random(1004,2)@21": lambda tmp: _smap_probe(random_instance(1004, 2), 21),
    "smap-jump@101": lambda tmp: _smap_jump(),
    # recorded before the segment plans gave point columns: several trial chunks, float and exact; the 3-D
    # lattice's 125 chunks; a float f with no batch form
    "qcvx-second-random(3000,1)@5000": lambda tmp: _segment_case(check_quasiconvex_second, random_instance(3000, 1), 5000),
    "qccv-first-random(3000,1)@5000": lambda tmp: _segment_case(check_quasiconcave_first, random_instance(3000, 1), 5000),
    "qcvx-second-box3d": lambda tmp: _segment_case(check_quasiconvex_second, _box3d()),
    "qccv-first-box3d": lambda tmp: _segment_case(check_quasiconcave_first, _box3d()),
    "qcvx-second-callable-random(3000,1)@5000": lambda tmp: _segment_case(
        check_quasiconvex_second, random_instance(3000, 1), 5000, plain=True
    ),
    "qccv-first-callable-random(3000,1)@5000": lambda tmp: _segment_case(
        check_quasiconcave_first, random_instance(3000, 1), 5000, plain=True
    ),
    "qccv-first-remark@3000": lambda tmp: _segment_case(check_quasiconcave_first, get_instance("remark"), 3000),
    # recorded before condition_iii's lattice pairs and random subsets became one chunked subset plan
    **{f"condition-iii-{name}@{trials}": (lambda tmp, _m=make, _t=trials: _condition_iii_case(_m, _t))
       for name, make in _III_PAYLOADS.items() for trials in (400, 5000, 20000)},
    "condition-iii-dip": lambda tmp: _condition_iii_case(
        _bifunction("piecewise(x_1 < 0.45, 1, piecewise(x_1 > 0.55, 1, -1)) + 0 * y_1", _UNIT)
    ),
    "condition-iii-exact-dip": lambda tmp: _condition_iii_case(
        _bifunction(lambda x, y: Root2(-1) if Root2(Fraction(2, 5)) <= x[0] <= Root2(Fraction(1, 2)) else Root2(1), _EXACT_UNIT)
    ),
    # recorded before every combined point came from geometry's one scalar and batch: exact FAILs at a random
    # lambda, 15/16 and 57/64, where no lambda 1/2, 1/4 or 3/4 of a lattice or a 1/256 point reaches
    "condition-ii-exact-notch": lambda tmp: _lone(check_condition_ii(_exact_notch(), _EXACT_UNIT)),
    "qccv-first-exact-off-1024": lambda tmp: _lone(check_quasiconcave_first(_exact_off_1024(), _EXACT_UNIT, 400)),
}

CHECKER_DIGESTS = {
    "condition-ii-exact-notch": "00add3caa883c50008f2ffd5af03e5457813fcf415f17a2179b06c24b66ff3f4",
    "qccv-first-exact-off-1024": "41394866c220720d9177fd196038ed32dadf3932b15d8deaa711d5eebe23c1b7",
    "condition-iii-dip": "184709957c8464f2932df77c675eb34ef0d44eb45e1290ff99eee1c6c256c909",
    "condition-iii-exact-dip": "b8b389b71536d8579985a756f6160cb09eeeda478bdad77729dcf6938bd71886",
    "condition-iii-notch@400": "9d2944ed9cbc4a4870971b014e19b1eeb68e4d7b37d42d1997ba4af04940f5c9",
    "condition-iii-notch@5000": "9d2944ed9cbc4a4870971b014e19b1eeb68e4d7b37d42d1997ba4af04940f5c9",
    "condition-iii-notch@20000": "9d2944ed9cbc4a4870971b014e19b1eeb68e4d7b37d42d1997ba4af04940f5c9",
    "condition-iii-random(3000,1)@400": "fea61bf8892c7d4630d7e2f1e737fa7e5678d38625d6aa078dd5aa8802171c2a",
    "condition-iii-random(3000,1)@5000": "a9faca0f3d64ed323906e694e272bff90ed46596f3346dfd55a99c2ecd58664e",
    "condition-iii-random(3000,1)@20000": "e9bd7522ec31189733c426eabef67559f62671c54de1d2e6abcabbb194acc32f",
    "condition-iii-random(3101,2)@400": "46996d4602c2c8dfa48ca48ddf1c998bf3e2ad0eb95eefc7dfbb8100c6a6f02a",
    "condition-iii-random(3101,2)@5000": "d30ee2c50b9eaf99ddb1418cff6811863c54fedd116237c977fefdb92875e2b3",
    "condition-iii-random(3101,2)@20000": "f3239210fbc0de7e3ebbdb671acc50ae0b3371a68d7fa00319272957178abd82",
    "condition-iii-remark@400": "052d0c06e664884276d0a1c745e00a125f320f25e46969657adcd470c168f892",
    "condition-iii-remark@5000": "a873f445f8240a59345df8f9207b358216c2f06c999c2676be3267f60a57a148",
    "condition-iii-remark@20000": "e8a9d7cd27128402fd904e6f79e9a6b1bebc75ea7001ea307772a921d40d5ea2",
    "closed-graph-half-open@101": "ca49c641de38d34f375ceff021891ebd452416cc88948b0b4818374ec39621b2",
    "condition-iii-concave": "562de18d339cc0a6ae13b32357c14e0ecec2cc181a1e792174debcddf25c1423",
    "condition-iv-jump@101": "5656dbc900027c62bec9c65d9274eacc3dd678be6ef6483511a84071ec01e9a5",
    "convex-values-union@101": "e81c88b78b5c2741700979556147726d0ae0dc3f3b87fffeea2fec97f64d3063",
    "lsc-step@201": "f7d9a43e55cf7ac5a2db0ed75a8bc201cf672e3d8134d4176f78c370bff224ed",
    "qccv-first-box3d": "53a42ce17eb6221176956d6403779a7f3960e1a8d6226b7bad43b4c30b90bc12",
    "qccv-first-callable-random(3000,1)@5000": "b523ac5b3b5a4802fdf19a26c0d122132aa86d3805677093c2db5e7e02b99da3",
    "qccv-first-random(3000,1)@5000": "b523ac5b3b5a4802fdf19a26c0d122132aa86d3805677093c2db5e7e02b99da3",
    "qccv-first-remark@3000": "d3257287bb92a4c3ef66586ca172a952d8b0daf9e12ba5edd0dc80786cb875d1",
    "qcvx-second-box3d": "89459bcea005cb04f006095e1040798686917056ef9a29a5276791d4f8094eb1",
    "qcvx-second-callable-random(3000,1)@5000": "2c7e39aaf137d76a65c779086f065d2c93d35e576d06656b2d50771c7b07a53a",
    "qcvx-second-random(3000,1)@5000": "2c7e39aaf137d76a65c779086f065d2c93d35e576d06656b2d50771c7b07a53a",
    "smap-jump@101": "6f922418c7e2dac1dd5739583c716c78634b1a28a2ef11b6ebadf278a4b37f89",
    "smap-figure1@401": "3869c3f6c760806cd338cab6e808b171a7b68e26ca675fe7de2439db78c08245",
    "smap-random(1004,2)@21": "c3b70f95988771232a62e7df8bf1cbe46ed78cc2b5bb8c80e26586973974ae6d",
    "smap-variant@401": "3869c3f6c760806cd338cab6e808b171a7b68e26ca675fe7de2439db78c08245",
    "theorem-box3d@9": "54b7136e197b70e155a87566dd22b475adfc8fae4031935c6a72abe65741d204",
    "theorem-random(3101,2)@41": "4dca6f3f1db0b5283570f8a7201f721c565f684617333119644ee1826a85a4b5",
    "verify-figure1": "d92f2bd7f2f5501fd4b787ab8fbdae768f9f37b200d8eaf6e80f4cfd2d2b7851",
    "verify-quasiconvex-variant": "dd9653f572e0aff37297475e23f70c85358db3e843148c042de651de61572494",
    "verify-qvi-negative": "9871918e8b9ea4e17732ced50af0677d670f4de11ba649e3bee06529d26c0c0d",
    "verify-qvi-unit": "13c97464cdecc1b5c5bd7e3041063d452909b987dc16614678efd2e1079d7285",
    "verify-qvi-zero": "626368313483446581e32c36bfda902bac82c17644211377d93fccb9d9774d4b",
    "verify-remark": "8af11a52142a6e85ff0be0ac9d4986e15e6bf1763315d0634814d5b0a80d6d19",
}


@pytest.mark.parametrize("name", sorted(CHECKER_CASES))
def test_checker_digest(name, tmp_path):
    assert hashlib.sha256(CHECKER_CASES[name](tmp_path)).hexdigest() == CHECKER_DIGESTS[name]
