"""Characterization digests: solver reports pinned byte for byte.

Each case solves one problem and hashes the ``report_to_json`` bytes.  The
digests were recorded before the QEP and QOpt scans were merged into one
kernel; they cover the paths the benchmark's problem pools do not reach
(constant and callable maps, exact grids, 1-D adapters, small 2-D grids), so
a scan change that alters any solution, residual, inner minimum, gap or
degenerate count shows up here.
"""

import hashlib
from fractions import Fraction

import pytest

from quasieq.bifunction import ObjectiveFunction, make_opt_bifunction
from quasieq.catalog import (
    figure1_instance,
    get_instance,
    quasiconvex_variant_instance,
    qvi_instance,
    random_instance,
)
from quasieq.geometry import CompactBox, Grid, Root2
from quasieq.reporting import report_to_json
from quasieq.setmap import SetValuedMap
from quasieq.solver import SolverConfig, solve_qep, solve_qopt
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
    return solve_qep(make_opt_bifunction(h, K.domain, scalar_kind="exact"), K, cfg)


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
