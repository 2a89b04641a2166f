"""Grid-search solvers and sampled hypothesis checkers for equilibrium problems
with solution-dependent constraint sets, their variational and optimization
reformulations, and the worked instances that exercise them."""

from .bifunction import (
    Bifunction,
    ConditionReport,
    ObjectiveFunction,
    QviOperator,
    check_condition_ii,
    check_condition_iii,
    check_condition_iv,
    check_diagonal_zero,
    check_quasiconcave_first,
    check_quasiconvex_second,
    make_opt_bifunction,
    make_qvi_bifunction,
)
from .catalog import (
    ProblemInstance,
    catalog_names,
    figure1_instance,
    get_instance,
    quasiconvex_variant_instance,
    qvi_instance,
    qvi_vertex_oracle,
    random_instance,
    remark_bifunction_instance,
)
from .errors import (
    DegenerateImageError,
    InstanceDefinitionError,
    NonFiniteValueError,
    ParseError,
    QuasieqError,
    SpecError,
)
from .expressions import Expression, parse_expression
from .geometry import (
    CompactBox,
    Grid,
    Root2,
    contains,
    convex_combination,
    exact_is_rational,
    grid_points,
)
from .setmap import (
    ConvexRegion,
    SetValuedMap,
    TopologyProbeReport,
    check_closed_graph,
    check_convex_values,
    check_lsc,
    evaluate,
    fixed_point_set,
    image_grid,
)
from .solver import (
    SolutionRecord,
    SolveReport,
    SolverConfig,
    TheoremReport,
    check_lemma_equivalence,
    qopt_gap,
    smap,
    smap_closed_graph_probe,
    solve_ep,
    solve_qep,
    solve_qopt,
    verify_theorem_instance,
)

__version__ = "0.1.0"
