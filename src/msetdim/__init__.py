"""Multiset resolving sets and the multiset metric dimension.

Compute distance signatures, verify the three resolving-set notions, solve
small graphs exactly, run the exponent calculus behind the random-graph
thresholds, build resolving sets by randomized search, and recover epidemic
sources through sensor sets, all with seeded reproducibility.
"""

from .construction import (
    CandidateSpec,
    CensusLevel,
    ConstructionResult,
    FailureRateResult,
    RoundRecord,
    TypicalityReport,
    construct_resolving,
    default_target_size,
    draw_census_set,
    estimate_failure_rate,
    sample_candidate,
    typicality_census,
)
from .exact import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    DimensionResult,
    SearchOutcome,
    dimension_report,
    find_monotonicity_violation,
    metric_dimension_exact,
    multiset_dimension_exact,
    outer_multiset_dimension_exact,
)
from .exponents import (
    NoRootError,
    RegimeParams,
    ThresholdCurve,
    ThresholdUndefinedError,
    activation_point,
    binom_pmf,
    binom_pmf_max,
    bisect_exponent_level,
    exponent_sum,
    exponent_sum_at_one,
    lower_bound_exponent,
    regime,
    regime_from_degree,
    solve_exponent_level,
    threshold_curves,
    upper_bound_exponent,
)
from .graphs import (
    ExpansionReport,
    Graph,
    GraphFormatError,
    LevelAudit,
    RandomGraphSpec,
    SphereTable,
    UNREACHABLE,
    audit_expansion,
    bfs_distances,
    bfs_spheres,
    complete_graph,
    cycle_graph,
    diameter,
    distance_matrix,
    distances_from,
    generate_gnp,
    is_connected,
    path_graph,
    petersen_graph,
    predicted_diameter,
    read_edge_list,
    star_graph,
    write_edge_list,
)
from .localization import (
    LocalizationIndex,
    Observation,
    identify,
    observe,
    spread,
)
from .signatures import (
    KIND_METRIC,
    KIND_MULTISET,
    KIND_OUTER,
    KINDS,
    MetricSignature,
    MultisetSignature,
    ResolvingVerdict,
    all_multiset_signatures,
    metric_signature,
    multiset_signature,
    naive_verify_resolving,
    verify_resolving,
)

__version__ = "0.1.0"
