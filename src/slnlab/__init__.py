"""slnlab: a numerical laboratory for discrete subsemigroups of SL(n,R).

Structure theory (Cartan/Jordan projections, KA+K, Iwasawa cocycle), flag-variety
dynamics, contraction certificates and ping-pong freeness, word-ball search with
annular filters and disjoint-shadow packing, symmetric-space shadows, and
critical-exponent estimators.
"""

from .contraction import (
    ContractionCertificate,
    CrosscheckReport,
    FreenessCertificate,
    Shadow,
    check_contracting,
    contraction_criterion,
    exact_freeness_crosscheck,
    freeness_certificate,
    pingpong_certificate,
    shadow_inclusion_check,
    shadow_membership,
    shadow_of,
)
from .errors import (
    BudgetExceeded,
    ConfigError,
    DedupUnavailable,
    DegenerateFit,
    ExactEntriesMissing,
    HypothesisViolated,
    InsufficientBudget,
    MembershipUnverified,
    NotCertified,
    NotLoxodromic,
    RankDeficient,
    SearchExhausted,
    SingularMatrix,
    SlnLabError,
    TooFewRecords,
)
from .flags import (
    Flag,
    OppositeFlag,
    TransversalityMargin,
    act_on_flag,
    attracting_flag,
    fixed_flags,
    flag_distance,
    flag_from_frame,
    opposite_distance,
    opposite_from_frame,
    repelling_flag,
    standard_flag,
    standard_opposite,
    transversality_margin,
)
from .growth import (
    ConeGrowth,
    GrowthReport,
    LimitConeSample,
    anosov_slope,
    busemann_cartan_constant,
    check_extension_sum_growth,
    estimate_delta,
    generator_sum_condition,
    growth_indicator_estimate,
    limit_cone_sample,
    poincare_partial_sum,
    subadditivity_defect,
)
from .lie import (
    CartanVector,
    GroupElement,
    KAKDecomposition,
    RootValue,
    cartan_of_power,
    cartan_projection,
    is_loxodromic,
    iwasawa_cocycle,
    jordan_projection,
    kak_decomposition,
    min_root_value,
    opposition_involution,
    random_unimodular,
    simple_root_values,
    symmetric_space_distance,
)
from .orbits import (
    Cone,
    FilterSpec,
    OrbitBall,
    OrbitRecord,
    ZariskiReport,
    barycentric_axis,
    enumerate_ball,
    filter_gamma_set,
    greedy_disjoint_pack,
    measure_cone_width_constant,
    zariski_heuristic,
)
from .pipeline import PipelineConfig, cmd_analyze, cmd_build_semigroup, cmd_certify, load_generators
from .symshadow import (
    InclusionProbeReport,
    MembershipResult,
    SymShadowQuery,
    calibrate_radius,
    flag_shadow_in_sym_shadow,
    overlap_distance_bound,
    project_chamber,
    ray_distance_bound,
    shadows_certified_disjoint,
    sym_shadow_membership,
)
