"""Numerical laboratory for exponential sums over discrete quadratic surfaces:
extension-operator fields on the torus, arc mollifiers, moments and level
sets, and scaling-exponent experiments.
"""

from .bump import SmoothBump, bump, smoothstep
from .quadform import (
    QuadraticForm,
    RationalDiagonalization,
    evaluate,
    signature,
    signature_by_charpoly,
    diagonalize_rational,
    frequency_bound,
    parse_form_spec,
)
from .sequences import (
    CoefficientSequence,
    SmoothWeight,
    ones_sequence,
    delta_sequence,
    diagonal_extremizer,
    random_unit_sequence,
    make_sequence,
    save_sequence,
    load_sequence,
)
from .expsum import (
    TorusGrid,
    extension_direct,
    smoothed_sum_direct,
    iter_field_chunks,
    gauss_sum,
    gauss_sum_table,
    OscillatoryIntegral,
    oscillatory_integral,
    MajorArcApprox,
    major_arc_approx,
)
from .arcs import (
    MollifierFamily,
    ArcLabel,
    DisjointnessError,
    ramanujan_sum,
    truncated_divisor,
    divisor_moment,
    partition_identity_check,
    dvp_window,
)
from .moments import (
    RepresentationCount,
    MomentReport,
    even_moment_exact,
    representation_count,
    nyquist_sizes,
    nyquist_grid,
    nyquist_sufficient,
    layer_cake_moment,
    FieldScan,
    scan_field,
    build_report,
)
from .scaling import (
    TheoryExponents,
    theory_exponents,
    ScalingExperiment,
    ExperimentResult,
    ScalingFit,
    run_experiment,
    fit_loglog,
    fit_experiment,
    pairwise_slopes,
    budgeted_grid_sizes,
)
from .config import RunConfig, parse_config_file, parse_config_text

__version__ = "0.1.0"
