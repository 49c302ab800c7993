"""Certified global Gevrey/smooth regularity analysis for tube systems of
complex vector fields on the torus: classification oracle, per-frequency
spectral solvers, averaging normal form, and constructive slow-decay solution
families with machine-checkable certificates."""

from .diophantine import (
    ApproxInterval,
    ContinuedFraction,
    DiophantineVerdict,
    LiouvilleWitness,
    RealConstant,
    approx_interval,
    condition_B_check,
    convergents,
    digit_stream_from_json,
    exp_liouville_score,
    liouville_exponent_trend,
    scale_witness,
    verify_witness_rows,
)
from .errors import *  # noqa: F401,F403 — the exception family is the public contract
from .gevrey import (
    GevreyCutoff,
    GevreyWitness,
    TrigPoly,
    check_lemma_product_bound,
    estimate_decay,
    exp_composition_derivatives,
    make_cutoff,
    sum_over_delta,
)
from .normalform import (
    NormalFormData,
    apply_gauge,
    build_normal_form,
    conjugation_residual,
    gauge_derivative_growth,
)
from .singular import (
    LaplaceProfile,
    Obstruction,
    SingularSolution,
    build_expliouville_J,
    build_obstruction,
    build_product,
    build_prop51,
    build_prop52,
    build_rational_J,
    fit_lower_bound_power,
    locate_laplace_profile,
)
from .solver import (
    FourierField,
    apply_tube_operator,
    decay_report,
    residual,
    solve_by_division,
    solve_single_tube,
    solve_system,
)
from .system import (
    Order,
    SystemAnalysis,
    SystemSpec,
    Tube,
    Verdict,
    analyze,
    average,
    classify_system,
    classify_vector,
    decide,
    sign_analysis,
)

__version__ = "0.1.0"
