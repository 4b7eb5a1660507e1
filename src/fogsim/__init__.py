"""Sensitivity modeling for classical, squeezed, and entangled fiber gyroscopes.

The package pairs an exact Gaussian-circuit simulator with the closed-form
sensitivity expressions and with independent numeric optimizers, so that
every reported optimum and ratio can be cross-validated along two routes.
"""

from .analytic import (
    EnergySplit,
    IntegerOptimum,
    LengthOptimum,
    RatioSet,
    array_size_exponent,
    classical_variance,
    design_variance,
    inverse_squeeze_factor,
    lambert_w0,
    length_exponent,
    optimal_energy_split,
    optimal_length,
    optimal_m,
    ratio_fixed_eta,
    ratio_optimal_length,
    ratio_optimal_m,
    ratio_product_fixed_eta,
    sensitivity_ratios,
    variance_vs_length,
)
from .designs import (
    CircuitResult,
    DegenerateConfigurationError,
    DesignConfig,
    build_and_run,
    estimator_variance_sim,
    homodyne_closed_form,
    mean_slope,
)
from .gaussian import (
    GaussianState,
    HomodyneResult,
    SymplecticTransform,
    VACUUM_VARIANCE,
    balanced_splitter_array,
    coherent_state,
    conjugate_phase_transform,
    embed_transform,
    homodyne_stats,
    passive_transform,
    pure_loss,
    sample_homodyne,
    squeezed_vacuum,
    symplectic_form,
    tensor,
    vacuum_state,
)
from .optimize import (
    ConvergenceError,
    CountSearchResult,
    EvaluationError,
    ScalarMinimum,
    ScalarProblem,
    minimize_scalar,
    numeric_ratio_optimal_length,
    numeric_ratio_optimal_m,
    optimize_energy_split_numeric,
    optimize_length,
    optimize_m_continuous,
    optimize_m_integer,
)
from .sagnac import (
    GyroGeometry,
    RotationRegimeWarning,
    db_to_photons,
    photons_to_db,
    sagnac_phase,
    time_factor,
    transmissivity,
    velocity_scale,
)

__version__ = "0.1.0"
