"""Positivity-preserving implicit schemes for a jump-extended mean-reverting
interest-rate model, with a reproducible Monte Carlo experiment harness."""

from .harness import (
    ConvergenceReport,
    MomentReport,
    PathFailure,
    PositivityReport,
    fit_order,
    moment_probe,
    positivity_table,
    strong_error_ladder,
)
from .mesh import JumpAdaptedMesh, MeshError, build_mesh, sample_jump_times
from .model import (
    AssumptionViolation,
    InvalidModelError,
    JumpBounds,
    JumpCoefficient,
    ModelParams,
    Regime,
    RegimeCheck,
    custom_jump,
    diffusion,
    drift,
    linear_jump,
    make_jump,
    moment_admissible,
    one_sided_lipschitz,
    rational_jump,
    sine_jump,
    transformed_drift,
    transformed_drift_prime,
    transformed_drift_second,
    validate_jump,
    validate_params,
    zero_jump,
)
from .paths import PathBundle, coarsen_increments, generate_bundle, regular_increments
from .solver import (
    SolverError,
    StepSizeDiagnostics,
    TrajectoryZ,
    bem_path,
    implicit_step_z,
    step_size_diagnostics,
    tjabem_path,
)
from .transform import jump_map, lamperti_forward, lamperti_inverse

__version__ = "0.1.0"
