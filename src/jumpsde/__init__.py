"""Positivity-preserving implicit schemes for a jump-extended mean-reverting
interest-rate model, with a reproducible Monte Carlo experiment harness.

The package exports the batch route that every command runs: the model and
its validators, the mesh, the transform, the step-size diagnostics and the
three experiments. The lanes and the path batches are in jumpsde.solver and
jumpsde.paths."""

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
    linear_jump,
    make_jump,
    moment_admissible,
    one_sided_lipschitz,
    rational_jump,
    sine_jump,
    validate_jump,
    validate_params,
    zero_jump,
)
from .solver import (
    SolverError,
    StepSizeDiagnostics,
    TrajectoryZ,
    step_size_diagnostics,
)
from .transform import jump_map, lamperti_forward, lamperti_inverse

__version__ = "0.1.0"
