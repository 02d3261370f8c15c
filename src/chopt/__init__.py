"""Phase-field simulation and adjoint-based optimal control on rectangles.

Spectral forward solver for the mass-regularized Cahn-Hilliard dynamics with
a distributed control, an eigenmode-truncated ODE oracle, exact discrete
adjoints with the reduced cost gradient, a projected-gradient optimizer over
box/derivative-bounded controls, and a CLI harness with a named verification
suite.
"""

from .config import RunConfig, parse_config
from .control import (
    ControlProblem,
    OptimizeResult,
    OptimizerConfig,
    optimize,
    project_Uad,
)
from .cost import CostSpec, cost_J
from .errors import ChoptError
from .galerkin import build_system, compare_to_pde, integrate, project_initial
from .potentials import PotentialSpec
from .sensitivity import (
    AdjointTrajectory,
    TangentTrajectory,
    adjoint_identity_residual,
    reduced_gradient,
    solve_adjoint,
    solve_linearized,
)
from .spectral import Field, Grid, SpectralField, from_spectral, to_spectral
from .state import (
    ControlFunction,
    StateTrajectory,
    TimeGrid,
    default_stabilization,
    energy,
    energy_balance_residual,
    mean_closed_form,
    simulate,
    validate_compatibility,
)

__version__ = "0.1.0"
