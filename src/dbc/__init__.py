"""Dirichlet boundary control of the heat equation in the energy space.

Space-time finite elements (piecewise constant in time, P1 in space for the
state; prismatic multilinear for the control), a matrix-free primal-dual
active set solver for pointwise control bounds, and a manufactured-solution
convergence harness.
"""

from .adjoint import adjoint_identity_check
from .assembly import (
    Discretization,
    EnergyExtension,
    assemble_mass_stiffness,
    bilinear_form,
    coercivity_gap,
)
from .checks import CHECKS, CheckResult, run_checks
from .forward import SolverError, solve_state_sensitivity
from .manufactured import (
    CASES,
    LevelRecord,
    ManufacturedCase,
    MeshMismatchError,
    StudyReport,
    build_space_time_mesh,
    control_error,
    energy_error_adjoint,
    energy_error_state,
    eoc,
    bump_case,
    run_study,
    setup_problem,
)
from .mesh import (
    MeshError,
    SpaceTimeMesh,
    TimePartition,
    Triangulation,
    uniform_time_partition,
    unit_square_mesh,
)
from .optimizer import (
    CGBreakdownError,
    KKTDiagnostics,
    PdasNonconvergence,
    PdasResult,
    ReducedProblem,
    pdas_solve,
)
from .spaces import (
    AdjointField,
    BoundSet,
    ControlField,
    FieldShapeError,
    StateField,
    interpolate_control,
)

__version__ = "0.1.0"
