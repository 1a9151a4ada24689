"""Dirichlet boundary control of the heat equation in the energy space.

Space-time finite elements (piecewise constant in time, P1 in space for the
state; prismatic multilinear for the control), a matrix-free primal-dual
active set solver for pointwise control bounds, and a manufactured-solution
convergence harness.
"""

from .adjoint import adjoint_identity_check, solve_adjoint
from .assembly import (
    Discretization,
    EnergyExtension,
    assemble_mass_stiffness,
    bilinear_form,
    coercivity_gap,
)
from .checks import CHECKS, CheckResult, run_checks
from .forward import SolverError, solve_state, solve_state_sensitivity
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
    refine,
    uniform_time_partition,
    unit_square_mesh,
    write_mesh_text,
)
from .optimizer import (
    CGBreakdownError,
    KKTDiagnostics,
    MultiplierField,
    PdasNonconvergence,
    PdasResult,
    ReducedProblem,
    hessian_vec,
    pdas_solve,
    reduced_gradient,
)
from .spaces import (
    AdjointField,
    BoundSet,
    ControlField,
    FieldShapeError,
    OutOfDomainError,
    StateField,
    eval_state,
    interpolate_control,
    project_onto_bounds,
)

__version__ = "0.1.0"
