"""canonkit: canonical analysis of variational discrete systems with quadratic actions.

Library layout, one module per concern:

- linalg: ranks, null bases, intersections, restricted inverses, regularity guard
- actions: quadratic moves, padding, discrete Legendre transforms
- classify: the eight-type classification, step bases, alpha-block inverse h+
- constraints: constraint construction, Poisson algebra, constraint ranks
- evolution: initial/final/boundary-value solves, observable block, dof counting;
  the backward solve is the forward solve on time-reversed moves, bases and data
- effective: move composition by alpha-block elimination; an effective move
  is a QuadraticMove that also carries its multiplier records
- quantum: Gaussian-delta kernels, move measure, propagators, physical states;
  a kernel holds its move, and kernel composition is compose plus the measure
- lattice: scalar-field move generators (expanding square example)
- serialize / reporting / cli: move files, reports, the canonkit command
"""

from .actions import (
    MoveSequence,
    QuadraticMove,
    RaggedMove,
    extend_to_square,
    legendre,
    post_momentum,
    pre_momentum,
    validate,
)
from .classify import (
    ClassifiedBasis,
    VariableSplit,
    VECTOR_TYPES,
    classify_rows,
    classify_sequence,
    classify_step,
    hessian_block,
    m_lambda_rho,
    split_variables,
)
from .constraints import (
    BracketTable,
    LinearConstraint,
    bracket_table,
    poisson_bracket,
    primary_constraints,
    secondary_constraints,
)
from .effective import (
    EffectiveMove,
    MultiplierRecord,
    chain_compose,
    compose,
    count_monotonicity_check,
    degeneracy_dims,
    effective_constraints,
    effective_outer_bases,
    reclassify_onshell,
)
from .errors import (
    CanonkitError,
    ConstraintViolationError,
    DegeneracyError,
    DivergenceError,
    InconsistentBoundaryError,
    InputError,
    InternalError,
)
from .evolution import (
    CanonicalData,
    DofReport,
    backward_solve,
    boundary_solve,
    dof_report,
    fixed_variable_solve,
    forward_solve,
)
from .lattice import (
    ExpandingSquare,
    StepGraph,
    expanding_square_sequence,
    move_from_graph,
)
from .linalg import (
    DEFAULT_TOL,
    Subspace,
    intersect,
    left_null_basis,
    numeric_rank,
    restricted_inverse,
    right_null_basis,
)
from .quantum import (
    Amplitude,
    GaussianDeltaKernel,
    GaussianState,
    check_annihilation,
    compose_kernels,
    evolve_state,
    hilbert_dims,
    project_physical,
    propagator_from_move,
    unitarity_check,
)
from .serialize import load_sequence, save_sequence

__version__ = "0.1.0"
