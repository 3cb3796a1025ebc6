"""Input checks of the classical layers: each rejects its input with an
InputError whose message names the fault.

Most cases use the scalar chain x0 -> x1 -> x2 -> x3 with S = x0 x1 + x1^2/2,
S = x1^2/2 + x1 x2 and S = x2 x3, whose step 1 is gamma; the free-value case
uses the two-move square.
"""

import numpy as np
import pytest

from canonkit.actions import MoveSequence, QuadraticMove, RaggedMove, extend_to_square
from canonkit.classify import ClassifiedBasis, classify_sequence, classify_step
from canonkit.constraints import (
    LinearConstraint,
    bracket_table,
    primary_constraints,
    secondary_constraints,
)
from canonkit.effective import compose, effective_constraints, reclassify_onshell
from canonkit.errors import InputError
from canonkit.evolution import CanonicalData, boundary_solve, dof_report, forward_solve
from canonkit.lattice import StepGraph, expanding_square_sequence, reference_basis_t2
from canonkit.linalg import (
    Subspace,
    as_matrix,
    full_space,
    intersect,
    restricted_inverse,
    span_of_rows,
    subtract,
)
from canonkit.quantum import hilbert_dims

M1 = QuadraticMove(0, 1, [[0.0]], [[0.5]], [[1.0]])
M2 = QuadraticMove(1, 2, [[0.5]], [[0.0]], [[1.0]])
M3 = QuadraticMove(2, 3, [[0.0]], [[0.0]], [[1.0]])
B0 = classify_step(None, M1.c, M1.a, step=0)
B1 = classify_step(M1.c, M2.c, M1.b + M2.a, step=1)
B2 = classify_step(M2.c, None, M2.b, step=2)
EFF = compose(M1, M2, B1)
WIDE = ClassifiedBasis(1, np.eye(2), ("I", "I"))
BOUNDARY = LinearConstraint((0, 2), "boundary_data", [0.0], [1.0], [1.0])
MIXED = LinearConstraint(1, "pre", [0.0, 1.0], [0.0, 0.0])
SQUARE = expanding_square_sequence(2).sequence
SQUARE_BASES = classify_sequence(SQUARE)


def ragged(step_from, d_from, d_to):
    return RaggedMove(step_from, step_from + 1, np.eye(d_from), np.eye(d_to),
                      np.zeros((d_from, d_to)))


CASES = {
    # effective
    "compose non-adjacent moves": (lambda: compose(M1, M3, B1), "moves are not adjacent"),
    "compose basis at another step": (lambda: compose(M1, M2, B0), "not classified at the shared step"),
    "compose dimension mismatch": (lambda: compose(M1, M2, WIDE), "share the extended dimension"),
    "effective_constraints foreign outer bases": (
        lambda: effective_constraints(EFF, B1, B2), "outer bases do not match"),
    "reclassify_onshell non-adjacent": (
        lambda: reclassify_onshell(EFF, QuadraticMove(3, 4, [[0.0]], [[0.0]], [[1.0]])),
        "next move are not adjacent"),
    "reclassify_onshell old basis elsewhere": (
        lambda: reclassify_onshell(EFF, M3, old_basis=B1), "old basis lives at a different step"),
    # constraints
    "primary move_prev misaligned": (
        lambda: primary_constraints(M2, None, B1), "move_prev does not arrive"),
    "primary move_next misaligned": (
        lambda: primary_constraints(None, M1, B1), "move_next does not leave"),
    "secondary one move": (lambda: secondary_constraints(M1, None, B1), "need both moves"),
    "secondary basis misaligned": (
        lambda: secondary_constraints(M1, M2, B0), "basis step must sit between"),
    "constraint unknown kind": (
        lambda: LinearConstraint(0, "sideways", [1.0], [0.0]), "unknown constraint kind"),
    "constraint p and x lengths differ": (
        lambda: LinearConstraint(0, "pre", [1.0, 0.0], [0.0]), "must have equal length"),
    "constraint 2-d coefficients": (
        lambda: LinearConstraint(0, "pre", [[1.0, 0.0]], [[0.0, 0.0]]), "must be 1-D arrays"),
    "constraint scalar coefficients": (
        lambda: LinearConstraint(0, "pre", 1.0, 0.0), "must be 1-D arrays"),
    "constraint far part of another length": (
        lambda: hilbert_dims([LinearConstraint((0, 2), "boundary_data", p_coeffs=[0, 0],
                                               x_coeffs=[1, 0], x_coeffs_other=[1.0])], 2),
        "x_coeffs_other must be a 1-D array of the length of x_coeffs"),
    "constraint 2-d far part": (
        lambda: LinearConstraint((0, 2), "boundary_data", [0.0], [1.0], [[1.0]]),
        "x_coeffs_other must be a 1-D array"),
    "bracket_table set of mixed lengths": (
        lambda: bracket_table([LinearConstraint(1, "pre", [1.0], [0.0]), MIXED], None, B1),
        "must have equal length"),
    "hilbert_dims set of mixed lengths": (
        lambda: hilbert_dims([LinearConstraint(1, "pre", [1.0], [0.0]), MIXED], 2),
        "must have equal length"),
    "constraint x part at a foreign step": (
        lambda: BOUNDARY.x_part_at(1), "does not live at step 1"),
    "constraint evaluate without x_other": (
        lambda: BOUNDARY.evaluate([1.0]), "needs both steps' data"),
    # evolution
    "canonical data lengths differ": (
        lambda: CanonicalData(0, [0.0, 0.0], [0.0]), "equal-length vectors"),
    "canonical data not finite": (
        lambda: CanonicalData(0, [np.nan], [0.0]), "must be finite"),
    "canonical data unknown side": (
        lambda: CanonicalData(0, [0.0], [0.0], "sideways"), "momentum_side must be"),
    "boundary_solve dimension": (
        lambda: boundary_solve(M1, M2, B1, [0.0, 0.0], [0.0]), "must match the dimension"),
    "boundary_solve not finite": (
        lambda: boundary_solve(M1, M2, B1, [np.inf], [0.0]), "must be finite"),
    "dof_report misaligned": (
        lambda: dof_report(M1, M2, B0, B0, B2), "bases and moves are not aligned"),
    "free values of the wrong length": (
        lambda: forward_solve(SQUARE.moves[0], SQUARE_BASES[0], SQUARE_BASES[1],
                              CanonicalData(0, np.zeros(12), np.zeros(12)), free_values=np.zeros(5)),
        "free values must have length"),
    # actions
    "ragged a not square": (
        lambda: RaggedMove(0, 1, np.zeros((1, 2)), np.eye(1), np.zeros((1, 1))),
        "a and b must be square"),
    "ragged c shape": (
        lambda: RaggedMove(0, 1, np.eye(1), np.eye(2), np.zeros((2, 1))), "c must be 1x2"),
    "sequence without moves": (lambda: MoveSequence(1, ()), "at least one move"),
    "sequence of mixed dimensions": (
        lambda: MoveSequence(1, (M1, QuadraticMove(1, 2, np.eye(2), np.eye(2), np.eye(2)))),
        "share the sequence dimension"),
    "extend_to_square without moves": (lambda: extend_to_square([]), "no moves supplied"),
    "extend_to_square gap": (
        lambda: extend_to_square([ragged(0, 1, 2), ragged(2, 2, 1)]), "are not consecutive"),
    "extend_to_square dimension jump": (
        lambda: extend_to_square([ragged(0, 1, 2), ragged(1, 3, 1)]), "has dimension 2 in one move"),
    # classify
    "basis T not square": (
        lambda: ClassifiedBasis(0, np.zeros((1, 2)), ("I",)), "T must be square"),
    "basis label count": (lambda: ClassifiedBasis(0, np.eye(2), ("I",)), "one label per row"),
    "basis unknown label": (lambda: ClassifiedBasis(0, np.eye(1), ("q",)), "unknown vector type"),
    "classify_step Hessian shape": (
        lambda: classify_step(None, None, np.zeros((1, 2))), "Hessian dimension mismatch"),
    # lattice
    "graph negative mass": (lambda: StepGraph((0,), (0,), mass=-1.0), "mass must be non-negative"),
    "graph vertex weights": (
        lambda: StepGraph((0,), (0,), vertex_weight_from=(1.0, 2.0)), "one vertex weight per vertex"),
    "graph edge out of range": (
        lambda: StepGraph((0,), (0,), cross=((0, 1, 1.0),)), "cross edge (0,1) out of range"),
    "graph self loop": (
        lambda: StepGraph((0, 1), (0,), intra_from=((1, 1, 1.0),)), "intra_from edge (1,1,1.0) invalid"),
    "graph non-positive weight": (
        lambda: StepGraph((0,), (0,), cross=((0, 0, 0.0),)), "cross edge (0,0,0.0) invalid"),
    "reference basis below 12 slots": (lambda: reference_basis_t2(11), "at least 12 slots"),
    # linalg
    "as_matrix of a 3-d array": (lambda: as_matrix(np.zeros((2, 2, 2))), "got ndim=3"),
    "subspace basis shape": (
        lambda: Subspace(3, np.zeros((2, 1))), "does not match ambient_dim 3"),
    "subspace too many columns": (
        lambda: Subspace(1, np.zeros((1, 2))), "more basis columns than ambient"),
    "intersect ambient dimensions": (
        lambda: intersect(full_space(2), full_space(3)), "ambient dimensions differ"),
    "subtract ambient dimensions": (
        lambda: subtract(full_space(2), full_space(3)), "ambient dimensions differ"),
    "restricted_inverse not square": (
        lambda: restricted_inverse(np.zeros((2, 3)), full_space(2)), "matrix must be square"),
    "restricted_inverse not symmetric": (
        lambda: restricted_inverse([[1.0, 1.0], [0.0, 1.0]], full_space(2)),
        "matrix must be symmetric"),
    "restricted_inverse ambient dimension": (
        lambda: restricted_inverse(np.eye(2), full_space(3)), "ambient dimension mismatch"),
}


@pytest.mark.parametrize("case", list(CASES))
def test_input_check_raises(case):
    call, fragment = CASES[case]
    with pytest.raises(InputError) as err:
        call()
    assert fragment in str(err.value)


def test_span_of_no_rows_is_empty():
    span = span_of_rows([], 3)
    assert (span.ambient_dim, span.dim) == (3, 0)
