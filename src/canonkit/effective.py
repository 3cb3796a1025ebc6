"""Composition of moves: integrating out a middle step at fixed boundary data.

The composed coefficients follow the restricted-inverse elimination

    a~ = a1 - c1 h+ c1ᵀ,   b~ = b2 - c2ᵀ h+ c2,   c~ = -c1 h+ c2

with h+ inverted on the alpha block of the middle-step classification so
that I/l/r/z directions contribute exactly zero.  Middle rows of type
l, r, z survive as Lagrange multipliers of holonomic and boundary-data
constraints; these are carried as records and never solved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .actions import MoveSequence, QuadraticMove
from .classify import ClassifiedBasis, classify_step, label_for
from .constraints import LinearConstraint, secondary_constraints
from .errors import InputError, InternalError
from .linalg import DEFAULT_TOL, right_null_basis

Q_TYPES = ("l", "r", "z")


@dataclass(frozen=True)
class MultiplierRecord:
    """One surviving middle-step direction and the constraint it multiplies."""

    source_type: str          # "l" | "r" | "z"
    step: int                 # the eliminated step the row lives at
    row: np.ndarray           # the basis row
    constraint: LinearConstraint

    @property
    def name(self) -> str:
        kind = {"l": "H", "r": "H", "z": "B"}[self.source_type]
        return f"{kind}[{self.source_type}@{self.step}]"


@dataclass(frozen=True)
class EffectiveMove:
    """A composed move plus the multiplier records it generated."""

    base: QuadraticMove
    multipliers: tuple = ()
    provenance: tuple = ()    # step labels of the composed chain

    @property
    def step_from(self) -> int:
        return self.base.step_from

    @property
    def step_to(self) -> int:
        return self.base.step_to

    @property
    def a(self) -> np.ndarray:
        return self.base.a

    @property
    def b(self) -> np.ndarray:
        return self.base.b

    @property
    def c(self) -> np.ndarray:
        return self.base.c

    @property
    def dim(self) -> int:
        return self.base.dim


def _as_base(move) -> QuadraticMove:
    return move.base if isinstance(move, EffectiveMove) else move


def _carried(move) -> tuple:
    return move.multipliers if isinstance(move, EffectiveMove) else ()


def _eliminate(a1, c1, b2, c2, h_plus):
    """(a~, b~, c~) of the restricted-inverse elimination of the middle step;
    shared by classical moves and quantum kernels."""
    return a1 - c1 @ h_plus @ c1.T, b2 - c2.T @ h_plus @ c2, -c1 @ h_plus @ c2


def compose(move1, move2, basis_mid: ClassifiedBasis, tol: float = DEFAULT_TOL) -> EffectiveMove:
    """Integrate out the step shared by two adjacent moves."""
    m1, m2 = _as_base(move1), _as_base(move2)
    if m1.step_to != m2.step_from:
        raise InputError("moves are not adjacent")
    if basis_mid.step != m1.step_to:
        raise InputError("basis is not classified at the shared step")
    if m1.dim != m2.dim:
        raise InputError("moves must share the extended dimension")
    h_plus = basis_mid.restricted_hessian_inverse(m1.b + m2.a, tol)
    base = QuadraticMove(m1.step_from, m2.step_to, *_eliminate(m1.a, m1.c, m2.b, m2.c, h_plus))

    new_mult = []
    if basis_mid.rows_of(*Q_TYPES).size:
        # secondary_constraints emits l rows, then r rows, then z rows, in
        # basis row order; mirror that order here
        ordered = secondary_constraints(m1, m2, basis_mid, tol)
        i = 0
        for label in Q_TYPES:
            for k in basis_mid.rows_of(label):
                new_mult.append(
                    MultiplierRecord(
                        source_type=label,
                        step=basis_mid.step,
                        row=basis_mid.T[k],
                        constraint=ordered[i],
                    )
                )
                i += 1
    prov1 = move1.provenance if isinstance(move1, EffectiveMove) else (m1.step_from, m1.step_to)
    prov2 = move2.provenance if isinstance(move2, EffectiveMove) else (m2.step_from, m2.step_to)
    provenance = tuple(dict.fromkeys(prov1 + prov2))
    return EffectiveMove(
        base=base,
        multipliers=_carried(move1) + _carried(move2) + tuple(new_mult),
        provenance=provenance,
    )


def effective_constraints(eff: EffectiveMove, basis_from: ClassifiedBasis,
                          basis_to: ClassifiedBasis, tol: float = DEFAULT_TOL) -> list:
    """Pre- and post-constraints of the composed move, multiplier terms included.

    Multiplier coefficients are recorded symbolically: each constraint lists
    (multiplier name, coefficient) pairs for the Lagrange multipliers of the
    move's holonomic and boundary-data constraints.  The H/B constraints
    themselves are appended.
    """
    if basis_from.step != eff.step_from or basis_to.step != eff.step_to:
        raise InputError("outer bases do not match the effective move")
    # multiplier records from earlier compositions in a chain may reference
    # steps that have since been eliminated; those carry no coefficient at
    # the surviving outer steps and only pass through as records
    out = []
    for k in basis_from.left_rows:
        row = basis_from.T[k]
        terms = []
        for rec in eff.multipliers:
            if rec.source_type in ("l", "z") and eff.step_from in rec.constraint.steps:
                coeff = float(row @ rec.constraint.x_part_at(eff.step_from))
                if abs(coeff) > tol * eff.dim:
                    terms.append((rec.name, coeff))
        out.append(
            LinearConstraint(
                step=eff.step_from,
                kind="pre",
                p_coeffs=row,
                x_coeffs=eff.a @ row,
                source_type=basis_from.labels[k],
                multiplier_terms=tuple(terms),
            )
        )
    for k in basis_to.right_rows:
        row = basis_to.T[k]
        terms = []
        for rec in eff.multipliers:
            if rec.source_type in ("r", "z") and eff.step_to in rec.constraint.steps:
                coeff = -float(row @ rec.constraint.x_part_at(eff.step_to))
                if abs(coeff) > tol * eff.dim:
                    terms.append((rec.name, coeff))
        out.append(
            LinearConstraint(
                step=eff.step_to,
                kind="post",
                p_coeffs=row,
                x_coeffs=-(eff.b @ row),
                source_type=basis_to.labels[k],
                multiplier_terms=tuple(terms),
            )
        )
    out.extend(rec.constraint for rec in eff.multipliers)
    return out


def effective_outer_bases(eff: EffectiveMove, tol: float = DEFAULT_TOL):
    """Outer-step classifications of a composed move viewed in isolation.

    The from-step sees only the outgoing effective data, the to-step only
    the incoming; this is the classification the move's own constraint
    and Hilbert-space counts refer to.
    """
    b_from = classify_step(None, eff.c, eff.a, tol, step=eff.step_from)
    b_to = classify_step(eff.c, None, eff.b, tol, step=eff.step_to)
    return b_from, b_to


@dataclass(frozen=True)
class ReclassifiedRow:
    row: int
    old_label: str
    new_label: str


def reclassify_onshell(eff_left, move_right, tol: float = DEFAULT_TOL,
                       old_basis: ClassifiedBasis = None):
    """Reclassify the shared step against the effective data on its left.

    Returns the fresh classification of the step with respect to
    (c~ from the left, c of the right move, h~ = b~ + a_right) and, when an
    old basis is supplied, a per-row report of how its labels migrate.
    Type I rows must keep their label; anything else may change.
    """
    left = _as_base(eff_left)
    right = _as_base(move_right)
    if left.step_to != right.step_from:
        raise InputError("effective move and next move are not adjacent")
    h_eff = left.b + right.a
    basis = classify_step(left.c, right.c, h_eff, tol, step=left.step_to)
    rows = []
    if old_basis is not None:
        if old_basis.step != left.step_to:
            raise InputError("old basis lives at a different step")
        for k in range(old_basis.dim):
            new_label = label_for(old_basis.T[k], left.c, right.c, h_eff, tol)
            old_label = old_basis.labels[k]
            rows.append(ReclassifiedRow(row=k, old_label=old_label, new_label=new_label))
            if old_label == "I" and new_label != "I":
                raise InternalError(
                    f"type I row {k} lost its label under composition"
                )
    return basis, tuple(rows)


def chain_compose(seq: MoveSequence, from_step: int, to_step: int,
                  tol: float = DEFAULT_TOL) -> EffectiveMove:
    """Left fold of compose over all intermediate steps of a sequence."""
    if not (seq.first_step <= from_step < to_step <= seq.last_step):
        raise InputError("step range outside the sequence")
    moves = [m for m in seq.moves if from_step <= m.step_from and m.step_to <= to_step]
    acc = moves[0]
    if len(moves) == 1:
        base = _as_base(acc)
        return EffectiveMove(base=base, provenance=(base.step_from, base.step_to))
    for nxt in moves[1:]:
        left = _as_base(acc)
        basis = classify_step(left.c, nxt.c, left.b + nxt.a, tol, step=nxt.step_from)
        acc = compose(acc, nxt, basis, tol)
    return acc


def degeneracy_dims(move1, move2, eff: EffectiveMove, tol: float = DEFAULT_TOL) -> dict:
    """Null-space dimensions of c1, c2, h and the effective c~."""
    m1, m2 = _as_base(move1), _as_base(move2)
    q = m1.dim
    return {
        "c1": right_null_basis(m1.c, tol).dim,
        "c2": right_null_basis(m2.c, tol).dim,
        "h": right_null_basis(m1.b + m2.a, tol).dim,
        "c_eff": right_null_basis(eff.c, tol).dim,
    }


def count_monotonicity_check(move1, move2, eff: EffectiveMove,
                             tol: float = DEFAULT_TOL) -> bool:
    """Composition can only grow the number of degenerate directions."""
    d = degeneracy_dims(move1, move2, eff, tol)
    bound = max(d["c1"], d["c2"], d["h"])
    if d["c_eff"] < bound:
        raise InternalError(
            f"degenerate directions dropped under composition: {d['c_eff']} < {bound} "
            "(tolerance problem or misclassification)"
        )
    return True
