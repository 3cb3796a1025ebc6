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
from itertools import compress

import numpy as np

from .actions import MoveSequence, QuadraticMove, _trusted, moves_tolerance
from .classify import NULL_TYPES, ClassifiedBasis, classify_rows, classify_step
from .constraints import LinearConstraint, _stacked, primary_constraints, secondary_constraints
from .errors import InputError, InternalError
from .linalg import DEFAULT_TOL, numeric_rank, zero_cut

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
class EffectiveMove(QuadraticMove):
    """A composed move S~(x_from, x_to), itself a quadratic move, plus the
    multiplier records it generated and the bases it was glued at."""

    multipliers: tuple = ()
    glued_bases: tuple = ()   # one ClassifiedBasis per eliminated step, in step order

    @property
    def provenance(self) -> tuple:
        """Step labels of the composed chain."""
        return (self.step_from, *(b.step for b in self.glued_bases), self.step_to)


def compose(move1, move2, basis_mid: ClassifiedBasis, tol: float = DEFAULT_TOL) -> EffectiveMove:
    """Integrate out the step shared by two adjacent moves."""
    if move1.step_to != move2.step_from:
        raise InputError("moves are not adjacent")
    if basis_mid.step != move1.step_to:
        raise InputError("basis is not classified at the shared step")
    if not move1.dim == move2.dim == basis_mid.dim:
        raise InputError("moves and basis must share the extended dimension")
    tol = moves_tolerance(tol, move1, move2)
    h_plus = basis_mid.restricted_hessian_inverse(move1.b + move2.a, tol)

    new_mult = ()
    if basis_mid.rows_of(*Q_TYPES).size:
        # secondary_constraints emits l rows, then r rows, then z rows, in
        # basis row order: the order of ``rows``
        rows = np.concatenate([basis_mid.rows_of(label) for label in Q_TYPES])
        new_mult = tuple(
            MultiplierRecord(source_type=con.source_type, step=basis_mid.step,
                             row=basis_mid.T[k], constraint=con)
            for k, con in zip(rows, secondary_constraints(move1, move2, basis_mid, tol))
        )
    # a plain move carries no multipliers and glued no step
    c1, c2 = move1.c, move2.c
    c1_h = c1 @ h_plus
    return EffectiveMove(
        move1.step_from,
        move2.step_to,
        move1.a - c1_h @ c1.T,
        move2.b - c2.T @ h_plus @ c2,
        -c1_h @ c2,
        multipliers=(getattr(move1, "multipliers", ()) + getattr(move2, "multipliers", ())
                     + new_mult),
        glued_bases=(getattr(move1, "glued_bases", ()) + (basis_mid,)
                     + getattr(move2, "glued_bases", ())),
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
    cut = zero_cut(moves_tolerance(tol, eff), eff.dim)
    # the primary constraints of each outer step gain a term for each record
    # whose constraint lives there: l at the step before its glued step, r at
    # the step after, z at both; records at eliminated steps only pass through
    sides = (
        (basis_from, primary_constraints(None, eff, basis_from), 1.0),
        (basis_to, primary_constraints(eff, None, basis_to), -1.0),
    )
    out = []
    for basis, primary, sign in sides:
        parts = [(rec.name, rec.constraint.x_part_at(basis.step)) for rec in eff.multipliers
                 if basis.step in rec.constraint.steps]
        if not parts or not primary:
            out.extend(primary)
            continue
        names, x = zip(*parts)
        stack, q = _stacked(primary)
        # one ddot per (constraint, multiplier) pair, bit for bit float(p @ x);
        # p @ x.T would be one gemm, whose blocking changes the rounding
        coeffs = sign * np.matmul(stack[:, None, None, :q],
                                  np.array(x)[None, :, :, None])[:, :, 0, 0]
        for con, row, kept in zip(primary, coeffs.tolist(), (np.abs(coeffs) > cut).tolist()):
            terms = tuple(compress(zip(names, row), kept))
            out.append(_trusted(LinearConstraint, {**vars(con), "multiplier_terms": terms})
                       if terms else con)
    out.extend(rec.constraint for rec in eff.multipliers)
    return out


def effective_outer_bases(eff: EffectiveMove, tol: float = DEFAULT_TOL):
    """Outer-step classifications of a composed move viewed in isolation.

    The from-step sees only the outgoing effective data, the to-step only
    the incoming; this is the classification the move's own constraint
    and Hilbert-space counts refer to.
    """
    tol = moves_tolerance(tol, eff)
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
    if eff_left.step_to != move_right.step_from:
        raise InputError("effective move and next move are not adjacent")
    step = eff_left.step_to
    tol = moves_tolerance(tol, eff_left, move_right)
    h_eff = eff_left.b + move_right.a
    basis = classify_step(eff_left.c, move_right.c, h_eff, tol, step=step)
    rows = []
    if old_basis is not None:
        if old_basis.step != step:
            raise InputError("old basis lives at a different step")
        new = classify_rows(old_basis.T, eff_left.c, move_right.c, h_eff, tol, step=step)
        for k, (old_label, new_label) in enumerate(zip(old_basis.labels, new.labels)):
            rows.append(ReclassifiedRow(row=k, old_label=old_label, new_label=new_label))
            if old_label == "I" and new_label != "I":
                raise InternalError(
                    f"type I row {k} lost its label under composition"
                )
    return basis, tuple(rows)


def chain_compose(seq: MoveSequence, from_step: int, to_step: int,
                  tol: float = DEFAULT_TOL, first_basis: ClassifiedBasis = None) -> EffectiveMove:
    """Left fold of compose over all intermediate steps of a sequence; each
    step is classified against the data composed so far (``glued_bases``).

    The first glued step's data are the sequence's own, so a caller that
    holds its sequence basis may pass it as ``first_basis`` instead of
    having it classified again.  The range is read by ``moves_between``.
    """
    moves = seq.moves_between(from_step, to_step)
    tol = moves_tolerance(tol, *seq.moves)
    first = moves[0]
    acc = EffectiveMove(first.step_from, first.step_to, first.a, first.b, first.c)
    for nxt in moves[1:]:
        basis = first_basis or classify_step(acc.c, nxt.c, acc.b + nxt.a, tol, step=nxt.step_from)
        acc = compose(acc, nxt, basis, tol)
        first_basis = None
    return acc


def degeneracy_dims(move1, move2, eff: EffectiveMove, tol: float = DEFAULT_TOL) -> dict:
    """Null-space dimensions of c1, c2, h and the effective c~.  The first
    three are the label counts of the basis ``eff`` was glued at, at the
    moves' shared step (I+H+r+rho, I+H+l+lambda and I+l+r+z rows), so no rank
    is decided twice; a caller who glued at a supplied basis gets its counts,
    and an ``eff`` with no basis there is an InputError.  Only c~ is ranked,
    as n - rank at the moves' scale, cut as ``right_null_basis`` cuts; fewer
    than the others is the InternalError of the monotonicity verdict."""
    basis = next((b for b in getattr(eff, "glued_bases", ()) if b.step == move1.step_to), None)
    if basis is None:
        raise InputError(f"the effective move has no glued basis at step {move1.step_to}")
    tol = moves_tolerance(tol, move1, move2)
    d = {"c1": len(basis.right_rows), "c2": len(basis.left_rows),
         "h": len(basis.rows_of(*NULL_TYPES)), "c_eff": eff.dim - numeric_rank(eff.c, tol)}
    bound = max(d["c1"], d["c2"], d["h"])
    if d["c_eff"] < bound:
        raise InternalError(f"degenerate directions dropped under composition: {d['c_eff']} < "
                            f"{bound} (tolerance problem or misclassification)")
    return d


def count_monotonicity_check(move1, move2, eff: EffectiveMove, tol: float = DEFAULT_TOL) -> bool:
    """True, or ``degeneracy_dims``' InternalError: it owns the verdict."""
    degeneracy_dims(move1, move2, eff, tol)
    return True
