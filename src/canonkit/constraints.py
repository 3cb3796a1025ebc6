"""Linear constraints, their Poisson algebra, and the first/second-class split.

Sign conventions, fixed once: {x, p} = +1, so the bracket of two linear
functionals C = p_c·p + x_c·x is x_c(1)·p_c(2) - p_c(1)·x_c(2).  With the
momentum maps of the actions module, a pre/post pair built from null rows
L, R then brackets to L·h·R.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, repeat

import numpy as np

from .actions import moves_tolerance
from .classify import ClassifiedBasis, m_lambda_rho
from .errors import InputError
from .linalg import DEFAULT_TOL, numeric_rank, with_scale, zero_cut

KINDS = ("pre", "post", "holonomic_left", "holonomic_right", "boundary_data")


@dataclass(frozen=True)
class LinearConstraint:
    """A linear phase-space functional C = p_coeffs·p + x_coeffs·x (+ far-step term).

    ``step`` is an int, or an (initial, final) pair for boundary-data
    constraints, whose far-step configuration coefficients live in
    ``x_coeffs_other``.  ``multiplier_terms`` records symbolic Lagrange-
    multiplier coefficients of effective constraints as (name, value) pairs.
    """

    step: object
    kind: str
    p_coeffs: np.ndarray
    x_coeffs: np.ndarray
    x_coeffs_other: np.ndarray = None
    source_type: str = ""
    trivial: bool = False
    multiplier_terms: tuple = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InputError(f"unknown constraint kind {self.kind!r}")
        p = np.asarray(self.p_coeffs, dtype=float)
        x = np.asarray(self.x_coeffs, dtype=float)
        if p.shape != x.shape:
            raise InputError("p_coeffs and x_coeffs must have equal length")
        object.__setattr__(self, "p_coeffs", p)
        object.__setattr__(self, "x_coeffs", x)
        if self.x_coeffs_other is not None:
            object.__setattr__(
                self, "x_coeffs_other", np.asarray(self.x_coeffs_other, dtype=float)
            )

    @property
    def steps(self) -> tuple:
        return tuple(self.step) if isinstance(self.step, (tuple, list)) else (self.step,)

    def x_part_at(self, step: int) -> np.ndarray:
        """Configuration coefficients of this functional at a given step."""
        if step not in self.steps:
            raise InputError(f"constraint does not live at step {step}")
        return self.x_coeffs if step == self.steps[0] else self.x_coeffs_other

    def evaluate(self, x, p=None, x_other=None) -> float:
        val = float(self.x_coeffs @ np.asarray(x, float))
        if p is not None:
            val += float(self.p_coeffs @ np.asarray(p, float))
        if self.x_coeffs_other is not None:
            if x_other is None:
                raise InputError("boundary-data constraint needs both steps' data")
            val += float(self.x_coeffs_other @ np.asarray(x_other, float))
        return val


def primary_constraints(move_prev, move_next, basis: ClassifiedBasis) -> list:
    """Primary pre- and post-constraints at the basis' step.

    Post-constraints come from the incoming move (one per I/H/r/rho row),
    pre-constraints from the outgoing move (one per I/H/l/lambda row).  A
    missing move on one side suppresses that side's constraints.
    """
    sides = []
    if move_prev is not None:
        if move_prev.step_to != basis.step:
            raise InputError("move_prev does not arrive at the basis step")
        sides.append(("post", basis.right_rows, move_prev.b, -1.0))
    if move_next is not None:
        if move_next.step_from != basis.step:
            raise InputError("move_next does not leave from the basis step")
        sides.append(("pre", basis.left_rows, move_next.a, 1.0))
    out = []
    for kind, rows, hess, sign in sides:
        ks = rows.tolist()
        out += _rows(basis.step, kind, [basis.labels[k] for k in ks],
                     sign * _row_products(hess, basis.T, rows), p=(basis.T[k] for k in ks))
    return out


def _rows(step, kind, labels, x, far=None, p=None, cut=None) -> list:
    """One ``LinearConstraint`` per row of x (and far and p; zero momenta
    without p).  Given a ``cut``, the rows whose x and far entries all lie
    within it are flagged trivial, in one test for the group."""
    if not len(x):
        return []
    trivial = repeat(False)
    if cut is not None:
        both = x if far is None else np.concatenate((x, far), axis=1)
        trivial = (np.abs(both).max(axis=1) <= cut).tolist()
    return [LinearConstraint(step, kind, *row) for row in
            zip(repeat(np.zeros(x.shape[1])) if p is None else p, x,
                repeat(None) if far is None else far, labels, trivial)]


def _row_products(m, t, rows) -> np.ndarray:
    """Row i is ``m @ t[rows[i]]``, bit for bit: numpy's matmul runs one gemv
    per stacked item, where ``t[rows] @ m.T`` would be one gemm, whose
    blocking changes the rounding.  Empty groups, common on small steps,
    skip the indexing and matmul's fixed cost."""
    if not len(rows):
        return np.empty((0, m.shape[0]))
    return np.matmul(m, t[rows][:, :, None])[:, :, 0]


def poisson_bracket(c1: LinearConstraint, c2: LinearConstraint) -> float:
    """{C1, C2} with the convention {x, p} = +1.

    Both constraints must share a step; the bracket contracts their
    coefficients at that step.
    """
    shared = set(c1.steps) & set(c2.steps)
    if not shared:
        raise InputError("constraints live at disjoint steps")
    step = min(shared)
    x1 = c1.x_part_at(step)
    x2 = c2.x_part_at(step)
    p1 = np.zeros_like(x1) if isinstance(c1.step, (tuple, list)) else c1.p_coeffs
    p2 = np.zeros_like(x2) if isinstance(c2.step, (tuple, list)) else c2.p_coeffs
    return float(x1 @ p2 - p1 @ x2)


@dataclass(frozen=True)
class BracketTable:
    """Antisymmetric table of pairwise Poisson brackets with class tags."""

    constraints: tuple
    brackets: np.ndarray
    class_split: tuple      # "first" | "second" per constraint
    m_lambda_rho: int

    @property
    def all_first_class(self) -> bool:
        return all(tag == "first" for tag in self.class_split)


def _stacked(constraints):
    """(stack, Q): row i of the stack is constraint i's p, its x at its own
    (first) step and, when some constraint has one, its far-step x or
    zeros.  A non-finite coefficient is an InputError."""
    constraints = list(constraints)
    if not constraints:
        return np.zeros((0, 0)), 0
    q = constraints[0].p_coeffs.size
    far = [k for k, c in enumerate(constraints) if c.x_coeffs_other is not None]
    # zeros, then fill: a vstack raised peak RSS ~8 MB via glibc's mmap threshold
    stack = np.zeros((len(constraints), (3 if far else 2) * q))
    stack[:, :q] = [c.p_coeffs for c in constraints]
    stack[:, q : 2 * q] = [c.x_coeffs for c in constraints]
    if far:
        stack[far, 2 * q :] = [constraints[k].x_coeffs_other for k in far]
    if not np.isfinite(stack).all():
        raise InputError("constraint coefficients must be finite")
    return stack, q


def _brackets(stack, q):
    """Brackets of a ``_stacked`` set whose constraints share one step, in
    one matrix product: with coefficient rows X and P, ``M = X Pᵀ`` and the
    table is ``M - Mᵀ``, entry (i, j) x_i·p_j - x_j·p_i, exactly
    antisymmetric with a zero diagonal.  The caller ensures the shared step."""
    m = stack[:, q:2 * q] @ stack[:, :q].T
    return m - m.T


def bracket_table(constraints, h, basis: ClassifiedBasis, tol: float = DEFAULT_TOL) -> BracketTable:
    """Full bracket table at one step; a constraint is first class iff its
    bracket row vanishes within tolerance.

    Constraints that all live at one step are bracketed by ``_brackets``;
    sets with boundary-data or mixed-step constraints go pair by pair through
    ``poisson_bracket``.  A plain float ``tol`` is measured against the
    scale of ``h``, or of the largest |x coefficient| when ``h`` is None.
    A non-finite coefficient is an InputError on either path.
    """
    constraints = tuple(constraints)
    stack, q = _stacked(constraints)
    tol = with_scale(tol, h if h is not None else stack[:, q:])
    n = len(constraints)
    steps = [c.step for c in constraints]
    if not any(isinstance(s, (tuple, list)) for s in steps) and len(set(steps)) <= 1:
        table = _brackets(stack, q)
    else:
        table = np.zeros((n, n))
        for i, j in combinations(range(n), 2):
            val = table[i, j] = poisson_bracket(constraints[i], constraints[j])
            table[j, i] = -val
    row_max = np.abs(table).max(axis=1) if n else np.zeros(0)
    cut = zero_cut(tol, n, row_max.max() if n else 0.0)
    tags = tuple("first" if r <= cut else "second" for r in row_max)
    m = m_lambda_rho(basis, h, tol) if h is not None else 0
    return BracketTable(constraints=constraints, brackets=table, class_split=tags, m_lambda_rho=m)


def secondary_constraints(move_prev, move_next, basis: ClassifiedBasis,
                          tol: float = DEFAULT_TOL) -> list:
    """Holonomic and boundary-data constraints produced by the middle-step
    equations of motion of a two-move chain.

    l rows give configuration constraints at the initial step, r rows at
    the final step, z rows relate both.  Rows whose contractions vanish
    identically are kept but flagged trivial so counts stay auditable.
    """
    if move_prev is None or move_next is None:
        raise InputError("secondary constraints need both moves")
    if move_prev.step_to != basis.step or move_next.step_from != basis.step:
        raise InputError("basis step must sit between the two moves")
    cut = zero_cut(moves_tolerance(tol, move_prev, move_next), basis.dim)
    sides = (("l", "holonomic_left", move_prev.step_from, move_prev.c),
             ("r", "holonomic_right", move_next.step_to, move_next.c.T))
    out = []
    for label, kind, step, cross in sides:
        out += _rows(step, kind, repeat(label), _row_products(cross, basis.T, basis.rows_of(label)),
                     cut=cut)
    near, far = (_row_products(cross, basis.T, basis.rows_of("z")) for *_, cross in sides)
    return out + _rows((move_prev.step_from, move_next.step_to), "boundary_data", repeat("z"),
                       near, far, cut=cut)


def independent_count(constraints, tol: float = DEFAULT_TOL) -> int:
    """Number of linearly independent constraint functionals: the rank of
    their ``_stacked`` rows with every x part divided by the problem scale
    (the Tolerance's, or the largest |x coefficient| for a plain float),
    since p is dimensionless and x carries that scale."""
    stack, q = _stacked(constraints)
    stack[:, q:] /= with_scale(tol, stack[:, q:]).scale or 1.0
    return numeric_rank(stack, float(tol))
