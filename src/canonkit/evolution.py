"""Canonical solves: initial-value, final-value and boundary-value problems,
plus the observable/degree-of-freedom accounting for two-move chains.

All solves work in the split coordinates of a ClassifiedBasis, where the
evolution equations reduce to one invertible square block c_AB between the
pre-observable rows A of the initial step and the post-observable rows B of
the final step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .actions import QuadraticMove, moves_tolerance
from .classify import (
    ClassifiedBasis,
    LEFT_TYPES,
    NULL_TYPES,
    POST_OBS_TYPES,
    PRE_OBS_TYPES,
    RIGHT_TYPES,
    m_lambda_rho,
    split_variables,
)
from .errors import (
    ConstraintViolationError,
    DegeneracyError,
    InconsistentBoundaryError,
    InputError,
    InternalError,
)
from .linalg import DEFAULT_TOL, check_regular, with_scale, zero_cut


@dataclass(frozen=True)
class CanonicalData:
    """Configuration and momentum at one step, with the momentum side tagged."""

    step: int
    x: np.ndarray
    p: np.ndarray
    momentum_side: str = "pre"

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        p = np.asarray(self.p, dtype=float)
        if x.shape != p.shape or x.ndim != 1:
            raise InputError("x and p must be equal-length vectors")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(p))):
            raise InputError("canonical data must be finite")
        if self.momentum_side not in ("pre", "post"):
            raise InputError("momentum_side must be 'pre' or 'post'")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "p", p)

    @property
    def dim(self) -> int:
        return self.x.size

    def reversed(self) -> "CanonicalData":
        """The same data seen backward in time: p -> -p and pre <-> post."""
        side = "post" if self.momentum_side == "pre" else "pre"
        return CanonicalData(self.step, self.x, -self.p, side)


@dataclass(frozen=True)
class SolveResult:
    """Output data plus a record of which split rows were free injections."""

    data: CanonicalData
    free_rows: tuple          # (row index, label) pairs in the output basis
    injected: np.ndarray      # values placed on those rows
    residuals: np.ndarray     # constraint residuals checked on the input


def _free_vector(basis, rows, free_values):
    vals = np.zeros(len(rows))
    if free_values is None:
        return vals
    arr = np.asarray(free_values, dtype=float)
    if arr.shape == (len(rows),):
        return arr
    if arr.shape == (basis.dim,):
        return arr[rows]
    raise InputError(
        f"free values must have length {len(rows)} (free rows) or {basis.dim} (full)"
    )


def observable_block(c_matrix, basis_from, basis_to, tol: float):
    """Pre-observable rows A, post-observable rows B and the block c_AB,
    which must be square and regular (``check_regular``)."""
    a_rows = basis_from.pre_observable_rows
    b_rows = basis_to.post_observable_rows
    block = basis_from.T[a_rows] @ c_matrix @ basis_to.T[b_rows].T
    if block.shape[0] != block.shape[1]:
        raise DegeneracyError(
            f"observable block is {block.shape[0]}x{block.shape[1]}; the two "
            "bases are classified against different data"
        )
    check_regular(block, tol, "observable block c_AB")
    return a_rows, b_rows, block


def _check_constraints(residuals, rows, basis, kind, data, tol):
    """Raise on the largest violated constraint of one side of the data."""
    ref = max(np.abs(data.x).max(), np.abs(data.p).max())
    if residuals.size and np.abs(residuals).max() > zero_cut(tol, data.dim, ref):
        k = int(np.argmax(np.abs(residuals)))
        raise ConstraintViolationError(
            f"{kind}-constraint on row {rows[k]} ({basis.labels[rows[k]]}) "
            f"violated by {residuals[k]:.3e} at step {data.step}"
        )


def forward_solve(move: QuadraticMove, basis_from: ClassifiedBasis,
                  basis_to: ClassifiedBasis, data: CanonicalData,
                  free_values=None, tol: float = DEFAULT_TOL,
                  strict: bool = True) -> SolveResult:
    """Evolve pre-side canonical data across one move.

    The input must satisfy every pre-constraint at the initial step (strict
    mode raises, otherwise the violation is only recorded).  A-priori-free
    output rows are filled from ``free_values`` (default zero).
    """
    # backward_solve runs this on reversed data: both messages hold either way
    if data.momentum_side != "pre":
        raise InputError("the data's momentum side does not match the solve direction: "
                         "pre-side data solves forward, post-side data backward")
    if data.step != move.step_from or data.dim != move.dim:
        raise InputError(f"data at step {data.step} ({data.dim} slots) does not fit a "
                         f"solve from step {move.step_from} ({move.dim} slots)")
    tol = moves_tolerance(tol, move)
    split_from = split_variables(basis_from, a_next=move.a)
    pre_pi = split_from.pre_pi(data.x, data.p)
    left = basis_from.left_rows
    residuals = pre_pi[left]
    if strict:
        _check_constraints(residuals, left, basis_from, "pre", data, tol)

    a_rows, b_rows, c_ab = observable_block(move.c, basis_from, basis_to, tol)
    x_split_from = basis_from.to_split_config(data.x)

    x_split_to = np.zeros(move.dim)
    post_pi = np.zeros(move.dim)
    if b_rows.size:
        # -pi_A = -c_AB x^B  and  +pi_B = x^A c_AB
        x_split_to[b_rows] = np.linalg.solve(c_ab, -pre_pi[a_rows])
        post_pi[b_rows] = c_ab.T @ x_split_from[a_rows]
    free_rows = basis_to.right_rows
    injected = _free_vector(basis_to, free_rows, free_values)
    x_split_to[free_rows] = injected

    x_to = basis_to.from_split_config(x_split_to)
    split_to = split_variables(basis_to, b_prev=move.b)
    p_to = split_to.momentum_from_post_pi(x_to, post_pi)
    out = CanonicalData(step=move.step_to, x=x_to, p=p_to, momentum_side="post")
    return SolveResult(
        data=out,
        free_rows=tuple((int(r), basis_to.labels[r]) for r in free_rows),
        injected=injected,
        residuals=residuals,
    )


def backward_solve(move: QuadraticMove, basis_from: ClassifiedBasis,
                   basis_to: ClassifiedBasis, data: CanonicalData,
                   free_values=None, tol: float = DEFAULT_TOL,
                   strict: bool = True) -> SolveResult:
    """Postdict pre-side data at the initial step from post-side data.

    This is ``forward_solve`` on the reversed move, bases and data, read back
    under reversal; residuals and free-row labels are the caller's.
    """
    tol = moves_tolerance(tol, move)
    rev = forward_solve(move.reversed(), basis_to.reversed(), basis_from.reversed(),
                        data.reversed(), free_values, tol, strict=False)
    residuals = -rev.residuals
    if strict:
        _check_constraints(residuals, basis_to.right_rows, basis_to, "post", data, tol)
    return SolveResult(
        data=rev.data.reversed(),
        free_rows=tuple((r, basis_from.labels[r]) for r, _ in rev.free_rows),
        injected=rev.injected,
        residuals=residuals,
    )


def boundary_solve(move1: QuadraticMove, move2: QuadraticMove,
                   basis_mid: ClassifiedBasis, x_initial, x_final,
                   multipliers=None, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Middle configuration of a two-move chain from outer configurations.

    Solves h x = -s, s = c1ᵀ x_initial + c2 x_final, on the alpha block as
    x = Tᵀ x_free - h⁺ s; the h-null rows (I, l, r, z) of x_free stay free
    and are filled from ``multipliers``.
    The source must be orthogonal to the null rows, otherwise the boundary
    data violates a holonomic or boundary-data constraint.
    """
    x0 = np.asarray(x_initial, dtype=float)
    x2 = np.asarray(x_final, dtype=float)
    q = basis_mid.dim
    if x0.shape != (q,) or x2.shape != (q,):
        raise InputError("boundary configurations must match the dimension")
    if not (np.isfinite(x0).all() and np.isfinite(x2).all()):
        raise InputError("boundary configurations must be finite")
    tol = moves_tolerance(tol, move1, move2)
    source = move1.c.T @ x0 + move2.c @ x2
    cut = zero_cut(tol, q, max(np.abs(source).max(), np.abs(x0).max(), np.abs(x2).max()))
    rows = basis_mid.rows_of("l", "r", "z")
    vals = basis_mid.T[rows] @ source
    if vals.size and np.abs(vals).max() > cut:
        k = int(np.argmax(np.abs(vals)))
        label = basis_mid.labels[rows[k]]
        kind = "boundary-data" if label == "z" else "holonomic"
        raise InconsistentBoundaryError(
            f"{kind} constraint from row {rows[k]} ({label}) violated by {vals[k]:.3e}")

    h_plus = basis_mid.restricted_hessian_inverse(move1.b + move2.a, tol)
    x_split = np.zeros(q)
    free_rows = basis_mid.rows_of(*NULL_TYPES)
    x_split[free_rows] = _free_vector(basis_mid, free_rows, multipliers)
    return basis_mid.from_split_config(x_split) - h_plus @ source


@dataclass(frozen=True)
class VariableRole:
    row: int
    label: str
    pre_observable: bool
    post_observable: bool
    a_priori_free: bool
    a_posteriori_free: bool
    gauge: bool


@dataclass(frozen=True)
class DofReport:
    """Propagation accounting for a two-move chain around a middle step."""

    counts: dict              # step -> type-count dict
    n_move: dict              # (from, to) -> propagating phase-space count
    n_through: int            # observables propagating through the middle step
    m_lambda_rho: int
    first_class: int
    second_class: int
    roles: tuple              # VariableRole per middle-step row


def variable_roles(basis: ClassifiedBasis) -> tuple:
    """Role assignment of every row at a step per its type label."""
    return tuple(
        VariableRole(row=k, label=lab, pre_observable=lab in PRE_OBS_TYPES,
                     post_observable=lab in POST_OBS_TYPES, a_priori_free=lab in RIGHT_TYPES,
                     a_posteriori_free=lab in LEFT_TYPES, gauge=lab == "I")
        for k, lab in enumerate(basis.labels)
    )


def dof_report(move1: QuadraticMove, move2: QuadraticMove,
               basis_initial: ClassifiedBasis, basis_mid: ClassifiedBasis,
               basis_final: ClassifiedBasis, tol: float = DEFAULT_TOL) -> DofReport:
    """Count propagating observables per move and through the middle step.

    n_through is 2(N_gamma + N_z + m_lambda_rho); the class counts are
    implied by the type counts, so 2Q - 2 #first - #second equals it by
    construction.  second_class = 2 N_H + 2 m_lambda_rho is the rank of the
    primary brackets, so no count depends on the basis within its labels.
    """
    if move1.step_to != basis_mid.step or move2.step_from != basis_mid.step:
        raise InputError("bases and moves are not aligned")
    h = move1.b + move2.a
    cnt = basis_mid.counts
    m = m_lambda_rho(basis_mid, h, moves_tolerance(tol, move1, move2))
    n_through = 2 * (cnt["gamma"] + cnt["z"] + m)
    second = 2 * cnt["H"] + 2 * m
    first = cnt["I"] + cnt["l"] + cnt["r"] + cnt["lambda"] + cnt["rho"] - 2 * m

    n_move = {}
    for which, move, b_from, b_to in (("first", move1, basis_initial, basis_mid),
                                      ("second", move2, basis_mid, basis_final)):
        n_move[(move.step_from, move.step_to)] = 2 * len(b_from.pre_observable_rows)
        # cross-check against the other end of the move
        if len(b_to.post_observable_rows) != len(b_from.pre_observable_rows):
            raise InternalError(f"pre/post observable counts differ across the {which} move")

    return DofReport(
        counts={b.step: b.counts for b in (basis_initial, basis_mid, basis_final)},
        n_move=n_move,
        n_through=n_through,
        m_lambda_rho=m,
        first_class=first,
        second_class=second,
        roles=variable_roles(basis_mid),
    )


@dataclass(frozen=True)
class FixedVariableResult:
    """Middle-step variables fixed by second-class pairs and lambda equations."""

    x_H: np.ndarray               # values on the H rows
    fixed_rho_rows: tuple         # basis row indices of the determinable x^rho
    x_rho_fixed: np.ndarray       # their values
    schur_lambda_rho: np.ndarray  # effective lambda-rho coupling on H-solutions
    rho_shift: np.ndarray         # transfer matrix: -pi~_rho = -pi_rho - shift @ x_split
    gamma_shift: np.ndarray


def _pivot_columns(a, m: int) -> np.ndarray:
    """The first m pivots, sorted, of QR with column pivoting (Businger and
    Golub, 1965): each step takes the column of largest remaining norm and
    projects it out of the others."""
    a = np.array(a, dtype=float)
    piv = []
    for _ in range(m):
        j = int(np.argmax(np.einsum("ij,ij->j", a, a)))
        q = a[:, j] / np.linalg.norm(a[:, j])
        a -= np.outer(q, q @ a)
        piv.append(j)
    return np.sort(piv)


def fixed_variable_solve(basis: ClassifiedBasis, h, x, post_pi,
                         tol: float = DEFAULT_TOL) -> FixedVariableResult:
    """Solve the H-row holonomic equations and the lambda equations.

    ``x`` supplies the already-known middle configuration (its lambda, rho
    and gamma components are read), ``post_pi`` the post-side split momenta
    (its lambda components feed the lambda equations).  h_HH is checked and
    factored once: every block below is read off the Schur complement of h
    on H solutions.  Its lambda-rho block has rank ``m_lambda_rho``; its m
    fixed x^rho rows are the first pivots of a column-pivoted QR.  ``x_H``
    solves the H equations for the caller's x^rho, not for ``x_rho_fixed``:
    a caller that places those values must solve for x^H again.
    """
    h = np.asarray(h, dtype=float)
    tol = with_scale(tol, h)
    x_split = basis.to_split_config(x)
    k = basis.T @ h @ basis.T.T    # h in split coordinates
    rows_h, rows_l, rows_r, rows_g = (basis.rows_of(t) for t in ("H", "lambda", "rho", "gamma"))
    tilde = np.concatenate([rows_l, rows_r, rows_g])

    h_hh = k[np.ix_(rows_h, rows_h)]
    check_regular(h_hh, tol, "H block of the Hessian (a second-class pair commutes)")
    elim = np.linalg.solve(h_hh, k[rows_h])
    s = k - k[:, rows_h] @ elim    # h on solutions of the H equations
    x_h = -elim[:, tilde] @ x_split[tilde]

    s_lr = s[np.ix_(rows_l, rows_r)]
    m = m_lambda_rho(basis, h, tol)
    fixed_rows = ()
    x_rho = np.zeros(0)
    if m:
        cols = _pivot_columns(s_lr, m)
        fixed_rows = tuple(int(rows_r[c]) for c in cols)
        # remaining rho columns enter with their current values
        known = np.concatenate([rows_l, np.delete(rows_r, cols), rows_g])
        rhs = -(np.asarray(post_pi, dtype=float)[rows_l] + s[np.ix_(rows_l, known)] @ x_split[known])
        x_rho, *_ = np.linalg.lstsq(s_lr[:, cols], rhs, rcond=None)

    # the [rho; gamma] block of s, placed on the rho and gamma columns
    rows_rg = np.concatenate([rows_r, rows_g])
    shift = np.zeros((rows_rg.size, basis.dim))
    shift[:, rows_rg] = s[np.ix_(rows_rg, rows_rg)]
    return FixedVariableResult(
        x_H=x_h,
        fixed_rho_rows=fixed_rows,
        x_rho_fixed=x_rho,
        schur_lambda_rho=s_lr,
        rho_shift=shift[:rows_r.size],
        gamma_shift=shift[rows_r.size:],
    )
