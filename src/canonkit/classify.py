"""Eight-type null-vector classification and the labelled step basis.

At a step sandwiched between cross matrices c_prev (incoming) and c_next
(outgoing) with middle Hessian h, every direction falls into one of eight
types by membership in rightNull(c_prev), leftNull(c_next) and null(h):

    I      in all three                 gauge
    H      both c-nulls, not h-null     second-class pair
    l      leftNull + h-null only       coarse-graining, holonomic source
    lambda leftNull only                coarse-graining
    r      rightNull + h-null only      refining, holonomic source
    rho    rightNull only               refining
    z      h-null only                  boundary-data
    gamma  none                         fully propagating
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .actions import moves_tolerance
from .errors import DegeneracyError, InputError
from .linalg import (
    DEFAULT_TOL,
    _completed_rank,
    _difference_rows,
    _fix_signs,
    _intersect_rows,
    _meet,
    _null_rows,
    _symmetric_null_rows,
    as_matrix,
    asymmetry,
    check_regular,
    inverse_on_rows,
    numeric_rank,
    with_scale,
    zero_cut,
)

VECTOR_TYPES = ("I", "H", "l", "lambda", "r", "rho", "z", "gamma")

# index groups used throughout the canonical analysis
LEFT_TYPES = ("I", "H", "l", "lambda")      # pre-constraint rows
RIGHT_TYPES = ("I", "H", "r", "rho")        # post-constraint rows
ALPHA_TYPES = ("H", "lambda", "rho", "gamma")   # h-regular block
NULL_TYPES = ("I", "l", "r", "z")           # h-null block
PRE_OBS_TYPES = ("r", "rho", "z", "gamma")  # A rows: propagate out of the step
POST_OBS_TYPES = ("l", "lambda", "z", "gamma")  # B rows: propagate into the step
# time reversal swaps coarse-graining and refining types and fixes the rest
REVERSED_TYPE = {"l": "r", "r": "l", "lambda": "rho", "rho": "lambda"}
# (in rightNull(c_prev), in leftNull(c_next), in null(h)) -> type
TYPE_OF_MEMBERSHIP = {
    (True, True, True): "I", (True, True, False): "H", (False, True, True): "l",
    (False, True, False): "lambda", (True, False, True): "r", (True, False, False): "rho",
    (False, False, True): "z", (False, False, False): "gamma",
}


@dataclass(frozen=True)
class ClassifiedBasis:
    """Invertible step basis with one of the eight type labels per row."""

    step: int
    T: np.ndarray          # (Q, Q); row Gamma is basis vector (T)_Gamma
    labels: tuple          # one VECTOR_TYPES entry per row
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        t = as_matrix(self.T)
        if t.shape[0] != t.shape[1]:
            raise InputError("T must be square")
        if len(self.labels) != t.shape[0]:
            raise InputError("one label per row required")
        for lab in self.labels:
            if lab not in VECTOR_TYPES:
                raise InputError(f"unknown vector type {lab!r}")
        object.__setattr__(self, "T", t)
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "_row_groups", {})

    @property
    def dim(self) -> int:
        return self.T.shape[0]

    @property
    def counts(self) -> dict:
        return {t: self.labels.count(t) for t in VECTOR_TYPES}

    def rows_of(self, *types) -> np.ndarray:
        """Row indices carrying any of the given labels, in basis order; read-only."""
        key = frozenset(types)
        if key not in self._row_groups:
            rows = np.array([k for k, lab in enumerate(self.labels) if lab in key], dtype=int)
            rows.flags.writeable = False
            self._row_groups[key] = rows
        return self._row_groups[key]

    def block(self, *types) -> np.ndarray:
        """The sub-matrix of T rows with the given labels."""
        return self.T[self.rows_of(*types)]

    @property
    def left_rows(self) -> np.ndarray:
        return self.rows_of(*LEFT_TYPES)

    @property
    def right_rows(self) -> np.ndarray:
        return self.rows_of(*RIGHT_TYPES)

    @property
    def alpha_rows(self) -> np.ndarray:
        return self.rows_of(*ALPHA_TYPES)

    @property
    def pre_observable_rows(self) -> np.ndarray:
        return self.rows_of(*PRE_OBS_TYPES)

    @property
    def post_observable_rows(self) -> np.ndarray:
        return self.rows_of(*POST_OBS_TYPES)

    @cached_property
    def abs_det(self) -> float:
        return float(abs(np.linalg.det(self.T)))

    def to_split_config(self, x) -> np.ndarray:
        """x^Gamma = (T^-T x)^Gamma."""
        return np.linalg.solve(self.T.T, np.asarray(x, dtype=float))

    def from_split_config(self, x_split) -> np.ndarray:
        return self.T.T @ np.asarray(x_split, dtype=float)

    def to_split_momentum(self, p) -> np.ndarray:
        return self.T @ np.asarray(p, dtype=float)

    def from_split_momentum(self, p_split) -> np.ndarray:
        return np.linalg.solve(self.T, np.asarray(p_split, dtype=float))

    def reversed(self) -> "ClassifiedBasis":
        """The same rows seen backward in time: l <-> r and lambda <-> rho."""
        labels = tuple(REVERSED_TYPE.get(lab, lab) for lab in self.labels)
        return ClassifiedBasis(step=self.step, T=self.T, labels=labels, tol=self.tol)

    def restricted_hessian_inverse(self, h, tol: float = None) -> np.ndarray:
        """h^+ = T_alphaᵀ (T_alpha h T_alphaᵀ)⁻¹ T_alpha on the alpha block."""
        tol = self.tol if tol is None else tol
        return inverse_on_rows(as_matrix(h), self.block(*ALPHA_TYPES), tol,
                               f"alpha block of the Hessian at step {self.step}")


def classify_step(c_prev, c_next, h, tol: float = DEFAULT_TOL, step: int = 0) -> ClassifiedBasis:
    """Build the labelled transformation basis at one step.

    ``c_prev``/``c_next`` may be None at the ends of a sequence; an absent
    matrix acts like the zero matrix (every vector is a null vector on that
    side).  The basis follows the staged maximal-independence procedure:
    I first, then H/l/r, then lambda/rho, then z, then gamma; each group is
    internally orthonormal.

    Only the active block is classified.  A slot is active when c_prev's
    column, c_next's row or h's row or column at it has a nonzero entry.
    Any other slot, such as a zero-padded slot of a varying discretization,
    lies in all three null spaces: it is type I, and its unit row follows
    the active I rows, in slot order.  The block drops the exactly-zero
    rows of c_prev and columns of c_next, which leaves its null spaces
    unchanged.  Every rank cut is taken in the block's own dimension (the
    scale still comes from the full matrices), so a zero-padded problem
    makes the decisions of its unpadded original.  When every slot is
    active the matrices are classified as they are, without copies.

    The groups are built on plain orthonormal row stacks, and each
    decomposition yields all it determines: rightNull(c_prev) and
    leftNull(c_next) come from one SVD each, null(h) from one ``eigh``;
    the intersection that finds I in R ∩ L leaves H as its complement; and
    T = [chosen groups; gamma] is regular when the singular values of gamma's
    difference decomposition, together with ones for gamma's rows, pass the
    rank rule.  Signs are fixed once per group.  An outer step holds only
    I, H, r, rho (no c_prev) or I, H, l, lambda (no c_next), built in at most
    5 decompositions, with rho's (lambda's) singular values in gamma's place.
    |det T| and label groups are computed once per basis: a basis' matrices
    are not to be changed after construction.
    """
    h = as_matrix(h)
    q = h.shape[0]
    if h.shape != (q, q):
        raise InputError("Hessian dimension mismatch")
    c_prev = None if c_prev is None else as_matrix(c_prev)
    c_next = None if c_next is None else as_matrix(c_next)
    if ((c_prev is not None and c_prev.shape[1] != q)
            or (c_next is not None and c_next.shape[0] != q)):
        raise InputError("cross-matrix dimensions do not match the Hessian")
    tol = with_scale(tol, c_prev, c_next, h)
    if asymmetry(h, tol):
        raise InputError("Hessian must be symmetric")

    active = h.any(axis=0) | h.any(axis=1)
    if c_prev is not None:
        active |= c_prev.any(axis=0)
        nonzero = c_prev.any(axis=1)
        c_prev = c_prev if nonzero.all() else c_prev[nonzero]
    if c_next is not None:
        active |= c_next.any(axis=1)
        nonzero = c_next.any(axis=0)
        c_next = c_next if nonzero.all() else c_next[:, nonzero]
    # no copies for a dense input: copying every slot classifies designed-scan ~8 % slower
    dense = active.all()
    if not dense:
        slots = np.flatnonzero(active)
        h = h[np.ix_(slots, slots)]
        c_prev = None if c_prev is None else c_prev[:, slots]
        c_next = None if c_next is None else c_next[slots]
    k = h.shape[0]
    if k == 0:
        return ClassifiedBasis(step=step, T=np.eye(q), labels=("I",) * q, tol=tol)
    right = np.eye(k) if c_prev is None else _null_rows(c_prev, tol)
    left = np.eye(k) if c_next is None else _null_rows(c_next.T, tol)
    hnull = _symmetric_null_rows(h, tol)

    gauge, pair = _intersect_rows(_meet(right, left, tol), hnull, tol)
    grp = dict.fromkeys(VECTOR_TYPES, np.zeros((0, k)))
    grp["I"], grp["H"] = _fix_signs(gauge), _fix_signs(pair)
    # (type, span, excluded types); an outer step skips z, gamma and the absent side's pair
    pairs = (("l", left, "lambda"), ("r", right, "rho"))
    pairs = pairs[1:] if c_prev is None else pairs[:1] if c_next is None else pairs
    stages = [stage for hol, side, t in pairs
              for stage in ((hol, _meet(side, hnull, tol), "I"), (t, side, ("I", "H", hol)))]
    if len(pairs) == 2:
        stages += [("z", hnull, "Ilr"), ("gamma", np.eye(k), VECTOR_TYPES[:-1])]
    for t, span, others in stages:
        rows, sv = _difference_rows(span, np.concatenate([grp[o] for o in others]), tol)
        grp[t] = _fix_signs(rows)

    c = {t: grp[t].shape[0] for t in VECTOR_TYPES}
    if sum(c.values()) != k:
        raise DegeneracyError(f"step {step}: classification produced {sum(c.values())} "
                              f"of {k} basis vectors on the active slots")
    # T is dimensionless: its rank is not measured against the problem scale.
    # The full T is [chosen, 0; last, 0; 0, 1] up to a permutation, the last
    # stage's rows orthonormal and orthogonal to the chosen rows: sv and ones decide
    if _completed_rank(sv, k, float(tol)) < k:
        raise DegeneracyError(f"step {step}: classified basis is numerically singular")
    if (c["I"] + c["H"] + c["l"] + c["lambda"] != left.shape[0]
            or c["I"] + c["H"] + c["r"] + c["rho"] != right.shape[0]
            or c["I"] + c["l"] + c["r"] + c["z"] != hnull.shape[0]):
        raise DegeneracyError("group dimensions inconsistent with null spaces")
    t_matrix = np.concatenate([grp[t] for t in VECTOR_TYPES])
    if not dense:
        rows = np.zeros((k, q))
        rows[:, slots] = t_matrix
        t_matrix = np.vstack([rows[:c["I"]], np.eye(q)[~active], rows[c["I"]:]])
        c["I"] += q - k
    labels = tuple(t for t in VECTOR_TYPES for _ in range(c[t]))
    return ClassifiedBasis(step=step, T=t_matrix, labels=labels, tol=tol)


def _row_labels(rows: np.ndarray, c_prev, c_next, h, tol) -> tuple:
    """Type label of every row by direct membership tests; each matrix takes
    one sigma_max and one product with all rows."""
    norms = np.linalg.norm(rows, axis=1)

    def is_null(mat, transpose):
        if mat is None:
            return [True] * len(rows)
        m = as_matrix(mat)
        sigma = np.linalg.svd(m, compute_uv=False)[0] if m.size else 0.0
        prod = rows @ (m.T if transpose else m)
        return (np.linalg.norm(prod, axis=1) <= zero_cut(tol, max(m.shape), sigma) * norms).tolist()

    memberships = zip(is_null(c_prev, True), is_null(c_next, False), is_null(h, False))
    return tuple(TYPE_OF_MEMBERSHIP[key] for key in memberships)


def label_for(v, c_prev, c_next, h, tol: float = DEFAULT_TOL) -> str:
    """Type label of a single vector by direct membership tests."""
    rows = np.atleast_2d(np.asarray(v, dtype=float))
    return _row_labels(rows, c_prev, c_next, h, with_scale(tol, c_prev, c_next, h))[0]


def classify_rows(T, c_prev, c_next, h, tol: float = DEFAULT_TOL, step: int = 0) -> ClassifiedBasis:
    """Label the rows of an explicitly supplied basis (e.g. a reference fixture)."""
    t = as_matrix(T)
    check_regular(t, float(tol), f"step {step}: supplied basis")
    tol = with_scale(tol, c_prev, c_next, h)
    return ClassifiedBasis(step=step, T=t, labels=_row_labels(t, c_prev, c_next, h, tol), tol=tol)


def classify_sequence(seq, tol: float = DEFAULT_TOL, overrides: dict = None) -> dict:
    """Classified bases for every step of a move sequence.

    ``overrides`` maps step -> explicit T matrix; overridden steps are
    labelled with classify_rows instead of the default construction.
    An override for a step the sequence does not have is an InputError, and
    so is a move that does not start where the previous one ends.
    """
    for prev, nxt in zip(seq.moves, seq.moves[1:]):
        if nxt.step_from != prev.step_to:
            raise InputError(f"move {nxt.step_from}->{nxt.step_to} does not start where "
                             f"move {prev.step_from}->{prev.step_to} ends")
    tol = moves_tolerance(tol, *seq.moves)
    overrides = overrides or {}
    unknown = sorted(set(overrides) - set(seq.steps))
    if unknown:
        raise InputError(f"basis overrides for steps {unknown} outside the sequence "
                         f"(steps {seq.first_step}..{seq.last_step})")
    bases = {}
    for n in seq.steps:
        m_in = seq.move_into(n)
        m_out = seq.move_out_of(n)
        c_prev = None if m_in is None else m_in.c
        c_next = None if m_out is None else m_out.c
        h = seq.hessian(n)
        if n in overrides:
            bases[n] = classify_rows(overrides[n], c_prev, c_next, h, tol, step=n)
        else:
            bases[n] = classify_step(c_prev, c_next, h, tol, step=n)
    return bases


@dataclass(frozen=True)
class VariableSplit:
    """Data of the canonical transformation to split coordinates.

        x^Gamma = (T^-T x)^Gamma
        -pi_Gamma = (T p)_Gamma + (T a_next x)_Gamma
        +pi_Gamma = (T p)_Gamma - (T b_prev x)_Gamma
    """

    basis: ClassifiedBasis
    pre_shift: np.ndarray   # T a_next
    post_shift: np.ndarray  # T b_prev

    def pre_pi(self, x, p) -> np.ndarray:
        return self.basis.to_split_momentum(p) + self.pre_shift @ np.asarray(x, float)

    def post_pi(self, x, p) -> np.ndarray:
        return self.basis.to_split_momentum(p) - self.post_shift @ np.asarray(x, float)

    def momentum_from_post_pi(self, x, post_pi) -> np.ndarray:
        p_split = np.asarray(post_pi, float) + self.post_shift @ np.asarray(x, float)
        return self.basis.from_split_momentum(p_split)


def split_variables(basis: ClassifiedBasis, a_next=None, b_prev=None) -> VariableSplit:
    """Assemble the split-coordinate transformation at a step.

    Absent neighbour matrices are treated as zero, matching the end-of-
    sequence convention of classify_step.
    """
    q = basis.dim
    a_next = np.zeros((q, q)) if a_next is None else as_matrix(a_next)
    b_prev = np.zeros((q, q)) if b_prev is None else as_matrix(b_prev)
    return VariableSplit(
        basis=basis,
        pre_shift=basis.T @ a_next,
        post_shift=basis.T @ b_prev,
    )


def hessian_block(basis: ClassifiedBasis, h, row_types, col_types) -> np.ndarray:
    """The (row_types, col_types) sub-block of T h Tᵀ."""
    rows, cols = ((t,) if isinstance(t, str) else t for t in (row_types, col_types))
    return basis.block(*rows) @ as_matrix(h) @ basis.block(*cols).T


def m_lambda_rho(basis: ClassifiedBasis, h, tol: float = None) -> int:
    """Rank of the (H, lambda) x (H, rho) block of T h Tᵀ less N_H.  The primary
    brackets vanish off that block, so their rank is 2 N_H + 2m, kept by lambda
    += X H and rho += Y H.  A rank below N_H, a commuting pair, is a DegeneracyError."""
    n_h = len(basis.rows_of("H"))
    m = numeric_rank(hessian_block(basis, h, ("H", "lambda"), ("H", "rho")),
                     with_scale(basis.tol if tol is None else tol, h)) - n_h
    if m < 0:
        raise DegeneracyError(f"step {basis.step}: a second-class pair commutes (block rank < N_H)")
    return m
