"""Deterministic dense linear algebra: ranks, null bases, intersections.

Every decision that something is numerically zero is made here, by one
rule: ``zero_cut`` = ``tol * n * max(ref, scale)`` in dimension n, with ref
sigma_max for a rank or regularity decision and the residual's reference
for a membership or residual test.  ``scale`` is the problem scale, the
largest |entry| of the data: a ``Tolerance`` carries it in place of the
float ``tol``, built once per sequence or move pair from every a, b and c
(``actions.moves_tolerance``) or from a call's own matrices
(``with_scale``).  Round-off of larger data thus has rank 0, never full
rank (Hansen, *Rank-Deficient and Discrete Ill-Posed Problems*, 1998).
Orthonormal bases are dimensionless: intersections and differences work
from small SVDs of them instead of stacked Q x Q projectors.

The kernels work on plain stacks of orthonormal rows, and each
decomposition returns all it determines.  ``_null_rows`` takes one full
SVD; ``_symmetric_null_rows`` takes one ``eigh`` of a symmetric matrix,
whose singular values are its |eigenvalues|, under the same cut; every
split of a decomposition into kept and null rows is ``_split_rows``.
``_intersect_rows`` decides on the sines of the principal angles (Björck &
Golub, Math. Comp. 27, 1973; Golub & Van Loan §6.4), with ``zero_cut`` at
reference 1 in dimension 4Q, and returns the intersection together with its
complement in its first operand.  ``_difference_rows`` takes a small right
null space with the threshold of ``right_null_basis`` at the scale of the
stacked matrix it replaces, and returns the singular values it cut: when
the excluded rows are linearly independent, they and ones are the singular
values of the excluded rows stacked over the result, so ``_completed_rank``
reads that stack's rank off them without another SVD.  ``right_null_basis``,
``left_null_basis``, ``intersect`` and ``subtract`` are ``Subspace``
wrappers over these kernels.  Null rows are ordered by ascending singular
value, then index, and each returned basis has the sign of every vector
fixed once, so identical inputs always produce bit-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, InputError

DEFAULT_TOL = 1e-10


def as_matrix(m) -> np.ndarray:
    """Coerce to a finite 2-d float array."""
    a = np.atleast_2d(np.asarray(m, dtype=float))
    if a.ndim != 2:
        raise InputError(f"expected a matrix, got ndim={a.ndim}")
    if a.size and not np.isfinite(a).all():
        raise InputError("matrix has non-finite entries")
    return a


def _check_tol(tol: float) -> float:
    if not 0 < tol < np.inf:
        raise InputError("tolerance must be positive and finite")
    return float(tol)


class Tolerance(float):
    """A float ``tol`` that carries the problem scale it is measured against."""

    __slots__ = ("scale",)

    def __new__(cls, tol: float, scale: float = 0.0):
        obj = super().__new__(cls, _check_tol(tol))
        obj.scale = float(scale)
        return obj


def with_scale(tol, *mats) -> Tolerance:
    """``tol`` against the largest |entry| of ``mats`` (None skipped), unless
    it is a Tolerance already; ``moves_tolerance`` builds through it too.  A
    scale at which a cut ``tol * n * ref`` could overflow (n up to 3Q, ref up
    to Q times the scale, Q² the largest size in ``mats``) is an InputError."""
    if isinstance(tol, Tolerance):
        return tol
    mats = [m for m in mats if m is not None and np.size(m)]
    tol = Tolerance(tol, max((np.abs(m).max() for m in mats), default=0.0))
    if not np.isfinite(3.0 * max(map(np.size, mats), default=0) * tol * tol.scale):
        raise InputError(f"the moves' scale {tol.scale!r} puts a rank cut at tol = {float(tol)!r} "
                         "beyond float range")
    return tol


def zero_cut(tol, n: int, ref=0.0):
    """The largest value that is numerically zero, elementwise in ``ref``."""
    return tol * n * np.maximum(ref, getattr(tol, "scale", 0.0))


def asymmetry(a: np.ndarray, tol) -> float:
    """The largest |a - aᵀ| entry, or 0.0 when it is numerically zero."""
    defect = float(np.abs(a - a.T).max()) if a.size else 0.0
    return defect if defect > zero_cut(tol, a.shape[0], np.abs(a).max() if a.size else 0.0) else 0.0


def numeric_rank(m, tol: float = DEFAULT_TOL) -> int:
    """Rank as the number of singular values above ``zero_cut`` at sigma_max.

    The zero matrix has sigma_max = 0 and therefore rank 0.
    """
    a = as_matrix(m)
    _check_tol(tol)
    if a.size == 0:
        return 0
    return _rank_of(np.linalg.svd(a, compute_uv=False), max(a.shape), tol)


def _rank_of(sigma: np.ndarray, n: int, tol) -> int:
    """The number of singular values above ``zero_cut`` at the largest, in
    dimension n."""
    return int(np.count_nonzero(sigma > zero_cut(tol, n, sigma.max()))) if sigma.size else 0


@dataclass(frozen=True)
class Subspace:
    """A subspace of R^n held as a matrix whose columns are orthonormal."""

    ambient_dim: int
    basis: np.ndarray  # shape (ambient_dim, dim)

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float)
        if b.ndim != 2 or b.shape[0] != self.ambient_dim:
            raise InputError(
                f"basis shape {b.shape} does not match ambient_dim {self.ambient_dim}"
            )
        if b.shape[1] > self.ambient_dim:
            raise InputError("more basis columns than ambient dimensions")
        object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        """Orthogonal projector onto the subspace."""
        return self.basis @ self.basis.T

    def complement_projector(self) -> np.ndarray:
        return np.eye(self.ambient_dim) - self.projector()

    def contains(self, v, tol: float = DEFAULT_TOL) -> bool:
        v = np.asarray(v, dtype=float)
        nv = np.linalg.norm(v)
        if nv == 0.0:
            return True
        return np.linalg.norm(v - self.projector() @ v) <= zero_cut(float(tol), self.ambient_dim, nv)

    def same_span(self, other: "Subspace", tol: float = DEFAULT_TOL) -> bool:
        """Span equality, checked by mutual projection residuals."""
        if self.ambient_dim != other.ambient_dim or self.dim != other.dim:
            return False
        if self.dim == 0:
            return True
        r1 = np.linalg.norm(self.complement_projector() @ other.basis)
        r2 = np.linalg.norm(other.complement_projector() @ self.basis)
        return max(r1, r2) <= zero_cut(float(tol), self.ambient_dim, self.dim)


def full_space(n: int) -> Subspace:
    return Subspace(n, np.eye(n))


def empty_subspace(n: int) -> Subspace:
    return Subspace(n, np.zeros((n, 0)))


def _fix_signs(rows: np.ndarray) -> np.ndarray:
    """Flip each row so its largest-magnitude component (first on near-ties)
    is positive."""
    if not rows.size:
        return rows
    mags = np.abs(rows)
    lead = (mags >= mags.max(axis=1, keepdims=True) * (1.0 - 1e-12)).argmax(axis=1)
    return rows * np.where(rows[np.arange(rows.shape[0]), lead] < 0, -1.0, 1.0)[:, None]


def _split_rows(s: np.ndarray, vh: np.ndarray, cut: float):
    """Rows of the square ``vh`` whose singular value (zero past the
    descending ``s``) is at most ``cut``, by ascending singular value, then
    index; and the other rows, in ``vh``'s order."""
    sigma = np.zeros(vh.shape[0])
    sigma[: s.size] = s
    rank = int(np.count_nonzero(s > cut))
    # sort only the tail past the rank: a boolean-mask split classifies designed-scan ~3 % slower
    return vh[rank + sigma[rank:].argsort(kind="stable")], vh[:rank]


def _null_rows(a: np.ndarray, tol) -> np.ndarray:
    """Orthonormal rows spanning {v : a v = 0}: the right singular vectors of
    one full SVD at most ``zero_cut`` at sigma_max, ordered, signs not fixed."""
    n = a.shape[1]
    if a.shape[0] == 0 or not np.any(a):
        return np.eye(n)
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    return _split_rows(s, vh, zero_cut(tol, max(a.shape), s[0]))[0]


def _symmetric_null_rows(h: np.ndarray, tol) -> np.ndarray:
    """``_null_rows`` of a symmetric ``h`` from one ``eigh``: its singular
    values are the |eigenvalues|, cut by ``zero_cut`` at the largest."""
    n = h.shape[0]
    if not np.any(h):
        return np.eye(n)
    w, v = np.linalg.eigh(h)
    order = (-np.abs(w)).argsort(kind="stable")
    return _split_rows(np.abs(w[order]), v[:, order].T, zero_cut(tol, n, np.abs(w).max()))[0]


def _intersect_rows(b1: np.ndarray, b2: np.ndarray, tol):
    """The intersection of two row spans and its complement in the first,
    both as orthonormal rows in span(b1).

    For orthonormal rows b1 (k of them) and b2 in R^Q, the singular values
    of the Q x k residual ``b1ᵀ - b2ᵀ (b2 b1ᵀ)`` are the sines of the
    principal angles between the spans, one per direction of b1 (1 for the
    directions in excess of dim b2), and its right singular vectors the
    matching coefficient rows in b1.  Directions whose sine is at most
    ``zero_cut`` at reference 1 in dimension 4Q span the intersection, the others its complement.  A
    side that takes all of b1 is b1 itself.
    """
    q = b1.shape[1]
    if not b1.shape[0] or not b2.shape[0]:
        return b1[:0], b1
    if b2.shape[0] == q:
        return b1, b1[:0]
    resid = b1.T - b2.T @ (b2 @ b1.T)
    _, sines, vh = np.linalg.svd(resid, full_matrices=False)
    inter, rest = _split_rows(sines, vh, zero_cut(float(tol), 4 * q, 1.0))
    if not rest.shape[0]:
        return b1, b1[:0]
    if not inter.shape[0]:
        return b1[:0], b1
    return inter @ b1, rest @ b1


def _meet(b1: np.ndarray, b2: np.ndarray, tol) -> np.ndarray:
    """The intersection of two row spans, in the lower-dimensional one's
    rows (b2's on a tie), so there is one sine per principal angle."""
    if b2.shape[0] <= b1.shape[0]:
        b1, b2 = b2, b1
    return _intersect_rows(b1, b2, tol)[0]


def _difference_rows(s: np.ndarray, excluded: np.ndarray, tol):
    """Orthonormal rows of span(s) orthogonal to every row of ``excluded``,
    and the singular values they were cut from.

    The rows are the right null space of the small matrix ``M = excluded sᵀ``
    mapped back through the orthonormal rows s.  The rank threshold is the
    rule of ``right_null_basis`` on the stacked matrix ``[I - P_s; excluded]``
    that ``M`` condenses: ``zero_cut`` at reference max(1, sigma_max(M)) in
    dimension Q + rows of M, where the scale is that matrix's spectral norm
    whenever the excluded rows lie inside span(s).
    """
    if not s.shape[0] or not excluded.shape[0]:
        return s, np.zeros(0)
    m = excluded @ s.T
    _, sv, vh = np.linalg.svd(m, full_matrices=True)
    return _split_rows(sv, vh, zero_cut(float(tol), s.shape[1] + m.shape[0], max(1.0, sv[0])))[0] @ s, sv


def _completed_rank(sv: np.ndarray, n: int, tol) -> int:
    """``numeric_rank`` of the square stack ``[C; G]``, read off the singular
    values ``sv`` of C (m <= n rows): G is an orthonormal basis of the
    complement of C's row space, so the stack's singular values are ``sv``
    and n - m ones."""
    return _rank_of(np.concatenate([sv, np.ones(n - sv.size)]), n, tol)


def _subspace(n: int, rows: np.ndarray) -> Subspace:
    return Subspace(n, _fix_signs(rows).T)


def right_null_basis(m, tol: float = DEFAULT_TOL) -> Subspace:
    """Orthonormal basis of {v : M v = 0}, deterministically ordered.

    Basis vectors are the right singular vectors below ``zero_cut``,
    sorted by ascending singular value then index, with the sign fixed so
    the largest-magnitude component of each vector is positive.
    """
    a = as_matrix(m)
    _check_tol(tol)
    return _subspace(a.shape[1], _null_rows(a, tol))


def left_null_basis(m, tol: float = DEFAULT_TOL) -> Subspace:
    """Orthonormal basis of {v : vᵀ M = 0}; the right null space of Mᵀ."""
    return right_null_basis(as_matrix(m).T, tol)


def intersect(s1: Subspace, s2: Subspace, tol: float = DEFAULT_TOL) -> Subspace:
    """Intersection of two subspaces, from their principal angles.

    The decision is made on the sines of the principal angles
    (``_intersect_rows``), which resolve small angles, never on cosines
    near 1.  The cut ``4 * Q * tol`` carries over the rank rule on the
    stacked complement projectors ``[I - P1; I - P2]`` (2Q rows, spectral
    norm up to √2): two directions at angle θ give that matrix the singular
    value √2 sin(θ/2), and ``√2 sin(θ/2) <= tol * √2 * 2Q`` is
    ``sin θ <= 4 Q tol`` to first order.
    """
    if s1.ambient_dim != s2.ambient_dim:
        raise InputError("ambient dimensions differ")
    _check_tol(tol)
    return _subspace(s1.ambient_dim, _meet(s1.basis.T, s2.basis.T, tol))


def subtract(s: Subspace, *excluded: Subspace, tol: float = DEFAULT_TOL) -> Subspace:
    """Orthonormal basis of ``s`` intersected with the orthogonal complement
    of the span of all ``excluded`` subspaces (``_difference_rows``)."""
    _check_tol(tol)
    for e in excluded:
        if e.ambient_dim != s.ambient_dim:
            raise InputError("ambient dimensions differ")
    stack = np.vstack([s.basis.T[:0]] + [e.basis.T for e in excluded])
    return _subspace(s.ambient_dim, _difference_rows(s.basis.T, stack, tol)[0])


def span_of_rows(rows, ambient_dim: int, tol: float = DEFAULT_TOL) -> Subspace:
    """Orthonormalized span of a stack of row vectors."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if rows.size == 0:
        return empty_subspace(ambient_dim)
    # span(rows) = complement of the right null space of the row stack
    return subtract(full_space(ambient_dim), right_null_basis(rows, tol), tol=tol)


def check_regular(block, tol: float, what: str) -> None:
    """Raise DegeneracyError, naming ``what``, unless the square ``block`` is
    invertible beyond tolerance: regular means full ``_rank_of`` rank.

    This is the one regularity rule for the blocks the classification
    promises to be invertible (the alpha block of the Hessian, the observable
    block c_AB, the H block).  An empty block is regular.
    """
    n = block.shape[0]
    if _rank_of(np.linalg.svd(block, compute_uv=False), n, tol) < n:
        raise DegeneracyError(f"{what} is singular beyond tolerance")


def inverse_on_rows(h: np.ndarray, rows: np.ndarray, tol: float, what: str) -> np.ndarray:
    """``Bᵀ (B h Bᵀ)⁻¹ B`` for the rows B, after ``check_regular`` on B h Bᵀ;
    zero when B has no rows."""
    block = rows @ h @ rows.T
    check_regular(block, tol, what)
    return rows.T @ np.linalg.solve(block, rows)


def restricted_inverse(h, s: Subspace, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Invert a symmetric matrix on a subspace, annihilating its complement.

    Returns ``Bᵀ (B h Bᵀ)⁻¹ B`` for the subspace's basis rows ``B``.  When
    ``s`` is the orthogonal complement of null(h) this is the Moore-Penrose
    pseudoinverse and satisfies ``h h⁺ h = h``.
    """
    a = as_matrix(h)
    _check_tol(tol)
    q = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise InputError("matrix must be square")
    if asymmetry(a, tol):
        raise InputError("matrix must be symmetric")
    if s.ambient_dim != q:
        raise InputError("subspace ambient dimension mismatch")
    return inverse_on_rows(a, s.basis.T, tol, "matrix restricted to the subspace")
