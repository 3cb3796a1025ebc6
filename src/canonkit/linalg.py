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
``intersect`` decides on the sines of the principal angles (Björck &
Golub, Math. Comp. 27, 1973; Golub & Van Loan §6.4), with the cut
``4 * Q * tol`` in ambient dimension Q.  ``subtract`` takes a small right
null space with the threshold of ``right_null_basis`` at the scale of the
stacked matrix it replaces.  Bases are ordered by ascending singular
value, then index, with the sign of each vector fixed, so identical inputs
always produce bit-identical outputs.
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
    if a.size and not np.all(np.isfinite(a)):
        raise InputError("matrix has non-finite entries")
    return a


def _check_tol(tol: float) -> float:
    if not tol > 0:
        raise InputError("tolerance must be positive")
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
    it is a Tolerance already."""
    if isinstance(tol, Tolerance):
        return tol
    return Tolerance(tol, max((np.abs(m).max() for m in mats if m is not None and np.size(m)),
                              default=0.0))


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
    s = np.linalg.svd(a, compute_uv=False)
    return int(np.sum(s > zero_cut(tol, max(a.shape), s[0])))


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
        return np.linalg.norm(v - self.projector() @ v) <= tol * self.ambient_dim * nv

    def same_span(self, other: "Subspace", tol: float = DEFAULT_TOL) -> bool:
        """Span equality, checked by mutual projection residuals."""
        if self.ambient_dim != other.ambient_dim or self.dim != other.dim:
            return False
        if self.dim == 0:
            return True
        r1 = np.linalg.norm(self.complement_projector() @ other.basis)
        r2 = np.linalg.norm(other.complement_projector() @ self.basis)
        return max(r1, r2) <= tol * self.ambient_dim * max(self.dim, 1)


def full_space(n: int) -> Subspace:
    return Subspace(n, np.eye(n))


def empty_subspace(n: int) -> Subspace:
    return Subspace(n, np.zeros((n, 0)))


def _fix_signs(rows: np.ndarray) -> np.ndarray:
    """Flip each row so its largest-magnitude component (first on near-ties)
    is positive."""
    mags = np.abs(rows)
    top = mags.max(axis=1, keepdims=True)
    lead = np.argmax(mags >= top * (1.0 - 1e-12), axis=1)
    flip = rows[np.arange(rows.shape[0]), lead] < 0
    return np.where(flip[:, None], -rows, rows)


def _null_rows(s: np.ndarray, vh: np.ndarray, cut: float) -> np.ndarray:
    """Rows of ``vh`` whose singular value (zero past ``s``) is at most
    ``cut``, by ascending singular value, then index."""
    n = vh.shape[1]
    sigma = np.zeros(n)
    sigma[: s.size] = s
    rank = int(np.sum(sigma > cut))
    idx = sorted(range(rank, n), key=lambda k: (sigma[k], k))
    return vh[idx] if idx else np.zeros((0, n))


def right_null_basis(m, tol: float = DEFAULT_TOL) -> Subspace:
    """Orthonormal basis of {v : M v = 0}, deterministically ordered.

    Basis vectors are the right singular vectors below ``zero_cut``,
    sorted by ascending singular value then index, with the sign fixed so
    the largest-magnitude component of each vector is positive.
    """
    a = as_matrix(m)
    _check_tol(tol)
    n = a.shape[1]
    if n == 0:
        return empty_subspace(0)
    if a.shape[0] == 0 or not np.any(a):
        return full_space(n)
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    cut = zero_cut(tol, max(a.shape), s[0] if s.size else 0.0)
    return Subspace(n, _fix_signs(_null_rows(s, vh, cut)).T)


def left_null_basis(m, tol: float = DEFAULT_TOL) -> Subspace:
    """Orthonormal basis of {v : vᵀ M = 0}; the right null space of Mᵀ."""
    return right_null_basis(as_matrix(m).T, tol)


def _in_basis(s: Subspace, w: np.ndarray) -> Subspace:
    """The subspace spanned by coefficient rows ``w`` in the basis of ``s``."""
    return Subspace(s.ambient_dim, _fix_signs(w @ s.basis.T).T)


def intersect(s1: Subspace, s2: Subspace, tol: float = DEFAULT_TOL) -> Subspace:
    """Intersection of two subspaces, from their principal angles.

    With orthonormal bases B1 and B2, B2 the one of lower dimension k, the
    singular values of the Q x k residual ``B2 - B1 (B1ᵀ B2)`` are the sines
    of the principal angles between the subspaces, and its right singular
    vectors the matching directions in B2.  Directions whose sine is at
    most ``4 * Q * tol`` span the intersection.  The decision is made on
    sines, which resolve small angles, never on cosines near 1.

    The cut carries over the rank rule on the stacked complement projectors
    ``[I - P1; I - P2]`` (2Q rows, spectral norm up to √2): two directions
    at angle θ give that matrix the singular value √2 sin(θ/2), and
    ``√2 sin(θ/2) <= tol * √2 * 2Q`` is ``sin θ <= 4 Q tol`` to first order.
    """
    if s1.ambient_dim != s2.ambient_dim:
        raise InputError("ambient dimensions differ")
    _check_tol(tol)
    big, small = (s1, s2) if s2.dim <= s1.dim else (s2, s1)
    q = small.ambient_dim
    if small.dim == 0:
        return empty_subspace(q)
    if big.dim == q:
        # every sine is zero: all of ``small`` is kept, in its own basis
        return _in_basis(small, np.eye(small.dim))
    b = small.basis
    resid = b - big.basis @ (big.basis.T @ b)
    _, sines, vh = np.linalg.svd(resid, full_matrices=False)
    return _in_basis(small, _null_rows(sines, vh, 4.0 * q * tol))


def subtract(s: Subspace, *excluded: Subspace, tol: float = DEFAULT_TOL) -> Subspace:
    """Orthonormal basis of ``s`` intersected with the orthogonal complement
    of the span of all ``excluded`` subspaces.

    The directions are the right null space of the small matrix
    ``M = [E1 E2 ...]ᵀ S`` of the excluded bases against the basis S of
    ``s``, mapped back through S.  The rank threshold is the rule of
    ``right_null_basis`` on the stacked matrix ``[I - P_s; E1ᵀ; E2ᵀ; ...]``
    that ``M`` condenses: ``tol * max(1, sigma_max(M)) * (Q + sum dim E)``,
    where the scale is that matrix's spectral norm whenever the excluded
    subspaces lie inside ``s``.
    """
    _check_tol(tol)
    for e in excluded:
        if e.ambient_dim != s.ambient_dim:
            raise InputError("ambient dimensions differ")
    blocks = [e.basis.T for e in excluded if e.dim]
    if s.dim == 0:
        return empty_subspace(s.ambient_dim)
    if not blocks:
        return _in_basis(s, np.eye(s.dim))
    m = np.vstack(blocks) @ s.basis
    _, sv, vh = np.linalg.svd(m, full_matrices=True)
    cut = tol * max(1.0, sv[0]) * (s.ambient_dim + m.shape[0])
    return _in_basis(s, _null_rows(sv, vh, cut))


def span_of_rows(rows, ambient_dim: int, tol: float = DEFAULT_TOL) -> Subspace:
    """Orthonormalized span of a stack of row vectors."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if rows.size == 0:
        return empty_subspace(ambient_dim)
    # span(rows) = complement of the right null space of the row stack
    return subtract(full_space(ambient_dim), right_null_basis(rows, tol), tol=tol)


def check_regular(block, tol: float, what: str) -> None:
    """Raise DegeneracyError, naming ``what``, unless the square ``block`` is
    invertible beyond tolerance: sigma_min > ``zero_cut`` at sigma_max.

    This is the one regularity rule for the blocks the classification
    promises to be invertible (the alpha block of the Hessian, the observable
    block c_AB, the H block).  An empty block is regular.
    """
    n = block.shape[0]
    if n == 0:
        return
    sv = np.linalg.svd(block, compute_uv=False)
    if sv[-1] <= zero_cut(tol, n, sv[0]):
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
