"""Exact calculus of Gaussian kernels with linear delta factors.

Amplitudes are tracked exactly: a log modulus, an integer count of
eighth-turn phase factors (one unit = exp(i pi/4), so the factor i counts
as two units and a square root of i as one), and a continuous residual
phase.  Square roots of (+-2 pi i hbar)^n and Fresnel signature phases
land on the eighth-turn lattice, which keeps composed measures exactly
reproducible.

States are projected and evolved by Gaussian integrals, each one real
congruence of its exponent's matrix G that decides divergence and gives
the branch of det(-iG)^(-1/2) and G⁻¹ (``_gaussian_integral``)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .actions import QuadraticMove, check_hbar, moves_tolerance
from .classify import ALPHA_TYPES, ClassifiedBasis, hessian_block
from .constraints import _brackets, _stacked, independent_count
from .effective import compose
from .errors import (
    DegeneracyError,
    DivergenceError,
    InputError,
)
from .evolution import observable_block
from .linalg import DEFAULT_TOL, asymmetry, numeric_rank, zero_cut

TWO_PI = 2.0 * np.pi
_LOG_FLOAT_MAX = float(np.log(np.finfo(float).max))


@dataclass(frozen=True)
class Amplitude:
    """Exact amplitude exp(log_modulus) * exp(i*(pi/4 * i_exponent + phase))."""

    log_modulus: float = 0.0
    i_exponent: int = 0
    phase: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "i_exponent", int(self.i_exponent) % 8)

    def _log_modulus(self) -> float:
        """``log_modulus``; one whose exp is past float range is an InputError."""
        if self.log_modulus > _LOG_FLOAT_MAX:
            raise InputError(f"log_modulus = {float(self.log_modulus)!r}: modulus past float range")
        return self.log_modulus

    @property
    def value(self) -> complex:
        return np.exp(self._log_modulus() + 1j * (np.pi / 4.0 * self.i_exponent + self.phase))

    @property
    def modulus(self) -> float:
        return float(np.exp(self._log_modulus()))

    def times(self, other: "Amplitude") -> "Amplitude":
        return self.times_log(other.log_modulus, other.phase, other.i_exponent)

    def times_log(self, log_modulus: float, phase: float = 0.0,
                  i_exponent: int = 0) -> "Amplitude":
        return Amplitude(
            self.log_modulus + log_modulus,
            self.i_exponent + i_exponent,
            self.phase + phase,
        )


@dataclass(frozen=True)
class GaussianDeltaKernel:
    """amplitude * exp(i(x_inᵀ A x_in/2 + x_inᵀ C x_out + x_outᵀ B x_out/2)/hbar)
    times a product of one-dimensional deltas of linear functionals on
    (x_in, x_out).  A, B and C are the matrices of ``move``, the
    QuadraticMove in_step -> out_step; the phase is its action."""

    in_step: int
    out_step: int
    hbar: float
    amplitude: Amplitude
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    deltas: np.ndarray = None          # (k, dim_in + dim_out)
    delta_labels: tuple = ()
    basis_in: ClassifiedBasis = None
    basis_out: ClassifiedBasis = None
    move: QuadraticMove = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_hbar(self.hbar)
        move = QuadraticMove(self.in_step, self.out_step, self.A, self.B, self.C)
        object.__setattr__(self, "move", move)
        object.__setattr__(self, "A", move.a)
        object.__setattr__(self, "B", move.b)
        object.__setattr__(self, "C", move.c)
        d = self.deltas
        d = np.zeros((0, self.dim_in + self.dim_out)) if d is None else np.atleast_2d(np.asarray(d, float))
        if d.shape[0] and d.shape[1] != self.dim_in + self.dim_out:
            raise InputError("delta rows must span the concatenated space")
        if d.shape[0] and numeric_rank(d) < d.shape[0]:
            raise InputError("delta rows must be linearly independent")
        if self.delta_labels and len(self.delta_labels) != d.shape[0]:
            raise InputError("delta labels must be absent or one per delta row")
        object.__setattr__(self, "deltas", d)

    def reversed(self) -> "GaussianDeltaKernel":
        """The same kernel read backward in time, out_step -> in_step:
        A <-> B, C -> Cᵀ, the in and out columns of the deltas swapped and
        both bases reversed."""
        return GaussianDeltaKernel(
            in_step=self.out_step, out_step=self.in_step, hbar=self.hbar,
            amplitude=self.amplitude, A=self.B, B=self.A, C=self.C.T,
            deltas=np.roll(self.deltas, -self.dim_in, axis=1), delta_labels=self.delta_labels,
            basis_in=self.basis_out and self.basis_out.reversed(),
            basis_out=self.basis_in and self.basis_in.reversed(),
        )

    @property
    def dim_in(self) -> int:
        return self.A.shape[0]

    @property
    def dim_out(self) -> int:
        return self.B.shape[0]

    @property
    def log_modulus(self) -> float:
        return self.amplitude.log_modulus

    @property
    def i_exponent(self) -> int:
        return self.amplitude.i_exponent

    @property
    def continuous_phase(self) -> float:
        return self.amplitude.phase

    def phase_quadratic(self, x_in, x_out) -> float:
        return self.move.action(x_in, x_out)

    def smooth_value(self, x_in, x_out) -> complex:
        """Kernel value with the delta factors stripped."""
        return self.amplitude.value * np.exp(1j * self.phase_quadratic(x_in, x_out) / self.hbar)

    def delta_arguments(self, x_in, x_out) -> np.ndarray:
        y = np.concatenate([np.asarray(x_in, float), np.asarray(x_out, float)])
        return self.deltas @ y

    def regulated_value(self, x_in, x_out, eps: float) -> complex:
        """Value with every delta replaced by a width-controlled Gaussian,
        delta(t) -> exp(-t^2/(4 eps hbar^2)) / (2 hbar sqrt(pi eps))."""
        val = self.smooth_value(x_in, x_out)
        for t in self.delta_arguments(x_in, x_out):
            val *= np.exp(-t**2 / (4.0 * eps * self.hbar**2)) / (2.0 * self.hbar * np.sqrt(np.pi * eps))
        return val


def _move_measure(c, basis_from: ClassifiedBasis, basis_to: ClassifiedBasis,
                  hbar: float, tol: float) -> Amplitude:
    """sqrt((-2 pi i hbar)^(-N_A) |det T_from^-1 det c_AB det T_to^-1|) for
    the cross matrix ``c`` between two classified steps."""
    check_hbar(hbar)
    _, _, c_ab = observable_block(c, basis_from, basis_to, tol)
    n_a = c_ab.shape[0]
    logdet_cab = np.linalg.slogdet(c_ab)[1] if n_a else 0.0
    log_mod = 0.5 * (
        -n_a * np.log(TWO_PI * hbar)
        + logdet_cab
        - np.log(basis_from.abs_det)
        - np.log(basis_to.abs_det)
    )
    # sqrt((-i)^(-N_A)) = exp(i pi N_A / 4): N_A eighth turns
    return Amplitude(log_modulus=log_mod, i_exponent=n_a, phase=0.0)


def propagator_from_move(move, basis_from: ClassifiedBasis, basis_to: ClassifiedBasis,
                         hbar: float = 1.0, tol: float = DEFAULT_TOL) -> GaussianDeltaKernel:
    """Physical propagator of one move: measure times exp(i S / hbar).

    The constant measure is sqrt((-2 pi i hbar)^(-N_A) |det T_from^-1
    det c_AB det T_to^-1|), the unique choice making the move's evolution
    map unitary between its physical Hilbert spaces.
    """
    return GaussianDeltaKernel(
        in_step=move.step_from,
        out_step=move.step_to,
        hbar=hbar,
        amplitude=_move_measure(move.c, basis_from, basis_to, hbar, tol),
        A=move.a,
        B=move.b,
        C=move.c,
        basis_in=basis_from,
        basis_out=basis_to,
    )


def compose_kernels(k1: GaussianDeltaKernel, k2: GaussianDeltaKernel,
                    basis_mid: ClassifiedBasis, tol: float = DEFAULT_TOL) -> GaussianDeltaKernel:
    """Glue two kernels by integrating over the shared step.

    The phase of the result is the classical composition of the two
    kernels' moves.  A Faddeev-Popov fixing delta (unit determinant here)
    absorbs each gauge (type I) direction; the alpha block integrates in
    closed form (stationary phase is exact); every l/r/z row of the middle
    step emits one delta factor, the holonomic or boundary-data constraint
    of its multiplier record, and a factor 2 pi hbar.
    """
    if k1.hbar != k2.hbar:
        raise InputError("kernels carry different hbar")
    q = k1.dim_out
    tol = moves_tolerance(tol, k1.move, k2.move)
    for which, glued in (("first", k1.deltas[:, k1.dim_in:]), ("second", k2.deltas[:, :q])):
        if glued.size and np.abs(glued).max() > zero_cut(tol, q):
            raise InputError(
                f"a delta factor of the {which} kernel involves the glued step; "
                "solve it before composing"
            )
    eff = compose(k1.move, k2.move, basis_mid, tol)
    hbar = k1.hbar
    n_alpha = basis_mid.alpha_rows.size
    amp = k1.amplitude.times(k2.amplitude)
    amp = amp.times_log(np.log(basis_mid.abs_det))
    if n_alpha:
        h = k1.B + k2.A
        lam = np.linalg.eigvalsh(hessian_block(basis_mid, h, ALPHA_TYPES, ALPHA_TYPES))
        signature = int(np.sum(lam > 0) - np.sum(lam < 0))
        amp = amp.times_log(
            0.5 * n_alpha * np.log(TWO_PI * hbar) - 0.5 * np.sum(np.log(np.abs(lam))),
            i_exponent=signature,
        )

    # carried deltas keep their outer columns; a new delta row holds its
    # constraint's coefficients at each outer step it lives at
    n1, n2 = k1.deltas.shape[0], k2.deltas.shape[0]
    din = k1.dim_in
    deltas = np.zeros((n1 + n2 + len(eff.multipliers), din + k2.dim_out))
    deltas[:n1, :din] = k1.deltas[:, :din]
    deltas[n1:n1 + n2, din:] = k2.deltas[:, q:]
    labels = (k1.delta_labels or ("",) * n1) + (k2.delta_labels or ("",) * n2)
    for i, rec in enumerate(eff.multipliers, n1 + n2):
        for step, cols in ((k1.in_step, np.s_[:din]), (k2.out_step, np.s_[din:])):
            if step in rec.constraint.steps:
                deltas[i, cols] = rec.constraint.x_part_at(step)
        labels += (f"{rec.source_type}@{rec.step}",)
        amp = amp.times_log(np.log(TWO_PI * hbar))
    return GaussianDeltaKernel(
        in_step=k1.in_step,
        out_step=k2.out_step,
        hbar=hbar,
        amplitude=amp,
        A=eff.a,
        B=eff.b,
        C=eff.c,
        deltas=deltas,
        delta_labels=labels,
        basis_in=k1.basis_in,
        basis_out=k2.basis_out,
    )


@dataclass(frozen=True)
class GaussianState:
    """amplitude * exp(i(xᵀ M x/2 + jᵀ x)/hbar) with complex M, j.

    Im M must be positive semidefinite, strictly positive on the rows that
    carry the square-integrable part.
    """

    step: int
    hbar: float
    amplitude: Amplitude
    M: np.ndarray
    j: np.ndarray

    def __post_init__(self):
        m = np.atleast_2d(np.asarray(self.M, dtype=complex))
        j = np.asarray(self.j, dtype=complex)
        if m.shape[0] != m.shape[1] or j.shape != (m.shape[0],):
            raise InputError("M must be square and j a matching vector")
        if not (np.isfinite(m).all() and np.isfinite(j).all()):
            raise InputError("M and j must be finite")
        if asymmetry(m, DEFAULT_TOL):
            raise InputError("M must be (complex) symmetric")
        check_hbar(self.hbar)
        object.__setattr__(self, "M", m)
        object.__setattr__(self, "j", j)

    @property
    def dim(self) -> int:
        return self.M.shape[0]

    def value(self, x) -> complex:
        x = np.asarray(x, dtype=float)
        return self.amplitude.value * np.exp(
            1j * (0.5 * x @ self.M @ x + self.j @ x) / self.hbar
        )


def _abelian_or_raise(constraints, tol, stacked=None):
    """The constraints as a list; raises unless every pairwise bracket is
    zero (``zero_cut``) against max(s_i, s_j)**2 for coefficient scales s;
    ``stacked`` is the set's ``_stacked``, when the caller has it."""
    cons = list(constraints)
    if len(cons) < 2:
        return cons
    stack, q = stacked or _stacked(cons)
    s = np.abs(stack[:, :2 * q]).max(axis=1)
    limit = zero_cut(tol, q, np.maximum.outer(s, s) ** 2)
    if np.any(np.abs(_brackets(stack, q)) > limit):
        raise InputError("projector requires an abelian constraint set")
    return cons


def _gaussian_integral(g, w, w0, m0, j0, amp: Amplitude, log_measure: float,
                       hbar: float, tol: float, what: str):
    """∫ ds exp(i(yᵀ m0 y/2 + j0ᵀ y + sᵀ g s/2 + sᵀ(w y + w0))/hbar) in closed
    form: the new quadratic and linear terms m0 - wᵀ g⁻¹ w and
    j0 - wᵀ g⁻¹ w0 in y, and ``amp`` times exp(log_measure) det(-ig)^(-1/2)
    exp(i const/hbar) with const = -w0ᵀ g⁻¹ w0 / 2; each caller brings its
    own power of 2 pi hbar.

    One real congruence of sym(g), the part the integral sees, gives it all:
    Im sym(g) = V Λ Vᵀ diverges unless λ_min is above ``zero_cut``;
    H = V Λ^(-1/2) and Hᵀ Re sym(g) H = W diag(μ) Wᵀ make R = H W with
    Rᵀ g R = diag(μ + i), so g⁻¹ = R diag(1/(μ + i)) Rᵀ and log det(-ig) =
    Σ log λ + Σ log(1 - iμ), each term principal (Re(1 - iμ) = 1) and the sum
    the branch continued from Re g = 0."""
    sym = 0.5 * (g + g.T)
    lam, v = np.linalg.eigh(sym.imag)
    if lam.size and lam[0] <= zero_cut(tol, g.shape[0], np.abs(g).max()):
        raise DivergenceError(
            f"{what}: integral over a flat or growing direction diverges "
            "(double projection or non-normalizable state)"
        )
    h = v / np.sqrt(lam)
    mu, rot = np.linalg.eigh(h.T @ sym.real @ h)
    r = h @ rot
    d = 1.0 / (mu + 1j)
    y, y0 = r.T @ w, r.T @ w0
    logdet = np.sum(np.log(lam)) + np.sum(np.log(1.0 - 1j * mu))
    const = -0.5 * np.sum(d * y0 * y0)
    amp = amp.times_log(
        log_measure - 0.5 * logdet.real - const.imag / hbar,
        phase=-0.5 * logdet.imag + const.real / hbar,
    )
    return m0 - y.T @ (d[:, None] * y), j0 - y.T @ (d * y0), amp


def project_physical(state: GaussianState, constraints, side: str,
                     tol: float = DEFAULT_TOL) -> GaussianState:
    """Group-averaging projection of a Gaussian state onto a constraint set.

    Averages the unitary flows exp(i s C / hbar) of the (abelian) linear
    constraints over their non-compact orbits.  A state already annihilated
    by one of the constraints makes the orbit integral diverge; that double
    projection is detected and raised, never silently evaluated.
    """
    if side not in ("pre", "post"):
        raise InputError("side must be 'pre' or 'post'")
    cons = list(constraints)
    if not cons:
        return state
    q = state.dim
    for c in cons:
        if c.steps != (state.step,):
            raise InputError("constraints must live at the state's step")
        if c.p_coeffs.size != q:
            raise InputError("constraint dimension mismatch")
    stacked = _stacked(cons)
    _abelian_or_raise(cons, tol, stacked)
    # (Q, N) each, fresh C-ordered copies: BLAS rounds by layout and alignment
    u, v = (stacked[0][:, k * q:(k + 1) * q].T.copy() for k in (0, 1))
    hbar = state.hbar

    w_mat = u.T @ state.M + v.T                          # theta(x) = w_mat x + w0
    g = w_mat @ u + 0.5 * (u.T @ v - v.T @ u)
    w0 = u.T @ state.j
    m_new, j_new, amp = _gaussian_integral(g, w_mat, w0, state.M, state.j, state.amplitude,
                                           -0.5 * len(cons) * np.log(TWO_PI * hbar), hbar, tol,
                                           "group averaging")
    return GaussianState(step=state.step, hbar=hbar, amplitude=amp,
                         M=0.5 * (m_new + m_new.T), j=j_new)


def evolve_state(kernel: GaussianDeltaKernel, state: GaussianState,
                 tol: float = DEFAULT_TOL) -> GaussianState:
    """Map a pre-physical Gaussian state through a propagator.

    Integrates over the pre-observable split coordinates of the kernel's
    in-step only; the state must be supported there, i.e. its phase must
    cancel the kernel's in-block on every non-observable row.
    """
    if kernel.basis_in is None:
        raise InputError("kernel carries no in-step basis; cannot identify observables")
    if state.step != kernel.in_step or state.dim != kernel.dim_in:
        raise InputError("state does not live at the kernel's in-step")
    if state.hbar != kernel.hbar:
        raise InputError("state and kernel carry different hbar")
    if kernel.deltas.shape[0]:
        # delta factors would take the output outside the Gaussian class
        raise InputError("kernel carries delta factors; solve them before evolving states")
    basis = kernel.basis_in
    t = basis.T
    phi = t @ (state.M + kernel.A) @ t.T
    j_split = t @ state.j
    c_split = t @ kernel.C
    a_rows = basis.pre_observable_rows
    rest = basis.left_rows
    ref = max(np.abs(phi).max(), np.abs(j_split).max() if j_split.size else 0.0)
    if rest.size:
        leak = max(
            np.abs(phi[rest]).max(),
            np.abs(j_split[rest]).max(),
            np.abs(c_split[rest]).max(),
        )
        if leak > zero_cut(tol, basis.dim, ref):
            raise InputError(
                "state support does not match the pre-observable rows "
                f"(leakage {leak:.3e} on non-observable rows)"
            )
    hbar = kernel.hbar
    amp = state.amplitude.times(kernel.amplitude)
    m_new, j_new, amp = _gaussian_integral(
        phi[np.ix_(a_rows, a_rows)], c_split[a_rows], j_split[a_rows],
        kernel.B, np.zeros(kernel.dim_out), amp,
        0.5 * a_rows.size * np.log(TWO_PI * hbar), hbar, tol, "state evolution",
    )
    return GaussianState(step=kernel.out_step, hbar=hbar, amplitude=amp,
                         M=0.5 * (m_new + m_new.T), j=j_new)


def check_annihilation(kernel: GaussianDeltaKernel, constraint, side: str,
                       tol: float = DEFAULT_TOL) -> bool:
    """Whether a linear constraint annihilates the kernel.

    Momenta act as derivatives of the phase; the resulting linear
    functional must vanish on the support of the delta factors, i.e. lie
    in their row space, and the momentum coefficients must not hit any
    delta argument (which would leave a delta-derivative behind).
    """
    if side not in ("pre", "post"):
        raise InputError("side must be 'pre' or 'post'")
    _stacked([constraint])      # raises on a non-finite coefficient
    p = constraint.p_coeffs
    if side == "pre":
        # the pre-momentum acts on K as minus the post-momentum on the reversed kernel
        kernel, p = kernel.reversed(), -p
    step = kernel.out_step
    if step not in constraint.steps:
        raise InputError(f"constraint does not live at the kernel's {side} step")
    x_own = constraint.x_part_at(step)
    far = None
    if len(constraint.steps) == 2:
        other = [s for s in constraint.steps if s != step][0]
        if other not in (kernel.in_step, kernel.out_step):
            raise InputError(
                f"constraint references step {other} which the kernel does not carry"
            )
        far = constraint.x_part_at(other)
    din, dout, deltas = kernel.dim_in, kernel.dim_out, kernel.deltas
    # p-hat K = (grad_out phase) K: C^T x_in + B x_out
    ell = np.zeros(din + dout)
    ell[:din] += kernel.C @ p
    ell[din:] += kernel.B @ p + x_own
    if far is not None:
        ell[:din] += far
    p_hits = deltas[:, din:] @ p

    # p is dimensionless; the residuals are measured against the kernel's
    # scale and the constraint's own x coefficients
    tol = moves_tolerance(tol, kernel.move)
    cut = zero_cut(tol, din + dout, np.abs(x_own).max() if x_own.size else 0.0)
    if p_hits.size and np.abs(p_hits).max() > cut:
        return False
    if np.abs(ell).max() <= cut:
        return True
    if deltas.shape[0] == 0:
        return False
    # residual of ell against the span of the delta rows
    sol, *_ = np.linalg.lstsq(deltas.T, ell, rcond=None)
    return bool(np.abs(ell - deltas.T @ sol).max() <= cut)


def unitarity_check(kernel: GaussianDeltaKernel, basis_from: ClassifiedBasis,
                    basis_to: ClassifiedBasis, tol: float = DEFAULT_TOL) -> bool:
    """Resolution-of-identity check for a delta-free move propagator.

    With Faddeev-Popov fixings on the free rows, composing the kernel with
    its reverse collapses to deltas on all configuration variables iff the
    cross block is the invertible c_AB on observable rows, vanishes on the
    free rows, and the squared measure matches
    (2 pi hbar)^(-N_A) |det T_from^-1 det c_AB det T_to^-1|.
    """
    if kernel.deltas.shape[0]:
        raise InputError("unitarity check applies to delta-free propagators")
    try:
        target = _move_measure(kernel.C, basis_from, basis_to, kernel.hbar, tol).log_modulus
    except DegeneracyError:
        return False
    cut = zero_cut(tol, kernel.dim_in, np.abs(kernel.C).max())
    # pre-constraint rows of the initial step, post-constraint rows of the final
    for block in (basis_from.T[basis_from.left_rows] @ kernel.C,
                  kernel.C @ basis_to.T[basis_to.right_rows].T):
        if block.size and np.abs(block).max() > cut:
            return False
    return math.isclose(kernel.log_modulus, target, rel_tol=1e3 * tol, abs_tol=1e3 * tol)


def hilbert_dims(constraints, dim: int, tol: float = DEFAULT_TOL) -> int:
    """Observable dimensions at a step: dim minus independent constraints."""
    n_independent = independent_count(constraints, tol)
    if n_independent > dim:
        raise InputError("more independent constraints than dimensions")
    return dim - n_independent


def normalized_measure(kernel: GaussianDeltaKernel, basis_from: ClassifiedBasis,
                       basis_to: ClassifiedBasis) -> Amplitude:
    """The fixed-measure amplitude the composed kernel would carry if its
    measure were re-derived from its own classification (reported next to
    the raw composed amplitude; neither is canonical).  Raises
    DegeneracyError unless c_AB is square and regular at the bases' tol."""
    return _move_measure(kernel.C, basis_from, basis_to, kernel.hbar, basis_from.tol)
