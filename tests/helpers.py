"""Shared test utilities: controlled random instances and independent oracles.

The quadrature oracle evaluates damped oscillatory Gaussian integrals by
rotating to the eigenbasis of the quadratic form (an exact change of
variables that leaves the isotropic regulator invariant), doing plain
Riemann sums factor by factor, and extrapolating the regulator away on a
geometric ladder.  It never uses the stationary-phase closed form that the
library implements.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from canonkit.actions import MoveSequence, QuadraticMove
from canonkit.classify import VECTOR_TYPES, ClassifiedBasis, split_variables
from canonkit.errors import ConstraintViolationError, InputError
from canonkit.evolution import CanonicalData, SolveResult, _free_vector, observable_block
from canonkit.linalg import DEFAULT_TOL, Subspace, right_null_basis, with_scale


def random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def random_symmetric(rng, n, scale=1.0):
    m = rng.normal(size=(n, n))
    return scale * 0.5 * (m + m.T)


def designed_instance(rng, sizes, scale=1.0, rotate=True, schur=None):
    """Two adjacent moves whose middle step has prescribed type counts.

    ``sizes`` maps type labels (I, H, l, lambda, r, rho, z, gamma) to slot
    counts summing to Q.  Slots are assigned in that order; c1's right null
    space is exactly the I+H+r+rho slots, c2's left null space the
    I+H+l+lambda slots, and h vanishes exactly on I+l+r+z.  A random
    rotation then hides the slot structure.  ``schur`` is for
    ``h_coupled_instance``.
    """
    order = ("I", "H", "l", "lambda", "r", "rho", "z", "gamma")
    counts = {t: sizes.get(t, 0) for t in order}
    q = sum(counts.values())
    slots = {}
    k = 0
    for t in order:
        slots[t] = list(range(k, k + counts[t]))
        k += counts[t]

    def selector(types):
        cols = [i for t in types for i in slots[t]]
        e = np.zeros((q, len(cols)))
        for j, i in enumerate(cols):
            e[i, j] = 1.0
        return e

    # c1: right null = I,H,r,rho,  i.e. columns outside W vanish
    w1 = selector(("l", "lambda", "z", "gamma"))
    c1 = rng.normal(size=(q, w1.shape[1])) @ w1.T * scale
    # c2: left null = I,H,l,lambda, i.e. rows outside W2 vanish
    w2 = selector(("r", "rho", "z", "gamma"))
    c2 = w2 @ rng.normal(size=(w2.shape[1], q)) * scale
    # h: null space = I,l,r,z
    wk = selector(("H", "lambda", "rho", "gamma"))
    core = random_symmetric(rng, wk.shape[1], scale) + scale * np.eye(wk.shape[1]) * 2.0
    if schur is not None:
        ends = np.cumsum([0, counts["H"], counts["lambda"], counts["rho"]])
        hh, ll, rr = (slice(a, b) for a, b in zip(ends, ends[1:]))
        block = core[ll, hh] @ np.linalg.solve(core[hh, hh], core[hh, rr]) if schur else 0.0
        core[ll, rr] = block
        core[rr, ll] = np.transpose(block)
    h = wk @ core @ wk.T

    if rotate:
        o_prev, o_mid, o_next = (random_orthogonal(rng, q) for _ in range(3))
        c1 = o_prev @ c1 @ o_mid.T
        c2 = o_mid @ c2 @ o_next.T
        h = o_mid @ h @ o_mid.T

    b1 = random_symmetric(rng, q, scale)
    a2 = h - b1
    a1 = random_symmetric(rng, q, scale)
    b2 = random_symmetric(rng, q, scale)
    move1 = QuadraticMove(0, 1, a1, b1, c1)
    move2 = QuadraticMove(1, 2, a2, b2, c2)
    return move1, move2


def h_coupled_instance(rng, sizes, schur=False, scale=1.0, rotate=True):
    """``designed_instance`` whose lambda and rho slots couple only through H:
    the core's (lambda, rho) block is zero, or with ``schur`` the H Schur
    term h_lambdaH h_HH⁻¹ h_Hrho.  m_lambda_rho, the rank of the Schur
    complement of h_HH on that block, is then generically
    min(N_H, N_lambda, N_rho) for the zero block and 0 for the Schur term,
    while the raw block has rank 0 and full rank respectively."""
    return designed_instance(rng, sizes, scale, rotate, schur=schur)


def regular_move(rng, step_from, q, scale=1.0, c_min=0.5):
    """A move with an invertible cross block."""
    while True:
        c = rng.normal(size=(q, q)) * scale
        if np.abs(np.linalg.svd(c, compute_uv=False)).min() > c_min * scale / 2:
            break
    return QuadraticMove(
        step_from, step_from + 1,
        random_symmetric(rng, q, scale), random_symmetric(rng, q, scale), c,
    )


# ---------------------------------------------------------------------------
# quadrature oracle
# ---------------------------------------------------------------------------

EPS_LADDER = tuple(0.16 * 0.5**k for k in range(9))  # 0.16 .. 0.000625


def _damped_1d(lam, j_lin, hbar, eps, tail=1e-16):
    """Riemann sum of exp(i (lam y^2/2 + j y)/hbar - eps y^2) over the line."""
    width = np.sqrt(-np.log(tail) / eps)
    freq = (abs(lam) * width + abs(j_lin)) / hbar
    dx = min(np.pi / (2.0 * freq + 1.0), 0.05)
    n = int(np.ceil(2.0 * width / dx)) | 1
    y = np.linspace(-width, width, n)
    f = np.exp(1j * (0.5 * lam * y**2 + j_lin * y) / hbar - eps * y**2)
    return np.trapezoid(f, y)


def damped_gaussian_integral(h, j, hbar, eps):
    """integral over R^n of exp(i(yᵀh y/2 + jᵀy)/hbar) exp(-eps |y|^2).

    Diagonalizes h (the isotropic regulator is rotation invariant) and
    multiplies one-dimensional Riemann sums.
    """
    h = np.atleast_2d(np.asarray(h, dtype=float))
    j = np.asarray(j, dtype=float)
    n = h.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    lam, vecs = np.linalg.eigh(h)
    j_rot = vecs.T @ j
    val = 1.0 + 0.0j
    for k in range(n):
        val *= _damped_1d(lam[k], j_rot[k], hbar, eps)
    return val


def richardson_limit(values, eps_ladder):
    """Neville polynomial extrapolation of values(eps) to eps = 0."""
    vals = list(values)
    eps = list(eps_ladder)
    n = len(vals)
    table = [vals[:]]
    for order in range(1, n):
        prev = table[-1]
        row = []
        for i in range(n - order):
            e0, e1 = eps[i], eps[i + order]
            row.append((e0 * prev[i + 1] - e1 * prev[i]) / (e0 - e1))
        table.append(row)
    return table[-1][0]


def oracle_gaussian_integral(h, j, hbar=1.0, eps_ladder=None):
    """Regulator-free oscillatory Gaussian integral by extrapolation.

    The regulator enters the quadratic form as 2 i eps hbar, so the ladder
    is scaled by 1/hbar to keep the relative perturbation fixed.
    """
    if eps_ladder is None:
        eps_ladder = tuple(e / hbar for e in EPS_LADDER)
    return richardson_limit(
        [damped_gaussian_integral(h, j, hbar, e) for e in eps_ladder], eps_ladder
    )


def continued_logdet_neg_i(a, b, max_turn=0.3):
    """log det(-i(a + ib)) for real symmetric a and positive definite b,
    continued along t -> -i(t a + i b) from t = 0, where it is the real
    log det b.  Each step is sized from the path's derivative
    tr(M⁻¹ dM/dt) and halved while the determinant's phase turns by more
    than ``max_turn`` over it.  No eigenvalue branch rule enters.
    """
    a, b = np.asarray(a, float), np.asarray(b, float)

    def slog(t):
        return np.linalg.slogdet(-1j * (t * a + 1j * b))

    sign, logabs = slog(0.0)
    t, phase = 0.0, 0.0
    while t < 1.0:
        rate = abs(np.trace(np.linalg.solve(b - 1j * t * a, -1j * a)))
        dt = min(1.0 - t, max_turn / rate if rate else 1.0)
        while True:
            new_sign, new_logabs = slog(t + dt)
            turn = float(np.angle(new_sign / sign))
            if abs(turn) <= max_turn:
                break
            dt *= 0.5
        t, sign, logabs, phase = t + dt, new_sign, new_logabs, phase + turn
    return complex(logabs, phase)


def oracle_compose_value(k1, k2, x_in, x_out, eps_ladder=EPS_LADDER):
    """Quadrature value of integral over the glued step of k1*k2 at a point."""
    h = k1.B + k2.A
    j = k1.C.T @ np.asarray(x_in, float) + k2.C @ np.asarray(x_out, float)
    outer = k1.smooth_value(x_in, np.zeros(k1.dim_out)) * k2.smooth_value(
        np.zeros(k2.dim_in), x_out
    )
    return outer * oracle_gaussian_integral(h, j, k1.hbar, eps_ladder)


def oracle_compose_value_damped(k1, k2, x_in, x_out, eps):
    """Same with the regulator kept finite (for delta-carrying results)."""
    h = k1.B + k2.A
    j = k1.C.T @ np.asarray(x_in, float) + k2.C @ np.asarray(x_out, float)
    outer = k1.smooth_value(x_in, np.zeros(k1.dim_out)) * k2.smooth_value(
        np.zeros(k2.dim_in), x_out
    )
    return outer * damped_gaussian_integral(h, j, k1.hbar, eps)


def oracle_compose_value_mixed(k1, k2, x_in, x_out, eps, null_cut=1e-8):
    """Oracle for glued-step Hessians with exact zero directions.

    Regular eigendirections are extrapolated to zero regulator; directions
    with |lambda| below the cut keep the finite regulator, producing the
    same Gaussian delta sequence the kernel's regulated value uses.
    """
    h = np.atleast_2d(np.asarray(k1.B + k2.A, dtype=float))
    j = k1.C.T @ np.asarray(x_in, float) + k2.C @ np.asarray(x_out, float)
    hbar = k1.hbar
    outer = k1.smooth_value(x_in, np.zeros(k1.dim_out)) * k2.smooth_value(
        np.zeros(k2.dim_in), x_out
    )
    lam, vecs = np.linalg.eigh(h)
    j_rot = vecs.T @ j
    scale = max(np.abs(lam).max(), 1.0)
    val = outer
    for k in range(lam.size):
        if abs(lam[k]) <= null_cut * scale:
            val *= _damped_1d(0.0, j_rot[k], hbar, eps)
        else:
            ladder = tuple(e / hbar for e in EPS_LADDER)
            val *= richardson_limit(
                [_damped_1d(lam[k], j_rot[k], hbar, e) for e in ladder], ladder
            )
    return val


def consistent_chain_data(m1, m2, rng):
    """(x0, x1, x2) satisfying the middle-step equations of motion.

    The left-null solvability conditions couple x0 and x1 linearly; the
    pair is sampled from that kernel, then x2 solves the remaining system.
    """
    from canonkit.linalg import left_null_basis, right_null_basis

    q = m1.dim
    h = m1.b + m2.a
    lnull = left_null_basis(m2.c)
    rows = [np.concatenate([m1.c @ lnull.basis[:, k], h @ lnull.basis[:, k]])
            for k in range(lnull.dim)]
    if rows:
        kernel = right_null_basis(np.vstack(rows))
        both = kernel.basis @ rng.normal(size=kernel.dim)
    else:
        both = rng.normal(size=2 * q)
    x0, x1 = both[:q], both[q:]
    rhs = -(m1.c.T @ x0) - h @ x1
    x2, *_ = np.linalg.lstsq(m2.c, rhs, rcond=None)
    resid = np.abs(m2.c @ x2 - rhs).max()
    assert resid < 1e-8 * max(1.0, np.abs(rhs).max()), "inconsistent chain sample"
    return x0, x1, x2


# ---------------------------------------------------------------------------
# stacked-projector subspace oracle
# ---------------------------------------------------------------------------


def oracle_intersect(s1, s2, tol=1e-10):
    """Intersection as the null space of the stacked complement projectors
    [I - P1; I - P2]: the full-SVD reference for linalg.intersect."""
    stacked = np.vstack([s1.complement_projector(), s2.complement_projector()])
    return right_null_basis(stacked, tol)


def oracle_subtract(s, *excluded, tol=1e-10):
    """``s`` minus the span of ``excluded`` as the null space of
    [I - P_s; E1ᵀ; E2ᵀ; ...]: the full-SVD reference for linalg.subtract."""
    blocks = [s.complement_projector()] + [e.basis.T for e in excluded if e.dim]
    return right_null_basis(np.vstack(blocks), tol)


def oracle_classify_step(c_prev, c_next, h, tol=DEFAULT_TOL, step=0):
    """The staged I/H/l/lambda/r/rho/z/gamma construction on Subspaces of
    the full matrices, every intersection and difference taken by the
    stacked-projector oracles: the reference for classify.classify_step."""
    h = np.asarray(h, dtype=float)
    q = h.shape[0]
    tol = with_scale(tol, c_prev, c_next, h)
    full = Subspace(q, np.eye(q))
    right = full if c_prev is None else right_null_basis(c_prev, tol)
    left = full if c_next is None else right_null_basis(np.asarray(c_next).T, tol)
    hnull = right_null_basis(h, tol)
    two_sided = oracle_intersect(right, left, tol)
    g = {"I": oracle_intersect(two_sided, hnull, tol)}
    g["H"] = oracle_subtract(two_sided, g["I"], tol=tol)
    g["l"] = oracle_subtract(oracle_intersect(left, hnull, tol), g["I"], tol=tol)
    g["r"] = oracle_subtract(oracle_intersect(right, hnull, tol), g["I"], tol=tol)
    g["lambda"] = oracle_subtract(left, g["I"], g["H"], g["l"], tol=tol)
    g["rho"] = oracle_subtract(right, g["I"], g["H"], g["r"], tol=tol)
    g["z"] = oracle_subtract(hnull, g["I"], g["l"], g["r"], tol=tol)
    g["gamma"] = oracle_subtract(full, *(g[t] for t in VECTOR_TYPES[:-1]), tol=tol)
    labels = tuple(t for t in VECTOR_TYPES for _ in range(g[t].dim))
    return ClassifiedBasis(step=step, T=np.vstack([g[t].basis.T for t in VECTOR_TYPES]),
                           labels=labels, tol=tol)


def label_groups(basis):
    """Subspace spanned by each label's rows of a classified basis."""
    return {t: Subspace(basis.dim, basis.block(t).T) for t in VECTOR_TYPES}


# ---------------------------------------------------------------------------
# time reversal
# ---------------------------------------------------------------------------


def reverse_sequence(seq):
    """The sequence read backward in time, with step n relabelled
    first + last - n so that the reversed moves run upward again."""
    flip = seq.first_step + seq.last_step
    moves = tuple(
        replace(m.reversed(), step_from=flip - m.step_to, step_to=flip - m.step_from)
        for m in reversed(seq.moves)
    )
    return MoveSequence(seq.dim, moves, hbar=seq.hbar)


def oracle_backward_solve(move, basis_from, basis_to, data, free_values=None,
                          tol=DEFAULT_TOL, strict=True):
    """The backward solve written out as the mirror image of
    ``forward_solve``: the reference for ``evolution.backward_solve``,
    which runs the forward solve on the reversed move, bases and data."""
    if data.step != move.step_to or data.dim != move.dim:
        raise InputError("data does not match the move's final step")
    split_to = split_variables(basis_to, b_prev=move.b)
    post_pi = split_to.post_pi(data.x, data.p)
    right = basis_to.right_rows
    scale = max(np.abs(data.x).max(), np.abs(data.p).max(), 1.0)
    residuals = post_pi[right] if right.size else np.zeros(0)
    if strict and residuals.size and np.abs(residuals).max() > tol * move.dim * scale:
        k = int(np.argmax(np.abs(residuals)))
        raise ConstraintViolationError(
            f"post-constraint on row {right[k]} ({basis_to.labels[right[k]]}) "
            f"violated by {residuals[k]:.3e} at step {data.step}"
        )

    a_rows, b_rows, c_ab = observable_block(move.c, basis_from, basis_to, tol)
    x_split_to = basis_to.to_split_config(data.x)

    x_split_from = np.zeros(move.dim)
    pre_pi = np.zeros(move.dim)
    if a_rows.size:
        x_split_from[a_rows] = np.linalg.solve(c_ab.T, post_pi[b_rows])
        pre_pi[a_rows] = -c_ab @ x_split_to[b_rows]
    free_rows = basis_from.left_rows
    injected = _free_vector(basis_from, free_rows, free_values)
    x_split_from[free_rows] = injected

    x_from = basis_from.from_split_config(x_split_from)
    # p from -pi = T p + T a x at the initial step
    p_split = pre_pi - (basis_from.T @ move.a) @ x_from
    p_from = basis_from.from_split_momentum(p_split)
    out = CanonicalData(step=move.step_from, x=x_from, p=p_from, momentum_side="pre")
    return SolveResult(
        data=out,
        free_rows=tuple((int(r), basis_from.labels[r]) for r in free_rows),
        injected=injected,
        residuals=residuals,
    )


# ---------------------------------------------------------------------------
# quantum kernels
# ---------------------------------------------------------------------------


def oracle_kernel_deltas(k1, k2, basis_mid):
    """The new delta rows of ``compose_kernels(k1, k2, basis_mid)`` built
    straight from the kernels' cross blocks, [C1 t, C2ᵀ t] for every l, r
    and z row t of the glued step, in that order: the reference for the
    rows the composition now takes from its multiplier records."""
    rows = [np.concatenate([k1.C @ basis_mid.T[k], k2.C.T @ basis_mid.T[k]])
            for label in ("l", "r", "z") for k in basis_mid.rows_of(label)]
    return np.array(rows).reshape(len(rows), k1.dim_in + k2.dim_out)


def oracle_check_annihilation_pre(kernel, constraint, tol=DEFAULT_TOL):
    """The pre-side annihilation check written out on the kernel itself:
    the reference for ``check_annihilation(kernel, constraint, "pre")``,
    which runs the post-side check on the reversed kernel."""
    step = kernel.in_step
    if step not in constraint.steps:
        raise InputError("constraint does not live at the kernel's pre step")
    p = constraint.p_coeffs
    x_own = constraint.x_part_at(step)
    far = None
    if len(constraint.steps) == 2:
        other = [s for s in constraint.steps if s != step][0]
        if other not in (kernel.in_step, kernel.out_step):
            raise InputError(
                f"constraint references step {other} which the kernel does not carry"
            )
        far = constraint.x_part_at(other)

    din, dout = kernel.dim_in, kernel.dim_out
    # the pre-momentum acts as minus the in-gradient of the phase
    ell = np.zeros(din + dout)
    ell[:din] += -(kernel.A @ p) + x_own
    ell[din:] += -(kernel.C.T @ p)
    if far is not None:
        ell[din:] += far
    p_hits = kernel.deltas[:, :din] @ p if kernel.deltas.shape[0] else np.zeros(0)

    scale = max(
        np.abs(p).max() if p.size else 0.0,
        np.abs(x_own).max() if x_own.size else 0.0,
        np.abs(kernel.A).max(), np.abs(kernel.B).max(), np.abs(kernel.C).max(), 1.0,
    )
    cut = tol * (din + dout) * scale
    if p_hits.size and np.abs(p_hits).max() > cut:
        return False
    if np.abs(ell).max() <= cut:
        return True
    if kernel.deltas.shape[0] == 0:
        return False
    sol, *_ = np.linalg.lstsq(kernel.deltas.T, ell, rcond=None)
    resid = ell - kernel.deltas.T @ sol
    return bool(np.abs(resid).max() <= cut)
