import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import designed_instance

from canonkit.actions import QuadraticMove, post_momentum, pre_momentum
from canonkit.classify import classify_step, split_variables
from canonkit.errors import (
    ConstraintViolationError,
    DegeneracyError,
    InconsistentBoundaryError,
)
from canonkit.evolution import (
    CanonicalData,
    backward_solve,
    boundary_solve,
    dof_report,
    fixed_variable_solve,
    forward_solve,
    variable_roles,
)


def unit_move(step_from=0):
    return QuadraticMove(step_from, step_from + 1, [[0.0]], [[0.0]], [[1.0]])


def bases_for(move1, move2=None):
    c_prev, c_next = move1.c, None if move2 is None else move2.c
    h_mid = move1.b + (0 if move2 is None else move2.a)
    b_from = classify_step(None, move1.c, move1.a, step=move1.step_from)
    b_mid = classify_step(move1.c, c_next, h_mid, step=move1.step_to)
    return b_from, b_mid


def test_forward_scalar_unit_cross():
    move = unit_move()
    b_from, b_to = bases_for(move)
    res = forward_solve(move, b_from, b_to, CanonicalData(0, [3.0], [-5.0], "pre"))
    assert_allclose(res.data.x, [5.0])
    assert_allclose(res.data.p, [3.0])
    assert res.data.momentum_side == "post"


def test_backward_scalar_round_trip():
    move = unit_move()
    b_from, b_to = bases_for(move)
    res = backward_solve(move, b_from, b_to, CanonicalData(1, [5.0], [3.0], "post"))
    assert_allclose(res.data.x, [3.0])
    assert_allclose(res.data.p, [-5.0])


def test_fully_constrained_move_outputs_free_values(square_fixture):
    fx, bases = square_fixture
    m1 = fx.sequence.moves[0]
    data = CanonicalData(0, np.zeros(12), np.zeros(12), "pre")
    free = np.arange(12.0)
    res = forward_solve(m1, bases[0], bases[1], data, free_values=free)
    # all twelve output rows are free injections (the move carries nothing)
    assert len(res.free_rows) == 12
    x_split = bases[1].to_split_config(res.data.x)
    assert_allclose(x_split[[r for r, _ in res.free_rows]], free, atol=1e-12)


def test_forward_requires_pre_constraints(square_fixture):
    fx, bases = square_fixture
    m2 = fx.sequence.moves[1]
    rng = np.random.default_rng(2)
    x1 = rng.normal(size=12)
    p_bad = rng.normal(size=12)  # generic momenta violate -p_j = 0
    with pytest.raises(ConstraintViolationError):
        forward_solve(m2, bases[1], bases[2], CanonicalData(1, x1, p_bad, "pre"))
    res = forward_solve(
        m2, bases[1], bases[2], CanonicalData(1, x1, p_bad, "pre"), strict=False
    )
    assert np.abs(res.residuals).max() > 0


def test_lattice_move_observable_relations(square_fixture):
    # the eight canonical relations of the nontrivial move: with the
    # reference bases, -pi^1_i picks up twice the difference-basis
    # components of the step-2 configuration and +pi^2 rows return the
    # step-1 corner fields
    fx, bases = square_fixture
    m2 = fx.sequence.moves[1]
    rng = np.random.default_rng(8)
    x1 = np.zeros(12)
    x1[:4] = rng.normal(size=4)
    x2 = rng.normal(size=12)
    p1 = pre_momentum(m2, x1, x2)

    res = forward_solve(m2, bases[1], bases[2], CanonicalData(1, x1, p1, "pre"))
    split1 = split_variables(bases[1], a_next=m2.a)
    pre_pi = split1.pre_pi(x1, p1)
    out_split = bases[2].to_split_config(res.data.x)
    # -pi^1_i = 2 Phi^B with the pairing fixed by the cross matrix:
    # rows 1..4 couple to reference rows 10, 9, 11, 12 respectively
    pairing = {0: 9, 1: 8, 2: 10, 3: 11}
    for i, b_row in pairing.items():
        assert pre_pi[i] == pytest.approx(2.0 * out_split[b_row], rel=1e-10)
    # +pi^2 on the observable rows returns -2 times the corner fields
    split2 = split_variables(bases[2], b_prev=m2.b)
    post_pi = split2.post_pi(res.data.x, res.data.p)
    for i, b_row in pairing.items():
        assert post_pi[b_row] == pytest.approx(-2.0 * x1[i], rel=1e-10)


def test_round_trip_random_degenerate(rng):
    for seed in range(20):
        r = np.random.default_rng(seed)
        sizes = {"I": 1, "lambda": 1, "rho": 1, "z": 1, "gamma": 2}
        m1, m2 = designed_instance(r, sizes)
        basis_from = classify_step(m1.c, m2.c, m1.b + m2.a, step=1)
        basis_to = classify_step(m2.c, None, m2.b, step=2)
        move = QuadraticMove(1, 2, m2.a, m2.b, m2.c)
        q = move.dim
        # consistent pre data: build from arbitrary (x1, x2) pair
        x1, x2 = r.normal(size=q), r.normal(size=q)
        p1 = pre_momentum(move, x1, x2)
        res = forward_solve(move, basis_from, basis_to, CanonicalData(1, x1, p1, "pre"))
        back = backward_solve(
            move, basis_from, basis_to, res.data,
            free_values=basis_from.to_split_config(x1)[basis_from.left_rows],
        )
        assert_allclose(back.data.x, x1, atol=1e-9)
        assert_allclose(back.data.p, p1, atol=1e-9)


def test_forward_output_satisfies_post_constraints(rng):
    for seed in range(10):
        r = np.random.default_rng(seed + 40)
        sizes = {"H": 1, "lambda": 1, "rho": 1, "gamma": 2}
        m1, m2 = designed_instance(r, sizes)
        move = QuadraticMove(1, 2, m2.a, m2.b, m2.c)
        basis_from = classify_step(m1.c, m2.c, m1.b + m2.a, step=1)
        basis_to = classify_step(m2.c, None, m2.b, step=2)
        x1, x2 = r.normal(size=move.dim), r.normal(size=move.dim)
        p1 = pre_momentum(move, x1, x2)
        res = forward_solve(move, basis_from, basis_to, CanonicalData(1, x1, p1, "pre"))
        split_to = split_variables(basis_to, b_prev=move.b)
        post_pi = split_to.post_pi(res.data.x, res.data.p)
        scale = max(np.abs(res.data.x).max(), np.abs(res.data.p).max(), 1.0)
        for k in basis_to.right_rows:
            assert abs(post_pi[k]) < 1e-8 * scale


def test_observable_map_symplectic(rng):
    for seed in range(10):
        r = np.random.default_rng(seed + 7)
        sizes = {"I": 1, "rho": 1, "gamma": 2}
        m1, m2 = designed_instance(r, sizes)
        move = QuadraticMove(1, 2, m2.a, m2.b, m2.c)
        basis_from = classify_step(m1.c, m2.c, m1.b + m2.a, step=1)
        basis_to = classify_step(m2.c, None, m2.b, step=2)
        a_rows = basis_from.pre_observable_rows
        b_rows = basis_to.post_observable_rows
        c_ab = basis_from.T[a_rows] @ move.c @ basis_to.T[b_rows].T
        n = c_ab.shape[0]
        # (x^A, pi_A) -> (x^B, pi_B) = (-c_AB^{-1} pi_A, c_ABᵀ x^A)
        s = np.block([
            [np.zeros((n, n)), -np.linalg.inv(c_ab)],
            [c_ab.T, np.zeros((n, n))],
        ])
        omega = np.block([
            [np.zeros((n, n)), np.eye(n)],
            [-np.eye(n), np.zeros((n, n))],
        ])
        assert_allclose(s.T @ omega @ s, omega, atol=1e-9)


def test_z_momenta_match_on_shell(rng):
    # for z rows the pre and post split momenta coincide under momentum
    # matching
    sizes = {"z": 1, "gamma": 2}
    m1, m2 = designed_instance(rng, sizes)
    basis = classify_step(m1.c, m2.c, m1.b + m2.a, step=1)
    q = m1.dim
    x0 = rng.normal(size=q)
    x2 = _consistent_final(m1, m2, basis, x0, rng.normal(size=q), rng)
    # enforce the equations of motion for x1 given x0, x2 on the alpha block
    x1 = boundary_solve(m1, m2, basis, x0, x2)
    p1 = pre_momentum(m2, x1, x2)
    p1_post = post_momentum(m1, x0, x1)
    assert_allclose(p1, p1_post, atol=1e-8)
    split = split_variables(basis, a_next=m2.a)
    split_post = split_variables(basis, b_prev=m1.b)
    for k in basis.rows_of("z"):
        assert split.pre_pi(x1, p1)[k] == pytest.approx(
            split_post.post_pi(x1, p1)[k], abs=1e-9
        )


def _consistent_final(m1, m2, basis, x0, x2, rng):
    """Project x2 so that all l/r/z solvability conditions hold."""
    rows = []
    vals = []
    for label in ("l", "r", "z"):
        for k in basis.rows_of(label):
            v = basis.T[k]
            rows.append(m2.c.T @ v)          # coefficient of x2 in v·J
            vals.append(-v @ (m1.c.T @ x0))  # must cancel the x0 part
    if not rows:
        return x2
    a = np.vstack(rows)
    correction, *_ = np.linalg.lstsq(a, np.asarray(vals) - a @ x2, rcond=None)
    return x2 + correction


def test_boundary_solve_scalar_gamma():
    m1 = QuadraticMove(0, 1, [[0.0]], [[1.0]], [[1.0]])
    m2 = QuadraticMove(1, 2, [[1.0]], [[0.0]], [[1.0]])
    basis = classify_step(m1.c, m2.c, m1.b + m2.a, step=1)
    x1 = boundary_solve(m1, m2, basis, [3.0], [5.0])
    assert_allclose(x1, [-4.0])


def test_boundary_solve_z_needs_consistent_data():
    m1 = QuadraticMove(0, 1, [[0.0]], [[0.0]], [[1.0]])
    m2 = QuadraticMove(1, 2, [[0.0]], [[0.0]], [[1.0]])
    basis = classify_step(m1.c, m2.c, np.zeros((1, 1)), step=1)
    with pytest.raises(InconsistentBoundaryError):
        boundary_solve(m1, m2, basis, [1.0], [1.0])
    x1 = boundary_solve(m1, m2, basis, [1.0], [-1.0], multipliers=[7.0])
    assert_allclose(x1, [7.0])


def test_boundary_solve_homogeneous():
    m1 = QuadraticMove(0, 1, [[0.0]], [[1.0]], [[1.0]])
    m2 = QuadraticMove(1, 2, [[1.0]], [[0.0]], [[1.0]])
    basis = classify_step(m1.c, m2.c, m1.b + m2.a, step=1)
    assert_allclose(boundary_solve(m1, m2, basis, [0.0], [0.0]), [0.0])


def test_dof_report_lattice_example(square_fixture):
    fx, bases = square_fixture
    m1, m2 = fx.sequence.moves
    rep = dof_report(m1, m2, bases[0], bases[1], bases[2])
    assert rep.n_move[(0, 1)] == 0
    assert rep.n_move[(1, 2)] == 8
    assert rep.n_through == 0
    assert rep.m_lambda_rho == 0
    # gauge modes are exactly the spurious rows
    gauge = [r.row for r in rep.roles if r.gauge]
    assert gauge == list(range(4, 12))
    for r in rep.roles:
        if r.label == "rho":
            assert r.a_priori_free and r.pre_observable and not r.post_observable


def test_dof_unconstrained_chain(rng):
    q = 3
    from helpers import regular_move

    m1 = regular_move(rng, 0, q)
    m2 = regular_move(rng, 1, q)
    # make the middle Hessian regular too
    while np.abs(np.linalg.eigvalsh(m1.b + m2.a)).min() < 0.3:
        m2 = regular_move(rng, 1, q)
    b0 = classify_step(None, m1.c, m1.a, step=0)
    b1 = classify_step(m1.c, m2.c, m1.b + m2.a, step=1)
    b2 = classify_step(m2.c, None, m2.b, step=2)
    rep = dof_report(m1, m2, b0, b1, b2)
    assert rep.n_through == 2 * q
    assert rep.first_class == 0 and rep.second_class == 0


def test_dof_z_chain_propagates():
    m1 = QuadraticMove(0, 1, [[0.0]], [[0.0]], [[1.0]])
    m2 = QuadraticMove(1, 2, [[0.0]], [[0.0]], [[1.0]])
    b0 = classify_step(None, m1.c, m1.a, step=0)
    b1 = classify_step(m1.c, m2.c, np.zeros((1, 1)), step=1)
    b2 = classify_step(m2.c, None, m2.b, step=2)
    rep = dof_report(m1, m2, b0, b1, b2)
    assert rep.n_through == 2
    # verify by explicit solve: (x1, p1) is predictable and postdictable
    x0 = np.array([0.4])
    p0 = pre_momentum(m1, x0, np.array([1.7]))
    res = forward_solve(m1, b0, b1, CanonicalData(0, x0, p0, "pre"))
    assert_allclose(res.data.x, [1.7])
    back = backward_solve(m1, b0, b1, res.data, free_values=x0)
    assert_allclose(back.data.p, p0)


def test_fixed_variable_solve_trivial_cases(square_fixture):
    fx, bases = square_fixture
    seq = fx.sequence
    out = fixed_variable_solve(bases[1], seq.hessian(1), np.zeros(12), np.zeros(12))
    assert out.x_H.size == 0
    assert out.fixed_rho_rows == ()


def test_fixed_variable_solve_lambda_fixes_rho(rng):
    sizes = {"lambda": 1, "rho": 1, "gamma": 1}
    m1, m2 = designed_instance(rng, sizes)
    h = m1.b + m2.a
    basis = classify_step(m1.c, m2.c, h, step=1)
    if basis.counts["lambda"] != 1 or basis.counts["rho"] != 1:
        pytest.skip("instance lost its designed counts")
    from canonkit.classify import hessian_block

    block = hessian_block(basis, h, "lambda", "rho")
    assert np.abs(block).max() > 1e-6
    x = rng.normal(size=basis.dim)
    post_pi = rng.normal(size=basis.dim)
    out = fixed_variable_solve(basis, h, x, post_pi)
    assert len(out.fixed_rho_rows) == 1
    # with no H rows the lambda equation is plain:
    # post_pi_l + h_ll x^l + h_lr x^r + h_lg x^g = 0
    k_l = basis.rows_of("lambda")[0]
    x_split = basis.to_split_config(x)
    x_split[list(out.fixed_rho_rows)] = out.x_rho_fixed
    lhs = (
        post_pi[k_l]
        + hessian_block(basis, h, "lambda", "lambda")[0, 0] * x_split[k_l]
        + (hessian_block(basis, h, "lambda", "rho") @ x_split[basis.rows_of("rho")])[0]
        + (hessian_block(basis, h, "lambda", "gamma") @ x_split[basis.rows_of("gamma")])[0]
    )
    assert lhs == pytest.approx(0.0, abs=1e-8)


def test_fixed_variable_solve_homogeneous_h(rng):
    sizes = {"H": 2, "gamma": 2}
    m1, m2 = designed_instance(rng, sizes)
    h = m1.b + m2.a
    basis = classify_step(m1.c, m2.c, h, step=1)
    if basis.counts["H"] != 2:
        pytest.skip("instance lost its designed counts")
    out = fixed_variable_solve(basis, h, np.zeros(basis.dim), np.zeros(basis.dim))
    assert_allclose(out.x_H, np.zeros(2), atol=1e-12)
    # x^H solves the holonomic equations for generic x
    x = rng.normal(size=basis.dim)
    out2 = fixed_variable_solve(basis, h, x, np.zeros(basis.dim))
    x_split = basis.to_split_config(x)
    x_split[basis.rows_of("H")] = out2.x_H
    resid = basis.block("H") @ h @ basis.T.T @ x_split
    assert np.abs(resid).max() < 1e-8


def test_fixed_variable_degenerate_h_block():
    # two H rows with a singular h_HH block must raise.  Slots 0-3 are
    # two-sided null vectors of c; h couples 0<->4 and 1<->5 only, so slots
    # 2, 3 are h-null (I), slots 0, 1 are not (H) and h_HH vanishes
    c = np.diag([0.0, 0.0, 0.0, 0.0, 1.0, 1.0])
    h = np.zeros((6, 6))
    h[0, 4] = h[4, 0] = h[1, 5] = h[5, 1] = 1.0
    basis = classify_step(c, c, h, step=1)
    assert basis.counts == {"I": 2, "H": 2, "l": 0, "lambda": 0,
                            "r": 0, "rho": 0, "z": 0, "gamma": 2}
    with pytest.raises(DegeneracyError):
        fixed_variable_solve(basis, h, np.zeros(6), np.zeros(6))


def test_fixed_variable_shifts_are_schur_complements():
    # rho_shift / gamma_shift hold h_ab - h_aH h_HH^-1 h_Hb on the rho and
    # gamma columns (a, b in rho, gamma) and zero everywhere else
    from canonkit.classify import hessian_block

    r = np.random.default_rng(5)
    sizes = {"I": 1, "H": 2, "lambda": 1, "rho": 2, "gamma": 2}
    m1, m2 = designed_instance(r, sizes)
    h = m1.b + m2.a
    basis = classify_step(m1.c, m2.c, h, step=1)
    assert basis.counts == {**{t: 0 for t in ("l", "r", "z")}, **sizes}
    out = fixed_variable_solve(basis, h, r.normal(size=basis.dim), r.normal(size=basis.dim))

    def schur(a, b):
        h_hh = hessian_block(basis, h, "H", "H")
        return (hessian_block(basis, h, a, b)
                - hessian_block(basis, h, a, "H") @ np.linalg.solve(h_hh, hessian_block(basis, h, "H", b)))

    rows_r, rows_g = basis.rows_of("rho"), basis.rows_of("gamma")
    others = basis.rows_of("I", "H", "lambda")
    for shift, a in ((out.rho_shift, "rho"), (out.gamma_shift, "gamma")):
        assert shift.shape == (basis.rows_of(a).size, basis.dim)
        assert_allclose(shift[:, rows_r], schur(a, "rho"), rtol=1e-12, atol=1e-12)
        assert_allclose(shift[:, rows_g], schur(a, "gamma"), rtol=1e-12, atol=1e-12)
        assert np.all(shift[:, others] == 0.0)
    assert_allclose(out.schur_lambda_rho, schur("lambda", "rho"), rtol=1e-12, atol=1e-12)


def test_transferred_momenta_on_shell():
    # on momentum-matched solutions with the H rows eliminated, the
    # shifted pre-momenta depend only on data that propagated in:
    #   pi~_rho := pi_rho - h~_rr x^r - h~_rg x^g = h~_rl x^l
    #   pi~_gamma := pi_gamma - h~_gr x^r - h~_gg x^g = +pi_gamma + h~_gl x^l
    from helpers import consistent_chain_data
    from canonkit.actions import post_momentum

    hits = 0
    for seed in range(12):
        r = np.random.default_rng(seed + 77)
        sizes = {"H": 1, "lambda": 1, "rho": 1, "gamma": 1}
        m1, m2 = designed_instance(r, sizes)
        h = m1.b + m2.a
        basis = classify_step(m1.c, m2.c, h, step=1)
        if basis.counts != {**{t: 0 for t in
                               ("I", "l", "r", "z")}, "H": 1, "lambda": 1,
                            "rho": 1, "gamma": 1}:
            continue
        x0, x1, x2 = consistent_chain_data(m1, m2, r)
        p1 = post_momentum(m1, x0, x1)
        split_pre = split_variables(basis, a_next=m2.a)
        split_post = split_variables(basis, b_prev=m1.b)
        pre_pi = split_pre.pre_pi(x1, p1)
        post_pi = split_post.post_pi(x1, p1)
        out = fixed_variable_solve(basis, h, x1, post_pi)
        x_split = basis.to_split_config(x1)
        rows_r = basis.rows_of("rho")
        rows_g = basis.rows_of("gamma")
        rows_l = basis.rows_of("lambda")

        def schur(a, b):
            blk = basis.T[a] @ h @ basis.T[b].T
            hh = basis.T[basis.rows_of("H")] @ h @ basis.T[basis.rows_of("H")].T
            ah = basis.T[a] @ h @ basis.T[basis.rows_of("H")].T
            hb = basis.T[basis.rows_of("H")] @ h @ basis.T[b].T
            return blk - ah @ np.linalg.solve(hh, hb)

        pi_rho_shifted = pre_pi[rows_r] - out.rho_shift @ x_split
        assert_allclose(pi_rho_shifted, schur(rows_r, rows_l) @ x_split[rows_l],
                        atol=1e-8)
        pi_gamma_shifted = pre_pi[rows_g] - out.gamma_shift @ x_split
        assert_allclose(
            pi_gamma_shifted,
            post_pi[rows_g] + schur(rows_g, rows_l) @ x_split[rows_l],
            atol=1e-8,
        )
        hits += 1
    assert hits >= 8


def test_roles_cover_all_rows(square_fixture):
    fx, bases = square_fixture
    roles = variable_roles(bases[1])
    assert len(roles) == 12
    assert all(r.label in ("I", "rho") for r in roles)
