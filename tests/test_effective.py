import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import designed_instance, regular_move

from canonkit.actions import QuadraticMove, moves_tolerance, post_momentum, pre_momentum
from canonkit.classify import classify_step
from canonkit.effective import (
    EffectiveMove,
    chain_compose,
    compose,
    count_monotonicity_check,
    degeneracy_dims,
    effective_constraints,
    reclassify_onshell,
)
from canonkit.errors import InputError
from canonkit.lattice import expanding_square_sequence
from canonkit.linalg import DEFAULT_TOL, left_null_basis, right_null_basis


def classify_chain(m1, m2):
    b0 = classify_step(None, m1.c, m1.a, step=m1.step_from)
    b1 = classify_step(m1.c, m2.c, m1.b + m2.a, step=m1.step_to)
    b2 = classify_step(m2.c, None, m2.b, step=m2.step_to)
    return b0, b1, b2


def consistent_chain_data(m1, m2, rng):
    """(x0, x1, x2) satisfying the middle equations of motion.

    Momentum matching holds by construction; the left-null solvability
    conditions on (x0, x1) are imposed by null-space sampling.
    """
    q = m1.dim
    lnull = left_null_basis(m2.c)
    rows = []
    for k in range(lnull.dim):
        v = lnull.basis[:, k]
        rows.append(np.concatenate([m1.c @ v, (m1.b + m2.a) @ v]))
    if rows:
        kernel = right_null_basis(np.vstack(rows))
        coeffs = rng.normal(size=kernel.dim)
        both = kernel.basis @ coeffs
    else:
        both = rng.normal(size=2 * q)
    x0, x1 = both[:q], both[q:]
    rhs = -(m1.c.T @ x0) - (m1.b + m2.a) @ x1
    x2, *_ = np.linalg.lstsq(m2.c, rhs, rcond=None)
    assert np.abs(m2.c @ x2 - rhs).max() < 1e-8 * max(1.0, np.abs(rhs).max())
    return x0, x1, x2


def test_compose_lattice_example(square_fixture):
    fx, bases = square_fixture
    m1, m2 = fx.sequence.moves
    eff = compose(m1, m2, bases[1])
    assert np.abs(eff.a).max() < 1e-12
    assert np.abs(eff.c).max() < 1e-12
    assert np.abs(eff.b - eff.b.T).max() < 1e-12
    assert eff.multipliers == ()
    assert eff.provenance == (0, 1, 2)


def test_compose_scalar_gamma():
    m1 = QuadraticMove(0, 1, [[0.0]], [[1.0]], [[1.0]])
    m2 = QuadraticMove(1, 2, [[1.0]], [[0.0]], [[1.0]])
    basis = classify_step(m1.c, m2.c, m1.b + m2.a, step=1)
    eff = compose(m1, m2, basis)
    assert eff.a[0, 0] == pytest.approx(-0.5)
    assert eff.b[0, 0] == pytest.approx(-0.5)
    assert eff.c[0, 0] == pytest.approx(-0.5)


def test_compose_scalar_z_chain():
    m1 = QuadraticMove(0, 1, [[0.3]], [[0.0]], [[1.0]])
    m2 = QuadraticMove(1, 2, [[0.0]], [[-0.2]], [[1.0]])
    basis = classify_step(m1.c, m2.c, np.zeros((1, 1)), step=1)
    eff = compose(m1, m2, basis)
    assert_allclose(eff.a, m1.a)
    assert_allclose(eff.b, m2.b)
    assert np.abs(eff.c).max() == 0.0
    assert len(eff.multipliers) == 1
    rec = eff.multipliers[0]
    assert rec.source_type == "z"
    assert rec.constraint.kind == "boundary_data"
    assert_allclose(rec.constraint.x_coeffs, [1.0])
    assert_allclose(rec.constraint.x_coeffs_other, [1.0])


def test_symmetry_of_effective_coefficients(rng):
    for seed in range(10):
        r = np.random.default_rng(seed)
        sizes = {"I": 1, "H": 1, "lambda": 1, "rho": 1, "z": 1, "gamma": 2}
        m1, m2 = designed_instance(r, sizes)
        basis = classify_step(m1.c, m2.c, m1.b + m2.a, step=1)
        eff = compose(m1, m2, basis)
        assert np.abs(eff.a - eff.a.T).max() < 1e-9
        assert np.abs(eff.b - eff.b.T).max() < 1e-9


def test_null_space_inheritance(rng):
    for seed in range(10):
        r = np.random.default_rng(seed + 5)
        sizes = {"l": 1, "r": 1, "z": 1, "gamma": 2}
        m1, m2 = designed_instance(r, sizes)
        basis = classify_step(m1.c, m2.c, m1.b + m2.a, step=1)
        eff = compose(m1, m2, basis)
        l0 = left_null_basis(m1.c)
        for k in range(l0.dim):
            assert np.abs(l0.basis[:, k] @ eff.c).max() < 1e-9
        r2 = right_null_basis(m2.c)
        for k in range(r2.dim):
            assert np.abs(eff.c @ r2.basis[:, k]).max() < 1e-9


def test_canonical_vs_lagrangian_elimination(rng):
    """Pre/post momenta from two-step evolution and from the effective
    move's Legendre maps plus multiplier terms coincide entrywise."""
    for seed in range(15):
        r = np.random.default_rng(seed + 270)
        sizes = {"I": 1, "l": 1, "r": 1, "z": 1, "gamma": 2}
        m1, m2 = designed_instance(r, sizes)
        basis = classify_step(m1.c, m2.c, m1.b + m2.a, step=1)
        eff = compose(m1, m2, basis)
        x0, x1, x2 = consistent_chain_data(m1, m2, r)
        p0 = pre_momentum(m1, x0, x1)
        p2 = post_momentum(m2, x1, x2)
        # effective maps: multiplier values are the split components of x1
        x1_split = basis.to_split_config(x1)
        p0_eff = -eff.a @ x0 - eff.c @ x2
        p2_eff = eff.b @ x2 + eff.c.T @ x0
        for rec in eff.multipliers:
            k = [i for i in basis.rows_of(rec.source_type)
                 if np.allclose(basis.T[i], rec.row)][0]
            if rec.source_type in ("l", "z"):
                p0_eff = p0_eff - rec.constraint.x_part_at(0) * x1_split[k]
            if rec.source_type in ("r", "z"):
                p2_eff = p2_eff + rec.constraint.x_part_at(2) * x1_split[k]
        scale = max(np.abs(p0).max(), np.abs(p2).max(), 1.0)
        assert np.abs(p0_eff - p0).max() < 1e-8 * scale
        assert np.abs(p2_eff - p2).max() < 1e-8 * scale


def test_effective_constraints_lattice_example(square_fixture):
    fx, bases = square_fixture
    m1, m2 = fx.sequence.moves
    eff = compose(m1, m2, bases[1])
    b0 = classify_step(None, eff.c, eff.a, step=0)
    b2 = classify_step(eff.c, None, eff.b, step=2)
    cons = effective_constraints(eff, b0, b2)
    pre = [c for c in cons if c.kind == "pre"]
    post = [c for c in cons if c.kind == "post"]
    assert len(pre) == 12 and len(post) == 12
    assert all(not c.multiplier_terms for c in cons)


def test_effective_constraints_preserve_primary(rng):
    # constraints whose null vectors already existed keep their exact form
    sizes = {"I": 1, "rho": 1, "gamma": 2}
    m1, m2 = designed_instance(rng, sizes)
    b0, b1, b2 = classify_chain(m1, m2)
    eff = compose(m1, m2, b1)
    from canonkit.constraints import primary_constraints

    eff_b0 = classify_step(None, eff.c, eff.a, step=0)
    cons_eff = effective_constraints(eff, eff_b0, classify_step(eff.c, None, eff.b, step=2))
    primary_pre = [c for c in primary_constraints(None, m1, b0) if c.kind == "pre"]
    # every primary pre-constraint functional is annihilated on the
    # effective data too: L·c_eff = 0 and the a-part agrees when L·c1 = 0
    for c in primary_pre:
        l_row = c.p_coeffs
        assert np.abs(l_row @ eff.c).max() < 1e-9
        assert_allclose(eff.a @ l_row, m1.a @ l_row, atol=1e-9)


def test_effective_constraints_scalar_z():
    m1 = QuadraticMove(0, 1, [[0.4]], [[0.0]], [[1.0]])
    m2 = QuadraticMove(1, 2, [[0.0]], [[0.0]], [[1.0]])
    basis = classify_step(m1.c, m2.c, np.zeros((1, 1)), step=1)
    eff = compose(m1, m2, basis)
    b0 = classify_step(None, eff.c, eff.a, step=0)
    b2 = classify_step(eff.c, None, eff.b, step=2)
    cons = effective_constraints(eff, b0, b2)
    pre = [c for c in cons if c.kind == "pre"]
    assert len(pre) == 1
    (c,) = pre
    assert_allclose(c.x_coeffs, eff.a @ c.p_coeffs)
    assert len(c.multiplier_terms) == 1
    name, coeff = c.multiplier_terms[0]
    assert name.startswith("B[") and abs(coeff) > 0.1
    bd = [c for c in cons if c.kind == "boundary_data"]
    assert len(bd) == 1


def test_chained_multipliers_pass_through():
    # a boundary-data record produced at the first composition references
    # a step that the second composition eliminates; it is carried with
    # its original labels and contributes no terms at the new outer steps
    from canonkit.actions import MoveSequence
    from canonkit.effective import effective_outer_bases

    s1 = QuadraticMove(0, 1, [[0.3]], [[0.0]], [[1.0]])
    s2 = QuadraticMove(1, 2, [[0.0]], [[1.0]], [[1.0]])   # h12 = 0: z at step 1
    s3 = QuadraticMove(2, 3, [[1.0]], [[-0.4]], [[1.0]])  # h23 = 2: regular
    seq = MoveSequence(1, (s1, s2, s3))
    eff = chain_compose(seq, 0, 3)
    assert len(eff.multipliers) == 1
    rec = eff.multipliers[0]
    assert rec.source_type == "z" and rec.constraint.steps == (0, 2)
    assert eff.provenance == (0, 1, 2, 3)
    b0, b3 = effective_outer_bases(eff)
    cons = effective_constraints(eff, b0, b3)
    # the carried record appears in the list against its original steps
    assert any(c.kind == "boundary_data" and c.steps == (0, 2) for c in cons)
    # pre-constraints at 0 still pick up its step-0 coefficient
    pre = [c for c in cons if c.kind == "pre"]
    assert pre and any(c.multiplier_terms for c in pre)
    # post side at 3 references no eliminated steps
    for c in cons:
        if c.kind == "post":
            for name, _ in c.multiplier_terms:
                assert "@1" not in name


def test_reclassify_lattice_step2():
    fx = expanding_square_sequence(3, mass=0.0)
    seq = fx.sequence
    m1, m2, m3 = seq.moves
    basis1 = classify_step(m1.c, m2.c, seq.hessian(1), step=1)
    eff = compose(m1, m2, basis1)
    from canonkit.classify import classify_rows

    old_basis = classify_rows(fx.basis_t2, m2.c, m3.c, seq.hessian(2), step=2)
    new_basis, rows = reclassify_onshell(eff, m3, old_basis=old_basis)
    # the twelve reference directions all become refining rows on-shell
    for rec in rows[:12]:
        assert rec.new_label == "rho"
    # padding rows stay gauge
    for rec in rows[12:]:
        assert rec.new_label == "I"
    assert new_basis.counts["rho"] == 12
    assert new_basis.counts["I"] == 8


def test_reclassify_gauge_rows_stable(rng):
    sizes = {"I": 2, "gamma": 2}
    m1, m2 = designed_instance(rng, sizes)
    b1 = classify_step(m1.c, m2.c, m1.b + m2.a, step=1)
    eff = compose(m1, m2, b1)
    m3 = regular_move(rng, 2, m1.dim)
    old = classify_step(m2.c, m3.c, m2.b + m3.a, step=2)
    new_basis, rows = reclassify_onshell(eff, m3, old_basis=old)
    for rec in rows:
        if rec.old_label == "I":
            assert rec.new_label == "I"


def test_reclassify_z_label_does_not_survive():
    # step 2 is a z direction of the pair (move2, move3); after composing
    # the first two moves it acquires effective-Hessian action
    m1 = QuadraticMove(0, 1, [[0.0]], [[1.0]], [[1.0]])
    m2 = QuadraticMove(1, 2, [[1.0]], [[0.5]], [[1.0]])
    m3 = QuadraticMove(2, 3, [[-0.5]], [[0.0]], [[1.0]])
    b1 = classify_step(m1.c, m2.c, m1.b + m2.a, step=1)
    assert b1.counts["gamma"] == 1
    old = classify_step(m2.c, m3.c, m2.b + m3.a, step=2)
    assert old.counts["z"] == 1
    eff = compose(m1, m2, b1)
    # effective Hessian at 2: (b2 - c2ᵀ h+ c2) + a3 = -0.5 - 0.5 + ... != 0
    new_basis, rows = reclassify_onshell(eff, m3, old_basis=old)
    assert all(rec.new_label != "z" for rec in rows)
    assert rows[0].old_label == "z" and rows[0].new_label == "gamma"


def test_chain_compose_two_moves_equals_compose(square_fixture):
    fx, bases = square_fixture
    seq = fx.sequence
    eff_direct = compose(seq.moves[0], seq.moves[1], bases[1])
    eff_chain = chain_compose(seq, 0, 2)
    assert_allclose(eff_chain.a, eff_direct.a, atol=1e-12)
    assert_allclose(eff_chain.b, eff_direct.b, atol=1e-12)
    assert_allclose(eff_chain.c, eff_direct.c, atol=1e-12)


def test_chain_fold_order_agreement(rng):
    # three regular scalar moves: eliminating left-to-right or
    # right-to-left yields the same effective coefficients
    for seed in range(10):
        r = np.random.default_rng(seed + 33)
        moves = [regular_move(r, k, 1) for k in range(3)]
        from canonkit.actions import MoveSequence

        seq = MoveSequence(1, tuple(moves))
        left = chain_compose(seq, 0, 3)

        def compose_pair(a, b):
            basis = classify_step(a.c, b.c, a.b + b.a, step=b.step_from)
            return compose(a, b, basis)

        right = compose_pair(moves[0], compose_pair(moves[1], moves[2]))
        assert_allclose(left.a, right.a, atol=1e-7)
        assert_allclose(left.b, right.b, atol=1e-7)
        assert_allclose(left.c, right.c, atol=1e-7)


def test_chain_fold_order_agreement_multidim(rng):
    for seed in range(5):
        r = np.random.default_rng(seed + 90)
        moves = [regular_move(r, k, 3) for k in range(3)]
        from canonkit.actions import MoveSequence

        seq = MoveSequence(3, tuple(moves))
        left = chain_compose(seq, 0, 3)

        def compose_pair(a, b):
            basis = classify_step(a.c, b.c, a.b + b.a, step=b.step_from)
            return compose(a, b, basis)

        right = compose_pair(moves[0], compose_pair(moves[1], moves[2]))
        scale = max(np.abs(left.a).max(), np.abs(left.b).max(), 1.0)
        assert np.abs(left.a - right.a).max() < 1e-7 * scale
        assert np.abs(left.b - right.b).max() < 1e-7 * scale
        assert np.abs(left.c - right.c).max() < 1e-7 * scale


def test_effective_move_is_a_quadratic_move():
    # integrating out a step gives again a quadratic move S~(x0, x2); it
    # goes straight back into compose, classify_step and the propagator
    from canonkit.actions import MoveSequence
    from canonkit.effective import EffectiveMove, effective_outer_bases
    from canonkit.evolution import boundary_solve
    from canonkit.quantum import propagator_from_move, unitarity_check

    r = np.random.default_rng(41)
    moves = [regular_move(r, k, 3) for k in range(3)]
    m1, m2, m3 = moves
    b1 = classify_step(m1.c, m2.c, m1.b + m2.a, step=1)
    eff = compose(m1, m2, b1)
    assert isinstance(eff, QuadraticMove) and isinstance(eff, EffectiveMove)
    assert (eff.step_from, eff.step_to, eff.dim) == (0, 2, 3)
    # S~ is the two-move action at the stationary middle configuration
    x0, x2 = r.normal(size=3), r.normal(size=3)
    x1 = boundary_solve(m1, m2, b1, x0, x2)
    assert eff.action(x0, x2) == pytest.approx(m1.action(x0, x1) + m2.action(x1, x2), rel=1e-10)

    b2 = classify_step(eff.c, m3.c, eff.b + m3.a, step=2)
    eff3 = compose(eff, m3, b2)
    chain = chain_compose(MoveSequence(3, tuple(moves)), 0, 3)
    assert_allclose(eff3.a, chain.a, atol=1e-12)
    assert_allclose(eff3.b, chain.b, atol=1e-12)
    assert_allclose(eff3.c, chain.c, atol=1e-12)
    assert eff3.provenance == chain.provenance == (0, 1, 2, 3)

    b_from, b_to = effective_outer_bases(eff3)
    kernel = propagator_from_move(eff3, b_from, b_to)
    assert (kernel.in_step, kernel.out_step) == (0, 3)
    assert_allclose(kernel.C, eff3.c)
    assert unitarity_check(kernel, b_from, b_to)


def test_monotonicity_lattice_example(square_fixture):
    fx, bases = square_fixture
    m1, m2 = fx.sequence.moves
    eff = compose(m1, m2, bases[1])
    dims = degeneracy_dims(m1, m2, eff)
    assert dims == {"c1": 12, "c2": 8, "h": 8, "c_eff": 12}
    assert count_monotonicity_check(m1, m2, eff) is True


def test_degeneracy_dims_are_the_null_basis_dimensions(rng):
    pairs = [designed_instance(rng, sizes) for sizes in (
        {"I": 1, "H": 1, "l": 1, "lambda": 1, "r": 1, "rho": 1, "z": 1, "gamma": 2},
        {"lambda": 2, "rho": 1, "z": 1},
        {"I": 2, "gamma": 3},
    )]
    seq = expanding_square_sequence(4, mass=0.5).sequence
    pairs += list(zip(seq.moves, seq.moves[1:]))
    for m1, m2 in pairs:
        tol = moves_tolerance(DEFAULT_TOL, m1, m2)
        eff = compose(m1, m2, classify_step(m1.c, m2.c, m1.b + m2.a, tol, step=m1.step_to), tol)
        mats = {"c1": m1.c, "c2": m2.c, "h": m1.b + m2.a, "c_eff": eff.c}
        assert degeneracy_dims(m1, m2, eff) == {
            name: right_null_basis(m, tol).dim for name, m in mats.items()}


def test_degeneracy_dims_need_the_glued_basis_at_the_shared_step(rng):
    m1, m2 = designed_instance(rng, {"I": 1, "lambda": 1, "rho": 1, "z": 1, "gamma": 2})
    eff = compose(m1, m2, classify_step(m1.c, m2.c, m1.b + m2.a, step=1))
    # the same composed data, glued nowhere: the null dimensions of c1, c2
    # and h have no classification to be read from
    bare = EffectiveMove(eff.step_from, eff.step_to, eff.a, eff.b, eff.c)
    with pytest.raises(InputError, match="no glued basis at step 1"):
        degeneracy_dims(m1, m2, bare)
    with pytest.raises(InputError, match="no glued basis at step 1"):
        count_monotonicity_check(m1, m2, bare)


def test_monotonicity_regular(rng):
    m1 = regular_move(rng, 0, 2)
    m2 = regular_move(rng, 1, 2)
    while np.abs(np.linalg.eigvalsh(m1.b + m2.a)).min() < 0.3:
        m2 = regular_move(rng, 1, 2)
    basis = classify_step(m1.c, m2.c, m1.b + m2.a, step=1)
    eff = compose(m1, m2, basis)
    assert count_monotonicity_check(m1, m2, eff) is True
    assert degeneracy_dims(m1, m2, eff)["c_eff"] == 0


def test_monotonicity_random_degenerate(rng):
    for seed in range(100):
        r = np.random.default_rng(seed)
        sizes = {
            "I": int(r.integers(0, 2)),
            "lambda": int(r.integers(0, 2)),
            "rho": int(r.integers(0, 2)),
            "z": int(r.integers(0, 2)),
            "gamma": 2,
        }
        m1, m2 = designed_instance(r, sizes, scale=1.0)
        basis = classify_step(m1.c, m2.c, m1.b + m2.a, step=1)
        eff = compose(m1, m2, basis)
        assert count_monotonicity_check(m1, m2, eff) is True
