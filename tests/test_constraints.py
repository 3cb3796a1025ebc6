import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import designed_instance

from canonkit.actions import QuadraticMove
from canonkit.classify import classify_step
from canonkit.constraints import (
    LinearConstraint,
    bracket_table,
    independent_count,
    poisson_bracket,
    primary_constraints,
    secondary_constraints,
)
from canonkit.errors import InputError


def test_lattice_step1_constraint_set(square_fixture):
    fx, bases = square_fixture
    m1, m2 = fx.sequence.moves
    cons = primary_constraints(m1, m2, bases[1])
    pre = [c for c in cons if c.kind == "pre"]
    post = [c for c in cons if c.kind == "post"]
    assert len(pre) == 8 and len(post) == 12

    # the eight pre-constraints are the bare spurious momenta
    for c in pre:
        assert c.source_type == "I"
        assert np.abs(c.x_coeffs).max() == 0.0
        k = int(np.argmax(np.abs(c.p_coeffs)))
        assert k >= 4 and c.p_coeffs[k] == 1.0

    # the I-row post-constraints coincide with them as functionals
    post_I = [c for c in post if c.source_type == "I"]
    assert len(post_I) == 8
    for cp in post_I:
        match = [
            c for c in pre
            if np.allclose(c.p_coeffs, cp.p_coeffs) and np.allclose(c.x_coeffs, cp.x_coeffs)
        ]
        assert len(match) == 1

    # the four refining post-constraints match the corner rows entrywise:
    # +C_i = p_i - (2 + m^2/2) phi_i + phi_{i-1} + phi_{i+1}
    post_rho = [c for c in post if c.source_type == "rho"]
    assert len(post_rho) == 4
    for i, c in enumerate(post_rho):
        expected_p = np.zeros(12)
        expected_p[i] = 1.0
        expected_x = np.zeros(12)
        expected_x[i] = -2.0
        expected_x[(i + 1) % 4] = 1.0
        expected_x[(i - 1) % 4] = 1.0
        assert_allclose(c.p_coeffs, expected_p, atol=1e-12)
        assert_allclose(c.x_coeffs, expected_x, atol=1e-12)


def test_lattice_step2_post_constraints_match_rows(square_fixture):
    fx, bases = square_fixture
    m2 = fx.sequence.moves[1]
    cons = primary_constraints(m2, None, bases[2])
    assert len(cons) == 8 and all(c.kind == "post" for c in cons)

    def e(i):
        v = np.zeros(12)
        v[i - 1] = 1.0
        return v

    # first row: +C = p_12 - p_5 + 4 (phi_5 - phi_12) + phi_11 - phi_6 (m = 0)
    assert_allclose(cons[0].p_coeffs, e(12) - e(5), atol=1e-13)
    assert_allclose(cons[0].x_coeffs, 4.0 * (e(5) - e(12)) + e(11) - e(6), atol=1e-13)
    # fifth row: +C = p_4 - 2 phi_4 + phi_5 + phi_12
    assert_allclose(cons[4].p_coeffs, e(1), atol=1e-13)
    assert_allclose(cons[4].x_coeffs, -2.0 * e(1) + e(6) + e(7), atol=1e-13)


def test_massive_fixture_coefficients(square_fixture_massive):
    fx, bases = square_fixture_massive
    m2 = fx.sequence.moves[1]
    mass = 0.7
    cons = primary_constraints(m2, None, bases[2])
    k = 4  # +C = p_1 - (2 + m^2/2) phi_1 + phi_6 + phi_7 in reference order
    row = cons[k]
    assert row.x_coeffs[0] == pytest.approx(-(2.0 + 0.5 * mass**2))
    assert row.x_coeffs[5] == pytest.approx(1.0)
    assert row.x_coeffs[6] == pytest.approx(1.0)


def test_no_constraints_for_invertible_cross(rng):
    q = 3
    c = rng.normal(size=(q, q)) + 3.0 * np.eye(q)
    move1 = QuadraticMove(0, 1, np.zeros((q, q)), np.zeros((q, q)), c)
    move2 = QuadraticMove(1, 2, np.zeros((q, q)), np.zeros((q, q)), c)
    basis = classify_step(move1.c, move2.c, np.zeros((q, q)), step=1)
    cons = primary_constraints(move1, move2, basis)
    assert cons == []


def test_bracket_antisymmetry_and_self():
    c1 = LinearConstraint(1, "pre", p_coeffs=[1.0, 0.0], x_coeffs=[0.3, -0.7])
    c2 = LinearConstraint(1, "post", p_coeffs=[0.0, 1.0], x_coeffs=[2.0, 0.0])
    assert poisson_bracket(c1, c1) == 0.0
    assert poisson_bracket(c1, c2) == -poisson_bracket(c2, c1)


def test_bracket_is_l_h_r():
    # pre/post pair from L = R = e1 with h = [[3]]
    h = np.array([[3.0]])
    pre = LinearConstraint(1, "pre", p_coeffs=[1.0], x_coeffs=[2.0])   # a_next = 2
    post = LinearConstraint(1, "post", p_coeffs=[1.0], x_coeffs=[-1.0])  # b_prev = 1
    # {-C, +C} = x(-C)·p(+C) - p(-C)·x(+C) = 2 + 1 = 3 = L h R
    assert poisson_bracket(pre, post) == pytest.approx(3.0)


def test_bracket_step_mismatch():
    c1 = LinearConstraint(1, "pre", p_coeffs=[1.0], x_coeffs=[0.0])
    c2 = LinearConstraint(2, "post", p_coeffs=[1.0], x_coeffs=[0.0])
    with pytest.raises(InputError):
        poisson_bracket(c1, c2)


def test_lattice_bracket_table_all_first_class(square_fixture):
    fx, bases = square_fixture
    m1, m2 = fx.sequence.moves
    cons = primary_constraints(m1, m2, bases[1])
    table = bracket_table(cons, fx.sequence.hessian(1), bases[1])
    assert np.abs(table.brackets).max() == 0.0
    assert table.all_first_class
    assert table.m_lambda_rho == 0


def test_second_class_pair():
    # a single +C_H/-C_H pair with h_HH = [1] is second class
    move1 = QuadraticMove(0, 1, [[0.0]], [[1.0]], [[0.0]])
    move2 = QuadraticMove(1, 2, [[0.0]], [[0.0]], [[0.0]])
    basis = classify_step(move1.c, move2.c, move1.b + move2.a, step=1)
    assert basis.counts["H"] == 1
    cons = primary_constraints(move1, move2, basis)
    table = bracket_table(cons, move1.b + move2.a, basis)
    assert set(table.class_split) == {"second"}
    assert abs(table.brackets).max() == pytest.approx(1.0)


def test_empty_table():
    table = bracket_table([], np.zeros((1, 1)), classify_step(None, None, np.zeros((1, 1))))
    assert table.brackets.shape == (0, 0)
    assert table.class_split == ()


def test_pre_and_post_sets_abelian(rng):
    sizes = {"I": 1, "H": 1, "l": 1, "lambda": 1, "r": 1, "rho": 1, "gamma": 1}
    m1, m2 = designed_instance(rng, sizes)
    basis = classify_step(m1.c, m2.c, m1.b + m2.a, step=1)
    cons = primary_constraints(m1, m2, basis)
    pre = [c for c in cons if c.kind == "pre"]
    post = [c for c in cons if c.kind == "post"]
    for group in (pre, post):
        for i, ci in enumerate(group):
            for cj in group[i:]:
                assert poisson_bracket(ci, cj) == pytest.approx(0.0, abs=1e-10)


def test_type_I_commutes_with_everything(rng):
    sizes = {"I": 2, "H": 1, "lambda": 1, "rho": 1, "gamma": 1}
    m1, m2 = designed_instance(rng, sizes)
    basis = classify_step(m1.c, m2.c, m1.b + m2.a, step=1)
    cons = primary_constraints(m1, m2, basis)
    gauge = [c for c in cons if c.source_type == "I"]
    scale = max(np.abs(m1.b + m2.a).max(), 1.0)
    for cg in gauge:
        for c in cons:
            assert abs(poisson_bracket(cg, c)) < 1e-9 * scale


def test_table1_cross_pattern(rng):
    # brackets between pre and post constraints vanish except on the
    # H/lambda x H/rho block
    for seed in range(5):
        r = np.random.default_rng(seed + 11)
        sizes = {"I": 1, "H": 1, "l": 1, "lambda": 1, "r": 1, "rho": 1, "z": 1, "gamma": 1}
        m1, m2 = designed_instance(r, sizes)
        h = m1.b + m2.a
        basis = classify_step(m1.c, m2.c, h, step=1)
        cons = primary_constraints(m1, m2, basis)
        scale = max(np.abs(h).max(), 1.0)
        allowed_pre = {"H", "lambda"}
        allowed_post = {"H", "rho"}
        for ci in cons:
            for cj in cons:
                if ci.kind == cj.kind:
                    continue
                br = poisson_bracket(ci, cj)
                pre_c, post_c = (ci, cj) if ci.kind == "pre" else (cj, ci)
                if not (pre_c.source_type in allowed_pre and post_c.source_type in allowed_post):
                    assert abs(br) < 1e-9 * scale


def test_secondary_constraints_z_scalar():
    move1 = QuadraticMove(0, 1, [[0.0]], [[0.0]], [[1.0]])
    move2 = QuadraticMove(1, 2, [[0.0]], [[0.0]], [[1.0]])
    basis = classify_step(move1.c, move2.c, np.zeros((1, 1)), step=1)
    assert basis.counts["z"] == 1
    (bd,) = secondary_constraints(move1, move2, basis)
    assert bd.kind == "boundary_data"
    assert bd.steps == (0, 2)
    # B: x0 + x2 = 0
    assert_allclose(bd.x_coeffs, [1.0])
    assert_allclose(bd.x_coeffs_other, [1.0])
    assert not bd.trivial
    assert bd.evaluate([2.0], x_other=[-2.0]) == pytest.approx(0.0)


def test_secondary_constraints_fixture_empty(square_fixture):
    fx, bases = square_fixture
    m1, m2 = fx.sequence.moves
    assert secondary_constraints(m1, m2, bases[1]) == []


def test_secondary_l_constraint_trivial_when_cprev_zero():
    q = 2
    c2 = np.zeros((q, q))  # every direction is a left null vector
    move1 = QuadraticMove(0, 1, np.zeros((q, q)), np.zeros((q, q)), np.zeros((q, q)))
    move2 = QuadraticMove(1, 2, np.zeros((q, q)), np.eye(q), c2)
    h = move1.b + move2.a
    basis = classify_step(move1.c, move2.c, h, step=1)
    cons = secondary_constraints(move1, move2, basis)
    for c in cons:
        if c.kind == "holonomic_left":
            assert c.trivial


def test_secondary_holonomic_rows(rng):
    sizes = {"l": 1, "r": 1, "gamma": 2}
    m1, m2 = designed_instance(rng, sizes)
    basis = classify_step(m1.c, m2.c, m1.b + m2.a, step=1)
    cons = secondary_constraints(m1, m2, basis)
    kinds = sorted(c.kind for c in cons)
    assert kinds == ["holonomic_left", "holonomic_right"]
    for c in cons:
        assert np.abs(c.p_coeffs).max() == 0.0
        if c.kind == "holonomic_left":
            row = basis.block("l")[0]
            assert_allclose(c.x_coeffs, m1.c @ row, atol=1e-12)
            assert c.step == 0
        else:
            row = basis.block("r")[0]
            assert_allclose(c.x_coeffs, m2.c.T @ row, atol=1e-12)
            assert c.step == 2


def test_independent_count():
    c1 = LinearConstraint(0, "pre", p_coeffs=[1.0, 0.0], x_coeffs=[0.0, 0.0])
    c2 = LinearConstraint(0, "pre", p_coeffs=[2.0, 0.0], x_coeffs=[0.0, 0.0])
    c3 = LinearConstraint(0, "pre", p_coeffs=[0.0, 1.0], x_coeffs=[0.0, 0.0])
    assert independent_count([c1, c2, c3]) == 2


def test_group_triviality_is_the_per_row_rule():
    # a row is trivial iff its x and its far-step x both lie within the cut
    from canonkit.constraints import _rows

    x = np.array([[0.0, 1e-12], [0.0, 0.0], [1.0, 0.0], [0.0, -1e-12]])
    far = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [-1e-12, 0.0]])
    cons = _rows((0, 2), "boundary_data", ["z"] * 4, x, far, cut=1e-10)
    assert [c.trivial for c in cons] == [True, False, False, True]
    assert all(type(c.trivial) is bool and not c.p_coeffs.any() for c in cons)
    assert [c.trivial for c in _rows(1, "holonomic_left", ["l"] * 4, x, cut=1e-10)] == [
        True, True, False, True]
    assert _rows(1, "holonomic_left", [], np.empty((0, 2)), cut=1e-10) == []
