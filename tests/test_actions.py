import numpy as np
import pytest
from numpy.testing import assert_allclose

from canonkit.actions import (
    MoveSequence,
    QuadraticMove,
    RaggedMove,
    extend_to_square,
    legendre,
    post_momentum,
    pre_momentum,
    validate,
)
from canonkit.errors import InputError
from canonkit.lattice import expanding_square_sequence


def test_extend_lattice_example(square_fixture):
    fx, _ = square_fixture
    seq = fx.sequence
    assert seq.dim == 12
    m1, m2 = seq.moves
    # empty step 0: a1 = c1 = 0, b1 = displayed 4-corner block padded
    assert np.abs(m1.a).max() == 0.0
    assert np.abs(m1.c).max() == 0.0
    block = np.array([
        [2.0, -1.0, 0.0, -1.0],
        [-1.0, 2.0, -1.0, 0.0],
        [0.0, -1.0, 2.0, -1.0],
        [-1.0, 0.0, -1.0, 2.0],
    ])
    assert_allclose(m1.b[:4, :4], block, atol=1e-15)
    assert np.abs(m1.b[4:, :]).max() == 0.0
    assert np.abs(m1.b[:, 4:]).max() == 0.0
    # slot maps: original variables keep leading indices
    assert seq.slot_maps[0] == []
    assert seq.slot_maps[1] == list(range(4))
    assert seq.slot_maps[2] == list(range(12))


def test_extend_already_square_identity():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(3, 3))
    move = RaggedMove(0, 1, a + a.T, a @ a.T, rng.normal(size=(3, 3)))
    seq = extend_to_square([move])
    assert seq.dim == 3
    assert_allclose(seq.moves[0].a, move.a)
    assert_allclose(seq.moves[0].b, move.b)
    assert_allclose(seq.moves[0].c, move.c)


def test_extend_direct_padding_rule():
    alpha = 0.7
    move = RaggedMove(0, 1, [[alpha]], [[1.0, 2.0], [2.0, 3.0]], [[0.5, -0.5]])
    seq = extend_to_square([move])
    assert seq.dim == 2
    assert_allclose(seq.moves[0].a, np.diag([alpha, 0.0]))
    assert_allclose(seq.moves[0].c, [[0.5, -0.5], [0.0, 0.0]])


def test_extend_idempotent(square_fixture):
    fx, _ = square_fixture
    seq = fx.sequence
    ragged = [RaggedMove(m.step_from, m.step_to, m.a, m.b, m.c) for m in seq.moves]
    again = extend_to_square(ragged)
    for m, n in zip(seq.moves, again.moves):
        assert_allclose(m.a, n.a)
        assert_allclose(m.b, n.b)
        assert_allclose(m.c, n.c)


def test_extend_padded_slots_stay_zero():
    rng = np.random.default_rng(5)
    b1 = rng.normal(size=(2, 2))
    moves = [
        RaggedMove(0, 1, np.zeros((0, 0)), b1 + b1.T, np.zeros((0, 2))),
        RaggedMove(1, 2, b1 + b1.T, np.eye(4), rng.normal(size=(2, 4))),
    ]
    seq = extend_to_square(moves)
    assert seq.dim == 4
    m1 = seq.moves[0]
    for pad in range(2, 4):
        assert np.abs(m1.b[pad, :]).max() == 0.0
        assert np.abs(m1.b[:, pad]).max() == 0.0


def test_extend_dimension_mismatch():
    moves = [
        RaggedMove(0, 1, np.zeros((0, 0)), np.eye(2), np.zeros((0, 2))),
        RaggedMove(1, 2, np.eye(3), np.eye(3), np.eye(3)),
    ]
    with pytest.raises(InputError):
        extend_to_square(moves)


def test_legendre_unit_cross():
    move = QuadraticMove(0, 1, [[0.0]], [[0.0]], [[1.0]])
    (pre_x, pre_y), (post_x, post_y) = legendre(move)
    # -p0 = -x1 and +p1 = x0
    assert_allclose(pre_x, [[0.0]])
    assert_allclose(pre_y, [[-1.0]])
    assert_allclose(post_x, [[1.0]])
    assert_allclose(post_y, [[0.0]])
    assert pre_momentum(move, [3.0], [5.0]) == pytest.approx(-5.0)
    assert post_momentum(move, [3.0], [5.0]) == pytest.approx(3.0)


def test_legendre_zero_move():
    move = QuadraticMove(0, 1, np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)))
    (pa, pc), (qa, qb) = legendre(move)
    for m in (pa, pc, qa, qb):
        assert np.abs(m).max() == 0.0


def test_legendre_lattice_pre_momentum_rows(square_fixture):
    # The nontrivial pre-momentum rows of the move into the 12-vertex step:
    # with -p = -a x_mid - c x_next, row 1 reads
    #   -p_1 = -(6 + 3m^2/2) phi^1 + phi^2 + phi^4 + 2(phi^6' + phi^7')
    # evaluated directly from the generated matrices.
    fx, _ = square_fixture
    m2 = fx.sequence.moves[1]
    rng = np.random.default_rng(11)
    x1 = rng.normal(size=12)
    x2 = rng.normal(size=12)
    p = pre_momentum(m2, x1, x2)
    expected_row1 = -6.0 * x1[0] + x1[1] + x1[3] + 2.0 * (x2[5] + x2[6])
    assert p[0] == pytest.approx(expected_row1, rel=1e-12)
    # spurious rows carry no dynamics
    assert_allclose(p[4:], np.zeros(8), atol=1e-14)
    # postdiction rows: +p2_9 = (4+m^2) phi2_9 - phi2_2 - phi2_10 - 2 phi1_2
    q = post_momentum(m2, x1, x2)
    assert q[8] == pytest.approx(4.0 * x2[8] - x2[1] - x2[9] - 2.0 * x1[1], rel=1e-12)
    assert q[6] == pytest.approx(4.0 * x2[6] - x2[0] - x2[7] - 2.0 * x1[0], rel=1e-12)


def test_legendre_linearity(rng):
    a = rng.normal(size=(3, 3))
    move = QuadraticMove(0, 1, a + a.T, np.eye(3), rng.normal(size=(3, 3)))
    scaled = move.scaled(2.5)
    x0, x1 = rng.normal(size=3), rng.normal(size=3)
    assert_allclose(pre_momentum(scaled, x0, x1), 2.5 * pre_momentum(move, x0, x1))
    assert_allclose(post_momentum(scaled, x0, x1), 2.5 * post_momentum(move, x0, x1))


def test_momentum_matching_is_equation_of_motion(rng):
    # +p1 = -p1 must be h x1 = -c1ᵀ x0 - c2 x2 with h = b1 + a2
    a1, b1 = (rng.normal(size=(4, 4)) for _ in range(2))
    a2, b2 = (rng.normal(size=(4, 4)) for _ in range(2))
    m1 = QuadraticMove(0, 1, a1 + a1.T, b1 + b1.T, rng.normal(size=(4, 4)))
    m2 = QuadraticMove(1, 2, a2 + a2.T, b2 + b2.T, rng.normal(size=(4, 4)))
    x0, x1, x2 = (rng.normal(size=4) for _ in range(3))
    matching = post_momentum(m1, x0, x1) - pre_momentum(m2, x1, x2)
    eom = (m1.b + m2.a) @ x1 + m1.c.T @ x0 + m2.c @ x2
    assert_allclose(matching, eom, atol=1e-13)


def test_validate_clean_sequence(square_fixture):
    fx, _ = square_fixture
    assert validate(fx.sequence) == []


def test_validate_reports_asymmetry():
    a = np.zeros((2, 2))
    a[0, 1] = 1.0  # asymmetric
    move = QuadraticMove(0, 1, a, np.zeros((2, 2)), np.zeros((2, 2)))
    seq = MoveSequence(2, (move,))
    findings = validate(seq)
    assert len(findings) == 1 and "asymmetric" in findings[0]


def test_validate_reports_label_gap():
    # the sequence type is deliberately lenient so validate can diagnose
    mk = lambda nf, nt: QuadraticMove(nf, nt, np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)))
    seq = MoveSequence(2, (mk(0, 1), mk(2, 3)))
    findings = validate(seq)
    assert any("gap" in f for f in findings)


def test_moves_between_reads_one_step_range():
    seq = expanding_square_sequence(3).sequence    # steps 0..3
    for lo, hi in ((0, 3), (0, 1), (1, 3), (2, 3), (1, 2)):
        got = seq.moves_between(lo, hi)
        assert all(any(m is n for n in seq.moves) for m in got)
        assert [(m.step_from, m.step_to) for m in got] == [(n, n + 1) for n in range(lo, hi)]
    for lo, hi in ((2, 2), (2, 1), (-1, 2), (0, 4), (4, 5), (-3, -1)):
        with pytest.raises(InputError, match=rf"^step range {lo}->{hi} is not within the "
                                             r"sequence's steps 0\.\.3$"):
            seq.moves_between(lo, hi)


def test_moves_between_rejects_a_range_in_a_gap():
    mk = lambda nf, nt: QuadraticMove(nf, nt, np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)))
    seq = MoveSequence(2, (mk(0, 1), mk(2, 3)))
    assert [m.step_to for m in seq.moves_between(0, 3)] == [1, 3]
    with pytest.raises(InputError, match="step range 1->2"):
        seq.moves_between(1, 2)
