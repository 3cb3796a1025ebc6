import numpy as np
import pytest
from numpy.testing import assert_allclose

from canonkit.classify import classify_sequence
from canonkit.errors import InputError
from canonkit.lattice import (
    StepGraph,
    expanding_move_graph,
    expanding_square_sequence,
    move_from_graph,
    reference_basis_t2,
    ring_coordinates,
)


def reference_b2(m):
    d_corner = 2.0 + 0.5 * m**2
    d_side = 4.0 + m**2
    b = np.zeros((12, 12))
    for k in range(4):
        b[k, k] = d_corner
    for k in range(4, 12):
        b[k, k] = d_side
    pairs = [
        (1, 6), (1, 7), (2, 8), (2, 9), (3, 10), (3, 11), (4, 5), (4, 12),
        (5, 6), (7, 8), (9, 10), (11, 12),
    ]
    for i, j in pairs:
        b[i - 1, j - 1] = b[j - 1, i - 1] = -1.0
    return b


def reference_c2():
    c = np.zeros((12, 12))
    for i, cols in [(1, (6, 7)), (2, (8, 9)), (3, (10, 11)), (4, (5, 12))]:
        for j in cols:
            c[i - 1, j - 1] = -2.0
    return c


def cyclic_block(diag):
    m = np.zeros((4, 4))
    for k in range(4):
        m[k, k] = diag
        m[k, (k + 1) % 4] = m[(k + 1) % 4, k] = -1.0
    return m


@pytest.mark.parametrize("mass", [0.0, 0.7, 1.3])
def test_first_move_matches_displayed_block(mass):
    move = move_from_graph(expanding_move_graph(0, mass))
    assert move.dim_from == 0 and move.dim_to == 4
    assert_allclose(move.b, cyclic_block(2.0 + 0.5 * mass**2), atol=1e-14)


@pytest.mark.parametrize("mass", [0.0, 0.7])
def test_second_move_matches_displayed_matrices(mass):
    move = move_from_graph(expanding_move_graph(1, mass))
    assert move.dim_from == 4 and move.dim_to == 12
    assert_allclose(move.a, cyclic_block(6.0 + 1.5 * mass**2), atol=1e-14)
    assert_allclose(move.b, reference_b2(mass), atol=1e-14)
    assert_allclose(move.c, reference_c2()[:4], atol=1e-14)


def test_empty_graph_zero_matrices():
    g = StepGraph(vertices_from=("a",), vertices_to=("b",), mass=0.5)
    move = move_from_graph(g)
    assert np.abs(move.a).max() == 0.0
    assert np.abs(move.b).max() == 0.0
    assert np.abs(move.c).max() == 0.0


def test_cross_pattern_equals_adjacency():
    g = expanding_move_graph(1, 0.0)
    move = move_from_graph(g)
    pattern = set()
    for i, j, _ in g.cross:
        pattern.add((i, j))
    nz = set(zip(*np.nonzero(move.c)))
    assert nz == pattern


def test_mass_only_shifts_diagonal():
    m0 = move_from_graph(expanding_move_graph(1, 0.0))
    m1 = move_from_graph(expanding_move_graph(1, 0.5))
    diff_a = m1.a - m0.a
    diff_b = m1.b - m0.b
    assert np.abs(m1.c - m0.c).max() == 0.0
    assert np.abs(diff_a - np.diag(np.diag(diff_a))).max() == 0.0
    assert np.abs(diff_b - np.diag(np.diag(diff_b))).max() == 0.0
    # inner vertices sit in three cells: 3 m^2 / 2
    assert diff_a[0, 0] == pytest.approx(1.5 * 0.25)


def test_gluing_consistency_per_square():
    # summing explicit per-cell contributions reproduces the generator
    mass = 0.9
    g = expanding_move_graph(1, mass)
    move = move_from_graph(g)
    coords = {("from", k): xy for k, xy in enumerate(g.vertices_from)}
    coords.update({("to", k): xy for k, xy in enumerate(g.vertices_to)})
    where = {xy: key for key, xy in coords.items()}
    n_from, n_to = len(g.vertices_from), len(g.vertices_to)
    dim = n_from + n_to
    total = np.zeros((dim, dim))

    def slot(xy):
        side, k = where[xy]
        return k if side == "from" else n_from + k

    cells = [(x, y) for x in range(-1, 2) for y in range(-1, 2) if (x, y) != (0, 0)]
    for cx, cy in cells:
        corner = [(cx, cy), (cx + 1, cy), (cx + 1, cy + 1), (cx, cy + 1)]
        for k in range(4):
            i, j = slot(corner[k]), slot(corner[(k + 1) % 4])
            total[i, i] += 1.0
            total[j, j] += 1.0
            total[i, j] -= 1.0
            total[j, i] -= 1.0
        for xy in corner:
            i = slot(xy)
            total[i, i] += 0.5 * mass**2
    assert_allclose(total[:n_from, :n_from], move.a, atol=1e-13)
    assert_allclose(total[n_from:, n_from:], move.b, atol=1e-13)
    assert_allclose(total[:n_from, n_from:], move.c, atol=1e-13)


def test_ring_sizes():
    assert len(ring_coordinates(1)) == 4
    assert len(ring_coordinates(2)) == 12
    assert len(ring_coordinates(3)) == 20
    assert ring_coordinates(0) == []


def test_sequence_padding_matches_labels(square_fixture):
    fx, _ = square_fixture
    seq = fx.sequence
    assert seq.dim == 12
    assert [m.step_to for m in seq.moves] == [1, 2]
    m2 = seq.moves[1]
    assert_allclose(m2.c, reference_c2(), atol=1e-14)
    assert_allclose(m2.b, reference_b2(0.0), atol=1e-14)


def test_single_move_sequence_fully_constrained():
    fx = expanding_square_sequence(1, mass=0.0)
    assert fx.sequence.dim == 4
    assert np.abs(fx.sequence.moves[0].c).max() == 0.0


def test_single_move_has_no_step_2_basis():
    fx = expanding_square_sequence(1, mass=0.0)
    assert fx.basis_t2 is None
    assert_allclose(fx.basis_t1, np.eye(4))
    bases = classify_sequence(fx.sequence, overrides={1: fx.basis_t1})
    assert sorted(bases) == [0, 1]


def test_three_step_sequence_extends():
    fx = expanding_square_sequence(3, mass=0.0)
    seq = fx.sequence
    assert seq.dim == 20
    # steps 1, 2 keep the reference labelling in the leading slots
    m2 = seq.moves[1]
    assert_allclose(m2.c[:12, :12], reference_c2(), atol=1e-14)
    assert np.abs(m2.c[12:, :]).max() == 0.0
    m3 = seq.moves[2]
    # every real step-2 vertex couples upward: no zero rows among 1..12
    assert all(np.abs(m3.c[k]).max() > 0 for k in range(12))
    assert np.abs(m3.c[12:, :]).max() == 0.0


def test_larger_lattice_structural_sanity():
    # generated steps beyond the reference data still satisfy the
    # structural invariants: spurious slots are gauge, counts close, and
    # observable blocks balance across every move
    from canonkit.classify import classify_sequence

    fx = expanding_square_sequence(4, mass=0.3)
    seq = fx.sequence
    assert seq.dim == 28
    bases = classify_sequence(seq)
    for n in seq.steps:
        basis = bases[n]
        counts = basis.counts
        assert sum(counts.values()) == seq.dim
        n_real = len(seq.slot_maps[n])
        # spurious slots are two-sided null everywhere: all type I
        assert counts["I"] >= seq.dim - n_real
    for move in seq.moves:
        a_rows = bases[move.step_from].pre_observable_rows
        b_rows = bases[move.step_to].post_observable_rows
        assert a_rows.size == b_rows.size


def test_reference_basis_unimodular():
    t2 = reference_basis_t2(12)
    assert abs(abs(np.linalg.det(t2)) - 1.0) < 1e-12


def test_invalid_inputs():
    with pytest.raises(InputError):
        expanding_square_sequence(0)
    with pytest.raises(InputError):
        StepGraph(vertices_from=(), vertices_to=("a",), cross=((0, 0, 1.0),), mass=0.0)
