import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import random_orthogonal

from canonkit.errors import DegeneracyError, InputError
from canonkit.linalg import (
    Subspace,
    _completed_rank,
    _difference_rows,
    full_space,
    intersect,
    left_null_basis,
    numeric_rank,
    restricted_inverse,
    right_null_basis,
    span_of_rows,
    subtract,
    zero_cut,
)


def test_rank_zero_matrix():
    assert numeric_rank(np.zeros((12, 12))) == 0


def test_rank_identity():
    assert numeric_rank(np.eye(4)) == 4


def test_rank_lattice_cross_matrix(square_fixture):
    # the 12x12 cross matrix of the growing-lattice move has an
    # eight-dimensional left null space, hence rank 4
    fx, _ = square_fixture
    c2 = fx.sequence.moves[1].c
    assert numeric_rank(c2) == 4
    assert left_null_basis(c2).dim == 8
    assert right_null_basis(c2).dim == 8


def test_rank_rejects_nonfinite():
    with pytest.raises(InputError):
        numeric_rank(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_right_null_two_unknowns():
    # single equation x + y = 0
    sub = right_null_basis(np.array([[1.0, 1.0]]))
    assert sub.dim == 1
    v = sub.basis[:, 0]
    assert_allclose(np.abs(v), np.array([1.0, 1.0]) / np.sqrt(2), atol=1e-14)
    assert v[0] > 0  # deterministic sign convention


def test_right_null_identity_empty():
    assert right_null_basis(np.eye(3)).dim == 0


def test_left_null_hand_solve():
    sub = left_null_basis(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert sub.dim == 1
    assert_allclose(np.abs(sub.basis[:, 0]), [0.0, 1.0], atol=1e-14)


def test_left_null_zero_scalar_full():
    assert left_null_basis(np.zeros((1, 1))).dim == 1


def test_lattice_left_null_span(square_fixture):
    fx, _ = square_fixture
    c2 = fx.sequence.moves[1].c
    expected = np.zeros((12, 8))
    expected[4:, :] = np.eye(8)
    assert left_null_basis(c2).same_span(Subspace(12, expected))


def test_lattice_right_null_contains_reference_vectors(square_fixture):
    fx, _ = square_fixture
    c2 = fx.sequence.moves[1].c
    sub = right_null_basis(c2)
    assert sub.dim == 8

    def e(i):
        v = np.zeros(12)
        v[i - 1] = 1.0
        return v

    reference = [e(12) - e(5), e(11) - e(10), e(9) - e(8), e(7) - e(6), e(1), e(2), e(3), e(4)]
    for v in reference:
        assert sub.contains(v)


def test_intersect_idempotent(rng):
    basis = np.linalg.qr(rng.normal(size=(5, 2)))[0]
    s = Subspace(5, basis)
    out = intersect(s, s)
    assert out.same_span(s)


def test_intersect_disjoint_axes():
    e1 = Subspace(2, np.array([[1.0], [0.0]]))
    e2 = Subspace(2, np.array([[0.0], [1.0]]))
    assert intersect(e1, e2).dim == 0


def test_intersect_symmetry(rng):
    for _ in range(10):
        b1 = np.linalg.qr(rng.normal(size=(6, 3)))[0]
        b2 = np.linalg.qr(rng.normal(size=(6, 4)))[0]
        s1, s2 = Subspace(6, b1), Subspace(6, b2)
        assert intersect(s1, s2).same_span(intersect(s2, s1))


def test_intersect_lattice_spurious_block(square_fixture):
    # right null of c1 = 0 intersected with left null of c2 is the
    # eight spurious directions
    fx, _ = square_fixture
    c2 = fx.sequence.moves[1].c
    out = intersect(full_space(12), left_null_basis(c2))
    expected = np.zeros((12, 8))
    expected[4:, :] = np.eye(8)
    assert out.same_span(Subspace(12, expected))


def test_intersect_ambient_mismatch():
    with pytest.raises(InputError):
        intersect(full_space(2), full_space(3))


def test_restricted_inverse_diagonal():
    h = np.diag([2.0, 0.0])
    s = Subspace(2, np.array([[1.0], [0.0]]))
    assert_allclose(restricted_inverse(h, s), np.diag([0.5, 0.0]), atol=1e-14)


def test_restricted_inverse_full_space():
    h = np.array([[2.0, 1.0], [1.0, 2.0]])
    out = restricted_inverse(h, full_space(2))
    assert_allclose(out, np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0, atol=1e-14)
    assert_allclose(h @ out, np.eye(2), atol=1e-13)


def test_restricted_inverse_degenerate_block():
    h = np.diag([1.0, 0.0])
    s = Subspace(2, np.array([[0.0], [1.0]]))
    with pytest.raises(DegeneracyError):
        restricted_inverse(h, s)


def test_restricted_inverse_requires_symmetry():
    with pytest.raises(InputError):
        restricted_inverse(np.array([[0.0, 1.0], [0.0, 0.0]]), full_space(2))


def test_moore_penrose_consistency(rng):
    for _ in range(20):
        n = int(rng.integers(2, 7))
        r = int(rng.integers(0, n + 1))
        m = rng.normal(size=(n, r))
        h = m @ m.T  # symmetric, rank <= r
        comp = subtract(full_space(n), right_null_basis(h))
        h_plus = restricted_inverse(h, comp) if comp.dim else np.zeros((n, n))
        assert_allclose(h @ h_plus @ h, h, atol=1e-10 * 100 * max(1.0, np.abs(h).max()))


def test_rank_transpose_invariance(rng):
    for _ in range(100):
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(1, 7))
        r = int(rng.integers(0, min(rows, cols) + 1))
        m = rng.normal(size=(rows, r)) @ rng.normal(size=(r, cols)) if r else np.zeros((rows, cols))
        assert numeric_rank(m) == numeric_rank(m.T) == r


def test_nullity_plus_rank(rng):
    for _ in range(50):
        rows = int(rng.integers(1, 6))
        cols = int(rng.integers(1, 6))
        m = rng.normal(size=(rows, cols))
        if rng.random() < 0.4:
            m[:, : cols // 2] = 0.0
        assert right_null_basis(m).dim + numeric_rank(m) == cols


def test_bases_orthonormal(rng):
    tol = 1e-10
    for _ in range(30):
        m = rng.normal(size=(int(rng.integers(1, 8)), int(rng.integers(1, 8))))
        if rng.random() < 0.5:
            m[rng.integers(0, m.shape[0])] = 0.0
        sub = right_null_basis(m, tol)
        if sub.dim:
            gram = sub.basis.T @ sub.basis
            assert np.abs(gram - np.eye(sub.dim)).max() < 10 * tol


def test_determinism_bit_identical(rng):
    m = rng.normal(size=(7, 7))
    m[2] = 0.0
    a = right_null_basis(m)
    b = right_null_basis(m.copy())
    assert a.basis.tobytes() == b.basis.tobytes()
    assert intersect(a, a).basis.tobytes() == intersect(b, b).basis.tobytes()


def test_span_of_rows_roundtrip(rng):
    rows = rng.normal(size=(3, 6))
    sub = span_of_rows(rows, 6)
    assert sub.dim == 3
    for r in rows:
        assert sub.contains(r)


# a diagonal stack has exact singular values, so it can sit on the cut; the
# round-off of a rotated one needs a wider margin
@pytest.mark.parametrize("rotated, factor", [
    (False, 1 - 1e-6), (False, 1.0), (False, 1 + 1e-6), (True, 1 - 1e-3), (True, 1 + 1e-3),
])
def test_regularity_read_off_the_chosen_stack(rng, rotated, factor):
    # T = [C; G] with G an orthonormal basis of the complement of C's row
    # space has C's singular values and ones, so C's SVD decides T's rank.
    # The smallest singular value of C is planted at factor x T's cut.
    n, m, tol = 9, 4, 1e-10
    sv = np.array([2.0, 1.5, 1.0, factor * zero_cut(tol, n, 2.0)])
    if rotated:
        c = random_orthogonal(rng, m) @ (sv[:, None] * random_orthogonal(rng, n)[:m])
    else:
        c = np.zeros((m, n))
        c[np.arange(m), np.arange(m)] = sv
    _, s, vh = np.linalg.svd(c)
    t_matrix = np.vstack([c, vh[m:]])
    want = n - 1 if factor <= 1.0 else n
    assert numeric_rank(t_matrix, tol) == want
    assert _completed_rank(s, n, tol) == want


def test_gamma_decomposition_returns_the_chosen_stack_singular_values(rng):
    chosen = np.linalg.qr(rng.normal(size=(7, 3)))[0].T * np.array([[1.0], [0.5], [0.25]])
    gamma, sv = _difference_rows(np.eye(7), chosen, 1e-10)
    assert gamma.shape == (4, 7)
    assert_allclose(sv, [1.0, 0.5, 0.25], rtol=1e-14)
    assert_allclose(chosen @ gamma.T, 0.0, atol=1e-14)
    assert _completed_rank(sv, 7, 1e-10) == numeric_rank(np.vstack([chosen, gamma])) == 7
