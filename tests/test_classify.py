import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from helpers import designed_instance, random_orthogonal

from canonkit.actions import moves_tolerance
from canonkit.classify import (
    VECTOR_TYPES,
    classify_rows,
    classify_step,
    hessian_block,
    m_lambda_rho,
    split_variables,
)
from canonkit.errors import InputError
from canonkit.linalg import (
    DEFAULT_TOL,
    left_null_basis,
    numeric_rank,
    right_null_basis,
    span_of_rows,
)


def nonzero_counts(basis):
    return {t: v for t, v in basis.counts.items() if v}


def test_lattice_step1_counts(square_fixture):
    fx, bases = square_fixture
    assert nonzero_counts(bases[1]) == {"I": 8, "rho": 4}


def test_lattice_step1_counts_default_basis(square_fixture):
    # counts are basis independent: the default construction agrees with
    # the reference basis labelling
    fx, _ = square_fixture
    seq = fx.sequence
    basis = classify_step(seq.moves[0].c, seq.moves[1].c, seq.hessian(1), step=1)
    assert nonzero_counts(basis) == {"I": 8, "rho": 4}


def test_everything_gauge_when_all_zero():
    q = 5
    basis = classify_step(np.zeros((q, q)), np.zeros((q, q)), np.zeros((q, q)))
    assert basis.counts["I"] == q


def test_boundary_step_none_is_zero():
    q = 3
    viaNone = classify_step(None, np.zeros((q, q)), np.zeros((q, q)))
    assert viaNone.counts["I"] == q


@pytest.mark.parametrize("side", ["prev", "next"])
def test_cross_matrix_dimension_mismatch_is_an_input_error(side):
    # c_prev's columns and c_next's rows are the step's slots; a wrong count
    # is an InputError before any slot is selected
    q = 3
    c_prev, c_next = np.ones((q, q)), np.ones((q, q))
    if side == "prev":
        c_prev = np.ones((q, q + 1))
    else:
        c_next = np.ones((q + 1, q))
    with pytest.raises(InputError, match="cross-matrix dimensions do not match the Hessian"):
        classify_step(c_prev, c_next, np.eye(q))


def test_single_z_direction():
    basis = classify_step([[1.0]], [[1.0]], [[0.0]])
    assert basis.counts["z"] == 1


def test_all_eight_types_on_designed_instance(rng):
    sizes = {"I": 1, "H": 1, "l": 1, "lambda": 1, "r": 1, "rho": 1, "z": 1, "gamma": 2}
    m1, m2 = designed_instance(rng, sizes)
    basis = classify_step(m1.c, m2.c, m1.b + m2.a, step=1)
    assert basis.counts == {**{t: 1 for t in VECTOR_TYPES}, "gamma": 2}


def test_count_invariance_under_orthogonal_conjugation(rng):
    # acceptance criterion: exact integer equality across 50 seeds
    for seed in range(50):
        r = np.random.default_rng(seed)
        sizes = {
            "I": int(r.integers(0, 2)),
            "H": int(r.integers(0, 2)),
            "l": int(r.integers(0, 2)),
            "lambda": int(r.integers(0, 2)),
            "r": int(r.integers(0, 2)),
            "rho": int(r.integers(0, 2)),
            "z": int(r.integers(0, 2)),
            "gamma": 2,
        }
        m1, m2 = designed_instance(r, sizes)
        h = m1.b + m2.a
        base = classify_step(m1.c, m2.c, h, step=1)
        q = m1.dim
        o_prev, o_mid, o_next = (random_orthogonal(r, q) for _ in range(3))
        rotated = classify_step(
            o_prev @ m1.c @ o_mid.T, o_mid @ m2.c @ o_next.T, o_mid @ h @ o_mid.T, step=1
        )
        assert rotated.counts == base.counts == sizes


def test_row_membership_invariants(rng):
    sizes = {"I": 1, "H": 1, "l": 1, "lambda": 1, "r": 1, "rho": 1, "z": 1, "gamma": 1}
    m1, m2 = designed_instance(rng, sizes)
    h = m1.b + m2.a
    basis = classify_step(m1.c, m2.c, h, step=1)
    rnull = right_null_basis(m1.c)
    lnull = left_null_basis(m2.c)
    hnull = right_null_basis(h)
    for k, lab in enumerate(basis.labels):
        v = basis.T[k]
        assert rnull.contains(v) == (lab in ("I", "H", "r", "rho"))
        assert lnull.contains(v) == (lab in ("I", "H", "l", "lambda"))
        assert hnull.contains(v) == (lab in ("I", "l", "r", "z"))
    # spans: left rows span leftNull(c_next), right rows span rightNull(c_prev)
    assert span_of_rows(basis.block("I", "H", "l", "lambda"), basis.dim).same_span(lnull)
    assert span_of_rows(basis.block("I", "H", "r", "rho"), basis.dim).same_span(rnull)
    assert span_of_rows(basis.block("I", "l", "r", "z"), basis.dim).same_span(hnull)


def test_left_right_balance(rng):
    # both sides of one cross matrix see equally many null rows, so the
    # observable block is square
    for seed in range(10):
        r = np.random.default_rng(seed + 100)
        sizes = {
            "I": int(r.integers(0, 3)),
            "H": int(r.integers(0, 2)),
            "lambda": int(r.integers(0, 3)),
            "rho": int(r.integers(0, 3)),
            "z": int(r.integers(0, 2)),
            "gamma": 2,
        }
        m1, m2 = designed_instance(r, sizes)
        mid = classify_step(m1.c, m2.c, m1.b + m2.a, step=1)
        nxt = classify_step(m2.c, None, m2.b, step=2)
        n_left_mid = len(mid.left_rows)  # w.r.t. c2 plus the I/H of c1
        # balance across c2: left rows at 1 minus those that are left-null
        # only through c1 equals right rows at 2
        left_of_c2 = sum(mid.counts[t] for t in ("I", "H", "l", "lambda"))
        right_of_c2 = sum(nxt.counts[t] for t in ("I", "H", "r", "rho"))
        assert left_of_c2 == right_of_c2
        a_rows = mid.pre_observable_rows
        b_rows = nxt.post_observable_rows
        assert a_rows.size == b_rows.size


def test_gauge_rows_fully_null_others_not(square_fixture):
    fx, bases = square_fixture
    seq = fx.sequence
    h = seq.hessian(1)
    basis = bases[1]
    for k in basis.rows_of("I"):
        v = basis.T[k]
        assert np.abs(seq.moves[0].c @ v).max() < 1e-12
        assert np.abs(v @ seq.moves[1].c).max() < 1e-12
        assert np.abs(h @ v).max() < 1e-12
    for k in basis.rows_of("rho"):
        v = basis.T[k]
        assert np.abs(v @ seq.moves[1].c).max() > 1.0


def test_default_basis_unimodular_for_orthogonal_geometry(square_fixture):
    # when the type subspaces are mutually orthogonal the default basis is
    # orthonormal as a whole
    fx, _ = square_fixture
    seq = fx.sequence
    basis = classify_step(seq.moves[0].c, seq.moves[1].c, seq.hessian(1), step=1)
    assert basis.abs_det == pytest.approx(1.0, abs=1e-10)


def test_classify_rows_labels_reference_basis(square_fixture):
    fx, bases = square_fixture
    labels = bases[2].labels
    assert labels[:8] == ("H",) * 8
    assert labels[8:] == ("lambda",) * 4


def test_split_variables_trivializes_constraints(rng):
    sizes = {"I": 1, "lambda": 1, "rho": 1, "gamma": 1}
    m1, m2 = designed_instance(rng, sizes)
    basis = classify_step(m1.c, m2.c, m1.b + m2.a, step=1)
    split = split_variables(basis, a_next=m2.a, b_prev=m1.b)
    x1 = rng.normal(size=4)
    x0 = rng.normal(size=4)
    x2 = rng.normal(size=4)
    from canonkit.actions import post_momentum, pre_momentum

    pre_pi = split.pre_pi(x1, pre_momentum(m2, x1, x2))
    post_pi = split.post_pi(x1, post_momentum(m1, x0, x1))
    # pre-constraints: -pi_L = 0 exactly on left rows; post: +pi_R = 0
    for k in basis.left_rows:
        assert pre_pi[k] == pytest.approx(0.0, abs=1e-10)
    for k in basis.right_rows:
        assert post_pi[k] == pytest.approx(0.0, abs=1e-10)


def test_split_pure_relabeling_when_no_shifts(rng):
    basis = classify_step([[1.0]], [[1.0]], [[0.0]])
    split = split_variables(basis)
    p = rng.normal(size=1)
    assert_allclose(split.pre_pi([0.3], p), basis.to_split_momentum(p))


def test_split_symplectic_one_dim():
    from canonkit.classify import ClassifiedBasis

    basis = ClassifiedBasis(step=0, T=np.array([[2.0]]), labels=("gamma",))
    split = split_variables(basis, a_next=np.array([[0.7]]))
    # map (x, p) -> (x/2, 2p + 1.4x); check Jᵀ Omega J = Omega
    j_mat = np.array([[0.5, 0.0], [1.4, 2.0]])
    omega = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert_allclose(j_mat.T @ omega @ j_mat, omega, atol=1e-14)


def test_split_symplectic_general(rng):
    sizes = {"H": 1, "lambda": 1, "rho": 1, "gamma": 2}
    m1, m2 = designed_instance(rng, sizes)
    basis = classify_step(m1.c, m2.c, m1.b + m2.a, step=1)
    split = split_variables(basis, a_next=m2.a)
    q = basis.dim
    # full phase-space map [[(T^-1)ᵀ, 0], [T a, T]]
    j_mat = np.block([
        [np.linalg.inv(basis.T).T, np.zeros((q, q))],
        [split.pre_shift, basis.T],
    ])
    omega = np.block([
        [np.zeros((q, q)), np.eye(q)],
        [-np.eye(q), np.zeros((q, q))],
    ])
    assert_allclose(j_mat.T @ omega @ j_mat, omega, atol=1e-10)


def test_hessian_block_zero():
    basis = classify_step([[1.0, 0.0], [0.0, 1.0]], None, np.zeros((2, 2)))
    block = hessian_block(basis, np.zeros((2, 2)), basis.labels[0], basis.labels[0])
    assert block.size and np.abs(block).max() == 0.0


def test_hessian_block_submatrix_extraction():
    from canonkit.classify import ClassifiedBasis

    basis = ClassifiedBasis(step=0, T=np.eye(2), labels=("gamma", "rho"))
    h = np.array([[2.0, 1.0], [1.0, 2.0]])
    assert_allclose(hessian_block(basis, h, "gamma", "rho"), [[1.0]])


def test_hessian_block_lattice_rho_rho(square_fixture):
    # block of b1 + a2 on the four corner rows: diagonal 8 + 2 m^2,
    # cyclic off-diagonal -2 (computed directly from the displayed matrices)
    fx, bases = square_fixture
    seq = fx.sequence
    block = hessian_block(bases[1], seq.hessian(1), "rho", "rho")
    expected = np.array([
        [8.0, -2.0, 0.0, -2.0],
        [-2.0, 8.0, -2.0, 0.0],
        [0.0, -2.0, 8.0, -2.0],
        [-2.0, 0.0, -2.0, 8.0],
    ])
    assert_allclose(block, expected, atol=1e-13)


def test_m_lambda_rho_designed(rng):
    sizes = {"lambda": 1, "rho": 1, "gamma": 1}
    m1, m2 = designed_instance(rng, sizes)
    basis = classify_step(m1.c, m2.c, m1.b + m2.a, step=1)
    m = m_lambda_rho(basis, m1.b + m2.a)
    assert m in (0, 1)
    block = hessian_block(basis, m1.b + m2.a, "lambda", "rho")
    assert m == (1 if np.abs(block).max() > 1e-8 else 0)


def test_sequence_classification_requires_known_step(square_fixture):
    fx, _ = square_fixture
    with pytest.raises(InputError):
        fx.sequence.hessian(7)


# -- the construction on plain row stacks ----------------------------------------

designed_sizes = st.fixed_dictionaries(
    {t: st.integers(min_value=0, max_value=3) for t in VECTOR_TYPES}
).filter(lambda s: sum(s.values()) >= 1)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(designed_sizes, st.integers(min_value=0, max_value=2**32 - 1),
       st.sampled_from([1e-8, 1.0, 1e8]))
def test_default_basis_rows_carry_their_labels(sizes, seed, scale):
    # designed_instance rotates all three steps; only the middle step's
    # counts are designed
    m1, m2 = (m.scaled(scale) for m in designed_instance(np.random.default_rng(seed), sizes))
    tol = moves_tolerance(DEFAULT_TOL, m1, m2)
    steps = ((None, m1.c, m1.a), (m1.c, m2.c, m1.b + m2.a), (m2.c, None, m2.b))
    for n, args in enumerate(steps):
        basis = classify_step(*args, tol, step=n)
        assert classify_rows(basis.T, *args, tol, step=n).labels == basis.labels
        for t in VECTOR_TYPES:
            group = basis.block(t)
            assert np.allclose(group @ group.T, np.eye(group.shape[0]), rtol=0, atol=1e-12), t
        if n == 1:
            assert basis.counts == sizes


def test_middle_step_takes_at_most_13_decompositions_and_no_svd_of_t(monkeypatch, rng):
    sizes = {**{t: 1 for t in VECTOR_TYPES}, "gamma": 2}
    m1, m2 = designed_instance(rng, sizes)
    inputs = []

    def counted(fn):
        def wrapper(a, *args, **kwargs):
            inputs.append(np.array(a))
            return fn(a, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "svd", counted(np.linalg.svd))
    monkeypatch.setattr(np.linalg, "eigh", counted(np.linalg.eigh))
    basis = classify_step(m1.c, m2.c, m1.b + m2.a, step=1)
    assert basis.counts == sizes
    assert len(inputs) <= 13
    assert not any(a.shape == basis.T.shape and np.array_equal(a, basis.T) for a in inputs)


# -- outer steps: the absent side's null space is all of R^Q ---------------------

# dropping c_prev (c_next) from a designed middle step merges each designed
# type with its partner on that side; the merged groups are the four types an
# outer step can hold
OUTER_MERGE = {
    "first": {"I": ("I", "l"), "H": ("H", "lambda"), "r": ("r", "z"), "rho": ("rho", "gamma")},
    "last": {"I": ("I", "r"), "H": ("H", "rho"), "l": ("l", "z"), "lambda": ("lambda", "gamma")},
}


def outer_step(m1, m2, outer):
    """The designed middle step of (m1, m2) with the cross matrix on the
    ``outer`` side dropped, as classify_step arguments."""
    h = m1.b + m2.a
    return (None, m2.c, h) if outer == "first" else (m1.c, None, h)


@pytest.mark.parametrize("outer", ["first", "last"])
def test_outer_step_takes_at_most_5_decompositions(monkeypatch, rng, outer):
    m1, m2 = designed_instance(rng, {t: 1 for t in VECTOR_TYPES})
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "svd", counted(np.linalg.svd))
    monkeypatch.setattr(np.linalg, "eigh", counted(np.linalg.eigh))
    basis = classify_step(*outer_step(m1, m2, outer), step=1)
    assert nonzero_counts(basis) == {t: 2 for t in OUTER_MERGE[outer]}
    assert len(calls) <= 5, calls


@settings(max_examples=60, deadline=None, derandomize=True)
@given(designed_sizes, st.integers(min_value=0, max_value=2**32 - 1),
       st.sampled_from([1e-6, 1.0, 1e6]), st.integers(min_value=0, max_value=3),
       st.sampled_from(["first", "last"]))
def test_outer_steps_hold_only_their_four_types(sizes, seed, scale, pad, outer):
    m1, m2 = (m.scaled(scale) for m in designed_instance(np.random.default_rng(seed), sizes))
    args = tuple(None if m is None else np.pad(m, (0, pad)) for m in outer_step(m1, m2, outer))
    tol = moves_tolerance(DEFAULT_TOL, m1, m2)
    basis = classify_step(*args, tol)
    assert basis.labels == classify_rows(basis.T, *args, tol).labels
    want = {t: sum(sizes[s] for s in merged) for t, merged in OUTER_MERGE[outer].items()}
    want["I"] += pad
    assert nonzero_counts(basis) == {t: n for t, n in want.items() if n}
    counts = basis.counts
    assert sum(counts.values()) == basis.dim
    c_prev, c_next, h = args
    q = basis.dim
    null_dims = (q if c_prev is None else q - numeric_rank(c_prev, tol),
                 q if c_next is None else q - numeric_rank(c_next, tol),
                 q - numeric_rank(h, tol))
    assert (counts["I"] + counts["H"] + counts["r"] + counts["rho"],
            counts["I"] + counts["H"] + counts["l"] + counts["lambda"],
            counts["I"] + counts["l"] + counts["r"] + counts["z"]) == null_dims
    absent = ("l", "lambda") if outer == "first" else ("r", "rho")
    assert all(counts[t] == 0 for t in (*absent, "z", "gamma"))
