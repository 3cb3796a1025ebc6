"""Time reversal: the move, basis, data and kernel transforms and what is built on them.

Reversing a move n -> n+1 keeps its step labels and maps (a, b, c) to
(b, a, cᵀ); a classified basis keeps T and swaps l <-> r and lambda <-> rho;
canonical data keeps x and maps p -> -p and pre <-> post; a kernel swaps
A <-> B, transposes C and swaps the in and out columns of its deltas.
``backward_solve`` is ``forward_solve`` on the reversed objects, checked here
against the mirrored solve it replaced (``helpers.oracle_backward_solve``);
the pre-side annihilation check is the post-side check on the reversed
kernel, checked against ``helpers.oracle_check_annihilation_pre``.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from helpers import (
    designed_instance,
    label_groups,
    oracle_backward_solve,
    oracle_check_annihilation_pre,
    oracle_kernel_deltas,
    reverse_sequence,
)

from canonkit.actions import post_momentum, pre_momentum
from canonkit.classify import (
    REVERSED_TYPE,
    VECTOR_TYPES,
    classify_sequence,
    classify_step,
    split_variables,
)
from canonkit.constraints import LinearConstraint, primary_constraints, secondary_constraints
from canonkit.effective import compose
from canonkit.errors import ConstraintViolationError, InputError
from canonkit.evolution import CanonicalData, backward_solve, forward_solve
from canonkit.lattice import expanding_square_sequence
from canonkit.quantum import check_annihilation, compose_kernels, propagator_from_move


def mirror(label):
    return REVERSED_TYPE.get(label, label)


def mirrored_counts(counts):
    return {mirror(t): n for t, n in counts.items()}


def assert_same_solve(new, old):
    """Agreement to 1e-12 relative to the solve's own magnitude."""
    for got, want in ((new.data.x, old.data.x), (new.data.p, old.data.p),
                      (new.residuals, old.residuals)):
        scale = max(np.abs(want).max() if want.size else 0.0, 1.0)
        assert got.shape == want.shape
        assert np.abs(got - want).max(initial=0.0) <= 1e-12 * scale
    assert new.data.step == old.data.step
    assert new.data.momentum_side == old.data.momentum_side == "pre"
    assert new.free_rows == old.free_rows
    assert np.array_equal(new.injected, old.injected)


# -- hypothesis over designed instances ----------------------------------------

sizes_strategy = st.fixed_dictionaries(
    {t: st.integers(min_value=0, max_value=2) for t in VECTOR_TYPES}
).filter(lambda s: sum(s.values()) >= 1)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
REVERSAL = settings(max_examples=40, deadline=None, derandomize=True)


def _chain(sizes, seed):
    """A designed two-move chain with its three classified steps."""
    m1, m2 = designed_instance(np.random.default_rng(seed), sizes)
    b0 = classify_step(None, m1.c, m1.a, step=0)
    b1 = classify_step(m1.c, m2.c, m1.b + m2.a, step=1)
    b2 = classify_step(m2.c, None, m2.b, step=2)
    return m1, m2, (b0, b1, b2)


@REVERSAL
@given(sizes_strategy, seeds)
def test_reversal_is_an_exact_involution(sizes, seed):
    m1, m2, (_, b1, _) = _chain(sizes, seed)
    for move in (m1, m2):
        rev = move.reversed()
        assert (rev.step_from, rev.step_to) == (move.step_to, move.step_from)
        assert np.array_equal(rev.a, move.b) and np.array_equal(rev.b, move.a)
        assert np.array_equal(rev.c, move.c.T)
        back = rev.reversed()
        assert (back.step_from, back.step_to) == (move.step_from, move.step_to)
        for got, want in ((back.a, move.a), (back.b, move.b), (back.c, move.c)):
            assert got.tobytes() == want.tobytes()

    rev = b1.reversed()
    assert rev.step == b1.step and rev.T is b1.T
    assert rev.counts == mirrored_counts(b1.counts)
    assert rev.reversed().labels == b1.labels

    rng = np.random.default_rng(seed)
    data = CanonicalData(1, rng.normal(size=m1.dim), rng.normal(size=m1.dim), "pre")
    rev = data.reversed()
    assert rev.momentum_side == "post" and np.array_equal(rev.p, -data.p)
    back = rev.reversed()
    assert back.momentum_side == "pre" and back.step == data.step
    assert back.x.tobytes() == data.x.tobytes() and back.p.tobytes() == data.p.tobytes()


@REVERSAL
@given(sizes_strategy, seeds)
def test_transposed_cross_matrices_mirror_the_classification(sizes, seed):
    m1, m2, (_, b1, _) = _chain(sizes, seed)
    rev = classify_step(m2.c.T, m1.c.T, m1.b + m2.a, step=1)
    assert rev.counts == mirrored_counts(b1.counts)
    groups, rev_groups = label_groups(b1), label_groups(rev)
    for t in VECTOR_TYPES:
        assert rev_groups[mirror(t)].same_span(groups[t]), t


@REVERSAL
@given(sizes_strategy, seeds)
def test_reversed_primary_constraints_swap_kinds_and_negate_x(sizes, seed):
    m1, m2, (_, b1, _) = _chain(sizes, seed)
    cons = primary_constraints(m1, m2, b1)
    rev = primary_constraints(m2.reversed(), m1.reversed(), b1.reversed())
    swap = {"pre": "post", "post": "pre"}
    for kind in ("pre", "post"):
        mine = [c for c in cons if c.kind == kind]
        theirs = [c for c in rev if c.kind == swap[kind]]
        assert len(mine) == len(theirs)
        for c, r in zip(mine, theirs):
            assert np.array_equal(r.p_coeffs, c.p_coeffs)
            assert np.array_equal(r.x_coeffs, -c.x_coeffs)
            assert r.source_type == mirror(c.source_type)
            assert r.step == c.step


@REVERSAL
@given(sizes_strategy, seeds)
def test_backward_undoes_forward_on_observable_rows(sizes, seed):
    _, move, (_, b1, b2) = _chain(sizes, seed)
    rng = np.random.default_rng(seed)
    x1, x2 = rng.normal(size=move.dim), rng.normal(size=move.dim)
    data = CanonicalData(1, x1, pre_momentum(move, x1, x2), "pre")
    fwd = forward_solve(move, b1, b2, data)
    back = backward_solve(move, b1, b2, fwd.data)
    assert back.data.step == 1 and back.data.momentum_side == "pre"
    assert [r for r, _ in back.free_rows] == list(b1.left_rows)
    # the observable rows A carry (x^A, pi_A); the free rows come back as zero
    a_rows = b1.pre_observable_rows
    split = split_variables(b1, a_next=move.a)
    scale = max(np.abs(x1).max(), np.abs(data.p).max(), 1.0)
    for got, want in ((b1.to_split_config(back.data.x), b1.to_split_config(x1)),
                      (split.pre_pi(back.data.x, back.data.p), split.pre_pi(x1, data.p))):
        assert np.abs(got[a_rows] - want[a_rows]).max(initial=0.0) <= 1e-8 * scale
    assert_same_solve(back, oracle_backward_solve(move, b1, b2, fwd.data))


# -- the oracle on the square lattice and on designed instances --------------


@pytest.mark.parametrize("n_steps", [2, 4, 8])
def test_backward_matches_oracle_on_square(n_steps):
    seq = expanding_square_sequence(n_steps, mass=0.5).sequence
    bases = classify_sequence(seq)
    rng = np.random.default_rng(n_steps)
    for move in seq.moves:
        x_from, x_to = rng.normal(size=seq.dim), rng.normal(size=seq.dim)
        data = CanonicalData(move.step_to, x_to, post_momentum(move, x_from, x_to), "post")
        b_from, b_to = bases[move.step_from], bases[move.step_to]
        for free in (None, rng.normal(size=seq.dim)):
            new = backward_solve(move, b_from, b_to, data, free_values=free)
            old = oracle_backward_solve(move, b_from, b_to, data, free_values=free)
            assert_same_solve(new, old)


def test_backward_matches_oracle_on_designed_instances():
    rng = np.random.default_rng(29)
    compared = 0
    for _ in range(40):
        sizes = {t: int(rng.integers(0, 3)) for t in VECTOR_TYPES}
        if not sum(sizes.values()):
            continue
        m1, m2, (b0, b1, b2) = _chain(sizes, int(rng.integers(2**32)))
        for move, b_from, b_to in ((m1, b0, b1), (m2, b1, b2)):
            x_from, x_to = rng.normal(size=move.dim), rng.normal(size=move.dim)
            p_to = post_momentum(move, x_from, x_to)
            data = CanonicalData(move.step_to, x_to, p_to, "post")
            assert_same_solve(backward_solve(move, b_from, b_to, data, strict=False),
                              oracle_backward_solve(move, b_from, b_to, data, strict=False))
            compared += 1
    assert compared >= 60


# -- whole sequences ------------------------------------------------------------


def test_reversed_square_mirrors_counts_at_every_step():
    seq = expanding_square_sequence(6, mass=0.5).sequence
    rev = reverse_sequence(seq)
    assert (rev.first_step, rev.last_step) == (seq.first_step, seq.last_step)
    flip = seq.first_step + seq.last_step
    bases = classify_sequence(seq)
    rev_bases = classify_sequence(rev)
    for n in seq.steps:
        assert rev_bases[flip - n].counts == mirrored_counts(bases[n].counts), n


# -- the momentum side and the post-constraint check -------------------------


def test_forward_rejects_post_side_data(square_fixture):
    fx, bases = square_fixture
    move = fx.sequence.moves[1]
    data = CanonicalData(1, np.zeros(12), np.zeros(12), "post")
    with pytest.raises(InputError, match="momentum side"):
        forward_solve(move, bases[1], bases[2], data)


def test_backward_rejects_pre_side_data(square_fixture):
    fx, bases = square_fixture
    move = fx.sequence.moves[1]
    data = CanonicalData(2, np.zeros(12), np.zeros(12), "pre")
    with pytest.raises(InputError, match="momentum side"):
        backward_solve(move, bases[1], bases[2], data)


def test_backward_rejects_data_at_the_wrong_step(square_fixture):
    fx, bases = square_fixture
    move = fx.sequence.moves[1]
    data = CanonicalData(1, np.zeros(12), np.zeros(12), "post")
    with pytest.raises(InputError, match="step 1"):
        backward_solve(move, bases[1], bases[2], data)


def test_backward_post_constraint_violation(square_fixture):
    fx, bases = square_fixture
    move = fx.sequence.moves[1]
    rng = np.random.default_rng(4)
    data = CanonicalData(2, rng.normal(size=12), rng.normal(size=12), "post")
    with pytest.raises(ConstraintViolationError) as info:
        backward_solve(move, bases[1], bases[2], data)
    message = str(info.value)
    found = re.match(r"post-constraint on row (\d+) \((\w+)\) violated by (\S+) at step 2$",
                     message)
    assert found, message
    row, label = int(found.group(1)), found.group(2)
    # the label is read in the caller's basis, never the reversed one
    assert label == bases[2].labels[row]
    with pytest.raises(ConstraintViolationError) as oracle_info:
        oracle_backward_solve(move, bases[1], bases[2], data)
    assert message == str(oracle_info.value)

    loose = backward_solve(move, bases[1], bases[2], data, strict=False)
    old = oracle_backward_solve(move, bases[1], bases[2], data, strict=False)
    assert np.abs(loose.residuals).max() > 0
    assert_allclose(loose.residuals, old.residuals, rtol=1e-12, atol=0)


# -- kernels -----------------------------------------------------------------


def _kernels(sizes, seed):
    """The two propagators of a designed chain and their composition."""
    m1, m2, (b0, b1, b2) = _chain(sizes, seed)
    k1, k2 = propagator_from_move(m1, b0, b1), propagator_from_move(m2, b1, b2)
    return (m1, m2, (b0, b1, b2)), (k1, k2, compose_kernels(k1, k2, b1))


@REVERSAL
@given(sizes_strategy, seeds)
def test_kernel_reversal_is_an_exact_involution(sizes, seed):
    _, kernels = _kernels(sizes, seed)
    for k in kernels:
        rev = k.reversed()
        assert (rev.in_step, rev.out_step) == (k.out_step, k.in_step)
        assert np.array_equal(rev.A, k.B) and np.array_equal(rev.B, k.A)
        assert np.array_equal(rev.C, k.C.T)
        assert np.array_equal(rev.deltas, np.hstack([k.deltas[:, k.dim_in:],
                                                     k.deltas[:, :k.dim_in]]))
        assert rev.basis_in.counts == mirrored_counts(k.basis_out.counts)
        assert rev.basis_out.counts == mirrored_counts(k.basis_in.counts)
        move = k.move.reversed()
        for got, want in ((rev.move.a, move.a), (rev.move.b, move.b), (rev.move.c, move.c)):
            assert got.tobytes() == want.tobytes()

        back = rev.reversed()
        assert (back.in_step, back.out_step, back.hbar) == (k.in_step, k.out_step, k.hbar)
        assert back.amplitude == k.amplitude and back.delta_labels == k.delta_labels
        for got, want in ((back.A, k.A), (back.B, k.B), (back.C, k.C), (back.deltas, k.deltas)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        for got, want in ((back.basis_in, k.basis_in), (back.basis_out, k.basis_out)):
            assert got.labels == want.labels and got.T is want.T


@REVERSAL
@given(sizes_strategy, seeds)
def test_pre_side_annihilation_matches_the_oracle(sizes, seed):
    (m1, m2, (b0, b1, _)), (k1, k2, k02) = _kernels(sizes, seed)
    rng = np.random.default_rng(seed)
    q = m1.dim
    outer = [c for c in secondary_constraints(m1, m2, b1) if 0 in c.steps]
    pools = (
        (k1, primary_constraints(None, m1, b0)),
        (k2, primary_constraints(m1, m2, b1)),
        (k02, primary_constraints(None, m1, b0) + outer),
    )
    for k, pool in pools:
        pool = pool + [LinearConstraint(step=k.in_step, kind="pre",
                                        p_coeffs=rng.normal(size=q), x_coeffs=rng.normal(size=q))]
        for c in pool:
            assert check_annihilation(k, c, "pre") == oracle_check_annihilation_pre(k, c), c


@REVERSAL
@given(sizes_strategy, seeds)
def test_composed_kernel_is_compose_plus_measure(sizes, seed):
    (m1, m2, (_, b1, _)), (k1, k2, k02) = _kernels(sizes, seed)
    eff = compose(m1, m2, b1)
    for got, want in ((k02.A, eff.a), (k02.B, eff.b), (k02.C, eff.c)):
        assert got.tobytes() == want.tobytes()
    # one delta row per multiplier record: l -> [x, 0], r -> [0, x], z -> [x, x_other]
    q = m1.dim
    rows = np.zeros((len(eff.multipliers), 2 * q))
    for row, rec in zip(rows, eff.multipliers):
        con = rec.constraint
        if rec.source_type == "r":
            row[q:] = con.x_coeffs
        else:
            row[:q] = con.x_coeffs
        if rec.source_type == "z":
            row[q:] = con.x_coeffs_other
    assert np.array_equal(k02.deltas, rows)
    assert k02.delta_labels == tuple(f"{rec.source_type}@1" for rec in eff.multipliers)
    old = oracle_kernel_deltas(k1, k2, b1)
    assert old.shape == k02.deltas.shape
    assert np.abs(k02.deltas - old).max(initial=0.0) <= 1e-12
