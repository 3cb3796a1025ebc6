"""Each rank decision has one owner.

m_lambda_rho is the rank of the (H, lambda) x (H, rho) block of the Hessian
less N_H.  The primary brackets vanish off that block, so 2 N_H + 2m is
their rank (Dirac's count of second-class constraints), and the rows
lambda -> lambda + X H and rho -> rho + Y H, which keep every label, keep
it too: the degree-of-freedom counts do not depend on the basis.  Every
Tolerance built from data passes one float-range guard, and the
monotonicity verdict of a composition is decided once.
"""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from helpers import designed_instance, h_coupled_instance

from canonkit.actions import QuadraticMove, moves_tolerance
from canonkit.classify import classify_rows, classify_step, label_for, m_lambda_rho
from canonkit.constraints import bracket_table, primary_constraints
from canonkit.errors import DegeneracyError, InputError
from canonkit.evolution import dof_report, fixed_variable_solve
from canonkit.linalg import DEFAULT_TOL, numeric_rank


def _padded(move, slots, q):
    """The move with its variables placed on ``slots`` of q zero-padded slots."""
    def embed(m):
        out = np.zeros((q, q))
        out[np.ix_(slots, slots)] = m
        return out
    return QuadraticMove(move.step_from, move.step_to, *(embed(m) for m in (move.a, move.b, move.c)))


def _h_shifted(basis, c_prev, c_next, h, tol, rng):
    """The basis with lambda += X T_H and rho += Y T_H, relabelled by
    ``classify_rows``; the labels must not change."""
    t = basis.T.copy()
    rows_h = basis.rows_of("H")
    for label in ("lambda", "rho"):
        rows = basis.rows_of(label)
        t[rows] += rng.uniform(-2.0, 2.0, size=(rows.size, rows_h.size)) @ t[rows_h]
    shifted = classify_rows(t, c_prev, c_next, h, tol, step=basis.step)
    assert shifted.labels == basis.labels
    return shifted


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1),
       family=st.sampled_from(["designed", "zero", "schur"]),
       counts=st.tuples(*(st.integers(0, 2) for _ in range(4)), *(st.integers(0, 1) for _ in range(4))),
       exponent=st.integers(-6, 6), rotate=st.booleans(), pad=st.integers(0, 3))
def test_counts_do_not_depend_on_the_basis(seed, family, counts, exponent, rotate, pad):
    sizes = dict(zip(("H", "lambda", "rho", "gamma", "I", "l", "r", "z"), counts))
    assume(sum(counts) > 0)
    rng = np.random.default_rng(seed)
    scale = 10.0 ** exponent
    if family == "designed":
        m1, m2 = designed_instance(rng, sizes, scale, rotate)
    else:
        m1, m2 = h_coupled_instance(rng, sizes, family == "schur", scale, rotate)
    q = m1.dim + pad
    slots = np.sort(rng.permutation(q)[: m1.dim])
    m1, m2 = _padded(m1, slots, q), _padded(m2, slots, q)
    tol = moves_tolerance(DEFAULT_TOL, m1, m2)
    h = m1.b + m2.a
    b0 = classify_step(None, m1.c, m1.a, tol, step=0)
    b1 = classify_step(m1.c, m2.c, h, tol, step=1)
    b2 = classify_step(m2.c, None, m2.b, tol, step=2)
    k = b1.T @ h @ b1.T.T
    rows_h = b1.rows_of("H")
    # a well-conditioned second-class block: no pair commutes
    assume(rows_h.size == 0 or np.linalg.cond(k[np.ix_(rows_h, rows_h)]) < 1e4)
    shifted = _h_shifted(b1, m1.c, m2.c, h, tol, rng)

    reports = [dof_report(m1, m2, b0, b, b2, tol) for b in (b1, shifted)]
    got = [(r.m_lambda_rho, r.n_through, r.first_class, r.second_class) for r in reports]
    assert got[0] == got[1]
    m = got[0][0]
    for basis in (b1, shifted):
        table = bracket_table(primary_constraints(m1, m2, basis), h, basis, tol)
        assert 2 * rows_h.size + 2 * m == numeric_rank(table.brackets, tol)
        solved = fixed_variable_solve(basis, h, np.zeros(q), np.zeros(q), tol)
        assert m == numeric_rank(solved.schur_lambda_rho, tol)
    if family == "schur":
        assert m == 0


@pytest.fixture
def commuting_pair():
    """A step whose one H row has h_HH = 0: its second-class pair commutes."""
    c = np.diag([0.0, 1.0])
    h = np.array([[0.0, 1.0], [1.0, 0.0]])
    m1 = QuadraticMove(0, 1, np.eye(2), np.zeros((2, 2)), c)
    m2 = QuadraticMove(1, 2, h, np.eye(2), c)
    bases = [classify_step(None, c, m1.a, step=0), classify_step(c, c, h, step=1),
             classify_step(c, None, m2.b, step=2)]
    assert bases[1].counts["H"] == 1 and bases[1].counts["gamma"] == 1
    return m1, m2, bases, h


def test_commuting_pair_is_a_degeneracy(commuting_pair):
    m1, m2, (b0, b1, b2), h = commuting_pair
    with pytest.raises(DegeneracyError, match="step 1: a second-class pair commutes"):
        m_lambda_rho(b1, h)
    with pytest.raises(DegeneracyError, match="step 1"):
        bracket_table(primary_constraints(m1, m2, b1), h, b1)
    with pytest.raises(DegeneracyError, match="step 1"):
        dof_report(m1, m2, b0, b1, b2)


def test_rank_cut_beyond_float_range_is_an_input_error():
    big = np.eye(3)
    big[0, 0] = 1e308
    c = np.diag([0.0, 1.0, 1.0])
    basis = classify_step(c, c, np.eye(3), step=1)
    assert basis.counts["H"] == 1
    cons = primary_constraints(QuadraticMove(0, 1, np.eye(3), np.eye(3), c),
                               QuadraticMove(1, 2, np.zeros((3, 3)), np.eye(3), c), basis)
    calls = [
        lambda: classify_step(big, big, np.eye(3), 0.9),
        lambda: label_for(np.ones(3), big, big, np.eye(3), 0.9),
        lambda: bracket_table(cons, big, basis, 0.9),
        lambda: m_lambda_rho(basis, big, 0.9),
        lambda: fixed_variable_solve(basis, big, np.zeros(3), np.zeros(3), 0.9),
    ]
    for call in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(InputError, match="the moves' scale 1e\\+308 puts a rank cut at tol = 0.9"):
                call()
