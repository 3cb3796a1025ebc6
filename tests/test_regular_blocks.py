"""Every invertible block the classification promises is guarded.

Each case hands a site bases classified against regular data together with
data whose block is singular, exactly or beyond the relative tolerance, and
checks that the site raises DegeneracyError (``unitarity_check`` answers
False instead).
"""

import numpy as np
import pytest

from canonkit.actions import QuadraticMove
from canonkit.classify import classify_step
from canonkit.effective import compose
from canonkit.errors import DegeneracyError
from canonkit.evolution import (
    CanonicalData,
    backward_solve,
    boundary_solve,
    fixed_variable_solve,
    forward_solve,
)
from canonkit.quantum import (
    Amplitude,
    GaussianDeltaKernel,
    compose_kernels,
    propagator_from_move,
    unitarity_check,
)

ZERO = np.zeros((2, 2))
EYE = np.eye(2)
# relatively singular: sigma_min / sigma_max = 1e-13 is below tol * n
NEAR = np.diag([1.0, 1e-13])


def move(step_from, a=ZERO, b=ZERO, c=EYE):
    return QuadraticMove(step_from, step_from + 1, a, b, c)


@pytest.fixture
def end_bases():
    """Bases of a lone move with c = 1, a = b = 0: two r rows, two l rows."""
    b_from = classify_step(None, EYE, ZERO, step=0)
    b_to = classify_step(EYE, None, ZERO, step=1)
    assert b_from.counts["r"] == 2 and b_to.counts["l"] == 2
    return b_from, b_to


@pytest.fixture
def gamma_mid():
    """A middle step classified against c1 = c2 = h = 1: two gamma rows."""
    basis = classify_step(EYE, EYE, EYE, step=1)
    assert basis.counts["gamma"] == 2
    return basis


def kernel(step_from, a=ZERO, b=ZERO, c=EYE):
    return GaussianDeltaKernel(step_from, step_from + 1, 1.0, Amplitude(), a, b, c)


# -- the alpha block of the middle-step Hessian --------------------------------


@pytest.mark.parametrize("h_mid", [ZERO, NEAR])
def test_compose_alpha_block(gamma_mid, h_mid):
    with pytest.raises(DegeneracyError):
        compose(move(0, b=h_mid), move(1), gamma_mid)


@pytest.mark.parametrize("h_mid", [ZERO, NEAR])
def test_compose_kernels_alpha_block(gamma_mid, h_mid):
    with pytest.raises(DegeneracyError):
        compose_kernels(kernel(0, b=h_mid), kernel(1), gamma_mid)


@pytest.mark.parametrize("h_mid", [ZERO, NEAR])
def test_boundary_solve_alpha_block(gamma_mid, h_mid):
    with pytest.raises(DegeneracyError):
        boundary_solve(move(0, b=h_mid), move(1), gamma_mid, np.zeros(2), np.zeros(2))


def test_regular_alpha_block_passes(gamma_mid):
    eff = compose(move(0, b=EYE), move(1), gamma_mid)
    np.testing.assert_allclose(eff.c, -EYE, atol=1e-15)
    k = compose_kernels(kernel(0, b=EYE), kernel(1), gamma_mid)
    np.testing.assert_allclose(k.C, -EYE, atol=1e-15)


# -- the observable block c_AB --------------------------------------------------


@pytest.mark.parametrize("c", [ZERO, NEAR])
def test_forward_solve_c_ab(end_bases, c):
    b_from, b_to = end_bases
    with pytest.raises(DegeneracyError):
        forward_solve(move(0, c=c), b_from, b_to, CanonicalData(0, np.zeros(2), np.zeros(2)))


@pytest.mark.parametrize("c", [ZERO, NEAR])
def test_backward_solve_c_ab(end_bases, c):
    b_from, b_to = end_bases
    data = CanonicalData(1, np.zeros(2), np.zeros(2), "post")
    with pytest.raises(DegeneracyError):
        backward_solve(move(0, c=c), b_from, b_to, data)


def test_propagator_c_ab(end_bases):
    b_from, b_to = end_bases
    with pytest.raises(DegeneracyError):
        propagator_from_move(move(0, c=ZERO), b_from, b_to)


def test_c_ab_not_square(end_bases):
    # one gauge row and one l row at the final step: N_A = 2 but N_B = 1
    b_from, _ = end_bases
    b_to = classify_step(np.diag([1.0, 0.0]), None, ZERO, step=1)
    assert b_to.counts["I"] == 1 and b_to.counts["l"] == 1
    data = CanonicalData(0, np.zeros(2), np.zeros(2))
    with pytest.raises(DegeneracyError):
        forward_solve(move(0), b_from, b_to, data)
    with pytest.raises(DegeneracyError):
        propagator_from_move(move(0), b_from, b_to)
    assert not unitarity_check(kernel(0), b_from, b_to)


# -- the H block of second-class pairs -----------------------------------------


def test_fixed_variable_h_block():
    c = np.array([[0.0, 0.0], [0.0, 1.0]])
    h = np.array([[0.0, 1.0], [1.0, 0.0]])
    basis = classify_step(c, c, h, step=1)
    assert basis.counts["H"] == 1 and basis.counts["gamma"] == 1
    with pytest.raises(DegeneracyError):
        fixed_variable_solve(basis, h, np.zeros(2), np.zeros(2))


# -- unitarity_check answers instead of raising ---------------------------------


@pytest.mark.parametrize("c", [ZERO, NEAR])
def test_unitarity_check_singular_c_ab(end_bases, c):
    b_from, b_to = end_bases
    assert unitarity_check(propagator_from_move(move(0), b_from, b_to), b_from, b_to)
    assert not unitarity_check(kernel(0, c=c), b_from, b_to)
