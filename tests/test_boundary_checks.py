"""Each public entry checks its inputs once; what it hands on is trusted.

A check that fires at a public entry must raise the same typed error, with
the same message, however the work behind the entry is split.  The cases
use one designed pair 0 -> 1 -> 2 (every type at step 1) and its kernels.
"""

import re
import warnings

import numpy as np
import pytest

from helpers import designed_instance

from canonkit.actions import QuadraticMove, moves_tolerance
from canonkit.classify import classify_step
from canonkit.constraints import LinearConstraint, primary_constraints
from canonkit.effective import EffectiveMove, compose, effective_outer_bases
from canonkit.errors import InputError
from canonkit.linalg import with_scale
from canonkit.quantum import (
    Amplitude,
    GaussianDeltaKernel,
    GaussianState,
    compose_kernels,
    evolve_state,
    project_physical,
    propagator_from_move,
)

SIZES = {"I": 1, "H": 1, "l": 1, "lambda": 2, "r": 1, "rho": 2, "z": 1, "gamma": 2}
M1, M2 = designed_instance(np.random.default_rng(11), SIZES)
H = M1.b + M2.a
B0 = classify_step(None, M1.c, M1.a, step=0)
B1 = classify_step(M1.c, M2.c, H, step=1)
B2 = classify_step(M2.c, None, M2.b, step=2)
K1 = propagator_from_move(M1, B0, B1)
K2 = propagator_from_move(M2, B1, B2)
EFF = compose(M1, M2, B1)
M3 = QuadraticMove(2, 3, M2.a, M2.b, M2.c)


def _with(m, i, j, value):
    out = np.array(m)
    out[i, j] = value
    return out


def _asymmetric(m):
    return _with(m, 0, 1, m[0, 1] + 1e-3)


BIG = _with(M1.a, 0, 0, 1e308)
BIG_MESSAGE = "the moves' scale 1e+308 puts a rank cut at tol = 0.9 beyond float range"

CASES = {
    "classify_step non-finite c_prev": (
        lambda: classify_step(_with(M1.c, 0, 0, np.nan), M2.c, H), "matrix has non-finite entries"),
    "classify_step non-finite Hessian": (
        lambda: classify_step(M1.c, M2.c, _with(H, 1, 1, np.inf)), "matrix has non-finite entries"),
    "classify_step asymmetric Hessian": (
        lambda: classify_step(M1.c, M2.c, _asymmetric(H)), "Hessian must be symmetric"),
    "classify_step non-square Hessian": (
        lambda: classify_step(M1.c, M2.c, H[:, :-1]), "Hessian dimension mismatch"),
    "classify_step cross matrix of another size": (
        lambda: classify_step(M1.c[:, :-1], M2.c, H),
        "cross-matrix dimensions do not match the Hessian"),
    "effective_outer_bases asymmetric a": (
        lambda: effective_outer_bases(EffectiveMove(0, 2, _asymmetric(EFF.a), EFF.b, EFF.c)),
        "Hessian must be symmetric"),
    "effective_outer_bases asymmetric b": (
        lambda: effective_outer_bases(EffectiveMove(0, 2, EFF.a, _asymmetric(EFF.b), EFF.c)),
        "Hessian must be symmetric"),
    "compose non-adjacent moves": (lambda: compose(M1, M3, B1), "moves are not adjacent"),
    "compose basis at another step": (
        lambda: compose(M1, M2, B2), "basis is not classified at the shared step"),
    "compose_kernels non-adjacent kernels": (
        lambda: compose_kernels(K1, GaussianDeltaKernel(2, 3, 1.0, Amplitude(), M3.a, M3.b, M3.c),
                                B1),
        "moves are not adjacent"),
    "compose_kernels basis at another step": (
        lambda: compose_kernels(K1, K2, B0), "basis is not classified at the shared step"),
    "compose_kernels different hbar": (
        lambda: compose_kernels(K1, propagator_from_move(M2, B1, B2, hbar=2.0), B1),
        "kernels carry different hbar"),
    "primary_constraints move_prev misaligned": (
        lambda: primary_constraints(M1, None, B2), "move_prev does not arrive at the basis step"),
    "primary_constraints move_next misaligned": (
        lambda: primary_constraints(None, M2, B2), "move_next does not leave from the basis step"),
    "GaussianDeltaKernel non-finite A": (
        lambda: GaussianDeltaKernel(0, 1, 1.0, Amplitude(), _with(M1.a, 0, 0, np.nan), M1.b, M1.c),
        "matrix has non-finite entries"),
    "moves_tolerance past float range": (
        lambda: moves_tolerance(0.9, QuadraticMove(0, 1, BIG, M1.b, M1.c), M2), BIG_MESSAGE),
    "with_scale past float range": (lambda: with_scale(0.9, BIG, M1.b, M1.c), BIG_MESSAGE),
}


@pytest.mark.parametrize("call, message", CASES.values(), ids=list(CASES))
def test_a_check_fires_from_its_public_entry(call, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        call()


def test_the_float_range_guard_passes_the_same_data_at_the_default_tolerance():
    big = QuadraticMove(0, 1, BIG, M1.b, M1.c)
    tol = moves_tolerance(1e-10, big, M2)
    assert tol.scale == with_scale(1e-10, BIG, M1.b, M1.c, M2.a, M2.b, M2.c).scale == 1e308


def test_a_gaussian_integral_names_a_constant_past_float_range():
    # the squared linear term overflows before any division by hbar = 1
    state = GaussianState(0, 1.0, Amplitude(), M=1j * np.eye(2), j=[1e160, 0.5])
    free = GaussianDeltaKernel(0, 1, 1.0, Amplitude(), np.zeros((1, 1)), np.zeros((1, 1)),
                               np.eye(1), basis_in=classify_step(None, np.eye(1), np.zeros((1, 1))))
    calls = {
        "group averaging": lambda: project_physical(
            state, [LinearConstraint(0, "pre", [1.0, 0.0], [0.0, 0.0])], "pre"),
        "state evolution": lambda: evolve_state(
            free, GaussianState(0, 1.0, Amplitude(), M=1j * np.eye(1), j=[1e160])),
    }
    for what, call in calls.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match=f"^{what}: the exponent's constant term const "
                                                 "is past float range$"):
                call()
