"""Every InputError branch of the quantum layer, and non-finite inputs.

Most kernels are the scalar chain x0 -> x1 -> x2 with S = x0 x1 + x1^2/2 and
S = x1^2/2 + x1 x2, whose steps are r, gamma and l.
"""

import warnings

import numpy as np
import pytest

from helpers import designed_instance

from canonkit.actions import QuadraticMove
from canonkit.classify import classify_step
from canonkit.constraints import LinearConstraint
from canonkit.errors import InputError
from canonkit.evolution import boundary_solve
from canonkit.quantum import (
    Amplitude,
    GaussianDeltaKernel,
    GaussianState,
    check_annihilation,
    compose_kernels,
    evolve_state,
    hilbert_dims,
    project_physical,
    propagator_from_move,
    unitarity_check,
)

M1 = QuadraticMove(0, 1, [[0.0]], [[0.5]], [[1.0]])
M2 = QuadraticMove(1, 2, [[0.5]], [[0.0]], [[1.0]])
B0 = classify_step(None, M1.c, M1.a, step=0)
B1 = classify_step(M1.c, M2.c, M1.b + M2.a, step=1)
B2 = classify_step(M2.c, None, M2.b, step=2)
K1 = propagator_from_move(M1, B0, B1)
K2 = propagator_from_move(M2, B1, B2)


def state(step=0, hbar=1.0, m=((1j,),), j=(0.0,)):
    return GaussianState(step=step, hbar=hbar, amplitude=Amplitude(), M=m, j=j)


def kernel(**changes):
    """K1 with some fields changed."""
    fields = dict(in_step=0, out_step=1, hbar=1.0, amplitude=K1.amplitude, A=K1.A, B=K1.B,
                  C=K1.C, basis_in=B0, basis_out=B1)
    return GaussianDeltaKernel(**{**fields, **changes})


def constraint(step, p=(1.0,), x=(0.0,), other=None):
    kind = "post" if other is None else "boundary_data"
    return LinearConstraint(step=step, kind=kind, p_coeffs=p, x_coeffs=x, x_coeffs_other=other)


def test_the_fixture_kernels_pass_every_check():
    assert unitarity_check(K1, B0, B1)
    assert evolve_state(K1, state()).step == 1
    assert compose_kernels(K1, K2, B1).out_step == 2


@pytest.mark.parametrize("kern, st, match", [
    (kernel(basis_in=None), state(), "no in-step basis"),
    (K1, state(step=1), "does not live at the kernel's in-step"),
    (K1, state(m=np.eye(2) * 1j, j=np.zeros(2)), "does not live at the kernel's in-step"),
    (K1, state(hbar=2.0), "different hbar"),
    (kernel(deltas=[[1.0, 0.0]]), state(), "delta factors"),
])
def test_evolve_state_rejects(kern, st, match):
    with pytest.raises(InputError, match=match):
        evolve_state(kern, st)


@pytest.mark.parametrize("label", ["I", "H", "l", "lambda"])
def test_evolve_state_rejects_support_on_each_non_observable_type(label):
    # a state at a middle step whose phase, in split coordinates, is i on the
    # pre-observable rows cancels the kernel there; one more entry on a row
    # of any other type is leakage
    sizes = {"I": 1, "H": 1, "l": 1, "lambda": 1, "r": 1, "rho": 1, "z": 1, "gamma": 2}
    m1, m2 = designed_instance(np.random.default_rng(3), sizes)
    b1 = classify_step(m1.c, m2.c, m1.b + m2.a, step=1)
    k = propagator_from_move(m2, b1, classify_step(m2.c, None, m2.b, step=2))
    t_inv = np.linalg.inv(b1.T)
    split = np.zeros((b1.dim, b1.dim), dtype=complex)
    split[b1.pre_observable_rows, b1.pre_observable_rows] = 1j

    def split_state(phi):
        m = -m2.a + t_inv @ phi @ t_inv.T
        return GaussianState(1, 1.0, Amplitude(), M=m, j=np.zeros(b1.dim))

    assert evolve_state(k, split_state(split)).step == 2
    row = b1.rows_of(label)[0]
    split[row, row] = 1.0
    with pytest.raises(InputError, match="leakage"):
        evolve_state(k, split_state(split))


@pytest.mark.parametrize("cons, side, match", [
    ([constraint(1)], "middle", "side must be"),
    ([constraint(0)], "post", "must live at the state's step"),
    ([constraint(1, p=(1.0, 0.0), x=(0.0, 0.0))], "post", "dimension mismatch"),
])
def test_project_physical_rejects(cons, side, match):
    with pytest.raises(InputError, match=match):
        project_physical(state(step=1), cons, side)


@pytest.mark.parametrize("cons, side, match", [
    (constraint(1), "middle", "side must be"),
    (constraint(5), "post", "kernel's post step"),
    (constraint(5), "pre", "kernel's pre step"),
    (constraint((1, 7), other=(1.0,)), "post", "references step 7"),
    (constraint((0, 7), other=(1.0,)), "pre", "references step 7"),
])
def test_check_annihilation_rejects(cons, side, match):
    with pytest.raises(InputError, match=match):
        check_annihilation(K1, cons, side)


def test_unitarity_check_rejects_a_kernel_with_deltas():
    with pytest.raises(InputError, match="delta-free"):
        unitarity_check(kernel(deltas=[[1.0, 0.0]]), B0, B1)


def test_compose_kernels_rejects_an_hbar_mismatch():
    k2 = GaussianDeltaKernel(in_step=1, out_step=2, hbar=2.0, amplitude=K2.amplitude,
                             A=K2.A, B=K2.B, C=K2.C, basis_in=B1, basis_out=B2)
    with pytest.raises(InputError, match="different hbar"):
        compose_kernels(K1, k2, B1)


@pytest.mark.parametrize("deltas, match", [
    ([[1.0, 0.0, 0.0]], "span the concatenated space"),
    ([[1.0, 0.0], [2.0, 0.0]], "linearly independent"),
])
def test_kernel_rejects_bad_deltas(deltas, match):
    with pytest.raises(InputError, match=match):
        kernel(deltas=deltas)


@pytest.mark.parametrize("m, j", [
    (np.eye(2) * 1j, np.zeros(3)),
    (np.ones((2, 3)) * 1j, np.zeros(2)),
])
def test_state_rejects_bad_shapes(m, j):
    with pytest.raises(InputError, match="square"):
        state(m=m, j=j)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_state_rejects_non_finite_m_and_j(bad):
    m = np.eye(2) * 1j
    m[0, 1] = m[1, 0] = bad
    with pytest.raises(InputError, match="finite"):
        state(m=m, j=np.zeros(2))
    with pytest.raises(InputError, match="finite"):
        state(m=np.eye(2) * 1j, j=[0.0, bad])


def test_hilbert_dims_rejects_an_over_full_set():
    cons = [constraint(1), constraint(1, p=(0.0,), x=(1.0,))]
    assert hilbert_dims(cons, 2) == 0
    with pytest.raises(InputError, match="more independent constraints"):
        hilbert_dims(cons, 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_boundary_solve_rejects_non_finite_configurations(bad):
    assert boundary_solve(M1, M2, B1, [1.0], [2.0]).shape == (1,)
    for x0, x2 in (([bad], [2.0]), ([1.0], [bad])):
        with pytest.raises(InputError, match="finite"):
            boundary_solve(M1, M2, B1, x0, x2)


NON_FINITE = [np.nan, np.inf, -np.inf]


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("part", ["p", "x"])
@pytest.mark.parametrize("n_cons", [1, 2])
def test_project_physical_rejects_non_finite_coefficients(bad, part, n_cons):
    coeffs = {"p": (1.0,), "x": (0.0,), part: (bad,)}
    cons = [constraint(1, p=(1.0,))] * (n_cons - 1) + [constraint(1, **coeffs)]
    with pytest.raises(InputError, match="finite"):
        project_physical(state(step=1), cons, "post")


# (side, step, x_coeffs_other, part): one-step and boundary-data constraints
# at each end of K1 = 0 -> 1, with each of their coefficient arrays made bad
ANNIHILATION_CASES = [(side, step, other, part)
                      for side, step, other in [("post", 1, None), ("pre", 0, None),
                                                ("post", (1, 0), (0.0,)), ("pre", (0, 1), (0.0,))]
                      for part in ("p", "x", "other")[:2 if other is None else 3]]


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("side, step, other, part", ANNIHILATION_CASES)
def test_check_annihilation_rejects_non_finite_coefficients(bad, side, step, other, part):
    coeffs = {"p": (1.0,), "x": (0.0,), "other": other}
    assert check_annihilation(K1, constraint(step, **coeffs), side) in (True, False)
    coeffs[part] = (bad,)
    with pytest.raises(InputError, match="finite"):
        check_annihilation(K1, constraint(step, **coeffs), side)


def test_project_physical_rejects_a_set_of_mixed_lengths():
    # checked before the brackets of the set, which need one length
    cons = [constraint(1), constraint(1, p=(1.0, 0.0), x=(0.0, 0.0))]
    with pytest.raises(InputError, match="dimension mismatch"):
        project_physical(state(step=1), cons, "post")


@pytest.mark.parametrize("j, hbar", [
    ((1.0, 0.5), 5e-324), ((1.0, 0.5), 1e-310), ((100.0, 0.5), 1e-307), ((1e7, 0.5), 1e-300),
])
def test_a_gaussian_integral_past_float_range_names_hbar(j, hbar):
    # const / hbar of the orbit integral overflows; no numpy warning may leak first
    st = GaussianState(0, hbar, Amplitude(), M=1j * np.eye(2), j=j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match=f"at hbar = {hbar!r}"):
            project_physical(st, [LinearConstraint(0, "pre", [1.0, 0.0], [0.0, 0.0])], "pre")
        with pytest.raises(InputError, match=f"at hbar = {hbar!r}"):
            evolve_state(kernel(hbar=hbar), state(hbar=hbar, j=j[:1]))
        # a smaller phase at a small hbar stays in range
        projected = project_physical(GaussianState(0, 1e-200, Amplitude(), M=1j * np.eye(2), j=j),
                                     [LinearConstraint(0, "pre", [1.0, 0.0], [0.0, 0.0])], "pre")
        assert np.isfinite(projected.amplitude.log_modulus)
