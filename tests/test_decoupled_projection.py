"""The closed-form average of decoupled slots in ``project_physical`` and the
active-block products of ``evolve_state``, each against its all-slot form.

A constraint c p_s on a slot s that no other constraint touches, where the
state has row and column s of M zero off the diagonal and j_s = 0 (a
zero-padded slot of the expanding square), is averaged in closed form; every
other constraint goes through one ``_gaussian_integral``.  The oracles in
``helpers`` integrate the whole set, and every slot, as before the split.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import full_product_evolution, general_projection, random_orthogonal, random_symmetric

from canonkit import quantum
from canonkit.classify import classify_sequence
from canonkit.constraints import LinearConstraint, primary_constraints
from canonkit.errors import DivergenceError, InputError
from canonkit.lattice import expanding_square_sequence
from canonkit.quantum import (
    Amplitude,
    GaussianState,
    evolve_state,
    project_physical,
    propagator_from_move,
)

DIVERGES = ("group averaging: integral over a flat or growing direction diverges "
            "(double projection or non-normalizable state)")


@contextmanager
def integral_sizes():
    """The size of every g handed to ``_gaussian_integral`` within the block."""
    sizes = []
    original = quantum._gaussian_integral

    def counted(g, *args, **kwargs):
        sizes.append(g.shape[0])
        return original(g, *args, **kwargs)

    with mock.patch.object(quantum, "_gaussian_integral", counted):
        yield sizes


def assert_same_state(got, want, bound):
    """M and j within 1e-12 of their scale; the amplitude's logs within ``bound``."""
    for key in ("M", "j"):
        a, b = getattr(got, key), getattr(want, key)
        scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), np.finfo(float).tiny)
        assert np.abs(a - b).max(initial=0.0) <= 1e-12 * scale, key
    assert got.amplitude.i_exponent == want.amplitude.i_exponent
    assert got.amplitude.log_modulus == pytest.approx(want.amplitude.log_modulus, rel=0, abs=bound)
    assert got.amplitude.phase == pytest.approx(want.amplitude.phase, rel=0, abs=bound)


def pre_state(seq, bases, m):
    """The bench chain's state at m's initial step and its pre-constraints."""
    q = seq.dim
    pre = [c for c in primary_constraints(None, m, bases[m.step_from]) if c.kind == "pre"]
    return GaussianState(m.step_from, seq.hbar, Amplitude(), M=-m.a + 1j * np.eye(q),
                         j=np.zeros(q)), pre


def split_case(seed, n_own, n_gen, n_coupled, n_charged, hbar, scale):
    """A state and an abelian constraint set with ``n_own`` decoupled slots,
    ``n_gen`` general constraints on a dense block, ``n_coupled`` one-slot
    constraints on slots coupled into that block through M and ``n_charged``
    one-slot constraints on slots with j_s != 0; coefficients c != +-1 and
    Re M_ss != 0 on every one-slot constraint."""
    rng = np.random.default_rng(seed)
    n_free = 1 + int(rng.integers(0, 3))
    n_block = n_gen + n_coupled + n_free
    q = n_block + n_own + n_charged
    perm = rng.permutation(q)
    block, own, charged = np.split(perm, [n_block, n_block + n_own])
    coupled, plain = block[:n_coupled], block[n_coupled:]

    m = np.zeros((q, q), complex)
    im = random_orthogonal(rng, n_block)
    im = (im * rng.uniform(0.5, 2.0, n_block)) @ im.T
    m[np.ix_(block, block)] = scale * (random_symmetric(rng, n_block) + 0.5j * (im + im.T))
    single = np.concatenate([own, charged])
    n = single.size
    m[single, single] = scale * (rng.choice([-1.0, 1.0], n) * rng.uniform(0.1, 3.0, n)
                                 + 1j * rng.uniform(0.5, 2.0, n))
    j = np.zeros(q)
    linear = np.concatenate([block, charged])
    j[linear] = np.sqrt(scale * hbar) * rng.normal(size=linear.size)
    state = GaussianState(0, hbar, Amplitude(0.3, 1, 0.2), M=m, j=j)

    cons = []
    for s in np.concatenate([own, coupled, charged]):
        p = np.zeros(q)
        p[s] = rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 3.0)
        cons.append(LinearConstraint(0, "pre", p, np.zeros(q)))
    # p rows orthogonal on the plain block slots, x = S p with S symmetric: abelian
    rows = random_orthogonal(rng, plain.size)[:n_gen] * rng.uniform(0.5, 2.0, (n_gen, 1))
    sym = scale * random_symmetric(rng, plain.size)
    for row in rows:
        p, x = np.zeros(q), np.zeros(q)
        p[plain], x[plain] = row, sym @ row
        cons.append(LinearConstraint(0, "pre", p, x))
    return state, [cons[k] for k in rng.permutation(len(cons))]


@settings(max_examples=80, deadline=None, derandomize=True)
@example(1, 4, 0, 0, 0, 0.0, 0.0)          # every constraint decoupled
@example(2, 2, 2, 1, 1, 1.5, -3.0)         # mixed
@example(3, 0, 2, 1, 1, -2.0, 4.0)         # no constraint decoupled
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=0, max_value=4),
       st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=2),
       st.integers(min_value=0, max_value=2), st.floats(min_value=-3.0, max_value=3.0),
       st.floats(min_value=-6.0, max_value=6.0))
def test_the_split_projection_matches_one_general_integral(seed, n_own, n_gen, n_coupled,
                                                          n_charged, log_hbar, log_scale):
    assume(n_own + n_gen + n_coupled + n_charged)
    hbar, scale = 10.0 ** log_hbar, 10.0 ** log_scale
    state, cons = split_case(seed, n_own, n_gen, n_coupled, n_charged, hbar, scale)
    with integral_sizes() as sizes:
        got = project_physical(state, cons, "pre")
    # one integral, over every constraint that is not decoupled
    assert sizes == [n_gen + n_coupled + n_charged]
    bound = 1e-12 * len(cons) * (abs(np.log(2.0 * np.pi * hbar)) + abs(np.log(scale)) + 10.0)
    assert_same_state(got, general_projection(state, cons), bound)


def test_the_square_chain_averages_every_padded_slot_in_closed_form():
    seq = expanding_square_sequence(4, mass=0.5).sequence
    bases = classify_sequence(seq)
    for m in seq.moves:
        state, pre = pre_state(seq, bases, m)
        with integral_sizes() as sizes:
            got = project_physical(state, pre, "pre")
        assert sizes == [0]
        assert_same_state(got, general_projection(state, pre), 1e-12 * max(len(pre), 1) * 10.0)


def test_a_double_projection_of_a_padded_slot_diverges_as_before():
    seq = expanding_square_sequence(4, mass=0.5).sequence
    bases = classify_sequence(seq)
    state, pre = pre_state(seq, bases, seq.moves[1])
    small = GaussianState(0, 1.0, Amplitude(), M=np.diag([1j, 2.0 + 1j]), j=[0.5, 0.0])
    one = [LinearConstraint(0, "pre", [0.0, 2.5], [0.0, 0.0])]
    for st_, cons in ((state, pre), (small, one)):
        once = project_physical(st_, cons, "pre")
        for project in (lambda: project_physical(once, cons, "pre"),
                        lambda: general_projection(once, cons)):
            with pytest.raises(DivergenceError) as err:
                project()
            assert str(err.value) == DIVERGES


def _one_slot(q=3, s=1):
    p = np.zeros(q)
    p[s] = -1.7
    return LinearConstraint(0, "pre", p, np.zeros(q))


COUPLED_CASES = {
    # M couples slot 1 to slot 2
    "through M": (np.array([[1j, 0, 0], [0, 0.3 + 1j, 0.2], [0, 0.2, 2j]]), [0.1, 0.0, 0.0],
                  [_one_slot()]),
    # j_1 != 0
    "through j": (np.diag([1j, 0.3 + 1j, 2j]), [0.0, 0.4, 0.0], [_one_slot()]),
    # a second constraint touches slot 1
    "through a constraint": (np.diag([1j, 0.3 + 1j, 2j]), [0.0, 0.0, 0.0],
                             [_one_slot(), LinearConstraint(0, "pre", [0.0, 1.0, 1.0], [0.0] * 3)]),
}


@pytest.mark.parametrize("case", list(COUPLED_CASES))
def test_a_coupled_slot_takes_the_general_path(case):
    m, j, cons = COUPLED_CASES[case]
    state = GaussianState(0, 0.7, Amplitude(), M=m, j=j)
    with integral_sizes() as sizes:
        got = project_physical(state, cons, "pre")
    assert sizes == [len(cons)]
    assert_same_state(got, general_projection(state, cons), 1e-12 * 10.0)


@pytest.mark.parametrize("j, hbar", [
    ((1.0, 0.5), 5e-324), ((1.0, 0.5), 1e-310), ((100.0, 0.5), 1e-307), ((1e7, 0.5), 1e-300),
])
def test_a_charged_slot_past_float_range_takes_the_general_path(j, hbar):
    # j_0 != 0, so the overflowing const/hbar is still _gaussian_integral's
    state = GaussianState(0, hbar, Amplitude(), M=1j * np.eye(2), j=j)
    cons = [LinearConstraint(0, "pre", [1.0, 0.0], [0.0, 0.0])]
    with integral_sizes() as sizes, pytest.raises(InputError, match=f"at hbar = {hbar!r}"):
        project_physical(state, cons, "pre")
    assert sizes == [1]


@pytest.mark.parametrize("n", [2, 4])
def test_evolve_state_active_block_matches_the_full_product(n):
    seq = expanding_square_sequence(n, mass=0.5).sequence
    bases = classify_sequence(seq)
    for m in seq.moves:
        k = propagator_from_move(m, bases[m.step_from], bases[m.step_to], hbar=seq.hbar)
        state, pre = pre_state(seq, bases, m)
        projected = project_physical(state, pre, "pre")
        # padded slots are zero rows of M + A and of C: the active block is smaller
        assert np.count_nonzero((projected.M + k.A).any(axis=0)) < seq.dim
        assert_same_state(evolve_state(k, projected), full_product_evolution(k, projected),
                          1e-12 * seq.dim * 10.0)
