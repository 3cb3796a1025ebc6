import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import (
    designed_instance,
    oracle_compose_value,
    oracle_compose_value_damped,
    random_orthogonal,
    regular_move,
)

from canonkit.actions import QuadraticMove
from canonkit.classify import classify_step
from canonkit.constraints import LinearConstraint, primary_constraints
from canonkit.effective import compose
from canonkit.errors import DivergenceError, InputError
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


def chain_bases(m1, m2):
    b0 = classify_step(None, m1.c, m1.a, step=m1.step_from)
    b1 = classify_step(m1.c, m2.c, m1.b + m2.a, step=m1.step_to)
    b2 = classify_step(m2.c, None, m2.b, step=m2.step_to)
    return b0, b1, b2


def test_amplitude_lattice():
    amp = Amplitude(log_modulus=0.0, i_exponent=4)
    assert amp.value == pytest.approx(-1.0)
    assert Amplitude(i_exponent=2).value == pytest.approx(1j)
    assert Amplitude(i_exponent=8).i_exponent == 0
    prod = Amplitude(1.0, 3, 0.1).times(Amplitude(-0.5, 7, -0.1))
    assert prod.log_modulus == pytest.approx(0.5)
    assert prod.i_exponent == 2
    assert prod.phase == pytest.approx(0.0)


def test_lattice_move_measures(square_fixture):
    fx, bases = square_fixture
    m1, m2 = fx.sequence.moves
    k1 = propagator_from_move(m1, bases[0], bases[1])
    # fully constrained move: measure one, kernel = exp(iS/hbar)
    assert k1.amplitude.modulus == pytest.approx(1.0)
    assert k1.i_exponent == 0
    assert k1.deltas.shape[0] == 0
    k2 = propagator_from_move(m2, bases[1], bases[2])
    # 1/(pi i hbar)^2 = -(pi hbar)^-2: modulus pi^-2, four eighth turns
    assert k2.amplitude.modulus == pytest.approx(np.pi**-2)
    assert k2.i_exponent == 4
    assert k2.continuous_phase == 0.0
    assert k2.amplitude.value == pytest.approx(-(np.pi**-2))


def test_measure_hbar_scaling(square_fixture):
    fx, bases = square_fixture
    m2 = fx.sequence.moves[1]
    hbar = 2.5
    k2 = propagator_from_move(m2, bases[1], bases[2], hbar=hbar)
    assert k2.amplitude.modulus == pytest.approx((np.pi * hbar) ** -2)


def test_scalar_measure():
    move = QuadraticMove(0, 1, [[0.0]], [[0.0]], [[1.0]])
    b0 = classify_step(None, move.c, move.a, step=0)
    b1 = classify_step(move.c, None, move.b, step=1)
    k = propagator_from_move(move, b0, b1)
    assert k.amplitude.modulus == pytest.approx((2.0 * np.pi) ** -0.5)
    assert k.i_exponent == 1


def test_measure_invariant_under_observable_rotation(rng):
    # |det c_AB| with orthonormal bases does not depend on the chosen
    # orthonormal A block
    move = regular_move(rng, 0, 3)
    b0 = classify_step(None, move.c, move.a, step=0)
    b1 = classify_step(move.c, None, move.b, step=1)
    # every step-0 row is a pre-observable here, so a global orthogonal
    # mix stays inside the A block and keeps the labels valid
    assert len(b0.pre_observable_rows) == 3
    k = propagator_from_move(move, b0, b1)
    from canonkit.classify import ClassifiedBasis

    o = random_orthogonal(rng, 3)
    b0_rot = ClassifiedBasis(step=0, T=o @ b0.T, labels=b0.labels)
    k_rot = propagator_from_move(move, b0_rot, b1)
    assert k_rot.amplitude.modulus == pytest.approx(k.amplitude.modulus, rel=1e-12)


def test_measure_invariant_under_row_rescaling(rng):
    # the |det T| factors compensate row rescalings of a supplied basis:
    # the propagator measure is basis-normalization independent
    move = regular_move(rng, 0, 3)
    b0 = classify_step(None, move.c, move.a, step=0)
    b1 = classify_step(move.c, None, move.b, step=1)
    k = propagator_from_move(move, b0, b1)
    from canonkit.classify import ClassifiedBasis

    scale = np.diag([2.0, 0.5, 3.0])
    b1_scaled = ClassifiedBasis(step=1, T=scale @ b1.T, labels=b1.labels)
    k_scaled = propagator_from_move(move, b0, b1_scaled)
    assert k_scaled.amplitude.modulus == pytest.approx(k.amplitude.modulus, rel=1e-12)
    assert k_scaled.i_exponent == k.i_exponent


def test_unitarity_lattice_and_perturbed(square_fixture):
    fx, bases = square_fixture
    m2 = fx.sequence.moves[1]
    k2 = propagator_from_move(m2, bases[1], bases[2])
    assert unitarity_check(k2, bases[1], bases[2])
    doubled = GaussianDeltaKernel(
        in_step=k2.in_step, out_step=k2.out_step, hbar=k2.hbar,
        amplitude=k2.amplitude.times_log(np.log(2.0)),
        A=k2.A, B=k2.B, C=k2.C, basis_in=k2.basis_in, basis_out=k2.basis_out,
    )
    assert not unitarity_check(doubled, bases[1], bases[2])


def test_unitarity_scalar_with_quadrature():
    move = QuadraticMove(0, 1, [[0.0]], [[0.0]], [[1.0]])
    b0 = classify_step(None, move.c, move.a, step=0)
    b1 = classify_step(move.c, None, move.b, step=1)
    k = propagator_from_move(move, b0, b1)
    assert unitarity_check(k, b0, b1)
    # quadrature cross-check: int dx1 K*(x1, x0) K(x1, x0') approximates a
    # delta sequence: at x0 = x0' the regulated integral is |M|^2 * the
    # damped volume, matching 1/(2 pi hbar) * sqrt(pi / eps)
    eps = 1e-3
    grid = np.linspace(-260.0, 260.0, 2_000_001)
    vals = (np.abs(k.amplitude.value) ** 2) * np.exp(-eps * grid**2)
    integral = np.trapezoid(vals, grid)
    assert integral == pytest.approx(np.sqrt(np.pi / eps) / (2 * np.pi), rel=1e-6)


def test_annihilation_primary_constraints(square_fixture):
    fx, bases = square_fixture
    m1, m2 = fx.sequence.moves
    k2 = propagator_from_move(m2, bases[1], bases[2])
    cons = primary_constraints(m2, None, bases[2])
    for c in cons:
        assert check_annihilation(k2, c, "post")
    pre1 = [c for c in primary_constraints(None, m2, bases[1]) if c.kind == "pre"]
    for c in pre1:
        assert check_annihilation(k2, c, "pre")
    k1 = propagator_from_move(m1, bases[0], bases[1])
    for c in primary_constraints(m1, None, bases[1]):
        assert check_annihilation(k1, c, "post")


def test_annihilation_explicit_examples():
    # kernel exp(i x0 x1 / hbar): p1-hat K = x0 K
    k = GaussianDeltaKernel(
        in_step=0, out_step=1, hbar=1.0, amplitude=Amplitude(),
        A=[[0.0]], B=[[0.0]], C=[[1.0]],
    )
    # p1 - x0: momentum at the out step plus a far-step configuration term
    cons_true = LinearConstraint(
        step=(1, 0), kind="boundary_data", p_coeffs=[1.0],
        x_coeffs=[0.0], x_coeffs_other=[-1.0],
    )
    cons_post = LinearConstraint(step=1, kind="post", p_coeffs=[1.0], x_coeffs=[0.0])
    # p1 alone does not annihilate
    assert not check_annihilation(k, cons_post, "post")
    # but the full functional does: build it with the two-step form
    assert check_annihilation(k, cons_true, "post")


def test_annihilation_composed_kernel_deltas():
    # scalar z chain: composed kernel carries delta(x0 + x2); the boundary
    # data constraint annihilates it on support
    m1 = QuadraticMove(0, 1, [[0.0]], [[0.0]], [[1.0]])
    m2 = QuadraticMove(1, 2, [[0.0]], [[0.0]], [[1.0]])
    b0, b1, b2 = chain_bases(m1, m2)
    k = compose_kernels(
        propagator_from_move(m1, b0, b1), propagator_from_move(m2, b1, b2), b1
    )
    assert k.deltas.shape[0] == 1
    bd = LinearConstraint(step=(0, 2), kind="boundary_data", p_coeffs=[0.0],
                          x_coeffs=[1.0], x_coeffs_other=[1.0])
    assert check_annihilation(k, bd, "post")


def test_composed_kernel_annihilated_by_outer_primaries(rng):
    # with holonomic/boundary deltas present, the composed kernel still
    # satisfies the outer steps' primary constraints: the delta rows carry
    # propagating data only, the primary rows only free data
    for seed in range(6):
        r = np.random.default_rng(seed + 140)
        sizes = {"l": 1, "r": 1, "z": 1, "gamma": 2}
        m1, m2 = designed_instance(r, sizes)
        b0, b1, b2 = chain_bases(m1, m2)
        k = compose_kernels(
            propagator_from_move(m1, b0, b1), propagator_from_move(m2, b1, b2), b1
        )
        assert k.deltas.shape[0] == 3
        for c in primary_constraints(None, m1, b0):
            assert check_annihilation(k, c, "pre")
        for c in primary_constraints(m2, None, b2):
            assert check_annihilation(k, c, "post")


def test_compose_lattice_kernels(square_fixture):
    fx, bases = square_fixture
    m1, m2 = fx.sequence.moves
    k1 = propagator_from_move(m1, bases[0], bases[1])
    k2 = propagator_from_move(m2, bases[1], bases[2])
    k02 = compose_kernels(k1, k2, bases[1])
    assert np.abs(k02.A).max() < 1e-12
    assert np.abs(k02.C).max() < 1e-12
    assert k02.deltas.shape[0] == 0
    eff = compose(m1, m2, bases[1])
    assert_allclose(k02.B, eff.b, atol=1e-10)


def test_compose_scalar_gamma_modulus_and_phase():
    m1 = QuadraticMove(0, 1, [[0.0]], [[1.0]], [[1.0]])
    m2 = QuadraticMove(1, 2, [[1.0]], [[0.0]], [[1.0]])
    b0, b1, b2 = chain_bases(m1, m2)
    k1 = propagator_from_move(m1, b0, b1)
    k2 = propagator_from_move(m2, b1, b2)
    assert k1.amplitude.modulus == pytest.approx((2 * np.pi) ** -0.5)
    k = compose_kernels(k1, k2, b1)
    assert k.amplitude.modulus == pytest.approx((4.0 * np.pi) ** -0.5)
    # phase quadratic: -(x0 + x2)^2 / 4
    assert k.A[0, 0] == pytest.approx(-0.5)
    assert k.B[0, 0] == pytest.approx(-0.5)
    assert k.C[0, 0] == pytest.approx(-0.5)
    # exact value against the oracle at a few points
    for x0, x2 in [(0.0, 0.0), (0.7, -0.3), (1.5, 2.0)]:
        got = k.smooth_value([x0], [x2])
        want = oracle_compose_value(k1, k2, [x0], [x2])
        assert abs(abs(got) - abs(want)) / abs(want) < 1e-6
        assert abs(np.angle(got / want)) < 1e-6


def test_compose_scalar_z_chain_delta():
    m1 = QuadraticMove(0, 1, [[0.0]], [[0.0]], [[1.0]])
    m2 = QuadraticMove(1, 2, [[0.0]], [[0.0]], [[1.0]])
    b0, b1, b2 = chain_bases(m1, m2)
    k1 = propagator_from_move(m1, b0, b1)
    k2 = propagator_from_move(m2, b1, b2)
    k = compose_kernels(k1, k2, b1)
    assert k.deltas.shape[0] == 1
    assert_allclose(np.abs(k.deltas[0]), [1.0, 1.0])
    # int dx1 exp(i x1 (x0+x2)) = 2 pi delta(x0+x2); the two measures
    # (2 pi)^-1/2 each cancel the 2 pi exactly
    assert k.amplitude.modulus == pytest.approx(1.0)
    # regulated comparison against quadrature at finite eps
    for eps in (0.05, 0.02):
        for x0, x2 in [(0.4, -0.4), (0.4, -0.1), (0.0, 0.6)]:
            got = k.regulated_value([x0], [x2], eps)
            want = oracle_compose_value_damped(k1, k2, [x0], [x2], eps)
            assert abs(got - want) <= 1e-6 * abs(want) + 1e-12


def test_compose_matches_oracle_random_instances():
    # mixed degeneracies in the cross matrices with an invertible middle
    # Hessian: closed-form composition against damped quadrature
    hits = 0
    for seed in range(12):
        r = np.random.default_rng(seed + 1000)
        q = int(r.integers(1, 4))
        kinds = {"lambda": 0, "rho": 0, "H": 0, "gamma": q}
        if q > 1 and seed % 3 == 0:
            kinds = {"lambda": 1, "rho": 1, "H": 0, "gamma": q - 2} if q > 2 else {
                "lambda": 1, "rho": 1, "gamma": 0, "H": 0}
        m1, m2 = designed_instance(r, kinds, scale=0.8)
        h = m1.b + m2.a
        if np.abs(np.linalg.eigvalsh(h)).min() < 0.4:
            continue
        b0, b1, b2 = chain_bases(m1, m2)
        k1 = propagator_from_move(m1, b0, b1)
        k2 = propagator_from_move(m2, b1, b2)
        k = compose_kernels(k1, k2, b1)
        assert k.deltas.shape[0] == 0
        x0 = r.normal(size=q) * 0.5
        x2 = r.normal(size=q) * 0.5
        got = k.smooth_value(x0, x2)
        want = oracle_compose_value(k1, k2, x0, x2)
        assert abs(abs(got) - abs(want)) / abs(want) < 1e-6
        assert abs(np.angle(got / want)) < 1e-6
        hits += 1
    assert hits >= 8


def test_iterated_composition_three_moves(rng):
    # composing (K1 o K2) o K3 matches the chained effective action and
    # the quadrature value at sample points
    from canonkit.actions import MoveSequence
    from canonkit.effective import chain_compose
    from helpers import oracle_compose_value

    for seed in range(4):
        r = np.random.default_rng(seed + 4000)
        q = 1 + seed % 2
        moves = []
        ok = True
        moves = [regular_move(r, k, q, scale=0.8) for k in range(3)]
        for a, b in ((moves[0], moves[1]), (moves[1], moves[2])):
            if np.abs(np.linalg.eigvalsh(a.b + b.a)).min() < 0.4:
                ok = False
        if not ok:
            continue
        bases = [classify_step(None, moves[0].c, moves[0].a, step=0)]
        bases.append(classify_step(moves[0].c, moves[1].c, moves[0].b + moves[1].a, step=1))
        bases.append(classify_step(moves[1].c, moves[2].c, moves[1].b + moves[2].a, step=2))
        bases.append(classify_step(moves[2].c, None, moves[2].b, step=3))
        kernels = [propagator_from_move(m, bases[k], bases[k + 1])
                   for k, m in enumerate(moves)]
        k01 = compose_kernels(kernels[0], kernels[1], bases[1])
        # the second glue classifies the step against the composed data
        mid = classify_step(k01.C, kernels[2].C, k01.B + kernels[2].A, step=2)
        k03 = compose_kernels(k01, kernels[2], mid)
        eff = chain_compose(MoveSequence(q, tuple(moves)), 0, 3)
        assert_allclose(k03.A, eff.a, atol=1e-9)
        assert_allclose(k03.B, eff.b, atol=1e-9)
        assert_allclose(k03.C, eff.c, atol=1e-9)
        x0 = r.normal(size=q) * 0.4
        x3 = r.normal(size=q) * 0.4
        got = k03.smooth_value(x0, x3)
        want = oracle_compose_value(k01, kernels[2], x0, x3)
        assert abs(got - want) < 2e-6 * abs(want)


def test_compose_passthrough_deltas():
    # composing a delta-carrying kernel is fine if the delta avoids the
    # glued step; touching it raises
    m1 = QuadraticMove(0, 1, [[0.0]], [[0.5]], [[1.0]])
    m2 = QuadraticMove(1, 2, [[0.5]], [[0.0]], [[1.0]])
    b0, b1, b2 = chain_bases(m1, m2)
    k1 = propagator_from_move(m1, b0, b1)
    k2 = propagator_from_move(m2, b1, b2)
    carrier = GaussianDeltaKernel(
        in_step=0, out_step=1, hbar=1.0, amplitude=k1.amplitude,
        A=k1.A, B=k1.B, C=k1.C,
        deltas=[[1.0, 0.0]], delta_labels=("left",),
        basis_in=k1.basis_in, basis_out=k1.basis_out,
    )
    out = compose_kernels(carrier, k2, b1)
    assert out.deltas.shape[0] == 1
    assert_allclose(out.deltas[0], [1.0, 0.0])
    bad = GaussianDeltaKernel(
        in_step=0, out_step=1, hbar=1.0, amplitude=k1.amplitude,
        A=k1.A, B=k1.B, C=k1.C, deltas=[[0.0, 1.0]],
    )
    with pytest.raises(InputError):
        compose_kernels(bad, k2, b1)


def test_project_physical_lattice_post_state(square_fixture):
    fx, bases = square_fixture
    m1 = fx.sequence.moves[0]
    cons = primary_constraints(m1, None, bases[1])
    state = GaussianState(
        step=1, hbar=1.0, amplitude=Amplitude(),
        M=1j * np.eye(12), j=np.zeros(12),
    )
    out = project_physical(state, cons, "post")
    # unique state: phase = b1 quadratic form, no residual gaussian part
    assert_allclose(out.M, m1.b.astype(complex), atol=1e-10)
    assert_allclose(out.j, np.zeros(12), atol=1e-10)
    # double projection diverges
    with pytest.raises(DivergenceError):
        project_physical(out, cons, "post")


def test_project_physical_lattice_pre_state(square_fixture):
    fx, bases = square_fixture
    m2 = fx.sequence.moves[1]
    pre = [c for c in primary_constraints(None, m2, bases[1]) if c.kind == "pre"]
    state = GaussianState(
        step=1, hbar=1.0, amplitude=Amplitude(),
        M=-m2.a + 1j * np.eye(12), j=np.zeros(12),
    )
    out = project_physical(state, pre, "pre")
    # spurious rows flattened: M rows 5..12 match the -a2 phase (zero there)
    assert np.abs(out.M[4:, :]).max() < 1e-10
    assert np.abs(out.M[:, 4:]).max() < 1e-10
    # square integrable in the four pre-observables
    im_block = out.M[:4, :4].imag
    assert np.linalg.eigvalsh(0.5 * (im_block + im_block.T)).min() > 0


def test_project_empty_constraints_identity():
    state = GaussianState(0, 1.0, Amplitude(), M=1j * np.eye(2), j=np.zeros(2))
    assert project_physical(state, [], "pre") is state


def test_project_preserves_norm_quadrature(rng):
    # 1d check of the projected state against direct orbit integration
    c = LinearConstraint(0, "post", p_coeffs=[1.0, 0.0], x_coeffs=[0.0, 0.0])
    m = np.array([[2.0 + 1.0j, 0.3], [0.3, 1.5j]])
    state = GaussianState(0, 1.0, Amplitude(), M=m, j=np.array([0.1, -0.2j]))
    out = project_physical(state, [c], "post")
    # orbit integral: psi_out(x) = (2 pi)^-1 int ds psi(x + s e1)
    for x in ([0.2, -0.4], [1.0, 0.5]):
        s = np.linspace(-40, 40, 400001)
        pts = np.add.outer(s, np.zeros(2))
        pts[:, 0] += x[0]
        pts[:, 1] = x[1]
        vals = np.array([state.value(p) for p in pts[:: 400]])
        direct = np.trapezoid(vals, s[::400]) / (2 * np.pi)
        assert abs(direct - out.value(x)) < 1e-6 * max(abs(direct), 1.0)


def test_evolve_state_lattice_unique_states(square_fixture):
    fx, bases = square_fixture
    m1, m2 = fx.sequence.moves
    k1 = propagator_from_move(m1, bases[0], bases[1])
    # unique in-state 1 (no observables at step 0)
    state0 = GaussianState(0, 1.0, Amplitude(), M=np.zeros((12, 12)), j=np.zeros(12))
    out = evolve_state(k1, state0)
    assert_allclose(out.M, m1.b.astype(complex), atol=1e-12)
    assert out.amplitude.value == pytest.approx(1.0)
    # evolving through the nontrivial move solves the quantum evolution
    # equation: project the out state and feed it through k2
    k2 = propagator_from_move(m2, bases[1], bases[2])
    pre = [c for c in primary_constraints(None, m2, bases[1]) if c.kind == "pre"]
    mid = GaussianState(
        1, 1.0, Amplitude(), M=-m2.a + 1j * np.eye(12), j=np.zeros(12)
    )
    mid_phys = project_physical(mid, pre, "pre")
    out2 = evolve_state(k2, mid_phys)
    assert out2.step == 2
    # result has post-physical structure: M - b2 vanishes off the
    # observable rows of the reference basis
    t = bases[2].T
    phi = t @ (out2.M - m2.b) @ t.T
    b_rows = bases[2].post_observable_rows
    rest = np.setdiff1d(np.arange(12), b_rows)
    assert np.abs(phi[np.ix_(rest, rest)]).max() < 1e-9
    assert np.abs(phi[np.ix_(rest, b_rows)]).max() < 1e-9
    im = phi[np.ix_(b_rows, b_rows)].imag
    assert np.linalg.eigvalsh(0.5 * (im + im.T)).min() > 0


def test_evolve_state_scalar_against_quadrature():
    move = QuadraticMove(0, 1, [[0.4]], [[-0.3]], [[1.1]])
    b0 = classify_step(None, move.c, move.a, step=0)
    b1 = classify_step(move.c, None, move.b, step=1)
    k = propagator_from_move(move, b0, b1)
    # pre-physical in state: exp(-x^2/2) carries M = a_move + i
    state = GaussianState(
        0, 1.0, Amplitude(), M=np.array([[-0.4 + 1.0j]]), j=np.array([0.2 + 0.0j])
    )
    out = evolve_state(k, state)
    for x1 in (-0.7, 0.0, 1.3):
        s = np.linspace(-30, 30, 600001)
        integrand = np.array(
            [state.value([si]) * k.smooth_value([si], [x1]) for si in s[::300]]
        )
        direct = np.trapezoid(integrand, s[::300])
        assert abs(direct - out.value([x1])) < 1e-6 * max(abs(direct), 1e-3)


def test_evolve_state_support_mismatch(square_fixture):
    fx, bases = square_fixture
    m2 = fx.sequence.moves[1]
    k2 = propagator_from_move(m2, bases[1], bases[2])
    bad = GaussianState(1, 1.0, Amplitude(), M=1j * np.eye(12), j=np.zeros(12))
    with pytest.raises(InputError):
        evolve_state(k2, bad)


def test_annihilation_closure_random(rng):
    # every move propagator is annihilated by all of its primary
    # constraints, on degenerate instances of every flavour
    for seed in range(10):
        r = np.random.default_rng(seed + 50)
        sizes = {"I": 1, "H": 1, "l": 1, "lambda": 1, "r": 1, "rho": 1, "z": 1, "gamma": 1}
        m1, m2 = designed_instance(r, sizes)
        b1 = classify_step(m1.c, m2.c, m1.b + m2.a, step=1)
        b2 = classify_step(m2.c, None, m2.b, step=2)
        k = propagator_from_move(m2, b1, b2)
        for c in primary_constraints(None, m2, b1):
            assert check_annihilation(k, c, "pre")
        for c in primary_constraints(m2, None, b2):
            assert check_annihilation(k, c, "post")


def test_composition_matches_effective_module(rng):
    # phase blocks equal the composed action coefficients entrywise and
    # the delta rows are exactly the multiplier constraint rows
    for seed in range(8):
        r = np.random.default_rng(seed + 70)
        sizes = {"l": 1, "r": 1, "z": 1, "gamma": 2}
        m1, m2 = designed_instance(r, sizes)
        b0, b1, b2 = chain_bases(m1, m2)
        eff = compose(m1, m2, b1)
        k = compose_kernels(
            propagator_from_move(m1, b0, b1), propagator_from_move(m2, b1, b2), b1
        )
        assert_allclose(k.A, eff.a, atol=1e-10)
        assert_allclose(k.B, eff.b, atol=1e-10)
        assert_allclose(k.C, eff.c, atol=1e-10)
        assert k.deltas.shape[0] == len(eff.multipliers)
        q = m1.dim
        for d, rec in zip(k.deltas, eff.multipliers):
            con = rec.constraint
            in_part = con.x_part_at(0) if 0 in con.steps else np.zeros(q)
            out_part = con.x_part_at(2) if 2 in con.steps else np.zeros(q)
            assert_allclose(d, np.concatenate([in_part, out_part]), atol=1e-10)


def test_hilbert_dims_lattice_example(square_fixture):
    fx, bases = square_fixture
    m1, m2 = fx.sequence.moves
    pre1 = [c for c in primary_constraints(None, m2, bases[1]) if c.kind == "pre"]
    post2 = primary_constraints(m2, None, bases[2])
    assert hilbert_dims(pre1, 12) == 4
    assert hilbert_dims(post2, 12) == 4
    eff = compose(m1, m2, bases[1])
    from canonkit.effective import effective_constraints

    b0 = classify_step(None, eff.c, eff.a, step=0)
    b2 = classify_step(eff.c, None, eff.b, step=2)
    cons = effective_constraints(eff, b0, b2)
    pre0 = [c for c in cons if c.kind == "pre"]
    post2_eff = [c for c in cons if c.kind == "post"]
    assert hilbert_dims(pre0, 12) == 0
    assert hilbert_dims(post2_eff, 12) == 0
    assert hilbert_dims([], 12) == 12


def test_normalized_measure_unequal_observable_counts():
    # step 0 has no pre-observables, step 1 has some: no square c_AB exists,
    # which is a typed degeneracy, not numpy's LinAlgError
    from canonkit.classify import classify_sequence
    from canonkit.errors import DegeneracyError
    from canonkit.lattice import expanding_square_sequence
    from canonkit.quantum import normalized_measure

    seq = expanding_square_sequence(2).sequence
    b = classify_sequence(seq)
    k = propagator_from_move(seq.moves[0], b[0], b[1])
    assert len(b[1].pre_observable_rows) != len(b[1].post_observable_rows)
    with pytest.raises(DegeneracyError):
        normalized_measure(k, b[1], b[1])
    assert normalized_measure(k, b[0], b[1]) == k.amplitude


def test_kernel_matrices_must_be_square_and_equally_sized():
    # the kernel's phase is a QuadraticMove: a 3x3 C with 2x2 A and B is
    # rejected at construction, not by numpy at first use
    with pytest.raises(InputError, match="square and equally sized"):
        GaussianDeltaKernel(0, 1, 1.0, Amplitude(), np.eye(2), np.eye(2), np.eye(3))
    with pytest.raises(InputError, match="square and equally sized"):
        GaussianDeltaKernel(0, 1, 1.0, Amplitude(), np.eye(2), np.eye(2), np.ones((2, 3)))


@pytest.mark.parametrize("hbar", [0.0, -1.0, np.nan, np.inf])
def test_hbar_must_be_positive_and_finite(hbar):
    from canonkit.actions import MoveSequence

    move = QuadraticMove(0, 1, [[0.0]], [[0.0]], [[1.0]])
    with pytest.raises(InputError, match="hbar must be positive and finite"):
        MoveSequence(1, (move,), hbar=hbar)
    with pytest.raises(InputError, match="hbar must be positive and finite"):
        GaussianDeltaKernel(0, 1, hbar, Amplitude(), move.a, move.b, move.c)
    with pytest.raises(InputError, match="hbar must be positive and finite"):
        GaussianState(0, hbar, Amplitude(), M=[[1j]], j=[0.0])


def test_delta_labels_must_match_the_delta_rows():
    # a short label tuple once made compose_kernels drop the unlabelled rows
    with pytest.raises(InputError, match="one per delta row"):
        GaussianDeltaKernel(0, 1, 1.0, Amplitude(), np.zeros((2, 2)), np.zeros((2, 2)),
                            np.eye(2), deltas=np.eye(4)[:2], delta_labels=("only-one",))
