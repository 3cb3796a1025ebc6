"""The one zero rule of ``linalg``: every rank, membership and residual
decision is made against the problem's scale.

``zero_cut`` = ``tol * n * max(ref, scale)``; the scale is the largest
|entry| of the data, carried by a ``Tolerance`` built once per sequence or
move pair (``moves_tolerance``) or from a call's own matrices.  The
regressions pin the cases where a private scale gave a wrong answer:
round-off of a vanishing cross matrix read as full rank (noisy square), an
absolute multiplier-term cut that dropped the terms of a small-scale
problem, and a bracket cut floored at 1 that made its second-class
constraints first class.  The ``hypothesis`` suites check the paper's structural invariants
on designed instances that are scaled, rotated, zero-padded or perturbed by
round-off far below ``tol``.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import designed_instance, random_orthogonal

from canonkit.actions import MoveSequence, QuadraticMove, moves_tolerance, validate
from canonkit.classify import VECTOR_TYPES, classify_rows, classify_sequence, classify_step, label_for
from canonkit.constraints import bracket_table, primary_constraints
from canonkit.effective import (
    compose,
    count_monotonicity_check,
    degeneracy_dims,
    effective_constraints,
    effective_outer_bases,
)
from canonkit.errors import InputError
from canonkit.evolution import dof_report
from canonkit.lattice import expanding_square_sequence
from canonkit.linalg import (
    DEFAULT_TOL,
    Tolerance,
    asymmetry,
    left_null_basis,
    numeric_rank,
    restricted_inverse,
    right_null_basis,
    with_scale,
    zero_cut,
)
from canonkit.quantum import check_annihilation, compose_kernels, hilbert_dims, propagator_from_move
from canonkit.reporting import full_report

EVERY_TYPE = {t: 2 for t in VECTOR_TYPES}


def nonzero(counts):
    return {t: n for t, n in counts.items() if n}


def noisy_square(n, mass, seed=0):
    """The expanding square with 1e-14 N(0, 1) added to every entry of every c."""
    seq = expanding_square_sequence(n, mass=mass).sequence
    rng = np.random.default_rng(seed)
    moves = tuple(replace(m, c=m.c + 1e-14 * rng.normal(size=m.c.shape)) for m in seq.moves)
    return seq, MoveSequence(seq.dim, moves, hbar=seq.hbar)


# -- the rule ------------------------------------------------------------------


def test_tolerance_is_a_float_that_carries_its_scale():
    tol = Tolerance(1e-10, 4.0)
    assert tol == 1e-10 and isinstance(tol, float) and tol.scale == 4.0
    assert with_scale(tol, np.full((2, 2), 1e6)) is tol
    assert with_scale(1e-10, None, np.array([[1.0, -3.0]]), np.zeros((0, 0))).scale == 3.0
    assert with_scale(1e-10).scale == 0.0
    with pytest.raises(InputError):
        Tolerance(0.0, 1.0)


def test_zero_cut_is_tol_n_max_of_reference_and_scale():
    assert zero_cut(1e-10, 4, 2.0) == pytest.approx(8e-10)
    assert zero_cut(Tolerance(1e-10, 5.0), 4, 2.0) == pytest.approx(2e-9)
    assert zero_cut(Tolerance(1e-10, 5.0), 4) == pytest.approx(2e-9)
    np.testing.assert_allclose(zero_cut(Tolerance(1e-10, 1.0), 2, np.array([0.5, 3.0])),
                               [2e-10, 6e-10])


def test_round_off_block_has_rank_zero_against_the_problem_scale():
    noise = 1e-15 * np.random.default_rng(0).normal(size=(6, 6))
    # measured against itself the noise has full rank; against data of
    # scale 1 it is numerically zero
    assert numeric_rank(noise) == 6
    assert numeric_rank(noise, Tolerance(DEFAULT_TOL, 1.0)) == 0
    assert right_null_basis(noise, Tolerance(DEFAULT_TOL, 1.0)).dim == 6


def test_one_symmetry_check_for_validate_classify_and_restricted_inverse():
    a = np.array([[2.0, 1.0], [1.0 + 1e-6, 3.0]])
    assert asymmetry(a, DEFAULT_TOL) == pytest.approx(1e-6)
    assert asymmetry(0.5 * (a + a.T), DEFAULT_TOL) == 0.0
    with pytest.raises(InputError, match="Hessian must be symmetric"):
        classify_step(None, None, a)
    with pytest.raises(InputError, match="matrix must be symmetric"):
        restricted_inverse(a, right_null_basis(np.zeros((0, 2))))
    move = QuadraticMove(0, 1, a, np.eye(2), np.eye(2))
    findings = validate(MoveSequence(2, (move,)))
    assert len(findings) == 1 and "a asymmetric (max defect 1.000e-06)" in findings[0]


# -- regressions ---------------------------------------------------------------


def test_noisy_square_keeps_its_classification():
    clean, noisy = noisy_square(4, 0.5)
    bases = classify_sequence(noisy)
    assert nonzero(bases[0].counts) == {"I": 28}
    assert nonzero(bases[1].counts) == {"I": 24, "rho": 4}
    want = classify_sequence(clean)
    assert all(bases[n].counts == want[n].counts for n in clean.steps)
    # a plain float tol takes the scale of the step's own three matrices
    step1 = classify_step(noisy.moves[0].c, noisy.moves[1].c, noisy.hessian(1), step=1)
    assert step1.counts == want[1].counts
    mats = (noisy.moves[0].c, noisy.moves[1].c, noisy.hessian(1))
    assert tuple(label_for(row, *mats) for row in want[1].T) == want[1].labels


@pytest.mark.parametrize("mass", [0.0, 0.5])
def test_noisy_square_report_matches_the_clean_report(mass):
    clean, noisy = noisy_square(3, mass, seed=1)
    got, want = full_report(noisy), full_report(clean)
    for key in ("steps", "dof"):
        assert got[key].keys() == want[key].keys()
    for n, sec in want["steps"].items():
        assert got["steps"][n]["counts"] == sec["counts"]
        assert got["steps"][n]["labels"] == sec["labels"]
    for n, sec in want["dof"].items():
        assert got["dof"][n]["n_through"] == sec["n_through"]
    for n, sec in want["constraints"].items():
        assert got["constraints"][n]["all_first_class"] == sec["all_first_class"]
        assert got["constraints"][n]["m_lambda_rho"] == sec["m_lambda_rho"]


def _multiplier_terms(scale, seed):
    m1, m2 = designed_instance(np.random.default_rng(seed), EVERY_TYPE, scale=scale)
    eff = compose(m1, m2, classify_step(m1.c, m2.c, m1.b + m2.a, step=1))
    b_from, b_to = effective_outer_bases(eff)
    return sum(len(c.multiplier_terms) for c in effective_constraints(eff, b_from, b_to))


@pytest.mark.parametrize("seed", range(20))
def test_multiplier_terms_do_not_depend_on_the_overall_scale(seed):
    counts = [_multiplier_terms(scale, seed) for scale in (1e-9, 1.0, 1e9)]
    assert counts[0] == counts[1] == counts[2] > 0


def _bracket_split(scale, seed):
    m1, m2 = designed_instance(np.random.default_rng(seed), EVERY_TYPE, scale=scale)
    h = m1.b + m2.a
    basis = classify_step(m1.c, m2.c, h, step=1)
    table = bracket_table(primary_constraints(m1, m2, basis), h, basis)
    return table.class_split, table.m_lambda_rho


@pytest.mark.parametrize("seed", range(5))
def test_first_and_second_class_do_not_depend_on_the_overall_scale(seed):
    splits = [_bracket_split(scale, seed) for scale in (1e-9, 1.0, 1e9)]
    assert splits[0] == splits[1] == splits[2]
    assert "second" in splits[1][0] and splits[1][1] > 0


@pytest.mark.parametrize("sizes", [
    {"I": 1, "H": 2, "l": 2, "r": 1, "rho": 2, "z": 1},
    {"H": 1, "l": 1, "lambda": 2, "r": 2, "z": 2},
    {"I": 2, "l": 3, "r": 1, "rho": 1},
])
def test_vanishing_effective_cross_matrix_has_full_null_space(sizes):
    # without lambda and gamma rows (or rho and gamma rows) c~ vanishes
    # exactly; its round-off must not read as rank
    for seed in range(5):
        m1, m2 = designed_instance(np.random.default_rng(seed), sizes)
        eff = compose(m1, m2, classify_step(m1.c, m2.c, m1.b + m2.a, step=1))
        assert count_monotonicity_check(m1, m2, eff)
        assert degeneracy_dims(m1, m2, eff)["c_eff"] == m1.dim


def test_row_labels_match_label_for_and_the_default_classification():
    seq = expanding_square_sequence(6, mass=0.5).sequence
    bases = classify_sequence(seq)
    relabelled = classify_sequence(seq, overrides={n: bases[n].T for n in seq.steps})
    for n in seq.steps:
        assert relabelled[n].labels == bases[n].labels
    m_in, m_out = seq.move_into(3), seq.move_out_of(3)
    basis = classify_rows(bases[3].T, m_in.c, m_out.c, seq.hessian(3))
    assert basis.labels == tuple(label_for(row, m_in.c, m_out.c, seq.hessian(3))
                                 for row in bases[3].T)


# -- invariants under scaling, rotation, padding and round-off -------------------


def _conjugated(m1, m2, rng):
    o0, o1, o2 = (random_orthogonal(rng, m1.dim) for _ in range(3))
    return (QuadraticMove(0, 1, o0.T @ m1.a @ o0, o1.T @ m1.b @ o1, o0.T @ m1.c @ o1),
            QuadraticMove(1, 2, o1.T @ m2.a @ o1, o2.T @ m2.b @ o2, o1.T @ m2.c @ o2))


def _padded(m1, m2, k):
    pad = lambda mat: np.pad(mat, (0, k))
    return tuple(QuadraticMove(m.step_from, m.step_to, pad(m.a), pad(m.b), pad(m.c))
                 for m in (m1, m2))


def _perturbed(m1, m2, rng):
    scale = max(np.abs(mat).max() for m in (m1, m2) for mat in (m.a, m.b, m.c))

    def noise(mat, symmetric):
        e = 1e-14 * scale * rng.normal(size=mat.shape)
        return mat + (0.5 * (e + e.T) if symmetric else e)

    return tuple(QuadraticMove(m.step_from, m.step_to, noise(m.a, True), noise(m.b, True),
                               noise(m.c, False)) for m in (m1, m2))


def transformed(sizes, seed, kind):
    """A designed chain under one transform, and the middle-step counts it
    must keep."""
    rng = np.random.default_rng(seed)
    m1, m2 = designed_instance(rng, sizes)
    want = dict(sizes)
    if kind in ("1e-8", "1e8"):
        m1, m2 = m1.scaled(float(kind)), m2.scaled(float(kind))
    elif kind == "rotate":
        m1, m2 = _conjugated(m1, m2, rng)
    elif kind == "pad":
        m1, m2 = _padded(m1, m2, 3)
        want["I"] += 3
    elif kind == "noise":
        m1, m2 = _perturbed(m1, m2, rng)
    return m1, m2, want


sizes_strategy = st.fixed_dictionaries(
    {t: st.integers(min_value=0, max_value=2) for t in VECTOR_TYPES}
).filter(lambda s: sum(s.values()) >= 1)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
kinds = st.sampled_from(["1e-8", "1e8", "rotate", "pad", "noise"])
INVARIANTS = settings(max_examples=60, deadline=None, derandomize=True)


@INVARIANTS
@given(sizes_strategy, seeds, kinds)
def test_type_counts_sum_to_q_and_match_the_null_dimensions(sizes, seed, kind):
    m1, m2, want = transformed(sizes, seed, kind)
    tol = moves_tolerance(DEFAULT_TOL, m1, m2)
    h = m1.b + m2.a
    basis = classify_step(m1.c, m2.c, h, tol, step=1)
    c = basis.counts
    assert c == {t: want.get(t, 0) for t in VECTOR_TYPES}
    assert sum(c.values()) == m1.dim
    assert right_null_basis(m1.c, tol).dim == c["I"] + c["H"] + c["r"] + c["rho"]
    assert right_null_basis(m2.c.T, tol).dim == c["I"] + c["H"] + c["l"] + c["lambda"]
    assert right_null_basis(h, tol).dim == c["I"] + c["l"] + c["r"] + c["z"]


@INVARIANTS
@given(sizes_strategy, seeds, kinds)
def test_degenerate_directions_never_drop_under_composition(sizes, seed, kind):
    m1, m2, _ = transformed(sizes, seed, kind)
    tol = moves_tolerance(DEFAULT_TOL, m1, m2)
    bases = [classify_step(None, m1.c, m1.a, tol, step=0),
             classify_step(m1.c, m2.c, m1.b + m2.a, tol, step=1),
             classify_step(m2.c, None, m2.b, tol, step=2)]
    # the two reduced-phase-space counts agree (dof_report raises otherwise)
    dof_report(m1, m2, *bases)
    eff = compose(m1, m2, bases[1])
    assert count_monotonicity_check(m1, m2, eff)
    d = degeneracy_dims(m1, m2, eff)
    assert d["c_eff"] >= max(d["c1"], d["c2"], d["h"])


@INVARIANTS
@given(sizes_strategy, seeds, st.integers(min_value=-6, max_value=6),
       st.integers(min_value=0, max_value=5))
def test_degeneracy_dims_are_the_null_basis_dimensions_at_the_moves_scale(sizes, seed, k, pad):
    # degeneracy_dims reads c1, c2 and h from the glued step's label counts;
    # scaled, rotated and zero-padded, they are the null dimensions that
    # right_null_basis and left_null_basis find at the moves' Tolerance
    rng = np.random.default_rng(seed)
    m1, m2 = designed_instance(rng, sizes)
    m1, m2 = _padded(*_conjugated(m1.scaled(10.0 ** k), m2.scaled(10.0 ** k), rng), pad)
    tol = moves_tolerance(DEFAULT_TOL, m1, m2)
    h = m1.b + m2.a
    eff = compose(m1, m2, classify_step(m1.c, m2.c, h, tol, step=1), tol)
    d = degeneracy_dims(m1, m2, eff)
    assert (d["c1"], d["c2"], d["h"]) == (right_null_basis(m1.c, tol).dim,
                                          left_null_basis(m2.c, tol).dim,
                                          right_null_basis(h, tol).dim)
    assert count_monotonicity_check(m1, m2, eff)


@INVARIANTS
@given(sizes_strategy, seeds, kinds)
def test_primary_constraints_annihilate_the_kernels(sizes, seed, kind):
    m1, m2, _ = transformed(sizes, seed, kind)
    tol = moves_tolerance(DEFAULT_TOL, m1, m2)
    b0 = classify_step(None, m1.c, m1.a, tol, step=0)
    b1 = classify_step(m1.c, m2.c, m1.b + m2.a, tol, step=1)
    b2 = classify_step(m2.c, None, m2.b, tol, step=2)
    k1 = propagator_from_move(m1, b0, b1, tol=tol)
    k2 = propagator_from_move(m2, b1, b2, tol=tol)
    k02 = compose_kernels(k1, k2, b1, tol)
    for kernel, move, b_from, b_to in ((k1, m1, b0, b1), (k2, m2, b1, b2), (k02, None, b0, b2)):
        move = move or kernel.move
        for con in primary_constraints(None, move, b_from):
            assert check_annihilation(kernel, con, "pre")
        for con in primary_constraints(move, None, b_to):
            assert check_annihilation(kernel, con, "post")


@INVARIANTS
@given(sizes_strategy, seeds, kinds, st.integers(min_value=0, max_value=3))
def test_primary_constraint_ranks_give_the_observable_counts(sizes, seed, kind, pad):
    # zero-padded slots give constraint rows with no x part; ranked next to
    # x at scale 1e8, not on x/scale, they read as round-off
    m1, m2 = _padded(*transformed(sizes, seed, kind)[:2], pad)
    pair_tol = moves_tolerance(DEFAULT_TOL, m1, m2)
    b0 = classify_step(None, m1.c, m1.a, pair_tol, step=0)
    b1 = classify_step(m1.c, m2.c, m1.b + m2.a, pair_tol, step=1)
    b2 = classify_step(m2.c, None, m2.b, pair_tol, step=2)
    for tol in (DEFAULT_TOL, pair_tol):
        for move, b_from, b_to in ((m1, b0, b1), (m2, b1, b2)):
            pre = primary_constraints(None, move, b_from)
            post = primary_constraints(move, None, b_to)
            assert hilbert_dims(pre, move.dim, tol) == len(b_from.pre_observable_rows)
            assert hilbert_dims(post, move.dim, tol) == len(b_to.post_observable_rows)


@INVARIANTS
@given(sizes_strategy.filter(lambda s: sum(s.values()) > s["I"]), seeds,
       st.integers(min_value=1, max_value=4))
def test_zero_padded_slots_are_unit_gauge_rows_of_the_unpadded_basis(sizes, seed, k):
    # every slot of a designed instance with a non-I type is active, so the
    # padded step classifies the unpadded matrices and adds one unit I row
    # per padded slot, after the active I rows
    rng = np.random.default_rng(seed)
    m1, m2 = designed_instance(rng, sizes)
    q = m1.dim
    slots = np.sort(rng.choice(q + k, size=q, replace=False))

    def embed(m):
        out = np.zeros((q + k, q + k))
        out[np.ix_(slots, slots)] = m
        return out

    tol = moves_tolerance(DEFAULT_TOL, m1, m2)
    h = m1.b + m2.a
    want = classify_step(m1.c, m2.c, h, tol, step=1)
    got = classify_step(embed(m1.c), embed(m2.c), embed(h), tol, step=1)
    rows = np.zeros((q, q + k))
    rows[:, slots] = want.T
    n_i = want.counts["I"]
    units = np.delete(np.eye(q + k), slots, axis=0)
    assert np.array_equal(got.T, np.vstack([rows[:n_i], units, rows[n_i:]]))
    assert got.labels == want.labels[:n_i] + ("I",) * k + want.labels[n_i:]


# -- Hilbert dimensions and brackets measure p and x in their own units -----------


@pytest.mark.parametrize("n_steps", [3, 4])
@pytest.mark.parametrize("scale", [1e8, 1e-8])
def test_scaled_square_report_keeps_its_hilbert_dims(n_steps, scale):
    seq = expanding_square_sequence(n_steps, mass=0.5).sequence
    scaled = MoveSequence(seq.dim, tuple(m.scaled(scale) for m in seq.moves), hbar=seq.hbar)
    assert (full_report(scaled)["quantum"]["hilbert_dims"]
            == full_report(seq)["quantum"]["hilbert_dims"])


def test_bracket_table_without_h_splits_as_with_h():
    # without h a plain float tol is measured against the largest |x
    # coefficient|, never against the table's own round-off
    m1, m2 = designed_instance(np.random.default_rng(3),
                               {"I": 2, "l": 2, "lambda": 2, "r": 1, "z": 1, "gamma": 2})
    h = m1.b + m2.a
    basis = classify_step(m1.c, m2.c, h, step=1)
    cases = [(primary_constraints(m1, m2, basis), h, basis)]
    seq = expanding_square_sequence(4, mass=0.5).sequence
    bases = classify_sequence(seq)
    cases += [(primary_constraints(seq.move_into(n), seq.move_out_of(n), bases[n]),
               seq.hessian(n), bases[n]) for n in (2, 3, 4)]
    for cons, h, basis in cases:
        want = bracket_table(cons, h, basis).class_split
        assert bracket_table(cons, None, basis).class_split == want
