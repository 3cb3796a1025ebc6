"""One analysis per sequence.

Reports and CLI commands classify a sequence once and compose each step
range once.  Integrating out a step changes the classification of the next
glued step, so the quantum fold glues every step after the first at the
basis ``chain_compose`` classified against the composed data: its delta
factors are then the exact constraints of the eliminated steps.
"""

import json
import sys
from collections import Counter

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import designed_instance, regular_move

import canonkit.classify
import canonkit.constraints
import canonkit.effective
import canonkit.quantum
from canonkit import reporting, serialize
from canonkit.actions import MoveSequence, QuadraticMove
from canonkit.cli import main
from canonkit.classify import VECTOR_TYPES, classify_sequence
from canonkit.effective import chain_compose
from canonkit.errors import InputError
from canonkit.lattice import expanding_square_sequence
from canonkit.linalg import DEFAULT_TOL, numeric_rank, right_null_basis, with_scale
from canonkit.quantum import Amplitude, GaussianState


def _designed_chain(rng, q=8):
    """A regular move 0 -> 1, then a designed pair 1 -> 2 -> 3 with random
    type counts at step 2."""
    cuts = np.sort(rng.integers(0, q + 1, size=len(VECTOR_TYPES) - 1))
    sizes = dict(zip(VECTOR_TYPES, np.diff(np.concatenate([[0], cuts, [q]])).tolist()))
    first = regular_move(rng, 0, q)
    pair = (QuadraticMove(m.step_from + 1, m.step_to + 1, m.a, m.b, m.c)
            for m in designed_instance(rng, sizes))
    return MoveSequence(q, (first, *pair))


def _exact_constraint_count(seq):
    """Rank of null(H)ᵀ J, with H the Hessian of the action in the two
    eliminated steps and J its coupling to the two outer steps."""
    m0, m1, m2 = seq.moves
    zero = np.zeros((seq.dim, seq.dim))
    h = np.block([[m0.b + m1.a, m1.c], [m1.c.T, m1.b + m2.a]])
    j = np.block([[m0.c.T, zero], [zero, m2.c]])
    tol = with_scale(DEFAULT_TOL, h, j)
    null = right_null_basis(h, tol).basis
    return numeric_rank(null.T @ j, tol) if null.shape[1] else 0


def test_designed_three_move_delta_counts(tmp_path, capsys):
    rng = np.random.default_rng(2)
    path = tmp_path / "moves.json"
    for _ in range(40):
        seq = _designed_chain(rng)
        exact = _exact_constraint_count(seq)
        eff = chain_compose(seq, 0, 3)
        assert eff.provenance == (0, 1, 2, 3)
        assert sum(not rec.constraint.trivial for rec in eff.multipliers) == exact
        serialize.save_sequence(seq, path)
        capsys.readouterr()
        assert main(["quantum", "compose", "--input", str(path), "--from", "0", "--to", "3",
                     "--format", "json"]) == 0
        composed = json.loads(capsys.readouterr().out)["quantum"]["composed"]
        assert composed["delta_count"] == exact
        for key, want in (("A", eff.a), ("B", eff.b), ("C", eff.c)):
            assert_allclose(composed[key], want, rtol=0, atol=1e-9)


def _count_calls(monkeypatch, *functions):
    """Count calls of ``functions`` through every binding in canonkit's modules."""
    counts = Counter()

    def counted(fn):
        def wrapper(*args, **kwargs):
            counts[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    wrappers = {fn: counted(fn) for fn in functions}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "canonkit" or name.startswith("canonkit.")):
            for attr, value in list(vars(module).items()):
                if any(value is fn for fn in wrappers):
                    monkeypatch.setattr(module, attr, wrappers[value])
    return counts


@pytest.mark.parametrize("n_steps", [4, 16])
def test_full_report_classifies_each_step_and_range_once(monkeypatch, n_steps):
    seq = expanding_square_sequence(n_steps, mass=0.5).sequence
    counts = _count_calls(monkeypatch, canonkit.classify.classify_step,
                          canonkit.effective.effective_outer_bases)
    reporting.full_report(seq)
    # every step, the glued step of the reported range, its two outer steps
    assert counts["effective_outer_bases"] == 1
    assert counts["classify_step"] <= len(seq.steps) + 3


def test_full_report_ranks_c_eff_once(monkeypatch):
    seq = expanding_square_sequence(4, mass=0.5).sequence
    counts = _count_calls(monkeypatch, canonkit.effective.degeneracy_dims,
                          canonkit.effective.count_monotonicity_check)
    report = reporting.full_report(seq)
    # degeneracy_dims owns the monotonicity verdict: the report asks it once
    assert counts["degeneracy_dims"] == 1
    assert counts["count_monotonicity_check"] == 0
    assert report["effective"]["monotonicity_ok"] is True


def test_full_report_reads_hilbert_dims_off_the_bases(monkeypatch):
    seq = expanding_square_sequence(16, mass=0.5).sequence
    counts = _count_calls(monkeypatch, canonkit.quantum.hilbert_dims,
                          canonkit.constraints.primary_constraints)
    reporting.full_report(seq)
    assert counts["hilbert_dims"] == 0
    # one set per step, and the effective move's pre and post sets
    assert counts["primary_constraints"] == len(seq.steps) + 2
    assert not hasattr(reporting, "hilbert_dims")


def test_quantum_compose_shares_the_glued_bases(tmp_path, capsys, monkeypatch):
    path = tmp_path / "moves.json"
    serialize.save_sequence(expanding_square_sequence(4, mass=0.5).sequence, path)
    counts = _count_calls(monkeypatch, canonkit.classify.classify_step,
                          canonkit.effective.effective_outer_bases)
    assert main(["quantum", "compose", "--input", str(path), "--from", "0", "--to", "4",
                 "--format", "json"]) == 0
    # 5 steps, 3 glued steps, 2 outer steps
    assert counts["classify_step"] <= 10
    assert counts["effective_outer_bases"] == 1
    composed = json.loads(capsys.readouterr().out)["quantum"]["composed"]
    assert (composed["in_step"], composed["out_step"]) == (0, 4)


@pytest.mark.parametrize("n_steps", [2, 4, 16])
def test_composed_range_starts_from_the_sequence_basis(monkeypatch, n_steps):
    seq = expanding_square_sequence(n_steps, mass=0.5).sequence
    counts = _count_calls(monkeypatch, canonkit.classify.classify_step)
    an = reporting._Analysis(seq)
    eff, _ = an.composed(0, 2)
    # every step once, then the composed move's two outer steps only
    assert counts["classify_step"] == len(seq.steps) + 2
    assert eff.glued_bases[0] is an.bases[1]
    reporting.full_report(seq)
    assert counts["classify_step"] == 2 * (len(seq.steps) + 2)


def test_supplied_first_basis_is_reclassified_against_the_sequence_data():
    fx = expanding_square_sequence(3, mass=0.5)
    an = reporting._Analysis(fx.sequence, overrides={1: fx.basis_t1})
    eff, _ = an.composed(0, 2)
    fresh = chain_compose(fx.sequence, 0, 2, an.tol)
    assert eff.glued_bases[0] is not an.bases[1]
    assert np.array_equal(eff.glued_bases[0].T, fresh.glued_bases[0].T)
    for key in "abc":
        assert np.array_equal(getattr(eff, key), getattr(fresh, key))


def test_gaussian_state_symmetry_is_measured_against_its_scale():
    amp = Amplitude()
    # 0.09 % asymmetry is not round-off, however small the entries
    bad = 1e-9 * np.array([[1.0, 1.0], [1.0009, 1.0]]) + 1e-9j * np.eye(2)
    with pytest.raises(InputError, match=r"M must be \(complex\) symmetric"):
        GaussianState(step=0, hbar=1.0, amplitude=amp, M=bad, j=np.zeros(2))
    good = 1e-9 * np.array([[1.0, 1.0], [1.0, 1.0]]) + 1e-9j * np.eye(2)
    GaussianState(step=0, hbar=1.0, amplitude=amp, M=good, j=np.zeros(2))
    # round-off far below tol at a large scale is still symmetric
    big = 1e9 * (np.array([[1.0, 1.0 + 1e-15], [1.0, 1.0]]) + 1j * np.eye(2))
    GaussianState(step=0, hbar=1.0, amplitude=amp, M=big, j=np.zeros(2))


def test_a_gapped_sequence_is_an_input_error():
    # MoveSequence accepts the gap, so validate can report it; analysis cannot
    m1, m2 = expanding_square_sequence(2, mass=0.5).sequence.moves
    seq = MoveSequence(m1.dim, (m1, QuadraticMove(2, 3, m2.a, m2.b, m2.c)))
    for analyse in (classify_sequence, reporting.full_report):
        with pytest.raises(InputError, match=r"move 2->3 does not start where move 0->1 ends"):
            analyse(seq)
