"""Matrix-form Poisson brackets against the pairwise poisson_bracket loop."""

import dataclasses

import numpy as np
import pytest
from helpers import designed_instance

import canonkit.constraints as constraints
from canonkit.classify import classify_step, m_lambda_rho
from canonkit.constraints import (
    LinearConstraint,
    bracket_table,
    poisson_bracket,
    primary_constraints,
    secondary_constraints,
)
from canonkit.errors import InputError
from canonkit.quantum import _abelian_or_raise

TOL = 1e-10


def _pairwise(cons):
    n = len(cons)
    ref = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                ref[i, j] = poisson_bracket(cons[i], cons[j])
    return ref


def _pairwise_tags(ref):
    n = ref.shape[0]
    scale = max(np.abs(ref).max() if ref.size else 0.0, 1.0)
    return tuple("first" if np.abs(ref[i]).max() <= TOL * n * scale else "second"
                 for i in range(n))


def _middle(rng, sizes, scale=1.0):
    m1, m2 = designed_instance(rng, sizes, scale=scale)
    h = m1.b + m2.a
    return m1, m2, h, classify_step(m1.c, m2.c, h, step=1)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_matrix_table_matches_pairwise(rng, scale):
    sizes = {"I": 2, "H": 2, "l": 1, "lambda": 3, "r": 1, "rho": 2, "z": 1, "gamma": 3}
    m1, m2, h, basis = _middle(rng, sizes, scale)
    cons = primary_constraints(m1, m2, basis)
    table = bracket_table(cons, h, basis)
    ref = _pairwise(cons)
    assert table.brackets.shape == ref.shape
    np.testing.assert_allclose(table.brackets, ref, rtol=0,
                               atol=1e-13 * max(np.abs(ref).max(), 1.0))
    assert np.array_equal(table.brackets, -table.brackets.T)
    assert not np.any(np.diag(table.brackets))
    assert table.class_split == _pairwise_tags(ref)
    assert "second" in table.class_split and "first" in table.class_split
    assert table.m_lambda_rho == m_lambda_rho(basis, h)


def test_lattice_table_matches_pairwise(square_fixture):
    fx, bases = square_fixture
    seq = fx.sequence
    cons = primary_constraints(seq.move_into(1), seq.move_out_of(1), bases[1])
    table = bracket_table(cons, seq.hessian(1), bases[1])
    ref = _pairwise(cons)
    np.testing.assert_allclose(table.brackets, ref, rtol=0, atol=1e-13)
    assert table.class_split == _pairwise_tags(ref)


def test_single_step_set_makes_no_pairwise_calls(rng, monkeypatch):
    m1, m2, h, basis = _middle(rng, {"I": 1, "H": 2, "lambda": 2, "rho": 1, "gamma": 2})
    calls = []
    monkeypatch.setattr(constraints, "poisson_bracket",
                        lambda *a: calls.append(a) or poisson_bracket(*a))
    bracket_table(primary_constraints(m1, m2, basis), h, basis)
    assert calls == []


def test_boundary_data_set_takes_pairwise_path(rng, monkeypatch):
    sizes = {"I": 1, "H": 1, "l": 2, "lambda": 1, "r": 1, "rho": 1, "z": 2, "gamma": 2}
    m1, m2, h, basis = _middle(rng, sizes)
    basis0 = classify_step(None, m1.c, m1.a, step=0)
    secondary = secondary_constraints(m1, m2, basis)
    mixed = primary_constraints(None, m1, basis0) + [
        c for c in secondary if c.kind in ("boundary_data", "holonomic_left")
    ]
    assert any(c.kind == "boundary_data" for c in mixed)
    calls = []
    monkeypatch.setattr(constraints, "poisson_bracket",
                        lambda *a: calls.append(a) or poisson_bracket(*a))
    table = bracket_table(mixed, m1.a, basis0)
    n = len(mixed)
    assert len(calls) == n * (n - 1) // 2
    ref = _pairwise(mixed)
    np.testing.assert_array_equal(table.brackets, ref)
    assert table.class_split == _pairwise_tags(ref)


def test_abelian_check_accepts_lattice_sets(square_fixture):
    fx, bases = square_fixture
    seq = fx.sequence
    for n in seq.steps:
        for cons in (primary_constraints(None, seq.move_out_of(n), bases[n])
                     if seq.move_out_of(n) else [],
                     primary_constraints(seq.move_into(n), None, bases[n])
                     if seq.move_into(n) else []):
            assert _abelian_or_raise(cons, TOL) == cons


def _lin(p, x, step=0):
    return LinearConstraint(step=step, kind="pre", p_coeffs=np.asarray(p, float),
                            x_coeffs=np.asarray(x, float))


def test_abelian_check_raises_on_conjugate_pair():
    pair = [_lin([1.0, 0.0, 0.0], [0.0, 0.0, 0.0]), _lin([0.0, 0.0, 0.0], [1.0, 0.0, 0.0])]
    with pytest.raises(InputError):
        _abelian_or_raise(pair, TOL)


def test_abelian_threshold_is_per_pair():
    # a bracket of 1 between coefficients of scale 1e6 and 1e-6 is round-off
    # against the pair's limit tol*Q*(1e6)**2 = 300; between two unit-scale
    # constraints the same bracket is far above their limit 3e-10
    big = _lin([1e6, 0.0, 0.0], [0.0, 0.0, 0.0])
    small = _lin([0.0, 0.0, 0.0], [1e-6, 0.0, 0.0])
    assert len(_abelian_or_raise([big, small], TOL)) == 2
    unit_p = _lin([0.0, 1.0, 0.0], [0.0, 0.0, 0.0])
    unit_x = _lin([0.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    assert len(_abelian_or_raise([big, small, unit_p], TOL)) == 3
    with pytest.raises(InputError):
        _abelian_or_raise([big, small, unit_p, unit_x], TOL)


def _corrupt(con, part, bad):
    """A copy of ``con`` with one coefficient of ``part`` set to ``bad``."""
    field = {"p": "p_coeffs", "x": "x_coeffs", "far": "x_coeffs_other"}[part]
    coeffs = getattr(con, field).copy()
    coeffs[0] = bad
    return dataclasses.replace(con, **{field: coeffs})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("part", ["p", "x"])
@pytest.mark.parametrize("with_h", [True, False])
def test_single_step_table_rejects_non_finite_coefficients(rng, bad, part, with_h):
    m1, m2, h, basis = _middle(rng, {"I": 1, "H": 2, "lambda": 2, "rho": 1, "gamma": 2})
    cons = primary_constraints(m1, m2, basis)
    cons[1] = _corrupt(cons[1], part, bad)
    with pytest.raises(InputError, match="finite"):
        bracket_table(cons, h if with_h else None, basis)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("part", ["p", "x", "far"])
@pytest.mark.parametrize("with_h", [True, False])
def test_pairwise_table_rejects_non_finite_coefficients(rng, monkeypatch, bad, part, with_h):
    sizes = {"I": 1, "H": 1, "l": 2, "lambda": 1, "r": 1, "rho": 1, "z": 2, "gamma": 2}
    m1, m2, h, basis = _middle(rng, sizes)
    basis0 = classify_step(None, m1.c, m1.a, step=0)
    secondary = secondary_constraints(m1, m2, basis)
    mixed = primary_constraints(None, m1, basis0) + [
        c for c in secondary if c.kind in ("boundary_data", "holonomic_left")
    ]
    # a primary constraint carries the bad p, a boundary-data one the bad x or far x
    k = 0 if part == "p" else next(i for i, c in enumerate(mixed) if c.kind == "boundary_data")
    mixed[k] = _corrupt(mixed[k], part, bad)
    calls = []
    monkeypatch.setattr(constraints, "poisson_bracket",
                        lambda *a: calls.append(a) or poisson_bracket(*a))
    with pytest.raises(InputError, match="finite"):
        bracket_table(mixed, m1.a if with_h else None, basis0)
    # the set is rejected before any pair is bracketed
    assert calls == []
