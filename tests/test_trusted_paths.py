"""The trusted paths behind the public entries: a move's cached scale,
constraint rows built without their per-row check, kernels built from a
checked move.  Each gives bit for bit what the checking path gives, and
none checks again what its entry has checked.
"""

import sys
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import designed_instance

from canonkit import linalg
from canonkit.actions import QuadraticMove, moves_tolerance
from canonkit.classify import VECTOR_TYPES, classify_step
from canonkit.constraints import LinearConstraint, primary_constraints, secondary_constraints
from canonkit.effective import compose, effective_constraints, effective_outer_bases
from canonkit.linalg import DEFAULT_TOL, Tolerance, with_scale
from canonkit.quantum import compose_kernels, propagator_from_move

designed_sizes = st.fixed_dictionaries(
    {t: st.integers(min_value=0, max_value=2) for t in VECTOR_TYPES}
).filter(lambda s: sum(s.values()) >= 2)


def _designed_pair(sizes, seed, scale, rotate, pad):
    """A designed pair at ``scale``, rotated or not, with ``pad`` zero slots
    interleaved with the designed ones."""
    m1, m2 = designed_instance(np.random.default_rng(seed), sizes, scale=scale, rotate=rotate)
    if pad:
        q = m1.dim + pad
        slots = np.linspace(0, q - 1, m1.dim).round().astype(int)

        def embed(m):
            out = np.zeros((q, q))
            out[np.ix_(slots, slots)] = m
            return out

        m1, m2 = (QuadraticMove(m.step_from, m.step_to, *(embed(x) for x in (m.a, m.b, m.c)))
                  for m in (m1, m2))
    return m1, m2


def _same_bits(a, b):
    if a is None or b is None:
        return a is None and b is None
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype == np.float64 and a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_constraint(con, public):
    for f in fields(LinearConstraint):
        got, want = getattr(con, f.name), getattr(public, f.name)
        if f.name in ("p_coeffs", "x_coeffs", "x_coeffs_other"):
            assert _same_bits(got, want), f.name
        else:
            assert type(got) is type(want) and got == want, f.name
    # the trusted row holds its fields and nothing else
    assert vars(con).keys() == {f.name for f in fields(LinearConstraint)}


def _through_the_public_constructor(con):
    return LinearConstraint(con.step, con.kind, con.p_coeffs, con.x_coeffs, con.x_coeffs_other,
                            con.source_type, con.trivial, con.multiplier_terms)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(designed_sizes, st.integers(min_value=0, max_value=2**32 - 1),
       st.sampled_from([1e-6, 1e-3, 1.0, 1e3, 1e6]), st.booleans(), st.integers(0, 3))
def test_trusted_paths_match_the_checking_paths_bit_for_bit(sizes, seed, scale, rotate, pad):
    m1, m2 = _designed_pair(sizes, seed, scale, rotate, pad)

    # the cached move scale is with_scale's scale, under the same guard
    tol = moves_tolerance(DEFAULT_TOL, m1, m2)
    want = with_scale(DEFAULT_TOL, m1.a, m1.b, m1.c, m2.a, m2.b, m2.c)
    assert isinstance(tol, Tolerance) and tol == want and tol.scale == want.scale

    basis = classify_step(m1.c, m2.c, m1.b + m2.a, tol, step=1)
    eff = compose(m1, m2, basis, tol)
    b_from, b_to = effective_outer_bases(eff, tol)
    for cons in (primary_constraints(m1, m2, basis), secondary_constraints(m1, m2, basis, tol),
                 effective_constraints(eff, b_from, b_to, tol)):
        for con in cons:
            _same_constraint(con, _through_the_public_constructor(con))

    # the outer bases are the public classification of the effective data
    eff_tol = moves_tolerance(DEFAULT_TOL, eff)
    for got, want in zip(effective_outer_bases(eff),
                         (classify_step(None, eff.c, eff.a, eff_tol, step=0),
                          classify_step(eff.c, None, eff.b, eff_tol, step=2))):
        assert got.T.tobytes() == want.T.tobytes() and got.labels == want.labels
        assert (got.step, got.tol, got.tol.scale) == (want.step, want.tol, want.tol.scale)


def _bound(attribute):
    """(module, attribute) for every canonkit module that binds ``attribute``
    to linalg's function of that name."""
    target = getattr(linalg, attribute)
    return [(module, attribute) for name, module in list(sys.modules.items())
            if module is not None and (name == "canonkit" or name.startswith("canonkit."))
            and getattr(module, attribute, None) is target]


@pytest.fixture
def checks(monkeypatch):
    """Every data scale built (``_guarded_tolerance``, which ``with_scale`` and
    ``moves_tolerance`` build through), every array handed to ``as_matrix``
    and every ``LinearConstraint`` checked on construction."""
    seen = {"scales": 0, "as_matrix": [], "rows": 0}

    def scaled(fn):
        def wrapper(*args, **kwargs):
            seen["scales"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def matrix(fn):
        def wrapper(m):
            seen["as_matrix"].append(m)
            return fn(m)
        return wrapper

    def row(fn):
        def wrapper(self):
            seen["rows"] += 1
            return fn(self)
        return wrapper

    for attribute, wrap in (("_guarded_tolerance", scaled), ("as_matrix", matrix)):
        wrapped = wrap(getattr(linalg, attribute))
        for module, name in _bound(attribute):
            monkeypatch.setattr(module, name, wrapped)
    monkeypatch.setattr(LinearConstraint, "__post_init__", row(LinearConstraint.__post_init__))
    return seen


def _checked_again(seen, *moves):
    """The move matrices handed to ``as_matrix``, and arrays handed to it twice."""
    matrices = {id(m) for move in moves for m in (move.a, move.b, move.c)}
    ids = Counter(id(m) for m in seen["as_matrix"])
    return [i for i in ids if i in matrices or ids[i] > 1]


def test_the_pipeline_checks_no_move_again(checks):
    sizes = {"I": 1, "H": 1, "l": 1, "lambda": 2, "r": 1, "rho": 2, "z": 1, "gamma": 2}
    m1, m2 = designed_instance(np.random.default_rng(7), sizes)
    tol = moves_tolerance(DEFAULT_TOL, m1, m2)
    b0 = classify_step(None, m1.c, m1.a, tol, step=0)
    b1 = classify_step(m1.c, m2.c, m1.b + m2.a, tol, step=1)
    b2 = classify_step(m2.c, None, m2.b, tol, step=2)
    eff = compose(m1, m2, b1, tol)
    eff_tol = moves_tolerance(DEFAULT_TOL, eff)
    b_from, b_to = effective_outer_bases(eff, eff_tol)

    checks.update(scales=0, as_matrix=[], rows=0)
    k1 = propagator_from_move(m1, b0, b1)
    k2 = propagator_from_move(m2, b1, b2)
    assert checks["scales"] == 0 and not checks["as_matrix"]
    # the kernel holds the checked move itself
    assert k1.move is m1 and k2.move is m2

    for call, moves in ((lambda: compose_kernels(k1, k2, b1, tol), (m1, m2)),
                        (lambda: effective_constraints(eff, b_from, b_to, eff_tol), (eff,))):
        checks.update(scales=0, as_matrix=[], rows=0)
        call()
        assert checks["scales"] == 0 and checks["rows"] == 0
        assert not _checked_again(checks, *moves)

    # the outer steps are classified by the public classify_step, which checks
    # eff's c, a and b at its boundary; no scale is taken from them again
    checks.update(scales=0, as_matrix=[], rows=0)
    effective_outer_bases(eff, eff_tol)
    assert checks["scales"] == 0
    assert len(checks["as_matrix"]) == 4
