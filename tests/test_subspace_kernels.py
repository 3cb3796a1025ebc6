"""Principal-angle intersect/subtract against the stacked-projector oracle.

The oracle (helpers.oracle_intersect / oracle_subtract) takes the null space
of stacked complement projectors with one full SVD, and
helpers.oracle_classify_step builds the staged classification from them.
The library works from small SVDs of the subspaces' bases; labels, counts
and group spans of every classification must agree.
"""

import sys

import numpy as np
import pytest
from helpers import (
    designed_instance,
    label_groups,
    oracle_classify_step,
    oracle_intersect,
    oracle_subtract,
    random_orthogonal,
)

import canonkit.classify as classify
from canonkit.classify import VECTOR_TYPES, classify_sequence, classify_step
from canonkit.lattice import expanding_square_sequence
from canonkit.linalg import Subspace, empty_subspace, full_space, intersect, subtract


def _oracle(monkeypatch, fn):
    # classify_step works on row arrays, so the oracle stands in for the
    # whole staged construction, wherever classify_step is bound
    with monkeypatch.context() as m:
        m.setattr(classify, "classify_step", oracle_classify_step)
        m.setattr(sys.modules[__name__], "classify_step", oracle_classify_step)
        return fn()


def _assert_same_classification(new, old):
    assert new.labels == old.labels
    assert new.counts == old.counts
    groups_new, groups_old = label_groups(new), label_groups(old)
    for t in VECTOR_TYPES:
        assert groups_new[t].same_span(groups_old[t]), t


def _span(rng, q, k, extra=None):
    """Orthonormal basis of a random k-dim subspace, optionally containing
    the columns of ``extra``."""
    cols = rng.normal(size=(q, k))
    if extra is not None:
        cols[:, : extra.shape[1]] = extra
    return Subspace(q, np.linalg.qr(cols)[0])


@pytest.mark.parametrize("n_steps", [2, 4, 8])
@pytest.mark.parametrize("mass", [0.0, 0.5])
def test_square_matches_oracle(monkeypatch, n_steps, mass):
    seq = expanding_square_sequence(n_steps, mass=mass).sequence
    new = classify_sequence(seq)
    old = _oracle(monkeypatch, lambda: classify_sequence(seq))
    for n in seq.steps:
        _assert_same_classification(new[n], old[n])


def test_designed_instances_match_oracle(monkeypatch):
    rng = np.random.default_rng(11)
    empty_seen = 0
    for _ in range(36):
        q = int(rng.integers(4, 21))
        cuts = np.sort(rng.integers(0, q + 1, size=7))
        sizes = dict(zip(VECTOR_TYPES, np.diff(np.concatenate([[0], cuts, [q]])).tolist()))
        empty_seen += sum(1 for v in sizes.values() if v == 0)
        m1, m2 = designed_instance(rng, sizes, scale=10.0 ** rng.uniform(-2, 2))
        for args in ((m1.c, m2.c, m1.b + m2.a), (None, m1.c, m1.a), (m2.c, None, m2.b)):
            new = classify_step(*args)
            old = _oracle(monkeypatch, lambda: classify_step(*args))
            _assert_same_classification(new, old)
        mid = classify_step(m1.c, m2.c, m1.b + m2.a)
        assert mid.counts == sizes
    assert empty_seen > 0


def test_intersect_matches_oracle_span(rng):
    q = 12
    shared = np.linalg.qr(rng.normal(size=(q, 3)))[0]
    s1 = _span(rng, q, 7, shared)
    s2 = _span(rng, q, 6, shared)
    for a, b in ((s1, s2), (s2, s1), (s1, full_space(q)), (s1, empty_subspace(q))):
        new = intersect(a, b)
        assert new.same_span(oracle_intersect(a, b))
    assert intersect(s1, s2).dim == 3


def test_subtract_matches_oracle_span(rng):
    q = 10
    s = _span(rng, q, 7)
    inner = Subspace(q, s.basis @ random_orthogonal(rng, 7)[:, :3])
    other = Subspace(q, s.basis @ random_orthogonal(rng, 7)[:, :2])
    cases = ((s, ()), (s, (inner,)), (s, (inner, other)), (s, (empty_subspace(q),)),
             (full_space(q), (inner, other)), (empty_subspace(q), (inner,)))
    for base, excluded in cases:
        new = subtract(base, *excluded)
        assert new.same_span(oracle_subtract(base, *excluded))
        for e in excluded:
            if e.dim and new.dim:
                assert np.abs(e.basis.T @ new.basis).max() < 1e-12


def test_small_angle_decided_on_sines():
    # two lines at angle 1e-7: the cosine differs from 1 by 5e-15, far below
    # any cut, but the sine 1e-7 is far above 4*Q*tol = 1.2e-9
    theta = 1e-7
    a = Subspace(3, np.array([[1.0], [0.0], [0.0]]))
    b = Subspace(3, np.array([[np.cos(theta)], [np.sin(theta)], [0.0]]))
    assert intersect(a, b).dim == 0
    assert oracle_intersect(a, b).dim == 0
    # round-off-sized angles still count as the same direction
    c = Subspace(3, np.array([[np.cos(1e-14)], [np.sin(1e-14)], [0.0]]))
    assert intersect(a, c).dim == 1
    assert oracle_intersect(a, c).dim == 1


def test_subtract_deterministic_and_sign_fixed(rng):
    s = _span(rng, 9, 6)
    e = Subspace(9, s.basis @ random_orthogonal(rng, 6)[:, :2])
    a, b = subtract(s, e), subtract(s, e)
    assert a.basis.tobytes() == b.basis.tobytes()
    for v in a.basis.T:
        assert v[np.argmax(np.abs(v))] > 0
