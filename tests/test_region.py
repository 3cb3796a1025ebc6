"""The region alone fixes the outer constraint counts (ROADMAP item 1).

``helpers.region_constraint_counts`` reads them off the stacked action of
the whole region.  The chains start with a regular move 0 -> 1, then a
designed two-move instance 1 -> 2 -> 3 with type sizes 0-2 and one extra
gamma: folded forward, step 1 emits no record and every record of step 2
lives at an outer step; folded in reverse, the designed step is glued
first and its r and z records reach the step glued next.
"""

from dataclasses import replace

import numpy as np
import pytest

from helpers import designed_instance, region_constraint_counts, regular_move, reverse_sequence

from canonkit.actions import MoveSequence, QuadraticMove
from canonkit.classify import VECTOR_TYPES, classify_step
from canonkit.effective import chain_compose, effective_outer_bases

SEEDS = range(1000, 1020)


def regular_first_chain(seed):
    rng = np.random.default_rng(seed)
    sizes = {t: int(rng.integers(0, 3)) for t in VECTOR_TYPES}
    sizes["gamma"] += 1
    m1, m2 = designed_instance(rng, sizes)
    return MoveSequence(m1.dim, (regular_move(rng, 0, m1.dim), replace(m1, step_from=1, step_to=2),
                                 replace(m2, step_from=2, step_to=3)))


def folded_counts(seq):
    """The outer constraint counts of ``chain_compose`` over the whole
    sequence: pre-constraint rows at its first step, post at its last."""
    b_from, b_to = effective_outer_bases(chain_compose(seq, seq.first_step, seq.last_step))
    return len(b_from.left_rows), len(b_to.right_rows)


def test_one_move_region_counts_the_null_spaces_of_c():
    rng = np.random.default_rng(7)
    c = rng.normal(size=(5, 3)) @ rng.normal(size=(3, 5))
    move = QuadraticMove(0, 1, np.eye(5), -np.eye(5), c)
    pre = classify_step(None, c, move.a, step=0)
    post = classify_step(c, None, move.b, step=1)
    assert region_constraint_counts(MoveSequence(5, (move,))) == (2, 2)
    assert (len(pre.left_rows), len(post.right_rows)) == (2, 2)


@pytest.mark.parametrize("seed", SEEDS)
def test_the_region_oracle_is_reversal_symmetric(seed):
    seq = regular_first_chain(seed)
    pre, post = region_constraint_counts(seq)
    assert region_constraint_counts(reverse_sequence(seq)) == (post, pre)


def test_the_forward_fold_matches_the_region():
    for seed in SEEDS:
        seq = regular_first_chain(seed)
        assert folded_counts(seq) == region_constraint_counts(seq), seed


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_the_reversed_fold_matches_the_region():
    for seed in SEEDS:
        seq = reverse_sequence(regular_first_chain(seed))
        assert folded_counts(seq) == region_constraint_counts(seq), seed
