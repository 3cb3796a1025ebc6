"""The stacked constraint products and the report's row conversion are exact:
bit for bit the per-row products, the per-pair dot products and
``ndarray.tolist``; and the writer's row memo lives for one call only."""

import json
import math
import struct

import numpy as np
import pytest

from helpers import designed_instance

from canonkit import serialize
from canonkit.actions import QuadraticMove, moves_tolerance
from canonkit.classify import classify_sequence, classify_step
from canonkit.constraints import primary_constraints, secondary_constraints
from canonkit.effective import compose, effective_constraints, effective_outer_bases
from canonkit.lattice import expanding_square_sequence
from canonkit.linalg import DEFAULT_TOL, zero_cut
from canonkit.serialize import float_rows

SIZES = [
    {"I": 1, "H": 1, "l": 1, "lambda": 2, "r": 1, "rho": 2, "z": 1, "gamma": 3},
    {"I": 2, "H": 2, "l": 2, "lambda": 3, "r": 2, "rho": 3, "z": 2, "gamma": 4},
    {"I": 0, "H": 3, "l": 1, "lambda": 1, "r": 3, "rho": 1, "z": 2, "gamma": 9},
    {"I": 4, "H": 0, "l": 3, "lambda": 5, "r": 2, "rho": 4, "z": 3, "gamma": 11},
]

LAYOUTS = {
    "C": np.ascontiguousarray,
    "F": np.asfortranarray,
    "transposed": lambda m: np.ascontiguousarray(m.T).T,
    "strided": lambda m: np.repeat(np.repeat(m, 2, axis=0), 2, axis=1)[::2, ::2],
}


def _pad(m, q, slots):
    out = np.zeros((q, q))
    out[np.ix_(slots, slots)] = m
    return out


def _instance(k, kind, layout):
    """Two adjacent moves: a designed instance, read forward, backward in
    time (cross matrices as transposed views), or embedded among zero
    slots; every matrix in the given memory layout."""
    m1, m2 = designed_instance(np.random.default_rng(40 + k), SIZES[k])
    if kind == "reversed":
        m1, m2 = (QuadraticMove(0, 1, m2.b, m2.a, m2.c.T),
                  QuadraticMove(1, 2, m1.b, m1.a, m1.c.T))
    elif kind == "padded":
        q = m1.dim + 5
        slots = [s for s in range(q) if s not in (0, 3, 4, 9, q - 1)]
        m1, m2 = (QuadraticMove(m.step_from, m.step_to,
                                *(_pad(x, q, slots) for x in (m.a, m.b, m.c)))
                  for m in (m1, m2))
    lay = LAYOUTS[layout]
    m1, m2 = (QuadraticMove(m.step_from, m.step_to, lay(m.a), lay(m.b), lay(m.c))
              for m in (m1, m2))
    return m1, m2, classify_step(m1.c, m2.c, m1.b + m2.a, step=1)


def _bits(vectors):
    return [np.asarray(v, dtype=float).tobytes() for v in vectors]


CASES = [(k, kind, layout) for k in range(len(SIZES))
         for kind in ("forward", "reversed", "padded") for layout in LAYOUTS]


@pytest.mark.parametrize("k,kind,layout", CASES)
def test_stacked_primary_products_match_per_row(k, kind, layout):
    m1, m2, basis = _instance(k, kind, layout)
    cons = primary_constraints(m1, m2, basis)
    want = ([-1.0 * (m1.b @ basis.T[r]) for r in basis.right_rows]
            + [1.0 * (m2.a @ basis.T[r]) for r in basis.left_rows])
    rows = [*basis.right_rows, *basis.left_rows]
    assert _bits(c.x_coeffs for c in cons) == _bits(want)
    assert _bits(c.p_coeffs for c in cons) == _bits(basis.T[r] for r in rows)


@pytest.mark.parametrize("k,kind,layout", CASES)
def test_stacked_secondary_products_match_per_row(k, kind, layout):
    m1, m2, basis = _instance(k, kind, layout)
    cons = secondary_constraints(m1, m2, basis)
    near = ([m1.c @ basis.T[r] for r in basis.rows_of("l")]
            + [m2.c.T @ basis.T[r] for r in basis.rows_of("r")]
            + [m1.c @ basis.T[r] for r in basis.rows_of("z")])
    far = [m2.c.T @ basis.T[r] for r in basis.rows_of("z")]
    assert len(cons) == len(near) > 0
    assert _bits(c.x_coeffs for c in cons) == _bits(near)
    assert _bits(c.x_coeffs_other for c in cons if c.kind == "boundary_data") == _bits(far)


@pytest.mark.parametrize("k,kind,layout", CASES)
def test_stacked_multiplier_coefficients_match_per_pair(k, kind, layout):
    m1, m2, basis = _instance(k, kind, layout)
    eff = compose(m1, m2, basis)
    b_from, b_to = effective_outer_bases(eff)
    cons = effective_constraints(eff, b_from, b_to)
    cut = zero_cut(moves_tolerance(DEFAULT_TOL, eff), eff.dim)
    want = []
    for b, primary, sources, sign in (
            (b_from, primary_constraints(None, eff, b_from), ("l", "z"), 1.0),
            (b_to, primary_constraints(eff, None, b_to), ("r", "z"), -1.0)):
        parts = [(rec.name, rec.constraint.x_part_at(b.step)) for rec in eff.multipliers
                 if rec.source_type in sources and b.step in rec.constraint.steps]
        for con in primary:
            coeffs = [(name, sign * float(con.p_coeffs @ x)) for name, x in parts]
            want.append(tuple((name, c) for name, c in coeffs if abs(c) > cut))
    got = [c.multiplier_terms for c in cons[:len(want)]]
    assert any(want)
    # repr is exact for floats and tells -0.0 from 0.0
    assert repr(got) == repr(want)


def test_stacked_primary_products_on_the_padded_square():
    seq = expanding_square_sequence(4, mass=0.5).sequence
    bases = classify_sequence(seq)
    for n in seq.steps:
        m_in, m_out, basis = seq.move_into(n), seq.move_out_of(n), bases[n]
        want = []
        if m_in is not None:
            want += [-1.0 * (m_in.b @ basis.T[r]) for r in basis.right_rows]
        if m_out is not None:
            want += [1.0 * (m_out.a @ basis.T[r]) for r in basis.left_rows]
        cons = primary_constraints(m_in, m_out, basis)
        assert _bits(c.x_coeffs for c in cons) == _bits(want)


def _float_bits(tree):
    """Nested lists with every float replaced by its bit pattern."""
    if isinstance(tree, list):
        return [_float_bits(v) for v in tree]
    assert type(tree) is float
    return struct.pack("<d", tree)


ROWS = np.array([
    [0.0, 0.0, 0.0, 0.0],
    [-0.0, 0.0, 0.0, 0.0],
    [math.nan, 0.0, 1.0, -0.0],
    [math.inf, -math.inf, 5e-324, 0.1],
    [0.0, 0.0, 0.0, 0.0],
])


@pytest.mark.parametrize("a", [
    ROWS, ROWS.T, ROWS[::2], np.asfortranarray(ROWS), ROWS[0], ROWS[1], ROWS[2], ROWS[:, 1],
    np.zeros((0, 4)), np.zeros((3, 0)), np.zeros(0), np.zeros(6), np.full(3, -0.0),
])
def test_float_rows_is_tolist_bit_for_bit(a):
    assert _float_bits(float_rows(a)) == _float_bits(a.tolist())


def test_float_rows_share_one_zero_per_zero_row():
    rows = float_rows(ROWS)
    for i in (0, 4):
        assert len({id(v) for v in rows[i]}) == 1
    assert rows[0] is not rows[4]
    rows[0][1] = 2.0
    assert rows[4] == [0.0] * 4
    assert len({id(v) for v in float_rows(np.zeros(7))}) == 1


def test_row_memo_lives_for_one_call(monkeypatch):
    seen = []
    float_row = serialize._float_row

    def spy(values, depth):
        text = float_row(values, depth)
        seen.append(len(serialize._ROW_TEXTS))
        return text

    monkeypatch.setattr(serialize, "_float_row", spy)
    obj = {"a": [[0.0, 2.0], [0.0, 2.0], (0.0, 2.0), [-0.0, 2.0]], "b": [[[0.0, 2.0]]]}
    serialize.dumps_indented(obj)
    assert seen == [1, 1, 1, 2, 3]
    assert serialize._ROW_TEXTS == {}
    with pytest.raises(TypeError):
        serialize.dumps_indented({"a": [[0.0, 2.0]], "b": {(1, 2): 0}})
    assert seen[-1] == 1
    assert serialize._ROW_TEXTS == {}


def test_repeated_rows_at_several_depths_match_stdlib():
    row = [0.0, -0.0, 1.5, math.nan, 0.0]
    obj = {"a": [row, row, tuple(row)], "b": [[row, [0.0] * 5]], "c": row, "d": [[0.0] * 5] * 3}
    for sort_keys in (False, True):
        assert (serialize.dumps_indented(obj, sort_keys)
                == json.dumps(obj, indent=1, sort_keys=sort_keys))
