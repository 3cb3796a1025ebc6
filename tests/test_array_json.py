"""The JSON that canonkit writes straight from float64 arrays is the text of
the plain list tree: the array writer matches ``json.dumps`` of ``tolist()``,
and every CLI JSON output and move file matches ``dumps_indented`` of the
plain tree that ``full_report``, the section builders and
``sequence_to_dict`` describe."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import designed_instance

from canonkit import reporting, serialize
from canonkit.actions import MoveSequence, pre_momentum
from canonkit.cli import main
from canonkit.evolution import CanonicalData, forward_solve
from canonkit.lattice import expanding_square_sequence

EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308, 1e308,
               1.7976931348623157e308, 0.1, 1e16, math.nan, -math.nan, math.inf, -math.inf]

elements = st.one_of(st.just(0.0), st.just(-0.0), st.sampled_from(EDGE_FLOATS),
                     st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
shapes = st.one_of(st.tuples(st.integers(0, 7)),
                   st.tuples(st.integers(0, 5), st.integers(0, 7)))

# views with the values of ``a`` and another memory layout
LAYOUTS = {
    "C": lambda a: a,
    "F": np.asfortranarray,
    "transposed": lambda a: np.ascontiguousarray(a.T).T,
    "strided": lambda a: np.repeat(a, 2, axis=0)[::2],
    "reversed": lambda a: a[::-1].copy()[::-1],
}


@st.composite
def float_arrays(draw):
    a = draw(hnp.arrays(np.float64, draw(shapes), elements=elements))
    return LAYOUTS[draw(st.sampled_from(sorted(LAYOUTS)))](a)


scalars = st.one_of(st.none(), st.booleans(), st.integers(-10, 10),
                    st.sampled_from(EDGE_FLOATS), st.text(max_size=3))
keys = st.text(max_size=4)


@st.composite
def array_trees(draw):
    """A float64 array placed at depth 0-3 in dicts and lists, next to
    scalars, plain float rows and other arrays."""
    node = draw(float_arrays())
    siblings = st.lists(st.one_of(scalars, float_arrays(), st.lists(elements, max_size=4)),
                        max_size=3)
    for _ in range(draw(st.integers(0, 3))):
        others = draw(siblings)
        if draw(st.booleans()):
            at = draw(st.integers(0, len(others)))
            node = others[:at] + [node] + others[at:]
        else:
            names = draw(st.lists(keys, min_size=len(others) + 1, max_size=len(others) + 1,
                                  unique=True))
            node = dict(zip(names, [node] + others))
    return node


def plain(tree):
    """``tree`` with every ndarray replaced by its ``tolist()``."""
    if isinstance(tree, dict):
        return {k: plain(v) for k, v in tree.items()}
    if isinstance(tree, list):
        return [plain(v) for v in tree]
    if isinstance(tree, np.ndarray):
        return tree.tolist()
    return tree


@settings(max_examples=300, deadline=None)
@given(array_trees(), st.booleans())
def test_array_writer_matches_stdlib_on_tolist(tree, sort_keys):
    expected = json.dumps(plain(tree), indent=1, sort_keys=sort_keys)
    assert serialize._dumps(tree, sort_keys) == expected


@pytest.mark.parametrize("shape", [(0,), (0, 3), (3, 0), (1, 0), (0, 0)])
@pytest.mark.parametrize("sort_keys", [False, True])
def test_array_writer_empty_shapes(shape, sort_keys):
    tree = {"a": np.zeros(shape), "b": [np.zeros(shape), {"c": np.zeros(shape)}]}
    assert serialize._dumps(tree, sort_keys) == json.dumps(plain(tree), indent=1,
                                                           sort_keys=sort_keys)
    assert serialize._dumps(np.zeros(shape)) == json.dumps(np.zeros(shape).tolist(), indent=1)


@pytest.mark.parametrize("bad", [
    np.arange(3), np.ones((2, 2), dtype=np.int32), np.array([True, False]),
    np.array([1.0 + 2.0j]), np.array([0.5, "x"], dtype=object), np.zeros((2, 2, 2)),
    np.array(1.5),
])
@pytest.mark.parametrize("where", ["top", "value", "item", "nested"])
def test_array_writer_rejects_other_arrays(bad, where):
    tree = {"top": bad, "value": {"a": bad, "b": 1}, "item": [1.0, bad],
            "nested": [{"x": [np.zeros(2), bad]}]}[where]
    with pytest.raises(TypeError):
        serialize._dumps(tree)
    assert serialize._ROW_TEXTS == {}


SIZES = {"I": 1, "H": 1, "l": 1, "lambda": 2, "r": 1, "rho": 2, "z": 1, "gamma": 3}


def _sequence(name):
    if name == "dense":
        m1, m2 = designed_instance(np.random.default_rng(5), SIZES)
        return MoveSequence(m1.dim, (m1, m2))
    return expanding_square_sequence(3, mass={"square-m0": 0.0, "square-m05": 0.5}[name]).sequence


def _evolve_tree(an, data):
    res = forward_solve(an.seq.move_out_of(data.step), an.bases[data.step],
                        an.bases[data.step + 1], data, None, an.tol)
    return {"step": res.data.step, "side": res.data.momentum_side, "x": res.data.x.tolist(),
            "p": res.data.p.tolist(), "free_rows": [[int(r), lab] for r, lab in res.free_rows],
            "injected": res.injected.tolist()}


@pytest.mark.parametrize("name", ["square-m0", "square-m05", "dense"])
def test_cli_json_is_the_plain_tree_text(tmp_path, name):
    seq = _sequence(name)
    moves = tmp_path / "moves.json"
    serialize.save_sequence(seq, moves)
    rng = np.random.default_rng(4)
    x0, x1 = rng.normal(size=seq.dim), rng.normal(size=seq.dim)
    data = CanonicalData(0, x0, pre_momentum(seq.moves[0], x0, x1), "pre")
    data_path = tmp_path / "data.json"
    data_path.write_text(json.dumps({"step": 0, "x": data.x.tolist(), "p": data.p.tolist(),
                                     "side": "pre"}))
    an = reporting._Analysis(seq)
    steps = ["--from", "0", "--to", "2"]
    commands = [
        (["report"], reporting.full_report(seq), True),
        (["compose", *steps], {"effective": plain(reporting.effective_section(an, 0, 2))}, True),
        (["quantum", "compose", *steps],
         {"quantum": plain(reporting.quantum_section(an, 0, 2))}, True),
        (["quantum", "propagator", *steps],
         {"quantum": plain(reporting.propagator_section(an, 0, 2))}, True),
        (["classify", "--step", "1"], reporting.classification_report(an, 1), True),
        (["constraints", "--step", "1"],
         {"constraints": {"1": plain(reporting.constraints_report(an, 1))}}, True),
        (["evolve", "--data", str(data_path)], _evolve_tree(an, data), False),
    ]
    out = tmp_path / "out.json"
    for argv, tree, sort_keys in commands:
        assert main([*argv, "--input", str(moves), "--format", "json", "--out", str(out)]) == 0
        expected = serialize.dumps_indented(tree, sort_keys) + "\n"
        assert out.read_text(encoding="utf-8") == expected, argv


def test_move_file_is_the_plain_tree_text(tmp_path):
    seq = expanding_square_sequence(8, mass=0.5).sequence
    path = tmp_path / "moves.json"
    serialize.save_sequence(seq, path)
    assert path.read_text(encoding="utf-8") == serialize.dumps_indented(
        serialize.sequence_to_dict(seq))


def test_float_rows_converts_each_row_pattern_once_into_its_own_list():
    a = np.array([[1.5, -0.0, math.nan], [0.0, 0.0, 0.0], [1.5, -0.0, math.nan],
                  [1.5, 0.0, math.nan]])
    rows = serialize.float_rows(a)
    assert json.dumps(rows) == json.dumps(a.tolist())
    assert rows[0] is not rows[2] and all(x is y for x, y in zip(rows[0], rows[2]))
    assert math.copysign(1.0, rows[3][1]) == 1.0 and math.copysign(1.0, rows[0][1]) == -1.0
    rows[0][0] = 2.0
    assert rows[2][0] == 1.5
