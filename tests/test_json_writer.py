"""``serialize.dumps_indented`` writes exactly the stdlib's ``indent=1`` text."""

import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canonkit import reporting, serialize
from canonkit.cli import main
from canonkit.lattice import expanding_square_sequence

EDGE_FLOATS = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308, 1e-308,
               1.7976931348623157e308, 0.1, 1e16, 1e-5, math.nan, math.inf, -math.inf]
EDGE_STRINGS = ["", "é", "\x00\x1f\x7f", "\"\\/\b\f\n\r\t", "  ", "\ud800", "😀"]

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**300), max_value=2**300),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from(EDGE_FLOATS),
    st.text(st.characters(exclude_categories=())),
    st.sampled_from(EDGE_STRINGS),
)
keys = st.one_of(st.text(st.characters(exclude_categories=()), max_size=6),
                 st.sampled_from(EDGE_STRINGS))
trees = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.dictionaries(keys, children, max_size=6),
    ),
    max_leaves=60,
)

any_float = st.one_of(st.sampled_from(EDGE_FLOATS),
                      st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))


@st.composite
def zero_rows(draw):
    """A row of 1-300 floats, mostly +-0.0, with a few other values set."""
    n = draw(st.integers(1, 300))
    negative_share = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    rnd = random.Random(draw(st.integers(0, 2**32)))
    row = [-0.0 if rnd.random() < negative_share else 0.0 for _ in range(n)]
    for i, v in draw(st.lists(st.tuples(st.integers(0, n - 1), any_float), max_size=6)):
        row[i] = v
    return row


rows = st.one_of(zero_rows(), zero_rows().map(tuple))
float_trees = st.recursive(
    st.one_of(rows, st.lists(rows, min_size=1, max_size=4)),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(keys, children, max_size=3),
    ),
    max_leaves=8,
)


# the leaves and keys that the writer hands to the stdlib's encoder
numpy_floats = any_float.map(np.float64)
fallback_keys = st.one_of(
    keys,
    st.integers(),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    any_float,
    numpy_floats,
    st.booleans(),
    st.none(),
)
fallback_trees = st.recursive(
    st.one_of(scalars, numpy_floats),
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.dictionaries(fallback_keys, children, max_size=6),
    ),
    max_leaves=60,
)


def stdlib(obj, sort_keys):
    return json.dumps(obj, indent=1, sort_keys=sort_keys)


@settings(max_examples=200, deadline=None)
@given(trees, st.booleans())
def test_matches_stdlib_on_random_trees(obj, sort_keys):
    assert serialize.dumps_indented(obj, sort_keys) == stdlib(obj, sort_keys)


@settings(max_examples=150, deadline=None)
@given(float_trees, st.booleans())
def test_matches_stdlib_on_long_zero_rows(obj, sort_keys):
    assert serialize.dumps_indented(obj, sort_keys) == stdlib(obj, sort_keys)


@settings(max_examples=300, deadline=None)
@given(fallback_trees)
def test_matches_stdlib_on_numpy_floats_and_non_string_keys(obj):
    assert serialize.dumps_indented(obj) == stdlib(obj, False)


@pytest.mark.parametrize("odd", [np.float64(0.0), np.float64(-0.0), np.float64(math.nan),
                                 np.float64(2.5), True, 0, None])
@pytest.mark.parametrize("where", [0, 7, -1])
def test_float_row_with_one_other_item_takes_the_general_path(monkeypatch, odd, where):
    row = [0.0] * 30
    row[3], row[11] = -0.0, 1e16
    row[where] = odd
    obj = {"m": [row, [0.0] * 30], "t": tuple(row)}
    written = []

    def spy(values, depth):
        written.append(list(values))
        return float_row(values, depth)

    float_row = serialize._float_row
    monkeypatch.setattr(serialize, "_float_row", spy)
    for sort_keys in (False, True):
        assert serialize.dumps_indented(obj, sort_keys) == stdlib(obj, sort_keys)
    assert written == [[0.0] * 30] * 2


@pytest.mark.parametrize("sort_keys", [False, True])
@pytest.mark.parametrize("obj", [
    [], {}, (), [[]], [{}], {"a": []}, {"a": {}},
    [1, [2, 3], "x", {"k": [None, True]}, 4.5, ()],
    {"z": 1, "a": [[0.5, -0.0], [math.nan]], "m": {"y": [], "b": [{"c": (1, 2)}]}},
    [[[[[1.0, [2.0]]]]]],
    EDGE_FLOATS,
    EDGE_STRINGS,
    {s: s for s in EDGE_STRINGS},
    10**100,
    -(2**64),
    "top-level é",
])
def test_matches_stdlib_on_edge_cases(obj, sort_keys):
    assert serialize.dumps_indented(obj, sort_keys) == stdlib(obj, sort_keys)


def test_non_string_keys():
    mixed = {1: "int", 2.5: "float", False: "bool", None: "none", "s": [{7: [1]}],
             math.nan: [1], math.inf: {}, -math.inf: {3: 4}}
    assert serialize.dumps_indented(mixed) == stdlib(mixed, False)
    with pytest.raises(TypeError):
        stdlib(mixed, True)
    with pytest.raises(TypeError):
        serialize.dumps_indented(mixed, sort_keys=True)
    numeric = {3: [1], 1: {2.5: 0, -1: [None]}, 2: "x", -7: {}}
    assert serialize.dumps_indented(numeric, True) == stdlib(numeric, True)


@pytest.mark.parametrize("obj", [{(1, 2): 0}, {"a": [1], (1, 2): 0}])
def test_bad_key_raises_like_stdlib(obj):
    with pytest.raises(TypeError) as ours:
        serialize.dumps_indented(obj)
    with pytest.raises(TypeError) as theirs:
        stdlib(obj, False)
    assert str(ours.value) == str(theirs.value)


def test_numpy_float64_encodes_like_float():
    values = [np.float64(v) for v in EDGE_FLOATS]
    obj = {"x": np.float64(0.1), "row": values, "rows": [values, [np.float64(1e-300)]]}
    plain = {"x": 0.1, "row": EDGE_FLOATS, "rows": [EDGE_FLOATS, [1e-300]]}
    assert serialize.dumps_indented(obj, True) == stdlib(obj, True) == stdlib(plain, True)


@pytest.mark.parametrize("bad", [np.zeros(2), np.int64(3), np.bool_(True)])
@pytest.mark.parametrize("where", ["value", "leaf", "nested"])
def test_numpy_non_floats_raise_like_stdlib(bad, where):
    obj = {"value": {"a": bad, "b": [1]}, "leaf": [1.0, bad],
           "nested": [[1.0], [bad]]}[where]
    with pytest.raises(TypeError) as ours:
        serialize.dumps_indented(obj)
    with pytest.raises(TypeError) as theirs:
        stdlib(obj, False)
    assert str(ours.value) == str(theirs.value)


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("mass", [0.0, 0.5])
def test_report_json_matches_stdlib(n, mass):
    report = reporting.full_report(expanding_square_sequence(n, mass=mass).sequence)
    assert reporting.report_to_json(report) == stdlib(report, True)


def test_move_file_matches_stdlib(tmp_path):
    seq = expanding_square_sequence(3, mass=0.5, hbar=0.7).sequence
    path = tmp_path / "moves.json"
    serialize.save_sequence(seq, path)
    expected = stdlib(serialize.sequence_to_dict(seq), False).encode("utf-8")
    assert path.read_bytes() == expected


def test_cli_json_outputs_match_stdlib(tmp_path):
    moves = tmp_path / "moves.json"
    report = tmp_path / "report.json"
    assert main(["example", "square-lattice", "--steps", "2", "--mass", "0.5",
                 "--out", str(moves)]) == 0
    assert main(["report", "--input", str(moves), "--format", "json",
                 "--out", str(report)]) == 0
    text = report.read_text(encoding="utf-8")
    assert text == stdlib(json.loads(text), True) + "\n"
    text = moves.read_text(encoding="utf-8")
    assert text == stdlib(json.loads(text), False)


def test_evolve_json_matches_stdlib(tmp_path):
    from canonkit.actions import pre_momentum

    moves = tmp_path / "moves.json"
    assert main(["example", "square-lattice", "--steps", "2", "--out", str(moves)]) == 0
    seq = serialize.load_sequence(moves)
    rng = np.random.default_rng(4)
    x1, x2 = rng.normal(size=12), rng.normal(size=12)
    data = tmp_path / "data.json"
    data.write_text(json.dumps({"step": 1, "x": x1.tolist(), "side": "pre",
                                "p": pre_momentum(seq.moves[1], x1, x2).tolist()}))
    out = tmp_path / "evolved.json"
    assert main(["evolve", "--input", str(moves), "--data", str(data),
                 "--format", "json", "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert text == stdlib(json.loads(text), False) + "\n"
