"""Move files load the same through the layout reader and through json.loads.

``load_sequence`` reads the matrices of a file, in any layout, one
distinct row at a time, and sends every file whose matrices are not rows
of numbers to ``json.loads``.  Each file, as written or perturbed, in the
writer's layout or in another of the stdlib's, must give the sequence, or
the InputError text, that ``sequence_from_dict(json.loads(...))`` gives.
"""

import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from canonkit import serialize
from canonkit.actions import MoveSequence, QuadraticMove
from canonkit.errors import InputError
from canonkit.lattice import expanding_square_sequence

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, -3.0, 2.0**53, 1e16, 0.5, 1e-7]
ENTRIES = st.one_of(
    st.just(0.0),
    st.sampled_from(SPECIAL),
    st.integers(-1000, 1000).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
)

# perturbations after which the layout reader still reads the file itself,
# unless the file holds the text of a placeholder
READ_BY_LAYOUT = {"none", "element 1e5", "extra key", "no hbar", "duplicate Q"}


def reference(path):
    """The file read by ``json.loads`` alone, as it was before the layout reader."""
    try:
        tree = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: {exc}") from exc
    return serialize.sequence_from_dict(tree)


def outcome(load, path):
    try:
        return load(path)
    except InputError as exc:
        return f"InputError: {exc}"


def assert_same(got, want):
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    assert got.dim == want.dim
    assert np.float64(got.hbar).tobytes() == np.float64(want.hbar).tobytes()
    assert got.slot_maps == want.slot_maps
    assert [(m.step_from, m.step_to) for m in got.moves] == [
        (m.step_from, m.step_to) for m in want.moves]
    for mg, mw in zip(got.moves, want.moves):
        for key in "abc":
            x, y = getattr(mg, key), getattr(mw, key)
            assert x.dtype == y.dtype == np.float64 and x.shape == y.shape
            assert x.tobytes() == y.tobytes(), key


@st.composite
def sequences(draw):
    q = draw(st.integers(1, 5))
    count = draw(st.integers(1, 3))
    first = draw(st.integers(-2, 3))
    mats = draw(hnp.arrays(np.float64, (count, 3, q, q), elements=ENTRIES))
    moves = tuple(QuadraticMove(first + i, first + i + 1, *mats[i]) for i in range(count))
    steps = range(first, first + count + 1)
    slot_maps = draw(st.dictionaries(
        st.sampled_from(steps), st.lists(st.integers(0, q - 1), unique=True), max_size=len(steps)))
    hbar = draw(st.sampled_from([1.0, 0.5, 2.0, 1e-300, 3.0e7]))
    return MoveSequence(q, moves, hbar=hbar, slot_maps=slot_maps)


def some_line(lines, draw, comma=False) -> int:
    """The index of a line, ending in a comma if ``comma``: mostly a matrix
    element that is not 0.0, where a misread would change a number."""
    picks = [i for i, line in enumerate(lines) if line.endswith(",") or not comma]
    elements = [i for i in picks if re.fullmatch(r" {5}[^ ].*", lines[i])
                and lines[i].rstrip(",") != "     0.0"]
    return draw(st.sampled_from(elements if elements and draw(st.booleans()) else picks))


def perturb(text: str, kind: str, draw) -> str:
    """``text`` changed by one perturbation ``kind``, at places ``draw`` picks."""
    lines = text.split("\n")
    if kind.startswith("element"):
        at = draw(st.sampled_from([i for i, line in enumerate(lines)
                                   if re.fullmatch(r" {5}[^ ].*", line)]))
        comma = "," if lines[at].endswith(",") else ""
        lines[at] = "     " + kind.split(" ", 1)[1] + comma
    elif kind == "remove comma":
        at = some_line(lines, draw, comma=True)
        lines[at] = lines[at][:-1]
    elif kind == "extra indent":
        at = some_line(lines, draw)
        lines[at] = " " + lines[at]
    elif kind == "less indent":
        at = some_line(lines, draw)
        lines[at] = lines[at][1:]
    elif kind == "repeat line":
        at = some_line(lines, draw)
        lines.insert(at, lines[at])
    elif kind == "crlf":
        return text.replace("\n", "\r\n")
    elif kind == "truncate":
        return text[:draw(st.integers(0, len(text) - 1))]
    elif kind == "extra key":
        value = draw(st.sampled_from(['1', '"\\u00000"', '[\n  [\n   0.0\n  ]\n ]']))
        return text.replace("{\n", '{\n "extra": ' + value + ',\n', 1)
    elif kind == "no hbar":
        return re.sub(r'\n "hbar": [^\n]*', "", text, count=1)
    elif kind == "duplicate Q":
        q = draw(st.integers(0, 6))
        if draw(st.booleans()):
            return text.replace("{\n", f'{{\n "Q": {q},\n', 1)
        return text.replace('\n "moves"', f'\n "Q": {q},\n "moves"', 1)
    elif kind == "duplicate matrix":
        block = re.search(r'\n   "a": \[\n.*?\n   \],', text, re.S).group()
        return text.replace(block, block + block, 1)
    elif kind == "matrix in hbar":
        # in the writer's layout, its key line at indent 3 as in a move
        nested = json.dumps({"hbar": [{"a": [[0.5]]}]}, indent=1)[2:-2]
        return re.sub(r' "hbar": [^\n,]*', lambda _: nested, text, count=1)
    elif kind == "placeholder text":
        # a matrix replaced by the text a placeholder string has
        blocks = list(re.finditer(r'(\n   "[abc]": )(\[\n.*?\n   \])', text, re.S))
        block = draw(st.sampled_from(blocks))
        value = '"\\u0000%d"' % draw(st.integers(0, 8))
        return text[:block.start(2)] + value + text[block.end(2):]
    return "\n".join(lines)


KINDS = ["none", "element 1e5", "element NaN", 'element "x"', "element true", "remove comma",
         "extra indent", "less indent", "repeat line", "crlf", "truncate", "extra key",
         "no hbar", "duplicate Q", "duplicate matrix", "matrix in hbar", "placeholder text"]


@settings(max_examples=300, deadline=None)
@given(sequences(), st.sampled_from(KINDS), st.data())
def test_layout_reader_matches_json_loads(seq, kind, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "moves.json"
        serialize.save_sequence(seq, path)
        text = perturb(path.read_text(encoding="utf-8"), kind, data.draw)
        path.write_bytes(text.encode())
        if kind in READ_BY_LAYOUT and "\\u0000" not in text:
            assert serialize._layout_tree(path.read_bytes()) is not None
        want = outcome(reference, path)
        assert_same(outcome(serialize.load_sequence, path), want)
        if kind == "none":
            assert_same(want, seq)


@pytest.mark.parametrize("mass", [0.0, 0.5])
def test_square_lattice_file_is_read_by_layout(tmp_path, mass):
    seq = expanding_square_sequence(4, mass=mass).sequence
    path = tmp_path / "moves.json"
    serialize.save_sequence(seq, path)
    assert serialize._layout_tree(path.read_bytes()) is not None
    assert_same(serialize.load_sequence(path), reference(path))
    assert_same(serialize.load_sequence(path), seq)


# the stdlib's other layouts of a move file, as json.dumps keyword arguments
LAYOUTS = {
    "indent=2": {"indent": 2},
    "no indent": {},
    "compact": {"separators": (",", ":")},
}


def relayout(text: str, layout: str) -> str:
    """``text``, in the writer's indent-1 layout and perhaps perturbed, laid
    out as ``json.dumps(..., **LAYOUTS[layout])`` lays out the same tree."""
    if layout == "indent=2":
        return re.sub(r"(?m)^ +", lambda m: m.group() * 2, text)
    text = re.sub(r"\n *", "", re.sub(r",\n *", ", " if layout == "no indent" else ",", text))
    return text if layout == "no indent" else text.replace('": ', '":')


@pytest.mark.parametrize("layout", [*LAYOUTS, "tabs and spaced colons"])
@pytest.mark.parametrize("mass", [0.0, 0.5])
def test_square_lattice_file_in_other_layouts_is_read_by_rows(tmp_path, layout, mass):
    seq = expanding_square_sequence(4, mass=mass).sequence
    tree = serialize.sequence_to_dict(seq)
    path = tmp_path / "moves.json"
    kwargs = LAYOUTS.get(layout, {"indent": "\t", "separators": (",", " \r\n: ")})
    path.write_text(json.dumps(tree, **kwargs), encoding="utf-8")
    assert serialize._layout_tree(path.read_bytes()) is not None
    assert_same(serialize.load_sequence(path), reference(path))
    assert_same(serialize.load_sequence(path), seq)


@settings(max_examples=300, deadline=None)
@given(sequences(), st.sampled_from(KINDS), st.sampled_from(sorted(LAYOUTS)), st.data())
def test_row_reader_matches_json_loads_in_other_layouts(seq, kind, layout, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "moves.json"
        serialize.save_sequence(seq, path)
        written = path.read_text(encoding="utf-8")
        text = relayout(perturb(written, kind, data.draw), layout)
        if kind == "none":
            tree = json.loads(written)
            assert text == json.dumps(tree, **LAYOUTS[layout])
        path.write_bytes(text.encode())
        # a line break of CR LF is JSON whitespace, which the row reader skips
        if kind in READ_BY_LAYOUT | {"crlf"} and "\\u0000" not in text:
            assert serialize._layout_tree(path.read_bytes()) is not None
        assert_same(outcome(serialize.load_sequence, path), outcome(reference, path))


@pytest.mark.parametrize("entry", ["true", "null", '"0.5"', "[0.5]", "1" + "0" * 400, "ragged"])
def test_matrix_that_is_not_rows_of_numbers_goes_to_json_loads(tmp_path, entry):
    seq = expanding_square_sequence(2).sequence
    tree = serialize.sequence_to_dict(seq)
    row = tree["moves"][1]["c"][3]
    if entry == "ragged":
        row.pop()
    else:
        row[2] = json.loads(entry)
    path = tmp_path / "moves.json"
    path.write_text(json.dumps(tree, indent=2), encoding="utf-8")
    assert serialize._layout_tree(path.read_bytes()) is None
    want = outcome(reference, path)
    assert want.startswith("InputError: ")    # null reads as NaN: "non-finite entries"
    assert outcome(serialize.load_sequence, path) == want
