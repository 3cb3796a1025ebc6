"""Move-file and report serialization.

One writer lays out all indented JSON text in the stdlib's ``indent=1``
layout, byte for byte: its walk, ``_write``, lays out every dict, list and
tuple, and hands only a scalar it has no text for (and a non-str key) to
the stdlib's compact encoder.  Its public entry, ``dumps_indented``, returns
exactly ``json.dumps(obj, indent=1, sort_keys=sort_keys)`` and, like it,
rejects an ndarray.  Its private entry, ``_dumps``, also reads 1-D and 2-D
float64 arrays as their ``tolist()``: the CLI's reports, ``canonkit evolve
--format json`` and move files (``save_sequence``) are written straight from
the arrays, so no Python float is made for them, and as the pieces
``_pieces`` returns, so no joined text of the whole file is made either.
``reporting.full_report`` and ``sequence_to_dict`` return the same trees
in plain form, lists in place of the arrays, converted by ``float_rows``.

Almost every number written is an exact zero, and most rows repeat: a
time-varying discretization lives in one space of Q = 8N - 4 zero-padded
slots, so 99.7 % of the 1.15 million floats in the N = 16 square report
are +-0.0, and its 8,488 float rows hold only 579 distinct (bit pattern,
depth) pairs.  Within one call each distinct row, an array row or a list
of exact ``float``s, is formatted once, from its bytes, and in that one
pass only the entries with a nonzero bit pattern (-0.0 included) go
through ``float.__repr__``.  ``float_rows`` likewise converts each
distinct row once, with one shared +0.0 object for each all-zero row.

Move files are JSON:

    {"Q": int, "hbar": number,
     "moves": [{"n": int, "a": [[...]], "b": [[...]], "c": [[...]]}, ...]}

with row-major matrices and ``n`` the arrival step of each move (the move
runs n-1 -> n); the steps are consecutive increasing integers, and ``hbar``
and every matrix entry are numbers, not booleans or strings (``_numbers``).
repr-style float formatting keeps numbers round-trippable as IEEE doubles.

``load_sequence`` reads each matrix of a move file one distinct row at a
time: in any layout, a row text that repeats (most rows are zero-padded
and alike) is parsed by ``json.loads`` once per call, and the rest of the
file goes to ``json.loads``.  A file whose matrices are not rows of
numbers is read by ``json.loads`` whole.

Basis files map steps to explicit row bases:

    {"bases": [{"step": int, "T": [[...]]}, ...]}
"""

from __future__ import annotations

import io
import json
import numbers
import os
import re
import shutil
from array import array
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .actions import MoveSequence, QuadraticMove
from .errors import InputError


def dumps_indented(obj, sort_keys: bool = False) -> str:
    """``json.dumps(obj, indent=1, sort_keys=sort_keys)``, byte for byte.

    One walk, ``_write``, lays out every dict, list and tuple.  A non-empty
    list or tuple whose items are all exact ``float``s (the matrix rows and
    vectors of plain reports and move files, nearly all zeros) is written
    by ``_float_row``, which formats each distinct row once per call, and
    only its nonzero entries; rows of zeros share one text.  An exact
    ``str``, ``int``, ``float``, ``bool`` or ``None`` is written directly;
    every other scalar (``np.float64``, int and float subclasses) and every
    non-str key goes to the stdlib's compact encoder, which writes it as
    ``json.dumps`` does and raises its ``TypeError`` for a value JSON cannot
    hold.  Floats are written with ``float.__repr__`` and NaN/±Infinity.
    Input is a tree: a cycle raises ``RecursionError`` where ``json.dumps``
    raises ``ValueError``.
    """
    return _dumps(obj, sort_keys, arrays=False)


def _dumps(obj, sort_keys: bool = False, arrays: bool = True) -> str:
    """``dumps_indented``; with ``arrays``, of ``obj`` with every ndarray in
    it read as its ``tolist()``.  Only 1-D and 2-D float64 arrays are read,
    each row from its bytes, so no Python float is made for it; any other
    array raises ``TypeError``."""
    return "".join(_pieces(obj, sort_keys, arrays))


def _pieces(obj, sort_keys: bool = False, arrays: bool = True) -> list:
    """The strings of ``_dumps``'s text, in order, unjoined for ``writelines``."""
    chunks = []
    try:
        _write(obj, 0, sort_keys, chunks.append, arrays)
    finally:
        _ROW_TEXTS.clear()
    return chunks


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(value: float) -> str:
    text = float.__repr__(value)
    return _NONFINITE.get(text, text)


# the scalar leaves written without an encoder, by exact type
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: lambda v: "true" if v else "false",
    type(None): lambda v: "null",
}

# every other scalar and every non-str key: np.float64, int and float
# subclasses, and the values JSON cannot hold, which raise TypeError
_encode = json.JSONEncoder().encode

# row text by (bit pattern, depth); _dumps empties it when it returns or
# raises, so no pass over a report can reuse another's work.  A
# text is keyed by its content, so calls that overlap in time can only
# share right answers.
_ROW_TEXTS = {}


def _row_text(data: bytes, depth: int) -> str:
    """The text at ``depth`` of the non-empty float64 row whose bytes are
    ``data``, formatted once per call: only the entries with a nonzero bit
    pattern (-0.0 included) go through ``float.__repr__``."""
    key = (data, depth)
    text = _ROW_TEXTS.get(key)
    if text is None:
        values = np.frombuffer(data)
        pieces = ["0.0"] * len(values)
        nonzero = np.flatnonzero(values.view(np.int64))
        for i, value in zip(nonzero.tolist(), values[nonzero].tolist()):
            pieces[i] = _float_text(value)
        inner = "\n" + " " * (depth + 1)
        text = "[" + inner + ("," + inner).join(pieces) + "\n" + " " * depth + "]"
        _ROW_TEXTS[key] = text
    return text


def _float_row(row, depth: int) -> str:
    """The text of a non-empty list or tuple of exact floats at ``depth``."""
    return _row_text(array("d", row).tobytes(), depth)


def _write_array(a: np.ndarray, depth: int, emit) -> None:
    """Write ``a.tolist()`` at ``depth`` for a 1-D or 2-D float64 array of
    any layout; its rows are read in C order from its bytes."""
    if a.dtype != np.float64 or a.ndim not in (1, 2):
        raise TypeError(f"only 1-D and 2-D float64 arrays are written, "
                        f"not a {a.ndim}-D array of {a.dtype}")
    if not len(a):
        emit("[]")
    elif a.ndim == 1:
        emit(_row_text(a.tobytes(), depth))
    else:
        n, k = a.shape
        data, width = a.tobytes(), 8 * k
        inner = "\n" + " " * (depth + 1)
        sep = "[" + inner
        for i in range(n):
            emit(sep)
            emit(_row_text(data[i * width:(i + 1) * width], depth + 1) if k else "[]")
            sep = "," + inner
        emit("\n" + " " * depth + "]")


def float_rows(a) -> list:
    """``a.tolist()`` for a 1-D or 2-D float array, in value and bit pattern.
    Each distinct row is converted once, keyed by its bytes, and each row
    gets its own copy of that list: rows with one pattern share their float
    objects, not their lists, and an all-+0.0 row is ``[0.0] * n``, which
    holds one float object, not n."""
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        return float_rows(a[None])[0]
    zero, lists, converted = bytes(8 * a.shape[1]), {}, []
    for row in a:
        key = row.tobytes()
        pattern = lists.get(key)
        if pattern is None:
            pattern = lists[key] = [0.0] * len(row) if key == zero else row.tolist()
        converted.append(pattern[:])
    return converted


def _as_lists(tree):
    """``tree``, a fresh tree of dicts and lists, with every ndarray in it
    replaced in place by its ``float_rows``: the plain form of a tree that
    ``_dumps`` writes."""
    for key, value in (tree.items() if type(tree) is dict else enumerate(tree)):
        if type(value) is np.ndarray:
            tree[key] = float_rows(value)
        elif type(value) is dict or type(value) is list:
            _as_lists(value)
    return tree


def _key(k) -> str:
    if isinstance(k, str):
        return k
    if k is None or isinstance(k, (int, float)):
        return _encode(k)
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def _write(o, depth: int, sort_keys: bool, emit, arrays: bool) -> None:
    if isinstance(o, dict):
        items = sorted(o.items()) if sort_keys else o.items()
        pairs = [(encode_basestring_ascii(_key(k)) + ": ", v) for k, v in items]
        brackets = "{}"
    elif isinstance(o, (list, tuple)):
        if o and all(type(v) is float for v in o):
            emit(_float_row(o, depth))
            return
        pairs = [("", v) for v in o]
        brackets = "[]"
    elif arrays and type(o) is np.ndarray:
        _write_array(o, depth, emit)
        return
    else:
        scalar = _SCALAR_TEXT.get(type(o))
        emit(_encode(o) if scalar is None else scalar(o))
        return
    if not pairs:
        emit(brackets)
        return
    inner = "\n" + " " * (depth + 1)
    sep = brackets[0] + inner
    # scalar and array items are written here, without a call of _write;
    # row texts are emitted as they are, so repeated rows share one string
    for prefix, value in pairs:
        scalar = _SCALAR_TEXT.get(type(value))
        if scalar is not None:
            emit(sep + prefix + scalar(value))
        elif arrays and type(value) is np.ndarray:
            emit(sep + prefix)
            _write_array(value, depth + 1, emit)
        else:
            emit(sep + prefix)
            _write(value, depth + 1, sort_keys, emit, arrays)
        sep = "," + inner
    emit("\n" + " " * depth + brackets[1])


def _sequence_tree(seq: MoveSequence) -> dict:
    """The move file of ``seq``, holding the moves' own matrices."""
    return {
        "Q": seq.dim,
        "hbar": seq.hbar,
        "moves": [{"n": m.step_to, "a": m.a, "b": m.b, "c": m.c} for m in seq.moves],
        "slot_maps": {str(k): v for k, v in seq.slot_maps.items()},
    }


def sequence_to_dict(seq: MoveSequence) -> dict:
    return _as_lists(_sequence_tree(seq))


def _integer(value, what: str) -> int:
    """``value`` as an int; anything but an integral number is an InputError."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise InputError(f"{what} must be an integer, not {value!r}")


def _numbers(value, what: str, ndim: int = 1) -> np.ndarray:
    """``value``, a list of numbers (of such lists for ``ndim`` 2), as a
    float64 array.  A boolean, which numpy would read as 1.0 or 0.0, a string
    or a ragged shape is an InputError; null reads as NaN, which every
    reader rejects as not finite.  A numeric ndarray, such as a matrix of
    the layout reader, is not scanned entry by entry."""
    if not (isinstance(value, np.ndarray) and value.dtype.kind in "iuf"):
        try:
            kinds = set(map(type, chain.from_iterable(value) if ndim == 2 else value))
        except TypeError:   # not a list (of lists): the callers' shape checks reject it
            kinds = set()
        bad = sorted(t.__name__ for t in kinds - {type(None)}
                     if t is bool or not issubclass(t, numbers.Real))
        if bad:
            raise InputError(f"{what} must be numbers, not {' or '.join(bad)}")
    try:
        return np.asarray(value, dtype=float)
    except (ValueError, OverflowError) as exc:
        raise InputError(f"{what}: {exc}") from exc


def sequence_from_dict(data: dict) -> MoveSequence:
    """The move sequence of a parsed move file.  The arrival steps ``n`` must
    be consecutive increasing integers; a gap, a repeat or a fractional step
    is an InputError, and so are an ``hbar`` or a matrix entry that is not a
    number and a ``slot_maps`` entry that is not a step of the sequence
    mapped to a list of distinct integer slots in 0..Q-1."""
    try:
        q = _integer(data["Q"], "Q")
        hbar = data.get("hbar", 1.0)
        if isinstance(hbar, bool) or not isinstance(hbar, (int, float)):
            raise InputError(f"hbar must be a number, not {hbar!r}")
        hbar = float(hbar)
        raw_moves = data["moves"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed move file: {exc}") from exc
    if not isinstance(raw_moves, list) or not raw_moves:
        raise InputError("move file must contain a non-empty 'moves' list")
    moves = []
    for entry in raw_moves:
        try:
            n = _integer(entry["n"], "move step n")
            a, b, c = (_numbers(entry[key], f"move {n}: matrix entries", 2) for key in "abc")
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed move entry: {exc}") from exc
        if moves and n != moves[-1].step_to + 1:
            raise InputError(f"move steps must be consecutive increasing integers: "
                             f"{moves[-1].step_to} is followed by {n}")
        if a.shape != (q, q) or b.shape != (q, q) or c.shape != (q, q):
            raise InputError(f"move {n}: matrices must be {q}x{q}")
        moves.append(QuadraticMove(n - 1, n, a, b, c))
    steps = {str(n): n for n in range(moves[0].step_from, moves[-1].step_to + 1)}
    raw_maps = data.get("slot_maps", {})
    if not isinstance(raw_maps, dict):
        raise InputError("malformed slot_maps: not a mapping from steps to slot lists")
    slot_maps = {}
    for key, value in raw_maps.items():
        slots = [_integer(v, "a slot") for v in value] if isinstance(value, list) else None
        if (str(key) not in steps or slots is None or len(set(slots)) != len(slots)
                or not all(0 <= v < q for v in slots)):
            raise InputError(f"malformed slot_maps entry {key!r}: keys are steps of the sequence, "
                             f"values lists of distinct slots in 0..{q - 1}")
        slot_maps[steps[str(key)]] = slots
    return MoveSequence(q, tuple(moves), hbar=hbar, slot_maps=slot_maps)


def save_sequence(seq: MoveSequence, path) -> None:
    _write_file(path, _pieces(_sequence_tree(seq)))


def _write_file(path, pieces) -> None:
    """Write the strings ``pieces`` to the file ``path`` whole or not at all: to a new file
    beside it, with ``open(path, "w")``'s mode, that ``os.replace`` moves into place."""
    path = os.path.realpath(path)
    if os.path.exists(path) and not os.path.isfile(path):   # a device or a pipe is not replaced
        with open(path, "w", encoding="utf-8") as f:
            return f.writelines(pieces)
    tmp = f"{path}.{os.getpid()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8") as f:
            f.writelines(pieces)
        if os.path.exists(path):
            shutil.copymode(path, tmp)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def _read_bytes(path) -> bytes:
    """The bytes of a file; a missing or unreadable file is an InputError."""
    path = Path(path)
    if not path.exists():
        raise InputError(f"no such file: {path}")
    try:
        return path.read_bytes()
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from exc


def _parse_json(path, data: bytes):
    """The parsed JSON text of the file ``path`` whose bytes are ``data``,
    read as UTF-8 with universal newlines, as ``Path.read_text`` reads it;
    bytes that are not UTF-8, text that is not JSON or an integer of more
    digits than Python converts is an InputError."""
    try:
        return json.loads(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read())
    except ValueError as exc:   # JSONDecodeError and UnicodeDecodeError among them
        raise InputError(f"{path}: {exc}") from exc


def _read_json(path):
    return _parse_json(path, _read_bytes(path))


# a matrix value in a move file: a key "a", "b" or "c", its colon and the
# opening bracket, and the closing brackets of its last row and of itself
_MATRIX_KEY = re.compile(rb'"[abc]"[ \t\n\r]*:[ \t\n\r]*\[')
_MATRIX_END = re.compile(rb"\][ \t\n\r]*\]")


def _matrix(text: bytes, rows: dict):
    """The float64 matrix whose rows are ``text`` split on ``],``, each
    with its ``]`` put back, or None when it might not read as
    ``json.loads`` reads it.  Each distinct row text is parsed by
    ``json.loads`` and converted once per call, memoized in ``rows``; it
    must be a flat list of numbers, and a comma-joined list of such rows is
    exactly what ``json.loads`` reads."""
    stack = []
    for piece in text.split(b"],"):
        row = rows.get(piece)
        if row is None:
            try:
                values = json.loads(piece.decode("utf-8") + "]")
                if not set(map(type, values)) <= {int, float}:
                    return None
                row = rows[piece] = np.array(values, float)
            except (ValueError, OverflowError):
                return None
        stack.append(row)
    try:
        return np.array(stack)
    except ValueError:    # ragged
        return None


def _layout_tree(data: bytes):
    """The parsed move file whose bytes are ``data``, its matrices read by
    ``_matrix``, or None when it holds no such matrix or might not read as
    ``json.loads`` reads it.  Each matrix is cut out for a placeholder
    string, the rest goes to ``json.loads``, and the matrices go back in
    place of their placeholders at ``moves[i]["a"]``, ``["b"]`` and
    ``["c"]``; a placeholder anywhere else, or lost to a repeated key, sends
    the file back to ``json.loads``."""
    pieces, matrices, rows, at = [], {}, {}, 0
    while (key := _MATRIX_KEY.search(data, at)) is not None:
        end = _MATRIX_END.search(data, key.end())
        matrix = _matrix(data[key.end():end.start()], rows) if end else None
        if matrix is None:
            return None
        pieces += [data[at:key.end() - 1], b'"\\u0000%d"' % len(matrices)]
        matrices["\x00%d" % len(matrices)] = matrix
        at = end.end()
    if not matrices:
        return None
    try:
        text = b"".join(pieces + [data[at:]]).decode("utf-8")
        # a \u0000 in the file itself could read as a placeholder
        tree = json.loads(text) if text.count("\\u0000") == len(matrices) else None
    except ValueError:
        return None
    moves = tree.get("moves") if isinstance(tree, dict) else None
    for entry in moves if isinstance(moves, list) else ():
        for key in "abc" if isinstance(entry, dict) else ():
            value = entry.get(key)
            if isinstance(value, str) and value in matrices:
                entry[key] = matrices.pop(value)
    return None if matrices else tree


def load_sequence(path) -> MoveSequence:
    """The move sequence of a move file.  A file whose matrices are rows of
    numbers, in any layout, has them read by ``_layout_tree``, each
    distinct row once; any other file, and every malformed one, is read by
    ``json.loads``, and both are checked by ``sequence_from_dict``."""
    data = _read_bytes(path)
    tree = _layout_tree(data)
    return sequence_from_dict(_parse_json(path, data) if tree is None else tree)


def load_bases(path, dim: int) -> dict:
    """Basis override file -> {step: T matrix}.  Each step is an integer
    named at most once."""
    data = _read_json(path)
    try:
        entries = data["bases"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"{path}: malformed basis file: {exc}") from exc
    if not isinstance(entries, list):
        raise InputError(f"{path}: malformed basis file: 'bases' must be a list")
    out = {}
    for entry in entries:
        try:
            step = _integer(entry["step"], "basis step")
            t = _numbers(entry["T"], f"{path}: basis at step {step}", 2)
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed basis entry: {exc}") from exc
        if step in out:
            raise InputError(f"{path}: more than one basis for step {step}")
        if t.shape != (dim, dim):
            raise InputError(f"basis at step {step} must be {dim}x{dim}")
        out[step] = t
    return out


def load_canonical_data(path, dim: int):
    """Canonical-data file: {"step": int, "x": [...], "p": [...], "side": "pre"|"post"};
    a fractional or boolean step is an InputError."""
    data = _read_json(path)
    try:
        step = _integer(data["step"], "data step")
        x, p = (_numbers(data[key], f"{path}: {key}") for key in "xp")
        side = data.get("side", "pre")
    except (KeyError, TypeError) as exc:
        raise InputError(f"{path}: malformed data file: {exc}") from exc
    if x.shape != (dim,) or p.shape != (dim,):
        raise InputError(f"x and p must have length {dim}")
    return step, x, p, side


def load_free_values(path):
    data = _read_json(path)
    if isinstance(data, dict):
        if "free" not in data and "values" not in data:
            raise InputError(f"{path}: free-value file needs a 'free' or 'values' list")
        data = data.get("free", data.get("values"))
    values = _numbers(data, f"{path}: free values")
    if not np.all(np.isfinite(values)):
        raise InputError(f"{path}: free values must be finite numbers")
    return values
