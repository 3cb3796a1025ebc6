"""Move-file and report serialization.

``dumps_indented`` is the one place that writes indented JSON text: the
report (``reporting.report_to_json``), move files (``save_sequence``) and
``canonkit evolve --format json`` all go through it.  Its contract is the
stdlib's ``indent=1`` layout byte for byte: it returns exactly
``json.dumps(obj, indent=1, sort_keys=sort_keys)``.

Almost every number it writes is an exact zero: a time-varying
discretization lives in one space of Q = 8N - 4 zero-padded slots, so
99.7 % of the 1.15 million floats in the N = 16 square report are +-0.0.
Lists whose items are all exact ``float``s therefore take their own path,
which writes each zero as the constant ``0.0`` instead of formatting it:
a row of +0.0 is one cached text, and in any other row only the entries
with a nonzero bit pattern (-0.0 included) go through ``float.__repr__``.

Move files are JSON:

    {"Q": int, "hbar": number,
     "moves": [{"n": int, "a": [[...]], "b": [[...]], "c": [[...]]}, ...]}

with row-major matrices and ``n`` the arrival step of each move (the move
runs n-1 -> n); the steps are consecutive increasing integers.  repr-style
float formatting keeps numbers round-trippable as IEEE doubles.  Basis files map steps to explicit row bases:

    {"bases": [{"step": int, "T": [[...]]}, ...]}
"""

from __future__ import annotations

import functools
import json
import math
from array import array
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .actions import MoveSequence, QuadraticMove
from .errors import InputError


_CONTAINERS = (dict, list, tuple)


def dumps_indented(obj, sort_keys: bool = False) -> str:
    """``json.dumps(obj, indent=1, sort_keys=sort_keys)``, byte for byte.

    With ``indent`` set, CPython's ``json`` runs its pure-Python encoder on
    every value.  This writer lays out the nested dicts and lists itself.
    A list or tuple whose items are all exact ``float``s (the matrix rows
    and vectors of reports and move files, nearly all zeros) is written by
    ``_float_row``, which formats only its nonzero entries.  Every other
    dict or list that holds no dict, list or tuple goes to the stdlib's
    compact encoder in one call, which runs in C where the interpreter has
    the speedups.  Both write floats with ``float.__repr__`` and
    NaN/±Infinity, and keys and sorted items as the Python encoder does.
    Input is a tree: a cycle raises ``RecursionError`` where
    ``json.dumps`` raises ``ValueError``.
    """
    chunks = []
    _write(obj, 0, sort_keys, chunks.append)
    return "".join(chunks)


@functools.cache
def _leaf_encoder(depth: int, sort_keys: bool):
    """The stdlib's compact ``encode``, with each item of a container at
    ``depth`` on its own line; the caller breaks the lines at the brackets."""
    sep = ",\n" + " " * (depth + 1)
    return json.JSONEncoder(separators=(sep, ": "), sort_keys=sort_keys).encode


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _row_text(pieces, depth: int) -> str:
    """A list at ``depth`` of the given item texts, one item a line."""
    inner = "\n" + " " * (depth + 1)
    return "[" + inner + ("," + inner).join(pieces) + "\n" + " " * depth + "]"


@functools.lru_cache(maxsize=256)
def _zero_row(n: int, depth: int) -> str:
    """The text of a list of ``n`` items +0.0 at ``depth``."""
    return _row_text(["0.0"] * n, depth)


def _float_row(row, depth: int) -> str:
    """The text of a non-empty list or tuple of exact floats at ``depth``."""
    n = len(row)
    values = array("d", row)
    if values.tobytes() == bytes(8 * n):
        return _zero_row(n, depth)
    pieces = ["0.0"] * n
    rep = float.__repr__
    for i in np.flatnonzero(np.frombuffer(values, dtype=np.int64)).tolist():
        pieces[i] = rep(row[i])
    # a NaN or an infinity makes the sum non-finite (so may an overflow,
    # which the mapping leaves alone)
    if not math.isfinite(sum(row)):
        pieces = [_NONFINITE.get(p, p) for p in pieces]
    return _row_text(pieces, depth)


def _key(k) -> str:
    if isinstance(k, str):
        return k
    if k is None or isinstance(k, (int, float)):
        return _leaf_encoder(0, False)(k)
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def _write(o, depth: int, sort_keys: bool, emit) -> None:
    if isinstance(o, dict):
        kinds = set(map(type, o.values()))
    elif isinstance(o, (list, tuple)):
        kinds = set(map(type, o))
        if kinds == {float}:
            emit(_float_row(o, depth))
            return
    else:
        kinds = ()
    if not any(issubclass(t, _CONTAINERS) for t in kinds):
        text = _leaf_encoder(depth, sort_keys)(o)
        if isinstance(o, _CONTAINERS) and o:
            text = text[0] + "\n" + " " * (depth + 1) + text[1:-1] + "\n" + " " * depth + text[-1]
        emit(text)
        return
    if isinstance(o, dict):
        items = sorted(o.items()) if sort_keys else o.items()
        pairs = [(encode_basestring_ascii(_key(k)) + ": ", v) for k, v in items]
        brackets = "{}"
    else:
        pairs = [("", v) for v in o]
        brackets = "[]"
    inner = "\n" + " " * (depth + 1)
    sep = brackets[0] + inner
    for prefix, value in pairs:
        emit(sep + prefix)
        _write(value, depth + 1, sort_keys, emit)
        sep = "," + inner
    emit("\n" + " " * depth + brackets[1])


def sequence_to_dict(seq: MoveSequence) -> dict:
    return {
        "Q": seq.dim,
        "hbar": seq.hbar,
        "moves": [
            {"n": m.step_to, "a": m.a.tolist(), "b": m.b.tolist(), "c": m.c.tolist()}
            for m in seq.moves
        ],
        "slot_maps": {str(k): v for k, v in seq.slot_maps.items()},
    }


def _integer(value, what: str) -> int:
    """``value`` as an int; anything but an integral number is an InputError."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise InputError(f"{what} must be an integer, not {value!r}")


def sequence_from_dict(data: dict) -> MoveSequence:
    """The move sequence of a parsed move file.  The arrival steps ``n`` must
    be consecutive increasing integers; a gap, a repeat or a fractional step
    is an InputError."""
    try:
        q = _integer(data["Q"], "Q")
        hbar = float(data.get("hbar", 1.0))
        raw_moves = data["moves"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed move file: {exc}") from exc
    if not isinstance(raw_moves, list) or not raw_moves:
        raise InputError("move file must contain a non-empty 'moves' list")
    moves = []
    for entry in raw_moves:
        try:
            n = _integer(entry["n"], "move step n")
            a = np.asarray(entry["a"], dtype=float)
            b = np.asarray(entry["b"], dtype=float)
            c = np.asarray(entry["c"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed move entry: {exc}") from exc
        if moves and n != moves[-1].step_to + 1:
            raise InputError(f"move steps must be consecutive increasing integers: "
                             f"{moves[-1].step_to} is followed by {n}")
        if a.shape != (q, q) or b.shape != (q, q) or c.shape != (q, q):
            raise InputError(f"move {n}: matrices must be {q}x{q}")
        moves.append(QuadraticMove(n - 1, n, a, b, c))
    try:
        slot_maps = {int(k): list(v) for k, v in data.get("slot_maps", {}).items()}
    except (AttributeError, TypeError, ValueError) as exc:
        raise InputError(f"malformed slot_maps: {exc}") from exc
    return MoveSequence(q, tuple(moves), hbar=hbar, slot_maps=slot_maps)


def save_sequence(seq: MoveSequence, path) -> None:
    Path(path).write_text(dumps_indented(sequence_to_dict(seq)), encoding="utf-8")


def _read_json(path):
    """The parsed JSON content of a file; a missing file or malformed JSON
    is an InputError."""
    path = Path(path)
    if not path.exists():
        raise InputError(f"no such file: {path}")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: {exc}") from exc


def load_sequence(path) -> MoveSequence:
    return sequence_from_dict(_read_json(path))


def load_bases(path, dim: int) -> dict:
    """Basis override file -> {step: T matrix}."""
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
            step = int(entry["step"])
            t = np.asarray(entry["T"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed basis entry: {exc}") from exc
        if t.shape != (dim, dim):
            raise InputError(f"basis at step {step} must be {dim}x{dim}")
        out[step] = t
    return out


def load_canonical_data(path, dim: int):
    """Canonical-data file: {"step": int, "x": [...], "p": [...], "side": "pre"|"post"}."""
    data = _read_json(path)
    try:
        step = int(data["step"])
        x = np.asarray(data["x"], dtype=float)
        p = np.asarray(data["p"], dtype=float)
        side = data.get("side", "pre")
    except (KeyError, TypeError, ValueError) as exc:
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
    try:
        values = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{path}: free values must be numbers: {exc}") from exc
    if not np.all(np.isfinite(values)):
        raise InputError(f"{path}: free values must be finite numbers")
    return values
