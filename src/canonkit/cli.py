"""canonkit command line driver.

``_analysis`` alone turns the arguments into a ``reporting._Analysis``:
the tolerance, the move file with --hbar, and the --basis overrides.
``classify``, ``constraints``, ``compose``, ``quantum`` and ``report``
share ``cmd_analysis``, and differ only in their row of ``_ANALYSES``;
``evolve`` starts from the same analysis.  JSON output is written as the
unjoined pieces of ``serialize._pieces``, to --out only once they all exist.

Exit codes: 0 success, 2 input error, 3 numerical degeneracy,
4 constraint violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from itertools import chain
from pathlib import Path

import numpy as np

from . import reporting, serialize
from .errors import (
    ConstraintViolationError,
    DegeneracyError,
    InputError,
    InternalError,
)
from .evolution import CanonicalData, backward_solve, forward_solve
from .lattice import expanding_square_sequence
from .linalg import DEFAULT_TOL

EXIT_INPUT = 2
EXIT_DEGENERACY = 3
EXIT_CONSTRAINT = 4


def _write_line(pieces, out) -> None:
    """Write ``pieces`` and a newline to ``out`` or stdout, unjoined: a join copies a report."""
    lines = chain(pieces, ["\n"])
    serialize._write_file(out, lines) if out else sys.stdout.writelines(lines)


def _analysis(args) -> reporting._Analysis:
    """The analysis that the arguments name.  The tolerance is --tol, else
    CANONKIT_TOL, else DEFAULT_TOL, resolved before any file is read; then
    the move file is loaded, given --hbar when set, and the --basis
    overrides are loaded against its dimension."""
    tol, env = args.tol, os.environ.get("CANONKIT_TOL")
    if tol is None and env is not None:
        try:
            tol = float(env)
        except ValueError as exc:
            raise InputError(f"CANONKIT_TOL={env!r} is not a number") from exc
    seq = serialize.load_sequence(args.input)
    if getattr(args, "hbar", None) is not None:
        seq = dataclasses.replace(seq, hbar=args.hbar)
    overrides = serialize.load_bases(args.basis, seq.dim) if args.basis else None
    return reporting._Analysis(seq, DEFAULT_TOL if tol is None else tol, overrides)


# each analysis command's section builder, called with the analysis and the
# command's --step or --from/--to, and the key its section is written under
_ANALYSES = {
    "classify": (reporting.classification_report, None),
    "constraints": (lambda an, step: {str(step): reporting.constraints_report(an, step)},
                    "constraints"),
    "compose": (reporting.effective_section, "effective"),
    "quantum compose": (reporting.quantum_section, "quantum"),
    "quantum propagator": (reporting.propagator_section, "quantum"),
    "report": (reporting._report_tree, None),
}


def cmd_analysis(args) -> int:
    """Write the section of an analysis command as JSON or text."""
    an = _analysis(args)
    name = f"quantum {args.quantum_action}" if args.command == "quantum" else args.command
    build, key = _ANALYSES[name]
    if "step" in args and args.step not in an.seq.steps:
        raise InputError(f"step {args.step} not in sequence")
    section = build(an, *(getattr(args, k) for k in ("step", "from_step", "to_step") if k in args))
    tol = an.tol
    del an    # not held while the text is made: 0.6 MB of peak memory at N = 16
    report = section if key is None else {key: section}
    _write_line(serialize._pieces(report, sort_keys=True) if args.format == "json"
                else [reporting.render_text(report, tol)], args.out)
    return 0


def cmd_evolve(args) -> int:
    an = _analysis(args)
    seq, bases = an.seq, an.bases
    step, x, p, side = serialize.load_canonical_data(args.data, seq.dim)
    free = serialize.load_free_values(args.free) if args.free else None
    data = CanonicalData(step, x, p, side)
    forward = args.direction == "forward"
    move = seq.move_out_of(step) if forward else seq.move_into(step)
    if move is None:
        raise InputError(f"no move {'leaves' if forward else 'arrives at'} step {step}")
    solve = forward_solve if forward else backward_solve
    res = solve(move, bases[move.step_from], bases[move.step_to], data, free, an.tol)
    out = res.data
    report = {
        "step": out.step,
        "side": out.momentum_side,
        "x": out.x,
        "p": out.p,
        "free_rows": [[int(r), lab] for r, lab in res.free_rows],
        "injected": res.injected,
    }
    if args.format == "json":
        pieces = serialize._pieces(report)
    else:
        pieces = [
            f"step {out.step} ({out.momentum_side} side)\n"
            f"x = {np.array2string(out.x, precision=6)}\n"
            f"p = {np.array2string(out.p, precision=6)}\n"
            f"free rows: {res.free_rows}"
        ]
    _write_line(pieces, args.out)
    return 0


def cmd_example(args) -> int:
    if args.name != "square-lattice":
        raise InputError(f"unknown example {args.name!r}; available: square-lattice")
    fixture = expanding_square_sequence(args.steps, mass=args.mass, hbar=args.hbar)
    out = args.out or "square-lattice.json"
    serialize.save_sequence(fixture.sequence, out)
    print(f"wrote {out} (Q = {fixture.sequence.dim}, {len(fixture.sequence.moves)} moves)")
    if args.basis_out:
        # reference bases only for the steps this sequence has
        refs = {1: fixture.basis_t1, 2: fixture.basis_t2}
        data = {"bases": [{"step": n, "T": t.tolist()} for n, t in refs.items() if t is not None]}
        Path(args.basis_out).write_text(json.dumps(data), encoding="utf-8")
        print(f"wrote {args.basis_out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="canonkit",
        description="canonical analysis of quadratic discrete actions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", required=True, help="move file (JSON)")
        p.add_argument("--tol", type=float, default=None, help="rank tolerance")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--basis", default=None, help="basis override file")
        p.add_argument("--out", default=None, help="write output to a file")

    p = sub.add_parser("classify", help="classify one step's directions")
    common(p)
    p.add_argument("--step", type=int, required=True)
    p.set_defaults(func=cmd_analysis)

    p = sub.add_parser("constraints", help="constraints and bracket table at a step")
    common(p)
    p.add_argument("--step", type=int, required=True)
    p.set_defaults(func=cmd_analysis)

    p = sub.add_parser("evolve", help="canonical solve across one move")
    common(p)
    p.add_argument("--data", required=True, help="canonical data file")
    p.add_argument("--free", default=None, help="free-value file")
    p.add_argument("--direction", choices=("forward", "backward"), default="forward")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("compose", help="effective move over a step range")
    common(p)
    p.add_argument("--from", dest="from_step", type=int, required=True)
    p.add_argument("--to", dest="to_step", type=int, required=True)
    p.set_defaults(func=cmd_analysis)

    p = sub.add_parser("quantum", help="propagators and kernel composition")
    common(p)
    p.add_argument("quantum_action", choices=("propagator", "compose"))
    p.add_argument("--from", dest="from_step", type=int, required=True)
    p.add_argument("--to", dest="to_step", type=int, required=True)
    p.add_argument("--hbar", type=float, default=None)
    p.set_defaults(func=cmd_analysis)

    p = sub.add_parser("example", help="write a generated move file")
    p.add_argument("name", help="example name (square-lattice)")
    p.add_argument("--steps", type=int, default=2)
    p.add_argument("--mass", type=float, default=0.0)
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--out", default=None)
    p.add_argument("--basis-out", default=None, help="also write the reference bases")
    p.set_defaults(func=cmd_example)

    p = sub.add_parser("report", help="full analysis report")
    common(p)
    p.set_defaults(func=cmd_analysis)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (DegeneracyError, InternalError, np.linalg.LinAlgError) as exc:
        print(f"numerical degeneracy: {exc}", file=sys.stderr)
        return EXIT_DEGENERACY
    except ConstraintViolationError as exc:
        print(f"constraint violation: {exc}", file=sys.stderr)
        return EXIT_CONSTRAINT


if __name__ == "__main__":
    raise SystemExit(main())
