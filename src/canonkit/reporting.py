"""Analysis reports: dict trees that serialize losslessly to JSON and render
as text tables.  Every section builder, ``_report_tree`` among them, reads
one ``_Analysis``: the sequence's Tolerance and bases are built once, each
step range is composed once, and the quantum fold glues later steps where
``chain_compose`` did.  Every step range is read by
``MoveSequence.moves_between``, which rejects one that is not
``first <= from < to <= last`` as an InputError.

The section builders hold each matrix and vector as its float64 array,
which ``report_to_json`` writes from the array's bytes; ``full_report``
returns the plain form, with lists in their place."""

from __future__ import annotations

import json
from collections import Counter
from itertools import repeat

import numpy as np

from .actions import moves_tolerance, validate
from .classify import VECTOR_TYPES, classify_sequence
from .constraints import bracket_table, primary_constraints
from .effective import (
    chain_compose,
    count_monotonicity_check,
    degeneracy_dims,
    effective_constraints,
    effective_outer_bases,
)
from .errors import InputError
from .evolution import dof_report
from .linalg import DEFAULT_TOL
from .quantum import compose_kernels, normalized_measure, propagator_from_move
from .serialize import _as_lists, _dumps


class _Analysis:
    """A sequence with its Tolerance and classified bases, and each composed range."""

    def __init__(self, seq, tol=DEFAULT_TOL, overrides=None):
        self.seq, self.tol = seq, moves_tolerance(tol, *seq.moves)
        self.bases = classify_sequence(seq, self.tol, overrides)
        self._overridden = set(overrides or ())
        self._ranges = {}

    def composed(self, from_step, to_step):
        """The range's effective move and its outer bases, built on first use.
        The first glued step starts from its sequence basis unless that basis
        was supplied."""
        if (from_step, to_step) not in self._ranges:
            glued = self.seq.moves_between(from_step, to_step)[0].step_to
            first = (self.bases[glued] if glued < to_step and glued not in self._overridden
                     else None)
            eff = chain_compose(self.seq, from_step, to_step, self.tol, first_basis=first)
            self._ranges[from_step, to_step] = eff, effective_outer_bases(eff, self.tol)
        return self._ranges[from_step, to_step]


def classification_report(an, step):
    basis = an.bases[step]
    return {
        "step": step,
        "counts": {t: basis.counts[t] for t in VECTOR_TYPES},
        "labels": list(basis.labels),
        "abs_det_T": basis.abs_det,
    }


def constraint_entries(cons, classes=None):
    """Report entries of constraints, holding their coefficient arrays."""
    entries = []
    for c, tag in zip(cons, classes or repeat("unresolved")):
        entry = {
            "step": list(c.steps) if len(c.steps) == 2 else c.steps[0],
            "kind": c.kind,
            "source_type": c.source_type,
            "class": tag,
            "p_coeffs": c.p_coeffs,
            "x_coeffs": c.x_coeffs,
            "trivial": bool(c.trivial),
        }
        if c.x_coeffs_other is not None:
            entry["x_coeffs_other"] = c.x_coeffs_other
        if c.multiplier_terms:
            entry["multiplier_terms"] = [[name, float(v)] for name, v in c.multiplier_terms]
        entries.append(entry)
    return entries


def constraints_report(an, step):
    seq, basis = an.seq, an.bases[step]
    cons = primary_constraints(seq.move_into(step), seq.move_out_of(step), basis)
    table = bracket_table(cons, seq.hessian(step), basis, an.tol)
    return {
        "step": step,
        "constraints": constraint_entries(table.constraints, table.class_split),
        "brackets": table.brackets,
        "m_lambda_rho": table.m_lambda_rho,
        "all_first_class": bool(table.all_first_class),
    }


def dof_section(an, step):
    m_in = an.seq.move_into(step)
    m_out = an.seq.move_out_of(step)
    bases = an.bases
    rep = dof_report(m_in, m_out, bases[step - 1], bases[step], bases[step + 1], an.tol)
    return {
        "middle_step": step,
        "counts": {str(k): v for k, v in rep.counts.items()},
        "n_move": {f"{a}->{b}": v for (a, b), v in rep.n_move.items()},
        "n_through": rep.n_through,
        "m_lambda_rho": rep.m_lambda_rho,
        "first_class": rep.first_class,
        "second_class": rep.second_class,
        "roles": [dict(vars(r)) for r in rep.roles],
    }


def effective_section(an, from_step, to_step):
    eff, (b_from, b_to) = an.composed(from_step, to_step)
    m_first = an.seq.move_out_of(from_step)
    m_last = an.seq.move_into(to_step)
    dims = degeneracy_dims(m_first, m_last, eff, an.tol) if to_step == from_step + 2 else None
    cons = effective_constraints(eff, b_from, b_to, an.tol)
    section = {
        "from": from_step,
        "to": to_step,
        "a_eff": eff.a,
        "b_eff": eff.b,
        "c_eff": eff.c,
        "multipliers": [
            {"type": rec.source_type, "step": rec.step, "row": rec.row}
            for rec in eff.multipliers
        ],
        "constraints": constraint_entries(cons),
    }
    if dims is not None:
        section["degeneracy_dims"] = dims
        count_monotonicity_check(m_first, m_last, eff, an.tol)
        section["monotonicity_ok"] = True
    return section


def _amplitude_fields(amp, name, hbar):
    """The reported ``log_modulus``, ``modulus`` and ``i_exponent`` of the
    amplitude of kernel ``name``; ``Amplitude``'s InputError for a modulus
    past float range is raised again naming the kernel and hbar."""
    log_modulus = float(amp.log_modulus)
    try:
        modulus = amp.modulus
    except InputError as exc:
        raise InputError(f"kernel {name}: log_modulus = {log_modulus!r} at hbar = {hbar!r} "
                         f"puts the modulus beyond float range") from exc
    return {"log_modulus": log_modulus, "modulus": modulus, "i_exponent": int(amp.i_exponent)}


def kernel_summary(kernel):
    return {
        "in_step": kernel.in_step,
        "out_step": kernel.out_step,
        "hbar": kernel.hbar,
        **_amplitude_fields(kernel.amplitude, f"{kernel.in_step}->{kernel.out_step}", kernel.hbar),
        "continuous_phase": float(kernel.continuous_phase),
        "delta_count": int(kernel.deltas.shape[0]),
        "delta_labels": list(kernel.delta_labels),
        "A": kernel.A,
        "B": kernel.B,
        "C": kernel.C,
        "deltas": kernel.deltas,
    }


def _hilbert_pair(b_from, b_to):
    """Pre and post Hilbert dimensions of one move: its observable-row counts."""
    return {"pre": len(b_from.pre_observable_rows), "post": len(b_to.post_observable_rows)}


def _move_kernels(an, from_step, to_step):
    """Propagator and pre/post Hilbert dimensions of every move in range."""
    kernels, move_dims = {}, {}
    for m in an.seq.moves_between(from_step, to_step):
        b_from, b_to = an.bases[m.step_from], an.bases[m.step_to]
        kernels[m.step_from, m.step_to] = propagator_from_move(m, b_from, b_to,
                                                              hbar=an.seq.hbar, tol=an.tol)
        move_dims[f"{m.step_from}->{m.step_to}"] = _hilbert_pair(b_from, b_to)
    return kernels, move_dims


def _kernel_summaries(kernels):
    return {f"{a}->{b}": kernel_summary(k) for (a, b), k in kernels.items()}


def propagator_section(an, from_step, to_step):
    """Per-move propagators and Hilbert dimensions; nothing is composed."""
    kernels, move_dims = _move_kernels(an, from_step, to_step)
    return {"moves": _kernel_summaries(kernels), "hilbert_dims": move_dims}


def quantum_section(an, from_step, to_step):
    kernels, move_dims = _move_kernels(an, from_step, to_step)
    keys = sorted(kernels)
    composed, fixed = kernels[keys[0]], {}
    if len(keys) > 1:
        eff, (b_from, b_to) = an.composed(from_step, to_step)
        # the first step is glued at the sequence basis, each later one at the
        # basis chain_compose classified against the composed data
        for key, mid in zip(keys[1:], (an.bases[keys[0][1]],) + eff.glued_bases[1:]):
            composed = compose_kernels(composed, kernels[key], mid, an.tol)
        # the composed move's own classification of its outer steps
        move_dims[f"{from_step}->{to_step}"] = _hilbert_pair(b_from, b_to)
        # the raw composed amplitude is reported on the kernel itself; the
        # re-derived fixed measure of the composed move sits next to it
        amp = normalized_measure(composed, b_from, b_to)
        fixed = {"fixed_measure": _amplitude_fields(
            amp, f"{from_step}->{to_step} (fixed measure)", composed.hbar)}
    return {"moves": _kernel_summaries(kernels), "composed": {**kernel_summary(composed), **fixed},
            "hilbert_dims": move_dims}


def full_report(seq, tol=DEFAULT_TOL, overrides=None):
    """The report as plain dicts, lists, strings and numbers: every matrix
    and vector is ``float_rows`` of its array."""
    return _as_lists(_report_tree(_Analysis(seq, tol, overrides)))


def _report_tree(an):
    """The full report of the analysis, holding the arrays of its sections."""
    seq = an.seq
    report = {
        "Q": seq.dim,
        "hbar": seq.hbar,
        "tol": float(an.tol),
        "diagnostics": validate(seq, an.tol),
        "steps": {str(n): classification_report(an, n) for n in seq.steps},
        "constraints": {str(n): constraints_report(an, n) for n in seq.steps},
    }
    inner = [n for n in seq.steps if seq.move_into(n) and seq.move_out_of(n)]
    report["dof"] = {str(n): dof_section(an, n) for n in inner}
    if len(seq.moves) >= 2:
        report["effective"] = effective_section(an, seq.first_step, seq.first_step + 2)
        report["quantum"] = quantum_section(an, seq.first_step, seq.first_step + 2)
    else:
        report["quantum"] = quantum_section(an, seq.first_step, seq.last_step)
    return report


def report_to_json(report) -> str:
    """The JSON text of a report, plain or holding float64 arrays."""
    return _dumps(report, sort_keys=True)


def report_from_json(text: str):
    return json.loads(text)


def _counts_line(counts) -> str:
    return "  ".join(f"N_{t}={counts[t]}" for t in VECTOR_TYPES if counts[t])


def _bracket_grid(sec, cut=1e-12) -> list:
    """Bracket structure grouped by (kind, source type): 0 where every
    bracket in the group vanishes, X otherwise."""
    cons = sec["constraints"]
    brackets = np.asarray(sec["brackets"])
    if not cons or brackets.size == 0:
        return []
    members = {}    # in order of first appearance
    for k, c in enumerate(cons):
        key = f"{'+' if c['kind'] == 'post' else '-'}C_{c['source_type']}"
        members.setdefault(key, []).append(k)
    groups = list(members)
    scale = max(np.abs(brackets).max(), 1.0)
    width = max(len(g) for g in groups)
    lines = ["  " + " " * (width + 1) + " ".join(g.rjust(width) for g in groups)]
    for gi in groups:
        cells = []
        for gj in groups:
            block = brackets[np.ix_(members[gi], members[gj])]
            cells.append(("X" if np.abs(block).max() > cut * scale else "0").rjust(width))
        lines.append("  " + gi.rjust(width) + " " + " ".join(cells))
    return lines


def render_text(report) -> str:
    """Compact human-readable rendering of a full or partial report."""
    lines = []
    if "counts" in report and "labels" in report:
        # bare single-step classification
        lines.append(
            f"step {report['step']}: {_counts_line(report['counts']) or 'empty'}"
            f"   |det T| = {report['abs_det_T']:.6g}"
        )
        lines.append("labels: " + " ".join(report["labels"]))
    if "steps" in report:
        lines.append(f"Q = {report['Q']}, hbar = {report['hbar']}, tol = {report['tol']}")
        for n, sec in sorted(report["steps"].items(), key=lambda kv: int(kv[0])):
            lines.append(f"step {n}: {_counts_line(sec['counts']) or 'empty'}"
                         f"   |det T| = {sec['abs_det_T']:.6g}")
    if "constraints" in report and isinstance(report["constraints"], dict):
        for n, sec in sorted(report["constraints"].items(), key=lambda kv: int(kv[0])):
            kinds = Counter(c["kind"] for c in sec["constraints"])
            tag = "all first class" if sec["all_first_class"] else "second class present"
            lines.append(
                f"constraints at {n}: " +
                (", ".join(f"{v} {k}" for k, v in sorted(kinds.items())) or "none") +
                f"; {tag}; m_lambda_rho = {sec['m_lambda_rho']}"
            )
            lines.extend(_bracket_grid(sec))
    if "dof" in report:
        for n, sec in sorted(report["dof"].items(), key=lambda kv: int(kv[0])):
            moves = ", ".join(f"N_{k} = {v}" for k, v in sec["n_move"].items())
            lines.append(
                f"dof through {n}: {moves}, through = {sec['n_through']} "
                f"(first class {sec['first_class']}, second class {sec['second_class']})"
            )
    if "effective" in report:
        sec = report["effective"]
        a = np.abs(np.asarray(sec["a_eff"])).max() if len(sec["a_eff"]) else 0.0
        c = np.abs(np.asarray(sec["c_eff"])).max() if len(sec["c_eff"]) else 0.0
        lines.append(
            f"effective {sec['from']}->{sec['to']}: |a~|max = {a:.3g}, |c~|max = {c:.3g}, "
            f"{len(sec['multipliers'])} multipliers, {len(sec['constraints'])} constraints"
        )
        if "degeneracy_dims" in sec:
            d = sec["degeneracy_dims"]
            lines.append(
                f"  degenerate directions: c1 = {d['c1']}, c2 = {d['c2']}, "
                f"h = {d['h']}, c_eff = {d['c_eff']} (monotone)"
            )
    if "quantum" in report:
        sec = report["quantum"]
        for name, k in sorted(sec["moves"].items()):
            lines.append(
                f"kernel {name}: modulus = {k['modulus']:.6g}, "
                f"i_exponent = {k['i_exponent']}, deltas = {k['delta_count']}"
            )
        if "composed" in sec:
            k = sec["composed"]
            lines.append(
                f"composed {k['in_step']}->{k['out_step']}: modulus = {k['modulus']:.6g}, "
                f"i_exponent = {k['i_exponent']}, deltas = {k['delta_count']}"
            )
        for step, d in sorted(sec["hilbert_dims"].items()):
            lines.append(f"  hilbert dims at {step}: pre = {d['pre']}, post = {d['post']}")
    return "\n".join(lines)
