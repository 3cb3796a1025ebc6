"""The benchmark's three workloads.

Each workload builds its inputs in ``setup``, hands the timed loop a list of
items, runs one item with ``run_item`` (the timed part) and checks the
item's outputs with ``check_item`` (untimed).  ``check_item`` returns a list
of mismatch messages; an empty list means the outputs are correct.

square-report   ``canonkit report --format json`` in-process on the expanding
                square at N = 16, mass 0.5 (Q = 124): classification, the
                bracket tables' Python loop and JSON output dominate.
square-chain    the quantum and composition path on the same square: kernels,
                their left fold, ``chain_compose`` and state projection and
                evolution for every move; no report, no JSON.
designed-scan   a stream of small two-move instances with prescribed type
                sizes, so l/r/z rows, multiplier records and delta factors
                appear; per-call overhead matters more than LAPACK time.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from canonkit import cli, serialize
from canonkit.actions import QuadraticMove
from canonkit.classify import classify_sequence, classify_step
from canonkit.constraints import (
    bracket_table,
    primary_constraints,
    secondary_constraints,
)
from canonkit.effective import (
    chain_compose,
    compose,
    count_monotonicity_check,
    effective_constraints,
    effective_outer_bases,
)
from canonkit.evolution import boundary_solve, dof_report
from canonkit.lattice import expanding_square_sequence
from canonkit.linalg import right_null_basis
from canonkit.quantum import (
    Amplitude,
    GaussianState,
    compose_kernels,
    evolve_state,
    hilbert_dims,
    project_physical,
    propagator_from_move,
    unitarity_check,
)

SQUARE_MASS = 0.5
SQUARE_N = 16
SMOKE_N = 2
SCAN_Q = range(8, 33)
SCAN_PER_Q = 10
SMOKE_INSTANCES = 5
TYPE_ORDER = ("I", "H", "l", "lambda", "r", "rho", "z", "gamma")

# Floats in reference values must match to this relative tolerance, so that
# a change in rounding passes while a changed answer does not.
REL_TOL = 1e-8
# Largest accepted boundary_solve residual, relative to the data scale.
RESIDUAL_TOL = 1e-8
# The known rank defect: when lambda + gamma = 0 or rho + gamma = 0, c~
# vanishes exactly and its round-off passes for full rank, so the monotonicity
# check raises.  Only this error on such an instance is an expected failure.
KNOWN_DEFECT = "InternalError in count_monotonicity_check"


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1.0)


def compare(got, want, path="") -> list:
    """Mismatches between two JSON-like values; floats within REL_TOL."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got} != {sorted(want)}"]
        out = []
        for key in want:
            out.extend(compare(got[key], want[key], f"{path}/{key}"))
        return out
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got} != {want}"]
        out = []
        for k, (g, w) in enumerate(zip(got, want)):
            out.extend(compare(g, w, f"{path}/{k}"))
        return out
    if isinstance(want, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
        return [] if _close(float(got), want) else [f"{path}: {got!r} != {want!r}"]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def _nonzero_counts(counts: dict) -> dict:
    return {t: int(v) for t, v in counts.items() if v}


# ---------------------------------------------------------------------------
# square-report
# ---------------------------------------------------------------------------


def report_summary(report: dict) -> dict:
    """The checked quantities of a full report."""
    constraints = {}
    for n, sec in report["constraints"].items():
        kinds = {}
        for c in sec["constraints"]:
            kinds[c["kind"]] = kinds.get(c["kind"], 0) + 1
        constraints[n] = {
            "kinds": kinds,
            "all_first_class": sec["all_first_class"],
            "m_lambda_rho": sec["m_lambda_rho"],
        }
    dof = {
        n: {key: sec[key] for key in ("n_move", "n_through", "m_lambda_rho",
                                       "first_class", "second_class")}
        for n, sec in report["dof"].items()
    }
    composed = report["quantum"]["composed"]
    return {
        "counts": {n: _nonzero_counts(sec["counts"]) for n, sec in report["steps"].items()},
        "constraints": constraints,
        "dof": dof,
        "hilbert_dims": report["quantum"]["hilbert_dims"],
        "composed": {
            "i_exponent": composed["i_exponent"],
            "log_modulus": float(composed["log_modulus"]),
            "delta_count": composed["delta_count"],
        },
    }


class SquareReport:
    """The report command on a move file written during set-up."""

    name = "square-report"

    def __init__(self, workdir: Path, seed: int, smoke: bool, reference: dict):
        self.n = SMOKE_N if smoke else SQUARE_N
        self.workdir = workdir
        self.moves_path = workdir / f"square{self.n}.json"
        self.report_path = workdir / f"report{self.n}.json"
        self.warm_path = workdir / "warm.json"
        self.warm_report = workdir / "warm-report.json"
        self.reference = reference.get(f"{self.name}/{self.n}")

    def setup(self):
        fx = expanding_square_sequence(self.n, mass=SQUARE_MASS)
        serialize.save_sequence(fx.sequence, self.moves_path)
        warm = expanding_square_sequence(SMOKE_N, mass=SQUARE_MASS)
        serialize.save_sequence(warm.sequence, self.warm_path)
        self._report(self.warm_path, self.warm_report)

    def items(self):
        return [None]

    @staticmethod
    def _report(moves, out) -> int:
        return cli.main(["report", "--format", "json", "--input", str(moves), "--out", str(out)])

    def run_item(self, item):
        return self._report(self.moves_path, self.report_path)

    def failure(self, rc) -> str | None:
        return None if rc == 0 else f"exit code {rc}"

    def known_failure(self, item, kind: str) -> bool:
        return False

    def check_item(self, item, rc) -> list:
        if not self.reference:
            return ["no reference recorded"]
        return compare(self.summary(), self.reference)

    def summary(self) -> dict:
        report = json.loads(self.report_path.read_text(encoding="utf-8"))
        return report_summary(report)

    def cleanup(self):
        for path in (self.moves_path, self.report_path, self.warm_path, self.warm_report):
            path.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# square-chain
# ---------------------------------------------------------------------------


def run_chain(seq) -> dict:
    """Classification, kernels and their fold, chain_compose and the
    projection and evolution of one state per move."""
    bases = classify_sequence(seq)
    kernels = [
        propagator_from_move(m, bases[m.step_from], bases[m.step_to], hbar=seq.hbar)
        for m in seq.moves
    ]
    composed = kernels[0]
    for k in kernels[1:]:
        composed = compose_kernels(composed, k, bases[k.in_step])
    eff = chain_compose(seq, seq.first_step, seq.last_step)
    q = seq.dim
    evolved = []
    for m, k in zip(seq.moves, kernels):
        pre = [c for c in primary_constraints(None, m, bases[m.step_from]) if c.kind == "pre"]
        state = GaussianState(
            m.step_from, seq.hbar, Amplitude(), M=-m.a + 1j * np.eye(q), j=np.zeros(q)
        )
        evolved.append(evolve_state(k, project_physical(state, pre, "pre")))
    return {"composed": composed, "eff": eff, "evolved": evolved}


def chain_summary(out: dict) -> dict:
    amp = out["composed"].amplitude
    return {
        "composed": {
            "log_modulus": float(amp.log_modulus),
            "i_exponent": int(amp.i_exponent),
            "phase": float(amp.phase),
            "delta_count": int(out["composed"].deltas.shape[0]),
        },
        "c_eff_null_dim": right_null_basis(out["eff"].c).dim,
        "evolved": [
            {"log_modulus": float(s.amplitude.log_modulus), "i_exponent": int(s.amplitude.i_exponent)}
            for s in out["evolved"]
        ],
    }


class SquareChain:
    """Composition and state evolution on the in-memory square sequence."""

    name = "square-chain"

    def __init__(self, workdir: Path, seed: int, smoke: bool, reference: dict):
        self.n = SMOKE_N if smoke else SQUARE_N
        self.reference = reference.get(f"{self.name}/{self.n}")

    def setup(self):
        self.seq = expanding_square_sequence(self.n, mass=SQUARE_MASS).sequence
        run_chain(expanding_square_sequence(SMOKE_N, mass=SQUARE_MASS).sequence)

    def items(self):
        return [None]

    def run_item(self, item):
        return run_chain(self.seq)

    def check_item(self, item, out) -> list:
        if not self.reference:
            return ["no reference recorded"]
        return compare(chain_summary(out), self.reference)

    def failure(self, out) -> str | None:
        return None

    def known_failure(self, item, kind: str) -> bool:
        return False

    def cleanup(self):
        pass


# ---------------------------------------------------------------------------
# designed-scan
# ---------------------------------------------------------------------------


def random_sizes(rng, q: int) -> dict:
    """A random composition of q into the eight types (sorted uniform cut
    points); groups may be empty."""
    cuts = np.sort(rng.integers(0, q + 1, size=len(TYPE_ORDER) - 1))
    sizes = np.diff(np.concatenate([[0], cuts, [q]]))
    return {t: int(s) for t, s in zip(TYPE_ORDER, sizes)}


def _orthogonal(rng, q):
    m, r = np.linalg.qr(rng.normal(size=(q, q)))
    return m * np.where(np.diag(r) < 0, -1.0, 1.0)


def _symmetric(rng, q):
    m = rng.normal(size=(q, q))
    return 0.5 * (m + m.T)


def designed_instance(rng, sizes: dict) -> dict:
    """Two moves 0 -> 1 -> 2 whose middle step has the given type sizes, plus
    outer configurations consistent with the middle-step equations of motion.

    In slot coordinates the right null space of c1 is exactly the I, H, r, rho
    slots, the left null space of c2 the I, H, l, lambda slots and the null
    space of h the I, l, r, z slots; random rotations of the three steps then
    hide the slots.
    """
    q = sum(sizes.values())
    slots, k = {}, 0
    for t in TYPE_ORDER:
        slots[t] = list(range(k, k + sizes[t]))
        k += sizes[t]

    def cols(*types):
        return [i for t in types for i in slots[t]]

    w1 = cols("l", "lambda", "z", "gamma")
    w2 = cols("r", "rho", "z", "gamma")
    wh = cols("H", "lambda", "rho", "gamma")
    raw1 = np.zeros((q, q))
    raw1[:, w1] = rng.normal(size=(q, len(w1)))
    raw2 = np.zeros((q, q))
    raw2[w2, :] = rng.normal(size=(len(w2), q))
    raw_h = np.zeros((q, q))
    raw_h[np.ix_(wh, wh)] = _symmetric(rng, len(wh)) + 2.0 * np.eye(len(wh))

    o_prev, o_mid, o_next = (_orthogonal(rng, q) for _ in range(3))
    c1 = o_prev @ raw1 @ o_mid.T
    c2 = o_mid @ raw2 @ o_next.T
    h = o_mid @ raw_h @ o_mid.T
    h = 0.5 * (h + h.T)
    b1 = _symmetric(rng, q)
    move1 = QuadraticMove(0, 1, _symmetric(rng, q), b1, c1)
    move2 = QuadraticMove(1, 2, h - b1, _symmetric(rng, q), c2)

    # boundary data: the l, r and z directions of h's null space must be
    # orthogonal to the source c1ᵀ x0 + c2 x2
    null_dirs = o_mid[:, cols("l", "r", "z")]
    x = rng.normal(size=2 * q)
    if null_dirs.shape[1]:
        k_mat = np.hstack([null_dirs.T @ c1.T, null_dirs.T @ c2])
        basis, _ = np.linalg.qr(k_mat.T)
        x = x - basis @ (basis.T @ x)
    return {"sizes": sizes, "move1": move1, "move2": move2, "x0": x[:q], "x2": x[q:]}


def run_instance(inst: dict) -> dict:
    m1, m2 = inst["move1"], inst["move2"]
    h = m1.b + m2.a
    b0 = classify_step(None, m1.c, m1.a, step=0)
    b1 = classify_step(m1.c, m2.c, h, step=1)
    b2 = classify_step(m2.c, None, m2.b, step=2)
    cons = primary_constraints(m1, m2, b1)
    bracket_table(cons, h, b1)
    secondary = secondary_constraints(m1, m2, b1)
    dof_report(m1, m2, b0, b1, b2)
    eff = compose(m1, m2, b1)
    count_monotonicity_check(m1, m2, eff)
    b_from, b_to = effective_outer_bases(eff)
    effective_constraints(eff, b_from, b_to)
    x1 = boundary_solve(m1, m2, b1, inst["x0"], inst["x2"])
    k1 = propagator_from_move(m1, b0, b1)
    k2 = propagator_from_move(m2, b1, b2)
    unitary = [unitarity_check(k1, b0, b1), unitarity_check(k2, b1, b2)]
    k02 = compose_kernels(k1, k2, b1)
    dims = [
        hilbert_dims(primary_constraints(None, m1, b0), m1.dim),
        hilbert_dims(primary_constraints(m1, None, b1), m1.dim),
        hilbert_dims(primary_constraints(None, m2, b1), m2.dim),
        hilbert_dims(primary_constraints(m2, None, b2), m2.dim),
    ]
    return {
        "counts": b1.counts,
        "secondary": len(secondary),
        "x1": x1,
        "unitary": unitary,
        "deltas": int(k02.deltas.shape[0]),
        "hilbert_dims": dims,
    }


def instance_mismatches(inst: dict, out: dict) -> list:
    s = inst["sizes"]
    m1, m2 = inst["move1"], inst["move2"]
    bad = []
    if out["counts"] != s:
        bad.append(f"middle-step counts {_nonzero_counts(out['counts'])} != designed {_nonzero_counts(s)}")
    if not all(out["unitary"]):
        bad.append(f"unitarity_check failed: {out['unitary']}")
    n_q = s["l"] + s["r"] + s["z"]
    if out["secondary"] != n_q or out["deltas"] != n_q:
        bad.append(f"{out['secondary']} secondary constraints, {out['deltas']} deltas; designed {n_q}")
    rank1 = s["l"] + s["lambda"] + s["z"] + s["gamma"]
    rank2 = s["r"] + s["rho"] + s["z"] + s["gamma"]
    if out["hilbert_dims"] != [rank1, rank1, rank2, rank2]:
        bad.append(f"hilbert dims {out['hilbert_dims']} != {[rank1, rank1, rank2, rank2]}")
    source = m1.c.T @ inst["x0"] + m2.c @ inst["x2"]
    scale = max(np.abs(source).max(), np.abs(inst["x0"]).max(), np.abs(inst["x2"]).max(), 1.0)
    resid = np.abs((m1.b + m2.a) @ out["x1"] + source).max() / scale
    if not resid <= RESIDUAL_TOL:
        bad.append(f"boundary_solve residual {resid:.3e}")
    return bad


class DesignedScan:
    """A seeded stream of designed two-move instances."""

    name = "designed-scan"

    def __init__(self, workdir: Path, seed: int, smoke: bool, reference: dict):
        self.seed = seed
        self.smoke = smoke

    def setup(self):
        # Q is uniform over SCAN_Q, stratified so that every value appears
        # equally often: the seed then changes the type sizes and matrices
        # but not the mix of problem sizes, which sets most of the run time
        rng = np.random.default_rng(self.seed)
        qs = rng.permutation(np.repeat(list(SCAN_Q), SCAN_PER_Q))
        if self.smoke:
            qs = qs[:SMOKE_INSTANCES]
        self.instances = [designed_instance(rng, random_sizes(rng, int(q))) for q in qs]
        # the same small instance for every seed, one row of each type
        run_instance(designed_instance(np.random.default_rng(0), {t: 1 for t in TYPE_ORDER}))

    def items(self):
        return self.instances

    def run_item(self, item):
        return run_instance(item)

    def check_item(self, item, out) -> list:
        return instance_mismatches(item, out)

    def failure(self, out) -> str | None:
        return None

    def known_failure(self, item, kind: str) -> bool:
        s = item["sizes"]
        return kind == KNOWN_DEFECT and 0 in (s["lambda"] + s["gamma"], s["rho"] + s["gamma"])

    def cleanup(self):
        pass


WORKLOADS = {w.name: w for w in (SquareReport, SquareChain, DesignedScan)}
