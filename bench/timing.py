"""Set-up, the timed loop, and the metrics of one benchmark run."""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

from spans import Tracer

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE = BENCH_DIR / "reference.json"
MAX_MISMATCHES = 5
MAX_TRACEBACK = 2000

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "item_ms.p50": "ms",
    "item_ms.p95": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

# layers reported with self time, call counts, or both
SELF_TIME = (
    "linalg.null_basis", "linalg.intersect", "linalg.rank",
    "classify.step", "classify.rows",
    "constraints.primary", "constraints.bracket_table", "constraints.secondary",
    "evolution.dof_report", "evolution.solve",
    "effective.compose", "effective.chain_compose", "effective.outer",
    "quantum.propagator", "quantum.compose_kernels", "quantum.project_physical",
    "quantum.evolve_state", "quantum.hilbert_dims", "quantum.checks",
    "serialize.load", "reporting.full_report", "reporting.to_json", "cli.main",
    "actions.validate",
)
CALLS = (
    "linalg.null_basis", "linalg.intersect", "classify.step",
    "constraints.poisson_bracket", "effective.compose", "quantum.compose_kernels",
    "actions.hessian",
)
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in SELF_TIME},
    **{f"{layer}.calls": "count" for layer in CALLS},
    "linalg.svd_work": "count",
    "constraints.bracket_nonzero_frac": "ratio",
    "effective.multipliers": "count",
    "effective.errors": "count",
    "quantum.deltas": "count",
    "serialize.load_mb": "MB",
    "reporting.json_mb": "MB",
    "lattice.generate_s": "s",
    "trace.overhead_s": "s",
}


def error_kind(exc: BaseException) -> str:
    """Exception type and the innermost canonkit function it left."""
    where = "?"
    for frame in traceback.extract_tb(exc.__traceback__):
        if "canonkit" in Path(frame.filename).parts:
            where = frame.name
    return f"{type(exc).__name__} in {where}"


def run_pass(wl, tracer=None) -> dict:
    """One pass over the workload's items; checks run untimed and untraced.

    ``outcomes`` holds, per item, None if it passed or the kind of failure.
    Failures that the workload does not list as known are counted under
    ``unexpected`` and make the run incorrect.
    """
    gc.collect()
    latencies, outcomes, unexpected, mismatches, examples = [], [], Counter(), [], {}
    for item in wl.items():
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            out = wl.run_item(item)
        except Exception as exc:  # a failed operation; the stream goes on
            latencies.append(time.perf_counter() - t0)
            kind = error_kind(exc)
            outcomes.append(kind)
            if not wl.known_failure(item, kind):
                unexpected[kind] += 1
            if kind not in examples:
                text = "".join(traceback.format_exception(exc))
                # paths relative to the checkout, so records compare across machines
                text = text.replace(f"{BENCH_DIR.parent}{os.sep}", "")
                examples[kind] = text[-MAX_TRACEBACK:]
            continue
        finally:
            if tracer is not None:
                tracer.active = False
        latencies.append(time.perf_counter() - t0)
        why = wl.failure(out)
        if why is not None:
            outcomes.append(why)
            unexpected[why] += 1
            continue
        bad = wl.check_item(item, out)
        outcomes.append("output mismatch" if bad else None)
        mismatches.extend(bad)
    return {"wall": sum(latencies), "latencies": latencies, "outcomes": outcomes,
            "unexpected": unexpected, "mismatches": mismatches, "tracebacks": examples}


def timed_passes(wl, seconds: float, tracer=None, probe=None, n_probes=0) -> tuple:
    """Passes until ``seconds`` of loop time have elapsed (at least one).

    ``probe`` is called ``n_probes`` times, spread evenly over the loop
    between passes; its time does not count towards ``seconds``.  Returns
    the passes and the probes' results.
    """
    passes, probes = [], []
    loop_s = 0.0
    while not passes or loop_s < seconds:
        due = min(n_probes, 1 + int((n_probes - 1) * loop_s / seconds))
        while len(probes) < due:
            probes.append(probe())
        start = time.perf_counter()
        p = run_pass(wl, tracer)
        if tracer is not None:
            p["spans"], p["self_s"], p["counts"] = tracer.take()
        passes.append(p)
        loop_s += time.perf_counter() - start
    while len(probes) < n_probes:
        probes.append(probe())
    return passes, probes


def slowest_item_times(passes: list) -> np.ndarray:
    """Each item's slowest time over the passes after the first.

    The first pass is a warm-up when there are others.  On a host whose cores
    are shared, an item runs fast while the neighbouring work is idle and at
    a steady slower speed while it is busy; how long the fast spells last
    changes from run to run, so the median over passes does too, while the
    slowest time of an item repeats.
    """
    timed = passes[1:] or passes
    return np.max([p["latencies"] for p in timed], axis=0)


def layer_metrics(self_s: dict, counts: Counter) -> dict:
    """Per-layer metrics of one traced pass."""
    m = {f"{layer}.self_s": self_s.get(layer, 0.0) for layer in SELF_TIME}
    m.update({f"{layer}.calls": counts[f"{layer}.calls"] for layer in CALLS})
    computed = counts["constraints.bracket_computed"]
    m.update({
        "linalg.svd_work": counts["linalg.svd_work"],
        "constraints.bracket_nonzero_frac":
            counts["constraints.bracket_nonzero"] / computed if computed else 0.0,
        "effective.multipliers": counts["effective.multipliers"],
        "effective.errors": counts["effective.errors"],
        "quantum.deltas": counts["quantum.deltas"],
        "serialize.load_mb": counts["serialize.load_bytes"] / 1e6,
        "reporting.json_mb": counts["reporting.json_bytes"] / 1e6,
    })
    return m


def write_spans(path: Path, passes: list):
    with path.open("w", encoding="utf-8") as f:
        for k, p in enumerate(passes):
            for layer, start, end, parent in p["spans"]:
                f.write(json.dumps([k, layer, start, end, parent]) + "\n")


def run_workload(workloads, name, seed, seconds, traced, smoke, workdir,
                 probe_setup=None, n_probes=0):
    """Set up and time one workload; returns (result, record).

    Untraced, ``setup_s`` is the median of ``n_probes`` calls of
    ``probe_setup``, which times one cold set-up and returns the seconds.
    """
    reference = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.is_file() else {}
    wl = workloads.WORKLOADS[name](workdir, seed, smoke, reference)
    setup_probes = []
    try:
        wl.setup()

        if traced:
            untraced, _ = timed_passes(wl, seconds / 2)
            tracer = Tracer()
            tracer.install(callers=[workloads])
            try:
                tracer.active = True
                wl.setup()
                tracer.active = False
                _, setup_self, _ = tracer.take()
                traced_passes, _ = timed_passes(wl, seconds / 2, tracer)
            finally:
                tracer.active = False
                tracer.uninstall()
            write_spans(workdir / f"spans-{name}-{seed}.jsonl", traced_passes)
            per_pass = [layer_metrics(p["self_s"], p["counts"]) for p in traced_passes]
            metrics = {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
            metrics["lattice.generate_s"] = setup_self.get("lattice.generate", 0.0)
            metrics["trace.overhead_s"] = (
                statistics.median(p["wall"] for p in traced_passes)
                - statistics.median(p["wall"] for p in untraced)
            )
            passes = untraced + traced_passes
        else:
            passes, setup_probes = timed_passes(wl, seconds, probe=probe_setup,
                                                n_probes=n_probes)
            slowest = slowest_item_times(passes)
            metrics = {
                "setup_s": statistics.median(setup_probes),
                "wall_s": float(slowest.sum()),
                "item_ms.p50": float(np.percentile(1e3 * slowest, 50)),
                "item_ms.p95": float(np.percentile(1e3 * slowest, 95)),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            }
    finally:
        wl.cleanup()

    # An operation is one item.  The passes repeat the same items to time
    # them, and each must reproduce the first pass's outcome, so attempted and
    # failed depend on the workload and seed alone, not on the pass count.
    outcomes = passes[0]["outcomes"]
    attempted = len(outcomes)
    errors = Counter(o for o in outcomes if o is not None)
    failed = sum(errors.values())
    changed = sum(a != b for p in passes[1:] for a, b in zip(outcomes, p["outcomes"]))
    unexpected = sum((p["unexpected"] for p in passes), Counter())
    mismatches = [m for p in passes for m in p["mismatches"]]
    if not traced:
        metrics["ok_frac"] = (attempted - failed) / attempted
    result = {"correct": not mismatches and not unexpected and not changed,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "smoke": smoke,
        "passes": len(passes),
        "pass_walls_s": [p["wall"] for p in passes],
        "items_per_pass": len(passes[0]["latencies"]),
        "setup_probes_s": setup_probes,
        "failed_frac": failed / attempted,
        "errors": dict(errors),
        "outcome_changes": changed,
        "unexpected_errors": dict(unexpected),
        "mismatches": mismatches[:MAX_MISMATCHES],
        "tracebacks": {k: v for p in reversed(passes) for k, v in p["tracebacks"].items()},
    }
    return result, record
