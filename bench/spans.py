"""Span recorder for the traced benchmark run.

The tracer wraps canonkit's public functions at every place a canonkit
module binds them (``canonkit.classify.intersect``,
``canonkit.reporting.classify_sequence``, ...), so calls between modules are
seen without changing the library.  Each wrapped call records a span (layer,
start, end, parent) in memory; a layer's self time is its spans' duration
minus the time covered by their child spans.  Counts are taken at the same
boundaries.  Untraced runs never install the wrappers.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np


def _shape2d(m) -> tuple:
    shape = np.shape(m)
    if len(shape) == 2:
        return shape
    if len(shape) == 1:
        return (1, shape[0])
    return (1, 1)


def _svd_work(args, kwargs, result, counts):
    """m*n*min(m, n) of the matrix handed to an SVD-based linalg helper."""
    m, n = _shape2d(args[0] if args else kwargs["m"])
    counts["linalg.svd_work"] += m * n * min(m, n)


def _bracket_entries(args, kwargs, result, counts):
    """Computed and nonzero upper-triangle entries of a bracket table.

    An entry counts as nonzero when it exceeds the table's own first-class
    threshold, so round-off in vanishing brackets is not counted.
    """
    table = result.brackets
    n = table.shape[0]
    if n < 2:
        return
    tol = kwargs.get("tol", args[3] if len(args) > 3 else 1e-10)
    upper = table[np.triu_indices(n, 1)]
    scale = max(np.abs(table).max(), 1.0)
    counts["constraints.bracket_computed"] += upper.size
    counts["constraints.bracket_nonzero"] += int(np.sum(np.abs(upper) > tol * n * scale))


def _carried(move) -> int:
    return len(getattr(move, "multipliers", ()))


def _new_multipliers(args, kwargs, result, counts):
    counts["effective.multipliers"] += (
        len(result.multipliers) - _carried(args[0]) - _carried(args[1])
    )


def _new_deltas(args, kwargs, result, counts):
    k1, k2 = args[0], args[1]
    counts["quantum.deltas"] += (
        result.deltas.shape[0] - k1.deltas.shape[0] - k2.deltas.shape[0]
    )


def _load_bytes(args, kwargs, result, counts):
    counts["serialize.load_bytes"] += os.path.getsize(args[0] if args else kwargs["path"])


def _json_bytes(args, kwargs, result, counts):
    counts["reporting.json_bytes"] += len(result)


# (layer, module, attribute, hook).  An attribute "Class.method" wraps the
# method on its class.  Every span also counts its calls.
SPANS = (
    ("linalg.null_basis", "canonkit.linalg", "right_null_basis", _svd_work),
    ("linalg.rank", "canonkit.linalg", "numeric_rank", _svd_work),
    ("linalg.intersect", "canonkit.linalg", "intersect", None),
    ("linalg.intersect", "canonkit.linalg", "subtract", None),
    ("classify.step", "canonkit.classify", "classify_step", None),
    ("classify.rows", "canonkit.classify", "classify_rows", None),
    ("classify.rows", "canonkit.classify", "label_for", None),
    ("classify.rows", "canonkit.classify", "ClassifiedBasis.rows_of", None),
    ("constraints.primary", "canonkit.constraints", "primary_constraints", None),
    ("constraints.bracket_table", "canonkit.constraints", "bracket_table", _bracket_entries),
    ("constraints.secondary", "canonkit.constraints", "secondary_constraints", None),
    ("evolution.dof_report", "canonkit.evolution", "dof_report", None),
    ("evolution.solve", "canonkit.evolution", "forward_solve", None),
    ("evolution.solve", "canonkit.evolution", "backward_solve", None),
    ("evolution.solve", "canonkit.evolution", "boundary_solve", None),
    ("evolution.solve", "canonkit.evolution", "fixed_variable_solve", None),
    ("effective.compose", "canonkit.effective", "compose", _new_multipliers),
    ("effective.chain_compose", "canonkit.effective", "chain_compose", None),
    ("effective.outer", "canonkit.effective", "effective_outer_bases", None),
    ("effective.outer", "canonkit.effective", "effective_constraints", None),
    # not reported; wrapped so that its errors count as effective.errors
    ("effective.monotonicity", "canonkit.effective", "count_monotonicity_check", None),
    ("quantum.propagator", "canonkit.quantum", "propagator_from_move", None),
    ("quantum.propagator", "canonkit.quantum", "normalized_measure", None),
    ("quantum.compose_kernels", "canonkit.quantum", "compose_kernels", _new_deltas),
    ("quantum.project_physical", "canonkit.quantum", "project_physical", None),
    ("quantum.evolve_state", "canonkit.quantum", "evolve_state", None),
    ("quantum.hilbert_dims", "canonkit.quantum", "hilbert_dims", None),
    ("quantum.checks", "canonkit.quantum", "unitarity_check", None),
    ("quantum.checks", "canonkit.quantum", "check_annihilation", None),
    ("serialize.load", "canonkit.serialize", "load_sequence", _load_bytes),
    ("reporting.full_report", "canonkit.reporting", "full_report", None),
    ("reporting.to_json", "canonkit.reporting", "report_to_json", _json_bytes),
    ("cli.main", "canonkit.cli", "main", None),
    ("actions.validate", "canonkit.actions", "validate", None),
    ("lattice.generate", "canonkit.lattice", "expanding_square_sequence", None),
)

# Calls too frequent and too small for a span each: counted only, their time
# stays with the calling span.
COUNTED = (
    ("constraints.poisson_bracket", "canonkit.constraints", "poisson_bracket"),
    ("actions.hessian", "canonkit.actions", "MoveSequence.hessian"),
)


class Tracer:
    """In-memory spans and counts around wrapped canonkit calls."""

    def __init__(self):
        self.spans = []          # [layer, start, end, parent index]
        self.counts = Counter()
        self.active = False
        self._stack = []
        self._patched = []       # (owner, attribute, original)

    # -- installation --------------------------------------------------------

    def install(self, callers=()):
        """Wrap every binding in canonkit's modules and in ``callers``."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "canonkit" or name.startswith("canonkit."))]
        modules.extend(callers)
        for layer, module, attr, hook in SPANS:
            self._patch(modules, module, attr,
                        lambda fn, layer=layer, hook=hook: self._span(layer, fn, hook))
        for layer, module, attr in COUNTED:
            self._patch(modules, module, attr, lambda fn, layer=layer: self._counter(layer, fn))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, modules, module, attr, make_wrapper):
        mod = sys.modules[module]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            original = cls.__dict__[meth]
            self._patched.append((cls, meth, original))
            setattr(cls, meth, make_wrapper(original))
            return
        original = getattr(mod, attr)
        wrapper = make_wrapper(original)
        for loaded in modules:
            for binding, value in list(vars(loaded).items()):
                if value is original:
                    self._patched.append((loaded, binding, original))
                    setattr(loaded, binding, wrapper)

    # -- wrappers ------------------------------------------------------------

    def _span(self, layer, fn, hook):
        spans, stack, counts = self.spans, self._stack, self.counts
        module = layer.split(".")[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([layer, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                # count each error once, in the layer it left first
                if not getattr(exc, "_bench_layer", None):
                    exc._bench_layer = module
                    counts[f"{module}.errors"] += 1
                raise
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            counts[f"{layer}.calls"] += 1
            if hook is not None:
                hook(args, kwargs, result, counts)
            return result

        return wrapper

    def _counter(self, layer, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                counts[f"{layer}.calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- results -------------------------------------------------------------

    def take(self):
        """The spans, per-layer self time and counts since the last take; resets them."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        for k, (layer, start, end, parent) in enumerate(self.spans):
            self_s[layer] += (end - start) - child[k]
        # the wrappers hold these containers, so empty them in place
        spans, counts = list(self.spans), Counter(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, dict(self_s), counts
