"""The text report's bracket grid agrees with the class tags of the same run.

A designed middle step gets symmetric noise of size 1e-8 in h.  At any
``--tol``, a row group of the grid whose constraints the JSON tags all
"first" must read 0 in every cell: the grid and the tags make one zero
decision, at the run's Tolerance.
"""

import contextlib
import io
import json
import os
import tempfile
from dataclasses import replace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import designed_instance

from canonkit.actions import MoveSequence
from canonkit.cli import main
from canonkit.classify import VECTOR_TYPES
from canonkit.serialize import save_sequence


def noisy_step(design_seed, sizes, noise_seed):
    """A designed two-move instance with (e + eᵀ)/2 added to move 2's a,
    e of size 1e-8."""
    m1, m2 = designed_instance(np.random.default_rng(design_seed), sizes)
    e = np.random.default_rng(noise_seed).normal(size=(m1.dim, m1.dim)) * 1e-8
    return MoveSequence(m1.dim, (m1, replace(m2, a=m2.a + (e + e.T) / 2)))


def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def first_class_rows_with_an_x(path, tol):
    """The grid rows of step 1 whose constraints are all tagged first but
    that hold an X.  Noise above ``tol`` can make the classification itself
    raise DegeneracyError (exit 3), in both formats; that run has no grid."""
    args = ("constraints", "--input", path, "--step", "1", "--tol", repr(tol))
    (code, report), (text_code, text) = run(*args, "--format", "json"), run(*args)
    assert code == text_code and code in (0, 3)
    if code:
        return []
    tags = {}
    for c in json.loads(report)["constraints"]["1"]["constraints"]:
        group = f"{'+' if c['kind'] == 'post' else '-'}C_{c['source_type']}"
        tags.setdefault(group, set()).add(c["class"])
    grid = [line.split() for line in text.splitlines()[2:]]
    assert {row[0] for row in grid} == set(tags)
    return [row[0] for row in grid if tags[row[0]] == {"first"} and "X" in row[1:]]


@settings(max_examples=40, deadline=None)
@given(design_seed=st.integers(0, 2**32 - 1), noise_seed=st.integers(0, 2**32 - 1),
       sizes=st.fixed_dictionaries({t: st.integers(0, 2) for t in VECTOR_TYPES}),
       tol=st.sampled_from([1e-10, 1e-6, 1e-5]))
@example(design_seed=5, noise_seed=1, sizes={"I": 2, "H": 1, "lambda": 1, "rho": 1, "gamma": 2},
         tol=1e-5)
def test_first_class_rows_of_the_grid_read_zero(design_seed, noise_seed, sizes, tol):
    sizes = dict(sizes, gamma=sizes["gamma"] + 1)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "moves.json")
        save_sequence(noisy_step(design_seed, sizes, noise_seed), path)
        assert first_class_rows_with_an_x(path, tol) == []
