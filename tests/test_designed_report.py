"""``full_report`` on a designed two-move sequence whose middle step has l, r
and z rows: the only kind of input whose effective section carries
multiplier terms and a boundary-data constraint (the square has neither)."""

import json

import numpy as np
import pytest

from helpers import designed_instance

from canonkit.actions import MoveSequence
from canonkit.effective import chain_compose, effective_constraints, effective_outer_bases
from canonkit.reporting import full_report, report_to_json

SIZES = {"I": 1, "H": 1, "l": 1, "lambda": 2, "r": 1, "rho": 2, "z": 1, "gamma": 3}


@pytest.fixture(scope="module")
def designed():
    m1, m2 = designed_instance(np.random.default_rng(5), SIZES)
    seq = MoveSequence(m1.dim, (m1, m2))
    eff = chain_compose(seq, 0, 2)
    return full_report(seq), eff, effective_constraints(eff, *effective_outer_bases(eff))


def test_designed_report_json_is_the_stdlib_text(designed):
    report, _, _ = designed
    assert report_to_json(report) == json.dumps(report, indent=1, sort_keys=True)


def test_designed_report_effective_section_matches_effective_constraints(designed):
    report, eff, cons = designed
    section = report["effective"]
    assert [(m["type"], m["step"]) for m in section["multipliers"]] == [("l", 1), ("r", 1), ("z", 1)]
    assert [m["row"] for m in section["multipliers"]] == [rec.row.tolist() for rec in eff.multipliers]

    entries = section["constraints"]
    assert len(entries) == len(cons)
    terms = [(k, e["multiplier_terms"]) for k, e in enumerate(entries) if "multiplier_terms" in e]
    assert terms == [(k, [list(t) for t in c.multiplier_terms])
                     for k, c in enumerate(cons) if c.multiplier_terms]
    # every primary constraint of both outer steps gains l/z or r/z terms
    assert len(terms) == len(cons) - len(eff.multipliers) > 0
    others = [(k, e["x_coeffs_other"]) for k, e in enumerate(entries) if "x_coeffs_other" in e]
    assert others == [(k, c.x_coeffs_other.tolist())
                      for k, c in enumerate(cons) if c.x_coeffs_other is not None]
    assert len(others) == 1
