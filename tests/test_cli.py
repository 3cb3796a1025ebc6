import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from canonkit import reporting, serialize
from canonkit.cli import main
from canonkit.errors import InputError
from canonkit.lattice import expanding_square_sequence
from canonkit.quantum import Amplitude


@pytest.fixture
def fixture_files(tmp_path):
    moves = tmp_path / "moves.json"
    bases = tmp_path / "bases.json"
    code = main(["example", "square-lattice", "--steps", "2", "--mass", "0",
                 "--out", str(moves), "--basis-out", str(bases)])
    assert code == 0
    return moves, bases


def test_example_writes_fixture(fixture_files):
    moves, _ = fixture_files
    seq = serialize.load_sequence(moves)
    assert seq.dim == 12
    assert len(seq.moves) == 2


def test_example_one_move(tmp_path):
    out = tmp_path / "one.json"
    assert main(["example", "square-lattice", "--steps", "1", "--out", str(out)]) == 0
    seq = serialize.load_sequence(out)
    assert len(seq.moves) == 1
    assert np.abs(seq.moves[0].c).max() == 0.0


def test_example_one_move_basis_out_has_only_existing_steps(tmp_path):
    out = tmp_path / "one.json"
    bases = tmp_path / "bases.json"
    assert main(["example", "square-lattice", "--steps", "1", "--out", str(out),
                 "--basis-out", str(bases)]) == 0
    data = json.loads(bases.read_text())
    assert [b["step"] for b in data["bases"]] == [1]
    assert main(["classify", "--input", str(out), "--basis", str(bases), "--step", "1"]) == 0


def test_basis_override_unknown_step_exit_2(tmp_path, capsys):
    out = tmp_path / "one.json"
    assert main(["example", "square-lattice", "--steps", "1", "--out", str(out)]) == 0
    bases = tmp_path / "bases.json"
    bases.write_text(json.dumps({"bases": [{"step": 7, "T": np.eye(4).tolist()}]}))
    capsys.readouterr()
    assert main(["classify", "--input", str(out), "--basis", str(bases), "--step", "0"]) == 2
    assert "[7]" in capsys.readouterr().err
    assert main(["report", "--input", str(out), "--basis", str(bases)]) == 2


def test_example_mass_changes_diagonal(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    main(["example", "square-lattice", "--steps", "2", "--mass", "0", "--out", str(a)])
    main(["example", "square-lattice", "--steps", "2", "--mass", "0.5", "--out", str(b)])
    sa = serialize.load_sequence(a)
    sb = serialize.load_sequence(b)
    diff = sb.moves[1].a - sa.moves[1].a
    assert np.abs(diff - np.diag(np.diag(diff))).max() == 0.0
    assert diff[0, 0] > 0


def test_example_unknown_name():
    assert main(["example", "pentagon"]) == 2


def test_move_file_round_trip_massive(tmp_path):
    # irrational-ish coefficients survive the JSON round trip bit exactly
    fx = expanding_square_sequence(2, mass=np.sqrt(0.3))
    path = tmp_path / "massive.json"
    serialize.save_sequence(fx.sequence, path)
    again = serialize.load_sequence(path)
    for m, n in zip(fx.sequence.moves, again.moves):
        assert np.array_equal(m.a, n.a)
        assert np.array_equal(m.b, n.b)
        assert np.array_equal(m.c, n.c)


def test_evolve_backward_direction(fixture_files, tmp_path, capsys):
    moves, bases = fixture_files
    seq = serialize.load_sequence(moves)
    from canonkit.actions import post_momentum

    rng = np.random.default_rng(9)
    x1 = rng.normal(size=12)
    x2 = rng.normal(size=12)
    # post-side data at step 2 satisfying the post-constraints
    p2 = post_momentum(seq.moves[1], x1, x2)
    data_file = tmp_path / "post.json"
    data_file.write_text(json.dumps(
        {"step": 2, "x": x2.tolist(), "p": p2.tolist(), "side": "post"}
    ))
    code = main(["evolve", "--input", str(moves), "--data", str(data_file),
                 "--basis", str(bases), "--direction", "backward",
                 "--format", "json"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["step"] == 1
    # the four postdictable fields come back exactly
    assert np.allclose(out["x"][:4], x1[:4], atol=1e-9)


def test_move_file_round_trip(fixture_files):
    moves, _ = fixture_files
    seq = serialize.load_sequence(moves)
    again = serialize.sequence_from_dict(
        json.loads(json.dumps(serialize.sequence_to_dict(seq)))
    )
    assert again.dim == seq.dim and again.hbar == seq.hbar
    for m, n in zip(seq.moves, again.moves):
        assert np.array_equal(m.a, n.a)
        assert np.array_equal(m.b, n.b)
        assert np.array_equal(m.c, n.c)
    assert again.slot_maps == seq.slot_maps


def test_classify_command(fixture_files, capsys, tmp_path):
    moves, bases = fixture_files
    out = tmp_path / "cls.json"
    code = main(["classify", "--input", str(moves), "--step", "1",
                 "--basis", str(bases), "--format", "json", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["counts"]["I"] == 8
    assert data["counts"]["rho"] == 4
    assert sum(data["counts"].values()) == 12


def test_classify_command_text(fixture_files, capsys):
    moves, bases = fixture_files
    code = main(["classify", "--input", str(moves), "--step", "1",
                 "--basis", str(bases)])
    assert code == 0
    out = capsys.readouterr().out
    assert "N_I=8" in out and "N_rho=4" in out


def test_classify_single_regular_move(tmp_path, capsys):
    rng = np.random.default_rng(0)
    from canonkit.actions import MoveSequence, QuadraticMove

    c = rng.normal(size=(2, 2)) + 3 * np.eye(2)
    seq = MoveSequence(2, (QuadraticMove(0, 1, np.zeros((2, 2)), np.zeros((2, 2)), c),))
    path = tmp_path / "m.json"
    serialize.save_sequence(seq, path)
    code = main(["classify", "--input", str(path), "--step", "0", "--format", "json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    # regular moves leave every step-0 direction fully propagating except
    # that an open boundary makes them h-null: expect r at step 0
    assert data["counts"]["r"] + data["counts"]["gamma"] == 2


def test_malformed_file_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["classify", "--input", str(bad), "--step", "1"]) == 2
    missing = tmp_path / "missing.json"
    assert main(["classify", "--input", str(missing), "--step", "0"]) == 2


def test_singular_basis_override_exit_3(fixture_files, tmp_path):
    moves, _ = fixture_files
    singular = np.zeros((12, 12))
    singular[0, 0] = 1.0
    basis_file = tmp_path / "singular.json"
    basis_file.write_text(json.dumps({"bases": [{"step": 1, "T": singular.tolist()}]}))
    code = main(["classify", "--input", str(moves), "--step", "1",
                 "--basis", str(basis_file)])
    assert code == 3


def test_constraints_command(fixture_files, capsys):
    moves, bases = fixture_files
    code = main(["constraints", "--input", str(moves), "--step", "1",
                 "--basis", str(bases), "--format", "json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    sec = data["constraints"]["1"]
    kinds = [c["kind"] for c in sec["constraints"]]
    assert kinds.count("pre") == 8 and kinds.count("post") == 12
    assert sec["all_first_class"]


def test_evolve_command_and_violation_exit(fixture_files, tmp_path, capsys):
    moves, bases = fixture_files
    seq = serialize.load_sequence(moves)
    data_file = tmp_path / "data.json"
    # valid pre data at step 1: x arbitrary with spurious momenta zero is
    # not enough; build consistent data from the Legendre map
    from canonkit.actions import pre_momentum

    rng = np.random.default_rng(4)
    x1 = rng.normal(size=12)
    x2 = rng.normal(size=12)
    p1 = pre_momentum(seq.moves[1], x1, x2)
    data_file.write_text(json.dumps(
        {"step": 1, "x": x1.tolist(), "p": p1.tolist(), "side": "pre"}
    ))
    code = main(["evolve", "--input", str(moves), "--data", str(data_file),
                 "--basis", str(bases), "--format", "json"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["step"] == 2

    bad_file = tmp_path / "bad_data.json"
    bad_file.write_text(json.dumps(
        {"step": 1, "x": x1.tolist(), "p": rng.normal(size=12).tolist(), "side": "pre"}
    ))
    code = main(["evolve", "--input", str(moves), "--data", str(bad_file),
                 "--basis", str(bases)])
    assert code == 4


def test_compose_command(fixture_files, capsys):
    moves, bases = fixture_files
    code = main(["compose", "--input", str(moves), "--from", "0", "--to", "2",
                 "--basis", str(bases), "--format", "json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)["effective"]
    assert np.abs(np.asarray(data["a_eff"])).max() < 1e-12
    assert np.abs(np.asarray(data["c_eff"])).max() < 1e-12
    assert data["monotonicity_ok"]
    assert data["degeneracy_dims"] == {"c1": 12, "c2": 8, "h": 8, "c_eff": 12}


def test_quantum_command(fixture_files, capsys):
    moves, bases = fixture_files
    code = main(["quantum", "compose", "--input", str(moves), "--from", "0",
                 "--to", "2", "--basis", str(bases), "--format", "json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)["quantum"]
    k12 = data["moves"]["1->2"]
    assert k12["modulus"] == pytest.approx(np.pi**-2)
    assert k12["i_exponent"] == 4
    assert data["composed"]["delta_count"] == 0
    # non-unitary projection: the move's Hilbert space is 4-dimensional,
    # the composed move's shrinks to a ray
    assert data["hilbert_dims"]["1->2"] == {"pre": 4, "post": 4}
    assert data["hilbert_dims"]["0->2"] == {"pre": 0, "post": 0}


def test_quantum_hbar_flag(fixture_files, capsys):
    moves, bases = fixture_files
    hbar = 2.0
    code = main(["quantum", "propagator", "--input", str(moves), "--from", "1",
                 "--to", "2", "--hbar", str(hbar), "--basis", str(bases),
                 "--format", "json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)["quantum"]
    assert data["moves"]["1->2"]["modulus"] == pytest.approx((np.pi * hbar) ** -2)


def test_quantum_hbar_zero_exit_2(fixture_files, capsys):
    moves, bases = fixture_files
    code = main(["quantum", "propagator", "--input", str(moves), "--from", "1",
                 "--to", "2", "--hbar", "0", "--basis", str(bases)])
    assert code == 2
    assert "hbar must be positive" in capsys.readouterr().err


def test_report_round_trip(fixture_files):
    moves, bases = fixture_files
    seq = serialize.load_sequence(moves)
    overrides = serialize.load_bases(bases, seq.dim)
    report = reporting.full_report(seq, overrides=overrides)
    text = reporting.report_to_json(report)
    again = reporting.report_from_json(text)
    assert reporting.report_to_json(again) == text
    assert again == json.loads(text)


def test_report_command_text(fixture_files, capsys):
    moves, bases = fixture_files
    code = main(["report", "--input", str(moves), "--basis", str(bases)])
    assert code == 0
    out = capsys.readouterr().out
    assert "step 1: N_I=8" in out
    assert "composed 0->2" in out


def test_env_tolerance(monkeypatch, fixture_files):
    moves, bases = fixture_files
    monkeypatch.setenv("CANONKIT_TOL", "not-a-number")
    assert main(["classify", "--input", str(moves), "--step", "1"]) == 2
    monkeypatch.setenv("CANONKIT_TOL", "1e-8")
    assert main(["classify", "--input", str(moves), "--step", "1"]) == 0


def test_quantum_propagator_composes_nothing(fixture_files, capsys, monkeypatch):
    moves, bases = fixture_files

    def no_composition(*args, **kwargs):
        raise AssertionError("propagator must not compose kernels")

    monkeypatch.setattr(reporting, "compose_kernels", no_composition)
    code = main(["quantum", "propagator", "--input", str(moves), "--from", "0",
                 "--to", "2", "--basis", str(bases), "--format", "json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)["quantum"]
    assert sorted(data) == ["hilbert_dims", "moves"]
    assert sorted(data["moves"]) == ["0->1", "1->2"]
    assert sorted(data["hilbert_dims"]) == ["0->1", "1->2"]
    assert main(["quantum", "propagator", "--input", str(moves), "--from", "0",
                 "--to", "2", "--basis", str(bases)]) == 0
    assert "kernel 1->2" in capsys.readouterr().out


def _evolve(moves, bases, data_file, *extra):
    return main(["evolve", "--input", str(moves), "--data", str(data_file),
                 "--basis", str(bases), *extra])


def test_evolve_side_must_match_direction(fixture_files, tmp_path, capsys):
    moves, bases = fixture_files
    post_file = tmp_path / "post.json"
    post_file.write_text(json.dumps({"step": 1, "x": [0.0] * 12, "p": [0.0] * 12,
                                     "side": "post"}))
    capsys.readouterr()
    assert _evolve(moves, bases, post_file) == 2
    assert "momentum side" in capsys.readouterr().err
    # a file without "side" holds pre-side data
    untagged = tmp_path / "untagged.json"
    untagged.write_text(json.dumps({"step": 2, "x": [0.0] * 12, "p": [0.0] * 12}))
    assert _evolve(moves, bases, untagged, "--direction", "backward") == 2
    assert "momentum side" in capsys.readouterr().err


def test_evolve_backward_post_constraint_violation_exit_4(fixture_files, tmp_path, capsys):
    moves, bases = fixture_files
    rng = np.random.default_rng(5)
    data_file = tmp_path / "post.json"
    data_file.write_text(json.dumps({"step": 2, "x": rng.normal(size=12).tolist(),
                                     "p": rng.normal(size=12).tolist(), "side": "post"}))
    capsys.readouterr()
    assert _evolve(moves, bases, data_file, "--direction", "backward") == 4
    assert "post-constraint" in capsys.readouterr().err


@pytest.mark.parametrize("free, message", [
    ({"free": ["a"] * 12}, "must be numbers"),
    ({"free": [None] * 12}, "free values must be finite"),
    ({"values": [[1.0], [2.0, 3.0]]}, "must be numbers"),
    ({"x": [0.0] * 12}, "'free' or 'values'"),
])
def test_evolve_bad_free_values_exit_2(fixture_files, tmp_path, capsys, free, message):
    moves, bases = fixture_files
    data_file = tmp_path / "pre.json"
    data_file.write_text(json.dumps({"step": 0, "x": [0.0] * 12, "p": [0.0] * 12}))
    free_file = tmp_path / "free.json"
    free_file.write_text(json.dumps(free))
    capsys.readouterr()
    assert _evolve(moves, bases, data_file, "--free", str(free_file)) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("action, hbar_field, hbar_flag", [
    ("propagator", float("nan"), None),
    ("compose", float("nan"), None),
    ("compose", None, "inf"),
    ("propagator", None, "nan"),
])
def test_quantum_non_finite_hbar_exit_2(fixture_files, tmp_path, capsys, action, hbar_field,
                                        hbar_flag):
    moves, _ = fixture_files
    if hbar_field is not None:
        data = json.loads(moves.read_text())
        data["hbar"] = hbar_field
        moves = tmp_path / "nan.json"
        moves.write_text(json.dumps(data))     # the stdlib writes NaN as a bare token
    extra = ["--hbar", hbar_flag] if hbar_flag else []
    capsys.readouterr()
    assert main(["quantum", action, "--input", str(moves), "--from", "0", "--to", "2",
                 *extra]) == 2
    assert "hbar must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("target, key, value", [
    ("moves", "slot_maps", [1, 2]),
    ("moves", "slot_maps", {"0": 5}),
    ("bases", "bases", 3),
])
def test_malformed_slot_maps_and_bases_exit_2(fixture_files, capsys, target, key, value):
    moves, bases = fixture_files
    path = moves if target == "moves" else bases
    data = json.loads(path.read_text())
    data[key] = value
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["classify", "--input", str(moves), "--basis", str(bases), "--step", "1"]) == 2
    assert "malformed" in capsys.readouterr().err


@pytest.mark.parametrize("steps", [[1, 3, 4], [1, 1, 2], [1.5, 2, 3], [3, 2, 1]])
@pytest.mark.parametrize("command", [
    ["report"],
    ["classify", "--step", "2"],
    ["constraints", "--step", "2"],
    ["quantum", "propagator", "--from", "0", "--to", "1"],
])
def test_move_steps_must_be_consecutive_integers_exit_2(tmp_path, capsys, steps, command):
    moves = tmp_path / "moves.json"
    assert main(["example", "square-lattice", "--steps", "3", "--out", str(moves)]) == 0
    data = json.loads(moves.read_text())
    for entry, n in zip(data["moves"], steps):
        entry["n"] = n
    moves.write_text(json.dumps(data))
    capsys.readouterr()
    assert main([*command, "--input", str(moves)]) == 2
    err = capsys.readouterr().err
    assert "consecutive" in err if isinstance(steps[0], int) else "must be an integer" in err


@pytest.mark.parametrize("q", [28.5, "28", True])
def test_fractional_or_non_numeric_dimension_exit_2(tmp_path, capsys, q):
    moves = tmp_path / "moves.json"
    assert main(["example", "square-lattice", "--steps", "3", "--out", str(moves)]) == 0
    data = json.loads(moves.read_text())
    data["Q"] = q
    moves.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["report", "--input", str(moves)]) == 2
    assert "Q must be an integer" in capsys.readouterr().err


def test_integral_float_steps_are_accepted(tmp_path):
    moves = tmp_path / "moves.json"
    assert main(["example", "square-lattice", "--steps", "2", "--out", str(moves)]) == 0
    data = json.loads(moves.read_text())
    data["Q"] = float(data["Q"])
    for entry in data["moves"]:
        entry["n"] = float(entry["n"])
    seq = serialize.sequence_from_dict(data)
    assert seq.dim == 12 and [m.step_to for m in seq.moves] == [1, 2]


def test_import_loads_no_scipy():
    # a fresh interpreter: the pivot oracle in test_fixed_variables loads scipy
    code = ("import sys, canonkit, canonkit.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "[]", proc.stdout


@pytest.mark.parametrize("step", [1.7, True])
def test_fractional_or_boolean_basis_step_exit_2(fixture_files, tmp_path, capsys, step):
    moves, bases = fixture_files
    data = json.loads(bases.read_text())
    data["bases"][0]["step"] = step
    bad = tmp_path / "bad-bases.json"
    bad.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["classify", "--input", str(moves), "--basis", str(bad), "--step", "1"]) == 2
    assert "basis step must be an integer" in capsys.readouterr().err


def test_repeated_basis_step_exit_2(fixture_files, tmp_path, capsys):
    moves, bases = fixture_files
    data = json.loads(bases.read_text())
    first = data["bases"][0]
    data["bases"].append({"step": first["step"], "T": np.eye(12).tolist()})
    bad = tmp_path / "bad-bases.json"
    bad.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["report", "--input", str(moves), "--basis", str(bad)]) == 2
    assert f"more than one basis for step {first['step']}" in capsys.readouterr().err


def test_integral_float_basis_and_data_steps_are_accepted(fixture_files, tmp_path):
    moves, bases = fixture_files
    data = json.loads(bases.read_text())
    for entry in data["bases"]:
        entry["step"] = float(entry["step"])
    float_bases = tmp_path / "float-bases.json"
    float_bases.write_text(json.dumps(data))
    assert serialize.load_bases(float_bases, 12).keys() == serialize.load_bases(bases, 12).keys()
    data_file = tmp_path / "data.json"
    data_file.write_text(json.dumps({"step": 1.0, "x": [0.0] * 12, "p": [0.0] * 12}))
    step, *_ = serialize.load_canonical_data(data_file, 12)
    assert step == 1 and type(step) is int


@pytest.mark.parametrize("step", [1.5, True])
def test_fractional_or_boolean_data_step_exit_2(fixture_files, tmp_path, capsys, step):
    moves, bases = fixture_files
    data_file = tmp_path / "data.json"
    data_file.write_text(json.dumps({"step": step, "x": [0.0] * 12, "p": [0.0] * 12,
                                     "side": "pre"}))
    capsys.readouterr()
    assert _evolve(moves, bases, data_file) == 2
    assert "data step must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "0"])
@pytest.mark.parametrize("via", ["flag", "env"])
def test_non_finite_or_non_positive_tolerance_exit_2(fixture_files, monkeypatch, capsys, value, via):
    moves, _ = fixture_files
    if via == "flag":
        argv = ["classify", "--input", str(moves), "--step", "1", f"--tol={value}"]
    else:
        monkeypatch.setenv("CANONKIT_TOL", value)
        argv = ["report", "--input", str(moves)]
    capsys.readouterr()
    assert main(argv) == 2
    assert "tolerance must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("slot_maps", [
    {"0": "xy", "7": [99, -3, 99]},
    {"0": "xy"},
    {"7": [0]},
    {"-1": []},
    {"1": [0, 0]},
    {"1": [4]},
    {"1": [-1]},
    {"1": [1.5]},
    {"1": [True]},
    {"1": None},
])
def test_slot_maps_name_steps_and_distinct_slots_exit_2(tmp_path, capsys, slot_maps):
    moves = tmp_path / "moves.json"
    assert main(["example", "square-lattice", "--steps", "1", "--out", str(moves)]) == 0
    data = json.loads(moves.read_text())
    assert data["Q"] == 4 and data["slot_maps"] == {"0": [], "1": [0, 1, 2, 3]}
    data["slot_maps"] = slot_maps
    moves.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["report", "--input", str(moves)]) == 2
    assert "input error" in capsys.readouterr().err



@pytest.mark.parametrize("bad", ["directory", "utf-16 mark", "byte in layout"])
@pytest.mark.parametrize("option", ["--input", "--basis"])
def test_directory_or_non_utf8_file_exit_2(fixture_files, tmp_path, capsys, bad, option):
    moves, bases = fixture_files
    files = {"--input": moves, "--basis": bases}
    path = tmp_path / "bad.json"
    if bad == "directory":
        path.mkdir()
    elif bad == "utf-16 mark":
        path.write_bytes(b"\xff\xfe" + files[option].read_bytes())
    else:   # a file in the writer's layout but for one byte that is not UTF-8
        path.write_bytes(files[option].read_bytes().replace(b'"', b'"\xff', 1))
    files[option] = path
    capsys.readouterr()
    assert main(["report", "--input", str(files["--input"]), "--basis", str(files["--basis"])]) == 2
    assert capsys.readouterr().err.startswith("input error:")


@pytest.mark.parametrize("hbar, message", [
    ("2", "hbar must be a number"),
    (True, "hbar must be a number"),
    (10**400, "malformed move file: int too large"),
])
def test_non_numeric_hbar_exit_2(fixture_files, capsys, hbar, message):
    moves, _ = fixture_files
    data = json.loads(moves.read_text())
    data["hbar"] = hbar
    moves.write_text(json.dumps(data, indent=1))
    capsys.readouterr()
    assert main(["report", "--input", str(moves)]) == 2
    assert capsys.readouterr().err.startswith(f"input error: {message}")


@pytest.mark.parametrize("indent", [None, 1])
def test_string_matrix_entry_exit_2(fixture_files, capsys, indent):
    moves, _ = fixture_files
    data = json.loads(moves.read_text())
    data["moves"][1]["c"][0][0] = "0.5"
    moves.write_text(json.dumps(data, indent=indent))
    capsys.readouterr()
    assert main(["report", "--input", str(moves)]) == 2
    assert capsys.readouterr().err.startswith("input error: move 2: matrix entries must be numbers")


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("indent", [None, 1])
def test_boolean_matrix_entry_exit_2(fixture_files, capsys, value, indent):
    moves, _ = fixture_files
    data = json.loads(moves.read_text())
    data["moves"][0]["c"][0][0] = value
    moves.write_text(json.dumps(data, indent=indent))
    capsys.readouterr()
    assert main(["classify", "--input", str(moves), "--step", "1"]) == 2
    assert capsys.readouterr().err.startswith(
        "input error: move 1: matrix entries must be numbers, not bool")


@pytest.mark.parametrize("entry", ["1.0", True])
def test_non_numeric_basis_entry_exit_2(fixture_files, tmp_path, capsys, entry):
    moves, bases = fixture_files
    data = json.loads(bases.read_text())
    data["bases"][0]["T"][0][0] = entry
    bad = tmp_path / "bad-bases.json"
    bad.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["classify", "--input", str(moves), "--basis", str(bad), "--step", "1"]) == 2
    assert "must be numbers, not" in capsys.readouterr().err


@pytest.mark.parametrize("entry", ["0.0", False])
@pytest.mark.parametrize("key", ["x", "p"])
def test_non_numeric_data_entry_exit_2(fixture_files, tmp_path, capsys, entry, key):
    moves, bases = fixture_files
    data = {"step": 0, "x": [0.0] * 12, "p": [0.0] * 12}
    data[key][3] = entry
    data_file = tmp_path / "pre.json"
    data_file.write_text(json.dumps(data))
    capsys.readouterr()
    assert _evolve(moves, bases, data_file) == 2
    assert f"{key} must be numbers, not" in capsys.readouterr().err


@pytest.mark.parametrize("entry", ["0.0", True])
def test_non_numeric_free_value_exit_2(fixture_files, tmp_path, capsys, entry):
    moves, bases = fixture_files
    data_file = tmp_path / "pre.json"
    data_file.write_text(json.dumps({"step": 0, "x": [0.0] * 12, "p": [0.0] * 12}))
    free_file = tmp_path / "free.json"
    free_file.write_text(json.dumps({"free": [entry] + [0.0] * 11}))
    capsys.readouterr()
    assert _evolve(moves, bases, data_file, "--free", str(free_file)) == 2
    assert "free values must be numbers, not" in capsys.readouterr().err


def test_null_entries_read_as_non_finite_exit_2(fixture_files, tmp_path, capsys):
    moves, bases = fixture_files
    data = json.loads(moves.read_text())
    data["moves"][0]["a"][0][0] = None
    bad_moves = tmp_path / "null-moves.json"
    bad_moves.write_text(json.dumps(data, indent=1))
    data = json.loads(bases.read_text())
    data["bases"][0]["T"][0][0] = None
    bad_bases = tmp_path / "null-bases.json"
    bad_bases.write_text(json.dumps(data))
    data_file = tmp_path / "pre.json"
    data_file.write_text(json.dumps({"step": 0, "x": [None] + [0.0] * 11, "p": [0.0] * 12}))
    capsys.readouterr()
    assert main(["classify", "--input", str(bad_moves), "--step", "1"]) == 2
    assert main(["classify", "--input", str(moves), "--basis", str(bad_bases), "--step", "1"]) == 2
    assert _evolve(moves, bases, data_file) == 2
    assert capsys.readouterr().err.count("finite") == 3


@pytest.mark.parametrize("direction, step, side, message", [
    ("forward", 2, "pre", "no move leaves step 2"),
    ("backward", 0, "post", "no move arrives at step 0"),
])
def test_evolve_past_the_sequence_end_exit_2(fixture_files, tmp_path, capsys, direction, step,
                                             side, message):
    moves, bases = fixture_files
    data_file = tmp_path / "data.json"
    data_file.write_text(json.dumps({"step": step, "x": [0.0] * 12, "p": [0.0] * 12,
                                     "side": side}))
    capsys.readouterr()
    assert _evolve(moves, bases, data_file, "--direction", direction) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"


def test_report_on_one_move(tmp_path, capsys):
    moves = tmp_path / "one.json"
    assert main(["example", "square-lattice", "--steps", "1", "--out", str(moves)]) == 0
    capsys.readouterr()
    assert main(["report", "--input", str(moves), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    # no effective move and no inner step; the one kernel is the composed one
    assert "effective" not in report and report["dof"] == {}
    assert sorted(report["steps"]) == ["0", "1"]
    assert report["quantum"]["composed"] == report["quantum"]["moves"]["0->1"]
    assert report["quantum"]["hilbert_dims"] == {"0->1": {"pre": 0, "post": 0}}
    assert main(["report", "--input", str(moves)]) == 0
    text = capsys.readouterr().out
    assert "step 1: N_I=1  N_H=3" in text
    assert "composed 0->1: modulus = 1, i_exponent = 0, deltas = 0" in text


@pytest.mark.parametrize("wrap", [list, lambda v: {"free": v}, lambda v: {"values": v}])
def test_evolve_injects_free_values(fixture_files, tmp_path, capsys, wrap):
    moves, bases = fixture_files
    data_file = tmp_path / "pre.json"
    data_file.write_text(json.dumps({"step": 0, "x": [0.0] * 12, "p": [0.0] * 12}))
    values = [0.5 * k - 2.0 for k in range(12)]    # one per free row
    free_file = tmp_path / "free.json"
    free_file.write_text(json.dumps(wrap(values)))
    capsys.readouterr()
    assert _evolve(moves, bases, data_file, "--free", str(free_file), "--format", "json") == 0
    out = json.loads(capsys.readouterr().out)
    assert out["step"] == 1 and len(out["free_rows"]) == 12
    assert out["injected"] == values


def test_evolve_text_format(fixture_files, tmp_path, capsys):
    moves, bases = fixture_files
    data_file = tmp_path / "pre.json"
    data_file.write_text(json.dumps({"step": 0, "x": [0.0] * 12, "p": [0.0] * 12}))
    capsys.readouterr()
    assert _evolve(moves, bases, data_file, "--format", "json") == 0
    rows = tuple(tuple(row) for row in json.loads(capsys.readouterr().out)["free_rows"])
    assert _evolve(moves, bases, data_file) == 0
    zeros = np.array2string(np.zeros(12), precision=6)
    assert capsys.readouterr().out.splitlines() == [
        "step 1 (post side)", f"x = {zeros}", f"p = {zeros}", f"free rows: {rows}"]


@pytest.mark.parametrize("command, from_step, to_step", [
    (["compose"], 2, 3),
    (["compose"], -3, 1),
    (["compose"], 1, 1),
    (["quantum", "compose"], 0, 5),
    (["quantum", "compose"], -1, 2),
    (["quantum", "propagator"], 0, 9),
    (["quantum", "propagator"], 2, 1),
])
def test_step_range_outside_the_sequence_exit_2(fixture_files, capsys, command, from_step,
                                                to_step):
    moves, _ = fixture_files
    capsys.readouterr()
    assert main([*command, "--input", str(moves), "--from", str(from_step),
                 "--to", str(to_step)]) == 2
    assert capsys.readouterr() == ("", f"input error: step range {from_step}->{to_step} is not "
                                       "within the sequence's steps 0..2\n")


@pytest.mark.parametrize("command", ["classify", "constraints"])
def test_step_outside_the_sequence_exit_2(fixture_files, capsys, command):
    moves, _ = fixture_files
    capsys.readouterr()
    assert main([command, "--input", str(moves), "--step", "9"]) == 2
    assert capsys.readouterr().err == "input error: step 9 not in sequence\n"


_DROP = object()


@pytest.mark.parametrize("target, keys, value, message", [
    pytest.param("moves", ("moves",), [], "move file must contain a non-empty 'moves' list",
                 id="empty move list"),
    pytest.param("moves", ("moves", 1, "c"), _DROP, "malformed move entry: 'c'", id="no c"),
    pytest.param("bases", ("bases",), _DROP, "malformed basis file: 'bases'", id="no bases"),
    pytest.param("bases", ("bases", 0, "T"), _DROP, "malformed basis entry: 'T'", id="no T"),
    pytest.param("bases", ("bases", 0, "T"), np.eye(11).tolist(), "basis at step 1 must be 12x12",
                 id="basis shape"),
    pytest.param("data", ("step",), _DROP, "malformed data file: 'step'", id="no data step"),
    pytest.param("data", ("x",), [0.0] * 11, "x and p must have length 12", id="x length"),
    pytest.param("data", ("p",), [0.0] * 13, "x and p must have length 12", id="p length"),
    # "@" is written as an integer of 5,001 digits, more than Python converts
    # from text by default
    pytest.param("moves", ("moves", 1, "c", 0, 0), "@", "", id="long matrix entry"),
    pytest.param("moves", ("Q",), "@", "", id="long Q"),
    pytest.param("moves", ("hbar",), "@", "", id="long hbar"),
    pytest.param("bases", ("bases", 0, "T", 0, 0), "@", "", id="long basis entry"),
    pytest.param("data", ("x", 3), "@", "", id="long data entry"),
    pytest.param("free", (0,), "@", "", id="long free value"),
])
def test_missing_misshapen_or_overlong_entry_exit_2(fixture_files, tmp_path, capsys, target,
                                                    keys, value, message):
    moves, bases = fixture_files
    files = {"moves": moves, "bases": bases, "data": tmp_path / "pre.json",
             "free": tmp_path / "free.json"}
    trees = {"moves": json.loads(moves.read_text()), "bases": json.loads(bases.read_text()),
             "data": {"step": 0, "x": [0.0] * 12, "p": [0.0] * 12}, "free": [0.0] * 12}
    node = trees[target]
    for key in keys[:-1]:
        node = node[key]
    if value is _DROP:
        del node[keys[-1]]
    else:
        node[keys[-1]] = value
    for name, tree in trees.items():
        # json.dumps cannot write the long integer either: it goes in as text
        files[name].write_text(json.dumps(tree, indent=1).replace('"@"', "9" * 5001))
    capsys.readouterr()
    assert _evolve(moves, bases, files["data"], "--free", str(files["free"])) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and message in err


def test_example_hbar_zero_exit_2(tmp_path, capsys):
    out = tmp_path / "moves.json"
    assert main(["example", "square-lattice", "--steps", "2", "--hbar", "0",
                 "--out", str(out)]) == 2
    assert "hbar must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("steps, example, command, kernel", [
    pytest.param(3, ["--mass", "0"], ["quantum", "propagator", "--from", "0", "--to", "3",
                                      "--hbar", "1e-100"], "2->3", id="N=3 propagator"),
    pytest.param(3, ["--mass", "0.5"], ["quantum", "propagator", "--from", "0", "--to", "3",
                                        "--hbar", "1e-100"], "2->3", id="N=3 mass propagator"),
    pytest.param(16, [], ["quantum", "propagator", "--from", "0", "--to", "16",
                          "--hbar", "1e-12"], "8->9", id="N=16 propagator"),
    pytest.param(3, ["--hbar", "1e-200"], ["report"], "1->2", id="N=3 report, file hbar"),
])
def test_modulus_beyond_float_range_exit_2(tmp_path, capsys, fmt, steps, example, command,
                                          kernel):
    moves, out = tmp_path / "moves.json", tmp_path / "out"
    assert main(["example", "square-lattice", "--steps", str(steps), *example,
                 "--out", str(moves)]) == 0
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)   # no modulus is computed to overflow
        code = main([*command, "--input", str(moves), "--format", fmt, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: kernel {kernel}: log_modulus = ") and "hbar = 1e-" in err
    assert not out.exists()


def test_modulus_at_the_float_range_edge():
    top = math.log(sys.float_info.max)
    fields = reporting._amplitude_fields(Amplitude(log_modulus=top), "0->1", 1.0)
    assert math.isfinite(fields["modulus"])
    with pytest.raises(InputError, match="kernel 0->1: log_modulus = "):
        reporting._amplitude_fields(Amplitude(log_modulus=math.nextafter(top, math.inf)),
                                    "0->1", 1.0)


@pytest.mark.parametrize("command", [
    ["report"], ["classify", "--step", "1"], ["compose", "--from", "0", "--to", "2"],
    ["quantum", "compose", "--from", "0", "--to", "2"],
])
def test_scale_at_which_a_rank_cut_overflows_exit_2(fixture_files, tmp_path, capsys, command):
    moves, _ = fixture_files
    data = json.loads(moves.read_text())
    data["moves"][0]["a"][0][0] = 1e308
    big = tmp_path / "big.json"
    big.write_text(json.dumps(data, indent=1))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)   # no rank cut is computed to overflow
        code = main([*command, "--input", str(big), "--tol", "0.9"])
    assert code == 2
    assert "the moves' scale 1e+308 puts a rank cut at tol = 0.9" in capsys.readouterr().err
    # at the default tolerance the same file is analysed as before
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([*command, "--input", str(big), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("command", [
    ["report"], ["classify", "--step", "1"], ["constraints", "--step", "2"],
    ["compose", "--from", "0", "--to", "2"], ["quantum", "compose", "--from", "0", "--to", "2"],
    ["quantum", "propagator", "--from", "0", "--to", "2"],
])
def test_stdout_and_out_file_are_the_same_bytes(fixture_files, tmp_path, capsys, command, fmt):
    moves, _ = fixture_files
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([*command, "--input", str(moves), "--format", fmt]) == 0
    printed = capsys.readouterr().out
    assert main([*command, "--input", str(moves), "--format", fmt, "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == printed
    if fmt == "json":
        assert printed == json.dumps(json.loads(printed), indent=1, sort_keys=True) + "\n"
