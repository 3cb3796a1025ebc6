"""Smoke test of the benchmark: every workload at a tiny size prints every
metric named in BENCHMARK.json with its unit.

    python3 -m pytest bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RUN = ROOT / "bench" / "run.py"


def run_bench(cwd, workload, trace, smoke=True):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    record = json.loads(lines[-2])
    for key in ("python", "numpy", "scipy", "numpy_blas", "nproc", "blas_threads",
                "git_commit", "seed"):
        assert key in record["env"]


def test_only_the_known_defect_is_an_expected_failure():
    sys.path.insert(0, str(ROOT / "bench"))
    import bootstrap

    bootstrap.require_sources()
    import workloads

    def item(**sizes):
        return {"sizes": {t: sizes.get(t, 1) for t in workloads.TYPE_ORDER}}

    scan = workloads.DesignedScan(None, 1, True, {})
    defect = workloads.KNOWN_DEFECT
    assert scan.known_failure(item(**{"lambda": 0, "gamma": 0}), defect)
    assert scan.known_failure(item(rho=0, gamma=0), defect)
    assert not scan.known_failure(item(), defect)
    assert not scan.known_failure(item(rho=0, gamma=0), "InternalError in compose")
    for cls in (workloads.SquareReport, workloads.SquareChain):
        assert not cls(bootstrap.WORKDIR, 1, True, {}).known_failure(None, defect)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "square-chain", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


class _Stream:
    """Four items; item 3 always raises, and with ``flaky`` item 2 fails on
    every second call."""

    name = "stream"
    flaky = False

    def __init__(self, workdir, seed, smoke, reference):
        self.calls = 0

    def setup(self):
        pass

    def items(self):
        return [0, 1, 2, 3]

    def run_item(self, item):
        self.calls += item == 2
        if item == 3 or (self.flaky and item == 2 and not self.calls % 2):
            raise RuntimeError("designed failure")
        return item

    def failure(self, out):
        return None

    def known_failure(self, item, kind):
        return True

    def check_item(self, item, out):
        return []

    def cleanup(self):
        pass


class _FlakyStream(_Stream):
    flaky = True


@pytest.mark.parametrize("workload, correct", [(_Stream, True), (_FlakyStream, False)])
def test_operations_are_items_not_passes(tmp_path, workload, correct):
    sys.path.insert(0, str(ROOT / "bench"))
    import types

    from timing import run_workload

    module = types.SimpleNamespace(WORKLOADS={"stream": workload})
    result, record = run_workload(module, "stream", 1, 0.3, False, True, tmp_path,
                                  probe_setup=lambda: 0.1, n_probes=1)
    assert record["passes"] > 1
    assert (result["attempted"], result["failed"]) == (4, 1)
    assert result["correct"] is correct
    assert (record["outcome_changes"] > 0) is not correct
