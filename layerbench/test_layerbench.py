"""Self-tests of the benchmark harness.

    python3 -m pytest -q layerbench

Each test starts the harness in a subprocess at smoke size, so the tracer's
module patching never leaks into the test process.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
sys.path.insert(0, str(HERE))
from spans import is_work_count  # noqa: E402


def _run(workload: str, trace: int, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=600, cwd=cwd)


def _result(workload: str, trace: int) -> dict:
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _check_metrics(res: dict, spec: list):
    assert set(res["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert res["metrics"][m["name"]]["unit"] == m["unit"], m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_reports_every_end_to_end_metric(workload):
    res = _result(workload, 0)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    _check_metrics(res, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in res["metrics"].values())
    assert res["metrics"]["ok_frac"]["value"] == 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_work_counts_repeat_across_runs(workload):
    first, second = _result(workload, 1), _result(workload, 1)
    for res in (first, second):
        assert res["correct"] and res["failed"] == 0
        _check_metrics(res, SPEC["per_layer"])
    counts = [m["name"] for m in SPEC["per_layer"] if is_work_count(m["name"], m["unit"])]
    assert {n: first["metrics"][n] for n in counts} == {n: second["metrics"][n] for n in counts}
    # every workload drives at least one root through the dispatcher
    assert first["metrics"]["strategy.eth_root.calls"]["value"] >= 1


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
