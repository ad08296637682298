"""The benchmark's own tests, at smoke sizes.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import BenchError, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def _assert_declared(metrics: dict, declared: list[dict]) -> None:
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        value = metrics[m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric(workload):
    plain = _result(_bench("--workload", workload, "--smoke", "--seconds", "1", "--trace", "0"))
    _assert_declared(plain["metrics"], SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in plain["metrics"].values())

    traced = _result(_bench("--workload", workload, "--smoke", "--seconds", "1", "--trace", "1"))
    _assert_declared(traced["metrics"], SPEC["per_layer"])
    m = {k: v["value"] for k, v in traced["metrics"].items()}
    # Process walls split exactly into boot, span self times and exit.
    commands = [k for k in m if k.startswith("cli.") and k not in ("cli.self_s", "cli.exit_s")]
    wall = sum(m[k] for k in commands)
    parts = sum(v for k, v in m.items() if k.endswith("_s")) - wall - m["setup.deps_import_s"]
    assert wall > 0 and parts == pytest.approx(wall, rel=1e-4)
    assert 0 < m["trace.in_span_ratio"] <= 1


def test_self_time_subtracts_children_and_rejects_bad_nesting():
    spans = [
        {"name": "cli.main", "parent": None, "start": 0.0, "end": 10.0},
        {"name": "fileio.read_run", "parent": 0, "start": 1.0, "end": 4.0},
        {"name": "model.schedule", "parent": 1, "start": 2.0, "end": 3.0},
    ]
    assert self_times(spans) == [7.0, 2.0, 1.0]
    spans[2]["end"] = 5.0
    with pytest.raises(BenchError):
        self_times(spans)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", SPEC["workloads"][0]["name"], "--smoke", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
