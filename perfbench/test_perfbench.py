"""Smoke test of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

Runs every workload in smoke mode (tiny sizes, one pass), untraced and
traced, and checks that every metric named in BENCHMARK.json is printed
with its unit and that the output checks pass.
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(HERE))
import worker  # noqa: E402


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric_and_passes_checks(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    for m in wanted:
        assert any(line.startswith(m["name"] + " ") for line in lines), m["name"]
    report = json.loads(lines[-2].removeprefix("# report "))
    assert report["machine"]["nproc"] >= 1
    assert report["behaviour_changes"] == [], report["behaviour_changes"]


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, "desk-mix", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_full_session_pass_count_depends_on_seconds_not_speed(monkeypatch):
    # Passes alternate fail, ok; each claims to take far longer than the window.
    monkeypatch.setattr(worker, "make_pass", lambda ctx, index: [index])
    monkeypatch.setattr(worker, "run_pass", lambda units: [worker.Row(
        "honest", 1e3, "ok" if units[0] % 2 else "fail", "", "")])
    ctx = types.SimpleNamespace(workload="full-session")
    assert len(worker.run_window(ctx, 25)) == 3
    # a planned single pass that failed is extended until one unit is ok
    assert len(worker.run_window(ctx, 1)) == 2
