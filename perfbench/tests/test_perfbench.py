"""Tests of the benchmark itself, kept out of the Tier-1 suite.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import worker  # noqa: E402
import zoo  # noqa: E402
from spans import PER_LAYER  # noqa: E402
from workloads import ScenarioZoo  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _only(workload: ScenarioZoo, *names: str) -> ScenarioZoo:
    workload.scenarios = [s for s in workload.scenarios if s[0] in names]
    return workload


def _one_pass(workload) -> worker.Recorder:
    rec = worker.Recorder()
    workload.run_pass(workload.setup(), rec)
    return rec


def test_generator_is_deterministic_and_large_enough():
    first = zoo.generate_zoo(5)
    assert first == zoo.generate_zoo(5)
    assert [text for _, text, _ in first] != [text for _, text, _ in zoo.generate_zoo(6)]
    fixture_tasks = sum(len(pins) for pins in zoo.FIXTURE_STATUSES.values())
    assert fixture_tasks + sum(len(pins) for _, _, pins in first) >= 100


def test_gate_accepts_the_pinned_golden_reports():
    rec = _one_pass(_only(ScenarioZoo(1), *zoo.GOLDEN))
    assert rec.correct, rec.problems + rec.gate_problems
    assert rec.attempted == 16


def test_gate_rejects_a_tampered_golden_report():
    workload = _only(ScenarioZoo(1), "golden_z2")
    workload.golden["golden_z2"] = workload.golden["golden_z2"].replace('"pass"', '"fail"', 1)
    rec = _one_pass(workload)
    assert rec.failed == 0
    assert not rec.correct
    assert "golden_z2" in rec.gate_problems[0]


def test_gate_rejects_a_wrong_pinned_status():
    workload = _only(ScenarioZoo(1), "fixture_fail")
    name, text, pins = workload.scenarios[0]
    workload.scenarios[0] = (name, text, {**pins, "bad-nat": "pass"})
    rec = _one_pass(workload)
    assert (rec.attempted, rec.failed) == (2, 1)
    assert not rec.correct


def _last_json(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "scenario-zoo",
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, section):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    result = _last_json(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {m["name"]: m["unit"] for m in declared} == {
        name: entry["unit"] for name, entry in result["metrics"].items()
    }
    assert all(NAME.match(name) for name in result["metrics"])


def test_per_layer_table_matches_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert [(m["name"], m["unit"], m["better"]) for m in declared] == list(PER_LAYER)


def test_quantile_estimate():
    assert worker.quantile([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 0.5) == pytest.approx(3.5)
    assert worker.quantile(list(range(1001)), 0.9) == pytest.approx(900, abs=0.5)
    special = pytest.importorskip("scipy.special")
    for a, b in [(3.5, 3.5), (0.7, 6.3), (27.45, 3.05), (500.5, 500.5), (900.9, 100.1)]:
        for x in (0.01, 0.3, 0.5, 0.83, 0.9, 0.99):
            assert worker._betainc(a, b, x) == pytest.approx(special.betainc(a, b, x), abs=1e-10)


def test_two_traced_runs_give_identical_counts(tmp_path):
    counts = []
    for k in range(2):
        workload = _only(ScenarioZoo(2), "golden_z2", "gen_z3")
        rec, metrics, _ = worker.traced(workload, 0.0, tmp_path / f"trace{k}.npz")
        assert rec.correct
        units = {name: unit for name, unit, _ in PER_LAYER}
        counts.append({name: v for name, v in metrics.items() if units[name] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["runner.status.pass"] > 0


def test_memory_error_is_a_failed_operation():
    script = f"""
import sys
sys.path.insert(0, {str(BENCH)!r})
import worker
worker.pin_environment(cap_bytes=1 << 30)
import numpy as np
rec = worker.Recorder()
rec.call("huge", lambda: np.ones(1 << 28, dtype=complex) and None)
rec.call("small", lambda: None)
print(rec.attempted, rec.failed, rec.problems[0])
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("2 1 huge: raised MemoryError")


def test_refuses_to_run_without_the_engine(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scenario-zoo", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
