"""Tests of the benchmark itself, on the smoke size of every workload.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tracing import Tracer
from workloads import SMOKE, Checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(root, *args):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(SMOKE))
def test_smoke_run_passes_and_reports_every_metric(workload, trace, tmp_path):
    record = tmp_path / "runs.jsonl"
    code, out = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                          "--trace", str(trace), "--size", "smoke", "--record", str(record))
    assert code == 0
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert json.loads(record.read_text())["result"] == result


def test_missing_program_fails_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    code, out = run_bench(tmp_path, "--workload", "ext-q4", "--seed", "1",
                          "--seconds", "1", "--trace", "0")
    assert code != 0 and out == ""


def test_checks_not_run_count_as_failed():
    checks = Checks(["a", "b", "c"])
    checks.expect("a", 1, 1)
    checks.expect("b", 2, 3)
    assert (checks.attempted, checks.failed) == (3, 2)
    with pytest.raises(KeyError):
        checks.expect("a", 1, 1)


def test_self_time_excludes_child_spans(monkeypatch):
    # outer span from 0 to 10 around an inner span from 1 to 3
    monkeypatch.setattr("time.perf_counter", iter([0.0, 1.0, 3.0, 10.0]).__next__)
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: inner())
    outer()
    spans = tracer.snapshot()["spans"]
    assert spans["outer"] == [1, 8.0] and spans["inner"] == [1, 2.0]


def test_verdicts_follow_the_bounds():
    from compare import verdict

    def runs(walls):
        return [{"seed": i, "result": {"metrics": {"wall_s": {"value": w}}}}
                for i, w in enumerate(walls)]

    metric = {"name": "wall_s", "better": "lower", "bound": 0.1}
    base = runs([10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0])
    assert verdict(base, runs([12.0] * 10), metric)[0] == "worse"
    assert verdict(base, runs([8.0] * 10), metric)[0] == "better"
    assert verdict(base, runs([10.05] * 10), metric)[0] == "unresolved"
