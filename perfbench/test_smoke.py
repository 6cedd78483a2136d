"""Smoke test of the benchmark harness on the micro workload.

Run from the checkout root:  python -m pytest -q perfbench/test_smoke.py
(the repository's own test suite does not collect this file).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "micro", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit_and_no_operation_fails(trace, section):
    proc = _run(trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0  # error_rate 0
    expected = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name


def test_self_times_account_for_the_traced_wall_time():
    assert _run(1).returncode == 0
    doc = json.loads((HERE / "out" / "trace-micro-seed3-trace1.json").read_text())
    functions = doc["functions"]
    total_self = sum(f["self_s"] for f in functions.values())
    assert total_self == pytest.approx(functions["bench.op"]["wall_s"], rel=1e-9)
    fields = doc["span_fields"]
    assert fields == ["id", "parent", "name", "start_s", "end_s", "op"]
    assert all(span[4] >= span[3] for span in doc["spans"])
    assert {"kernels.bag_gram", "rff.feature_matrix", "cli.cmd_mmd", "models.save_model"} <= set(functions)
    assert doc["metrics"]["kernels.entries"]["source"] == "computed"


def test_fails_without_a_result_outside_a_checkout():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = _run(0, cwd=bare)
        assert proc.returncode != 0
        assert "correct" not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
