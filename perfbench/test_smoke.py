"""Smoke test of the benchmark at a tiny size (half a second of simulate).

    PYTHONPATH=src python3 -m pytest -q perfbench/test_smoke.py
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*extra, trace=0, cwd=ROOT, check=True):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", "simulate",
           "--seed", "3", "--seconds", "0.5", "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    if not check:
        return proc
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def _assert_declared_metrics(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert set(printed) == {"value", "unit"}
        assert printed["unit"] == metric["unit"], metric["name"]
        assert isinstance(printed["value"], (int, float)), metric["name"]


def test_end_to_end_metrics_are_printed_with_units():
    detail, result = _run()
    _assert_declared_metrics(result, SPEC["end_to_end"])
    assert result["correct"] and result["failed"] == 0, detail["failures"]
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    assert detail["provenance"]["workload_seed"] == 3


def test_per_layer_metrics_are_printed_and_counts_repeat():
    detail, first = _run(trace=1)
    _assert_declared_metrics(first, SPEC["per_layer"])
    assert first["correct"], detail["failures"]
    _, second = _run(trace=1)
    for metric in SPEC["per_layer"]:
        if metric["unit"] in ("count", "bytes", "ratio"):
            name = metric["name"]
            assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["radio.d2d_power_matrix.entries"]["value"] > 0


def test_corrupted_output_is_counted_as_failed():
    detail, result = _run("--corrupt", "0")
    assert not result["correct"]
    assert result["failed"] == 1
    assert detail["failed_frac"] == 1 / result["attempted"]
    assert detail["failures"][0].startswith("op 0 ")


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(cwd=tmp_path, check=False)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
