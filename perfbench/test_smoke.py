"""Tiny-size smoke run of every workload, plus the benchmark's own path test.

Kept out of tier-1 (pytest collects only ``tests/`` by default).  Run from
the repository root:

    python -m pytest -q perfbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


def _run(cwd, *args):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.2",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["attempted"] >= 1 and 0 <= res["failed"] <= res["attempted"]
    spec = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {k: v["unit"] for k, v in res["metrics"].items()}
    assert all(v["value"] != 0 for v in res["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(str(tmp_path), "--workload", BENCH["workloads"][0]["name"], "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_path_test_on_presets():
    import barlab
    from workloads import path_test

    m = barlab.DEFAULT_MATERIAL
    expected = {"monotone": False, "constant": False, "loading-unloading": True, "high-unload": True}
    for name, damages in expected.items():
        w = barlab.preset_datum(name, m)
        assert path_test(w.times, w.wL - w.w0, m.jump_threshold)[0] is damages, name
