import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIGURES = ("sigma_vs_t.csv", "sigma_vs_J.csv", "l_vs_t.csv", "energy_vs_t.csv", "comparison.csv")


def run_study(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    env["PYTHONWARNINGS"] = "error"  # a RuntimeWarning in the script fails it, as in this process
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "loading_unloading_study.py"),
                           *args], capture_output=True, text=True, env=env, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_loading_unloading_study_splits_the_terminal_residual():
    proc = run_study()

    def value(label: str) -> float:
        line = next(ln for ln in proc.stdout.splitlines() if ln.strip().startswith(label))
        return float(line.split("=")[1])

    r_T = value("terminal balance residual R(T)")
    assert value("sum") == pytest.approx(r_T, abs=1e-6)
    # 2 kappa l1 + kappa l1 on the default material (README, criterion 2).
    assert value("return-leg yield dissipation") == pytest.approx(0.5, abs=1e-6)
    assert value("terminal remainder") == pytest.approx(0.25, abs=1e-6)
    assert "wrote" not in proc.stdout


def test_loading_unloading_study_writes_the_figures(tmp_path):
    out = tmp_path / "figs"
    proc = run_study("--steps", "40", "--out", str(out))
    assert sorted(os.listdir(out)) == sorted(FIGURES)
    for name in FIGURES:
        assert f"wrote {out / name}" in proc.stdout
    # The figures are drawn on the study's own grid of 40 steps.
    rows = (out / "l_vs_t.csv").read_text().splitlines()
    assert rows[0] == "t,l" and len(rows) == 1 + 41
