import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barlab import (DEFAULT_MATERIAL, BoundaryDatum, ConfigError, MaterialParams,
                    NumericalError, ScenarioConfig, cns_classify, emit_figures,
                    parse_config, preset, preset_datum, refined_time_grid, run_limit,
                    run_scenario_limit, sweep_eps)
from barlab.cli import main
from barlab.eps_evolution import plateau_factor
from barlab.scenarios import (PRESET_NAMES, SweepReport, textbook_damage,
                              textbook_plasticity, write_config, write_csv)
from conftest import materials


class TestPresets:
    def test_all_names_build(self, material):
        for name in PRESET_NAMES:
            w = preset_datum(name, material)
            assert w.duration == material.T

    def test_unknown_name_rejected(self, material):
        with pytest.raises(ConfigError):
            preset_datum("ramp", material)

    def test_triangle_needs_room_to_damage(self, material):
        short = replace(material, T=0.8)
        with pytest.raises(ConfigError):
            preset_datum("loading-unloading", short)

    @settings(max_examples=300)
    @given(m=materials(), side=st.sampled_from([-1, 0, 1]))
    def test_triangle_is_refused_exactly_when_it_never_damages(self, m, side):
        # T one ulp below (-1), at (0) or one ulp above (+1) the value 2 s*/a1
        # at which the peak jump L*T/2 meets the threshold s* L/a1.
        T = 2.0 * m.yield_stress / m.a1
        m = replace(m, T=T if side == 0 else float(np.nextafter(T, side * np.inf)))
        w = BoundaryDatum(times=[0.0, m.T / 2.0, m.T], w0=[0.0, 0.0, 0.0],
                          wL=[0.0, m.L * m.T / 2.0, 0.0])
        damages = run_limit(m, w, refined_time_grid(w, 400)).l[-1] > 0.0
        try:
            accepted = preset_datum("loading-unloading", m) == w
        except ConfigError:
            accepted = False
        assert accepted == damages

    def test_high_unload_stays_supercritical(self, material):
        w = preset_datum("high-unload", material)
        t = np.linspace(material.T / 2.0, material.T, 101)
        assert np.min(np.abs(w.jump(t))) > material.jump_threshold

    def test_preset_wraps_into_config(self, material):
        cfg = preset("monotone")
        assert isinstance(cfg, ScenarioConfig)
        assert cfg.material == material
        assert cfg.datum == preset_datum("monotone", material)
        assert (cfg.cells, cfg.steps, cfg.eps_list) == (64, 400, ())


class TestScenarioConfig:
    def test_rejects_nonpositive_discretization(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(cells=0)
        with pytest.raises(ConfigError):
            ScenarioConfig(steps=0)

    def test_rejects_horizon_mismatch(self, material):
        w = BoundaryDatum(times=[0.0, 1.0], w0=[0.0, 0.0], wL=[0.0, 1.0])
        with pytest.raises(ConfigError):
            ScenarioConfig(material=material, datum=w)

    def test_value_equality(self, material):
        assert preset("monotone") == preset("monotone")
        assert preset("monotone") != preset("constant")
        assert preset("monotone") != replace(preset("monotone"), cells=65)


class TestConfigFiles:
    def test_round_trip_preserves_every_bit(self, tmp_path):
        m = MaterialParams(kappa=0.3141592653589793, a0=0.9, a1=1.8, L=1.1, T=1.7)
        w = BoundaryDatum(times=[0.0, 0.7, 1.7],
                          w0=[0.0, 0.05, 0.1],
                          wL=[0.0, 1.2, 0.3])
        cfg = ScenarioConfig(material=m, datum=w, cells=17, steps=33,
                             eps_list=(0.1, 1.0 / 30.0, 0.01), out_dir="figs")
        path = tmp_path / "scenario.ini"
        write_config(cfg, path)
        assert parse_config(path) == cfg

    def test_write_is_deterministic(self, tmp_path):
        cfg = preset("high-unload")
        a, b = tmp_path / "a.ini", tmp_path / "b.ini"
        write_config(cfg, a)
        write_config(cfg, b)
        assert a.read_bytes() == b.read_bytes()

    def test_minimal_preset_file(self, tmp_path):
        path = tmp_path / "min.ini"
        path.write_text("[datum]\npreset = loading-unloading\n")
        assert parse_config(path) == preset("loading-unloading")

    def test_defaults_without_datum_section(self, tmp_path):
        path = tmp_path / "empty.ini"
        path.write_text("[run]\nsteps = 12\n")
        cfg = parse_config(path)
        assert cfg.datum == preset_datum("monotone", cfg.material)
        assert cfg.steps == 12 and cfg.cells == 64

    @pytest.mark.parametrize("text", [
        "[orbit]\nx = 1\n",
        "[material]\ndensity = 1\n",
        "[material]\nkappa = abc\n",
        "[material]\na0 = -1\n",
        "[datum]\npreset = spiral\n",
        "[datum]\npreset = monotone\ntimes = 0, 2\n",
        "[datum]\ntimes = 0, 2\n",
        "[datum]\nwL = 0, 2\n",
        "[datum]\n",
        "[run]\nsteps = 1.5\n",
        "[run]\neps_list = ,\n",
        "steps = 3\n",
    ])
    def test_defective_files_rejected(self, tmp_path, text):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_percent_in_out_dir_round_trips(self, tmp_path):
        cfg = replace(preset("monotone"), out_dir="figs%x")
        path = tmp_path / "percent.ini"
        write_config(cfg, path)
        assert parse_config(path) == cfg

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "nowhere.ini")

    def test_explicit_datum_defaults_left_trace_to_zero(self, tmp_path):
        path = tmp_path / "explicit.ini"
        path.write_text("[datum]\ntimes = 0, 1, 2\nwL = 0, 1, 0\n")
        cfg = parse_config(path)
        assert np.all(cfg.datum.w0 == 0.0)
        assert cfg.datum == preset_datum("loading-unloading", cfg.material)


class TestSweep:
    def test_needs_a_nonempty_decreasing_list(self, material):
        with pytest.raises(ConfigError):
            sweep_eps(preset("monotone"))
        with pytest.raises(ConfigError):
            sweep_eps(replace(preset("monotone"), eps_list=(0.1, 0.1)))
        with pytest.raises(ConfigError):
            sweep_eps(replace(preset("monotone"), eps_list=(0.05, 0.1)))

    def test_two_point_sweep_shrinks(self):
        cfg = replace(preset("loading-unloading"), steps=100, cells=16,
                      eps_list=(0.1, 0.05))
        report = sweep_eps(cfg)
        assert report.sup_sigma_dev[1] < report.sup_sigma_dev[0]
        assert report.sup_l_dev[1] < report.sup_l_dev[0]
        assert report.sup_energy_dev[1] < report.sup_energy_dev[0]


class TestTextbookCurves:
    def test_plasticity_clamps_and_leaves_residual_strain(self, material):
        w = preset_datum("loading-unloading", material)
        t = np.linspace(0.0, material.T, 401)
        sigma = textbook_plasticity(material, w.jump(t))
        assert np.max(np.abs(sigma)) <= material.yield_stress + 1e-15
        # On unloading the stress crosses zero at J = 0.5, not at J = 0.
        k = 300  # t = 1.5, J = 0.5
        assert w.jump(t[k]) == pytest.approx(0.5, abs=1e-12)
        assert sigma[k] == pytest.approx(0.0, abs=1e-12)

    def test_damage_is_continuous_at_threshold_and_unloads_to_origin(self, material):
        w = preset_datum("loading-unloading", material)
        t = np.linspace(0.0, material.T, 801)
        sigma = textbook_damage(material, w.jump(t))
        kink = np.searchsorted(t, 0.5)
        assert abs(sigma[kink + 1] - sigma[kink]) < 2.0 * (sigma[kink] - sigma[kink - 1])
        assert sigma[-1] == pytest.approx(0.0, abs=1e-12)

    def test_damage_hardens_past_threshold(self, material):
        w = preset_datum("monotone", material)
        t = np.linspace(0.0, material.T, 201)
        sigma = textbook_damage(material, w.jump(t))
        assert sigma[-1] == pytest.approx(
            material.yield_stress * np.sqrt(material.T / material.jump_threshold), abs=1e-12)
        assert np.all(np.diff(sigma) > 0.0)


class TestEmitFigures:
    def test_file_set_and_determinism(self, tmp_path):
        cfg = replace(preset("loading-unloading"), steps=40)
        d1, d2 = tmp_path / "one", tmp_path / "two"
        paths = emit_figures(cfg, out_dir=str(d1))
        names = sorted(os.path.basename(p) for p in paths)
        assert names == ["comparison.csv", "energy_vs_t.csv", "l_vs_t.csv",
                         "sigma_vs_J.csv", "sigma_vs_t.csv"]
        emit_figures(cfg, out_dir=str(d2))
        for name in names:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_hysteresis_data_contains_the_plateau_corner(self, tmp_path):
        cfg = replace(preset("loading-unloading"), steps=40)
        emit_figures(cfg, out_dir=str(tmp_path))
        rows = (tmp_path / "sigma_vs_J.csv").read_text().strip().splitlines()
        assert rows[0] == "J,sigma"
        data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        corner = data[np.argmax(data[:, 0])]
        assert corner[0] == pytest.approx(1.0, abs=1e-12)
        assert corner[1] == pytest.approx(1.0, abs=1e-12)

    def test_needs_an_output_directory(self):
        with pytest.raises(ConfigError):
            emit_figures(preset("monotone"))

    def test_reuses_a_supplied_trajectory(self, tmp_path):
        cfg = replace(preset("monotone"), steps=10)
        traj = run_scenario_limit(cfg)
        paths = emit_figures(cfg, traj=traj, out_dir=str(tmp_path))
        rows = Path(paths[0]).read_text().strip().splitlines()
        assert len(rows) == traj.times.size + 1

    def test_write_csv_creates_a_missing_directory(self, tmp_path):
        path = tmp_path / "new" / "deeper" / "table.csv"
        write_csv(path, ("a", "b"), ([1.0, 2.0], [3.0, 4.0]))
        assert path.read_text() == "a,b\n1.0,3.0\n2.0,4.0\n"


class TestCommandLine:
    def test_classify_prints_json_verdict(self, capsys):
        assert main(["classify", "--preset", "monotone"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "PerfectPlasticity"
        assert payload["witness_pair"] is None
        assert payload["flow_rule_violations"] == 0

    def test_classify_writes_json_file(self, tmp_path, capsys):
        out = tmp_path / "verdict.json"
        code = main(["classify", "--preset", "loading-unloading", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["verdict"] == "DamageOnly"
        s, t = payload["witness_pair"]
        assert s < t
        assert set(payload) == {"verdict", "witness_pair", "t0", "t0_star",
                                "max_eb_residual", "flow_rule_violations"}

    def test_simulate_limit_csv_contract(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code = main(["simulate-limit", "--preset", "high-unload",
                     "--steps", "8", "--out", str(out)])
        assert code == 0
        assert "sigma(T) = 0.6" in capsys.readouterr().out
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "t,J,sigma,l,E_closed,E_integrated,e,p_total,t0_flag,saturated"
        assert len(rows) == 1 + 9
        last = [float(v) for v in rows[-1].split(",")]
        assert last[2] == pytest.approx(0.6, abs=1e-12)
        assert last[3] == pytest.approx(0.5, abs=1e-12)

    def test_saturated_column_is_relative_to_the_yield_stress(self, tmp_path, capsys):
        m = DEFAULT_MATERIAL
        tiny = replace(m, kappa=m.kappa * 1e-9, a0=m.a0 * 1e-9, a1=m.a1 * 1e-9)
        ini, out = tmp_path / "tiny.ini", tmp_path / "tiny.csv"
        write_config(preset("constant", tiny), ini)
        assert main(["simulate-limit", "--config", str(ini), "--out", str(out)]) == 0
        cols = np.loadtxt(out, delimiter=",", skiprows=1)
        # The same elastic bar in other units: it never damages and never saturates.
        assert np.all(cols[:, 3] == 0.0)
        assert np.all(cols[:, 9] == 0.0)

        out = tmp_path / "lu.csv"
        assert main(["simulate-limit", "--preset", "loading-unloading", "--out", str(out)]) == 0
        cols = np.loadtxt(out, delimiter=",", skiprows=1)
        # With s* = 1 the relative test flags the same rows as |sigma| >= s* - 1e-9.
        assert m.yield_stress == 1.0
        np.testing.assert_array_equal(cols[:, 9], (np.abs(cols[:, 2]) >= 1.0 - 1e-9).astype(float))
        assert 0.0 < cols[:, 9].sum() < cols.shape[0]

    def test_simulate_eps_csv_contract(self, tmp_path, capsys):
        out = tmp_path / "eps.csv"
        code = main(["simulate-eps", "--preset", "monotone", "--eps", "0.1",
                     "--steps", "20", "--cells", "4", "--out", str(out)])
        assert code == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "t,J,sigma,Theta_mean,l_eps,energy,work_cum,eb_residual"
        assert len(rows) == 1 + 21

    def test_envelope_table_stdout(self, capsys):
        assert main(["envelope-table", "--n", "5", "--xi-max", "2.0"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert rows[0] == "xi,raw,envelope,theta_star"
        assert len(rows) == 6
        first = [float(v) for v in rows[1].split(",")]
        assert first == [0.0, 0.0, 0.0, 0.0]

    def test_envelope_table_rejects_bad_grid(self, capsys):
        assert main(["envelope-table", "--n", "1"]) == 2
        assert main(["envelope-table", "--xi-min", "3.0", "--xi-max", "1.0"]) == 2

    @pytest.mark.parametrize("flag", ["--a", "--b", "--K", "--xi-min", "--xi-max"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_envelope_table_rejects_non_finite_input(self, flag, value, capsys):
        assert main(["envelope-table", f"{flag}={value}"]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate-limit", "simulate-eps", "classify",
                                         "sweep-eps", "emit-figures"])
    def test_help_states_the_run_defaults(self, command, capsys):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert f"time steps (default {ScenarioConfig.steps})" in out
        if command in ("simulate-eps", "sweep-eps"):
            assert f"spatial cells (default {ScenarioConfig.cells})" in out

    @pytest.mark.parametrize("command", ["classify", "simulate-limit", "emit-figures"])
    def test_cells_is_refused_where_no_cell_is_run(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--preset", "monotone", "--cells", "4"])
        assert exc.value.code == 2

    def test_preset_list_names_everything(self, capsys):
        assert main(["preset-list"]) == 0
        out = capsys.readouterr().out
        for name in PRESET_NAMES:
            assert name in out

    def test_sweep_writes_csv(self, tmp_path, capsys):
        code = main(["sweep-eps", "--preset", "loading-unloading",
                     "--steps", "100", "--cells", "16",
                     "--eps-list", "0.1,0.05", "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "eps_sweep.csv").read_text().strip().splitlines()
        assert rows[0] == "eps,sup_sigma_dev,sup_l_dev,sup_energy_dev"
        assert len(rows) == 3

    @staticmethod
    def _sweep_rates(stdout: str) -> list[tuple[float, float]]:
        # "  0.1 -> 0.05: sigma 1.03, l 1.03"
        rows = [ln.split(":")[1].replace(",", "").split() for ln in stdout.splitlines() if "->" in ln]
        return [(float(r[1]), float(r[3])) for r in rows]

    def test_sweep_prints_plateau_and_rates(self, capsys):
        eps = (0.1, 0.05, 0.02)
        code = main(["sweep-eps", "--preset", "loading-unloading", "--steps", "100",
                     "--cells", "16", "--eps-list", ",".join(map(str, eps))])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].split() == ["eps", "plateau", "sup|dsigma|", "sup|dl|", "sup|dE|"]
        m = DEFAULT_MATERIAL
        for line, e in zip(lines[1:], eps):
            assert float(line.split()[0]) == e
            assert float(line.split()[1]) == pytest.approx(m.yield_stress * plateau_factor(m, e),
                                                           abs=1e-6)
        rates = self._sweep_rates(out)
        assert len(rates) == len(eps) - 1
        # The stress deviation is the plateau amplification, first order in eps.
        assert all(0.9 < r < 1.1 for pair in rates for r in pair)

    def test_sweep_rates_of_an_undamaged_run_are_nan(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["sweep-eps", "--preset", "constant", "--steps", "20",
                         "--cells", "4", "--eps-list", "0.1,0.05,0.02"])
        assert code == 3
        rates = self._sweep_rates(capsys.readouterr().out)
        assert len(rates) == 2
        assert np.all(np.isnan(rates))

    def test_emit_figures_command(self, tmp_path, capsys):
        code = main(["emit-figures", "--preset", "monotone",
                     "--steps", "10", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "comparison.csv").exists()

    def test_config_file_drives_the_run(self, tmp_path, capsys):
        path = tmp_path / "s.ini"
        path.write_text("[datum]\npreset = high-unload\n[run]\nsteps = 8\n")
        assert main(["simulate-limit", "--config", str(path)]) == 0
        assert "steps = 8" in capsys.readouterr().out

    def test_steps_flag_overrides_the_config_file(self, tmp_path, capsys):
        path = tmp_path / "s.ini"
        path.write_text("[datum]\npreset = high-unload\n[run]\nsteps = 8\n")
        cfg = parse_config(path)
        payloads = []
        for flags, steps in ((["--steps", "50"], 50), ([], 8)):
            assert main(["classify", "--config", str(path), *flags]) == 0
            got = json.loads(capsys.readouterr().out)
            want = cns_classify(cfg.datum, cfg.material, steps=steps)
            assert got == {"verdict": want.verdict, "witness_pair": list(want.witness),
                           "t0": want.t0, "t0_star": want.t0_star,
                           "max_eb_residual": want.max_eb_residual,
                           "flow_rule_violations": want.flow_rule_violations}
            payloads.append(got)
        assert payloads[0]["t0"] != payloads[1]["t0"]

    @pytest.mark.parametrize("text", ["[material]\nkappa = 5%\n",
                                      "[datum]\ntimes = 0, 2\nwL = 0, %(x)s\n"])
    def test_percent_in_a_number_exits_2(self, tmp_path, text, capsys):
        path = tmp_path / "percent.ini"
        path.write_text(text)
        assert main(["classify", "--config", str(path)]) == 2
        assert "is not a number" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["classify", "--preset", "monotone", "--steps", "10"],
        ["simulate-limit", "--preset", "monotone", "--steps", "10"],
        ["emit-figures", "--preset", "monotone", "--steps", "10"],
        ["sweep-eps", "--preset", "loading-unloading", "--steps", "10", "--eps-list", "0.1,0.05"],
        ["envelope-table"],
    ])
    def test_out_under_a_regular_file_exits_2(self, tmp_path, argv, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main([*argv, "--out", str(blocker / "out")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_config_exits_2(self, capsys):
        assert main(["simulate-limit", "--config", "/nonexistent.ini"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_oversized_eps_exits_2(self, capsys):
        assert main(["simulate-eps", "--preset", "monotone", "--eps", "3.0"]) == 2

    @pytest.mark.parametrize("eps_list", ["3.0,0.1", "0.1,-1"])
    def test_sweep_oversized_eps_exits_2(self, eps_list, capsys):
        assert main(["sweep-eps", "--preset", "monotone", "--steps", "10",
                     "--eps-list", eps_list]) == 2
        assert "error:" in capsys.readouterr().err

    def test_non_finite_datum_in_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "nan.ini"
        path.write_text("[datum]\ntimes = 0, nan, 2\nwL = 0, 1, 0\n")
        assert main(["classify", "--config", str(path)]) == 2
        assert "times must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["kappa", "a1"])
    def test_infinite_material_in_config_exits_2(self, tmp_path, field, capsys):
        path = tmp_path / "inf.ini"
        path.write_text(f"[material]\n{field} = inf\n")
        assert main(["classify", "--config", str(path)]) == 2
        assert f"need {field} finite and > 0" in capsys.readouterr().err

    def test_sweep_without_list_exits_2(self, capsys):
        assert main(["sweep-eps", "--preset", "monotone"]) == 2

    def test_nonmonotone_sweep_exits_3(self, monkeypatch, capsys):
        fake = SweepReport(eps=(0.1, 0.05),
                           sup_sigma_dev=np.array([1.0, 2.0]),
                           sup_l_dev=np.array([1.0, 0.5]),
                           sup_energy_dev=np.array([1.0, 0.5]))
        monkeypatch.setattr("barlab.cli.sweep_eps", lambda cfg: fake)
        code = main(["sweep-eps", "--preset", "monotone", "--eps-list", "0.1,0.05"])
        assert code == 3

    def test_numerical_failure_exits_3(self, monkeypatch, capsys):
        def boom(*a, **k):
            raise NumericalError("diagnostic mismatch")
        monkeypatch.setattr("barlab.cli.cns_classify", boom)
        assert main(["classify", "--preset", "monotone"]) == 3


_STARTUP_PROBE = """
import contextlib, io, json, os, sys
from barlab import parse_config, preset
from barlab.cli import main
from barlab.scenarios import write_config

codes = []
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes.append(main(["classify", "--preset", "loading-unloading"]))
    codes.append(main(["simulate-eps", "--preset", "loading-unloading", "--eps", "0.05",
                       "--steps", "40", "--cells", "8"]))
    codes.append(main(["sweep-eps", "--preset", "loading-unloading", "--eps-list", "0.1,0.05",
                       "--steps", "40", "--cells", "8"]))
after_cli = {name: name in sys.modules for name in ("numpy.ma", "configparser")}
path = os.path.join(sys.argv[1], "s.ini")
write_config(preset("high-unload"), path)
round_trip = parse_config(path) == preset("high-unload")
print(json.dumps({"codes": codes, "after_cli": after_cli, "round_trip": round_trip,
                  "configparser_loaded": "configparser" in sys.modules}))
"""


def _child_env() -> dict:
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_cli_start_up_loads_neither_numpy_ma_nor_configparser(tmp_path):
    # A fresh interpreter: this test process has imported both modules long ago.
    proc = subprocess.run([sys.executable, "-c", _STARTUP_PROBE, str(tmp_path)],
                          capture_output=True, text=True, env=_child_env(), timeout=120,
                          check=False)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["codes"] == [0, 0, 0]
    assert report["after_cli"] == {"numpy.ma": False, "configparser": False}
    assert report["round_trip"] and report["configparser_loaded"]


def test_a_reader_that_closes_stdout_early_gets_exit_1_and_no_error():
    # Far more rows than a pipe buffer holds: the child is still writing at the close.
    proc = subprocess.Popen([sys.executable, "-m", "barlab", "envelope-table", "--n", "100000"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env())
    assert proc.stdout.readline() == b"xi,raw,envelope,theta_star\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (1, b"")
