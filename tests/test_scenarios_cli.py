import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barlab import (DEFAULT_MATERIAL, BoundaryDatum, ConfigError, MaterialParams,
                    NumericalError, ScenarioConfig, cns_classify, emit_figures,
                    parse_config, preset, preset_datum, refined_time_grid, run_eps,
                    run_limit, sweep_eps)
from barlab.cli import main
from barlab.envelope import plateau_factor
from barlab.scenarios import PRESET_NAMES, SweepReport, textbook_plasticity, write_csv
from conftest import (LEDGER_OVERFLOW_PROGRAM, OVERFLOW_MATERIAL, OVERFLOW_PROGRAMS, materials,
                      programs)


def ini_text(cfg: ScenarioConfig) -> str:
    """The INI form of ``cfg``, floats with 17 significant digits."""
    def nums(values):
        return ", ".join("%.17g" % v for v in values)
    material = "".join(f"{k} = {nums([getattr(cfg.material, k)])}\n"
                       for k in ("kappa", "a0", "a1", "L", "T"))
    text = (f"[material]\n{material}"
            f"[datum]\ntimes = {nums(cfg.datum.times)}\nw0 = {nums(cfg.datum.w0)}\n"
            f"wL = {nums(cfg.datum.wL)}\n"
            f"[run]\ncells = {cfg.cells}\nsteps = {cfg.steps}\n")
    return text + (f"eps_list = {nums(cfg.eps_list)}\n" if cfg.eps_list else "")


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

    @pytest.mark.parametrize("field", ["cells", "steps"])
    def test_a_count_must_be_an_integer(self, field):
        with pytest.raises(ConfigError, match=rf"^{field} must be an integer, got 2\.5$"):
            ScenarioConfig(**{field: 2.5})
        with pytest.raises(ConfigError, match=rf"^{field} must be positive, got np\.int64\(0\)$"):
            ScenarioConfig(**{field: np.int64(0)})
        assert getattr(ScenarioConfig(**{field: np.int64(3)}), field) == 3

    def test_rejects_horizon_mismatch(self, material):
        w = BoundaryDatum(times=[0.0, 1.0], w0=[0.0, 0.0], wL=[0.0, 1.0])
        with pytest.raises(ConfigError):
            ScenarioConfig(material=material, datum=w)

    @pytest.mark.parametrize("eps_list", ["0.1", 0.1, np.array(0.1), [0.1, "0.05"], [0.1, None], [[0.1]]],
                             ids=["string", "scalar", "0-d array", "string entry", "None entry", "list entry"])
    def test_eps_list_must_be_a_sequence_of_numbers(self, eps_list):
        with pytest.raises(ConfigError, match=r"^eps_list must be a sequence of numbers, got "):
            ScenarioConfig(eps_list=eps_list)

    def test_a_sequence_of_numbers_is_an_eps_list(self):
        eps = (0.1, 1, np.float32(0.25), np.int64(2), np.float64(0.05))
        for given in (eps, list(eps), np.array(eps), iter(eps)):
            got = ScenarioConfig(eps_list=given).eps_list
            assert got == (0.1, 1.0, 0.25, 2.0, 0.05) and all(type(e) is float for e in got)

    def test_a_missing_datum_is_the_monotone_program_of_the_material(self, material):
        m = replace(material, T=5.0)
        assert ScenarioConfig(material=m).datum == preset_datum("monotone", m)

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
                             eps_list=(0.1, 1.0 / 30.0, 0.01))
        path = tmp_path / "scenario.ini"
        path.write_text(ini_text(cfg))
        assert parse_config(path) == cfg

    @settings(max_examples=100)
    @given(m=materials(), data=st.data(), cells=st.integers(1, 4096), steps=st.integers(1, 10**6),
           eps=st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=5, unique=True))
    def test_every_config_round_trips(self, tmp_path_factory, m, data, cells, steps, eps):
        w = data.draw(programs(m))
        w0 = data.draw(st.lists(st.floats(-3.0, 3.0).filter(bool),
                                min_size=w.times.size, max_size=w.times.size))
        cfg = ScenarioConfig(material=m, datum=BoundaryDatum(times=w.times, w0=w0, wL=w.wL),
                             cells=cells, steps=steps, eps_list=tuple(sorted(eps, reverse=True)))
        path = tmp_path_factory.mktemp("ini") / "scenario.ini"
        path.write_text(ini_text(cfg))
        got = parse_config(path)
        assert got == cfg
        assert type(got.cells) is int and type(got.steps) is int

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

    def test_an_output_section_is_refused(self, tmp_path, capsys):
        # A scenario file describes the experiment only; --out says where results go.
        path = tmp_path / "output.ini"
        path.write_text("[datum]\npreset = monotone\n[output]\nout_dir = figs\n")
        with pytest.raises(ConfigError, match=r"unknown config section \[output\]"):
            parse_config(path)
        assert main(["sweep-eps", "--config", str(path), "--eps-list", "0.1,0.05"]) == 2
        assert "unknown config section [output]" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "[DEFAULT]\nkappa = 0.3\n",
        "[DEFAULT]\nsteps = 7\n[run]\ncells = 4\n",
        "[DEFAULT]\nsteps = 7\n[material]\nkappa = 0.4\n",
    ])
    def test_a_default_section_is_refused(self, tmp_path, text, capsys):
        # [DEFAULT] is no schema section: its keys neither apply nor leak into others.
        path = tmp_path / "default.ini"
        path.write_text(text)
        with pytest.raises(ConfigError, match=r"unknown config section \[DEFAULT\]"):
            parse_config(path)
        assert main(["classify", "--config", str(path)]) == 2
        assert capsys.readouterr().err == "error: unknown config section [DEFAULT]\n"

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "nowhere.ini")

    def test_a_file_that_is_not_utf8_cannot_be_read(self, tmp_path, capsys):
        path = tmp_path / "latin.ini"
        path.write_bytes(b"[material]\nkappa = 0.5\xff\n")
        with pytest.raises(ConfigError) as info:
            parse_config(path)
        assert str(info.value).startswith(f"cannot read config file {path}: 'utf-8' codec")
        assert main(["classify", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read config file {path}: ")

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

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_presets_match_one_run_per_eps(self, name):
        cfg = replace(preset(name), steps=1000, eps_list=(0.1, 0.05, 0.02, 0.01))
        assert_sweep_matches_runs(cfg)

    def test_one_limit_run_and_one_jump_evaluation(self, monkeypatch):
        calls = {"run_limit": 0, "jump": 0}
        real_run_limit, real_jump = run_limit, BoundaryDatum.jump

        def counted_run_limit(*args):
            calls["run_limit"] += 1
            return real_run_limit(*args)

        def counted_jump(self, t):
            calls["jump"] += 1
            return real_jump(self, t)

        monkeypatch.setattr("barlab.scenarios.run_limit", counted_run_limit)
        monkeypatch.setattr(BoundaryDatum, "jump", counted_jump)
        sweep_eps(replace(preset("loading-unloading"), steps=50, eps_list=(0.1, 0.05, 0.02, 0.01)))
        assert calls == {"run_limit": 1, "jump": 1}

    def test_an_overflowing_sweep_names_the_eps(self):
        w = BoundaryDatum(times=[0.0, 2.0], w0=[0.0, 0.0], wL=[0.0, 1e160])
        with pytest.raises(NumericalError, match=r"^eps=0\.1, time step 1 \(t=0\.5\): energy or work"):
            sweep_eps(ScenarioConfig(datum=w, steps=4, eps_list=(0.1, 0.05)))

    def test_guard_names_the_eps(self, monkeypatch):
        # With no rounding allowance the aggregate-strain guard fires on the
        # rounding of some eps and not of others: here 0.2 passes and 0.1 fails.
        monkeypatch.setattr("barlab.eps_evolution._RESIDUAL_TOL", 0.0)
        cfg = replace(preset("loading-unloading"), steps=20, eps_list=(0.2, 0.1))
        grid = refined_time_grid(cfg.datum, cfg.steps)
        run_eps(cfg.material, 0.2, 1, cfg.datum, grid)
        with pytest.raises(NumericalError) as single:
            run_eps(cfg.material, 0.1, 1, cfg.datum, grid)
        assert str(single.value).startswith("eps=0.1, time step ")
        with pytest.raises(NumericalError) as swept:
            sweep_eps(cfg)
        assert str(swept.value) == str(single.value)


def assert_sweep_matches_runs(cfg):
    """The sweep's deviations equal the maxima of one ``run_eps`` per eps, bit for bit."""
    report = sweep_eps(cfg)
    grid = refined_time_grid(cfg.datum, cfg.steps)
    ref = run_limit(cfg.material, cfg.datum, grid)
    runs = [run_eps(cfg.material, e, cfg.cells, cfg.datum, grid) for e in cfg.eps_list]
    want = [[np.max(np.abs(r.sigma - ref.sigma)) for r in runs],
            [np.max(np.abs(r.l_eps - ref.l)) for r in runs],
            [np.max(np.abs(r.energy - ref.E_closed)) for r in runs]]
    got = [report.sup_sigma_dev, report.sup_l_dev, report.sup_energy_dev]
    assert report.eps == cfg.eps_list
    for g, w in zip(got, want):
        assert np.array_equal(g, np.asarray(w))


@settings(max_examples=100)
@given(m=materials(), data=st.data(),
       eps=st.lists(st.floats(1e-3, 0.9), min_size=1, max_size=5, unique=True),
       steps=st.integers(1, 200))
def test_random_sweeps_match_one_run_per_eps(m, data, eps, steps):
    assert_sweep_matches_runs(ScenarioConfig(material=m, datum=data.draw(programs(m)), cells=2, steps=steps,
                                             eps_list=tuple(sorted(eps, reverse=True))))


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


class TestEmitFigures:
    def test_file_set_and_determinism(self, tmp_path):
        cfg = replace(preset("loading-unloading"), steps=40)
        d1, d2 = tmp_path / "one", tmp_path / "two"
        paths = emit_figures(cfg, str(d1))
        names = sorted(os.path.basename(p) for p in paths)
        assert names == ["comparison.csv", "energy_vs_t.csv", "l_vs_t.csv",
                         "sigma_vs_J.csv", "sigma_vs_t.csv"]
        emit_figures(cfg, str(d2))
        for name in names:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
        assert (d1 / "comparison.csv").read_text().split("\n", 1)[0] == "t,J,sigma_effective,sigma_plasticity"

    def test_hysteresis_data_contains_the_plateau_corner(self, tmp_path):
        cfg = replace(preset("loading-unloading"), steps=40)
        emit_figures(cfg, str(tmp_path))
        rows = (tmp_path / "sigma_vs_J.csv").read_text().strip().splitlines()
        assert rows[0] == "J,sigma"
        data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        corner = data[np.argmax(data[:, 0])]
        assert corner[0] == pytest.approx(1.0, abs=1e-12)
        assert corner[1] == pytest.approx(1.0, abs=1e-12)

    def test_needs_an_output_directory(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["emit-figures", "--preset", "monotone", "--steps", "10"]) == 2
        assert "--out" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

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
        ini.write_text(ini_text(preset("constant", tiny)))
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

    def test_simulate_eps_csv_is_the_same_for_any_cell_count(self, tmp_path, capsys):
        # Theta_mean is the sound fraction of the homogeneous run, not a mean
        # whose last bits depend on how many identical cells it averages.
        texts = []
        for cells in ("1", "7", "64"):
            out = tmp_path / f"eps{cells}.csv"
            assert main(["simulate-eps", "--preset", "monotone", "--eps", "0.05",
                         "--cells", cells, "--out", str(out)]) == 0
            texts.append(out.read_text())
        assert texts[1] == texts[0] and texts[2] == texts[0]
        cfg = preset("monotone")
        theta = run_eps(cfg.material, 0.05, 1, cfg.datum, refined_time_grid(cfg.datum, cfg.steps)).theta
        column = [float(row.split(",")[3]) for row in texts[0].splitlines()[1:]]
        assert np.array_equal(column, theta[:, 0])

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

    def test_sweep_prints_the_plateau_in_any_stress_unit(self, tmp_path, capsys):
        m = MaterialParams(kappa=0.5e-12, a0=1e-12, a1=2e-12, L=1.0, T=2.0)
        path = tmp_path / "pico.ini"
        path.write_text("[material]\nkappa = 0.5e-12\na0 = 1e-12\na1 = 2e-12\n"
                        "[datum]\npreset = loading-unloading\n"
                        "[run]\nsteps = 100\neps_list = 0.1, 0.05, 0.02\n")
        assert parse_config(path).material == m
        assert main(["sweep-eps", "--config", str(path)]) == 0
        rows = capsys.readouterr().out.splitlines()[1:4]
        for row, e in zip(rows, (0.1, 0.05, 0.02), strict=True):
            assert float(row.split()[0]) == e
            assert float(row.split()[1]) == pytest.approx(m.yield_stress * plateau_factor(m, e),
                                                          rel=1e-6)

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

    def test_an_eps_too_small_for_floats_exits_2(self, capsys):
        assert main(["simulate-eps", "--preset", "monotone", "--eps", "1e-323"]) == 2
        assert capsys.readouterr().err.startswith("error: eps=1e-323 is too close to 0")

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

    @pytest.mark.parametrize("text, got", [
        ("kappa = 1e-200\na0 = 1e-200\n", "0.0"),
        ("kappa = 1e200\na0 = 1e200\na1 = 1e201\n", "inf"),
    ], ids=["underflow", "overflow"])
    def test_a_material_whose_yield_stress_is_not_a_float_exits_2(self, tmp_path, text, got, capsys):
        path = tmp_path / "extreme.ini"
        path.write_text("[material]\n" + text)
        assert main(["classify", "--config", str(path)]) == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", f"error: invalid [material]: need yield_stress finite and > 0, got {got}\n")

    def test_sweep_without_list_exits_2(self, capsys):
        assert main(["sweep-eps", "--preset", "monotone"]) == 2

    @pytest.mark.parametrize("eps_list, message", [
        ("", "--eps-list must be a comma-separated list of numbers"),
        (" , ", "--eps-list must be a comma-separated list of numbers"),
        ("0.1,abc", "--eps-list = 'abc' is not a number"),
    ])
    def test_eps_list_is_read_like_the_ini_list(self, eps_list, message, capsys):
        assert main(["sweep-eps", "--preset", "monotone", "--eps-list", eps_list]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_an_overflowing_eps_run_exits_3(self, tmp_path, capsys):
        path = tmp_path / "huge.ini"
        path.write_text("[datum]\ntimes = 0, 2\nwL = 0, 1e160\n[run]\nsteps = 4\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate-eps", "--config", str(path), "--eps", "0.1"]) == 3
        assert capsys.readouterr().err == "error: eps=0.1, time step 1 (t=0.5): energy or work is not finite\n"

    @pytest.mark.parametrize("name", sorted(OVERFLOW_PROGRAMS))
    @pytest.mark.parametrize("command", [["classify"], ["simulate-limit"], ["emit-figures"],
                                         ["sweep-eps", "--eps-list", "0.1,0.01"]],
                             ids=lambda command: command[0])
    def test_an_overflowing_limit_run_exits_3(self, tmp_path, name, command, capsys):
        times, wL = OVERFLOW_PROGRAMS[name]
        w = BoundaryDatum(times=times, w0=np.zeros(len(times)), wL=wL)
        path = tmp_path / "huge.ini"
        path.write_text(ini_text(ScenarioConfig(material=OVERFLOW_MATERIAL, datum=w)))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*command, "--config", str(path), "--out", str(out)]) == 3
        got = capsys.readouterr()
        assert got.out == ""
        assert re.fullmatch(r"error: time step \d+ \(t=[0-9.]+\): energy or work is not finite\n", got.err)
        assert not out.exists()

    def test_an_overflowing_jump_exits_2(self, tmp_path, capsys):
        path = tmp_path / "jump.ini"
        path.write_text("[datum]\ntimes = 0, 2\nw0 = 0, -1e308\nwL = 0, 1e308\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["classify", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: invalid [datum]: the jump wL - w0 must be finite, got [0.0, inf]\n")

    def test_an_overflowing_ledger_exits_3(self, tmp_path, capsys):
        times, wL = LEDGER_OVERFLOW_PROGRAM
        w = BoundaryDatum(times=times, w0=np.zeros(len(times)), wL=wL)
        path = tmp_path / "ledger.ini"
        path.write_text(ini_text(ScenarioConfig(material=OVERFLOW_MATERIAL, datum=w)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["classify", "--config", str(path)]) == 3
        got = capsys.readouterr()
        assert got.out == ""
        assert re.fullmatch(r"error: time step \d+ \(t=[0-9.]+\): plasticity ledger is not finite\n", got.err)

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

codes = []
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes.append(main(["classify", "--preset", "loading-unloading"]))
    codes.append(main(["simulate-eps", "--preset", "loading-unloading", "--eps", "0.05",
                       "--steps", "40", "--cells", "8"]))
    codes.append(main(["sweep-eps", "--preset", "loading-unloading", "--eps-list", "0.1,0.05",
                       "--steps", "40", "--cells", "8"]))
after_cli = {name: name in sys.modules for name in ("numpy.ma", "configparser")}
path = os.path.join(sys.argv[1], "s.ini")
with open(path, "w") as fh:
    fh.write("[datum]\\npreset = high-unload\\n")
parsed = parse_config(path) == preset("high-unload")
print(json.dumps({"codes": codes, "after_cli": after_cli, "parsed": parsed,
                  "configparser_loaded": "configparser" in sys.modules}))
"""


def _child_env() -> dict:
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env["PYTHONWARNINGS"] = "error"  # a RuntimeWarning in the child fails it, as in this process
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
    assert report["parsed"] and report["configparser_loaded"]


def test_classify_prints_strict_json_when_floats_cannot_resolve_a_drop(tmp_path):
    # J's zero crossing rounds onto the knot t = 1: the witness is the one instant of the drop.
    path = tmp_path / "drop.ini"
    path.write_text("[datum]\ntimes = 0, 1, 2\nwL = 0, 10, -1e17\n")
    proc = subprocess.run([sys.executable, "-m", "barlab", "classify", "--config", str(path)],
                          capture_output=True, text=True, env=_child_env(), timeout=120, check=False)
    assert (proc.returncode, proc.stderr) == (0, "")

    def refuse(name):
        raise ValueError(f"not JSON: {name}")

    payload = json.loads(proc.stdout, parse_constant=refuse)
    assert (payload["verdict"], payload["witness_pair"]) == ("DamageOnly", [1.0, 1.0])


def test_a_non_finite_classification_exits_3(monkeypatch, capsys):
    monkeypatch.setattr("barlab.diagnostics.threshold_crossing", lambda w, thr: float("nan"))
    assert main(["classify", "--preset", "loading-unloading"]) == 3
    got = capsys.readouterr()
    assert got.out == "" and got.err.startswith("error: classification has a non-finite field: ")


def test_a_reader_that_closes_stdout_early_gets_exit_1_and_no_error():
    # Far more rows than a pipe buffer holds: the child is still writing at the close.
    proc = subprocess.Popen([sys.executable, "-m", "barlab", "envelope-table", "--n", "100000"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env())
    assert proc.stdout.readline() == b"xi,raw,envelope,theta_star\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (1, b"")
