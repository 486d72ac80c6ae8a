import contextlib
import dataclasses
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from optomech.cli import (
    GridSpec,
    ResultTable,
    emit_csv,
    load_config,
    main,
    run_command,
    spec_to_config,
)
from optomech.errors import ConfigError
from optomech import classical

BASE = {
    "command": "damping",
    "params": {
        "kappa": 0.1,
        "gamma": 0.005,
        "g0": 0.003,
        "Delta0": 0.0,
        "A_l": 5.0,
    },
    "grids": {"Delta": {"start": -2.0, "stop": 2.0, "count": 11}},
    "output_dir": "out",
    "seed": 0,
}


def write_config(tmp_path, overrides=None, **replace):
    cfg = json.loads(json.dumps(BASE))
    cfg.update(replace)
    if overrides:
        for dotted, value in overrides.items():
            node = cfg
            *parents, leaf = dotted.split(".")
            for key in parents:
                node = node.setdefault(key, {})
            if value is ...:
                node.pop(leaf, None)
            else:
                node[leaf] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestLoadConfig:
    def test_happy_path(self, tmp_path):
        spec = load_config(write_config(tmp_path))
        assert spec.command == "damping"
        assert spec.params.kappa == 0.1
        assert spec.grids["Delta"] == GridSpec(-2.0, 2.0, 11)
        assert spec.output_dir == "out"
        assert spec.seed == 0

    def test_grid_values(self, tmp_path):
        spec = load_config(write_config(tmp_path))
        np.testing.assert_array_equal(
            spec.grids["Delta"].values(), np.linspace(-2, 2, 11)
        )

    def test_defaults_applied(self, tmp_path):
        spec = load_config(write_config(tmp_path, overrides={"seed": ...}))
        assert spec.seed == 0
        assert spec.params.omega_m == 1.0 and spec.params.m == 1.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"command": "steady",\n  "params": }')
        with pytest.raises(ConfigError, match="line 2"):
            load_config(path)

    def test_unknown_param_suggests_correction(self, tmp_path):
        path = write_config(tmp_path, overrides={"params.gamma_m": 0.005})
        with pytest.raises(ConfigError, match="'gamma'"):
            load_config(path)

    def test_unknown_top_level_key(self, tmp_path):
        path = write_config(tmp_path, overrides={"output_dri": "x"})
        with pytest.raises(ConfigError, match="output_dir"):
            load_config(path)

    def test_unknown_command_suggests(self, tmp_path):
        path = write_config(tmp_path, command="dampng")
        with pytest.raises(ConfigError, match="'damping'"):
            load_config(path)

    def test_missing_required_param(self, tmp_path):
        path = write_config(tmp_path, overrides={"params.kappa": ...})
        with pytest.raises(ConfigError, match="kappa"):
            load_config(path)

    def test_invalid_param_value(self, tmp_path):
        path = write_config(tmp_path, overrides={"params.kappa": -1.0})
        with pytest.raises(ConfigError, match="kappa"):
            load_config(path)

    def test_non_numeric_param(self, tmp_path):
        path = write_config(tmp_path, overrides={"params.kappa": "0.1"})
        with pytest.raises(ConfigError, match="params.kappa"):
            load_config(path)

    def test_missing_required_grid(self, tmp_path):
        path = write_config(tmp_path, grids={})
        with pytest.raises(ConfigError, match="requires grid 'Delta'"):
            load_config(path)

    def test_unused_grid_rejected(self, tmp_path):
        path = write_config(
            tmp_path, overrides={"grids.Delta0": {"start": 0, "stop": 1, "count": 5}}
        )
        with pytest.raises(ConfigError, match="Delta0"):
            load_config(path)

    def test_grid_count_validation(self, tmp_path):
        for bad in (1, 0, -3, 2.5, "10"):
            path = write_config(tmp_path, overrides={"grids.Delta.count": bad})
            with pytest.raises(ConfigError, match="count"):
                load_config(path)

    def test_grid_ordering_validation(self, tmp_path):
        path = write_config(
            tmp_path, grids={"Delta": {"start": 2.0, "stop": -2.0, "count": 5}}
        )
        with pytest.raises(ConfigError, match="stop > start"):
            load_config(path)

    def test_grid_unknown_key(self, tmp_path):
        path = write_config(
            tmp_path,
            grids={"Delta": {"start": -2.0, "stop": 2.0, "count": 5, "step": 0.1}},
        )
        with pytest.raises(ConfigError, match="step"):
            load_config(path)

    def test_seed_validation(self, tmp_path):
        for bad in (-1, 0.5, "0", True):
            path = write_config(tmp_path, seed=bad)
            with pytest.raises(ConfigError, match="seed"):
                load_config(path)

    def test_output_dir_validation(self, tmp_path):
        path = write_config(tmp_path, output_dir="")
        with pytest.raises(ConfigError, match="output_dir"):
            load_config(path)

    def test_non_object_config(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ConfigError, match="object"):
            load_config(path)


class TestRoundTrip:
    def test_metadata_is_reloadable(self, tmp_path):
        spec = load_config(write_config(tmp_path))
        tables = run_command(spec)
        echo = tmp_path / "echo.json"
        echo.write_text(json.dumps(tables[0].metadata))
        respec = load_config(echo)
        assert spec_to_config(respec) == spec_to_config(spec)

    def test_sidecar_reloads_to_same_spec(self, tmp_path):
        config = write_config(tmp_path, output_dir=str(tmp_path / "out"))
        assert main([str(config), "--quiet"]) == 0
        sidecar = tmp_path / "out" / "damping.meta.json"
        respec = load_config(sidecar)
        assert spec_to_config(respec) == spec_to_config(load_config(config))


class TestEmitCsv:
    def test_exact_format(self, tmp_path):
        table = ResultTable(
            name="t",
            columns={"a": np.array([1.0, 1 / 3]), "b": np.array([2.0, 2e-17])},
            metadata={"k": 1},
        )
        path = tmp_path / "t.csv"
        emit_csv(table, path)
        raw = path.read_bytes()
        assert raw == b"a,b\n1,2\n0.33333333333333331,2.0000000000000001e-17\n"

    def test_lf_line_endings(self, tmp_path):
        table = ResultTable(name="t", columns={"x": np.arange(3.0)}, metadata={})
        path = tmp_path / "t.csv"
        emit_csv(table, path)
        assert b"\r" not in path.read_bytes()

    def test_sidecar_written(self, tmp_path):
        table = ResultTable(name="t", columns={"x": np.arange(3.0)}, metadata={"k": 1})
        emit_csv(table, tmp_path / "t.csv")
        assert json.loads((tmp_path / "t.meta.json").read_text()) == {"k": 1}

    def test_header_only_when_empty(self, tmp_path):
        table = ResultTable(name="t", columns={"edge": np.array([])}, metadata={})
        path = tmp_path / "t.csv"
        emit_csv(table, path)
        assert path.read_bytes() == b"edge\n"

    def test_unequal_columns_rejected(self, tmp_path):
        table = ResultTable(
            name="t",
            columns={"a": np.arange(3.0), "b": np.arange(2.0)},
            metadata={},
        )
        with pytest.raises(ValueError, match="unequal"):
            emit_csv(table, tmp_path / "t.csv")

    def test_17_digits_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        values = rng.standard_normal(50) * 10.0 ** rng.integers(-12, 12, 50)
        table = ResultTable(name="t", columns={"v": values}, metadata={})
        path = tmp_path / "t.csv"
        emit_csv(table, path)
        parsed = np.loadtxt(path, skiprows=1)
        np.testing.assert_array_equal(parsed, values)


class TestCommands:
    def run(self, tmp_path, **replace):
        out = tmp_path / "out"
        config = write_config(tmp_path, output_dir=str(out), **replace)
        code = main([str(config), "--quiet"])
        return code, out

    def test_damping_output(self, tmp_path):
        code, out = self.run(tmp_path)
        assert code == 0
        data = np.genfromtxt(out / "damping.csv", delimiter=",", names=True)
        assert data.shape == (11,)
        red = data["Delta"] < 0
        assert np.all(data["gamma_om"][red] > 0)

    def test_steady_matches_library(self, tmp_path):
        code, out = self.run(
            tmp_path,
            command="steady",
            grids={},
            params={"kappa": 0.15, "gamma": 0.005, "g0": 0.0, "Delta0": 0.0, "A_l": 5.0},
        )
        assert code == 0
        data = np.genfromtxt(out / "steady.csv", delimiter=",", names=True)
        assert float(data["N_o"]) == pytest.approx(4444.444444444444, rel=1e-12)
        assert float(data["stable"]) == 1.0

    def test_bistability_tables(self, tmp_path):
        code, out = self.run(
            tmp_path,
            command="bistability",
            params={"kappa": 0.15, "gamma": 0.005, "g0": 0.005, "Delta0": 0.0, "A_l": 5.0},
            grids={"Delta0": {"start": -0.35, "stop": -0.05, "count": 61}},
        )
        assert code == 0
        edges = np.loadtxt(out / "window_edges.csv", skiprows=1)
        assert edges.shape == (2,)
        rows = np.genfromtxt(out / "bistability.csv", delimiter=",", names=True)
        bistable = rows["branch"] == 1.0
        assert np.all(rows["stable"][bistable] == 0.0)  # middle branch

    def test_mean_field_columns(self, tmp_path):
        code, out = self.run(
            tmp_path,
            command="mean-field",
            grids={"t": {"start": 0.0, "stop": 10.0, "count": 201}},
        )
        assert code == 0
        data = np.genfromtxt(out / "mean_field.csv", delimiter=",", names=True)
        assert data.shape == (201,)
        assert data["alpha_re"][0] == 0.0
        n = data["alpha_re"] ** 2 + data["alpha_im"] ** 2
        np.testing.assert_allclose(data["N"], n, rtol=1e-12)

    def test_covariance_starts_thermal(self, tmp_path):
        code, out = self.run(
            tmp_path,
            command="covariance",
            params={
                "kappa": 0.15, "gamma": 0.005, "g0": 0.003,
                "Delta0": -1.0, "A_l": 5.0, "n_th": 10.0,
            },
            grids={"t": {"start": 0.0, "stop": 5.0, "count": 101}},
        )
        assert code == 0
        data = np.genfromtxt(out / "covariance.csv", delimiter=",", names=True)
        assert data["V_xx"][0] == 0.5 and data["V_qq"][0] == 10.5
        assert data["V_qq"][-1] < 10.5  # red detuning cools

    def test_static_potential_tables(self, tmp_path):
        code, out = self.run(
            tmp_path,
            command="static-potential",
            grids={
                "x": {"start": -2.2, "stop": 2.2, "count": 1101},
                "F0": {"start": 0.0, "stop": 1.0, "count": 3},
            },
        )
        assert code == 0
        eq = np.genfromtxt(out / "equilibria.csv", delimiter=",", names=True)
        assert np.sum(eq["F0"] == 0.0) == 1
        assert np.sum(eq["F0"] == 1.0) >= 2
        pot = np.genfromtxt(out / "potential.csv", delimiter=",", names=True)
        assert pot.shape == (1101,)

    def test_regime_interaction_code(self, tmp_path):
        code, out = self.run(
            tmp_path,
            command="regime",
            params={
                "kappa": 0.15, "gamma": 0.005, "g0": 0.003,
                "Delta0": -1.0, "A_l": 5.0,
            },
            grids={},
        )
        assert code == 0
        data = np.genfromtxt(out / "regime.csv", delimiter=",", names=True)
        assert float(data["interaction"]) == 1.0  # beam splitter at Delta ~ -omega_m
        assert float(data["gamma_om"]) > 0

    def test_hysteresis_command(self, tmp_path):
        code, out = self.run(
            tmp_path,
            command="hysteresis",
            params={"kappa": 0.15, "gamma": 0.005, "g0": 0.005, "Delta0": 0.0, "A_l": 5.0},
            grids={"Delta0": {"start": -0.35, "stop": -0.05, "count": 61}},
        )
        assert code == 0
        data = np.genfromtxt(out / "hysteresis.csv", delimiter=",", names=True)
        assert np.any(data["N_up"] != data["N_down"])

    def test_stability_map_command(self, tmp_path):
        code, out = self.run(
            tmp_path,
            command="stability-map",
            params={"kappa": 0.15, "gamma": 0.005, "g0": 0.005, "Delta0": 0.0, "A_l": 5.0},
            grids={
                "Delta0": {"start": -0.3, "stop": 0.3, "count": 5},
                "A_l": {"start": 0.5, "stop": 8.0, "count": 4},
            },
        )
        assert code == 0
        data = np.genfromtxt(out / "stability_map.csv", delimiter=",", names=True)
        assert set(np.unique(data["stable"])) == {0.0, 1.0}


class TestExitCodes:
    def test_config_error_is_1(self, tmp_path, capsys):
        assert main([str(tmp_path / "missing.json")]) == 1
        assert "config error" in capsys.readouterr().err

    def test_invalid_json_is_1(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        assert main([str(path)]) == 1

    def test_numerical_error_is_2(self, tmp_path, capsys):
        # blue-detuned run whose only branch is unstable: no linearization point
        config = write_config(
            tmp_path,
            command="covariance",
            params={"kappa": 0.15, "gamma": 0.005, "g0": 0.05, "Delta0": 1.0, "A_l": 5.0},
            grids={"t": {"start": 0.0, "stop": 5.0, "count": 101}},
            output_dir=str(tmp_path / "out"),
        )
        assert main([str(config), "--quiet"]) == 2
        assert "numerical error" in capsys.readouterr().err

    def test_step_bound_violation_is_2(self, tmp_path):
        config = write_config(
            tmp_path,
            command="mean-field",
            grids={"t": {"start": 0.0, "stop": 100.0, "count": 11}},
            output_dir=str(tmp_path / "out"),
        )
        assert main([str(config), "--quiet"]) == 2

    def test_linalg_error_is_2(self, tmp_path, capsys, monkeypatch):
        def singular(params):
            raise np.linalg.LinAlgError("Array must not contain infs or NaNs")

        monkeypatch.setattr(classical, "steady_states", singular)
        config = write_config(
            tmp_path, command="steady", grids={}, output_dir=str(tmp_path / "out")
        )
        assert main([str(config), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "numerical error" in err and "config error" not in err

    @given(
        g0=st.floats(0, 0.02),
        Delta0=st.floats(-2, 2),
        A_l=st.floats(0, 20),
        kappa=st.floats(0.01, 2),
    )
    @settings(max_examples=100, deadline=None)
    @example(g0=2.5439273303134336e-77, Delta0=0.0, A_l=18.0, kappa=1.0)
    def test_valid_steady_config_never_reports_config_error(self, g0, Delta0, A_l, kappa):
        params = {"kappa": kappa, "gamma": 0.005, "g0": g0, "Delta0": Delta0, "A_l": A_l}
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            config = write_config(
                Path(tmp), command="steady", params=params, grids={},
                output_dir=str(Path(tmp) / "out"),
            )
            with contextlib.redirect_stderr(err):
                code = main([str(config), "--quiet"])
        assert code in (0, 2)
        assert "config error" not in err.getvalue()

    def test_io_error_is_3(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        config = write_config(tmp_path, output_dir=str(blocker / "out"))
        assert main([str(config), "--quiet"]) == 3
        assert "i/o error" in capsys.readouterr().err

    def test_x_grid_without_resonance_is_1(self, tmp_path):
        config = write_config(
            tmp_path,
            command="static-potential",
            grids={
                "x": {"start": 0.05, "stop": 0.2, "count": 50},
                "F0": {"start": 0.0, "stop": 1.0, "count": 3},
            },
            output_dir=str(tmp_path / "out"),
        )
        assert main([str(config), "--quiet"]) == 1


class TestMainOptions:
    def test_output_dir_override(self, tmp_path):
        config = write_config(tmp_path, output_dir=str(tmp_path / "ignored"))
        override = tmp_path / "elsewhere"
        assert main([str(config), "--output-dir", str(override), "--quiet"]) == 0
        assert (override / "damping.csv").exists()
        assert not (tmp_path / "ignored").exists()
        # the sidecar records where the data actually went
        meta = json.loads((override / "damping.meta.json").read_text())
        assert meta["output_dir"] == str(override)

    def test_quiet_suppresses_log(self, tmp_path, capsys):
        config = write_config(tmp_path, output_dir=str(tmp_path / "out"))
        main([str(config), "--quiet"])
        assert capsys.readouterr().out == ""

    def test_default_logs_written_files(self, tmp_path, capsys):
        config = write_config(tmp_path, output_dir=str(tmp_path / "out"))
        main([str(config)])
        assert "damping.csv" in capsys.readouterr().out

    def test_determinism_byte_identical(self, tmp_path):
        config = write_config(tmp_path, output_dir=str(tmp_path / "a"))
        assert main([str(config), "--quiet"]) == 0
        assert main([str(config), "--output-dir", str(tmp_path / "b"), "--quiet"]) == 0
        a = (tmp_path / "a" / "damping.csv").read_bytes()
        b = (tmp_path / "b" / "damping.csv").read_bytes()
        assert a == b


class TestDampingSweepSemantics:
    def test_uses_linear_cavity_coupling_per_point(self, tmp_path):
        out = tmp_path / "out"
        config = write_config(tmp_path, output_dir=str(out))
        main([str(config), "--quiet"])
        data = np.genfromtxt(out / "damping.csv", delimiter=",", names=True)
        p = load_config(config).params
        for Delta, gamma_om in zip(data["Delta"], data["gamma_om"]):
            g_s = p.g0 * abs(p.A_l / (p.kappa / 2 - 1j * Delta))
            expected = classical.optomechanical_damping(g_s, Delta, p.kappa, p.omega_m)
            assert gamma_om == pytest.approx(expected, rel=1e-15, abs=1e-300)
