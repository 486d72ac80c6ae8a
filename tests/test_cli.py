import contextlib
import dataclasses
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from optomech.cli import (
    COMMANDS,
    GridSpec,
    ResultTable,
    RunSpec,
    emit_csv,
    load_config,
    main,
    run_command,
    spec_to_config,
    write_tables,
)
from optomech.errors import ConfigError
from optomech.model import SystemParams
from optomech import classical
from test_classical import (
    LINALG_ERROR_INPUT,
    VALID_PARAMS,
    assert_near_per_point,
    log_uniform,
    or_zero,
    signed_log_uniform,
)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
SRC_DIR = Path(__file__).resolve().parents[1] / "src"

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
}

COVARIANCE_PARAMS = {"kappa": 0.15, "g0": 0.003, "Delta0": -1.0, "A_l": 5.0}


@st.composite
def valid_runs(draw):
    """(command, params, grids): any command, valid params, a small grid of each kind it needs."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    grids = {}
    for name in COMMANDS[command][0]:
        if name in ("Delta0", "Delta"):
            start = draw(signed_log_uniform(1e-6, 1e50))
            stop = start + abs(start) * draw(log_uniform(1e-3, 10)) + draw(log_uniform(1e-6, 1))
        elif name == "A_l":
            start = draw(or_zero(log_uniform(1e-6, 1e60)))
            stop = start * (1 + draw(log_uniform(1e-3, 10))) + draw(log_uniform(1e-6, 1))
        elif name == "t":
            start, stop = 0.0, draw(log_uniform(1e-6, 1e3))
        elif name == "x":
            # a window of 0.1 wavelengths up to the comb's cap around a resonance
            # (one per half wavelength) up to 1e12 wavelengths from x = 0
            resonance = round(2.0 * draw(or_zero(signed_log_uniform(0.5, 1e12)))) / 2.0
            span = draw(log_uniform(0.1, (classical._MAX_COMB_RESONANCES - 23) / 2.0))
            start = resonance - span * draw(st.floats(0.0, 1.0))
            stop = start + span
        else:
            start, stop = 0.0, draw(log_uniform(1e-6, 1e6))
        grids[name] = {"start": start, "stop": stop, "count": draw(st.integers(2, 5))}
    params = draw(VALID_PARAMS)
    params["n_th"] = draw(or_zero(log_uniform(1e-3, 1e300)))
    return command, params, grids


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

    def test_grid_values(self, tmp_path):
        spec = load_config(write_config(tmp_path))
        np.testing.assert_array_equal(
            spec.grids["Delta"].values(), np.linspace(-2, 2, 11)
        )

    def test_defaults_applied(self, tmp_path):
        spec = load_config(write_config(tmp_path))
        assert spec.params.omega_m == 1.0 and spec.params.m == 1.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"command": "steady",\n  "params": }')
        with pytest.raises(ConfigError, match="line 2"):
            load_config(path)

    def test_integer_past_parser_digit_limit(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(BASE).replace('"A_l": 5.0', '"A_l": 1' + "0" * 5000))
        with pytest.raises(ConfigError, match="invalid JSON"):
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

    @pytest.mark.parametrize("command", [["steady"], {"name": "steady"}], ids=["array", "object"])
    def test_unhashable_command(self, tmp_path, command):
        path = write_config(tmp_path, command=command)
        with pytest.raises(ConfigError, match="unknown command"):
            load_config(path)

    def test_missing_required_param(self, tmp_path):
        path = write_config(tmp_path, overrides={"params.kappa": ...})
        with pytest.raises(ConfigError, match="kappa"):
            load_config(path)

    @pytest.mark.parametrize("key", ["kappa", "gamma", "g0", "Delta0", "A_l"])
    def test_every_required_param_is_required(self, tmp_path, key):
        path = write_config(tmp_path, overrides={f"params.{key}": ...})
        with pytest.raises(ConfigError, match=f"params is missing required key '{key}'"):
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
        # "seed" is no longer part of the schema: every value is an unknown key
        for value in (0, 1, -1, 0.5, "0", True, None):
            path = write_config(tmp_path, seed=value)
            with pytest.raises(ConfigError, match="unknown key 'seed' in config"):
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

    @pytest.mark.parametrize("config", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.stem)
    def test_every_sidecar_reloads_to_its_config(self, config, tmp_path):
        out = tmp_path / "out"
        assert main([str(config), "--output-dir", str(out), "--quiet"]) == 0
        sidecars = sorted(out.glob("*.meta.json"))
        assert sidecars
        spec = dataclasses.replace(load_config(config), output_dir=str(out))
        for sidecar in sidecars:
            assert load_config(sidecar) == spec, sidecar.name

    def test_sidecar_fills_in_defaults(self, tmp_path):
        config = write_config(tmp_path, output_dir=str(tmp_path / "out"))
        assert main([str(config), "--quiet"]) == 0
        sidecar = json.loads((tmp_path / "out" / "damping.meta.json").read_text())
        assert sidecar == {
            "command": "damping",
            "params": {
                "kappa": 0.1, "gamma": 0.005, "g0": 0.003, "Delta0": 0.0, "A_l": 5.0,
                "omega_m": 1.0, "n_th": 0.0, "m": 1.0,
            },
            "grids": {"Delta": {"start": -2.0, "stop": 2.0, "count": 11}},
            "output_dir": str(tmp_path / "out"),
        }

    @pytest.mark.parametrize("config", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.stem)
    def test_spec_to_config_is_asdict(self, config):
        spec = load_config(config)
        assert spec_to_config(spec) == dataclasses.asdict(spec)
        assert spec_to_config(spec)["grids"] is not spec.grids


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

    def test_edge_values_match_per_cell_format(self, tmp_path):
        # reference: one cell at a time through format(float(x), ".17g")
        values = np.array(
            [np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324, -2.2250738585072014e-308,
             1.7976931348623157e308, 1e16, 123456789.125, -1 / 3]
        )
        flags = np.arange(values.size) % 2 == 0
        table = ResultTable(name="t", columns={"v": values, "flag": flags}, metadata={})
        path = tmp_path / "t.csv"
        emit_csv(table, path)
        expected = "v,flag\n" + "".join(
            f"{format(float(v), '.17g')},{format(float(f), '.17g')}\n"
            for v, f in zip(values, flags)
        )
        assert path.read_bytes() == expected.encode()

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

    def test_every_command_has_a_golden_config(self):
        commands = {load_config(c).command for c in CONFIG_DIR.glob("*.json")}
        assert commands == set(COMMANDS)

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

    def test_steady_takes_the_point_kernel(self):
        # the steady table is steady_states' bits, in the columns and dtypes of
        # a one-point steady_state_grid, which lies within their rounding
        # bounds; at one root and at three
        spec = load_config(CONFIG_DIR / "steady.json")
        bistable = dataclasses.replace(spec.params, g0=0.005, Delta0=-0.2)
        for run in (spec, dataclasses.replace(spec, params=bistable)):
            p = run.params
            grid = classical.steady_state_grid(p, p.Delta0, p.A_l)
            assert_near_per_point(grid, [(p.Delta0, p.A_l)], p)
            columns = {
                "branch": grid.branch, "N_o": grid.N_o,
                "alpha_re": grid.alpha_s.real, "alpha_im": grid.alpha_s.imag,
                "beta_re": grid.beta_s.real, "beta_im": grid.beta_s.imag,
                "Delta_eff": grid.Delta_eff, "stable": grid.stable,
            }
            states = classical.steady_states(p)
            alpha, beta, N_o, Delta_eff, stable = (
                np.array([getattr(s, name) for s in states])
                for name in ("alpha_s", "beta_s", "N_o", "Delta_eff", "stable")
            )
            bits = {
                "branch": np.arange(len(states)), "N_o": N_o,
                "alpha_re": alpha.real, "alpha_im": alpha.imag,
                "beta_re": beta.real, "beta_im": beta.imag,
                "Delta_eff": Delta_eff, "stable": stable,
            }
            with mock.patch.object(
                classical, "steady_state_grid", side_effect=AssertionError("one-point grid")
            ):
                (table,) = run_command(run)
            assert list(table.columns) == list(columns)
            for name, column in table.columns.items():
                assert column.dtype == columns[name].dtype, name
                assert column.tobytes() == bits[name].tobytes(), name
        assert grid.counts.tolist() == [3]

    def test_steady_past_photon_number_overflow(self, tmp_path):
        # c3 = 4 C^2 overflows at g0 = 1e100, the cubic in y = C N does not
        # (test_classical checks this root against mpmath)
        params = {"kappa": 0.15, "gamma": 0.005, "g0": 1e100, "Delta0": -1.0, "A_l": 1.0}
        code, out = self.run(tmp_path, command="steady", grids={}, params=params)
        assert code == 0
        data = np.genfromtxt(out / "steady.csv", delimiter=",", names=True)
        assert float(data["N_o"]) == pytest.approx(2.9240299216074176e-134, rel=1e-15)

    def test_steady_at_zero_coupling_and_tiny_linewidth(self, tmp_path):
        # t = 4 A_l^2 C = 0 and g(bend) underflows to 0; this used to exit 2 with
        # "float division by zero"
        params = {
            "kappa": 5.464385968428583e-140, "gamma": 0.11337467146676294, "g0": 0.0,
            "Delta0": -7.17379149738589e-112, "A_l": 1.239020223194527e-33,
            "omega_m": 4.585672565513426e+33,
        }
        code, out = self.run(tmp_path, command="steady", grids={}, params=params)
        assert code == 0
        data = np.genfromtxt(out / "steady.csv", delimiter=",", names=True)
        assert float(data["N_o"]) == 2.9830414633508458e+156

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

    def test_static_potential_tables_equal_per_force_calls(self, tmp_path):
        config = write_config(
            tmp_path,
            command="static-potential",
            params={"kappa": 0.15, "gamma": 0.005, "g0": 0.003, "Delta0": 0.0, "A_l": 5.0,
                    "m": 1.7, "omega_m": 0.8},
            grids={
                "x": {"start": -2.3, "stop": 1.9, "count": 1501},
                "F0": {"start": 0.0, "stop": 1.4, "count": 6},
            },
        )
        tables = {t.name: t.columns for t in run_command(load_config(config))}
        x = np.linspace(-2.3, 1.9, 1501)
        rows = []
        for F0 in np.linspace(0.0, 1.4, 6):
            model = classical.lorentzian_comb_model(
                1.7 * 0.8 ** 2, float(F0), 1.0, 10.0, x[0], x[-1]
            )
            result = classical.static_potential(model, x)
            rows += [(F0, pos, k) for pos, k in zip(result.equilibria, result.K_eff)]
        expected = np.array(rows)
        assert expected.shape[0] > 6
        for k, name in enumerate(("F0", "x_eq", "K_eff")):
            assert tables["equilibria"][name].tobytes() == expected[:, k].tobytes()
        for name in ("x", "V_RP", "V_HO", "V_t"):  # the curves of the last force
            assert tables["potential"][name].tobytes() == getattr(result, name).tobytes()

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
    def test_usage_error_is_1(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 1
        assert capsys.readouterr().err.endswith(
            "optomech: error: the following arguments are required: config\n"
        )

    def test_non_object_grids_is_1(self, tmp_path, capsys):
        config = write_config(tmp_path, grids=[])
        assert main([str(config), "--quiet"]) == 1
        assert capsys.readouterr().err == "config error: grids must be a JSON object\n"

    def test_run_command_rejects_unknown_command(self):
        spec = RunSpec(command="nope", params=SystemParams(**BASE["params"]), output_dir="out")
        with pytest.raises(ConfigError, match="^unknown command 'nope'$"):
            run_command(spec)

    def test_integrator_sample_count_mismatch_is_2(self, tmp_path, capsys):
        # the grid's step is subnormal: the integrator's times collapse to fewer samples
        config = write_config(
            tmp_path,
            command="mean-field",
            grids={"t": {"start": 0.0, "stop": 1.5e-323, "count": 3}},
            output_dir=str(tmp_path / "out"),
        )
        assert main([str(config), "--quiet"]) == 2
        assert capsys.readouterr().err == (
            "numerical error: integrator produced 2 samples for a 3-point grid\n"
        )

    def test_config_error_is_1(self, tmp_path, capsys):
        assert main([str(tmp_path / "missing.json")]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["params.kappa", "grids.Delta.start"])
    @pytest.mark.parametrize("value", [10 ** 400, -math.inf], ids=["int", "inf"])
    def test_number_beyond_float_range_is_1(self, tmp_path, capsys, key, value):
        config = write_config(tmp_path, overrides={key: value})
        assert main([str(config), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err

    @pytest.mark.parametrize("command", [["steady"], {"name": "steady"}], ids=["array", "object"])
    def test_unhashable_command_is_1(self, tmp_path, capsys, command):
        config = write_config(tmp_path, command=command)
        assert main([str(config), "--quiet"]) == 1
        assert capsys.readouterr().err.startswith("config error: unknown command")

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
    @example(g0=0.005, Delta0=1e155, A_l=5.0, kappa=0.15)
    @example(g0=0.005, Delta0=-1.0, A_l=1e160, kappa=0.15)
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

    @given(run=valid_runs())
    @settings(max_examples=300, deadline=None)
    @example(run=("steady", {**LINALG_ERROR_INPUT, "m": 1.0, "n_th": 0.0}, {}))
    # D's thermal entries near the float maximum: V(t) stays finite
    @example(run=("covariance", {**COVARIANCE_PARAMS, "gamma": 1e5, "n_th": 1e303},
                  {"t": {"start": 0.0, "stop": 8e-6, "count": 21}}))
    # gamma (n_th + 1/2) overflows: no finite D exists
    @example(run=("covariance", {**COVARIANCE_PARAMS, "gamma": 1e150, "n_th": 1e160},
                  {"t": {"start": 0.0, "stop": 1e-151, "count": 3}}))
    def test_every_command_keeps_the_error_contract(self, run):
        # exit 0 with finite CSVs, or exit 2 with one "numerical error:" line,
        # and no warning on the way
        command, params, grids = run
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            config = write_config(
                Path(tmp), command=command, params=params, grids=grids, output_dir=str(out)
            )
            with warnings.catch_warnings(), contextlib.redirect_stderr(err):
                warnings.simplefilter("error")
                code = main([str(config), "--quiet"])
            cells = [
                float(cell)
                for path in out.glob("*.csv")
                for line in path.read_text().splitlines()[1:]
                for cell in line.split(",")
            ]
        lines = err.getvalue().splitlines()
        assert code in (0, 2)
        assert lines == [] if code == 0 else (
            len(lines) == 1 and lines[0].startswith("numerical error:")
        )
        assert all(map(math.isfinite, cells))

    def test_overflow_error_names_the_inputs(self, tmp_path, capsys):
        config = write_config(
            tmp_path, command="steady", grids={}, output_dir=str(tmp_path / "out"),
            overrides={"params.Delta0": 1e155},
        )
        assert main([str(config), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "numerical error" in err and "Delta0 = 1e+155" in err

    def test_underflowing_rates_are_2(self, tmp_path, capsys):
        # gamma^2/4 + omega_m^2 underflows to 0: C has no value
        config = write_config(
            tmp_path, command="steady", grids={}, output_dir=str(tmp_path / "out"),
            overrides={"params.gamma": 1e-200, "params.omega_m": 1e-200},
        )
        assert main([str(config), "--quiet"]) == 2
        assert capsys.readouterr().err.startswith("numerical error: steady-state cubic overflows")

    @pytest.mark.parametrize("command", ["damping", "spring"])
    def test_closed_form_overflow_is_2_without_warning(self, tmp_path, capsys, command):
        config = write_config(
            tmp_path, command=command, output_dir=str(tmp_path / "out"),
            overrides={"params.A_l": 1e160},
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([str(config), "--quiet"])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("numerical error:")
        assert all(f"{name} = " in err[0] for name in ("g_s", "Delta", "kappa", "omega_m"))
        assert not (tmp_path / "out").exists()

    def test_io_error_is_3(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        config = write_config(tmp_path, output_dir=str(blocker / "out"))
        assert main([str(config), "--quiet"]) == 3
        assert "i/o error" in capsys.readouterr().err

    @staticmethod
    def static_potential_config(tmp_path, x, F0):
        return write_config(
            tmp_path,
            command="static-potential",
            grids={
                "x": {"start": x[0], "stop": x[1], "count": 50},
                "F0": {"start": F0[0], "stop": F0[1], "count": 3},
            },
            output_dir=str(tmp_path / "out"),
        )

    def test_x_grid_without_resonance_is_1(self, tmp_path, capsys):
        config = self.static_potential_config(tmp_path, (0.05, 0.2), (0.0, 1.0))
        assert main([str(config), "--quiet"]) == 1
        assert capsys.readouterr().err.startswith("config error:")

    def test_comb_beyond_the_cap_is_1(self, tmp_path, capsys):
        # 2 x 10^5 comb resonances: a config error before any comb is built
        config = self.static_potential_config(tmp_path, (-5e4, 5e4), (0.0, 1.0))
        assert main([str(config), "--quiet"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        assert "100000 wavelengths" in err[0]
        assert not (tmp_path / "out").exists()

    def test_negative_force_grid_is_1(self, tmp_path, capsys):
        config = self.static_potential_config(tmp_path, (-2.2, 2.2), (-1.0, 1.0))
        assert main([str(config), "--quiet"]) == 1
        assert capsys.readouterr().err.startswith("config error:")

    def test_grid_too_large_for_memory_is_1(self, tmp_path, capsys, monkeypatch):
        # the handler stands in for numpy failing on a huge grid; nothing large is allocated
        def out_of_memory(spec):
            raise MemoryError

        grids, _ = COMMANDS["static-potential"]
        monkeypatch.setitem(COMMANDS, "static-potential", (grids, out_of_memory))
        config = self.static_potential_config(tmp_path, (-2.2, 2.2), (0.0, 1.0))
        assert main([str(config), "--quiet"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["config error: out of memory (grids: x with 50 points, F0 with 3 points)"]
        assert not (tmp_path / "out").exists()


def _seeded_config(command, rng):
    """A config of command with log-uniform params; A_l and F0 grids may start below 0."""
    def log(lo, hi):
        return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))

    def signed(value, negative=0.5):
        return -value if rng.random() < negative else value

    params = {
        "kappa": log(1e-6, 1e6),
        "gamma": log(1e-6, 1e6),
        "omega_m": log(1e-6, 1e6),
        "m": log(1e-6, 1e6),
        "g0": log(1e-150, 1e150),
        "Delta0": signed(log(1e-6, 1e50)),
        "A_l": log(1e-6, 1e60),
        "n_th": log(1e290, 1.7e308) if rng.random() < 0.2 else log(1e-6, 1e30),
    }
    grids = {}
    for name in COMMANDS[command][0]:
        if name in ("Delta0", "Delta", "A_l", "F0"):
            if name in ("Delta0", "Delta"):
                start = signed(log(1e-6, 1e50))
            elif name == "A_l":
                start = signed(log(1e-6, 1e60), negative=0.2)
            else:
                start = signed(log(1e-6, 1e6), negative=0.2)
            stop = start + abs(start) * log(1e-3, 10.0) + log(1e-6, 1.0)
            count = rng.randint(2, 21)
        elif name == "t":
            start, stop, count = 0.0, log(1e-6, 1e3), rng.randint(2, 201)
        else:  # x, in wavelengths
            start = rng.uniform(-1e3, 999.0)
            stop, count = min(1e3, start + log(1e-2, 2e3)), rng.randint(2, 201)
        grids[name] = {"start": start, "stop": stop, "count": count}
    return {"command": command, "params": params, "grids": grids, "output_dir": "out"}


class TestErrorContract:
    """Seeded configs end in exit 0 (no stderr), 1 (one config error line) or 2 (one numerical error line)."""

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_seeded_configs_keep_the_exit_contract(self, tmp_path, capsys, command):
        path = tmp_path / "config.json"
        for k in range(20):
            config = _seeded_config(command, random.Random(f"{command}:{k}"))
            path.write_text(json.dumps(config))
            code = main([str(path), "--output-dir", str(tmp_path / f"out{k}"), "--quiet"])
            err = capsys.readouterr().err
            expected = {0: "", 1: "config error: ", 2: "numerical error: "}
            assert code in expected, (k, code, err)
            if code == 0:
                assert err == "", (k, err)
            else:
                assert err.startswith(expected[code]) and err.count("\n") == 1, (k, err)
                assert err.endswith("\n"), (k, err)


class TestMainOptions:
    def test_python_m_runs_without_warnings(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC_DIR), env.get("PYTHONPATH")])
        )
        result = subprocess.run(
            [sys.executable, "-m", "optomech.cli", str(CONFIG_DIR / "steady.json"),
             "--output-dir", str(tmp_path / "out"), "--quiet"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert result.returncode == 0
        assert result.stderr == ""
        assert (tmp_path / "out" / "steady.csv").exists()

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
    def check_closed_form_per_point(self, tmp_path, command, column, closed_form):
        out = tmp_path / "out"
        config = write_config(tmp_path, command=command, output_dir=str(out))
        main([str(config), "--quiet"])
        data = np.genfromtxt(out / f"{command}.csv", delimiter=",", names=True)
        p = load_config(config).params
        for Delta, value in zip(data["Delta"], data[column]):
            g_s = p.g0 * abs(p.A_l / (p.kappa / 2 - 1j * Delta))
            expected = closed_form(g_s, Delta, p.kappa, p.omega_m)
            assert value == pytest.approx(expected, rel=1e-15, abs=1e-300)

    def test_uses_linear_cavity_coupling_per_point(self, tmp_path):
        self.check_closed_form_per_point(
            tmp_path, "damping", "gamma_om", classical.optomechanical_damping
        )

    def test_spring_uses_linear_cavity_coupling_per_point(self, tmp_path):
        self.check_closed_form_per_point(
            tmp_path, "spring", "delta_omega_m", classical.optical_spring_shift
        )


class TestRunAllConfigsCompare:
    @staticmethod
    def load_script():
        import importlib.util

        path = Path(__file__).resolve().parents[1] / "scripts" / "run_all_configs.py"
        spec = importlib.util.spec_from_file_location("run_all_configs", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_reports_each_file(self, tmp_path, capsys):
        ours, theirs = tmp_path / "ours", tmp_path / "theirs"
        for root in (ours, theirs):
            (root / "run").mkdir(parents=True)
            (root / "run" / "same.csv").write_text("x,y\n1,2\n")
            (root / "run" / "same.meta.json").write_text(
                json.dumps({"command": "steady", "output_dir": str(root / "run")})
            )
        (ours / "run" / "nested.meta.json").write_text(
            json.dumps({"command": "steady", "params": {"kappa": 0.15, "g0": 0.005}, "seed": 0})
        )
        (theirs / "run" / "nested.meta.json").write_text(
            json.dumps({"command": "steady", "params": {"kappa": 0.2, "g0": 0.005}})
        )
        (ours / "run" / "moved.csv").write_text("x,y\n1,2\n3,4.5\n")
        (theirs / "run" / "moved.csv").write_text("x,y\n1,2.25\n3,4\n")
        (ours / "run" / "signed.csv").write_text("x,y\n-0,1\n")
        (theirs / "run" / "signed.csv").write_text("x,y\n0,1\n")
        (ours / "run" / "only_ours.csv").write_text("x\n1\n")
        assert self.load_script().compare_roots(ours, theirs) == 4
        lines = capsys.readouterr().out.splitlines()
        assert "identical  run/same.csv" in lines
        assert "identical  run/same.meta.json" in lines
        assert (
            "DIFFERS    run/moved.csv: max abs difference 5.000e-01, relative 1.111e-01, "
            "2 of 4 cells differ as text"
            in lines
        )
        assert (
            "DIFFERS    run/signed.csv: max abs difference 0.000e+00, 1 of 2 cells differ as text"
            in lines
        )
        assert f"DIFFERS    run/only_ours.csv: missing under {theirs}" in lines
        assert "DIFFERS    run/nested.meta.json: sidecars differ at params.kappa, seed" in lines
        assert lines[-1] == "2/6 files identical"

    def test_imports_optomech_from_its_own_checkout(self, tmp_path):
        # a decoy package first on PYTHONPATH stands in for another checkout or an
        # installed copy; the script still runs the optomech beside it
        decoy = tmp_path / "decoy" / "optomech"
        decoy.mkdir(parents=True)
        (decoy / "__init__.py").write_text("")
        (decoy / "cli.py").write_text("def main(argv=None):\n    return 0\n")
        path = SRC_DIR.parent / "scripts" / "run_all_configs.py"
        code = (
            "import importlib.util, sys\n"
            f"spec = importlib.util.spec_from_file_location('run_all_configs', {str(path)!r})\n"
            "spec.loader.exec_module(importlib.util.module_from_spec(spec))\n"
            "print(sys.modules['optomech.cli'].__file__)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(decoy.parent))
        result = subprocess.run(
            [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert Path(result.stdout.strip()).resolve() == (SRC_DIR / "optomech" / "cli.py").resolve()

    def test_golden_configs_compare_identical(self, tmp_path, capsys):
        script = self.load_script()
        configs = tmp_path / "configs"
        configs.mkdir()
        (configs / "steady.json").write_text((CONFIG_DIR / "steady.json").read_text())
        first = ["--config-dir", str(configs), "--output-root", str(tmp_path / "a")]
        assert script.main(first) == 0
        second = ["--config-dir", str(configs), "--output-root", str(tmp_path / "b")]
        assert script.main(second + ["--compare", str(tmp_path / "a")]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "2/2 files identical"


class TestReadme:
    def test_quick_start_runs(self):
        # the README's one python block, with every warning an error
        readme = (CONFIG_DIR.parent / "README.md").read_text()
        (code,) = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC_DIR), env.get("PYTHONPATH")])
        )
        result = subprocess.run(
            [sys.executable, "-W", "error", "-c", code],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        branches = [line for line in result.stdout.splitlines() if line.startswith("N = ")]
        assert len(branches) == 3

    def test_names_and_commands_exist(self):
        # every backticked private name (`_name`, `module._name`, `_name(args)`)
        # is defined in optomech, and the CLI table lists COMMANDS with their grids
        import importlib

        readme = (CONFIG_DIR.parent / "README.md").read_text()
        modules = [importlib.import_module(f"optomech.{name}") for name in
                   ("model", "classical", "quantum", "stability", "rk4", "cli", "errors")]
        names = set(re.findall(r"`((?:\w+\.)*_\w+)(?:\([^`]*\))?`", readme))
        assert "classical._fixed_points" in names
        for name in names:
            *owner, attr = name.split(".")
            owners = [importlib.import_module(".".join(["optomech", *owner]))] if owner else modules
            assert any(hasattr(module, attr) for module in owners), name
        rows = re.findall(r"^\| `([\w-]+)` \| ([^|]*) \|", readme, flags=re.M)
        table = {command: tuple(re.findall(r"`(\w+)`", grids)) for command, grids in rows}
        assert table == {command: grids for command, (grids, _) in COMMANDS.items()}


class TestPytestSettings:
    def test_failing_property_prints_its_example(self, tmp_path):
        # under the project's warning filters a failing @given test reports
        # its falsifying example instead of aborting the session
        (tmp_path / "test_property.py").write_text(
            "from hypothesis import given, strategies as st\n\n\n"
            "@given(st.integers())\n"
            "def test_below_five(x):\n"
            "    assert x < 5\n"
        )
        pyproject = CONFIG_DIR.parent / "pyproject.toml"
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-c", str(pyproject),
             "--rootdir", str(tmp_path), "test_property.py"],
            capture_output=True, text=True, cwd=tmp_path, timeout=120,
        )
        output = result.stdout + result.stderr
        assert result.returncode == 1, output
        assert "Falsifying example" in output and "INTERNALERROR" not in output


class TestCoolingSummary:
    def test_default_run(self, capsys):
        import importlib.util

        path = Path(__file__).resolve().parents[1] / "scripts" / "cooling_summary.py"
        spec = importlib.util.spec_from_file_location("cooling_summary", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.main([]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()[2:]]
        assert len(rows) == 17
        unstable = [float(row[0]) for row in rows if row[3] == "unstable"]
        assert unstable and all(delta > 0 for delta in unstable)
        (v_qq,) = [float(row[3]) for row in rows if float(row[0]) == -1.0]
        assert v_qq < 10.5


class TestBenchSnapshot:
    @staticmethod
    def load_script():
        import importlib.util

        path = Path(__file__).resolve().parents[1] / "scripts" / "bench_snapshot.py"
        spec = importlib.util.spec_from_file_location("bench_snapshot", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    @staticmethod
    def record(revision, workload, seed, value, trace=0, cpu="cpu A"):
        gated = json.loads((CONFIG_DIR.parent / "BENCHMARK.json").read_text())["end_to_end"]
        return {
            "workload": workload, "seed": seed, "seconds": 35, "trace": trace,
            "environment": {"cpu": cpu, "python": "3.11", "revision": revision},
            "attempted": 10, "failed": 1 if seed == 3 else 0,
            "metrics": {m["name"]: value for m in gated},
        }

    def test_folds_runs_per_revision(self, tmp_path, capsys):
        runs = [
            self.record("aaaa1111", "cooling-scan", 1, 4.0),
            self.record("aaaa1111", "cooling-scan", 2, 1.0),
            self.record("aaaa1111", "cooling-scan", 3, 2.0),
            self.record("aaaa1111", "cooling-scan", 4, 3.0),
            self.record("aaaa1111", "cooling-scan", 5, 100.0, trace=1),
            self.record("bbbb2222", "time-trace", 1, 0.5),
        ]
        path = tmp_path / "runs.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in runs))
        out = tmp_path / "snap.json"
        args = [str(path), "--revision", "bbbb", "--revision", "aaaa", "--output", str(out)]
        assert self.load_script().main(args) == 0
        first, second = json.loads(out.read_text())["snapshots"]
        assert first["revision"] == "bbbb2222"
        assert list(first["workloads"]) == ["time-trace"]
        assert second["environment"] == {"cpu": "cpu A", "python": "3.11"}
        cooling = second["workloads"]["cooling-scan"]
        assert (cooling["runs"], cooling["seeds"], cooling["attempted"], cooling["failed"]) == (
            4, [1, 2, 3, 4], 40, 1)
        wall = cooling["metrics"]["wall_best_s"]
        assert (wall["q1"], wall["median"], wall["q3"]) == (1.25, 2.5, 3.75)
        assert wall["iqr"] == 2.5

    def test_rejects_missing_or_mixed_revisions(self, tmp_path, capsys):
        path = tmp_path / "runs.jsonl"
        runs = [self.record("aaaa", "time-trace", 1, 1.0),
                self.record("aaaa", "time-trace", 2, 1.0, cpu="cpu B")]
        path.write_text("".join(json.dumps(r) + "\n" for r in runs))
        script = self.load_script()
        out = tmp_path / "snap.json"
        assert script.main([str(path), "--revision", "cccc", "--output", str(out)]) == 2
        assert script.main([str(path), "--revision", "aaaa", "--output", str(out)]) == 2
        assert not out.exists()
        assert "2 different environments" in capsys.readouterr().err


class TestBenchOracles:
    """The CLI's tables and the scalar cooling chain against bench/oracles.py.

    The oracles rebuild every checked quantity with numpy and scipy
    references and never import optomech.
    """

    # golden configs whose commands bench/oracles.check_commands covers
    COVERED = ("stability_map", "bistability", "hysteresis", "static_potential",
               "mean_field", "covariance")

    @staticmethod
    def load_bench(monkeypatch):
        import importlib.util

        modules = {}
        for name in ("oracles", "inputs"):  # inputs imports oracles by name
            path = CONFIG_DIR.parent / "bench" / f"{name}.py"
            spec = importlib.util.spec_from_file_location(name, path)
            modules[name] = importlib.util.module_from_spec(spec)
            monkeypatch.setitem(sys.modules, name, modules[name])
            spec.loader.exec_module(modules[name])
        return modules["oracles"], modules["inputs"]

    @staticmethod
    def cooling_point(params, Delta0, A_l):
        """One cooling-scan point through the scalar library API, as the bench runs it."""
        from optomech import quantum

        params = dataclasses.replace(params, Delta0=Delta0, A_l=A_l)
        state = next(s for s in classical.steady_states(params) if s.stable)
        V = quantum.steady_covariance(
            quantum.drift_matrix(params, state), quantum.diffusion_matrix(params))
        variances = quantum.quadrature_variances(V)
        upper = [V[i, j] for i in range(4) for j in range(i, 4)]
        return [Delta0, A_l, state.N_o] + upper + [variances.var_q, quantum.physicality_min_eig(V)]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_cooling_scan_matches_the_oracle(self, tmp_path, monkeypatch, seed):
        oracles, inputs = self.load_bench(monkeypatch)
        generated = inputs.generate("cooling-scan", seed)
        config, grid = generated["configs"]["cooling"], generated["cooling_grid"]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        params = load_config(path).params
        rows = [
            self.cooling_point(params, d, a)
            for d in np.linspace(*grid["Delta0"][:2], grid["Delta0"][2]).tolist()
            for a in np.linspace(*grid["A_l"][:2], grid["A_l"][2]).tolist()
        ]
        data = np.array(rows)
        columns = {name: data[:, k] for k, name in enumerate(oracles.COOLING_COLUMNS)}
        emit_csv(ResultTable("cooling", columns), tmp_path / "cooling.csv")
        problems, failed = oracles.check_cooling(config, grid, tmp_path / "cooling.csv")
        assert problems == [] and failed == set()
        assert len(rows) == grid["Delta0"][2] * grid["A_l"][2]

    def test_golden_commands_match_the_oracles(self, tmp_path, monkeypatch):
        oracles, _ = self.load_bench(monkeypatch)
        configs = {}
        for name in self.COVERED:
            path = CONFIG_DIR / f"{name}.json"
            configs[name] = json.loads(path.read_text())
            write_tables(run_command(load_config(path)), tmp_path / name, quiet=True)
        assert oracles.check_commands(configs, tmp_path) == {name: [] for name in self.COVERED}
