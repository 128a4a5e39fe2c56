import configparser
import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jumpsde.paths
import jumpsde.solver
import oracles
from jumpsde import ModelParams
from jumpsde.cli import CONFIG_KEYS, _preset_path, load_config, main
from jumpsde.mesh import DEDUP_RTOL
from jumpsde.paths import generate_bundle
from jumpsde.reports import write_trajectory_csv


TINY_CONFIG = """
[model]
alpha_m1 = 2.0
alpha0 = 1.0
alpha1 = 1.5
alpha2 = 5.0
alpha3 = 1.0
gamma = 3.0
rho = 1.5
lambda = {lam}
x0 = 1.0
T = 1.0

[jump]
family = linear
param = -0.5

[scheme]
scheme = {scheme}

[ladder]
m_list = {m_list}
m_ref = {m_ref}

[run]
n_paths = {n_paths}
global_seed = {seed}
parallelism = 1
fast_mode = false

[output]
directory = out
formats = csv, json
"""


def _write_config(tmp_path, name="tiny.cfg", lam=1.0, scheme="tjabem",
                  m_list="8, 16", m_ref=128, n_paths=30, seed=11):
    path = tmp_path / name
    path.write_text(
        TINY_CONFIG.format(
            lam=lam, scheme=scheme, m_list=m_list, m_ref=m_ref,
            n_paths=n_paths, seed=seed,
        )
    )
    return path


def test_load_preset_files():
    for name in ("set1", "set2"):
        config = load_config(_preset_path(name))
        assert config.params.rho == 1.5
        assert config.m_ref == 4096
        assert config.m_list == (32, 64, 128, 256, 512)
        assert config.jump.label == "linear:-0.5"
    assert load_config(_preset_path("set1")).params.gamma == 3.0
    assert load_config(_preset_path("set2")).params.gamma == 3.5


def test_validate_preset_passes(capsys):
    assert main(["validate", "--preset", "set1"]) == 0
    out = capsys.readouterr().out
    assert "regime: supercritical" in out
    assert "Q: 0.0" in out
    assert "all gates passed" in out


def test_validate_rejects_invalid_regime(tmp_path, capsys):
    path = _write_config(tmp_path)
    text = path.read_text().replace("gamma = 3.0", "gamma = 1.8")
    path.write_text(text)
    assert main(["validate", "--config", str(path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL parameter gate" in out
    assert "Invalid regime" in out


def test_validate_rejects_bad_jump(capsys):
    assert main(["validate", "--preset", "set1", "--h", "linear:-1.5"]) == 1
    out = capsys.readouterr().out
    assert "FAIL jump gate" in out


def test_validate_fails_a_ladder_on_a_degenerate_band(capsys):
    # the preset has a ladder, which convergence refuses with this message
    argv = ["--preset", "set1", "--h", "sine:1", "--fast"]
    assert main(["convergence", *argv]) == 1
    message = capsys.readouterr().err.removeprefix("validation failure: ").strip()
    assert "bounded away from zero" in message
    assert main(["validate", *argv]) == 1
    out = capsys.readouterr().out
    assert f"FAIL band gate: {message}\n" in out
    assert "all gates passed" not in out


def test_validate_warns_on_degenerate_band(tmp_path, capsys):
    # a config without a ladder only warns
    path = tmp_path / "no_ladder.cfg"
    path.write_text(
        _write_config(tmp_path).read_text().replace("m_ref = 128\n", "")
    )
    assert main(["validate", "--config", str(path), "--h", "sine:1"]) == 0
    out = capsys.readouterr().out
    assert "warning: transform band" in out
    assert "all gates passed" in out


def test_simulate_zero_intensity_has_no_jumps(tmp_path, capsys):
    config = _write_config(tmp_path, lam=0.0)
    out_dir = tmp_path / "run"
    assert main(["simulate", "--config", str(config), "--out", str(out_dir)]) == 0
    rows = list(csv.DictReader(open(out_dir / "trajectory.csv")))
    assert len(rows) == 8 + 1  # uniform grid at m_list[0] = 8
    assert all(row["is_jump"] == "0" for row in rows)
    assert all(float(row["x"]) > 0.0 for row in rows)


def test_simulate_is_deterministic(tmp_path):
    config = _write_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(config), "--out", str(out_a)]) == 0
    assert main(["simulate", "--config", str(config), "--out", str(out_b)]) == 0
    assert (out_a / "trajectory.csv").read_bytes() == (out_b / "trajectory.csv").read_bytes()


def test_simulate_row_count_matches_node_rule(tmp_path, capsys):
    out_dir = tmp_path / "sim"
    assert main(
        ["simulate", "--preset", "set1", "--seed", "42", "--out", str(out_dir)]
    ) == 0
    config = load_config(_preset_path("set1"))
    bundle = generate_bundle(config.params, 32, 42, 0)
    rows = list(csv.DictReader(open(out_dir / "trajectory.csv")))
    assert len(rows) == 32 + bundle.jump_times.size + 1


def test_simulate_mesh_only(tmp_path):
    config = _write_config(tmp_path)
    out_dir = tmp_path / "mesh"
    assert main(
        ["simulate", "--config", str(config), "--out", str(out_dir), "--mesh-only"]
    ) == 0
    rows = list(csv.DictReader(open(out_dir / "mesh.csv")))
    assert set(rows[0].keys()) == {"t", "is_jump"}


def test_convergence_writes_reports(tmp_path, capsys):
    config = _write_config(tmp_path, n_paths=30)
    out_dir = tmp_path / "conv"
    assert main(["convergence", "--config", str(config), "--out", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "tjabem: slope=" in out
    payload = json.loads((out_dir / "convergence.json").read_text())
    assert payload["config"]["global_seed"] == 11
    assert payload["config"]["model"]["gamma"] == 3.0
    assert "parallelism" not in payload["config"]
    assert "tjabem" in payload["schemes"]
    rows = list(csv.DictReader(open(out_dir / "convergence.csv")))
    assert len(rows) == 2
    plot_rows = list(csv.DictReader(open(out_dir / "plotdata_tjabem.csv")))
    assert set(plot_rows[0].keys()) == {"log2_dt", "log2_error", "log2_ref"}
    # reference line is anchored at the coarsest point with slope one
    first = plot_rows[0]
    assert float(first["log2_ref"]) == pytest.approx(float(first["log2_error"]))


def test_convergence_both_schemes(tmp_path, capsys):
    config = _write_config(tmp_path, scheme="both", n_paths=20, m_ref=64)
    out_dir = tmp_path / "both"
    assert main(["convergence", "--config", str(config), "--out", str(out_dir)]) == 0
    payload = json.loads((out_dir / "convergence.json").read_text())
    assert set(payload["schemes"]) == {"tjabem", "bem"}
    assert (out_dir / "plotdata_bem.csv").exists()


def test_env_seed_overrides_config(tmp_path, monkeypatch):
    config = _write_config(tmp_path, n_paths=10, m_ref=64)
    out_dir = tmp_path / "env"
    monkeypatch.setenv("JUMPSDE_SEED", "777")
    assert main(["convergence", "--config", str(config), "--out", str(out_dir)]) == 0
    payload = json.loads((out_dir / "convergence.json").read_text())
    assert payload["config"]["global_seed"] == 777


def test_positivity_cli(tmp_path, capsys):
    config_a = _write_config(tmp_path, name="a.cfg", m_list="4, 8, 16", n_paths=10)
    config_b = _write_config(tmp_path, name="b.cfg", m_list="4, 8, 16", n_paths=10)
    out_dir = tmp_path / "pos"
    assert main(
        [
            "positivity",
            "--presets", f"{config_a},{config_b}",
            "--out", str(out_dir),
        ]
    ) == 0
    rows = list(csv.DictReader(open(out_dir / "positivity.csv")))
    # 2 sets x 3 jump families x 3 step sizes
    assert len(rows) == 18
    assert all(row["percent"] == "0.0" for row in rows)
    assert {row["h_family"] for row in rows} == {"linear:-0.5", "linear:0.5", "sine:1"}


def test_moments_cli(tmp_path, capsys):
    config = _write_config(tmp_path, n_paths=20)
    out_dir = tmp_path / "mom"
    assert main(
        [
            "moments",
            "--config", str(config),
            "--out", str(out_dir),
            "--p-list", "0,2",
        ]
    ) == 0
    rows = list(csv.DictReader(open(out_dir / "moments.csv")))
    assert len(rows) == 2
    assert float(rows[0]["sup_moment"]) == 1.0


def test_fast_flag_halves_ladder(tmp_path):
    config = _write_config(tmp_path, m_list="8, 16, 32, 64", m_ref=128)
    from jumpsde.cli import _resolve
    import argparse

    args = argparse.Namespace(
        config=str(config), preset=None, h=None, lam=None, scheme=None,
        seed=None, out=None, fast=True,
    )
    resolved = _resolve(args)
    assert resolved.m_list == (8, 16)
    assert resolved.n_paths == 1000


def test_unknown_preset_fails(capsys):
    assert main(["validate", "--preset", "set9"]) == 1


def test_an_empty_preset_list_exits_1(tmp_path, capsys):
    assert main(["positivity", "--presets", ",", "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "validation failure: --presets ',' names no preset or config file\n")
    assert not (tmp_path / "out").exists()


def test_a_configs_fast_mode_runs_as_the_fast_flag(tmp_path):
    # the config's fast_mode and --fast make one run, applied once when both ask
    path = _write_config(tmp_path, m_list="8, 16, 32, 64")
    fast = _edit_config(_write_config(tmp_path, name="fast.cfg", m_list="8, 16, 32, 64"),
                        fast_mode="true")
    runs = [[str(path), "--fast"], [str(fast)], [str(fast), "--fast"]]
    reports = []
    for k, (config, *flags) in enumerate(runs):
        out_dir = tmp_path / f"out{k}"
        assert main(["moments", "--config", config, *flags, "--out", str(out_dir)]) == 0
        reports.append([(out_dir / f).read_bytes() for f in ("moments.csv", "moments.json")])
    assert reports[0] == reports[1] == reports[2]
    config = json.loads(reports[0][1])["config"]
    assert (config["n_paths"], config["ladder"]["m_list"]) == (1000, [8, 16])


@pytest.mark.parametrize(
    "spec", ["linear:nan", "sine:nan", "linear:inf", "rational:-inf", "zero:nan"]
)
def test_validate_rejects_non_finite_jump_coefficient(spec, capsys):
    assert main(["validate", "--preset", "set1", "--h", spec]) == 1
    captured = capsys.readouterr()
    assert "all gates passed" not in captured.out
    assert "must be finite" in captured.err


@pytest.mark.parametrize("key", ["alpha2", "gamma", "x0", "lambda"])
@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_non_finite_parameter_exits_1(tmp_path, capsys, key, command):
    path = _write_config(tmp_path)
    lines = path.read_text().splitlines()
    lines = [f"{key} = inf" if line.startswith(f"{key} =") else line for line in lines]
    path.write_text("\n".join(lines) + "\n")
    inputs = [["--config", str(path)]]
    if key == "lambda":
        # the flag's value meets the same gate, which names the flag's key
        inputs.append(["--preset", "set1", "--lambda", "nan"])
    for flags in inputs:
        assert main([command, *flags, "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert "all gates passed" not in captured.out
        assert f"{key} must be finite" in captured.out + captured.err


def _edit_config(path, **values):
    """path with each key's line set to its value, or dropped for None."""
    lines = path.read_text().splitlines()
    for key, value in values.items():
        lines = [f"{key} = {value}" if line.startswith(f"{key} =") else line
                 for line in lines]
    lines = [line for line in lines if not line.endswith(" = None")]
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("command", ["validate", "positivity", "moments"])
def test_empty_run_exits_1(tmp_path, capsys, command):
    path = _write_config(tmp_path, n_paths=0)
    flag = "--presets" if command == "positivity" else "--config"
    assert main([command, flag, str(path), "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert "all gates passed" not in captured.out
    assert "n_paths must be at least 1" in captured.err


@pytest.mark.parametrize("value", ["0", "-2"])
def test_validate_rejects_parallelism_below_one(tmp_path, capsys, value):
    path = _edit_config(_write_config(tmp_path), parallelism=value)
    assert main(["validate", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert "all gates passed" not in captured.out
    assert "parallelism must be at least 1" in captured.err


def test_malformed_jump_flag_exits_1(capsys):
    assert main(["validate", "--preset", "set1", "--h", "linear:abc"]) == 1
    assert "validation failure: malformed --h 'linear:abc'" in capsys.readouterr().err


def test_malformed_env_seed_exits_1(monkeypatch, capsys):
    monkeypatch.setenv("JUMPSDE_SEED", "x")
    assert main(["validate", "--preset", "set1"]) == 1
    assert "validation failure: JUMPSDE_SEED must be an integer" in capsys.readouterr().err


def test_malformed_p_list_exits_1(tmp_path, capsys):
    path = _write_config(tmp_path, n_paths=4)
    argv = ["moments", "--config", str(path), "--out", str(tmp_path / "out"),
            "--p-list", "2,x"]
    assert main(argv) == 1
    assert "validation failure: malformed --p-list '2,x'" in capsys.readouterr().err


def test_positivity_with_indivisible_horizon_exits_1(tmp_path, capsys):
    path = _edit_config(_write_config(tmp_path, name="short.cfg"), T="0.7")
    argv = ["positivity", "--presets", f"set1,{path}", "--fast",
            "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    assert "does not divide the horizon T = 0.7" in capsys.readouterr().err


@pytest.mark.parametrize(
    "values, message",
    [
        ({"n_paths": "1"}, "n_paths must be at least 2"),
        ({"scheme": "euler"}, "unknown scheme 'euler'"),
        ({"m_list": "64, 32"}, "m_list must be strictly increasing"),
    ],
    ids=["n_paths=1", "scheme=euler", "m_list=64,32"],
)
def test_bad_ladder_input_exits_1(tmp_path, capsys, values, message):
    path = _edit_config(_write_config(tmp_path), **values)
    assert main(["convergence", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 1
    assert f"validation failure: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "m_list, m_ref",
    [("32, 64", 100), ("64, 32", 128), ("32", 128), ("16, 32, 64", 64)],
    ids=["m_ref=100", "m_list=64,32", "one entry", "entry=m_ref"],
)
def test_validate_runs_the_ladder_checks(tmp_path, capsys, m_list, m_ref):
    # validate fails exactly where convergence would, with the same message
    path = _write_config(tmp_path, m_list=m_list, m_ref=m_ref)
    assert main(["convergence", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation failure: ")
    message = err.removeprefix("validation failure: ").strip()
    assert main(["validate", "--config", str(path)]) == 1
    out = capsys.readouterr().out
    assert f"FAIL ladder gate: {message}\n" in out
    assert "all gates passed" not in out


def test_validate_runs_the_bem_step_size_gate(tmp_path, capsys):
    # alpha1 = 40 leaves the transformed drift's Q at 0 but gives the
    # original drift a one-sided bound of 29.05, which bem steps with
    path = _edit_config(_write_config(tmp_path, scheme="both"), alpha1="40")
    assert main(["convergence", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 1
    message = "bem at M = 8: step-size guard violated: Q*dt = 3.63"
    assert capsys.readouterr().err.startswith(f"validation failure: {message}")
    assert not (tmp_path / "out").exists()
    assert main(["validate", "--config", str(path)]) == 1
    out = capsys.readouterr().out
    assert f"FAIL step-size gate: {message}" in out
    assert "all gates passed" not in out
    assert main(["validate", "--config", str(path), "--scheme", "tjabem"]) == 0


# a config that fails one check each experiment makes before any path, the
# edits to the tiny config that make it, and the commands that run the check
GATES = {
    "tjabem_step": ({"alpha0": "50"}, ["simulate", "moments", "positivity", "convergence"]),
    "bem_step": ({"alpha1": "40", "scheme": "both"}, ["convergence"]),
    "initial_state": ({"rho": "3", "gamma": "6", "x0": "1e300"},
                      ["simulate", "moments", "positivity", "convergence"]),
    "scheme": ({"scheme": "euler"}, ["convergence"]),
    "one_path": ({"n_paths": "1"}, ["convergence", "moments"]),
    # without m_ref there is no ladder gate, and the moment probe's refuses
    "one_path_without_a_ladder": ({"n_paths": "1", "m_ref": None}, ["moments"]),
}


@pytest.mark.parametrize("gate", sorted(GATES))
def test_each_gate_fails_validate_and_its_commands_before_any_path(tmp_path, capsys, gate):
    # validate fails the gate with the message each command that runs it
    # exits 1 with, before it makes its output directory; the table names
    # the first cell of its report
    values, commands = GATES[gate]
    path = _edit_config(_write_config(tmp_path), **values)
    assert main(["validate", "--config", str(path)]) == 1
    out = capsys.readouterr().out
    assert "all gates passed" not in out
    (failure,) = [line for line in out.splitlines() if line.startswith("FAIL ")]
    message = failure.split(" gate: ", 1)[1]
    for command in commands:
        flag = "--presets" if command == "positivity" else "--config"
        out_dir = tmp_path / command
        assert main([command, flag, str(path), "--out", str(out_dir)]) == 1
        cell = "in cell (set=tiny, jump=linear:-0.5, dt=0.125): " if command == "positivity" else ""
        assert capsys.readouterr().err == f"validation failure: {cell}{message}\n"
        assert not out_dir.exists()


def test_zero_mean_error_exits_2(tmp_path, capsys):
    # on a horizon of 1e-30 no step moves a state by a rounding unit, so
    # every level stays on the reference: no order fit
    path = _edit_config(
        _write_config(tmp_path, lam=0.0, m_list="2, 4", m_ref=32, n_paths=4), T="1e-30"
    )
    assert main(["validate", "--config", str(path)]) == 0
    assert main(["convergence", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime failure: scheme tjabem: no order fit to mean "
                          "errors [0.0, 0.0]: all errors must be strictly positive")


@pytest.mark.parametrize("command", ["validate", "simulate", "positivity"])
def test_rho_one_ulp_above_1_exits_1(tmp_path, capsys, command):
    # z = x^(1-rho) would resolve x only to a relative ulp / (rho - 1) = 1
    path = _edit_config(_write_config(tmp_path), rho=repr(1.0 + 2.0**-52),
                        gamma="2.0000000000000004")
    flag = "--presets" if command == "positivity" else "--config"
    assert main([command, flag, str(path), "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert "all gates passed" not in captured.out
    assert "rho - 1 = 2.22e-16 is below 1.49e-08" in captured.err + captured.out
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "simulate", "positivity"])
def test_a_huge_jump_intensity_exits_1_at_once(tmp_path, command):
    # at lambda = 1e308 sample_jump_times' t stops moving near 1e-292 while
    # its list of times grows, so a run past validation would not end: each
    # command runs in a process of its own, under a timeout
    path = _write_config(tmp_path)
    flag = "--presets" if command == "positivity" else "--config"
    src = str(Path(jumpsde.paths.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-m", "jumpsde.cli", command, flag, str(path), "--lambda", "1e308",
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=60, env=env)
    assert result.returncode == 1
    assert "all gates passed" not in result.stdout
    assert "lambda * T = 1e+308 expected jumps per path is above 1e+05" in (
        result.stdout + result.stderr)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("order", ["nan", "inf", "-inf"])
def test_a_non_finite_moment_order_exits_1(tmp_path, capsys, order):
    argv = ["moments", "--preset", "set1", "--fast", "--p-list", f"2,{order}",
            "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    assert (f"validation failure: moment order p must be finite, got {float(order)}"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_convergence_without_m_ref_exits_1(tmp_path, capsys):
    path = _write_config(tmp_path)
    path.write_text(path.read_text().replace("m_ref = 128\n", ""))
    assert main(["convergence", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 1
    assert "validation failure: convergence needs m_ref" in capsys.readouterr().err


def test_single_path_moments_exit_1(tmp_path, capsys):
    path = _write_config(tmp_path, n_paths=1)
    argv = ["moments", "--config", str(path), "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "validation failure: n_paths must be at least 2" in captured.err
    assert "se nan" not in captured.out


def test_simulate_warns_once_of_a_poorly_conditioned_step(tmp_path):
    # alpha0 = 20 gives set1 Q*dt = 0.3383 on 128 steps: well posed, but
    # above 0.25, and the one check before the path says so once
    path = _edit_config(_write_config(tmp_path, m_list="128, 256"), alpha0="20")
    src = str(Path(jumpsde.paths.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-m", "jumpsde.cli", "simulate", "--config", str(path),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=60, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stderr.count("Q*dt = 0.3383 above 0.25") == 1


@pytest.mark.parametrize(
    "command, values, message",
    [
        ("validate", {"m_list": ""}, "m_list must be one or more step counts"),
        ("validate", {"m_list": "0, 32"}, "m_list must be one or more step counts"),
        ("validate", {"m_list": "-32, 64"}, "m_list must be one or more step counts"),
        ("validate", {"m_ref": "0"}, "m_ref must be at least 1"),
        ("moments", {"m_list": "0, 32"}, "m_list must be one or more step counts"),
        ("positivity", {"m_list": ""}, "m_list must be one or more step counts"),
        ("validate", {"formats": "csv"}, "formats must be 'csv, json'"),
    ],
    ids=[
        "validate-empty-m_list", "validate-zero-m", "validate-negative-m",
        "validate-zero-m_ref", "moments-zero-m", "positivity-empty-m_list",
        "validate-formats=csv",
    ],
)
def test_bad_config_exits_1(tmp_path, capsys, command, values, message):
    path = _edit_config(_write_config(tmp_path), **values)
    target = f"set1,{path}" if command == "positivity" else str(path)
    flag = "--presets" if command == "positivity" else "--config"
    assert main([command, flag, target, "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert f"validation failure: {message}" in captured.err
    assert "all gates passed" not in captured.out
    assert not (tmp_path / "out").exists()


def test_negative_path_index_exits_1(tmp_path, capsys):
    argv = ["simulate", "--preset", "set1", "--path-index", "-1",
            "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    assert "validation failure: --path-index must be at least 0" in (
        capsys.readouterr().err
    )


def test_negative_config_seed_exits_1(tmp_path, capsys):
    path = _write_config(tmp_path, seed=-1)
    assert main(["validate", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert "all gates passed" not in captured.out
    assert "validation failure: global_seed must be at least 0" in captured.err


@pytest.mark.parametrize("command", ["validate", "simulate", "positivity"])
def test_negative_seed_flag_exits_1(tmp_path, capsys, command):
    flag = "--presets" if command == "positivity" else "--preset"
    argv = [command, flag, "set1", "--seed", "-1", "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "all gates passed" not in captured.out
    assert "validation failure: --seed must be at least 0, got -1" in captured.err
    assert not (tmp_path / "out").exists()


def test_negative_env_seed_exits_1(monkeypatch, capsys):
    monkeypatch.setenv("JUMPSDE_SEED", "-1")
    assert main(["validate", "--preset", "set1"]) == 1
    captured = capsys.readouterr()
    assert "all gates passed" not in captured.out
    assert "validation failure: JUMPSDE_SEED must be at least 0, got -1" in captured.err


@pytest.mark.parametrize("flags", [["--seed", str(2**64 + 5)],
                                   ["--path-index", "5000000000"]])
def test_seeds_and_indices_beyond_32_bits_simulate_numpys_streams(tmp_path, flags):
    # the stream keys of a seed or an index of two or three 32-bit words
    # are numpy's, so the trajectory is the one numpy's streams give
    out = tmp_path / "out"
    assert main(["simulate", "--preset", "set1", "--lambda", "5", *flags,
                 "--out", str(out)]) == 0
    seed = int(flags[1]) if flags[0] == "--seed" else 12345
    index = int(flags[1]) if flags[0] == "--path-index" else 0
    config = load_config(_preset_path("set1"))
    params = replace(config.params, lam=5.0)
    bundle = oracles.generate_bundle(params, 32, seed, index)
    assert bundle.jump_times.size
    trajectory, _ = jumpsde.solver.tjabem_path(params, config.jump, bundle.fine_mesh,
                                               bundle.dw_fine)
    expected = tmp_path / "expected.csv"
    write_trajectory_csv(params, trajectory, expected)
    assert (out / "trajectory.csv").read_bytes() == expected.read_bytes()


def test_empty_p_list_exits_1(tmp_path, capsys):
    argv = ["moments", "--preset", "set1", "--fast", "--p-list", ",",
            "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    assert "validation failure: p_list needs at least one moment order" in (
        capsys.readouterr().err
    )
    assert not (tmp_path / "out").exists()


def test_simulate_path_failure_exits_2(tmp_path, capsys):
    # a jump of size 1e300*x: x + h(x) overflows the transform back to z.
    # Its band touches zero, so the config has no ladder for validate to fail.
    path = _edit_config(_write_config(tmp_path), rho="3.0", gamma="6.0")
    path.write_text(path.read_text().replace("m_ref = 128\n", ""))
    flags = ["--config", str(path), "--h", "linear:1e300", "--lambda", "5"]
    assert main(["validate", *flags]) == 0
    assert "all gates passed" in capsys.readouterr().out
    assert main(["simulate", *flags, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime failure: path failed: forward transform")
    assert "(replay with global_seed=11, path_index=0)" in err
    assert err.count("global_seed=") == 1


@pytest.mark.parametrize("command", ["convergence", "positivity", "moments", "simulate"])
def test_a_jump_within_the_tolerance_of_zero_fails_its_path(tmp_path, capsys,
                                                            monkeypatch, command):
    # path 3's first jump time lies within DEDUP_RTOL * T of 0, which the
    # jump placement rejects; every other path samples its own times
    sample = jumpsde.paths.sample_jump_times
    staged = oracles.path_streams(11, 3)[0].bit_generator.state["state"]["key"]

    def sample_jump_times(lam, T, rng):
        if np.array_equal(rng.bit_generator.state["state"]["key"], staged):
            return np.array([0.5 * DEDUP_RTOL * T, 0.4 * T])
        return sample(lam, T, rng)

    monkeypatch.setattr(jumpsde.paths, "sample_jump_times", sample_jump_times)
    path = _write_config(tmp_path, m_list="8, 16", m_ref=64, n_paths=6)
    flag = "--presets" if command == "positivity" else "--config"
    argv = [command, flag, str(path), "--out", str(tmp_path / "out")]
    if command == "simulate":
        argv += ["--path-index", "3"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime failure: path failed: jump time outside (0, T): first=5e-13")
    assert "(replay with global_seed=11, path_index=3)" in err


def test_validate_survives_an_epsilon_interval_rounded_to_empty(tmp_path, capsys):
    # gamma = 7 + ulp is supercritical, but gamma + 1 - 2*rho rounds to 0
    path = _edit_config(_write_config(tmp_path), rho="4.0", gamma="7.000000000000001")
    assert main(["validate", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "regime: supercritical" in out
    assert "small-step diagnostics" not in out
    assert "all gates passed" in out


MODEL_KEYS = ("alpha_m1", "alpha0", "alpha1", "alpha2", "alpha3", "gamma", "rho",
              "lambda", "x0", "T")
# positive constants spread over several decades
DECADES = st.floats(-3.0, 3.0).map(lambda u: 10.0**u)
JUMP_COEFFICIENTS = st.one_of(
    st.floats(-1.0, 1.0),
    st.floats(-1e300, 1e300),
    st.floats(-3.0, 300.0).map(lambda u: 10.0**u),
    st.floats(-3.0, 300.0).map(lambda u: -(10.0**u)),
)


def test_a_400_path_ladder_writes_the_same_bytes_at_any_parallelism(tmp_path):
    # inline and at parallelism 2 the levels group holds 3 * 400 = 1,200
    # lanes; at 4 each of its two path chunks holds 600. The reports at
    # parallelism 1, 2 and 4 must not tell them apart
    reports = []
    for parallelism in (1, 2, 4):
        path = _edit_config(
            _write_config(tmp_path, name=f"wide{parallelism}.cfg", scheme="both",
                          m_list="8, 16, 32", m_ref=64, n_paths=400),
            parallelism=parallelism)
        out = tmp_path / f"out{parallelism}"
        assert _run_quietly(["convergence", "--config", str(path), "--out", str(out)]) == 0
        reports.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    assert sorted(reports[0]) == ["convergence.csv", "convergence.json",
                                  "plotdata_bem.csv", "plotdata_tjabem.csv"]
    assert reports[0] == reports[1] == reports[2]


def test_a_post_jump_state_72_decades_below_the_root_simulates(tmp_path):
    # a rational jump with c = 9.3e72 leaves z = 1.3e-73 where the next
    # step's root lies in (0.1, 1): G(z) = z - dt*F(z) behaves like -c*z^-k
    # there, so Newton creeps up by a constant factor per iteration, and the
    # bracketed solver must bisect in log space to cross the decades within
    # MAX_ITER iterations
    values = dict(alpha_m1=0.001, alpha0=0.01, alpha1=1.0, alpha2=0.01, alpha3=1.0,
                  gamma=3.00006103515625, rho=2.0, x0=9.99976974414163, T=1.0,
                  family="rational", param=9.277233155326697e+72, m_list="1, 30",
                  global_seed=1304)
    values["lambda"] = 17.27369731170755
    path = tmp_path / "extreme.cfg"
    path.write_text(_config_text({key: repr(v) if isinstance(v, float) else v
                                  for key, v in values.items()}))
    assert _run_quietly(["validate", "--config", str(path)]) == 0
    argv = ["simulate", "--config", str(path), "--path-index", "384",
            "--out", str(tmp_path / "out")]
    assert _run_quietly(argv) == 0
    assert (tmp_path / "out" / "trajectory.csv").stat().st_size > 0


@st.composite
def finite_configs(draw):
    """Finite config-file values with gamma above 2*rho - 1 and M <= 32."""
    rho = draw(st.floats(1.0, 4.0, exclude_min=True))
    values = {key: draw(DECADES) for key in ("alpha_m1", "alpha0", "alpha1",
                                             "alpha2", "alpha3", "x0")}
    values.update(
        rho=rho,
        gamma=2.0 * rho - 1.0 + draw(st.floats(0.0, 10.0, exclude_min=True)),
        T=draw(st.floats(-2.0, 1.0).map(lambda u: 10.0**u)),
        family=draw(st.sampled_from(["linear", "sine", "rational", "zero"])),
        param=draw(JUMP_COEFFICIENTS),
        m_list=", ".join(
            str(m) for m in draw(st.lists(st.integers(1, 32), min_size=1, max_size=3))
        ),
        global_seed=draw(st.integers(0, 2**32 - 1)),
    )
    values["lambda"] = draw(st.floats(0.0, 20.0))
    return {key: repr(v) if isinstance(v, float) else v for key, v in values.items()}


def _config_text(values):
    model = "\n".join(f"{key} = {values[key]}" for key in MODEL_KEYS)
    m_ref = f"m_ref = {values['m_ref']}\n" if "m_ref" in values else ""
    return (
        f"[model]\n{model}\n\n"
        f"[jump]\nfamily = {values['family']}\nparam = {values['param']}\n\n"
        f"[scheme]\nscheme = {values.get('scheme', 'tjabem')}\n\n"
        f"[ladder]\nm_list = {values['m_list']}\n{m_ref}\n"
        f"[run]\nn_paths = 2\nglobal_seed = {values['global_seed']}\n"
    )


def _run_quietly(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(values=finite_configs(), path_index=st.integers(0, 1000))
def test_validated_configs_simulate_or_exit_2(values, path_index):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "drawn.cfg"
        path.write_text(_config_text(values))
        gate = _run_quietly(["validate", "--config", str(path)])
        assert gate in (0, 1)
        if gate == 0:
            argv = ["simulate", "--config", str(path), "--out", str(Path(tmp) / "out"),
                    "--path-index", str(path_index)]
            assert _run_quietly(argv) in (0, 2)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(
    values=finite_configs(),
    m_ref=st.sampled_from([32, 64]),
    ladder=st.lists(st.sampled_from([2, 4, 8, 16, 32]), min_size=2, unique=True),
)
def test_validated_configs_converge_or_exit_cleanly(values, m_ref, ladder):
    # validate runs every check that convergence runs before its paths
    values = {**values, "scheme": "both", "m_ref": m_ref,
              "m_list": ", ".join(str(m) for m in sorted(ladder))}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "drawn.cfg"
        path.write_text(_config_text(values))
        if _run_quietly(["validate", "--config", str(path)]) == 0:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                status = main(["convergence", "--config", str(path),
                               "--out", str(Path(tmp) / "out")])
            assert status in (0, 2)


def test_moments_default_orders_stay_below_the_critical_cap(tmp_path, capsys):
    # gamma = 2*rho - 1 is critical, with moment cap 1 - 1.25 + 1.5 = 1.25:
    # the default orders 1, -1 and -2 run, and an asked-for p = 2 exits 1
    path = _edit_config(_write_config(tmp_path, lam=0.0, n_paths=4), rho="1.25",
                        gamma="1.5", alpha2="1.0")
    assert main(["validate", "--config", str(path)]) == 0
    assert "critical moment cap: 1.25" in capsys.readouterr().out
    out_dir = tmp_path / "out"
    assert main(["moments", "--config", str(path), "--out", str(out_dir)]) == 0
    lines = (out_dir / "moments.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["1.0", "-1.0", "-2.0"]
    argv = ["moments", "--config", str(path), "--p-list", "2", "--out", str(out_dir)]
    assert main(argv) == 1
    assert "not admissible in the critical regime" in capsys.readouterr().err


@settings(max_examples=500, deadline=None, derandomize=True)
@given(values=finite_configs())
def test_validated_configs_moment_or_exit_cleanly(values):
    # moments runs 2 paths at M = m_list[0] with the default orders
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "drawn.cfg"
        path.write_text(_config_text(values))
        if _run_quietly(["validate", "--config", str(path)]) == 0:
            argv = ["moments", "--config", str(path), "--out", str(Path(tmp) / "out")]
            assert _run_quietly(argv) in (0, 2)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(values=finite_configs())
def test_validated_configs_tabulate_or_exit_2(values):
    # the table runs its default jumps unless --h names one; naming the
    # config's own, which validate checked, covers every cell of the table
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "drawn.cfg"
        path.write_text(_config_text(values))
        if _run_quietly(["validate", "--config", str(path)]) == 0:
            argv = ["positivity", "--presets", str(path),
                    "--h", f"{values['family']}:{values['param']}",
                    "--out", str(Path(tmp) / "out")]
            assert _run_quietly(argv) in (0, 2)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    values=finite_configs(),
    key=st.sampled_from(MODEL_KEYS + ("param",)),
    bad=st.sampled_from(["nan", "inf", "-inf", "1e999", "abc", ""]),
    command=st.sampled_from(["validate", "simulate"]),
)
def test_non_finite_or_malformed_values_exit_1(values, key, bad, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "drawn.cfg"
        path.write_text(_config_text({**values, key: bad}))
        argv = [command, "--config", str(path), "--out", str(Path(tmp) / "out")]
        assert _run_quietly(argv) == 1


@pytest.mark.parametrize("key", MODEL_KEYS)
def test_a_missing_model_key_exits_1_from_every_command(tmp_path, capsys, key):
    path = _write_config(tmp_path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(line for line in lines if not line.startswith(f"{key} =")) + "\n")
    assert f"\n{key} =" not in path.read_text()
    for command in ("validate", "simulate", "moments", "convergence", "positivity"):
        flag = "--presets" if command == "positivity" else "--config"
        assert main([command, flag, str(path), "--out", str(tmp_path / "out")]) == 1, command
        captured = capsys.readouterr()
        assert "validation failure: malformed config" in captured.err, command
        assert "all gates passed" not in captured.out
        assert not (tmp_path / "out").exists()


UNKNOWN_ENTRIES = {
    # the misspellings that used to load as 5000 paths at seed 0
    "misspelled-run-key": (("n_paths = 30\nglobal_seed = 11", "n_path = 10\nglobl_seed = 7"),
                           "key [run] n_path"),
    "extra-model-key": (("T = 1.0\n", "T = 1.0\nalpha4 = 1.0\n"), "key [model] alpha4"),
    "declared-key-in-another-section": (("m_ref = 128\n", "m_ref = 128\nn_paths = 10\n"),
                                        "key [ladder] n_paths"),
    "undeclared-section": (("[output]", "[outputs]\nformat = csv\n\n[output]"),
                           "key [outputs] format"),
    "default-section": (("[model]", "[DEFAULT]\nn_paths = 10\n\n[model]"),
                        "key [DEFAULT] n_paths"),
    "empty-undeclared-section": (("[output]", "[extras]\n\n[output]"), "section [extras]"),
}


@pytest.mark.parametrize("case", sorted(UNKNOWN_ENTRIES))
def test_an_unknown_key_exits_1_from_every_command(tmp_path, capsys, case):
    (old, new), named = UNKNOWN_ENTRIES[case]
    path = _write_config(tmp_path)
    assert old in path.read_text()
    path.write_text(path.read_text().replace(old, new))
    for command in ("validate", "simulate", "moments", "convergence", "positivity"):
        flag, target = ("--presets", f"set1,{path}") if command == "positivity" else (
            "--config", str(path))
        assert main([command, flag, target, "--out", str(tmp_path / "out")]) == 1, command
        captured = capsys.readouterr()
        assert captured.err == (
            f"validation failure: malformed config {path}: unknown {named}\n"), command
        assert "all gates passed" not in captured.out
        assert not (tmp_path / "out").exists()


def test_a_config_without_a_jump_section_exits_1(tmp_path, capsys):
    path = _write_config(tmp_path)
    path.write_text(path.read_text().replace("[jump]\nfamily = linear\nparam = -0.5\n", ""))
    assert "[jump]" not in path.read_text()
    assert main(["validate", "--config", str(path)]) == 1
    assert "validation failure: malformed config" in capsys.readouterr().err


# every declared key at a value other than its default, each in its own
# section, with keys in any case and m_list's two separators
EVERY_KEY_CONFIG = """[model]
alpha_m1 = 2.5
alpha0 = 1.25
alpha1 = 1.75
alpha2 = 5.5
alpha3 = 0.75
gamma = 3.25
rho = 1.5
Lambda = 4.5
x0 = 0.5
T = 2.0

[jump]
family = Sine
param = 0.25

[scheme]
scheme = Both

[ladder]
m_list = 8 16, 32
m_ref = 64

[run]
n_paths = 7
parallelism = 3
global_seed = 99
FAST_MODE = yes

[output]
directory = elsewhere
formats = csv,json
"""


def test_every_declared_key_loads_from_its_section(tmp_path):
    path = tmp_path / "every.cfg"
    path.write_text(EVERY_KEY_CONFIG)
    parser = configparser.ConfigParser()
    parser.read_string(EVERY_KEY_CONFIG)
    given = {(section, key) for section in parser.sections() for key in parser[section]}
    assert given == {(section, key.lower()) for section, key in CONFIG_KEYS}
    config = load_config(path)
    assert config.params == ModelParams(
        alpha_m1=2.5, alpha0=1.25, alpha1=1.75, alpha2=5.5, alpha3=0.75,
        gamma=3.25, rho=1.5, lam=4.5, x0=0.5, T=2.0,
    )
    assert config.jump.label == "sine:0.25"
    expected = {"scheme": "both", "m_list": (8, 16, 32), "m_ref": 64, "n_paths": 7,
                "global_seed": 99, "parallelism": 3, "fast_mode": True, "out_dir": "elsewhere"}
    assert {key: getattr(config, key) for key in expected} == expected
    for key, value in expected.items():
        assert type(getattr(config, key)) is type(value), key
    assert all(type(m) is int for m in config.m_list)
    assert all(type(v) is float for v in asdict(config.params).values())


def test_omitted_keys_load_their_defaults(tmp_path):
    path = tmp_path / "least.cfg"
    model = "\n".join(EVERY_KEY_CONFIG.splitlines()[:11])
    path.write_text(f"{model}\n\n[jump]\n\n[ladder]\nm_list = 8\n")
    config = load_config(path)
    assert config.jump.label == "zero"
    assert (config.scheme, config.m_list, config.m_ref, config.n_paths, config.global_seed,
            config.parallelism, config.fast_mode, config.out_dir) == (
        "tjabem", (8,), None, 5000, 0, 1, False, "out")


# the config CI's console-script step writes as both.cfg
BOTH_CONFIG = """[model]
alpha_m1 = 2.0
alpha0 = 1.0
alpha1 = 1.5
alpha2 = 5.0
alpha3 = 1.0
gamma = 3.0
rho = 1.5
lambda = 1.0
x0 = 1.0
T = 1.0

[jump]
family = linear
param = -0.5

[scheme]
scheme = both

[ladder]
m_list = 8, 16, 32
m_ref = 64

[run]
n_paths = 4
"""


# the layout of the benchmark's generated configs: every value a repr, lambda
# last, and no two keys with one value, so that a swapped key shows
WORKLOAD_CONFIG = """[model]
alpha_m1 = 2.0
alpha0 = 1.25
alpha1 = 1.5
alpha2 = 5.5
alpha3 = 0.75
gamma = 3.0
rho = 1.75
x0 = 0.5
T = 2.0
lambda = 5.0

[jump]
family = linear
param = 1.0

[scheme]
scheme = both

[ladder]
m_list = 64, 128
m_ref = 8192

[run]
n_paths = 128
global_seed = 1001
parallelism = 2
fast_mode = false

[output]
directory = out
formats = csv, json
"""


SET1_MODEL = dict(alpha_m1=2.0, alpha0=1.0, alpha1=1.5, alpha2=5.0, alpha3=1.0,
                  gamma=3.0, rho=1.5, lam=1.0, x0=1.0, T=1.0)
# what each config loads to: its model, its jump's label and the other fields
LOADED = {
    "set1": (SET1_MODEL, "linear:-0.5", dict(
        scheme="tjabem", m_list=(32, 64, 128, 256, 512), m_ref=4096, n_paths=5000,
        global_seed=12345, parallelism=1, fast_mode=False, out_dir="out")),
    "set2": ({**SET1_MODEL, "alpha_m1": 1.0, "alpha0": 2.0, "alpha2": 3.0, "gamma": 3.5},
             "linear:-0.5", dict(
        scheme="tjabem", m_list=(32, 64, 128, 256, 512), m_ref=4096, n_paths=5000,
        global_seed=12345, parallelism=1, fast_mode=False, out_dir="out")),
    "workload": ({**SET1_MODEL, "alpha0": 1.25, "alpha2": 5.5, "alpha3": 0.75, "rho": 1.75,
                  "lam": 5.0, "x0": 0.5, "T": 2.0}, "linear:1", dict(
        scheme="both", m_list=(64, 128), m_ref=8192, n_paths=128, global_seed=1001,
        parallelism=2, fast_mode=False, out_dir="out")),
    "both": (SET1_MODEL, "linear:-0.5", dict(
        scheme="both", m_list=(8, 16, 32), m_ref=64, n_paths=4, global_seed=0,
        parallelism=1, fast_mode=False, out_dir="out")),
}


@pytest.mark.parametrize("source", sorted(LOADED))
def test_the_presets_and_the_generated_configs_load_as_declared(tmp_path, source):
    texts = {"workload": WORKLOAD_CONFIG, "both": BOTH_CONFIG}
    if source in texts:
        path = tmp_path / f"{source}.cfg"
        path.write_text(texts[source])
    else:
        path = _preset_path(source)
    model, label, rest = LOADED[source]
    config = load_config(path)
    assert config.params == ModelParams(**model)
    assert config.jump.label == label
    assert {key: getattr(config, key) for key in rest} == rest


@pytest.mark.parametrize("source", ["set1", "set2", "workload"])
def test_the_config_echo_writes_the_model_block_it_read(tmp_path, source):
    if source == "workload":
        path = tmp_path / "set1.cfg"
        path.write_text(WORKLOAD_CONFIG)
    else:
        path = _preset_path(source)
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.optionxform = str  # keep T's case, as the echo writes it
    parser.read(path)
    block = {key: float(value) for key, value in parser["model"].items()}
    assert sorted(block) == sorted(MODEL_KEYS)
    assert load_config(path).echo()["model"] == block
