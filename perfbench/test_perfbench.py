"""Tests of the benchmark itself: python3 -m pytest perfbench -q (from the root)."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import (N_REF_SEEDS, SEED_BASE, WORKLOADS, check_outputs,
                       global_seed_for, load_refs)

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_spec_names_units_and_bounds():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for m in SPEC["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_refs_cover_every_seed_at_the_workload_size():
    refs = load_refs()
    for name, w in WORKLOADS.items():
        assert refs[name]["n_paths"] == w.n_paths
        assert sorted(map(int, refs[name]["seeds"])) == list(
            range(SEED_BASE, SEED_BASE + N_REF_SEEDS)
        )
    assert {global_seed_for(s) for s in (-1, 0, 10**12)} <= set(
        range(SEED_BASE, SEED_BASE + N_REF_SEEDS)
    )


def test_refs_meet_the_tolerance_premises():
    # the derivation of ERROR_ATOL in workloads.py assumes |rhs| < 2 and
    # z > 0.29 (so |dx/dz| = 2 z^-3 < 82) on every stored tjabem path
    for seed, stored in load_refs()["compare"]["seeds"].items():
        assert stored["max_abs_rhs"] < 2.0, seed
        assert stored["min_z"] > 0.29, seed


def test_check_catches_a_moved_error():
    name = "compare"
    w = WORKLOADS[name]
    refs = load_refs()
    seeds = refs[name]["seeds"]
    # the seed and scheme whose finest-level error is smallest: there a
    # relative change is the smallest in absolute terms
    seed, scheme = min(((s, scheme) for s in seeds for scheme in w.schemes),
                       key=lambda key: seeds[key[0]][key[1]][-1])
    global_seed = int(seed)
    stored = {scheme: list(seeds[seed][scheme]) for scheme in w.schemes}
    assert check_outputs(w, {"errors": stored}, global_seed, refs) == []
    stored[scheme][-1] *= 1.0 + 1e-9  # far below the tolerance: still correct
    assert check_outputs(w, {"errors": stored}, global_seed, refs) == []
    stored[scheme][-1] = seeds[seed][scheme][-1] * 1.002  # the 0.2% of workloads.py
    assert check_outputs(w, {"errors": stored}, global_seed, refs)
    stored[scheme][-1] = float("nan")
    assert check_outputs(w, {"errors": stored}, global_seed, refs)


def test_check_catches_a_nonpositive_value():
    w = WORKLOADS["positivity"]
    refs = load_refs()
    stored = refs["positivity"]["seeds"][str(SEED_BASE)]
    cells = [[n, 0] for n in stored]
    assert check_outputs(w, {"cells": cells}, SEED_BASE, refs) == []
    cells[4][1] = 1
    assert check_outputs(w, {"cells": cells}, SEED_BASE, refs)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_one_repeat_prints_every_end_to_end_metric(name):
    # --seconds 0 runs a single repeat at the workload's own size, checked
    # against the stored references
    result = result_of(run_bench("--workload", name, "--seed", "3", "--seconds", "0",
                                 "--trace", "0"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_reports_every_layer_and_covers_the_run(name):
    result = result_of(run_bench("--workload", name, "--seed", "3", "--seconds", "0",
                                 "--trace", "1"))
    assert result["correct"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    # The self times add up to the traced wall time by construction: time no
    # layer span covers is booked to cli.self_s, and time between the
    # harness and the calls it makes to harness.self_s. Both stay a small
    # share, so no layer's work runs outside its spans.
    wall = metrics["trace.wall_s"]
    assert metrics["cli.self_s"] < 0.01 * wall
    assert metrics["harness.self_s"] < 0.05 * wall
    assert metrics["harness.pool_starts"] == WORKLOADS[name].n_cells
    assert metrics["solver.fevals_per_solve"] > 1.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("--workload", "compare", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
