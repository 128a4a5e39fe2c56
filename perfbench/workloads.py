"""The benchmark's workloads: generated inputs, sizes and output checks.

Each workload is one of the paper's Monte Carlo experiments, run through
``jumpsde.cli.main`` from config files this module writes. The global seed
of the experiment is derived from the benchmark's ``--seed``; reference
results for every derivable global seed are stored in ``refs.json`` (see
``make_refs.py``), so every run checks its numbers, not only their shape.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFS_PATH = HERE / "refs.json"

# The two parameter sets of the paper (the package's set1 and set2 presets),
# copied here so that the benchmark's inputs do not move if a preset does.
PARAM_SETS = {
    "set1": dict(alpha_m1=2.0, alpha0=1.0, alpha1=1.5, alpha2=5.0, alpha3=1.0,
                 gamma=3.0, rho=1.5, x0=1.0, T=1.0),
    "set2": dict(alpha_m1=1.0, alpha0=2.0, alpha1=1.5, alpha2=3.0, alpha3=1.0,
                 gamma=3.5, rho=1.5, x0=1.0, T=1.0),
}
# The positivity table's jumps are the CLI's default sweep.
POSITIVITY_JUMPS = (("linear", -0.5), ("linear", 0.5), ("sine", 1.0))

# --seed n selects global seed SEED_BASE + n mod N_REF_SEEDS; refs.json holds
# the reference results of each of them at the sizes below.
SEED_BASE = 1000
N_REF_SEEDS = 64

# A stored reference error may differ from a re-run only by what the solver's
# tolerance allows. Each implicit solve stops at |residual| <= 1e-12 *
# max(1, |rhs|). On every stored tjabem path |rhs| < 2 and z > 0.29
# (make_refs.py records both per seed; test_refs_meet_the_tolerance_premises
# checks them). set1 has Q = 0, so G' = 1 - dt*F' >= 1: a step adds at most
# 2e-12 to the state and does not amplify earlier error, and a linear:1 jump
# shrinks a z-error by sqrt(2). Over the reference solve's ~8200 steps and a
# coarse solve's at most ~1050 that is under 2e-8 in z, and x = z^-2 has
# |dx/dz| = 2 z^-3 < 82: under 1.6e-6 per terminal error, hence per mean
# error. For bem no such bound is derived, since its rhs scales the state by
# the noise and jump terms. Measured instead: with the solver tolerance
# loosened to 1e-8, 10^4 times the contract, the mean errors of both schemes
# moved by under 4e-7 (global seeds 1000 and 1001). ERROR_RTOL covers
# rounding in the mean itself. The stored errors are all above 1.5e-3, so
# the check catches a change of 0.2% in any single error
# (test_check_catches_a_moved_error moves only the smallest finest-level one).
ERROR_RTOL = 1e-6
ERROR_ATOL = 2e-6

# Worker processes of every workload: the nproc of the benchmark's host.
PARALLELISM = 2


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                      # jumpsde subcommand
    sets: tuple[str, ...]             # parameter sets, one config file each
    jump: tuple[str, float] | None    # None: the positivity sweep
    lam: float
    scheme: str
    m_list: tuple[int, ...]           # positivity: M = T/dt of its step sizes
    m_ref: int | None                 # None: no reference solve (positivity)
    n_paths: int                      # per experiment cell

    @property
    def n_cells(self) -> int:
        """Experiment cells per run (positivity: sets x jumps x step sizes)."""
        if self.command == "positivity":
            return len(self.sets) * len(POSITIVITY_JUMPS) * len(self.m_list)
        return 1

    @property
    def schemes(self) -> tuple[str, ...]:
        return ("tjabem", "bem") if self.scheme == "both" else (self.scheme,)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="compare",
            command="convergence", sets=("set1",), jump=("linear", 1.0),
            lam=5.0, scheme="both", m_list=(64, 128, 256, 512, 1024),
            m_ref=8192, n_paths=128,
        ),
        Workload(
            name="positivity",
            command="positivity", sets=("set1", "set2"), jump=None,
            lam=1.0, scheme="tjabem", m_list=(32, 64, 128),
            m_ref=None, n_paths=1000,
        ),
    )
}


def global_seed_for(seed: int) -> int:
    return SEED_BASE + seed % N_REF_SEEDS


def write_inputs(w: Workload, global_seed: int, parallelism: int,
                 in_dir: Path) -> list[Path]:
    """Write one config file per parameter set; the first one drives the run."""
    in_dir.mkdir(parents=True, exist_ok=True)
    family, param = w.jump if w.jump else POSITIVITY_JUMPS[0]
    paths = []
    for set_name in w.sets:
        model = "\n".join(
            f"{key} = {value!r}"
            for key, value in {**PARAM_SETS[set_name], "lambda": w.lam}.items()
        )
        text = (
            f"[model]\n{model}\n\n"
            f"[jump]\nfamily = {family}\nparam = {param!r}\n\n"
            f"[scheme]\nscheme = {w.scheme}\n\n"
            f"[ladder]\nm_list = {', '.join(map(str, w.m_list))}\n"
            + (f"m_ref = {w.m_ref}\n" if w.m_ref else "")
            + f"\n[run]\nn_paths = {w.n_paths}\nglobal_seed = {global_seed}\n"
            f"parallelism = {parallelism}\nfast_mode = false\n\n"
            f"[output]\ndirectory = out\nformats = csv, json\n"
        )
        path = in_dir / f"{set_name}.cfg"
        path.write_text(text)
        paths.append(path)
    return paths


def cli_argv(w: Workload, configs: list[Path], out_dir: Path) -> list[str]:
    if w.command == "positivity":
        return ["positivity", "--presets", ",".join(map(str, configs)),
                "--out", str(out_dir)]
    return ["convergence", "--config", str(configs[0]), "--out", str(out_dir)]


def read_outputs(w: Workload, out_dir: Path) -> dict:
    """The numbers the output check needs, plus the report digest."""
    digest = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    if w.command == "positivity":
        data = json.loads((out_dir / "positivity.json").read_text())
        result = {"cells": [[c["n_values"], c["n_nonpositive"]] for c in data["cells"]]}
    else:
        data = json.loads((out_dir / "convergence.json").read_text())["schemes"]
        result = {
            "errors": {s: data[s]["error_l1"] for s in w.schemes},
            "slopes": {s: data[s]["slope"] for s in w.schemes},
        }
    result["digest"] = digest.hexdigest()
    return result


def load_refs() -> dict:
    return json.loads(REFS_PATH.read_text()) if REFS_PATH.exists() else {}


def check_outputs(w: Workload, outputs: dict, global_seed: int, refs: dict) -> list[str]:
    """Problems with one run's outputs; empty when the run is correct."""
    problems = []
    ref = refs.get(w.name, {})
    stored = None
    if ref.get("n_paths") == w.n_paths:
        stored = ref["seeds"].get(str(global_seed))
    if stored is None:
        problems.append(
            f"no stored reference for global seed {global_seed} at {w.n_paths} paths"
        )
    if w.command == "positivity":
        cells = outputs["cells"]
        if len(cells) != w.n_cells:
            problems.append(f"{len(cells)} cells, expected {w.n_cells}")
        for k, (n_values, n_nonpositive) in enumerate(cells):
            if n_nonpositive != 0:
                problems.append(f"cell {k}: {n_nonpositive} nonpositive values")
        if stored is not None and [c[0] for c in cells] != stored:
            problems.append(f"n_values {[c[0] for c in cells]} != reference {stored}")
        return problems
    for scheme in w.schemes:
        errors = outputs["errors"][scheme]
        if len(errors) != len(w.m_list):
            problems.append(f"{scheme}: {len(errors)} errors, expected {len(w.m_list)}")
            continue
        for j, e in enumerate(errors):
            if not (math.isfinite(e) and e > 0.0):
                problems.append(f"{scheme}: error {j} = {e!r} is not finite and positive")
            elif stored is not None:
                e_ref = stored[scheme][j]
                if abs(e - e_ref) > ERROR_ATOL + ERROR_RTOL * e_ref:
                    problems.append(f"{scheme}: error {j} = {e!r}, reference {e_ref!r}")
    return problems
