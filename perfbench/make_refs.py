"""Regenerate refs.json: each workload's results for every global seed it uses.

Run from the root of a jumpsde source tree whose results are trusted (the
references pin today's numbers; regenerate them only when a change is meant
to alter results, and say so):

    PYTHONPATH=src python3 perfbench/make_refs.py

Each experiment runs serially in-process (parallelism 1), so the benchmark's
parallel runs are also checked against the serial result. For the ladder
workloads it also records, per seed, the largest |rhs| of any tjabem implicit
solve and the smallest transformed state z: the premises of the error
tolerance in ``workloads.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import multiprocessing
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from workloads import (N_REF_SEEDS, REFS_PATH, SEED_BASE, WORKLOADS, cli_argv,
                       read_outputs, write_inputs)


@contextlib.contextmanager
def recording_premises(premises: dict):
    """Track the largest |rhs| and the smallest z over every tjabem path."""
    import jumpsde.harness

    tjabem_path = jumpsde.harness.tjabem_path

    def observed(params, jump, mesh, increments, *args, **kwargs):
        trajectory, x_end = tjabem_path(params, jump, mesh, increments, *args, **kwargs)
        noise_coef = (1.0 - params.rho) * params.alpha3
        rhs = trajectory.z_post[:-1] + noise_coef * np.asarray(increments, dtype=float)
        premises["max_abs_rhs"] = max(premises["max_abs_rhs"], float(np.abs(rhs).max()))
        premises["min_z"] = min(premises["min_z"], float(trajectory.z_pre.min()),
                                float(trajectory.z_post.min()))
        return trajectory, x_end

    jumpsde.harness.tjabem_path = observed
    try:
        yield
    finally:
        jumpsde.harness.tjabem_path = tjabem_path


def reference(task: tuple[str, int]) -> tuple[str, int, object]:
    from jumpsde import cli

    name, global_seed = task
    w = WORKLOADS[name]
    premises = {"max_abs_rhs": 0.0, "min_z": float("inf")}
    scratch = Path.cwd() / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        configs = write_inputs(w, global_seed, 1, Path(tmp) / "inputs")
        out_dir = Path(tmp) / "out"
        with contextlib.redirect_stdout(io.StringIO()), recording_premises(premises):
            code = cli.main(cli_argv(w, configs, out_dir))
        if code != 0:
            raise RuntimeError(f"{name} at global seed {global_seed} exited {code}")
        outputs = read_outputs(w, out_dir)
    if w.command == "positivity":
        return name, global_seed, [cell[0] for cell in outputs["cells"]]
    return name, global_seed, {**outputs["errors"], **premises}


def main() -> None:
    tasks = [(name, SEED_BASE + k) for name in WORKLOADS for k in range(N_REF_SEEDS)]
    refs = {name: {"n_paths": w.n_paths, "seeds": {}} for name, w in WORKLOADS.items()}
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=2, mp_context=context) as pool:
        for name, global_seed, value in pool.map(reference, tasks):
            refs[name]["seeds"][str(global_seed)] = value
    REFS_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFS_PATH}")


if __name__ == "__main__":
    main()
