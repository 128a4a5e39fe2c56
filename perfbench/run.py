"""jumpsde benchmark: run one workload for a fixed time and print its metrics.

Run from the root of a jumpsde source tree:

    python3 perfbench/run.py --workload {compare,positivity} --seed N \
        --seconds S --trace {0,1}

A closed loop with one client: repeats of the workload's experiment run one
after another, each in a fresh interpreter (``repeat.py``), for ``--seconds``:
a repeat starts only if, as long as the one before, it ends in time (there is
always at least one). Every repeat's reports are checked against the stored
references. ``--trace 0`` reports the end-to-end metrics of BENCHMARK.json as
medians over repeats; ``--trace 1`` alternates untraced and traced
single-process repeats and reports the per-layer metrics. The last line of
standard output is the result object; the line before it is a record with
the host, every repeat and every check. The exit code is 1 when a check
fails and 2 when the tree holds no jumpsde sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import (PARALLELISM, WORKLOADS, check_outputs, global_seed_for, load_refs,
                       write_inputs)

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
TIME_LIMIT_S = 170.0  # a run must end within 180 s

# The host's speed drifts by up to 2x over seconds to minutes, CPU time and
# wall time alike. While a repeat runs, a probe thread in this process times
# a fixed loop of the solver's kind (closures, exp, log, float arithmetic)
# every PROBE_PERIOD_S, in its own CPU time. The end-to-end times are scaled
# by the probe's mean time over PROBE_NOMINAL_S, about its median on the
# baseline host, so that they read as on that host. The probe takes ~1% of
# one CPU.
PROBE_ITERATIONS = 5000
PROBE_PERIOD_S = 0.2
PROBE_NOMINAL_S = 0.0028


def host_details() -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "jumpsde").rglob("*")):
        if path.suffix in (".py", ".cfg"):
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "loadavg_at_start": os.getloadavg(),
    }


def probe_loop(n: int) -> float:
    """CPU seconds this thread takes for n steps of a solver-like loop."""
    exp, log = math.exp, math.log

    def drift(z):
        lz = log(z)
        return 2.0 * exp(-0.5 * lz) - 1.5 * exp(1.5 * lz) + 0.25 / z

    start = time.thread_time()
    acc = 0.0
    for k in range(n):
        acc += drift(1.3 + k * 1e-9)
    return time.thread_time() - start


class SpeedProbe(threading.Thread):
    """Samples probe_loop until stopped; host_factor() is their mean over nominal."""

    def __init__(self):
        super().__init__(daemon=True)
        self.samples: list[float] = []
        self.stopped = threading.Event()

    def run(self) -> None:
        while True:
            self.samples.append(probe_loop(PROBE_ITERATIONS))
            if self.stopped.wait(PROBE_PERIOD_S):
                return

    def host_factor(self) -> float:
        self.stopped.set()
        self.join()
        return statistics.fmean(self.samples) / PROBE_NOMINAL_S


def spread(values: list[float]) -> dict:
    return {"n": len(values), "min": min(values), "median": statistics.median(values),
            "max": max(values)} if values else {"n": 0}


class Runner:
    """Runs repeats of one workload and keeps what each one returned."""

    def __init__(self, workload, global_seed: int, work: Path):
        self.w = workload
        self.global_seed = global_seed
        self.work = work
        self.refs = load_refs()
        self.repeats: list[dict] = []
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.in_dir = work / "inputs"
        write_inputs(workload, global_seed, PARALLELISM, self.in_dir)

    def repeat(self, mode: str, deadline: float) -> None:
        probe = SpeedProbe()
        probe.start()
        cmd = [sys.executable, str(HERE / "repeat.py"), "--workload", self.w.name,
               "--in-dir", str(self.in_dir), "--out-dir", str(self.work / f"out-{mode}"),
               "--mode", mode]
        if mode == "traced":
            cmd += ["--spans", str(self.work / f"spans-{len(self.repeats)}.tsv")]
        # a process group of its own, so that a timeout also ends the pool workers
        with subprocess.Popen(cmd, env=self.env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              start_new_session=True) as proc:
            try:
                stdout, stderr = proc.communicate(
                    timeout=max(deadline - time.monotonic(), 1.0))
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                stdout, stderr = proc.communicate()
        record = json.loads(stdout.splitlines()[-1]) if proc.returncode == 0 \
            else {"exit_code": proc.returncode}
        record["mode"] = mode
        record["host_factor"] = probe.host_factor()
        if "outputs" in record:
            record["problems"] = check_outputs(self.w, record["outputs"],
                                               self.global_seed, self.refs)
        else:
            tail = stderr.strip().splitlines()[-3:]
            record["problems"] = [f"repeat failed ({record['exit_code']}): {tail}"]
        self.repeats.append(record)

    def ok(self, mode: str) -> list[dict]:
        return [r for r in self.repeats if r["mode"] == mode and not r["problems"]]


def repeat_for(seconds: float, step) -> None:
    """Call step() once, then again while a call as long as the last one
    would still end within ``seconds`` of the start."""
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        step()
        now = time.monotonic()
        if now - start + (now - t0) > seconds:
            return


def end_to_end(runner: Runner, seconds: float, deadline: float) -> dict:
    repeat_for(seconds, lambda: runner.repeat("plain", deadline))
    w = runner.w
    total = w.n_paths * w.n_cells
    ok = runner.ok("plain")
    return {
        "setup_s": [r["setup_s"] / r["host_factor"] for r in ok],
        "paths_per_s": [total / r["wall_s"] * r["host_factor"] for r in ok],
        "cpu_s_per_path": [r["cpu_s"] / total / r["host_factor"] for r in ok],
        "parallel_eff": [r["cpu_s"] / (r["wall_s"] * PARALLELISM) for r in ok],
        "peak_rss_mb": [r["peak_rss_mb"] for r in ok],
        # as measured, before scaling (recorded, not reported)
        "host_factor": [r["host_factor"] for r in ok],
        "raw.setup_s": [r["setup_s"] for r in ok],
        "raw.paths_per_s": [total / r["wall_s"] for r in ok],
        "raw.cpu_s_per_path": [r["cpu_s"] / total for r in ok],
    }


def per_layer(runner: Runner, seconds: float, deadline: float) -> dict:
    orders = [("inline", "traced"), ("traced", "inline")]

    def pair():
        for mode in orders[len(runner.repeats) // 2 % 2]:
            runner.repeat(mode, deadline)

    repeat_for(seconds, pair)
    traced, inline = runner.ok("traced"), runner.ok("inline")
    values = {name: [r["layers"][name] for r in traced] for name in
              (traced[0]["layers"] if traced else {})}
    values["model.q_ms"] = [r["q_ms"] for r in traced]
    values["trace.wall_s"] = [r["wall_s"] for r in traced]
    values["trace.untraced_s"] = [r["wall_s"] for r in inline]
    if traced and inline:
        t = statistics.median(values["trace.wall_s"])
        u = statistics.median(values["trace.untraced_s"])
        values["trace.overhead_s"] = [t - u]
        values["trace.overhead_share"] = [(t - u) / t]
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "jumpsde" / "__init__.py").is_file():
        print(f"no jumpsde sources under {SRC}; run from the root of the source tree",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    metric_specs = spec["per_layer" if args.trace else "end_to_end"]

    w = WORKLOADS[args.workload]
    global_seed = global_seed_for(args.seed)
    work = WORK / f"{w.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    host = host_details()
    runner = Runner(w, global_seed, work)
    # compile the sources once so that no timed repeat writes bytecode
    subprocess.run([sys.executable, "-c", "import jumpsde.cli"], env=runner.env, check=True)
    measure = per_layer if args.trace else end_to_end
    values = measure(runner, args.seconds, deadline)

    failed = sum(1 for r in runner.repeats if r["problems"])
    outputs = [r["outputs"] for r in runner.repeats if "outputs" in r]
    record = {
        "workload": w.name, "seed": args.seed, "global_seed": global_seed,
        "n_paths": w.n_paths, "parallelism": PARALLELISM, "trace": args.trace,
        "host": {**host, "numpy": next((r["numpy"] for r in runner.repeats
                                        if "numpy" in r), None)},
        "spread": {name: spread(v) for name, v in values.items()},
        "slopes": outputs[0].get("slopes") if outputs else None,
        "digests": sorted({o["digest"] for o in outputs}),
        "problems": [p for r in runner.repeats for p in r["problems"]],
        "repeats": [{k: v for k, v in r.items() if k not in ("outputs", "layers")}
                    for r in runner.repeats],
    }
    (work / "record.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record))
    metrics = {}
    for m in metric_specs:
        measured = values.get(m["name"], [])
        if not measured and failed == 0:
            raise SystemExit(f"metric {m['name']} was not measured")
        value = statistics.median(measured) if measured else 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": len(runner.repeats),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
