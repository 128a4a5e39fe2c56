"""One repeat of a workload in a fresh interpreter; prints one JSON line.

A fresh interpreter per repeat makes every repeat pay what a user pays:
the imports and the cold, cached one-sided Lipschitz bound ``Q``.

Modes:
  plain   untraced, with the configured pool workers (end-to-end metrics)
  inline  untraced, the process pool replaced by an in-process map
  traced  inline, plus spans and counters (per-layer metrics)

Usage: python3 repeat.py --workload NAME --in-dir DIR --out-dir DIR --mode MODE
       [--spans FILE]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from workloads import POSITIVITY_JUMPS, WORKLOADS, cli_argv, read_outputs


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children counts the largest reaped worker
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _bounds(w):
    from jumpsde.model import drift_one_sided_lipschitz, one_sided_lipschitz

    return (one_sided_lipschitz, drift_one_sided_lipschitz) if "bem" in w.schemes \
        else (one_sided_lipschitz,)


def setup(w, configs: list[Path]) -> tuple[float, list]:
    """Time what precedes the first path: import, validation and Q."""
    start = time.perf_counter()
    from jumpsde.cli import load_config
    from jumpsde.model import make_jump, validate_jump, validate_params

    all_params = []
    for path in configs:
        config = load_config(path)
        validate_params(config.params)
        jumps = [config.jump] if w.jump else [make_jump(f, c) for f, c in POSITIVITY_JUMPS]
        for jump in jumps:
            validate_jump(jump, config.params)
        for bound in _bounds(w):
            bound(config.params)
        all_params.append(config.params)
    return time.perf_counter() - start, all_params


def cold_q_ms(w, all_params: list, repeats: int = 5) -> float:
    """Median time of the bounds for the first parameter set with empty caches."""
    bounds = _bounds(w)
    times = []
    for _ in range(repeats):
        for bound in bounds:
            bound.cache_clear()
        start = time.perf_counter()
        for bound in bounds:
            bound(all_params[0])
        times.append((time.perf_counter() - start) * 1e3)
    for params in all_params:  # the run itself starts with warm caches
        for bound in bounds:
            bound(params)
    return statistics.median(times)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--in-dir", required=True, type=Path)
    parser.add_argument("--out-dir", required=True, type=Path)
    parser.add_argument("--mode", required=True, choices=("plain", "inline", "traced"))
    parser.add_argument("--spans", type=Path, help="where a traced run writes its spans")
    args = parser.parse_args()
    w = WORKLOADS[args.workload]
    configs = [args.in_dir / f"{name}.cfg" for name in w.sets]

    setup_s, all_params = setup(w, configs)

    import numpy
    from jumpsde import cli

    record = {"setup_s": setup_s, "numpy": numpy.__version__}
    run = cli.main
    if args.mode != "plain":
        import tracing

        tracing.use_inline_pool()
    if args.mode == "traced":
        record["q_ms"] = cold_q_ms(w, all_params)
        tracer = tracing.Tracer()
        tracer.install()
        run = tracer.wrap("cli.main", cli.main)

    shutil.rmtree(args.out_dir, ignore_errors=True)
    argv = cli_argv(w, configs, args.out_dir)
    cpu0 = _cpu_s()
    wall0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = run(argv)
    record["wall_s"] = time.perf_counter() - wall0
    record["cpu_s"] = _cpu_s() - cpu0
    record["peak_rss_mb"] = _peak_rss_mb()
    record["exit_code"] = code
    if code == 0:
        record["outputs"] = read_outputs(w, args.out_dir)
    if args.mode == "traced":
        record["layers"] = tracing.layer_metrics(tracer, tracing.InlinePool.starts)
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
