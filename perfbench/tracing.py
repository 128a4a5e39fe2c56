"""Spans and counters around the public calls of each jumpsde module.

The traced run replaces module attributes with timing wrappers, from the
benchmark's own files: the names through which ``jumpsde.cli``,
``jumpsde.harness``, ``jumpsde.paths`` and ``jumpsde.solver`` call into the
layer below. Spans (name, start, end, parent, count) stay in memory and are
written out when the run ends. The drift closures returned by
``make_transformed_drift`` and ``make_drift`` are wrapped to count value and
slope evaluations per implicit solve.

``InlinePool`` stands in for the harness's process pool so that a traced run
is one process that still chunks work and starts "pools" exactly as the
configured parallelism would.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import jumpsde.cli
import jumpsde.harness
import jumpsde.paths
import jumpsde.solver

LAYERS = ("cli", "harness", "model", "paths", "mesh", "solver", "transform", "reports")

# (module, attribute, span name): each call through that attribute is a span.
CALLS = (
    (jumpsde.cli, "strong_error_ladder", "harness.strong_error_ladder"),
    (jumpsde.cli, "positivity_table", "harness.positivity_table"),
    (jumpsde.cli, "validate_params", "model.validate_params"),
    (jumpsde.cli, "validate_jump", "model.validate_jump"),
    (jumpsde.cli, "write_convergence_reports", "reports.write"),
    (jumpsde.cli, "write_positivity_report", "reports.write"),
    (jumpsde.harness, "validate_params", "model.validate_params"),
    (jumpsde.harness, "validate_jump", "model.validate_jump"),
    (jumpsde.harness, "one_sided_lipschitz", "model.one_sided_lipschitz"),
    (jumpsde.harness, "drift_one_sided_lipschitz", "model.drift_one_sided_lipschitz"),
    (jumpsde.harness, "generate_bundle", "paths.generate_bundle"),
    (jumpsde.harness, "coarsen_increments", "paths.coarsen_increments"),
    (jumpsde.harness, "regular_increments", "paths.regular_increments"),
    (jumpsde.harness, "tjabem_path", "solver.tjabem_path"),
    (jumpsde.harness, "bem_path", "solver.bem_path"),
    (jumpsde.paths, "sample_jump_times", "mesh.sample_jump_times"),
    (jumpsde.paths, "build_mesh", "mesh.build_mesh"),
    (jumpsde.solver, "jump_map", "transform.jump_map"),
)


class InlinePool:
    """A ProcessPoolExecutor stand-in that maps in this process, counting starts."""

    starts = 0

    def __init__(self, max_workers=None):
        type(self).starts += 1

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable):
        return map(fn, iterable)


def use_inline_pool() -> None:
    jumpsde.harness.ProcessPoolExecutor = InlinePool


class Tracer:
    """In-memory spans: [name, start_ns, end_ns, parent_index, count]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]
        self.evals = {"tjabem": [0, 0], "bem": [0, 0]}  # [value, slope] calls
        self.jumps = 0
        self._fine_mesh = None  # mesh of the bundle generated last

    def wrap(self, name, fn, count=None):
        """fn with a span around each call; name may be a function of the args."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name(args) if callable(name) else name, clock(), 0, stack[-1], 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if count is not None:
                span[4] = count(args, result)
            return result

        return traced

    def _bundle_count(self, args, bundle):
        self._fine_mesh = bundle.fine_mesh
        self.jumps += bundle.jump_times.size
        return bundle.fine_mesh.nodes.size

    def _tjabem_name(self, args):
        # the reference solve runs on the bundle's own (fine) mesh
        fine = args[2] is self._fine_mesh
        return "solver.tjabem_path.ref" if fine else "solver.tjabem_path.coarse"

    def _counted(self, make, scheme):
        evals = self.evals[scheme]

        def make_counted(params):
            value, slope = make(params)

            def counted_value(z):
                evals[0] += 1
                return value(z)

            def counted_slope(z):
                evals[1] += 1
                return slope(z)

            return counted_value, counted_slope

        return make_counted

    def install(self) -> None:
        """Wrap every call in CALLS and count drift evaluations."""
        counts = {
            "paths.generate_bundle": self._bundle_count,
            "solver.tjabem_path": lambda args, out: args[2].n_intervals,
            "solver.bem_path": lambda args, out: args[2],
            "reports.write": lambda args, out: sum(Path(p).stat().st_size for p in out),
        }
        for module, attr, name in CALLS:
            label = self._tjabem_name if name == "solver.tjabem_path" else name
            setattr(module, attr, self.wrap(label, getattr(module, attr), counts.get(name)))
        jumpsde.solver.make_transformed_drift = self._counted(
            jumpsde.solver.make_transformed_drift, "tjabem"
        )
        jumpsde.solver.make_drift = self._counted(jumpsde.solver.make_drift, "bem")

    def dump(self, path: Path) -> None:
        """Write the spans as tab-separated lines with the elapsed times in ns."""
        with open(path, "w") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\tcount\n")
            for i, (name, start, end, parent, count) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start}\t{end}\t{parent}\t{count}\n")


def _timing(name: str, values: list[int], scale: float) -> dict:
    """The median call and its 90th percentile, scaled from ns; 0 without calls."""
    if not values:
        return {name: 0.0, f"{name}_p90": 0.0}
    p90 = statistics.quantiles(values, n=10, method="inclusive")[-1] \
        if len(values) > 1 else values[0]
    return {name: statistics.median(values) * scale, f"{name}_p90": p90 * scale}


def layer_metrics(tracer: Tracer, pool_starts: int) -> dict:
    """Per-layer numbers of one traced run (times from spans, counts exact)."""
    spans = tracer.spans
    dur = [end - start for _, start, end, _, _ in spans]
    own = dur[:]  # self time: duration minus the child spans
    by_name: dict[str, list[int]] = {}
    for i, (name, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            own[parent] -= dur[i]
        by_name.setdefault(name, []).append(i)

    def calls(*names):
        return [i for name in names for i in by_name.get(name, [])]

    def durations(name):
        return [dur[i] for i in calls(name)]

    def count(indices):
        return sum(spans[i][4] for i in indices)

    bundles = calls("paths.generate_bundle")
    n_bundles = max(len(bundles), 1)
    mesh_per_bundle = {i: 0 for i in bundles}
    for i in calls("mesh.sample_jump_times", "mesh.build_mesh"):
        if spans[i][3] in mesh_per_bundle:
            mesh_per_bundle[spans[i][3]] += dur[i]
    tj = calls("solver.tjabem_path.ref", "solver.tjabem_path.coarse")
    bem = calls("solver.bem_path")
    solves = max(count(tj) + count(bem), 1)
    evals = [a + b for a, b in zip(tracer.evals["tjabem"], tracer.evals["bem"])]

    us, ms = 1e-3, 1e-6
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for i, span in enumerate(spans):
        out[span[0].split(".")[0] + ".self_s"] += own[i] * 1e-9
    out["model.validate_ms"] = sum(
        dur[i] for i in calls("model.validate_params", "model.validate_jump")) * ms
    out.update(_timing("mesh.build_us", list(mesh_per_bundle.values()), us))
    out["mesh.nodes_per_path"] = count(bundles) / n_bundles
    out.update(_timing("paths.bundle_us", durations("paths.generate_bundle"), us))
    out.update(_timing("paths.coarsen_us", durations("paths.coarsen_increments"), us))
    out.update(_timing("paths.regular_us", durations("paths.regular_increments"), us))
    out.update(_timing("solver.ref_ms", durations("solver.tjabem_path.ref"), ms))
    out.update(_timing("solver.coarse_ms", durations("solver.tjabem_path.coarse"), ms))
    out.update(_timing("solver.bem_ms", durations("solver.bem_path"), ms))
    out["solver.tjabem_solve_us"] = sum(own[i] for i in tj) / max(count(tj), 1) * us
    out["solver.bem_solve_us"] = sum(own[i] for i in bem) / max(count(bem), 1) * us
    out["solver.solves_per_path"] = (count(tj) + count(bem)) / n_bundles
    out["solver.fevals_per_solve"] = evals[0] / solves
    out["solver.slope_evals_per_solve"] = evals[1] / solves
    out.update(_timing("transform.jump_map_us", durations("transform.jump_map"), us))
    out["transform.jumps_per_path"] = tracer.jumps / n_bundles
    out["transform.calls_per_path"] = len(calls("transform.jump_map")) / n_bundles
    out["harness.pool_starts"] = pool_starts
    out["reports.write_ms"] = sum(durations("reports.write")) * ms
    out["reports.bytes"] = count(calls("reports.write"))
    return out
