"""Every jumpsde name that the benchmark's files look up resolves.

perfbench/tracing.py wraps each (module, attribute) pair of its CALLS, the
drift makers of jumpsde.solver and jumpsde.harness.ProcessPoolExecutor, and
perfbench/make_refs.py wraps jumpsde.harness.tjabem_path. Only the traced
run and the reference script reach those lookups, so a name that stops
resolving would break them unseen by any other test.
"""

import importlib.util
from pathlib import Path

import jumpsde.harness
import jumpsde.solver

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    """perfbench/tracing.py, loaded by path; loading it installs nothing."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_benchmark_looks_up_resolves():
    pinned = [(module, attr) for module, attr, _ in _tracing().CALLS]
    pinned += [(jumpsde.solver, "make_transformed_drift"), (jumpsde.solver, "make_drift"),
               (jumpsde.harness, "ProcessPoolExecutor"), (jumpsde.harness, "tjabem_path")]
    missing = [f"{module.__name__}.{attr}" for module, attr in pinned
               if not callable(getattr(module, attr, None))]
    assert not missing, f"the benchmark looks up names that do not resolve: {missing}"
