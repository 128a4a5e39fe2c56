"""CSV/JSON report writers with byte-stable output.

Floats are written with repr (shortest round-trip form) and JSON keys are
sorted, so identical results produce identical bytes regardless of worker
count. No timestamps or environment details enter any report.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict
from pathlib import Path
from typing import Mapping

from .harness import ConvergenceReport, MomentReport, PositivityReport
from .mesh import JumpAdaptedMesh
from .model import ModelParams
from .solver import TrajectoryZ
from .transform import lamperti_inverse

__all__ = [
    "write_convergence_reports",
    "write_positivity_report",
    "write_moment_report",
    "write_trajectory_csv",
    "write_mesh_csv",
]


def _fmt(value: float) -> str:
    return repr(float(value))


def _write_table(
    out_dir: Path, stem: str, header: list[str], rows: list[list], payload: dict
) -> list[Path]:
    """Write <stem>.csv (header, then rows) and <stem>.json (payload)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{stem}.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    json_path = out_dir / f"{stem}.json"
    with open(json_path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return [csv_path, json_path]


def write_convergence_reports(
    reports: Mapping[str, ConvergenceReport], out_dir: Path, config_echo: dict
) -> list[Path]:
    """Write convergence CSV, companion JSON, and per-scheme plot data."""
    rows = [
        [
            name,
            _fmt(dt),
            _fmt(report.error_l1[j]),
            _fmt(report.stderr[j]),
            _fmt(report.error_l2[j]),
            report.n_paths,
        ]
        for name, report in reports.items()
        for j, dt in enumerate(report.dt_list)
    ]
    payload = {
        "config": config_echo,
        "schemes": {
            name: {
                "slope": report.slope,
                "intercept": report.intercept,
                "r_squared": report.r_squared,
                "m_list": list(report.m_list),
                "m_ref": report.m_ref,
                "n_paths": report.n_paths,
                "global_seed": report.global_seed,
                "dt": list(report.dt_list),
                "error_l1": list(report.error_l1),
                "stderr": list(report.stderr),
                "error_l2": list(report.error_l2),
                "monotone_pairs": list(report.monotone_pairs),
            }
            for name, report in reports.items()
        },
    }
    written = _write_table(
        out_dir,
        "convergence",
        ["scheme", "dt", "error_l1", "stderr", "error_l2", "n_paths"],
        rows,
        payload,
    )
    return written + _write_plotdata(reports, Path(out_dir))


def _write_plotdata(
    reports: Mapping[str, ConvergenceReport], out_dir: Path
) -> list[Path]:
    """log2-log2 pairs with a slope-one line anchored at the coarsest point."""
    written = []
    for name, report in reports.items():
        plot_path = out_dir / f"plotdata_{name}.csv"
        anchor_dt = math.log2(report.dt_list[0])
        anchor_err = math.log2(report.error_l1[0])
        with open(plot_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["log2_dt", "log2_error", "log2_ref"])
            for j, dt in enumerate(report.dt_list):
                l2dt = math.log2(dt)
                writer.writerow(
                    [
                        _fmt(l2dt),
                        _fmt(math.log2(report.error_l1[j])),
                        _fmt(anchor_err + (l2dt - anchor_dt)),
                    ]
                )
        written.append(plot_path)
    return written


def write_positivity_report(
    report: PositivityReport, out_dir: Path, config_echo: dict
) -> list[Path]:
    rows = [
        [c.param_set, c.h_family, _fmt(c.dt), c.n_values, c.n_nonpositive,
         _fmt(c.percent)]
        for c in report.cells
    ]
    payload = {
        "config": config_echo,
        "lam": report.lam,
        "n_paths": report.n_paths,
        "global_seed": report.global_seed,
        "cells": [{**asdict(c), "percent": c.percent} for c in report.cells],
    }
    return _write_table(
        out_dir,
        "positivity",
        ["param_set", "h_family", "dt", "n_values", "n_nonpositive", "percent"],
        rows,
        payload,
    )


def write_moment_report(
    report: MomentReport, out_dir: Path, config_echo: dict
) -> list[Path]:
    rows = [
        [_fmt(r.p), _fmt(r.sup_moment), _fmt(r.sup_stderr),
         _fmt(r.terminal_moment), _fmt(r.terminal_stderr), report.n_paths]
        for r in report.rows
    ]
    payload = {
        "config": config_echo,
        "M": report.M,
        "n_paths": report.n_paths,
        "global_seed": report.global_seed,
        "rows": [asdict(r) for r in report.rows],
    }
    return _write_table(
        out_dir,
        "moments",
        ["p", "sup_moment", "sup_stderr", "terminal_moment", "terminal_stderr",
         "n_paths"],
        rows,
        payload,
    )


def write_trajectory_csv(
    params: ModelParams, trajectory: TrajectoryZ, path: Path
) -> Path:
    """Dump one trajectory: node time, jump flag, both z states, original state."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    mesh = trajectory.mesh
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "is_jump", "z_pre", "z_post", "x"])
        for k in range(len(mesh.nodes)):
            z_post = float(trajectory.z_post[k])
            writer.writerow(
                [
                    _fmt(mesh.nodes[k]),
                    int(mesh.is_jump[k]),
                    _fmt(trajectory.z_pre[k]),
                    _fmt(z_post),
                    _fmt(lamperti_inverse(params.rho, z_post)),
                ]
            )
    return path


def write_mesh_csv(mesh: JumpAdaptedMesh, path: Path) -> Path:
    """Dump mesh nodes and jump flags."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "is_jump"])
        for k in range(len(mesh.nodes)):
            writer.writerow([_fmt(mesh.nodes[k]), int(mesh.is_jump[k])])
    return path
