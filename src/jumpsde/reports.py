"""CSV/JSON report writers with byte-stable output.

Every CSV file goes through one writer. Each JSON report is its harness
record's fields plus the config echo, so a new record field reaches the
report without a change here. Floats are written with repr (shortest
round-trip form) and JSON keys are sorted, so identical results produce
identical bytes regardless of worker count. No timestamps or environment
details enter any report.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict
from pathlib import Path
from typing import Iterable, Mapping

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


def _write_csv(path: Path, header: list[str], rows: Iterable[list]) -> Path:
    """Write header, then rows, to path, making its directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _write_table(
    out_dir: Path, stem: str, header: list[str], rows: list[list], payload: dict
) -> list[Path]:
    """Write <stem>.csv (header, then rows) and <stem>.json (payload)."""
    csv_path = _write_csv(Path(out_dir) / f"{stem}.csv", header, rows)
    json_path = Path(out_dir) / f"{stem}.json"
    with open(json_path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return [csv_path, json_path]


def write_convergence_reports(
    reports: Mapping[str, ConvergenceReport], out_dir: Path, config_echo: dict
) -> list[Path]:
    """Write convergence CSV, companion JSON, and per-scheme plot data: the
    log2-log2 pairs with a slope-one line anchored at the coarsest point."""
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
    schemes = {
        name: {("dt" if key == "dt_list" else key): value
               for key, value in asdict(report).items() if key != "scheme"}
        for name, report in reports.items()
    }
    written = _write_table(
        out_dir,
        "convergence",
        ["scheme", "dt", "error_l1", "stderr", "error_l2", "n_paths"],
        rows,
        {"config": config_echo, "schemes": schemes},
    )
    for name, report in reports.items():
        anchor_dt = math.log2(report.dt_list[0])
        anchor_err = math.log2(report.error_l1[0])
        plot = [
            [_fmt(math.log2(dt)), _fmt(math.log2(error)),
             _fmt(anchor_err + (math.log2(dt) - anchor_dt))]
            for dt, error in zip(report.dt_list, report.error_l1)
        ]
        written.append(_write_csv(Path(out_dir) / f"plotdata_{name}.csv",
                                  ["log2_dt", "log2_error", "log2_ref"], plot))
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
        **asdict(report),
        "config": config_echo,
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
    return _write_table(
        out_dir,
        "moments",
        ["p", "sup_moment", "sup_stderr", "terminal_moment", "terminal_stderr",
         "n_paths"],
        rows,
        {**asdict(report), "config": config_echo},
    )


def write_trajectory_csv(
    params: ModelParams, trajectory: TrajectoryZ, path: Path
) -> Path:
    """Dump one trajectory: node time, jump flag, both z states, original state."""
    mesh = trajectory.mesh
    rows = (
        [_fmt(t), int(jump), _fmt(z_pre), _fmt(z_post),
         _fmt(lamperti_inverse(params.rho, float(z_post)))]
        for t, jump, z_pre, z_post in zip(
            mesh.nodes, mesh.is_jump, trajectory.z_pre, trajectory.z_post
        )
    )
    return _write_csv(path, ["t", "is_jump", "z_pre", "z_post", "x"], rows)


def write_mesh_csv(mesh: JumpAdaptedMesh, path: Path) -> Path:
    """Dump mesh nodes and jump flags."""
    rows = ([_fmt(t), int(jump)] for t, jump in zip(mesh.nodes, mesh.is_jump))
    return _write_csv(path, ["t", "is_jump"], rows)
