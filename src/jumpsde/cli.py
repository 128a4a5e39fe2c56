"""Command-line entry point wiring config files to the library and reports.

Commands: validate, simulate, convergence, positivity, moments. Configuration
comes from a preset or a config file (flat key=value blocks), optionally
overridden by flags; the JUMPSDE_SEED environment variable outranks both for
the seed. Exit codes: 0 success, 1 validation failure, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from dataclasses import asdict, dataclass, fields, replace
from importlib import resources
from pathlib import Path

from .harness import (
    _PATH_ERRORS,
    _replay_failure,
    check_band,
    check_ladder,
    check_moments,
    check_paths,
    check_schemes,
    moment_probe,
    positivity_table,
    strong_error_ladder,
)
from .mesh import MeshError, build_mesh
from .model import (
    InvalidModelError,
    JumpCoefficient,
    ModelParams,
    Regime,
    make_jump,
    one_sided_lipschitz,
    validate_jump,
    validate_params,
)
from .paths import mesh_block, open_shared_path
from .reports import (
    write_convergence_reports,
    write_mesh_csv,
    write_moment_report,
    write_positivity_report,
    write_trajectory_csv,
)
from .solver import SolverError, TrajectoryZ, _epsilon_bound, step_size_diagnostics, tjabem_lanes
from .transform import lamperti_inverse

__all__ = ["ExperimentConfig", "load_config", "main"]

PRESET_NAMES = ("set1", "set2")
ENV_SEED = "JUMPSDE_SEED"
FAST_N_PATHS = 1000
# default positivity sweep: contracting, expanding, and oscillating jumps
POSITIVITY_JUMPS = (("linear", -0.5), ("linear", 0.5), ("sine", 1.0))
DEFAULT_P_LIST = (1.0, 2.0, -1.0, -2.0)


# ModelParams' fields by their [model] keys: the file writes lam as lambda
MODEL_KEYS = {f.name: "lambda" if f.name == "lam" else f.name for f in fields(ModelParams)}
# Every config key once: (section, key) -> (kind, default, floor). The value
# parses with the ConfigParser method get<kind>; a default of ... marks a
# required key, and a floor of None an unbounded one. No key is in two
# sections. load_config refuses any key or section not listed here.
CONFIG_KEYS = {
    **{("model", key): ("float", ..., None) for key in MODEL_KEYS.values()},
    ("jump", "family"): ("", "zero", None),
    ("jump", "param"): ("float", None, None),
    ("scheme", "scheme"): ("lower", "tjabem", None),
    ("ladder", "m_list"): ("steps", ..., 1),
    ("ladder", "m_ref"): ("int", None, 1),
    ("run", "n_paths"): ("int", 5000, 1),
    ("run", "parallelism"): ("int", 1, 1),
    ("run", "global_seed"): ("int", 0, 0),
    ("run", "fast_mode"): ("boolean", False, None),
    ("output", "directory"): ("", "out", None),
    ("output", "formats"): ("", "csv, json", None),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment configuration."""

    params: ModelParams
    jump: JumpCoefficient
    scheme: str
    m_list: tuple[int, ...]
    m_ref: int | None  # None when [ladder] has no m_ref
    n_paths: int
    global_seed: int
    parallelism: int
    fast_mode: bool
    out_dir: str

    def echo(self) -> dict:
        """Result-affecting fields only; parallelism is execution detail."""
        return {
            "model": {MODEL_KEYS[name]: value for name, value in asdict(self.params).items()},
            "jump": self.jump.label,
            "scheme": self.scheme,
            "ladder": {"m_list": list(self.m_list), "m_ref": self.m_ref},
            "n_paths": self.n_paths,
            "global_seed": self.global_seed,
            "fast_mode": self.fast_mode,
        }


def _preset_path(name: str) -> Path:
    if name not in PRESET_NAMES:
        raise InvalidModelError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}"
        )
    return Path(str(resources.files("jumpsde").joinpath(f"presets/{name}.cfg")))


def load_config(path: Path) -> ExperimentConfig:
    """Parse a block-structured key=value config file: each key of
    CONFIG_KEYS from its section, or its default when the file omits it."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), converters={
        "steps": lambda text: tuple(int(tok) for tok in text.replace(",", " ").split()),
        "lower": str.lower,
    })
    if not parser.read(path):
        raise InvalidModelError(f"config file not found: {path}")
    for section in parser:  # [DEFAULT] first, then the file's sections
        declared = {parser.optionxform(key) for sec, key in CONFIG_KEYS if sec == section}
        unknown = [f"key [{section}] {key}" for key in parser[section] if key not in declared]
        if section != parser.default_section and not declared:
            unknown.append(f"section [{section}]")
        if unknown:
            raise InvalidModelError(f"malformed config {path}: unknown {unknown[0]}")
    try:
        if not parser.has_section("jump"):  # a config names its jump, zero or not
            raise configparser.NoSectionError("jump")
        values = {}
        for (section, key), (kind, default, _) in CONFIG_KEYS.items():
            read = getattr(parser, f"get{kind}")
            values[key] = (read(section, key) if default is ...
                           else read(section, key, fallback=default))
        params = ModelParams(**{name: values[key] for name, key in MODEL_KEYS.items()})
        jump = make_jump(values["family"], values["param"])
    except (configparser.Error, ValueError) as exc:
        raise InvalidModelError(f"malformed config {path}: {exc}") from exc
    if [tok.strip() for tok in values["formats"].split(",")] != ["csv", "json"]:
        raise InvalidModelError(
            f"formats must be 'csv, json' in {path} (every report is written "
            f"as both), got {values['formats']!r}"
        )
    for (_, key), (_, _, floor) in CONFIG_KEYS.items():
        value = values[key]
        if isinstance(value, tuple) and (not value or min(value) < floor):
            raise InvalidModelError(
                f"{key} must be one or more step counts >= {floor} in {path}, got {value}"
            )
        if isinstance(value, int) and floor is not None and value < floor:
            raise InvalidModelError(f"{key} must be at least {floor} in {path}, got {value}")
    return ExperimentConfig(params=params, jump=jump, out_dir=values["directory"], **{
        f.name: values[f.name] for f in fields(ExperimentConfig) if f.name in values})


def _parse_jump_flag(spec: str) -> JumpCoefficient:
    family, _, raw = spec.partition(":")
    try:
        param = float(raw) if raw else None
    except ValueError:
        raise InvalidModelError(
            f"malformed --h {spec!r}: parameter {raw!r} is not a number"
        ) from None
    return make_jump(family, param)


def _parse_p_list(spec: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in spec.split(",") if tok.strip())
    except ValueError:
        raise InvalidModelError(
            f"malformed --p-list {spec!r}: expected comma-separated numbers"
        ) from None


def _resolve(args: argparse.Namespace) -> ExperimentConfig:
    """Merge preset/config file with flag and environment overrides."""
    if getattr(args, "config", None):
        config = load_config(Path(args.config))
    else:
        config = load_config(_preset_path(getattr(args, "preset", None) or "set1"))
    if getattr(args, "h", None):
        config = replace(config, jump=_parse_jump_flag(args.h))
    if getattr(args, "lam", None) is not None:
        config = replace(config, params=replace(config.params, lam=args.lam))
    if getattr(args, "scheme", None):
        config = replace(config, scheme=args.scheme)
    if getattr(args, "seed", None) is not None:
        if args.seed < 0:
            raise InvalidModelError(f"--seed must be at least 0, got {args.seed}")
        config = replace(config, global_seed=args.seed)
    env_seed = os.environ.get(ENV_SEED)
    if env_seed:
        try:
            seed = int(env_seed)
        except ValueError:
            raise InvalidModelError(
                f"{ENV_SEED} must be an integer, got {env_seed!r}"
            ) from None
        if seed < 0:
            raise InvalidModelError(f"{ENV_SEED} must be at least 0, got {seed}")
        config = replace(config, global_seed=seed)
    if getattr(args, "out", None):
        config = replace(config, out_dir=args.out)
    if getattr(args, "fast", False) or config.fast_mode:
        half = config.m_list[: max(2, math.ceil(len(config.m_list) / 2))]
        config = replace(
            config, n_paths=FAST_N_PATHS, m_list=half, fast_mode=True
        )
    return config


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="path to a config file")
    sub.add_argument("--preset", help="bundled preset name (set1 or set2)")
    sub.add_argument("--h", help="jump coefficient as family:param, e.g. linear:-0.5")
    sub.add_argument("--lambda", dest="lam", type=float, help="jump intensity override")
    sub.add_argument(
        "--scheme", choices=("tjabem", "bem", "both"), help="scheme selection"
    )
    sub.add_argument("--seed", type=int, help="global seed override")
    sub.add_argument("--fast", action="store_true", help="1000 paths, halved ladder")
    sub.add_argument("--out", help="output directory")


def cmd_validate(config: ExperimentConfig) -> int:
    """Print the validation gates; exit 0 only if every gate passes. They
    are the checks that the commands run before any path, for every step
    that the config's commands take."""
    params, label = config.params, "parameter"
    try:
        check = validate_params(params)
        print(f"regime: {check.regime.value}")
        if check.critical_moment_cap is not None:
            print(f"critical moment cap: {check.critical_moment_cap!r}")
        label = "jump"
        bounds = validate_jump(config.jump, params)
        print(
            f"jump {config.jump.label}: mu={bounds.mu!r} r={bounds.r!r} "
            f"band=[{bounds.mu1!r}, {bounds.mu2!r}]"
            + (" (sampled only)" if bounds.sampled else "")
        )
        steps = [("tjabem", m) for m in config.m_list]
        if config.m_ref is not None:
            # the config has a ladder: convergence's own gates
            label = "band"
            check_band(config.jump, bounds)
            label = "ladder"
            check_ladder(config.m_list, config.m_ref)
            check_schemes(config.scheme, config.n_paths)
            steps.append(("tjabem", config.m_ref))
        elif not bounds.band_positive:
            print(
                "warning: transform band not bounded away from zero; convergence "
                "theory unavailable (positivity unaffected)"
            )
        if config.scheme in ("bem", "both"):
            steps.append(("bem", config.m_list[0]))
        label = "moments"
        check_moments(params, config.n_paths, _default_orders(params))
        label = "initial-state"
        check_paths(params, [])
        q = one_sided_lipschitz(params)
        print(f"Q: {q!r}")
        label = "step-size"
        for scheme, m in steps:
            (q_dt,) = check_paths(params, [(scheme, m)])
            print(f"{'' if scheme == 'tjabem' else 'bem '}M={m}: Q*dt={q_dt!r} ok")
    except (InvalidModelError, MeshError) as exc:
        print(f"FAIL {label} gate: {exc}")
        return 1

    epsilon = _epsilon_bound(params) / 2.0
    # gamma barely above 2*rho - 1 can round the epsilon interval to empty
    if check.regime is Regime.SUPERCRITICAL and epsilon > 0.0:
        diag = step_size_diagnostics(params, q, params.T / config.m_list[0], epsilon)
        print(
            f"small-step diagnostics (epsilon={epsilon!r}): "
            f"power_condition={diag.power_condition_ok} "
            f"epsilon_condition={diag.epsilon_condition_ok} (advisory)"
        )
    print("all gates passed")
    return 0


def cmd_simulate(config: ExperimentConfig, path_index: int, mesh_only: bool) -> int:
    """Write one trajectory (or just its mesh) for inspection. The path is
    opened and stepped as the moment probe opens and steps its paths."""
    if path_index < 0:
        raise InvalidModelError(f"--path-index must be at least 0, got {path_index}")
    params = config.params
    validate_params(params)
    validate_jump(config.jump, params)
    m = config.m_list[0]
    if not mesh_only:
        check_paths(params, [("tjabem", m)])
    out_dir = Path(config.out_dir)
    try:
        path = open_shared_path(params.lam, [(params.T, m)], config.global_seed, path_index)
        mesh = build_mesh(m, params.T, path.jump_times)
        if mesh_only:
            written = write_mesh_csv(mesh, out_dir / "mesh.csv")
            print(f"wrote {written}")
            return 0
        *_, z_pre, z_post = tjabem_lanes([(params, config.jump)],
                                         mesh_block([path], params.T, m), states=True)
        x_terminal = lamperti_inverse(params.rho, float(z_post[0, 0, -1]))
        written = write_trajectory_csv(
            params, TrajectoryZ(mesh, z_pre[0, 0], z_post[0, 0]), out_dir / "trajectory.csv"
        )
    except _PATH_ERRORS as exc:
        # a path that fails after validation is a runtime failure (exit 2)
        raise _replay_failure(exc, config.global_seed, path_index) from exc
    print(f"wrote {written} (terminal x = {x_terminal!r})")
    return 0


def cmd_convergence(config: ExperimentConfig) -> int:
    if config.m_ref is None:
        raise InvalidModelError("convergence needs m_ref in the [ladder] section")
    reports = strong_error_ladder(
        config.params,
        config.jump,
        config.scheme,
        config.m_list,
        config.m_ref,
        config.n_paths,
        config.global_seed,
        parallelism=config.parallelism,
    )
    written = write_convergence_reports(reports, Path(config.out_dir), config.echo())
    for name, report in reports.items():
        print(
            f"{name}: slope={report.slope:.4f} r_squared={report.r_squared:.4f} "
            f"({report.n_paths} paths)"
        )
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_positivity(args: argparse.Namespace) -> int:
    names = [tok.strip() for tok in (args.presets or "set1,set2").split(",") if tok.strip()]
    if not names:
        raise InvalidModelError(f"--presets {args.presets!r} names no preset or config file")
    # config file paths are allowed alongside bundled preset names
    paths = [_preset_path(name) if name in PRESET_NAMES else Path(name) for name in names]
    # the first set's run settings and flags make the run: positivity_table
    # reads only the other sets' parameters, at the first set's lambda
    base = _resolve(argparse.Namespace(**{**vars(args), "config": paths[0]}))
    param_sets = [(paths[0].stem, base.params)]
    param_sets += [(path.stem, load_config(path).params) for path in paths[1:]]
    if args.h:
        jumps = [_parse_jump_flag(args.h)]
    else:
        jumps = [make_jump(f, p) for f, p in POSITIVITY_JUMPS]
    dt_list = [base.params.T / m for m in base.m_list[:3]]
    report = positivity_table(
        param_sets,
        jumps,
        dt_list,
        base.params.lam,
        base.n_paths,
        base.global_seed,
        parallelism=base.parallelism,
    )
    written = write_positivity_report(report, Path(base.out_dir), base.echo())
    worst = max((cell.percent for cell in report.cells), default=0.0)
    print(f"{len(report.cells)} cells, max nonpositive percent = {worst!r}")
    for path in written:
        print(f"wrote {path}")
    return 0


def _default_orders(params: ModelParams) -> tuple[float, ...]:
    """DEFAULT_P_LIST without the orders at or above the critical regime's
    moment cap, which moment_probe refuses; p = 1 and the negative orders
    always stay, since validation requires a cap above 1."""
    cap = validate_params(params).critical_moment_cap
    return tuple(p for p in DEFAULT_P_LIST if cap is None or p < cap)


def cmd_moments(config: ExperimentConfig, p_list: tuple[float, ...]) -> int:
    report = moment_probe(
        config.params,
        config.jump,
        config.m_list[0],
        config.n_paths,
        p_list,
        config.global_seed,
        parallelism=config.parallelism,
    )
    written = write_moment_report(report, Path(config.out_dir), config.echo())
    for row in report.rows:
        print(
            f"p={row.p:g}: sup={row.sup_moment!r} (se {row.sup_stderr:.3g}) "
            f"terminal={row.terminal_moment!r} (se {row.terminal_stderr:.3g})"
        )
    for path in written:
        print(f"wrote {path}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jumpsde",
        description=(
            "Positivity-preserving implicit schemes and Monte Carlo experiments "
            "for a jump-extended mean-reverting interest-rate model"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check configuration gates")
    _add_common_flags(p_validate)

    p_simulate = sub.add_parser("simulate", help="dump one trajectory")
    _add_common_flags(p_simulate)
    p_simulate.add_argument("--path-index", type=int, default=0)
    p_simulate.add_argument(
        "--mesh-only", action="store_true", help="write only the mesh nodes"
    )

    p_conv = sub.add_parser("convergence", help="strong-error ladder and order fit")
    _add_common_flags(p_conv)

    p_pos = sub.add_parser("positivity", help="nonpositive-value table")
    _add_common_flags(p_pos)
    p_pos.add_argument(
        "--presets", help="comma-separated preset list (default set1,set2)"
    )

    p_mom = sub.add_parser("moments", help="empirical moment table")
    _add_common_flags(p_mom)
    p_mom.add_argument(
        "--p-list",
        help="comma-separated moment orders (default 1,2,-1,-2, without those "
        "at or above a critical regime's moment cap)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "positivity":
            return cmd_positivity(args)
        config = _resolve(args)
        if args.command == "validate":
            return cmd_validate(config)
        if args.command == "simulate":
            return cmd_simulate(config, args.path_index, args.mesh_only)
        if args.command == "convergence":
            return cmd_convergence(config)
        if args.command == "moments":
            if args.p_list is None:
                return cmd_moments(config, _default_orders(config.params))
            return cmd_moments(config, _parse_p_list(args.p_list))
        raise AssertionError(f"unhandled command {args.command}")
    except (InvalidModelError, MeshError) as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        # a PathFailure's message already names its replay pair
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
