"""Command-line front end.

Subcommands: analyze | simulate | optimize | sweep | compare.  The config is
a flat ``key = value`` text file; dB-valued keys are converted to linear at
parse time and both forms land in the run manifest.  Exit codes: 0 success,
2 config error, 3 numerical or infeasibility error.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from . import access, analytic, planner, simkit
from .access import SchemeSpec
from .analytic import SystemParams
from .errors import ConfigError, NumericalError, ParameterError
from .simkit import ExperimentConfig
from .spatial import Window

DEFAULTS = {
    "lambda_m": "1e-6",
    "lambda_d": "6e-5",
    "d": "50",
    "alpha": "4",
    "beta_db": "5",
    "gamma_db": "0",
    "p_c_mw": "10",
    "p_d_mw": "0.1",
    "mu": "0.3",
    "window_m": "3000",
    "topology": "torus",
    "n_realizations": "4000",
    "seed": "1",
    "n_jobs": "1",
    "rate_ceiling": "30",
    "collect_sir_samples": "false",
    "refresh_fading": "false",
    "ccdf_points_db": "",
    "scheme.kind": "no_ac",
}

def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def linear_to_db(linear: float) -> float:
    return 10.0 * math.log10(linear)


def parse_config_file(path: Path) -> dict:
    """Read ``key = value`` lines; '#' starts a comment."""
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        raw[key] = value
    return raw


def _parse_float(text: str, field: str) -> float:
    """A finite float, or a ConfigError naming ``field``."""
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"{field} is not a number: {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{field} must be finite, got {text!r}")
    return value


def _parse_float_list(text: str, field: str) -> list[float]:
    return [_parse_float(tok, field) for tok in text.split(",") if tok.strip()]


def _get_float(raw: dict, key: str) -> float:
    return _parse_float(raw[key], f"config field {key!r}")


def _get_int(raw: dict, key: str) -> int:
    try:
        return int(raw[key])
    except ValueError:
        raise ConfigError(f"config field {key!r} is not an integer: {raw[key]!r}") from None


def _get_bool(raw: dict, key: str) -> bool:
    value = raw[key].strip().lower()
    if value in ("true", "1", "yes", "on"):
        return True
    if value in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"config field {key!r} is not a boolean: {raw[key]!r}")


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration for one CLI invocation."""

    params: SystemParams
    scheme: SchemeSpec
    window: Window
    n_realizations: int
    seed: int
    n_jobs: int
    mu: float
    rate_ceiling: float
    collect_sir_samples: bool
    refresh_fading: bool
    ccdf_points_db: tuple
    raw: dict

    def experiment(self) -> ExperimentConfig:
        return ExperimentConfig(
            params=self.params,
            scheme=self.scheme,
            window=self.window,
            n_realizations=self.n_realizations,
            seed=self.seed,
            n_jobs=self.n_jobs,
            refresh_fading_between_phases=self.refresh_fading,
            rate_ceiling=self.rate_ceiling,
            collect_sir_samples=self.collect_sir_samples,
            ccdf_points_db=self.ccdf_points_db,
        )

    def constraint(self) -> planner.ConstraintSpec:
        return planner.ConstraintSpec(mu=self.mu, gamma=self.params.gamma)

    def resolved_dict(self) -> dict:
        out = dict(sorted(self.raw.items()))
        out["beta_linear"] = self.params.beta
        out["gamma_linear"] = self.params.gamma
        if self.scheme.g is not None:
            out["scheme.g_linear"] = self.scheme.g
        return out


def resolve_config(raw: dict, seed_override: int | None = None) -> RunConfig:
    merged = dict(DEFAULTS)
    merged.update(raw)
    if seed_override is not None:
        merged["seed"] = str(seed_override)
    known = set(DEFAULTS) | {"scheme.delta", "scheme.g_db", "scheme.p_s", "scheme.g_min"}
    unknown = set(merged) - known
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    try:
        params = SystemParams(
            lambda_m=_get_float(merged, "lambda_m"),
            lambda_d=_get_float(merged, "lambda_d"),
            d=_get_float(merged, "d"),
            alpha=_get_float(merged, "alpha"),
            p_c_mw=_get_float(merged, "p_c_mw"),
            p_d_mw=_get_float(merged, "p_d_mw"),
            beta=db_to_linear(_get_float(merged, "beta_db")),
            gamma=db_to_linear(_get_float(merged, "gamma_db")),
        )
    except ParameterError as exc:
        raise ConfigError(f"invalid system parameters: {exc}") from None
    scheme_fields: dict = {"kind": merged["scheme.kind"]}
    if "scheme.delta" in merged:
        scheme_fields["delta"] = _get_float(merged, "scheme.delta")
    if "scheme.g_db" in merged:
        scheme_fields["g"] = db_to_linear(_get_float(merged, "scheme.g_db"))
    if "scheme.p_s" in merged:
        scheme_fields["p_s"] = _get_float(merged, "scheme.p_s")
    if "scheme.g_min" in merged:
        scheme_fields["g_min"] = _get_float(merged, "scheme.g_min")
    try:
        scheme = SchemeSpec.from_dict(scheme_fields)
    except ParameterError as exc:
        raise ConfigError(f"invalid scheme config: {exc}") from None
    mu = _get_float(merged, "mu")
    if not 0 <= mu <= 1:
        raise ConfigError("config field 'mu' must be in [0, 1]")
    window_m = _get_float(merged, "window_m")
    topology = merged["topology"]
    try:
        window = Window(window_m, window_m, topology=topology)
    except ParameterError as exc:
        raise ConfigError(f"invalid window config: {exc}") from None
    ccdf = tuple(_parse_float_list(merged["ccdf_points_db"], "config field 'ccdf_points_db'"))
    seed = _get_int(merged, "seed")
    if seed < 0:
        raise ConfigError(f"config field 'seed' must be nonnegative, got {seed}")
    return RunConfig(
        params=params,
        scheme=scheme,
        window=window,
        n_realizations=_get_int(merged, "n_realizations"),
        seed=seed,
        n_jobs=_get_int(merged, "n_jobs"),
        mu=mu,
        rate_ceiling=_get_float(merged, "rate_ceiling"),
        collect_sir_samples=_get_bool(merged, "collect_sir_samples"),
        refresh_fading=_get_bool(merged, "refresh_fading"),
        ccdf_points_db=ccdf,
        raw=merged,
    )


def serialize_config(rc: RunConfig) -> str:
    """Emit the resolved config as a parseable flat key=value file."""
    return "".join(f"{key} = {value}\n" for key, value in sorted(rc.raw.items()))


def _config_hash(rc: RunConfig) -> str:
    payload = json.dumps(rc.resolved_dict(), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _emit(out_dir: Path, subcommand: str, config_path: str, rc: RunConfig,
          files: dict, started: float):
    """Write output files plus the manifest."""
    emitted = []
    for name, content in files.items():
        path = out_dir / name
        if isinstance(content, dict):
            _write_json(path, content)
        else:
            path.write_text(content)
        emitted.append(name)
    manifest = {   # what the invocation produced, for provenance and reruns
        "subcommand": subcommand,
        "config_path": config_path,
        "out_dir": str(out_dir),
        "config_hash": _config_hash(rc),
        "files": sorted(emitted + ["manifest.json"]),
        "duration_s": time.monotonic() - started,
        "config_resolved": rc.resolved_dict(),
    }
    _write_json(out_dir / "manifest.json", manifest)


def _active_density(rc: RunConfig) -> float:
    scheme = rc.scheme
    if scheme.kind == access.NO_AC or scheme.kind == access.GUARD_ZONE_ONLY:
        return rc.params.lambda_d
    if scheme.p_s is not None:
        return scheme.p_s * rc.params.lambda_d
    if scheme.g is not None:
        return analytic.access_prob_from_threshold(scheme.g, rc.params) * rc.params.lambda_d
    if scheme.g_min is not None:
        p_ac = math.exp(-scheme.g_min * rc.params.d ** rc.params.alpha)
        return p_ac * rc.params.lambda_d
    return rc.params.lambda_d


def cmd_analyze(rc: RunConfig) -> dict:
    params = rc.params
    delta = rc.scheme.delta if rc.scheme.delta is not None else 0.0
    p_max = analytic.max_cellular_coverage(params)
    density = _active_density(rc)
    table = {
        "d2d_success_prob": analytic.d2d_success_prob(params.beta, params),
        "d2d_ase_guard_zone_only": analytic.d2d_ase_step1(params.beta, delta, params),
        "p_max_c": p_max,
        "coverage_floor": (1.0 - rc.mu) * p_max,
        "cellular_coverage": analytic.cellular_coverage(params.gamma, density, delta, params),
        "active_density": density,
        "guard_radius": delta,
    }
    return table


COMPARE_SCHEMES = ("proposed", "channel_aware", "guard_zone_only", "no_ac")
CHANNEL_AWARE_P_AC = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


def tune_channel_aware(rc: RunConfig, n_tuning: int = 250) -> SchemeSpec:
    """Pick the access probability in ``CHANNEL_AWARE_P_AC`` (and matching
    guard radius) with the best measured fixed-rate ASE, subject to the
    analytic coverage floor."""
    best = None
    for p_ac in CHANNEL_AWARE_P_AC:
        try:
            delta = planner.solve_guard_radius(p_ac, rc.constraint(), rc.params)
        except NumericalError:
            continue
        scheme = SchemeSpec(kind=access.CHANNEL_AWARE, delta=delta, p_s=p_ac)
        config = dataclasses.replace(rc.experiment(), scheme=scheme,
                                     n_realizations=n_tuning)
        report = simkit.run_experiment(config)
        if best is None or report.ase.mean > best[0]:
            best = (report.ase.mean, scheme)
    if best is None:
        raise NumericalError("no channel-aware operating point meets the coverage floor")
    return best[1]


def compare_schemes(rc: RunConfig, subset=COMPARE_SCHEMES, n_tuning: int = 250) -> dict:
    """Table of coverage / sum-rate metrics for the access schemes, one shared seed."""
    plan = planner.decoupled_optimize(rc.params, rc.constraint())
    schemes: dict[str, SchemeSpec] = {}
    if "proposed" in subset:
        schemes["proposed"] = SchemeSpec(kind=access.PROPOSED_THRESHOLD,
                                         delta=plan.delta_star, g=plan.g_star)
    if "channel_aware" in subset:
        schemes["channel_aware"] = tune_channel_aware(rc, n_tuning=n_tuning)
    if "guard_zone_only" in subset:
        delta_gz = planner.solve_guard_radius(1.0, rc.constraint(), rc.params)
        schemes["guard_zone_only"] = SchemeSpec(kind=access.GUARD_ZONE_ONLY, delta=delta_gz)
    if "no_ac" in subset:
        schemes["no_ac"] = SchemeSpec(kind=access.NO_AC)
    rows = {}
    for name, scheme in schemes.items():
        config = dataclasses.replace(rc.experiment(), scheme=scheme)
        report = simkit.run_experiment(config)
        rows[name] = {
            "scheme": scheme.to_dict(),
            "r_d": report.r_d.mean,
            "r_c": report.r_c.mean,
            "cellular_coverage": report.cellular_coverage.mean,
            "ase": report.ase.mean,
            "paired_seeds": True,   # every scheme reuses the same realizations
        }
    return {"plan": plan.to_dict(), "rows": rows, "seed": rc.seed}


def _compare_csv(result: dict) -> str:
    lines = ["scheme,r_d,r_c,cellular_coverage,ase,paired_seeds"]
    for name, row in result["rows"].items():
        lines.append(f"{name},{row['r_d']!r},{row['r_c']!r},"
                     f"{row['cellular_coverage']!r},{row['ase']!r},{row['paired_seeds']}")
    return "\n".join(lines) + "\n"


def _report_csv(report: simkit.MetricsReport) -> str:
    lines = ["metric,mean,ci_low,ci_high,n"]
    for row in report.csv_rows():
        lines.append(f"{row['metric']},{row['mean']!r},{row['ci_low']!r},"
                     f"{row['ci_high']!r},{row['n']}")
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="d2dsim",
                                     description="D2D underlay access simulator and optimizer")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in ("analyze", "simulate", "optimize", "sweep", "compare"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the flat key=value config file")
        p.add_argument("--out", default=None, help="output directory (default: ./d2dsim-out)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if name == "sweep":
            p.add_argument("--axis", required=True, choices=simkit.SWEEP_AXES)
            p.add_argument("--values", required=True,
                           help="comma-separated list of axis values")
        if name == "compare":
            p.add_argument("--scheme", action="append", choices=COMPARE_SCHEMES,
                           help="restrict the comparison to these schemes")
            p.add_argument("--tuning-realizations", type=int, default=250)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        rc = resolve_config(parse_config_file(Path(args.config)), seed_override=args.seed)
        if args.subcommand in ("simulate", "sweep", "compare"):
            rc.experiment()   # rejects bad Monte Carlo fields before any work
        if args.subcommand == "sweep":
            values = _parse_float_list(args.values, "--values")
            if not values:
                raise ConfigError("sweep needs a nonempty --values list")
        if args.subcommand == "compare" and args.tuning_realizations < 1:
            raise ConfigError(f"--tuning-realizations must be at least 1, "
                              f"got {args.tuning_realizations}")
        out_dir = Path(args.out or "d2dsim-out")
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create --out directory {out_dir}: {exc}") from None
        if args.subcommand == "analyze":
            table = cmd_analyze(rc)
            for key, value in table.items():
                print(f"{key:28s} {value:.6g}")
            _emit(out_dir, "analyze", args.config, rc, {"analyze.json": table}, started)
        elif args.subcommand == "simulate":
            report = simkit.run_experiment(rc.experiment())
            print(_report_csv(report), end="")
            _emit(out_dir, "simulate", args.config, rc,
                  {"report.json": report.to_dict(), "report.csv": _report_csv(report)}, started)
        elif args.subcommand == "optimize":
            plan = planner.decoupled_optimize(rc.params, rc.constraint())
            payload = plan.to_dict()
            payload["g_star_db"] = linear_to_db(plan.g_star) if plan.g_star > 0 else None
            for key, value in payload.items():
                print(f"{key:22s} {value}")
            _emit(out_dir, "optimize", args.config, rc, {"plan.json": payload}, started)
        elif args.subcommand == "sweep":
            results = simkit.sweep(rc.experiment(), args.axis, values)
            csv_text = simkit.sweep_to_csv(args.axis, results)
            print(csv_text, end="")
            _emit(out_dir, "sweep", args.config, rc, {"sweep.csv": csv_text}, started)
        elif args.subcommand == "compare":
            subset = tuple(args.scheme) if args.scheme else COMPARE_SCHEMES
            result = compare_schemes(rc, subset=subset, n_tuning=args.tuning_realizations)
            csv_text = _compare_csv(result)
            print(csv_text, end="")
            _emit(out_dir, "compare", args.config, rc,
                  {"compare.json": result, "compare.csv": csv_text}, started)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
