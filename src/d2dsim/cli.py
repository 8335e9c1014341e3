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


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def linear_to_db(linear: float) -> float:
    return 10.0 * math.log10(linear)


def parse_config_file(path: Path) -> dict:
    """Read ``key = value`` lines, each key at most once; '#' starts a comment."""
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    raw, first_line = {}, {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in first_line:
            raise ConfigError(f"{path}:{lineno}: key {key!r} repeats line {first_line[key]}")
        first_line[key] = lineno
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


def _parse_floats(text: str, field: str) -> tuple[float, ...]:
    """A comma-separated list of finite floats; empty items are skipped."""
    return tuple(_parse_float(tok, field) for tok in text.split(",") if tok.strip())


def _parse_db(text: str, field: str) -> float:
    """The dB value ``text`` in linear units."""
    try:
        return db_to_linear(_parse_float(text, field))
    except OverflowError:
        raise ConfigError(f"{field} is too large: {text!r} dB") from None


def _parse_int(text: str, field: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{field} is not an integer: {text!r}") from None


def _parse_bool(text: str, field: str) -> bool:
    value = text.strip().lower()
    if value in ("true", "1", "yes", "on"):
        return True
    if value in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"{field} is not a boolean: {text!r}")


def _parse_text(text: str, field: str) -> str:
    return text


# Every config key: its default text (None: optional, no default), the parser
# of its text and the constructor argument it fills, named by its group:
# SystemParams ("params"), SchemeSpec ("scheme"), Window ("window", whose side
# is both width and height) or RunConfig ("run").
FIELDS = (
    ("lambda_m", "1e-6", _parse_float, "params", "lambda_m"),
    ("lambda_d", "6e-5", _parse_float, "params", "lambda_d"),
    ("d", "50", _parse_float, "params", "d"),
    ("alpha", "4", _parse_float, "params", "alpha"),
    ("beta_db", "5", _parse_db, "params", "beta"),
    ("gamma_db", "0", _parse_db, "params", "gamma"),
    ("p_c_mw", "10", _parse_float, "params", "p_c_mw"),
    ("p_d_mw", "0.1", _parse_float, "params", "p_d_mw"),
    ("mu", "0.3", _parse_float, "run", "mu"),
    ("window_m", "3000", _parse_float, "window", "side"),
    ("topology", "torus", _parse_text, "window", "topology"),
    ("n_realizations", "4000", _parse_int, "run", "n_realizations"),
    ("seed", "1", _parse_int, "run", "seed"),
    ("n_jobs", "1", _parse_int, "run", "n_jobs"),
    ("rate_ceiling", "30", _parse_float, "run", "rate_ceiling"),
    ("refresh_fading", "false", _parse_bool, "run", "refresh_fading_between_phases"),
    ("ccdf_points_db", "", _parse_floats, "run", "ccdf_points_db"),
    ("scheme.kind", "no_ac", _parse_text, "scheme", "kind"),
    ("scheme.delta", None, _parse_float, "scheme", "delta"),
    ("scheme.g_db", None, _parse_db, "scheme", "g"),
    ("scheme.p_s", None, _parse_float, "scheme", "p_s"),
    ("scheme.g_min", None, _parse_float, "scheme", "g_min"),
)


@dataclass(frozen=True, kw_only=True)
class RunConfig(ExperimentConfig):
    """Fully resolved configuration for one CLI invocation: the experiment
    plus the coverage-loss budget and the raw config fields."""

    mu: float
    raw: dict

    def __post_init__(self):
        super().__post_init__()
        self.constraint()   # ConstraintSpec range-checks mu

    def constraint(self) -> planner.ConstraintSpec:
        return planner.ConstraintSpec(mu=self.mu)

    def resolved_dict(self) -> dict:
        """The raw fields plus, for each dB key that is set, its linear value
        under the key with ``_db`` replaced by ``_linear``."""
        out = dict(sorted(self.raw.items()))
        for key, _, parse, group, arg in FIELDS:
            linear = getattr(getattr(self, group), arg) if parse is _parse_db else None
            if linear is not None:
                out[key.removesuffix("_db") + "_linear"] = linear
        return out


def resolve_config(raw: dict, seed_override: int | None = None) -> RunConfig:
    merged = {key: default for key, default, *_ in FIELDS if default is not None}
    merged.update(raw)
    if seed_override is not None:
        merged["seed"] = str(seed_override)
    unknown = set(merged) - {key for key, *_ in FIELDS}
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    args: dict = {"params": {}, "scheme": {}, "window": {}, "run": {}}
    for key, _, parse, group, arg in FIELDS:
        if key in merged:
            args[group][arg] = parse(merged[key], f"config field {key!r}")
    try:
        params = SystemParams(**args["params"])
    except ParameterError as exc:
        raise ConfigError(f"invalid system parameters: {exc}") from None
    try:
        scheme = SchemeSpec(**args["scheme"])
    except ParameterError as exc:
        raise ConfigError(f"invalid scheme config: {exc}") from None
    side, topology = args["window"]["side"], args["window"]["topology"]
    try:
        window = Window(side, side, topology=topology)
    except ParameterError as exc:
        raise ConfigError(f"invalid window config (window_m = {side!r}): {exc}") from None
    return RunConfig(params=params, scheme=scheme, window=window, raw=merged, **args["run"])


def _config_hash(rc: RunConfig) -> str:
    payload = json.dumps(rc.resolved_dict(), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _stat_rows(report: simkit.MetricsReport, **lead) -> list[dict]:
    """One row per statistic of ``report``, after the ``lead`` columns."""
    return [{**lead, "metric": name, **dataclasses.asdict(getattr(report, name))}
            for name in simkit.STATS]


def _csv(rows: list[dict]) -> str:
    """Every CSV the CLI writes: a header of the first row's keys, then one
    line per row; text as is, numbers by ``repr`` so every digit survives."""
    lines = [",".join(rows[0])]
    lines += [",".join(v if isinstance(v, str) else repr(v) for v in row.values()) for row in rows]
    return "\n".join(lines) + "\n"


def _emit(out_dir: Path, subcommand: str, config_path: str, rc: RunConfig,
          files: dict, started: tuple):
    """Write output files plus the manifest: a dict as JSON, a list of rows
    as CSV, which is also printed.  ``started`` holds the clock, the
    keep-out memo counters and the guard-radius probe counts read when the
    invocation began, so the diagnostics count this invocation only."""
    for name, content in files.items():
        if isinstance(content, dict):
            _write_json(out_dir / name, content)
        else:
            text = _csv(content)
            print(text, end="")
            (out_dir / name).write_text(text)
    clock, before, probes = started
    after = analytic._keepout_average.cache_info()
    manifest = {   # what the invocation produced, for provenance and reruns
        "subcommand": subcommand,
        "config_path": config_path,
        "out_dir": str(out_dir),
        "config_hash": _config_hash(rc),
        "files": sorted([*files, "manifest.json"]),
        "duration_s": time.monotonic() - clock,
        "config_resolved": rc.resolved_dict(),
        "diagnostics": {"keepout_cache": {
            "hits": after.hits - before.hits,
            "misses": after.misses - before.misses,
            "currsize": after.currsize,
        }, "guard_radius": {
            name: count - probes[name] for name, count in planner.PROBE_COUNTS.items()
        }},
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
    p_ac = math.exp(-scheme.g_min * rc.params.d ** rc.params.alpha)   # channel_aware by g_min
    return p_ac * rc.params.lambda_d


def cmd_analyze(rc: RunConfig) -> dict:
    params = rc.params
    delta = rc.scheme.delta if rc.scheme.delta is not None else 0.0
    p_max, floor = planner.coverage_floor(rc.constraint(), params)
    density = _active_density(rc)
    analytic.warn_if_loose(delta, params.lambda_m)
    table = {
        "d2d_success_prob": analytic.d2d_success_prob(params.beta, params),
        "d2d_ase_guard_zone_only": analytic.d2d_ase_step1(params.beta, delta, params),
        "p_max_c": p_max,
        "coverage_floor": floor,
        "cellular_coverage": analytic.cellular_coverage(params.gamma, density, delta, params),
        "active_density": density,
        "guard_radius": delta,
    }
    return table


def planned_scheme(kind: str, plan: planner.PlanResult) -> SchemeSpec:
    """The ``proposed_*`` scheme of ``kind`` at ``plan``'s operating point."""
    if kind == access.PROPOSED_TOP_FRACTION:
        return SchemeSpec(kind=kind, delta=plan.delta_star, p_s=plan.p_s_star)
    return SchemeSpec(kind=kind, delta=plan.delta_star, g=plan.g_star)


COMPARE_SCHEMES = ("proposed", "channel_aware", "guard_zone_only", "no_ac")
CHANNEL_AWARE_P_AC = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
TUNING_REALIZATIONS = 250   # networks the channel-aware tuning measures by default


def _channel_aware_grid(rc: RunConfig) -> list[SchemeSpec]:
    """The channel-aware scheme at each access probability in
    ``CHANNEL_AWARE_P_AC`` whose guard radius meets the coverage floor."""
    schemes = []
    for p_ac in CHANNEL_AWARE_P_AC:
        try:
            delta = planner.solve_guard_radius(p_ac, rc.constraint(), rc.params)
        except NumericalError:
            continue
        schemes.append(SchemeSpec(kind=access.CHANNEL_AWARE, delta=delta, p_s=p_ac))
    if not schemes:
        raise NumericalError("no channel-aware operating point meets the coverage floor")
    return schemes


def _best_ase(rc: RunConfig, per_real: list) -> int:
    """Position of the scheme with the best measured fixed-rate ASE over the
    per-realization metrics ``per_real``; the first of equal maxima wins."""
    reports = [simkit.aggregate(rc, list(column)) for column in zip(*per_real)]
    return max(range(len(reports)), key=lambda i: reports[i].ase.mean)


def _check_tuning(n_tuning: int):
    if n_tuning < 1:
        raise ParameterError(f"n_tuning must be at least 1, got {n_tuning}")


def tune_channel_aware(rc: RunConfig, n_tuning: int = TUNING_REALIZATIONS) -> SchemeSpec:
    """Pick the access probability in ``CHANNEL_AWARE_P_AC`` (and matching
    guard radius) with the best fixed-rate ASE measured on networks
    ``0 … n_tuning - 1``, subject to the analytic coverage floor."""
    _check_tuning(n_tuning)
    grid = _channel_aware_grid(rc)
    return grid[_best_ase(rc, simkit.measure_schemes(rc, grid, range(n_tuning)))]


def compare_schemes(rc: RunConfig, subset=COMPARE_SCHEMES,
                    n_tuning: int = TUNING_REALIZATIONS) -> dict:
    """Table of coverage / sum-rate metrics for the access schemes, one shared seed.

    The channel-aware grid is measured with the other schemes on networks
    ``0 … n_tuning - 1``, and its best point (see :func:`tune_channel_aware`)
    keeps those metrics for its row, so each network is sampled once.  The
    guard-zone-only radius is the grid's at access probability 1 when the
    grid has that point.
    """
    _check_tuning(n_tuning)
    plan = planner.decoupled_optimize(rc.params, rc.constraint())
    grid = _channel_aware_grid(rc) if "channel_aware" in subset else []
    schemes: dict[str, SchemeSpec] = {}
    if "proposed" in subset:
        schemes["proposed"] = planned_scheme(access.PROPOSED_THRESHOLD, plan)
    if "guard_zone_only" in subset:
        delta_gz = next((s.delta for s in grid if s.p_s == 1.0), None)
        if delta_gz is None:
            delta_gz = planner.solve_guard_radius(1.0, rc.constraint(), rc.params)
        schemes["guard_zone_only"] = SchemeSpec(kind=access.GUARD_ZONE_ONLY, delta=delta_gz)
    if "no_ac" in subset:
        schemes["no_ac"] = SchemeSpec(kind=access.NO_AC)
    fixed, n = list(schemes.values()), rc.n_realizations
    n_head = min(n, n_tuning) if grid else 0
    head = simkit.measure_schemes(rc, fixed + grid, range(n_head))
    if grid:   # networks past the table's, if any, serve the tuning alone
        tuning = [row[len(fixed):] for row in head]
        best = _best_ase(rc, tuning + simkit.measure_schemes(rc, grid, range(n, n_tuning)))
        schemes["channel_aware"] = grid[best]
        head = [row[:len(fixed)] + [row[len(fixed) + best]] for row in head]
    per_real = head + simkit.measure_schemes(rc, list(schemes.values()), range(n_head, n))
    columns = dict(zip(schemes, zip(*per_real)))
    rows = {}
    for name in sorted(schemes, key=COMPARE_SCHEMES.index):
        report = simkit.aggregate(rc, list(columns[name]))
        rows[name] = {
            "scheme": schemes[name].to_dict(),
            "r_d": report.r_d.mean,
            "r_c": report.r_c.mean,
            "cellular_coverage": report.cellular_coverage.mean,
            "ase": report.ase.mean,
            "paired_seeds": True,   # every scheme reuses the same realizations
        }
    return {"plan": plan.to_dict(), "rows": rows, "seed": rc.seed}


SWEEP_AXES = simkit.SWEEP_AXES + ("mu",)
MONTE_CARLO_SUBCOMMANDS = ("simulate", "sweep", "compare")


def sweep_mu(configs: list[RunConfig]) -> list[tuple[float, simkit.MetricsReport]]:
    """One report per config, at the plan for that config's own ``mu``; the
    configs differ only in ``mu``, so every plan runs on the same realizations."""
    schemes = [planned_scheme(c.scheme.kind, planner.decoupled_optimize(c.params, c.constraint()))
               for c in configs]
    return list(zip([c.mu for c in configs], simkit.run_schemes(configs[0], schemes)))


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
            p.add_argument("--axis", required=True, choices=SWEEP_AXES)
            p.add_argument("--values", required=True,
                           help="comma-separated list of axis values")
        if name == "compare":
            p.add_argument("--scheme", action="append", choices=COMPARE_SCHEMES,
                           help="restrict the comparison to these schemes")
            p.add_argument("--tuning-realizations", type=int, default=TUNING_REALIZATIONS)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = (time.monotonic(), analytic._keepout_average.cache_info(),
               dict(planner.PROBE_COUNTS))
    try:
        rc = resolve_config(parse_config_file(Path(args.config)), seed_override=args.seed)
        if args.subcommand == "sweep":
            values = _parse_floats(args.values, "--values")
            if not values:
                raise ConfigError("sweep needs a nonempty --values list")
            if args.axis == "mu":
                if rc.scheme.kind not in access.PROPOSED_KINDS:
                    raise ConfigError(f"the mu axis needs a proposed_* scheme.kind, "
                                      f"got {rc.scheme.kind!r}")
                swept = [dataclasses.replace(rc, mu=v) for v in values]
            else:
                simkit.check_sweep(rc, args.axis, values)
        if args.subcommand in MONTE_CARLO_SUBCOMMANDS:
            rc.check_sampling()
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
            files = {"analyze.json": table}
        elif args.subcommand == "simulate":
            report = simkit.run_experiment(rc)
            files = {"report.json": dataclasses.asdict(report), "report.csv": _stat_rows(report)}
        elif args.subcommand == "optimize":
            plan = planner.decoupled_optimize(rc.params, rc.constraint())
            payload = plan.to_dict()
            payload["g_star_db"] = linear_to_db(plan.g_star) if plan.g_star > 0 else None
            for key, value in payload.items():
                print(f"{key:22s} {value}")
            files = {"plan.json": payload}
        elif args.subcommand == "sweep":
            results = sweep_mu(swept) if args.axis == "mu" else simkit.sweep(rc, args.axis, values)
            files = {"sweep.csv": [row for value, report in results
                                   for row in _stat_rows(report, axis=args.axis, value=value)]}
        else:
            subset = tuple(args.scheme) if args.scheme else COMPARE_SCHEMES
            result = compare_schemes(rc, subset=subset, n_tuning=args.tuning_realizations)
            # a row's "scheme" key keeps its place and takes the scheme's name
            files = {"compare.json": result, "compare.csv": [
                {**row, "scheme": name} for name, row in result["rows"].items()]}
        _emit(out_dir, args.subcommand, args.config, rc, files, started)
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
