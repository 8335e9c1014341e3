"""The benchmark's workloads: their inputs, operations and output checks.

``simulate`` and ``compare`` are the ones BENCHMARK.json lists; ``oracle``
and ``plan`` are run by hand (README.md says why).

Every workload repeats a *round*, a fixed list of operations drawn from the
workload seed.  An operation is one CLI call made in-process through
``d2dsim.cli.main`` (the oracle, which has no subcommand, calls
``planner.exhaustive_search``).  Monte Carlo calls take their seeds from a
fixed pool, so every output can be checked against values recorded from the
seed commit for the same seed (``golden.json``, written by
``record_golden.py``).

Tolerances, as ``abs + rel * |reference|``:

- ``rate`` (r_d, r_c, ASE): rel 2%.  ``prob`` (Monte Carlo probabilities and
  fractions): abs 0.01.  A float-rounding change can flip a link across an
  SIR threshold; one flip moves one of the ~500-1000 links a call measures
  and moves these means by under 1%.  A wrong SIR path (cellular
  interference dropped, self-interference kept, a wrong pathloss exponent)
  moves them by far more.
- ``count``: exact.
- ``analytic``/``aprob`` (closed forms and quadrature): rel 1e-6.
  ``radius`` (guard radius from bisection): abs 0.1 m, the bisection
  tolerance.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

# The reference config of the paper's comparison, on a 3 km torus.
REFERENCE = {
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
    "n_jobs": "1",
}

# Published plan at the reference point: (value, tolerance).  The radius
# allows half a printed digit plus one bisection step.
PUBLISHED_PLAN = {
    "delta_star": (229.0, 0.15),
    "p_s_star": (0.4463, 5e-5),
    "g_star_db": (-0.59, 5e-3),
    "p_max_coverage": (0.5552, 5e-5),
}

TOLERANCES = {          # kind -> (abs, rel)
    "rate": (0.0, 0.02),
    "prob": (0.01, 0.0),
    "count": (0.0, 0.0),
    "analytic": (1e-15, 1e-6),
    "aprob": (1e-15, 1e-6),
    "radius": (0.1, 0.0),
}

SIM_REALIZATIONS = 2
SIM_POOL = 128
COMPARE_REALIZATIONS = 8
COMPARE_TUNING = 4
COMPARE_POOL = 12
COMPARE_SCHEMES = ("proposed", "channel_aware", "guard_zone_only", "no_ac")
N_TUNING_POINTS = 10        # cli.tune_channel_aware's access-probability grid
ORACLE_REALIZATIONS = 20
ORACLE_POOL = 16
ORACLE_GRID_DELTAS = (0.0, 100.0, 200.0, 300.0, 400.0)
ORACLE_GRID_PS = tuple(round(0.1 * k, 2) for k in range(1, 11))
# Operating point each (lambda_d, mu) plan lands on, rounded; `analyze` is
# evaluated there.
PLAN_POINTS = {
    ("2e-5", "0.1"): (361.9, 0.6135), ("2e-5", "0.3"): (138.0, 0.6135),
    ("2e-5", "0.5"): (0.0, 0.6135),
    ("6e-5", "0.1"): (539.8, 0.4463), ("6e-5", "0.3"): (229.0, 0.4463),
    ("6e-5", "0.5"): (110.8, 0.4463),
    ("1e-4", "0.1"): (628.8, 0.3625), ("1e-4", "0.3"): (270.0, 0.3625),
    ("1e-4", "0.5"): (138.4, 0.3625),
}


class OpError(RuntimeError):
    """An operation exited nonzero or returned an unusable output."""


@dataclass
class Op:
    kind: str           # simulate | compare | optimize | analyze | oracle
    key: str            # golden.json entry for this exact input
    config: Path
    out_dir: Path
    seed: int | None = None
    extra: tuple = ()   # further CLI arguments
    units: int = 0      # Monte Carlo scheme-realizations delivered

    def argv(self) -> list[str]:
        argv = [self.kind, "--config", str(self.config), "--out", str(self.out_dir)]
        if self.seed is not None:
            argv += ["--seed", str(self.seed)]
        return argv + list(self.extra)


def _write_config(path: Path, fields: dict):
    path.write_text("".join(f"{key} = {value}\n" for key, value in fields.items()))


class Workload:
    """Base: ``round(rng)`` returns the next round's operations, and
    ``pool_ops()`` every operation a round can contain."""

    name = ""
    nominal_round_s = 1.0       # round time at the seed commit, sizes the traced run

    def __init__(self, work_dir: Path):
        self.work = work_dir
        self.out = work_dir / "out"
        self._unused: dict[str, list] = {}

    def draw(self, rng, stream: str, pool: int) -> int:
        """Next seed of ``stream``: each pass visits the whole pool once, in
        an order shuffled by ``rng``, so a run's mix of realization sizes
        (and hence of call costs) hardly depends on the workload seed."""
        if not self._unused.get(stream):
            order = list(range(1, pool + 1))
            rng.shuffle(order)
            self._unused[stream] = order
        return self._unused[stream].pop()

    def config(self, name: str) -> Path:
        return self.work / f"{name}.cfg"

    def op(self, kind, key, cfg, **fields) -> Op:
        return Op(kind=kind, key=key, config=self.config(cfg), out_dir=self.out, **fields)


class Simulate(Workload):
    name = "simulate"
    nominal_round_s = 0.22

    def __init__(self, work_dir):
        super().__init__(work_dir)
        common = dict(REFERENCE, n_realizations=str(SIM_REALIZATIONS))
        _write_config(self.config("proposed"),
                      dict(common, **{"scheme.kind": "proposed_threshold",
                                      "scheme.delta": "229", "scheme.g_db": "-0.59"}))
        _write_config(self.config("no_ac"), dict(common, **{"scheme.kind": "no_ac"}))

    def _simulate(self, scheme, seed) -> Op:
        return self.op("simulate", f"simulate/{scheme}/{seed}", scheme, seed=seed,
                       units=SIM_REALIZATIONS)

    def round(self, rng):
        return [self._simulate(scheme, self.draw(rng, scheme, SIM_POOL))
                for scheme in ("proposed", "no_ac")]

    def pool_ops(self):
        return [self._simulate(scheme, seed) for scheme in ("proposed", "no_ac")
                for seed in range(1, SIM_POOL + 1)]


class Compare(Workload):
    name = "compare"
    nominal_round_s = 5.2

    def __init__(self, work_dir):
        super().__init__(work_dir)
        _write_config(self.config("compare"),
                      dict(REFERENCE, n_realizations=str(COMPARE_REALIZATIONS)))

    def _compare(self, seed) -> Op:
        units = len(COMPARE_SCHEMES) * COMPARE_REALIZATIONS + N_TUNING_POINTS * COMPARE_TUNING
        return self.op("compare", f"compare/{seed}", "compare", seed=seed, units=units,
                       extra=("--tuning-realizations", str(COMPARE_TUNING)))

    def round(self, rng):
        return [self._compare(self.draw(rng, "compare", COMPARE_POOL))]

    def pool_ops(self):
        return [self._compare(seed) for seed in range(1, COMPARE_POOL + 1)]


class Oracle(Workload):
    name = "oracle"
    nominal_round_s = 1.55

    def __init__(self, work_dir):
        super().__init__(work_dir)
        _write_config(self.config("oracle"), dict(REFERENCE))

    def _oracle(self, seed) -> Op:
        units = (len(ORACLE_GRID_DELTAS) + 1) * (len(ORACLE_GRID_PS) + 1) * ORACLE_REALIZATIONS
        return self.op("oracle", f"oracle/{seed}", "oracle", seed=seed, units=units)

    def round(self, rng):
        return [self._oracle(self.draw(rng, "oracle", ORACLE_POOL))]

    def pool_ops(self):
        return [self._oracle(seed) for seed in range(1, ORACLE_POOL + 1)]


class Plan(Workload):
    name = "plan"
    nominal_round_s = 5.0

    def __init__(self, work_dir):
        super().__init__(work_dir)
        for (lam, mu), (delta, p_s) in PLAN_POINTS.items():
            tag = f"{lam}_{mu}"
            _write_config(self.config(f"optimize_{tag}"), dict(REFERENCE, lambda_d=lam, mu=mu))
            _write_config(self.config(f"analyze_{tag}"),
                          dict(REFERENCE, lambda_d=lam, mu=mu,
                               **{"scheme.kind": "proposed_top_fraction",
                                  "scheme.delta": str(delta), "scheme.p_s": str(p_s)}))
        # alpha != 4: the keep-out Laplace transform falls back to quadrature
        _write_config(self.config("analyze_alpha3.5"),
                      dict(REFERENCE, alpha="3.5",
                           **{"scheme.kind": "proposed_top_fraction",
                              "scheme.delta": "229", "scheme.p_s": "0.4463"}))

    def round(self, rng):
        ops = []
        for lam, mu in PLAN_POINTS:
            tag = f"{lam}_{mu}"
            ops.append(self.op("optimize", f"optimize/{lam}/{mu}", f"optimize_{tag}"))
            ops.append(self.op("analyze", f"analyze/{lam}/{mu}", f"analyze_{tag}"))
        ops.append(self.op("analyze", "analyze/alpha3.5", "analyze_alpha3.5"))
        rng.shuffle(ops)
        return ops

    def pool_ops(self):
        return self.round(random.Random(0))


WORKLOADS = {w.name: w for w in (Simulate, Compare, Oracle, Plan)}


def write_njobs_config(path: Path, n_jobs: int):
    """The proposed scheme over 4 realizations, so both of 2 workers get some."""
    _write_config(path, dict(REFERENCE, n_jobs=str(n_jobs), n_realizations="4",
                             **{"scheme.kind": "proposed_threshold",
                                "scheme.delta": "229", "scheme.g_db": "-0.59"}))


def oracle_grid(plan) -> tuple[list, list]:
    """Criterion-4 grid: fixed radii and fractions plus the decoupled plan's point."""
    deltas = sorted(set(ORACLE_GRID_DELTAS) | {round(plan.delta_star, 2)})
    ps_values = sorted(set(ORACLE_GRID_PS) | {round(plan.p_s_star, 4)})
    return deltas, ps_values


def run_op(op: Op):
    """The timed part of one operation.  Returns the library result, if any."""
    from d2dsim import cli, planner

    if op.kind == "oracle":
        rc = cli.resolve_config(cli.parse_config_file(op.config), seed_override=op.seed)
        plan = planner.decoupled_optimize(rc.params, rc.constraint())
        deltas, ps_values = oracle_grid(plan)
        best = planner.exhaustive_search(rc.params, rc.constraint(), deltas, ps_values,
                                         ORACLE_REALIZATIONS, rc.seed, window=rc.window)
        return plan, best, (deltas, ps_values)
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.main(op.argv())
        except SystemExit as exc:       # argparse rejects its arguments this way
            code = exc.code
    if code != 0:
        raise OpError(f"{op.kind} exited with code {code}")
    return None


def _plan_fields(plan: dict, prefix: str) -> dict:
    g = plan["g_star"]
    return {
        f"{prefix}delta_star": (plan["delta_star"], "radius"),
        f"{prefix}p_s_star": (plan["p_s_star"], "aprob"),
        f"{prefix}g_star": (g, "analytic"),
        f"{prefix}predicted_ase": (plan["predicted_ase"], "analytic"),
        f"{prefix}predicted_coverage": (plan["predicted_coverage"], "aprob"),
        f"{prefix}p_max_coverage": (plan["p_max_coverage"], "aprob"),
    }


def extract(op: Op, result) -> dict:
    """Output values of one operation as {field: (value, tolerance kind)}."""
    if op.kind == "simulate":
        report = json.loads((op.out_dir / "report.json").read_text())
        out = {"n_realizations": (report["n_realizations"], "count")}
        for name in ("r_d", "r_c", "ase"):
            out[name] = (report[name]["mean"], "rate")
        for name in ("d2d_success_prob", "cellular_coverage", "active_fraction",
                     "candidate_fraction"):
            out[name] = (report[name]["mean"], "prob")
            out[f"{name}.n"] = (report[name]["n"], "count")
        return out
    if op.kind == "compare":
        table = json.loads((op.out_dir / "compare.json").read_text())
        out = _plan_fields(table["plan"], "plan.")
        for scheme in COMPARE_SCHEMES:
            row = table["rows"][scheme]
            for name in ("r_d", "r_c", "ase"):
                out[f"{scheme}.{name}"] = (row[name], "rate")
            out[f"{scheme}.cellular_coverage"] = (row["cellular_coverage"], "prob")
        return out
    if op.kind == "optimize":
        return _plan_fields(json.loads((op.out_dir / "plan.json").read_text()), "")
    if op.kind == "analyze":
        table = json.loads((op.out_dir / "analyze.json").read_text())
        return {name: (value, "aprob" if name in ("d2d_success_prob", "p_max_c",
                                                  "coverage_floor", "cellular_coverage")
                       else "analytic")
                for name, value in table.items()}
    plan, best, _ = result
    out = _plan_fields(plan.to_dict(), "plan.")
    out["best.predicted_ase"] = (best.predicted_ase, "rate")
    out["best.predicted_coverage"] = (best.predicted_coverage, "prob")
    return out


def corrupt(values: dict) -> dict:
    """Scale every output by 1.5: the smoke test's deliberately wrong output."""
    return {name: (value * 1.5, kind) for name, (value, kind) in values.items()}


def _close(value, ref, kind) -> bool:
    if isinstance(ref, float) and math.isnan(ref):
        return isinstance(value, float) and math.isnan(value)
    abs_tol, rel_tol = TOLERANCES[kind]
    return abs(value - ref) <= abs_tol + rel_tol * abs(ref)


def check(op: Op, values: dict, result, golden: dict) -> list[str]:
    """Every way the operation's output is wrong; empty when it is right."""
    errors = []
    for name, (value, kind) in values.items():
        if kind in ("prob", "aprob") and not 0.0 <= value <= 1.0:
            errors.append(f"{name}={value!r} is not a probability")
    if op.kind == "simulate":
        if values["n_realizations"][0] != SIM_REALIZATIONS:
            errors.append(f"n_realizations={values['n_realizations'][0]}, "
                          f"requested {SIM_REALIZATIONS}")
        errors += [f"{name}={value} exceeds the realization count"
                   for name, (value, _) in values.items()
                   if name.endswith(".n") and value > SIM_REALIZATIONS]
    if op.kind == "oracle":
        _, best, (deltas, ps_values) = result
        if best.constraint_residual < 0:
            errors.append("oracle winner misses the coverage floor")
        if best.delta_star not in deltas or best.p_s_star not in ps_values:
            errors.append("oracle winner is not a grid point")
    if op.kind in ("compare", "oracle") or op.key == "optimize/6e-5/0.3":
        prefix = "" if op.kind == "optimize" else "plan."
        errors += check_published({name: values[prefix + name][0] for name in
                                   ("delta_star", "p_s_star", "g_star", "p_max_coverage")})
    reference = golden.get(op.key)
    if reference is None:
        return errors + [f"no recorded reference for {op.key}"]
    for name, (value, kind) in values.items():
        if name not in reference:
            errors.append(f"{name} has no recorded reference")
        elif not _close(value, reference[name], kind):
            errors.append(f"{name}={value!r}, reference {reference[name]!r} ({kind})")
    return errors


def check_published(plan: dict) -> list[str]:
    got = dict(plan)
    got["g_star_db"] = 10.0 * math.log10(plan["g_star"]) if plan["g_star"] > 0 else -math.inf
    return [f"plan {name}={got[name]!r}, published {value} +- {tol}"
            for name, (value, tol) in PUBLISHED_PLAN.items()
            if not abs(got[name] - value) <= tol]
