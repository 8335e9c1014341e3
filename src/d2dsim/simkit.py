"""Monte Carlo experiment harness.

Samples network realizations from per-index substreams of one master seed,
applies an access scheme, measures link SIRs in the data phase, and
aggregates coverage, fixed-rate area spectral efficiency, and Shannon
sum-rate densities with normal-approximation confidence intervals.
Realizations may run in a process pool; results are reduced in index order
so the report is bit-identical regardless of worker count.
"""
from __future__ import annotations

import dataclasses
import io
import logging
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import access, radio, spatial
from .access import ActiveSet, SchemeSpec
from .analytic import SystemParams
from .errors import NumericalError, ParameterError
from .spatial import Window

log = logging.getLogger(__name__)

_MAX_RESAMPLE = 64


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment bit-for-bit."""

    params: SystemParams
    scheme: SchemeSpec
    window: Window = Window(3000.0, 3000.0)
    n_realizations: int = 4000
    seed: int = 1
    n_jobs: int = 1
    refresh_fading_between_phases: bool = False
    rate_ceiling: float = 30.0          # bit/s/Hz cap for infinite-SIR links
    collect_sir_samples: bool = False
    ccdf_points_db: tuple = ()

    def __post_init__(self):
        if self.n_realizations < 1:
            raise ParameterError(
                f"need at least one realization, got n_realizations={self.n_realizations}")
        if self.seed < 0:
            raise ParameterError(f"seed must be nonnegative, got {self.seed}")
        if self.n_jobs < 1:
            raise ParameterError("n_jobs must be positive")
        if not 0 <= self.rate_ceiling < math.inf:
            raise ParameterError("rate_ceiling must be finite and nonnegative")
        if any(b < a for a, b in zip(self.ccdf_points_db, self.ccdf_points_db[1:])):
            raise ParameterError(
                f"ccdf_points_db must be sorted ascending, got {list(self.ccdf_points_db)}")

    def radio_params(self) -> radio.RadioParams:
        return _radio_params(self.params)


def _radio_params(params: SystemParams) -> radio.RadioParams:
    return radio.RadioParams(alpha=params.alpha, p_c_mw=params.p_c_mw, p_d_mw=params.p_d_mw)


@dataclass(frozen=True)
class Realization:
    """One sampled network: geometry plus fading for both protocol phases."""

    index: int
    bs: spatial.PointSet
    assoc: spatial.CellAssociation
    pairs: spatial.D2DPairSet
    fading_est: radio.FadingTable
    fading_data: radio.FadingTable
    resample_attempts: int = 0


@dataclass(frozen=True)
class RealizationMetrics:
    """Raw per-realization tallies; densities are computed at report time."""

    index: int
    n_potential: int
    n_candidates: int
    n_active: int
    d2d_successes: int
    d2d_shannon_sum: float
    cellular_covered: int
    n_cells: int
    cellular_shannon_sum: float
    n_infinite_sir: int
    resample_attempts: int
    sir_samples_d2d: tuple = ()
    sir_samples_cell: tuple = ()


@dataclass(frozen=True)
class MetricStat:
    mean: float
    ci_low: float
    ci_high: float
    n: int

    def to_dict(self) -> dict:
        return {"mean": self.mean, "ci_low": self.ci_low, "ci_high": self.ci_high, "n": self.n}


@dataclass(frozen=True)
class MetricsReport:
    """Aggregated experiment outcome with 95% confidence intervals."""

    n_realizations: int
    d2d_success_prob: MetricStat
    cellular_coverage: MetricStat
    ase: MetricStat
    r_d: MetricStat
    r_c: MetricStat
    active_fraction: MetricStat
    candidate_fraction: MetricStat
    ccdf_abscissae_db: tuple
    ccdf_d2d: tuple
    ccdf_cell: tuple
    n_infinite_sir: int
    n_resampled: int

    def to_dict(self) -> dict:
        out = {
            "n_realizations": self.n_realizations,
            "n_infinite_sir": self.n_infinite_sir,
            "n_resampled": self.n_resampled,
            "ccdf_abscissae_db": list(self.ccdf_abscissae_db),
            "ccdf_d2d": list(self.ccdf_d2d),
            "ccdf_cell": list(self.ccdf_cell),
        }
        for name in ("d2d_success_prob", "cellular_coverage", "ase", "r_d", "r_c",
                     "active_fraction", "candidate_fraction"):
            out[name] = getattr(self, name).to_dict()
        return out

    def csv_rows(self):
        for name in ("d2d_success_prob", "cellular_coverage", "ase", "r_d", "r_c",
                     "active_fraction", "candidate_fraction"):
            s: MetricStat = getattr(self, name)
            yield {"metric": name, "mean": s.mean, "ci_low": s.ci_low,
                   "ci_high": s.ci_high, "n": s.n}


def realization_rng(seed: int, index: int, attempt: int = 0) -> np.random.Generator:
    """Independent substream for (master seed, realization index, resample attempt)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index, attempt)))


def _sample_realization(params: SystemParams, window: Window, seed: int, index: int,
                        refresh_fading: bool) -> Realization:
    for attempt in range(_MAX_RESAMPLE):
        rng = realization_rng(seed, index, attempt)
        bs = spatial.sample_ppp(params.lambda_m, window, rng)
        if len(bs) == 0:
            log.info("realization %d attempt %d had no base stations; resampling", index, attempt)
            continue
        assoc = spatial.place_uplink_users(bs, rng)
        tx = spatial.sample_ppp(params.lambda_d, window, rng)
        pairs = spatial.place_d2d_pairs(tx, params.d, rng)
        n, nb = len(tx), len(bs)
        fading_est = radio.draw_fading(n, nb, rng)
        if refresh_fading:
            fading_data = radio.draw_fading(n, nb, rng)
        else:
            fading_data = fading_est   # coherent across both protocol phases
        return Realization(index=index, bs=bs, assoc=assoc, pairs=pairs,
                           fading_est=fading_est, fading_data=fading_data,
                           resample_attempts=attempt)
    raise NumericalError(f"realization {index}: no base stations after {_MAX_RESAMPLE} attempts")


def sample_realization(config: ExperimentConfig, index: int) -> Realization:
    return _sample_realization(config.params, config.window, config.seed, index,
                               config.refresh_fading_between_phases)


def _capped_rate(sir: np.ndarray, ceiling: float) -> np.ndarray:
    rate = np.log2(1.0 + np.where(np.isinf(sir), 0.0, sir))
    return np.where(np.isinf(sir), ceiling, rate)


def _data_phase(active: ActiveSet, links: np.ndarray, real: Realization,
                rp: radio.RadioParams, refresh_fading: bool):
    """Received powers for the data phase, and the active links' positions in them.

    The estimation phase's matrix is sliced under coherent fading and
    re-faded (same pathloss) under refreshed fading; schemes without an
    estimation phase get a matrix over the active links alone.
    """
    measured = active.powers
    if measured is None:
        return radio.LinkPowers.build(links, real.pairs, real.assoc, real.fading_data, rp), None
    on_air = np.searchsorted(measured.links, links)
    if refresh_fading:
        return measured.refade(on_air, real.fading_data), None
    return measured, on_air


def run_realization(config: ExperimentConfig, index: int) -> RealizationMetrics:
    """Sample one network, apply the scheme, and measure the data phase."""
    real = sample_realization(config, index)
    rp = config.radio_params()
    params = config.params
    active: ActiveSet = access.apply_scheme(config.scheme, real, real.fading_est, rp)
    links = radio.link_ids(active)
    powers, on_air = _data_phase(active, links, real, rp, config.refresh_fading_between_phases)
    sir_d = radio.sir(*powers.d2d(on_air))
    sir_c = radio.sir(*powers.cellular(on_air))

    keep_samples = config.collect_sir_samples or len(config.ccdf_points_db) > 0
    return RealizationMetrics(
        index=index,
        n_potential=len(real.pairs),
        n_candidates=len(active.candidate_ids),
        n_active=len(links),
        d2d_successes=int((sir_d > params.beta).sum()),
        d2d_shannon_sum=float(_capped_rate(sir_d, config.rate_ceiling).sum()),
        cellular_covered=int((sir_c > params.gamma).sum()),
        n_cells=len(real.assoc),
        cellular_shannon_sum=float(_capped_rate(sir_c, config.rate_ceiling).sum()),
        n_infinite_sir=int(np.isinf(sir_d).sum()) + int(np.isinf(sir_c).sum()),
        resample_attempts=real.resample_attempts,
        sir_samples_d2d=tuple(sir_d.tolist()) if keep_samples else (),
        sir_samples_cell=tuple(sir_c.tolist()) if keep_samples else (),
    )


def _run_realization_task(args):
    config, index = args
    return run_realization(config, index)


def _stat(values) -> MetricStat:
    arr = np.asarray([v for v in values if not (v is None or (isinstance(v, float) and math.isnan(v)))],
                     dtype=float)
    if len(arr) == 0:
        return MetricStat(mean=math.nan, ci_low=math.nan, ci_high=math.nan, n=len(arr))
    mean = float(arr.mean())
    half = 1.96 * float(arr.std(ddof=1)) / math.sqrt(len(arr)) if len(arr) > 1 else 0.0
    return MetricStat(mean=mean, ci_low=mean - half, ci_high=mean + half, n=len(arr))


def empirical_ccdf(samples, abscissae) -> np.ndarray:
    """Fraction of samples strictly above each abscissa (abscissae sorted)."""
    samples = np.asarray(samples, dtype=float)
    abscissae = np.asarray(abscissae, dtype=float)
    if samples.size == 0:
        raise ParameterError("empirical_ccdf needs at least one sample")
    if np.any(np.diff(abscissae) < 0):
        raise ParameterError("abscissae must be sorted ascending")
    return (samples[None, :] > abscissae[:, None]).mean(axis=1)


def aggregate(config: ExperimentConfig, per_real: list[RealizationMetrics]) -> MetricsReport:
    area = config.window.area
    log2_beta = math.log2(1.0 + config.params.beta)
    success, coverage, ase, r_d, r_c, act_frac, cand_frac = [], [], [], [], [], [], []
    for m in per_real:
        success.append(m.d2d_successes / m.n_active if m.n_active else math.nan)
        coverage.append(m.cellular_covered / m.n_cells)
        ase.append(m.d2d_successes * log2_beta / area)
        r_d.append(m.d2d_shannon_sum / area)
        r_c.append(m.cellular_shannon_sum / area)
        act_frac.append(m.n_active / m.n_candidates if m.n_candidates else math.nan)
        cand_frac.append(m.n_candidates / m.n_potential if m.n_potential else math.nan)

    abscissae_db = tuple(config.ccdf_points_db)
    ccdf_d, ccdf_c = (), ()
    if abscissae_db:
        linear = np.power(10.0, np.asarray(abscissae_db) / 10.0)
        d_samples = np.concatenate([np.asarray(m.sir_samples_d2d) for m in per_real]) \
            if any(m.sir_samples_d2d for m in per_real) else np.zeros(0)
        c_samples = np.concatenate([np.asarray(m.sir_samples_cell) for m in per_real]) \
            if any(m.sir_samples_cell for m in per_real) else np.zeros(0)
        ccdf_d = tuple(empirical_ccdf(d_samples, linear).tolist()) if d_samples.size else ()
        ccdf_c = tuple(empirical_ccdf(c_samples, linear).tolist()) if c_samples.size else ()

    return MetricsReport(
        n_realizations=len(per_real),
        d2d_success_prob=_stat(success),
        cellular_coverage=_stat(coverage),
        ase=_stat(ase),
        r_d=_stat(r_d),
        r_c=_stat(r_c),
        active_fraction=_stat(act_frac),
        candidate_fraction=_stat(cand_frac),
        ccdf_abscissae_db=abscissae_db,
        ccdf_d2d=ccdf_d,
        ccdf_cell=ccdf_c,
        n_infinite_sir=sum(m.n_infinite_sir for m in per_real),
        n_resampled=sum(1 for m in per_real if m.resample_attempts),
    )


def run_experiment(config: ExperimentConfig) -> MetricsReport:
    """Run all realizations (serially or in a process pool) and aggregate.

    The pool has at most one worker per CPU; with one, the run is serial.
    """
    indices = range(config.n_realizations)
    workers = min(config.n_jobs, os.cpu_count() or 1)
    if workers == 1:
        per_real = [run_realization(config, i) for i in indices]
    else:
        tasks = [(config, i) for i in indices]
        chunk = max(1, config.n_realizations // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_real = list(pool.map(_run_realization_task, tasks, chunksize=chunk))
    per_real.sort(key=lambda m: m.index)   # reduce in index order: worker-count invariant
    return aggregate(config, per_real)


SWEEP_AXES = ("delta", "p_s", "g", "lambda_d", "mu")


def _config_for(config: ExperimentConfig, axis: str, value: float) -> ExperimentConfig:
    if axis == "delta":
        return dataclasses.replace(config, scheme=dataclasses.replace(config.scheme, delta=value))
    if axis == "p_s":
        return dataclasses.replace(config, scheme=dataclasses.replace(config.scheme, p_s=value))
    if axis == "g":
        return dataclasses.replace(config, scheme=dataclasses.replace(config.scheme, g=value))
    if axis == "lambda_d":
        return dataclasses.replace(config, params=dataclasses.replace(config.params, lambda_d=value))
    if axis == "mu":
        from . import planner   # imported here to avoid an import cycle
        constraint = planner.ConstraintSpec(mu=value, gamma=config.params.gamma)
        plan = planner.decoupled_optimize(config.params, constraint)
        if config.scheme.kind == access.PROPOSED_TOP_FRACTION:
            scheme = SchemeSpec(kind=config.scheme.kind, delta=plan.delta_star, p_s=plan.p_s_star)
        elif config.scheme.kind == access.PROPOSED_THRESHOLD:
            scheme = SchemeSpec(kind=config.scheme.kind, delta=plan.delta_star, g=plan.g_star)
        else:
            raise ParameterError("mu axis needs a proposed_* scheme")
        return dataclasses.replace(config, scheme=scheme)
    raise ParameterError(f"unknown sweep axis {axis!r}; choose from {SWEEP_AXES}")


def sweep(config: ExperimentConfig, axis: str, values) -> list[tuple[float, MetricsReport]]:
    """One experiment per axis value, sharing the base seed."""
    axis = axis.lower()
    values = list(values)
    if not values:
        raise ParameterError("sweep needs at least one value")
    return [(v, run_experiment(_config_for(config, axis, v))) for v in values]


def sweep_to_csv(axis: str, results: list[tuple[float, MetricsReport]]) -> str:
    buf = io.StringIO()
    buf.write("axis,value,metric,mean,ci_low,ci_high,n\n")
    for value, report in results:
        for row in report.csv_rows():
            buf.write(f"{axis},{value!r},{row['metric']},{row['mean']!r},"
                      f"{row['ci_low']!r},{row['ci_high']!r},{row['n']}\n")
    return buf.getvalue()


def run_topfraction_grid(params: SystemParams, deltas, ps_values, n_realizations: int,
                         seed: int, window: Window | None = None) -> dict:
    """Measured ASE/coverage for every (guard radius, admitted fraction) pair.

    Shares each sampled realization across the whole grid (common random
    numbers): one received-power matrix over every link serves all guard
    radii, and since admitted sets under the top-fraction rule are nested in
    p_s, one estimated-SIR sort plus prefix sums yields every p_s at once.
    Returns {(delta, p_s): {"ase", "coverage", "ase_se", "coverage_se", "n"}}.
    """
    window = window or Window(3000.0, 3000.0)
    deltas = [float(x) for x in deltas]
    ps_values = [float(x) for x in ps_values]
    if not all(0 <= ps <= 1 for ps in ps_values):
        raise ParameterError("p_s values must lie in [0, 1]")
    if n_realizations < 1:
        raise ParameterError(f"need at least one realization, got n_realizations={n_realizations}")
    area = window.area
    log2_beta = math.log2(1.0 + params.beta)
    rp = _radio_params(params)

    ase = {key: [] for key in ((dl, ps) for dl in deltas for ps in ps_values)}
    cov = {key: [] for key in ase}
    for index in range(n_realizations):
        real = _sample_realization(params, window, seed, index, refresh_fading=False)
        powers = radio.LinkPowers.build(np.arange(len(real.pairs)), real.pairs, real.assoc,
                                        real.fading_est, rp)
        for delta in deltas:
            cand = np.flatnonzero(spatial.outside_holes_mask(real.pairs.transmitters,
                                                             real.bs, delta))
            est = radio.sir(*powers.d2d(cand))
            ranked = cand[np.lexsort((cand, -est))]     # best estimated SIR first, id tiebreak
            counts = [access.admitted_count(ps, len(cand)) for ps in ps_values]
            for ps, (sig, inter, inter_c) in zip(ps_values, powers.nested(ranked, counts)):
                n_success = int((radio.sir(sig, inter) > params.beta).sum())
                covered = radio.sir(powers.cell_signal, inter_c) > params.gamma
                ase[(delta, ps)].append(n_success * log2_beta / area)
                cov[(delta, ps)].append(float(covered.mean()))

    out = {}
    for key in ase:
        a = np.asarray(ase[key])
        c = np.asarray(cov[key])
        out[key] = {
            "ase": float(a.mean()),
            "coverage": float(c.mean()),
            "ase_se": float(a.std(ddof=1) / math.sqrt(len(a))) if len(a) > 1 else 0.0,
            "coverage_se": float(c.std(ddof=1) / math.sqrt(len(c))) if len(c) > 1 else 0.0,
            "n": len(a),
        }
    return out
