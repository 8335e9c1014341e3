"""Monte Carlo experiment harness.

Samples each network realization once, from a per-index substream of one
master seed, applies every requested access scheme to it on one shared
received-power matrix, measures link SIRs in the data phase, and aggregates
coverage, fixed-rate area spectral efficiency, and Shannon sum-rate
densities with normal-approximation confidence intervals.  Realizations
may run in a process pool; results are reduced in index order so reports
are bit-identical regardless of worker count.
"""
from __future__ import annotations

import dataclasses
import functools
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
_LOG_UNDERFLOW = -math.log(np.finfo(float).tiny)   # r ** -alpha underflows past this alpha * ln r


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
        if not all(map(math.isfinite, self.ccdf_points_db)):
            raise ParameterError(
                f"ccdf_points_db must be finite, got {list(self.ccdf_points_db)}")
        if any(b < a for a, b in zip(self.ccdf_points_db, self.ccdf_points_db[1:])):
            raise ParameterError(
                f"ccdf_points_db must be sorted ascending, got {list(self.ccdf_points_db)}")
        half_side = min(self.window.width, self.window.height) / 2
        if self.params.d > half_side:
            # beyond this the wrap (or the bounded redraw) can no longer honor d
            raise ParameterError(f"d = {self.params.d} m exceeds half the window side, "
                                 f"{half_side} m")
        self.check_pathloss_range()

    def check_pathloss_range(self):
        """Raise ``ParameterError`` naming ``alpha`` if the pathloss ``r ** -alpha``
        at the window's farthest distance ``r`` is below the smallest normal
        float: there the Monte Carlo loses far interference, and at large
        enough alpha it measures every SIR as infinite."""
        far = self.window.farthest_distance
        if far > 1 and self.params.alpha * math.log(far) > _LOG_UNDERFLOW:
            raise ParameterError(
                f"alpha = {self.params.alpha}: the pathloss underflows at the window's "
                f"farthest distance, {far:.6g} m; alpha must be at most "
                f"{_LOG_UNDERFLOW / math.log(far):.6g} in this window")

    def radio_params(self) -> radio.RadioParams:
        p = self.params
        return radio.RadioParams(alpha=p.alpha, p_c_mw=p.p_c_mw, p_d_mw=p.p_d_mw)


@dataclass(frozen=True)
class Realization:
    """One sampled network: geometry plus fading for both protocol phases."""

    bs: spatial.PointSet
    assoc: spatial.CellAssociation
    pairs: spatial.D2DPairSet
    fading_est: radio.FadingTable
    fading_data: radio.FadingTable
    resample_attempts: int = 0


@dataclass(frozen=True)
class RealizationMetrics:
    """Raw per-realization tallies; densities are computed at report time.

    ``ccdf_above_d2d`` and ``ccdf_above_cell`` count the D2D and cellular
    SIRs strictly above each ``ccdf_points_db`` abscissa; the SIR samples
    themselves are kept only under ``collect_sir_samples``.
    """

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
    ccdf_above_d2d: tuple = ()
    ccdf_above_cell: tuple = ()
    sir_samples_d2d: tuple = ()
    sir_samples_cell: tuple = ()


STATS = ("d2d_success_prob", "cellular_coverage", "ase", "r_d", "r_c",
         "active_fraction", "candidate_fraction")


@dataclass(frozen=True)
class MetricStat:
    mean: float
    ci_low: float
    ci_high: float
    n: int


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


def realization_rng(seed: int, index: int, attempt: int = 0) -> np.random.Generator:
    """Independent substream for (master seed, realization index, resample attempt)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index, attempt)))


def sample_realization(config: ExperimentConfig, index: int) -> Realization:
    params, window = config.params, config.window
    for attempt in range(_MAX_RESAMPLE):
        rng = realization_rng(config.seed, index, attempt)
        bs = spatial.sample_ppp(params.lambda_m, window, rng)
        if len(bs) == 0:
            log.info("realization %d attempt %d had no base stations; resampling", index, attempt)
            continue
        assoc = spatial.place_uplink_users(bs, rng)
        tx = spatial.sample_ppp(params.lambda_d, window, rng)
        pairs = spatial.place_d2d_pairs(tx, params.d, rng)
        n, nb = len(tx), len(bs)
        fading_est = radio.draw_fading(n, nb, rng)
        if config.refresh_fading_between_phases:
            fading_data = radio.draw_fading(n, nb, rng)
        else:
            fading_data = fading_est   # coherent across both protocol phases
        return Realization(bs=bs, assoc=assoc, pairs=pairs,
                           fading_est=fading_est, fading_data=fading_data,
                           resample_attempts=attempt)
    raise NumericalError(f"realization {index}: no base stations after {_MAX_RESAMPLE} attempts")


def _capped_rate(sir: np.ndarray, ceiling: float) -> np.ndarray:
    rate = np.log2(1.0 + np.where(np.isinf(sir), 0.0, sir))
    return np.where(np.isinf(sir), ceiling, rate)


def _count_above(sir: np.ndarray, thresholds: np.ndarray) -> tuple:
    return tuple((sir > thresholds[:, None]).sum(axis=1).tolist())


def _shared_powers(real: Realization, link_sets, fading: radio.FadingTable,
                   rp: radio.RadioParams) -> radio.LinkPowers:
    """One received-power matrix over every link in any of ``link_sets``."""
    covered = np.zeros(len(real.pairs), dtype=bool)
    for links in link_sets:
        covered[links] = True
    return radio.LinkPowers.build(np.flatnonzero(covered), real.pairs, real.assoc, fading, rp)


def _metrics(config: ExperimentConfig, real: Realization, active: ActiveSet,
             powers: radio.LinkPowers) -> RealizationMetrics:
    """Measure the data phase of ``active`` on ``powers``, received powers
    under the data-phase draw over links that include every link on air.

    Every interference is the row-order sum over the links on air and the
    users (see :mod:`radio`), so a scheme measures the same bits whichever
    other links ``powers`` covers.
    """
    sir_d, sir_c = powers.sirs(powers.positions(active.active))
    params = config.params
    thresholds = np.power(10.0, np.asarray(config.ccdf_points_db, dtype=float) / 10.0)
    return RealizationMetrics(
        n_potential=len(real.pairs),
        n_candidates=len(active.candidates),
        n_active=len(active),
        d2d_successes=int((sir_d > params.beta).sum()),
        d2d_shannon_sum=float(_capped_rate(sir_d, config.rate_ceiling).sum()),
        cellular_covered=int((sir_c > params.gamma).sum()),
        n_cells=len(real.assoc),
        cellular_shannon_sum=float(_capped_rate(sir_c, config.rate_ceiling).sum()),
        n_infinite_sir=int(np.isinf(sir_d).sum()) + int(np.isinf(sir_c).sum()),
        resample_attempts=real.resample_attempts,
        ccdf_above_d2d=_count_above(sir_d, thresholds),
        ccdf_above_cell=_count_above(sir_c, thresholds),
        sir_samples_d2d=tuple(sir_d.tolist()) if config.collect_sir_samples else (),
        sir_samples_cell=tuple(sir_c.tolist()) if config.collect_sir_samples else (),
    )


def _measure_all(config: ExperimentConfig, schemes: list,
                 real: Realization) -> list[RealizationMetrics]:
    """Apply every scheme to one sampled network and measure its data phase.

    One received-power matrix, under the estimation-phase draw, covers every
    link any scheme can put on air; each estimation phase, stage 2 and, under
    coherent fading, data phase slices it.  Refreshed fading builds one more,
    under the data-phase draw, over every link on air, and the first then
    covers only the candidates of the schemes that estimate.  A lone scheme
    gets the matrices it would get on its own.
    """
    rp = config.radio_params()
    refresh = config.refresh_fading_between_phases
    reached = [access.reach(scheme, real, rp) for scheme in schemes]
    covered = [r.active for scheme, r in zip(schemes, reached)
               if not refresh or scheme.kind in access.PROPOSED_KINDS]
    powers = _shared_powers(real, covered, real.fading_est, rp) if covered else None
    actives = [access.activate(scheme, r, powers) for scheme, r in zip(schemes, reached)]
    if refresh:
        powers = _shared_powers(real, [a.active for a in actives], real.fading_data, rp)
    return [_metrics(config, real, active, powers) for active in actives]


def _measure_index(config: ExperimentConfig, schemes: list, index: int) -> list[RealizationMetrics]:
    return _measure_all(config, schemes, sample_realization(config, index))


def run_realization(config: ExperimentConfig, index: int) -> RealizationMetrics:
    """Sample network ``index`` and measure ``config.scheme`` on it."""
    return _measure_index(config, [config.scheme], index)[0]


def measure_schemes(config: ExperimentConfig, schemes, indices) -> list[list[RealizationMetrics]]:
    """Per-realization metrics of every scheme on the networks ``indices``:
    one list per index, in order, with one entry per scheme.

    Each network is sampled once and serves every scheme.  ``config.scheme``
    is not used.  The pool has at most one worker per CPU and per index;
    with one, the run is serial.
    """
    indices = list(indices)
    workers = min(config.n_jobs, os.cpu_count() or 1, len(indices))
    task = functools.partial(_measure_index, config, list(schemes))
    if workers <= 1:
        return [task(i) for i in indices]
    chunk = max(1, len(indices) // (4 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(task, indices, chunksize=chunk))


def _stat(values) -> MetricStat:
    arr = np.asarray(values, dtype=float)
    arr = arr[~np.isnan(arr)]
    if len(arr) == 0:
        return MetricStat(mean=math.nan, ci_low=math.nan, ci_high=math.nan, n=len(arr))
    mean = float(arr.mean())
    half = 1.96 * float(arr.std(ddof=1)) / math.sqrt(len(arr)) if len(arr) > 1 else 0.0
    return MetricStat(mean=mean, ci_low=mean - half, ci_high=mean + half, n=len(arr))


def _pooled_ccdf(counts, total: int) -> tuple:
    """Share of all ``total`` pooled SIRs above each abscissa, from the
    per-realization ``counts``; empty when no SIR was measured."""
    return tuple(sum(column) / total for column in zip(*counts)) if total else ()


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

    return MetricsReport(
        n_realizations=len(per_real),
        d2d_success_prob=_stat(success),
        cellular_coverage=_stat(coverage),
        ase=_stat(ase),
        r_d=_stat(r_d),
        r_c=_stat(r_c),
        active_fraction=_stat(act_frac),
        candidate_fraction=_stat(cand_frac),
        ccdf_abscissae_db=tuple(config.ccdf_points_db),
        ccdf_d2d=_pooled_ccdf([m.ccdf_above_d2d for m in per_real],
                              sum(m.n_active for m in per_real)),
        ccdf_cell=_pooled_ccdf([m.ccdf_above_cell for m in per_real],
                               sum(m.n_cells for m in per_real)),
        n_infinite_sir=sum(m.n_infinite_sir for m in per_real),
        n_resampled=sum(1 for m in per_real if m.resample_attempts),
    )


def run_schemes(config: ExperimentConfig, schemes) -> list[MetricsReport]:
    """One report per scheme, aggregated from :func:`measure_schemes` over
    networks ``0 … n_realizations - 1``; ``config.scheme`` is not used."""
    per_real = measure_schemes(config, schemes, range(config.n_realizations))
    return [aggregate(config, list(column)) for column in zip(*per_real)]


def run_experiment(config: ExperimentConfig) -> MetricsReport:
    """Run all realizations of ``config.scheme`` and aggregate."""
    return run_schemes(config, [config.scheme])[0]


SWEEP_AXES = ("delta", "p_s", "g", "lambda_d")


def _config_for(config: ExperimentConfig, axis: str, value: float) -> ExperimentConfig:
    if axis == "delta":
        return dataclasses.replace(config, scheme=dataclasses.replace(config.scheme, delta=value))
    if axis == "p_s":
        return dataclasses.replace(config, scheme=dataclasses.replace(config.scheme, p_s=value))
    if axis == "g":
        return dataclasses.replace(config, scheme=dataclasses.replace(config.scheme, g=value))
    if axis == "lambda_d":
        return dataclasses.replace(config, params=dataclasses.replace(config.params, lambda_d=value))
    raise ParameterError(f"unknown sweep axis {axis!r}; choose from {SWEEP_AXES}")


def check_sweep(config: ExperimentConfig, axis: str, values) -> None:
    """Raise ``ParameterError`` unless every value of the sweep can run.

    Samples no realization.
    """
    if not values:
        raise ParameterError("sweep needs at least one value")
    for value in values:
        _config_for(config, axis, value)


def sweep(config: ExperimentConfig, axis: str, values) -> list[tuple[float, MetricsReport]]:
    """One report per axis value, all values checked before any Monte Carlo;
    scheme axes share each realization, ``lambda_d`` resamples per value."""
    axis = axis.lower()
    values = list(values)
    check_sweep(config, axis, values)
    configs = [_config_for(config, axis, v) for v in values]
    if axis == "lambda_d":
        reports = [run_experiment(c) for c in configs]
    else:
        reports = run_schemes(config, [c.scheme for c in configs])
    return list(zip(values, reports))


def run_topfraction_grid(params: SystemParams, deltas, ps_values, n_realizations: int,
                         seed: int, window: Window | None = None) -> dict:
    """Measured ASE/coverage for every (guard radius, admitted fraction) pair.

    Shares each sampled realization across the whole grid (common random
    numbers): one received-power matrix over every link serves all guard
    radii, each radius ranks its candidates once, and each p_s measures its
    admitted prefix of that ranking as :func:`run_experiment` would.
    Returns {(delta, p_s): {"ase", "coverage", "n"}}, the means over realizations.
    """
    deltas = [float(x) for x in deltas]
    ps_values = [float(x) for x in ps_values]
    if not all(0 <= ps <= 1 for ps in ps_values):
        raise ParameterError("p_s values must lie in [0, 1]")
    for name, values in (("deltas", deltas), ("ps_values", ps_values)):
        if len(set(values)) != len(values):
            raise ParameterError(f"{name} must not repeat a value, got {values}")
    config = ExperimentConfig(params=params, scheme=SchemeSpec(kind=access.NO_AC),
                              window=window or Window(3000.0, 3000.0),
                              n_realizations=n_realizations, seed=seed)
    area = config.window.area
    log2_beta = math.log2(1.0 + params.beta)
    rp = config.radio_params()

    ase = {key: [] for key in ((dl, ps) for dl in deltas for ps in ps_values)}
    cov = {key: [] for key in ase}
    for index in range(n_realizations):
        real = sample_realization(config, index)
        # over every link, a link's position is its id
        powers = radio.LinkPowers.build(np.arange(len(real.pairs)), real.pairs, real.assoc,
                                        real.fading_est, rp)
        for delta in deltas:
            cand = access.stage1_guard_zone(real.pairs, real.bs, delta)
            ranked = access.rank_by_sir(access.estimate(cand, powers).sir)
            for ps in ps_values:
                admitted = np.sort(ranked[:access.admitted_count(ps, len(cand))])
                sir_d, sir_c = powers.sirs(cand[admitted])
                ase[(delta, ps)].append(int((sir_d > params.beta).sum()) * log2_beta / area)
                cov[(delta, ps)].append(float((sir_c > params.gamma).mean()))

    return {key: {"ase": float(np.mean(ase[key])), "coverage": float(np.mean(cov[key])),
                  "n": len(ase[key])}
            for key in ase}
