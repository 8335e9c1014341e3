import dataclasses
import math

import numpy as np
import pytest

from d2dsim import access, analytic, cli, radio, simkit, spatial
from d2dsim.access import SchemeSpec
from d2dsim.errors import ParameterError
from d2dsim.simkit import ExperimentConfig
from d2dsim.spatial import Window

from conftest import make_params


def tiny_config(seed=7, n_realizations=6, scheme=None, lambda_d=4e-5, n_jobs=1, **kw):
    return ExperimentConfig(
        params=make_params(lambda_d=lambda_d, lambda_m=4e-6),
        scheme=scheme or SchemeSpec(kind="no_ac"),
        window=Window(1000.0, 1000.0),
        n_realizations=n_realizations,
        seed=seed,
        n_jobs=n_jobs,
        **kw,
    )


class TestRunRealization:
    def test_same_index_is_deterministic(self):
        cfg = tiny_config()
        assert simkit.run_realization(cfg, 3) == simkit.run_realization(cfg, 3)

    def test_different_indices_differ(self):
        cfg = tiny_config()
        assert simkit.run_realization(cfg, 0) != simkit.run_realization(cfg, 1)

    def test_no_d2d_gives_single_tier_metrics(self):
        cfg = tiny_config(lambda_d=0.0)
        m = simkit.run_realization(cfg, 0)
        assert m.n_potential == m.n_candidates == m.n_active == 0
        assert m.d2d_successes == 0 and m.d2d_shannon_sum == 0.0
        assert m.n_cells >= 1
        assert 0 <= m.cellular_covered <= m.n_cells

    def test_counts_are_consistent(self):
        cfg = tiny_config(scheme=SchemeSpec(kind="proposed_top_fraction", delta=100.0, p_s=0.5))
        for i in range(5):
            m = simkit.run_realization(cfg, i)
            assert m.n_active <= m.n_candidates <= m.n_potential
            assert m.d2d_successes <= m.n_active
            assert m.cellular_covered <= m.n_cells

    def test_zero_bs_draws_are_resampled_and_counted(self):
        cfg = ExperimentConfig(params=make_params(lambda_d=1e-4, lambda_m=1e-6),
                               scheme=SchemeSpec(kind="no_ac"),
                               window=Window(400.0, 400.0),
                               n_realizations=50, seed=5)
        report = simkit.run_experiment(cfg)
        assert report.n_resampled > 0


class TestRunExperiment:
    def test_single_realization_report_is_degenerate(self):
        cfg = tiny_config(n_realizations=1)
        report = simkit.run_experiment(cfg)
        m = simkit.run_realization(cfg, 0)
        assert report.cellular_coverage.mean == pytest.approx(m.cellular_covered / m.n_cells)
        assert report.cellular_coverage.ci_low == report.cellular_coverage.ci_high

    def test_worker_count_does_not_change_report(self):
        serial = simkit.run_experiment(tiny_config(n_jobs=1))
        pooled = simkit.run_experiment(tiny_config(n_jobs=2))
        assert serial == pooled

    @pytest.mark.parametrize("cpus", [1, None])
    def test_workers_are_capped_at_the_cpu_count(self, monkeypatch, cpus):
        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a process pool was started with one CPU")

        monkeypatch.setattr(simkit.os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(simkit, "ProcessPoolExecutor", NoPool)
        many = simkit.run_experiment(tiny_config(n_jobs=64))
        assert many == simkit.run_experiment(tiny_config(n_jobs=1))

    def test_integer_cellular_power_keeps_d2d_power(self):
        # an int p_c_mw once gave the power column an int dtype, storing p_d_mw = 0.1 as 0
        as_int = dataclasses.replace(tiny_config(), params=make_params(lambda_d=4e-5,
                                                                       lambda_m=4e-6, p_c_mw=10))
        assert simkit.run_experiment(as_int) == simkit.run_experiment(tiny_config())

    def test_ci_shrinks_with_realizations(self):
        small = simkit.run_experiment(tiny_config(n_realizations=32))
        large = simkit.run_experiment(tiny_config(n_realizations=512))
        width = lambda s: s.ci_high - s.ci_low
        assert width(large.ase) < width(small.ase) / 2.5

    def test_infinite_sir_is_capped_and_counted(self):
        # one isolated cell with no D2D: the uplink sees no interference at all
        cfg = ExperimentConfig(params=make_params(lambda_d=0.0, lambda_m=1e-6),
                               scheme=SchemeSpec(kind="no_ac"),
                               window=Window(500.0, 500.0),
                               n_realizations=8, seed=11, rate_ceiling=30.0)
        report = simkit.run_experiment(cfg)
        assert report.n_infinite_sir > 0
        assert report.r_c.mean <= 8 * 30.0 / 500.0 ** 2

    def test_guard_zones_never_hurt_coverage_realizationwise(self):
        base = tiny_config(seed=23)
        gz = dataclasses.replace(base, scheme=SchemeSpec(kind="guard_zone_only", delta=150.0))
        for i in range(25):
            m_na = simkit.run_realization(base, i)
            m_gz = simkit.run_realization(gz, i)
            assert m_gz.cellular_covered >= m_na.cellular_covered

    def test_single_tier_coverage_tracks_analytic_ceiling(self):
        # cellular-only network: measured coverage near the quadrature ceiling.
        # the window is wide enough (6 km) that truncating interference beyond
        # the half-window no longer inflates the SIR; at 3 km that bias alone
        # is ~0.025 and would swamp the approximation error being checked
        params = make_params(lambda_d=0.0, lambda_m=1e-6)
        cfg = ExperimentConfig(params=params, scheme=SchemeSpec(kind="no_ac"),
                               window=Window(6000.0, 6000.0), n_realizations=1200, seed=42)
        report = simkit.run_experiment(cfg)
        assert abs(report.cellular_coverage.mean
                   - analytic.max_cellular_coverage(params)) < 0.02


ALL_SCHEMES = [
    SchemeSpec(kind="no_ac"),
    SchemeSpec(kind="guard_zone_only", delta=100.0),
    SchemeSpec(kind="channel_aware", delta=100.0, p_s=0.5),
    SchemeSpec(kind="channel_aware", delta=100.0, g_min=1e-7),
    SchemeSpec(kind="proposed_threshold", delta=100.0, g=1.0),
    SchemeSpec(kind="proposed_top_fraction", delta=100.0, p_s=0.55),
]


def count_samples(monkeypatch) -> list:
    """Record the index of every realization simkit samples from now on."""
    sampled = []
    original = simkit.sample_realization

    def counting(config, index):
        sampled.append(index)
        return original(config, index)

    monkeypatch.setattr(simkit, "sample_realization", counting)
    return sampled


class TestRunSchemes:
    @pytest.mark.parametrize("n_jobs", [1, 2])
    @pytest.mark.parametrize("refresh", [False, True])
    def test_equals_one_experiment_per_scheme(self, n_jobs, refresh):
        cfg = tiny_config(n_jobs=n_jobs, refresh_fading_between_phases=refresh,
                          ccdf_points_db=(-5.0, 0.0, 5.0))
        reports = simkit.run_schemes(cfg, ALL_SCHEMES)
        assert reports == [simkit.run_experiment(dataclasses.replace(cfg, scheme=scheme))
                           for scheme in ALL_SCHEMES]

    def test_samples_each_realization_once(self, monkeypatch):
        sampled = count_samples(monkeypatch)
        reports = simkit.run_schemes(tiny_config(), ALL_SCHEMES)
        assert len(reports) == len(ALL_SCHEMES)
        assert sampled == list(range(6))

    @pytest.mark.parametrize("caller", ["tune_channel_aware", "compare_schemes", "sweep",
                                        "sweep_mu", "compare_schemes_tuning_2",
                                        "compare_schemes_tuning_3", "compare_schemes_tuning_5"])
    def test_callers_sample_each_realization_once(self, monkeypatch, caller):
        rc = cli.resolve_config({"lambda_m": "4e-6", "lambda_d": "4e-5", "window_m": "1000",
                                 "n_realizations": "3", "seed": "7",
                                 "scheme.kind": "guard_zone_only", "scheme.delta": "0"})
        sampled = count_samples(monkeypatch)
        expected = [0, 1, 2]
        if caller == "tune_channel_aware":
            cli.tune_channel_aware(rc, n_tuning=3)
        elif caller == "compare_schemes":
            cli.compare_schemes(rc, subset=("proposed", "guard_zone_only", "no_ac"))
        elif caller.startswith("compare_schemes_tuning_"):
            # the channel-aware tuning shares networks 0 ... n_tuning - 1 with the table
            n_tuning = int(caller.rpartition("_")[2])
            cli.compare_schemes(rc, n_tuning=n_tuning)
            expected = list(range(max(rc.n_realizations, n_tuning)))
        elif caller == "sweep":
            simkit.sweep(rc, "delta", [0.0, 100.0, 200.0])
        else:
            proposed = dataclasses.replace(rc, scheme=SchemeSpec(kind="proposed_threshold",
                                                                 delta=0.0, g=1.0))
            cli.sweep_mu([dataclasses.replace(proposed, mu=mu) for mu in (0.3, 0.5, 1.0)])
        assert sampled == expected


SHARED_SCHEMES = {
    "no_ac": SchemeSpec(kind="no_ac"),
    "guard_zone": SchemeSpec(kind="guard_zone_only", delta=100.0),
    "channel_aware_p_s": SchemeSpec(kind="channel_aware", delta=100.0, p_s=0.5),
    "channel_aware_g_min": SchemeSpec(kind="channel_aware", delta=150.0, g_min=1e-7),
    "threshold_near": SchemeSpec(kind="proposed_threshold", delta=50.0, g=1.0),
    "threshold_far": SchemeSpec(kind="proposed_threshold", delta=150.0, g=0.5),
    "top_fraction_far": SchemeSpec(kind="proposed_top_fraction", delta=150.0, p_s=0.55),
}

MIXES = [   # each mix's shared matrix covers a different union of links
    list(SHARED_SCHEMES),                                       # every link
    ["guard_zone", "threshold_near", "top_fraction_far"],       # no no_ac
    ["no_ac", "threshold_far"],
    ["threshold_near", "threshold_far", "top_fraction_far"],    # two guard radii
    ["channel_aware_p_s", "channel_aware_g_min"],               # admitted links only
    ["top_fraction_far", "channel_aware_g_min", "no_ac"],
]


def dedicated_sirs(cfg, scheme, real):
    """Reference data-phase SIRs of ``scheme``: a matrix built under the
    data-phase draw over its own links on air, each interference summed by
    an explicit loop over the rows (the links on air, then the users)."""
    rp = cfg.radio_params()
    active = access.apply_scheme(scheme, real, rp)
    p = radio.LinkPowers.build(active.active, real.pairs, real.assoc, real.fading_data, rp)
    total = np.zeros(p.interference.shape[1])
    for row in p.interference:
        total = total + row
    k = len(p.links)
    return radio.sir(p.d2d_signal, total[:k]), radio.sir(p.cell_signal, total[k:])


class TestSharedPowers:
    """Each realization's one received-power matrix serves every scheme of a
    mix, and every scheme measures exactly what matrices built over its own
    links give."""

    @pytest.mark.parametrize("refresh", [False, True])
    @pytest.mark.parametrize("topology", ["torus", "bounded"])
    @pytest.mark.parametrize("alpha", [4.0, 3.5])
    def test_mixed_schemes_measure_as_alone(self, alpha, topology, refresh):
        # about 200 links: the build spans more than one block of rows
        cfg = ExperimentConfig(params=make_params(lambda_d=2e-4, lambda_m=4e-6, alpha=alpha),
                               scheme=SchemeSpec(kind="no_ac"),
                               window=Window(1000.0, 1000.0, topology=topology),
                               n_realizations=3, seed=29,
                               refresh_fading_between_phases=refresh,
                               ccdf_points_db=(-5.0, 0.0, 5.0, 10.0),
                               collect_sir_samples=True)
        for index in range(cfg.n_realizations):
            real = simkit.sample_realization(cfg, index)
            assert len(real.pairs) * len(real.pairs) > radio.BLOCK_ELEMENTS
            alone = {name: simkit._measure_all(cfg, [scheme], real)[0]
                     for name, scheme in SHARED_SCHEMES.items()}
            for name, scheme in SHARED_SCHEMES.items():
                sir_d, sir_c = dedicated_sirs(cfg, scheme, real)
                assert alone[name].sir_samples_d2d == tuple(sir_d.tolist()), (index, name)
                assert alone[name].sir_samples_cell == tuple(sir_c.tolist()), (index, name)
            for mix in MIXES:
                got = simkit._measure_all(cfg, [SHARED_SCHEMES[name] for name in mix], real)
                assert got == [alone[name] for name in mix], (index, mix)

    @pytest.mark.parametrize("refresh, builds", [(False, 1), (True, 2)])
    def test_one_build_per_realization(self, monkeypatch, refresh, builds):
        calls = []
        original = radio.d2d_power_matrix

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(radio, "d2d_power_matrix", counting)
        cfg = tiny_config(refresh_fading_between_phases=refresh)
        simkit.run_schemes(cfg, SHARED_SCHEMES.values())
        assert len(calls) == builds * cfg.n_realizations


def pooled_samples(cfg):
    """Every D2D and every cellular SIR of ``cfg``'s run, pooled over its
    realizations, from a run that keeps them."""
    kept = dataclasses.replace(cfg, collect_sir_samples=True)
    per_real = [simkit.run_realization(kept, i) for i in range(cfg.n_realizations)]
    return (np.concatenate([m.sir_samples_d2d for m in per_real]),
            np.concatenate([m.sir_samples_cell for m in per_real]))


def pooled_ccdf(samples, abscissae_db) -> tuple:
    """Reference CCDF: the share of the pooled samples strictly above each abscissa."""
    thresholds = np.power(10.0, np.asarray(abscissae_db, dtype=float) / 10.0)
    return tuple(float(np.mean(samples > t)) for t in thresholds)


def ccdf_config(refresh, abscissae_db):
    return tiny_config(scheme=SchemeSpec(kind="proposed_threshold", delta=100.0, g=1.0),
                       refresh_fading_between_phases=refresh, ccdf_points_db=abscissae_db)


def one_link_realization():
    """One D2D link and one cell on exact binary distances and gains.

    With unit powers and alpha = 4, the link's SIR is 4 * 2.5 = 10 (10 dB)
    and the base station's is 16 * 6.25 = 100 (20 dB), both exact in floating point.
    """
    window = Window(1000.0, 1000.0)
    pairs = spatial.D2DPairSet(spatial.PointSet([[100.0, 100.0]], window),
                               spatial.PointSet([[116.0, 100.0]], window), link_length=16.0)
    bs = spatial.PointSet([[132.0, 100.0]], window)
    assoc = spatial.CellAssociation(bs=bs, users=spatial.PointSet([[132.0, 116.0]], window))
    # rows: the link's transmitter, the user; columns: the link's receiver, the BS
    fading = radio.FadingTable(np.array([[2.5, 1.0], [1.0, 6.25]]), n_links=1)
    return simkit.Realization(bs=bs, assoc=assoc, pairs=pairs, fading_est=fading,
                              fading_data=fading)


class TestReportCcdf:
    """The report's CCDFs, pooled from per-realization counts, equal the CCDF
    of every SIR pooled, under coherent and refreshed fading."""

    @pytest.mark.parametrize("refresh", [False, True])
    def test_matches_pooled_samples(self, refresh):
        abscissae = (-10.0, -5.0, 0.0, 5.0, 10.0, 20.0)
        cfg = ccdf_config(refresh, abscissae)
        sir_d, sir_c = pooled_samples(cfg)
        report = simkit.run_experiment(cfg)
        assert report.ccdf_d2d == pooled_ccdf(sir_d, abscissae)
        assert report.ccdf_cell == pooled_ccdf(sir_c, abscissae)

    def test_below_minimum_is_one(self):
        for refresh in (False, True):
            sir_d, sir_c = pooled_samples(ccdf_config(refresh, ()))
            below = (math.floor(10 * math.log10(min(sir_d.min(), sir_c.min()))) - 1.0,)
            report = simkit.run_experiment(ccdf_config(refresh, below))
            assert report.ccdf_d2d == pooled_ccdf(sir_d, below) == (1.0,)
            assert report.ccdf_cell == pooled_ccdf(sir_c, below) == (1.0,)

    def test_above_maximum_is_zero(self):
        for refresh in (False, True):
            sir_d, sir_c = pooled_samples(ccdf_config(refresh, ()))
            assert np.all(np.isfinite(sir_d)) and np.all(np.isfinite(sir_c))
            above = (math.ceil(10 * math.log10(max(sir_d.max(), sir_c.max()))) + 1.0,)
            report = simkit.run_experiment(ccdf_config(refresh, above))
            assert report.ccdf_d2d == pooled_ccdf(sir_d, above) == (0.0,)
            assert report.ccdf_cell == pooled_ccdf(sir_c, above) == (0.0,)

    def test_strictly_above_semantics(self):
        # an SIR exactly at an abscissa is not above it
        real = one_link_realization()
        cfg = ExperimentConfig(params=make_params(p_c_mw=1.0, p_d_mw=1.0),
                               scheme=SchemeSpec(kind="no_ac"), window=real.pairs.window,
                               n_realizations=1, ccdf_points_db=(9.0, 10.0, 20.0),
                               collect_sir_samples=True)
        [m] = simkit._measure_all(cfg, [cfg.scheme], real)
        assert m.sir_samples_d2d == (10.0,) and m.sir_samples_cell == (100.0,)
        assert m.ccdf_above_d2d == (1, 0, 0)
        assert m.ccdf_above_cell == (1, 1, 0)
        report = simkit.aggregate(cfg, [m])
        assert report.ccdf_d2d == (1.0, 0.0, 0.0)
        assert report.ccdf_cell == (1.0, 1.0, 0.0)

    def test_report_carries_ccdf_when_requested(self):
        cfg = tiny_config(ccdf_points_db=(-5.0, 0.0, 5.0))
        report = simkit.run_experiment(cfg)
        assert len(report.ccdf_cell) == 3
        assert all(0.0 <= v <= 1.0 for v in report.ccdf_cell)
        assert np.all(np.diff(report.ccdf_cell) <= 0)

    def test_samples_kept_only_when_asked(self):
        cfg = tiny_config(ccdf_points_db=(-5.0, 0.0, 5.0))
        for i in range(cfg.n_realizations):
            m = simkit.run_realization(cfg, i)
            assert m.sir_samples_d2d == () and m.sir_samples_cell == ()
            assert len(m.ccdf_above_d2d) == len(m.ccdf_above_cell) == 3
        kept = simkit.run_realization(dataclasses.replace(cfg, collect_sir_samples=True), 0)
        assert len(kept.sir_samples_d2d) == kept.n_active
        assert len(kept.sir_samples_cell) == kept.n_cells

    def test_no_links_gives_empty_d2d_ccdf(self):
        report = simkit.run_experiment(tiny_config(lambda_d=0.0, ccdf_points_db=(0.0,)))
        assert report.ccdf_d2d == ()
        assert len(report.ccdf_cell) == 1


class TestSweep:
    def test_single_value_sweep_equals_run_experiment(self):
        cfg = tiny_config(scheme=SchemeSpec(kind="guard_zone_only", delta=100.0))
        [(value, report)] = simkit.sweep(cfg, "delta", [100.0])
        assert value == 100.0
        assert report == simkit.run_experiment(cfg)

    def test_unknown_axis_rejected(self):
        with pytest.raises(ParameterError):
            simkit.sweep(tiny_config(), "bandwidth", [1.0])

    def test_empty_values_rejected(self):
        with pytest.raises(ParameterError):
            simkit.sweep(tiny_config(), "delta", [])

    def test_csv_shape(self):
        cfg = tiny_config(scheme=SchemeSpec(kind="guard_zone_only", delta=100.0),
                          n_realizations=3)
        results = simkit.sweep(cfg, "delta", [50.0, 150.0])
        text = cli._csv([row for value, report in results
                         for row in cli._stat_rows(report, axis="delta", value=value)])
        lines = text.strip().splitlines()
        assert lines[0] == "axis,value,metric,mean,ci_low,ci_high,n"
        assert len(lines) == 1 + 2 * 7

    def test_admitting_more_links_erodes_coverage(self):
        cfg = ExperimentConfig(params=make_params(lambda_d=4e-5),
                               scheme=SchemeSpec(kind="proposed_top_fraction",
                                                 delta=100.0, p_s=0.1),
                               window=Window(1500.0, 1500.0),
                               n_realizations=200, seed=83)
        results = simkit.sweep(cfg, "p_s", [0.1, 0.4, 0.7, 1.0])
        for (_, sparse), (_, dense) in zip(results, results[1:]):
            assert dense.cellular_coverage.ci_low <= sparse.cellular_coverage.ci_high

    @pytest.mark.parametrize("axis, values, scheme", [
        ("p_s", [0.5, 0.6, 1.5], SchemeSpec(kind="proposed_top_fraction", delta=0.0, p_s=0.5)),
        ("lambda_d", [6e-5, -1.0], SchemeSpec(kind="no_ac")),
    ])
    def test_every_value_is_checked_before_any_realization(self, monkeypatch, axis, values,
                                                           scheme):
        def sampled(*args):
            raise AssertionError("a realization was sampled before the last value was checked")

        monkeypatch.setattr(simkit, "sample_realization", sampled)
        with pytest.raises(ParameterError):
            simkit.sweep(tiny_config(scheme=scheme), axis, values)

    def test_mu_is_not_a_sweep_axis(self):
        # simkit knows nothing of plans; the CLI sweeps mu by re-planning
        cfg = tiny_config(scheme=SchemeSpec(kind="proposed_threshold", delta=0.0, g=1.0))
        with pytest.raises(ParameterError, match="unknown sweep axis 'mu'"):
            simkit.sweep(cfg, "mu", [0.3])


class TestTopFractionGrid:
    def test_matches_run_experiment_at_single_point(self):
        params = make_params(lambda_d=4e-5, lambda_m=4e-6)
        window = Window(1000.0, 1000.0)
        grid = simkit.run_topfraction_grid(params, deltas=[120.0], ps_values=[0.5],
                                           n_realizations=40, seed=13, window=window)
        cell = grid[(120.0, 0.5)]
        cfg = ExperimentConfig(params=params,
                               scheme=SchemeSpec(kind="proposed_top_fraction",
                                                 delta=120.0, p_s=0.5),
                               window=window, n_realizations=40, seed=13)
        report = simkit.run_experiment(cfg)
        assert cell["ase"] == report.ase.mean
        assert cell["coverage"] == report.cellular_coverage.mean
        assert cell["n"] == 40

    def test_rejects_bad_fractions(self):
        with pytest.raises(ParameterError):
            simkit.run_topfraction_grid(make_params(), [100.0], [1.5], 5, 1)

    @pytest.mark.parametrize("field, deltas, ps_values",
                             [("deltas", [100.0, 100.0], [0.5]),
                              ("ps_values", [100.0], [0.5, 0.5])],
                             ids=["deltas", "ps_values"])
    def test_rejects_repeated_values_by_name(self, monkeypatch, field, deltas, ps_values):
        # a repeat would append each realization to its cell twice, so n = 2 * n_realizations
        def unreachable(*args):
            raise AssertionError("sampled a realization")

        monkeypatch.setattr(simkit, "sample_realization", unreachable)
        with pytest.raises(ParameterError, match=field):
            simkit.run_topfraction_grid(make_params(), deltas, ps_values, 3, 1)

    def test_rejects_zero_realizations(self):
        # an empty sample would give NaN for every grid cell
        with pytest.raises(ParameterError, match="n_realizations"):
            simkit.run_topfraction_grid(make_params(), [100.0], [0.5], 0, 1)

    def test_rejects_negative_seed_by_name(self):
        with pytest.raises(ParameterError, match="seed must be nonnegative"):
            simkit.run_topfraction_grid(make_params(), [100.0], [0.5], 5, -1)
