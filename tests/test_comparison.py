"""Scheme comparison at the reference density: ordering and plumbing."""
import dataclasses

import pytest

from d2dsim import analytic, cli, simkit
from d2dsim.access import SchemeSpec
from d2dsim.simkit import ExperimentConfig
from d2dsim.spatial import Window

from conftest import make_params


@pytest.fixture(scope="module")
def comparison():
    rc = cli.resolve_config({"lambda_d": "6e-5", "mu": "0.3", "seed": "61",
                             "n_realizations": "500"})
    return cli.compare_schemes(rc, n_tuning=120)


def test_four_rows_emitted(comparison):
    assert set(comparison["rows"]) == {"proposed", "channel_aware",
                                       "guard_zone_only", "no_ac"}
    csv_text = cli._csv([{**row, "scheme": name} for name, row in comparison["rows"].items()])
    assert len(csv_text.strip().splitlines()) == 5


def test_rate_ordering_matches_published_ranking(comparison):
    rows = comparison["rows"]
    assert rows["proposed"]["r_d"] > rows["channel_aware"]["r_d"] > \
        rows["guard_zone_only"]["r_d"]


def test_no_ac_trades_coverage_for_d2d_rate(comparison):
    rows = comparison["rows"]
    assert rows["no_ac"]["cellular_coverage"] < rows["guard_zone_only"]["cellular_coverage"]
    assert rows["no_ac"]["r_c"] < rows["proposed"]["r_c"]


def test_constrained_schemes_meet_the_floor_roughly(comparison):
    floor = 0.7 * comparison["plan"]["p_max_coverage"]
    for name in ("proposed", "channel_aware", "guard_zone_only"):
        assert comparison["rows"][name]["cellular_coverage"] > floor - 0.03


class TestFadingRefreshSwitch:
    def test_refresh_changes_data_phase_only(self):
        cfg = ExperimentConfig(params=make_params(lambda_d=4e-5, lambda_m=4e-6),
                               scheme=SchemeSpec(kind="proposed_top_fraction",
                                                 delta=100.0, p_s=0.5),
                               window=Window(1000.0, 1000.0),
                               n_realizations=4, seed=19)
        coherent = simkit.run_experiment(cfg)
        refreshed = simkit.run_experiment(
            dataclasses.replace(cfg, refresh_fading_between_phases=True))
        # same geometry and admissions, different data-phase gains
        assert refreshed.active_fraction.mean == coherent.active_fraction.mean
        assert refreshed.r_d.mean != coherent.r_d.mean
        again = simkit.run_experiment(
            dataclasses.replace(cfg, refresh_fading_between_phases=True))
        assert again == refreshed

    def test_coherent_fading_rewards_admitted_links(self):
        # admission keyed on the same fading realization that carries the data
        # phase should beat an independent redraw
        cfg = ExperimentConfig(params=make_params(lambda_d=4e-5, lambda_m=2e-6),
                               scheme=SchemeSpec(kind="proposed_top_fraction",
                                                 delta=100.0, p_s=0.4),
                               window=Window(2000.0, 2000.0),
                               n_realizations=150, seed=29)
        coherent = simkit.run_experiment(cfg)
        refreshed = simkit.run_experiment(
            dataclasses.replace(cfg, refresh_fading_between_phases=True))
        assert coherent.ase.mean > refreshed.ase.mean


class TestCoverageCrossValidation:
    @pytest.mark.parametrize("delta", [100.0, 250.0])
    def test_analytic_coverage_is_a_tight_conservative_estimate(self, delta):
        # the keep-out Laplace transform overstates D2D interference from the
        # punched field, so the quadrature should sit slightly below the
        # measurement, and close to it at moderate density
        params = make_params(lambda_d=2e-5)
        predicted = analytic.cellular_coverage(1.0, 2e-5, delta, params)
        cfg = ExperimentConfig(params=params,
                               scheme=SchemeSpec(kind="guard_zone_only", delta=delta),
                               window=Window(6000.0, 6000.0),
                               n_realizations=250, seed=303)
        report = simkit.run_experiment(cfg)
        gap = report.cellular_coverage.mean - predicted
        noise = report.cellular_coverage.ci_high - report.cellular_coverage.mean
        assert gap > -noise
        assert gap < 0.06


class TestBoundedTopology:
    def test_experiment_runs_with_bounded_window(self):
        cfg = ExperimentConfig(params=make_params(lambda_d=4e-5, lambda_m=4e-6),
                               scheme=SchemeSpec(kind="proposed_top_fraction",
                                                 delta=100.0, p_s=0.5),
                               window=Window(1000.0, 1000.0, topology="bounded"),
                               n_realizations=4, seed=37)
        report = simkit.run_experiment(cfg)
        assert 0.0 <= report.cellular_coverage.mean <= 1.0
        assert report == simkit.run_experiment(cfg)
