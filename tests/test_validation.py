"""Constructor guards and small accessors."""
import numpy as np
import pytest

from d2dsim import radio, simkit, spatial
from d2dsim.errors import ParameterError
from d2dsim.planner import ConstraintSpec
from d2dsim.access import SchemeSpec
from d2dsim.simkit import ExperimentConfig

from conftest import make_params


def test_system_params_guards():
    with pytest.raises(ParameterError):
        make_params(lambda_m=0.0)
    with pytest.raises(ParameterError):
        make_params(alpha=2.0)
    with pytest.raises(ParameterError):
        make_params(lambda_d=-1e-6)
    assert make_params(lambda_d=0.0).lambda_d == 0.0


def test_constraint_spec_guards():
    with pytest.raises(ParameterError, match=r"mu must be in \[0, 1\], got 1.2"):
        ConstraintSpec(mu=1.2)


def test_experiment_config_guards():
    params = make_params()
    with pytest.raises(ParameterError, match="n_realizations"):
        ExperimentConfig(params=params, scheme=SchemeSpec(kind="no_ac"), n_realizations=0)
    with pytest.raises(ParameterError, match="seed"):
        ExperimentConfig(params=params, scheme=SchemeSpec(kind="no_ac"), seed=-1)
    with pytest.raises(ParameterError):
        ExperimentConfig(params=params, scheme=SchemeSpec(kind="no_ac"), n_jobs=0)
    with pytest.raises(ParameterError, match="ccdf_points_db"):
        ExperimentConfig(params=params, scheme=SchemeSpec(kind="no_ac"),
                         ccdf_points_db=(10.0, 0.0))
    for bad in (float("nan"), float("inf"), 4000.0, 1e308):   # 10 ** 400 overflows
        with pytest.raises(ParameterError, match="ccdf_points_db"):
            ExperimentConfig(params=params, scheme=SchemeSpec(kind="no_ac"),
                             ccdf_points_db=(0.0, bad))


def test_experiment_config_rejects_an_underflowing_pathloss():
    # 2121 m is the farthest distance on a 3 km torus; 2121 ** -alpha stays a
    # normal float up to alpha = 92.48.  Construction succeeds (analyze and
    # optimize sample nothing); the check runs where sampling starts.
    for alpha in (92.0, 93.0, 400.0):
        config = ExperimentConfig(params=make_params(alpha=alpha),
                                  scheme=SchemeSpec(kind="no_ac"))
        if alpha < 92.48:
            config.check_sampling()
        else:
            with pytest.raises(ParameterError, match=f"alpha = {alpha}.*2121.32 m"):
                config.check_sampling()
            with pytest.raises(ParameterError, match=f"alpha = {alpha}"):
                simkit.sample_realization(config, 0)
    bounded = spatial.Window(3000.0, 3000.0, topology="bounded")   # 4243 m corner to corner
    assert bounded.farthest_distance == pytest.approx(3000.0 * 2 ** 0.5)
    config = ExperimentConfig(params=make_params(alpha=90.0), scheme=SchemeSpec(kind="no_ac"),
                              window=bounded)
    with pytest.raises(ParameterError, match="alpha = 90.0"):
        config.check_sampling()


def test_check_sampling_bounds_the_realization_size():
    # 1 GiB holds an N x N float64 array up to N = 11 585 links and cells
    window = spatial.Window(1000.0, 1000.0)
    for lambda_d, fits in ((0.011584, True), (0.011585, False), (1e-2, True)):
        config = ExperimentConfig(params=make_params(lambda_d=lambda_d, lambda_m=1e-6),
                                  scheme=SchemeSpec(kind="no_ac"), window=window)
        if fits:
            config.check_sampling()
        else:
            with pytest.raises(ParameterError, match=r"lambda_d = 0.011585 and "
                               r"lambda_m = 1e-06 .* \(window_m\) expect 11586 "):
                config.check_sampling()
            with pytest.raises(ParameterError, match="1 GiB limit"):
                simkit.sample_realization(config, 0)


def test_check_sampling_needs_a_likely_base_station():
    # 64 empty draws in a row have a chance above 1e-3 below ln(1000) / 64 = 0.108
    # expected base stations; 0.16 (a 400 m window at 1e-6) resamples but draws
    for side, drawable in ((400.0, True), (329.0, True), (328.0, False)):
        config = ExperimentConfig(params=make_params(lambda_m=1e-6),
                                  scheme=SchemeSpec(kind="no_ac"),
                                  window=spatial.Window(side, side))
        if drawable:
            config.check_sampling()
        else:
            with pytest.raises(ParameterError, match=r"lambda_m = 1e-06 per m\^2 over a "
                               r"328 x 328 m window \(window_m\) expects 0.108"):
                simkit.sample_realization(config, 0)


def test_check_sampling_needs_a_resolved_finite_link():
    # a link must be at least 1e-9 of the window side, and d ** -alpha finite;
    # at alpha = 200 the far pathloss underflows next, so a passing d meets that check
    window = spatial.Window(1000.0, 1000.0)
    for d, alpha, next_error in ((2e-6, 4.0, None), (9e-7, 4.0, "d = 9e-07 m is too short"),
                                 (0.03, 200.0, "alpha = 200.0: the pathloss underflows"),
                                 (0.02, 200.0, "d = 0.02 m is too short")):
        config = ExperimentConfig(params=make_params(d=d, alpha=alpha),
                                  scheme=SchemeSpec(kind="no_ac"), window=window)
        if next_error is None:
            config.check_sampling()
        else:
            with pytest.raises(ParameterError, match=next_error):
                config.check_sampling()


def test_cell_association_accessors(window):
    bs = spatial.PointSet(np.array([[100.0, 100.0], [2000.0, 2000.0]]), window)
    users = spatial.PointSet(np.array([[150.0, 100.0], [2100.0, 2000.0]]), window)
    assoc = spatial.CellAssociation(bs=bs, users=users)
    assert len(assoc) == 2
    assert tuple(assoc.users.xy[0]) == (150.0, 100.0)
    assert tuple(assoc.bs.xy[1]) == (2000.0, 2000.0)
    with pytest.raises(ParameterError):
        spatial.CellAssociation(bs=bs, users=spatial.PointSet(np.zeros((1, 2)), window))


def test_fading_table_shape():
    with pytest.raises(ParameterError):
        radio.FadingTable(gains=np.ones((2, 3)), n_links=1)
    with pytest.raises(ParameterError):
        radio.FadingTable(gains=np.ones((2, 2)), n_links=3)
    with pytest.raises(ParameterError):
        radio.FadingTable(gains=-np.ones((2, 2)), n_links=1)
    table = radio.draw_fading(1, 1, np.random.default_rng(0))
    assert table.gains.shape == (2, 2) and table.n_links == 1


def test_point_set_rejects_outside_and_nonfinite(window):
    with pytest.raises(ParameterError):
        spatial.PointSet(np.array([[3000.0, 10.0]]), window)   # right edge is exclusive
    with pytest.raises(ParameterError):
        spatial.PointSet(np.array([[np.nan, 10.0]]), window)
