"""Constructor guards and small accessors."""
import numpy as np
import pytest

from d2dsim import radio, spatial
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
    with pytest.raises(ParameterError):
        ConstraintSpec(mu=1.2, gamma=1.0)
    with pytest.raises(ParameterError):
        ConstraintSpec(mu=0.3, gamma=0.0)


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
