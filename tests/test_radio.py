import math

import numpy as np
import pytest

from d2dsim import radio, spatial
from d2dsim.errors import NumericalError, ParameterError
from d2dsim.radio import FadingTable, RadioParams
from d2dsim.spatial import CellAssociation, D2DPairSet, PointSet


def seeded(i=0):
    return np.random.default_rng(np.random.SeedSequence(entropy=888, spawn_key=(i,)))


def ones_fading(n_d2d, n_users, n_bs):
    tx_ids = [("d2d", j) for j in range(n_d2d)] + [("cell", k) for k in range(n_users)]
    rx_ids = [("d2drx", i) for i in range(n_d2d)] + [("bs", b) for b in range(n_bs)]
    return FadingTable(gains=np.ones((len(tx_ids), len(rx_ids))), tx_ids=tuple(tx_ids),
                       rx_ids=tuple(rx_ids))


def one_link_net(window, user_xy, bs_xy, tx=(1000.0, 1000.0), rx=(1050.0, 1000.0)):
    pairs = D2DPairSet(PointSet(np.array([tx]), window), PointSet(np.array([rx]), window), 50.0)
    assoc = CellAssociation(bs=PointSet(np.array(bs_xy), window),
                            users=PointSet(np.array(user_xy), window))
    return pairs, assoc


class TestRadioParams:
    def test_alpha_must_exceed_two(self):
        with pytest.raises(ParameterError):
            RadioParams(alpha=2.0, p_c_mw=10.0, p_d_mw=0.1)

    def test_noise_is_out_of_scope(self):
        with pytest.raises(ParameterError):
            RadioParams(alpha=4.0, p_c_mw=10.0, p_d_mw=0.1, noise_mw=1e-12)


class TestPathloss:
    def test_unit_distance(self):
        assert radio.pathloss(1.0, 3.7) == 1.0

    def test_fifty_meters_alpha_four(self):
        assert radio.pathloss(50.0, 4.0) == pytest.approx(1.6e-7, rel=1e-12)

    def test_zero_distance_is_singular(self):
        with pytest.raises(ParameterError):
            radio.pathloss(0.0, 4.0)


class TestDrawFading:
    def test_empty_ids_give_empty_table(self):
        table = radio.draw_fading([], [], seeded())
        assert table.gains.shape == (0, 0)

    def test_unit_mean(self):
        table = radio.draw_fading([("d2d", j) for j in range(1000)],
                                  [("d2drx", i) for i in range(1000)], seeded(1))
        n = table.gains.size
        assert abs(table.gains.mean() - 1.0) < 3.0 / math.sqrt(n)

    def test_exceedance_of_one_is_exp_minus_one(self):
        table = radio.draw_fading([("d2d", j) for j in range(1000)],
                                  [("d2drx", i) for i in range(1000)], seeded(2))
        p = (table.gains > 1.0).mean()
        target = math.exp(-1.0)
        assert abs(p - target) < 3 * math.sqrt(target * (1 - target) / table.gains.size)

    def test_gain_lookup_matches_block(self):
        table = radio.draw_fading([("d2d", 0), ("d2d", 1), ("cell", 0)],
                                  [("d2drx", 0), ("bs", 0)], seeded(3))
        assert table.gain(("d2d", 1), ("bs", 0)) == table.block("d2d", "bs")[1, 0]
        assert table.gain(("cell", 0), ("d2drx", 0)) == table.block("cell", "d2drx")[0, 0]


    def test_kind_runs_match_explicit_ids(self):
        runs = radio.draw_fading(radio.KindRuns(("d2d", 3), ("cell", 2)),
                                 radio.KindRuns(("d2drx", 3), ("bs", 2)), seeded(7))
        explicit = radio.draw_fading([("d2d", j) for j in range(3)] + [("cell", k) for k in range(2)],
                                     [("d2drx", i) for i in range(3)] + [("bs", b) for b in range(2)],
                                     seeded(7))
        assert np.array_equal(runs.gains, explicit.gains)
        assert list(runs.tx_ids) == list(explicit.tx_ids)
        assert runs.gain(("cell", 1), ("d2drx", 2)) == explicit.gain(("cell", 1), ("d2drx", 2))
        assert np.array_equal(runs.block("d2d", "bs"), explicit.block("d2d", "bs"))

    def test_tables_are_read_only_and_never_alias_a_caller_array(self):
        assert not radio.draw_fading([("d2d", 0)], [("d2drx", 0)], seeded(8)).gains.flags.writeable
        gains = np.ones((1, 1))
        table = FadingTable(gains=gains, tx_ids=(("d2d", 0),), rx_ids=(("d2drx", 0),))
        gains[0, 0] = 5.0
        assert table.gain(("d2d", 0), ("d2drx", 0)) == 1.0
        with pytest.raises(ValueError):
            table.gains[0, 0] = 5.0


class TestSirD2D:
    def test_single_interferer_hand_value(self, window):
        # signal: 0.1 * 50^-4; interference: one uplink user 500 m from the receiver
        pairs, assoc = one_link_net(window, user_xy=[[1550.0, 1000.0]], bs_xy=[[2500.0, 2500.0]])
        fading = ones_fading(1, 1, 1)
        params = RadioParams(alpha=4.0, p_c_mw=10.0, p_d_mw=0.1)
        sample = radio.sir_d2d(0, [0], assoc, pairs, fading, params)
        assert sample.sir == pytest.approx(100.0, rel=1e-12)
        assert sample.signal_mw == pytest.approx(0.1 * 50.0 ** -4, rel=1e-12)

    def test_no_interferers_returns_infinite_sentinel(self, window):
        pairs = D2DPairSet(PointSet(np.array([[1000.0, 1000.0]]), window),
                           PointSet(np.array([[1050.0, 1000.0]]), window), 50.0)
        assoc = CellAssociation(bs=PointSet(np.zeros((0, 2)), window),
                                users=PointSet(np.zeros((0, 2)), window))
        fading = ones_fading(1, 0, 0)
        params = RadioParams(alpha=4.0, p_c_mw=10.0, p_d_mw=0.1)
        sample = radio.sir_d2d(0, [0], assoc, pairs, fading, params)
        assert sample.infinite
        assert math.isinf(sample.sir)

    def test_power_scale_invariance(self, window):
        rng = seeded(4)
        tx = spatial.sample_ppp(3e-5, window, rng)
        pairs = spatial.place_d2d_pairs(tx, 50.0, rng)
        bs = spatial.sample_ppp(1e-6, window, rng)
        assoc = spatial.place_uplink_users(bs, rng)
        n, nb = len(pairs), len(bs)
        fading = radio.draw_fading(
            [("d2d", j) for j in range(n)] + [("cell", k) for k in range(nb)],
            [("d2drx", i) for i in range(n)] + [("bs", b) for b in range(nb)], rng)
        base = RadioParams(alpha=4.0, p_c_mw=10.0, p_d_mw=0.1)
        scaled = RadioParams(alpha=4.0, p_c_mw=10.0 * 7.3, p_d_mw=0.1 * 7.3)
        active = range(n)
        _, s1, i1 = radio.d2d_sir_values(active, active, pairs, assoc, fading, base)
        _, s2, i2 = radio.d2d_sir_values(active, active, pairs, assoc, fading, scaled)
        assert np.allclose(s1 / i1, s2 / i2, rtol=1e-12)
        _, c1, ic1 = radio.cellular_sir_values(active, assoc, pairs, fading, base)
        _, c2, ic2 = radio.cellular_sir_values(active, assoc, pairs, fading, scaled)
        assert np.allclose(c1 / ic1, c2 / ic2, rtol=1e-12)

    def test_removing_an_interferer_never_lowers_sir(self, window):
        rng = seeded(5)
        tx = spatial.sample_ppp(2e-5, window, rng)
        pairs = spatial.place_d2d_pairs(tx, 50.0, rng)
        bs = spatial.sample_ppp(1e-6, window, rng)
        assoc = spatial.place_uplink_users(bs, rng)
        n, nb = len(pairs), len(bs)
        fading = radio.draw_fading(
            [("d2d", j) for j in range(n)] + [("cell", k) for k in range(nb)],
            [("d2drx", i) for i in range(n)] + [("bs", b) for b in range(nb)], rng)
        params = RadioParams(alpha=4.0, p_c_mw=10.0, p_d_mw=0.1)
        full = radio.sir_d2d(0, range(n), assoc, pairs, fading, params)
        fewer = radio.sir_d2d(0, range(n - 1), assoc, pairs, fading, params)
        assert fewer.sir >= full.sir


class TestSirCellular:
    def test_single_d2d_interferer_hand_value(self, window):
        # own uplink at 500 m, one active D2D transmitter 250 m from the BS
        pairs = D2DPairSet(PointSet(np.array([[1250.0, 1000.0]]), window),
                           PointSet(np.array([[1300.0, 1000.0]]), window), 50.0)
        assoc = CellAssociation(bs=PointSet(np.array([[1000.0, 1000.0]]), window),
                                users=PointSet(np.array([[1000.0, 1500.0]]), window))
        fading = ones_fading(1, 1, 1)
        params = RadioParams(alpha=4.0, p_c_mw=10.0, p_d_mw=0.1)
        sample = radio.sir_cellular(0, [0], assoc, pairs, fading, params)
        assert sample.sir == pytest.approx(6.25, rel=1e-12)

    def test_single_cell_no_d2d_is_infinite(self, window):
        pairs = D2DPairSet(PointSet(np.zeros((0, 2)), window),
                           PointSet(np.zeros((0, 2)), window), 50.0)
        assoc = CellAssociation(bs=PointSet(np.array([[1000.0, 1000.0]]), window),
                                users=PointSet(np.array([[1400.0, 1000.0]]), window))
        fading = ones_fading(0, 1, 1)
        params = RadioParams(alpha=4.0, p_c_mw=10.0, p_d_mw=0.1)
        sample = radio.sir_cellular(0, [], assoc, pairs, fading, params)
        assert sample.infinite

    def test_interference_decreases_when_active_removed(self, window):
        rng = seeded(6)
        tx = spatial.sample_ppp(2e-5, window, rng)
        pairs = spatial.place_d2d_pairs(tx, 50.0, rng)
        bs = spatial.sample_ppp(2e-6, window, rng)
        assoc = spatial.place_uplink_users(bs, rng)
        n, nb = len(pairs), len(bs)
        fading = radio.draw_fading(
            [("d2d", j) for j in range(n)] + [("cell", k) for k in range(nb)],
            [("d2drx", i) for i in range(n)] + [("bs", b) for b in range(nb)], rng)
        params = RadioParams(alpha=4.0, p_c_mw=10.0, p_d_mw=0.1)
        _, _, i_full = radio.cellular_sir_values(range(n), assoc, pairs, fading, params)
        _, _, i_less = radio.cellular_sir_values(range(n - 1), assoc, pairs, fading, params)
        assert np.all(i_less <= i_full)

    def test_colocated_transmitter_raises(self, window):
        pairs = D2DPairSet(PointSet(np.array([[1000.0, 1000.0]]), window),
                           PointSet(np.array([[1050.0, 1000.0]]), window), 50.0)
        assoc = CellAssociation(bs=PointSet(np.array([[1000.0, 1000.0]]), window),
                                users=PointSet(np.array([[1300.0, 1000.0]]), window))
        fading = ones_fading(1, 1, 1)
        params = RadioParams(alpha=4.0, p_c_mw=10.0, p_d_mw=0.1)
        with pytest.raises(NumericalError):
            radio.sir_cellular(0, [0], assoc, pairs, fading, params)
