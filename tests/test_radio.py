import math

import numpy as np
import pytest

from d2dsim import radio, spatial
from d2dsim.errors import NumericalError, ParameterError
from d2dsim.radio import FadingTable
from d2dsim.spatial import CellAssociation, D2DPairSet, PointSet

from conftest import make_params


def seeded(i=0):
    return np.random.default_rng(np.random.SeedSequence(entropy=888, spawn_key=(i,)))


def ones_fading(n_d2d, n_cells):
    return FadingTable(gains=np.ones((n_d2d + n_cells, n_d2d + n_cells)), n_links=n_d2d)


def one_link_net(window, user_xy, bs_xy, tx=(1000.0, 1000.0), rx=(1050.0, 1000.0)):
    pairs = D2DPairSet(PointSet(np.array([tx]), window), PointSet(np.array([rx]), window), 50.0)
    assoc = CellAssociation(bs=PointSet(np.array(bs_xy), window),
                            users=PointSet(np.array(user_xy), window))
    return pairs, assoc


def mean_link_power(window, length, alpha):
    """Received power of one link at unit transmit power under unit gains,
    beside one far cell."""
    pairs = D2DPairSet(PointSet(np.array([[1000.0, 1000.0]]), window),
                       PointSet(np.array([[1000.0 + length, 1000.0]]), window), length)
    assoc = CellAssociation(bs=PointSet(np.array([[2500.0, 2500.0]]), window),
                            users=PointSet(np.array([[2450.0, 2500.0]]), window))
    params = make_params(alpha=alpha, p_d_mw=1.0)
    return radio.d2d_power_matrix([0], pairs, assoc, ones_fading(1, 1), params)[0, 0]


class TestPathloss:
    def test_unit_distance(self, window):
        assert mean_link_power(window, 1.0, 3.7) == 1.0

    def test_fifty_meters_alpha_four(self, window):
        assert mean_link_power(window, 50.0, 4.0) == pytest.approx(1.6e-7, rel=1e-12)

    def test_zero_distance_is_singular(self, window):
        with pytest.raises(NumericalError):
            mean_link_power(window, 0.0, 4.0)


class TestDrawFading:
    def test_empty_ids_give_empty_table(self):
        table = radio.draw_fading(0, 0, seeded())
        assert table.gains.shape == (0, 0)

    def test_unit_mean(self):
        table = radio.draw_fading(1000, 0, seeded(1))
        n = table.gains.size
        assert abs(table.gains.mean() - 1.0) < 3.0 / math.sqrt(n)

    def test_exceedance_of_one_is_exp_minus_one(self):
        table = radio.draw_fading(1000, 0, seeded(2))
        p = (table.gains > 1.0).mean()
        target = math.exp(-1.0)
        assert abs(p - target) < 3 * math.sqrt(target * (1 - target) / table.gains.size)

    def test_index_gives_links_then_cells(self):
        table = radio.draw_fading(3, 2, seeded(3))
        assert table.gains.shape == (5, 5)
        links = np.array([2, 0])
        assert table.index(links, 2).tolist() == [2, 0, 3, 4]
        assert table.index(links, 1).tolist() == [2, 0, 3]
        assert table.index(np.arange(3), 2) is None
        assert table.index(np.arange(3), 1).tolist() == [0, 1, 2, 3]
        with pytest.raises(ParameterError):
            table.index(np.array([3]), 2)
        with pytest.raises(ParameterError):
            table.index(np.array([-1]), 2)
        with pytest.raises(ParameterError):
            table.index(links, 3)

    def test_tables_are_read_only_and_never_alias_a_caller_array(self):
        assert not radio.draw_fading(1, 0, seeded(8)).gains.flags.writeable
        gains = np.ones((1, 1))
        table = FadingTable(gains=gains, n_links=1)
        gains[0, 0] = 5.0
        assert table.gains[0, 0] == 1.0
        with pytest.raises(ValueError):
            table.gains[0, 0] = 5.0


class TestSirD2D:
    def test_single_interferer_hand_value(self, window):
        # signal: 0.1 * 50^-4; interference: one uplink user 500 m from the receiver
        pairs, assoc = one_link_net(window, user_xy=[[1550.0, 1000.0]], bs_xy=[[2500.0, 2500.0]])
        fading = ones_fading(1, 1)
        params = make_params()
        ids, signal, inter = radio.d2d_sir_values([0], [0], pairs, assoc, fading, params)
        assert ids.tolist() == [0]
        assert radio.sir(signal, inter)[0] == pytest.approx(100.0, rel=1e-12)
        assert signal[0] == pytest.approx(0.1 * 50.0 ** -4, rel=1e-12)

    def test_no_interferers_returns_infinite_sentinel(self, window):
        pairs = D2DPairSet(PointSet(np.array([[1000.0, 1000.0]]), window),
                           PointSet(np.array([[1050.0, 1000.0]]), window), 50.0)
        assoc = CellAssociation(bs=PointSet(np.zeros((0, 2)), window),
                                users=PointSet(np.zeros((0, 2)), window))
        fading = ones_fading(1, 0)
        params = make_params()
        _, signal, inter = radio.d2d_sir_values([0], [0], pairs, assoc, fading, params)
        assert inter[0] == 0.0
        assert math.isinf(radio.sir(signal, inter)[0])

    def test_power_scale_invariance(self, window):
        rng = seeded(4)
        tx = spatial.sample_ppp(3e-5, window, rng)
        pairs = spatial.place_d2d_pairs(tx, 50.0, rng)
        bs = spatial.sample_ppp(1e-6, window, rng)
        assoc = spatial.place_uplink_users(bs, rng)
        n, nb = len(pairs), len(bs)
        fading = radio.draw_fading(n, nb, rng)
        base = make_params()
        scaled = make_params(p_c_mw=10.0 * 7.3, p_d_mw=0.1 * 7.3)
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
        fading = radio.draw_fading(n, nb, rng)
        params = make_params()
        full = radio.sir(*radio.d2d_sir_values(range(n), [0], pairs, assoc, fading, params)[1:])
        fewer = radio.sir(*radio.d2d_sir_values(range(n - 1), [0], pairs, assoc, fading, params)[1:])
        assert fewer[0] >= full[0]


class TestSirCellular:
    def test_single_d2d_interferer_hand_value(self, window):
        # own uplink at 500 m, one active D2D transmitter 250 m from the BS
        pairs = D2DPairSet(PointSet(np.array([[1250.0, 1000.0]]), window),
                           PointSet(np.array([[1300.0, 1000.0]]), window), 50.0)
        assoc = CellAssociation(bs=PointSet(np.array([[1000.0, 1000.0]]), window),
                                users=PointSet(np.array([[1000.0, 1500.0]]), window))
        fading = ones_fading(1, 1)
        params = make_params()
        _, signal, inter = radio.cellular_sir_values([0], assoc, pairs, fading, params)
        assert radio.sir(signal, inter)[0] == pytest.approx(6.25, rel=1e-12)

    def test_single_cell_no_d2d_is_infinite(self, window):
        pairs = D2DPairSet(PointSet(np.zeros((0, 2)), window),
                           PointSet(np.zeros((0, 2)), window), 50.0)
        assoc = CellAssociation(bs=PointSet(np.array([[1000.0, 1000.0]]), window),
                                users=PointSet(np.array([[1400.0, 1000.0]]), window))
        fading = ones_fading(0, 1)
        params = make_params()
        _, signal, inter = radio.cellular_sir_values([], assoc, pairs, fading, params)
        assert math.isinf(radio.sir(signal, inter)[0])

    def test_interference_decreases_when_active_removed(self, window):
        rng = seeded(6)
        tx = spatial.sample_ppp(2e-5, window, rng)
        pairs = spatial.place_d2d_pairs(tx, 50.0, rng)
        bs = spatial.sample_ppp(2e-6, window, rng)
        assoc = spatial.place_uplink_users(bs, rng)
        n, nb = len(pairs), len(bs)
        fading = radio.draw_fading(n, nb, rng)
        params = make_params()
        _, _, i_full = radio.cellular_sir_values(range(n), assoc, pairs, fading, params)
        _, _, i_less = radio.cellular_sir_values(range(n - 1), assoc, pairs, fading, params)
        assert np.all(i_less <= i_full)

    def test_colocated_transmitter_raises(self, window):
        pairs = D2DPairSet(PointSet(np.array([[1000.0, 1000.0]]), window),
                           PointSet(np.array([[1050.0, 1000.0]]), window), 50.0)
        assoc = CellAssociation(bs=PointSet(np.array([[1000.0, 1000.0]]), window),
                                users=PointSet(np.array([[1300.0, 1000.0]]), window))
        fading = ones_fading(1, 1)
        params = make_params()
        with pytest.raises(NumericalError):
            radio.cellular_sir_values([0], assoc, pairs, fading, params)


def row_loop_sum(matrix, rows):
    """The rows ``rows`` of ``matrix`` added one at a time, in order."""
    total = np.zeros(matrix.shape[1])
    for row in rows:
        total = total + matrix[row]
    return total


class TestOneSummationRule:
    """Every interference is the sum of the rows on air, added row by row in
    position order: the links on air, then every uplink user."""

    @pytest.mark.parametrize("n_links, n_cells, first", [(30, 1, 0), (40, 4, 9)],
                             ids=["one BS", "gathered"])
    def test_interference_is_a_row_loop_sum(self, window, n_links, n_cells, first):
        rng = seeded(9)
        tx = PointSet(rng.uniform(0.0, 3000.0, size=(n_links, 2)), window)
        pairs = spatial.place_d2d_pairs(tx, 50.0, rng)
        bs = PointSet(rng.uniform(0.0, 3000.0, size=(n_cells, 2)), window)
        assoc = spatial.place_uplink_users(bs, rng)
        fading = radio.draw_fading(n_links, n_cells, rng)
        # a gathered build leaves out the table's first links
        links = np.arange(first, n_links)
        params = make_params(alpha=3.5)
        powers = radio.LinkPowers.build(links, pairs, assoc, fading, params)
        k = len(links)
        assert len(powers.interference) == k + n_cells >= 17
        users = list(range(k, k + n_cells))
        on_air = np.arange(0, k, 2)
        rx = np.arange(1, k, 3)
        every = row_loop_sum(powers.interference, range(k + n_cells))
        some = row_loop_sum(powers.interference, [*on_air, *users])
        alone = row_loop_sum(powers.interference, users)
        for at, want in ((np.arange(k), every), (on_air, some), (on_air[:0], alone)):
            sir_d, sir_c = powers.sirs(at)
            assert np.array_equal(sir_d, radio.sir(powers.d2d_signal[at], want[at]))
            assert np.array_equal(sir_c, radio.sir(powers.cell_signal, want[k:]))
        # these two build their own matrices, over only the links they name
        ids, signal, inter = radio.d2d_sir_values(links[on_air], links[rx], pairs, assoc,
                                                  fading, params)
        assert np.array_equal(ids, links[rx])
        assert np.array_equal(signal, powers.d2d_signal[rx])
        assert np.array_equal(inter, some[rx])
        for active, want in ((links[on_air], some), ([], alone)):
            cells, signal, inter = radio.cellular_sir_values(active, assoc, pairs, fading, params)
            assert cells.tolist() == list(range(n_cells))
            assert np.array_equal(signal, powers.cell_signal)
            assert np.array_equal(inter, want[k:])
