"""The blocked received-power build against the whole-matrix formula it replaced.

``reference_build`` is that formula: one squared-distance matrix, the
pathloss and the fading multiply, each a pass over the whole buffer.
``radio.LinkPowers.build`` must reproduce it bit for bit in a C-ordered
buffer, whose rows every interference sums one at a time.
"""
import math

import numpy as np
import pytest

from d2dsim import radio, spatial
from d2dsim.errors import NumericalError

from conftest import make_params

N_CELLS = 5


def single_block_size() -> int:
    """The largest square buffer whose rows fit in one block."""
    return math.isqrt(radio.BLOCK_ELEMENTS)


def reference_build(links, pairs, assoc, fading, params):
    """(interference, d2d_signal, cell_signal) of the whole-matrix build."""
    links = np.asarray(links, dtype=np.intp)
    sources = np.concatenate([pairs.transmitters.xy[links], assoc.users.xy])
    sinks = np.concatenate([pairs.receivers.xy[links], assoc.bs.xy])
    power = spatial.pairwise_distance(sources, sinks, pairs.window)
    if power.size and power.min() <= 0.0:
        raise NumericalError("zero distance")
    tx_mw = np.full((len(sources), 1), params.p_c_mw, dtype=float)
    tx_mw[:len(links)] = params.p_d_mw
    if params.alpha == 4:
        np.multiply(power, power, out=power)
        np.divide(tx_mw, power, out=power)
    else:
        np.power(power, -0.5 * params.alpha, out=power)
        np.multiply(power, tx_mw, out=power)
    index = np.concatenate([links, np.arange(fading.n_links, fading.n_links + len(assoc))])
    np.multiply(power, fading.gains[np.ix_(index, index)], out=power)
    own, cells = np.arange(len(links)), np.arange(len(links), len(power))
    d2d_signal, cell_signal = power[own, own], power[cells, cells]
    power[own, own] = 0.0
    power[cells, cells] = 0.0
    return power, d2d_signal, cell_signal


def network(n_links, topology, seed):
    """``n_links`` pairs, ``N_CELLS`` cells and their fading on a 1 km window."""
    rng = np.random.default_rng(seed)
    window = spatial.Window(1000.0, 1000.0, topology=topology)
    tx = spatial.PointSet(rng.uniform(0.0, 1000.0, size=(n_links, 2)), window)
    pairs = spatial.place_d2d_pairs(tx, 20.0, rng)
    bs = spatial.PointSet(rng.uniform(0.0, 1000.0, size=(N_CELLS, 2)), window)
    assoc = spatial.place_uplink_users(bs, rng)
    return pairs, assoc, radio.draw_fading(n_links, N_CELLS, rng)


def assert_same_build(links, pairs, assoc, fading, params):
    want, want_d2d, want_cell = reference_build(links, pairs, assoc, fading, params)
    got = radio.LinkPowers.build(links, pairs, assoc, fading, params)
    assert np.array_equal(got.interference, want)
    assert np.array_equal(got.d2d_signal, want_d2d)
    assert np.array_equal(got.cell_signal, want_cell)
    assert np.array_equal(got.interference.sum(axis=0), want.sum(axis=0))
    assert got.interference.flags.c_contiguous and want.flags.c_contiguous
    k = len(links)
    users_to_rx = radio.cellular_to_d2d_power_matrix(links, assoc, pairs, fading, params)
    assert np.array_equal(users_to_rx, want[k:, :k])


SIZES = {   # links, with N_CELLS more rows and columns in the buffer
    "cells only": 0,
    "one link": 1,
    "block - 1": single_block_size() - 1 - N_CELLS,
    "block": single_block_size() - N_CELLS,
    "block + 1": single_block_size() + 1 - N_CELLS,
    "560": 560,
    "900": 900,
}


@pytest.mark.parametrize("gathered", [False, True], ids=["whole table", "gathered"])
@pytest.mark.parametrize("alpha", [4.0, 3.5])
@pytest.mark.parametrize("topology", ["torus", "bounded"])
@pytest.mark.parametrize("n_links", SIZES.values(), ids=SIZES.keys())
def test_blocked_build_equals_whole_matrix_build(n_links, topology, alpha, gathered):
    params = make_params(alpha=alpha)
    # a gathered build drops the table's first link, so its gains need an index
    pairs, assoc, fading = network(n_links + gathered, topology, seed=n_links)
    links = np.arange(gathered, n_links + gathered)
    assert (fading.index(links, N_CELLS) is None) == (not gathered)
    assert_same_build(links, pairs, assoc, fading, params)


def test_block_heights_follow_the_element_budget(monkeypatch):
    pairs, assoc, fading = network(560, "torus", seed=1)
    params = make_params()
    blocks = []
    distance = radio.pairwise_distance

    def recorded(a, b, window):
        blocks.append((len(a), len(b)))
        return distance(a, b, window)

    monkeypatch.setattr(radio, "pairwise_distance", recorded)
    # whole table: 565 rows, 12 blocks of 47 and one of 1; gathered: 564 rows, 12 of 47
    for links in (np.arange(560), np.arange(1, 560)):
        blocks.clear()
        radio.LinkPowers.build(links, pairs, assoc, fading, params)
        n = len(links) + N_CELLS
        height = radio.BLOCK_ELEMENTS // n
        full, rest = divmod(n, height)
        assert [rows for rows, _ in blocks] == [height] * full + [rest] * (rest > 0)
        assert {cols for _, cols in blocks} == {n}


@pytest.mark.parametrize("gathered", [False, True], ids=["whole table", "gathered"])
def test_zero_distance_in_a_later_block_raises(gathered):
    pairs, assoc, fading = network(560, "torus", seed=2)
    window = pairs.window
    tx, rx = pairs.transmitters.xy.copy(), pairs.receivers.xy.copy()
    tx[-1] = rx[-2]     # the last link's transmitter on the receiver before it
    rx[-1] = window.wrap(tx[-1] + (pairs.link_length, 0.0))
    pairs = spatial.D2DPairSet(spatial.PointSet(tx, window), spatial.PointSet(rx, window),
                               pairs.link_length)
    params = make_params()
    links = np.arange(int(gathered), 560)
    assert len(links) - 2 >= radio.BLOCK_ELEMENTS // (len(links) + N_CELLS)   # not the first block
    with pytest.raises(NumericalError):
        radio.LinkPowers.build(links, pairs, assoc, fading, params)
    with pytest.raises(NumericalError):
        reference_build(links, pairs, assoc, fading, params)
