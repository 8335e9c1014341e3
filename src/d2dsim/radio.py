"""Pathloss, Rayleigh fading, and interference-limited SIR evaluation.

The network is interference limited: thermal noise is pinned to zero and every
quality metric is a signal-to-interference ratio.  A link with no interferer
at all gets ``math.inf`` as a sentinel and is flagged by the caller.

Every SIR comes from one received-power matrix: rows are D2D transmitters
then uplink users, columns are D2D receivers then base stations.
:func:`d2d_power_matrix` builds it, the one place where fading gains meet
the pathloss, and :meth:`LinkPowers.build` hands out its signals as
diagonals and interference as column sums.

One summation rule holds everywhere: the matrix is C-ordered, and an
interference is the full-width sum of the rows on air, taken row by row in
ascending position order.  Each column then adds its terms in link-id order
whatever other links the matrix covers, so a link measures the same bits in
any matrix that holds the links on air.  Every SIR the simulator measures is
read from those sums by :meth:`LinkPowers.sirs`.

The build runs in blocks of ``max(1, BLOCK_ELEMENTS // n)`` rows, ``n``
being the number of columns: each block's squared distances, pathloss and
fading multiply stay in the L2 cache, where the whole matrix (about 2.5 MB
at the reference density) does not.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import SystemParams
from .errors import NumericalError, ParameterError
from .spatial import CellAssociation, D2DPairSet, pairwise_distance


# Elements in one block of the received-power build: about 216 KB per float64
# temporary, so a block's few buffers fit a 2 MB L2 cache together.
BLOCK_ELEMENTS = 27_000


@dataclass(frozen=True)
class FadingTable:
    """i.i.d. unit-mean exponential power gains laid out like :func:`d2d_power_matrix`.

    Rows are the ``n_links`` D2D transmitters then one uplink user per cell;
    columns are the D2D receivers then the base stations, so user ``u`` and
    base station ``u`` both sit at ``n_links + u``.  Reusing one table across
    both protocol phases models a coherence interval that spans the whole
    transmission.  An owned, read-only gain array (as :func:`draw_fading`
    makes) is kept as is; anything else is copied.
    """

    gains: np.ndarray
    n_links: int

    def __post_init__(self):
        gains = np.asarray(self.gains, dtype=float)
        if gains.ndim != 2 or gains.shape[0] != gains.shape[1] \
                or not 0 <= self.n_links <= gains.shape[0]:
            raise ParameterError("gain matrix must be square with a row per link and per cell")
        if gains.size and gains.min() < 0:
            raise ParameterError("fading gains must be nonnegative")
        if gains.flags.writeable or not gains.flags.owndata:
            gains = gains.copy()
            gains.flags.writeable = False
        object.__setattr__(self, "gains", gains)

    def index(self, links: np.ndarray, n_cells: int) -> np.ndarray | None:
        """Table positions of links ``links`` then of ``n_cells`` cells, or
        None when they are the whole table in stored order."""
        if len(links) and (links.min() < 0 or links.max() >= self.n_links):
            raise ParameterError("the fading table has no gains for some link")
        if n_cells > len(self.gains) - self.n_links:
            raise ParameterError("the fading table has no gains for some cell")
        index = np.concatenate([links, np.arange(self.n_links, self.n_links + n_cells)])
        if index.size == len(self.gains) and np.array_equal(index, np.arange(index.size)):
            return None
        return index


def draw_fading(n_links: int, n_cells: int, rng: np.random.Generator) -> FadingTable:
    """Draw an i.i.d. Exp(1) gain for every (transmitter, receiver) pair."""
    gains = rng.standard_exponential(size=(n_links + n_cells, n_links + n_cells))
    gains.flags.writeable = False
    return FadingTable(gains=gains, n_links=n_links)


def link_ids(ids) -> np.ndarray:
    """A collection of link ids as a sorted index array."""
    return np.fromiter(sorted(ids), dtype=np.intp, count=len(ids))


def d2d_power_matrix(links, pairs: D2DPairSet, assoc: CellAssociation,
                     fading: FadingTable, params: SystemParams) -> np.ndarray:
    """Received power (mW) from every transmitter at every receiver.

    Row k is the transmitter of link ``links[k]`` and column k its receiver,
    so the diagonal carries each link's own signal power; the uplink users
    follow as rows and the base stations as columns, so user ``u`` and base
    station ``u`` share an index.  Entry (i, j) is ``P_i * d2 ** (-alpha / 2)
    * h_ij`` from the squared distance ``d2`` (``1 / (d2 * d2)`` at alpha =
    4) and the gain ``h_ij`` of ``fading``, gathered one block at a time
    when ``links`` are not the whole table.  The result is a new C-ordered
    buffer.  A zero distance in any block raises :class:`NumericalError`.
    """
    links = np.asarray(links, dtype=np.intp)
    index = fading.index(links, len(assoc))
    sources = np.concatenate([pairs.transmitters.xy[links], assoc.users.xy])
    sinks = np.concatenate([pairs.receivers.xy[links], assoc.bs.xy])
    tx_mw = np.full(len(sources), params.p_c_mw, dtype=float)
    tx_mw[:len(links)] = params.p_d_mw
    result = np.empty((len(sources), len(sinks)))
    height = max(1, BLOCK_ELEMENTS // max(1, result.shape[1]))
    for start in range(0, result.shape[0], height):
        rows = slice(start, start + height)
        power = pairwise_distance(sources[rows], sinks, pairs.window)
        if power.size and power.min() <= 0.0:
            raise NumericalError("zero distance: a transmitter sits on a receiver")
        if params.alpha == 4:
            np.multiply(power, power, out=power)
            np.divide(tx_mw[rows, None], power, out=power)
        else:
            np.power(power, -0.5 * params.alpha, out=power)
            np.multiply(power, tx_mw[rows, None], out=power)
        block = result[rows]
        if index is None:
            np.multiply(power, fading.gains[rows], out=block)
        else:
            # gather the block's gains into the output, never the whole table;
            # "clip" lets take write there unbuffered (the index is checked)
            np.take(np.take(fading.gains, index[rows], axis=0), index, axis=1,
                    out=block, mode="clip")
            np.multiply(power, block, out=block)
    return result


def sir(signal, interference) -> np.ndarray:
    """``signal / interference``, with ``inf`` where nothing interferes."""
    out = np.full(np.shape(signal), np.inf)
    np.divide(signal, interference, out=out, where=interference > 0)
    return out


@dataclass(frozen=True)
class LinkPowers:
    """The received powers among ``links`` and the cellular tier.

    Laid out as :func:`d2d_power_matrix` over ``links`` and the cellular
    tier: position ``m < len(links)`` is link ``links[m]``, the rest are the
    cells.  The own link's power (the D2D block's diagonal) and each base
    station's own-user power (the cellular block's diagonal) are moved to
    ``d2d_signal`` and ``cell_signal`` and zeroed in ``interference``, so
    every interference is a column sum over the rows on air, summed row by
    row over full-width rows (see the module docstring).
    """

    links: np.ndarray
    interference: np.ndarray
    d2d_signal: np.ndarray
    cell_signal: np.ndarray

    @classmethod
    def build(cls, links, pairs: D2DPairSet, assoc: CellAssociation,
              fading: FadingTable, params: SystemParams) -> "LinkPowers":
        """Compute the matrix for sorted link ids ``links`` under ``fading``."""
        links = np.asarray(links, dtype=np.intp)
        power = d2d_power_matrix(links, pairs, assoc, fading, params)
        own = np.arange(len(links))
        cells = np.arange(len(links), power.shape[0])
        d2d_signal = power[own, own]
        cell_signal = power[cells, cells]
        power[own, own] = 0.0
        power[cells, cells] = 0.0
        return cls(links=links, interference=power, d2d_signal=d2d_signal,
                   cell_signal=cell_signal)

    def positions(self, links) -> np.ndarray:
        """Positions of the sorted link ids ``links``, each one of ``self.links``."""
        return np.searchsorted(self.links, links)

    def _sum(self, tx) -> np.ndarray:
        """Interference (mW) at every receiver and base station while the
        links at the ascending positions ``tx`` and every uplink user
        transmit: the rows on air summed row by row, full width."""
        if len(tx) == len(self.links):
            return self.interference.sum(axis=0)
        users = np.arange(len(self.links), len(self.interference))
        return self.interference[np.concatenate([tx, users])].sum(axis=0)

    def sirs(self, at):
        """D2D SIRs at the ascending positions ``at`` and cellular SIRs at
        every base station while those links and every uplink user transmit,
        from one sum."""
        inter = self._sum(at)
        return (sir(self.d2d_signal[at], inter[at]),
                sir(self.cell_signal, inter[len(self.links):]))


def cellular_to_d2d_power_matrix(rx_indices: np.ndarray, assoc: CellAssociation, pairs: D2DPairSet,
                                 fading: FadingTable, params: SystemParams) -> np.ndarray:
    """Received power (mW) at the receivers of links ``rx_indices`` (columns)
    from each uplink user (rows)."""
    powers = LinkPowers.build(rx_indices, pairs, assoc, fading, params)
    k = len(powers.links)
    return powers.interference[k:, :k]


def d2d_sir_values(transmitting, measured, pairs: D2DPairSet, assoc: CellAssociation,
                   fading: FadingTable, params: SystemParams):
    """Signal and interference (mW) for the measured links.

    ``transmitting`` is the set of D2D links on air; ``measured`` the links
    whose receivers are being evaluated.  All uplink users always interfere.
    Returns aligned arrays (measured_ids, signal, interference).
    """
    tx = link_ids(transmitting)
    rx = link_ids(measured)
    powers = LinkPowers.build(np.union1d(tx, rx), pairs, assoc, fading, params)
    at = powers.positions(rx)
    return rx, powers.d2d_signal[at], powers._sum(powers.positions(tx))[at]


def cellular_sir_values(active_d2d, assoc: CellAssociation, pairs: D2DPairSet,
                        fading: FadingTable, params: SystemParams):
    """Signal and interference (mW) at every base station.

    The BS's own user is the signal; all other uplink users and every active
    D2D transmitter interfere.
    """
    powers = LinkPowers.build(link_ids(active_d2d), pairs, assoc, fading, params)
    every = np.arange(len(powers.links))
    return np.arange(len(assoc)), powers.cell_signal, powers._sum(every)[len(powers.links):]
