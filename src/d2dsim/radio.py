"""Pathloss, Rayleigh fading, and interference-limited SIR evaluation.

The network is interference limited: thermal noise is pinned to zero and every
quality metric is a signal-to-interference ratio.  A link with no interferer
at all gets ``math.inf`` as a sentinel and is flagged by the caller.

Every SIR comes from one received-power matrix: rows are D2D transmitters
then uplink users, columns are D2D receivers then base stations.
:func:`d2d_power_matrix` builds it through :func:`received_power`, the one
place where fading gains meet the pathloss, and :meth:`LinkPowers.build`
hands out its signals as diagonals and interference as column sums.

The build runs in blocks of ``max(1, BLOCK_ELEMENTS // n)`` rows along the
output buffer's contiguous axis, ``n`` being that axis' length: each block's
squared distances, pathloss and fading multiply stay in the L2 cache, where
the whole matrix (about 2.5 MB at the reference density) does not.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ParameterError
from .spatial import CellAssociation, D2DPairSet, pairwise_distance


# Elements in one block of the received-power build: about 216 KB per float64
# temporary, so a block's few buffers fit a 2 MB L2 cache together.
BLOCK_ELEMENTS = 27_000


def _take(matrix: np.ndarray, rows, cols) -> np.ndarray:
    """``matrix[np.ix_(rows, cols)]``, gathered rows first (about twice as fast)."""
    return matrix[rows][:, cols]


def _column_sums(matrix: np.ndarray, rows, cols) -> np.ndarray:
    """``_take(matrix, rows, cols).sum(axis=0)``: each column summed pairwise,
    as in that Fortran-ordered gather, but gathered ``BLOCK_ELEMENTS //
    len(matrix)`` columns at a time (as rows of the transpose), so the whole
    selection is never held at once."""
    out = np.empty(len(cols))
    width = max(1, BLOCK_ELEMENTS // max(1, len(matrix)))
    for start in range(0, len(cols), width):
        block = np.take(matrix.T[cols[start:start + width]], rows, axis=1)
        np.sum(block, axis=1, out=out[start:start + width])
    return out


@dataclass(frozen=True)
class RadioParams:
    """Transmit powers and the power-law pathloss exponent (no noise term)."""

    alpha: float
    p_c_mw: float
    p_d_mw: float

    def __post_init__(self):
        if not 2 < self.alpha < math.inf:
            raise ParameterError(f"pathloss exponent must be finite and exceed 2, got {self.alpha}")
        for name in ("p_c_mw", "p_d_mw"):
            if not 0 < getattr(self, name) < math.inf:
                raise ParameterError(
                    f"{name} must be positive and finite, got {getattr(self, name)}")


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

    def for_links(self, links: np.ndarray, n_cells: int) -> np.ndarray:
        """Gains from links ``links`` then ``n_cells`` users to the same links'
        receivers then their BSs.

        Zero-copy when that is the whole table in stored order.
        """
        index = self._index(links, n_cells)
        if index.size == len(self.gains) and np.array_equal(index, np.arange(index.size)):
            return self.gains
        return _take(self.gains, index, index)

    def from_users(self, links: np.ndarray, n_cells: int) -> np.ndarray:
        """Gains from ``n_cells`` users to the receivers of links ``links``."""
        index = self._index(links, n_cells)
        return _take(self.gains, index[len(links):], index[:len(links)])

    def _index(self, links: np.ndarray, n_cells: int) -> np.ndarray:
        """Table positions of links ``links`` then of ``n_cells`` cells."""
        if len(links) and (links.min() < 0 or links.max() >= self.n_links):
            raise ParameterError("the fading table has no gains for some link")
        if n_cells > len(self.gains) - self.n_links:
            raise ParameterError("the fading table has no gains for some cell")
        return np.concatenate([links, np.arange(self.n_links, self.n_links + n_cells)])


def draw_fading(n_links: int, n_cells: int, rng: np.random.Generator) -> FadingTable:
    """Draw an i.i.d. Exp(1) gain for every (transmitter, receiver) pair."""
    gains = rng.standard_exponential(size=(n_links + n_cells, n_links + n_cells))
    gains.flags.writeable = False
    return FadingTable(gains=gains, n_links=n_links)


def link_ids(ids) -> np.ndarray:
    """A collection of link ids as a sorted index array."""
    return np.fromiter(sorted(ids), dtype=np.intp, count=len(ids))


def d2d_power_matrix(links, pairs: D2DPairSet, params: RadioParams,
                     assoc: CellAssociation | None = None,
                     gains: np.ndarray | None = None) -> np.ndarray:
    """Received power (mW) from every transmitter at every receiver.

    Row k is the transmitter of link ``links[k]`` and column k its receiver,
    so the diagonal carries each link's own signal power.  With ``assoc``
    the uplink users follow as rows and the base stations as columns, so
    user ``u`` and base station ``u`` share an index.  ``gains``, laid out
    the same way, multiplies in the fading; without it the power is
    pathloss only.  See :func:`received_power` for the buffer it returns.
    """
    links = np.asarray(links, dtype=np.intp)
    sources = pairs.transmitters.xy[links]
    sinks = pairs.receivers.xy[links]
    n_cells = 0 if assoc is None else len(assoc)
    if n_cells:
        sources = np.concatenate([sources, assoc.users.xy])
        sinks = np.concatenate([sinks, assoc.bs.xy])
    tx_mw = np.full(len(sources), params.p_c_mw, dtype=float)
    tx_mw[:len(links)] = params.p_d_mw
    return received_power(sources, sinks, tx_mw, pairs.window, params.alpha, gains)


def received_power(sources, sinks, tx_mw: np.ndarray, window, alpha: float,
                   gains: np.ndarray | None = None) -> np.ndarray:
    """``tx_mw[i] * d(i, j) ** -alpha * gains[i, j]`` from each source to each sink.

    The package's one pathloss kernel: ``1 / (d2 * d2)`` at alpha = 4,
    ``d2 ** (-alpha / 2)`` otherwise, from squared distances ``d2``.  A
    writeable ``gains`` buffer is overwritten and returned, keeping its
    memory order, since column sums round in buffer order; otherwise the
    result is a new C-ordered buffer.  Each block of rows along the
    buffer's contiguous axis gets its distances, pathloss, transmit power
    and gains in one go.  A Fortran-ordered buffer is filled through its
    transpose, sinks by sources, which is bit-exact: ``|a - b| == |b - a|``.
    A zero distance in any block raises :class:`NumericalError`.
    """
    result = gains if gains is not None and gains.flags.writeable \
        else np.empty((len(sources), len(sinks)))
    out, tx_rows = result, tx_mw[:, None]
    transposed = not result.flags.c_contiguous
    if transposed:
        sources, sinks, out, gains, tx_rows = sinks, sources, result.T, gains.T, tx_mw[None, :]
    height = max(1, BLOCK_ELEMENTS // max(1, out.shape[1]))
    for start in range(0, out.shape[0], height):
        rows = slice(start, start + height)
        power = pairwise_distance(sources[rows], sinks, window)
        if power.size and power.min() <= 0.0:
            raise NumericalError("zero distance: a transmitter sits on a receiver")
        tx = tx_rows if transposed else tx_rows[rows]
        if alpha == 4:
            np.multiply(power, power, out=power)
            np.divide(tx, power, out=power)
        else:
            np.power(power, -0.5 * alpha, out=power)
            np.multiply(power, tx, out=power)
        if gains is None:
            out[rows] = power
        else:
            np.multiply(power, gains[rows], out=out[rows])
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
    every interference is a column sum over the rows on air.
    """

    links: np.ndarray
    interference: np.ndarray
    d2d_signal: np.ndarray
    cell_signal: np.ndarray

    @classmethod
    def build(cls, links, pairs: D2DPairSet, assoc: CellAssociation | None,
              fading: FadingTable, params: RadioParams) -> "LinkPowers":
        """Compute the matrix for sorted link ids ``links`` under ``fading``."""
        links = np.asarray(links, dtype=np.intp)
        n_cells = 0 if assoc is None else len(assoc)
        power = d2d_power_matrix(links, pairs, params, assoc, fading.for_links(links, n_cells))
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

    def _cells(self) -> np.ndarray:
        return np.arange(len(self.links), self.interference.shape[0])

    def _on_air(self, tx) -> np.ndarray:
        """Row positions of links ``tx`` followed by every uplink user."""
        return np.concatenate([tx, self._cells()])

    def d2d(self, rx=None, tx=None):
        """Signal and interference (mW) at the receivers of positions ``rx``.

        Positions ``tx`` and every uplink user transmit; ``tx`` defaults to
        ``rx`` and both default to every link.  Given positions, each
        interference is summed pairwise over the rows on air.
        """
        k = len(self.links)
        if rx is None and tx is None:
            return self.d2d_signal, self.interference[:, :k].sum(axis=0)
        rx = np.arange(k) if rx is None else rx
        tx = rx if tx is None else tx
        return self.d2d_signal[rx], _column_sums(self.interference, self._on_air(tx), rx)

    def cellular(self, tx=None):
        """Own-user signal and interference (mW) at every base station.

        Every uplink user and the links at positions ``tx`` (default: all)
        transmit.  Given positions, each interference is summed row by row
        over the rows on air.
        """
        rows = slice(None) if tx is None else self._on_air(tx)
        return self.cell_signal, self.interference[rows, len(self.links):].sum(axis=0)

    def d2d_alone(self, at):
        """:meth:`d2d` while only the links at positions ``at`` and the users
        transmit, rounded as a matrix built over those links alone rounds it:
        as stored when ``at`` is every position, pairwise (as in a gathered,
        Fortran-ordered build) otherwise."""
        return self.d2d() if len(at) == len(self.links) else self.d2d(at)

    def cellular_alone(self, at):
        """:meth:`cellular` while the links at positions ``at`` transmit,
        rounded as in :meth:`d2d_alone`."""
        if len(at) == len(self.links):
            return self.cellular()
        return self.cell_signal, _column_sums(self.interference, self._on_air(at), self._cells())

    def nested(self, ranked, counts):
        """Signal and interference while each prefix ``ranked[:c]`` transmits.

        Yields (D2D signal, D2D interference, cellular interference) per count
        in ``counts``.  Running column sums over the ranked rows make every
        prefix cost one row of the cumulative sum.
        """
        k = len(self.links)
        users = self._cells()
        cum_d2d = np.cumsum(_take(self.interference, ranked, ranked), axis=0)
        from_users = _take(self.interference, users, ranked).sum(axis=0)
        cum_bs = np.cumsum(self.interference[ranked, k:], axis=0)
        _, cell_base = self.cellular(ranked[:0])
        for c in counts:
            if c == 0:
                yield self.d2d_signal[:0], from_users[:0], cell_base
            else:
                yield (self.d2d_signal[ranked[:c]], cum_d2d[c - 1, :c] + from_users[:c],
                       cell_base + cum_bs[c - 1])


def cellular_to_d2d_power_matrix(rx_indices: np.ndarray, assoc: CellAssociation, pairs: D2DPairSet,
                                 fading: FadingTable, params: RadioParams) -> np.ndarray:
    """Received power (mW) at the receivers of links ``rx_indices`` (columns)
    from each uplink user (rows)."""
    rx = np.asarray(rx_indices, dtype=np.intp)
    return received_power(assoc.users.xy, pairs.receivers.xy[rx],
                          np.full(len(assoc), params.p_c_mw, dtype=float), pairs.window,
                          params.alpha, fading.from_users(rx, len(assoc)))


def d2d_sir_values(transmitting, measured, pairs: D2DPairSet, assoc: CellAssociation,
                   fading: FadingTable, params: RadioParams):
    """Signal and interference (mW) for the measured links.

    ``transmitting`` is the set of D2D links on air; ``measured`` the links
    whose receivers are being evaluated.  All uplink users always interfere.
    Returns aligned arrays (measured_ids, signal, interference).
    """
    tx = link_ids(transmitting)
    rx = link_ids(measured)
    links = np.union1d(tx, rx)
    powers = LinkPowers.build(links, pairs, assoc, fading, params)
    signal, inter = powers.d2d(np.searchsorted(links, rx), np.searchsorted(links, tx))
    return rx, signal, inter


def cellular_sir_values(active_d2d, assoc: CellAssociation, pairs: D2DPairSet,
                        fading: FadingTable, params: RadioParams):
    """Signal and interference (mW) at every base station.

    The BS's own user is the signal; all other uplink users and every active
    D2D transmitter interfere.
    """
    powers = LinkPowers.build(link_ids(active_d2d), pairs, assoc, fading, params)
    signal, inter = powers.cellular()
    return np.arange(len(assoc)), signal, inter
