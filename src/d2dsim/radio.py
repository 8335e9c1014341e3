"""Pathloss, Rayleigh fading, and interference-limited SIR evaluation.

The network is interference limited: thermal noise is pinned to zero and every
quality metric is a signal-to-interference ratio.  A link with no interferer
at all gets ``math.inf`` as a sentinel and is flagged by the caller.

Every SIR comes from one received-power matrix (:func:`d2d_power_matrix`):
rows are D2D transmitters then uplink users, columns are D2D receivers then
base stations.  :class:`LinkPowers` holds it for one set of links and hands
out signals as diagonals and interference as column sums.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericalError, ParameterError
from .spatial import CellAssociation, D2DPairSet, pairwise_distance

ESTIMATION = "estimation"
DATA = "data"


class KindRuns(Sequence):
    """The ids (kind, 0), ..., (kind, count - 1) of each (kind, count) run, in order.

    Stands in for an explicit id tuple, so a fading table can be laid out
    without building one Python tuple per transmitter and receiver.
    """

    def __init__(self, *runs):
        self.runs = tuple((kind, int(count)) for kind, count in runs)
        self._len = sum(count for _, count in self.runs)

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        for kind, count in self.runs:
            for index in range(count):
                yield (kind, index)

    def __getitem__(self, pos: int):
        if pos < 0:
            pos += self._len
        if not 0 <= pos < self._len:
            raise IndexError("id position out of range")
        for kind, count in self.runs:
            if pos < count:
                return (kind, pos)
            pos -= count

    def __repr__(self) -> str:
        return f"KindRuns{self.runs!r}"


def _kind_slices(ids) -> dict:
    """Slice per id kind; ids of one kind must be stored contiguously."""
    slices: dict = {}
    if isinstance(ids, KindRuns):
        start = 0
        for kind, count in ids.runs:
            if kind in slices:
                raise ParameterError(f"ids of kind {kind!r} are not contiguous")
            slices[kind] = [start, start + count]
            start += count
    else:
        for pos, ident in enumerate(ids):
            kind = ident[0]
            if kind not in slices:
                slices[kind] = [pos, pos + 1]
            elif slices[kind][1] == pos:
                slices[kind][1] = pos + 1
            else:
                raise ParameterError(f"ids of kind {kind!r} are not contiguous")
    return {k: slice(a, b) for k, (a, b) in slices.items()}


def _take(matrix: np.ndarray, rows, cols) -> np.ndarray:
    """``matrix[np.ix_(rows, cols)]``, gathered rows first (about twice as fast)."""
    return matrix[rows][:, cols]


def _positions(slices: dict, kind: str, index: np.ndarray) -> np.ndarray:
    """Table positions of the ids (kind, i) for i in ``index``."""
    block = slices.get(kind, slice(0, 0))
    if len(index) and (index.min() < 0 or index.max() >= block.stop - block.start):
        raise ParameterError(f"the fading table has no {kind!r} id for some link")
    return block.start + index


@dataclass(frozen=True)
class RadioParams:
    """Transmit powers and the power-law pathloss exponent.

    ``noise_mw`` is reserved for future use and must stay 0: the model is
    interference limited by construction.
    """

    alpha: float
    p_c_mw: float
    p_d_mw: float
    noise_mw: float = 0.0

    def __post_init__(self):
        if not 2 < self.alpha < math.inf:
            raise ParameterError(f"pathloss exponent must be finite and exceed 2, got {self.alpha}")
        if not (0 < self.p_c_mw < math.inf and 0 < self.p_d_mw < math.inf):
            raise ParameterError("transmit powers must be positive and finite")
        if self.noise_mw != 0.0:
            raise ParameterError("noise is out of scope; noise_mw must be 0")


def pathloss(distance, alpha: float):
    """Power-law attenuation ``distance ** -alpha``; singular at 0."""
    d = np.asarray(distance, dtype=float)
    if np.any(d <= 0):
        raise ParameterError("pathloss is singular at distance <= 0")
    out = d ** -alpha
    return float(out) if np.isscalar(distance) else out


@dataclass(frozen=True)
class FadingTable:
    """i.i.d. unit-mean exponential power gains for a (tx, rx) id grid.

    ``phase_tag`` records intent only (test-signal phase vs data phase);
    reusing one table across both phases models a coherence interval that
    spans the whole transmission.  An owned, read-only gain array (as
    :func:`draw_fading` makes) is kept as is; anything else is copied.
    """

    gains: np.ndarray
    tx_ids: Sequence
    rx_ids: Sequence
    phase_tag: str = DATA

    def __post_init__(self):
        gains = np.asarray(self.gains, dtype=float)
        if gains.shape != (len(self.tx_ids), len(self.rx_ids)):
            raise ParameterError("gain matrix shape does not match the id lists")
        if gains.size and gains.min() < 0:
            raise ParameterError("fading gains must be nonnegative")
        if gains.flags.writeable or not gains.flags.owndata:
            gains = gains.copy()
            gains.flags.writeable = False
        object.__setattr__(self, "gains", gains)
        object.__setattr__(self, "_tx_slices", _kind_slices(self.tx_ids))
        object.__setattr__(self, "_rx_slices", _kind_slices(self.rx_ids))

    @cached_property
    def _index(self) -> tuple[dict, dict]:
        return ({t: i for i, t in enumerate(self.tx_ids)},
                {r: i for i, r in enumerate(self.rx_ids)})

    def gain(self, tx_id, rx_id) -> float:
        tx_index, rx_index = self._index
        return float(self.gains[tx_index[tx_id], rx_index[rx_id]])

    def block(self, tx_kind: str, rx_kind: str) -> np.ndarray:
        """Zero-copy sub-matrix for ids of the form (kind, index)."""
        return self.gains[self._tx_slices.get(tx_kind, slice(0, 0)),
                          self._rx_slices.get(rx_kind, slice(0, 0))]

    def for_links(self, tx: np.ndarray, rx: np.ndarray, n_cells: int) -> np.ndarray:
        """Gains laid out like :func:`d2d_power_matrix` with the cellular tier.

        Rows are ``("d2d", tx)`` then ``n_cells`` uplink users, columns
        ``("d2drx", rx)`` then ``n_cells`` base stations.  Zero-copy when that
        is the whole table in stored order.
        """
        cells = np.arange(n_cells)
        rows = np.concatenate([_positions(self._tx_slices, "d2d", tx),
                               _positions(self._tx_slices, "cell", cells)])
        cols = np.concatenate([_positions(self._rx_slices, "d2drx", rx),
                               _positions(self._rx_slices, "bs", cells)])
        if (rows.size, cols.size) == self.gains.shape \
                and np.array_equal(rows, np.arange(rows.size)) \
                and np.array_equal(cols, np.arange(cols.size)):
            return self.gains
        return _take(self.gains, rows, cols)


def draw_fading(tx_ids, rx_ids, rng: np.random.Generator, phase_tag: str = DATA) -> FadingTable:
    """Draw an i.i.d. Exp(1) gain for every (tx, rx) pair."""
    gains = rng.standard_exponential(size=(len(tx_ids), len(rx_ids)))
    gains.flags.writeable = False
    if not isinstance(tx_ids, KindRuns):
        tx_ids = tuple(tx_ids)
    if not isinstance(rx_ids, KindRuns):
        rx_ids = tuple(rx_ids)
    return FadingTable(gains=gains, tx_ids=tx_ids, rx_ids=rx_ids, phase_tag=phase_tag)


@dataclass(frozen=True)
class SirSample:
    """SIR of one link, with the raw signal/interference powers in mW."""

    link_id: int
    sir: float
    signal_mw: float
    interference_mw: float

    @property
    def infinite(self) -> bool:
        return math.isinf(self.sir)


def link_ids(active) -> np.ndarray:
    """Sorted link ids of an activation result (has .active_ids) or a plain id collection."""
    ids = getattr(active, "active_ids", active)
    return np.fromiter(sorted(ids), dtype=np.intp, count=len(ids))


def d2d_power_matrix(tx_indices, rx_indices, pairs: D2DPairSet, fading: FadingTable | None,
                     params: RadioParams, assoc: CellAssociation | None = None) -> np.ndarray:
    """Received power (mW) from every transmitter at every receiver.

    This is the package's one received-power kernel.  Row k is the
    transmitter of link ``tx_indices[k]``; column m is the receiver of link
    ``rx_indices[m]``; entries where both belong to the same link carry that
    link's own signal power.  With ``assoc`` the uplink users follow as rows
    and the base stations as columns, so user ``u`` and base station ``u``
    share an index.  ``fading=None`` gives the mean (pathloss-only) power.
    Built from squared distances in one buffer: for alpha = 4 the pathloss
    is ``1 / (d2 * d2)``, otherwise ``d2 ** (-alpha / 2)``.
    """
    tx = np.asarray(tx_indices, dtype=np.intp)
    rx = np.asarray(rx_indices, dtype=np.intp)
    sources = pairs.transmitters.xy[tx]
    sinks = pairs.receivers.xy[rx]
    n_cells = 0 if assoc is None else len(assoc)
    if n_cells:
        sources = np.concatenate([sources, assoc.users.xy])
        sinks = np.concatenate([sinks, assoc.bs.xy])
    power = pairwise_distance(sources, sinks, pairs.window, squared=True)
    if power.size and power.min() <= 0.0:
        raise NumericalError("zero distance: a transmitter sits on a receiver")
    tx_mw = np.full((len(sources), 1), params.p_c_mw)
    tx_mw[:len(tx)] = params.p_d_mw
    if params.alpha == 4:
        np.multiply(power, power, out=power)
        np.divide(tx_mw, power, out=power)
    else:
        np.power(power, -0.5 * params.alpha, out=power)
        np.multiply(power, tx_mw, out=power)
    if fading is not None:
        power *= fading.for_links(tx, rx, n_cells)
    return power


def sir(signal, interference) -> np.ndarray:
    """``signal / interference``, with ``inf`` where nothing interferes."""
    out = np.full(np.shape(signal), np.inf)
    np.divide(signal, interference, out=out, where=interference > 0)
    return out


@dataclass(frozen=True)
class LinkPowers:
    """The received powers among ``links`` and the cellular tier.

    Laid out as :func:`d2d_power_matrix` with ``tx = rx = links`` and the
    cellular tier: position ``m < len(links)`` is link ``links[m]``, the rest
    are the cells.  The own link's power (the D2D block's diagonal) and each
    base station's own-user power (the cellular block's diagonal) are moved
    to ``d2d_signal`` and ``cell_signal`` and zeroed in ``interference``, so
    every interference is a column sum over the rows on air.  ``mean`` is the
    pathloss-only power, kept so another fading draw can reuse it.
    """

    links: np.ndarray
    interference: np.ndarray
    d2d_signal: np.ndarray
    cell_signal: np.ndarray
    mean: np.ndarray

    @classmethod
    def build(cls, links, pairs: D2DPairSet, assoc: CellAssociation | None,
              fading: FadingTable, params: RadioParams) -> "LinkPowers":
        """Compute the matrix for sorted link ids ``links``."""
        links = np.asarray(links, dtype=np.intp)
        mean = d2d_power_matrix(links, links, pairs, None, params, assoc)
        n_cells = 0 if assoc is None else len(assoc)
        return cls._split(links, mean, fading.for_links(links, links, n_cells))

    @classmethod
    def _split(cls, links: np.ndarray, mean: np.ndarray, gains: np.ndarray) -> "LinkPowers":
        power = np.multiply(mean, gains, out=gains if gains.flags.writeable else None)
        own = np.arange(len(links))
        cells = np.arange(len(links), power.shape[0])
        d2d_signal = power[own, own]
        cell_signal = power[cells, cells]
        power[own, own] = 0.0
        power[cells, cells] = 0.0
        return cls(links=links, interference=power, d2d_signal=d2d_signal,
                   cell_signal=cell_signal, mean=mean)

    def _on_air(self, tx) -> np.ndarray:
        """Row positions of links ``tx`` followed by every uplink user."""
        return np.concatenate([tx, np.arange(len(self.links), self.interference.shape[0])])

    def d2d(self, rx=None, tx=None):
        """Signal and interference (mW) at the receivers of positions ``rx``.

        Positions ``tx`` and every uplink user transmit; ``tx`` defaults to
        ``rx`` and both default to every link.
        """
        k = len(self.links)
        if rx is None and tx is None:
            return self.d2d_signal, self.interference[:, :k].sum(axis=0)
        rx = np.arange(k) if rx is None else rx
        tx = rx if tx is None else tx
        return self.d2d_signal[rx], _take(self.interference, self._on_air(tx), rx).sum(axis=0)

    def cellular(self, tx=None):
        """Own-user signal and interference (mW) at every base station.

        Every uplink user and the links at positions ``tx`` (default: all)
        transmit.
        """
        rows = slice(None) if tx is None else self._on_air(tx)
        return self.cell_signal, self.interference[rows, len(self.links):].sum(axis=0)

    def refade(self, sel, fading: FadingTable) -> "LinkPowers":
        """The powers of the links at positions ``sel`` under another fading draw."""
        links = self.links[sel]
        cols = np.concatenate([sel, np.arange(len(self.links), self.mean.shape[1])])
        mean = _take(self.mean, self._on_air(sel), cols)
        n_cells = self.mean.shape[0] - len(self.links)
        return self._split(links, mean, fading.for_links(links, links, n_cells))

    def nested(self, ranked, counts):
        """Signal and interference while each prefix ``ranked[:c]`` transmits.

        Yields (D2D signal, D2D interference, cellular interference) per count
        in ``counts``.  Running column sums over the ranked rows make every
        prefix cost one row of the cumulative sum.
        """
        k = len(self.links)
        users = np.arange(k, self.interference.shape[0])
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
    """Received power (mW) at each pair's receiver from each uplink user."""
    power = d2d_power_matrix([], rx_indices, pairs, fading, params, assoc)
    return power[:, :len(rx_indices)]


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


def _to_sample(link_id: int, signal: float, interference: float) -> SirSample:
    sir = signal / interference if interference > 0 else math.inf
    return SirSample(link_id=int(link_id), sir=float(sir), signal_mw=float(signal),
                     interference_mw=float(interference))


def sir_d2d(i: int, active, assoc: CellAssociation, pairs: D2DPairSet,
            fading: FadingTable, params: RadioParams) -> SirSample:
    """SIR at the receiver of D2D link ``i`` while ``active`` links transmit."""
    ids, signal, inter = d2d_sir_values(active, [i], pairs, assoc, fading, params)
    return _to_sample(ids[0], signal[0], inter[0])


def sir_cellular(i: int, active_d2d, assoc: CellAssociation, pairs: D2DPairSet,
                 fading: FadingTable, params: RadioParams) -> SirSample:
    """SIR at base station ``i`` with its own uplink user as the signal."""
    ids, signal, inter = cellular_sir_values(active_d2d, assoc, pairs, fading, params)
    return _to_sample(ids[i], signal[i], inter[i])
