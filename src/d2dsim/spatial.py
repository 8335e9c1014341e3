"""Planar point patterns on a rectangular window.

Everything downstream (interference, access control, Monte Carlo) consumes the
point sets produced here.  The default window topology is a torus so that
distances have no edge bias; a ``bounded`` mode keeps the literal rectangle
with Euclidean distances for sensitivity checks.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

TORUS = "torus"
BOUNDED = "bounded"


@dataclass(frozen=True)
class Window:
    """Rectangular observation window with a distance topology."""

    width: float
    height: float
    topology: str = TORUS

    def __post_init__(self):
        if not (0 < self.width < np.inf and 0 < self.height < np.inf and self.area < np.inf):
            raise ParameterError("window sides and area must be positive and finite, "
                                 f"got {self.width}x{self.height}")
        if self.topology not in (TORUS, BOUNDED):
            raise ParameterError(f"unknown topology {self.topology!r}")

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def farthest_distance(self) -> float:
        """The largest distance between two points of the window."""
        if self.topology == TORUS:
            return float(np.hypot(self.width / 2, self.height / 2))
        return float(np.hypot(self.width, self.height))

    def wrap(self, xy: np.ndarray) -> np.ndarray:
        """Map coordinates into [0, width) x [0, height) (torus only)."""
        if self.topology == TORUS:
            return np.mod(xy, (self.width, self.height))
        return xy

    def contains(self, xy: np.ndarray) -> np.ndarray:
        x, y = xy[..., 0], xy[..., 1]
        return (x >= 0) & (x < self.width) & (y >= 0) & (y < self.height)


def pairwise_distance(a_xy: np.ndarray, b_xy: np.ndarray, window: Window) -> np.ndarray:
    """Squared distance matrix (len(a), len(b)) under the window's topology.

    On the torus each axis takes the shorter of the direct and wrapped
    separation, which is exactly the minimum over the 9 periodic images.
    Built in one buffer; callers compare or raise squared distances, so no
    square root is taken.
    """
    a_xy = np.asarray(a_xy, dtype=float).reshape(-1, 2)
    b_xy = np.asarray(b_xy, dtype=float).reshape(-1, 2)
    dx = np.subtract.outer(a_xy[:, 0], b_xy[:, 0])
    dy = np.subtract.outer(a_xy[:, 1], b_xy[:, 1])
    np.abs(dx, out=dx)
    np.abs(dy, out=dy)
    if window.topology == TORUS:
        wrapped = np.subtract(window.width, dx)
        np.minimum(dx, wrapped, out=dx)
        np.subtract(window.height, dy, out=wrapped)
        np.minimum(dy, wrapped, out=dy)
    np.multiply(dx, dx, out=dx)
    np.multiply(dy, dy, out=dy)
    return np.add(dx, dy, out=dx)


def paired_distance(a_xy: np.ndarray, b_xy: np.ndarray, window: Window) -> np.ndarray:
    """Row-wise distance between aligned point arrays (length n, not n x n)."""
    a_xy = np.asarray(a_xy, dtype=float).reshape(-1, 2)
    b_xy = np.asarray(b_xy, dtype=float).reshape(-1, 2)
    dx = np.abs(a_xy[:, 0] - b_xy[:, 0])
    dy = np.abs(a_xy[:, 1] - b_xy[:, 1])
    if window.topology == TORUS:
        dx = np.minimum(dx, window.width - dx)
        dy = np.minimum(dy, window.height - dy)
    return np.hypot(dx, dy)


@dataclass(frozen=True)
class PointSet:
    """An immutable batch of planar points tied to a window."""

    xy: np.ndarray
    window: Window

    def __post_init__(self):
        xy = np.asarray(self.xy, dtype=float).reshape(-1, 2)
        if not np.all(np.isfinite(xy)):
            raise ParameterError("point coordinates must be finite")
        if xy.size and not np.all(self.window.contains(xy)):
            raise ParameterError("points must lie inside the window")
        xy = xy.copy()
        xy.flags.writeable = False
        object.__setattr__(self, "xy", xy)

    def __len__(self) -> int:
        return self.xy.shape[0]


@dataclass(frozen=True)
class D2DPairSet:
    """Transmitter/receiver pairs separated by a fixed link length."""

    transmitters: PointSet
    receivers: PointSet
    link_length: float

    def __post_init__(self):
        if len(self.transmitters) != len(self.receivers):
            raise ParameterError("transmitter and receiver counts differ")
        if self.link_length < 0:
            raise ParameterError("link length must be nonnegative")
        if len(self.transmitters):
            w = self.transmitters.window
            d = paired_distance(self.transmitters.xy, self.receivers.xy, w)
            if not np.allclose(d, self.link_length, rtol=0.0, atol=1e-9):
                raise ParameterError("pair separation does not match the link length")

    def __len__(self) -> int:
        return len(self.transmitters)

    @property
    def window(self) -> Window:
        return self.transmitters.window


@dataclass(frozen=True)
class CellAssociation:
    """One uplink user per base station; ``users.xy[i]`` belongs to ``bs.xy[i]``."""

    bs: PointSet
    users: PointSet

    def __post_init__(self):
        if len(self.bs) != len(self.users):
            raise ParameterError("need exactly one user per base station")

    def __len__(self) -> int:
        return len(self.bs)


def sample_ppp(intensity: float, window: Window, rng: np.random.Generator) -> PointSet:
    """Homogeneous Poisson point process on the window."""
    if intensity < 0:
        raise ParameterError(f"intensity must be nonnegative, got {intensity}")
    try:
        n = rng.poisson(intensity * window.area)
    except ValueError:
        raise ParameterError(f"intensity {intensity} per m^2 over {window.area} m^2 gives "
                             "a Poisson mean too large to draw") from None
    xy = rng.uniform((0.0, 0.0), (window.width, window.height), size=(n, 2))
    return PointSet(xy, window)


def outside_holes_mask(points: PointSet, hole_centers: PointSet, radius: float) -> np.ndarray:
    """True for points strictly farther than ``radius`` from every hole center.

    A point at distance exactly ``radius`` is removed.
    """
    if radius < 0:
        raise ParameterError(f"hole radius must be nonnegative, got {radius}")
    if points.window != hole_centers.window:
        raise ParameterError("points and hole centers live in different windows")
    if len(points) == 0:
        return np.zeros(0, dtype=bool)
    if radius == 0 or len(hole_centers) == 0:
        return np.ones(len(points), dtype=bool)
    dist2 = pairwise_distance(points.xy, hole_centers.xy, points.window)
    return dist2.min(axis=1) > radius * radius


def place_uplink_users(bs_points: PointSet, rng: np.random.Generator) -> CellAssociation:
    """Drop one user uniformly in each BS's cell (nearest-BS partition).

    Rejection sampling: uniform window points are assigned to their nearest
    BS and the first hit per cell is kept, which is uniform over that cell
    under the window metric.
    """
    n = len(bs_points)
    if n == 0:
        raise ParameterError("need at least one base station")
    window = bs_points.window
    users = np.full((n, 2), np.nan)
    missing = n
    batch = max(4 * n, 16)
    while missing:
        xy = rng.uniform((0.0, 0.0), (window.width, window.height), size=(batch, 2))
        owner = np.argmin(pairwise_distance(xy, bs_points.xy, window), axis=1)
        cells, first = np.unique(owner, return_index=True)
        empty = np.isnan(users[cells, 0])
        users[cells[empty]] = xy[first[empty]]
        missing -= int(empty.sum())
    return CellAssociation(bs=bs_points, users=PointSet(users, window))


def place_d2d_pairs(transmitters: PointSet, d: float, rng: np.random.Generator) -> D2DPairSet:
    """Place one receiver per transmitter at distance ``d``, isotropic direction.

    On the torus the receiver wraps around; in a bounded window directions
    pointing outside are redrawn so the receiver stays inside at exactly
    distance ``d``.
    """
    if d < 0:
        raise ParameterError(f"link length must be nonnegative, got {d}")
    window = transmitters.window
    if d > min(window.width, window.height) / 2:
        # beyond this the wrap (or the bounded redraw) can no longer honor d
        raise ParameterError("link length exceeds half the window size")
    n = len(transmitters)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    offset = d * np.column_stack([np.cos(theta), np.sin(theta)])
    rx = transmitters.xy + offset
    if window.topology == TORUS:
        rx = window.wrap(rx)
    else:
        bad = ~window.contains(rx)
        while np.any(bad):
            theta = rng.uniform(0.0, 2.0 * np.pi, size=int(bad.sum()))
            rx[bad] = transmitters.xy[bad] + d * np.column_stack([np.cos(theta), np.sin(theta)])
            bad = ~window.contains(rx)
    return D2DPairSet(transmitters=transmitters, receivers=PointSet(rx, window), link_length=d)
