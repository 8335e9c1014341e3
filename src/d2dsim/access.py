"""D2D access control: guard zones, SIR-aware activation, and baselines.

The proposed scheme runs in two stages.  Stage 1 disqualifies any transmitter
inside a radius-delta disk around a base station.  Stage 2 lets all remaining
candidates send a test signal simultaneously, estimates each candidate's SIR,
and admits either every candidate above a threshold or the best fraction of
them.  The channel-aware baseline thresholds the own-link channel gain
instead, and the remaining baselines skip stage 2 (or both stages).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import radio, spatial
from .errors import ParameterError

PROPOSED_THRESHOLD = "proposed_threshold"
PROPOSED_TOP_FRACTION = "proposed_top_fraction"
CHANNEL_AWARE = "channel_aware"
GUARD_ZONE_ONLY = "guard_zone_only"
NO_AC = "no_ac"

SCHEME_KINDS = (PROPOSED_THRESHOLD, PROPOSED_TOP_FRACTION, CHANNEL_AWARE,
                GUARD_ZONE_ONLY, NO_AC)
PROPOSED_KINDS = (PROPOSED_THRESHOLD, PROPOSED_TOP_FRACTION)   # the kinds that estimate SIRs


@dataclass(frozen=True)
class SchemeSpec:
    """Which activation rule to run and its knobs.

    Exactly the fields that the chosen ``kind`` consumes may be set:

    - ``proposed_threshold``: ``delta`` and linear SIR threshold ``g``
    - ``proposed_top_fraction``: ``delta`` and admitted fraction ``p_s``
    - ``channel_aware``: ``delta`` plus exactly one of ``g_min`` / ``p_s``
    - ``guard_zone_only``: ``delta``
    - ``no_ac``: nothing
    """

    kind: str
    delta: float | None = None
    g: float | None = None
    p_s: float | None = None
    g_min: float | None = None

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise ParameterError(f"unknown scheme kind {self.kind!r}")
        needed = {
            PROPOSED_THRESHOLD: {"delta", "g"},
            PROPOSED_TOP_FRACTION: {"delta", "p_s"},
            CHANNEL_AWARE: {"delta"},
            GUARD_ZONE_ONLY: {"delta"},
            NO_AC: set(),
        }[self.kind]
        given = {name for name in ("delta", "g", "p_s", "g_min")
                 if getattr(self, name) is not None}
        if self.kind == CHANNEL_AWARE:
            extra = given - needed
            if extra not in ({"g_min"}, {"p_s"}):
                raise ParameterError("channel_aware takes exactly one of g_min or p_s")
        elif given != needed:
            raise ParameterError(f"{self.kind} requires fields {sorted(needed)}, got {sorted(given)}")
        if self.delta is not None and not 0 <= self.delta < math.inf:
            raise ParameterError("delta must be finite and nonnegative")
        if self.g is not None and not 0 < self.g < math.inf:
            raise ParameterError("SIR threshold g must be finite and positive")
        if self.p_s is not None and not 0 <= self.p_s <= 1:
            raise ParameterError("p_s must be in [0, 1]")
        if self.g_min is not None and not 0 <= self.g_min < math.inf:
            raise ParameterError("g_min must be finite and nonnegative")

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        for name in ("delta", "g", "p_s", "g_min"):
            if getattr(self, name) is not None:
                out[name] = getattr(self, name)
        return out


@dataclass(frozen=True, eq=False)
class ActiveSet:
    """Outcome of an activation rule for one network realization.

    ``candidates`` are the sorted ids of the links that passed stage 1 and
    ``on_air`` the ascending positions among them of the admitted links.
    When the rule ran the estimation phase, ``sir`` holds the estimated SIR
    at each candidate, which stage 2 slices.  ``active_ids`` and
    ``candidate_ids`` give the same link sets as frozensets.
    """

    candidates: np.ndarray
    on_air: np.ndarray
    sir: np.ndarray | None = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.on_air)

    @property
    def active(self) -> np.ndarray:
        """Sorted ids of the admitted links."""
        return self.candidates[self.on_air]

    @property
    def active_ids(self) -> frozenset:
        return frozenset(self.active.tolist())

    @property
    def candidate_ids(self) -> frozenset:
        return frozenset(self.candidates.tolist())


def stage1_guard_zone(pairs: spatial.D2DPairSet, bs_points: spatial.PointSet,
                      delta: float) -> np.ndarray:
    """Sorted candidate link ids: transmitters strictly outside every guard zone."""
    return np.flatnonzero(spatial.outside_holes_mask(pairs.transmitters, bs_points, delta))


def estimation_phase(candidates, pairs: spatial.D2DPairSet, assoc: spatial.CellAssociation,
                     fading: radio.FadingTable, params: radio.RadioParams) -> ActiveSet:
    """Every candidate on air, with its estimated SIR while all of them transmit.

    All uplink users interfere as well; this is the test-signal stage of the
    two-stage protocol.  ``candidates`` are sorted link ids.
    """
    ids = np.asarray(candidates, dtype=np.intp)
    return estimate(ids, radio.LinkPowers.build(ids, pairs, assoc, fading, params))


def estimate(candidates: np.ndarray, powers: radio.LinkPowers) -> ActiveSet:
    """:func:`estimation_phase` on ``powers``, the estimation phase's received
    powers over links that include the sorted ids ``candidates``.

    Each interference is the row-order sum over the candidates and the
    users (see :mod:`radio`), so it has the same bits in any such matrix.
    """
    sir = powers.sirs(powers.positions(candidates))[0]
    return ActiveSet(candidates=candidates, on_air=np.arange(len(candidates)), sir=sir)


def stage2_threshold(estimated: ActiveSet, g: float) -> ActiveSet:
    """Admit every candidate whose estimated SIR strictly beats ``g``."""
    if not g > 0:
        raise ParameterError("SIR threshold must be positive")
    return replace(estimated, on_air=np.flatnonzero(estimated.sir > g))


def admitted_count(p_s: float, n: int) -> int:
    """ceil(p_s * n), where a product within 1e-9 of an integer is that integer.

    The tolerance keeps float rounding from admitting one link too many
    (0.55 * 100 is 55.00000000000001).
    """
    k = p_s * n
    nearest = round(k)
    return nearest if abs(k - nearest) <= 1e-9 else math.ceil(k)


def rank_by_sir(sir: np.ndarray) -> np.ndarray:
    """Positions of ``sir`` from the highest SIR down.

    ``sir`` is aligned with sorted link ids, so the stable sort breaks ties
    toward the smaller link id and the choice is deterministic.
    """
    return np.argsort(-sir, kind="stable")


def stage2_top_fraction(estimated: ActiveSet, p_s: float) -> ActiveSet:
    """Admit the ``admitted_count(p_s, n)`` candidates ranked first by
    :func:`rank_by_sir`."""
    if not 0 <= p_s <= 1:
        raise ParameterError("p_s must be in [0, 1]")
    k = admitted_count(p_s, len(estimated.candidates))
    return replace(estimated, on_air=np.sort(rank_by_sir(estimated.sir)[:k]))


def channel_aware_activate(pairs: spatial.D2DPairSet, candidates,
                           fading: radio.FadingTable, params: radio.RadioParams,
                           g_min: float | None = None, p_s: float | None = None) -> ActiveSet:
    """Admit candidates whose own-link gain ``|h|^2 d^-alpha`` beats ``g_min``.

    With ``p_s`` given instead, the threshold is backed out of the Rayleigh
    admission probability ``exp(-g_min d^alpha) = p_s``.  Decisions depend
    only on the link's own fading, so the thinning is independent.
    ``candidates`` are sorted link ids.
    """
    if (g_min is None) == (p_s is None):
        raise ParameterError("give exactly one of g_min or p_s")
    if g_min is None:
        if not 0 <= p_s <= 1:
            raise ParameterError("p_s must be in [0, 1]")
        try:
            g_min = -math.log(p_s) / pairs.link_length ** params.alpha if p_s else math.inf
        except OverflowError:
            raise ParameterError(f"alpha = {params.alpha}: the link length "
                                 f"{pairs.link_length} m to the power alpha overflows") from None
    ids = np.asarray(candidates, dtype=np.intp)
    own_gain = fading.gains[ids, ids] * pairs.link_length ** -params.alpha
    return ActiveSet(candidates=ids, on_air=np.flatnonzero(own_gain > g_min))


def reach(spec: SchemeSpec, realization, params: radio.RadioParams) -> ActiveSet:
    """The decisions of ``spec`` that need no received power.

    ``on_air`` holds every link the scheme can put on air: all links for
    ``no_ac``, the stage-1 candidates for ``guard_zone_only`` and
    ``proposed_*``, the admitted links for ``channel_aware``.  Only the
    ``proposed_*`` kinds choose among them, in :func:`activate`.
    ``realization`` is as in :func:`apply_scheme`.
    """
    pairs = realization.pairs
    if spec.kind == NO_AC:
        everyone = np.arange(len(pairs))
        return ActiveSet(candidates=everyone, on_air=everyone)
    candidates = stage1_guard_zone(pairs, realization.bs, spec.delta)
    if spec.kind == CHANNEL_AWARE:
        return channel_aware_activate(pairs, candidates, realization.fading_est, params,
                                      g_min=spec.g_min, p_s=spec.p_s)
    return ActiveSet(candidates=candidates, on_air=np.arange(len(candidates)))


def activate(spec: SchemeSpec, reached: ActiveSet, powers: radio.LinkPowers | None) -> ActiveSet:
    """Finish ``spec`` from :func:`reach`'s ``reached``.

    The ``proposed_*`` kinds run the estimation phase on ``powers`` (see
    :func:`estimate`) and stage 2; every other kind is already done and
    ignores ``powers``.
    """
    if spec.kind not in PROPOSED_KINDS:
        return reached
    estimated = estimate(reached.candidates, powers)
    if spec.kind == PROPOSED_THRESHOLD:
        return stage2_threshold(estimated, spec.g)
    return stage2_top_fraction(estimated, spec.p_s)


def apply_scheme(spec: SchemeSpec, realization, params: radio.RadioParams) -> ActiveSet:
    """Dispatch a scheme spec against one realization.

    ``realization`` is any object with ``pairs`` (D2DPairSet), ``bs``
    (PointSet), ``assoc`` (CellAssociation) and ``fading_est``
    (FadingTable, the estimation phase's gains) attributes.
    """
    reached = reach(spec, realization, params)
    powers = None
    if spec.kind in PROPOSED_KINDS:
        powers = radio.LinkPowers.build(reached.candidates, realization.pairs,
                                        realization.assoc, realization.fading_est, params)
    return activate(spec, reached, powers)
