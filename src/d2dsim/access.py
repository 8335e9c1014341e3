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

    @classmethod
    def from_dict(cls, data: dict) -> "SchemeSpec":
        allowed = {"kind", "delta", "g", "p_s", "g_min"}
        bad = set(data) - allowed
        if bad:
            raise ParameterError(f"unknown scheme fields: {sorted(bad)}")
        return cls(**data)


@dataclass(frozen=True)
class ActiveSet:
    """Outcome of an activation rule for one network realization.

    ``powers`` carries the estimation phase's received powers over the
    candidates when the rule measured them, so the data phase can slice
    them instead of recomputing.
    """

    active_ids: frozenset
    candidate_ids: frozenset
    powers: radio.LinkPowers | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not self.active_ids <= self.candidate_ids:
            raise ParameterError("active links must be candidates")

    def __len__(self) -> int:
        return len(self.active_ids)


def stage1_guard_zone(pairs: spatial.D2DPairSet, bs_points: spatial.PointSet,
                      delta: float) -> frozenset:
    """Candidate link ids: transmitters strictly outside every guard zone."""
    mask = spatial.outside_holes_mask(pairs.transmitters, bs_points, delta)
    return frozenset(np.flatnonzero(mask).tolist())


def estimation_phase(candidate_ids, pairs: spatial.D2DPairSet, assoc: spatial.CellAssociation,
                     fading: radio.FadingTable, params: radio.RadioParams,
                     powers: radio.LinkPowers | None = None) -> dict:
    """Estimated SIR per candidate with every candidate transmitting at once.

    All uplink users interfere as well; this is the test-signal stage of the
    two-stage protocol.  ``powers``, when given, are the candidates' received
    powers under ``fading`` and are read instead of recomputed.
    """
    if powers is None:
        powers = radio.LinkPowers.build(radio.link_ids(candidate_ids), pairs, assoc,
                                        fading, params)
    sir = radio.sir(*powers.d2d())
    return dict(zip(powers.links.tolist(), sir.tolist()))


def stage2_threshold(estimated: dict, g: float) -> ActiveSet:
    """Admit every candidate whose estimated SIR strictly beats ``g``."""
    if not g > 0:
        raise ParameterError("SIR threshold must be positive")
    active = frozenset(i for i, v in estimated.items() if v > g)
    return ActiveSet(active_ids=active, candidate_ids=frozenset(estimated))


def admitted_count(p_s: float, n: int) -> int:
    """ceil(p_s * n), where a product within 1e-9 of an integer is that integer.

    The tolerance keeps float rounding from admitting one link too many
    (0.55 * 100 is 55.00000000000001).
    """
    k = p_s * n
    nearest = round(k)
    return nearest if abs(k - nearest) <= 1e-9 else math.ceil(k)


def stage2_top_fraction(estimated: dict, p_s: float) -> ActiveSet:
    """Admit the ``admitted_count(p_s, n)`` candidates with the highest
    estimated SIR.

    Ties break toward the smaller link id so the choice is deterministic.
    """
    if not 0 <= p_s <= 1:
        raise ParameterError("p_s must be in [0, 1]")
    k = admitted_count(p_s, len(estimated))
    ranked = sorted(estimated, key=lambda i: (-estimated[i], i))
    active = frozenset(ranked[:k])
    return ActiveSet(active_ids=active, candidate_ids=frozenset(estimated))


def channel_aware_activate(pairs: spatial.D2DPairSet, candidate_ids,
                           fading: radio.FadingTable, params: radio.RadioParams,
                           g_min: float | None = None, p_s: float | None = None) -> ActiveSet:
    """Admit candidates whose own-link gain ``|h|^2 d^-alpha`` beats ``g_min``.

    With ``p_s`` given instead, the threshold is backed out of the Rayleigh
    admission probability ``exp(-g_min d^alpha) = p_s``.  Decisions depend
    only on the link's own fading, so the thinning is independent.
    """
    if (g_min is None) == (p_s is None):
        raise ParameterError("give exactly one of g_min or p_s")
    candidates = radio.link_ids(candidate_ids)
    if g_min is None:
        if not 0 <= p_s <= 1:
            raise ParameterError("p_s must be in [0, 1]")
        if p_s == 0:
            return ActiveSet(frozenset(), frozenset(candidates.tolist()))
        g_min = -math.log(p_s) / pairs.link_length ** params.alpha
    own_gain = fading.gains[candidates, candidates] * pairs.link_length ** -params.alpha
    return ActiveSet(active_ids=frozenset(candidates[own_gain > g_min].tolist()),
                     candidate_ids=frozenset(candidates.tolist()))


def apply_scheme(spec: SchemeSpec, realization, fading: radio.FadingTable,
                 params: radio.RadioParams) -> ActiveSet:
    """Dispatch a scheme spec against one realization.

    ``realization`` is any object with ``pairs`` (D2DPairSet), ``bs``
    (PointSet) and ``assoc`` (CellAssociation) attributes.
    """
    pairs, bs, assoc = realization.pairs, realization.bs, realization.assoc
    if spec.kind == NO_AC:
        everyone = frozenset(range(len(pairs)))
        return ActiveSet(active_ids=everyone, candidate_ids=everyone)
    candidates = stage1_guard_zone(pairs, bs, spec.delta)
    if spec.kind == GUARD_ZONE_ONLY:
        return ActiveSet(active_ids=candidates, candidate_ids=candidates)
    if spec.kind == CHANNEL_AWARE:
        return channel_aware_activate(pairs, candidates, fading, params,
                                      g_min=spec.g_min, p_s=spec.p_s)
    powers = radio.LinkPowers.build(radio.link_ids(candidates), pairs, assoc, fading, params)
    estimated = estimation_phase(candidates, pairs, assoc, fading, params, powers=powers)
    if spec.kind == PROPOSED_THRESHOLD:
        chosen = stage2_threshold(estimated, spec.g)
    else:
        chosen = stage2_top_fraction(estimated, spec.p_s)
    return replace(chosen, powers=powers)
