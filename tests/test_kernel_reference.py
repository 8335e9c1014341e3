"""The received-power kernel against a slow per-link reference.

The reference recomputes every SIR of a realization one link at a time, from
coordinates (``spatial.paired_distance``) and the raw fading gains looked up
by id, applies each access rule to those SIRs, and must reproduce
``simkit.run_realization``: counts exactly, Shannon sums to 1e-9 relative.
"""
import math

import numpy as np
import pytest

from d2dsim import simkit, spatial
from d2dsim.access import SchemeSpec
from d2dsim.simkit import ExperimentConfig
from d2dsim.spatial import Window

from conftest import make_params

SEEDS = (3, 17, 40)
REALIZATIONS = 2
SCHEMES = (
    SchemeSpec(kind="no_ac"),
    SchemeSpec(kind="guard_zone_only", delta=100.0),
    SchemeSpec(kind="channel_aware", delta=100.0, p_s=0.5),
    SchemeSpec(kind="proposed_threshold", delta=100.0, g=1.0),
    SchemeSpec(kind="proposed_top_fraction", delta=100.0, p_s=0.5),
)


def _received(p_mw, src_xy, dst_xy, gains, window, alpha):
    """Received power from each source at its aligned destination."""
    src_xy = np.asarray(src_xy, dtype=float).reshape(-1, 2)
    dst = np.repeat(np.asarray(dst_xy, dtype=float).reshape(1, 2), len(src_xy), axis=0)
    return p_mw * np.asarray(gains, dtype=float) \
        * spatial.paired_distance(src_xy, dst, window) ** -alpha


def _ratio(signal, interference):
    return signal / interference if interference > 0 else math.inf


def d2d_sir(link, on_air, real, fading, params):
    """SIR at the receiver of ``link`` while ``on_air`` and every uplink user transmit."""
    pairs, assoc, window = real.pairs, real.assoc, real.pairs.window
    rx = pairs.receivers.xy[link]
    signal = _received(params.p_d_mw, pairs.transmitters.xy[link], rx,
                       [fading.gain(("d2d", link), ("d2drx", link))], window, params.alpha)
    others = [j for j in sorted(on_air) if j != link]
    d2d = _received(params.p_d_mw, pairs.transmitters.xy[others], rx,
                    [fading.gain(("d2d", j), ("d2drx", link)) for j in others],
                    window, params.alpha)
    cell = _received(params.p_c_mw, assoc.users.xy, rx,
                     [fading.gain(("cell", u), ("d2drx", link)) for u in range(len(assoc))],
                     window, params.alpha)
    return _ratio(signal[0], math.fsum(d2d) + math.fsum(cell))


def cellular_sir(b, on_air, real, fading, params):
    """SIR at base station ``b`` from its own user while ``on_air`` transmits."""
    pairs, assoc, window = real.pairs, real.assoc, real.pairs.window
    bs = assoc.bs.xy[b]
    users = list(range(len(assoc)))
    cell = _received(params.p_c_mw, assoc.users.xy, bs,
                     [fading.gain(("cell", u), ("bs", b)) for u in users], window, params.alpha)
    on_air = sorted(on_air)
    d2d = _received(params.p_d_mw, pairs.transmitters.xy[on_air], bs,
                    [fading.gain(("d2d", j), ("bs", b)) for j in on_air], window, params.alpha)
    return _ratio(cell[b], math.fsum(np.delete(cell, b)) + math.fsum(d2d))


def admitted(spec, real, params):
    """(candidates, active links) of ``spec``, decided link by link."""
    pairs, window, fading = real.pairs, real.pairs.window, real.fading_est
    everyone = range(len(pairs))
    if spec.kind == "no_ac":
        return set(everyone), set(everyone)
    cand = set()
    for j in everyone:
        to_bs = spatial.paired_distance(
            np.repeat(pairs.transmitters.xy[j:j + 1], len(real.bs), axis=0), real.bs.xy, window)
        if to_bs.min() > spec.delta:
            cand.add(j)
    if spec.kind == "guard_zone_only":
        return cand, set(cand)
    if spec.kind == "channel_aware":
        g_min = -math.log(spec.p_s) / params.d ** params.alpha
        return cand, {j for j in cand if fading.gain(("d2d", j), ("d2drx", j))
                      * params.d ** -params.alpha > g_min}
    est = {j: d2d_sir(j, cand, real, fading, params) for j in cand}
    if spec.kind == "proposed_threshold":
        return cand, {j for j in cand if est[j] > spec.g}
    ranked = sorted(cand, key=lambda j: (-est[j], j))
    return cand, set(ranked[:math.ceil(spec.p_s * len(cand))])


def reference_metrics(config, index):
    real = simkit.sample_realization(config, index)
    params = config.params
    cand, active = admitted(config.scheme, real, params)
    sir_d = [d2d_sir(j, active, real, real.fading_data, params) for j in sorted(active)]
    sir_c = [cellular_sir(b, active, real, real.fading_data, params)
             for b in range(len(real.assoc))]

    def shannon(values):
        return math.fsum(math.log2(1.0 + s) if math.isfinite(s) else config.rate_ceiling
                         for s in values)

    return {
        "n_candidates": len(cand),
        "n_active": len(active),
        "d2d_successes": sum(s > params.beta for s in sir_d),
        "cellular_covered": sum(s > params.gamma for s in sir_c),
        "n_infinite_sir": sum(math.isinf(s) for s in sir_d + sir_c),
        "d2d_shannon_sum": shannon(sir_d),
        "cellular_shannon_sum": shannon(sir_c),
    }


@pytest.mark.parametrize("refresh", [False, True], ids=["coherent", "refreshed"])
@pytest.mark.parametrize("alpha", [4.0, 3.5])
@pytest.mark.parametrize("topology", ["torus", "bounded"])
def test_run_realization_matches_per_link_reference(topology, alpha, refresh):
    params = make_params(lambda_d=4e-5, lambda_m=4e-6, alpha=alpha)
    for seed in SEEDS:
        for spec in SCHEMES:
            config = ExperimentConfig(params=params, scheme=spec,
                                      window=Window(1000.0, 1000.0, topology=topology),
                                      n_realizations=REALIZATIONS, seed=seed,
                                      refresh_fading_between_phases=refresh)
            for index in range(REALIZATIONS):
                got = simkit.run_realization(config, index)
                want = reference_metrics(config, index)
                where = f"{spec.kind} seed={seed} index={index}"
                for name in ("n_candidates", "n_active", "d2d_successes",
                             "cellular_covered", "n_infinite_sir"):
                    assert getattr(got, name) == want[name], f"{name}: {where}"
                for name in ("d2d_shannon_sum", "cellular_shannon_sum"):
                    assert getattr(got, name) == pytest.approx(want[name], rel=1e-9), \
                        f"{name}: {where}"


@pytest.mark.parametrize("topology", ["torus", "bounded"])
def test_topfraction_grid_matches_run_experiment(topology):
    params = make_params(lambda_d=4e-5, lambda_m=4e-6)
    window = Window(1000.0, 1000.0, topology=topology)
    deltas, ps_values, n = [0.0, 120.0, 250.0], [0.3, 0.5, 1.0], 12
    grid = simkit.run_topfraction_grid(params, deltas, ps_values, n_realizations=n,
                                       seed=59, window=window)
    for delta in deltas:
        for p_s in ps_values:
            config = ExperimentConfig(params=params,
                                      scheme=SchemeSpec(kind="proposed_top_fraction",
                                                        delta=delta, p_s=p_s),
                                      window=window, n_realizations=n, seed=59)
            report = simkit.run_experiment(config)
            cell = grid[(delta, p_s)]
            assert cell["n"] == n
            assert cell["ase"] == pytest.approx(report.ase.mean, rel=1e-9)
            assert cell["coverage"] == pytest.approx(report.cellular_coverage.mean, rel=1e-9)
