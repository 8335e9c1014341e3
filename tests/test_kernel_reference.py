"""The fast kernels against slow references.

The Monte Carlo reference recomputes every SIR of a realization one link at a
time, from coordinates (``spatial.paired_distance``) and the raw fading gains
read by position (links first, then cells), applies each access rule to those
SIRs, and must reproduce ``simkit.run_realization``: counts exactly, Shannon
sums to 1e-9 relative.  ``radio.cellular_to_d2d_power_matrix`` must match the
same per-link powers to 1e-12 relative.  The coverage reference nests the
keep-out average inside the outer quadrature without a memo, and
``analytic.cellular_coverage`` must reproduce it exactly.
"""
import math

import numpy as np
import pytest

from d2dsim import analytic, radio, simkit, spatial
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
    n, gains = len(pairs), fading.gains
    rx = pairs.receivers.xy[link]
    signal = _received(params.p_d_mw, pairs.transmitters.xy[link], rx,
                       [gains[link, link]], window, params.alpha)
    others = [j for j in sorted(on_air) if j != link]
    d2d = _received(params.p_d_mw, pairs.transmitters.xy[others], rx,
                    [gains[j, link] for j in others], window, params.alpha)
    cell = _received(params.p_c_mw, assoc.users.xy, rx,
                     [gains[n + u, link] for u in range(len(assoc))], window, params.alpha)
    return _ratio(signal[0], math.fsum(d2d) + math.fsum(cell))


def cellular_sir(b, on_air, real, fading, params):
    """SIR at base station ``b`` from its own user while ``on_air`` transmits."""
    pairs, assoc, window = real.pairs, real.assoc, real.pairs.window
    n, gains = len(pairs), fading.gains
    bs = assoc.bs.xy[b]
    users = list(range(len(assoc)))
    cell = _received(params.p_c_mw, assoc.users.xy, bs,
                     [gains[n + u, n + b] for u in users], window, params.alpha)
    on_air = sorted(on_air)
    d2d = _received(params.p_d_mw, pairs.transmitters.xy[on_air], bs,
                    [gains[j, n + b] for j in on_air], window, params.alpha)
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
        return cand, {j for j in cand
                      if fading.gains[j, j] * params.d ** -params.alpha > g_min}
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


@pytest.mark.parametrize("alpha", [4.0, 3.5])
@pytest.mark.parametrize("topology", ["torus", "bounded"])
def test_cellular_to_d2d_power_matches_per_link_reference(topology, alpha):
    params = make_params(lambda_d=4e-5, lambda_m=4e-6, alpha=alpha)
    config = ExperimentConfig(params=params, scheme=SCHEMES[0],
                              window=Window(1000.0, 1000.0, topology=topology), seed=SEEDS[0])
    real = simkit.sample_realization(config, 0)
    pairs, assoc, window = real.pairs, real.assoc, real.pairs.window
    n, gains = len(pairs), real.fading_est.gains
    assert n > 2 and len(assoc) > 0
    for links in (np.arange(0, n, 2), np.arange(n)):   # gathered gains, then the whole table
        got = radio.cellular_to_d2d_power_matrix(links, assoc, pairs, real.fading_est, params)
        assert got.shape == (len(assoc), len(links))
        for m, link in enumerate(links):
            want = _received(params.p_c_mw, assoc.users.xy, pairs.receivers.xy[link],
                             [gains[n + u, link] for u in range(len(assoc))],
                             window, params.alpha)
            np.testing.assert_allclose(got[:, m], want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("topology", ["torus", "bounded"])
def test_topfraction_grid_matches_run_experiment(topology):
    params = make_params(lambda_d=4e-5, lambda_m=4e-6)
    window = Window(1000.0, 1000.0, topology=topology)
    deltas, ps_values, n = [0.0, 120.0, 250.0], [0.0, 0.3, 0.5, 1.0], 12
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
            assert cell["ase"] == report.ase.mean
            assert cell["coverage"] == report.cellular_coverage.mean


def reference_coverage(gamma, density, delta, params, dmin_law):
    """``cellular_coverage`` as nested quadrature, re-integrating the keep-out
    average at every outer node of every call."""
    lam_m = params.lambda_m
    if dmin_law == analytic.NEAREST_LAW:
        dmin_pdf = analytic.pdf_link_distance
        r_max = analytic._link_distance_quantile(1.0 - analytic._TAIL_MASS, lam_m)
    else:
        dmin_pdf = analytic.pdf_dmin
        r_max = analytic._dmin_quantile(1.0 - analytic._TAIL_MASS, lam_m)
    power_ratio = params.p_d_mw / params.p_c_mw
    x_max = analytic._link_distance_quantile(1.0 - analytic._TAIL_MASS, lam_m)

    def inner(x):
        s = gamma * x ** params.alpha

        def f(r):
            return dmin_pdf(r, lam_m) * analytic.modified_laplace(s, lam_m, r, params.alpha)

        return analytic._quad(f, 0.0, r_max)

    def outer(x):
        s_d2d = gamma * x ** params.alpha * power_ratio
        keep = analytic.modified_laplace(s_d2d, density, delta, params.alpha)
        return analytic.pdf_link_distance(x, lam_m) * inner(x) * keep

    return analytic._quad(outer, 0.0, x_max)


@pytest.mark.parametrize("dmin_law", [analytic.NEAREST_LAW, analytic.CELL_DISK_LAW])
@pytest.mark.parametrize("alpha", [4.0, 3.5])   # closed-form and quadrature Laplace
def test_cellular_coverage_matches_nested_reference(alpha, dmin_law):
    params = make_params(alpha=alpha)
    for gamma, density, delta in ((1.0, 0.4463 * 6e-5, 229.0), (0.5, 2e-5, 0.0)):
        want = reference_coverage(gamma, density, delta, params, dmin_law)
        analytic._keepout_average.cache_clear()
        cold = analytic.cellular_coverage(gamma, density, delta, params, dmin_law=dmin_law)
        warm = analytic.cellular_coverage(gamma, density, delta, params, dmin_law=dmin_law)
        assert analytic._keepout_average.cache_info().hits > 0
        assert cold == want
        assert warm == want
