"""Which d2dsim functions the traced run wraps, and the per-layer metrics.

Each layer (``spatial``, ``radio``, ``access``, ``simkit``, ``analytic``,
``planner``, ``cli``) is measured only at calls into its public functions.
Work counts come from the arguments and results of those calls, so they are
exact and repeat from run to run on the same seed.
"""
from __future__ import annotations


def _distances(tracer, args, kwargs, result):
    tracer.counts["spatial.pairwise_distance.entries"] += result.size


def _power_matrix(tracer, args, kwargs, result):
    tracer.counts["radio.d2d_power_matrix.entries"] += result.size
    tracer.counts["radio.d2d_power_matrix.bytes_computed"] += result.nbytes


def _fading(tracer, args, kwargs, result):
    tracer.counts["radio.draw_fading.entries"] += result.gains.size


def _estimation(tracer, args, kwargs, result):
    tracer.counts["access.estimation_phase.candidates"] += len(result)


def _stage2(tracer, args, kwargs, result):
    tracer.counts["access.stage2.admitted"] += len(result.active_ids)


_STATS = ("d2d_success_prob", "cellular_coverage", "ase", "r_d", "r_c",
          "active_fraction", "candidate_fraction")


def _aggregate(tracer, args, kwargs, result):
    # _stat drops NaN per-realization values (for example, no active link)
    tracer.counts["simkit.stat_dropped"] += sum(
        result.n_realizations - getattr(result, name).n for name in _STATS)


def _coverage(tracer, args, kwargs, result):
    if "planner.solve_guard_radius" in tracer.open_names():
        tracer.counts["planner.solve_guard_radius.coverage_evals"] += 1


# "module.function" -> (hook, fold)
TARGETS = {
    "spatial.pairwise_distance": (_distances, False),
    "spatial.place_uplink_users": (None, False),
    "spatial.outside_holes_mask": (None, False),
    "radio.d2d_power_matrix": (_power_matrix, False),
    "radio.cellular_to_d2d_power_matrix": (None, False),
    "radio.d2d_sir_values": (None, False),
    "radio.cellular_sir_values": (None, False),
    "radio.draw_fading": (_fading, False),
    "access.apply_scheme": (None, False),
    "access.stage1_guard_zone": (None, False),
    "access.estimation_phase": (_estimation, False),
    "access.stage2_threshold": (_stage2, False),
    "access.stage2_top_fraction": (_stage2, False),
    "access.channel_aware_activate": (None, False),
    "simkit.run_experiment": (None, False),
    "simkit.sample_realization": (None, False),
    "simkit.run_realization": (None, False),
    "simkit.aggregate": (_aggregate, False),
    "simkit.run_topfraction_grid": (None, False),
    "analytic.cellular_coverage": (_coverage, False),
    "analytic.max_cellular_coverage": (None, False),
    "analytic.modified_laplace": (None, True),
    "planner.solve_guard_radius": (None, False),
    "planner.decoupled_optimize": (None, False),
    "planner.exhaustive_search": (None, False),
    "cli.main": (None, False),
    "cli.resolve_config": (None, False),
    "cli.tune_channel_aware": (None, False),
    "cli.compare_schemes": (None, False),
}

# (name, unit, better) of the per-layer metrics in BENCHMARK.json; the run
# reports all of them on every workload, as 0 where the layer does no work.
# Functions that only the oracle calls are left out (the oracle is not in
# BENCHMARK.json); the detail line has every wrapped function's totals.
METRICS = [
    ("spatial.pairwise_distance.calls", "count", "lower"),
    ("spatial.pairwise_distance.entries", "count", "lower"),
    ("spatial.pairwise_distance.self_s", "s", "lower"),
    ("spatial.place_uplink_users.self_s", "s", "lower"),
    ("spatial.outside_holes_mask.self_s", "s", "lower"),
    ("radio.d2d_power_matrix.calls", "count", "lower"),
    ("radio.d2d_power_matrix.entries", "count", "lower"),
    ("radio.d2d_power_matrix.bytes_computed", "bytes", "lower"),
    ("radio.d2d_power_matrix.self_s", "s", "lower"),
    ("radio.cellular_to_d2d_power_matrix.self_s", "s", "lower"),
    ("radio.d2d_sir_values.calls", "count", "lower"),
    ("radio.d2d_sir_values.self_s", "s", "lower"),
    ("radio.cellular_sir_values.self_s", "s", "lower"),
    ("radio.draw_fading.entries", "count", "lower"),
    ("radio.draw_fading.self_s", "s", "lower"),
    ("access.apply_scheme.calls", "count", "lower"),
    ("access.apply_scheme.self_s", "s", "lower"),
    ("access.stage1_guard_zone.self_s", "s", "lower"),
    ("access.estimation_phase.candidates", "count", "lower"),
    ("access.estimation_phase.self_s", "s", "lower"),
    ("access.stage2.self_s", "s", "lower"),
    ("access.channel_aware_activate.self_s", "s", "lower"),
    ("access.admit_ratio", "ratio", "higher"),
    ("simkit.run_experiment.calls", "count", "lower"),
    ("simkit.sample_realization.calls", "count", "lower"),
    ("simkit.sample_realization.self_s", "s", "lower"),
    ("simkit.evals_per_sample", "ratio", "higher"),
    ("simkit.run_realization.self_s", "s", "lower"),
    ("simkit.aggregate.self_s", "s", "lower"),
    ("simkit.stat_dropped", "count", "lower"),
    ("analytic.cellular_coverage.calls", "count", "lower"),
    ("analytic.cellular_coverage.self_s", "s", "lower"),
    ("analytic.modified_laplace.calls", "count", "lower"),
    ("analytic.modified_laplace.self_s", "s", "lower"),
    ("analytic.max_cellular_coverage.calls", "count", "lower"),
    ("analytic.approx_warnings", "count", "lower"),
    ("planner.solve_guard_radius.calls", "count", "lower"),
    ("planner.solve_guard_radius.self_s", "s", "lower"),
    ("planner.solve_guard_radius.coverage_evals", "count", "lower"),
    ("planner.decoupled_optimize.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.resolve_config.self_s", "s", "lower"),
    ("cli.tune_channel_aware.self_s", "s", "lower"),
    ("cli.compare_schemes.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_values(tracer, approx_warnings: int) -> dict:
    """Every per-layer metric except the ``trace.*`` ones, by name."""
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    values = {}
    for name, _, _ in METRICS:
        base, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = calls[base]
        elif field == "self_s":
            values[name] = self_s[base]
        else:
            values[name] = counts[name]
    values["access.stage2.self_s"] = (self_s["access.stage2_threshold"]
                                      + self_s["access.stage2_top_fraction"])
    values["access.admit_ratio"] = _ratio(counts["access.stage2.admitted"],
                                          counts["access.estimation_phase.candidates"])
    values["simkit.evals_per_sample"] = _ratio(calls["simkit.run_realization"],
                                               calls["simkit.sample_realization"])
    values["analytic.approx_warnings"] = approx_warnings
    return {name: value for name, value in values.items() if not name.startswith("trace.")}
