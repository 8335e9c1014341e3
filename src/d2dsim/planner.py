"""Design-point optimization: access probability, SIR threshold, guard radius.

The access probability that maximizes the admitted-links area spectral
efficiency has a closed form through the principal Lambert W branch; the
guard radius is then the smallest one meeting the cellular coverage floor,
found by bisection on the (monotone) analytic coverage; the SIR threshold
follows from inverting the access-probability map.  An exhaustive Monte
Carlo grid search is provided as the validation oracle for the whole
decoupled procedure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from . import analytic
from .analytic import DerivedConstants, QuadratureSettings, SystemParams
from .errors import InfeasibleError, NumericalError, ParameterError

_INV_E = math.exp(-1.0)


def lambert_w0(x: float) -> float:
    """Principal branch of w * exp(w) = x for x >= -1/e, by Halley iteration.

    The initial guess is branch aware: a series around the branch point for
    x near -1/e, a log-based asymptote for large x, and a Taylor start in
    between.
    """
    if math.isnan(x):
        raise ParameterError("lambert_w0 needs a real argument")
    if x < -_INV_E:
        if x > -_INV_E - 1e-12:   # round-off guard at the branch point
            return -1.0
        raise ParameterError(f"lambert_w0 domain is [-1/e, inf), got {x}")
    if x == 0.0:
        return 0.0
    if x < -0.32:
        p = math.sqrt(max(0.0, 2.0 * (math.e * x + 1.0)))
        w = (-1.0 + p - p * p / 3.0 + 11.0 * p ** 3 / 72.0 - 43.0 * p ** 4 / 540.0
             + 769.0 * p ** 5 / 17280.0)
        if p < 0.02:   # series error O(p^6); Halley's denominator vanishes at w = -1
            return w
    elif x < math.e:
        w = x * (1.0 - x + 1.5 * x * x) if abs(x) < 0.2 else math.log1p(x)
    else:
        l1 = math.log(x)
        l2 = math.log(l1)
        w = l1 - l2 + l2 / l1
    prev_step = math.inf
    for iteration in range(100):
        ew = math.exp(w)
        f = w * ew - x
        wp1 = w + 1.0
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        step = f / denom
        w -= step
        if abs(step) <= 5e-16 * (2.0 + abs(w)):
            return w
        if iteration >= 3 and abs(step) >= prev_step:
            return w   # steps stopped shrinking: at the rounding floor
        prev_step = abs(step)
    raise NumericalError(f"lambert_w0 did not converge for x={x}")


def solve_exp_linear(p: float, a: float, b: float, c: float, d: float) -> float:
    """Solve p**(a*x + b) = c*x + d for x via the Lambert W function."""
    if p <= 0:
        raise ParameterError("base p must be positive")
    if a == 0 or c == 0:
        raise ParameterError("a and c must be nonzero")
    ln_p = math.log(p)
    if ln_p == 0:
        raise ParameterError("base p = 1 makes the equation linear")
    arg = -(a * ln_p / c) * p ** (b - a * d / c)
    return -lambert_w0(arg) / (a * ln_p) - d / c


@dataclass(frozen=True)
class ConstraintSpec:
    """Cellular protection: tolerated coverage degradation at a SIR target."""

    mu: float       # allowed fraction of single-tier coverage given up
    gamma: float    # cellular SIR target, linear

    def __post_init__(self):
        if not 0 <= self.mu <= 1:
            raise ParameterError("mu must be in [0, 1]")
        if not self.gamma > 0:
            raise ParameterError("gamma must be positive")


@dataclass(frozen=True)
class PlanResult:
    """Optimized operating point with its predicted performance."""

    delta_star: float
    p_s_star: float
    g_star: float
    predicted_ase: float
    predicted_coverage: float
    constraint_residual: float
    p_max_coverage: float
    method: str = "decoupled"

    def to_dict(self) -> dict:
        return {
            "delta_star": self.delta_star,
            "p_s_star": self.p_s_star,
            "g_star": self.g_star,
            "predicted_ase": self.predicted_ase,
            "predicted_coverage": self.predicted_coverage,
            "constraint_residual": self.constraint_residual,
            "p_max_coverage": self.p_max_coverage,
            "method": self.method,
        }


def optimal_access_prob(params: SystemParams) -> float:
    """Admitted fraction that maximizes admitted-links spectral efficiency.

    Crossing point of the sparse-admission and dense-admission branches of
    the conditional success probability, capped at 1.
    """
    if params.lambda_d == 0:
        return 1.0
    c = DerivedConstants.from_params(params)
    load = params.lambda_d * c.xi * params.beta ** (2.0 / params.alpha)
    cross = c.kappa * params.lambda_m * c.xi * params.beta ** (2.0 / params.alpha)
    return min(lambert_w0(load * math.exp(-cross)) / load, 1.0)


def optimal_sir_threshold(p_s_star: float, params: SystemParams) -> float:
    """Estimation-phase SIR threshold whose admit rate is ``p_s_star``."""
    return analytic.threshold_from_access_prob(p_s_star, params)


def solve_guard_radius(p_s_star: float, constraint: ConstraintSpec, params: SystemParams,
                       quad: QuadratureSettings | None = None, tol_m: float = 0.1,
                       delta_max: float | None = None) -> float:
    """Smallest guard radius meeting the coverage floor, by bisection.

    The floor is (1 - mu) times the single-tier coverage; the analytic
    coverage is nondecreasing in the radius, so bisection applies.  Returns
    0 when no guard zone is needed and raises when even ``delta_max``
    (default three mean cell radii) cannot meet the floor.  The probes do not
    warn; a returned radius beyond the tight keep-out radius warns once.
    """
    if not 0 <= p_s_star <= 1:
        raise ParameterError("p_s_star must be in [0, 1]")
    p_max = analytic.max_cellular_coverage(params, quad)
    target = (1.0 - constraint.mu) * p_max
    density = p_s_star * params.lambda_d

    def coverage(delta):
        return analytic.cellular_coverage(constraint.gamma, density, delta, params, quad,
                                          warn=False)

    if coverage(0.0) >= target:
        return 0.0
    if delta_max is None:
        delta_max = 3.0 / math.sqrt(math.pi * params.lambda_m)
    achieved = coverage(delta_max)
    if achieved < target:
        raise InfeasibleError(
            f"coverage floor {target:.4f} unreachable: {achieved:.4f} at "
            f"guard radius {delta_max:.0f} m")
    lo, hi = 0.0, delta_max
    while hi - lo > tol_m:
        mid = 0.5 * (lo + hi)
        if coverage(mid) >= target:
            hi = mid
        else:
            lo = mid
    analytic.warn_if_loose(hi, params.lambda_m)
    return hi


def decoupled_optimize(params: SystemParams, constraint: ConstraintSpec,
                       quad: QuadratureSettings | None = None) -> PlanResult:
    """Three-step plan: access probability, then guard radius, then threshold.

    The access probability is computed once, independent of the guard radius
    (the radius only scales the admitted-links density, not which fraction
    is worth admitting).
    """
    p_s = optimal_access_prob(params)
    delta = solve_guard_radius(p_s, constraint, params, quad)
    g = optimal_sir_threshold(p_s, params)
    p_max = analytic.max_cellular_coverage(params, quad)
    coverage = analytic.cellular_coverage(constraint.gamma, p_s * params.lambda_d,
                                          delta, params, quad, warn=False)   # solve warned
    return PlanResult(
        delta_star=delta,
        p_s_star=p_s,
        g_star=g,
        predicted_ase=analytic.d2d_ase_two_stage(delta, p_s, params),
        predicted_coverage=coverage,
        constraint_residual=coverage - (1.0 - constraint.mu) * p_max,
        p_max_coverage=p_max,
        method="decoupled",
    )


def exhaustive_search(params: SystemParams, constraint: ConstraintSpec,
                      deltas, ps_values, n_realizations: int, seed: int,
                      window=None, quad: QuadratureSettings | None = None) -> PlanResult:
    """Monte Carlo grid search over (guard radius, admitted fraction).

    Every grid point is simulated with the top-fraction scheme and common
    random numbers; the feasible point (measured coverage above the floor)
    with the highest measured fixed-rate ASE wins.  Serves as the oracle the
    decoupled plan is judged against.
    """
    from . import simkit   # imported here to avoid an import cycle

    deltas = list(deltas)
    ps_values = list(ps_values)
    if not deltas or not ps_values:
        raise ParameterError("grid must contain at least one point")
    p_max = analytic.max_cellular_coverage(params, quad)
    target = (1.0 - constraint.mu) * p_max
    grid = simkit.run_topfraction_grid(params, deltas, ps_values, n_realizations,
                                       seed, window=window)
    best = None
    for (delta, p_s), cell in grid.items():
        if cell["coverage"] < target:
            continue
        if best is None or cell["ase"] > best[2]["ase"]:
            best = (delta, p_s, cell)
    if best is None:
        raise InfeasibleError("no grid point meets the coverage floor")
    delta, p_s, cell = best
    return PlanResult(
        delta_star=delta,
        p_s_star=p_s,
        g_star=analytic.threshold_from_access_prob(p_s, params) if p_s > 0 else math.inf,
        predicted_ase=cell["ase"],
        predicted_coverage=cell["coverage"],
        constraint_residual=cell["coverage"] - target,
        p_max_coverage=p_max,
        method="exhaustive_search",
    )
