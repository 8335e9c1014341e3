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
from dataclasses import asdict, dataclass

from scipy.special import lambertw

from . import analytic
from .analytic import DerivedConstants, SystemParams
from .errors import InfeasibleError, ParameterError

_INV_E = math.exp(-1.0)
_GUARD_TOL_M = 0.1           # bisection stops once the radius bracket is this narrow
_GUARD_MAX_CELL_RADII = 3.0  # largest guard radius tried, in mean cell radii


def lambert_w0(x: float) -> float:
    """Principal branch of w * exp(w) = x for x >= -1/e (SciPy's ``lambertw``)."""
    if math.isnan(x):
        raise ParameterError("lambert_w0 needs a real argument")
    if x <= -_INV_E:
        # SciPy returns NaN at exactly -1/e; allow round-off at the branch point
        if x > -_INV_E - 1e-12:
            return -1.0
        raise ParameterError(f"lambert_w0 domain is [-1/e, inf), got {x}")
    return float(lambertw(x).real)


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
        return asdict(self)


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


def solve_guard_radius(p_s_star: float, constraint: ConstraintSpec,
                       params: SystemParams) -> float:
    """Smallest guard radius meeting the coverage floor, by bisection to 0.1 m.

    The floor is (1 - mu) times the single-tier coverage; the analytic
    coverage is nondecreasing in the radius, so bisection applies.  Returns
    0 when no guard zone is needed and raises when even three mean cell radii
    cannot meet the floor.  The probes do not warn; a returned radius beyond
    the tight keep-out radius warns once.
    """
    if not 0 <= p_s_star <= 1:
        raise ParameterError("p_s_star must be in [0, 1]")
    p_max = analytic.max_cellular_coverage(params)
    target = (1.0 - constraint.mu) * p_max
    density = p_s_star * params.lambda_d

    def coverage(delta):
        return analytic.cellular_coverage(constraint.gamma, density, delta, params, warn=False)

    if coverage(0.0) >= target:
        return 0.0
    delta_max = _GUARD_MAX_CELL_RADII / math.sqrt(math.pi * params.lambda_m)
    achieved = coverage(delta_max)
    if achieved < target:
        raise InfeasibleError(
            f"coverage floor {target:.4f} unreachable: {achieved:.4f} at "
            f"guard radius {delta_max:.0f} m")
    lo, hi = 0.0, delta_max
    while hi - lo > _GUARD_TOL_M:
        mid = 0.5 * (lo + hi)
        if coverage(mid) >= target:
            hi = mid
        else:
            lo = mid
    analytic.warn_if_loose(hi, params.lambda_m)
    return hi


def decoupled_optimize(params: SystemParams, constraint: ConstraintSpec) -> PlanResult:
    """Three-step plan: access probability, then guard radius, then threshold.

    The access probability is computed once, independent of the guard radius
    (the radius only scales the admitted-links density, not which fraction
    is worth admitting).
    """
    p_s = optimal_access_prob(params)
    delta = solve_guard_radius(p_s, constraint, params)
    g = analytic.threshold_from_access_prob(p_s, params)
    p_max = analytic.max_cellular_coverage(params)
    coverage = analytic.cellular_coverage(constraint.gamma, p_s * params.lambda_d,
                                          delta, params, warn=False)   # solve warned
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
                      window=None) -> PlanResult:
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
    p_max = analytic.max_cellular_coverage(params)
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
