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

from . import analytic, simkit
from .analytic import DerivedConstants, SystemParams, special
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
    return float(special.lambertw(x).real)


@dataclass(frozen=True)
class ConstraintSpec:
    """Cellular protection: the fraction of single-tier coverage the D2D tier
    may take away, at the system's cellular SIR target."""

    mu: float

    def __post_init__(self):
        if not 0 <= self.mu <= 1:
            raise ParameterError(f"mu must be in [0, 1], got {self.mu}")


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


def coverage_floor(constraint: ConstraintSpec, params: SystemParams) -> tuple[float, float]:
    """Single-tier coverage p_max and the floor (1 - mu) * p_max, both at
    ``params.gamma``."""
    p_max = analytic.max_cellular_coverage(params)
    return p_max, (1.0 - constraint.mu) * p_max


# Guard-radius probes since import, by what decided them: the fixed-rule
# estimate's bound (screened) or the adaptive coverage (exact)
PROBE_COUNTS = {"screened": 0, "exact": 0}


def solve_guard_radius(p_s_star: float, constraint: ConstraintSpec,
                       params: SystemParams) -> float:
    """Smallest guard radius meeting the coverage floor, by bisection to 0.1 m.

    The floor is (1 - mu) times the single-tier coverage; the analytic
    coverage is nondecreasing in the radius, so bisection applies.  Each
    probe is decided by :func:`analytic.coverage_estimate` when its distance
    from the floor exceeds the estimate's bound plus the quadrature
    tolerance, and by :func:`analytic.cellular_coverage` otherwise.  The
    bound is the Kronrod-Gauss difference on the ceiling's partition, an
    error estimate rather than a proven bound, so the margin makes a decision
    that differs from the adaptive quadrature's unlikely, not impossible;
    radii equal an all-adaptive bisection's on every point tested.  Returns
    0 when no guard zone is needed and raises when even three mean cell
    radii cannot meet the floor.  A returned radius beyond the tight
    keep-out radius warns once.
    """
    if not 0 <= p_s_star <= 1:
        raise ParameterError("p_s_star must be in [0, 1]")
    _, target = coverage_floor(constraint, params)
    density = p_s_star * params.lambda_d

    def coverage(delta):
        return analytic.cellular_coverage(params.gamma, density, delta, params)

    def feasible(delta):
        value, bound = analytic.coverage_estimate(params.gamma, density, delta, params)
        if abs(value - target) > bound + max(analytic._QUAD_ABS_TOL,
                                             analytic._QUAD_REL_TOL * abs(value)):
            PROBE_COUNTS["screened"] += 1
            return value >= target
        PROBE_COUNTS["exact"] += 1
        return coverage(delta) >= target

    if feasible(0.0):
        return 0.0
    delta_max = _GUARD_MAX_CELL_RADII / math.sqrt(math.pi * params.lambda_m)
    if not feasible(delta_max):
        raise InfeasibleError(
            f"coverage floor {target:.4f} unreachable: {coverage(delta_max):.4f} at "
            f"guard radius {delta_max:.0f} m")
    lo, hi = 0.0, delta_max
    while hi - lo > _GUARD_TOL_M:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
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
    p_max, floor = coverage_floor(constraint, params)
    coverage = analytic.cellular_coverage(params.gamma, p_s * params.lambda_d, delta, params)
    return PlanResult(
        delta_star=delta,
        p_s_star=p_s,
        g_star=g,
        predicted_ase=analytic.d2d_ase_two_stage(delta, p_s, params),
        predicted_coverage=coverage,
        constraint_residual=coverage - floor,
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
    deltas = list(deltas)
    ps_values = list(ps_values)
    if not deltas or not ps_values:
        raise ParameterError("grid must contain at least one point")
    p_max, target = coverage_floor(constraint, params)
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
