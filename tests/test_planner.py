import math
import warnings

import numpy as np
import pytest
from scipy.special import lambertw as scipy_lambertw

from d2dsim import analytic, planner
from d2dsim.cli import CHANNEL_AWARE_P_AC
from d2dsim.errors import ApproximationWarning, InfeasibleError, ParameterError
from d2dsim.planner import ConstraintSpec

from conftest import make_params


def solve_exp_linear(p: float, a: float, b: float, c: float, d: float) -> float:
    """Solve p**(a*x + b) = c*x + d for x via the Lambert W function; the
    access optimizer's crossing point is one instance of it."""
    if p <= 0:
        raise ParameterError("base p must be positive")
    if a == 0 or c == 0:
        raise ParameterError("a and c must be nonzero")
    ln_p = math.log(p)
    if ln_p == 0:
        raise ParameterError("base p = 1 makes the equation linear")
    arg = -(a * ln_p / c) * p ** (b - a * d / c)
    return -planner.lambert_w0(arg) / (a * ln_p) - d / c


def reference_radius(p_s_star: float, constraint: ConstraintSpec, params) -> float:
    """``solve_guard_radius``'s bisection with the adaptive coverage at every probe."""
    _, target = planner.coverage_floor(constraint, params)

    def coverage(delta):
        return analytic.cellular_coverage(params.gamma, p_s_star * params.lambda_d, delta, params)

    if coverage(0.0) >= target:
        return 0.0
    delta_max = 3.0 / math.sqrt(math.pi * params.lambda_m)
    achieved = coverage(delta_max)
    if achieved < target:
        raise InfeasibleError(f"coverage floor {target:.4f} unreachable: {achieved:.4f} at "
                              f"guard radius {delta_max:.0f} m")
    lo, hi = 0.0, delta_max
    while hi - lo > 0.1:
        mid = 0.5 * (lo + hi)
        if coverage(mid) >= target:
            hi = mid
        else:
            lo = mid
    return hi


def radius_or_error(solve, p_s_star, constraint, params):
    try:
        return solve(p_s_star, constraint, params)
    except InfeasibleError as exc:
        return str(exc)


# the plan workload's points, then the other exponents at the reference point
SCREEN_CASES = [(make_params(lambda_d=lam), mu) for lam in (2e-5, 6e-5, 1e-4)
                for mu in (0.1, 0.3, 0.5)]
SCREEN_CASES += [(make_params(alpha=alpha), 0.3) for alpha in (3.5, 6.0)]


class TestLambertW0:
    def test_zero(self):
        assert planner.lambert_w0(0.0) == 0.0

    def test_e_maps_to_one(self):
        assert planner.lambert_w0(math.e) == pytest.approx(1.0, abs=1e-14)

    def test_one(self):
        assert planner.lambert_w0(1.0) == pytest.approx(0.5671432904097838, abs=1e-12)

    def test_branch_point(self):
        assert planner.lambert_w0(-math.exp(-1.0)) == pytest.approx(-1.0, abs=1e-6)

    def test_below_branch_point_rejected(self):
        with pytest.raises(ParameterError):
            planner.lambert_w0(-0.5)

    def test_defining_identity_on_grid(self):
        xs = np.concatenate([
            -np.exp(-1.0) + np.logspace(-6, -0.5, 15),
            np.logspace(-12, 6, 40),
        ])
        for x in xs:
            w = planner.lambert_w0(float(x))
            assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x))

    def test_matches_scipy_reference(self):
        xs = np.concatenate([np.logspace(-10, 5, 30), [-0.36, -0.2, -0.05]])
        for x in xs:
            mine = planner.lambert_w0(float(x))
            ref = float(scipy_lambertw(float(x)).real)
            assert mine == pytest.approx(ref, abs=1e-12, rel=1e-12)


class TestSolveExpLinear:
    def test_substitution_property(self):
        rng = np.random.default_rng(9)
        checked = 0
        while checked < 25:
            p = rng.uniform(1.2, 6.0)
            a, c = rng.uniform(-2, 2), rng.uniform(-2, 2)
            b, d = rng.uniform(-1, 1), rng.uniform(-1, 1)
            if abs(a) < 0.1 or abs(c) < 0.1:
                continue
            try:
                x = solve_exp_linear(p, a, b, c, d)
            except ParameterError:
                continue
            lhs = p ** (a * x + b)
            rhs = c * x + d
            assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-8)
            checked += 1

    def test_specializes_to_access_optimizer(self, params6):
        c = analytic.DerivedConstants.from_params(params6)
        load = params6.lambda_d * c.xi * params6.beta ** 0.5
        cross = c.kappa * params6.lambda_m * c.xi * params6.beta ** 0.5
        x = solve_exp_linear(math.e, -load, 0.0, math.exp(cross), 0.0)
        assert x == pytest.approx(planner.optimal_access_prob(params6), rel=1e-10)

    def test_degenerate_base_rejected(self):
        with pytest.raises(ParameterError):
            solve_exp_linear(1.0, 1.0, 0.0, 1.0, 0.0)
        with pytest.raises(ParameterError):
            solve_exp_linear(2.0, 0.0, 0.0, 1.0, 0.0)


class TestOptimalAccessProb:
    def test_reference_value(self, params6):
        assert planner.optimal_access_prob(params6) == pytest.approx(0.44627, abs=2e-5)

    def test_no_links_edge_admits_everything(self):
        assert planner.optimal_access_prob(make_params(lambda_d=0.0)) == 1.0

    def test_always_a_probability(self):
        for lam_d in [1e-6, 1e-5, 1e-4, 1e-3]:
            p = planner.optimal_access_prob(make_params(lambda_d=lam_d))
            assert 0.0 < p <= 1.0

    def test_fixed_point_relation(self, params6):
        p = planner.optimal_access_prob(params6)
        c = analytic.DerivedConstants.from_params(params6)
        rhs = math.exp(-c.xi * params6.beta ** 0.5 * (p * params6.lambda_d
                                                      + c.kappa * params6.lambda_m))
        assert p == pytest.approx(rhs, abs=1e-10)


class TestOptimalSirThreshold:
    def test_full_admission_zero_threshold(self, params6):
        assert analytic.threshold_from_access_prob(1.0, params6) == 0.0

    def test_reference_value(self, params6):
        assert analytic.threshold_from_access_prob(0.4463, params6) == pytest.approx(0.873, abs=1e-3)

    def test_round_trip_with_access_prob(self, params6):
        p = planner.optimal_access_prob(params6)
        g = analytic.threshold_from_access_prob(p, params6)
        assert analytic.access_prob_from_threshold(g, params6) == pytest.approx(p, rel=1e-12)


class TestSolveGuardRadius:
    def test_unconstrained_needs_no_guard_zone(self, params6):
        assert planner.solve_guard_radius(0.45, ConstraintSpec(mu=1.0), params6) == 0.0

    def test_no_d2d_needs_no_guard_zone(self):
        params = make_params(lambda_d=0.0)
        assert planner.solve_guard_radius(1.0, ConstraintSpec(mu=0.3), params) == 0.0

    def test_reference_radius_meets_floor_tightly(self, params6):
        constraint = ConstraintSpec(mu=0.3)
        p_star = planner.optimal_access_prob(params6)
        delta = planner.solve_guard_radius(p_star, constraint, params6)
        assert delta == pytest.approx(229.0, abs=1.0)
        target = 0.7 * analytic.max_cellular_coverage(params6)
        density = p_star * params6.lambda_d
        assert analytic.cellular_coverage(1.0, density, delta, params6) >= target
        assert analytic.cellular_coverage(1.0, density, delta - 0.5, params6) < target

    def test_monotone_in_mu_and_density(self):
        constraint = {mu: planner.solve_guard_radius(
            0.45, ConstraintSpec(mu=mu), make_params(lambda_d=6e-5))
            for mu in (0.25, 0.35, 0.45)}
        assert constraint[0.25] >= constraint[0.35] >= constraint[0.45]
        by_density = {lam: planner.solve_guard_radius(
            0.45, ConstraintSpec(mu=0.3), make_params(lambda_d=lam))
            for lam in (2e-5, 6e-5, 1e-4)}
        assert by_density[2e-5] <= by_density[6e-5] <= by_density[1e-4]

    def test_infeasible_floor_raises(self):
        params = make_params(lambda_d=1e-3)
        with pytest.raises(InfeasibleError):
            planner.solve_guard_radius(1.0, ConstraintSpec(mu=1e-6), params)

    def test_one_warning_carrying_the_returned_radius(self, params6):
        # at mu = 0.1 the radius lands far beyond the tight 282 m, and so do
        # most bisection probes; only the answer may warn
        tight = 1.0 / (2.0 * math.sqrt(math.pi * params6.lambda_m))   # about 282 m
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            delta = planner.solve_guard_radius(0.4463, ConstraintSpec(mu=0.1), params6)
        approx = [w for w in caught if issubclass(w.category, ApproximationWarning)]
        assert delta > tight
        assert len(approx) == 1
        assert f"{delta:.1f} m" in str(approx[0].message)

    def test_plan_warns_once_for_its_radius(self, params6):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            plan = planner.decoupled_optimize(params6, ConstraintSpec(mu=0.1))
        approx = [w for w in caught if issubclass(w.category, ApproximationWarning)]
        assert len(approx) == 1
        assert f"{plan.delta_star:.1f} m" in str(approx[0].message)

    def test_probes_reuse_the_keepout_average(self, params6):
        # a screened probe reads the single-tier table, built on the nodes the
        # ceiling's quadrature evaluated: the solve integrates no node of its own
        analytic._single_tier.cache_clear()
        analytic._keepout_average.cache_clear()
        analytic.max_cellular_coverage(params6)
        ceiling_misses = analytic._keepout_average.cache_info().misses
        analytic._single_tier.cache_clear()
        analytic._keepout_average.cache_clear()
        before = dict(planner.PROBE_COUNTS)
        planner.solve_guard_radius(0.4463, ConstraintSpec(mu=0.3), params6)
        assert planner.PROBE_COUNTS["exact"] == before["exact"]
        assert planner.PROBE_COUNTS["screened"] > before["screened"]
        assert analytic._keepout_average.cache_info().misses == ceiling_misses > 0

    @pytest.mark.parametrize("params, mu", SCREEN_CASES)
    def test_screened_radii_equal_the_reference_bisection(self, params, mu):
        constraint = ConstraintSpec(mu=mu)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ApproximationWarning)
            for p_s in (planner.optimal_access_prob(params),) + CHANNEL_AWARE_P_AC:
                assert radius_or_error(planner.solve_guard_radius, p_s, constraint, params) \
                    == radius_or_error(reference_radius, p_s, constraint, params), p_s

    def test_every_probe_exact_when_the_bound_never_decides(self, params6, monkeypatch):
        constraint = ConstraintSpec(mu=0.3)
        screened = planner.solve_guard_radius(0.4463, constraint, params6)
        estimate = analytic.coverage_estimate
        monkeypatch.setattr(analytic, "coverage_estimate",
                            lambda *args: (estimate(*args)[0], math.inf))
        before = dict(planner.PROBE_COUNTS)
        assert planner.solve_guard_radius(0.4463, constraint, params6) == screened
        assert planner.PROBE_COUNTS["screened"] == before["screened"]
        assert planner.PROBE_COUNTS["exact"] - before["exact"] == 17   # 2 ends + 15 halvings

    @pytest.mark.parametrize("side", [-1.0, 1.0])
    @pytest.mark.parametrize("params, mu", SCREEN_CASES)
    def test_an_estimate_off_by_almost_its_bound_still_decides_right(self, params, mu,
                                                                      side, monkeypatch):
        # the screen may trust only the bound, not the estimate's usual accuracy
        estimate = analytic.coverage_estimate

        def skewed(*args):
            value, bound = estimate(*args)
            return value + side * 0.999 * bound, bound

        monkeypatch.setattr(analytic, "coverage_estimate", skewed)
        constraint = ConstraintSpec(mu=mu)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ApproximationWarning)
            for p_s in (planner.optimal_access_prob(params),) + CHANNEL_AWARE_P_AC:
                assert radius_or_error(planner.solve_guard_radius, p_s, constraint, params) \
                    == radius_or_error(reference_radius, p_s, constraint, params), p_s

    def test_infeasible_message_carries_the_exact_coverage(self):
        with pytest.raises(InfeasibleError) as caught:
            planner.solve_guard_radius(1.0, ConstraintSpec(mu=1e-6), make_params(lambda_d=1e-3))
        assert str(caught.value) == ("coverage floor 0.5552 unreachable: 0.4156 at "
                                     "guard radius 1693 m")


class TestDecoupledOptimize:
    def test_reference_plan(self, params6):
        plan = planner.decoupled_optimize(params6, ConstraintSpec(mu=0.3))
        assert plan.p_s_star == pytest.approx(0.44627, abs=2e-5)
        assert plan.g_star == pytest.approx(0.87285, abs=1e-4)
        assert plan.delta_star == pytest.approx(229.0, abs=1.0)
        assert plan.constraint_residual >= -1e-6
        assert plan.method == "decoupled"

    def test_unconstrained_plan_has_no_guard_zone(self, params6):
        plan = planner.decoupled_optimize(params6, ConstraintSpec(mu=1.0))
        assert plan.delta_star == 0.0
        assert plan.p_s_star == pytest.approx(planner.optimal_access_prob(params6), rel=1e-12)

    def test_deterministic(self, params6):
        a = planner.decoupled_optimize(params6, ConstraintSpec(mu=0.3))
        b = planner.decoupled_optimize(params6, ConstraintSpec(mu=0.3))
        assert a == b


class TestCoverageFloor:
    def test_floor_is_one_minus_mu_of_single_tier(self, params6):
        constraint = ConstraintSpec(mu=0.3)
        p_max, floor = planner.coverage_floor(constraint, params6)
        assert p_max == analytic.max_cellular_coverage(params6)
        assert floor == (1.0 - 0.3) * p_max
        plan = planner.decoupled_optimize(params6, constraint)
        assert plan.p_max_coverage == p_max
        assert plan.constraint_residual == plan.predicted_coverage - floor

    def test_floor_and_plan_are_at_the_system_gamma(self):
        params = make_params(gamma=2.0)
        constraint = ConstraintSpec(mu=0.3)
        p_max, floor = planner.coverage_floor(constraint, params)
        assert p_max == analytic.max_cellular_coverage(params)
        assert p_max < analytic.max_cellular_coverage(make_params(gamma=1.0))
        assert floor == (1.0 - 0.3) * p_max
        plan = planner.decoupled_optimize(params, constraint)
        assert plan.predicted_coverage == analytic.cellular_coverage(
            2.0, plan.p_s_star * params.lambda_d, plan.delta_star, params)
        assert plan.constraint_residual == plan.predicted_coverage - floor >= 0.0


class TestExhaustiveSearch:
    def test_single_feasible_point_is_returned(self, params2):
        constraint = ConstraintSpec(mu=0.3)
        result = planner.exhaustive_search(params2, constraint, deltas=[150.0],
                                           ps_values=[0.6], n_realizations=40, seed=77)
        assert result.delta_star == 150.0
        assert result.p_s_star == 0.6
        assert result.method == "exhaustive_search"
        assert result.constraint_residual >= 0.0

    def test_maximum_over_superset_dominates(self, params2):
        constraint = ConstraintSpec(mu=0.3)
        small = planner.exhaustive_search(params2, constraint, deltas=[150.0],
                                          ps_values=[0.6], n_realizations=40, seed=77)
        big = planner.exhaustive_search(params2, constraint, deltas=[150.0, 250.0],
                                        ps_values=[0.4, 0.6, 0.8], n_realizations=40, seed=77)
        assert big.predicted_ase >= small.predicted_ase - 1e-15

    def test_empty_grid_rejected(self, params2):
        with pytest.raises(ParameterError):
            planner.exhaustive_search(params2, ConstraintSpec(mu=0.3),
                                      deltas=[], ps_values=[0.5], n_realizations=10, seed=1)

    def test_zero_realizations_rejected(self, params2):
        # NaN coverage never falls below the floor, so an empty sample must not reach the search
        with pytest.raises(ParameterError, match="n_realizations"):
            planner.exhaustive_search(params2, ConstraintSpec(mu=0.3),
                                      deltas=[150.0], ps_values=[0.5], n_realizations=0, seed=1)
