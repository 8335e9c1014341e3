import math
import warnings

import numpy as np
import pytest
from scipy.special import lambertw as scipy_lambertw

from d2dsim import analytic, planner
from d2dsim.errors import ApproximationWarning, InfeasibleError, ParameterError
from d2dsim.planner import ConstraintSpec

from conftest import make_params


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
                x = planner.solve_exp_linear(p, a, b, c, d)
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
        x = planner.solve_exp_linear(math.e, -load, 0.0, math.exp(cross), 0.0)
        assert x == pytest.approx(planner.optimal_access_prob(params6), rel=1e-10)

    def test_degenerate_base_rejected(self):
        with pytest.raises(ParameterError):
            planner.solve_exp_linear(1.0, 1.0, 0.0, 1.0, 0.0)
        with pytest.raises(ParameterError):
            planner.solve_exp_linear(2.0, 0.0, 0.0, 1.0, 0.0)


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
        assert planner.solve_guard_radius(0.45, ConstraintSpec(mu=1.0, gamma=1.0), params6) == 0.0

    def test_no_d2d_needs_no_guard_zone(self):
        params = make_params(lambda_d=0.0)
        assert planner.solve_guard_radius(1.0, ConstraintSpec(mu=0.3, gamma=1.0), params) == 0.0

    def test_reference_radius_meets_floor_tightly(self, params6):
        constraint = ConstraintSpec(mu=0.3, gamma=1.0)
        p_star = planner.optimal_access_prob(params6)
        delta = planner.solve_guard_radius(p_star, constraint, params6)
        assert delta == pytest.approx(229.0, abs=1.0)
        target = 0.7 * analytic.max_cellular_coverage(params6)
        density = p_star * params6.lambda_d
        assert analytic.cellular_coverage(1.0, density, delta, params6) >= target
        assert analytic.cellular_coverage(1.0, density, delta - 0.5, params6) < target

    def test_monotone_in_mu_and_density(self):
        constraint = {mu: planner.solve_guard_radius(
            0.45, ConstraintSpec(mu=mu, gamma=1.0), make_params(lambda_d=6e-5))
            for mu in (0.25, 0.35, 0.45)}
        assert constraint[0.25] >= constraint[0.35] >= constraint[0.45]
        by_density = {lam: planner.solve_guard_radius(
            0.45, ConstraintSpec(mu=0.3, gamma=1.0), make_params(lambda_d=lam))
            for lam in (2e-5, 6e-5, 1e-4)}
        assert by_density[2e-5] <= by_density[6e-5] <= by_density[1e-4]

    def test_infeasible_floor_raises(self):
        params = make_params(lambda_d=1e-3)
        with pytest.raises(InfeasibleError):
            planner.solve_guard_radius(1.0, ConstraintSpec(mu=1e-6, gamma=1.0), params)

    def test_one_warning_carrying_the_returned_radius(self, params6):
        # at mu = 0.1 the radius lands far beyond the tight 282 m, and so do
        # most bisection probes; only the answer may warn
        tight = 1.0 / (2.0 * math.sqrt(math.pi * params6.lambda_m))   # about 282 m
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            delta = planner.solve_guard_radius(0.4463, ConstraintSpec(mu=0.1, gamma=1.0),
                                               params6)
        approx = [w for w in caught if issubclass(w.category, ApproximationWarning)]
        assert delta > tight
        assert len(approx) == 1
        assert f"{delta:.1f} m" in str(approx[0].message)

    def test_plan_warns_once_for_its_radius(self, params6):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            plan = planner.decoupled_optimize(params6, ConstraintSpec(mu=0.1, gamma=1.0))
        approx = [w for w in caught if issubclass(w.category, ApproximationWarning)]
        assert len(approx) == 1
        assert f"{plan.delta_star:.1f} m" in str(approx[0].message)


class TestSingleTierCeilingCache:
    def test_cached_value_equals_uncached(self, params6):
        uncached = analytic.cellular_coverage(params6.gamma, 0.0, 0.0, params6)
        assert analytic.max_cellular_coverage(params6) == uncached

    def test_repeated_plan_evaluates_the_ceiling_once(self, params6):
        analytic.max_cellular_coverage.cache_clear()
        constraint = ConstraintSpec(mu=0.3, gamma=1.0)
        first = planner.decoupled_optimize(params6, constraint)
        second = planner.decoupled_optimize(params6, constraint)
        assert first == second
        assert analytic.max_cellular_coverage.cache_info().misses == 1


class TestDecoupledOptimize:
    def test_reference_plan(self, params6):
        plan = planner.decoupled_optimize(params6, ConstraintSpec(mu=0.3, gamma=1.0))
        assert plan.p_s_star == pytest.approx(0.44627, abs=2e-5)
        assert plan.g_star == pytest.approx(0.87285, abs=1e-4)
        assert plan.delta_star == pytest.approx(229.0, abs=1.0)
        assert plan.constraint_residual >= -1e-6
        assert plan.method == "decoupled"

    def test_unconstrained_plan_has_no_guard_zone(self, params6):
        plan = planner.decoupled_optimize(params6, ConstraintSpec(mu=1.0, gamma=1.0))
        assert plan.delta_star == 0.0
        assert plan.p_s_star == pytest.approx(planner.optimal_access_prob(params6), rel=1e-12)

    def test_deterministic(self, params6):
        a = planner.decoupled_optimize(params6, ConstraintSpec(mu=0.3, gamma=1.0))
        b = planner.decoupled_optimize(params6, ConstraintSpec(mu=0.3, gamma=1.0))
        assert a == b


class TestExhaustiveSearch:
    def test_single_feasible_point_is_returned(self, params2):
        constraint = ConstraintSpec(mu=0.3, gamma=1.0)
        result = planner.exhaustive_search(params2, constraint, deltas=[150.0],
                                           ps_values=[0.6], n_realizations=40, seed=77)
        assert result.delta_star == 150.0
        assert result.p_s_star == 0.6
        assert result.method == "exhaustive_search"
        assert result.constraint_residual >= 0.0

    def test_maximum_over_superset_dominates(self, params2):
        constraint = ConstraintSpec(mu=0.3, gamma=1.0)
        small = planner.exhaustive_search(params2, constraint, deltas=[150.0],
                                          ps_values=[0.6], n_realizations=40, seed=77)
        big = planner.exhaustive_search(params2, constraint, deltas=[150.0, 250.0],
                                        ps_values=[0.4, 0.6, 0.8], n_realizations=40, seed=77)
        assert big.predicted_ase >= small.predicted_ase - 1e-15

    def test_empty_grid_rejected(self, params2):
        with pytest.raises(ParameterError):
            planner.exhaustive_search(params2, ConstraintSpec(mu=0.3, gamma=1.0),
                                      deltas=[], ps_values=[0.5], n_realizations=10, seed=1)

    def test_zero_realizations_rejected(self, params2):
        # NaN coverage never falls below the floor, so an empty sample must not reach the search
        with pytest.raises(ParameterError, match="n_realizations"):
            planner.exhaustive_search(params2, ConstraintSpec(mu=0.3, gamma=1.0),
                                      deltas=[150.0], ps_values=[0.5], n_realizations=0, seed=1)
