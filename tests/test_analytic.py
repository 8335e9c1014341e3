import math
import sys
import warnings

import numpy as np
import pytest
from scipy import integrate

from d2dsim import analytic, cli, planner
from d2dsim.analytic import DerivedConstants
from d2dsim.errors import ApproximationWarning, NumericalError, ParameterError

from conftest import make_params


def laplace_ppp(s: float, lam: float, alpha: float) -> float:
    """Laplace transform of Rayleigh-faded interference from a full-plane PPP
    (reference for the keep-out transform at zero radius)."""
    if s == 0 or lam == 0:
        return 1.0
    return math.exp(-math.pi * lam * s ** (2.0 / alpha) / analytic.sinc_norm(2.0 / alpha))


def two_stage_branches(delta: float, p_s: float, params) -> tuple[float, float]:
    """The sparse-admission and dense-admission branches of the two-stage ASE,
    whose smaller one ``d2d_ase_two_stage`` returns."""
    c = DerivedConstants.from_params(params)
    lam_h = params.lambda_d * analytic.hole_survival(delta, params.lambda_m)
    base = p_s * lam_h * math.log2(1.0 + params.beta)
    ratio = math.exp(-c.xi * params.beta ** (2.0 / params.alpha)
                     * (p_s * params.lambda_d + c.kappa * params.lambda_m)) / p_s
    return base * 1.0, base * ratio


class TestLazyModule:
    def test_binds_now_and_executes_on_first_attribute_access(self, tmp_path, monkeypatch):
        (tmp_path / "d2dsim_lazy_probe.py").write_text(
            "import sys\nsys.d2dsim_lazy_probe_ran = True\nVALUE = 7\n")
        monkeypatch.syspath_prepend(str(tmp_path))
        try:
            module = analytic._lazy_module("d2dsim_lazy_probe")
            assert sys.modules["d2dsim_lazy_probe"] is module
            assert not hasattr(sys, "d2dsim_lazy_probe_ran")
            assert module.VALUE == 7
            assert sys.d2dsim_lazy_probe_ran
        finally:
            sys.modules.pop("d2dsim_lazy_probe", None)
            vars(sys).pop("d2dsim_lazy_probe_ran", None)

    def test_a_loaded_module_is_returned_as_is(self):
        assert analytic._lazy_module("math") is math

    def test_a_missing_module_is_named(self):
        with pytest.raises(ModuleNotFoundError, match="d2dsim_no_such_module") as caught:
            analytic._lazy_module("d2dsim_no_such_module")
        assert caught.value.name == "d2dsim_no_such_module"
        assert "d2dsim_no_such_module" not in sys.modules


class TestSincNorm:
    def test_zero(self):
        assert analytic.sinc_norm(0.0) == 1.0

    def test_half(self):
        assert analytic.sinc_norm(0.5) == pytest.approx(2.0 / math.pi, rel=1e-12)

    def test_one(self):
        assert analytic.sinc_norm(1.0) == pytest.approx(0.0, abs=1e-15)


class TestDerivedConstants:
    def test_reference_values(self, params6):
        c = DerivedConstants.from_params(params6)
        assert c.xi == pytest.approx(12337.0055, rel=1e-7)
        assert c.kappa == pytest.approx(10.0, rel=1e-12)


class TestLaplacePpp:
    def test_zero_argument(self):
        assert laplace_ppp(0.0, 1e-6, 4.0) == 1.0

    def test_zero_intensity(self):
        assert laplace_ppp(1e9, 0.0, 4.0) == 1.0

    def test_reference_value(self):
        # exp(-pi * 1e-6 * 1e5 / sinc(1/2)) = exp(-0.49348)
        value = laplace_ppp(1e10, 1e-6, 4.0)
        assert value == pytest.approx(math.exp(-math.pi * 1e-6 * 1e5 * math.pi / 2.0), rel=1e-12)
        assert value == pytest.approx(0.6105, abs=1e-4)


class TestD2DSuccessProb:
    def test_tiny_target_is_certain(self, params2):
        # exponent shrinks like beta**(2/alpha), so beta=1e-15 leaves ~1e-8
        assert analytic.d2d_success_prob(1e-15, params2) == pytest.approx(1.0, abs=1e-6)

    def test_reference_value(self, params2):
        assert analytic.d2d_success_prob(10 ** 0.5, params2) == pytest.approx(0.51780, abs=1e-4)

    def test_monotone_decreasing_in_each_argument(self):
        base = analytic.d2d_success_prob(10 ** 0.5, make_params(lambda_d=2e-5))
        assert analytic.d2d_success_prob(10 ** 0.7, make_params(lambda_d=2e-5)) < base
        assert analytic.d2d_success_prob(10 ** 0.5, make_params(lambda_d=4e-5)) < base
        assert analytic.d2d_success_prob(10 ** 0.5, make_params(lambda_d=2e-5, lambda_m=2e-6)) < base


class TestAseStep1:
    def test_no_d2d_links_no_throughput(self):
        assert analytic.d2d_ase_step1(10 ** 0.5, 250.0, make_params(lambda_d=0.0)) == 0.0

    def test_zero_radius_reduces_to_plain_product(self, params2):
        beta = 10 ** 0.5
        expected = 2e-5 * analytic.d2d_success_prob(beta, params2) * math.log2(1 + beta)
        assert analytic.d2d_ase_step1(beta, 0.0, params2) == pytest.approx(expected, rel=1e-12)

    def test_reference_value(self, params2):
        assert analytic.d2d_ase_step1(10 ** 0.5, 250.0, params2) == pytest.approx(1.75e-5, abs=0.01e-5)


class TestModifiedLaplace:
    def test_zero_s(self):
        assert analytic.modified_laplace(0.0, 1e-6, 100.0, 4.0) == 1.0

    def test_matches_full_plane_laplace_at_zero_rmin(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            s = 10 ** rng.uniform(6, 12)
            lam = 10 ** rng.uniform(-7, -4)
            alpha = rng.uniform(2.5, 6.0)
            full = laplace_ppp(s, lam, alpha)
            assert analytic.modified_laplace(s, lam, 0.0, alpha) == pytest.approx(full, rel=1e-9)
            assert analytic.modified_laplace(s, lam, 0.0, alpha, method="quadrature") == \
                pytest.approx(full, rel=1e-9)

    def test_closed_form_agrees_with_quadrature(self):
        for alpha in (4.0, 2.5, 3.5, 6.0):
            for s in np.logspace(7, 11, 5) ** (alpha / 4):
                for r_min in np.logspace(1, 3, 5):
                    cf = analytic.modified_laplace(s, 1e-6, r_min, alpha, method="closed_form")
                    qd = analytic.modified_laplace(s, 1e-6, r_min, alpha, method="quadrature")
                    assert cf == pytest.approx(qd, rel=1e-9), (alpha, s, r_min)

    def test_reference_value(self):
        # alpha=4 antiderivative at s=1e10, lam=1e-6, r_min=500:
        # exp(-pi * 1e-6 * 1e5 * arctan(1e5 / 500^2)) computed independently
        # by quadrature; frozen here
        value = analytic.modified_laplace(1e10, 1e-6, 500.0, 4.0)
        assert value == pytest.approx(0.8873288654, rel=1e-9)

    def test_monotone_in_each_argument(self):
        base = analytic.modified_laplace(1e9, 1e-6, 200.0, 4.0)
        assert analytic.modified_laplace(2e9, 1e-6, 200.0, 4.0) < base
        assert analytic.modified_laplace(1e9, 2e-6, 200.0, 4.0) < base
        assert analytic.modified_laplace(1e9, 1e-6, 400.0, 4.0) > base

    def test_unknown_method_rejected(self):
        # "auto" went when the closed form came to cover every alpha; s = 0
        # has a trivial transform but is still no excuse for a bad method
        for method in ("magic", "auto"):
            for s in (1.0, 0.0):
                with pytest.raises(ParameterError, match=f"unknown method '{method}'"):
                    analytic.modified_laplace(s, 1e-6, 0.0, 4.0, method=method)

    # (s, lam, r_min, alpha) -> the transform, computed once with mpmath at 50
    # digits by quadrature of the exponent's radial integral (which matched the
    # 2F1 form to 1e-26 or better); a spans both sides of 1
    MPMATH_REFERENCE = {
        (5.6e8, 1e-6, 0.0, 3.5): 0.56152241021905886,
        (5.6e8, 1e-6, 100.0, 3.5): 0.57932626118634999,     # a = 0.317
        (5.6e8, 1e-6, 1000.0, 3.5): 0.92886837762874896,    # a = 3.17
        (1e15, 1e-6, 0.0, 6.0): 0.68394262222263663,
        (1e15, 1e-6, 200.0, 6.0): 0.77401984013048808,      # a = 0.632
        (1e15, 1e-6, 2000.0, 6.0): 0.99990183066208648,     # a = 6.32
        (3e5, 1e-5, 50.0, 2.5): 0.042493848571109318,
        (1e20, 1e-6, 300.0, 8.0): 0.9103758036551132,       # a = 0.949
        (2e4, 1e-4, 10.0, 3.0): 0.58919902972784853,
        (1e9, 6e-5, 229.0, 5.2): 0.99669705921278599,       # a = 4.26
    }

    def test_closed_form_at_every_alpha_matches_mpmath(self):
        for args, want in self.MPMATH_REFERENCE.items():
            assert analytic.modified_laplace(*args) == pytest.approx(want, rel=1e-13), args

    def test_closed_form_where_the_quadrature_fails(self):
        # a node of `analyze` at alpha = 6, where the quadrature reports
        # divergence; mpmath gives an exponent of 1.19e-17, so the transform
        # rounds to 1
        args = (139.29400045614503, 1e-6, 2069.6891405113665, 6.0)
        with pytest.raises(NumericalError, match="divergent"):
            analytic.modified_laplace(*args, method="quadrature")
        assert analytic.modified_laplace(*args) == 1.0


class TestDistancePdfs:
    def test_dmin_zero_at_origin(self):
        assert analytic.pdf_dmin(0.0, 1e-6) == 0.0

    def test_dmin_normalization(self):
        total = integrate.quad(lambda r: analytic.pdf_dmin(r, 1e-6), 0, 6000, limit=200)[0]
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_dmin_mode_location(self):
        mode = math.sqrt(3.0 / (3.5 * math.pi * 1e-6))
        assert mode == pytest.approx(522.34, abs=0.01)
        assert analytic.pdf_dmin(mode, 1e-6) > analytic.pdf_dmin(mode - 1.0, 1e-6)
        assert analytic.pdf_dmin(mode, 1e-6) > analytic.pdf_dmin(mode + 1.0, 1e-6)

    def test_link_distance_zero_at_origin(self):
        assert analytic.pdf_link_distance(0.0, 1e-6) == 0.0

    def test_link_distance_normalization(self):
        total = integrate.quad(lambda x: analytic.pdf_link_distance(x, 1e-6), 0, 10000, limit=200)[0]
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_link_distance_mean(self):
        mean = integrate.quad(lambda x: x * analytic.pdf_link_distance(x, 1e-6), 0, 10000,
                              limit=200)[0]
        assert mean == pytest.approx(500.0, rel=1e-6)


class TestCellularCoverage:
    def test_zero_target_is_full_coverage(self, params6):
        assert analytic.cellular_coverage(0.0, 6e-5, 100.0, params6) == 1.0

    def test_single_tier_ceiling(self, params6):
        assert analytic.max_cellular_coverage(params6) == pytest.approx(0.5552, abs=0.001)

    def test_cell_disk_law_gives_higher_ceiling(self, params6):
        disk = analytic.max_cellular_coverage(params6, dmin_law="cell_disk")
        assert disk == pytest.approx(0.5775, abs=0.001)

    def test_zero_density_equals_ceiling(self, params6):
        cov = analytic.cellular_coverage(1.0, 0.0, 123.0, params6)
        assert cov == pytest.approx(analytic.max_cellular_coverage(params6), rel=1e-9)

    def test_monotone_in_radius_and_density(self, params6):
        radii = np.linspace(0.0, 280.0, 5)
        densities = np.linspace(0.0, 6e-5, 5)
        grid = np.array([[analytic.cellular_coverage(1.0, lam, r, params6)
                          for r in radii] for lam in densities])
        assert np.all(np.diff(grid, axis=1) >= -1e-9)   # nondecreasing in radius
        assert np.all(np.diff(grid, axis=0) <= 1e-9)    # nonincreasing in density
        assert np.all((grid >= 0.0) & (grid <= 1.0))

    def test_loose_guard_radius_warns(self, params6):
        # coverage never warns; the code that picks a radius does, once
        with warnings.catch_warnings():
            warnings.simplefilter("error", ApproximationWarning)
            analytic.cellular_coverage(1.0, 1e-5, 400.0, params6)
        rc = cli.resolve_config({"scheme.kind": "guard_zone_only", "scheme.delta": "400"})
        with pytest.warns(ApproximationWarning) as record:
            cli.cmd_analyze(rc)
        assert len(record) == 1


class TestKeepoutCache:
    def test_bounded_over_random_parameter_sets(self):
        # acceptance criterion 6's generator: 100 networks, each its own lambda_m
        memo = analytic._keepout_average
        memo.cache_clear()
        for i in range(100):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=60_000, spawn_key=(i,)))
            params = make_params(lambda_m=float(rng.uniform(2e-6, 2e-5)),
                                 lambda_d=float(rng.uniform(1e-5, 8e-5)),
                                 d=float(rng.uniform(20.0, 60.0)))
            rng.uniform(800.0, 1500.0)   # window side
            rng.integers(1, 2 ** 31)     # seed
            rng.uniform(0.3, 3.0)        # threshold
            delta = float(rng.uniform(0.0, 250.0))
            p_s = float(rng.uniform(0.1, 0.9))
            analytic.cellular_coverage(1.0, p_s * params.lambda_d, delta, params)
        info = memo.cache_info()
        assert info.misses > info.maxsize   # the memo did have to evict
        assert info.currsize <= info.maxsize

    def test_laws_do_not_mix(self, params6):
        laws = (analytic.NEAREST_LAW, analytic.CELL_DISK_LAW)
        cold = {}
        for law in laws:
            analytic._keepout_average.cache_clear()
            cold[law] = analytic.cellular_coverage(1.0, 2e-5, 150.0, params6, dmin_law=law)
        analytic._keepout_average.cache_clear()
        for law in laws + laws[::-1]:
            assert analytic.cellular_coverage(1.0, 2e-5, 150.0, params6,
                                              dmin_law=law) == cold[law]
        assert cold[analytic.NEAREST_LAW] != cold[analytic.CELL_DISK_LAW]


class TestAccessThresholdMap:
    def test_full_admission_has_zero_threshold(self, params6):
        assert analytic.threshold_from_access_prob(1.0, params6) == 0.0

    def test_zero_admission_rejected(self, params6):
        with pytest.raises(ParameterError):
            analytic.threshold_from_access_prob(0.0, params6)

    @pytest.mark.parametrize("g", [0.1, 1.0, 10.0])
    def test_round_trip_identity(self, params6, g):
        p = analytic.access_prob_from_threshold(g, params6)
        assert analytic.threshold_from_access_prob(p, params6) == pytest.approx(g, rel=1e-12)

    def test_reference_threshold(self, params6):
        assert analytic.threshold_from_access_prob(0.4463, params6) == \
            pytest.approx(0.873, abs=1e-3)


class TestTwoStageAse:
    def test_zero_admission_zero_ase(self, params6):
        assert analytic.d2d_ase_two_stage(100.0, 0.0, params6) == 0.0

    def test_full_admission_high_regime_reduces_to_step1(self, params6):
        _, high = two_stage_branches(0.0, 1.0, params6)
        assert high == pytest.approx(analytic.d2d_ase_step1(params6.beta, 0.0, params6), rel=1e-12)

    def test_regimes_cross_at_planner_fixed_point(self, params6):
        p_star = planner.optimal_access_prob(params6)
        low, high = two_stage_branches(100.0, p_star, params6)
        assert low == pytest.approx(high, rel=1e-9)
        # below the fixed point the piecewise branch follows the sparse regime
        piece = analytic.d2d_ase_two_stage(100.0, 0.5 * p_star, params6)
        assert piece == pytest.approx(two_stage_branches(100.0, 0.5 * p_star, params6)[0],
                                      rel=1e-12)
        # above it the dense regime binds
        piece = analytic.d2d_ase_two_stage(100.0, min(1.0, 1.5 * p_star), params6)
        assert piece == pytest.approx(
            two_stage_branches(100.0, min(1.0, 1.5 * p_star), params6)[1], rel=1e-12)

    def test_piecewise_peaks_at_fixed_point(self, params6):
        p_star = planner.optimal_access_prob(params6)
        peak = analytic.d2d_ase_two_stage(50.0, p_star, params6)
        for p in np.linspace(0.05, 1.0, 20):
            assert analytic.d2d_ase_two_stage(50.0, float(p), params6) <= peak * (1 + 1e-12)
