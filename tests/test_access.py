import math

import numpy as np
import pytest

from d2dsim import access, analytic, radio, simkit, spatial
from d2dsim.access import SchemeSpec
from d2dsim.errors import ParameterError
from d2dsim.simkit import ExperimentConfig

from conftest import make_params


def seeded(i=0):
    return np.random.default_rng(np.random.SeedSequence(entropy=4242, spawn_key=(i,)))


def small_realization(i=0, lambda_d=3e-5, lambda_m=2e-6, window=None):
    window = window or spatial.Window(2000.0, 2000.0)
    params = make_params(lambda_d=lambda_d, lambda_m=lambda_m)
    cfg = ExperimentConfig(params=params, scheme=SchemeSpec(kind="no_ac"),
                           window=window, n_realizations=1, seed=1000 + i)
    return simkit.sample_realization(cfg, 0), cfg.radio_params()


class TestSchemeSpec:
    def test_each_kind_validates_required_fields(self):
        SchemeSpec(kind="proposed_threshold", delta=100.0, g=1.0)
        SchemeSpec(kind="proposed_top_fraction", delta=100.0, p_s=0.5)
        SchemeSpec(kind="channel_aware", delta=100.0, p_s=0.5)
        SchemeSpec(kind="channel_aware", delta=100.0, g_min=1e-7)
        SchemeSpec(kind="guard_zone_only", delta=100.0)
        SchemeSpec(kind="no_ac")

    def test_missing_or_extra_fields_rejected(self):
        with pytest.raises(ParameterError):
            SchemeSpec(kind="proposed_threshold", delta=100.0)
        with pytest.raises(ParameterError):
            SchemeSpec(kind="no_ac", delta=100.0)
        with pytest.raises(ParameterError):
            SchemeSpec(kind="channel_aware", delta=100.0, p_s=0.5, g_min=1e-7)
        with pytest.raises(ParameterError):
            SchemeSpec(kind="guard_zone_only", delta=100.0, p_s=0.2)
        with pytest.raises(ParameterError):
            SchemeSpec(kind="martian")

    def test_dict_round_trip(self):
        spec = SchemeSpec(kind="proposed_top_fraction", delta=229.0, p_s=0.45)
        assert SchemeSpec.from_dict(spec.to_dict()) == spec


class TestStage1:
    def test_zero_radius_keeps_all(self):
        real, _ = small_realization(0)
        cands = access.stage1_guard_zone(real.pairs, real.bs, 0.0)
        assert cands == frozenset(range(len(real.pairs)))

    def test_window_covering_radius_empties(self):
        real, _ = small_realization(1)
        cands = access.stage1_guard_zone(real.pairs, real.bs, 2000.0)
        assert cands == frozenset()

    def test_expected_candidate_fraction(self, window):
        # survival at delta=250 under 1e-6 holes: exp(-pi * 1e-6 * 250^2)
        expected = math.exp(-math.pi * 1e-6 * 250.0 ** 2)
        fracs = []
        for i in range(120):
            real, _ = small_realization(i, lambda_d=6e-5, lambda_m=1e-6, window=window)
            if len(real.pairs) == 0:
                continue
            cands = access.stage1_guard_zone(real.pairs, real.bs, 250.0)
            fracs.append(len(cands) / len(real.pairs))
        fracs = np.asarray(fracs)
        se = fracs.std(ddof=1) / math.sqrt(len(fracs))
        assert abs(fracs.mean() - expected) < 3 * se


class TestEstimationPhase:
    def test_single_candidate_without_users_is_infinite(self, window):
        pairs = spatial.D2DPairSet(
            spatial.PointSet(np.array([[500.0, 500.0]]), window),
            spatial.PointSet(np.array([[550.0, 500.0]]), window), 50.0)
        assoc = spatial.CellAssociation(bs=spatial.PointSet(np.zeros((0, 2)), window),
                                        users=spatial.PointSet(np.zeros((0, 2)), window))
        fading = radio.draw_fading(1, 0, seeded())
        rp = radio.RadioParams(alpha=4.0, p_c_mw=10.0, p_d_mw=0.1)
        est = access.estimation_phase([0], pairs, assoc, fading, rp)
        assert math.isinf(est[0])

    def test_two_candidates_hand_computation(self, window):
        # two parallel pairs 300 m apart, no cellular users, unit fading
        tx = np.array([[1000.0, 1000.0], [1000.0, 1300.0]])
        rx = np.array([[1050.0, 1000.0], [1050.0, 1300.0]])
        pairs = spatial.D2DPairSet(spatial.PointSet(tx, window),
                                   spatial.PointSet(rx, window), 50.0)
        assoc = spatial.CellAssociation(bs=spatial.PointSet(np.zeros((0, 2)), window),
                                        users=spatial.PointSet(np.zeros((0, 2)), window))
        fading = radio.FadingTable(gains=np.ones((2, 2)), n_links=2)
        rp = radio.RadioParams(alpha=4.0, p_c_mw=10.0, p_d_mw=0.1)
        est = access.estimation_phase([0, 1], pairs, assoc, fading, rp)
        cross = math.hypot(50.0, 300.0)
        expected = (0.1 * 50.0 ** -4) / (0.1 * cross ** -4)
        assert est[0] == pytest.approx(expected, rel=1e-12)
        assert est[1] == pytest.approx(expected, rel=1e-12)

    def test_adding_a_candidate_weakly_lowers_everyone(self):
        real, rp = small_realization(2)
        n = len(real.pairs)
        assert n >= 3
        subset = list(range(n - 1))
        est_small = access.estimation_phase(subset, real.pairs, real.assoc, real.fading_est, rp)
        est_big = access.estimation_phase(range(n), real.pairs, real.assoc, real.fading_est, rp)
        for i in subset:
            assert est_big[i] <= est_small[i] * (1 + 1e-12)

    def test_matches_single_link_sir(self):
        real, rp = small_realization(3)
        n = len(real.pairs)
        est = access.estimation_phase(range(n), real.pairs, real.assoc, real.fading_est, rp)
        for i in (0, n // 2, n - 1):
            _, signal, inter = radio.d2d_sir_values(range(n), [i], real.pairs, real.assoc,
                                                    real.fading_est, rp)
            assert est[i] == pytest.approx(signal[0] / inter[0], rel=1e-12)


class TestStage2Threshold:
    def test_vanishing_threshold_admits_all(self):
        est = {0: 0.5, 1: 2.0, 2: 0.01}
        out = access.stage2_threshold(est, 1e-15)
        assert out.active_ids == frozenset(est)

    def test_huge_threshold_admits_none(self):
        est = {0: 0.5, 1: 2.0}
        assert access.stage2_threshold(est, 1e15).active_ids == frozenset()

    def test_monotone_in_threshold(self):
        real, rp = small_realization(4)
        est = access.estimation_phase(range(len(real.pairs)), real.pairs, real.assoc,
                                      real.fading_est, rp)
        lo = access.stage2_threshold(est, 0.5).active_ids
        hi = access.stage2_threshold(est, 2.0).active_ids
        assert hi <= lo


class TestStage2TopFraction:
    def test_all_or_nothing(self):
        est = {i: float(i) for i in range(7)}
        assert access.stage2_top_fraction(est, 1.0).active_ids == frozenset(est)
        assert access.stage2_top_fraction(est, 0.0).active_ids == frozenset()

    def test_half_of_ten_matches_sort_oracle(self):
        rng = seeded(5)
        est = {i: float(v) for i, v in enumerate(rng.uniform(0, 10, size=10))}
        out = access.stage2_top_fraction(est, 0.5)
        oracle = sorted(est, key=lambda i: (-est[i], i))[:5]
        assert out.active_ids == frozenset(oracle)

    def test_ceiling_count_and_tie_break(self):
        est = {0: 1.0, 1: 1.0, 2: 1.0}
        out = access.stage2_top_fraction(est, 0.4)   # ceil(1.2) = 2, lowest ids win ties
        assert out.active_ids == frozenset({0, 1})

    def test_rounding_does_not_over_admit(self):
        est = {i: float(i) for i in range(100)}
        assert 0.55 * 100 > 55                      # 55.00000000000001
        out = access.stage2_top_fraction(est, 0.55)
        assert out.active_ids == frozenset(range(45, 100))
        assert access.admitted_count(0.55, 100) == 55
        assert access.admitted_count(0.551, 100) == 56

    def test_monotone_by_inclusion(self):
        rng = seeded(6)
        est = {i: float(v) for i, v in enumerate(rng.uniform(0, 10, size=23))}
        previous = frozenset()
        for p in np.linspace(0.0, 1.0, 11):
            current = access.stage2_top_fraction(est, float(p)).active_ids
            assert previous <= current
            previous = current


class TestChannelAware:
    def test_zero_gain_threshold_admits_all(self):
        real, rp = small_realization(7)
        ids = range(len(real.pairs))
        out = access.channel_aware_activate(real.pairs, ids, real.fading_est, rp, g_min=0.0)
        assert out.active_ids == frozenset(ids)

    def test_fraction_implies_documented_threshold(self):
        # p = 0.5, d = 50, alpha = 4 -> g_min = ln 2 / 50^4
        assert -math.log(0.5) / 50.0 ** 4 == pytest.approx(1.109e-7, abs=1e-10)

    def test_empirical_admission_rate(self):
        admitted = total = 0
        rp = radio.RadioParams(alpha=4.0, p_c_mw=10.0, p_d_mw=0.1)
        for i in range(60):
            real, _ = small_realization(20 + i)
            ids = range(len(real.pairs))
            out = access.channel_aware_activate(real.pairs, ids, real.fading_est, rp, p_s=0.5)
            admitted += len(out.active_ids)
            total += len(real.pairs)
        se = math.sqrt(0.25 / total)
        assert abs(admitted / total - 0.5) < 3 * se

    def test_decisions_are_independent_across_links(self):
        rp = radio.RadioParams(alpha=4.0, p_c_mw=10.0, p_d_mw=0.1)
        first, second = [], []
        for i in range(300):
            real, _ = small_realization(100 + i)
            if len(real.pairs) < 2:
                continue
            out = access.channel_aware_activate(real.pairs, range(len(real.pairs)),
                                                real.fading_est, rp, p_s=0.5)
            first.append(0 in out.active_ids)
            second.append(1 in out.active_ids)
        corr = np.corrcoef(np.asarray(first, dtype=float), np.asarray(second, dtype=float))[0, 1]
        assert abs(corr) < 3.0 / math.sqrt(len(first))

    def test_requires_exactly_one_selector(self):
        real, rp = small_realization(8)
        with pytest.raises(ParameterError):
            access.channel_aware_activate(real.pairs, [0], real.fading_est, rp)
        with pytest.raises(ParameterError):
            access.channel_aware_activate(real.pairs, [0], real.fading_est, rp,
                                          g_min=1e-7, p_s=0.5)


class TestApplyScheme:
    def test_guard_zone_only_at_zero_radius_equals_no_ac(self):
        real, rp = small_realization(9)
        gz = access.apply_scheme(SchemeSpec(kind="guard_zone_only", delta=0.0),
                                 real, real.fading_est, rp)
        na = access.apply_scheme(SchemeSpec(kind="no_ac"), real, real.fading_est, rp)
        assert gz.active_ids == na.active_ids

    def test_full_fraction_equals_guard_zone_only(self):
        real, rp = small_realization(10)
        top = access.apply_scheme(SchemeSpec(kind="proposed_top_fraction", delta=200.0, p_s=1.0),
                                  real, real.fading_est, rp)
        gz = access.apply_scheme(SchemeSpec(kind="guard_zone_only", delta=200.0),
                                 real, real.fading_est, rp)
        assert top.active_ids == gz.active_ids

    def test_containment_chain(self):
        rp = radio.RadioParams(alpha=4.0, p_c_mw=10.0, p_d_mw=0.1)
        for i, spec in enumerate([
            SchemeSpec(kind="proposed_threshold", delta=150.0, g=1.0),
            SchemeSpec(kind="proposed_top_fraction", delta=150.0, p_s=0.4),
            SchemeSpec(kind="channel_aware", delta=150.0, p_s=0.5),
            SchemeSpec(kind="guard_zone_only", delta=150.0),
            SchemeSpec(kind="no_ac"),
        ]):
            real, _ = small_realization(40 + i)
            out = access.apply_scheme(spec, real, real.fading_est, rp)
            everyone = frozenset(range(len(real.pairs)))
            assert out.active_ids <= out.candidate_ids <= everyone

    def test_data_phase_sir_dominates_estimate_under_coherent_fading(self):
        real, rp = small_realization(11)
        out = access.apply_scheme(SchemeSpec(kind="proposed_threshold", delta=100.0, g=0.8),
                                  real, real.fading_est, rp)
        if not out.active_ids:
            pytest.skip("no active links in this draw")
        estimated = access.estimation_phase(out.candidate_ids, real.pairs, real.assoc,
                                            real.fading_est, rp)
        _, sig, inter = radio.d2d_sir_values(out.active_ids, out.active_ids, real.pairs,
                                             real.assoc, real.fading_data, rp)
        for link, s, i in zip(sorted(out.active_ids), sig, inter):
            data_sir = s / i if i > 0 else math.inf
            assert data_sir >= estimated[link] * (1 - 1e-12)


class TestActivationStatistics:
    @pytest.mark.parametrize("g_db", [-3.0, 0.0, 3.0])
    def test_threshold_admission_rate_matches_formula(self, g_db):
        # no guard zones, so the candidate field is the full process and the
        # admission-rate formula is exact up to the uplink-layout approximation
        params = make_params(lambda_d=4e-5)
        g = 10.0 ** (g_db / 10.0)
        expected = analytic.access_prob_from_threshold(g, params)
        cfg = ExperimentConfig(params=params,
                               scheme=SchemeSpec(kind="proposed_threshold", delta=0.0, g=g),
                               n_realizations=250, seed=97)
        report = simkit.run_experiment(cfg)
        assert abs(report.active_fraction.mean - expected) < 0.02

    def test_threshold_and_top_fraction_agree_at_matched_rate(self):
        # run the threshold rule, then rerun admitting that measured fraction;
        # expected fixed-rate throughput should agree within Monte Carlo noise
        params = make_params(lambda_d=2e-5)
        base = ExperimentConfig(params=params,
                                scheme=SchemeSpec(kind="proposed_threshold", delta=150.0, g=0.873),
                                n_realizations=500, seed=31)
        thresh = simkit.run_experiment(base)
        matched = ExperimentConfig(params=params,
                                   scheme=SchemeSpec(kind="proposed_top_fraction", delta=150.0,
                                                     p_s=thresh.active_fraction.mean),
                                   n_realizations=500, seed=1031)
        top = simkit.run_experiment(matched)
        gap = abs(thresh.ase.mean - top.ase.mean)
        se = math.hypot(thresh.ase.mean - thresh.ase.ci_low,
                        top.ase.mean - top.ase.ci_low) / 1.96
        assert gap < 3 * se
