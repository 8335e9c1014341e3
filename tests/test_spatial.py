import math

import numpy as np
import pytest
from scipy import stats

from d2dsim import spatial
from d2dsim.errors import ParameterError
from d2dsim.spatial import Window


def seeded(i=0):
    return np.random.default_rng(np.random.SeedSequence(entropy=777, spawn_key=(i,)))


def place_uplink_users_loop(bs_points, rng):
    """Per-point reference for ``place_uplink_users``: the first hit per cell
    in batch order, from the same batches and draws."""
    n, window = len(bs_points), bs_points.window
    users = np.full((n, 2), np.nan)
    missing = n
    while missing:
        xy = rng.uniform((0.0, 0.0), (window.width, window.height), size=(max(4 * n, 16), 2))
        owner = np.argmin(spatial.pairwise_distance(xy, bs_points.xy, window), axis=1)
        for p, cell in zip(xy, owner):
            if np.isnan(users[cell, 0]):
                users[cell] = p
                missing -= 1
    return users


def nearest_bs_indices(assoc: spatial.CellAssociation) -> np.ndarray:
    """Index of the closest BS to each user (association check)."""
    return np.argmin(spatial.pairwise_distance(assoc.users.xy, assoc.bs.xy, assoc.bs.window),
                     axis=1)


class TestWindow:
    def test_area(self):
        assert Window(3000.0, 2000.0).area == 6e6

    def test_invalid_sides(self):
        with pytest.raises(ParameterError):
            Window(0.0, 10.0)
        with pytest.raises(ParameterError):
            Window(10.0, -1.0)
        with pytest.raises(ParameterError, match="area"):
            Window(1e300, 1e300)   # finite sides, infinite area

    def test_invalid_topology(self):
        with pytest.raises(ParameterError):
            Window(10.0, 10.0, topology="moebius")


class TestToroidalDistance:
    def test_zero_for_identical_points(self, window):
        assert spatial.paired_distance([12.0, 34.0], [12.0, 34.0], window)[0] == 0.0

    def test_wraparound(self, window):
        assert spatial.paired_distance([0.0, 0.0], [2999.0, 0.0], window)[0] == pytest.approx(1.0)

    def test_no_wrap_shorter(self, window):
        d = spatial.paired_distance([0.0, 0.0], [1500.0, 1500.0], window)[0]
        assert d == pytest.approx(1500.0 * math.sqrt(2.0), rel=1e-12)

    def test_symmetry_and_triangle_inequality(self, window):
        rng = seeded()
        pts = rng.uniform(0, 3000, size=(30, 2))
        a, b, c = pts[:10], pts[10:20], pts[20:]
        dab = spatial.paired_distance(a, b, window)
        assert np.allclose(dab, spatial.paired_distance(b, a, window), rtol=1e-12)
        dac = spatial.paired_distance(a, c, window)
        dcb = spatial.paired_distance(c, b, window)
        assert np.all(dab <= dac + dcb + 1e-9)

    def test_bounded_topology_is_euclidean(self):
        win = Window(3000.0, 3000.0, topology="bounded")
        assert spatial.paired_distance([0.0, 0.0], [2999.0, 0.0], win)[0] == pytest.approx(2999.0)

    @pytest.mark.parametrize("topology", ["torus", "bounded"])
    def test_pairwise_is_paired_squared(self, topology):
        win = Window(3000.0, 2000.0, topology=topology)
        rng = seeded(20)
        a = rng.uniform((0, 0), (3000, 2000), size=(12, 2))
        b = rng.uniform((0, 0), (3000, 2000), size=(9, 2))
        d2 = spatial.pairwise_distance(a, b, win)
        assert d2.shape == (12, 9)
        for i in range(len(a)):
            for j in range(len(b)):
                d = spatial.paired_distance(a[i], b[j], win)[0]
                assert d2[i, j] == pytest.approx(d * d, rel=1e-12)


class TestSamplePpp:
    def test_zero_intensity_gives_empty_set(self, window):
        assert len(spatial.sample_ppp(0.0, window, seeded())) == 0

    def test_negative_intensity_rejected(self, window):
        with pytest.raises(ParameterError):
            spatial.sample_ppp(-1e-6, window, seeded())

    def test_undrawable_poisson_mean_rejected(self, window):
        with pytest.raises(ParameterError, match=r"intensity 1e\+300 .* 9000000.0 m\^2"):
            spatial.sample_ppp(1e300, window, seeded())

    def test_same_seed_is_bit_identical(self, window):
        a = spatial.sample_ppp(1e-5, window, seeded(3))
        b = spatial.sample_ppp(1e-5, window, seeded(3))
        assert np.array_equal(a.xy, b.xy)

    def test_mean_count_matches_intensity_times_area(self, window):
        # lambda * |W| = 9; sample mean over 10^4 draws within 3 sigma
        rng = seeded(1)
        counts = [len(spatial.sample_ppp(1e-6, window, rng)) for _ in range(10_000)]
        mean = np.mean(counts)
        se = math.sqrt(9.0 / len(counts))
        assert abs(mean - 9.0) < 3 * se

    def test_counts_pass_poisson_chi2_fit(self):
        # 100 x 100 window at 1e-4 per m^2 -> Poisson(1) counts
        win = Window(100.0, 100.0)
        rng = seeded(2)
        counts = np.array([len(spatial.sample_ppp(1e-4, win, rng)) for _ in range(4000)])
        edges = [0, 1, 2, 3]
        observed = [np.sum(counts == k) for k in edges] + [np.sum(counts >= 4)]
        pmf = [stats.poisson.pmf(k, 1.0) for k in edges]
        expected = [p * len(counts) for p in pmf] + [(1 - sum(pmf)) * len(counts)]
        chi2 = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
        assert chi2 < stats.chi2.ppf(0.99, df=len(expected) - 1)

    def test_coordinates_inside_window(self, window):
        ps = spatial.sample_ppp(1e-5, window, seeded(4))
        assert np.all(window.contains(ps.xy))


class TestPunchHoles:
    def test_zero_radius_keeps_everything(self, window):
        pts = spatial.sample_ppp(1e-5, window, seeded(5))
        holes = spatial.sample_ppp(1e-6, window, seeded(6))
        assert np.all(spatial.outside_holes_mask(pts, holes, 0.0))

    def test_point_at_exact_radius_is_removed(self, window):
        pts = spatial.PointSet(np.array([[1250.0, 1000.0]]), window)
        holes = spatial.PointSet(np.array([[1000.0, 1000.0]]), window)
        assert spatial.outside_holes_mask(pts, holes, 250.0).tolist() == [False]
        assert spatial.outside_holes_mask(pts, holes, 249.999).tolist() == [True]

    def test_mismatched_windows_rejected(self, window):
        pts = spatial.PointSet(np.array([[1.0, 1.0]]), window)
        holes = spatial.PointSet(np.array([[1.0, 1.0]]), Window(100.0, 100.0))
        with pytest.raises(ParameterError):
            spatial.outside_holes_mask(pts, holes, 10.0)

    def test_idempotent(self, window):
        pts = spatial.sample_ppp(3e-5, window, seeded(7))
        holes = spatial.sample_ppp(1e-6, window, seeded(8))
        once = spatial.PointSet(pts.xy[spatial.outside_holes_mask(pts, holes, 250.0)], window)
        assert np.all(spatial.outside_holes_mask(once, holes, 250.0))

    def test_monotone_thinning_in_radius(self, window):
        pts = spatial.sample_ppp(3e-5, window, seeded(9))
        holes = spatial.sample_ppp(1e-6, window, seeded(10))
        small = spatial.outside_holes_mask(pts, holes, 150.0)
        large = spatial.outside_holes_mask(pts, holes, 350.0)
        assert np.all(small[large])

    @pytest.mark.parametrize("delta", [100.0, 250.0, 400.0])
    def test_retained_fraction_matches_hole_survival(self, window, delta):
        expected = math.exp(-1e-6 * math.pi * delta ** 2)
        fractions = []
        for i in range(150):
            rng = seeded(100 + i)
            pts = spatial.sample_ppp(6e-5, window, rng)
            holes = spatial.sample_ppp(1e-6, window, rng)
            fractions.append(spatial.outside_holes_mask(pts, holes, delta).mean())
        fractions = np.asarray(fractions)
        se = fractions.std(ddof=1) / math.sqrt(len(fractions))
        assert abs(fractions.mean() - expected) < 3 * se


class TestPlaceUplinkUsers:
    def test_single_bs_user_uniform_over_window(self, window):
        bs = spatial.PointSet(np.array([[1500.0, 1500.0]]), window)
        rng = seeded(11)
        xs = np.array([spatial.place_uplink_users(bs, rng).users.xy[0] for _ in range(2000)])
        se = (3000.0 / math.sqrt(12.0)) / math.sqrt(len(xs))
        assert abs(xs[:, 0].mean() - 1500.0) < 3 * se
        assert abs(xs[:, 1].mean() - 1500.0) < 3 * se

    def test_empty_bs_set_rejected(self, window):
        bs = spatial.PointSet(np.zeros((0, 2)), window)
        with pytest.raises(ParameterError):
            spatial.place_uplink_users(bs, seeded())

    def test_every_user_is_in_its_own_cell(self, window):
        for i in range(20):
            rng = seeded(200 + i)
            bs = spatial.sample_ppp(1e-6, window, rng)
            if len(bs) == 0:
                continue
            assoc = spatial.place_uplink_users(bs, rng)
            assert np.array_equal(nearest_bs_indices(assoc), np.arange(len(bs)))

    @pytest.mark.parametrize("topology", ["torus", "bounded"])
    def test_matches_per_point_reference(self, topology):
        window = Window(3000.0, 3000.0, topology=topology)
        for i in range(20):
            bs = spatial.sample_ppp(2e-6, window, seeded(500 + i))
            if len(bs) == 0:
                continue
            rng, ref_rng = seeded(600 + i), seeded(600 + i)
            users = spatial.place_uplink_users(bs, rng).users.xy
            assert np.array_equal(users, place_uplink_users_loop(bs, ref_rng))
            assert rng.random() == ref_rng.random()   # the same number of draws

    def test_probe_point_distance_is_rayleigh(self, window):
        # a uniform probe point's distance to the nearest BS has mean 1/(2 sqrt(lambda));
        # the per-cell user mean sits below it because one user per cell unweights
        # the big cells that a uniform point lands in more often
        probe, per_user = [], []
        for i in range(400):
            rng = seeded(300 + i)
            bs = spatial.sample_ppp(1e-6, window, rng)
            if len(bs) == 0:
                continue
            assoc = spatial.place_uplink_users(bs, rng)
            per_user.extend(np.sqrt(
                spatial.pairwise_distance(assoc.users.xy, bs.xy, window).min(axis=1)).tolist())
            pts = rng.uniform((0.0, 0.0), (3000.0, 3000.0), size=(10, 2))
            probe.extend(
                np.sqrt(spatial.pairwise_distance(pts, bs.xy, window).min(axis=1)).tolist())
        probe = np.asarray(probe)
        se = probe.std(ddof=1) / math.sqrt(len(probe))
        assert abs(probe.mean() - 500.0) < 3 * se
        assert 0.80 * 500.0 < np.mean(per_user) < 0.99 * 500.0


class TestPlaceD2DPairs:
    def test_zero_length_colocates(self, window):
        tx = spatial.sample_ppp(1e-5, window, seeded(12))
        pairs = spatial.place_d2d_pairs(tx, 0.0, seeded(13))
        assert np.array_equal(pairs.transmitters.xy, pairs.receivers.xy)

    def test_all_pair_distances_equal_link_length(self, window):
        tx = spatial.sample_ppp(3e-5, window, seeded(14))
        pairs = spatial.place_d2d_pairs(tx, 50.0, seeded(15))
        d = np.sqrt(spatial.pairwise_distance(pairs.transmitters.xy, pairs.receivers.xy,
                                              window).diagonal())
        assert np.allclose(d, 50.0, atol=1e-9)

    def test_isotropy_mean_displacement_near_zero(self, window):
        n = 10_000
        tx = spatial.PointSet(np.full((n, 2), 1500.0), window)
        pairs = spatial.place_d2d_pairs(tx, 50.0, seeded(16))
        disp = pairs.receivers.xy - pairs.transmitters.xy
        se = (50.0 / math.sqrt(2.0)) / math.sqrt(n)
        assert abs(disp[:, 0].mean()) < 3 * se
        assert abs(disp[:, 1].mean()) < 3 * se

    def test_bounded_window_keeps_receivers_inside_at_distance(self):
        win = Window(200.0, 200.0, topology="bounded")
        tx = spatial.PointSet(np.array([[1.0, 1.0], [199.0, 199.0], [100.0, 100.0]]), win)
        pairs = spatial.place_d2d_pairs(tx, 50.0, seeded(17))
        assert np.all(win.contains(pairs.receivers.xy))
        d = np.hypot(*(pairs.receivers.xy - pairs.transmitters.xy).T)
        assert np.allclose(d, 50.0, atol=1e-9)

    def test_negative_length_rejected(self, window):
        tx = spatial.sample_ppp(1e-5, window, seeded(18))
        with pytest.raises(ParameterError):
            spatial.place_d2d_pairs(tx, -1.0, seeded(19))
