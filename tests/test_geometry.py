import math

import numpy as np
import pytest
from scipy import stats

from gbmlab import geometry as geo
from gbmlab.rng import substream

# Monte-Carlo rejection value for the (t=2, r1=r2=0.2, ell=0.2) cap
# intersection, 1e7 uniform samples, frozen before the quadrature existed.
LENS_GOLDEN_MC = 0.0039156
LENS_GOLDEN_SE = 1.98e-5


def mc_cap_fraction(t, r, samples, seed):
    rng = substream(seed, t)
    g = rng.standard_normal((samples, t + 1))
    x = g / np.linalg.norm(g, axis=1, keepdims=True)
    pole = np.zeros(t + 1)
    pole[0] = 1.0
    d = np.linalg.norm(x - pole, axis=1)
    return float((d <= r).mean())


class TestGeodesic:
    def test_examples(self):
        assert geo.geodesic_distance(0.1, 0.9) == pytest.approx(0.2, abs=1e-15)
        assert geo.geodesic_distance(0.37, 0.37) == 0.0
        assert geo.geodesic_distance(0.0, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_metric_properties(self):
        rng = substream(11)
        x, y, z = rng.random(3000), rng.random(3000), rng.random(3000)
        dxy = geo.geodesic_distance(x, y)
        assert np.all(dxy >= 0) and np.all(dxy <= 0.5)
        assert np.allclose(dxy, geo.geodesic_distance(y, x))
        assert np.all(geo.geodesic_distance(x, x) == 0)
        dyz = geo.geodesic_distance(y, z)
        dxz = geo.geodesic_distance(x, z)
        assert np.all(dxz <= dxy + dyz + 1e-12)


class TestChord:
    def test_examples(self):
        assert geo.chord_of_geodesic(0.0) == 0.0
        assert geo.chord_of_geodesic(0.5) == pytest.approx(2.0, abs=1e-12)
        assert geo.chord_of_geodesic(0.25) == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_strictly_increasing(self):
        d = np.linspace(0, 0.5, 101)
        assert np.all(np.diff(geo.chord_of_geodesic(d)) > 0)

    def test_matches_embedded_euclidean_distance(self):
        # embedding x -> (cos 2 pi x, sin 2 pi x) turns the wraparound
        # distance into a chord of length 2 sin(pi d)
        rng = substream(12)
        x, y = rng.random(2000), rng.random(2000)
        ex = np.stack([np.cos(2 * np.pi * x), np.sin(2 * np.pi * x)], axis=1)
        ey = np.stack([np.cos(2 * np.pi * y), np.sin(2 * np.pi * y)], axis=1)
        euclid = np.linalg.norm(ex - ey, axis=1)
        chords = geo.chord_of_geodesic(geo.geodesic_distance(x, y))
        assert np.max(np.abs(euclid - chords)) < 1e-12


class TestSampling:
    def test_circle_deterministic_and_in_range(self):
        a = geo.sample_circle(substream(5), 1000)
        b = geo.sample_circle(substream(5), 1000)
        assert np.array_equal(a, b)
        assert np.all((a >= 0) & (a < 1))

    def test_circle_uniformity_ks(self):
        x = geo.sample_circle(substream(6), 100_000)
        assert stats.kstest(x, "uniform").statistic < 0.01

    def test_sphere_unit_norm_and_deterministic(self):
        x = geo.sample_sphere(substream(7), 5000, 3)
        assert np.max(np.abs(np.linalg.norm(x, axis=1) - 1.0)) <= 1e-12
        y = geo.sample_sphere(substream(7), 5000, 3)
        assert np.array_equal(x, y)

    def test_sphere_coordinate_means(self):
        n = 100_000
        x = geo.sample_sphere(substream(8), n, 2)
        assert np.all(np.abs(x.mean(axis=0)) < 3.0 / math.sqrt(n))


class TestCapFraction:
    def test_endpoints(self):
        for t in (1, 2, 3, 5):
            assert geo.cap_fraction(t, 0.0) == 0.0
            assert geo.cap_fraction(t, 2.0) == pytest.approx(1.0, abs=1e-12)

    def test_two_sphere_closed_form(self):
        for r in np.linspace(0.0, 2.0, 41):
            assert geo.cap_fraction(2, float(r)) == pytest.approx(r * r / 4.0, abs=1e-12)

    def test_monotone(self):
        for t in (1, 2, 4):
            vals = [geo.cap_fraction(t, r) for r in np.linspace(0, 2, 60)]
            assert np.all(np.diff(vals) >= 0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            geo.cap_fraction(2, 2.5)
        with pytest.raises(ValueError):
            geo.cap_fraction(2, -0.1)

    def test_against_monte_carlo(self):
        samples = 200_000
        for t in (1, 2, 3):
            for r in (0.1, 0.5, 1.0):
                emp = mc_cap_fraction(t, r, samples, seed=90)
                se = math.sqrt(max(emp * (1 - emp), 1e-12) / samples)
                assert abs(geo.cap_fraction(t, r) - emp) <= 3 * se

    def test_small_r_asymptotics(self):
        # exact fraction approaches c_t r^t / |S^t| as r -> 0
        for t in (1, 2, 3):
            exact = geo.cap_fraction(t, 1e-3)
            approx = geo.cap_area_small_r(t, 1e-3)
            assert exact == pytest.approx(approx, rel=1e-4)


class TestAnnulus:
    def test_examples(self):
        assert geo.annulus_fraction(2, 0.3, 0.3) == 0.0
        assert geo.annulus_fraction(2, 0.0, 0.7) == geo.cap_fraction(2, 0.7)
        assert geo.annulus_fraction(2, 0.1, 0.2) == pytest.approx(0.0075, abs=1e-12)

    def test_additive(self):
        a = geo.annulus_fraction(3, 0.1, 0.4)
        b = geo.annulus_fraction(3, 0.4, 0.9)
        assert a + b == pytest.approx(geo.annulus_fraction(3, 0.1, 0.9), abs=1e-14)

    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            geo.annulus_fraction(2, 0.5, 0.2)


class TestCapIntersection:
    def test_tangent_caps_zero(self):
        assert geo.cap_intersection_fraction(2, 0.3, 0.3, 0.6) == 0.0
        assert geo.cap_intersection_fraction(1, 0.2, 0.1, 0.31) == 0.0

    def test_nested(self):
        assert geo.cap_intersection_fraction(2, 0.2, 0.6, 0.0) == pytest.approx(
            geo.cap_fraction(2, 0.2), abs=1e-12)
        # small cap strictly inside the big one
        assert geo.cap_intersection_fraction(2, 0.1, 0.6, 0.2) == pytest.approx(
            geo.cap_fraction(2, 0.1), abs=1e-12)

    def test_symmetric(self):
        a = geo.cap_intersection_fraction(2, 0.5, 0.3, 0.4)
        b = geo.cap_intersection_fraction(2, 0.3, 0.5, 0.4)
        assert a == b

    def test_nonincreasing_in_separation(self):
        vals = [geo.cap_intersection_fraction(2, 0.4, 0.3, ell)
                for ell in np.linspace(0, 0.8, 30)]
        assert np.all(np.diff(vals) <= 1e-12)

    def test_bounded_by_min_cap(self):
        for ell in (0.0, 0.2, 0.5):
            v = geo.cap_intersection_fraction(2, 0.5, 0.3, ell)
            assert v <= geo.cap_fraction(2, 0.3) + 1e-12

    def test_golden_monte_carlo_value(self):
        v = geo.cap_intersection_fraction(2, 0.2, 0.2, 0.2)
        assert abs(v - LENS_GOLDEN_MC) <= 3 * LENS_GOLDEN_SE

    def test_complement_identity(self):
        # cap 1 splits into its parts inside cap 2 and inside the complement
        # of cap 2, the cap of chord sqrt(4 - r2^2) about the antipode
        for t in (2, 3, 4, 5):
            for r1, r2, ell in ((0.6, 0.4, 0.4), (0.4, 0.6, 0.4), (1.0, 0.5, 0.7),
                                (1.5, 1.2, 1.6), (0.3, 1.9, 1.2), (1.9, 1.8, 1.9)):
                inside = geo.cap_intersection_fraction(t, r1, r2, ell)
                outside = geo.cap_intersection_fraction(
                    t, r1, math.sqrt(4.0 - r2 * r2), math.sqrt(4.0 - ell * ell))
                assert inside + outside == pytest.approx(geo.cap_fraction(t, r1), abs=1e-9)

    def test_golden_quadrature_t2(self):
        # 20-digit references from an mpmath quadrature of the same integral
        # (40-digit working precision, kinks as breakpoints)
        golden = {(0.6, 0.4, 0.4): 0.030256497377512788,
                  (0.5, 0.3, 0.4): 0.014724060723384371,
                  (1.5, 1.2, 1.6): 0.16241598872292640,
                  (1.9, 1.8, 1.9): 0.71249999999999996}
        for (r1, r2, ell), want in golden.items():
            assert geo.cap_intersection_fraction(2, r1, r2, ell) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("t", [3, 4, 5])
    def test_agrees_with_sampling(self, t):
        r1, r2, ell, samples = 0.6, 0.4, 0.4, 1_000_000
        g = 2.0 * math.asin(0.5 * ell)
        c1 = np.zeros(t + 1)
        c1[0] = 1.0
        c2 = np.zeros(t + 1)
        c2[0], c2[1] = math.cos(g), math.sin(g)
        rng = substream(23, t)
        hits = 0
        for _ in range(samples // 200_000):
            x = rng.standard_normal((200_000, t + 1))
            x /= np.linalg.norm(x, axis=1, keepdims=True)
            hits += int(((np.linalg.norm(x - c1, axis=1) <= r1)
                         & (np.linalg.norm(x - c2, axis=1) <= r2)).sum())
        quad = geo.cap_intersection_fraction(t, r1, r2, ell)
        se = math.sqrt(quad * (1.0 - quad) / samples)
        assert abs(quad - hits / samples) <= 3.0 * se


class TestPsi:
    def test_analytic_values(self):
        assert geo.psi(1) == pytest.approx(math.pi, abs=1e-12)
        assert geo.psi(2) == pytest.approx(4.0, abs=1e-12)
        assert geo.psi(3) == pytest.approx(1.5 * math.pi, abs=1e-12)
