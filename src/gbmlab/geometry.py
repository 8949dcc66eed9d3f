"""Latent-space primitives.

Vertices live either on the circle parameterized as [0, 1) with the
wraparound distance d(x, y) = min(|x - y|, 1 - |x - y|), or on the unit
sphere S^t in R^(t+1) with Euclidean (chord) distance.  This module
provides distances, uniform sampling, and the normalized cap and
cap-intersection areas that every threshold formula depends on.

Conventions: `t` is the sphere dimension (t >= 1), chord distances lie in
[0, 2], and all areas are fractions of the total sphere area (values in
[0, 1]).  Interval comparisons are closed on both ends.
"""

from __future__ import annotations

import math

import numpy as np

from .rng import normal_rows


def _check_dimension(t: int) -> int:
    t = int(t)
    if t < 1:
        raise ValueError(f"sphere dimension must be >= 1, got {t}")
    return t


def geodesic_distance(x, y):
    """Wraparound distance on the unit-circumference circle.

    Accepts scalars or arrays of coordinates in [0, 1); the result is in
    [0, 1/2].
    """
    d = np.abs(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))
    out = np.minimum(d, 1.0 - d)
    return float(out) if np.isscalar(x) and np.isscalar(y) else out


def chord_of_geodesic(d):
    """Euclidean chord length between two unit-circle points at geodesic distance d.

    Strictly increasing on [0, 1/2], mapping 0 -> 0 and 1/2 -> 2.  Bands
    stated in geodesic form and in chord form therefore induce identical
    edge sets.
    """
    out = 2.0 * np.sin(np.pi * np.asarray(d, dtype=float))
    return float(out) if np.isscalar(d) else out


def squared_chord(x: np.ndarray, u, v) -> np.ndarray:
    """|x[u] - x[v]|^2 for the rows of x picked by index arrays u, v (broadcast together).

    Summed coordinate by coordinate, in index order.  The one sphere edge
    formula: generators, their audit and both dense-oracle answers call
    it, so a pair at distance exactly r is decided the same way everywhere.
    """
    cols = np.ascontiguousarray(x.T)
    d2 = (cols[0][u] - cols[0][v]) ** 2
    for c in cols[1:]:
        d2 += (c[u] - c[v]) ** 2
    return d2


def sample_circle(rng: np.random.Generator, n: int) -> np.ndarray:
    """n i.i.d. uniform circle coordinates in [0, 1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return rng.random(n)


def sample_sphere(rng: np.random.Generator, n: int, t: int) -> np.ndarray:
    """n i.i.d. uniform points on S^t, shape (n, t+1).

    Normalized isotropic Gaussian vectors: exactly uniform in any
    dimension, deterministic given the generator state.
    """
    t = _check_dimension(t)
    if n < 1:
        raise ValueError("n must be >= 1")
    g = normal_rows(rng, n, t + 1)
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    # zero norm has probability zero; guard against pathological streams
    norms[norms == 0.0] = 1.0
    x = g / norms
    bad = np.abs(np.linalg.norm(x, axis=1) - 1.0) > 1e-12
    if np.any(bad):
        x[bad] /= np.linalg.norm(x[bad], axis=1, keepdims=True)
    return x


def _chord_angle(c: float) -> float:
    """Polar angle subtended by a chord of length c on the unit sphere."""
    return 2.0 * math.asin(min(1.0, max(0.0, 0.5 * c)))


def _polar_cap(m: int, sin2: float, within_hemisphere: bool) -> float:
    """Fraction of S^m within polar angle b of a pole, from sin^2 b and whether b <= pi/2.

    The regularized incomplete beta identity behind every cap area here.
    """
    from scipy.special import betainc

    half = 0.5 * betainc(0.5 * m, 0.5, sin2)
    return float(half if within_hemisphere else 1.0 - half)


def cap_fraction(t: int, r: float) -> float:
    """Fraction of S^t within chord distance r of a fixed point.

    Exact for all r in [0, 2] via the regularized incomplete beta
    function; for t = 2 this reduces to r^2 / 4.
    """
    t = _check_dimension(t)
    r = float(r)
    if not 0.0 <= r <= 2.0:
        raise ValueError(f"chord radius must lie in [0, 2], got {r}")
    # cos a = 1 - r^2 / 2: sin^2 a = r^2 (1 - r^2 / 4), which unlike 1 - cos^2 a
    # does not cancel at small r, and a <= pi / 2 iff r^2 <= 2
    return _polar_cap(t, max(0.0, r * r * (1.0 - 0.25 * r * r)), r * r <= 2.0)


def annulus_fraction(t: int, r1: float, r2: float) -> float:
    """Fraction of S^t at chord distance in [r1, r2] of a fixed point."""
    if r1 > r2:
        raise ValueError(f"need r1 <= r2, got r1={r1}, r2={r2}")
    return cap_fraction(t, r2) - cap_fraction(t, r1)


def cap_area_small_r(t: int, r: float) -> float:
    """Leading-order cap fraction c_t r^t / |S^t| = r^t / psi(t), valid as r -> 0.

    Asymptotic cross-check only; use cap_fraction for exact values.
    """
    t = _check_dimension(t)
    return float(r) ** t / psi(t)


def psi(t: int) -> float:
    """Isolated-vertex threshold constant sqrt(pi) (t+1) Gamma((t+2)/2) / Gamma((t+3)/2).

    Equals |S^t| / c_t, the reciprocal of the leading cap-area constant.
    psi(1) = pi, psi(2) = 4, psi(3) = 3 pi / 2.
    """
    from scipy.special import gamma

    t = _check_dimension(t)
    return math.sqrt(math.pi) * (t + 1) * gamma(0.5 * (t + 2)) / gamma(0.5 * (t + 3))


def _lens_circle(a1: float, a2: float, g: float) -> float:
    """Arc-overlap fraction for two circle caps of angular radii a1, a2 at separation g."""
    lo, hi = g - a2, g + a2
    overlap = max(0.0, min(a1, hi) - max(-a1, lo))
    # a second overlap lobe appears when the caps wrap around the far side
    overlap += max(0.0, min(a1, hi - 2.0 * math.pi) - max(-a1, lo - 2.0 * math.pi))
    return overlap / (2.0 * math.pi)


def _lens_sphere(t: int, a1: float, a2: float, g: float) -> float:
    """Normalized intersection of caps of angular radii a1, a2 with centers at angle g in (0, pi], t >= 2.

    Polar quadrature about the first center: the ring at polar angle theta
    lies in the second cap in the fraction F_(t-1)(c) of S^(t-1) whose
    first coordinate is >= c = (cos a2 - cos theta cos g) / (sin theta sin g).
    F is 1 below theta = a2 - g and above 2 pi - g - a2, 0 below g - a2
    and above g + a2, and smooth in between.  The stretches where F = 1
    are closed-form polar caps; quad runs between the kinks only.
    """
    from scipy.integrate import quad
    from scipy.special import beta, betainc

    def cap(b: float) -> float:
        return _polar_cap(t, math.sin(b) ** 2, b <= 0.5 * math.pi)

    far = 2.0 * math.pi - g - a2
    out = 0.0
    if g < a2:  # the first center lies inside the second cap
        out += cap(a2 - g)
    if a1 > far:  # the caps cover the sphere: the band past `far` lies in both
        out += cap(a1) - cap(far)
    lo, hi = abs(g - a2), min(a1, g + a2, far)
    if lo < hi:
        def ring(theta: float) -> float:
            # 1 - c = 2p / d and 1 + c = 2q / d with d = p + q = sin theta sin g,
            # products of sines that keep their precision near the kinks
            p = math.sin(0.5 * (a2 + theta - g)) * math.sin(0.5 * (a2 - theta + g))
            q = math.sin(0.5 * (theta + g + a2)) * math.sin(0.5 * (theta + g - a2))
            # _polar_cap(t - 1, 1 - c^2, c >= 0), inlined so that quad's calls
            # do not each run _polar_cap's import
            half = 0.5 * betainc(0.5 * (t - 1), 0.5, 4.0 * p * q / (p + q) ** 2)
            return math.sin(theta) ** (t - 1) * float(half if q >= p else 1.0 - half)

        norm = float(beta(0.5 * t, 0.5))
        # the shell [lo, hi] bounds the integral; ask for it to 1e-11 of the shell
        shell = cap(hi) - cap(lo)
        val, _ = quad(ring, lo, hi, epsabs=1e-11 * shell * norm, epsrel=1e-12, limit=200)
        out += val / norm
    return out


def cap_intersection_fraction(t: int, r1: float, r2: float, ell: float) -> float:
    """Fraction of S^t within chord distance r1 of one point and r2 of another.

    The two cap centers sit at chord distance ell.  Exact arc overlap for
    t = 1 and deterministic quadrature for every t >= 2.

    Symmetric in (r1, r2), nonincreasing in ell, bounded by the smaller
    cap fraction, zero once the caps separate.
    """
    t = _check_dimension(t)
    for name, v in (("r1", r1), ("r2", r2), ("ell", ell)):
        if not 0.0 <= v <= 2.0:
            raise ValueError(f"{name} must lie in [0, 2], got {v}")
    r1, r2 = sorted((float(r1), float(r2)))
    a1, a2, g = _chord_angle(r1), _chord_angle(r2), _chord_angle(ell)
    if g >= a1 + a2:
        return 0.0
    if g <= a2 - a1:
        # smaller cap nested inside the larger one
        return cap_fraction(t, r1)
    if t == 1:
        return _lens_circle(a2, a1, g)
    return _lens_sphere(t, a2, a1, g)
