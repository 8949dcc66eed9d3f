"""Threshold solvers for the triangle-count filter.

The 1-D filter keeps an edge when its normalized common-neighbor count
falls outside the window (E_D, E_S) around the cross-cluster rate
2 b log(n)/n.  The window offsets f1, f2 solve one-dimensional divergence
conditions; the survival band endpoints theta1, theta2 describe which
same-cluster edges the filter provably keeps.  The same module carries
the high-dimensional (absolute-count) thresholds and the two-phase plan
for the dense regime.

All logarithms are natural.  Every solver is a pure bisection through
one loop, `_bisect`: f1, f2, theta1 and theta2 to BISECT_TOL = 1e-9, and
`min_a_for_b` to its own tol, 1e-3 by default.  A bracket with no known
upper end is first doubled by `_grow`.  Identical inputs give
bit-identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

from .geometry import cap_fraction, cap_intersection_fraction


class RegimeError(ValueError):
    """Parameters outside the regime an operation is specified for."""


BISECT_TOL = 1e-9


def finite_size_exponent(n: int) -> float:
    """Divergence target 1 + 2 log(log n)/log n.

    The filter's design point is a per-edge misclassification rate of
    1/(n log^2 n); a plain target of 1 only delivers 1/n, which at desk
    scale leaves Theta(log n) surviving cross-cluster edges.  This target
    restores the intended rate and tends to 1 as n grows.  ValueError
    unless n >= 3, where log(log n) is defined and positive.
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    ln = math.log(n)
    return 1.0 + 2.0 * math.log(ln) / ln


def _bisect(pred, lo: float, hi: float, tol: float = BISECT_TOL) -> tuple[float, float]:
    """Halve [lo, hi] until it is at most tol wide, for pred false at lo and true at hi.

    pred must switch once from false to true on the bracket.  The midpoint
    replaces hi where pred holds and lo elsewhere.  The loop also stops
    when that leaves the bracket unchanged: lo and hi are then adjacent
    floats more than tol apart, and the next step would repeat forever.
    """
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        step = (lo, mid) if pred(mid) else (mid, hi)
        if step == (lo, hi):
            break
        lo, hi = step
    return lo, hi


def _grow(pred, hi: float, tries: int) -> float:
    """The first of hi, 2 hi, 4 hi, ... where pred holds; RegimeError after `tries` doublings."""
    for _ in range(tries + 1):
        if pred(hi):
            return hi
        hi *= 2.0
    raise RegimeError("no root found while doubling the bracket")


def solve_f1(b: float, target: float = 1.0) -> float:
    """Least f > 0 with (2b+f) log((2b+f)/(2b)) - f > target, for b > 0 and target > 0."""
    if b <= 0:
        raise ValueError("b must be positive")
    if not target > 0:
        raise ValueError(f"divergence target must be > 0, got {target}")

    def pred(f):
        return (2 * b + f) * math.log((2 * b + f) / (2 * b)) - f > target

    return _bisect(pred, 0.0, _grow(pred, max(1.0, 2 * b), 200))[1]


def solve_f2(b: float, target: float = 1.0) -> Optional[float]:
    """Least f in (0, 2b) with (2b-f) log((2b-f)/(2b)) + f > target, or None.

    The objective increases to 2b as f -> 2b, so a root exists iff
    2b > target (b > 1/2 for the default target); otherwise the window
    has no lower edge and the low-keep branch of the filter is disabled.
    """
    if b <= 0:
        raise ValueError("b must be positive")
    if not target > 0:
        raise ValueError(f"divergence target must be > 0, got {target}")
    if 2 * b <= target:
        return None

    def pred(f):
        x = 2 * b - f
        return (x * math.log(x / (2 * b)) if x > 0 else 0.0) + f > target

    # the objective reaches 2b > target at f = 2b
    return _bisect(pred, 0.0, 2 * b)[1]


def _phi(s: float, y: float) -> float:
    """0.5 (s log(s/y) + y - s): Poisson-style divergence of rate y/2 from s/2."""
    return 0.5 * (s * math.log(s / y) + y - s)


def solve_theta1(a: float, b: float, f1: float, target: float = 1.0) -> float:
    """Upper endpoint of the short-distance survival band.

    With s1 = 4b + 2 f1, phi(y) = 0.5 (s1 log(s1/y) + y - s1) increases for
    y >= s1; theta1 = 2a - y1 at the root phi(y1) = target, clamped to 0
    when the constraint set {0 <= theta <= 2a - s1} is empty or the root
    exceeds 2a.
    """
    if a <= 0 or b <= 0:
        raise ValueError("a, b must be positive")
    s1 = 4 * b + 2 * f1
    if 2 * a <= s1:
        return 0.0

    def pred(y):
        return _phi(s1, y) > target

    y1 = _bisect(pred, s1, _grow(pred, max(2 * s1, s1 + 1.0), 200))[1]
    return max(0.0, 2 * a - y1)


def solve_theta2(a: float, b: float, f2: Optional[float], target: float = 1.0) -> float:
    """Lower endpoint of the long-distance survival band, or a when absent.

    With s2 = 4b - 2 f2, phi(y) = 0.5 (s2 log(s2/y) + y - s2) decreases on
    (0, s2); the candidate is theta = max(2a - y2, 2b, 2a - 4b + 2 f2)
    with phi(y2) = target.  Whenever f2 is absent or the candidate
    exceeds a (empty feasible set), there is no long-distance band and
    theta2 = a.
    """
    if a <= 0 or b <= 0:
        raise ValueError("a, b must be positive")
    if f2 is None:
        return a
    s2 = 4 * b - 2 * f2
    if s2 <= 0:
        return a
    # phi decreases in y on (0, s2), from +inf down to phi(s2) = 0: the
    # condition phi(y) > target holds exactly for y below the root y2.
    y2 = _bisect(lambda y: not _phi(s2, y) > target, 0.0, s2)[0]
    theta2 = max(2 * a - y2, 2 * b, 2 * a - 4 * b + 2 * f2)
    return theta2 if theta2 <= a else a


@dataclass(frozen=True)
class ThresholdSet1D:
    """Solved quantities for the 1-D filter at a parameter point (n, a, b).

    E_S and E_D are normalized rates (compare count/n against them);
    E_D is None when the low-keep branch is disabled.
    """
    n: int
    a: float
    b: float
    f1: float
    f2: Optional[float]
    theta1: float
    theta2: float
    E_S: float
    E_D: Optional[float]
    divergence_target: float

    @property
    def e_d_enabled(self) -> bool:
        return self.E_D is not None

    def to_dict(self) -> dict:
        return asdict(self)


def _window_solve(a: float, b: float, target: float) -> tuple[float, Optional[float], float, float]:
    """(f1, f2, theta1, theta2) at (a, b) for the divergence target."""
    f1 = solve_f1(b, target)
    f2 = solve_f2(b, target)
    return f1, f2, solve_theta1(a, b, f1, target), solve_theta2(a, b, f2, target)


def thresholds_1d(n: int, a: float, b: float, divergence_target: float = 1.0) -> ThresholdSet1D:
    """Assemble the full 1-D threshold set.

    Requires a >= 2b (the filter's design regime) and n >= 3.
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    if b <= 0:
        raise ValueError("b must be positive")
    if a < 2 * b:
        raise RegimeError(f"filter thresholds require a >= 2b, got a={a}, b={b}")
    ln_n = math.log(n)
    f1, f2, theta1, theta2 = _window_solve(a, b, divergence_target)
    e_s = (2 * b + f1) * ln_n / n
    e_d = (2 * b - f2) * ln_n / n if f2 is not None else None
    return ThresholdSet1D(n=n, a=a, b=b, f1=f1, f2=f2, theta1=theta1, theta2=theta2,
                          E_S=e_s, E_D=e_d, divergence_target=divergence_target)


def recovery_condition(a: float, b: float, target: float = 1.0) -> bool:
    """Whether the filter provably recovers the bipartition at (a, b).

    True iff a - theta2 + theta1 > 2, or a > 2 and a - theta2 > 1.
    """
    _, _, t1, t2 = _window_solve(a, b, target)
    return (a - t2 + t1 > 2.0) or (a > 2.0 and a - t2 > 1.0)


def min_a_for_b(b: float, tol: float = 1e-3, target: float = 1.0) -> float:
    """Least a enabling provable recovery at cluster rate b, to tolerance tol."""
    if b <= 0:
        raise ValueError("b must be positive")

    def pred(a):
        return recovery_condition(a, b, target)

    hi = _grow(pred, max(4.0, 4 * b), 64)
    lo = max(2 * b, tol)
    if pred(lo):
        return lo
    return _bisect(pred, lo, hi, tol)[1]


TABLE_B_VALUES = (0.01, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0)


def min_a_table(b_values=TABLE_B_VALUES) -> list[tuple[float, float]]:
    """(b, minimal a) rows for the standard grid of cross-cluster rates."""
    return [(b, min_a_for_b(b)) for b in b_values]


def _check_sphere_radii(r_s: float, r_d: float) -> None:
    """The sphere regime's one radius rule, 0 < r_d < r_s <= 2 (chord distances)."""
    if not 0.0 < r_d < r_s <= 2.0:
        raise RegimeError(f"need 0 < r_d < r_s <= 2, got r_s={r_s}, r_d={r_d}")


@dataclass(frozen=True)
class ThresholdSetHD:
    """Absolute-count thresholds for the filter on S^t."""
    n: int
    t: int
    r_s: float
    r_d: float
    c_s: float
    c_d: float
    E_S: float
    E_D: float

    @property
    def feasible(self) -> bool:
        return self.E_D < self.E_S

    def to_dict(self) -> dict:
        return {**asdict(self), "feasible": self.feasible}


def thresholds_hd(n: int, t: int, r_s: float, r_d: float,
                  c_s: float = 1.0, c_d: float = 1.0) -> ThresholdSetHD:
    """High-dimensional filter thresholds.

    E_S = c_s (B n + sqrt(6 B n log n)) with B the cross-radius cap
    fraction; E_D = c_d (n V - sqrt(2 B n log n)) with V the intersection
    of the two caps at center distance r_d.  Both are absolute counts.
    """
    _check_sphere_radii(r_s, r_d)
    if c_s < 1.0 or not 0.0 < c_d <= 1.0:
        raise ValueError("need c_s >= 1 and 0 < c_d <= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    ln_n = math.log(n)
    b_d = cap_fraction(t, r_d)
    vol = cap_intersection_fraction(t, r_s, r_d, r_d)
    e_s = c_s * (b_d * n + math.sqrt(6.0 * b_d * n * ln_n))
    e_d = c_d * (n * vol - math.sqrt(2.0 * b_d * n * ln_n))
    ts = ThresholdSetHD(n=n, t=t, r_s=r_s, r_d=r_d, c_s=c_s, c_d=c_d, E_S=e_s, E_D=e_d)
    if not ts.feasible:
        raise RegimeError("no separating window: E_D >= E_S at these parameters")
    return ts


#: phase-2 deviation factor inside g(n); 12 is the conservative design value
DENSE_G_FACTOR = 12.0


@dataclass(frozen=True)
class DensePlan:
    """Two-phase sampling plan for the dense regime.

    g is the per-cluster phase-2 sample size, h the phase-1 sample size,
    E_S / E_D the phase-1 filter thresholds (absolute counts over the
    h-vertex sample).  g_formula records the pre-cap value of g; the
    final g is capped at h // 3 so phase-2 sampling without replacement
    stays possible.
    """
    n: int
    t: int
    r_s: float
    r_d: float
    g: int
    h: int
    g_formula: int
    E_S: float
    E_D: float
    theta_S: float
    theta_D: float

    @property
    def query_budget(self) -> int:
        """Exact pair-probe count of a non-degenerate run."""
        return self.h * (self.h - 1) // 2 + (self.n - self.h) * 2 * self.g

    def to_dict(self) -> dict:
        return {**asdict(self), "query_budget": self.query_budget}


def dense_plan(n: int, t: int, r_s: float, r_d: float,
               theta_S: float = 0.93, theta_D: float = 1.0) -> DensePlan:
    """Build the two-phase plan for constant-radius instances.

    g = min(n/2, ceil(log n ((sqrt(12 B_d) + sqrt(12 B_s)) / (B_s - B_d))^2)),
    h = min(n, ceil(sqrt(n g))), then g is capped at h // 3.  Phase-1
    thresholds use h in place of n, with a sqrt(6 ...) deviation term on
    both sides.

    theta_S defaults to 0.93: at desk scale the sqrt(6 B h log n) term is
    comparable to the count gap itself, and an unscaled E_S prunes nearly
    every same-cluster edge (measured on n = 1e4, r_s = 0.6, r_d = 0.4).
    """
    _check_sphere_radii(r_s, r_d)
    b_s = cap_fraction(t, r_s)
    b_d = cap_fraction(t, r_d)
    if b_s <= b_d:
        raise RegimeError("cap fractions give no signal: B(r_s) <= B(r_d)")
    ln_n = math.log(n)
    ratio = (math.sqrt(DENSE_G_FACTOR * b_d) + math.sqrt(DENSE_G_FACTOR * b_s)) / (b_s - b_d)
    g_formula = min(n // 2, math.ceil(ln_n * ratio * ratio))
    h = min(n, math.ceil(math.sqrt(n * g_formula)))
    g = max(1, min(g_formula, h // 3))
    e_s = theta_S * (b_d * h + math.sqrt(6.0 * b_d * h * ln_n))
    vol = cap_intersection_fraction(t, r_s, r_d, r_d)
    e_d = theta_D * (h * vol - math.sqrt(6.0 * h * b_d * ln_n))
    return DensePlan(n=n, t=t, r_s=r_s, r_d=r_d, g=g, h=h, g_formula=g_formula,
                     E_S=e_s, E_D=e_d, theta_S=theta_S, theta_D=theta_D)
