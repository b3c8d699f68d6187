"""Closed-form asymptotic correlation sums for finite limit cycles.

A trajectory attracted to a periodic orbit y_0 -> y_1 -> ... -> y_{p-1}
has asymptotic correlation sum

    c_m(eps) = #{(i, j) in Z_p^2 : bowen_m(y_i, y_j) <= eps} / p^2

for every eps outside the finite set of pairwise orbit Bowen distances.
At an excluded threshold the limit may genuinely fail to exist, so those
values are flagged rather than silently accepted.  Determinism follows as
c_m / c_1 and equals exactly 1 whenever eps is below the smallest spatial
gap of the orbit.

A p-cycle is counted as what it is, the trajectory of y_0: the index-order
pair scan ``rqa.window_counts`` over its first p indices gives every
window 1..m at once.  The orbit keeps that trajectory, the cycle repeated
to 2p - 1 points, and the trajectory keeps its rank table (``ranks.table``),
so every count on one orbit, at any m or eps, ranks the cycle once.  A
threshold is excluded exactly when some pair sits at Bowen distance eps,
that is when the count with ``<= eps`` differs from the count with ``<
eps``; the warning needs no list of the p^2 distances.  Both counts cut
at ``ranks.threshold``, the largest distance that passes: exact orbits
are compared exactly, and float orbits compare float distances against
eps itself, as every float count does.  The warning points at the line
that called the closed form.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .dynamics import PeriodicStructure, Trajectory
from .rational import Number, as_fraction, fraction_str, positive
from .rqa import window_counts


class ExcludedEpsilonWarning(UserWarning):
    """Threshold coincides with an orbit Bowen distance; no existence guarantee."""


@dataclass(frozen=True)
class PeriodicOrbitData:
    """Periodic orbit in dynamical order: y_{i+1} is the image of y_i (cyclically)."""

    points: tuple[Number, ...]

    def __post_init__(self):
        if not self.points:
            raise ValueError("orbit must be nonempty")
        if len(set(self.points)) != len(self.points):
            raise ValueError("orbit points must be pairwise distinct")

    @property
    def period(self) -> int:
        return len(self.points)

    @cached_property
    def _unrolled(self) -> Trajectory:
        """The trajectory of y_0: the cycle repeated to 2p - 1 points, enough
        for every window, with its lasso (0, p); the pair counts keep its
        rank table."""
        return Trajectory(self.points[0], self.points + self.points[:-1],
                          _lasso=(0, self.period))

    @staticmethod
    def of(points) -> "PeriodicOrbitData":
        return PeriodicOrbitData(tuple(as_fraction(p) for p in points))


def aligned_orbit(ps: PeriodicStructure) -> PeriodicOrbitData:
    """Rotate a detected cycle so orbit index i matches trajectory index i mod p.

    A trajectory with preperiod k visits ps.orbit[(i - k) mod p] at large
    indices congruent to i; the rotation fixes that offset.  All pair
    counts below are invariant under the rotation (cyclic shifts permute
    the index grid), so the choice only standardizes labels.
    """
    k, p = ps.preperiod, ps.period
    return PeriodicOrbitData(tuple(ps.orbit[(i - k) % p] for i in range(p)))


def bowen_orbit_distance(o: PeriodicOrbitData, i: int, j: int, m: int) -> Number:
    """Window-m Bowen distance along the cycle, successor indices mod p."""
    p = o.period
    if not (0 <= i < p and 0 <= j < p):
        raise ValueError(f"indices ({i}, {j}) outside orbit of period {p}")
    return max(abs(o.points[(i + s) % p] - o.points[(j + s) % p])
               for s in range(m))


def excluded_epsilons(o: PeriodicOrbitData, m: int) -> frozenset:
    """All positive pairwise orbit Bowen distances (at most p^2 values)."""
    p = o.period
    vals = {bowen_orbit_distance(o, i, j, m) for i in range(p) for j in range(p)}
    vals.discard(0 * o.points[0])
    return frozenset(vals)


def _orbit_counts(o: PeriodicOrbitData, m: int, epsilon: Number,
                  strict: bool = False) -> list[int]:
    """[N_w for w = 1..m], N_w = #{(i, j) in Z_p^2 : bowen_w(y_i, y_j) <=
    eps} (< eps when ``strict``), from one scan of the trajectory of y_0."""
    if m < 1:
        raise ValueError("window length must be >= 1")
    eps = positive(epsilon if isinstance(epsilon, float) else as_fraction(epsilon))
    p = o.period
    steps = min(m, p)   # offsets repeat mod p
    counts = window_counts(o._unrolled, p, steps, eps, strict)
    return counts + counts[-1:] * (m - steps)


def recurrent_orbit_pairs(o: PeriodicOrbitData, m: int, epsilon: Number) -> int:
    return _orbit_counts(o, m, epsilon)[-1]


def _warn_if_excluded(epsilon, n_closed: int, n_strict: int) -> None:
    # eps is an orbit Bowen distance exactly when some pair sits at distance eps
    if n_closed != n_strict:
        warnings.warn(
            f"epsilon={epsilon} equals an orbit Bowen distance; the asymptotic "
            "correlation sum is not guaranteed to exist there",
            ExcludedEpsilonWarning, stacklevel=3)


def closed_form_corr_sum(o: PeriodicOrbitData, m: int, epsilon: Number) -> Fraction:
    """c_m(eps) for the orbit; warns when eps is an excluded threshold."""
    n_m = _orbit_counts(o, m, epsilon)[-1]
    _warn_if_excluded(epsilon, n_m, _orbit_counts(o, m, epsilon, strict=True)[-1])
    return Fraction(n_m, o.period ** 2)


def min_spatial_gap(o: PeriodicOrbitData) -> Number:
    p = o.period
    if p == 1:
        raise ValueError("a fixed point has no spatial gap")
    ys = sorted(o.points)
    return min(b - a for a, b in zip(ys, ys[1:]))


def asymptotic_rdet_finite(o: PeriodicOrbitData, m: int, epsilon: Number) -> Fraction:
    """Asymptotic determinism c_m / c_1; exactly 1 below the minimal gap."""
    closed = _orbit_counts(o, m, epsilon)
    strict = _orbit_counts(o, m, epsilon, strict=True)
    for w in (m, 1):
        _warn_if_excluded(epsilon, closed[w - 1], strict[w - 1])
    return Fraction(closed[m - 1], closed[0])


def report(o: PeriodicOrbitData, m: int, epsilon: Number) -> dict:
    """JSON-ready summary of the closed form at one (m, epsilon)."""
    c = closed_form_corr_sum(o, m, epsilon)
    return {
        "p": o.period,
        "orbit": [fraction_str(y) for y in o.points],
        "m": m,
        "epsilon": fraction_str(epsilon),
        "c_m_num": c.numerator,
        "c_m_den": c.denominator,
        "excluded": sorted(fraction_str(e) for e in excluded_epsilons(o, m)),
    }


def report_json(o: PeriodicOrbitData, m: int, epsilon: Number) -> str:
    return json.dumps(report(o, m, epsilon), indent=2)
