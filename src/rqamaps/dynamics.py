"""Piecewise linear interval maps and trajectory generation.

Maps are self-maps of [0, 1] given by breakpoints and values; evaluation is
linear interpolation.  Evaluation supports dual arithmetic: exact rational
(seed the iteration with a Fraction/int) and binary floating point (seed
with a float).  Exact iteration is authoritative wherever map data are
rational; the float path exists for speed at large n.
"""
from __future__ import annotations

import csv
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import json

from .rational import Number, as_fraction, fraction_str


@dataclass(frozen=True)
class PiecewiseLinearMap:
    """Continuous PL self-map of [0, 1].

    ``breakpoints`` is strictly increasing from 0 to 1; ``values`` gives the
    image of each breakpoint; between breakpoints the map interpolates
    linearly.  All data are stored as exact rationals.
    """

    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]
    _float_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        bp, vals = self.breakpoints, self.values
        if len(bp) != len(vals) or len(bp) < 2:
            raise ValueError("need matching breakpoint/value sequences, length >= 2")
        if bp[0] != 0 or bp[-1] != 1:
            raise ValueError("breakpoints must start at 0 and end at 1")
        if any(a >= b for a, b in zip(bp, bp[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if any(not (0 <= v <= 1) for v in vals):
            raise ValueError("values must lie in [0, 1]")

    @staticmethod
    def of(breakpoints: Sequence, values: Sequence) -> "PiecewiseLinearMap":
        return PiecewiseLinearMap(
            tuple(as_fraction(b) for b in breakpoints),
            tuple(as_fraction(v) for v in values))

    def _floats(self):
        cache = self._float_cache
        if "bp" not in cache:
            cache["bp"] = [float(b) for b in self.breakpoints]
            cache["vals"] = [float(v) for v in self.values]
        return cache["bp"], cache["vals"]

    def to_json(self) -> str:
        return json.dumps({
            "breakpoints": [fraction_str(b) for b in self.breakpoints],
            "values": [fraction_str(v) for v in self.values],
        })

    @staticmethod
    def from_json(text: str) -> "PiecewiseLinearMap":
        """Parse a map file; a malformed one raises ValueError."""
        data = json.loads(text)
        try:
            return PiecewiseLinearMap.of(data["breakpoints"], data["values"])
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"malformed map JSON: {exc!r}") from exc


def evaluate(f: PiecewiseLinearMap, x: Number) -> Number:
    """f(x) by linear interpolation; exact for rational x, float for float x."""
    if isinstance(x, float):
        bp, vals = f._floats()
    else:
        bp, vals = f.breakpoints, f.values
        if not isinstance(x, Fraction):
            x = as_fraction(x)
    if not bp[0] <= x <= bp[-1]:
        raise ValueError(f"point {x} outside map domain [0, 1]")
    i = bisect_right(bp, x) - 1
    if i == len(bp) - 1:  # x == 1
        return vals[-1]
    x0, x1 = bp[i], bp[i + 1]
    v0, v1 = vals[i], vals[i + 1]
    if v0 == v1:
        return v0
    return v0 + (x - x0) * (v1 - v0) / (x1 - x0)


@dataclass(frozen=True)
class Trajectory:
    """Finite orbit segment: points[i] is the i-th iterate of ``base``."""

    base: Number
    points: tuple[Number, ...]

    def __len__(self) -> int:
        return len(self.points)

    def shifted(self, h: int) -> "Trajectory":
        """Trajectory of the h-th iterate (drops the first h points)."""
        if not 0 <= h < len(self.points):
            raise ValueError(f"shift {h} outside trajectory")
        return Trajectory(self.points[h], self.points[h:])

    def as_float(self) -> "Trajectory":
        return Trajectory(float(self.base), tuple(float(p) for p in self.points))


def iterate(f: PiecewiseLinearMap, x: Number, n: int) -> Trajectory:
    """Trajectory of length n starting at x (x itself is points[0]).

    Arithmetic follows the seed: a float seed iterates in floats, anything
    else iterates exactly in rationals.
    """
    if n < 1:
        raise ValueError("trajectory length must be >= 1")
    if not isinstance(x, float):
        x = as_fraction(x)
    pts = [x]
    for _ in range(n - 1):
        pts.append(evaluate(f, pts[-1]))
    return Trajectory(pts[0], tuple(pts))


@dataclass(frozen=True)
class PeriodicStructure:
    """Detected eventual periodicity: preperiod k, minimal period p, cycle."""

    preperiod: int
    period: int
    orbit: tuple[Number, ...]


def detect_periodic(t: Trajectory, tol: Number = 0) -> PeriodicStructure | None:
    """Smallest (p, k) with |points[i+p] - points[i]| <= tol for all i >= k.

    The cycle must be witnessed twice within the trajectory (k + 2p <= len).
    With tol == 0 on exact-rational trajectories this is exact eventual
    periodicity; with tol > 0 it certifies residuals over the observed
    window only, which is a heuristic for numerically converging orbits.
    Returns None when no (k, p) is certifiable.
    """
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    pts = t.points
    n = len(pts)
    # with tol == 0 equality is the test: repeated orbit points are often the
    # same object, and == skips a Fraction subtraction
    exact = tol == 0
    for p in range(1, n // 2 + 1):
        # minimal k such that every residual at offset p from index k on fits
        k = n - p
        for i in range(n - p - 1, -1, -1):
            a, b = pts[i + p], pts[i]
            if (a is b or a == b) if exact else abs(a - b) <= tol:
                k = i
            else:
                break
        if k + 2 * p <= n:
            return PeriodicStructure(preperiod=k, period=p,
                                     orbit=tuple(pts[k:k + p]))
    return None


def write_trajectory_csv(t: Trajectory, path) -> None:
    """CSV export (index, value); exact values as p/q strings."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["index", "value"])
        for i, p in enumerate(t.points):
            w.writerow([i, repr(p) if isinstance(p, float) else fraction_str(p)])
