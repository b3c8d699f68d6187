"""Piecewise linear interval maps and trajectory generation.

Maps are self-maps of [0, 1] given by breakpoints and values; evaluation is
linear interpolation.  Evaluation supports dual arithmetic: exact rational
(seed the iteration with a Fraction/int) and binary floating point (seed
with a float).  Exact iteration is authoritative wherever map data are
rational; the float path exists for speed at large n.

Iteration
---------
Each map builds one step table per arithmetic, the first time it is used,
and :func:`evaluate` and :func:`iterate` both step through it.  A point is
placed in its piece by bisection over the breakpoints.  Exact pieces are
found on integers: the breakpoints are held as integers N_k over their
common denominator L, and since N_k <= p L / q iff N_k <= floor(p L / q),
the bisection for x = p/q runs at ``p L // q`` and compares no
``Fraction``.  On a plateau piece, and at x = 1, the step returns the
stored value itself.  Float pieces
interpolate as ``v0 + (x - x0) * dv / dx`` with ``dv = fl(v1 - v0)`` and
``dx = fl(x1 - x0)`` precomputed, the same float operations on the same
operands as the interpolation written out, so the bits do not change.
Exact pieces hold their affine form in integers, f(p/q) = (A p + B q) /
(D q), so a step costs two products, a sum and the one gcd that reduces
the result.

The map is deterministic, so x_j = x_c implies x_{j+i} = x_{c+i} for every
i >= 0.  :func:`iterate` compares each new point with one checkpoint, which
moves to the new point whenever its index doubles (indices 1, 2, 4, 8,
...; Brent 1980), and at the first equality copies x_{c+1}, ..., x_j
periodically to the end instead of evaluating further.  An orbit with
preperiod k and period p stops within 2 max(k, p) + p steps, so an orbit
that lands exactly on a cycle, as on plateau maps, costs a few dozen steps
whatever its length.  An orbit that never repeats pays one comparison per
step, which on exact points compares the numerator and denominator as
ints.  The points are equal, in value, type and float bits (signed zero
included), to evaluating every step in full: equal floats differ in bits
only as 0.0 and -0.0, which every piece maps to the same float.

A repeat also fixes the orbit's shape, its lasso.  A point before k never
recurs, so the checkpoint that repeats lies on the cycle, and p = j - c is
the minimal period; the preperiod k is the first i with x_i = x_{i+p}, at
most c, found in k + 1 comparisons.  The k + p points x_0, ..., x_{k+p-1}
are pairwise distinct, or the orbit would have closed earlier, and every
later point repeats one of them: x_i = x_{k + (i - k) mod p} for i >= k.
The trajectory keeps (k, p), so the rank table of :mod:`rqamaps.ranks`
holds only those k + p points, the pair counts take them as the classes
of equal delay vectors, and :func:`detect_periodic` reads the cycle without a scan.
Float orbits keep it too: their repeat is the same equality test.  A
trajectory built by hand has none; :meth:`Trajectory.as_float` keeps it
only when the first k + p floats are pairwise distinct.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import json

from .rational import Number, as_fraction, fraction_str, scaled


@dataclass(frozen=True)
class PiecewiseLinearMap:
    """Continuous PL self-map of [0, 1].

    ``breakpoints`` is strictly increasing from 0 to 1; ``values`` gives the
    image of each breakpoint; between breakpoints the map interpolates
    linearly.  All data are stored as exact rationals.
    """

    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]
    _step_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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

    def _step(self, exact: bool):
        """The map's step function in exact or float arithmetic, built on
        first use from its per-piece table (see the module docstring)."""
        cache = self._step_cache
        if exact not in cache:
            cache[exact] = (_exact_step if exact else _float_step)(
                self.breakpoints, self.values)
        return cache[exact]

    def to_json(self) -> str:
        return json.dumps({
            "breakpoints": [fraction_str(b) for b in self.breakpoints],
            "values": [fraction_str(v) for v in self.values],
        })

    @staticmethod
    def from_json(text: str) -> "PiecewiseLinearMap":
        """Parse a map file, an object whose "breakpoints" and "values" are
        JSON arrays; a malformed one raises ValueError."""
        data = json.loads(text)
        keys = ("breakpoints", "values")
        if not (isinstance(data, dict) and all(isinstance(data.get(k), list) for k in keys)):
            raise ValueError('malformed map JSON: need "breakpoints" and "values" arrays')
        try:
            return PiecewiseLinearMap.of(data["breakpoints"], data["values"])
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"malformed map JSON: {exc!r}") from exc


def _exact_step(bps, vals):
    """step(x) for x in [0, 1]: the stored value on a plateau and at x = 1,
    otherwise (A p + B q) / (D q) for x = p / q, where f(x) = (A x + B) / D
    on x's piece.  The breakpoints after 0, the last standing for x = 1,
    are held as integers N_k over their lcm L; N_k <= p L / q iff N_k <=
    floor(p L / q), so bisect_right over them at p L // q finds the piece."""
    pieces = []
    for x0, x1, v0, v1 in zip(bps, bps[1:], vals, vals[1:]):
        if v0 == v1:
            pieces.append(v0)
            continue
        a = (v1 - v0) / (x1 - x0)
        ints, d = scaled([a, v0 - a * x0])
        pieces.append((*ints, d))
    pieces.append(vals[-1])
    inner, scale = scaled(bps[1:])

    def step(x):
        p, q = x.numerator, x.denominator
        piece = pieces[bisect_right(inner, p * scale // q)]
        if type(piece) is not tuple:
            return piece
        a, b, d = piece
        return Fraction(a * p + b * q, d * q)
    return step


def _float_step(bps, vals):
    """step(x) as :func:`_exact_step` does, in float arithmetic: the
    interpolation v0 + (x - x0) * dv / dx, with dv = fl(v1 - v0) and
    dx = fl(x1 - x0) computed once.  Rounding might carry a point out of
    [0, 1], so every step checks its argument."""
    bps, vals = [float(b) for b in bps], [float(v) for v in vals]
    pieces = [v0 if v0 == v1 else (x0, v0, v1 - v0, x1 - x0)
              for x0, x1, v0, v1 in zip(bps, bps[1:], vals, vals[1:])]
    pieces.append(vals[-1])
    inner = bps[1:]

    def step(x):
        if not 0.0 <= x <= 1.0:
            raise ValueError(f"point {x} outside map domain [0, 1]")
        piece = pieces[bisect_right(inner, x)]
        if type(piece) is not tuple:
            return piece
        x0, v0, dv, dx = piece
        return v0 + (x - x0) * dv / dx
    return step


def _stepper(f: PiecewiseLinearMap, x: Number):
    """f's step function in the arithmetic of x, once x is checked to lie in
    the domain."""
    if not 0 <= x <= 1:
        raise ValueError(f"point {x} outside map domain [0, 1]")
    return f._step(not isinstance(x, float))


def evaluate(f: PiecewiseLinearMap, x: Number) -> Number:
    """f(x) by linear interpolation; exact for rational x, float for float x."""
    if not isinstance(x, (float, Fraction)):
        x = as_fraction(x)
    return _stepper(f, x)(x)


@dataclass(frozen=True)
class Trajectory:
    """Finite orbit segment: points[i] is the i-th iterate of ``base``.

    The pair counts keep the points' rank table (:mod:`rqamaps.ranks`) in
    ``_rank_cache`` (at most one, built on the first count).  ``_lasso``
    is (k, p) when the first k + p points are known to be pairwise
    distinct and point i >= k to equal point k + (i - k) mod p (see
    "Iteration" in the module docstring), and None otherwise.  Neither
    takes part in comparisons."""

    base: Number
    points: tuple[Number, ...]
    _rank_cache: list = field(default_factory=list, init=False, repr=False, compare=False)
    _lasso: tuple[int, int] | None = field(default=None, kw_only=True, repr=False,
                                           compare=False)

    def __len__(self) -> int:
        return len(self.points)

    def shifted(self, h: int) -> "Trajectory":
        """Trajectory of the h-th iterate (drops the first h points)."""
        if not 0 <= h < len(self.points):
            raise ValueError(f"shift {h} outside trajectory")
        lasso = None
        if self._lasso is not None:
            k, p = self._lasso
            lasso = (max(0, k - h), p)
        return Trajectory(self.points[h], self.points[h:], _lasso=lasso)

    def as_float(self) -> "Trajectory":
        """The points as floats, keeping the lasso (k, p) when the first
        k + p floats are pairwise distinct: equal rationals round to equal
        floats, and distinct lasso floats leave no shorter period or
        preperiod.  Two distinct rationals can round to one float."""
        pts = tuple(float(p) for p in self.points)
        lasso = self._lasso
        if lasso and len(set(pts[:sum(lasso)])) < sum(lasso):
            lasso = None
        return Trajectory(float(self.base), pts, _lasso=lasso)


def iterate(f: PiecewiseLinearMap, x: Number, n: int) -> Trajectory:
    """Trajectory of length n starting at x (x itself is points[0]).

    Arithmetic follows the seed: a float seed iterates in floats, anything
    else iterates exactly in rationals.  Once a point equals the checkpoint
    x_c, the points x_{c+1}, ..., x_j are copied periodically to the end,
    and the trajectory keeps the orbit's lasso (see "Iteration" in the
    module docstring).
    """
    if n < 1:
        raise ValueError("trajectory length must be >= 1")
    if not isinstance(x, float):
        x = as_fraction(x)
    pts, lasso = [x], None
    if n > 1 and isinstance(x, float):
        step, c, mark, move = _stepper(f, x), 0, x, 1
        for j in range(1, n):
            x = step(x)
            pts.append(x)
            if x == mark:
                lasso = _close(pts, c, j, n)
                break
            if j == move:
                c, mark, move = j, x, 2 * j
    elif n > 1:
        # a rational point equals the checkpoint when its numerator and
        # denominator do, compared as ints, which skips Fraction.__eq__
        step, c, num, den, move = _stepper(f, x), 0, x.numerator, x.denominator, 1
        for j in range(1, n):
            x = step(x)
            pts.append(x)
            if x.numerator == num and x.denominator == den:
                lasso = _close(pts, c, j, n)
                break
            if j == move:
                c, num, den, move = j, x.numerator, x.denominator, 2 * j
    return Trajectory(pts[0], tuple(pts), _lasso=lasso)


def _close(pts: list, c: int, j: int, n: int) -> tuple[int, int]:
    """Copy x_{c+1}, ..., x_j periodically onto ``pts`` up to n points, and
    return the lasso (k, p) of the orbit, whose point j repeats the
    checkpoint x_c."""
    p = j - c
    k = next(i for i in range(c + 1) if pts[i] == pts[i + p])
    cycle, rest = pts[c + 1:], n - 1 - j
    pts += (cycle * (rest // p + 1))[:rest]
    return k, p


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

    With tol == 0, a trajectory that keeps its lasso (k, p) answers from
    it: any period witnessed at tol 0 is a multiple of the minimal p, with
    the same preperiod k, so the answer is (k, p) when k + 2p <= len and
    None otherwise.  Other trajectories, and tol > 0, scan the residuals.
    """
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    pts = t.points
    n = len(pts)
    if tol == 0 and t._lasso is not None:
        k, p = t._lasso
        if k + 2 * p > n:
            return None
        return PeriodicStructure(preperiod=k, period=p, orbit=tuple(pts[k:k + p]))
    # with tol == 0 equality is the test: rational points are equal when their
    # numerators and denominators are, compared as ints, which skips
    # Fraction.__eq__; other points are often the same object, and == skips a
    # subtraction
    exact = tol == 0
    ratios = exact and all(isinstance(x, Fraction) for x in pts)
    for p in range(1, n // 2 + 1):
        # minimal k such that every residual at offset p from index k on fits
        k = n - p
        for i in range(n - p - 1, -1, -1):
            a, b = pts[i + p], pts[i]
            if ((a.numerator == b.numerator and a.denominator == b.denominator) if ratios
                    else (a is b or a == b) if exact else abs(a - b) <= tol):
                k = i
            else:
                break
        if k + 2 * p <= n:
            return PeriodicStructure(preperiod=k, period=p,
                                     orbit=tuple(pts[k:k + p]))
    return None
