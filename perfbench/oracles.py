"""Reference counts the benchmark checks the package against.

None of these call into the package: they are independent implementations
of the same definitions, chosen for being obviously right rather than fast.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction

import numpy as np

# Float neighbours closer than this to the threshold are decided one by one
# with the float subtraction the definition uses; farther ones by sorting.
_FLOAT_MARGIN = 1e-9


def c1_count(points, n: int, eps) -> int:
    """#{(i, j) in [0, n)^2 : |x_i - x_j| <= eps} by sorting and bisecting.

    Exact values (ints, Fractions) are compared exactly.  Float values follow
    the float definition |fl(x_i - x_j)| <= eps: pairs near the threshold are
    decided by that subtraction, all others by their sorted position.
    """
    if isinstance(points[0], float):
        return _c1_count_float(np.asarray(points[:n], dtype=np.float64), eps)
    xs = sorted(Fraction(p) for p in points[:n])
    return sum(bisect_right(xs, x + eps) - bisect_left(xs, x - eps) for x in xs)


def _c1_count_float(x: np.ndarray, eps: float) -> int:
    xs = np.sort(x)
    inner_lo = np.searchsorted(xs, x - eps + _FLOAT_MARGIN, "left")
    inner_hi = np.searchsorted(xs, x + eps - _FLOAT_MARGIN, "right")
    outer_lo = np.searchsorted(xs, x - eps - _FLOAT_MARGIN, "left")
    outer_hi = np.searchsorted(xs, x + eps + _FLOAT_MARGIN, "right")
    total = int((inner_hi - inner_lo).sum())
    for i in np.nonzero((outer_lo < inner_lo) | (inner_hi < outer_hi))[0]:
        edge = np.concatenate((xs[outer_lo[i]:inner_lo[i]],
                               xs[inner_hi[i]:outer_hi[i]]))
        total += int((np.abs(x[i] - edge) <= eps).sum())
    return total


def pl_orbit(f, x0, n: int) -> list:
    """x0, f(x0), ... by linear interpolation between breakpoints.

    A float seed iterates in floats with the interpolation written as
    v0 + (x - x0) * (v1 - v0) / (x1 - x0), the float definition the package
    documents; any other seed iterates exactly.
    """
    if isinstance(x0, float):
        bps = [float(b) for b in f.breakpoints]
        vals = [float(v) for v in f.values]
    else:
        bps, vals, x0 = list(f.breakpoints), list(f.values), Fraction(x0)
    out = [x0]
    x = x0
    for _ in range(n - 1):
        i = bisect_right(bps, x) - 1
        if i == len(bps) - 1:       # x == 1
            x = vals[-1]
        else:
            a, b, va, vb = bps[i], bps[i + 1], vals[i], vals[i + 1]
            x = va if va == vb else va + (x - a) * (vb - va) / (b - a)
        out.append(x)
    return out


def bowen_counts(points, n: int, windows, eps) -> dict[int, int]:
    """#{(i, j) in [0, n)^2 : max_{s<m} |x_{i+s} - x_{j+s}| <= eps} for each
    window m, pure Python.

    near[i] has bit j set when |x_i - x_j| <= eps; shifting near[i+s] right
    by s puts the pair (i+s, j+s) at bit j, so AND-ing over s < m leaves the
    j that recur with i in every step of the window.
    """
    pts = list(points[:n + max(windows) - 1])
    near = [sum(1 << j for j, y in enumerate(pts) if abs(x - y) <= eps) for x in pts]
    full = (1 << n) - 1
    counts = {}
    for m in windows:
        count = 0
        for i in range(n):
            row = full
            for s in range(m):
                row &= near[i + s] >> s
            count += row.bit_count()
        counts[m] = count
    return counts


def orbit_bowen(orbit, i: int, j: int, m: int):
    p = len(orbit)
    return max(abs(orbit[(i + s) % p] - orbit[(j + s) % p]) for s in range(m))


def orbit_pair_count(orbit, m: int, eps) -> int:
    """Recurrent pairs of a periodic orbit (cyclic successor indices)."""
    p = len(orbit)
    return sum(1 for i in range(p) for j in range(p)
               if orbit_bowen(orbit, i, j, m) <= eps)


def orbit_distances(orbit, m: int) -> set:
    """Every positive pairwise Bowen distance of a periodic orbit."""
    p = len(orbit)
    return {d for i in range(p) for j in range(p)
            if (d := orbit_bowen(orbit, i, j, m)) > 0}


def det_from_counts(m: int, n1: int, nm: int, nm1: int) -> Fraction:
    """DET_m = m*rdet_m - (m-1)*rdet_{m+1} from the three pair counts."""
    return Fraction(m * nm - (m - 1) * nm1, n1)
