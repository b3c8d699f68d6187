"""Fixed, package-free reference loops that gauge the machine's speed.

The benchmark runs on a shared machine whose speed for the same code
drifts by up to 1.8x over seconds to minutes, and not by the same factor
for every kind of work: a numpy scan over large arrays and a pure-Python
loop over big integers slow down at different times.  The runner times a
reference pass between jobs and divides each job's latency by the
reference time taken beside it.  The quotient is the job's cost in
reference passes, and it cancels the drift as far as the reference does
the same kinds of work as the job.  So each job is divided by the
reference components that mirror its own work (``MIX``).  No component
calls the package, so a change to the package cannot move the reference.
"""
from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

_RNG = np.random.default_rng(20221)
_XF = _RNG.random(4001)                                  # float64, like a float orbit
_XI = (_XF * 2.0 ** 40).astype(np.int64)                 # int64, like a scaled exact orbit
_BIG = [3 ** 300 // (i + 2) + i for i in range(300)]     # big ints, like a big-int orbit
_BIG_EPS = 3 ** 297
_STEP = Fraction(3, 10007)


def _pair_scan(x, m: int, rows: int, cols: int, eps) -> int:
    """Window-m pair count over blocks of 512 rows, shaped like the rqa
    kernel's blocks at n = cols; the arrays are no larger than the kernel's."""
    hits = 0
    for lo in range(0, rows, 512):
        acc = None
        for s in range(m):
            ok = np.abs(x[lo + s:lo + s + 512, None] - x[None, s:s + cols]) <= eps
            acc = ok if acc is None else (acc & ok)
        hits += int(acc.sum())
    return hits


def float_scan() -> int:   # the float jobs' scans run at m = 1 to 4
    return _pair_scan(_XF, 3, 1024, 3600, 0.01)


def int_scan() -> int:
    return _pair_scan(_XI, 2, 2048, 2400, 1 << 33)


def bigint_scan() -> int:
    hits = 0
    for a in _BIG:
        for b in _BIG:
            d = a - b
            if d <= _BIG_EPS and -d <= _BIG_EPS:
                hits += 1
    return hits


def fractions() -> int:
    x = Fraction(1, 3)
    for _ in range(2000):
        x = (5 * x + _STEP) % 1
    return x.numerator


COMPONENTS = {"float_scan": float_scan, "int_scan": int_scan,
              "bigint_scan": bigint_scan, "fractions": fractions}
# Fixed seconds per component: the *_norm metrics are job rates on a machine
# where each component takes this long.
NOMINAL_S = {"float_scan": 0.045, "int_scan": 0.030, "bigint_scan": 0.010,
             "fractions": 0.009}

# The components that do the kind of work a job does.  orbit_exact jobs
# iterate Fractions, then scan int64 arrays (plateau maps) or big-int lists
# (contracting maps); orbit_float_long jobs are nearly all float64 array
# scans; the symbolic and CLI jobs are mostly exact pure-Python arithmetic.
MIX = {
    "orbit_exact/plateau": ("int_scan", "fractions"),
    "orbit_exact/contracting": ("bigint_scan", "fractions"),
    "orbit_float_long": ("float_scan",),
    "symbolic": ("bigint_scan", "fractions"),
    "cli_artifacts": ("bigint_scan", "fractions"),
}


def mix(workload: str, facts: dict) -> tuple:
    """The reference components for a job of ``workload`` with ``facts``."""
    return MIX.get(workload) or MIX[f"{workload}/{facts['family']}"]


_CHECKSUMS: dict = {}


def timed(names) -> dict:
    """Seconds each named component takes now."""
    seconds = {}
    for name in names:
        t0 = time.perf_counter()
        value = COMPONENTS[name]()
        seconds[name] = time.perf_counter() - t0
        if _CHECKSUMS.setdefault(name, value) != value:
            raise RuntimeError(f"reference {name} returned {value}, not {_CHECKSUMS[name]}")
    return seconds
