"""Reference implementations that the tests check the package against.

Each reads its quantity from a definition, not from the code under test:
word intervals from the diameter rule by endpoint sharing, the odometer
step from the word's integer value mod 2^t, Bowen distances
along a cycle by successor indices mod p, and the prop42 recurrence rule
from the levels of the two indices.

The module is not named ``oracles``: the benchmark imports its own
``perfbench/oracles.py`` under that name, and one pytest run over both
suites would give both the module loaded first.
"""
from fractions import Fraction as F
from functools import cache

from rqamaps.constructions import Prop42Instance, index_level
from rqamaps.finite_omega import PeriodicOrbitData
from rqamaps.intervals import CompactInterval, interval_dist, union_diam
from rqamaps.solenoidal import AdmissibleSystem, Word


def descent(rule, a):
    """K_a from the diameter rule, prefix by prefix, in Fractions."""
    lo, hi = F(0), F(1)
    for d in range(1, len(a) + 1):
        width = rule(Word(a.digits[:d]))
        lo, hi = (lo, lo + width) if a.digits[d - 1] == 0 else (hi - width, hi)
    return lo, hi


@cache
def _word_interval(rule, digits: tuple[int, ...]) -> CompactInterval:
    """K of the word ``digits`` under ``rule``, kept per word."""
    return CompactInterval(*descent(rule, Word(digits)))


def odometer_step(a: Word, i: int) -> Word:
    """a + i under the odometer, carrying from the leftmost digit, mod 2^|a|."""
    return Word.from_int((a.to_int() + i) % (1 << len(a)), len(a))


def _shifted_pair(s: AdmissibleSystem, a: Word, b: Word, i: int):
    return tuple(_word_interval(s.diam_rule, odometer_step(w, i).digits) for w in (a, b))


def dist_m_words(s: AdmissibleSystem, a: Word, b: Word, m: int) -> F:
    """max over i < m of dist(K_{a+i}, K_{b+i}); m is capped at p_t."""
    if len(a) != len(b):
        raise ValueError("words must share their length")
    steps = min(m, 1 << len(a))
    return max(interval_dist(*_shifted_pair(s, a, b, i)) for i in range(steps))


def diam_m_words(s: AdmissibleSystem, a: Word, b: Word, m: int) -> F:
    """max over i < m of diam(K_{a+i} u K_{b+i}); m is capped at p_t."""
    if len(a) != len(b):
        raise ValueError("words must share their length")
    steps = min(m, 1 << len(a))
    return max(union_diam(*_shifted_pair(s, a, b, i)) for i in range(steps))


def prop42_recurrence_rule(inst: Prop42Instance, i: int, j: int) -> bool:
    """Symbolic test for |x_i - x_j| <= 1/2; no positional arithmetic.

    True iff i, j share parity, or the mixed pair sits at levels (s, t)
    (left-side level s, right-side level t) with s == t odd or s > t.
    """
    if not (0 <= i < inst.n_points and 0 <= j < inst.n_points):
        raise ValueError("index outside generated depth")
    if i % 2 == j % 2:
        return True
    e, o = (i, j) if i % 2 == 0 else (j, i)
    s, t = index_level(e), index_level(o)
    return (s == t and s % 2 == 1) or s > t


def bowen_orbit_distance(o: PeriodicOrbitData, i: int, j: int, m: int):
    """Window-m Bowen distance along the cycle, successor indices mod p."""
    p = o.period
    if not (0 <= i < p and 0 <= j < p):
        raise ValueError(f"indices ({i}, {j}) outside orbit of period {p}")
    return max(abs(o.points[(i + s) % p] - o.points[(j + s) % p])
               for s in range(m))
