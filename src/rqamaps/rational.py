"""Exact-rational helpers shared across the package.

Every quantity with rational inputs is kept as a :class:`fractions.Fraction`
so that threshold comparisons (strict vs non-strict) are decided exactly,
never by floating tolerance.  Floats are admitted as inputs -- a binary
float is itself a rational number and converts exactly.  Every entry point
that takes a threshold admits it through :func:`positive`.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence, Union

Rational = Union[int, Fraction]
Number = Union[int, float, Fraction]

def as_fraction(value: Number | str) -> Fraction:
    """Convert exactly to Fraction.

    Accepts ints, Fractions, floats (exact binary expansion) and strings in
    either "p/q" or decimal form ("1/625", "0.2", "3").  A bool is not a
    number here (TypeError), and "p/0" is malformed (ValueError).
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def fraction_str(value: Number) -> str:
    """Canonical exact string: "p/q" for non-integers, "p" otherwise."""
    f = as_fraction(value)
    return str(f)


def scaled(values: Sequence[Rational], scale: int = 1) -> tuple[list[int], int]:
    """(ints, S): the rationals ``values`` as integers over S, the lcm of
    ``scale`` and their denominators, so that values[i] == ints[i] / S."""
    # one as_integer_ratio call per value reads both parts at once
    ratios = [v.as_integer_ratio() for v in values]
    common = lcm(scale, *{den for _, den in ratios})
    return [num * (common // den) for num, den in ratios], common


def common_scale(values: list[Fraction]) -> int:
    """Least common multiple of all denominators (1 for an empty list)."""
    return scaled(values)[1]


def positive(eps: Number) -> Number:
    """eps, once checked to be a threshold: > 0, which NaN is not."""
    if not eps > 0:
        raise ValueError("epsilon must be positive")
    return eps
