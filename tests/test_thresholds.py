"""The two threshold rules, each with one home: ``rational.positive``
decides which thresholds are admitted, at every entry point, and
``ranks.threshold`` the largest distance that passes one."""
import math
import operator
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from rqamaps import cli, ranks
from rqamaps.finite_omega import PeriodicOrbitData, closed_form_corr_sum
from rqamaps.intervals import (CompactInterval, Configuration, epsilon_pairs,
                               extremal_configuration, zero_configuration)
from rqamaps.rqa import RQAParams, correlation_sum
from rqamaps.solenoidal import asymptotic_corr_sum, counts_by_window

TINY, HUGE = 5e-324, F(10 ** 400)

# eps as a float, inf included, as a Fraction at, or 10^-330 either side
# of, a finite float, and as a Fraction of moderate size
EPS = st.one_of(
    st.floats(min_value=TINY, allow_nan=False),
    st.builds(lambda x, k: F(x) + F(k, 10 ** 330),
              st.floats(min_value=TINY, allow_infinity=False), st.integers(-1, 1)),
    st.fractions(min_value=F(1, 10 ** 12), max_value=10 ** 12, max_denominator=10 ** 12))


@settings(max_examples=300, deadline=None)
@given(EPS, st.sampled_from([1, 7, 10 ** 6, 3 ** 45]), st.booleans(), st.booleans())
@example(HUGE, 1, False, False)
@example(HUGE, 1, False, True)
@example(math.inf, 1, False, True)
@example(F(1, 10 ** 400), 1, False, True)
@example(F(TINY), 1, False, True)
def test_threshold_is_the_largest_passing_distance(eps, scale, exact, strict):
    passes = operator.lt if strict else operator.le
    if exact:
        assume(eps != math.inf)
        e = ranks.threshold(ranks.int_table([0], scale), eps, strict)
        assert passes(F(e, scale), eps) and not passes(F(e + 1, scale), eps)
    else:
        # Python compares floats with Fractions exactly, and inf with both
        d = ranks.threshold(ranks.table([0.0], 1), eps, strict)
        assert isinstance(d, float) and passes(d, eps)
        assert d == math.inf or not passes(math.nextafter(d, math.inf), eps)


def test_infinite_threshold_passes_every_exact_distance():
    # no integer is the largest distance below inf; the table's span is the
    # largest distance the table holds, so every pair passes
    table = ranks.int_table([-4, 0, 9], 7)
    assert ranks.threshold(table, math.inf, True) == ranks.threshold(table, math.inf, False) == 13
    assert correlation_sum([F(0), F(1, 2), F(7)], RQAParams(1, math.inf, 3)) == 1


ORBIT = PeriodicOrbitData((0.0, 0.5))
CONF = Configuration((CompactInterval(F(0), F(1)), CompactInterval(F(2), F(3))))
# name -> call with eps and a nested-interval system; the library entries
# take eps as a number, the cli as exact rational text
LIBRARY = {
    "RQAParams": lambda eps, _: RQAParams(1, eps, 3),
    "finite_omega": lambda eps, _: closed_form_corr_sum(ORBIT, 1, eps),
    "counts_by_window": lambda eps, system: counts_by_window(system, 2, eps, 1),
    "asymptotic_corr_sum": lambda eps, system: asymptotic_corr_sum(system, 1, eps, [2]),
    "epsilon_pairs": lambda eps, _: epsilon_pairs(CONF, eps),
    "extremal_configuration": lambda eps, _: extremal_configuration(3, eps),
    "zero_configuration": lambda eps, _: zero_configuration(3, eps),
}
ENTRY_POINTS = {"cli": lambda eps, _: cli._parse_epsilon(str(eps), False), **LIBRARY}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_every_entry_point_rejects_a_threshold_that_is_not_positive(delahaye5, name):
    call = ENTRY_POINTS[name]
    for eps in [0, -0.0, F(-1, 2), -3]:
        with pytest.raises(ValueError, match="^epsilon must be positive$"):
            call(eps, delahaye5.system)
    call(F(1, 4), delahaye5.system)


@pytest.mark.parametrize("eps", [math.nan, 0, -1], ids=["nan", "zero", "minus_one"])
@pytest.mark.parametrize("name", LIBRARY)
def test_nan_zero_and_negative_get_the_one_message(delahaye5, name, eps):
    # NaN is checked before any conversion, which would raise its own error
    with pytest.raises(ValueError, match="^epsilon must be positive$"):
        LIBRARY[name](eps, delahaye5.system)
