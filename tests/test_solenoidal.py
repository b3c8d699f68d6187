import dataclasses
import math
import random
import tracemalloc
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rqamaps import build_delahaye, ranks, rqa
from rqamaps.constructions import delahaye_counts_formula
from rqamaps.intervals import (CompactInterval, Configuration, epsilon_pairs, interval_dist,
                               union_diam)
from rqamaps.rational import common_scale
from rqamaps.rqa import RQAParams, correlation_sum
from rqamaps.solenoidal import (AdmissibleSystem, ResourceGuardError, Word, _level,
                                asymptotic_corr_sum, count_pairs,
                                counts_by_window, interval_of_word, max_diam,
                                midpoint_trajectory, node_bounds, symbolic_trajectory,
                                word_add, write_counts_csv)

from conftest import EDGE_EPS, EDGE_SCALES, INT64_SCALE_LIMIT
from package_oracles import descent, diam_m_words, dist_m_words

W = Word.parse


# independent oracle: recompute intervals and counts from the diameter rule
def oracle_intervals(r, t):
    out = []
    for j in range(2 ** t):
        digits = [(j >> i) & 1 for i in range(t)]
        lo, hi = F(0), F(1)
        for s, d in enumerate(digits, start=1):
            width = F(1, r ** s) if digits[0] == 0 else F(2, r ** s)
            if d == 0:
                hi = lo + width
            else:
                lo = hi - width
        out.append((lo, hi))
    return out


def oracle_counts(r, t, m, eps):
    ivs = oracle_intervals(r, t)
    p = 2 ** t
    strict = closed = 0
    for a in range(p):
        for b in range(p):
            dm = max(max(F(0), ivs[(b + i) % p][0] - ivs[(a + i) % p][1],
                         ivs[(a + i) % p][0] - ivs[(b + i) % p][1])
                     for i in range(m))
            um = max(max(ivs[(a + i) % p][1], ivs[(b + i) % p][1])
                     - min(ivs[(a + i) % p][0], ivs[(b + i) % p][0])
                     for i in range(m))
            strict += dm < eps
            closed += um <= eps
    return strict, closed


def level_intervals(s, t):
    """The depth-t intervals of ``s``, indexed by odometer value, read by
    one node_bounds call."""
    b = node_bounds(s, t, t, range(2 ** t))
    return [CompactInterval(F(lo, b.scale), F(hi, b.scale))
            for lo, hi in zip(b.lo.tolist(), b.hi.tolist())]


def dense_counts(ivs, eps, m_max):
    """Oracle: [(N_m, N_m°) for m = 1..m_max] by a dense O(p^2 m) Fraction
    scan over the intervals in odometer order, with no cap on the window."""
    p = len(ivs)
    strict = [0] * m_max
    closed = [0] * m_max
    for a in range(p):
        for b in range(p):
            dm = um = None
            for i in range(m_max):
                ka, kb = ivs[(a + i) % p], ivs[(b + i) % p]
                d, u = interval_dist(ka, kb), union_diam(ka, kb)
                dm = d if dm is None else max(dm, d)
                um = u if um is None else max(um, u)
                if dm < eps:
                    strict[i] += 1
                if um <= eps:
                    closed[i] += 1
    return list(zip(strict, closed))


def integer_dense_counts(ivs, eps, m_max):
    """Oracle: [(N_m, N_m°) for m = 1..m_max] by a vectorised O(p^2 m)
    integer scan over the intervals in odometer order, with no cap on the
    window.  Endpoints and eps are integers over their common denominator,
    in int64 when every difference fits and as Python ints otherwise; the
    shift-s tests are the shift-0 tests at (a + s, b + s)."""
    p = len(ivs)
    ends = [iv.lo for iv in ivs] + [iv.hi for iv in ivs] + [eps]
    scale = math.lcm(*(x.denominator for x in ends))
    ints = [x.numerator * (scale // x.denominator) for x in ends]
    dtype = np.int64 if max(map(abs, ints)) < 2 ** 61 else object
    lo, hi, e = np.array(ints[:p], dtype=dtype), np.array(ints[p:-1], dtype=dtype), ints[-1]
    # gap < eps iff max(lo) - min(hi) < eps; hull <= eps iff max(hi) - min(lo) <= eps
    strict = np.maximum.outer(lo, lo) - np.minimum.outer(hi, hi) < e
    closed = np.maximum.outer(hi, hi) - np.minimum.outer(lo, lo) <= e
    out, in_strict, in_closed = [], strict, closed
    for s in range(m_max):
        step = (np.arange(p) + s) % p
        shifted = np.ix_(step, step)
        in_strict, in_closed = in_strict & strict[shifted], in_closed & closed[shifted]
        out.append((int(np.count_nonzero(in_strict)), int(np.count_nonzero(in_closed))))
    return out


class TestWords:
    def test_add_one(self):
        assert str(word_add(W("00"), 1)) == "10"

    def test_wrap_around(self):
        assert str(word_add(W("11"), 1)) == "00"

    def test_add_two(self):
        step = word_add(word_add(W("10"), 1), 1)
        assert str(word_add(W("10"), 2)) == str(step) == "11"

    def test_unit_word(self):
        # the word 1 0^{t-1} acts as the integer 1
        assert word_add(W("000"), 1) == W("100")
        assert W("100").to_int() == 1

    def test_digit_validation(self):
        with pytest.raises(ValueError):
            Word((2,))

    @pytest.mark.parametrize("value", [4, 5, -1])
    def test_from_int_rejects_values_outside_group(self, value):
        # no silent wrap: 5 is not the word 10, nor -1 the word 11
        with pytest.raises(ValueError, match="outside 0..3"):
            Word.from_int(value, 2)

    @given(st.integers(0, 10 ** 9), st.integers(0, 10 ** 9), st.integers(1, 8))
    def test_addition_is_group_action(self, a, b, t):
        w = Word.from_int(a % 2 ** t, t)
        assert word_add(word_add(w, a), b) == word_add(w, a + b)
        assert word_add(w, w.group_order) == w


class TestIntervals:
    def test_top_level(self, delahaye5):
        s = delahaye5.system
        assert interval_of_word(s, W("0")) == interval_of_word(s, W("0"))
        k0, k1 = interval_of_word(s, W("0")), interval_of_word(s, W("1"))
        assert (k0.lo, k0.hi) == (0, F(1, 5))
        assert (k1.lo, k1.hi) == (F(3, 5), 1)

    def test_right_child_keeps_hi(self, delahaye5):
        k01 = interval_of_word(delahaye5.system, W("01"))
        assert (k01.lo, k01.hi) == (F(4, 25), F(1, 5))

    def test_matches_oracle(self, delahaye5):
        s = delahaye5.system
        for t in range(1, 6):
            got = [interval_of_word(s, Word.from_int(j, t))
                   for j in range(2 ** t)]
            assert [(iv.lo, iv.hi) for iv in got] == oracle_intervals(5, t)

    def test_nesting_and_sibling_order(self, delahaye5):
        s = delahaye5.system
        for t in range(1, 6):
            for j in range(2 ** t):
                a = Word.from_int(j, t)
                parent = interval_of_word(s, a)
                left = interval_of_word(s, Word(a.digits + (0,)))
                right = interval_of_word(s, Word(a.digits + (1,)))
                assert parent.lo == left.lo and parent.hi == right.hi
                assert left.hi < right.lo
                assert left.lo >= parent.lo and right.hi <= parent.hi

    def test_depth_cap(self, delahaye5):
        with pytest.raises(ValueError):
            interval_of_word(delahaye5.system, Word((0,) * 99))

    def test_depth_zero_is_the_unit_interval(self, delahaye5):
        s = delahaye5.system
        iv = interval_of_word(s, Word(()))
        assert (iv.lo, iv.hi) == (0, 1)
        assert max_diam(s, 0) == 1

    def test_negative_depth(self, delahaye5):
        with pytest.raises(ValueError, match="depth -1 outside"):
            max_diam(delahaye5.system, -1)

    def test_max_diam_shrinks_geometrically(self, delahaye5):
        nus = [max_diam(delahaye5.system, t) for t in range(1, 8)]
        assert all(a > b for a, b in zip(nus, nus[1:]))
        assert all(nu == F(2, 5 ** t) for t, nu in enumerate(nus, start=1))


class TestWindowDistances:
    def test_same_word_zero(self, delahaye5):
        assert dist_m_words(delahaye5.system, W("01"), W("01"), 3) == 0

    def test_window_one(self, delahaye5):
        assert dist_m_words(delahaye5.system, W("00"), W("01"), 1) == F(3, 25)

    def test_window_two_takes_successors(self, delahaye5):
        assert dist_m_words(delahaye5.system, W("00"), W("01"), 2) == F(6, 25)

    def test_diam_window(self, delahaye5):
        s = delahaye5.system
        assert diam_m_words(s, W("0"), W("0"), 1) == F(1, 5)
        assert diam_m_words(s, W("00"), W("01"), 1) == F(1, 5)
        assert diam_m_words(s, W("00"), W("01"), 2) == F(2, 5)

    def test_length_mismatch(self, delahaye5):
        with pytest.raises(ValueError):
            dist_m_words(delahaye5.system, W("0"), W("01"), 1)

    def test_saturates_at_group_order(self, delahaye5):
        s = delahaye5.system
        a, b = W("010"), W("110")
        assert dist_m_words(s, a, b, 8) == dist_m_words(s, a, b, 11)
        assert diam_m_words(s, a, b, 8) == diam_m_words(s, a, b, 29)

    def test_shift_invariance_at_full_window(self, delahaye5):
        s = delahaye5.system
        for a0, b0 in [(0, 3), (2, 5), (1, 6)]:
            a, b = Word.from_int(a0, 3), Word.from_int(b0, 3)
            assert dist_m_words(s, a, b, 8) == \
                dist_m_words(s, word_add(a, 1), word_add(b, 1), 8)
            assert diam_m_words(s, a, b, 8) == \
                diam_m_words(s, word_add(a, 1), word_add(b, 1), 8)


class TestCounts:
    @pytest.mark.parametrize("t,m,expected_closed", [(2, 1, 6), (2, 2, 4), (3, 1, 24)])
    def test_known_counts(self, delahaye5, t, m, expected_closed):
        c = count_pairs(delahaye5.system, t, m, F(1, 5))
        assert c.n_closed == expected_closed

    def test_matches_oracle(self, delahaye5):
        for t in (1, 2, 3, 4):
            for m in (1, 2, 3):
                for eps in (F(1, 5), F(1, 25), F(1, 7)):
                    c = count_pairs(delahaye5.system, t, m, eps)
                    assert (c.n_strict, c.n_closed) == oracle_counts(5, t, m, eps)

    def test_rank_kernel_matches_dense_scan(self, delahaye5):
        # the rank kernel against the dense Fraction scan, windows past p_t
        for t in (1, 2, 3):
            ivs = level_intervals(delahaye5.system, t)
            for eps in (F(1, 5), F(3, 25), F(2, 5)):
                counts = counts_by_window(delahaye5.system, t, eps, 2 ** t + 2)
                assert dense_counts(ivs, eps, 2 ** t + 2) == \
                    [(c.n_strict, c.n_closed) for c in counts]

    def test_counts_by_window_consistent(self, delahaye5):
        counts = counts_by_window(delahaye5.system, 4, F(1, 5), 3)
        singles = [count_pairs(delahaye5.system, 4, m, F(1, 5)) for m in (1, 2, 3)]
        assert [(c.n_strict, c.n_closed) for c in counts] == \
            [(c.n_strict, c.n_closed) for c in singles]

    def test_windows_past_group_order_saturate(self, delahaye5):
        counts = counts_by_window(delahaye5.system, 1, F(1, 5), 5)
        assert [(c.n_strict, c.n_closed) for c in counts[2:]] == \
            [(counts[1].n_strict, counts[1].n_closed)] * 3

    @pytest.mark.parametrize("t", [-1, 0])
    def test_depth_below_one(self, delahaye5, t):
        # at p_t = 1 the one pair (a, a) is strict but not closed: the
        # enclosure [0, 1] would break its width bound 0
        with pytest.raises(ValueError, match="needs p_t >= 2"):
            counts_by_window(delahaye5.system, t, F(1, 5), 2)

    def test_resource_guard(self, delahaye5, monkeypatch):
        monkeypatch.setenv("RQA_MAX_PAIRS", "15")
        with pytest.raises(ResourceGuardError):
            count_pairs(delahaye5.system, 2, 1, F(1, 5))
        # one guard for every path, still importable from here
        assert ResourceGuardError is rqa.ResourceGuardError

    def test_guard_env_override(self, delahaye5, monkeypatch):
        monkeypatch.setenv("RQA_MAX_PAIRS", "16")
        assert count_pairs(delahaye5.system, 2, 1, F(1, 5)).n_closed == 6

    def test_threads_deterministic(self, delahaye5):
        # the keyword is accepted and has no effect
        assert counts_by_window(delahaye5.system, 6, F(1, 25), 3, threads=3) == \
            counts_by_window(delahaye5.system, 6, F(1, 25), 3)


def random_system(rnd, big=False, scale=None, near=False):
    """Admissible diameter rule with widths drawn lazily per word.  Each
    width at depth d is k/8^d with k in 1..3, so two children never fill
    more than 6/8 of their parent.  With ``big``, each width gets
    8^-d / (2^33 + 2d + last digit) added, coprime denominators that put the
    common scale of every depth from 1 above 2**62.  With ``scale``, a power
    of two from 2^9 up, every width gets 1/scale added, so that depths 1 to
    3 have the common scale ``scale``.  With ``near``, the children nearly
    tile their parent: word w of depth d has width (64 - a_w) / (64 2^d),
    with a_w drawn from a_parent + 1..3 (a = 0 at the root), so each child
    is just under half its parent and the sibling gap is
    (a_0 + a_1 - 2 a_parent) / (64 2^d)."""
    widths, shortfall = {}, {(): 0}

    def deficit(digits):
        if digits not in shortfall:
            shortfall[digits] = deficit(digits[:-1]) + rnd.randint(1, 3)
        return shortfall[digits]

    def rule(w):
        d = len(w)
        if w.digits not in widths and near:
            widths[w.digits] = F(64 - deficit(w.digits), 64 * 2 ** d)
        elif w.digits not in widths:
            extra = (F(1, scale) if scale else
                     F(1, 8 ** d * (2 ** 33 + 2 * d + w.digits[-1])) if big else 0)
            widths[w.digits] = F(rnd.randint(1, 3), 8 ** d) + extra
        return widths[w.digits]
    return AdmissibleSystem(diam_rule=rule)


def nonnesting_rule(rnd, big):
    """Diameter rule with widths on a 1/8 grid, drawn independently of the
    parent's, so that children may overlap or leave their parent; with
    ``big``, each width gets 1/(2^33 + 2d + last digit) added."""
    widths = {}

    def rule(w):
        if w.digits not in widths:
            extra = F(1, 2 ** 33 + 2 * len(w) + w.digits[-1]) if big else 0
            widths[w.digits] = F(rnd.randint(1, 6), 8) + extra
        return widths[w.digits]
    return rule


def draw_system(rnd, kind):
    """A Delahaye system or one of the ``random_system`` families."""
    if kind == "delahaye":
        return build_delahaye(rnd.randint(5, 9)).system
    return random_system(rnd, big=kind == "random big", near=kind == "near tiling")


RANDOM_KINDS = ["random", "random big", "near tiling"]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 8), st.sampled_from(["delahaye"] + RANDOM_KINDS))
def test_depth_endpoints_match_descent(seed, t, kind):
    # the level table against the word-by-word descent, each call on a cold
    # system sharing one diameter rule; the table draws the rule's lazy
    # widths first, level by level
    rnd = random.Random(seed)
    rule = draw_system(rnd, kind).diam_rule
    ivs = level_intervals(AdmissibleSystem(diam_rule=rule), t)
    words = [Word.from_int(j, t) for j in range(2 ** t)]
    assert [(iv.lo, iv.hi) for iv in ivs] == [descent(rule, a) for a in words]
    assert interval_of_word(AdmissibleSystem(diam_rule=rule), words[-1]) == ivs[-1]
    assert max_diam(AdmissibleSystem(diam_rule=rule), t) == max(iv.diam for iv in ivs)
    scale = common_scale([iv.lo for iv in ivs] + [iv.hi for iv in ivs])
    assert (scale > INT64_SCALE_LIMIT) == (kind == "random big" and t > 0)


def test_level_build_calls_rule_once_per_node_in_odometer_order():
    # the lazily drawn random rules depend on this order
    for t in range(9):
        calls = []

        def rule(w):
            calls.append(w)
            return F(1, 3 ** len(w))
        max_diam(AdmissibleSystem(diam_rule=rule), t)
        want = [Word.from_int(j, d) for d in range(1, t + 1) for j in range(2 ** d)]
        assert calls == want
        assert [hash(w) for w in calls] == [hash(w) for w in want]


def test_depth_endpoints_reject_nonpositive_width():
    def rule(w):
        return F(0) if len(w) == 3 and w.digits[-1] == 1 else F(1, 3 ** len(w))
    for build in (lambda s: interval_of_word(s, Word.from_int(0, 4)),
                  lambda s: max_diam(s, 3),
                  lambda s: counts_by_window(s, 3, F(1, 8), 1)):
        with pytest.raises(ValueError, match="diameter rule must be positive"):
            build(AdmissibleSystem(diam_rule=rule))


def overlapping(w):
    # the children of K_0 = [0, 1/3] have widths 1/5 + 1/5 > 1/3
    return F(1, 5) if len(w) == 2 and w.digits[0] == 0 else F(1, 3 ** len(w))


def touching(w):
    # the children of K_1 = [2/3, 1] have widths 1/9 + 2/9 = 1/3
    return F(1 + w.digits[1], 9) if len(w) == 2 and w.digits[0] == 1 else F(1, 3 ** len(w))


def wider(w):
    # K_110 is wider than its parent K_11, of width 1/9
    return F(1, 2) if w.digits == (1, 1, 0) else F(1, 3 ** len(w))


@pytest.mark.parametrize("rule,depth", [(overlapping, 2), (touching, 2), (wider, 3)],
                         ids=["overlapping", "touching", "wider"])
def test_rule_whose_children_do_not_nest_is_rejected(rule, depth):
    # every level above the first that breaks nesting builds; every entry
    # point raises there, naming that depth
    assert max_diam(AdmissibleSystem(diam_rule=rule), depth - 1) == F(1, 3 ** (depth - 1))
    for build in (lambda s: interval_of_word(s, Word.from_int(0, 4)),
                  lambda s: max_diam(s, depth),
                  lambda s: counts_by_window(s, 4, F(1, 8), 2),
                  lambda s: asymptotic_corr_sum(s, 1, F(1, 8), range(1, 5))):
        with pytest.raises(ValueError, match=f"not admissible at depth {depth}:"):
            build(AdmissibleSystem(diam_rule=rule))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 5),
       st.sampled_from([F(1, 8), F(1, 4), F(3, 8), F(1, 2)]), st.integers(1, 3),
       st.booleans())
def test_nonnesting_rule_never_breaks_the_enclosure(seed, t, eps, m, big):
    # a rule drawn without regard to nesting is either rejected or
    # admissible, and then its enclosure keeps its width bound
    s = AdmissibleSystem(diam_rule=nonnesting_rule(random.Random(seed), big))
    try:
        rows = asymptotic_corr_sum(s, m, eps, [t])
    except ValueError as exc:
        assert "not admissible at depth" in str(exc)
    else:
        assert all(c.upper - c.lower <= c.width_bound for c in rows)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 4), st.sampled_from(RANDOM_KINDS))
def test_counts_by_window_matches_dense_oracle(seed, t, kind):
    rnd = random.Random(seed)
    s = draw_system(rnd, kind)
    ivs = level_intervals(s, t)
    p = 2 ** t
    a, b = rnd.choice(ivs), rnd.choice(ivs)
    # ties: eps equal to a gap, a hull or a diameter, each decided exactly
    eps = rnd.choice([interval_dist(a, b), union_diam(a, b), a.diam]) or F(1, 8)
    ends = [iv.lo for iv in ivs] + [iv.hi for iv in ivs] + [eps]
    assert (common_scale(ends) > INT64_SCALE_LIMIT) == (kind == "random big")
    m_max = rnd.randint(1, p + 2)
    want = dense_counts(ivs, eps, m_max)
    # one block per call, and blocks of a single row
    for block_elems in (ranks.BLOCK_ELEMS, 1):
        with mock.patch.object(ranks, "BLOCK_ELEMS", block_elems):
            got = counts_by_window(s, t, eps, m_max)
        assert [(c.m, c.n_strict, c.n_closed) for c in got] == \
            [(m, ns, nc) for m, (ns, nc) in enumerate(want, start=1)]


@pytest.mark.parametrize("scale", EDGE_SCALES)
def test_counts_by_window_at_the_int64_edge(scale):
    # the endpoints of an admissible system lie in [0, 1] with 1 the
    # largest at every depth, so the cuts reach 2^63 at the edge thresholds
    for t in (1, 2, 3):
        s = random_system(random.Random(t), scale=scale)
        ivs = level_intervals(s, t)
        ends = [iv.lo for iv in ivs] + [iv.hi for iv in ivs]
        assert common_scale(ends) == scale
        assert (min(ends), max(ends)) == (0, 1)
        nested = AdmissibleSystem(diam_rule=s.diam_rule, _nests=True)
        for eps in EDGE_EPS:
            want = dense_counts(ivs, eps, 2 ** t + 1)
            for system in (s, nested):
                got = counts_by_window(system, t, eps, 2 ** t + 1)
                assert [(c.n_strict, c.n_closed) for c in got] == want


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 8), st.sampled_from(["delahaye"] + RANDOM_KINDS))
def test_counts_by_window_matches_integer_oracle(seed, t, kind):
    # the walk against the dense integer scan up to depth 8: on Delahaye
    # systems it decides most pairs of subtrees on their bounds, on
    # near-tiling rules some pairs only at depth t
    rnd = random.Random(seed)
    s = draw_system(rnd, kind)
    ivs = level_intervals(s, t)
    a, b = rnd.choice(ivs), rnd.choice(ivs)
    eps = rnd.choice([interval_dist(a, b), union_diam(a, b), a.diam]) or F(1, 8)
    m_max = rnd.randint(1, 2 ** t + 2)
    got = counts_by_window(s, t, eps, m_max)
    assert [(c.m, c.n_strict, c.n_closed) for c in got] == \
        [(m, ns, nc) for m, (ns, nc) in enumerate(integer_dense_counts(ivs, eps, m_max), start=1)]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 7), st.sampled_from(["delahaye"] + RANDOM_KINDS))
def test_enclosure_width_is_the_epsilon_pair_count(seed, t, kind):
    # the paper's configuration identity: the level-t intervals in order form
    # a configuration, and a pair counted strictly but not closed at window m
    # has an eps-pair at one of its m shifts
    rnd = random.Random(seed)
    s = draw_system(rnd, kind)
    ivs = level_intervals(s, t)
    a, b = rnd.choice(ivs), rnd.choice(ivs)
    eps = rnd.choice([interval_dist(a, b), union_diam(a, b), a.diam]) or F(1, 8)
    pairs = len(epsilon_pairs(Configuration(tuple(sorted(ivs, key=lambda iv: iv.lo))), eps))
    rows = counts_by_window(s, t, eps, rnd.randint(1, 2 ** t + 2))
    assert rows[0].n_strict - rows[0].n_closed == pairs
    for c in rows:
        assert c.n_strict - c.n_closed <= c.m * pairs <= 4 * c.m * (c.p_t - 1)


def test_integer_oracle_matches_fraction_oracle(delahaye5):
    rnd = random.Random(3)
    for s, t in [(delahaye5.system, 3), (random_system(rnd), 4),
                 (random_system(rnd, big=True), 3), (random_system(rnd, near=True), 4)]:
        ivs = level_intervals(s, t)
        for eps in (F(1, 5), ivs[1].diam, union_diam(ivs[0], ivs[2])):
            assert integer_dense_counts(ivs, eps, 2 ** t + 1) == dense_counts(ivs, eps, 2 ** t + 1)


def test_count_memory_does_not_grow_with_pairs():
    # on a near-tiling rule many node pairs reach deep levels, and the
    # walk's frontier runs in blocks of ranks.BLOCK_ELEMS
    s = random_system(random.Random(1), near=True)
    max_diam(s, 10)   # the level is built outside the measurement
    tracemalloc.start()
    try:
        counts_by_window(s, 10, F(1, 4), 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def word_counts(s, t, eps, m_max):
    """Oracle: [(N_m, N_m°) for m = 1..m_max] from dist_m_words and
    diam_m_words at window 1 over every word pair, which read each K_a
    from the diameter rule, not from the node bounds: the window-w test of
    (a, b) is the window-1 test at every (a + i, b + i), i < w, and both
    tests are symmetric in a and b."""
    p = 2 ** t
    words = [Word.from_int(j, t) for j in range(p)]
    near, within = np.zeros((2, p, p), dtype=bool)
    for a in range(p):
        for b in range(a, p):
            near[a, b] = near[b, a] = dist_m_words(s, words[a], words[b], 1) < eps
            within[a, b] = within[b, a] = diam_m_words(s, words[a], words[b], 1) <= eps
    out, shift = [], np.arange(p)
    for test in (near, within):
        hit = test.copy()
        out.append([int(hit.sum())])
        for i in range(1, m_max):
            step = (shift + i) % p
            hit &= test[np.ix_(step, step)]
            out[-1].append(int(hit.sum()))
    return list(zip(*out))


@settings(max_examples=15, deadline=None)
@given(st.integers(5, 9), st.integers(1, 11), st.integers(1, 4), st.integers(1, 3),
       st.sampled_from([F(1, 2), F(7, 10), F(1), F(3, 2), F(2), None]))
def test_delahaye_counts_without_level_t_match_level_t(r, t, m, k, x):
    # eps = x r^-k, or (x None) half the narrowest depth-t width r^-t, so
    # that every leaf is wider than eps and the walk reaches depth t
    eps = F(1, 2 * r ** t) if x is None else x / r ** k
    s = build_delahaye(r).system
    cold = counts_by_window(s, t, eps, m)
    # build_delahaye builds levels 0-5 and the count none: below depth 5
    # it reads node paths and extreme leaves; without any built level, so
    # does a bare system with the same rule
    assert len(s._levels) == 6
    bare = AdmissibleSystem(diam_rule=s.diam_rule, _nests=True)
    assert counts_by_window(bare, t, eps, m) == cold
    assert len(bare._levels) == 1
    _level(s, t)
    assert counts_by_window(s, t, eps, m) == cold
    if t <= 6:
        assert [(c.n_strict, c.n_closed) for c in cold] == word_counts(bare, t, eps, m)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 8), st.sampled_from(RANDOM_KINDS))
def test_nesting_random_systems_count_alike_without_level_t(seed, t, kind):
    # every random_system family nests, so with _nests its counts read
    # node paths and extreme leaves, and equal those of level t; the two
    # systems share the rule, whose lazily drawn widths are drawn once
    rnd = random.Random(seed)
    rule = draw_system(rnd, kind).diam_rule
    nested, table = AdmissibleSystem(diam_rule=rule, _nests=True), AdmissibleSystem(diam_rule=rule)
    d = rnd.randint(0, t)
    got, want = (node_bounds(x, t, d, range(2 ** d)) for x in (nested, table))
    assert [[F(int(v), got.scale) for v in row] for row in got[:4]] == \
        [[F(int(v), want.scale) for v in row] for row in want[:4]]
    ivs = level_intervals(table, t)
    a, b = rnd.choice(ivs), rnd.choice(ivs)
    eps = rnd.choice([interval_dist(a, b), union_diam(a, b), a.diam]) or F(1, 8)
    m_max = rnd.randint(1, 4)
    assert counts_by_window(nested, t, eps, m_max) == counts_by_window(table, t, eps, m_max)
    assert len(nested._levels) == 1


def test_cold_delahaye_count_builds_no_deep_level():
    # at r = 5, k = 1 the walk decides every pair within levels 0-5, so a
    # cold depth-10 count calls the rule only for the extreme leaves of the
    # nodes it touches (8 of them); level 10 alone would take 2^10 calls,
    # and levels 6-10 take 1984
    calls = []
    s = build_delahaye(5).system
    rule = s.diam_rule
    counting = dataclasses.replace(s, diam_rule=lambda w: calls.append(w) or rule(w))
    max_diam(counting, 5)   # the levels build_delahaye builds
    calls.clear()
    for system in (s, counting):
        counts = counts_by_window(system, 10, F(1, 5), 2)
        assert (counts[0].n_closed, counts[1].n_closed) == delahaye_counts_formula(1, 2, 10)
        assert len(system._levels) == 6
    assert 0 < len(calls) < 2 ** 10


def test_node_bounds_read_the_extreme_leaves(delahaye5):
    # node u at depth d of a depth-t count spans its leaves u (then zeros)
    # and u + 2^t - 2^d (then ones)
    s = delahaye5.system
    t, d = 7, 3
    b = node_bounds(s, t, d, [[0, 5], [7, 2]])
    assert b.lo.shape == (2, 2)
    for u, lo, hi_left, lo_right, hi in zip([0, 5, 7, 2], *(x.ravel().tolist() for x in b[:4])):
        left = interval_of_word(s, Word(Word.from_int(u, d).digits + (0,) * (t - d)))
        right = interval_of_word(s, Word(Word.from_int(u, d).digits + (1,) * (t - d)))
        node = interval_of_word(s, Word.from_int(u, d))
        assert (F(lo, b.scale), F(hi_left, b.scale)) == (left.lo, left.hi) == (node.lo, left.hi)
        assert (F(lo_right, b.scale), F(hi, b.scale)) == (right.lo, right.hi) == (right.lo, node.hi)
    for nodes in ([8], [-1]):
        with pytest.raises(ValueError, match="outside 0..7"):
            node_bounds(s, t, d, nodes)
    with pytest.raises(ValueError, match="node depth 8 outside 0..7"):
        node_bounds(s, t, 8, [0])


class TestEnclosure:
    def test_values_constant_in_depth(self, delahaye5):
        enc = asymptotic_corr_sum(delahaye5.system, 1, F(1, 5), range(2, 8))
        assert {e.lower for e in enc} == {F(3, 8)}
        enc = asymptotic_corr_sum(delahaye5.system, 2, F(1, 5), range(2, 8))
        assert {e.lower for e in enc} == {F(1, 4)}

    def test_width_within_bound_and_vanishing(self, delahaye5):
        for m in (1, 2, 3):
            enc = asymptotic_corr_sum(delahaye5.system, m, F(1, 5), range(2, 9))
            for e in enc:
                assert e.upper - e.lower <= e.width_bound
            assert enc[-1].width_bound < enc[0].width_bound

    def test_depth_zero_rejected(self, delahaye5):
        with pytest.raises(ValueError, match="needs p_t >= 2"):
            asymptotic_corr_sum(delahaye5.system, 1, F(1, 5), [0])

    def test_strict_contains_closed(self, delahaye5):
        # nondegenerate intervals force dist < diam, so N_m° is inside N_m
        for t in (2, 3, 4):
            c = count_pairs(delahaye5.system, t, 2, F(1, 5))
            assert c.n_closed <= c.n_strict


class TestSymbolicTrajectories:
    def test_odometer_orbit(self):
        words = symbolic_trajectory(W("00"), 4)
        assert [str(w) for w in words] == ["00", "10", "01", "11"]

    def test_full_cycle_visits_everything(self):
        t = 4
        words = symbolic_trajectory(W("0" * t), 2 ** t)
        assert len({w.digits for w in words}) == 2 ** t

    def test_depth_consistency(self, delahaye5):
        # the depth-t projection of a depth-(t+1) itinerary is the depth-t one
        s = delahaye5.system
        shallow = symbolic_trajectory(W("000"), 20)
        deep = symbolic_trajectory(W("0000"), 20)
        for w3, w4 in zip(shallow, deep):
            assert w4.digits[:3] == w3.digits
            inner = interval_of_word(s, w4)
            outer = interval_of_word(s, w3)
            assert outer.lo <= inner.lo and inner.hi <= outer.hi

    def test_sandwich(self, delahaye5):
        # finite-n correlation sums of the midpoint itinerary respect the
        # count enclosure up to 2/p_t slack
        t, p = 3, 8
        eps = F(1, 5)
        for m in (1, 2):
            n = 8 * p
            pts = midpoint_trajectory(delahaye5.system, W("0" * t), n + m - 1)
            c = correlation_sum(pts, RQAParams(m, eps, n))
            counts = count_pairs(delahaye5.system, t, m, eps)
            assert counts.lower - F(2, p) <= c <= counts.upper + F(2, p)

    def test_midpoint_inside_interval(self, delahaye5):
        # step i is the midpoint of K_{prefix + i}, wrapping past p_t = 16
        s, prefix = delahaye5.system, W("0110")
        for i, x in enumerate(midpoint_trajectory(s, prefix, 20)):
            iv = interval_of_word(s, word_add(prefix, i))
            assert x == (iv.lo + iv.hi) / 2 and iv.lo < x < iv.hi
        with pytest.raises(ValueError, match="need n >= 1"):
            midpoint_trajectory(s, prefix, 0)


def test_counts_csv(tmp_path, delahaye5):
    rows = [count_pairs(delahaye5.system, t, 2, F(1, 5)) for t in (2, 3)]
    out = tmp_path / "counts.csv"
    write_counts_csv(rows, out)
    assert out.read_text() == (
        "t,p_t,m,epsilon_num,epsilon_den,N_strict,N_closed,lower,upper\n"
        "2,4,2,1,5,4,4,1/4,1/4\n"
        "3,8,2,1,5,16,16,1/4,1/4\n")
