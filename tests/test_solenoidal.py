import csv
import dataclasses
import itertools
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
from rqamaps.solenoidal import (AdmissibleSystem, ResourceGuardError, Word,
                                asymptotic_corr_sum, counts_by_window, max_diam,
                                midpoint_trajectory, node_bounds, write_counts_csv)

from conftest import EDGE_EPS, EDGE_SCALES, INT64_SCALE_LIMIT
from package_oracles import descent, diam_m_words, dist_m_words, odometer_step

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


def descent_intervals(rule, t):
    """The depth-t intervals of ``rule``, indexed by odometer value, each
    from the word-by-word descent, with no node table."""
    return [CompactInterval(*descent(rule, Word.from_int(j, t))) for j in range(2 ** t)]


def assert_table_matches_descent(s, t, d):
    """Every node of the depth-d table of a depth-t count against the
    descent from the rule: K_u, its leftmost leaf (u, then zeros) and its
    rightmost leaf (u, then ones)."""
    b = node_bounds(s, t, d, range(2 ** d))
    for u, row in enumerate(zip(*(x.tolist() for x in b[:4]))):
        digits = Word.from_int(u, d).digits
        (lo, hi), left, right = (descent(s.diam_rule, Word(digits + tail))
                                 for tail in ((), (0,) * (t - d), (1,) * (t - d)))
        assert [F(v, b.scale) for v in row] == [lo, left[1], right[0], hi]


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
    def test_unit_word(self):
        # the word 1 0^{t-1} acts as the integer 1
        assert Word.from_int(1, 3) == W("100")
        assert W("100").to_int() == 1

    def test_digit_validation(self):
        with pytest.raises(ValueError):
            Word((2,))

    @pytest.mark.parametrize("value", [4, 5, -1])
    def test_from_int_rejects_values_outside_group(self, value):
        # no silent wrap: 5 is not the word 10, nor -1 the word 11
        with pytest.raises(ValueError, match="outside 0..3"):
            Word.from_int(value, 2)


class TestIntervals:
    def test_top_level(self, delahaye5):
        s = delahaye5.system
        assert level_intervals(s, 1) == level_intervals(s, 1)
        k0, k1 = level_intervals(s, 1)
        assert (k0.lo, k0.hi) == descent(s.diam_rule, W("0")) == (0, F(1, 5))
        assert (k1.lo, k1.hi) == descent(s.diam_rule, W("1")) == (F(3, 5), 1)

    def test_right_child_keeps_hi(self, delahaye5):
        s = delahaye5.system
        k01 = level_intervals(s, 2)[W("01").to_int()]
        assert (k01.lo, k01.hi) == descent(s.diam_rule, W("01")) == (F(4, 25), F(1, 5))

    def test_matches_oracle(self, delahaye5):
        s = delahaye5.system
        for t in range(1, 6):
            assert [(iv.lo, iv.hi) for iv in level_intervals(s, t)] == oracle_intervals(5, t)

    def test_nesting_and_sibling_order(self, delahaye5):
        # word a of depth t has children a0 (value j) and a1 (value j + 2^t)
        s = delahaye5.system
        for t in range(1, 6):
            parents, children = level_intervals(s, t), level_intervals(s, t + 1)
            assert [(iv.lo, iv.hi) for iv in parents] == \
                [(iv.lo, iv.hi) for iv in descent_intervals(s.diam_rule, t)]
            for j, parent in enumerate(parents):
                left, right = children[j], children[j + 2 ** t]
                assert parent.lo == left.lo and parent.hi == right.hi
                assert left.hi < right.lo
                assert left.lo >= parent.lo and right.hi <= parent.hi

    def test_depth_cap(self, delahaye5):
        with pytest.raises(ValueError, match="depth 99 outside"):
            node_bounds(delahaye5.system, 99, 99, [0])

    def test_depth_zero_is_the_unit_interval(self, delahaye5):
        s = delahaye5.system
        [iv] = level_intervals(s, 0)
        assert (iv.lo, iv.hi) == descent(s.diam_rule, Word(())) == (0, 1)
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
                dist_m_words(s, odometer_step(a, 1), odometer_step(b, 1), 8)
            assert diam_m_words(s, a, b, 8) == \
                diam_m_words(s, odometer_step(a, 1), odometer_step(b, 1), 8)


class TestCounts:
    @pytest.mark.parametrize("t,m,expected_closed", [(2, 1, 6), (2, 2, 4), (3, 1, 24)])
    def test_known_counts(self, delahaye5, t, m, expected_closed):
        c = counts_by_window(delahaye5.system, t, F(1, 5), m)[m - 1]
        assert (c.m, c.n_closed) == (m, expected_closed)

    def test_matches_oracle(self, delahaye5):
        for t in (1, 2, 3, 4):
            for eps in (F(1, 5), F(1, 25), F(1, 7)):
                counts = counts_by_window(delahaye5.system, t, eps, 3)
                assert [(c.n_strict, c.n_closed) for c in counts] == \
                    [oracle_counts(5, t, m, eps) for m in (1, 2, 3)]

    def test_rank_kernel_matches_dense_scan(self, delahaye5):
        # the rank kernel against the dense Fraction scan, windows past p_t
        for t in (1, 2, 3):
            ivs = level_intervals(delahaye5.system, t)
            for eps in (F(1, 5), F(3, 25), F(2, 5)):
                counts = counts_by_window(delahaye5.system, t, eps, 2 ** t + 2)
                assert dense_counts(ivs, eps, 2 ** t + 2) == \
                    [(c.n_strict, c.n_closed) for c in counts]

    def test_counts_by_window_consistent(self, delahaye5):
        # a walk to window m gives the first m rows of a walk to window 3
        counts = counts_by_window(delahaye5.system, 4, F(1, 5), 3)
        for m in (1, 2, 3):
            assert counts_by_window(delahaye5.system, 4, F(1, 5), m) == counts[:m]
        assert [(c.n_strict, c.n_closed) for c in counts] == \
            [oracle_counts(5, 4, m, F(1, 5)) for m in (1, 2, 3)]

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
            counts_by_window(delahaye5.system, 2, F(1, 5), 1)
        # one guard for every path, still importable from here
        assert ResourceGuardError is rqa.ResourceGuardError

    def test_depth_cap(self, monkeypatch):
        # past the depth cap a count raises as every other entry does, once
        # the guard admits its p_t^2 pairs; the guard still runs first
        monkeypatch.setenv("RQA_MAX_PAIRS", str(4 ** 20))
        s = build_delahaye(5).system
        for read in (lambda: counts_by_window(s, 20, F(1, 5), 2), lambda: max_diam(s, 20),
                     lambda: node_bounds(s, 20, 0, [0]),
                     lambda: midpoint_trajectory(s, Word((0,) * 20), 1)):
            with pytest.raises(ValueError, match=r"depth 20 outside 0\.\.13 \(the depth cap\)"):
                read()
        monkeypatch.setenv("RQA_MAX_PAIRS", str(4 ** 19))
        with pytest.raises(ResourceGuardError):
            counts_by_window(s, 20, F(1, 5), 2)

    def test_guard_env_override(self, delahaye5, monkeypatch):
        monkeypatch.setenv("RQA_MAX_PAIRS", "16")
        assert counts_by_window(delahaye5.system, 2, F(1, 5), 1)[0].n_closed == 6

    @pytest.mark.parametrize("t", [31, 32, 33, 40])
    def test_counts_stay_exact_past_int64(self, monkeypatch, t):
        # 4^t passes 2^63 at t = 32: the walk's tallies are Python ints
        monkeypatch.setenv("RQA_MAX_PAIRS", str(4 ** 40))
        inst = build_delahaye(5, depth_cap=40)
        for k in (1, 2, 3):
            for m in (2, 3, 4):
                counts = counts_by_window(inst.system, t, inst.epsilon_k(k), m)
                assert (counts[0].n_closed, counts[-1].n_closed) == \
                    delahaye_counts_formula(k, m, t)

    def test_infinite_epsilon_passes_every_pair(self, delahaye5):
        s = delahaye5.system
        for t in (1, 3, 6):
            every = 4 ** t
            counts = counts_by_window(s, t, math.inf, 2 ** t + 2)
            assert {(c.n_strict, c.n_closed) for c in counts} == {(every, every)}
            assert {c.lower for c in counts} == {c.upper for c in counts} == {1}
        assert [c.lower for c in asymptotic_corr_sum(s, 3, math.inf, [2, 4])] == [1, 1]
        # a system without _nests builds and checks every table first, to
        # the same count
        plain = AdmissibleSystem(diam_rule=s.diam_rule)
        assert counts_by_window(plain, 4, math.inf, 3)[2].n_closed == 4 ** 4

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

    def rule(digits):
        d = len(digits)
        if digits not in widths and near:
            widths[digits] = F(64 - deficit(digits), 64 * 2 ** d)
        elif digits not in widths:
            extra = (F(1, scale) if scale else
                     F(1, 8 ** d * (2 ** 33 + 2 * d + digits[-1])) if big else 0)
            widths[digits] = F(rnd.randint(1, 3), 8 ** d) + extra
        return widths[digits]
    return AdmissibleSystem(diam_rule=rule)


def nonnesting_rule(rnd, big):
    """Diameter rule with widths on a 1/8 grid, drawn independently of the
    parent's, so that children may overlap or leave their parent; with
    ``big``, each width gets 1/(2^33 + 2d + last digit) added."""
    widths = {}

    def rule(digits):
        if digits not in widths:
            extra = F(1, 2 ** 33 + 2 * len(digits) + digits[-1]) if big else 0
            widths[digits] = F(rnd.randint(1, 6), 8) + extra
        return widths[digits]
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
    # the node table of depth t against the word-by-word descent, each call
    # on a cold system sharing one diameter rule; the tables draw the rule's
    # lazy widths first, depth by depth
    rnd = random.Random(seed)
    rule = draw_system(rnd, kind).diam_rule
    ivs = level_intervals(AdmissibleSystem(diam_rule=rule), t)
    words = [Word.from_int(j, t) for j in range(2 ** t)]
    assert [(iv.lo, iv.hi) for iv in ivs] == [descent(rule, a) for a in words]
    # a system that nests reads its depth-t node from the tables it builds
    j = rnd.randrange(2 ** t)
    b = node_bounds(AdmissibleSystem(diam_rule=rule, _nests=True), t, t, [j])
    assert (F(int(b.lo[0]), b.scale), F(int(b.hi[0]), b.scale)) == descent(rule, words[j])
    assert max_diam(AdmissibleSystem(diam_rule=rule), t) == max(iv.diam for iv in ivs)
    scale = common_scale([iv.lo for iv in ivs] + [iv.hi for iv in ivs])
    assert (scale > INT64_SCALE_LIMIT) == (kind == "random big" and t > 0)


def test_level_build_calls_rule_once_per_node_in_odometer_order():
    # the lazily drawn random rules depend on this order: the gate on a
    # system without _nests builds the tables of depths 0..t, the root's
    # two extreme leaves first, then per depth d < t every node in
    # odometer order and the new extreme leaf of each, u then ones below
    # a 0-child and u then zeros below a 1-child; every word of depths
    # 1..t is called once
    for t in range(9):
        calls = []

        def rule(digits):
            calls.append(digits)
            return F(1, 3 ** len(digits))
        node_bounds(AdmissibleSystem(diam_rule=rule), t, 0, [0])
        want = [(x,) * t for x in (0, 1)] if t else []
        for d in range(1, t):
            nodes = [Word.from_int(j, d).digits for j in range(2 ** d)]
            want += nodes + [u + (1 - u[-1],) * (t - d) for u in nodes]
        assert calls == want
        assert [hash(w) for w in calls] == [hash(w) for w in want]
        assert {type(w) for w in calls} <= {tuple}
        assert sorted((len(w), Word(w).to_int()) for w in calls) == \
            [(d, j) for d in range(1, t + 1) for j in range(2 ** d)]


def test_depth_endpoints_reject_nonpositive_width():
    def rule(digits):
        return F(0) if len(digits) == 3 and digits[-1] == 1 else F(1, 3 ** len(digits))
    for build in (lambda s: node_bounds(s, 4, 4, [0]),
                  lambda s: max_diam(s, 3),
                  lambda s: counts_by_window(s, 3, F(1, 8), 1)):
        with pytest.raises(ValueError, match="diameter rule must be positive"):
            build(AdmissibleSystem(diam_rule=rule))


def overlapping(digits):
    # the children of K_0 = [0, 1/3] have widths 1/5 + 1/5 > 1/3
    return F(1, 5) if len(digits) == 2 and digits[0] == 0 else F(1, 3 ** len(digits))


def touching(digits):
    # the children of K_1 = [2/3, 1] have widths 1/9 + 2/9 = 1/3
    return F(1 + digits[1], 9) if len(digits) == 2 and digits[0] == 1 else F(1, 3 ** len(digits))


def wider(digits):
    # K_110 is wider than its parent K_11, of width 1/9
    return F(1, 2) if digits == (1, 1, 0) else F(1, 3 ** len(digits))


@pytest.mark.parametrize("rule,depth", [(overlapping, 2), (touching, 2), (wider, 3)],
                         ids=["overlapping", "touching", "wider"])
def test_rule_whose_children_do_not_nest_is_rejected(rule, depth):
    # every depth above the first that breaks nesting builds; every entry
    # point raises there, naming that depth
    assert max_diam(AdmissibleSystem(diam_rule=rule), depth - 1) == F(1, 3 ** (depth - 1))
    for build in (lambda s: node_bounds(s, 4, 4, [0]),
                  lambda s: max_diam(s, depth),
                  lambda s: counts_by_window(s, 4, F(1, 8), 2),
                  lambda s: asymptotic_corr_sum(s, 1, F(1, 8), range(1, 5))):
        with pytest.raises(ValueError, match=f"not admissible at depth {depth}:"):
            build(AdmissibleSystem(diam_rule=rule))
    # a wrong _nests certificate spares the tables of depths an entry does
    # not read, not the check of those it reads
    for build in (lambda s: counts_by_window(s, 4, F(1, 100), 2),
                  lambda s: node_bounds(s, 4, depth, range(2 ** depth))):
        with pytest.raises(ValueError, match=f"not admissible at depth {depth}:"):
            build(AdmissibleSystem(diam_rule=rule, _nests=True))
    shallow = AdmissibleSystem(diam_rule=rule, _nests=True)
    assert node_bounds(shallow, 4, depth - 1, [0]).lo.tolist() == [0]


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
    max_diam(s, 10)   # the gate builds the node tables outside the measurement
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
    # the count reads the node tables of the depths it walks alone, and so
    # does a bare system with the same rule: every table it read is the
    # descent from the rule
    bare = AdmissibleSystem(diam_rule=s.diam_rule, _nests=True)
    assert counts_by_window(bare, t, eps, m) == cold
    for key in bare._nodes:
        assert_table_matches_descent(bare, *key)
    if t <= 6:
        assert [(c.n_strict, c.n_closed) for c in cold] == word_counts(bare, t, eps, m)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 8), st.sampled_from(RANDOM_KINDS))
def test_nesting_random_systems_count_alike_without_level_t(seed, t, kind):
    # every random_system family nests, so with _nests its counts read the
    # tables of the depths they walk alone, and equal the dense counts over
    # the descent from the rule; its twin without _nests builds every table
    # first, to the same counts.  The systems and the descent share the
    # rule, whose lazily drawn widths are drawn once
    rnd = random.Random(seed)
    rule = draw_system(rnd, kind).diam_rule
    nested, table = AdmissibleSystem(diam_rule=rule, _nests=True), AdmissibleSystem(diam_rule=rule)
    assert_table_matches_descent(nested, t, rnd.randint(0, t))
    ivs = descent_intervals(rule, t)
    a, b = rnd.choice(ivs), rnd.choice(ivs)
    eps = rnd.choice([interval_dist(a, b), union_diam(a, b), a.diam]) or F(1, 8)
    m_max = rnd.randint(1, 4)
    got = counts_by_window(nested, t, eps, m_max)
    assert [(c.n_strict, c.n_closed) for c in got] == integer_dense_counts(ivs, eps, m_max)
    assert counts_by_window(table, t, eps, m_max) == got
    assert set(table._nodes) == {(t, d) for d in range(t + 1)}


def test_cold_delahaye_count_builds_no_deep_level():
    # at r = 5, k = 1 the walk decides every pair by depth 2, so a cold
    # depth-10 count calls the rule for the nodes of depths 1-2 and for
    # their extreme leaves, 2 + 4 + 8 calls; level 10 alone would take
    # 2^10 calls, and levels 1-10 take 2046
    calls = []
    s = build_delahaye(5).system
    rule = s.diam_rule
    counting = dataclasses.replace(s, diam_rule=lambda w: calls.append(w) or rule(w))
    for system in (s, counting):
        counts = counts_by_window(system, 10, F(1, 5), 2)
        assert (counts[0].n_closed, counts[1].n_closed) == delahaye_counts_formula(1, 2, 10)
        # beside the depth-5 tables of build_delahaye's check, the count
        # keeps the tables of depths 0-2 alone
        assert sorted(key for key in system._nodes if key[0] == 10) == [(10, d) for d in range(3)]
    assert len(calls) == 2 + 4 + 8
    assert set(counting._nodes) == {(10, d) for d in range(3)}
    # the tables it read against the descent from the rule
    for d in range(3):
        assert_table_matches_descent(s, 10, d)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 10), st.sampled_from(["delahaye"] + RANDOM_KINDS))
def test_max_diam_without_level_t_matches_level_t(seed, t, kind):
    # a system that nests reads the 2^t depth-t widths alone, with no node
    # table; the descent from the rule, which shares its lazily drawn
    # widths, gives every depth-t interval
    rnd = random.Random(seed)
    rule = draw_system(rnd, kind).diam_rule
    calls = []
    nested = AdmissibleSystem(diam_rule=lambda w: calls.append(w) or rule(w), _nests=True)
    got = max_diam(nested, t)
    assert sorted(Word(w).to_int() for w in calls) == list(range(2 ** t))
    assert nested._nodes == {}
    ivs = descent_intervals(rule, t)
    assert got == max(iv.diam for iv in ivs)
    ends = [iv.lo for iv in ivs] + [iv.hi for iv in ivs]
    assert (common_scale(ends) > INT64_SCALE_LIMIT) == (kind == "random big")
    assert max_diam(nested, 0) == 1
    for depth in (-1, nested.depth_cap + 1):
        with pytest.raises(ValueError, match="outside 0.."):
            max_diam(nested, depth)
    assert len(calls) == 2 ** t


def test_max_diam_without_level_t_rejects_nonpositive_width():
    def rule(digits):
        return F(0) if digits == (1, 0, 1) else F(1, 3 ** len(digits))
    assert max_diam(AdmissibleSystem(diam_rule=rule, _nests=True), 2) == F(1, 9)
    with pytest.raises(ValueError, match="diameter rule must be positive, got 0"):
        max_diam(AdmissibleSystem(diam_rule=rule, _nests=True), 3)


def count_table_calls(t, depth):
    """Rule calls of the node bounds of depths 0..depth of a cold depth-t
    count on a system that nests: the root's two extreme leaves, then per
    depth d < t a width and a new extreme leaf for each of the 2^d nodes,
    and none at depth t, whose nodes are the leaves of depth t - 1."""
    return 2 * (t > 0) + sum(2 ** (d + 1) for d in range(1, min(depth, t - 1) + 1))


@pytest.mark.parametrize("r", [5, 6, 7])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_symbolic_job_rule_calls_stay_within_budget(r, k):
    # the Delahaye part of the symbolic benchmark job on a cold system: at
    # eps_k = r^-k the walk decides every node pair by depth k + 1, so
    # after max_diam's 2^10 widths each count reads the node bounds of
    # depths 0..k + 1 at most; levels 6-10 alone took 1984 calls
    inst = build_delahaye(r)
    calls = []
    rule = inst.system.diam_rule
    s = dataclasses.replace(inst.system, diam_rule=lambda w: calls.append(w) or rule(w))
    eps = inst.epsilon_k(k)
    assert max_diam(s, 10) == F(2, r ** 10)
    assert len(calls) == 2 ** 10
    counts = counts_by_window(s, 10, eps, 4)
    rows = asymptotic_corr_sum(s, 3, eps, (4, 6, 8))
    assert (counts[0].n_closed, counts[2].n_closed) == delahaye_counts_formula(k, 3, 10)
    assert [c.n_closed for c in rows] == [delahaye_counts_formula(k, 3, t)[1] for t in (4, 6, 8)]
    budget = 2 ** 10 + sum(count_table_calls(t, k + 1) for t in (10, 4, 6, 8))
    assert len(calls) <= budget < 2 ** 10 + 1984
    assert {d for _, d in s._nodes} <= set(range(k + 2))
    # every call reads a word's digit tuple, of 0/1 ints: max_diam's are the
    # 2^10 words of depth 10, and a count's are the nodes of the depths it
    # walks and the extreme leaves at its depth t
    assert {type(w) for w in calls} == {tuple}
    assert {type(x) for w in calls for x in w} == {int}
    assert {x for w in calls for x in w} == {0, 1}
    assert sorted(calls[:2 ** 10]) == sorted(itertools.product((0, 1), repeat=10))
    assert {len(w) for w in calls[2 ** 10:]} <= set(range(1, k + 2)) | {10, 4, 6, 8}


def test_count_table_calls_match_a_level_build_at_full_depth():
    # the node bounds of every depth of a depth-t count cost what building
    # levels 1..t node by node costs, 2^(t+1) - 2 rule calls, and give the
    # depth-t intervals of the descent at depth t; the gate of a system
    # without _nests builds them all with that many calls
    for t in range(6):
        calls = []

        def rule(digits):
            calls.append(digits)
            return F(1, 3 ** len(digits))
        b = node_bounds(AdmissibleSystem(diam_rule=rule, _nests=True), t, t, range(2 ** t))
        assert len(calls) == count_table_calls(t, t) == 2 ** (t + 1) - 2
        assert [(F(lo, b.scale), F(hi, b.scale)) for lo, hi in zip(b.lo.tolist(), b.hi.tolist())] \
            == [(iv.lo, iv.hi) for iv in descent_intervals(rule, t)]
        calls.clear()
        node_bounds(AdmissibleSystem(diam_rule=rule), t, 0, [0])
        assert len(calls) == 2 ** (t + 1) - 2


def test_node_bounds_read_the_extreme_leaves(delahaye5):
    # node u at depth d of a depth-t count spans its leaves u (then zeros)
    # and u + 2^t - 2^d (then ones)
    s = delahaye5.system
    t, d = 7, 3
    b = node_bounds(s, t, d, [[0, 5], [7, 2]])
    assert b.lo.shape == (2, 2)
    for u, lo, hi_left, lo_right, hi in zip([0, 5, 7, 2], *(x.ravel().tolist() for x in b[:4])):
        digits = Word.from_int(u, d).digits
        left, right = (descent(s.diam_rule, Word(digits + (x,) * (t - d))) for x in (0, 1))
        node = descent(s.diam_rule, Word(digits))
        assert (F(lo, b.scale), F(hi_left, b.scale)) == left == (node[0], left[1])
        assert (F(lo_right, b.scale), F(hi, b.scale)) == right == (right[0], node[1])
    for nodes in ([8], [-1]):
        with pytest.raises(ValueError, match="outside 0..7"):
            node_bounds(s, t, d, nodes)
    with pytest.raises(ValueError, match="node depth 8 outside 0..7"):
        node_bounds(s, t, 8, [0])
    # no silent cast: node 1.7 is not node 1
    for nodes in ([1.7], [1.0], np.array([0, 1], dtype=bool)):
        with pytest.raises(ValueError, match="nodes must be integers"):
            node_bounds(s, t, d, nodes)
    assert node_bounds(s, t, d, []).lo.shape == (0,)
    assert node_bounds(s, t, d, np.array([5], dtype=np.uint8)).lo.tolist() == [b.lo[0, 1]]


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

    @pytest.mark.parametrize("schedule", [[], [0], [2, 3]])
    @pytest.mark.parametrize("m,eps,message", [
        (1, math.nan, "epsilon must be positive"), (1, -1, "epsilon must be positive"),
        (1, 0, "epsilon must be positive"), (0, F(1, 5), "m_max must be >= 1"),
        (0, -1, "epsilon must be positive")])
    def test_threshold_and_window_checked_before_any_depth(self, delahaye5, schedule,
                                                           m, eps, message):
        # with the messages of counts_by_window, an empty schedule included
        with pytest.raises(ValueError, match=message):
            asymptotic_corr_sum(delahaye5.system, m, eps, schedule)
        if schedule[:1] == [2]:
            with pytest.raises(ValueError, match=message):
                counts_by_window(delahaye5.system, 2, eps, m)

    def test_strict_contains_closed(self, delahaye5):
        # nondegenerate intervals force dist < diam, so N_m° is inside N_m
        for t in (2, 3, 4):
            c = counts_by_window(delahaye5.system, t, F(1, 5), 2)[1]
            assert (c.n_strict, c.n_closed) == oracle_counts(5, t, 2, F(1, 5))
            assert c.n_closed <= c.n_strict


class TestSymbolicTrajectories:
    def test_depth_consistency(self, delahaye5):
        # the depth-t projection of a depth-(t+1) itinerary is the depth-t one
        s = delahaye5.system
        shallow = [odometer_step(W("000"), i) for i in range(20)]
        deep = [odometer_step(W("0000"), i) for i in range(20)]
        level3, level4 = level_intervals(s, 3), level_intervals(s, 4)
        for w3, w4 in zip(shallow, deep):
            assert w4.digits[:3] == w3.digits
            outer, inner = level3[w3.to_int()], level4[w4.to_int()]
            assert (outer.lo, outer.hi) == descent(s.diam_rule, w3)
            assert (inner.lo, inner.hi) == descent(s.diam_rule, w4)
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
            counts = counts_by_window(delahaye5.system, t, eps, m)[m - 1]
            assert (counts.n_strict, counts.n_closed) == oracle_counts(5, t, m, eps)
            assert counts.lower - F(2, p) <= c <= counts.upper + F(2, p)

    def test_midpoint_inside_interval(self, delahaye5):
        # step i is the midpoint of K_{prefix + i}, wrapping past p_t = 16
        s, prefix = delahaye5.system, W("0110")
        for i, x in enumerate(midpoint_trajectory(s, prefix, 20)):
            lo, hi = descent(s.diam_rule, odometer_step(prefix, i))
            assert x == (lo + hi) / 2 and lo < x < hi
        with pytest.raises(ValueError, match="need n >= 1"):
            midpoint_trajectory(s, prefix, 0)


def test_counts_csv_writes_an_infinite_threshold(tmp_path):
    rows = counts_by_window(build_delahaye(5).system, 3, math.inf, 2)
    out = tmp_path / "counts.csv"
    write_counts_csv(rows, out)
    with open(out, newline="") as fh:
        read = list(csv.DictReader(fh))
    assert [dict(row) for row in read] == [
        {"t": "3", "p_t": "8", "m": str(m), "epsilon_num": "inf", "epsilon_den": "1",
         "N_strict": "64", "N_closed": "64", "lower": "1", "upper": "1"} for m in (1, 2)]
    assert {float(row["epsilon_num"]) / int(row["epsilon_den"]) for row in read} == {math.inf}


def test_counts_csv(tmp_path, delahaye5):
    rows = [counts_by_window(delahaye5.system, t, F(1, 5), 2)[1] for t in (2, 3)]
    out = tmp_path / "counts.csv"
    write_counts_csv(rows, out)
    assert out.read_text() == (
        "t,p_t,m,epsilon_num,epsilon_den,N_strict,N_closed,lower,upper\n"
        "2,4,2,1,5,4,4,1/4,1/4\n"
        "3,8,2,1,5,16,16,1/4,1/4\n")
