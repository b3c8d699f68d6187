from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from rqamaps import constructions
from rqamaps.constructions import (_cell, _check_delahaye_gaps, build_delahaye,
                                   build_prop42, delahaye_counts, delahaye_counts_formula,
                                   delahaye_det, delahaye_rdet, index_level,
                                   prop42_C1, prop42_c1_closed_form,
                                   prop42_numeric_map, prop42_pair_count,
                                   prop42_positions, prop42_report,
                                   prop42_schedule_n, write_c1_csv)
from rqamaps.dynamics import evaluate, iterate
from rqamaps.intervals import CompactInterval, interval_dist, union_diam
from rqamaps.solenoidal import Word, node_bounds

from package_oracles import descent, prop42_population_count, prop42_recurrence_rule


def word_intervals(s, *texts):
    """K of each word, all of one length t, read by one node_bounds call at
    depth t and checked against the descent from the diameter rule."""
    words = [Word.parse(text) for text in texts]
    t = len(words[0])
    b = node_bounds(s, t, t, [w.to_int() for w in words])
    ivs = [CompactInterval(F(lo, b.scale), F(hi, b.scale))
           for lo, hi in zip(b.lo.tolist(), b.hi.tolist())]
    assert [(iv.lo, iv.hi) for iv in ivs] == [descent(s.diam_rule, w) for w in words]
    return ivs


def brute_rule_count(inst, n):
    return sum(prop42_recurrence_rule(inst, i, j)
               for i in range(n) for j in range(n))


def brute_arithmetic_count(inst, n):
    pts = prop42_positions(inst, n)
    return sum(abs(pts[i] - pts[j]) <= F(1, 2)
               for i in range(n) for j in range(n))


class TestProp42Scheme:
    def test_build_validates(self, prop42_small):
        inst = prop42_small
        assert inst.y0 == F(1, 4) and inst.y1 == F(3, 4)
        assert inst.epsilon_star == F(1, 2)
        assert inst.n_points == 2 * (2 ** 7 - 1)

    def test_even_level_gap(self, prop42_small):
        for n in range(0, prop42_small.depth, 2):
            assert interval_dist(prop42_small.intervals_i[n],
                                 prop42_small.intervals_j[n]) > F(1, 2)

    def test_odd_level_hull(self, prop42_small):
        for n in range(1, prop42_small.depth, 2):
            assert union_diam(prop42_small.intervals_i[n],
                              prop42_small.intervals_j[n]) < F(1, 2)

    def test_endpoints_converge_geometrically(self, prop42_small):
        for n, (iv_i, iv_j) in enumerate(zip(prop42_small.intervals_i,
                                             prop42_small.intervals_j)):
            bound = 2 * F(1, 16) ** (n + 1)
            assert F(1, 4) - iv_i.hi <= bound
            assert F(3, 4) - iv_j.hi <= bound

    def test_index_layout(self, prop42_small):
        pts = prop42_small.positions
        assert pts[0] in prop42_small.intervals_i[0]
        assert pts[1] in prop42_small.intervals_j[0]
        assert pts[2] in prop42_small.intervals_i[1]
        assert pts[4] in prop42_small.intervals_i[1]
        assert pts[3] in prop42_small.intervals_j[1]
        assert pts[5] in prop42_small.intervals_j[1]

    def test_monotone_position_families(self, prop42_small):
        evens = prop42_small.positions[0::2]
        odds = prop42_small.positions[1::2]
        assert all(a < b for a, b in zip(evens, evens[1:]))
        assert all(a < b for a, b in zip(odds, odds[1:]))
        assert all(x < F(1, 4) for x in evens)
        assert all(F(1, 4) < x < F(3, 4) for x in odds)

    def test_positions_slice(self, prop42_small):
        assert len(prop42_positions(prop42_small, 10)) == 10
        with pytest.raises(ValueError):
            prop42_positions(prop42_small, prop42_small.n_points + 1)

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            build_prop42(0)


# Oracles: the scheme in Fraction arithmetic, one operation at a time
def fraction_delta(n):
    return F(1, 4 * 16 ** (n + 1))


def fraction_i_interval(n):
    d = fraction_delta(n)
    if n % 2 == 0:
        return CompactInterval(F(1, 4) - 8 * d, F(1, 4) - 7 * d)
    return CompactInterval(F(1, 4) - 2 * d, F(1, 4) - d)


def fraction_j_interval(n):
    d = fraction_delta(n)
    if n % 2 == 0:
        return CompactInterval(F(3, 4) - 2 * d, F(3, 4) - d)
    return CompactInterval(F(3, 4) - 8 * d, F(3, 4) - 7 * d)


def fraction_position(index):
    level = index_level(index)
    iv = fraction_i_interval(level) if index % 2 == 0 else fraction_j_interval(level)
    rank = index // 2 - (2 ** level - 1)
    return iv.lo + iv.diam * F(2 * rank + 1, 2 ** (level + 1))


class TestProp42Integers:
    def test_positions_match_fraction_oracle(self):
        inst = build_prop42(12)
        pts = prop42_positions(inst, inst.n_points)
        assert pts == tuple(fraction_position(i) for i in range(inst.n_points))
        assert all(type(x) is F for x in pts)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 * (2 ** 41 - 1) - 1))
    @example(2 * (2 ** 41 - 1) - 1)
    def test_cell_matches_fraction_oracle(self, index):
        # every index up to the last one at depth 40
        assert F(*_cell(index)) == fraction_position(index)

    def test_intervals_match_fraction_oracle(self):
        for depth in range(1, 21):
            inst = build_prop42(depth)
            assert inst.intervals_i == tuple(map(fraction_i_interval, range(depth + 1)))
            assert inst.intervals_j == tuple(map(fraction_j_interval, range(depth + 1)))
        x1, x2 = fraction_position(1), fraction_position(2)
        slope = (x2 - F(3, 4)) / (x1 - F(1, 4))
        assert (inst.slope, inst.fixed_point) == \
            (slope, (F(3, 4) - slope * F(1, 4)) / (1 - slope))

    def test_checks_read_the_scale_ratio(self, monkeypatch):
        # at ratio 8, I_0 = [0, 1/32] touches 0
        monkeypatch.setattr(constructions, "SCALE_RATIO", 8)
        with pytest.raises(AssertionError, match=r"I_0 not inside \(0, 1/4\)"):
            build_prop42(7)

    def test_positions_build_each_fraction_once(self, prop42_small, monkeypatch):
        made, arithmetic = [], []

        class Counted(F):
            def __new__(cls, *args):
                made.append(args)
                return super().__new__(cls, *args)

        def counted(name):
            def op(self, *args):
                arithmetic.append(name)
                return getattr(F, name)(self, *args)
            return op

        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                     "__truediv__", "__rtruediv__", "__floordiv__", "__mod__", "__pow__",
                     "__neg__", "__abs__"):
            setattr(Counted, name, counted(name))
        monkeypatch.setattr(constructions, "Fraction", Counted)
        for n in (1, 2, 7, 100, prop42_small.n_points):
            made.clear()
            pts = prop42_positions(prop42_small, n)
            assert len(made) == n and not arithmetic
            assert pts == tuple(fraction_position(i) for i in range(n))


class TestProp42Rule:
    def test_same_parity(self, prop42_small):
        assert prop42_recurrence_rule(prop42_small, 0, 2)

    def test_equal_odd_level(self, prop42_small):
        assert index_level(2) == index_level(3) == 1
        assert prop42_recurrence_rule(prop42_small, 2, 3)

    def test_base_pair_apart(self, prop42_small):
        assert not prop42_recurrence_rule(prop42_small, 0, 1)
        pts = prop42_small.positions
        assert abs(pts[0] - pts[1]) > F(1, 2)

    def test_rule_equals_arithmetic(self, prop42_small):
        pts = prop42_small.positions
        eps = F(1, 2)
        for i in range(0, 200, 3):
            for j in range(200):
                assert prop42_recurrence_rule(prop42_small, i, j) == \
                    (abs(pts[i] - pts[j]) <= eps)


class TestProp42Counts:
    def test_first_schedule_value(self, prop42_small):
        assert prop42_C1(prop42_small, 6) == F(5, 6)

    def test_aggregation_matches_brute_rule_scan(self, prop42_small):
        for n in (1, 2, 3, 5, 6, 14, 17, 30, 47, 62, 100, 126):
            assert prop42_pair_count(n) == brute_rule_count(prop42_small, n)

    def test_count_matches_level_populations_to_depth_14(self):
        # every n of a depth-14 instance, against the O(L^2) double loop
        # over (parity, level) populations
        ns = range(1, prop42_schedule_n(14) + 1)
        assert [prop42_pair_count(n) for n in ns] == [prop42_population_count(n) for n in ns]

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 300))
    @example(1)
    @example(300)
    def test_count_matches_rule_scan(self, n):
        assert prop42_pair_count(n) == brute_rule_count(build_prop42(7), n)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 300))
    @example(300)
    def test_count_matches_closed_form_on_schedule(self, k):
        # n_300 is about 8 * 10^90
        n = prop42_schedule_n(k)
        assert prop42_pair_count(n) == prop42_c1_closed_form(k) * n * n

    def test_count_at_a_googol(self):
        # far past any built depth; C_1 stays inside the block extremes
        n = 10 ** 100
        count = prop42_pair_count(n)
        assert type(count) is int
        assert F(69, 100) < F(count, n * n) < F(81, 100)

    def test_count_of_no_points(self):
        assert prop42_pair_count(0) == 0
        with pytest.raises(ValueError, match="n must be nonnegative"):
            prop42_pair_count(-1)

    def test_c1_keeps_its_depth_check(self, prop42_small):
        for n in (0, prop42_small.n_points + 1):
            with pytest.raises(ValueError, match=f"n={n} outside generated depth"):
                prop42_C1(prop42_small, n)

    def test_rule_count_matches_arithmetic_count(self, prop42_small):
        for n in (6, 14, 30, 62):
            assert brute_rule_count(prop42_small, n) == \
                brute_arithmetic_count(prop42_small, n)

    def test_closed_form_on_schedule(self, prop42_small):
        for k in range(1, 6):
            n = prop42_schedule_n(k)
            assert prop42_C1(prop42_small, n) == prop42_c1_closed_form(k)

    def test_closed_form_validity_range(self):
        with pytest.raises(ValueError):
            prop42_c1_closed_form(0)

    def test_even_odd_split(self):
        evens = [prop42_c1_closed_form(k) for k in range(2, 15, 2)]
        odds = [prop42_c1_closed_form(k) for k in range(1, 15, 2)]
        # even-k values climb toward 7/10 from below, odd-k fall toward 8/10
        assert all(v < F(7, 10) for v in evens)
        assert all(a < b for a, b in zip(evens, evens[1:]))
        assert all(v > F(8, 10) for v in odds)
        assert all(a > b for a, b in zip(odds, odds[1:]))

    def test_report_separates_limits(self, prop42_small):
        rep = prop42_report(prop42_small, 6)
        assert rep["liminf_lt_limsup"] is True
        assert F(rep["liminf_est"]) < F(3, 4) < F(rep["limsup_est"])

    def test_c1_csv(self, tmp_path, prop42_small):
        out = tmp_path / "c1.csv"
        write_c1_csv(prop42_small, 2, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "k,n,c1_num,c1_den,c1_float,parity"
        assert lines[1] == "1,6,5,6,0.8333333333333334,odd"
        assert lines[2].startswith("2,14,67,98,") and lines[2].endswith("even")


class TestProp42NumericMap:
    def test_point_images(self, prop42_small):
        f = prop42_numeric_map(prop42_small)
        pts = prop42_small.positions
        assert evaluate(f, pts[0]) == pts[1]
        assert evaluate(f, pts[1]) == pts[2]
        assert evaluate(f, F(1, 4)) == F(3, 4)
        assert evaluate(f, F(3, 4)) == F(1, 4)

    def test_constant_tails(self, prop42_small):
        f = prop42_numeric_map(prop42_small)
        pts = prop42_small.positions
        assert evaluate(f, 0) == pts[1]
        assert evaluate(f, pts[0] / 2) == pts[1]
        assert evaluate(f, F(9, 10)) == F(1, 4)
        assert evaluate(f, 1) == F(1, 4)

    def test_iteration_matches_positions(self):
        inst = build_prop42(3)
        f = prop42_numeric_map(inst)
        traj = iterate(f, inst.positions[0], 20)
        assert traj.points == inst.positions[:20]

    def test_truncation_depth_limit(self):
        inst = build_prop42(3)
        traj = iterate(prop42_numeric_map(inst), inst.positions[0], inst.n_points)
        assert traj.points == inst.positions

    def test_expanding_fixed_point(self, prop42_small):
        inst = prop42_small
        assert inst.slope < -1
        f = prop42_numeric_map(inst)
        assert evaluate(f, inst.fixed_point) == inst.fixed_point
        assert inst.y0 < inst.fixed_point < inst.positions[1]

    def test_json_round_trip(self, prop42_small):
        from rqamaps.dynamics import PiecewiseLinearMap
        f = prop42_numeric_map(prop42_small, depth=2)
        assert PiecewiseLinearMap.from_json(f.to_json()) == f


class TestDelahaye:
    def test_top_intervals(self, delahaye5):
        k0, k1 = word_intervals(delahaye5.system, "0", "1")
        assert (k0.lo, k0.hi) == (0, F(1, 5))
        assert (k1.lo, k1.hi) == (F(3, 5), 1)
        assert interval_dist(k0, k1) == 1 - F(3, 5)

    def test_sibling_gap(self, delahaye5):
        assert interval_dist(*word_intervals(delahaye5.system, "00", "01")) == F(3, 25)

    def test_r6_top_gap(self):
        assert interval_dist(*word_intervals(build_delahaye(6).system, "0", "1")) == F(1, 2)

    def test_rejects_small_r(self):
        with pytest.raises(ValueError):
            build_delahaye(4)

    def test_gap_check_rejects_other_ratio(self):
        # the r = 6 system has top-level gap 1/2, not the 2/5 of r = 5
        system = build_delahaye(6).system
        _check_delahaye_gaps(system, 6)
        with pytest.raises(AssertionError, match="top-level gap violates"):
            _check_delahaye_gaps(system, 5)

    @pytest.mark.parametrize("t, j", [(1, 0), (1, 1), (2, 3), (3, 5), (4, 10)])
    def test_gap_check_rejects_sibling_gap_one_unit_off(self, t, j):
        # K_{a1} of the word a with value j starts one unit of the scale too
        # late: so does its leftmost leaf, of value j + 2^t, in the depth-5
        # node bounds that the check reads; nothing else in the table changes
        system = build_delahaye(5).system
        ends, _ = system._nodes[5, 5]
        ends[0, j + 2 ** t] += 1
        with pytest.raises(AssertionError,
                           match=f"sibling gap below {Word.from_int(j, t)} "
                                 "violates"):
            _check_delahaye_gaps(system, 5)

    def test_gap_check_rejects_a_wider_interval_at_depth_five(self):
        # K of word value 31 at depth 5 ends one unit of the scale late in
        # the depth-5 node bounds that the check reads; no gap it reads changes
        system = build_delahaye(5).system
        ends, _ = system._nodes[5, 5]
        ends[2, 31] += 1
        with pytest.raises(AssertionError, match="widest interval at depth 5 violates"):
            _check_delahaye_gaps(system, 5)

    def test_epsilon_k(self, delahaye5):
        assert delahaye5.epsilon_k(3) == F(1, 125)
        with pytest.raises(ValueError):
            delahaye5.epsilon_k(0)


class TestDelahayeCounts:
    @pytest.mark.parametrize("k,m,t,expected", [
        (1, 2, 2, (6, 4)),
        (2, 2, 3, (12, 8)),
        (1, 3, 4, (96, 64)),
    ])
    def test_known_counts(self, delahaye5, k, m, t, expected):
        assert delahaye_counts(delahaye5, k, m, t) == expected

    def test_enumeration_matches_formula(self, delahaye5):
        for k in (1, 2, 3):
            for m in (2, 3):
                for t in range(k + 1, 7):
                    assert delahaye_counts(delahaye5, k, m, t) == \
                        delahaye_counts_formula(k, m, t)

    def test_depth_scaling_factor_four(self, delahaye5):
        for t in range(2, 6):
            n1_a, nm_a = delahaye_counts(delahaye5, 1, 2, t)
            n1_b, nm_b = delahaye_counts(delahaye5, 1, 2, t + 1)
            assert (n1_b, nm_b) == (4 * n1_a, 4 * nm_a)

    def test_guard_falls_back_to_formula(self, delahaye5, monkeypatch):
        monkeypatch.setenv("RQA_MAX_PAIRS", "4")
        assert delahaye_counts(delahaye5, 1, 2, 3) == delahaye_counts_formula(1, 2, 3)

    def test_preconditions(self, delahaye5):
        with pytest.raises(ValueError):
            delahaye_counts(delahaye5, 1, 1, 3)
        with pytest.raises(ValueError):
            delahaye_counts(delahaye5, 2, 2, 2)


class TestDelahayeLimits:
    def test_rdet_two_thirds(self):
        assert delahaye_rdet(1, 2) == F(2, 3)
        assert delahaye_rdet(7, 4) == F(2, 3)

    def test_rdet_window_one(self):
        assert delahaye_rdet(3, 1) == 1

    def test_det_two_thirds(self):
        for k in (1, 4):
            for m in (2, 3, 5):
                assert delahaye_det(k, m) == F(2, 3)

    def test_det_window_one(self):
        assert delahaye_det(2, 1) == 1

    @pytest.mark.parametrize("k", [0, -1])
    def test_limits_need_k_at_least_one(self, k):
        for m in (1, 2):
            with pytest.raises(ValueError, match="k must be >= 1"):
                delahaye_rdet(k, m)
            with pytest.raises(ValueError, match="k must be >= 1"):
                delahaye_det(k, m)
        with pytest.raises(ValueError, match="k must be >= 1"):
            delahaye_counts_formula(k, 2, 3)

    def test_ratio_from_counts(self, delahaye5):
        n1, nm = delahaye_counts(delahaye5, 2, 3, 5)
        assert F(nm, n1) == F(2, 3)
