"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""
import contextlib
import functools
import io
import random
import time
from fractions import Fraction as F

import pytest

from rqamaps.constructions import (build_prop42, delahaye_counts,
                                   delahaye_counts_formula, delahaye_det,
                                   delahaye_rdet, prop42_C1,
                                   prop42_c1_closed_form, prop42_report,
                                   prop42_schedule_n)
from rqamaps.dynamics import iterate
from rqamaps.finite_omega import (PeriodicOrbitData, asymptotic_rdet_finite,
                                  closed_form_corr_sum)
from rqamaps.intervals import (CompactInterval, Configuration, epsilon_pairs,
                               extremal_configuration)
from rqamaps.rqa import (RQAParams, correlation_sum, recurrence_determinism,
                         recurrence_matrix, rqa_det)
from rqamaps.solenoidal import counts_by_window
from rqamaps import cli

from conftest import random_pl_map


def criterion(cid):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {cid}: FAIL")
                raise
            print(f"\nACCEPTANCE {cid}: PASS - {detail}")
        return wrapper
    return deco


# ---------------------------------------------------------------------------
# random configuration corpus (criteria 1 and 2)
# ---------------------------------------------------------------------------

def _random_float_config(rnd):
    n = rnd.randint(2, 50)
    ivs = []
    x = rnd.uniform(0.0, 0.3)
    for _ in range(n):
        width = rnd.random() ** 2 * 0.15 if rnd.random() < 0.9 else 0.0
        ivs.append(CompactInterval(x, x + width))
        x += width + 1e-9 + rnd.random() ** 2 * 0.12
    eps = rnd.uniform(0.001, 1.2) if rnd.random() < 0.5 else \
        rnd.uniform(0.2, 3.0) * max(iv.diam for iv in ivs) + 1e-6
    return Configuration(tuple(ivs)), eps


def _random_exact_config(rnd):
    n = rnd.randint(2, 16)
    ivs, x = [], F(rnd.randint(0, 8), 8)
    for _ in range(n):
        width = F(rnd.randint(0, 12), 24)
        ivs.append(CompactInterval(x, x + width))
        x = x + width + F(rnd.randint(1, 12), 24)
    conf = Configuration(tuple(ivs))
    roll = rnd.random()
    if roll < 0.35:  # tie-rich: epsilon equals an exact gap
        a, b = sorted(rnd.sample(range(n), 2))
        eps = ivs[b].lo - ivs[a].hi
    elif roll < 0.6:  # or an exact diameter
        eps = max(ivs[rnd.randrange(n)].diam, F(1, 24))
    else:
        eps = F(rnd.randint(1, 48), 24)
    return conf, eps if eps > 0 else F(1, 24)


@pytest.fixture(scope="module")
def config_corpus():
    rnd = random.Random(99173)
    t0 = time.monotonic()
    corpus = []
    for i in range(10_000):
        conf, eps = (_random_exact_config(rnd) if i % 20 == 0
                     else _random_float_config(rnd))
        corpus.append((len(conf), epsilon_pairs(conf, eps).pairs))
    return corpus, time.monotonic() - t0


@criterion(1)
def test_criterion_1_sharp_bound(config_corpus):
    corpus, build_secs = config_corpus
    t0 = time.monotonic()
    assert len(corpus) >= 10_000
    for n, pairs in corpus:
        assert len(pairs) <= 4 * (n - 1)
    for n in range(2, 51):
        for eps in (F(1), F(1, 3)):
            conf = extremal_configuration(n, eps)
            assert len(epsilon_pairs(conf, eps)) == 4 * (n - 1)
    elapsed = build_secs + time.monotonic() - t0
    assert elapsed < 60
    return (f"{len(corpus)} random configurations within 4(n-1); "
            f"extremal attains the bound for n=2..50; {elapsed:.1f}s")


def _betweenness_ok(pairs, n):
    for a in range(1, n + 1):
        row = sorted(b for (x, b) in pairs if x == a and b >= a)
        if row and row != list(range(row[0], row[-1] + 1)):
            return False
        col = sorted(x for (x, d) in pairs if d == a and x <= a)
        if col and col != list(range(col[0], col[-1] + 1)):
            return False
    return True


def _exclusion_ok(pairs):
    upper = sorted((a, b) for a, b in pairs if a <= b)
    best_d = 0
    i = 0
    for b, c in upper:
        while i < len(upper) and upper[i][0] < b:
            best_d = max(best_d, upper[i][1])
            i += 1
        if best_d > c:
            return False
    return True


@criterion(2)
def test_criterion_2_pair_structure(config_corpus):
    corpus, _ = config_corpus
    violations = 0
    for n, pairs in corpus:
        if not all((b, a) in pairs for a, b in pairs):
            violations += 1
        if not _betweenness_ok(pairs, n):
            violations += 1
        if not _exclusion_ok(pairs):
            violations += 1
    assert violations == 0
    return f"betweenness closure and exclusion hold on {len(corpus)} configurations"


# ---------------------------------------------------------------------------
# finite limit cycles (criteria 3 and 4)
# ---------------------------------------------------------------------------

THREE_ORBIT = PeriodicOrbitData.of(["1/5", "1/2", "4/5"])


@pytest.fixture(scope="module")
def plateau_trajectory(plateau_map):
    return iterate(plateau_map, 0.21, 5000 + 5)


@criterion(3)
def test_criterion_3_closed_form_limit(plateau_trajectory):
    t0 = time.monotonic()
    worst = 0.0
    for m in (1, 2, 3):
        for eps in (F(1, 4), F(9, 20), F(7, 10)):
            c = correlation_sum(plateau_trajectory, RQAParams(m, float(eps), 5000))
            closed = closed_form_corr_sum(THREE_ORBIT, m, eps)
            worst = max(worst, abs(float(c) - float(closed)))
            assert abs(float(c) - float(closed)) <= 0.01
    elapsed = time.monotonic() - t0
    assert elapsed < 30
    return f"max |C_m(5000) - closed form| = {worst:.2e} <= 0.01; {elapsed:.1f}s"


@criterion(4)
def test_criterion_4_determinism_one(plateau_trajectory):
    for m in range(1, 6):
        r = recurrence_determinism(plateau_trajectory, RQAParams(m, 0.1, 5000))
        assert r >= F(99, 100)
        assert asymptotic_rdet_finite(THREE_ORBIT, m, F(1, 10)) == 1
    return "rdet_m(5000, 0.1) >= 0.99 and closed form == 1 for m=1..5"


# ---------------------------------------------------------------------------
# oscillating construction (criteria 5 and 6)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def prop42_full():
    return build_prop42(14)


@criterion(5)
def test_criterion_5_exact_schedule_values(prop42_full):
    for k in range(1, 15):
        n = prop42_schedule_n(k)
        assert prop42_C1(prop42_full, n) == prop42_c1_closed_form(k)
    assert prop42_C1(prop42_full, 6) == F(5, 6)
    return "pair-scan C_1 == closed form exactly for k=1..14; C_1(6) == 5/6"


@criterion(6)
def test_criterion_6_nonconvergence(prop42_full):
    even = prop42_c1_closed_form(14)
    odd = prop42_c1_closed_form(13)
    assert abs(even - F(7, 10)) <= F(1, 1000)
    assert abs(odd - F(8, 10)) <= F(1, 1000)
    rep = prop42_report(prop42_full, 14)
    assert rep["liminf_lt_limsup"] is True
    assert F(rep["liminf_est"]) < F(rep["limsup_est"])
    return (f"C_1 at k=14 within {float(abs(even - F(7, 10))):.1e} of 7/10, "
            f"k=13 within {float(abs(odd - F(8, 10))):.1e} of 8/10; "
            "liminf_est < limsup_est")


# ---------------------------------------------------------------------------
# determinism-2/3 construction (criterion 7) and enclosures (criterion 8)
# ---------------------------------------------------------------------------

@criterion(7)
def test_criterion_7_word_pair_counts(delahaye5):
    t0 = time.monotonic()
    for k in range(1, 9):
        for m in (2, 3, 4):
            n1, nm = delahaye_counts(delahaye5, k, m, k + 1)
            assert (n1, nm) == (3 * 2 ** k, 2 ** (k + 1))
        assert delahaye_rdet(k, m=2) == F(2, 3)
        for m in (2, 3, 4):
            assert delahaye_det(k, m) == F(2, 3)
    for k in range(1, 7):
        for t in range(k + 2, 9):
            enumerated = delahaye_counts(delahaye5, k, 3, t)
            assert enumerated == delahaye_counts_formula(k, 3, t)
            factor = 4 ** (t - (k + 1))
            assert enumerated == (factor * 3 * 2 ** k, factor * 2 ** (k + 1))
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    return f"counts, 4^(t-k-1) scaling, rdet = DET = 2/3 exact; {elapsed:.1f}s"


@criterion(8)
def test_criterion_8_enclosures(delahaye5):
    for k in (1, 2, 3):
        eps = delahaye5.epsilon_k(k)
        values_by_m = {m: set() for m in (1, 2, 3, 4)}
        for t in range(1, 11):
            counts = counts_by_window(delahaye5.system, t, eps, 4)
            for c in counts:
                assert c.upper - c.lower <= c.width_bound
                if t >= k + 1:
                    values_by_m[c.m].add(c.lower)
        for m, values in values_by_m.items():
            assert len(values) == 1, f"value drifts with depth at m={m}"
    return "width <= 4m(p_t-1)/p_t^2 for t<=10, m<=4; N_m°/p_t^2 constant in t"


# ---------------------------------------------------------------------------
# randomized RQA invariants (criterion 9)
# ---------------------------------------------------------------------------

@criterion(9)
def test_criterion_9_rqa_invariants():
    rnd = random.Random(55331)
    cases = 0
    for _ in range(1050):
        f = random_pl_map(rnd)
        n, m, h = rnd.randint(8, 20), rnd.randint(1, 3), rnd.randint(1, 5)
        eps1 = F(rnd.randint(1, 24), 24)
        eps2 = eps1 + F(rnd.randint(0, 12), 24)
        t = iterate(f, F(rnd.randint(0, 24), 24), n + m + h)
        c1 = correlation_sum(t, RQAParams(1, eps1, n))
        cm = correlation_sum(t, RQAParams(m, eps1, n))
        cm_next = correlation_sum(t, RQAParams(m + 1, eps1, n))
        # range and diagonal floor
        assert F(1, n) <= cm <= 1 and cm <= c1
        # monotonicity in epsilon and in window length
        assert cm <= correlation_sum(t, RQAParams(m, eps2, n))
        assert cm_next <= cm
        # saturation at the space diameter
        assert correlation_sum(t, RQAParams(m, F(1), n)) == 1
        # matrix popcount consistency
        mat = recurrence_matrix(t, RQAParams(m, eps1, n))
        assert F(mat.popcount, n * n) == cm
        # determinism ratio and the affine identity, exact
        r_m = recurrence_determinism(t, RQAParams(m, eps1, n))
        r_next = recurrence_determinism(t, RQAParams(m + 1, eps1, n))
        assert r_m == cm / c1 and r_next == cm_next / c1
        assert 0 <= r_next <= r_m <= 1
        assert rqa_det(t, RQAParams(m, eps1, n)) == m * r_m - (m - 1) * r_next
        # shift bound
        ch = correlation_sum(t.shifted(h), RQAParams(m, eps1, n))
        assert abs(ch - cm) <= F(4 * h, n)
        cases += 1
    assert cases >= 1000
    return f"{cases} random map/parameter cases, zero violations"


# ---------------------------------------------------------------------------
# byte-identical artifacts (criterion 10)
# ---------------------------------------------------------------------------

@criterion(10)
def test_criterion_10_golden_files(tmp_path, plateau_map):
    map_path = tmp_path / "map.json"
    map_path.write_text(plateau_map.to_json())

    recipes = {
        "plot.pgm": ["rplot", "--construction", "prop42", "--depth", "5",
                     "--m", "2", "--epsilon", "1/2", "--n", "62"],
        "series.csv": ["corrsum", "--map", str(map_path), "--x0", "21/100",
                       "--m", "2", "--epsilon", "9/20", "--schedule", "40,80,160"],
        "counts.csv": ["solenoid", "--r", "5", "--m", "3", "--epsilon", "1/5",
                       "--t-schedule", "2,3,4,5,6"],
        "c1.csv": ["prop42", "--depth", "8", "--emit", "c1-table", "--kmax", "8"],
        "positions.csv": ["prop42", "--depth", "4", "--emit", "positions"],
        "report.json": ["prop52", "--r", "5", "--k", "2", "--m", "3", "--t", "5"],
        "conf.json": ["config", "--extremal", "--n", "12", "--epsilon", "2/3"],
    }

    checked = 0
    for name, argv in recipes.items():
        outputs = []
        for run_id in range(2):
            out = tmp_path / f"run{run_id}_{name}"
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv + ["--output", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1], f"{name} differs between runs"
        checked += 1
    return f"{checked} artifacts byte-identical across runs"
