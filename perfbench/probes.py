"""Measurements a traced run makes besides its jobs.

* the cost of one rqa entry point against another on the same inputs
  (``rqa_det`` and ``estimate_asymptotics`` against ``correlation_sum``);
* the threads knob: ``correlation_sum`` and ``counts_by_window`` at
  threads=1 and threads=2 on the same inputs;
* layer calls the CLI makes internally (``recurrence_matrix``,
  ``pgm_bytes``, the constructions), timed directly on the CLI jobs' inputs.

Every probe call goes through the traced layers, so each is a span with
job id -1.  Each probe returns metrics and a list of (layer, problem).
"""
from __future__ import annotations

import statistics
import time
from fractions import Fraction as F

from rqamaps import constructions, rqa, solenoidal
from rqamaps.constructions import delahaye_counts_formula
from rqamaps.rqa import RQAParams

import oracles
from workloads import backend_of


def _last(L) -> float:
    span = L.tracer.spans[-1]
    return span.end - span.start


def _threads_speedup(call, reps: int):
    """threads=1 time over threads=2 time, alternating which runs first.

    Timed without spans, so that the threads=2 calls stay out of the
    per-call medians.  Returns the median speed-up, its spread, and whether
    both settings gave the same result every time.
    """
    speedups, same = [], True
    for rep in range(reps):
        times, results = {}, {}
        for threads in ((1, 2) if rep % 2 == 0 else (2, 1)):
            t0 = time.perf_counter()
            results[threads] = call(threads)
            times[threads] = time.perf_counter() - t0
        same = same and results[1] == results[2]
        speedups.append(times[1] / times[2])
    return statistics.median(speedups), _spread(speedups), same


def _spread(values) -> float:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def rqa_ratios(L, job, reps: int):
    """det/csum and schedule/max time ratios on one job's inputs."""
    f, x0, n, m, eps = (job.inputs[k] for k in ("f", "x0", "n", "m", "eps"))
    pts = tuple(oracles.pl_orbit(f, x0, n + m))
    backend, _ = backend_of(pts, eps)
    schedule = (n // 4, n // 2, n)
    det_ratio, sched_ratio, bad = [], [], []
    n1 = oracles.c1_count(pts, n, eps)
    for _ in range(reps):
        c = L.rqa.correlation_sum(pts, RQAParams(m, eps, n))
        L.pairs(n * n, backend=backend)
        t_c = _last(L)
        L.rqa.rqa_det(pts, RQAParams(m, eps, n))
        L.pairs(3 * n * n, backend=backend)
        det_ratio.append(_last(L) / t_c)
        est = L.rqa.estimate_asymptotics(pts, m, eps, schedule)
        L.pairs(sum(k * k for k in schedule), backend=backend)
        sched_ratio.append(_last(L) / t_c)
        rdet_m = L.rqa.recurrence_determinism(pts, RQAParams(m, eps, n))
        L.pairs(2 * n * n, backend=backend)
        rdet_1 = L.rqa.recurrence_determinism(pts, RQAParams(1, eps, n))
        L.pairs(n * n, backend=backend)
        if est.values[-1][1] != c:
            bad.append(("rqa", f"estimate_asymptotics C_{m}({n}) != correlation_sum"))
        if rdet_1 != 1:
            bad.append(("rqa", f"rdet_1 = {rdet_1}"))
        if rdet_m != c / F(n1, n * n):
            bad.append(("rqa", f"rdet_{m} != C_{m} / C_1 (sort-and-bisect)"))
    return det_ratio, sched_ratio, bad


def orbit_probes(L, ratio_jobs, reps: int, threads_job=None) -> tuple[dict, list]:
    """Time ratios on each of ``ratio_jobs``; the threads knob on ``threads_job``."""
    det_ratio, sched_ratio, bad = [], [], []
    for job in ratio_jobs:
        d, s, b = rqa_ratios(L, job, reps)
        det_ratio += d
        sched_ratio += s
        bad += b
    out = {"rqa.det_to_csum_ratio": statistics.median(det_ratio),
           "rqa.schedule_to_max_ratio": statistics.median(sched_ratio)}
    if threads_job is not None:
        f, x0, n, m, eps = (threads_job.inputs[k] for k in ("f", "x0", "n", "m", "eps"))
        pts = tuple(oracles.pl_orbit(f, x0, n + m))
        speedup, spread, same = _threads_speedup(
            lambda threads: rqa.correlation_sum(pts, RQAParams(m, eps, n), threads=threads),
            reps + 2)
        out["rqa.threads2_speedup"], out["rqa.threads2_speedup_iqr"] = speedup, spread
        if not same:
            bad.append(("rqa", "correlation_sum differs between threads=1 and threads=2"))
    return out, bad


def symbolic_probes(size: dict, reps: int, threads_ok: bool) -> tuple[dict, list]:
    """counts_by_window at threads=1 and threads=2 on one Delahaye system."""
    if not threads_ok:
        return {}, []
    inst = constructions.build_delahaye(5)
    t, m_max = size["t"], size["m_max"]
    eps = inst.epsilon_k(2)
    solenoidal.max_diam(inst.system, t)      # fill the interval cache first
    speedup, spread, same = _threads_speedup(
        lambda threads: [(c.n_strict, c.n_closed) for c in solenoidal.counts_by_window(
            inst.system, t, eps, m_max, threads=threads)],
        reps + 2)
    bad = [] if same else [("solenoidal", "counts_by_window differs between threads=1 and 2")]
    return {"solenoidal.threads2_speedup": speedup,
            "solenoidal.threads2_speedup_iqr": spread}, bad


def cli_probes(L, jobs, reps: int) -> tuple[dict, list]:
    """The layer calls behind rplot, prop42 and prop52, on the CLI jobs' inputs."""
    bad = []
    rplot = next(j for j in jobs if j.inputs.get("kind") == "rplot")
    pts, n, eps = rplot.inputs["points"], rplot.inputs["n"], rplot.inputs["eps"]
    want = oracles.c1_count(pts, n, eps)
    for _ in range(reps):
        matrix = L.rqa.recurrence_matrix(pts, RQAParams(1, eps, n))
        L.pairs(n * n, backend="float")
        body = L.rqa.pgm_bytes(matrix).split(b"\n", 2)[2]
        if matrix.popcount != want or body.count(b"1") != want:
            bad.append(("rqa", f"recurrence matrix popcount {matrix.popcount} != {want}"))
    p42 = next(j for j in jobs if j.inputs.get("kind") == "prop42")
    p52 = next(j for j in jobs if j.inputs.get("kind") == "prop52")
    depth = p42.inputs["depth"]
    r, k, t = (p52.inputs[key] for key in ("r", "k", "t"))
    for _ in range(reps):
        inst = L.constructions.build_prop42(depth)
        L.constructions.prop42_report(inst, depth)
        d = L.constructions.build_delahaye(r)
        got = L.constructions.delahaye_counts(d, k, 2, t)
        if got != delahaye_counts_formula(k, 2, t):
            bad.append(("constructions", f"delahaye_counts {got} != scaling law"))
    return {}, bad
