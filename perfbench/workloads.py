"""The benchmark workloads: seeded inputs, the timed job, and its checks.

A workload is a fixed cycle of job slots.  The slot sequence and every
input size are fixed per workload, so the cost of a run does not depend on
the seed; the seed draws the values (maps, seed points, thresholds, orbits,
configurations).  A job is one analysis a user would run.  ``run`` is the
timed part and calls the package only through a ``Layers`` object, so that
a traced run can put spans around those calls.  ``check`` compares the
outputs with reference values that are computed once per slot, outside
the timed part and without the package, and returns a list of
``(layer, problem)`` pairs.

Why each workload exists:

* ``orbit_exact``: exact-rational trajectories, where exact iteration,
  rational scaling and the int64 and big-int pair kernels do the work and
  the symbolic backends do none.
* ``orbit_float_long``: long float trajectories, where the O(n^2 m)
  float64 scan is nearly all of the job, so a faster pair count shows here
  first.
* ``symbolic``: the word-scan, closed-form and interval-configuration
  backends with no trajectory kernel at all; a change to the ``rqa``
  kernels should leave it unchanged.
* ``cli_artifacts``: every subcommand end to end through ``cli.main``,
  including the dense recurrence-matrix path and the exact bytes of every
  artifact, which the counting workloads never touch.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import warnings
from dataclasses import dataclass, field
from fractions import Fraction as F
from typing import Callable

from rqamaps.constructions import (delahaye_counts_formula, prop42_c1_closed_form,
                                   prop42_schedule_n)
from rqamaps.dynamics import PiecewiseLinearMap
from rqamaps.finite_omega import ExcludedEpsilonWarning, PeriodicOrbitData
from rqamaps.intervals import CompactInterval, Configuration
from rqamaps.rational import common_scale
from rqamaps.rqa import RQAParams
from rqamaps.solenoidal import ResourceGuardError
from rqamaps import rqa as rqa_module

import oracles

INT64_SCALE_LIMIT = 2 ** 62   # the int64 pair kernel applies at or below this scale
PREFIX = 200                  # n of the pure-Python Bowen-scan check


@dataclass
class Job:
    slot: str                                   # readable description of the inputs
    run: Callable                               # run(L) -> outputs; the timed part
    check: Callable                             # check(outputs) -> [(layer, problem)]
    facts: dict = field(default_factory=dict)   # sizes, backend, scale bits, ...
    inputs: dict = field(default_factory=dict)  # what the traced run's probes reuse


# Input sizes per workload.  "full" is the benchmark; "tiny" is for the
# smoke test only.  n values are tuned so that the slots of one workload
# cost about the same, which keeps the job-latency percentiles steady.
SIZES = {
    "full": {
        "orbit_exact": {"plateau_n": {2: 2400, 3: 2250}, "contracting_n": {2: 400, 3: 360}},
        "orbit_float_long": {"corrsum_n": {2: 4400, 3: 4000}, "det_n": {2: 3200, 3: 3000}},
        "symbolic": {"t": 10, "m_max": 4, "t_schedule": (4, 6, 8), "prop42_depth": 10,
                     "period": 40, "config_n": {True: 200, False: 260}, "guard_t": 14},
        "cli_artifacts": {"corrsum_n": 1200, "rdet_n": 1200, "det_n": 1000,
                          "rplot_n": 500, "rplot_depth": 7, "config_n": 120,
                          "solenoid_t": (6, 8, 10), "prop42_depth": 11,
                          "prop52_t": 9},
    },
    "tiny": {
        "orbit_exact": {"plateau_n": {2: 80, 3: 80}, "contracting_n": {2: 80, 3: 80}},
        "orbit_float_long": {"corrsum_n": {2: 240, 3: 240}, "det_n": {2: 200, 3: 200}},
        "symbolic": {"t": 6, "m_max": 3, "t_schedule": (3, 4), "prop42_depth": 5,
                     "period": 10, "config_n": {True: 20, False: 20}, "guard_t": 14},
        "cli_artifacts": {"corrsum_n": 60, "rdet_n": 60, "det_n": 60,
                          "rplot_n": 40, "rplot_depth": 4, "config_n": 10,
                          "solenoid_t": (3, 4), "prop42_depth": 5,
                          "prop52_t": 5},
    },
}


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def plateau_map(rnd: random.Random, p: int):
    """PL map with a superattracting p-cycle: wide plateaus around each cycle
    point send their neighbourhood exactly onto the cycle's next point.

    Returns the map and the cycle in dynamical order.
    """
    den = 8 * p + 8
    cells = sorted(rnd.sample(range(1, den // 2), p))
    pts = [F(2 * c, den) for c in cells]            # spacing >= 2/den
    order = pts[:]
    rnd.shuffle(order)
    succ = {order[i]: order[(i + 1) % p] for i in range(p)}
    ramp = F(1, 4 * den)
    bps, vals = [F(0)], [succ[pts[0]]]
    for a, b in zip(pts, pts[1:]):
        mid = (a + b) / 2
        bps += [mid - ramp, mid + ramp]
        vals += [succ[a], succ[b]]
    bps.append(F(1))
    vals.append(succ[pts[-1]])
    return PiecewiseLinearMap(tuple(bps), tuple(vals)), tuple(order)


def contracting_map(rnd: random.Random):
    """PL map with every slope +-1/2: a contraction whose exact orbit gains
    one bit of denominator per step and converges to the fixed point."""
    den = rnd.choice((9, 15, 21, 27))
    inner = sorted(rnd.sample(range(1, den), rnd.randint(1, 3)))
    bps = [F(0)] + [F(k, den) for k in inner] + [F(1)]
    slopes = [F(rnd.choice((1, -1)), 2) for _ in bps[1:]]
    path = [F(0)]
    for s, a, b in zip(slopes, bps, bps[1:]):
        path.append(path[-1] + s * (b - a))
    slack = F(1, 2) - (max(path) - min(path))
    v0 = F(1, 4) - min(path) + slack * F(rnd.randint(0, 8), 8)
    return PiecewiseLinearMap(tuple(bps), tuple(v0 + v for v in path))


def tent_map(rnd: random.Random):
    """Expanding tent of height about 19/20: its float orbit does not collapse."""
    peak = F(rnd.choice((9, 10, 11)), 20)
    height = F(rnd.choice((37, 38, 39)), 40)
    return PiecewiseLinearMap((F(0), peak, F(1)), (F(0), height, F(0)))


def backend_of(points, eps) -> tuple[str, int]:
    """Pair-kernel backend the inputs select, and the scale's bit length."""
    if isinstance(points[0], float):
        return "float", 0
    scale = common_scale([F(p) for p in points] + [F(eps)])
    return ("int64" if scale <= INT64_SCALE_LIMIT else "bigint"), scale.bit_length()


# ---------------------------------------------------------------------------
# trajectory jobs (orbit_exact, orbit_float_long)
# ---------------------------------------------------------------------------

def _pair_checks(out, ref, schedule, n, m, eps):
    """Checks shared by the trajectory jobs, against per-slot references."""
    bad = []
    if tuple(out["traj"].points) != ref["orbit"]:
        bad.append(("dynamics", "iterate differs from the reference orbit"))
    series = out.get("series")
    if series is not None:
        counts = []
        for (k, c), k_ref in zip(series.values, schedule):
            nk = c * k * k
            if k != k_ref or nk.denominator != 1:
                bad.append(("rqa", f"C_{m}({k}) is not a pair count over n={k_ref}"))
                continue
            counts.append(int(nk))
            if not k <= nk <= ref["n1"][k]:
                bad.append(("rqa", f"C_{m}({k}) outside [1/n, C_1]: {nk} vs N_1={ref['n1'][k]}"))
        if counts != sorted(counts):
            bad.append(("rqa", "pair counts decrease along the schedule"))
        tail = [c for _, c in series.values[-max(1, len(schedule) // 2):]]
        if (series.liminf_est, series.limsup_est) != (min(tail), max(tail)):
            bad.append(("rqa", "liminf/limsup estimates are not the tail extremes"))
    det = out.get("det")
    if det is not None:
        n1 = ref["n1"][n]
        d = det * n1          # = m N_m - (m-1) N_{m+1}, an integer
        if d.denominator != 1 or not n <= d <= m * n1:
            bad.append(("rqa", f"DET_{m}({n}) = {det} is not m N_m - (m-1) N_(m+1) over N_1"))
        elif series is not None and series.values[-1][0] == n:
            nm = series.values[-1][1] * n * n
            nm1 = (m * nm - d) / (m - 1)
            if nm1.denominator != 1 or not n <= nm1 <= nm:
                bad.append(("rqa", f"DET_{m}({n}) disagrees with C_{m}({n}): implied N_(m+1)={nm1}"))
    for name, got, want in ref["prefix"]:
        if got != want:
            bad.append(("rqa", f"{name} on the n={PREFIX} prefix: {got} != reference {want}"))
    return bad


def _prefix_reference(points, m, eps):
    """Package vs pure-Python Bowen scan on the n=200 prefix (once per slot)."""
    k = min(PREFIX, len(points) - m)
    counts = oracles.bowen_counts(points, k, (1, m, m + 1), eps)
    out = []
    for w in (1, m, m + 1):
        got = rqa_module.correlation_sum(points, RQAParams(w, eps, k))
        out.append((f"C_{w}", got, F(counts[w], k * k)))
    got = rqa_module.rqa_det(points, RQAParams(m, eps, k))
    out.append((f"DET_{m}", got, oracles.det_from_counts(m, counts[1], counts[m], counts[m + 1])))
    got = rqa_module.recurrence_determinism(points, RQAParams(1, eps, k))
    out.append(("rdet_1", got, F(1)))
    return out


def trajectory_job(slot, f, x0, n, m, eps, task, facts, cycle=None):
    """One trajectory analysis.

    task "full" (orbit_exact): iterate, estimate_asymptotics over
    (n/4, n/2, n), rqa_det at n, detect_periodic, and the finite-cycle
    closed forms on the detected cycle.  task "corrsum" and "det"
    (orbit_float_long): the schedule alone, or rqa_det alone.
    ``cycle`` is the constructed cycle in dynamical order, when there is one.
    """
    schedule = (n // 4, n // 2, n)
    length = n + m if task != "corrsum" else n + m - 1

    def run(L):
        traj = L.dynamics.iterate(f, x0, length)
        L.count("dynamics.points", length)
        out = {"traj": traj}
        if task in ("full", "corrsum"):
            out["series"] = L.rqa.estimate_asymptotics(traj, m, eps, schedule)
            L.pairs(sum(k * k for k in schedule), "rqa.pairs_decided")
        if task in ("full", "det"):
            out["det"] = L.rqa.rqa_det(traj, RQAParams(m, eps, n))
            L.pairs(3 * n * n, "rqa.pairs_decided")   # C_1, C_m, C_{m+1}
        if task == "full":
            ps = L.dynamics.detect_periodic(traj)
            out["cycle"] = ps
            if ps is not None:
                orbit = L.finite_omega.aligned_orbit(ps)
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always", ExcludedEpsilonWarning)
                    out["c_m"] = L.finite_omega.closed_form_corr_sum(orbit, m, eps)
                    L.pairs(ps.period ** 2, "finite_omega.orbit_pairs")
                    out["rdet"] = L.finite_omega.asymptotic_rdet_finite(orbit, m, eps)
                    L.pairs(2 * ps.period ** 2, "finite_omega.orbit_pairs")
                out["warned"] = any(w.category is ExcludedEpsilonWarning for w in caught)
        return out

    ref = {}

    def check(out):
        if not ref:
            orbit = oracles.pl_orbit(f, x0, length)
            ref["orbit"] = tuple(orbit)
            ref["n1"] = {k: oracles.c1_count(orbit, k, eps) for k in schedule}
            ref["prefix"] = _prefix_reference(orbit, m, eps)
            facts["backend"], facts["scale_bits"] = backend_of(orbit, eps)
            facts["recurrence_rate"] = ref["n1"][n] / (n * n)
            if cycle is not None:
                landing = next(i for i, x in enumerate(orbit) if x in cycle)
                ref["cycle"] = (landing, len(cycle), set(cycle))
                ref["c_m"] = F(oracles.orbit_pair_count(cycle, m, eps), len(cycle) ** 2)
                ref["c_1"] = F(oracles.orbit_pair_count(cycle, 1, eps), len(cycle) ** 2)
                ref["ties"] = eps in (oracles.orbit_distances(cycle, m)
                                      | oracles.orbit_distances(cycle, 1))
        bad = _pair_checks(out, ref, schedule, n, m, eps)
        if task != "full":
            return bad
        ps = out["cycle"]
        if cycle is None:
            if ps is not None:
                bad.append(("dynamics", f"cycle detected on an aperiodic orbit: {ps}"))
            return bad
        if ps is None or (ps.preperiod, ps.period, set(ps.orbit)) != ref["cycle"]:
            bad.append(("dynamics", f"detect_periodic {ps} != (k, p, cycle) {ref['cycle'][:2]}"))
            return bad
        if out["c_m"] != ref["c_m"]:
            bad.append(("finite_omega", f"closed form c_{m} {out['c_m']} != {ref['c_m']}"))
        if out["rdet"] != ref["c_m"] / ref["c_1"]:
            bad.append(("finite_omega", f"rdet {out['rdet']} != c_m/c_1 {ref['c_m'] / ref['c_1']}"))
        if out["warned"] != ref["ties"]:
            bad.append(("finite_omega", f"excluded-threshold warning {out['warned']}, tie {ref['ties']}"))
        return bad

    facts.update(n=n, m=m, task=task)
    return Job(slot, run, check, facts, {"f": f, "x0": x0, "n": n, "m": m, "eps": eps})


def _plateau_start(rnd: random.Random, f, cycle) -> F:
    """A seed point whose orbit lands on the cycle within 16 steps."""
    while True:
        x0 = F(rnd.randint(1, 96), 97)
        if any(x in cycle for x in oracles.pl_orbit(f, x0, 16)):
            return x0


def orbit_exact(rnd: random.Random, size: dict) -> list[Job]:
    """Plateau (int64) and contracting (big-int) maps in a 2:1 share.

    With two jobs in three on one family, the median latency falls inside
    the plateau jobs and the tail inside the big-int jobs, whichever of the
    two is slowed more on a given machine.
    """
    jobs = []
    for m, contracting_tie in ((2, False), (3, True)):
        for tie in (False, True):
            p = rnd.randint(2, 5)
            f, cycle = plateau_map(rnd, p)
            dists = sorted({abs(a - b) for a in cycle for b in cycle if a != b})
            d = rnd.choice(dists)
            eps = d if tie else d + F(1, 7 * (8 * p + 8))
            jobs.append(trajectory_job(
                f"plateau p={p} m={m} {'tie' if tie else 'generic'} eps", f,
                _plateau_start(rnd, f, cycle), size["plateau_n"][m], m, eps,
                "full", {"family": "plateau", "arith": "exact"}, cycle=cycle))

        f = contracting_map(rnd)
        x0 = F(rnd.randint(1, 30), 31)
        a = rnd.randint(8, 12)
        head = oracles.pl_orbit(f, x0, a + 2)
        eps = abs(head[a] - head[a + 1]) if contracting_tie \
            else F(rnd.randint(1, 9), 3 ** (a // 2 + 2))
        jobs.append(trajectory_job(
            f"contracting m={m} {'tie' if contracting_tie else 'generic'} eps", f, x0,
            size["contracting_n"][m], m, eps, "full",
            {"family": "contracting", "arith": "exact"}))
    return jobs


def orbit_float_long(rnd: random.Random, size: dict) -> list[Job]:
    """Expanding tents (low recurrence) and contractions (high recurrence),
    alternating the schedule task and the rqa_det task.

    Four slots cover each family, task and m once or twice; few slots give
    each slot many repetitions in a run.
    """
    jobs = []
    for m, family, task in ((2, "expanding", "corrsum"), (2, "contracting", "det"),
                            (3, "expanding", "det"), (3, "contracting", "corrsum")):
        if family == "expanding":
            f, eps = tent_map(rnd), rnd.uniform(0.01, 0.03)
        else:
            f, eps = contracting_map(rnd), rnd.uniform(1e-4, 1e-3)
        jobs.append(trajectory_job(
            f"{family} {task} m={m}", f, rnd.uniform(0.1, 0.9), size[f"{task}_n"][m], m, eps,
            task, {"family": family, "arith": "float"}))
    return jobs


# ---------------------------------------------------------------------------
# symbolic
# ---------------------------------------------------------------------------

def random_configuration(rnd: random.Random, n: int, eps: F) -> Configuration:
    """Ordered exact intervals with widths and gaps around eps, so that many
    pairs are decided near the threshold."""
    ivs, x = [], F(0)
    unit = eps / 8
    for _ in range(n):
        w = unit * rnd.randint(0, 12)
        ivs.append(CompactInterval(x, x + w))
        x += w + unit * rnd.randint(1, 12)
    return Configuration(tuple(ivs))


def synthetic_orbit(rnd: random.Random, p: int) -> tuple[F, ...]:
    """p distinct exact points, in the order the orbit visits them."""
    return tuple(F(k, 4 * p + 1) for k in rnd.sample(range(1, 4 * p + 1), p))


def symbolic_job(rnd: random.Random, size: dict, r: int, extremal: bool) -> Job:
    """Delahaye word scans, the guard boundary, prop42, finite-cycle closed
    forms and one interval configuration, as one job."""
    t, m_max = size["t"], size["m_max"]
    k = rnd.randint(1, min(3, t - 2))
    acs_m = rnd.randint(2, m_max)
    guard_t, guard_m = size["guard_t"], rnd.randint(2, m_max)
    depth, p, orbit_m = size["prop42_depth"], size["period"], 2
    orbit = synthetic_orbit(rnd, p)
    orbit_eps = F(rnd.randint(1, 4 * p), 8 * p + 3)
    cn = size["config_n"][extremal]
    c_eps = F(rnd.randint(1, 9), rnd.randint(10, 19))
    config = None if extremal else random_configuration(rnd, cn, c_eps)

    def run(L):
        inst = L.constructions.build_delahaye(r)
        eps = inst.epsilon_k(k)
        out = {"max_diam": L.solenoidal.max_diam(inst.system, t)}
        out["windows"] = L.solenoidal.counts_by_window(inst.system, t, eps, m_max)
        L.pairs(m_max * 4 ** t, "solenoidal.word_pairs")
        out["enclosures"] = L.solenoidal.asymptotic_corr_sum(
            inst.system, acs_m, eps, size["t_schedule"])
        L.pairs(sum(4 ** s for s in size["t_schedule"]), "solenoidal.word_pairs")

        wide = L.constructions.build_delahaye(r, depth_cap=guard_t)
        try:
            out["guard_scan"] = L.solenoidal.counts_by_window(
                wide.system, guard_t, eps, guard_m)
        except ResourceGuardError:
            out["guard_scan"] = None
            L.count("solenoidal.guard_trips")
            L.count("constructions.delahaye_formula_fallbacks")
        out["delahaye"] = L.constructions.delahaye_counts(wide, k, guard_m, guard_t)

        p42 = L.constructions.build_prop42(depth)
        out["prop42"] = L.constructions.prop42_report(p42, depth)

        o = PeriodicOrbitData(orbit)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ExcludedEpsilonWarning)
            out["c_m"] = L.finite_omega.closed_form_corr_sum(o, orbit_m, orbit_eps)
            L.pairs(p * p, "finite_omega.orbit_pairs")
            out["rdet"] = L.finite_omega.asymptotic_rdet_finite(o, orbit_m, orbit_eps)
            L.pairs(2 * p * p, "finite_omega.orbit_pairs")
        out["warned"] = any(w.category is ExcludedEpsilonWarning for w in caught)

        conf = L.intervals.extremal_configuration(cn, c_eps) if extremal else config
        out["pairs"] = L.intervals.epsilon_pairs(conf, c_eps)
        L.pairs(cn * cn)
        L.count("intervals.config_intervals", cn)
        L.count("intervals.pairs_found", len(out["pairs"]))
        return out

    ref = {}

    def check(out):
        bad = []
        eps = F(1, r ** k)
        if out["max_diam"] != F(2, r ** t):
            bad.append(("solenoidal", f"max_diam {out['max_diam']} != 2 r^-t"))
        wins = out["windows"]
        if [w.m for w in wins] != list(range(1, m_max + 1)):
            bad.append(("solenoidal", "counts_by_window did not return every window"))
        if t >= k + 1:
            for w in wins[1:]:
                n1, nm = delahaye_counts_formula(k, w.m, t)
                if (wins[0].n_closed, w.n_closed) != (n1, nm):
                    bad.append(("solenoidal", f"closed counts m={w.m} != scaling law {(n1, nm)}"))
        for w in wins:
            if not (w.n_closed <= w.n_strict and w.upper - w.lower <= w.width_bound):
                bad.append(("solenoidal", f"window m={w.m} enclosure wider than its bound"))
        for e in out["enclosures"]:
            if not (e.lower <= e.upper and e.upper - e.lower <= e.width_bound):
                bad.append(("solenoidal", f"enclosure at t={e.t} wider than its bound"))
        law = delahaye_counts_formula(k, guard_m, guard_t)
        scan = out["guard_scan"]
        if scan is not None and (scan[0].n_closed, scan[guard_m - 1].n_closed) != law:
            bad.append(("solenoidal", f"t={guard_t} word scan breaks the scaling law {law}"))
        if out["delahaye"] != law:
            bad.append(("constructions", f"delahaye_counts t={guard_t} {out['delahaye']} != {law}"))
        rows = out["prop42"]["schedule"]
        want = [prop42_c1_closed_form(kk) for kk in range(1, depth + 1)]
        if [F(row["c1_num"], row["c1_den"]) for row in rows] != want:
            bad.append(("constructions", "prop42 C_1 values differ from the closed form"))
        if not ref:
            ref["c_m"] = F(oracles.orbit_pair_count(orbit, orbit_m, orbit_eps), p * p)
            ref["c_1"] = F(oracles.orbit_pair_count(orbit, 1, orbit_eps), p * p)
            ref["ties"] = orbit_eps in (oracles.orbit_distances(orbit, orbit_m)
                                        | oracles.orbit_distances(orbit, 1))
        if out["c_m"] != ref["c_m"]:
            bad.append(("finite_omega", f"closed form {out['c_m']} != {ref['c_m']}"))
        if out["rdet"] != ref["c_m"] / ref["c_1"]:
            bad.append(("finite_omega", f"rdet {out['rdet']} != c_m/c_1"))
        if out["warned"] != ref["ties"]:
            bad.append(("finite_omega", f"excluded-threshold warning {out['warned']}, tie {ref['ties']}"))
        pairs = out["pairs"]
        bound = 4 * (cn - 1)
        if len(pairs) > bound or (extremal and len(pairs) != bound):
            bad.append(("intervals", f"|epsilon_pairs| = {len(pairs)} against 4(n-1) = {bound}"))
        if any((b, a) not in pairs.pairs for a, b in pairs.pairs):
            bad.append(("intervals", "epsilon_pairs is not symmetric"))
        return bad

    slot = f"delahaye r={r} t={t} k={k}; prop42 depth {depth}; orbit p={p}; " \
           f"{'extremal' if extremal else 'random'} config n={cn}"
    return Job(slot, run, check, {"n": cn, "m": m_max, "p_t": 2 ** t, "p": p,
                                  "r": r, "depth": depth})


def symbolic(rnd: random.Random, size: dict) -> list[Job]:
    return [symbolic_job(rnd, size, r, extremal) for r in (5, 6, 7) for extremal in (True, False)]


# ---------------------------------------------------------------------------
# cli_artifacts
# ---------------------------------------------------------------------------

def _cli_job(slot, argv, artifact, check_bytes, pairs, workdir, inputs=None):
    """One subcommand through cli.main.  Its artifact must be byte-identical
    on every repetition, and is checked once for content."""
    path = os.path.join(workdir, artifact) if artifact else None
    if path:
        argv = argv + ["--output", path]
    name = argv[0]

    def run(L):
        if path and os.path.exists(path):
            os.remove(path)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = L.cli.main(argv)
        data = b""
        if path and os.path.exists(path):
            with open(path, "rb") as fh:
                data = fh.read()
        out = stdout.getvalue().encode()
        L.pairs(pairs)
        L.count("cli.artifact_bytes", len(out) + len(data))
        if code != 0:
            L.count("cli.nonzero_exits")
        return {"code": code, "stdout": out, "file": data, "stderr": stderr.getvalue()}

    seen = {}

    def check(out):
        if out["code"] != 0:
            return [("cli", f"{name} exited {out['code']}: {out['stderr'].strip()}")]
        digest = hashlib.sha256(out["stdout"] + b"\0" + out["file"]).hexdigest()
        if "digest" not in seen:
            seen["digest"] = digest
            seen["problems"] = [("cli", f"{name}: {p}")
                                for p in check_bytes(out["stdout"], out["file"])]
        elif digest != seen["digest"]:
            return [("cli", f"{name} artifact bytes changed between repetitions")]
        return seen["problems"]

    return Job(slot, run, check, {"cmd": name}, inputs or {})


def _table(data: bytes) -> list[list[str]]:
    return [line.split(",") for line in data.decode().splitlines()[1:]]


def _write_map(f: PiecewiseLinearMap, path: str) -> str:
    with open(path, "w") as fh:
        fh.write(f.to_json())
    return path


def _pgm_ones(data: bytes) -> int:
    return data.split(b"\n", 2)[2].count(b"1")


def cli_artifacts(rnd: random.Random, size: dict, workdir: str) -> list[Job]:
    """Every subcommand once per cycle, on seeded map files and arguments."""
    f, cycle = plateau_map(rnd, rnd.randint(2, 4))
    x0 = F(rnd.randint(1, 96), 97)
    eps = rnd.choice(sorted({abs(a - b) for a in cycle for b in cycle if a != b}))
    src = ["--map", _write_map(f, os.path.join(workdir, "plateau.json")), "--x0", str(x0),
           "--epsilon", str(eps)]
    orbit = oracles.pl_orbit(f, x0, max(size["corrsum_n"], size["rdet_n"], size["det_n"]) + 2)

    def ratio_check(kind, m, ks):
        def check(stdout, data):
            rows = _table(data)
            if [int(row[0]) for row in rows] != ks:
                return [f"{kind} table rows {[row[0] for row in rows]} != schedule {ks}"]
            bad = []
            for row in rows:
                k, v = int(row[0]), F(int(row[1]), int(row[2]))
                n1 = oracles.c1_count(orbit, k, eps)
                d = v * n1    # rdet: N_m; det: m N_m - (m-1) N_(m+1)
                if d.denominator != 1 or not k <= d <= (n1 if kind == "rdet" else m * n1):
                    bad.append(f"{kind}({k}) = {v} is not a pair-count ratio over N_1 = {n1}")
            return bad
        return check

    def corrsum_check(ks):
        def check(stdout, data):
            want = [F(oracles.c1_count(orbit, k, eps), k * k) for k in ks]
            got = [F(int(row[1]), int(row[2])) for row in _table(data)]
            return [] if got == want else [f"C_1 column {got} != sort-and-bisect {want}"]
        return check

    jobs = []
    n = size["corrsum_n"]
    ks = [n // 4, n // 2, n]
    jobs.append(_cli_job("corrsum exact m=1", ["corrsum", *src, "--m", "1", "--schedule",
                         ",".join(map(str, ks))], "corrsum.csv", corrsum_check(ks),
                         sum(k * k for k in ks), workdir))
    n = size["rdet_n"]
    jobs.append(_cli_job("rdet exact m=2", ["rdet", *src, "--m", "2", "--n", str(n)],
                         "rdet.csv", ratio_check("rdet", 2, [n]), 2 * n * n, workdir))
    n = size["det_n"]
    ks = [n // 2, n]
    jobs.append(_cli_job("det exact m=2", ["det", *src, "--m", "2", "--schedule",
                         ",".join(map(str, ks))], "det.csv", ratio_check("det", 2, ks),
                         3 * sum(k * k for k in ks), workdir))

    tent = tent_map(rnd)
    tx0, teps = F(rnd.randint(10, 90), 101), F(rnd.randint(1, 9), 200)
    n = size["rplot_n"]
    tent_pts = tuple(oracles.pl_orbit(tent, float(tx0), n))
    tent_ones = oracles.c1_count(tent_pts, n, float(teps))

    def tent_check(stdout, data, n=n):
        head = data.split(b"\n", 2)[:2]
        ones = _pgm_ones(data)
        if head != [b"P1", f"{n} {n}".encode()] or ones != tent_ones:
            return [f"bitmap header {head}, popcount {ones} != {tent_ones}"]
        return []
    jobs.append(_cli_job("rplot float map m=1", ["rplot", "--map", _write_map(
        tent, os.path.join(workdir, "tent.json")), "--x0", str(tx0), "--float", "--m", "1",
        "--epsilon", str(teps), "--n", str(n)], "tent.pgm", tent_check, n * n, workdir,
        {"kind": "rplot", "points": tent_pts, "n": n, "eps": float(teps)}))

    depth = size["rplot_depth"]
    n = prop42_schedule_n(depth)
    prop42_ones = prop42_c1_closed_form(depth) * n * n

    def prop42_check(stdout, data):
        ones = _pgm_ones(data)
        return [] if ones == prop42_ones else [f"prop42 bitmap popcount {ones} != {prop42_ones}"]
    jobs.append(_cli_job("rplot prop42 m=1", ["rplot", "--construction", "prop42", "--depth",
                         str(depth), "--m", "1", "--epsilon", "1/2", "--n", str(n)],
                         "prop42.pgm", prop42_check, n * n, workdir))

    n = size["config_n"]
    bound = 4 * (n - 1)

    def config_check(stdout, data):
        rep = json.loads(stdout)
        ok = rep["count"] == rep["bound"] == bound and rep["attains_bound"]
        return [] if ok else [f"extremal count {rep['count']} != 4(n-1) = {bound}"]
    jobs.append(_cli_job("config extremal", ["config", "--extremal", "--n", str(n), "--epsilon",
                         str(F(rnd.randint(1, 9), 10))], "config.json", config_check, n * n,
                         workdir))

    r = rnd.choice((5, 6, 7))
    ts = size["solenoid_t"]

    def solenoid_check(stdout, data):
        bad = []
        rows = _table(data)
        if [int(row[0]) for row in rows] != list(ts):
            return [f"solenoid rows {[row[0] for row in rows]} != t-schedule {ts}"]
        for row in rows:
            t, p_t, m = int(row[0]), int(row[1]), int(row[2])
            lo, hi = F(row[7]), F(row[8])
            if p_t != 2 ** t or not 0 <= hi - lo <= F(4 * m * (p_t - 1), p_t ** 2):
                bad.append(f"t={t} enclosure [{lo}, {hi}] wider than 4m(p_t-1)/p_t^2")
        return bad
    jobs.append(_cli_job("solenoid", ["solenoid", "--r", str(r), "--m", "2", "--epsilon",
                         str(F(1, r ** rnd.randint(1, 2))), "--t-schedule",
                         ",".join(map(str, ts))], "counts.csv", solenoid_check,
                         sum(4 ** t for t in ts), workdir))

    depth = size["prop42_depth"]
    c1_want = [prop42_c1_closed_form(k) for k in range(1, depth + 1)]

    def c1_check(stdout, data):
        got = [F(int(row[2]), int(row[3])) for row in _table(data)]
        return [] if got == c1_want else ["c1-table differs from prop42_c1_closed_form"]
    jobs.append(_cli_job("prop42 c1-table", ["prop42", "--depth", str(depth), "--emit",
                         "c1-table"], "c1.csv", c1_check, 0, workdir,
                         {"kind": "prop42", "depth": depth}))

    r, k, t = rnd.choice((5, 6, 7)), rnd.randint(1, 3), size["prop52_t"]
    law = delahaye_counts_formula(k, 2, t)

    def prop52_check(stdout, data):
        rep = json.loads(data)
        ok = (rep["N1_closed"], rep["Nm_closed"]) == law and rep["rdet_limit"] == "2/3"
        return [] if ok else [f"prop52 counts {(rep['N1_closed'], rep['Nm_closed'])} != {law}"]
    jobs.append(_cli_job("prop52", ["prop52", "--r", str(r), "--k", str(k), "--m", "2",
                         "--t", str(t)], "prop52.json", prop52_check, 0, workdir,
                         {"kind": "prop52", "r": r, "k": k, "t": t}))
    return jobs


WORKLOADS = ("orbit_exact", "orbit_float_long", "symbolic", "cli_artifacts")


def build_jobs(workload: str, seed: int, size_name: str, workdir: str) -> list[Job]:
    """Seeded inputs for one workload; the same seed gives the same jobs."""
    rnd = random.Random(f"{workload}:{seed}")
    size = SIZES[size_name][workload]
    if workload == "cli_artifacts":
        return cli_artifacts(rnd, size, workdir)
    return {"orbit_exact": orbit_exact, "orbit_float_long": orbit_float_long,
            "symbolic": symbolic}[workload](rnd, size)
