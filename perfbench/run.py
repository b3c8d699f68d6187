#!/usr/bin/env python3
"""Benchmark of the rqamaps package: seeded workloads run as a closed loop of
jobs, end-to-end job metrics, and a traced run for per-layer metrics.

Run from the repository root, with nothing installed:

    python3 perfbench/run.py --workload orbit_exact --seed 1 --seconds 25 --trace 0

One client in one process issues one job at a time, single-threaded, and
issues the next only when the previous one has finished and been checked.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
say the same for a reader.  perfbench/README.md defines every metric.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import reference   # noqa: E402  (package-free, so safe before import_package)

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rqamaps"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5      # set-up is measured this often per run; the median is reported
PROBE_REPS = 3         # repetitions of each traced-run probe
TAIL_BEYOND = 10       # jobs that must lie beyond the tail percentile
REF_EVERY_S = 0.25     # a reference pass runs when this long has passed since the last one

# The end-to-end metrics in BENCHMARK.json.  On a shared machine whose speed
# drifts by up to 1.8x for seconds to minutes at a time, wall-clock job rates
# do not repeat within the bound from run to run; the *_norm rates divide
# each job's latency by the reference passes timed beside it (reference.py).
# The wall-clock loop metrics below are printed too, and are per-layer
# metrics of the traced run.
END_TO_END = {"setup_s": "s", "jobs_per_s_norm": "1/s", "pairs_per_s_norm": "1/s",
              "peak_rss_mb": "MB"}
LOOP_METRICS = {"jobs_per_s": "1/s", "job_s_p50": "s", "job_s_tail": "s",
                "job_s_tail_pct": "%", "pairs_per_s": "1/s", "jobs_failed_ratio": "ratio",
                "jobs_per_s_best": "1/s", "pairs_per_s_best": "1/s",
                "ref_slowdown": "ratio"}

# Per-call medians: metric -> span name.
CALL_METRICS = {
    "dynamics.detect_periodic_s": "dynamics.detect_periodic",
    "rqa.correlation_sum_s": "rqa.correlation_sum",
    "rqa.recurrence_determinism_s": "rqa.recurrence_determinism",
    "rqa.rqa_det_s": "rqa.rqa_det",
    "rqa.estimate_asymptotics_s": "rqa.estimate_asymptotics",
    "rqa.recurrence_matrix_s": "rqa.recurrence_matrix",
    "rqa.pgm_bytes_s": "rqa.pgm_bytes",
    "solenoidal.max_diam_s": "solenoidal.max_diam",
    "solenoidal.counts_by_window_s": "solenoidal.counts_by_window",
    "solenoidal.asymptotic_corr_sum_s": "solenoidal.asymptotic_corr_sum",
    "constructions.build_prop42_s": "constructions.build_prop42",
    "constructions.prop42_report_s": "constructions.prop42_report",
    "constructions.build_delahaye_s": "constructions.build_delahaye",
    "constructions.delahaye_counts_s": "constructions.delahaye_counts",
    "finite_omega.closed_form_s": "finite_omega.closed_form_corr_sum",
    "finite_omega.rdet_finite_s": "finite_omega.asymptotic_rdet_finite",
    "intervals.epsilon_pairs_s": "intervals.epsilon_pairs",
}
# Work counted by the jobs, reported per traced job.
JOB_COUNTS = ("dynamics.points", "rqa.pairs_decided", "solenoidal.word_pairs",
              "solenoidal.guard_trips", "constructions.delahaye_formula_fallbacks",
              "finite_omega.orbit_pairs", "intervals.config_intervals",
              "intervals.pairs_found", "cli.artifact_bytes", "cli.nonzero_exits")
BACKENDS = ("float", "int64", "bigint")
CLI_COMMANDS = ("corrsum", "rdet", "det", "rplot", "config", "solenoid", "prop42", "prop52")


def per_layer_units(layers) -> dict:
    """Every per-layer metric name with its unit."""
    units = dict(LOOP_METRICS)
    units.update({name: "s" for name in CALL_METRICS})
    units.update({name: "count" for name in JOB_COUNTS})
    units.update({"dynamics.iterate_exact_s": "s", "dynamics.iterate_float_s": "s",
                  "rational.scale_bits_p50": "bits", "rational.scale_bits_max": "bits",
                  "rqa.det_to_csum_ratio": "ratio", "rqa.schedule_to_max_ratio": "ratio",
                  "rqa.recurrence_rate": "ratio", "solenoidal.ns_per_word_pair": "ns",
                  "rqa.threads2_speedup": "ratio", "rqa.threads2_speedup_iqr": "ratio",
                  "solenoidal.threads2_speedup": "ratio",
                  "solenoidal.threads2_speedup_iqr": "ratio",
                  "trace.jobs_per_s_traced": "1/s", "trace.overhead_jobs_per_s": "1/s"})
    for b in BACKENDS:
        units[f"rqa.calls.{b}"] = "count"
        units[f"rqa.ns_per_pair.{b}"] = "ns"
    for cmd in CLI_COMMANDS:
        units[f"cli.{cmd}_s"] = "s"
    for layer in layers:
        units[f"{layer}.failed"] = "count"
        if layer != "rational":   # the benchmark calls it only outside spans
            units.update({f"{layer}.busy_s": "s", f"{layer}.self_s": "s",
                          f"{layer}.calls": "count"})
    return units


def import_package():
    """Put the checkout's package source first on the path, or stop."""
    if not (PACKAGE / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {PACKAGE}")
    sys.path.insert(0, str(PACKAGE.parent))
    import rqamaps
    if Path(rqamaps.__file__).resolve().parent != PACKAGE.resolve():
        sys.exit(f"perfbench: imported rqamaps from {rqamaps.__file__}, not {PACKAGE}")


@dataclass
class Record:
    job_id: int
    slot: int
    latency: float
    traced: bool
    pairs: int
    problems: list
    ref: float = 0.0   # the slot's reference time, mean of the passes just before and after


def run_jobs(jobs, plan, seconds: float, mixes) -> list[Record]:
    """Closed loop: run the planned (slot, layers) jobs until the deadline.

    A reference pass over every component in ``mixes`` (per slot) runs
    first, last, and between jobs whenever REF_EVERY_S has passed since the
    last one.
    """
    names = sorted({name for mix in mixes for name in mix})
    records, pending = [], []
    ref = reference.timed(names)
    last_ref = time.perf_counter()
    for record in _jobs_until(jobs, plan, seconds):
        records.append(record)
        pending.append(record)
        if time.perf_counter() - last_ref >= REF_EVERY_S:
            now = reference.timed(names)
            for r in pending:
                r.ref = sum(ref[c] + now[c] for c in mixes[r.slot]) / 2
            pending, ref, last_ref = [], now, time.perf_counter()
    if pending:
        now = reference.timed(names)
        for r in pending:
            r.ref = sum(ref[c] + now[c] for c in mixes[r.slot]) / 2
    return records


def _jobs_until(jobs, plan, seconds: float):
    """Run the planned (slot, layers) jobs one at a time until the deadline."""
    deadline = time.perf_counter() + seconds
    for job_id, (slot, L) in enumerate(plan):
        if time.perf_counter() >= deadline:
            break
        job = jobs[slot]
        before = L.counts["pairs"]
        t0 = time.perf_counter()
        try:
            out = L.tracer.job(job_id, job.run, L) if L.tracer else job.run(L)
            error = None
        except Exception as exc:   # a failed job is counted, and the loop goes on
            out, error = None, exc
        latency = time.perf_counter() - t0
        if error is not None:
            layer = (L.tracer.failed_layer(job_id) if L.tracer else None) or "unknown"
            problems = [(layer, "".join(traceback.format_exception_only(error)).strip())]
        else:
            try:
                problems = job.check(out)
            except Exception:
                problems = [("perfbench", traceback.format_exc())]
        yield Record(job_id, slot, latency, L.tracer is not None,
                     L.counts["pairs"] - before, problems)


def measure_setup(args) -> list[float]:
    """Seconds from process start to the first job being ready, per fresh process."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--size", args.size]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        times.append(t1 - t0)
    return times


def loop_metrics(records, nominal_s) -> dict:
    """Job metrics of a closed loop, from its untraced records.

    ``*_best`` take each slot's fastest repetition in the run.  ``*_norm``
    take each slot's median cost in reference passes, and scale it to a
    machine whose reference pass for that slot takes ``nominal_s[slot]``.
    """
    lat = sorted(r.latency for r in records)
    busy, n = sum(lat), len(lat)
    tail = max(0, n - 1 - TAIL_BEYOND)
    best = {}
    for r in records:
        if r.slot not in best or r.latency < best[r.slot].latency:
            best[r.slot] = r
    best_s = sum(r.latency for r in best.values())
    by_slot = {}
    for r in records:
        by_slot.setdefault(r.slot, []).append(r)
    norm_s = sum(nominal_s[slot] * statistics.median(r.latency / r.ref for r in rs)
                 for slot, rs in by_slot.items())
    norm_pairs = sum(statistics.median(r.pairs for r in rs) for rs in by_slot.values())
    return {
        "jobs_per_s": n / busy,
        "job_s_p50": statistics.median(lat),
        "job_s_tail": lat[tail],
        "job_s_tail_pct": 100.0 * (tail + 1) / n,
        "pairs_per_s": sum(r.pairs for r in records) / busy,
        "jobs_failed_ratio": sum(1 for r in records if r.problems) / n,
        "jobs_per_s_best": len(best) / best_s,
        "pairs_per_s_best": sum(r.pairs for r in best.values()) / best_s,
        "jobs_per_s_norm": len(by_slot) / norm_s,
        "pairs_per_s_norm": norm_pairs / norm_s,
        "ref_slowdown": statistics.median(r.ref / nominal_s[r.slot] for r in records),
    }


def per_layer(jobs, records, tracer, counts, probe_metrics, layers, nominal_s) -> dict:
    from tracing import call_times, layer_times, median_or_zero
    traced = [r for r in records if r.traced]
    untraced = [r for r in records if not r.traced]
    nt = max(1, len(traced))
    slot_of = {r.job_id: r.slot for r in traced}
    job_spans = [s for s in tracer.spans if s.job in slot_of]
    probe_spans = [s for s in tracer.spans if s.job < 0]
    ok_job = [s for s in job_spans if not s.error]
    out = {}

    by_name = call_times(ok_job)
    by_probe = call_times([s for s in probe_spans if not s.error])
    for metric, name in CALL_METRICS.items():
        out[metric] = median_or_zero(by_name.get(name) or by_probe.get(name))

    def fact(span, key):
        return jobs[slot_of[span.job]].facts.get(key)

    for arith in ("exact", "float"):
        out[f"dynamics.iterate_{arith}_s"] = median_or_zero(
            [s.end - s.start for s in ok_job
             if s.name == "dynamics.iterate" and fact(s, "arith") == arith])
    for cmd in CLI_COMMANDS:
        out[f"cli.{cmd}_s"] = median_or_zero(
            [s.end - s.start for s in ok_job if s.name == "cli.main" and fact(s, "cmd") == cmd])

    for name in JOB_COUNTS:
        out[name] = counts[name] / nt
    rqa_spans = [s for s in job_spans + probe_spans if s.layer == "rqa" and s.pairs]
    for b in BACKENDS:
        out[f"rqa.calls.{b}"] = sum(1 for s in job_spans
                                    if s.layer == "rqa" and fact(s, "backend") == b) / nt
        mine = [s for s in rqa_spans if (s.backend or fact(s, "backend")) == b]
        pairs = sum(s.pairs for s in mine)
        out[f"rqa.ns_per_pair.{b}"] = 1e9 * sum(s.end - s.start for s in mine) / pairs if pairs else 0.0
    sol = [s for s in ok_job + probe_spans if s.layer == "solenoidal" and s.pairs]
    sol_pairs = sum(s.pairs for s in sol)
    out["solenoidal.ns_per_word_pair"] = (
        1e9 * sum(s.end - s.start for s in sol) / sol_pairs if sol_pairs else 0.0)

    bits = [jobs[r.slot].facts.get("scale_bits", 0) for r in traced]
    bits = [b for b in bits if b]
    out["rational.scale_bits_p50"] = median_or_zero(bits)
    out["rational.scale_bits_max"] = max(bits, default=0)
    rates = [jobs[r.slot].facts["recurrence_rate"] for r in traced
             if "recurrence_rate" in jobs[r.slot].facts]
    out["rqa.recurrence_rate"] = float(statistics.fmean(rates)) if rates else 0.0

    for layer, row in layer_times(job_spans).items():
        out[f"{layer}.busy_s"] = row["busy_s"] / nt
        out[f"{layer}.self_s"] = row["self_s"] / nt
        out[f"{layer}.calls"] = row["calls"] / nt
    for layer in layers:
        out[f"{layer}.failed"] = sum(1 for r in traced if any(l == layer for l, _ in r.problems))

    out.update({k: v for k, v in loop_metrics(untraced, nominal_s).items() if k in LOOP_METRICS})
    out["jobs_failed_ratio"] = sum(1 for r in records if r.problems) / len(records)
    out["trace.jobs_per_s_traced"] = (len(traced) / sum(r.latency for r in traced)
                                      if traced else 0.0)
    out["trace.overhead_jobs_per_s"] = out["jobs_per_s"] - out["trace.jobs_per_s_traced"]
    out.update(probe_metrics)
    return out


def run_facts(args, jobs, records) -> dict:
    import numpy
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    ran = Counter(r.slot for r in records)
    facts = [jobs[s].facts for s in ran]

    def span(key):
        vals = [f[key] for f in facts if key in f]
        return [min(vals), max(vals)] if vals else None

    backends = Counter()
    families = Counter()
    for slot, k in ran.items():
        f = jobs[slot].facts
        if "backend" in f:
            backends[f["backend"]] += k
        if "family" in f:
            families[f["family"]] += k
    total = sum(ran.values())
    bits = sorted(f["scale_bits"] for f in facts if f.get("scale_bits"))
    rates = sorted(float(f["recurrence_rate"]) for f in facts if "recurrence_rate" in f)
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "backend_share": {b: k / total for b, k in backends.items()},
        "family_share": {f: k / total for f, k in families.items()},
        "scale_bits": [bits[0], statistics.median(bits), bits[-1]] if bits else None,
        "n_range": span("n"), "m_range": span("m"), "p_t_range": span("p_t"),
        "recurrence_rate": [rates[0], statistics.median(rates), rates[-1]] if rates else None,
        "slots": [jobs[s].slot for s in sorted(ran)],
    }


def main(argv=None) -> dict | None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("orbit_exact", "orbit_float_long", "symbolic", "cli_artifacts"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="length of the measured loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="input sizes; tiny is for the smoke test")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    import_package()
    import probes
    import tracing
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        jobs = workloads.build_jobs(args.workload, args.seed, args.size, workdir)
        if args.setup_probe:
            print("ready", flush=True)
            return None
        return measure(args, jobs, probes, tracing, workloads)


def measure(args, jobs, probes, tracing, workloads) -> dict:
    base = tracing.Layers()
    mixes = [reference.mix(args.workload, job.facts) for job in jobs]
    nominal_s = [sum(reference.NOMINAL_S[name] for name in mix) for mix in mixes]
    warm = run_jobs(jobs, [(0, base)], float("inf"), mixes)
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if not args.trace:
        setup = measure_setup(args)
        plan = ((slot, base) for slot in itertools.cycle(range(len(jobs))))
        records = run_jobs(jobs, plan, args.seconds, mixes)
        metrics = loop_metrics(records, nominal_s)
        metrics["setup_s"] = statistics.median(setup)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = END_TO_END
        result["also"] = {k: {"value": metrics[k], "unit": u} for k, u in LOOP_METRICS.items()}
        result["setup_samples_s"] = setup
        probe_problems = []
    else:
        tracer = tracing.Tracer()
        traced = tracing.Layers(tracer)

        def plan():   # each slot untraced and traced in turn, order alternating
            for c in itertools.count():
                for slot in range(len(jobs)):
                    pair = (base, traced) if c % 2 == 0 else (traced, base)
                    yield slot, pair[0]
                    yield slot, pair[1]

        records = run_jobs(jobs, plan(), args.seconds, mixes)
        probe_layers = tracing.Layers(tracer)
        threads_ok = len(os.sched_getaffinity(0)) >= 2
        size = workloads.SIZES[args.size][args.workload]
        if args.workload == "orbit_exact":   # one job per family: their kernels differ
            firsts = {j.facts["family"]: j for j in reversed(jobs)}
            probe_metrics, probe_problems = probes.orbit_probes(
                probe_layers, list(firsts.values()), PROBE_REPS)
        elif args.workload == "orbit_float_long":   # float cost does not depend on the family
            det_job = next(j for j in jobs if j.facts["task"] == "det")
            probe_metrics, probe_problems = probes.orbit_probes(
                probe_layers, [det_job], PROBE_REPS, det_job if threads_ok else None)
        elif args.workload == "symbolic":
            probe_metrics, probe_problems = probes.symbolic_probes(size, PROBE_REPS, threads_ok)
        else:
            probe_metrics, probe_problems = probes.cli_probes(probe_layers, jobs, PROBE_REPS)
        units = per_layer_units(tracing.LAYERS)
        metrics = per_layer(jobs, records, tracer, traced.counts, probe_metrics, tracing.LAYERS,
                            nominal_s)
        for layer, _ in probe_problems:
            metrics[f"{layer}.failed"] = metrics.get(f"{layer}.failed", 0) + 1
        result["unexercised"] = sorted(k for k in units if not metrics.get(k))
        tracing.write_spans(tracer.spans, OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json")

    failed = [r for r in records if r.problems]
    problems = [p for r in warm + failed for p in r.problems] + probe_problems
    result.update(
        correct=not problems,
        attempted=len(records),
        failed=len(failed),
        metrics={name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
                 for name, unit in units.items()},
        facts=run_facts(args, jobs, records),
        problems=[f"{layer}: {msg}" for layer, msg in problems[:50]],
        latencies=[[r.slot, r.latency, r.traced, r.ref] for r in records],
    )
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{tag}.json", "w") as fh:
        json.dump(result, fh, indent=1, default=str)
    report(result)
    return result


def report(result) -> None:
    """Human-readable lines; the JSON line follows them."""
    print(f"workload {result['workload']} seed {result['seed']} trace {result['trace']}: "
          f"{result['attempted']} jobs, {result['failed']} failed")
    for name, m in {**result["metrics"], **result.get("also", {})}.items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    if result.get("unexercised"):
        print("  not exercised by this workload (reported as 0): "
              + ", ".join(result["unexercised"]))
    print("facts: " + json.dumps(result["facts"], default=str))
    for p in result["problems"]:
        print("CHECK FAILED " + p, file=sys.stderr)


if __name__ == "__main__":
    res = main()
    if res is not None:
        print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
