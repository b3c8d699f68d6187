"""Smoke test of the benchmark: tiny inputs, every named metric, every check.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
There are no timing bounds here; the benchmark itself reports timings.
"""
import importlib.util
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _load_runner():
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH_DIR / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


runner = _load_runner()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_present_and_checks_pass(workload, trace):
    result = runner.main(["--workload", workload, "--seed", "7", "--seconds", "1",
                          "--trace", str(trace), "--size", "tiny"])
    assert result["correct"], result["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], float) and math.isfinite(m["value"]), name
        if not trace:
            assert m["value"] > 0, name


def test_same_seed_same_inputs(tmp_path):
    sys.path.insert(0, str(BENCH_DIR))
    runner.import_package()
    import workloads
    for name in ("orbit_exact", "symbolic"):
        a = workloads.build_jobs(name, 11, "tiny", str(tmp_path))
        b = workloads.build_jobs(name, 11, "tiny", str(tmp_path))
        assert [j.slot for j in a] == [j.slot for j in b]
        assert [j.inputs for j in a] == [j.inputs for j in b]


def test_refuses_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "orbit_exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
