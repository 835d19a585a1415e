"""The benchmark's own checks.

A one-case run of each workload must print exactly the metrics
BENCHMARK.json names, each with its unit, and a traced and an untraced run
at one seed must agree on the identity digest and the exact counters.
Without the program's sources next to it the benchmark must refuse to run.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7


def bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace),
         "--cases", "1"],
        cwd=cwd, capture_output=True, text=True, timeout=120)


def result(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    report, last = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0, report["failures"]
    assert report["seed"] == SEED
    return report, last["metrics"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_and_reruns_identical(workload):
    plain_report, plain = result(workload, 0)
    traced_report, traced = result(workload, 1)
    for metrics, kind in ((plain, "end_to_end"), (traced, "per_layer")):
        assert {k: v["unit"] for k, v in metrics.items()} == \
            {m["name"]: m["unit"] for m in SPEC[kind]}
        assert all(isinstance(v["value"], (int, float)) for v in metrics.values())
    assert plain_report["digest"] == traced_report["digest"]
    assert plain["sim_cycles"]["value"] == traced["machine.cycles"]["value"]
    assert plain["packets"]["value"] == traced["machine.packets"]["value"]
    assert plain["energy_proxy"]["value"] == pytest.approx(
        traced["machine.activations"]["value"]
        + 0.1 * traced["machine.hops"]["value"], rel=1e-12)
    assert traced["machine.events"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(SPEC["workloads"][0]["name"], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
