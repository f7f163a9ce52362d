"""Smoke test of the benchmark: the same code path at tiny bounds.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def test_definition_matches_the_metrics_the_runner_prints():
    bench = _benchmark_json()
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from uhsl2.cli import SUITES

    assert list(SUITES) == list(run.SUITES)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_prints_every_metric_and_passes_the_gate(trace):
    proc = _run("--workload", "all", "--smoke", "--seed", "3", "--seconds", "1",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    units = run.PER_LAYER if trace == "1" else run.END_TO_END
    per_workload = [json.loads(line) for line in lines[:-1] if line.startswith("{")]
    assert len(per_workload) == len(run.WORKLOADS)
    for result in per_workload:
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name, unit in units.items():
        assert sum(1 for line in lines
                   if line.startswith(f"  {name} = ") and line.endswith(f" {unit}")) \
            == len(run.WORKLOADS), name
    assert sum(1 for line in lines if line.startswith("  fail_ratio = 0 1")) \
        == len(run.WORKLOADS)
    assert json.loads(lines[-1])["correct"] is True


def test_gate_counts_a_changed_output_as_failed():
    with open(run.EXPECTED) as fh:
        want = json.load(fh)["dfun-tower"]["smoke"]
    spec = run.make_spec("dfun-tower", 0, True)
    sample = run.spawn(spec, deadline=time.monotonic() + 600)
    assert run.check("dfun-tower", sample, want) == (len(want["items"]), 0)
    sample["stdout"] = sample["stdout"].replace(b'"ok": true', b'"ok": false')
    attempted, failed = run.check("dfun-tower", sample, want)
    assert failed == 9 and attempted == len(want["items"])
    sample["rc"] = 1
    assert run.check("dfun-tower", sample, want) == (attempted, attempted)


def test_fails_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run("--workload", "verify-default", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
