"""Tests of the benchmark itself, on a handful of cheap requests per workload.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def handful(requests):
    """The smallest request of every kind in the cycle."""
    def size(req):
        x = req.expect
        return sum(v for v in x.values() if isinstance(v, int)) + sum(x.get("mults", []))

    chosen = {}
    for req in sorted(requests, key=size):
        chosen.setdefault(req.kind, req)
    return list(chosen.values())


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload):
    result, lines = run.run(workload, 3, 0, False, select=handful)
    assert result["correct"] and result["failed"] == 0, lines
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == _units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name, unit in got.items():
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                   for line in lines)

    result, lines = run.run(workload, 3, 0, True, select=handful)
    assert result["correct"], lines
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("per_layer")


def test_output_digest_repeats():
    def digest():
        _, lines = run.run("construct", 5, 0, False, select=handful)
        summary = next(line for line in lines if line.startswith("summary "))
        return json.loads(summary.split(" ", 1)[1])["output_digest"]

    assert digest() == digest()


def test_expected_pass_fed_a_perturbed_configuration_fails():
    def swap(requests):
        passing = next(r for r in requests if r.kind == "certify.grid")
        perturbed = next(r for r in requests if r.kind == "certify.perturbed")
        return [workloads.Request(passing.kind, perturbed.argv, passing.expect)]

    result, lines = run.run("certify", 3, 0, False, select=swap)
    assert result["failed"] == result["attempted"] == run.MIN_CYCLES
    assert not result["correct"]
    assert any(line.startswith("failed: certify.grid") for line in lines)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "certify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
