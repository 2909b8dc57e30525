"""Tests of the benchmark itself (not of the program it measures).

Run from the root of a checkout::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import drivers, inputs  # noqa: E402

RUN = [sys.executable, "perfbench/run.py"]
WORKLOADS = ("generate-verify", "campaign-cold", "service-replay")


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        RUN + list(args), cwd=cwd, capture_output=True, text=True, timeout=300
    )


def test_workload_names_match_the_spec():
    names = [workload["name"] for workload in benchmark_spec()["workloads"]]
    assert names == list(WORKLOADS)
    assert set(names) == set(drivers.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    result = run("--workload", workload, "--seed", "1", "--seconds", "1",
                 "--size", "tiny", "--trace", str(trace))
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.strip().splitlines()
    report = json.loads(lines[-1])
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] is True and report["failed"] == 0
    assert report["attempted"] >= 1
    wanted = benchmark_spec()["per_layer" if trace else "end_to_end"]
    assert set(report["metrics"]) == {metric["name"] for metric in wanted}
    human = "\n".join(lines[:-1])
    for metric in wanted:
        value = report["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert isinstance(value["value"], float)
        assert f" {metric['name']} " in human and f" {metric['unit']}" in human
    if not trace:
        assert "failed_ratio" in human
        for metric in wanted:
            assert report["metrics"][metric["name"]]["value"] > 0


def test_same_seed_gives_same_inputs_and_a_different_seed_different_ones():
    plans = (
        lambda seed: inputs.generate_plan(seed, "tiny"),
        lambda seed: inputs.cold_request(seed, 0, "tiny"),
        lambda seed: inputs.service_request(seed, 0, "tiny"),
    )
    for plan in plans:
        assert plan(7) == plan(7)
        assert plan(7) != plan(8)


def test_same_inputs_give_the_same_digests():
    from repro.core.sradgen import generate
    from repro.engine.runner import evaluate_job
    from repro.workloads.registry import build_pattern

    workload, rows, cols = inputs.generate_plan(3, "tiny")[0]
    vhdl = [
        drivers.vhdl_digest(
            generate(build_pattern(workload, rows, cols).to_sequence()).vhdl
        )
        for _ in range(2)
    ]
    assert vhdl[0] == vhdl[1]
    job = drivers.build_jobs(inputs.cold_request(3, 0, "tiny")[:1])[0]
    assert drivers.record_digest(evaluate_job(job)) == drivers.record_digest(
        evaluate_job(job)
    )


def test_every_request_input_has_an_expected_digest():
    with open(ROOT / "perfbench" / "expected.json", encoding="utf-8") as handle:
        expected = json.load(handle)
    for stratum, geometries in inputs.generate_universe().items():
        for rows, cols in geometries:
            assert f"{stratum[0]}/{rows}x{cols}" in expected["generate"]
    for plan in inputs.cold_universe() + inputs.warm_universe():
        assert inputs.job_label(plan) in expected["records"]


@pytest.mark.parametrize("workload", ["generate-verify", "campaign-cold"])
def test_a_corrupted_expected_digest_fails_the_run(tmp_path, workload):
    with open(ROOT / "perfbench" / "expected.json", encoding="utf-8") as handle:
        expected = json.load(handle)
    for point in expected["generate"].values():
        point["vhdl_sha256"] = "0" * 64
    expected["records"] = {label: "0" * 64 for label in expected["records"]}
    corrupted = tmp_path / "expected.json"
    corrupted.write_text(json.dumps(expected), encoding="utf-8")
    result = run("--workload", workload, "--seed", "1", "--seconds", "1",
                 "--size", "tiny", "--expected", str(corrupted))
    assert result.returncode != 0
    report = json.loads(result.stdout.strip().splitlines()[-1])
    assert report["correct"] is False
    assert report["failed"] > 0
    failed_ratio = [line for line in result.stdout.splitlines() if "failed_ratio" in line]
    assert float(failed_ratio[0].split()[1]) > 0


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = run("--workload", "campaign-cold", "--seed", "1", "--seconds", "1",
                 cwd=tmp_path)
    assert result.returncode != 0
    assert '"metrics"' not in result.stdout
