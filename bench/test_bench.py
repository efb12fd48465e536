"""Tests of the benchmark itself: negative controls and tiny smoke runs.

    python3 -m pytest bench/test_bench.py -q

Each negative control corrupts one output the way a broken program would and
asserts that the job counts as failed.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import worker  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from rampforge import params, verify  # noqa: E402

TINY = 0.02


def tiny_jobs(workload, count):
    return workloads.make_jobs(workload, seed=7, count=count, size=TINY)


@pytest.fixture
def cli_env():
    return worker.pinned_env()


@pytest.mark.parametrize("workload,count", [("sweep3d", 3), ("planar2d", 2), ("cli", 6)])
def test_tiny_smoke_run_has_no_failures(workload, count, tmp_path, cli_env):
    run_job = workloads.runner(workload, cli_env)
    for job in tiny_jobs(workload, count):
        _latency, problems = workloads.attempt(workload, job, tmp_path, run_job)
        assert problems == [], (job, problems)


def test_job_mix_is_the_same_for_every_seed():
    kinds = [[job["kind"] for job in workloads.make_jobs("sweep3d", seed, 6)]
             for seed in (1, 2)]
    assert kinds[0] == kinds[1] == ["horizontal", "upslope", "blend"] * 2
    assert workloads.make_jobs("planar2d", 3, 4) == workloads.make_jobs("planar2d", 3, 4)
    assert workloads.make_jobs("planar2d", 3, 4) != workloads.make_jobs("planar2d", 4, 4)


def test_negative_control_wrong_mu_in_2d(tmp_path):
    job = tiny_jobs("planar2d", 1)[0]

    def wrong_mu(j, workdir):
        out = workloads.run_planar2d(j, workdir)
        spec = out["spec"]
        off = params.spec_from_mu(1.1 * spec.mu, g=spec.g, v=spec.v, m=spec.m)
        out["report"] = verify.verify_2d(off, out["ramp"])
        return out

    _latency, problems = workloads.attempt("planar2d", job, tmp_path, wrong_mu)
    assert any("verify_2d verdict" in p for p in problems)


def test_negative_control_stretched_horizontal_curve(tmp_path):
    job = next(j for j in tiny_jobs("sweep3d", 3) if j["kind"] == "horizontal")

    def stretched(j, workdir):
        out = workloads.run_sweep3d(j, workdir)
        curve = dataclasses.replace(out["curve"], alpha=1.5 * out["curve"].alpha)
        out.update(curve=curve, report=verify.verify_3d(out["spec"], curve))
        return out

    _latency, problems = workloads.attempt("sweep3d", job, tmp_path, stretched)
    assert any("height off its closed form" in p for p in problems)


@pytest.mark.parametrize("name,fname", [("generate2d", "gen2d.csv"),
                                        ("generate3d", "gen3d.curve.csv"),
                                        ("simulate", "frames.jsonl")])
def test_negative_control_cli_file_missing_a_row(name, fname, tmp_path, cli_env):
    job = next(j for j in tiny_jobs("cli", 6) if j["name"] == name)

    def drop_row(j, workdir):
        out = workloads.run_cli(j, workdir, cli_env)
        path = workdir / fname
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-2] + lines[-1:]))
        return out

    _latency, problems = workloads.attempt("cli", job, tmp_path, drop_row)
    assert any(fname in p for p in problems)


def test_traced_field_evals_per_step(tmp_path):
    job = next(j for j in tiny_jobs("sweep3d", 3) if j["kind"] == "blend")
    tracer = spans.Tracer()
    saved = spans.install(tracer)
    try:
        out = workloads.run_sweep3d(job, tmp_path)
    finally:
        spans.uninstall(saved)
    n = out["curve"].s.shape[0] - 1
    metrics = spans.layer_metrics(tracer.spans, jobs=1)
    assert metrics["ramp3d.steps"] == n
    assert metrics["ramp3d.field_evals"] == 4 * n + 2
    assert metrics["ramp3d.field_evals_per_step"] == (4 * n + 2) / n
    assert metrics["verify.samples"] == out["report"].t.shape[0]
    assert metrics["ramp3d.self_ms"] > 0.0


def test_tail_is_highest_percentile_with_ten_beyond():
    latencies = list(range(1, 101))
    assert run.tail(latencies) == (90.0, 90, 10)
    assert run.tail(latencies[:40]) == (75.0, 30, 10)
    assert run.tail(latencies[:5]) == (50.0, 3, 2)
    # a run faster than reference speed keeps the reference's percentile
    assert run.tail(latencies, expected=60) == (75.0, 75, 25)


def test_benchmark_alone_fails_without_printing_a_result(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_golden_file_covers_every_cli_output():
    golden = json.loads(workloads.GOLDEN_FILE.read_text())
    cycle = workloads.cli_cycle(np.random.default_rng(workloads.GOLDEN_SEED))
    assert sorted(golden) == sorted(job["name"] for job in cycle)
    assert golden["generate3d"].keys() == {"stdout", "gen3d.obj", "gen3d.curve.csv",
                                           "gen3d.report.json"}
