"""rampforge benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload sweep3d --seed 1 --seconds 30 --trace 0

``--trace 0`` starts fresh worker processes one at a time: a few that only
set up (for the median set-up time) and one that also runs the timed closed
loop.  It prints the end-to-end metrics.  ``--trace 1`` runs one worker that
spends half the time untraced and half recording spans, and prints the
per-layer metrics.  Human-readable lines come first; the last line of stdout
is the JSON result ``{"correct", "attempted", "failed", "metrics"}``.  The
same result, with the environment record, is written under ``.bench_out/``.
See ``NOTES.md`` for why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import worker

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("sweep3d", "planar2d", "cli")
SETUPS = 7              # fresh set-up-only workers whose median gives setup_s
DEADLINE_S = 170        # the whole run, every worker included
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10         # samples that must lie beyond the reported tail


def nearest_rank(sorted_values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def tail(latencies: list[float], expected: int | None = None) -> tuple[float, float, int]:
    """Highest ladder percentile with at least ``MIN_BEYOND`` samples beyond
    it: ``(percentile, value, samples beyond)``.

    The percentile is chosen for ``min(len(latencies), expected)`` samples,
    where ``expected`` is the job count of the same run at reference speed,
    so a faster moment of the host does not move the tail to a higher
    percentile.  Falls back to the median when the run is too short.
    """
    values = sorted(latencies)
    n = len(values) if expected is None else max(1, min(len(values), expected))
    pct = 50.0
    for candidate in TAIL_LADDER:
        if n - math.ceil(candidate / 100.0 * n) >= MIN_BEYOND:
            pct = candidate
    return (pct, *nearest_rank(values, pct))


def environment(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=30)
        commit = proc.stdout.strip() or commit
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "seed": seed, "commit": commit}


def spawn(args, mode: str, workdir: Path, deadline: float) -> dict:
    """Start one worker, wait for it, return its JSON report.

    The worker leads its own process group, so a worker that overruns the
    deadline is killed together with any CLI process it started.
    """
    spawned_at = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
         "--spawned-at", repr(spawned_at), "--workdir", str(workdir)],
        env=worker.pinned_env(), stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise SystemExit(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def end_to_end(args, workdir: Path, deadline: float) -> tuple[dict, dict, dict]:
    """The five bounded metrics, at reference speed (see worker.py).

    ``jobs_per_s`` counts completed jobs per second of the loop's busy time
    (program and checks, not the calibration loop between jobs).
    """
    # set-up is process start and imports, so it is scaled by a fresh
    # interpreter importing numpy, timed before and after every set-up worker
    refs = [worker.import_reference()]
    setups = []
    for _ in range(SETUPS):
        setups.append(spawn(args, "setup", workdir, deadline)["setup_s"])
        refs.append(worker.import_reference())
    scaled_setups = [s * 2.0 * worker.IMPORT_REF_S / (before + after)
                     for s, before, after in zip(setups, refs, refs[1:])]
    loop = spawn(args, "timed", workdir, deadline)
    latencies = loop["latencies"]
    attempted, failed = len(latencies), loop["failed"]
    scaled = [lat * scale for lat, scale in zip(latencies, loop["scales"])]
    jobs_per_s = worker.scaled_jobs_per_s(loop)
    pct, tail_s, beyond = tail(scaled, expected=math.floor(args.seconds * jobs_per_s))
    metrics = {
        "jobs_per_s": (jobs_per_s, "1/s"),
        "job_p50_ms": (1e3 * nearest_rank(sorted(scaled), 50.0)[0], "ms"),
        "job_tail_ms": (1e3 * tail_s, "ms"),
        "setup_s": (statistics.median(scaled_setups), "s"),
        "peak_rss_mb": (loop["peak_rss_mb"], "MB"),
    }
    info = {"attempted": attempted, "failed": failed, "fail_ratio": failed / attempted,
            "tail_percentile": pct, "tail_samples_beyond": beyond,
            "raw_jobs_per_s": (attempted - failed) / sum(loop["busy"]),
            "raw_job_p50_ms": 1e3 * nearest_rank(sorted(latencies), 50.0)[0],
            "raw_job_tail_ms": 1e3 * nearest_rank(sorted(latencies), pct)[0],
            "raw_setup_s": statistics.median(setups),
            "median_speed_scale": statistics.median(loop["scales"]),
            "timed_wall_s": loop["wall"],
            "cli_output_hash_mismatches": loop.get("hash_mismatches")}
    raw = {"latencies_s": latencies, "busy_s": loop["busy"], "scales": loop["scales"],
           "names": loop["names"], "setups_s": setups, "import_refs_s": refs,
           "timed_worker_setup_s": loop["setup_s"]}
    return metrics, info, raw


def per_layer(args, workdir: Path, deadline: float) -> tuple[dict, dict]:
    report = spawn(args, "traced", workdir, deadline)
    units = {entry["name"]: entry["unit"] for entry in
             json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    values = report["metrics"]
    missing = set(units) ^ set(values)
    if missing:
        raise SystemExit(f"per-layer metrics and BENCHMARK.json disagree on {sorted(missing)}")
    metrics = {name: (values[name], units[name]) for name in units}
    return metrics, {"attempted": report["attempted"], "failed": report["failed"],
                     "fail_ratio": report["failed"] / report["attempted"]}, {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rampforge" / "__init__.py").is_file():
        print(f"error: no rampforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not 0 < args.seconds <= 60:
        print("error: --seconds must lie in (0, 60]", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            metrics, info, raw = per_layer(args, workdir, deadline)
        else:
            metrics, info, raw = end_to_end(args, workdir, deadline)
    except subprocess.TimeoutExpired:
        print("error: the run did not finish in time", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(args.seed)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    for key, value in info.items():
        print(f"  {key} = {value}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    result = {"correct": info["failed"] == 0, "attempted": info["attempted"],
              "failed": info["failed"],
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"result": result, "info": info, "environment": env,
                    "args": vars(args), "raw": raw}, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
