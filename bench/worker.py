"""One benchmark worker process: set up, then run jobs in a closed loop.

Started fresh by ``run.py`` for every measurement, with BLAS/OpenMP thread
pools pinned to one thread, and never alongside another worker.  Modes:

``setup``   import, generate inputs, warm up, report the set-up time, exit;
``timed``   the same, then one caller runs jobs back to back for
            ``--seconds`` (the next job starts only when the previous one
            has returned and been checked) and reports every latency;
``traced``  half the time untraced, half with spans recorded, and reports
            per-layer numbers.

The last line of stdout is one JSON object for ``run.py``.

Speed scale.  The CPU this runs on may be shared: its speed can change by
a factor of two for seconds at a time, which no amount of averaging inside
a 30-second run removes.  So a fixed reference task that runs no rampforge
code is timed before the first job and after every job, outside the job's
latency, and each job gets the factor ``reference time at reference speed /
(mean of the reference times on either side of it)``.  The reference is of
the job's own kind: a calibration loop of small-array and interpreter work
for the in-process workloads, and a fresh interpreter importing numpy for
``cli``, whose jobs are mostly process start and imports.  ``run.py``
reports times multiplied by that factor and prints the raw figures next to
them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
JOB_POOL = 600        # inputs generated up front; the loop cycles through them
WARM_SIZE = 0.02      # warm-up jobs run every code path at 2% of full size
IMPORT_SAMPLES = 3    # fresh interpreters timed for cli.import_ms
CAL_ITERATIONS = 800
CAL_REF_S = 0.005     # calibrate()'s usual time between jobs on a 2-core Xeon VM, Python 3.11
IMPORT_REF_S = 0.15   # import_reference()'s usual time on the same machine


def pinned_env() -> dict:
    """Environment of every process the benchmark starts."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("RAMPFORGE_LOG", None)
    return env


def calibrate() -> float:
    """Seconds taken by a fixed loop of small-array and interpreter work."""
    import numpy as np

    start = time.perf_counter()
    y = np.array([0.6, 0.0, -0.8])
    acc = 0.0
    for i in range(CAL_ITERATIONS):
        w = np.array([y[1], -y[0], 0.0])
        acc += float(np.linalg.norm(w)) + math.sqrt(i)
        y = y + 1e-9 * w
    return time.perf_counter() - start


def import_reference() -> float:
    """Seconds taken by a fresh interpreter that imports numpy."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=pinned_env(),
                   check=True, timeout=60)
    return time.perf_counter() - start


def reference(workload: str):
    """``(task, its time at reference speed)`` used to scale this workload."""
    return (import_reference, IMPORT_REF_S) if workload == "cli" else (calibrate, CAL_REF_S)


def _import_program():
    sys.path.insert(0, str(ROOT / "src"))
    import rampforge
    where = Path(rampforge.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"rampforge imported from {where}, not from {ROOT / 'src'}")


def _max_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def _loop(workload, jobs, first, seconds, workdir, run, on_job=None) -> dict:
    """Closed loop for ``seconds``.

    Per job: ``latencies`` (the program's run), ``busy`` (run and check),
    ``scales`` (speed factor, see the module docstring) and ``names``; plus
    the failure count and the loop's wall time, reference tasks included.
    """
    import workloads

    task, task_ref_s = reference(workload)
    out = {"latencies": [], "busy": [], "scales": [], "names": [], "failed": 0}
    start = time.perf_counter()
    cal_before = task()
    i = first
    while True:
        job = jobs[i % len(jobs)]
        if on_job is not None:
            on_job(i)
        began = time.perf_counter()
        latency, problems = workloads.attempt(workload, job, workdir, run)
        out["busy"].append(time.perf_counter() - began)
        cal_after = task()
        out["scales"].append(2.0 * task_ref_s / (cal_before + cal_after))
        cal_before = cal_after
        out["latencies"].append(latency)
        out["names"].append(job.get("name", workload))
        if problems:
            out["failed"] += 1
            if out["failed"] <= 3:
                print(f"job {i} failed: {problems}", file=sys.stderr)
        i += 1
        if time.perf_counter() - start >= seconds:
            break
    out["wall"] = time.perf_counter() - start
    return out


def scaled_jobs_per_s(loop: dict) -> float:
    """Completed jobs per second of busy time, at reference speed."""
    busy = sum(b * s for b, s in zip(loop["busy"], loop["scales"]))
    return (len(loop["busy"]) - loop["failed"]) / busy


def golden_mismatches(workdir: Path, env: dict) -> tuple[int, dict]:
    """Run the pinned CLI cycle once and compare output digests."""
    import numpy as np
    import workloads

    cycle = workloads.cli_cycle(np.random.default_rng(workloads.GOLDEN_SEED))
    golden = json.loads(workloads.GOLDEN_FILE.read_text())
    mismatches = 0
    digests = {}
    for job in cycle:
        out = workloads.run_cli(job, workdir, env)
        digests[job["name"]] = got = workloads.output_digests(job, out)
        want = golden.get(job["name"], {})
        mismatches += sum(got.get(k) != want.get(k) for k in set(got) | set(want))
    return mismatches, digests


def _import_ms(env: dict) -> float:
    code = ("import time; t = time.perf_counter(); import rampforge; "
            "print((time.perf_counter() - t) * 1e3)")
    values = [float(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                   capture_output=True, text=True, timeout=60).stdout)
              for _ in range(IMPORT_SAMPLES)]
    return statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=["setup", "timed", "traced"], required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="perf_counter (CLOCK_MONOTONIC) just before this process started")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    _import_program()
    import workloads

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    env = pinned_env()
    jobs = workloads.make_jobs(args.workload, args.seed, JOB_POOL)
    warm = workloads.make_jobs(args.workload, args.seed, 6, size=WARM_SIZE)
    run = workloads.runner(args.workload, env)
    for job in warm[:1] if args.workload == "cli" else warm:
        _latency, problems = workloads.attempt(args.workload, job, workdir, run)
        if problems:
            print(f"warm-up job failed: {problems}", file=sys.stderr)
    result = {"setup_s": time.perf_counter() - args.spawned_at}
    if args.mode == "timed":
        result.update(_loop(args.workload, jobs, 0, args.seconds, workdir, run))
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        result["peak_rss_mb"] = _max_rss_mb(who)
        if args.workload == "cli":
            result["hash_mismatches"], _ = golden_mismatches(workdir, env)
    elif args.mode == "traced":
        result.update(_traced(args, jobs, workdir, env, run))
    print(json.dumps(result))
    return 0


def _traced(args, jobs, workdir, env, run) -> dict:
    import spans
    import workloads

    half = args.seconds / 2.0
    plain = _loop(args.workload, jobs, 0, half, workdir, run)
    tracer = spans.Tracer()
    if args.workload == "cli":
        # spans are recorded inside each CLI process by a wrapper around
        # cli.main and handed back through a file
        span_file = workdir / "spans.json"
        child_run = workloads.runner(args.workload, env, child=[
            sys.executable, str(Path(__file__).with_name("cli_child.py")), str(span_file)])
        saved = []
    else:
        saved = spans.install(tracer)

    def traced_run(job, wd):
        index = tracer.open("job")
        try:
            if args.workload != "cli":
                return run(job, wd)
            span_file.unlink(missing_ok=True)
            out = child_run(job, wd)
            tracer.adopt(json.loads(span_file.read_text()), index)
            return out
        finally:
            tracer.close(index)

    def set_job(i):
        tracer.job = i

    try:
        traced = _loop(args.workload, jobs, len(plain["busy"]), half, workdir, traced_run,
                       on_job=set_job)
    finally:
        spans.uninstall(saved)
    metrics = spans.layer_metrics(tracer.spans, len(traced["busy"]))
    metrics["trace.overhead_frac"] = scaled_jobs_per_s(traced) / scaled_jobs_per_s(plain) - 1.0
    metrics["cli.import_ms"] = _import_ms(env)
    metrics["cli.process_overhead_ms"] = 0.0
    metrics["cli.output_hash_mismatches"] = 0
    if args.workload == "cli":
        # per command: process wall time (untraced) minus time inside cli.main
        main_ms = {}
        for name, start, end, _parent, job, _attrs in tracer.spans:
            if name == "cli.main":
                main_ms.setdefault(jobs[job % len(jobs)]["name"], []).append(1e3 * (end - start))
        wall_ms = {}
        for latency, name in zip(plain["latencies"], plain["names"]):
            wall_ms.setdefault(name, []).append(1e3 * latency)
        common = sorted(set(main_ms) & set(wall_ms))
        metrics["cli.process_overhead_ms"] = statistics.fmean(
            statistics.median(wall_ms[c]) - statistics.median(main_ms[c]) for c in common)
        metrics["cli.output_hash_mismatches"], _ = golden_mismatches(workdir, env)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"spans-{args.workload}-seed{args.seed}.json").write_text(json.dumps(
        {"fields": ["name", "start", "end", "parent", "job", "attrs"],
         "spans": tracer.spans}))
    return {"metrics": metrics, "attempted": len(plain["busy"]) + len(traced["busy"]),
            "failed": plain["failed"] + traced["failed"]}


if __name__ == "__main__":
    sys.exit(main())
