"""Min-of-N in-process CPU times of the layers the benchmark's jobs spend in,
and min-of-N wall times of whole CLI processes.

    python3 scripts/layer_times.py --repeat 7

Times, each as the least CPU time (``time.process_time``) of ``--repeat``
calls in this process after one warm-up call, in milliseconds, under ``ms``:

- ``ode.integrate_theta``: the tangent-angle RK4 over 6/a from the apex;
- ``ramp3d.integrate_ramp3d <field>``: the hemisphere RK4 over 5/a from
  ``(0.8, 0, -0.6)``, for each built-in field;
- ``exporters.<writer>``: each writer of a ``planar2d`` job, on the lower
  branch sampled at 1000 rows and a 2 s ``simulate`` at 500 fps;
- ``exporters.write_curve2d csv+json`` and ``exporters.write_frames
  csv+jsonl``: the two writers a job calls on one table, in its order,
  which share one formatting of the table.

The exporters remember the last table they formatted, so the cache is
cleared before every timed writer call: each time is a job's first write
of its table.

The spans, rows and frame rate are those of ``bench/workloads.py``, scaled
by ``--size`` (the benchmark's job size); the spec is mu=0.5, v=5, g=9.81,
m=1.

Under ``process_ms``, the least wall time (``time.perf_counter``) of
``--repeat`` fresh processes after one warm-up process, in milliseconds: one
fixed command for each of the six commands of the benchmark's ``cli`` cycle
(``COMMANDS``, keyed by the cycle's names and not scaled by ``--size``), run
as the console script runs it, and ``import os, numpy; os._exit(0)``, a
process that imports numpy and exits as a command does, without teardown:
the floor under every command.  Each process runs against the sources under
``src/`` in the environment the benchmark gives its processes.  Under
``process_cpu_ms``, the least CPU time (user plus system, from
``getrusage(RUSAGE_CHILDREN)``) of as many fresh processes of the same
commands, run again: on a shared host a process's wall time swings by more
than a 10 ms change in its work, its CPU time much less.

Prints JSON with the times, the clocks, the Python and numpy versions and
the core count.  Untraced and in one process, so it shows a layer's own
cost, for example the field step of each built-in field, which a traced
benchmark run does not time.  CPU time, because on a shared 2-core VM the
best-of-7 wall time of one writer swung 2x between processes on the same
code; CPU time leaves out the time the process waits for a core.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from rampforge import (builtin_field, exporters, integrate_ramp3d,  # noqa: E402
                       integrate_theta, make_ramp, planar, sim, spec_from_mu,
                       theta_closed_form)

FIELDS = [("horizontal",), ("upslope",), ("blend", 0.5)]
Y0 = (0.8, 0.0, -0.6)
# one command of each kind the cli cycle runs, by its name there, each timed
# as a fresh process
COMMANDS = {
    "generate2d": ["generate2d", "--mu", "0.5", "--v", "5", "--out", "curve.csv"],
    "generate3d": ["generate3d", "--mu", "0.5", "--v", "5", "--field", "blend:0.5",
                   "--y0", "0.8", "0", "-0.6", "--out", "ramp"],
    "verify_branch": ["verify", "--mu", "0.5", "--v", "5", "--branch", "upper"],
    "verify_field": ["verify", "--mu", "0.5", "--v", "5", "--field", "horizontal",
                     "--y0", "0.8", "-1e-05", "-0.6"],
    "simulate": ["simulate", "--mu", "0.5", "--v", "5", "--branch", "lower",
                 "--out", "frames.jsonl"],
    "scale": ["scale", "--mu", "0.5", "--v", "5", "--branch", "upper", "--kappa", "6"],
}
# what every command pays: numpy's import, then an exit without teardown
FLOOR = "import os, numpy; os._exit(0)"


def best_ms(call, repeat: int, setup=lambda: None, clock=time.process_time) -> float:
    call()  # warm-up: compiles the generated runs, or the bytecode, on first use
    best = float("inf")
    for _ in range(repeat):
        setup()
        start = clock()
        call()
        best = min(best, clock() - start)
    return 1e3 * best


def layer_times(repeat: int, size: float, workdir: Path) -> dict:
    spec = spec_from_mu(0.5, v=5.0)
    theta0 = float(theta_closed_form(spec, 0.0))
    theta_span = (0.0, size * workloads.THETA_SPAN_FACTOR / spec.a)
    ms = {"ode.integrate_theta": best_ms(lambda: integrate_theta(spec, theta0, theta_span),
                                         repeat)}
    s_max = size * workloads.SWEEP_SPAN_FACTOR / spec.a
    for kind in FIELDS:
        field = builtin_field(*kind)
        ms[f"ramp3d.integrate_ramp3d {field.name}"] = best_ms(
            lambda: integrate_ramp3d(spec, field, Y0, s_max), repeat)

    ramp = make_ramp(spec, "lower")
    rows = max(2, int(workloads.PLANAR_SAMPLES * size))
    data = planar.sample_ramp(spec, ramp, np.linspace(0.0, planar.default_span(spec), rows))
    frames = sim.simulate(spec, ramp, workloads.PLANAR_T_SPAN,
                          fps=workloads.PLANAR_FPS * size)
    writers = {
        "write_curve2d_csv": lambda: exporters.write_curve2d_csv(workdir / "curve.csv", data),
        "write_curve2d_json": lambda: exporters.write_curve2d_json(
            workdir / "curve.json", spec, data, extra={"branch": ramp.branch.value}),
        "write_curve2d_svg": lambda: exporters.write_curve2d_svg(
            workdir / "curve.svg", data["x"], data["y"]),
        "write_frames_csv": lambda: exporters.write_frames_csv(workdir / "frames.csv", frames),
        "write_frames_jsonl": lambda: exporters.write_frames_jsonl(
            workdir / "frames.jsonl", frames),
    }
    writers["write_curve2d csv+json"] = lambda: (writers["write_curve2d_csv"](),
                                                 writers["write_curve2d_json"]())
    writers["write_frames csv+jsonl"] = lambda: (writers["write_frames_csv"](),
                                                 writers["write_frames_jsonl"]())
    for name, write in writers.items():
        ms[f"exporters.{name}"] = best_ms(write, repeat, exporters._formatted.cache_clear)
    return ms


def children_cpu_s() -> float:
    # user + system time of every finished child process of this one
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def process_ms(repeat: int, workdir: Path, clock=time.perf_counter) -> dict:
    env = worker.pinned_env()
    runs = {name: [sys.executable, "-c", workloads.CLI_ENTRY, *argv]
            for name, argv in COMMANDS.items()}
    runs[FLOOR] = [sys.executable, "-c", FLOOR]
    return {name: best_ms(lambda: subprocess.run(command, cwd=workdir, env=env, check=True,
                                                 capture_output=True),
                          repeat, clock=clock)
            for name, command in runs.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=7,
                        help="timed calls per layer, and processes per command")
    parser.add_argument("--size", type=float, default=1.0,
                        help="scale of spans, rows and frame rate (benchmark job size)")
    args = parser.parse_args(argv)
    if args.repeat < 1 or not args.size > 0.0:
        parser.error("--repeat must be at least 1 and --size positive")
    with tempfile.TemporaryDirectory() as workdir:
        ms = layer_times(args.repeat, args.size, Path(workdir))
        processes = process_ms(args.repeat, Path(workdir))
        processes_cpu = process_ms(args.repeat, Path(workdir), clock=children_cpu_s)
    print(json.dumps({"python": platform.python_version(), "numpy": np.__version__,
                      "nproc": os.cpu_count(), "clock": "process_time",
                      "repeat": args.repeat, "size": args.size, "ms": ms,
                      "process_clock": "perf_counter", "process_ms": processes,
                      "process_cpu_clock": "getrusage(RUSAGE_CHILDREN) user+sys",
                      "process_cpu_ms": processes_cpu}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
