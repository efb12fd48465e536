"""Jobs of the three benchmark workloads: generation, execution, checks.

Every job is generated from the workload seed; the program only sees the
generated numbers.  A job runs as ``run(job, workdir) -> outputs`` (the part
that is timed) followed by ``check(job, outputs) -> problems`` (not timed).
A job fails when ``run`` raises or ``check`` returns any problem.

The checks do not trust the program's own verdict alone, because
``verify_3d`` accepts any unit direction field: they also compare against
closed forms the program does not use.
"""

from __future__ import annotations

import hashlib
import json
import math
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from rampforge import exporters, ode, params, planar, ramp3d, sim, verify

WORKLOADS = ("sweep3d", "planar2d", "cli")
FIELDS = ("horizontal", "upslope", "blend")

# --- tolerances -----------------------------------------------------------
# Sum over all steps of | |gamma| - 1 | before renormalisation.  Measured
# about 5e-13 over 5000 steps; 1e-9 is the unit-norm drift the README
# promises, and a broken renormalisation or a too-coarse step exceeds it.
NORM_DRIFT_TOL = 1e-9
# Stored directions are renormalised after every step, so they are unit to
# rounding (~1e-16); 1e-12 is also the integrator's own hemisphere slack.
UNIT_TOL = 1e-12
# Upslope curves against the embedded planar closed form, metres.  Measured
# at most 1.5e-13 over seeded jobs (lengths up to ~7 m); 1e-9 leaves room for
# rounding and still catches any O(h^4) or worse integration error.
PLANAR_REDUCTION_TOL = 1e-9
# Horizontal curves: gamma_3 = -tanh(k s + atanh(-y0_3)), k = g / v^2, and
# alpha_3 its integral.  Measured 2.6e-13 (gamma_3) and 2.8e-13 m (height).
HORIZONTAL_GAMMA3_TOL = 1e-9
HORIZONTAL_HEIGHT_TOL = 1e-9
# RK4 tangent angle against theta_closed_form, radians.  Measured 3.5e-15 at
# the default step 1e-3/a, whose truncation error bound is ~(a h)^4 = 1e-12.
THETA_TOL = 1e-10
# The arc length reached by a curve that did not stop early: s_max up to
# rounding of n_steps * (s_max / n_steps).
S_END_RTOL = 1e-12

# --- job sizes --------------------------------------------------------------
SWEEP_SPAN_FACTOR = 5.0       # integrate over 5/a: 5000 RK4 steps at 1e-3/a
PLANAR_SAMPLES = 1000         # sample_ramp rows written as CSV/JSON/SVG
PLANAR_FPS = 500.0            # simulate 2 s at 500 fps: 1001 frames
PLANAR_T_SPAN = (0.0, 2.0)
THETA_SPAN_FACTOR = 6.0       # integrate_theta over 6/a: 6000 RK4 steps
CLI_MESH = (200, 16)          # generate3d surface resolution
CLI_SAMPLES = 400             # generate2d rows
CLI_FPS = 240.0               # simulate 2 s at 240 fps: 481 frames
# generate3d and verify --field integrate over 2/a (2000 steps), so every
# command takes a few tenths of a second, most of it process start and
# import: cold start is what this workload is for, the long flow is sweep3d's.
CLI_SPAN_FACTOR = 2.0
# With these sizes planar2d spends roughly 45% in exporters, 35% in ode,
# 10% in sim and the rest in planar and verify, so no module dominates.

GOLDEN_SEED = 20260101        # seed of the CLI cycle whose outputs are pinned
GOLDEN_FILE = Path(__file__).with_name("golden_cli.json")


def _spec_numbers(rng) -> dict:
    return {"mu": float(rng.uniform(0.2, 0.8)), "v": float(rng.uniform(3.0, 8.0))}


def _direction(rng) -> list[float]:
    # lower hemisphere, kept away from the singular south pole
    y3 = -float(rng.uniform(0.05, 0.8))
    phi = float(rng.uniform(0.0, 2.0 * math.pi))
    r = math.sqrt(1.0 - y3 * y3)
    return [r * math.cos(phi), r * math.sin(phi), y3]


def _field_text(kind: str, rng) -> str:
    return f"blend:{float(rng.uniform(0.2, 0.8))!r}" if kind == "blend" else kind


def make_jobs(workload: str, seed: int, count: int, size: float = 1.0) -> list[dict]:
    """The first ``count`` jobs of a workload; ``size`` < 1 shrinks every job
    (used by the smoke tests).  The job mix is fixed by position, not drawn,
    so every seed gives the same share of each kind of job."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "cli":
        cycle = cli_cycle(rng, size)
        return [dict(cycle[i % len(cycle)], index=i) for i in range(count)]
    jobs = []
    for i in range(count):
        job = {"index": i, "size": size, **_spec_numbers(rng)}
        if workload == "sweep3d":
            kind = FIELDS[i % len(FIELDS)]
            job.update(kind=kind, field=_field_text(kind, rng), y0=_direction(rng))
        elif workload == "planar2d":
            job.update(branch=("lower", "upper")[i % 2],
                       kappa=float(rng.uniform(0.25, 6.0)))
        else:
            raise ValueError(f"unknown workload {workload!r}")
        jobs.append(job)
    return jobs


# --- sweep3d ------------------------------------------------------------------

def _field(text: str):
    if text.startswith("blend:"):
        return ramp3d.builtin_field("blend", float(text.split(":", 1)[1]))
    return ramp3d.builtin_field(text)


def run_sweep3d(job: dict, workdir: Path) -> dict:
    spec = params.spec_from_mu(job["mu"], v=job["v"])
    s_max = job["size"] * SWEEP_SPAN_FACTOR / spec.a
    curve = ramp3d.integrate_ramp3d(spec, _field(job["field"]), job["y0"], s_max)
    out = {"spec": spec, "s_max": s_max, "curve": curve,
           "report": verify.verify_3d(spec, curve)}
    if job["kind"] == "upslope":
        out["reduction"] = verify.planar_reduction_check(spec, curve)
    return out


def horizontal_closed_form(spec, y0_3: float, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``gamma_3`` and height ``alpha_3`` of a horizontal-field curve.

    ``N_3 = 0`` reduces the third flow component to
    ``d gamma_3 / ds = -k (1 - gamma_3^2)`` with ``k = g / v^2``.
    """
    k = spec.g / (spec.v * spec.v)
    c = math.atanh(-y0_3)
    gamma3 = -np.tanh(k * s + c)
    # log(cosh(x)) = x + log1p(exp(-2x)) - log 2 for x >= 0 avoids overflow
    x = k * s + c
    logcosh = x + np.log1p(np.exp(-2.0 * x)) - math.log(2.0)
    logcosh0 = c + math.log1p(math.exp(-2.0 * c)) - math.log(2.0)
    return gamma3, -(logcosh - logcosh0) / k


def check_sweep3d(job: dict, out: dict) -> list[str]:
    spec, curve, report = out["spec"], out["curve"], out["report"]
    problems = []
    if curve.stopped_early:
        problems.append(f"stopped early: {curve.stop_reason}")
    elif abs(curve.s_end - out["s_max"]) > S_END_RTOL * out["s_max"]:
        problems.append(f"curve ends at s={curve.s_end!r}, not {out['s_max']!r}")
    if report.verdict is not verify.Verdict.VALID:
        problems.append(f"verify_3d verdict {report.verdict.value}")
    if not curve.norm_drift_total <= NORM_DRIFT_TOL:
        problems.append(f"norm drift {curve.norm_drift_total!r} > {NORM_DRIFT_TOL}")
    unit = float(np.abs(np.linalg.norm(curve.gamma, axis=-1) - 1.0).max())
    if not unit <= UNIT_TOL:
        problems.append(f"|gamma| - 1 reaches {unit!r}")
    if not float(curve.gamma[:, 2].max()) <= UNIT_TOL:
        problems.append("gamma leaves the lower hemisphere")
    if job["kind"] == "upslope":
        red = out["reduction"]
        if not (red["applicable"] and red["max_deviation"] <= PLANAR_REDUCTION_TOL):
            problems.append(f"planar reduction check failed: {red}")
    elif job["kind"] == "horizontal":
        gamma3, height = horizontal_closed_form(spec, job["y0"][2], curve.s)
        dev = float(np.abs(curve.gamma[:, 2] - gamma3).max())
        if not dev <= HORIZONTAL_GAMMA3_TOL:
            problems.append(f"gamma_3 off its closed form by {dev!r}")
        dev = float(np.abs(curve.alpha[:, 2] - height).max())
        if not dev <= HORIZONTAL_HEIGHT_TOL:
            problems.append(f"height off its closed form by {dev!r} m")
    return problems


# --- planar2d -----------------------------------------------------------------

def run_planar2d(job: dict, workdir: Path) -> dict:
    size = job["size"]
    spec = params.spec_from_mu(job["mu"], v=job["v"])
    ramp = planar.make_ramp(spec, job["branch"])
    samples = max(2, int(PLANAR_SAMPLES * size))
    data = planar.sample_ramp(spec, ramp, np.linspace(0.0, planar.default_span(spec), samples))
    exporters.write_curve2d_csv(workdir / "curve.csv", data)
    exporters.write_curve2d_json(workdir / "curve.json", spec, data,
                                 extra={"branch": ramp.branch.value})
    exporters.write_curve2d_svg(workdir / "curve.svg", data["x"], data["y"])
    report = verify.verify_2d(spec, ramp)
    scaling = verify.verify_scaling(spec, ramp, job["kappa"])
    fps = PLANAR_FPS * size
    frames = sim.simulate(spec, ramp, PLANAR_T_SPAN, fps=fps)
    exporters.write_frames_csv(workdir / "frames.csv", frames)
    exporters.write_frames_jsonl(workdir / "frames.jsonl", frames)
    theta = ode.integrate_theta(spec, float(ode.theta_closed_form(spec, 0.0)),
                                (0.0, size * THETA_SPAN_FACTOR / spec.a))
    theta_err = float(np.abs(theta.theta - ode.theta_closed_form(spec, theta.s)).max())
    return {"spec": spec, "ramp": ramp, "samples": samples, "fps": fps,
            "report": report, "scaling": scaling, "frames": frames,
            "theta_err": theta_err, "workdir": workdir}


def _line_count(path: Path) -> int:
    return path.read_bytes().count(b"\n")


def check_planar2d(job: dict, out: dict) -> list[str]:
    problems = []
    if out["report"].verdict is not verify.Verdict.VALID:
        problems.append(f"verify_2d verdict {out['report'].verdict.value}")
    if not out["scaling"].both_valid:
        problems.append("verify_scaling rejects a dilated ramp")
    if not out["theta_err"] <= THETA_TOL:
        problems.append(f"RK4 theta off the closed form by {out['theta_err']!r}")
    t0, t1 = PLANAR_T_SPAN
    n_frames = math.floor((t1 - t0) * out["fps"] + 1e-9) + 1
    if len(out["frames"].frames) != n_frames or out["frames"].truncated:
        problems.append(f"simulate gave {len(out['frames'].frames)} frames, not {n_frames}")
    wd = out["workdir"]
    expected = {"curve.csv": out["samples"] + 1, "frames.csv": n_frames + 1,
                "frames.jsonl": n_frames, "curve.svg": 3}
    for name, lines in expected.items():
        if _line_count(wd / name) != lines:
            problems.append(f"{name} has {_line_count(wd / name)} lines, not {lines}")
    rows = json.loads((wd / "curve.json").read_text())["samples"]
    if len(rows) != out["samples"]:
        problems.append(f"curve.json has {len(rows)} samples, not {out['samples']}")
    return problems


# --- cli ----------------------------------------------------------------------

def cli_cycle(rng, size: float = 1.0) -> list[dict]:
    """One seeded cycle of the subcommands.

    The field of each 3D command is fixed (upslope for ``generate3d``, so its
    report carries the planar reduction check; horizontal for ``verify
    --field``), so every seed runs the same amount of work and the two heavy
    commands cost about the same, which keeps the p75 tail inside one group.
    """
    def spec_args():
        p = _spec_numbers(rng)
        return p, ["--mu", repr(p["mu"]), "--v", repr(p["v"])]

    def y0_args():
        return ["--y0", *(repr(c) for c in _direction(rng))]

    def smax_args(p):
        spec = params.spec_from_mu(p["mu"], v=p["v"])
        return ["--smax", repr(size * CLI_SPAN_FACTOR / spec.a)]

    cycle = []
    p, a = spec_args()
    samples = max(2, int(CLI_SAMPLES * size))
    cycle.append({"name": "generate2d", "argv": [
        "generate2d", *a, "--branch", "lower", "--samples", str(samples),
        "--out", "gen2d.csv"], "rows": {"gen2d.csv": samples + 1}})
    p, a = spec_args()
    n_s, n_r = max(1, int(CLI_MESH[0] * size)), CLI_MESH[1]
    cycle.append({"name": "generate3d", "argv": [
        "generate3d", *a, "--field", "upslope", *y0_args(), *smax_args(p),
        "--mesh", f"{n_s}x{n_r}", "--out", "gen3d"], "mesh": (n_s, n_r), "spec": p})
    p, a = spec_args()
    cycle.append({"name": "verify_branch", "argv": ["verify", *a, "--branch", "upper"]})
    p, a = spec_args()
    cycle.append({"name": "verify_field", "argv": [
        "verify", *a, "--field", "horizontal", *y0_args(), *smax_args(p)]})
    p, a = spec_args()
    fps = CLI_FPS * size
    n_frames = math.floor(2.0 * fps + 1e-9) + 1
    cycle.append({"name": "simulate", "argv": [
        "simulate", *a, "--branch", "lower", "--t-span", "0", "2", "--fps", repr(fps),
        "--format", "jsonl", "--out", "frames.jsonl"],
        "rows": {"frames.jsonl": n_frames}, "frames": n_frames})
    p, a = spec_args()
    cycle.append({"name": "scale", "argv": [
        "scale", *a, "--branch", "upper", "--kappa", repr(float(rng.uniform(0.25, 6.0)))]})
    return cycle


CLI_ENTRY = "from rampforge.cli import entry; entry()"
CLI_TIMEOUT_S = 60


def run_cli(job: dict, workdir: Path, env: dict, child: list[str] | None = None) -> dict:
    """Run one subcommand as its own process, as a user would.

    ``child`` replaces the default ``python -c <entry>`` prefix (the traced
    run uses a wrapper that records spans inside the child).
    """
    prefix = child or [sys.executable, "-c", CLI_ENTRY]
    proc = subprocess.run([*prefix, *job["argv"]], cwd=workdir, env=env,
                          capture_output=True, timeout=CLI_TIMEOUT_S)
    return {"returncode": proc.returncode, "stdout": proc.stdout,
            "stderr": proc.stderr, "workdir": workdir}


def _grid_steps(spec, s_max: float) -> int:
    # the integrator's grid rule: the smallest n with s_max / n <= step
    return max(1, math.ceil(s_max / (ode.DEFAULT_STEP_FACTOR / spec.a) - 1e-12))


def check_cli(job: dict, out: dict) -> list[str]:
    if out["returncode"] != 0:
        return [f"{job['name']} exited {out['returncode']}: "
                f"{out['stderr'].decode(errors='replace')[-300:]}"]
    try:
        summary = json.loads(out["stdout"])
    except ValueError:
        return [f"{job['name']} stdout is not JSON"]
    problems = []
    wd = out["workdir"]
    name = job["name"]
    if name in ("generate3d", "verify_branch", "verify_field") and summary.get("verdict") != "Valid":
        problems.append(f"{name} verdict {summary.get('verdict')}")
    if name == "scale" and summary.get("both_valid") is not True:
        problems.append("scale: a dilated reading is not valid")
    if name == "simulate" and summary.get("frames") != job["frames"]:
        problems.append(f"simulate reports {summary.get('frames')} frames")
    for fname, lines in job.get("rows", {}).items():
        path = wd / fname
        if not path.is_file():
            problems.append(f"{fname} missing")
            continue
        text = path.read_text()
        if text.count("\n") != lines:
            problems.append(f"{fname} has {text.count(chr(10))} lines, not {lines}")
        if fname.endswith(".jsonl"):
            for line in text.splitlines():
                json.loads(line)
        elif fname.endswith(".csv"):
            width = {len(row.split(",")) for row in text.splitlines()}
            if len(width) != 1:
                problems.append(f"{fname} rows have differing widths {sorted(width)}")
    if name == "generate3d":
        problems.extend(_check_generate3d(job, wd))
    return problems


def _check_generate3d(job: dict, wd: Path) -> list[str]:
    problems = []
    paths = [wd / f"gen3d{ext}" for ext in (".obj", ".curve.csv", ".report.json")]
    missing = [p.name for p in paths if not p.is_file()]
    if missing:
        return [f"missing {missing}"]
    n_s, n_r = job["mesh"]
    kinds = {}
    for line in paths[0].read_text().splitlines():
        tag = line.split(" ", 1)[0]
        kinds[tag] = kinds.get(tag, 0) + 1
    want = {"v": (n_s + 1) * (n_r + 1), "vn": n_s + 1, "f": 2 * n_s * n_r}
    if any(kinds.get(k, 0) != n for k, n in want.items()):
        problems.append(f"gen3d.obj element counts {kinds}, want {want}")
    report = json.loads(paths[2].read_text())
    if report["report"]["verdict"] != "Valid":
        problems.append(f"gen3d report verdict {report['report']['verdict']}")
    red = report["planar_reduction"]
    if not (red["applicable"] and red["max_deviation"] <= PLANAR_REDUCTION_TOL):
        problems.append(f"gen3d planar reduction {red}")
    spec = params.spec_from_mu(job["spec"]["mu"], v=job["spec"]["v"])
    argv = job["argv"]
    s_max = float(argv[argv.index("--smax") + 1])
    lines = paths[1].read_text().count("\n")
    if lines != _grid_steps(spec, s_max) + 2:
        problems.append(f"gen3d.curve.csv has {lines} lines, want {_grid_steps(spec, s_max) + 2}")
    return problems


def output_digests(job: dict, out: dict) -> dict:
    """sha256 of a CLI job's stdout and of every file it wrote."""
    wd = out["workdir"]
    names = sorted(job.get("rows", {}))
    if job["name"] == "generate3d":
        names = ["gen3d.obj", "gen3d.curve.csv", "gen3d.report.json"]
    digests = {"stdout": hashlib.sha256(out["stdout"]).hexdigest()}
    for fname in names:
        path = wd / fname
        digests[fname] = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None
    return digests


# --- one attempt --------------------------------------------------------------

RUNNERS = {"sweep3d": (run_sweep3d, check_sweep3d),
           "planar2d": (run_planar2d, check_planar2d)}


def runner(workload: str, env: dict | None = None, child: list[str] | None = None):
    """The ``run(job, workdir)`` function of a workload."""
    if workload == "cli":
        return lambda job, workdir: run_cli(job, workdir, env, child)
    return RUNNERS[workload][0]


def attempt(workload: str, job: dict, workdir: Path, run) -> tuple[float, list[str]]:
    """Run and check one job; returns its latency in seconds and its problems.

    Only ``run`` is timed.  Any exception in the program or the check is a
    problem: the job failed.  The negative-control tests hand in a ``run``
    that corrupts one output.
    """
    check = check_cli if workload == "cli" else RUNNERS[workload][1]
    start = time.perf_counter()
    try:
        out = run(job, workdir)
    except Exception:  # a failed job, not a failed benchmark
        return time.perf_counter() - start, [traceback.format_exc(limit=3)]
    latency = time.perf_counter() - start
    try:
        return latency, check(job, out)
    except Exception:
        return latency, [traceback.format_exc(limit=3)]
