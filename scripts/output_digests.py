"""sha256 digests of the CLI's outputs and of the generated code, to check a
change keeps them byte for byte.

    python scripts/output_digests.py --out digests.json
    python scripts/output_digests.py --compare digests.json

Runs the benchmark's pinned CLI cycle (``bench/workloads.py`` at its
``GOLDEN_SEED``) and, since that cycle runs no 3D ``simulate``, the 3D
``simulate`` of each built-in field from ``--y0 0.8 0 -0.6`` in CSV and
JSONL.  Each command runs as its own process, against the sources under
``src/``, in a fresh temporary directory.  The digests cover each
command's stdout and every file it writes.

In this process, the same sources then compile each generated text once,
and the text that ``rampforge.ode._compile`` passes to ``compile`` is
digested under ``generated <run>``: each built-in field's row reader
(``<field> eval``, as its ``eval`` is the reader on one row) and RK4 run,
the run that calls a custom ``eval``, the tangent-angle run and
``integrate_fixed``'s run for d = 1, 2 and 3.  Last, this process writes
one table in two formats, one after the other, as a ``planar2d`` job
does, and digests each file under ``written <table>``: the lower branch
sampled at ``planar2d``'s 1000 rows as CSV then JSON, and the frames of a
2D ``simulate`` (``planar2d``'s 2 s at 500 fps), of that trace with NaN,
the infinities and -0.0 written in, and of a 3D ``simulate`` on the
horizontal field, each as CSV then JSONL.  ``--out`` writes all digests as
JSON; ``--compare`` checks them against such a file, names each
output that differs and exits 1 if any does.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SIMULATE_3D = ["simulate", "--mu", "0.5", "--v", "5", "--y0", "0.8", "0", "-0.6"]


def commands() -> list[dict]:
    """The golden CLI cycle, then 3D ``simulate`` per field and format."""
    jobs = workloads.cli_cycle(np.random.default_rng(workloads.GOLDEN_SEED))
    for field in ("horizontal", "upslope", "blend:0.37"):
        for fmt in ("csv", "jsonl"):
            out = f"frames.{fmt}"
            jobs.append({"name": f"simulate3d {field} {fmt}", "rows": {out: None},
                         "argv": [*SIMULATE_3D, "--field", field, "--format", fmt,
                                  "--out", out]})
    return jobs


def digests() -> dict:
    env = worker.pinned_env()
    result = {}
    for job in commands():
        with tempfile.TemporaryDirectory() as workdir:
            out = workloads.run_cli(job, Path(workdir), env)
            result[job["name"]] = workloads.output_digests(job, out)
    return result


def generated() -> dict:
    """sha256 of the text each generating call compiles, ``None`` if it
    compiled none, by wrapping the ``compile`` that ``ode._compile`` calls."""
    from rampforge import (TangentField, builtin_field, field_x, integrate_fixed,
                           integrate_ramp3d, integrate_theta, ode, spec_from_mu)

    texts, result = [], {}

    def recording(source, *args):
        texts.append(source)
        return compile(source, *args)

    def record(name, call, *args):
        start = len(texts)
        value = call(*args)
        new = "\0".join(texts[start:]).encode()
        result[f"generated {name}"] = {
            "source": hashlib.sha256(new).hexdigest() if len(texts) > start else None}
        return value

    spec, y0 = spec_from_mu(0.5, v=5.0), [0.8, 0.0, -0.6]
    ode.compile = recording
    try:
        for args in (("upslope",), ("horizontal",), ("blend", 0.37)):
            field = record(f"{args[0]} eval", builtin_field, *args)
            record(f"{args[0]} run", integrate_ramp3d, spec, field, y0, 0.01)
        custom = TangentField("custom", eval=lambda y: field.eval(y))
        record("eval-call run", field_x, spec, custom, y0)
        record("theta run", integrate_theta, spec, 0.5, (0.0, 0.01))
        for d in (1, 2, 3):
            record(f"integrate_fixed d={d}", integrate_fixed,
                   lambda t, y: y, [1.0] * d, 0.0, 1.0, 0.5)
    finally:
        del ode.compile
    return result


def written() -> dict:
    """sha256 of each file of one table written in two formats in a row."""
    from rampforge import (builtin_field, exporters, integrate_ramp3d, lower_ramp, planar,
                           sample_ramp, simulate, spec_from_mu)

    spec = spec_from_mu(0.5, v=5.0)
    ramp = lower_ramp(spec)
    data = sample_ramp(spec, ramp, np.linspace(0.0, planar.default_span(spec),
                                               workloads.PLANAR_SAMPLES))
    plane = simulate(spec, ramp, workloads.PLANAR_T_SPAN, fps=workloads.PLANAR_FPS)
    frames = plane.frames.copy()
    frames["t"][1] = np.nan
    frames["position"][2] = [np.inf, -np.inf]
    frames["residual"][3] = [-0.0, 5e-324]
    curve = integrate_ramp3d(spec, builtin_field("horizontal"), [0.8, 0.0, -0.6], 2.0 / spec.a)
    writes = {"curve2d": [("curve.csv", exporters.write_curve2d_csv, (data,)),
                          ("curve.json", exporters.write_curve2d_json,
                           (spec, data, {"branch": ramp.branch.value}))]}
    for name, trace in (("frames2d", plane), ("frames2d special", replace(plane, frames=frames)),
                        ("frames3d", simulate(spec, curve, (0.0, 1.0), fps=500.0))):
        writes[name] = [("frames.csv", exporters.write_frames_csv, (trace,)),
                        ("frames.jsonl", exporters.write_frames_jsonl, (trace,))]
    result = {}
    with tempfile.TemporaryDirectory() as workdir:
        for name, files in writes.items():
            for fname, write, args in files:
                path = Path(workdir) / fname
                write(path, *args)
                result.setdefault(f"written {name}", {})[fname] = (
                    hashlib.sha256(path.read_bytes()).hexdigest())
    return result


def differences(want: dict, got: dict) -> list[str]:
    """``command: output`` for each output whose digest differs or is missing."""
    return [f"{name}: {output}" for name in sorted(set(want) | set(got))
            for output in sorted(set(want.get(name, {})) | set(got.get(name, {})))
            if want.get(name, {}).get(output) != got.get(name, {}).get(output)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--out", type=Path, help="write the digests to this JSON file")
    action.add_argument("--compare", type=Path,
                        help="compare the digests with this JSON file")
    args = parser.parse_args(argv)
    got = {**digests(), **generated(), **written()}
    if args.out:
        args.out.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        print(f"wrote {sum(map(len, got.values()))} digests of {len(got)} commands, "
              f"generated texts and written tables to {args.out}")
        return 0
    differ = differences(json.loads(args.compare.read_text()), got)
    for line in differ:
        print(f"differs: {line}")
    print(f"{len(differ)} outputs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
