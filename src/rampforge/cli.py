"""Command line front end.

Subcommands mirror the library: ``generate2d``, ``generate3d``, ``verify``,
``simulate`` and ``scale``.  Every command accepts ``--config FILE`` with a
flat JSON object of option values, each read as its flag; explicit flags
override the file.  ``--field`` takes any name ``builtin_field`` gives.  A
negative number in any form ``float`` reads is a value, never an option
(``--y0 0.8 -1e-05 -0.6``, ``--r-extent -inf 1``, ``--out -1e5``).  Exit
codes: 0 success, 2 validation failure (a request too large to allocate
included), 3 I/O failure, 4 verification ran but did not pass.  Only the 3D
commands log, since only the hemisphere flow does: set
``RAMPFORGE_LOG=DEBUG|INFO|WARNING|ERROR`` to control their logging (stderr;
stdout carries only the JSON summaries).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import re
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import _SOURCE, exporters
from .errors import ParameterError, RampError
from .params import (FrictionSpec, _require_friction_angle, _require_positive,
                     _require_samples, make_spec, spec_from_mu, spec_to_dict)
from .planar import (Branch, Ramp2D, apex_param, asymptote_gap, default_span,
                     make_ramp, sample_ramp)

if TYPE_CHECKING:
    from .ramp3d import SpaceCurve3D

# Only what building the parser needs is imported above; each command imports
# the 3D, simulation and verification layers it runs.  The layer functions the
# commands call stay readable as attributes of this module only because
# bench/spans.py reads them here; no command calls them through this module,
# so nothing else should either.  The shim, this set and the _SOURCE import
# go when the bench stops binding cli (ROADMAP, "Time what a command imports").
_LAYER_FUNCTIONS = frozenset({
    "build_surface", "integrate_ramp3d", "planar_reduction_check", "simulate",
    "verify_2d", "verify_3d", "verify_scaling"})

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_VERIFICATION = 4


def __getattr__(name: str):
    if name not in _LAYER_FUNCTIONS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__package__}.{_SOURCE[name]}"), name)


def _setup_logging() -> None:
    # only the hemisphere flow logs, so a 2D command never imports logging
    import logging

    name = os.environ.get("RAMPFORGE_LOG", "WARNING").upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")


def _emit(payload: dict) -> None:
    # flushed here, so that a reader who has gone is main's i/o error
    print(exporters.dumps_json(payload), flush=True)


def _parse_mesh(text: str) -> tuple[int, int]:
    try:
        n_s, n_r = (int(part) for part in text.lower().split("x"))
    except ValueError as exc:
        raise ParameterError(f"--mesh expects NxM, got {text!r}", code="config") from exc
    return n_s, n_r


def _spec_from_args(args: argparse.Namespace) -> FrictionSpec:
    have_mu = args.mu is not None
    have_delta = args.delta_deg is not None
    if have_mu == have_delta:
        raise ParameterError("provide exactly one of --mu / --delta-deg",
                             code="config")
    if args.v is None:
        raise ParameterError("--v (block speed) is required", code="config")
    if have_mu:
        return spec_from_mu(args.mu, g=args.g, v=args.v, m=args.mass)
    delta = _require_friction_angle(math.radians(args.delta_deg), "--delta-deg", args.delta_deg)
    return make_spec(delta, g=args.g, v=args.v, m=args.mass)


def _normalized_y0(values) -> np.ndarray:
    if values is None:
        raise ParameterError("--y0 (initial direction) is required for 3d geometry",
                             code="config")
    y0 = np.asarray(values)  # three floats, read by argparse
    norm = float(np.linalg.norm(y0))
    if norm == 0.0 or not math.isfinite(norm):
        raise ParameterError(f"--y0 must be a nonzero finite vector, got {values!r}",
                             code="config")
    return y0 / norm  # integrate_ramp3d checks that it is in the hemisphere


def _integrate_from_args(spec: FrictionSpec, args: argparse.Namespace) -> SpaceCurve3D:
    from .ramp3d import builtin_field, integrate_ramp3d

    _setup_logging()
    if args.field is None:
        raise ParameterError("--field is required for 3d geometry", code="config")
    tangent_field = builtin_field(args.field)
    y0 = _normalized_y0(args.y0)
    s_max = args.smax if args.smax is not None else 5.0 / spec.a
    return integrate_ramp3d(spec, tangent_field, y0, s_max, step=args.step)


def _pick_geometry(spec: FrictionSpec, args: argparse.Namespace):
    """The ``--branch`` ramp or the ``--field`` curve.  ``--y0``, ``--smax``
    or ``--step`` with ``--branch`` is a usage error, never ignored."""
    two_d = args.branch is not None
    three_d = args.field is not None
    if two_d == three_d:
        raise ParameterError("choose exactly one of --branch (planar) or "
                             "--field (spatial)", code="config")
    if two_d:
        for name in ("y0", "smax", "step"):
            if getattr(args, name) is not None:
                raise ParameterError(f"--{name} applies only to --field geometry, "
                                     "not to --branch", code="config")
        return make_ramp(spec, args.branch)
    return _integrate_from_args(spec, args)


def cmd_generate2d(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    ramp = make_ramp(spec, args.branch)
    span = _require_positive("--span", args.span if args.span is not None
                             else default_span(spec))
    s = np.linspace(0.0, span, _require_samples(args.samples))
    data = sample_ramp(spec, ramp, s)

    out = None
    if args.out:
        out = Path(args.out)
        if args.format == "csv":
            exporters.write_curve2d_csv(out, data)
        elif args.format == "json":
            exporters.write_curve2d_json(out, spec, data,
                                         extra={"branch": ramp.branch.value})
        else:
            exporters.write_curve2d_svg(out, data["x"], data["y"])
    _emit({
        "apex_s0": apex_param(spec),
        "asymptote_gap": asymptote_gap(spec),
        "branch": ramp.branch.value,
        "span": float(span),
        "samples": int(args.samples),
        "spec": spec_to_dict(spec),
        "out": str(out) if out else None,
    })
    return EXIT_OK


def cmd_generate3d(args: argparse.Namespace) -> int:
    from .ramp3d import build_surface
    from .verify import Verdict, planar_reduction_check, verify_3d

    spec = _spec_from_args(args)
    if not args.out:
        raise ParameterError("--out base path is required", code="config")
    curve = _integrate_from_args(spec, args)
    surface = build_surface(curve, r_extent=tuple(args.r_extent),
                            resolution=_parse_mesh(args.mesh))
    report = verify_3d(spec, curve)
    reduction = planar_reduction_check(spec, curve)

    base = Path(args.out)
    obj_path = base.parent / (base.name + ".obj")
    csv_path = base.parent / (base.name + ".curve.csv")
    report_path = base.parent / (base.name + ".report.json")
    exporters.write_obj(obj_path, surface)
    exporters.write_curve3d_csv(csv_path, curve, spec)
    exporters.write_json(report_path, {
        "spec": spec_to_dict(spec),
        "field": curve.field.name,
        "report": exporters.report_to_dict(report),
        "planar_reduction": reduction,
        "norm_drift_total": curve.norm_drift_total,
        "stopped_early": curve.stopped_early,
        "stop_reason": curve.stop_reason,
    })
    _emit({
        "verdict": report.verdict.value,
        "max_residual": report.max_residual,
        "lambda_min": report.lambda_min,
        "planar_reduction": reduction,
        "stopped_early": curve.stopped_early,
        "files": {"mesh": str(obj_path), "curve": str(csv_path),
                  "report": str(report_path)},
    })
    return EXIT_OK if report.verdict is Verdict.VALID else EXIT_VERIFICATION


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import Verdict, verify_2d, verify_3d

    spec = _spec_from_args(args)
    # refused before the --field curve is integrated; with both geometries
    # or neither, _pick_geometry's error comes first
    if args.t_span is not None and args.field is not None and args.branch is None:
        raise ParameterError("--t-span applies only to --branch geometry, "
                             "not to --field", code="config")
    geometry = _pick_geometry(spec, args)
    if isinstance(geometry, Ramp2D):
        t_span = tuple(args.t_span) if args.t_span else None
        report = verify_2d(spec, geometry, t_span=t_span, n_samples=args.samples)
    else:
        report = verify_3d(spec, geometry, n_samples=args.samples)
    if args.out:
        exporters.write_json(Path(args.out), exporters.report_to_dict(report))
    _emit(exporters.report_to_dict(report, include_profiles=False))
    return EXIT_OK if report.verdict is Verdict.VALID else EXIT_VERIFICATION


def cmd_simulate(args: argparse.Namespace) -> int:
    from .sim import simulate

    spec = _spec_from_args(args)
    geometry = _pick_geometry(spec, args)
    trace = simulate(spec, geometry, tuple(args.t_span), fps=args.fps)
    out = None
    if args.out:
        out = Path(args.out)
        if args.format == "csv":
            exporters.write_frames_csv(out, trace)
        else:
            exporters.write_frames_jsonl(out, trace)
    summary = exporters.trace_summary(trace)
    summary["out"] = str(out) if out else None
    _emit(summary)
    return EXIT_OK


def cmd_scale(args: argparse.Namespace) -> int:
    from .verify import verify_scaling

    spec = _spec_from_args(args)
    if args.kappa is None:
        raise ParameterError("--kappa is required", code="config")
    geometry = _pick_geometry(spec, args)
    result = verify_scaling(spec, geometry, args.kappa, n_samples=args.samples)
    if args.out:
        exporters.write_json(Path(args.out),
                             exporters.scaling_to_dict(result, include_profiles=True))
    _emit(exporters.scaling_to_dict(result, include_profiles=False))
    return EXIT_OK if result.both_valid else EXIT_VERIFICATION


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", type=str, default=None,
                     help="JSON file with option values; flags override it")
    grp = sub.add_argument_group("physical parameters")
    grp.add_argument("--mu", type=float, default=None,
                     help="kinetic friction coefficient in (0, 1)")
    grp.add_argument("--delta-deg", dest="delta_deg", type=float, default=None,
                     help="friction angle in degrees (alternative to --mu)")
    grp.add_argument("--v", type=float, default=None, help="block speed, m/s")
    grp.add_argument("--g", type=float, default=9.81,
                     help="gravity, m/s^2 (default 9.81)")
    grp.add_argument("--mass", type=float, default=1.0,
                     help="block mass, kg (default 1)")


def _add_geometry3d(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--field", type=str, default=None,
                     help="tangent field: upslope | horizontal | blend:W, "
                          "any name builtin_field gives, in any case")
    sub.add_argument("--y0", type=float, nargs=3, default=None,
                     metavar=("Y1", "Y2", "Y3"),
                     help="initial direction (normalized on input, y3 <= 0)")
    sub.add_argument("--smax", type=float, default=None,
                     help="arc length to integrate (default 5/a)")
    sub.add_argument("--step", type=float, default=None,
                     help="integrator step (default 1e-3/a)")


# every negative number ``float`` reads (``-1e-05``, ``-inf``, ``-nan``): a
# parser reads a token it matches as a value, never as an option; argparse's
# own pattern takes only ``-1`` and ``-1.5`` forms
_NEGATIVE_NUMBER = re.compile(
    r"^-(\d[\d_]*\.?[\d_]*|\.\d[\d_]*)(e[-+]?\d[\d_]*)?$|^-(inf|infinity|nan)$",
    re.IGNORECASE)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rampforge",
        description="Constant-speed ramp curves, surfaces and force checks.")
    parser._negative_number_matcher = _NEGATIVE_NUMBER
    commands = parser.add_subparsers(dest="command", metavar="command")

    def command(name: str, func, help_text: str) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, help=help_text)
        sub._negative_number_matcher = _NEGATIVE_NUMBER
        sub.set_defaults(func=func)
        _add_common(sub)
        return sub

    sub = command("generate2d", cmd_generate2d, "sample a planar ramp branch")
    sub.add_argument("--branch", choices=[b.value for b in Branch], default="lower")
    sub.add_argument("--span", type=float, default=None,
                     help="arc length to sample (default 8/a)")
    sub.add_argument("--samples", type=int, default=400)
    sub.add_argument("--out", type=str, default=None)
    sub.add_argument("--format", choices=["csv", "json", "svg"], default="csv")

    sub = command("generate3d", cmd_generate3d,
                  "integrate a hemisphere flow and mesh the strip")
    _add_geometry3d(sub)
    sub.add_argument("--r-extent", dest="r_extent", type=float, nargs=2,
                     default=[-0.5, 0.5], metavar=("RMIN", "RMAX"))
    sub.add_argument("--mesh", type=str, default="200x16",
                     help="surface resolution as NxM quads (default 200x16)")
    sub.add_argument("--out", type=str, default=None,
                     help="base path; writes .obj, .curve.csv and .report.json")

    sub = command("verify", cmd_verify, "force-balance check of a geometry")
    _add_geometry3d(sub)
    sub.add_argument("--branch", choices=[b.value for b in Branch], default=None)
    sub.add_argument("--t-span", dest="t_span", type=float, nargs=2, default=None,
                     metavar=("T0", "T1"))
    sub.add_argument("--samples", type=int, default=400)
    sub.add_argument("--out", type=str, default=None, help="report JSON path")

    sub = command("simulate", cmd_simulate, "frame-by-frame force decomposition")
    _add_geometry3d(sub)
    sub.add_argument("--branch", choices=[b.value for b in Branch], default=None)
    sub.add_argument("--t-span", dest="t_span", type=float, nargs=2,
                     default=[0.0, 2.0], metavar=("T0", "T1"))
    sub.add_argument("--fps", type=float, default=30.0)
    sub.add_argument("--out", type=str, default=None)
    sub.add_argument("--format", choices=["jsonl", "csv"], default="jsonl")

    sub = command("scale", cmd_scale, "dilate a geometry and verify both readings")
    _add_geometry3d(sub)
    sub.add_argument("--branch", choices=[b.value for b in Branch], default=None)
    sub.add_argument("--kappa", type=float, default=None, help="dilation factor")
    sub.add_argument("--samples", type=int, default=400)
    sub.add_argument("--out", type=str, default=None, help="full report JSON path")

    return parser


def _config_tokens(path: str) -> list[str]:
    """The JSON object in file ``path`` as tokens that argparse reads as the
    flags': a scalar as ``--key=value``, a list as ``--key v1 v2 ...``
    (``_`` in a key read as ``-``); ``null`` leaves the option unset, and
    ``true``, ``false`` or an object raises :class:`ParameterError`."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ParameterError(f"config file {path} is not valid JSON: {exc}",
                             code="config") from exc
    if not isinstance(data, dict):
        raise ParameterError(f"config file {path} must hold a JSON object", code="config")
    tokens = []
    for key, value in data.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(value, list):
            tokens += [flag, *map(str, value)]
        elif isinstance(value, (bool, dict)):
            raise ParameterError(f"config file {path}: {key} cannot be {json.dumps(value)}",
                                 code="config")
        elif value is not None:
            tokens.append(f"{flag}={value}")
    return tokens


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
            if getattr(args, "config", None) is not None:
                # the file's options right after the subcommand: flags after
                # them win, since argparse keeps the last value
                at = argv.index(args.command) + 1
                args = parser.parse_args(
                    [*argv[:at], *_config_tokens(args.config), *argv[at:]])
        except SystemExit as exc:
            return int(exc.code or 0)
        if getattr(args, "func", None) is None:
            parser.print_usage(sys.stderr)
            return EXIT_VALIDATION
        return args.func(args)
    except (RampError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    # a command is one short process: the objects its imports made (numpy's,
    # the stdlib's and this package's modules) live until it exits, so they
    # leave the collector's generations, and no collection the command
    # triggers walks them
    gc.freeze()
    code = main()
    # past main, all a command's exit needs is its log handlers closed (a 3D
    # command's: no other imports logging) and its output flushed; tearing
    # the interpreter down (module by module, and running atexit handlers)
    # would only cost time
    if "logging" in sys.modules:
        sys.modules["logging"].shutdown()
    try:
        try:
            sys.stdout.flush()
        except OSError:
            # the reader has gone, which main reported if the output was a
            # command's: what is left in the buffer goes to the null device,
            # not to an "Exception ignored" message at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise
        sys.stderr.flush()
    except (AttributeError, OSError, ValueError):
        # a stream that is missing (None), closed or cannot take its output:
        # the interpreter's own exit handles and reports it, as it always has
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    entry()
