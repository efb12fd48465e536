"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side only: :func:`install` swaps the
module attribute a caller looks up (``rampforge.ramp3d.cumulative_simpson``,
``rampforge.cli.build_surface``, ...) for a timing wrapper and
:func:`uninstall` puts the original back, so nothing under ``src/`` changes.

A span is ``[name, start, end, parent, job, attrs]`` with ``perf_counter``
times (``CLOCK_MONOTONIC`` on Linux, so spans written by a child process line
up with the parent's), the index of the enclosing span or ``-1``, the job id
and a dict of counters taken where the work happens.  Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

# (module, attribute, span name) for every binding a caller may look up.
# A function imported into several modules is wrapped in each of them.
BINDINGS = [
    ("params", "make_spec", "params.make_spec"),
    ("params", "spec_from_mu", "params.make_spec"),
    ("verify", "make_spec", "params.make_spec"),
    ("cli", "make_spec", "params.make_spec"),
    ("cli", "spec_from_mu", "params.make_spec"),
    ("planar", "make_ramp", "planar.make_ramp"),
    ("cli", "make_ramp", "planar.make_ramp"),
    ("planar", "sample_ramp", "planar.sample_ramp"),
    ("cli", "sample_ramp", "planar.sample_ramp"),
    ("ode", "integrate_theta", "ode.integrate_theta"),
    ("ramp3d", "integrate_ramp3d", "ramp3d.integrate_ramp3d"),
    ("cli", "integrate_ramp3d", "ramp3d.integrate_ramp3d"),
    ("ramp3d", "cumulative_simpson", "ramp3d.cumulative_simpson"),
    ("ramp3d", "build_surface", "ramp3d.build_surface"),
    ("cli", "build_surface", "ramp3d.build_surface"),
    ("verify", "verify_2d", "verify.verify_2d"),
    ("cli", "verify_2d", "verify.verify_2d"),
    ("verify", "verify_3d", "verify.verify_3d"),
    ("cli", "verify_3d", "verify.verify_3d"),
    ("verify", "verify_scaling", "verify.verify_scaling"),
    ("cli", "verify_scaling", "verify.verify_scaling"),
    ("verify", "planar_reduction_check", "verify.planar_reduction_check"),
    ("cli", "planar_reduction_check", "verify.planar_reduction_check"),
    ("sim", "simulate", "sim.simulate"),
    ("cli", "simulate", "sim.simulate"),
    ("exporters", "write_curve2d_csv", "exporters.write_curve2d"),
    ("exporters", "write_curve2d_json", "exporters.write_curve2d"),
    ("exporters", "write_curve2d_svg", "exporters.write_curve2d"),
    ("exporters", "write_curve3d_csv", "exporters.write_curve3d_csv"),
    ("exporters", "write_obj", "exporters.write_obj"),
    ("exporters", "write_frames_csv", "exporters.write_frames"),
    ("exporters", "write_frames_jsonl", "exporters.write_frames"),
    ("exporters", "write_json", "exporters.write_json"),
]

INTEGRATE = "ramp3d.integrate_ramp3d"


class Tracer:
    """In-memory span list with a stack of open spans (one thread)."""

    def __init__(self):
        self.spans: list[list] = []
        self.job = None
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.job, {}])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def adopt(self, spans: list[list], parent: int) -> None:
        """Append spans recorded elsewhere (a CLI child) under ``parent``."""
        offset = len(self.spans)
        for name, start, end, par, _job, attrs in spans:
            self.spans.append([name, start, end,
                               parent if par < 0 else par + offset, self.job, attrs])


def _counting_field(tracer: Tracer, tangent_field, index: int, count: list):
    # Same name and singular set, so every output that names the field is
    # unchanged.  Only evaluations made while span ``index`` (the
    # integrate_ramp3d call) is the innermost open span are counted.
    inner = tangent_field.eval
    stack = tracer._stack

    def counted(y):
        if stack and stack[-1] == index:
            count[0] += 1
        return inner(y)

    return type(tangent_field)(name=tangent_field.name, eval=counted,
                               singular_set=tangent_field.singular_set)


def _record(name: str, attrs: dict, args: tuple, result) -> None:
    """Counters of one finished call, stored on its span."""
    if name == INTEGRATE:
        attrs["steps"] = int(result.s.shape[0]) - 1
        attrs["early_stops"] = int(result.stopped_early)
    elif name in ("verify.verify_2d", "verify.verify_3d"):
        attrs["samples"] = int(result.t.shape[0])
    elif name == "ode.integrate_theta":
        attrs["steps"] = int(result.s.shape[0]) - 1
    elif name == "planar.sample_ramp":
        attrs["samples"] = int(result["s"].shape[0])
    elif name == "sim.simulate":
        attrs["frames"] = len(result.frames)
    elif name.startswith("exporters."):
        attrs["bytes"] = os.path.getsize(args[0])


def _wrap(tracer: Tracer, func, name: str):
    @functools.wraps(func)
    def traced(*args, **kwargs):
        index = tracer.open(name)
        count = [0]
        try:
            if name == INTEGRATE:
                if "tangent_field" in kwargs:
                    kwargs["tangent_field"] = _counting_field(
                        tracer, kwargs["tangent_field"], index, count)
                else:
                    args = (args[0], _counting_field(tracer, args[1], index, count)) + args[2:]
            result = func(*args, **kwargs)
        finally:
            tracer.close(index)
        attrs = tracer.spans[index][5]
        if name == INTEGRATE:
            attrs["field_evals"] = count[0]
        _record(name, attrs, args, result)
        return result

    return traced


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every binding in :data:`BINDINGS`; returns what :func:`uninstall` needs."""
    import importlib

    saved = []
    for module_name, attr, name in BINDINGS:
        module = importlib.import_module(f"rampforge.{module_name}")
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, _wrap(tracer, original, name))
    return saved


def uninstall(saved: list[tuple]) -> None:
    for module, attr, original in reversed(saved):
        setattr(module, attr, original)


LAYERS = ("params", "planar", "ode", "ramp3d", "verify", "sim", "exporters", "cli")


def _mean_ms(durations: list[float]) -> float:
    return 1e3 * sum(durations) / len(durations) if durations else 0.0


def layer_metrics(spans: list[list], jobs: int) -> dict[str, float]:
    """Per-layer numbers of one traced phase of ``jobs`` jobs.

    ``<layer>.<func>.ms`` is the mean duration of one call, ``<layer>.self_ms``
    the layer's self time per job (span duration minus the time its child
    spans cover), counts are per call unless named otherwise.  A layer the
    workload never calls reads 0.
    """
    durations = defaultdict(list)
    child_time = defaultdict(float)
    for name, start, end, parent, _job, _attrs in spans:
        durations[name].append(end - start)
        if parent >= 0:
            child_time[parent] += end - start
    self_s = defaultdict(float)
    for index, (name, start, end, _p, _j, _a) in enumerate(spans):
        self_s[name.split(".", 1)[0]] += (end - start) - child_time[index]

    def total(name: str, key: str) -> int:
        return sum(a.get(key, 0) for n, *_rest, a in spans if n == name)

    def per_call(name: str, key: str) -> float:
        calls = len(durations[name])
        return total(name, key) / calls if calls else 0.0

    steps = total(INTEGRATE, "steps")
    integrate_s = sum(durations[INTEGRATE])
    # bytes of the outermost exporter call only: write_curve2d_json writes
    # through write_json, which would otherwise count the same file twice
    export_bytes = 0
    export_s = 0.0
    for name, start, end, parent, _job, attrs in spans:
        if name.startswith("exporters.") and not (
                parent >= 0 and spans[parent][0].startswith("exporters.")):
            export_bytes += attrs.get("bytes", 0)
            export_s += end - start

    metrics = {
        "ramp3d.integrate_ramp3d.ms": _mean_ms(durations[INTEGRATE]),
        "ramp3d.step_us": 1e6 * integrate_s / steps if steps else 0.0,
        "ramp3d.field_evals": per_call(INTEGRATE, "field_evals"),
        "ramp3d.field_evals_per_step": total(INTEGRATE, "field_evals") / steps if steps else 0.0,
        "ramp3d.steps": per_call(INTEGRATE, "steps"),
        "ramp3d.early_stops": total(INTEGRATE, "early_stops"),
        "ramp3d.cumulative_simpson.ms": _mean_ms(durations["ramp3d.cumulative_simpson"]),
        "ramp3d.build_surface.ms": _mean_ms(durations["ramp3d.build_surface"]),
        "verify.verify_3d.ms": _mean_ms(durations["verify.verify_3d"]),
        "verify.verify_2d.ms": _mean_ms(durations["verify.verify_2d"]),
        "verify.verify_scaling.ms": _mean_ms(durations["verify.verify_scaling"]),
        "verify.planar_reduction_check.ms": _mean_ms(durations["verify.planar_reduction_check"]),
        "verify.samples": (total("verify.verify_2d", "samples")
                           + total("verify.verify_3d", "samples")) / jobs,
        "ode.integrate_theta.ms": _mean_ms(durations["ode.integrate_theta"]),
        "ode.steps": per_call("ode.integrate_theta", "steps"),
        "planar.make_ramp.ms": _mean_ms(durations["planar.make_ramp"]),
        "planar.sample_ramp.ms": _mean_ms(durations["planar.sample_ramp"]),
        "planar.samples": per_call("planar.sample_ramp", "samples"),
        "sim.simulate.ms": _mean_ms(durations["sim.simulate"]),
        "sim.frames": per_call("sim.simulate", "frames"),
        "exporters.write_obj.ms": _mean_ms(durations["exporters.write_obj"]),
        "exporters.write_curve3d_csv.ms": _mean_ms(durations["exporters.write_curve3d_csv"]),
        "exporters.write_curve2d.ms": _mean_ms(durations["exporters.write_curve2d"]),
        "exporters.write_frames.ms": _mean_ms(durations["exporters.write_frames"]),
        "exporters.bytes": export_bytes / jobs,
        "exporters.mb_per_s": export_bytes / 1e6 / export_s if export_s else 0.0,
        "params.make_spec.ms": _mean_ms(durations["params.make_spec"]),
        "cli.main_ms": _mean_ms(durations["cli.main"]),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = 1e3 * self_s[layer] / jobs
    return metrics
