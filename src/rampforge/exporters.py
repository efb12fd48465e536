"""Deterministic writers for curves, meshes, reports and frame streams.

Numbers are serialized with ``repr`` (shortest round-trip, at most 17
significant digits) except in SVG, where 6 significant digits are plenty for
figures.  In JSON, NaN and the infinities are written as ``json`` writes them
(``NaN``, ``Infinity``, ``-Infinity``); the JSON and JSONL writers render their
text themselves, one ``repr`` per float, and tests pin it byte for byte to
``json.dumps`` with the same settings.  Nothing here embeds timestamps or
environment state, so repeated runs produce byte-identical files.  3D
outputs are identical on any host, because the hemisphere flow is IEEE
arithmetic in a fixed order.  Outputs built on transcendentals (the 2D
``theta_closed_form`` path) are identical only for the same numpy build,
SIMD target and libm.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .params import FrictionSpec, spec_to_dict
from .ramp3d import RampSurface3D, SpaceCurve3D, lambda_3d
from .sim import MotionTrace
from .verify import ForceBalanceReport, ScalingVerification

CURVE2D_HEADER = "s,x,y,tx,ty,nx,ny,lambda"
CURVE3D_HEADER = "s,x,y,z,tx,ty,tz,lambda"
PROFILE_HEADER = "t,residual,lambda"
SVG_WIDTH = 800.0  # px; the height follows the curve's aspect ratio


def fmt(value: float) -> str:
    """Shortest decimal string that round-trips to the same float."""
    return repr(float(value))


def fmt6(value: float) -> str:
    return format(float(value), ".6g")


def _write_lines(path: str | Path, lines: list[str]) -> None:
    # no lines is an empty file, not a file holding one empty line
    Path(path).write_text("\n".join(lines) + "\n" if lines else "", newline="\n")


def _write_csv(path: str | Path, header: str, columns: list) -> None:
    # one row per sample; vector columns of shape (n, k) spread over k cells,
    # and tolist() gives Python floats, whose repr is what fmt() writes
    rows = np.column_stack(columns).tolist()
    _write_lines(path, [header] + [",".join(map(repr, row)) for row in rows])


# repr's spelling of the non-finite floats -> json's
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _number(value: float) -> str:
    text = float.__repr__(value)
    return _NONFINITE.get(text, text)


def _render(value, indent: str) -> str:
    """The text ``json.dumps(value, indent=2, sort_keys=True)`` writes for
    ``value`` at the depth whose lines start with ``indent``."""
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(value, dict):
        if not value:
            return "{}"
        # json sorts the keys as they are, then writes a non-str key as its JSON text
        body = sep.join(json.dumps(k if isinstance(k, str) else json.dumps(k))
                        + ": " + _render(v, inner) for k, v in sorted(value.items()))
        return "{\n" + inner + body + "\n" + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if set(map(type, value)) == {float}:  # exact floats, so repr is float's
            body = sep.join(map(repr, value))
            if "n" in body:  # only nan, inf and -inf spell an n
                body = sep.join(map(_number, value))
        else:
            body = sep.join(_render(v, inner) for v in value)
        return "[\n" + inner + body + "\n" + indent + "]"
    if isinstance(value, float):
        return _number(value)
    return json.dumps(value)


def write_json(path: str | Path, payload: dict) -> None:
    Path(path).write_text(dumps_json(payload) + "\n", newline="\n")


def dumps_json(payload: dict) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True)``, byte for byte."""
    return _render(payload, "")


def _obj_points(tag: str, points: np.ndarray) -> list[str]:
    # one "tag x y z" line per point (last axis), formatted like fmt()
    rows = points.reshape(-1, points.shape[-1]).tolist()
    return [f"{tag} " + " ".join(map(repr, p)) for p in rows]


def write_curve2d_csv(path: str | Path, samples: dict) -> None:
    """Columns ``s,x,y,tx,ty,nx,ny,lambda`` from :func:`planar.sample_ramp`."""
    _write_csv(path, CURVE2D_HEADER, [samples[k] for k in CURVE2D_HEADER.split(",")])


def write_curve2d_json(path: str | Path, spec: FrictionSpec, samples: dict,
                       extra: dict | None = None) -> None:
    keys = CURVE2D_HEADER.split(",")
    payload = {
        "spec": spec_to_dict(spec),
        "columns": keys,
        "samples": np.column_stack([samples[k] for k in keys]).tolist(),
    }
    if extra:
        payload.update(extra)
    write_json(path, payload)


def write_curve2d_svg(path: str | Path, x: np.ndarray, y: np.ndarray) -> None:
    """Polyline figure of a planar curve, ``SVG_WIDTH`` wide; the y axis is
    flipped to screen orientation."""
    x = np.asarray(x, dtype=float)
    y = -np.asarray(y, dtype=float)
    span_x = float(x.max() - x.min()) or 1.0
    span_y = float(y.max() - y.min()) or 1.0
    margin = 0.05 * max(span_x, span_y)
    x0, y0 = float(x.min()) - margin, float(y.min()) - margin
    w, h = span_x + 2 * margin, span_y + 2 * margin
    height = SVG_WIDTH * h / w
    stroke = 0.004 * max(w, h)
    d = "M " + " L ".join(f"{px:.6g} {py:.6g}" for px, py in zip(x.tolist(), y.tolist()))
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{fmt6(SVG_WIDTH)}" '
        f'height="{fmt6(height)}" viewBox="{fmt6(x0)} {fmt6(y0)} {fmt6(w)} {fmt6(h)}">\n'
        f'  <path d="{d}" fill="none" stroke="black" stroke-width="{fmt6(stroke)}"/>\n'
        f'</svg>'
    )
    Path(path).write_text(svg + "\n", newline="\n")


def write_curve3d_csv(path: str | Path, curve: SpaceCurve3D, spec: FrictionSpec) -> None:
    """Columns ``s,x,y,z,tx,ty,tz,lambda`` on the stored integration grid."""
    _write_csv(path, CURVE3D_HEADER,
               [curve.s, curve.alpha, curve.gamma, lambda_3d(spec, curve.gamma)])


def write_obj(path: str | Path, surface: RampSurface3D) -> None:
    """Wavefront OBJ mesh of a ruled strip.

    Vertices are row-major in ``(s, r)``; one normal per s row is shared by
    the whole ruling; quads are split into two triangles wound so the face
    normals agree with the contact normal side.
    """
    n_s, n_r = surface.resolution
    lines = ["# ruled constant-speed ramp strip",
             f"# rows (s): {n_s + 1}  columns (r): {n_r + 1}"]
    lines += _obj_points("v", surface.vertices)
    lines += _obj_points("vn", surface.vertex_normals)

    def vid(i: int, j: int) -> int:
        return i * (n_r + 1) + j + 1

    for i in range(n_s):
        for j in range(n_r):
            a, b = vid(i, j), vid(i, j + 1)
            c, d = vid(i + 1, j), vid(i + 1, j + 1)
            lines.append(f"f {a}//{i + 1} {b}//{i + 1} {c}//{i + 2}")
            lines.append(f"f {b}//{i + 1} {d}//{i + 2} {c}//{i + 2}")
    _write_lines(path, lines)


def write_obj_polyline(path: str | Path, points: np.ndarray) -> None:
    """OBJ polyline (``l`` element) through the given points."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    lines = ["# trajectory polyline", *_obj_points("v", points)]
    lines.append("l " + " ".join(str(i + 1) for i in range(points.shape[0])))
    _write_lines(path, lines)


def report_to_dict(report: ForceBalanceReport, include_profiles: bool = True) -> dict:
    payload = {
        "verdict": report.verdict.value,
        "max_residual": float(report.max_residual),
        "max_normal_residual": float(report.max_normal_residual),
        "max_tangential_residual": float(report.max_tangential_residual),
        "lambda_min": float(report.lambda_min),
        "tol_residual": float(report.tol_residual),
        "tol_lambda": float(report.tol_lambda),
        "meta": report.meta,
    }
    if include_profiles:
        payload["t"] = report.t.tolist()
        payload["residual_norm"] = report.residual_norm.tolist()
        payload["lambda"] = report.lambda_profile.tolist()
    return payload


def scaling_to_dict(result: ScalingVerification, include_profiles: bool = False) -> dict:
    return {
        "kappa": float(result.kappa),
        "both_valid": result.both_valid,
        "speed_reinterpretation": {
            "spec": spec_to_dict(result.speed_spec),
            "report": report_to_dict(result.speed_report, include_profiles),
        },
        "gravity_reinterpretation": {
            "spec": spec_to_dict(result.gravity_spec),
            "report": report_to_dict(result.gravity_report, include_profiles),
        },
    }


def write_profile_csv(path: str | Path, report: ForceBalanceReport) -> None:
    """Columns ``t,residual,lambda`` for plotting a verification profile."""
    _write_csv(path, PROFILE_HEADER,
               [report.t, report.residual_norm, report.lambda_profile])


def write_frames_jsonl(path: str | Path, trace: MotionTrace) -> None:
    """One JSON object per line, one line per frame, keys sorted: the text of
    ``json.dumps(frame_dict, sort_keys=True)``."""
    frames = trace.frames
    names = sorted(frames.dtype.names)
    fields = []
    for name in names:
        shape = frames.dtype[name].shape  # () for t; the width even with no frames
        cells = ", ".join(["%s"] * math.prod(shape))  # str of a float is its repr
        fields.append(f"{json.dumps(name)}: " + (f"[{cells}]" if shape else cells))
    template = "{" + ", ".join(fields) + "}"
    table = np.column_stack([frames[name] for name in names])
    rows = table.tolist()
    if not np.isfinite(table).all():
        rows = [[_number(v) for v in row] for row in rows]
    _write_lines(path, [template % tuple(row) for row in rows])


def write_frames_csv(path: str | Path, trace: MotionTrace) -> None:
    """Columns ``t`` and ``px,py[,pz]`` through ``rx,ry[,rz]``: each vector
    column's initial plus the axis."""
    names = trace.frames.dtype.names
    axes = "xyz"[:trace.dimension]
    header = "t," + ",".join(f"{name[0]}{ax}" for name in names[1:] for ax in axes)
    _write_csv(path, header, [trace.frames[name] for name in names])


def trace_summary(trace: MotionTrace) -> dict:
    return {
        "frames": len(trace.frames),
        "fps": float(trace.fps),
        "dimension": trace.dimension,
        "truncated": trace.truncated,
        "warning": trace.warning,
        "meta": trace.meta,
    }
