"""Deterministic writers for curves, meshes, reports and frame streams.

Numbers are serialized with ``repr`` (shortest round-trip, at most 17
significant digits) except in SVG, where 6 significant digits are plenty for
figures.  In JSON, NaN and the infinities are written as ``json`` writes them
(``NaN``, ``Infinity``, ``-Infinity``); the JSON and JSONL writers render their
text themselves, and tests pin it byte for byte to ``json.dumps`` with the
same settings.  A float table (curve samples, frames, mesh points) is
formatted once by :func:`_rows`, column by column: a column that repeats its
values (a constant force, a residual at rounding level) pays one ``repr``
per distinct value, any other one ``repr`` per float.  Every format of the
table is built from those row texts: a job that writes one table as CSV and
then as JSON or JSONL pays for the ``repr`` pass once.  The cache behind
:func:`_rows` holds one table, keyed on its exact bytes.  Nothing here
embeds timestamps or environment state, so repeated runs produce
byte-identical files.  3D outputs are identical on any host, because the
hemisphere flow is IEEE arithmetic in a fixed order.  Outputs built on
transcendentals (the 2D ``theta_closed_form`` path) are identical only for
the same numpy build, SIMD target and libm.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .params import FrictionSpec, spec_to_dict

if TYPE_CHECKING:  # a 2D command never loads the 3D, simulation or verification layers
    from .ramp3d import RampSurface3D, SpaceCurve3D
    from .sim import MotionTrace
    from .verify import ForceBalanceReport, ScalingVerification

CURVE2D_HEADER = "s,x,y,tx,ty,nx,ny,lambda"
CURVE3D_HEADER = "s,x,y,z,tx,ty,tz,lambda"
SVG_WIDTH = 800.0  # px; the height follows the curve's aspect ratio


def _write_lines(path: str | Path, lines: list[str]) -> None:
    # no lines is an empty file, not a file holding one empty line
    Path(path).write_text("\n".join(lines) + "\n" if lines else "", newline="\n")


_BLOCK = 256  # rows whose cells are alive at once while a table is formatted


def _cells(column: np.ndarray) -> list[str] | None:
    """The cells of a column with at most half as many distinct values as
    rows, each value formatted once; ``None`` for any other column.  Values
    are told apart by their bits, so ``0.0`` and ``-0.0`` stay apart, as do
    NaNs of different payloads."""
    bits = column.view(f"u{column.itemsize}")
    order = bits.argsort()
    ranked = bits[order]
    first = np.empty(len(bits), dtype=bool)
    first[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
    if 2 * np.count_nonzero(first) > len(bits):
        return None
    texts = list(map(repr, column[order[first]].tolist()))
    index = np.empty(len(bits), dtype=np.intp)
    index[order] = first.cumsum() - 1  # each row's value, by its rank among the distinct
    return list(map(texts.__getitem__, index.tolist()))


@functools.lru_cache(maxsize=1)
def _formatted(dtype: str, shape: tuple, data: bytes) -> tuple[str, ...]:
    # tolist() gives Python floats, each written as its shortest round-trip repr
    table = np.frombuffer(data, dtype=dtype).reshape(shape)
    n, width = shape
    if not width:
        return ("",) * n
    repeated = [_cells(column) for column in table.T]
    rows = []
    # column by column, a block of rows at a time: one map per column and no
    # Python statement per row or per cell
    for start in range(0, n, _BLOCK):
        stop = start + _BLOCK
        columns = [map(repr, table[start:stop, j].tolist()) if cells is None
                   else cells[start:stop] for j, cells in enumerate(repeated)]
        rows += map(",".join, zip(*columns))
    return tuple(rows)


def _rows(table: np.ndarray) -> tuple[str, ...]:
    """Each row of the 2D float ``table`` as the ``repr`` of its values
    joined by ``","``: the table's CSV rows.

    Every writer of a float table builds its text from these rows, and the
    last table formatted is remembered, so writing one table in two formats
    formats it once.  The key is the table's dtype, shape and bytes, so
    ``0.0`` and ``-0.0`` never share an entry, nor do NaNs of different
    bits, and a table changed in place is formatted again.  Joined rows,
    not one string per float, keep the remembered table small.
    """
    return _formatted(table.dtype.str, table.shape, table.tobytes())


def _write_csv(path: str | Path, header: str, columns: list) -> None:
    # one row per sample; vector columns of shape (n, k) spread over k cells
    _write_lines(path, [header, *_rows(np.column_stack(columns))])


# repr's spelling of the non-finite floats -> json's
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _number(value: float) -> str:
    text = float.__repr__(value)
    return _NONFINITE.get(text, text)


def _json_cells(row: str) -> list[str]:
    # the cells of a row of _rows, spelled as json spells them
    cells = row.split(",")
    if "n" in row:  # only nan, inf and -inf spell an n
        cells = [_NONFINITE.get(c, c) for c in cells]
    return cells


class _Table(tuple):
    """The :func:`_rows` of a float table, which :func:`_render` writes as
    the list of float lists the table's ``tolist()`` is."""


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
        if isinstance(value, _Table):  # each row a list of floats, a level deeper
            cell, start, end = sep + "  ", f"[\n{inner}  ", f"\n{inner}]"
            # a row of finite floats is spelled as repr spells it: only its commas change
            body = sep.join(start + (row.replace(",", cell) if "n" not in row
                                     else cell.join(_json_cells(row))) + end
                            for row in value)
        elif set(map(type, value)) == {float}:  # exact floats, so repr is float's
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
    # one "tag x y z" line per point (last axis)
    return [f"{tag} " + row.replace(",", " ")
            for row in _rows(points.reshape(-1, points.shape[-1]))]


def write_curve2d_csv(path: str | Path, samples: dict) -> None:
    """Columns ``s,x,y,tx,ty,nx,ny,lambda`` from :func:`planar.sample_ramp`."""
    _write_csv(path, CURVE2D_HEADER, [samples[k] for k in CURVE2D_HEADER.split(",")])


def write_curve2d_json(path: str | Path, spec: FrictionSpec, samples: dict,
                       extra: dict | None = None) -> None:
    keys = CURVE2D_HEADER.split(",")
    payload = {
        "spec": spec_to_dict(spec),
        "columns": keys,
        "samples": _Table(_rows(np.column_stack([samples[k] for k in keys]))),
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
    d = "M " + " L ".join(map("{:.6g} {:.6g}".format, x.tolist(), y.tolist()))
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH:.6g}" '
        f'height="{height:.6g}" viewBox="{x0:.6g} {y0:.6g} {w:.6g} {h:.6g}">\n'
        f'  <path d="{d}" fill="none" stroke="black" stroke-width="{stroke:.6g}"/>\n'
        f'</svg>'
    )
    Path(path).write_text(svg + "\n", newline="\n")


def write_curve3d_csv(path: str | Path, curve: SpaceCurve3D, spec: FrictionSpec) -> None:
    """Columns ``s,x,y,z,tx,ty,tz,lambda`` on the stored integration grid."""
    from .ramp3d import lambda_3d

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
    # quad (i, j) has corners a, a + 1 (along r) and a + n_r + 1, a + n_r + 2
    # (next s row), with 1-based vertex id a; its rows' normals are i + 1, i + 2
    i, j = np.divmod(np.arange(n_s * n_r), n_r)
    a = i * (n_r + 1) + j + 1
    faces = "f {0}//{4} {1}//{4} {2}//{5}\nf {1}//{4} {3}//{5} {2}//{5}".format
    lines += map(faces, *(ids.tolist() for ids in (a, a + 1, a + n_r + 1, a + n_r + 2,
                                                    i + 1, i + 2)))
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


def write_frames_jsonl(path: str | Path, trace: MotionTrace) -> None:
    """One JSON object per line, one line per frame, keys sorted: the text of
    ``json.dumps(frame_dict, sort_keys=True)``."""
    frames = trace.frames
    names = frames.dtype.names
    widths = [math.prod(frames.dtype[name].shape) for name in names]  # 1 for t
    starts = dict(zip(names, itertools.accumulate([0, *widths])))
    fields, order = [], []
    for name, width in sorted(zip(names, widths)):
        shape = frames.dtype[name].shape  # () for t; the width even with no frames
        cells = ", ".join(["%s"] * width)
        fields.append(f"{json.dumps(name)}: " + (f"[{cells}]" if shape else cells))
        order += range(starts[name], starts[name] + width)
    template = "{" + ", ".join(fields) + "}"
    # the CSV's table, its cells picked in the order of the sorted keys
    pick = operator.itemgetter(*order)
    rows = _rows(np.column_stack([frames[name] for name in names]))
    _write_lines(path, [template % pick(_json_cells(row)) for row in rows])


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
