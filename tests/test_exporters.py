import dataclasses
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.lib.recfunctions import unstructured_to_structured

from rampforge import (builtin_field, build_surface, default_span, exporters,
                       integrate_ramp3d, lower_ramp, sample_ramp, simulate, spec_from_mu,
                       verify_2d, verify_scaling, upper_ramp)
from rampforge.exporters import (dumps_json, report_to_dict,
                                 scaling_to_dict, trace_summary, write_curve2d_csv,
                                 write_curve2d_json, write_curve2d_svg,
                                 write_curve3d_csv, write_frames_csv,
                                 write_frames_jsonl, write_json, write_obj)
from rampforge.params import spec_to_dict
from rampforge.sim import FRAME_VECTORS, MotionTrace
from rampforge.verify import ForceBalanceReport


@pytest.fixture
def small_curve(fig_spec):
    return integrate_ramp3d(fig_spec, builtin_field("upslope"),
                            [1.0, 0.0, 0.0], 0.5, step=0.05)


def test_dumps_json_is_deterministic(fig_spec):
    report = verify_2d(fig_spec, lower_ramp(fig_spec), n_samples=16)
    payload = report_to_dict(report)
    assert dumps_json(payload) == dumps_json(report_to_dict(
        verify_2d(fig_spec, lower_ramp(fig_spec), n_samples=16)))


def test_curve2d_csv(tmp_path, fig_spec):
    ramp = lower_ramp(fig_spec)
    data = sample_ramp(fig_spec, ramp, np.linspace(0.0, 2.0, 9))
    path = tmp_path / "curve.csv"
    write_curve2d_csv(path, data)
    lines = path.read_text().splitlines()
    assert lines[0] == "s,x,y,tx,ty,nx,ny,lambda"
    assert len(lines) == 10
    first = [float(c) for c in lines[1].split(",")]
    assert first[0] == 0.0
    assert len(first) == 8


def test_curve2d_json(tmp_path, fig_spec):
    ramp = upper_ramp(fig_spec)
    data = sample_ramp(fig_spec, ramp, np.linspace(0.0, 1.0, 5))
    path = tmp_path / "curve.json"
    write_curve2d_json(path, fig_spec, data, extra={"branch": "upper"})
    loaded = json.loads(path.read_text())
    assert loaded["branch"] == "upper"
    assert loaded["spec"]["v"] == fig_spec.v
    assert loaded["columns"] == ["s", "x", "y", "tx", "ty", "nx", "ny", "lambda"]
    assert [row[0] for row in loaded["samples"]] == [0.0, 0.25, 0.5, 0.75, 1.0]


def test_curve2d_svg(tmp_path, fig_spec):
    ramp = lower_ramp(fig_spec)
    data = sample_ramp(fig_spec, ramp, np.linspace(0.0, 5.0, 50))
    path = tmp_path / "curve.svg"
    write_curve2d_svg(path, data["x"], data["y"])
    text = path.read_text()
    assert text.startswith("<svg ")
    assert text.count("<path ") == 1
    assert 'viewBox="' in text and text.rstrip().endswith("</svg>")


def _svg_by_points(x, y):
    # write_curve2d_svg as it was written point by point: the reference its
    # mapped format string must match byte for byte
    def fmt6(value):
        return format(float(value), ".6g")

    x = np.asarray(x, dtype=float)
    y = -np.asarray(y, dtype=float)
    span_x = float(x.max() - x.min()) or 1.0
    span_y = float(y.max() - y.min()) or 1.0
    margin = 0.05 * max(span_x, span_y)
    x0, y0 = float(x.min()) - margin, float(y.min()) - margin
    w, h = span_x + 2 * margin, span_y + 2 * margin
    d = "M " + " L ".join(f"{fmt6(px)} {fmt6(py)}" for px, py in zip(x.tolist(), y.tolist()))
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{fmt6(800.0)}" '
            f'height="{fmt6(800.0 * h / w)}" viewBox="{fmt6(x0)} {fmt6(y0)} {fmt6(w)} '
            f'{fmt6(h)}">\n  <path d="{d}" fill="none" stroke="black" '
            f'stroke-width="{fmt6(0.004 * max(w, h))}"/>\n</svg>\n')


@pytest.mark.parametrize("case", ["lower 2", "lower 7", "lower 1000", "upper 2",
                                  "upper 7", "upper 1000", "horizontal segment"])
def test_curve2d_svg_matches_the_point_loop(tmp_path, fig_spec, case):
    if case == "horizontal segment":  # span_y == 0: the height falls back to 1
        x, y = np.linspace(-0.5, 2.0, 6), np.zeros(6)
    else:
        branch, samples = case.split()
        ramp = (lower_ramp if branch == "lower" else upper_ramp)(fig_spec)
        data = sample_ramp(fig_spec, ramp, np.linspace(0.0, default_span(fig_spec),
                                                       int(samples)))
        x, y = data["x"], data["y"]
    path = tmp_path / "curve.svg"
    write_curve2d_svg(path, x, y)
    assert path.read_bytes() == _svg_by_points(x, y).encode()


def test_curve3d_csv(tmp_path, fig_spec, small_curve):
    path = tmp_path / "curve3d.csv"
    write_curve3d_csv(path, small_curve, fig_spec)
    lines = path.read_text().splitlines()
    assert lines[0] == "s,x,y,z,tx,ty,tz,lambda"
    assert len(lines) == small_curve.s.shape[0] + 1
    last = [float(c) for c in lines[-1].split(",")]
    assert last[0] == pytest.approx(0.5)
    assert last[-1] >= 0.0  # contact force stays nonnegative


def test_obj_mesh_structure(tmp_path, fig_spec, small_curve):
    surface = build_surface(small_curve, r_extent=(-0.2, 0.2), resolution=(6, 4))
    path = tmp_path / "strip.obj"
    write_obj(path, surface)
    lines = path.read_text().splitlines()
    vs = [l for l in lines if l.startswith("v ")]
    vns = [l for l in lines if l.startswith("vn ")]
    faces = [l for l in lines if l.startswith("f ")]
    assert len(vs) == 7 * 5
    assert len(vns) == 7
    assert len(faces) == 2 * 6 * 4
    for face in faces:
        parts = face.split()[1:]
        assert len(parts) == 3
        for part in parts:
            v_idx, n_idx = part.split("//")
            assert 1 <= int(v_idx) <= len(vs)
            assert 1 <= int(n_idx) <= len(vns)


def _obj_by_loops(surface):
    # write_obj as it was written quad by quad, its points one repr per
    # float: the reference its id columns must match byte for byte
    n_s, n_r = surface.resolution
    lines = ["# ruled constant-speed ramp strip",
             f"# rows (s): {n_s + 1}  columns (r): {n_r + 1}"]
    for tag, points in (("v", surface.vertices), ("vn", surface.vertex_normals)):
        lines += [f"{tag} " + " ".join(map(repr, p)) for p in points.reshape(-1, 3).tolist()]

    def vid(i, j):
        return i * (n_r + 1) + j + 1

    for i in range(n_s):
        for j in range(n_r):
            a, b = vid(i, j), vid(i, j + 1)
            c, d = vid(i + 1, j), vid(i + 1, j + 1)
            lines.append(f"f {a}//{i + 1} {b}//{i + 1} {c}//{i + 2}")
            lines.append(f"f {b}//{i + 1} {d}//{i + 2} {c}//{i + 2}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("mesh", [(1, 1), (1, 5), (5, 1), (7, 3), (200, 16)])
def test_obj_matches_the_quad_loop(tmp_path, small_curve, mesh):
    surface = build_surface(small_curve, r_extent=(0.0, 0.25), resolution=mesh)
    path = tmp_path / "strip.obj"
    write_obj(path, surface)
    assert path.read_bytes() == _obj_by_loops(surface).encode()


def test_obj_face_winding_matches_contact_normal(tmp_path, fig_spec, small_curve):
    surface = build_surface(small_curve, r_extent=(-0.2, 0.2), resolution=(4, 2))
    path = tmp_path / "strip.obj"
    write_obj(path, surface)
    verts = []
    first_face = None
    for line in path.read_text().splitlines():
        if line.startswith("v "):
            verts.append([float(c) for c in line.split()[1:]])
        elif line.startswith("f ") and first_face is None:
            first_face = [int(p.split("//")[0]) - 1 for p in line.split()[1:]]
    a, b, c = (np.array(verts[i]) for i in first_face)
    face_normal = np.cross(b - a, c - a)
    face_normal /= np.linalg.norm(face_normal)
    assert float(face_normal @ surface.vertex_normals[0]) > 0.9


def test_report_profiles_toggle(fig_spec):
    report = verify_2d(fig_spec, lower_ramp(fig_spec), n_samples=8)
    full = report_to_dict(report)
    brief = report_to_dict(report, include_profiles=False)
    assert "residual_norm" in full and len(full["t"]) == 8
    assert "residual_norm" not in brief and "t" not in brief
    assert brief["verdict"] == "Valid"


def test_report_to_dict_writes_every_field(fig_spec):
    # a field added to the record reaches the payload with no change here
    @dataclasses.dataclass(eq=False, repr=False)
    class Extended(ForceBalanceReport):
        worst_s: float = 1.25

    report = verify_2d(fig_spec, lower_ramp(fig_spec), n_samples=8)
    extended = Extended(**{f.name: getattr(report, f.name)
                           for f in dataclasses.fields(report)})
    for include_profiles in (False, True):
        assert report_to_dict(extended, include_profiles) == {
            **report_to_dict(report, include_profiles), "worst_s": 1.25}
    assert set(report_to_dict(report, include_profiles=False)) == {
        "verdict", "max_residual", "max_normal_residual", "max_tangential_residual",
        "lambda_min", "tol_residual", "tol_lambda", "meta"}


def test_scaling_to_dict_shape(fig_spec):
    result = verify_scaling(fig_spec, upper_ramp(fig_spec), 6.0, n_samples=32)
    payload = scaling_to_dict(result)
    assert payload["both_valid"] is True
    assert payload["kappa"] == 6.0
    assert payload["speed_reinterpretation"]["spec"]["v"] == pytest.approx(
        math.sqrt(6.0) * fig_spec.v)
    assert payload["gravity_reinterpretation"]["spec"]["g"] == pytest.approx(
        fig_spec.g / 6.0)


def test_frames_jsonl(tmp_path, fig_spec):
    trace = simulate(fig_spec, lower_ramp(fig_spec), (0.0, 0.5), fps=8.0)
    path = tmp_path / "frames.jsonl"
    write_frames_jsonl(path, trace)
    lines = path.read_text().splitlines()
    assert len(lines) == len(trace.frames) == 5
    row = json.loads(lines[2])
    assert set(row) == {"t", "position", "velocity", "gravity_force",
                        "normal_force", "friction_force", "residual"}
    assert len(row["position"]) == 2


def test_frames_csv_2d_and_3d(tmp_path, fig_spec, small_curve):
    trace2 = simulate(fig_spec, lower_ramp(fig_spec), (0.0, 0.5), fps=8.0)
    p2 = tmp_path / "f2.csv"
    write_frames_csv(p2, trace2)
    header2 = p2.read_text().splitlines()[0]
    assert header2 == ("t,px,py,vx,vy,gx,gy,nx,ny,fx,fy,rx,ry")

    trace3 = simulate(fig_spec, small_curve, (0.0, 0.08), fps=50.0)
    p3 = tmp_path / "f3.csv"
    write_frames_csv(p3, trace3)
    lines3 = p3.read_text().splitlines()
    assert lines3[0].startswith("t,px,py,pz,vx,vy,vz,")
    assert len(lines3[1].split(",")) == 1 + 6 * 3


def test_trace_summary(fig_spec):
    trace = simulate(fig_spec, lower_ramp(fig_spec), (0.0, 0.5), fps=8.0)
    summary = trace_summary(trace)
    assert set(summary) == {"frames", "fps", "dimension", "truncated", "warning", "meta"}
    assert summary["frames"] == 5
    assert summary["dimension"] == 2
    assert summary["truncated"] is False
    assert summary["meta"]["branch"] == "lower"


def test_write_json(tmp_path):
    path = tmp_path / "out.json"
    write_json(path, {"b": 1, "a": [1.5, None, "x"]})
    text = path.read_text()
    assert text.index('"a"') < text.index('"b"')  # sorted keys
    assert json.loads(text) == {"a": [1.5, None, "x"], "b": 1}


# the two facts the writers' JSON spelling rests on: only the non-finite
# floats spell an n, and renaming nan and inf in the repr gives json's text
@settings(max_examples=500)
@given(st.floats())
@example(math.nan)
@example(math.inf)
@example(-math.inf)
def test_json_spelling_of_a_float_repr_is_json_dumps(x):
    assert ("n" in repr(x)) == (not math.isfinite(x))
    assert exporters._json(repr(x)) == json.dumps(x)


# leaves json.dumps writes: every float (NaN and the infinities included, and
# numpy's float64 subclass), ints of any size, bools, None and any text
_LEAVES = (st.floats() | st.floats().map(np.float64) | st.integers() | st.booleans()
           | st.none() | st.text())
_PAYLOADS = st.recursive(
    _LEAVES | st.lists(st.floats()),
    lambda children: (st.lists(children) | st.lists(children).map(tuple)
                      | st.dictionaries(st.text(), children)
                      | st.dictionaries(st.integers(), children)),
    max_leaves=40)


@settings(max_examples=200)
@given(_PAYLOADS)
@example({"a": [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e22], "b": [],
          "c": {}, "d": (1.5, 2), "e": [np.float64(0.3), 0.1], "f": 10 ** 40,
          "g": {10: True, 2: None, -1: "\u00e9\n\"\\"}, "h": [[0.5], [math.nan]]})
def test_dumps_json_is_json_dumps_byte_for_byte(payload):
    assert dumps_json(payload) == json.dumps(payload, indent=2, sort_keys=True)


def _jsonl_reference(trace):
    names = trace.frames.dtype.names
    columns = [trace.frames[name].tolist() for name in names]
    return "".join(json.dumps(dict(zip(names, row)), sort_keys=True) + "\n"
                   for row in zip(*columns))


def test_frames_jsonl_is_json_dumps_byte_for_byte(tmp_path, fig_spec, small_curve):
    trace2 = simulate(fig_spec, lower_ramp(fig_spec), (0.0, 0.5), fps=40.0)
    frames = trace2.frames.copy()
    frames["t"][1] = math.nan
    frames["position"][2] = [math.inf, -math.inf]
    frames["residual"][3] = [-0.0, 5e-324]
    traces = [trace2, dataclasses.replace(trace2, frames=frames),
              simulate(fig_spec, small_curve, (0.0, 0.08), fps=50.0),
              simulate(fig_spec, small_curve, (1.0, 2.0), fps=50.0)]
    assert [len(t.frames) for t in traces] == [21, 21, 5, 0]
    path = tmp_path / "frames.jsonl"
    for trace in traces:
        write_frames_jsonl(path, trace)
        assert path.read_text() == _jsonl_reference(trace)


def test_curve2d_json_is_json_dumps_byte_for_byte(tmp_path, fig_spec):
    data = sample_ramp(fig_spec, upper_ramp(fig_spec), np.linspace(0.0, 5.0, 200))
    path = tmp_path / "curve.json"
    keys = ["s", "x", "y", "tx", "ty", "nx", "ny", "lambda"]
    # an extra that sets samples replaces the table, as dict.update would
    for extra in (None, {"branch": "upper"}, {"samples": None}, {"samples": [1.5]}):
        write_curve2d_json(path, fig_spec, data, extra=extra)
        expected = {"spec": spec_to_dict(fig_spec), "columns": keys,
                    "samples": np.column_stack([data[k] for k in keys]).tolist(),
                    **(extra or {})}
        assert path.read_text() == json.dumps(expected, indent=2, sort_keys=True) + "\n"




# float tables of any value: the non-finite ones, signed zeros and subnormals
_SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e22, 0.1]
_CELLS = st.floats() | st.sampled_from(_SPECIAL)
_CURVE2D_KEYS = ["s", "x", "y", "tx", "ty", "nx", "ny", "lambda"]


def _frame_trace(table: np.ndarray, dimension: int) -> MotionTrace:
    dtype = [("t", float)] + [(name, float, (dimension,)) for name in FRAME_VECTORS]
    return MotionTrace(unstructured_to_structured(table, np.dtype(dtype)), 30.0,
                       dimension)


def _text(workdir, write: tuple) -> str:
    # the text that write = (writer, *args) writes
    path = Path(workdir) / "out"
    write[0](path, *write[1:])
    return path.read_text()


def _written(workdir, writes: list) -> list[str]:
    # the text of each write, in the order given, after the writers forget
    # the table they formatted last
    exporters._formatted.cache_clear()
    return [_text(workdir, write) for write in writes]


@settings(max_examples=60, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(0, 5), st.just(8)), elements=_CELLS),
       arrays(np.float64, st.tuples(st.integers(0, 5), st.sampled_from([13, 19])),
              elements=_CELLS))
@example(np.array([_SPECIAL, _SPECIAL[::-1]]), np.resize(_SPECIAL, (2, 19)))
def test_one_table_in_two_formats_is_each_format_alone(samples, frames):
    curve = dict(zip(_CURVE2D_KEYS, samples.T))
    trace = _frame_trace(frames, (frames.shape[1] - 1) // 6)  # a time, six vectors
    spec = spec_from_mu(0.5, v=5.0)
    texts = []
    with tempfile.TemporaryDirectory() as workdir:
        for pair in [((write_curve2d_csv, curve), (write_curve2d_json, spec, curve)),
                     ((write_frames_csv, trace), (write_frames_jsonl, trace))]:
            alone = [_written(workdir, [write])[0] for write in pair]
            for order, expected in ((pair, alone), (pair[::-1], alone[::-1])):
                assert _written(workdir, order) == expected
                # (hits, misses): the second format read the rows of the first
                assert exporters._formatted.cache_info()[:2] == (1, 1)
            texts += alone
    curve_csv, curve_json, frames_csv, frames_jsonl = texts
    # and each is the reference text
    for csv, table in ((curve_csv, samples), (frames_csv, frames)):
        assert csv.splitlines()[1:] == [",".join(map(repr, row)) for row in table.tolist()]
    assert curve_json == json.dumps({"spec": spec_to_dict(spec), "columns": _CURVE2D_KEYS,
                                     "samples": samples.tolist()},
                                    indent=2, sort_keys=True) + "\n"
    assert frames_jsonl == _jsonl_reference(trace)


def test_a_table_changed_in_place_is_formatted_again(tmp_path, fig_spec):
    data = sample_ramp(fig_spec, lower_ramp(fig_spec), np.linspace(0.0, 1.0, 4))
    trace = simulate(fig_spec, lower_ramp(fig_spec), (0.0, 0.5), fps=8.0)
    for column, first, second in [
            (data["s"], (write_curve2d_csv, data), (write_curve2d_json, fig_spec, data)),
            (trace.frames["t"], (write_frames_csv, trace), (write_frames_jsonl, trace))]:
        assert column[0] == 0.0 and math.copysign(1.0, column[0]) == 1.0
        before = _written(tmp_path, [first, second])
        # each change falls between a write in one format and one in the other
        column[0] = -0.0
        after = _text(tmp_path, second)
        assert after != before[1] and [after] == _written(tmp_path, [second])
        column[1] = math.nan
        after = _text(tmp_path, first)
        assert after != before[0] and [after] == _written(tmp_path, [first])


def _nan(bits: int) -> float:
    return float(np.array([bits], dtype=np.uint64).view(np.float64)[0])


# more rows than one block of the formatting, not a whole number of blocks,
# and even, so that a column can hold exactly half as many values as rows
_LONG = 2 * exporters._BLOCK + 4


def _columns(rng, rows: int) -> np.ndarray:
    # 8 columns: each kind of column the formatting tells apart
    half = rows // 2
    return np.column_stack([
        np.full(rows, 9.81),                                     # constant
        np.resize([0.0, -0.0], rows),                            # signed zeros
        np.resize([_nan(0x7FF8000000000000), _nan(0x7FF8000000000001), math.inf,
                   -math.inf, _nan(0xFFF8000000000000), 1.5], rows),
        rng.standard_normal(rows),                               # no value twice
        np.resize(rng.standard_normal(half), rows),              # half as many values as rows
        np.resize(rng.standard_normal(half + 1), rows),          # one more than that
        np.resize([0.1, -0.0, 0.1, 5e-324, 0.0], rows),
        np.arange(rows) * 0.1])


@pytest.mark.parametrize("table", [
    _columns(np.random.default_rng(7), _LONG),
    _columns(np.random.default_rng(8), exporters._BLOCK),
    _columns(np.random.default_rng(9), 1),
    np.empty((4, 0)),
    np.empty((0, 3))],
    ids=["blocks", "one_block", "one_row", "no_columns", "no_rows"])
def test_rows_are_the_repr_of_each_row(table):
    exporters._formatted.cache_clear()
    assert exporters._rows(table) == tuple(",".join(map(repr, row)) for row in table.tolist())


@pytest.mark.parametrize("finite", [False, True], ids=["nonfinite", "finite"])
def test_curve2d_json_samples_are_json_dumps(tmp_path, finite):
    table = _columns(np.random.default_rng(10), _LONG)
    if finite:
        table[:, 2] = np.resize([1.5, -2.5, 1e300], _LONG)
    assert np.isfinite(table).all() == finite
    spec = spec_from_mu(0.5, v=5.0)
    path = tmp_path / "curve.json"
    write_curve2d_json(path, spec, dict(zip(_CURVE2D_KEYS, table.T)))
    assert path.read_text() == json.dumps(
        {"spec": spec_to_dict(spec), "columns": _CURVE2D_KEYS, "samples": table.tolist()},
        indent=2, sort_keys=True) + "\n"


def test_only_columns_with_few_values_format_each_value_once():
    table = _columns(np.random.default_rng(7), _LONG)
    once = [exporters._cells(column) is not None for column in table.T]
    assert once == [True, True, True, False, True, False, True, False]
