import json
import math

import numpy as np
import pytest

from rampforge import (builtin_field, build_surface, integrate_ramp3d,
                       lower_ramp, sample_ramp, simulate,
                       verify_2d, verify_scaling, upper_ramp)
from rampforge.exporters import (dumps_json, fmt, report_to_dict,
                                 scaling_to_dict, trace_summary, write_curve2d_csv,
                                 write_curve2d_json, write_curve2d_svg,
                                 write_curve3d_csv, write_frames_csv,
                                 write_frames_jsonl, write_json, write_obj,
                                 write_obj_polyline, write_profile_csv)


@pytest.fixture
def small_curve(fig_spec):
    return integrate_ramp3d(fig_spec, builtin_field("upslope"),
                            [1.0, 0.0, 0.0], 0.5, step=0.05)


def test_fmt_round_trips():
    for x in (0.1, 1.0 / 3.0, 1e-300, -math.pi, 12345.678901234567):
        assert float(fmt(x)) == x
    assert fmt(2.0) == "2.0"


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
    surface = build_surface(small_curve, small_curve.field,
                            r_extent=(-0.2, 0.2), resolution=(6, 4))
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


def test_obj_face_winding_matches_contact_normal(tmp_path, fig_spec, small_curve):
    surface = build_surface(small_curve, small_curve.field,
                            r_extent=(-0.2, 0.2), resolution=(4, 2))
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


def test_obj_polyline(tmp_path):
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.5], [2.0, 1.0, 0.25]])
    path = tmp_path / "line.obj"
    write_obj_polyline(path, pts)
    lines = path.read_text().splitlines()
    assert sum(1 for l in lines if l.startswith("v ")) == 3
    assert lines[-1] == "l 1 2 3"


def test_report_profiles_toggle(fig_spec):
    report = verify_2d(fig_spec, lower_ramp(fig_spec), n_samples=8)
    full = report_to_dict(report)
    brief = report_to_dict(report, include_profiles=False)
    assert "residual_norm" in full and len(full["t"]) == 8
    assert "residual_norm" not in brief and "t" not in brief
    assert brief["verdict"] == "Valid"


def test_scaling_to_dict_shape(fig_spec):
    result = verify_scaling(fig_spec, upper_ramp(fig_spec), 6.0, n_samples=32)
    payload = scaling_to_dict(result)
    assert payload["both_valid"] is True
    assert payload["kappa"] == 6.0
    assert payload["speed_reinterpretation"]["spec"]["v"] == pytest.approx(
        math.sqrt(6.0) * fig_spec.v)
    assert payload["gravity_reinterpretation"]["spec"]["g"] == pytest.approx(
        fig_spec.g / 6.0)


def test_profile_csv(tmp_path, fig_spec):
    report = verify_2d(fig_spec, lower_ramp(fig_spec), n_samples=12)
    path = tmp_path / "profile.csv"
    write_profile_csv(path, report)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,residual,lambda"
    assert len(lines) == 13


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
