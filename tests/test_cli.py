import dataclasses
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rampforge
from rampforge import ode, params, planar, ramp3d, sim, verify
from rampforge.cli import main

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_no_command_is_usage_error(capsys):
    code, _out, err = run(capsys)
    assert code == 2
    assert "usage" in err


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "generate2d", "--help")[0] == 0


def test_generate2d_stdout_and_csv(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code, stdout, _ = run(capsys, "generate2d", "--mu", "0.5", "--v", "5",
                          "--branch", "lower", "--samples", "20",
                          "--out", str(out))
    assert code == 0
    summary = json.loads(stdout)
    assert summary["branch"] == "lower"
    assert summary["apex_s0"] == pytest.approx(1.6452941168348778, rel=1e-12)
    lines = out.read_text().splitlines()
    assert lines[0] == "s,x,y,tx,ty,nx,ny,lambda"
    assert len(lines) == 21


def test_generate2d_delta_degrees_route(capsys):
    code, stdout, _ = run(capsys, "generate2d", "--delta-deg", "20", "--v", "2")
    assert code == 0
    assert json.loads(stdout)["spec"]["mu"] == pytest.approx(0.36397023426620234)


def test_spec_flag_conflicts(capsys):
    code, _, err = run(capsys, "generate2d", "--mu", "0.5", "--delta-deg", "20",
                       "--v", "5")
    assert code == 2 and "exactly one" in err
    code, _, err = run(capsys, "generate2d", "--v", "5")
    assert code == 2
    code, _, err = run(capsys, "generate2d", "--mu", "0.5")
    assert code == 2 and "--v" in err


def test_invalid_parameter_exits_2(capsys):
    assert run(capsys, "generate2d", "--mu", "1.2", "--v", "5")[0] == 2
    assert run(capsys, "generate2d", "--mu", "0.5", "--v", "-1")[0] == 2
    assert run(capsys, "generate2d", "--mu", "0.5", "--v", "5",
               "--span", "-3")[0] == 2


@pytest.mark.parametrize("degrees, expected", [("50", 2), ("45", 2), ("nan", 2), ("44.99", 0)])
def test_delta_deg_out_of_range_names_the_degrees_typed(capsys, degrees, expected):
    # radians(45.0) is exactly pi/4, which the open bound leaves out
    code, _, err = run(capsys, "generate2d", "--delta-deg", degrees, "--v", "5")
    assert code == expected
    if expected == 2:
        assert f"--delta-deg = {float(degrees)!r}" in err and "45 degrees" in err


# counts of 10**19 or more, whose tables numpy cannot index in bytes: a count
# it can index would try to allocate the memory
_HUGE = str(10 ** 19)
_FIELD = ["--field", "horizontal", "--y0", "0.8", "0", "-0.6", "--smax", "0.5"]


@pytest.mark.parametrize("argv", [
    ["generate2d", "--samples", _HUGE],
    ["verify", "--branch", "upper", "--samples", _HUGE],
    ["scale", "--branch", "upper", "--kappa", "2", "--samples", _HUGE],
    ["generate3d", *_FIELD, "--mesh", f"{_HUGE}x4"],
    ["generate3d", *_FIELD, "--mesh", f"4x{_HUGE}"]],
    ids=["generate2d", "verify", "scale", "generate3d-rows", "generate3d-columns"])
def test_count_numpy_cannot_index_exits_2(capsys, tmp_path, argv):
    code, _, err = run(capsys, *argv, "--mu", "0.5", "--v", "5", "--out", str(tmp_path / "x"))
    assert code == 2
    assert "too many" in err


# counts numpy can index but no host can hold: each first table asks for more
# than 2**47 bytes, more than a 64-bit address space maps, so the allocation
# fails at once and touches no memory
_UNHOLDABLE = str(10 ** 17)


@pytest.mark.parametrize("argv", [
    ["generate2d", "--samples", _UNHOLDABLE],
    ["verify", "--branch", "upper", "--samples", _UNHOLDABLE],
    ["scale", "--branch", "upper", "--kappa", "2", "--samples", _UNHOLDABLE],
    ["simulate", "--branch", "lower", "--fps", "1e16"]],
    ids=["generate2d", "verify", "scale", "simulate"])
def test_count_no_host_can_hold_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv, "--mu", "0.5", "--v", "5")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "allocate" in err


@pytest.mark.parametrize("command", [["verify"], ["scale", "--kappa", "2"]],
                         ids=["verify", "scale"])
def test_field_sample_count_above_the_rows_is_clamped(capsys, command):
    # a --field check reads at most one sample per stored row, so no count
    # above the rows is refused, one numpy cannot index included
    outs = []
    for samples in ("1000000", _HUGE):
        code, out, _ = run(capsys, *command, "--mu", "0.5", "--v", "5", *_FIELD,
                           "--samples", samples)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


# " -inf", with a space, as argparse alone reads it as a value
@pytest.mark.parametrize("span", ["0", "-1", "nan", "inf", " -inf"])
def test_generate2d_bad_span_exits_2(capsys, span):
    code, _, err = run(capsys, "generate2d", "--mu", "0.5", "--v", "5", "--span", span)
    assert code == 2
    assert "--span must be positive and finite" in err


@pytest.mark.parametrize("argv", [["generate2d"], ["simulate"],
                                  ["verify", "--branch", "upper"]])
@pytest.mark.parametrize("v", ["1e160", "1e-160"])
def test_scale_without_finite_inverse_exits_2(capsys, argv, v):
    # v = 1e160 gives a = 0 (a ZeroDivisionError traceback), 1e-160 a = inf
    # (an empty default span)
    code, _, err = run(capsys, *argv, "--mu", "0.5", "--v", v)
    assert code == 2
    assert err.startswith("error: length scale a")


def test_unwritable_output_exits_3(capsys, tmp_path):
    missing = tmp_path / "no" / "such" / "dir" / "out.csv"
    code, _, err = run(capsys, "generate2d", "--mu", "0.5", "--v", "5",
                       "--out", str(missing))
    assert code == 3
    assert "i/o" in err


def test_config_file_merge_and_override(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"mu": 0.4, "v": 3.0, "branch": "upper"}))
    code, stdout, _ = run(capsys, "generate2d", "--config", str(conf))
    assert code == 0
    assert json.loads(stdout)["branch"] == "upper"
    # explicit flags win over the file
    code, stdout, _ = run(capsys, "generate2d", "--config", str(conf),
                          "--branch", "lower")
    assert code == 0
    assert json.loads(stdout)["branch"] == "lower"


def test_config_rejects_unknown_keys(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"mu": 0.4, "v": 3.0, "wheels": 4}))
    code, _, err = run(capsys, "generate2d", "--config", str(conf))
    assert code == 2
    assert "wheels" in err


def test_config_rejects_bad_json(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text("[1, 2, 3]")
    assert run(capsys, "generate2d", "--config", str(conf))[0] == 2
    conf.write_text("{oops")
    assert run(capsys, "generate2d", "--config", str(conf))[0] == 2


# each command's options as flags and as a config file; "OUT" stands for
# the output path
FLAGS_AND_CONFIGS = {
    "generate2d": ("generate2d", [
        "--delta-deg", "20", "--v", "2", "--g", "9.5", "--branch", "upper",
        "--span", "3", "--samples", "50", "--format", "json", "--out", "OUT"],
        {"delta_deg": 20, "v": 2, "g": 9.5, "branch": "upper", "span": 3,
         "samples": 50, "format": "json", "out": "OUT"}),
    "generate3d": ("generate3d", [
        "--mu", "0.5", "--v", "5", "--field", "blend:0.37", "--y0", "0.8", "0", "-0.6",
        "--smax", "0.5", "--step", "0.005", "--r-extent", "-0.25", "0.5",
        "--mesh", "20x4", "--out", "OUT"],
        {"mu": 0.5, "v": 5, "field": "blend:0.37", "y0": [0.8, 0, -0.6], "smax": 0.5,
         "step": 0.005, "r_extent": [-0.25, 0.5], "mesh": "20x4", "out": "OUT"}),
    "verify 2d": ("verify", [
        "--mu", "0.4", "--v", "3", "--mass", "2", "--branch", "upper",
        "--t-span", "0.25", "1.5", "--samples", "100", "--out", "OUT"],
        {"mu": 0.4, "v": 3, "mass": 2, "branch": "upper", "t_span": [0.25, 1.5],
         "samples": 100, "out": "OUT"}),
    # " -1e-05", with a space, as argparse alone reads it as a value
    "verify 3d": ("verify", [
        "--delta-deg", "25", "--v", "5", "--field", "blend:0.37",
        "--y0", "0.8", " -1e-05", "-0.6", "--smax", "0.5", "--step", "0.005",
        "--samples", "50", "--out", "OUT"],
        {"delta-deg": 25, "v": 5, "field": "blend:0.37", "y0": [0.8, -1e-05, -0.6],
         "smax": 0.5, "step": 0.005, "samples": 50, "out": "OUT"}),
    "simulate": ("simulate", [
        "--mu", "0.5", "--v", "5", "--branch", "lower", "--t-span", "0", "0.5",
        "--fps", "10", "--format", "csv", "--out", "OUT"],
        {"mu": 0.5, "v": 5, "branch": "lower", "t-span": [0, 0.5], "fps": 10,
         "format": "csv", "out": "OUT"}),
    "scale": ("scale", [
        "--mu", "0.5", "--v", "5", "--field", "upslope", "--y0", "1", "0", "0",
        "--smax", "1", "--kappa", "6", "--samples", "60", "--out", "OUT"],
        {"mu": 0.5, "v": 5, "field": "upslope", "y0": [1, 0, 0], "smax": 1,
         "kappa": 6, "samples": 60, "out": "OUT"}),
    # negative numbers that argparse alone reads as options
    "verify 3d bare": ("verify", [
        "--delta-deg", "25", "--v", "5", "--field", "blend:0.37",
        "--y0", "0.8", "-1e-05", "-0.6", "--smax", "0.5", "--step", "0.005",
        "--samples", "50", "--out", "OUT"],
        {"delta-deg": 25, "v": 5, "field": "blend:0.37", "y0": [0.8, -1e-05, -0.6],
         "smax": 0.5, "step": 0.005, "samples": 50, "out": "OUT"}),
    "generate3d bare": ("generate3d", [
        "--mu", "0.5", "--v", "5", "--field", "horizontal", "--y0", "0.8", "-1E-5", "-.6",
        "--smax", "0.5", "--step", "0.005", "--r-extent", "-25e-2", "5.", "--mesh", "20x4",
        "--out", "OUT"],
        {"mu": 0.5, "v": 5, "field": "horizontal", "y0": ["0.8", "-1E-5", "-.6"],
         "smax": 0.5, "step": 0.005, "r_extent": [-0.25, 5.0], "mesh": "20x4",
         "out": "OUT"}),
}


def _outputs(capsys, out_dir, *argv):
    # exit code, stdout and the bytes of every file written into out_dir
    for f in out_dir.iterdir():
        f.unlink()
    code, stdout, err = run(capsys, *argv)
    return code, stdout, {f.name: f.read_bytes() for f in sorted(out_dir.iterdir())}


@pytest.mark.parametrize("case", FLAGS_AND_CONFIGS)
def test_config_runs_as_the_same_flags(tmp_path, capsys, case):
    command, flags, config = FLAGS_AND_CONFIGS[case]
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    target = str(out_dir / "result")
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({k: target if v == "OUT" else v for k, v in config.items()}))
    by_flags = _outputs(capsys, out_dir, command,
                        *(target if a == "OUT" else a for a in flags))
    by_config = _outputs(capsys, out_dir, command, "--config", str(conf))
    assert by_flags[0] == 0 and by_flags[2]
    assert by_config == by_flags


BASE_3D = {"mu": 0.5, "v": 5, "field": "upslope", "y0": [0.8, 0, -0.6], "smax": 0.5}


@pytest.mark.parametrize("command, config", [
    ("generate2d", {"mu": 0.5, "v": 5, "branch": "sideways", "out": "OUT"}),
    ("generate2d", {"mu": 0.5, "v": 5, "format": "xml", "out": "OUT"}),
    ("generate3d", {**BASE_3D, "mesh": 5, "out": "OUT"}),
    ("verify", {**BASE_3D, "samples": 2.5, "out": "OUT"}),
    ("generate2d", {"mu": 0.5, "v": 5, "out": True}),
    ("generate2d", {"mu": 0.5, "v": 5, "out": {"a": 1}}),
], ids=["branch", "format", "mesh", "samples", "out-true", "out-object"])
def test_bad_config_value_is_a_usage_error(tmp_path, capsys, command, config):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps(
        {k: str(out_dir / "result") if v == "OUT" else v for k, v in config.items()}))
    code, stdout, err = run(capsys, command, "--config", str(conf))
    assert code == 2 and stdout == ""
    assert "Traceback" not in err
    assert not list(out_dir.iterdir())


@pytest.mark.parametrize("key", ["samples", "g"])
def test_config_null_leaves_the_option_unset(tmp_path, capsys, key):
    conf = tmp_path / "conf.json"
    runs = []
    for config in ({"mu": 0.5, "v": 5}, {"mu": 0.5, "v": 5, key: None}):
        conf.write_text(json.dumps(config))
        runs.append(run(capsys, "generate2d", "--config", str(conf)))
    assert runs[0][0] == 0
    assert runs[1] == runs[0]


def test_config_value_may_start_with_a_dash(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "conf.json").write_text(
        json.dumps({"mu": 0.5, "v": 5, "samples": 4, "out": "-curve.csv"}))
    code, stdout, _ = run(capsys, "generate2d", "--config", "conf.json")
    assert code == 0 and json.loads(stdout)["out"] == "-curve.csv"
    assert len((tmp_path / "-curve.csv").read_text().splitlines()) == 5


def test_generate3d_writes_bundle(tmp_path, capsys):
    base = tmp_path / "demo"
    code, stdout, _ = run(capsys, "generate3d", "--mu", "0.5", "--v", "5",
                          "--field", "upslope", "--y0", "1", "0", "0",
                          "--smax", "0.5", "--step", "0.005",
                          "--mesh", "20x4", "--out", str(base))
    assert code == 0
    summary = json.loads(stdout)
    assert summary["verdict"] == "Valid"
    assert summary["planar_reduction"]["applicable"] is True
    report = json.loads((tmp_path / "demo.report.json").read_text())
    assert report["report"]["verdict"] == "Valid"
    obj = (tmp_path / "demo.obj").read_text()
    assert obj.count("\nf ") == 2 * 20 * 4
    csv = (tmp_path / "demo.curve.csv").read_text().splitlines()
    assert csv[0] == "s,x,y,z,tx,ty,tz,lambda"


def test_generate3d_requires_out_and_y0(capsys):
    assert run(capsys, "generate3d", "--mu", "0.5", "--v", "5",
               "--field", "upslope", "--y0", "1", "0", "0")[0] == 2
    assert run(capsys, "generate3d", "--mu", "0.5", "--v", "5",
               "--field", "upslope", "--out", "x")[0] == 2


def test_generate3d_normalizes_y0_but_rejects_upward(tmp_path, capsys):
    base = tmp_path / "demo"
    code, stdout, _ = run(capsys, "generate3d", "--mu", "0.5", "--v", "5",
                          "--field", "upslope", "--y0", "2", "0", "0",
                          "--smax", "0.2", "--step", "0.01", "--out", str(base))
    assert code == 0  # non-unit input is normalized
    assert run(capsys, "generate3d", "--mu", "0.5", "--v", "5",
               "--field", "upslope", "--y0", "0", "0", "1",
               "--out", str(base))[0] == 2
    assert run(capsys, "generate3d", "--mu", "0.5", "--v", "5",
               "--field", "upslope", "--y0", "0", "0", "0",
               "--out", str(base))[0] == 2


def test_singular_start_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "generate3d", "--mu", "0.5", "--v", "5",
                       "--field", "horizontal", "--y0", "0", "0", "-1",
                       "--out", str(tmp_path / "x"))
    assert code == 2
    assert "singular" in err


@pytest.mark.parametrize("step, message", [
    ("0", "step must be positive"), ("nan", "step must be positive"),
    # 1e-18: about 5.7e18 steps over the default span, an int64 count whose
    # float64 grid numpy cannot index in bytes
    ("1e-18", "leaves too many steps"), ("1e-300", "leaves too many steps"),
    ("1e-320", "leaves too many steps"),
    ("-1", "step must be positive"), ("inf", "step must be positive"),
    (" -inf", "step must be positive")],
    ids=["0", "nan", "1e-18", "1e-300", "1e-320", "-1", "inf", "-inf"])
@pytest.mark.parametrize("command", ["generate3d", "verify"])
def test_bad_step_exits_2(capsys, tmp_path, command, step, message):
    code, _, err = run(capsys, command, "--mu", "0.5", "--v", "5",
                       "--field", "horizontal", "--y0", "0.8", "0", "-0.6",
                       "--step", step, "--out", str(tmp_path / "x"))
    assert code == 2
    assert message in err


# " -inf", with a space, as argparse alone reads it as a value
@pytest.mark.parametrize("r_extent", [("0", "inf"), (" -inf", "1"), ("-inf", "1")])
def test_generate3d_infinite_r_extent_exits_2(capsys, tmp_path, r_extent):
    out = tmp_path / "x"
    code, _, err = run(capsys, "generate3d", "--mu", "0.5", "--v", "5",
                       "--field", "upslope", "--y0", "0.8", "0", "-0.6",
                       "--smax", "0.5", "--r-extent", *r_extent, "--out", str(out))
    assert code == 2
    assert "r_extent must be finite" in err
    assert not list(tmp_path.iterdir())


def test_generate3d_one_cell_across_a_two_sided_strip_exits_2(capsys, tmp_path):
    # the default strip (-0.5, 0.5) reaches both sides of the path
    code, _, err = run(capsys, "generate3d", "--mu", "0.5", "--v", "5",
                       "--field", "upslope", "--y0", "0.8", "0", "-0.6",
                       "--smax", "0.5", "--mesh", "20x1", "--out", str(tmp_path / "x"))
    assert code == 2
    assert "at least 2 cells" in err
    assert not list(tmp_path.iterdir())


def test_verify_command_2d(capsys, tmp_path):
    out = tmp_path / "report.json"
    code, stdout, _ = run(capsys, "verify", "--mu", "0.5", "--v", "5",
                          "--branch", "upper", "--out", str(out))
    assert code == 0
    assert json.loads(stdout)["verdict"] == "Valid"
    saved = json.loads(out.read_text())
    assert saved["verdict"] == "Valid"
    assert "residual_norm" in saved  # file keeps the full profile


def test_verify_infinite_t_span_exits_2(capsys):
    code, stdout, err = run(capsys, "verify", "--mu", "0.5", "--v", "5",
                            "--branch", "lower", "--t-span", "0", "inf")
    assert code == 2 and stdout == ""
    assert "t_span must be finite" in err


def test_verify_command_3d(capsys):
    code, stdout, _ = run(capsys, "verify", "--mu", "0.5", "--v", "5",
                          "--field", "blend:0.5", "--y0", "0.8", "0", "-0.6",
                          "--smax", "0.5", "--step", "0.005")
    assert code == 0
    summary = json.loads(stdout)
    assert summary["verdict"] == "Valid"
    assert summary["meta"]["field"].startswith("blend:")


@pytest.mark.parametrize("command", ["verify", "scale"])
@pytest.mark.parametrize("samples", ["0", "1"])
def test_field_sample_count_below_two_exits_2(capsys, command, samples):
    extra = ["--kappa", "6"] if command == "scale" else []
    code, _, err = run(capsys, command, "--mu", "0.5", "--v", "5",
                       "--field", "horizontal", "--y0", "0.8", "0", "-0.6",
                       "--smax", "1", "--samples", samples, *extra)
    assert code == 2
    assert "need at least 2 samples" in err


def test_verify_requires_exactly_one_geometry(capsys):
    assert run(capsys, "verify", "--mu", "0.5", "--v", "5")[0] == 2
    assert run(capsys, "verify", "--mu", "0.5", "--v", "5", "--branch",
               "lower", "--field", "upslope", "--y0", "1", "0", "0")[0] == 2


Y0 = ["--y0", "0.8", "0", "-0.6"]


@pytest.mark.parametrize("command, argv, option", [
    ("verify", ["--field", "horizontal", *Y0, "--t-span", "0", "0.1"], "--t-span"),
    ("verify", ["--branch", "upper", *Y0], "--y0"),
    ("simulate", ["--branch", "lower", "--smax", "1"], "--smax"),
    ("scale", ["--branch", "upper", "--kappa", "6", "--step", "0.01"], "--step"),
], ids=["verify field t-span", "verify branch y0", "simulate branch smax",
        "scale branch step"])
def test_option_of_the_other_geometry_exits_2(tmp_path, capsys, command, argv, option):
    # an option the chosen geometry does not read is an error that names
    # it, given as a flag or as a config file's key
    code, stdout, err = run(capsys, command, "--mu", "0.5", "--v", "5", *argv)
    assert (code, stdout) == (2, "")
    assert err.startswith(f"error: {option} applies only to ")
    conf = tmp_path / "conf.json"
    at = argv.index(option)  # each case gives the option last
    conf.write_text(json.dumps({option[2:]: argv[at + 1:]}))
    assert run(capsys, command, "--config", str(conf), "--mu", "0.5", "--v", "5",
               *argv[:at]) == (code, stdout, err)


def test_simulate_command(tmp_path, capsys):
    out = tmp_path / "frames.jsonl"
    code, stdout, _ = run(capsys, "simulate", "--mu", "0.5", "--v", "5",
                          "--branch", "lower", "--t-span", "0", "0.5",
                          "--fps", "10", "--out", str(out))
    assert code == 0
    assert json.loads(stdout)["frames"] == 6
    rows = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(rows) == 6
    assert rows[0]["t"] == 0.0


@pytest.mark.parametrize("t_span", [("0", "inf"), ("inf", "inf")])
def test_simulate_infinite_t_span_exits_2(capsys, t_span):
    code, _, err = run(capsys, "simulate", "--mu", "0.5", "--v", "5",
                       "--branch", "lower", "--t-span", *t_span, "--fps", "10")
    assert code == 2
    assert "t_span must be finite" in err


@pytest.mark.parametrize("t1", ["1e17", "1e300"])
def test_simulate_too_many_frames_exits_2(capsys, t1):
    # 3e18 and 3e301 frames: 3e18 fits an int64 but not numpy's byte
    # limit, 3e301 neither
    code, _, err = run(capsys, "simulate", "--mu", "0.5", "--v", "5",
                       "--branch", "lower", "--t-span", "0", t1)
    assert code == 2
    assert "leaves too many frames" in err


def test_simulate_all_truncated_jsonl_is_empty(tmp_path, capsys):
    out = tmp_path / "frames.jsonl"
    code, stdout, _ = run(capsys, "simulate", "--mu", "0.5", "--v", "5",
                          "--field", "upslope", "--y0", "0.8", "0", "-0.6",
                          "--smax", "1", "--t-span", "1", "2",
                          "--format", "jsonl", "--out", str(out))
    assert code == 0
    assert json.loads(stdout)["frames"] == 0
    assert out.read_bytes() == b""


def test_scale_command(capsys):
    code, stdout, _ = run(capsys, "scale", "--mu", "0.5", "--v", "5",
                          "--branch", "upper", "--kappa", "6")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["both_valid"] is True
    assert payload["kappa"] == 6.0
    # both readings print the given mu, not tan(atan(0.5)) = 0.49999999999999994
    assert [payload[reading]["spec"]["mu"] for reading in (
        "speed_reinterpretation", "gravity_reinterpretation")] == [0.5, 0.5]
    assert run(capsys, "scale", "--mu", "0.5", "--v", "5",
               "--branch", "upper")[0] == 2  # kappa missing


def _child_env() -> dict:
    # the child finds the package in this checkout, as the suite itself does
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"),
                    env.get("PYTHONPATH")) if p)
    return env


def test_cli_runs_as_module(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "rampforge.cli", "generate2d", "--mu", "0.5",
         "--v", "5", "--samples", "4"],
        env=_child_env(), capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["branch"] == "lower"


CONSOLE_STEP = "Install as README says and run the console script"


def _step_script(workflow: str, name: str) -> str:
    """The ``run: |`` block of the workflow step called ``name``, dedented."""
    lines = workflow.splitlines()
    at = next(i for i, line in enumerate(lines) if line.strip() == f"- name: {name}")
    run = next(i for i in range(at + 1, len(lines)) if lines[i].strip() == "run: |")
    indent = len(lines[run]) - len(lines[run].lstrip())
    block = []
    for line in lines[run + 1:]:
        if line.strip() and len(line) - len(line.lstrip()) <= indent:
            break
        block.append(line)
    width = min(len(line) - len(line.lstrip()) for line in block if line.strip())
    return "\n".join(line[width:] for line in block) + "\n"


def test_ci_console_script_step_runs(tmp_path):
    # the CI step that runs the installed console script, run here as
    # Actions runs it (bash -e, from the checkout) with the package from
    # src/ in place of the install: `rampforge` and `python` are shims
    # first on PATH (the last command runs from RUNNER_TEMP, so the path to
    # src/ is absolute), and the step writes only under RUNNER_TEMP
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    script = "".join(line + "\n" for line in _step_script(workflow, CONSOLE_STEP).splitlines()
                     if not line.startswith("python -m pip install"))
    shims, temp = tmp_path / "bin", tmp_path / "runner_temp"
    shims.mkdir()
    temp.mkdir()
    for name, run in (("rampforge", '-c "from rampforge.cli import entry; entry()"'),
                      ("python", "")):
        shim = shims / name
        shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" {run} "$@"\n')
        shim.chmod(0o755)
    env = dict(_child_env(), PATH=os.pathsep.join([str(shims), os.environ.get("PATH", "")]),
               RUNNER_TEMP=str(temp), PYTHONDONTWRITEBYTECODE="1")
    before = {path: sorted(os.listdir(path)) for path in (ROOT, ROOT / "src" / "rampforge")}
    proc = subprocess.run(["bash", "-e", "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert {path: sorted(os.listdir(path)) for path in before} == before
    assert (temp / "-1e5").is_file() and (temp / "moon3d.json").is_file()


def _run_entry(*argv, buffered, stdout=subprocess.PIPE, prelude=""):
    # a fresh process running the console script's entry point.  Whether
    # stdout is block-buffered decides when a write reaches the pipe, so the
    # child's PYTHONUNBUFFERED is set here, whatever this process has
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    run = "from rampforge.cli import entry; entry()"
    return subprocess.run([sys.executable, "-c", prelude + run, *argv], env=env,
                          stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120)


def _run_entry_closed_stdout(*argv, **kwargs):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the command writes
    try:
        return _run_entry(*argv, stdout=write_end, **kwargs)
    finally:
        os.close(write_end)


_VERIFY_UPPER = ("verify", "--mu", "0.5", "--v", "5", "--branch", "upper")


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_entry_exit_path(buffered):
    # entry ends the process without teardown: stdout still arrives whole
    # through a pipe (with a block-buffered stdout, only because entry
    # flushes it), exit codes hold, and no other atexit handler runs
    prelude = "import atexit; atexit.register(print, 'atexit ran')\n"
    ok = _run_entry(*_VERIFY_UPPER, buffered=buffered, prelude=prelude)
    assert (ok.returncode, ok.stderr) == (0, "")
    assert json.loads(ok.stdout)["verdict"] == "Valid"

    bad = _run_entry("verify", "--mu", "0.5", "--v", "1e160", "--branch", "upper",
                     buffered=buffered)
    assert bad.returncode == 2 and bad.stdout == ""
    assert bad.stderr.startswith("error: ")


def test_entry_exit_with_stdout_reader_closed():
    # the summary's write (unbuffered) or its flush (buffered) fails inside
    # main, which reports it; entry leaves the rest of a buffer that cannot
    # be written to the null device, so no "Exception ignored" follows
    for buffered in (False, True):
        closed = _run_entry_closed_stdout(*_VERIFY_UPPER, buffered=buffered)
        assert (closed.returncode, closed.stderr) == (
            3, "i/o error: [Errno 32] Broken pipe\n"), buffered


def test_entry_freezes_the_import_time_heap():
    code = ("import gc\n"
            "from rampforge import cli\n"
            "cli.main = lambda: print(gc.get_freeze_count()) or 0\n"
            "cli.entry()\n")
    proc = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 0


def test_main_leaves_the_collector_as_it_was(capsys):
    frozen = gc.get_freeze_count()
    assert run(capsys, "generate2d", "--mu", "0.5", "--v", "5", "--samples", "4")[0] == 0
    assert gc.get_freeze_count() == frozen


_SMALL_3D = ["--mu", "0.5", "--v", "5", "--y0", "0.8", "0", "-0.6", "--smax", "0.5",
             "--step", "0.005"]


# one command of each kind the benchmark's cli cycle runs
_CYCLE = {
    "generate2d": ["generate2d", "--mu", "0.5", "--v", "5", "--samples", "20",
                   "--out", "curve.csv"],
    "generate3d": ["generate3d", *_SMALL_3D, "--field", "upslope", "--mesh", "20x4",
                   "--out", "ramp"],
    "verify_branch": ["verify", "--mu", "0.5", "--v", "5", "--branch", "upper"],
    "verify_field": ["verify", *_SMALL_3D, "--field", "horizontal", "--samples", "50"],
    "simulate": ["simulate", "--mu", "0.5", "--v", "5", "--branch", "lower", "--fps", "10",
                 "--out", "frames.jsonl"],
    "scale": ["scale", "--mu", "0.5", "--v", "5", "--branch", "upper", "--kappa", "6"],
}


@pytest.mark.parametrize("argv", list(_CYCLE.values()), ids=list(_CYCLE))
def test_command_loads_no_numpy_module_mid_command(tmp_path, argv):
    # a module imported while the command runs is paid by every process
    # that runs it; np.unique, for one, imports numpy.ma on first use
    code = ("import json, sys\n"
            "from rampforge import cli\n"
            "before = set(sys.modules)\n"
            "code = cli.main(sys.argv[1:])\n"
            "print(json.dumps(sorted(m for m in set(sys.modules) - before\n"
            "                        if m.startswith('numpy.'))))\n"
            "sys.exit(code)\n")
    proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=tmp_path,
                          env=_child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


# the layers a command must not load: a 2D command never loads the 3D layer,
# the RK4 integrators (ode) or logging, which only the hemisphere flow uses,
# and only simulate loads the simulator
_2D_NOT_LOADED = {"ramp3d", "ode", "logging"}
_NOT_LOADED = {"generate2d": {*_2D_NOT_LOADED, "verify", "sim"}, "generate3d": {"sim"},
               "verify_branch": {*_2D_NOT_LOADED, "sim"}, "verify_field": {"sim"},
               "simulate": _2D_NOT_LOADED, "scale": {*_2D_NOT_LOADED, "sim"}}


@pytest.mark.parametrize("name", _CYCLE)
def test_command_loads_only_the_layers_it_runs(tmp_path, name):
    code = ("import json, sys\n"
            "from rampforge import cli\n"
            "code = cli.main(sys.argv[1:])\n"
            "print(json.dumps(sorted(m for m in sys.modules\n"
            "                        if m.startswith('rampforge.') or m == 'logging')))\n"
            "sys.exit(code)\n")
    proc = subprocess.run([sys.executable, "-c", code, *_CYCLE[name]], cwd=tmp_path,
                          env=_child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    held = {m.split(".")[-1] for m in json.loads(proc.stdout.splitlines()[-1])}
    assert not held & _NOT_LOADED[name], held


# a field that stops the upslope flow where it crosses y3 = -0.3
_WALLED = ("from rampforge import ramp3d\n"
           "from rampforge.errors import SingularFieldError\n"
           "upslope = ramp3d.builtin_field('upslope')\n"
           "def walled(y):\n"
           "    if y[2] < -0.3:\n"
           "        raise SingularFieldError('hit the wall', point=y)\n"
           "    return upslope(y)\n"
           "ramp3d.builtin_field = lambda kind: ramp3d.TangentField('walled', walled)\n")


def test_3d_command_logs_on_stderr(monkeypatch):
    # a 3D command logs as it did when every command set logging up: the
    # early-stop warning by default, the step count at RAMPFORGE_LOG=DEBUG
    argv = ["verify", "--mu", "0.5", "--v", "5", "--field", "upslope", "--samples", "20"]
    monkeypatch.delenv("RAMPFORGE_LOG", raising=False)
    walled = _run_entry(*argv, "--y0", "1", "0", "0", "--smax", "5", "--step", "0.05",
                        buffered=True, prelude=_WALLED)
    assert walled.returncode == 0 and json.loads(walled.stdout)["meta"]["stopped_early"]
    assert walled.stderr == ("WARNING rampforge.ramp3d: flow stopped early at "
                             "s=1.2000000000000002: hit the wall\n")
    monkeypatch.setenv("RAMPFORGE_LOG", "DEBUG")
    debug = _run_entry(*argv, *_SMALL_3D, buffered=True)
    assert debug.returncode == 0
    assert debug.stderr == ("DEBUG rampforge.ramp3d: integrated 100 steps, "
                            "norm drift total=8.082e-14 max=1.332e-15\n")
    planar = _run_entry(*_VERIFY_UPPER, buffered=True)  # only the 3D layer logs
    assert (planar.returncode, planar.stderr) == (0, "")


def test_package_names_load_on_first_read():
    # import rampforge loads no submodule; each name the package gives (in
    # __all__ or not) and each submodule loads on first read
    code = ("import json, sys, types\n"
            "import rampforge\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('rampforge.'))))\n"
            "assert set(rampforge.__all__) <= set(dir(rampforge))\n"
            "assert set(rampforge.__all__) <= set(rampforge._SOURCE)\n"
            "for name in rampforge._SOURCE:\n"
            "    getattr(rampforge, name)\n"
            "for name in ('cli', 'errors', 'exporters', 'ode', 'params', 'planar', 'ramp3d',\n"
            "             'sim', 'verify'):\n"
            "    assert isinstance(getattr(rampforge, name), types.ModuleType), name\n")
    proc = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        rampforge.nonesuch


def test_records_generate_only_their_init():
    # the records' generated __repr__, __eq__ and frozen __setattr__ cost
    # every process time at import; FrictionSpec alone is a hashable value.
    # The package gives its names on first read, so the modules that define
    # them are scanned
    records = {obj for module in (params, ode, planar, ramp3d, sim, verify)
               for obj in vars(module).values()
               if isinstance(obj, type) and dataclasses.is_dataclass(obj)}
    assert {cls.__name__ for cls in records} == {
        "FrictionSpec", "ThetaTrace", "Ramp2D", "TangentField",
        "SpaceCurve3D", "RampSurface3D", "MotionTrace", "ForceBalanceReport", "Motion",
        "FeasibilityReport", "ScalingVerification"}
    for cls in records:
        generated = {"__eq__", "__repr__", "__setattr__", "__delattr__", "__hash__"}
        if cls is params.FrictionSpec:
            assert generated <= set(vars(cls))
        else:
            assert "__init__" in vars(cls) and not generated & set(vars(cls)), cls


def test_bare_negative_number_is_a_value_of_any_option(tmp_path, monkeypatch, capsys):
    # argparse alone reads -1e5 as an option; the parsers read it as a value,
    # and a string option keeps it as typed
    monkeypatch.chdir(tmp_path)
    common = ["generate2d", "--mu", "0.5", "--v", "5", "--samples", "4"]
    code, bare, _ = run(capsys, *common, "--out", "-1e5")
    assert code == 0
    assert [f.name for f in tmp_path.iterdir()] == ["-1e5"]
    written = (tmp_path / "-1e5").read_bytes()
    (tmp_path / "-1e5").unlink()
    assert run(capsys, *common, "--out=-1e5") == (0, bare, "")
    assert (tmp_path / "-1e5").read_bytes() == written
    assert json.loads(bare)["out"] == "-1e5"


def test_repeated_runs_are_identical(tmp_path, capsys):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        _, stdout, _ = run(capsys, "generate2d", "--mu", "0.37", "--v", "2.5",
                           "--branch", "upper", "--samples", "64",
                           "--out", str(out))
        outs.append((stdout.replace(name, ""), out.read_bytes()))
    assert outs[0][1] == outs[1][1]