import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rampforge.cli import main


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


@pytest.mark.parametrize("step", ["0", "nan"])
@pytest.mark.parametrize("command", ["generate3d", "verify"])
def test_bad_step_exits_2(capsys, tmp_path, command, step):
    code, _, err = run(capsys, command, "--mu", "0.5", "--v", "5",
                       "--field", "horizontal", "--y0", "0.8", "0", "-0.6",
                       "--step", step, "--out", str(tmp_path / "x"))
    assert code == 2
    assert "step must be positive" in err


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
    assert run(capsys, "scale", "--mu", "0.5", "--v", "5",
               "--branch", "upper")[0] == 2  # kappa missing


def test_cli_runs_as_module(tmp_path):
    # the child finds the package in this checkout, as the suite itself does
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1] / "src"),
                    env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "rampforge.cli", "generate2d", "--mu", "0.5",
         "--v", "5", "--samples", "4"],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["branch"] == "lower"


def test_repeated_runs_are_identical(tmp_path, capsys):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        _, stdout, _ = run(capsys, "generate2d", "--mu", "0.37", "--v", "2.5",
                           "--branch", "upper", "--samples", "64",
                           "--out", str(out))
        outs.append((stdout.replace(name, ""), out.read_bytes()))
    assert outs[0][1] == outs[1][1]