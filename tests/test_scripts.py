"""Smoke runs of the study scripts and the benchmark recorder, with tiny arguments."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args", [
    ("motion_frames.py", ["--fps", "10", "--out", "{tmp}/frames"]),
    ("hemisphere_gallery.py", ["--smax", "0.5", "--out", "{tmp}/gallery"]),
    ("moon_scaling.py", ["--kappas", "6"]),
])
def test_script_runs(tmp_path, script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script),
         *(a.format(tmp=tmp_path) for a in args)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def _bench_result(directory, commit, jobs_per_s, raw_jobs_per_s):
    directory.mkdir(parents=True)
    run = {"args": {"workload": "sweep3d", "seed": 1, "seconds": 30.0, "trace": 0},
           "environment": {"commit": commit, "python": "3.11.7", "numpy": "2.4.6",
                           "nproc": 2, "cpu": "test cpu", "seed": 1},
           "info": {"raw_jobs_per_s": raw_jobs_per_s, "raw_job_p50_ms": 100.0,
                    "raw_job_tail_ms": 200.0, "raw_setup_s": 0.2,
                    "median_speed_scale": 1.0},
           "result": {"attempted": 10, "failed": 0, "correct": True,
                      "metrics": {"jobs_per_s": {"value": jobs_per_s, "unit": "1/s"},
                                  "peak_rss_mb": {"value": 40.0, "unit": "MB"}}}}
    (directory / "result-sweep3d-seed1-trace0.json").write_text(json.dumps(run))


def test_bench_record_summarises_pairs(tmp_path):
    for i, (old, new) in enumerate([(6.0, 7.0), (7.0, 6.5), (8.0, 9.0)]):
        _bench_result(tmp_path / "parent" / str(i), "aaa", old, 2.0 * old)
        _bench_result(tmp_path / "change" / str(i), "bbb", new, 2.0 * new)
    out = tmp_path / "BENCH_t.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_record.py"), "--label", "t",
         "--parent", *(str(tmp_path / "parent" / str(i)) for i in range(3)),
         "--change", *(str(tmp_path / "change" / str(i)) for i in range(3)),
         "--out", str(out)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    entry = json.loads(out.read_text())["workloads"]["sweep3d-trace0"]
    assert entry["pairs"] == 3
    assert entry["change_better_pairs"] == {"jobs_per_s": 2, "peak_rss_mb": 0}
    parent, change = entry["parent"], entry["change"]
    assert (parent["commit"], change["commit"]) == ("aaa", "bbb")
    assert parent["environment"] == {"python": "3.11.7", "numpy": "2.4.6",
                                     "nproc": 2, "cpu": "test cpu"}
    assert parent["seeds"] == [1] and parent["failed"] == 0
    assert parent["scaled"]["jobs_per_s"] == {"median": 7.0, "q1": 6.5, "q3": 7.5,
                                              "runs": [6.0, 7.0, 8.0]}
    assert change["raw"]["raw_jobs_per_s"]["median"] == 14.0
