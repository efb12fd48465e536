"""Runs of the tools in ``scripts/`` (layer timer, A/B recorder, output digests),
with tiny arguments."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_layer_times_reports_each_layer(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "layer_times.py"), "--repeat", "1",
         "--size", "0.01"], cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["python"] and out["numpy"] and out["repeat"] == 1
    assert out["clock"] == "process_time"
    assert set(out["ms"]) == {
        "ode.integrate_theta", "ramp3d.integrate_ramp3d horizontal",
        "ramp3d.integrate_ramp3d upslope", "ramp3d.integrate_ramp3d blend:0.5",
        *(f"exporters.write_{name}" for name in (
            "curve2d_csv", "curve2d_json", "curve2d_svg", "frames_csv", "frames_jsonl",
            "curve2d csv+json", "frames csv+jsonl"))}
    assert all(ms > 0.0 for ms in out["ms"].values())
    assert out["process_clock"] == "perf_counter"
    assert set(out["process_ms"]) == {
        "generate2d", "generate3d", "verify_branch", "verify_field", "simulate", "scale",
        "import os, numpy; os._exit(0)"}
    assert all(ms > 0.0 for ms in out["process_ms"].values())
    assert out["process_cpu_clock"] == "getrusage(RUSAGE_CHILDREN) user+sys"
    assert set(out["process_cpu_ms"]) == set(out["process_ms"])
    assert all(ms > 0.0 for ms in out["process_cpu_ms"].values())
    assert not list(tmp_path.iterdir())  # writers and commands wrote to a temporary one


def _bench_run(commit, jobs_per_s, raw_jobs_per_s, tail_percentile=90.0, failed=0):
    return {"args": {"workload": "sweep3d", "seed": 1, "seconds": 30.0, "trace": 0},
           "environment": {"commit": commit, "python": "3.11.7", "numpy": "2.4.6",
                           "nproc": 2, "cpu": "test cpu", "seed": 1},
           "info": {"raw_jobs_per_s": raw_jobs_per_s, "raw_job_p50_ms": 100.0,
                    "raw_job_tail_ms": 200.0, "raw_setup_s": 0.2,
                    "median_speed_scale": 1.0, "tail_percentile": tail_percentile,
                    "tail_samples_beyond": 100 - int(tail_percentile)},
           "result": {"attempted": 10, "failed": failed, "correct": True,
                      "metrics": {"jobs_per_s": {"value": jobs_per_s, "unit": "1/s"},
                                  "peak_rss_mb": {"value": 40.0, "unit": "MB"}}}}


def _bench_result(directory, commit, jobs_per_s, raw_jobs_per_s, tail_percentile=90.0):
    directory.mkdir(parents=True)
    run = _bench_run(commit, jobs_per_s, raw_jobs_per_s, tail_percentile)
    (directory / "result-sweep3d-seed1-trace0.json").write_text(json.dumps(run))


def _script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_record_summarises_pairs(tmp_path):
    for i, (old, new) in enumerate([(6.0, 7.0), (7.0, 6.5), (8.0, 9.0)]):
        _bench_result(tmp_path / "parent" / str(i), "aaa", old, 2.0 * old)
        _bench_result(tmp_path / "change" / str(i), "bbb", new, 2.0 * new,
                      95.0 if i == 1 else 90.0)
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
    assert entry["verdicts"] == {"jobs_per_s": "no worse", "peak_rss_mb": "no worse"}
    assert ("sweep3d-trace0 jobs_per_s: 7 -> 7, change better in 2 of 3 pairs: no worse"
            in proc.stdout.splitlines())
    parent, change = entry["parent"], entry["change"]
    assert (parent["commit"], change["commit"]) == ("aaa", "bbb")
    assert parent["environment"] == {"python": "3.11.7", "numpy": "2.4.6",
                                     "nproc": 2, "cpu": "test cpu"}
    assert parent["seeds"] == [1] and parent["failed"] == 0
    assert parent["scaled"]["jobs_per_s"] == {"median": 7.0, "q1": 6.5, "q3": 7.5,
                                              "runs": [6.0, 7.0, 8.0]}
    assert change["raw"]["raw_jobs_per_s"]["median"] == 14.0
    # the second pair's tails are p90 against p95: recorded and printed
    assert parent["tail_percentile"] == [90.0, 90.0, 90.0]
    assert change["tail_percentile"] == [90.0, 95.0, 90.0]
    assert change["tail_samples_beyond"] == [10, 5, 10]
    assert entry["tail_percentile_differs"] == [2]
    assert "sweep3d-trace0 job_tail_ms: pair 2 compares p90 with p95" in proc.stdout.splitlines()


def test_bench_record_differences_within_pairs(tmp_path):
    # two result files per side: the per-side medians hide which way each
    # pair went, the differences within pairs do not
    for i, (old, new, raw_old, raw_new) in enumerate([(6.0, 5.0, 20.0, 26.0),
                                                      (9.0, 8.0, 30.0, 30.0)]):
        _bench_result(tmp_path / "parent" / str(i), "aaa", old, raw_old)
        _bench_result(tmp_path / "change" / str(i), "bbb", new, raw_new)
    out = tmp_path / "BENCH_t.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_record.py"), "--label", "t",
         "--parent", *(str(tmp_path / "parent" / str(i)) for i in range(2)),
         "--change", *(str(tmp_path / "change" / str(i)) for i in range(2)),
         "--out", str(out)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    entry = json.loads(out.read_text())["workloads"]["sweep3d-trace0"]
    assert entry["pairwise"]["jobs_per_s"] == {
        "median_diff": -1.0, "change_higher": 0, "change_lower": 2, "equal": 0}
    assert entry["pairwise"]["raw_jobs_per_s"] == {
        "median_diff": 3.0, "change_higher": 1, "change_lower": 0, "equal": 1}
    assert entry["pairwise"]["peak_rss_mb"] == {
        "median_diff": 0.0, "change_higher": 0, "change_lower": 0, "equal": 2}
    assert set(entry["pairwise"]) == {"jobs_per_s", "peak_rss_mb", *(
        "raw_jobs_per_s", "raw_job_p50_ms", "raw_job_tail_ms", "raw_setup_s",
        "median_speed_scale")}


@pytest.mark.parametrize("parent, change, won, better, expect", [
    # ten pairs, 9 won, medians 10 -> 12 with a parent IQR of 0.5
    ([9.5, 10.0, 10.0, 10.5] * 2 + [10.0, 10.0], [12.0] * 10, 9, "higher", "gain"),
    # the same medians with only 8 of 10 pairs won: within the 20% bound
    ([9.5, 10.0, 10.0, 10.5] * 2 + [10.0, 10.0], [12.0] * 10, 8, "higher", "no worse"),
    # a median 2 better that does not exceed a parent IQR of 2
    ([9.0, 9.0, 11.0, 11.0] * 2 + [10.0, 10.0], [12.0] * 10, 10, "higher", "no worse"),
    # lower is better: 30% slower against a tight parent
    ([100.0] * 10, [130.0] * 10, 0, "lower", "worse"),
    ([100.0] * 10, [115.0] * 10, 0, "lower", "no worse"),
    # a parent IQR of 40% of its median is wider than the bound
    ([60.0, 80.0, 120.0, 140.0] * 2 + [100.0, 100.0], [100.0] * 10, 5, "lower", "unresolved"),
    # winning every pair does not resolve it while some parent run is faster
    ([60.0, 80.0, 120.0, 140.0] * 2 + [100.0, 100.0], [55.0, 70.0] * 5, 10, "lower",
     "unresolved"),
    # every change run beating every parent run does
    ([60.0, 80.0, 120.0, 140.0] * 2 + [100.0, 100.0], [58.0] * 10, 8, "lower", "no worse"),
    # a gain wider than that IQR is resolved
    ([60.0, 80.0, 120.0, 140.0] * 2 + [100.0, 100.0], [59.0] * 10, 9, "lower", "gain"),
])
def test_bench_record_verdict(parent, change, won, better, expect):
    module = _script("bench_record")
    got = module.verdict(module.spread(parent), module.spread(change), won, 10, better, 0.2)
    assert got == expect


@pytest.mark.parametrize("failed, expect", [(0, "gain"), (1, "no worse")])
def test_bench_record_gain_needs_no_more_failures(failed, expect):
    # 20% faster in every pair is a gain only while the change fails no
    # larger share of its jobs than the parent
    module = _script("bench_record")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent = {("sweep3d", 0): [_bench_run("aaa", 10.0, 20.0) for _ in range(10)]}
    change = {("sweep3d", 0): [_bench_run("bbb", 12.0, 24.0, failed=failed if i == 3 else 0)
                               for i in range(10)]}
    entry = module.record("t", parent, change, benchmark)["workloads"]["sweep3d-trace0"]
    assert entry["change_better_pairs"]["jobs_per_s"] == 10
    assert entry["verdicts"]["jobs_per_s"] == expect


def test_output_digests_names_each_differing_output(tmp_path, monkeypatch):
    # one run writes the digests, and those that are the same on any host
    # must be the committed ones; a second, compared with a copy that has
    # one digest changed, names exactly that output and exits 1
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends its own
    tool = _script("output_digests")
    script = [sys.executable, str(ROOT / "scripts" / "output_digests.py")]
    out = tmp_path / "digests.json"
    proc = subprocess.run([*script, "--out", str(out)], cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    digests = json.loads(out.read_text())
    assert all(d is not None for outputs in digests.values() for d in outputs.values())
    pinned = json.loads((ROOT / "tests" / "output_digests.json").read_text())
    differ = tool.differences(pinned, tool.host_independent(digests))
    assert not differ, f"outputs differ from tests/output_digests.json: {differ}"
    digests["simulate3d upslope csv"]["frames.csv"] = "0" * 64
    changed = tmp_path / "changed.json"
    changed.write_text(json.dumps(digests))
    proc = subprocess.run([*script, "--compare", str(changed)], cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stderr
    assert [line for line in proc.stdout.splitlines() if line.startswith("differs")] == [
        "differs: simulate3d upslope csv: frames.csv"]


def test_output_digests_writes_no_raised_output(tmp_path, monkeypatch, capsys):
    # --host-independent keeps only those digests; --out writes nothing and
    # exits 1 if an output raised, so a failure is never pinned
    monkeypatch.setattr(sys, "path", list(sys.path))
    tool = _script("output_digests")
    written = {"written frames3d": {"frames.csv": "c", "frames.jsonl": "d"}}
    monkeypatch.setattr(tool, "digests", lambda: {"generate2d": {"stdout": "a",
                                                                 "curve.csv": "b"}})
    monkeypatch.setattr(tool, "generated", dict)
    monkeypatch.setattr(tool, "written", lambda: written)
    out = tmp_path / "digests.json"
    assert tool.main(["--host-independent", "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == {"generate2d": {"stdout": "a"}, **written}
    out.unlink()
    written["written frames3d"]["frames.csv"] = "raised ValueError('x')"
    capsys.readouterr()
    assert tool.main(["--host-independent", "--out", str(out)]) == 1
    assert not out.exists()
    assert capsys.readouterr().out.splitlines()[0] == "raised: written frames3d: frames.csv"
