"""Record a parent/change benchmark A/B as a committed BENCH_<label>.json.

``bench/run.py`` writes one result per run to
``.bench_out/result-<workload>-seed<seed>-trace<trace>.json`` and overwrites
it on the next run, so keep a copy of each run's file.  Pass the parent's
copies and the change's copies in the order they ran: the i-th parent run
and the i-th change run of a workload form a pair.  A directory stands for
the ``result-*.json`` files in it.

For each workload and trace setting the record holds, per side, the median
and quartiles of every metric (the scaled values ``bench/run.py`` prints and,
for untraced runs, the raw ones it keeps under ``info``), the failed-job
count, the seeds, the pair count and, for each end-to-end metric of
``BENCHMARK.json``, the number of pairs the change won.  It also records
both commits and each side's Python and numpy versions and core count.

For every metric, scaled and raw, ``pairwise`` holds the median of the
differences within pairs (change minus parent) and the number of pairs in
which the change read higher, lower or the same (see :func:`pairwise`).  The
traced metrics are raw wall times that swing with the host from run to run,
so a change in them shows in these differences and not in the per-side
medians.

Each end-to-end metric of each workload also gets a verdict (see
:func:`verdict`): ``gain``, ``no worse``, ``worse`` or ``unresolved``.

``job_tail_ms`` is the highest percentile a run has ten samples beyond, so
two runs with different job counts can report different percentiles.  Each
side keeps every run's ``tail_percentile`` and ``tail_samples_beyond``, the
workload lists the pairs whose two runs compare different percentiles under
``tail_percentile_differs`` (numbered from 1), and a line is printed for each.

Usage:
    python3 scripts/bench_record.py --label lean-stage \\
        --parent runs/parent/* --change runs/change/*
"""

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RAW = ("raw_jobs_per_s", "raw_job_p50_ms", "raw_job_tail_ms", "raw_setup_s",
       "median_speed_scale")
TAIL = ("tail_percentile", "tail_samples_beyond")


def load(paths: list[str]) -> dict:
    """Results grouped by ``(workload, trace)``, in the order given."""
    runs = defaultdict(list)
    for path in map(Path, paths):
        for file in sorted(path.glob("result-*.json")) if path.is_dir() else [path]:
            run = json.loads(file.read_text())
            runs[run["args"]["workload"], run["args"]["trace"]].append(run)
    return runs


def spread(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def side(runs: list[dict]) -> dict:
    commits = {run["environment"]["commit"] for run in runs}
    if len(commits) != 1:
        raise SystemExit(f"the runs of one side come from several commits: {sorted(commits)}")
    env = runs[0]["environment"]
    out = {"commit": commits.pop(),
           "environment": {key: env[key] for key in ("python", "numpy", "nproc", "cpu")},
           "runs": len(runs),
           "seeds": sorted({run["args"]["seed"] for run in runs}),
           "failed": sum(run["result"]["failed"] for run in runs),
           "attempted": sum(run["result"]["attempted"] for run in runs),
           "scaled": {name: spread([run["result"]["metrics"][name]["value"] for run in runs])
                      for name in runs[0]["result"]["metrics"]}}
    raw = [name for name in RAW if name in runs[0]["info"]]
    if raw:
        out["raw"] = {name: spread([run["info"][name] for run in runs]) for name in raw}
    for name in TAIL:
        if name in runs[0]["info"]:
            out[name] = [run["info"][name] for run in runs]
    return out


def pairwise(parent: list[float], change: list[float]) -> dict:
    """The median of the differences within pairs (change minus parent) and
    the number of pairs in which the change read higher, lower or the same."""
    diffs = [y - x for x, y in zip(parent, change)]
    return {"median_diff": statistics.median(diffs),
            "change_higher": sum(d > 0.0 for d in diffs),
            "change_lower": sum(d < 0.0 for d in diffs),
            "equal": sum(d == 0.0 for d in diffs)}


def verdict(parent: dict, change: dict, won: int, pairs: int, better: str,
            bound: float, fails_more: bool = False) -> str:
    """Judge one metric from both sides' :func:`spread` and the pairs won.

    ``gain``: the change won at least 9 of 10 pairs, its median is better
    than the parent's by more than the parent's interquartile range, and it
    does not fail a larger share of its jobs (``fails_more``).  Otherwise
    ``unresolved`` when that range is wider than ``bound`` (a fraction of
    the parent's median), unless every run of the change beats every run
    of the parent; else ``no worse`` when the change's median is worse by
    at most ``bound``, and ``worse`` when by more.
    """
    sign = 1.0 if better == "higher" else -1.0
    base = abs(parent["median"])
    gained = sign * (change["median"] - parent["median"])
    iqr = parent["q3"] - parent["q1"]
    if 10 * won >= 9 * pairs and gained > iqr and not fails_more:
        return "gain"
    beats_all = min(sign * x for x in change["runs"]) > max(sign * x for x in parent["runs"])
    if iqr > bound * base and not beats_all:
        return "unresolved"
    return "no worse" if gained >= -bound * base else "worse"


def record(label: str, parent: dict, change: dict, benchmark: dict) -> dict:
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    workloads = {}
    for key in sorted(set(parent) & set(change)):
        a, b = side(parent[key]), side(change[key])
        pairs = min(a["runs"], b["runs"])
        # the change fails a larger share of its jobs than the parent
        fails_more = b["failed"] * a["attempted"] > a["failed"] * b["attempted"]
        wins = {}
        for name, direction in better.items():
            if name in a["scaled"]:
                sign = 1.0 if direction == "higher" else -1.0
                wins[name] = sum(sign * (y - x) > 0.0 for x, y in
                                 zip(a["scaled"][name]["runs"], b["scaled"][name]["runs"]))
        workloads[f"{key[0]}-trace{key[1]}"] = {
            "workload": key[0], "trace": key[1], "pairs": pairs,
            "seconds": parent[key][0]["args"]["seconds"],
            "change_better_pairs": wins, "parent": a, "change": b,
            "pairwise": {name: pairwise(a[kind][name]["runs"], b[kind][name]["runs"])
                         for kind in ("scaled", "raw") if kind in a and kind in b
                         for name in a[kind] if name in b[kind]},
            "verdicts": {name: verdict(a["scaled"][name], b["scaled"][name], won, pairs,
                                       better[name], bounds[name], fails_more)
                         for name, won in wins.items()},
            "tail_percentile_differs": [
                i for i, (x, y) in enumerate(zip(a.get("tail_percentile", []),
                                                 b.get("tail_percentile", [])), 1)
                if x != y]}
    return {"label": label, "command": benchmark["command"], "workloads": workloads}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    parser.add_argument("--out", default=None, help="default: BENCH_<label>.json at the repo root")
    args = parser.parse_args()

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = record(args.label, load(args.parent), load(args.change), benchmark)
    if not result["workloads"]:
        raise SystemExit("no workload has runs on both sides")
    out = Path(args.out) if args.out else ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    for name, entry in result["workloads"].items():
        for metric, won in entry["change_better_pairs"].items():
            a, b = entry["parent"]["scaled"][metric], entry["change"]["scaled"][metric]
            print(f"{name} {metric}: {a['median']:.4g} -> {b['median']:.4g}, "
                  f"change better in {won} of {entry['pairs']} pairs: "
                  f"{entry['verdicts'][metric]}")
        for i in entry["tail_percentile_differs"]:
            x, y = (entry[s]["tail_percentile"][i - 1] for s in ("parent", "change"))
            print(f"{name} job_tail_ms: pair {i} compares p{x:g} with p{y:g}")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
