"""sha256 digests of the CLI's outputs, to check a change keeps them byte for byte.

    python scripts/output_digests.py --out digests.json
    python scripts/output_digests.py --compare digests.json

Runs the benchmark's pinned CLI cycle (``bench/workloads.py`` at its
``GOLDEN_SEED``) and, since that cycle runs no 3D ``simulate``, the 3D
``simulate`` of each built-in field from ``--y0 0.8 0 -0.6`` in CSV and
JSONL.  Each command runs as its own process, against the sources under
``src/``, in a fresh temporary directory.  The digests cover each
command's stdout and every file it writes.  ``--out`` writes them as JSON;
``--compare`` checks them against such a file, names each output that
differs and exits 1 if any does.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SIMULATE_3D = ["simulate", "--mu", "0.5", "--v", "5", "--y0", "0.8", "0", "-0.6"]


def commands() -> list[dict]:
    """The golden CLI cycle, then 3D ``simulate`` per field and format."""
    jobs = workloads.cli_cycle(np.random.default_rng(workloads.GOLDEN_SEED))
    for field in ("horizontal", "upslope", "blend:0.37"):
        for fmt in ("csv", "jsonl"):
            out = f"frames.{fmt}"
            jobs.append({"name": f"simulate3d {field} {fmt}", "rows": {out: None},
                         "argv": [*SIMULATE_3D, "--field", field, "--format", fmt,
                                  "--out", out]})
    return jobs


def digests() -> dict:
    env = worker.pinned_env()
    result = {}
    for job in commands():
        with tempfile.TemporaryDirectory() as workdir:
            out = workloads.run_cli(job, Path(workdir), env)
            result[job["name"]] = workloads.output_digests(job, out)
    return result


def differences(want: dict, got: dict) -> list[str]:
    """``command: output`` for each output whose digest differs or is missing."""
    return [f"{name}: {output}" for name in sorted(set(want) | set(got))
            for output in sorted(set(want.get(name, {})) | set(got.get(name, {})))
            if want.get(name, {}).get(output) != got.get(name, {}).get(output)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--out", type=Path, help="write the digests to this JSON file")
    action.add_argument("--compare", type=Path,
                        help="compare the digests with this JSON file")
    args = parser.parse_args(argv)
    got = digests()
    if args.out:
        args.out.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        print(f"wrote {sum(map(len, got.values()))} digests of {len(got)} commands "
              f"to {args.out}")
        return 0
    differ = differences(json.loads(args.compare.read_text()), got)
    for line in differ:
        print(f"differs: {line}")
    print(f"{len(differ)} outputs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
