"""Rewrite ``golden_cli.json``: digests of the pinned CLI cycle's outputs.

    python3 bench/golden.py

Run it only when a change is meant to alter CLI output; the benchmark
reports every digest that differs as ``cli.output_hash_mismatches``.
"""

import json
import shutil
import sys

import worker


def main() -> int:
    worker._import_program()
    import workloads  # needs the program on sys.path first

    workdir = worker.ROOT / ".bench_work" / "golden"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        mismatches, digests = worker.golden_mismatches(workdir, worker.pinned_env())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.GOLDEN_FILE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.GOLDEN_FILE.name}; {mismatches} digests changed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
