"""Run one ``rampforge`` command in this process with spans recorded.

Usage: ``python cli_child.py SPAN_FILE ARG...`` behaves like ``rampforge
ARG...`` (same stdout, files and exit code) and also writes the spans of the
``cli.main`` call and of every layer it reached to ``SPAN_FILE``.
"""

import json
import sys
from pathlib import Path

import spans
from rampforge import cli


def main() -> int:
    span_file, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = spans.Tracer()
    saved = spans.install(tracer)
    index = tracer.open("cli.main")
    try:
        code = cli.main(argv)
    finally:
        tracer.close(index)
        spans.uninstall(saved)
        span_file.write_text(json.dumps(tracer.spans))
    return code


if __name__ == "__main__":
    sys.exit(main())
