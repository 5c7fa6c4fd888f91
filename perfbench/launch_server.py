"""Traced server launcher: wrap the program's public entry points with
spans, hand over to ``repro.cli.main``, and write the spans out when the
server exits (SIGINT ends ``serve --http`` cleanly).

Usage: ``python3 launch_server.py SPANS.json serve --http 0 --watch DIR``
with ``src`` and this directory on ``PYTHONPATH``.
"""

from __future__ import annotations

import json
import sys


def main() -> int:
    from spans import Tracer, install

    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = install(Tracer())
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
