"""``repro serve`` with write-path spans, for the benchmark's traced run.

Usage: ``python3 perfbench/traced_serve.py SPANS.json serve --store S ...``

Installs :func:`tracing.install_ingest_spans`, runs the CLI with the
remaining arguments, and writes every span to ``SPANS.json`` when the
server exits (SIGTERM drains it and returns from the CLI normally).
"""

import json
import sys
from pathlib import Path

from tracing import Spans, install_ingest_spans

from repro.cli import main

if __name__ == "__main__":
    spans = Spans()
    install_ingest_spans(spans)
    try:
        code = main(sys.argv[2:])
    finally:
        Path(sys.argv[1]).write_text(json.dumps(spans.records))
    raise SystemExit(code)
