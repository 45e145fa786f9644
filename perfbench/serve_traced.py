"""``repro serve`` with the service-side layer spans recorded.

Usage: ``serve_traced.py SPANS.json serve --socket S --store D ...``.
Runs the CLI's ``serve`` command unchanged, with store lookups and
writes and batch computes wrapped in spans, and writes the spans as
JSON to SPANS.json once the server has shut down.
"""

import json
import sys
from pathlib import Path

from layers import ThreadTracers, patched, service_layers


def main(argv: list[str]) -> int:
    from repro.cli import main as cli_main

    out, args = Path(argv[0]), argv[1:]
    tracers = ThreadTracers()
    with patched(service_layers(tracers)):
        rc = cli_main(args)
    out.write_text(json.dumps(tracers.export()))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
