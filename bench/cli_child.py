"""Run one traced ``tamperstore`` CLI command in a fresh process.

    python3 bench/cli_child.py SPANS_JSON SESSION -- <cli arguments>

Imports the CLI, installs the layer wrappers from ``spans.py``, calls
``cli.main(argv)``, removes the wrappers and writes the spans and counts
to SPANS_JSON.  Exits with the CLI's own status, or 3 if a wrapper could
not be removed.
"""

from __future__ import annotations

import json
import sys

import tamperstore.cli as cli

from spans import Tracer


def main(argv: list[str]) -> int:
    spans_path, session, separator, *cli_args = argv
    if separator != "--":
        raise SystemExit("usage: cli_child.py SPANS_JSON SESSION -- <cli arguments>")
    tracer = Tracer()
    tracer.session = int(session)
    tracer.install_layers(cli=True)
    try:
        status = cli.main(cli_args)
    finally:
        left = tracer.uninstall()
    with open(spans_path, "w") as fh:
        json.dump({**tracer.export(), "left_patched": left}, fh)
    return 3 if left else status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
