"""Run the phasescope CLI with per-layer spans recorded.

    python3 bench/traced_cli.py SPANS_OUT.json <phasescope CLI arguments>

Installs the span wrappers of spans.SITES, runs `phasescope.cli.main` with
the remaining arguments, writes the span summary and the list of absent
sites to SPANS_OUT.json and exits with the CLI's exit code.
"""

from __future__ import annotations

import json
import sys

import spans


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = spans.Tracer()
    absent, _ = spans.install(tracer)
    from phasescope import cli

    code = cli.main(cli_args)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.summarize(), "absent": absent}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
