"""Run ``repro-ise serve`` with the benchmark's layer spans installed.

Usage: ``python benchmarks/e2e/launch_server.py --spans FILE -- serve [flags]``

Installs the same wrappers as the in-process traced runs, plus the serve
layer's, then hands the remaining arguments to ``repro.cli.main``.  The
server drains on SIGTERM as usual; when ``main`` returns, the originals are
restored (and checked) and the spans are written to FILE.
"""

from __future__ import annotations

import argparse
import sys

from tracing import SERVER_POINTS, SOLVER_POINTS, Tracer


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write the spans")
    parser.add_argument("cli", nargs=argparse.REMAINDER, help="-- then repro-ise arguments")
    args = parser.parse_args(argv)
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    from repro import cli

    tracer = Tracer()
    tracer.install(SOLVER_POINTS + SERVER_POINTS)
    tracer.active = True
    try:
        return cli.main(cli_args)
    finally:
        tracer.restore()
        tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
