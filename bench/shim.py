"""Launcher for the server processes of a benchmark run.

``python3 bench/shim.py [--role R --spans PATH] -- <repro CLI args>``
runs ``repro.cli.main`` exactly as ``python -m repro`` would.  With
``--spans`` it first installs the span wrappers of :mod:`spans` for
``--role`` and dumps what they recorded to PATH on SIGUSR1 (the runner
asks for the dump before it stops — or ``kill -9``s — the process).
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="shim")
    parser.add_argument("--role", choices=["server", "router"])
    parser.add_argument("--spans")
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    from repro.cli import main as repro_main

    if args.spans:
        import repro.cluster  # noqa: F401 - loaded so they can be wrapped
        import repro.durability  # noqa: F401
        import repro.net  # noqa: F401
        from spans import Recorder, install

        rec = Recorder(proc=f"{args.role}:{os.getpid()}")
        install(rec, args.role)
        signal.signal(signal.SIGUSR1, lambda *_: rec.dump(args.spans))
    return repro_main(cli_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
