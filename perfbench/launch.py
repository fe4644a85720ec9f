"""Run one `bmreg` command through `bmreg.cli.main`, optionally traced.

    python3 perfbench/launch.py [--spans PATH] -- <bmreg arguments>

The `bmreg` package is imported from the `src/` directory next to this
benchmark, never from an installed copy.  With `--spans`, the public
functions of every `bmreg` module are wrapped before `main` runs (see
`tracer.py`) and the per-span summary is written to PATH when it returns.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main() -> int:
    argv = sys.argv[1:]
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    sys.path.insert(0, SRC)
    import bmreg.cli

    if not os.path.abspath(bmreg.cli.__file__).startswith(SRC + os.sep):
        print(f"bmreg imported from {bmreg.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if spans_path is None:
        return bmreg.cli.main(argv)

    import tracer  # next to this file, so on sys.path

    recorder = tracer.install()
    code = bmreg.cli.main(argv)
    recorder.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
