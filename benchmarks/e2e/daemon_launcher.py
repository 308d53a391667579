"""Start ``repro daemon serve`` for the benchmark, optionally traced.

Usage::

    python3 benchmarks/e2e/daemon_launcher.py [--spans FILE] -- \
        --state-dir DIR --port 0

Everything after ``--`` is passed to ``repro daemon serve``. With
``--spans`` the span wrappers are installed before the daemon starts,
and the spans are written to FILE when the daemon returns from the
``shutdown`` verb. A SIGKILLed daemon writes nothing.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import spans  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", default=None)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args
    if serve_args and serve_args[0] == "--":
        serve_args = serve_args[1:]
    recorder = None
    if args.spans:
        recorder = spans.new_recorder()
        spans.install(recorder)
    from repro.cli import main as repro_main
    code = repro_main(["daemon", "serve", *serve_args])
    if recorder is not None:
        recorder.dump(args.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
