"""Run ``repro serve`` as a child the benchmark can stop cleanly.

    python3 perfbench/serve_child.py [--spans SPANS.json] serve --port 0 ...

A child started in the background by a non-interactive shell inherits
SIGINT as ignored, and Python then never raises ``KeyboardInterrupt``
on it; so this entry point restores SIGINT and maps SIGTERM to the same
``KeyboardInterrupt``, on which ``repro serve`` closes its server and
returns.  With ``--spans`` it first wraps the :mod:`layers` entry points
(plus one ``op`` span per HTTP request handled) and writes every span to
SPANS.json once the server has shut down.
"""

from __future__ import annotations

import signal
import sys

import common


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv) -> int:
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    common.use_program()
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGTERM, _interrupt)
    import repro.cli
    import repro.serve.server  # noqa: F401  (loaded so its names get wrapped)

    if spans_path is None:
        return repro.cli.main(argv)

    import layers
    from spans import Tracer

    tracer = Tracer()
    tracer.install(layers.POINTS + [
        ("repro.serve.server", "_Handler.do_GET", "op", None),
        ("repro.serve.server", "_Handler.do_POST", "op", None),
    ])
    try:
        return repro.cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
