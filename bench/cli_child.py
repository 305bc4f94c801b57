"""Traced `robustz` CLI invocation in a fresh interpreter.

Usage: python3 cli_child.py SPAWN_TIME SPANS_PATH CLI_ARG...

SPAWN_TIME is the parent's ``tracing.clock()`` reading just before it
started this process; the span from then to the call of
``robustz.cli.main`` is ``cli.startup``. The spans are written once, to
SPANS_PATH, after ``main`` returns, and the exit code is main's.
"""

import sys

import tracing


def _run(spawned: float, spans_path: str, argv: list[str]) -> int:
    tracer = tracing.Tracer()
    with tracer.span("cli.startup", start=spawned):
        tracer.install()
        import robustz.cli
    code = robustz.cli.main(argv)
    sys.stdout.flush()
    tracer.write(spans_path)
    return code


if __name__ == "__main__":
    raise SystemExit(_run(float(sys.argv[1]), sys.argv[2], sys.argv[3:]))
