"""Run one ``afkit`` command, optionally traced.

    python3 bench/cli_runner.py TRACE_OUT ARGS...

With TRACE_OUT ``-`` this is the ``afkit`` console script. Otherwise the
benchmark's tracer wraps the afkit layers first, and at exit the layer
aggregates go to TRACE_OUT (JSON) and the spans to TRACE_OUT.spans.
Exceptions propagate unchanged, so a traced stage prints the same traceback
and exits with the same code as an untraced one.
"""

import sys


def main() -> int:
    trace_out, argv = sys.argv[1], sys.argv[2:]
    if trace_out == "-":
        from afkit.cli import main as cli_main

        return cli_main(argv)

    import json

    from tracer import NUMERIC_COMMANDS, Tracer

    import afkit.cli

    # The numeric layer is wrapped only when the command needs it, so that
    # cli.numpy_loaded still reports whether exact-only commands import numpy.
    if argv and argv[0] in NUMERIC_COMMANDS:
        import afkit.perturb  # noqa: F401
    tracer = Tracer()
    tracer.op = 0
    tracer.install()
    try:
        return afkit.cli.main(argv)
    finally:
        tracer.uninstall()
        summary = tracer.summary(trace_out)
        summary["numpy_loaded"] = "numpy" in sys.modules
        with open(trace_out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh)
        tracer.write_spans(trace_out + ".spans", [" ".join(argv)])


if __name__ == "__main__":
    sys.exit(main())
