"""Run one `clflats` command with span tracing, in a fresh process.

    python3 perfbench/traced_cli.py SPANS_JSON -- CLI_ARGS...

Imports the package from the `src` directory beside this benchmark,
installs the tracer's wrappers, calls `clflats.cli.run(CLI_ARGS)` inside
a root span, writes the spans to SPANS_JSON and exits with the command's
exit code.  The command's own output (stdout) is left untouched, so the
caller can check the report exactly as it does for an untraced run.
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        sys.stderr.write("usage: traced_cli.py SPANS_JSON -- CLI_ARGS...\n")
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    import tracer

    trace = tracer.Tracer()
    start = perf_counter()
    from clflats import cli

    trace.spans.append(["bench.import", -1, start, perf_counter()])
    trace.install()
    with trace.span("bench.command"):
        code = cli.run(cli_args)
    trace.uninstall()
    sys.stdout.flush()
    tracer.write(spans_path, trace.dump())
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
