"""Runs one defiparity command in a fresh process, for perfbench/run.py.

The process imports `defiparity.cli` and builds its parser, as a
`defiparity` command does before it parses arguments, then writes
`ready` to stdout. The time to that line is the set-up time. It then reads
one JSON request from stdin:

    {"argv": [...], "stdout": "<file for the command's output>", "trace": false}

runs `defiparity.cli.main(argv)` with its stdout sent to that file, and
writes one JSON line: the exit code, the wall time of the call, the peak
resident set size of the process and, with "trace": true, the per-layer
totals of tracing.py. An empty stdin ends the process after `ready`.
"""

import sys

from defiparity import cli

cli.build_parser()
print("ready", flush=True)

line = sys.stdin.readline()
if line:
    import contextlib
    import json
    import resource
    import time

    request = json.loads(line)
    tracer = None
    if request["trace"]:
        import tracing

        tracer = tracing.install()
    with open(request["stdout"], "w", encoding="utf-8") as out:
        with contextlib.redirect_stdout(out):
            start = time.perf_counter()
            try:
                code = cli.main(request["argv"])
            except SystemExit as exc:  # argparse rejects bad arguments this way
                code = exc.code if isinstance(exc.code, int) else 1
            out.flush()
            elapsed = time.perf_counter() - start
    print(json.dumps({
        "code": code,
        "seconds": elapsed,
        "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.as_dict() if tracer else None,
    }), flush=True)
