"""One CLI run in a fresh interpreter, timed from outside the package.

    python3 cli_child.py RESULT_JSON TRACE SPANS_PATH -- CLI_ARGS...

TRACE is "off", "full" (every layer boundary) or "pool" (every layer
boundary plus the parent's waits on the worker pool).  The run goes
through `smartcharge.cli.main`; the result file records the exit code,
when `harness.run` started and ended (time.monotonic, which every process
on the machine shares) and the peak resident sets of this process and of
its pool workers.

This process's peak is VmHWM, not ru_maxrss: Linux carries the spawning
process's peak into ru_maxrss across exec, so ru_maxrss would report the
benchmark's own memory whenever it is the larger.  Pool workers are forked
from this process, so theirs (ru_maxrss of the children) starts from this
process's resident set at the fork, which they do share.
"""

import json
import os
import resource
import sys
import time


def peak_rss_kb() -> int:
    """This process's peak resident set since exec, in kB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    result_path, trace_mode, spans_path, sep, *cli_args = sys.argv[1:]
    if sep != "--" or trace_mode not in ("off", "full", "pool"):
        print(__doc__, file=sys.stderr)
        return 2

    from smartcharge import cli

    marks = {}
    tracer = None
    if trace_mode != "off":
        import spans

        tracer = spans.Tracer(run_id=os.path.basename(result_path))
        spans.install(tracer, pool_wait=trace_mode == "pool")
    run = cli.run

    def timed_run(cfg):
        marks["run_start"] = time.monotonic()
        try:
            return run(cfg)
        finally:
            marks["run_end"] = time.monotonic()

    cli.run = timed_run
    code = cli.main(cli_args)
    if tracer is not None:
        tracer.calibrate()
        tracer.save(spans_path)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    with open(result_path, "w") as fh:
        json.dump(
            {
                "exit_code": code,
                "package": os.path.dirname(cli.__file__),
                "maxrss_kb": peak_rss_kb(),
                "children_maxrss_kb": children.ru_maxrss,
                **marks,
            },
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
