"""One benchmark step, run in a fresh process.

usage: python3 child.py JOB_FILE T0

JOB_FILE is a JSON job written by run.py; T0 is the parent's
`time.monotonic()` reading just before it started this process (the clock
is system-wide, so the two readings compare).  A CLI job passes its argv to
`unirack.cli.main`; a task job runs a function of tasks.py and writes its
output as the report.  The child writes its set-up time, its peak RSS and,
when traced, its per-layer aggregates to the job's result file, and exits
with the step's exit code.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def _run_cli(argv):
    "Run the CLI; set-up ends when its first group catalog is ready."
    from unirack import cli
    ready = []
    build = cli.group_catalog

    def first_catalog(*args):
        got = build(*args)
        if not ready:
            ready.append(time.monotonic())
        return got

    cli.group_catalog = first_catalog
    entered = time.monotonic()
    code = cli.main(argv)
    # a run that never builds a catalog has set up once the CLI is entered
    return code, ready[0] if ready else entered


def _run_task(job):
    import tasks
    output, setup_done = tasks.TASKS[job["task"]](job["seed"])
    Path(job["report"]).write_text(
        json.dumps(output, sort_keys=True, separators=(",", ":")) + "\n")
    return 0, setup_done


def _peak_rss_mb() -> float:
    """Peak RSS of this process image (VmHWM).  Unlike ru_maxrss from
    wait4, it does not include the parent's peak, which the kernel carries
    into a child through fork and exec."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text())
    t0 = float(sys.argv[2])
    sys.path.insert(0, job["src"])
    tracer = None
    if job["trace"]:
        import spans
        tracer = spans.Tracer().install()
    if "argv" in job:
        code, setup_done = _run_cli(job["argv"])
    else:
        code, setup_done = _run_task(job)
    result = {"setup_s": setup_done - t0, "peak_rss_mb": _peak_rss_mb(),
              "trace": tracer.snapshot() if tracer else None}
    Path(job["result"]).write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
