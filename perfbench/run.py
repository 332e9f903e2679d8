"""unirack benchmark: runs one workload for a fixed time and checks every output.

usage: python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                                [--trace 0|1]

NAME is a workload of workloads.py, or `all` to run each in turn.  A run
repeats rounds of the workload until a round of the mean length would
overrun --seconds (at least one round).  Each step of a round is a fresh
process, and a workload with a cache gets a fresh cache directory every
round.  Before each step and after the last one, the parent times a fixed
reference loop (ref_loop), so that the run knows the speed the machine had.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics, in seconds at the reference speed: each time a step
measures is multiplied by REF_LOOP_S over the mean of the reference-loop
times just before and just after the step.  A shared host drifts in speed
by a fifth or more within minutes; a change to unirack moves the step times
but not the reference loop, which imports nothing of it.
  wall_s       median over rounds of the summed start-to-exit times of the
               round's processes
  setup_s      median over rounds of the summed set-up time of the
               processes: start to the first group catalog (CLI steps) or
               to the built class orbits (library tasks)
  peak_rss_mb  largest peak RSS (VmHWM) of any one process
The lines before it also give the times as measured.
With --trace 1 rounds alternate between untraced and traced, and the last
line holds the per-layer metrics of spans.LAYER_METRICS (medians of the
traced rounds), the report work counts, cache.warm_s (steps answered from
the cache) and trace.overhead_s (the median over neighbouring rounds of the
traced minus the untraced wall time), and bench.ref_loop_s (the median
reference-loop time).  Per-layer times are as measured, not rescaled.

`attempted` counts steps run and `failed` the steps whose exit code,
report checks or report bytes (against the first round) were wrong.
Exits 2 if the unirack sources are not next to this directory.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RUN_LIMIT_S = 170.0      # a run must end within 180 s; a stuck child is killed
REF_LOOP_S = 0.1         # the reference speed: ref_loop() takes this long
REF_PRODUCTS = 16000     # matrix products per ref_loop(), about 0.1 s here

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
BENCH_LAYER = {"cache.warm_s": "s", "trace.overhead_s": "s",
               "bench.ref_loop_s": "s"}
REPORT_COUNTS = ("report.pairs", "report.pair_tests", "report.joint_tests",
                 "report.class_elements")


@dataclass
class StepRun:
    code: int
    started: float          # time.monotonic() just before the spawn
    ended: float            # and just after the exit
    setup_s: float | None = None
    rss_mb: float = 0.0
    trace: dict | None = None
    report: bytes = b""
    scale: float = 1.0      # to the reference speed, see run_round

    @property
    def seconds(self) -> float:
        return self.ended - self.started


@dataclass
class Round:
    traced: bool
    steps: list
    loops: list             # ref_loop() times, before each step and after
    problems: list = field(default_factory=list)   # per step

    @property
    def wall_s(self) -> float:
        return sum(s.seconds for s in self.steps)

    @property
    def setup_s(self) -> float:
        return sum(s.setup_s or 0.0 for s in self.steps)

    @property
    def ref_wall_s(self) -> float:
        return sum(s.seconds * s.scale for s in self.steps)

    @property
    def ref_setup_s(self) -> float:
        return sum((s.setup_s or 0.0) * s.scale for s in self.steps)


_Q, _N = 5, 4
_MUL = tuple(a * b % _Q for a in range(_Q) for b in range(_Q))
_ADD = tuple((a + b) % _Q for a in range(_Q) for b in range(_Q))


def _product(A, B):
    "4x4 matrix product over Z/5 on flat tuples, in the style of the kernel."
    out = [0] * (_N * _N)
    for i in range(_N):
        io = i * _N
        for k in range(_N):
            a = A[io + k]
            if a:
                ko, aq = k * _N, a * _Q
                for j in range(_N):
                    b = B[ko + j]
                    if b:
                        out[io + j] = _ADD[out[io + j] * _Q + _MUL[aq + b]]
    return tuple(out)


def ref_loop() -> float:
    "Seconds this process takes for a fixed run of pure-Python products."
    a = (1, 1, 0, 2, 0, 1, 3, 0, 4, 0, 1, 1, 0, 2, 0, 1)
    g = (1, 2, 0, 0, 0, 1, 0, 0, 0, 3, 1, 4, 0, 0, 0, 1)
    t0 = time.perf_counter()
    for _ in range(REF_PRODUCTS):
        a = _product(a, g)
    return time.perf_counter() - t0


def spawn(job: dict, rdir: Path, tag: str, deadline: float) -> StepRun:
    "Run one child to completion, killing it at the monotonic `deadline`."
    job_path = rdir / f"{tag}.job.json"
    job_path.write_text(json.dumps(job))
    with open(rdir / f"{tag}.log", "wb") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(job_path), repr(t0)],
            cwd=ROOT, stdin=subprocess.DEVNULL, stdout=log, stderr=log)
        killer = threading.Timer(max(deadline - t0, 0.0), proc.kill)
        killer.start()
        try:
            _, status = os.waitpid(proc.pid, 0)
        except BaseException:   # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        t1 = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    run = StepRun(proc.returncode, t0, t1)
    result = Path(job["result"])
    if result.exists():
        got = json.loads(result.read_text())
        run.setup_s, run.rss_mb, run.trace = (got["setup_s"],
                                              got["peak_rss_mb"], got["trace"])
    report = Path(job["report"])
    if report.exists():
        run.report = report.read_bytes()
    return run


def run_round(wl: Workload, seed: int, traced: bool, rdir: Path,
              deadline: float) -> Round:
    rdir.mkdir()
    cache = ["--cache-dir", str(rdir / "cache")] if wl.cache else []
    runs, loops = [], []
    for i, step in enumerate(wl.steps):
        loops.append(ref_loop())
        job = {"src": str(SRC), "trace": traced, "seed": seed,
               "report": str(rdir / f"{i}.report.json"),
               "result": str(rdir / f"{i}.result.json")}
        if step.task:
            job["task"] = step.task
        else:
            job["argv"] = ["--output", job["report"], "--seed", str(seed),
                           *cache, *step.argv]
        runs.append(spawn(job, rdir, str(i), deadline))
    loops.append(ref_loop())
    for i, run in enumerate(runs):
        run.scale = REF_LOOP_S * 2 / (loops[i] + loops[i + 1])
    rnd = Round(traced, runs, loops)
    for step, run in zip(wl.steps, runs):
        rnd.problems.append(check_step(step, run))
    return rnd


def check_step(step, run: StepRun) -> list:
    problems = []
    if run.code != step.code:
        problems.append(f"exit code {run.code}, want {step.code}")
    if run.setup_s is None:
        problems.append("no result file")
    try:
        problems += step.check(json.loads(run.report))
    except (ValueError, KeyError, TypeError) as err:
        problems.append(f"report unreadable: {err!r}")
    return problems


def report_counts(rnd: Round) -> dict:
    "Work counts read from the reports of one round."
    counts = dict.fromkeys(REPORT_COUNTS, 0)

    def walk(node):
        if isinstance(node, dict):
            stats = node.get("stats")
            if node.get("kind") == "not_D" and stats:
                counts["report.pairs"] += stats["pairs"]
            if node.get("kind") == "not_F" and stats:
                counts["report.pair_tests"] += stats["pair_tests"]
                counts["report.joint_tests"] += stats["joint_tests"]
            if "verdict" in node and "size" in node:
                counts["report.class_elements"] += node["size"]
            for val in node.values():
                walk(val)
        elif isinstance(node, list):
            for val in node:
                walk(val)

    for run in rnd.steps:
        try:
            walk(json.loads(run.report))
        except ValueError:
            pass
    return counts


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool):
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK))
    rounds = []
    try:
        start = time.monotonic()
        while True:
            traced = trace and len(rounds) % 2 == 1
            rounds.append(run_round(wl, seed, traced, tmp / f"r{len(rounds)}",
                                    start + RUN_LIMIT_S))
            elapsed = time.monotonic() - start
            enough = not trace or len(rounds) >= 2
            # stop unless a round of the mean length still fits
            if enough and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:         # another run still uses it
            pass
    return summarize(wl, rounds, trace)


def summarize(wl: Workload, rounds: list, trace: bool) -> dict:
    attempted = failed = 0
    first = [run.report for run in rounds[0].steps]
    for k, rnd in enumerate(rounds):
        for i, (step, run) in enumerate(zip(wl.steps, rnd.steps)):
            problems = list(rnd.problems[i])
            if run.report != first[i]:
                problems.append("report bytes differ from the first round")
            attempted += 1
            if problems:
                failed += 1
                print(f"FAIL {wl.name} round {k} {step.name}: "
                      f"{'; '.join(problems)}", file=sys.stderr)
    plain = [r for r in rounds if not r.traced]
    correct = failed == 0
    ref_loop_s = statistics.median(t for r in plain for t in r.loops)
    if not trace:
        measured = {"wall_s": statistics.median(r.wall_s for r in plain),
                    "setup_s": statistics.median(r.setup_s for r in plain)}
        print(f"{wl.name}: as measured, wall_s = {measured['wall_s']} s, "
              f"setup_s = {measured['setup_s']} s, "
              f"reference loop {ref_loop_s} s")
        metrics = {
            "wall_s": statistics.median(r.ref_wall_s for r in plain),
            "setup_s": statistics.median(r.ref_setup_s for r in plain),
        }
        metrics["peak_rss_mb"] = max(s.rss_mb for r in plain for s in r.steps)
        units = END_TO_END
    else:
        traced = [r for r in rounds if r.traced]
        per_round = []
        for rnd in traced:
            vals = spans.layer_metrics(spans.merge(s.trace or {} for s in rnd.steps))
            vals.update(report_counts(rnd))
            per_round.append(vals)
        units = {name: unit for name, (unit, _) in spans.LAYER_METRICS.items()}
        units.update(dict.fromkeys(REPORT_COUNTS, "count"))
        metrics = {}
        for name, unit in units.items():
            vals = [v[name] for v in per_round]
            if unit != "count":
                metrics[name] = statistics.median(vals)
                continue
            metrics[name] = vals[0]
            if len(set(vals)) > 1:
                correct = False
                print(f"FAIL {wl.name}: count {name} differs between traced "
                      f"rounds: {vals}", file=sys.stderr)
        warm = [sum(s.seconds for st, s in zip(wl.steps, r.steps) if st.warm)
                for r in plain]
        metrics["cache.warm_s"] = statistics.median(warm)
        # rounds alternate untraced, traced: compare neighbours, so that
        # drift in the machine's speed cancels
        metrics["trace.overhead_s"] = statistics.median(
            t.wall_s - u.wall_s for u, t in zip(rounds[0::2], rounds[1::2]))
        metrics["bench.ref_loop_s"] = ref_loop_s
        units.update(BENCH_LAYER)
    print(f"{wl.name}: {len(rounds)} rounds "
          f"({sum(r.traced for r in rounds)} traced)")
    for name, val in metrics.items():
        print(f"  {name} = {val} {units[name]}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": val, "unit": units[name]}
                        for name, val in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # turn SIGTERM into SystemExit, so that the running child is stopped too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "unirack" / "cli.py").is_file():
        print(f"no unirack sources under {SRC}", file=sys.stderr)
        return 2
    # byte-compile once, so that no timed process pays for it
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(WORKLOADS[name], args.seed, args.seconds,
                                  bool(args.trace))
               for name in names}
    out = results[names[0]] if len(names) == 1 else results
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
