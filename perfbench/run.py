"""qloop benchmark: one workload of real CLI commands, one process per job.

Run from the root of a qloop checkout:

    python3 perfbench/run.py --workload tsystem-kr --seed 1 --seconds 30 --trace 0

The load is a closed loop with one client: the jobs of a pass run back
to back, one fresh `python -m qloop.cli` process at a time, because the
module caches live only as long as one process and a CLI user pays to
fill them on every call.  With `--trace 0` the run repeats passes
until `--seconds` have gone by, finishing the pass under way, and
reports each end-to-end metric as the median over its passes; set-up
time, a fresh process running the cheapest command, is sampled before
and after every pass and reported as the median of its samples.  With
`--trace 1` it runs one plain pass and one traced pass and reports the
per-layer metrics of the traced pass (see tracer.py).  Every job's
output is checked; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

END_TO_END = {"wall_s": "s", "cpu_s": "s", "job_max_s": "s",
              "peak_rss_mb": "MB", "setup_s": "s"}
SETUP_BATCH = 6
# A job that runs this long is killed and counted as failed, so that a
# run ends within its time limit even when a command hangs.
JOB_TIMEOUT_S = 150
TRACER = Path(__file__).with_name("tracer.py")


def run_process(argv, env) -> tuple:
    """Run argv to completion.

    Returns (exit code, stdout, stderr, wall s, cpu s, max RSS MB); the
    wall time runs from spawn to exit, and CPU time and RSS come from
    the child's own rusage.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    try:
        chunks = {proc.stdout: [], proc.stderr: []}
        with selectors.DefaultSelector() as sel:
            for f in chunks:
                sel.register(f, selectors.EVENT_READ)
            while sel.get_map():
                left = start + JOB_TIMEOUT_S - time.perf_counter()
                if left <= 0:
                    proc.kill()
                    left = None
                for key, _ in sel.select(left):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
                        key.fileobj.close()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, b"".join(chunks[proc.stdout]),
            b"".join(chunks[proc.stderr]), wall,
            usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def _read_trace(stderr: bytes):
    lines = stderr.decode(errors="replace").splitlines()
    if lines and lines[-1].startswith(tracer.TRACE_PREFIX):
        return json.loads(lines[-1][len(tracer.TRACE_PREFIX):])
    return None


class Session:
    """Runs checked passes for one benchmark run and counts failures."""

    def __init__(self, root: Path):
        # a fixed hash seed keeps str hashing, and so dict and set order
        # in the cluster layer, the same from run to run
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"),
                        PYTHONHASHSEED="0")
        self.expected = workloads.load_digests()
        self.attempted = 0
        self.failed = 0

    def run_pass(self, jobs, traced=False) -> tuple:
        """Run jobs in order; returns (end-to-end figures, traces, stdout bytes)."""
        entry = [str(TRACER)] if traced else ["-m", "qloop.cli"]
        results, walls, cpus, rss, traces = [], [], [], [], []
        for job in jobs:
            rc, out, err, wall, cpu, mb = run_process(
                [sys.executable, *entry, *job.argv], self.env)
            results.append((rc, out))
            walls.append(wall)
            cpus.append(cpu)
            rss.append(mb)
            if traced:
                traces.append(_read_trace(err))
        errors = workloads.check_pass(jobs, results, self.expected)
        for errs, tr in zip(errors, traces):
            if tr is None:
                errs.append("no trace written")
        for job, errs in zip(jobs, errors):
            if errs:
                print(f"FAILED {job.key} {' '.join(job.argv)}: "
                      f"{'; '.join(errs)}", file=sys.stderr)
        self.attempted += len(jobs)
        self.failed += sum(1 for errs in errors if errs)
        figures = {"wall_s": sum(walls), "cpu_s": sum(cpus),
                   "job_max_s": max(walls), "peak_rss_mb": max(rss)}
        return figures, traces, sum(len(out) for _, out in results)


def timed_run(session: Session, jobs, seconds: float) -> dict:
    # the first set-up process compiles the bytecode and is not timed
    session.run_pass([workloads.SETUP_JOB])
    setups = []

    def time_setup():
        setups.extend(session.run_pass([workloads.SETUP_JOB])[0]["wall_s"]
                      for _ in range(SETUP_BATCH))

    # set-up is sampled before and after every pass, so that its median
    # spans the whole run and not one moment of a machine whose speed drifts
    time_setup()
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        figures = session.run_pass(jobs)[0]
        print(f"pass {len(passes) + 1}: " + " ".join(
            f"{k}={v:.4f}" for k, v in figures.items()), file=sys.stderr)
        passes.append(figures)
        time_setup()
    metrics = {name: statistics.median(p[name] for p in passes)
               for name in passes[0]}
    metrics["setup_s"] = statistics.median(setups)
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in END_TO_END.items()}


def traced_run(session: Session, jobs) -> dict:
    session.run_pass([workloads.SETUP_JOB])
    plain = session.run_pass(jobs)[0]
    figures, traces, stdout_bytes = session.run_pass(jobs, traced=True)
    metrics = tracer.layer_metrics(
        tracer.summarize([tr for tr in traces if tr]))
    metrics["cli.stdout_bytes"] = stdout_bytes
    metrics["trace.overhead_s"] = figures["wall_s"] - plain["wall_s"]
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in tracer.PER_LAYER.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "qloop" / "cli.py").is_file():
        print(f"error: {root} holds no qloop source tree (src/qloop); run "
              "from the root of a checkout", file=sys.stderr)
        return 2
    session = Session(root)
    jobs = workloads.make_jobs(args.workload, args.seed)
    metrics = (traced_run(session, jobs) if args.trace
               else timed_run(session, jobs, args.seconds))
    print(json.dumps({"correct": session.failed == 0,
                      "attempted": session.attempted,
                      "failed": session.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
