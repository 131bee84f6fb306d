"""totalpos benchmark: wall time of certificate jobs, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

A run times fresh interpreters that import totalpos and build the
workload's inputs (set-up, probed before and after the jobs), and runs jobs
back to back in this process for up to S seconds: after the first job, a
new job starts only if a job of the median length so far would end within
the S seconds. Each job's certificates are checked against exact invariants
after the clock stops. With ``--trace 0`` the last line of stdout carries
the end-to-end metrics. With ``--trace 1`` the first half of the window
runs untraced jobs and the second half traced ones; the last line carries
the per-layer metrics, and the traced certificates must equal the untraced
ones byte for byte once ``"elapsed_ms"`` is zeroed. ``--workload all`` runs
every workload with ``--trace 0`` in a child process each and prints one
row per workload.

The exit status is 0 when every job passed, 1 when one failed, and 2 when
the checkout has no totalpos sources under ``src/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 4  # before the jobs, and as many again after them
WORKLOAD_NAMES = ("verify-m16", "verify-m20-sampled", "extend-m6", "positivity")
END_TO_END = (("job_s", "s"), ("job_s_tail", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MiB"), ("setup_s", "s"))


@dataclass
class Job:
    traced: bool
    wall_s: float
    cpu_s: float
    error: str | None
    digest: str | None = None  # of the certificates with timings zeroed
    outputs: dict | None = None  # kept for the first job only
    problems: list[str] = field(default_factory=list)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError) as exc:
        return f"unknown ({type(exc).__name__})"
    return done.stdout.strip()


def metadata(args) -> dict:
    return {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "TOTALPOS_THREADS": os.environ.get("TOTALPOS_THREADS"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def time_setup(workload: str, seed: int) -> list[float]:
    """Set-up seconds measured by SETUP_PROBES fresh interpreters."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), str(SRC), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def run_jobs(workloads, workload, inputs, until: float, traced: bool, cpu_seconds) -> list[Job]:
    """At least one job, then more while one more job of the median length
    so far would still end by ``until``.

    Each job's certificates are reduced to a digest after its clock stops,
    so memory does not grow with the number of jobs."""
    jobs = []
    while not jobs or perf_counter() + statistics.median(j.wall_s for j in jobs) <= until:
        cpu0 = cpu_seconds()
        t0 = perf_counter()
        try:
            outputs, error = workload.run(inputs), None
        except Exception as exc:  # a job that raises is a failed job, not a crash
            outputs, error = None, f"{type(exc).__name__}: {exc}"
        job = Job(traced, perf_counter() - t0, cpu_seconds() - cpu0, error)
        if outputs is not None:
            text = workloads.strip_elapsed(workloads.render(outputs))
            job.digest = hashlib.sha256(text.encode()).hexdigest()
            if not any(j.digest for j in jobs):
                job.outputs = outputs
        jobs.append(job)
    return jobs


def judge(workload, inputs, jobs: list[Job]) -> None:
    """Fill in each job's problems.  The first certificate is checked against
    every invariant; every other one must equal it once timings are zeroed,
    which for traced jobs is the tracer self-check."""
    first = next((j for j in jobs if j.error is None), None)
    reference_problems = workload.check(first.outputs, inputs) if first else []
    for job in jobs:
        if job.error is not None:
            job.problems = [job.error]
        elif job.digest != first.digest:
            job.problems = ["certificate differs from the run's first certificate"
                            + (" (tracer self-check)" if job.traced else "")]
        else:
            job.problems = reference_problems
        job.outputs = None


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    import totalpos

    if not Path(totalpos.__file__).resolve().is_relative_to(SRC):
        print(f"run.py: imported totalpos from {totalpos.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    meta = metadata(args)
    setup = time_setup(args.workload, args.seed)
    inputs = workload.make_inputs(args.seed)

    start = perf_counter()
    window = args.seconds / 2 if args.trace else args.seconds
    jobs = run_jobs(workloads, workload, inputs, start + window, False, tracing.cpu_seconds)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            jobs += run_jobs(workloads, workload, inputs, start + args.seconds, True,
                             tracing.cpu_seconds)
        finally:
            tracer.uninstall()
    rss = peak_rss_mb()
    # A second batch of probes after the jobs samples the machine at another
    # moment, so one slow stretch does not set the median.
    setup += time_setup(args.workload, args.seed)

    judge(workload, inputs, jobs)

    plain = [j for j in jobs if not j.traced]
    traced = [j for j in jobs if j.traced]
    failed = sum(1 for j in jobs if j.problems)
    walls = [j.wall_s for j in plain]
    tail_s, tail_pct, tail_beyond = tracing.tail(walls)
    details = {
        "meta": meta,
        "samples": {
            "job_s": len(walls),
            "job_s_tail": {"percentile": tail_pct, "samples": len(walls), "beyond": tail_beyond},
            "cpu_s": len(walls),
            "setup_s": len(setup),
            "traced_jobs": len(traced),
        },
        "failed_share": failed / len(jobs),
        "job_wall_s": [j.wall_s for j in jobs],
        "problems": sorted({p for j in jobs for p in j.problems}),
    }
    if args.trace:
        metrics, notes = tracing.layer_metrics(tracer, len(traced), meta["nproc"])
        overhead = statistics.median(j.wall_s for j in traced) - statistics.median(walls)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        details["tracer_self_check"] = {j.digest for j in traced} <= {j.digest for j in plain}
        details["trace_notes"] = notes
    else:
        values = {
            "job_s": statistics.median(walls),
            "job_s_tail": tail_s,
            "cpu_s": statistics.median(j.cpu_s for j in plain),
            "peak_rss_mb": rss,
            "setup_s": statistics.median(setup),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    print_table(args.workload, metrics, details)
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def print_table(workload: str, metrics: dict, details: dict) -> None:
    width = max(len(name) for name in metrics) + 8
    self_check = details.get("tracer_self_check")
    print(f"workload {workload}: {details['samples']['job_s']} untraced jobs, "
          f"{details['samples']['traced_jobs']} traced, failed_share {details['failed_share']}"
          + ("" if self_check is None else f", tracer self-check {'pass' if self_check else 'FAIL'}"))
    for name, m in metrics.items():
        label = f"{name} ({m['unit']})"
        extra = ""
        if name == "job_s_tail":
            t = details["samples"]["job_s_tail"]
            extra = f"  p{t['percentile']:.1f} of {t['samples']} jobs, {t['beyond']} beyond"
        print(f"  {label:<{width}} {m['value']:.6g}{extra}")


def run_all(args) -> int:
    """Every workload in its own interpreter; one row per workload."""
    header = ["workload"] + [f"{n} ({u})" for n, u in END_TO_END] + ["job_s_tail pct/n", "failed_share"]
    rows = []
    status = 0
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=False,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode == 2 or len(lines) < 2:
            sys.stderr.write(done.stderr)
            return 2
        result = json.loads(lines[-1])
        details = json.loads(lines[-2])["details"]
        status = max(status, done.returncode)
        t = details["samples"]["job_s_tail"]
        rows.append([name] + [f"{result['metrics'][n]['value']:.4g}" for n, _ in END_TO_END]
                    + [f"p{t['percentile']:.0f}/{t['samples']}", f"{details['failed_share']:g}"])
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "totalpos" / "__init__.py").is_file():
        print(f"run.py: no totalpos sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
