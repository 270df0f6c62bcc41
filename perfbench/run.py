#!/usr/bin/env python3
"""edgewise benchmark: one workload per process, one client, one job at a time.

    python3 perfbench/run.py --workload certify --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

A run sets up the workload (imports, instances, spaces), then runs its fixed
batch of jobs in passes, each pass on fresh instances, for about ``--seconds``
seconds.  Every report is digested and checked outside the timed region.  The
last line of standard output is one JSON object: correct, attempted, failed
and the metrics, end to end with ``--trace 0``, per layer with ``--trace 1``.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
WORKLOADS = ("certify", "survival", "basis", "reweight")

# BLAS/OpenMP threads, fixed before numpy loads; at most nproc
THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
SETUP_PROBES = 4  # extra set-ups in fresh processes; setup_s is the median of 1 + 4
END_TO_END = (
    ("wall_s", "s"),
    ("job_p50_s", "s"),
    ("job_p90_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

perf = time.perf_counter


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up, print the set-up time and exit")
    p.add_argument("--write-reference", action="store_true",
                   help="rewrite reference.json from this tree (reference seed)")
    return p.parse_args(argv)


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


# -- environment -------------------------------------------------------------------


def commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
    }


# -- correctness ledger --------------------------------------------------------------


class Ledger:
    """Outcome of every job: raised, wrong report, or right report."""

    def __init__(self, reference: dict, seed: int, reference_seed: int):
        self.reference = reference
        self.use_seeded = seed == reference_seed
        self.first: dict[str, str] = {}  # job -> digest of its first report
        self.attempted = 0
        self.failed = 0
        self.raised: dict[str, str] = {}
        self.wrong: dict[str, str] = {}
        self.check_s = 0.0  # time spent in semantic checks

    def record(self, job, result, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.raised[job.name] = error
            return
        digest = hashlib.sha256(job.report(result).encode()).hexdigest()
        problem = None
        if job.name not in self.first:
            self.first[job.name] = digest
            t0 = perf()
            problem = job.check(result)  # semantic checks, once per run
            self.check_s += perf() - t0
        elif digest != self.first[job.name]:
            problem = "report differs between passes"
        ref = self.reference.get(job.name)
        if ref is not None and (self.use_seeded or not job.seeded) and digest != ref:
            problem = problem or "report bytes differ from the reference"
        if problem is not None:
            self.failed += 1
            self.wrong[job.name] = problem


# -- the closed loop -------------------------------------------------------------------


def run_pass(jobs, ledger: Ledger, tracer=None) -> list[float]:
    """One job at a time; returns each job's start-to-report seconds.

    Consumes ``jobs``: a job's instances are released once it has run, as
    they would be in a process that runs one job.
    """
    times = []
    jobs.reverse()
    while jobs:
        job = jobs.pop()
        gc.collect()
        if tracer is not None:
            tracer.begin_job(job.name, job.group)
        t0 = perf()
        try:
            result, error = job.call(), None
        except Exception as exc:  # a failing job is counted; the batch goes on
            result, error = None, f"{type(exc).__name__}: {exc}"
        times.append(perf() - t0)
        if tracer is not None:
            tracer.end_job()
        ledger.record(job, result, error)
        del job, result
    return times


def measure(args, workloads, first_jobs, ledger, budget: float, tracer=None):
    """Run passes until the next one would overrun ``budget`` seconds (at least one).

    The semantic checks of the first pass do not count against the budget.
    """
    start, checks = perf(), ledger.check_s
    walls, job_times, longest = [], [], 0.0
    jobs = first_jobs
    while True:
        t0, c0 = perf(), ledger.check_s
        if jobs is None:
            jobs = workloads.build(args.workload, args.seed)  # fresh instances, untimed
        if tracer is not None:
            tracer.pass_no += 1
        times = run_pass(jobs, ledger, tracer)
        jobs = None
        walls.append(sum(times))
        job_times.extend(times)
        longest = max(longest, perf() - t0 - (ledger.check_s - c0))
        if perf() - start - (ledger.check_s - checks) + longest > budget:
            break
    return walls, job_times


def setup_probes(args) -> list[float]:
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(args) -> int:
    t0 = perf()
    import numpy  # noqa: F401  (part of set-up)

    import edgewise

    if Path(edgewise.__file__).resolve().parent != (SRC / "edgewise").resolve():
        return fail(f"imported edgewise from {edgewise.__file__}, not from {SRC}")
    import workloads

    jobs = workloads.build(args.workload, args.seed)
    setup = perf() - t0
    if args.setup_probe:
        print(repr(setup))
        return 0

    workloads.check_seed_plumbing(args.seed)
    reference = load_reference()
    ledger = Ledger(reference["digests"], args.seed, reference["seed"])
    env = environment()
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env: " + json.dumps(env, sort_keys=True))

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}"
    if args.trace:
        import tracing

        walls, times = measure(args, workloads, jobs, ledger, args.seconds / 2)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        traced, _ = measure(args, workloads, None, ledger, args.seconds / 2, tracer)
        metrics = tracing.layer_metrics(tracer, len(traced), walls, traced)
        tracing.write_spans(tracer, f"{stem}-spans.jsonl")
        print(f"passes: {len(walls)} untraced, {len(traced)} traced; "
              f"{metrics['trace.spans']['value']:.0f} spans per traced pass")
        print(f"tracing overhead: {metrics['trace.overhead_s']['value']:+.4f} s per pass "
              f"(traced wall_s {statistics.median(traced):.4f} - untraced wall_s "
              f"{statistics.median(walls):.4f})")
    else:
        walls, times = measure(args, workloads, jobs, ledger, args.seconds)
        setups = [setup] + setup_probes(args)
        metrics = {
            "wall_s": statistics.median(walls),
            "job_p50_s": statistics.median(times),
            "job_p90_s": percentile(times, 90),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
        beyond = sum(1 for t in times if t > metrics["job_p90_s"]["value"])
        notes = {
            "wall_s": f"median of {len(walls)} passes of {len(times) // len(walls)} jobs",
            "job_p50_s": f"{len(times)} job samples",
            "job_p90_s": f"{len(times)} job samples, {beyond} beyond",
            "setup_s": f"median of {len(setups)} set-ups",
            "peak_rss_mb": "ru_maxrss of this process",
        }
        for name, unit in END_TO_END:
            print(f"{name:<12} {metrics[name]['value']:12.4f} {unit:<3} {notes[name]}")

    error_rate = ledger.failed / ledger.attempted
    print(f"{'error_rate':<12} {error_rate:12.4f} {'':<3} "
          f"{ledger.failed} failed / {ledger.attempted} attempted")
    for name, err in sorted(ledger.raised.items()):
        print(f"raised: {name}: {err}")
    for name, err in sorted(ledger.wrong.items()):
        print(f"WRONG: {name}: {err}")
    result = {
        "correct": not ledger.wrong,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({**result, "env": env, "error_rate": error_rate, "walls": walls,
                   "job_times": times, "raised": ledger.raised, "wrong": ledger.wrong},
                  fh, indent=1, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0


def write_reference(args) -> int:
    import workloads

    digests = {}
    for name in WORKLOADS:
        ledger = Ledger({}, workloads.REFERENCE_SEED, workloads.REFERENCE_SEED)
        run_pass(workloads.build(name, workloads.REFERENCE_SEED), ledger)
        if ledger.wrong:
            return fail(f"{name}: reports fail their checks, no reference written: {ledger.wrong}")
        digests.update(ledger.first)
        print(f"{name}: {len(ledger.first)} digests, {len(ledger.raised)} jobs raised")
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"seed": workloads.REFERENCE_SEED, "digests": digests}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    return 0


def run_all(args) -> int:
    """Each workload in its own process; prints every metric of every workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return fail(f"workload {name} exited with {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]) + "\n")
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, val in res["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = val
    print(json.dumps(combined, sort_keys=True))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = THREADS
    if not (SRC / "edgewise" / "__init__.py").is_file():
        return fail(f"edgewise sources not found under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.write_reference:
        return write_reference(args)
    if not REFERENCE.is_file():
        return fail(f"reference digests not found at {REFERENCE}")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
