"""Run one monoidkit benchmark workload and print its result as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
./src.  Jobs run one at a time in this process (a closed loop with a
single client), in whole rounds of the workload's job list, until
--seconds have passed.  Outputs are checked after the timed phase.  The
last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics under --trace 0 and the per-layer metrics
under --trace 1.  See perfbench/README.md.
"""

import time

START = time.perf_counter()     # set-up time counts from here

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys

import checks      # noqa: E402
import tracing     # noqa: E402
import workloads   # noqa: E402

SETUP_SAMPLES = 11  # set-ups per run: this process and ten fresh ones
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench-out")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up seconds and exit")
    return parser.parse_args(argv)


def load_program():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "monoidkit", "cli.py")):
        sys.exit(f"perfbench: no monoidkit source under {src}")
    sys.path.insert(0, src)


def fresh_setup_seconds(args):
    """Set-up time of a fresh interpreter, as it measures it itself."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload",
         args.workload, "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        sys.exit(f"perfbench: set-up failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


class Crash(str):
    """The output of a job that raised."""


def run_round(jobs, durations):
    outputs = []
    clock = time.perf_counter
    for job in jobs:
        start = clock()
        try:
            output = job.run()
        except Exception as e:   # a crash is a failed job, not a dead run
            output = Crash(repr(e))
        durations.append(clock() - start)
        outputs.append(output)
    return outputs


def run_rounds(jobs, seconds):
    """Whole rounds until `seconds` have passed.  Returns rounds, elapsed
    seconds, job durations, the first round's outputs, and whether every
    round repeated them."""
    durations = []
    rounds = 0
    reference = None
    same = True
    start = time.perf_counter()
    while True:
        outputs = run_round(jobs, durations)
        rounds += 1
        if reference is None:
            reference = outputs
        elif outputs != reference:
            same = False
        if time.perf_counter() - start >= seconds:
            break
    return rounds, time.perf_counter() - start, durations, reference, same


def check_outputs(jobs, outputs):
    """Failed jobs in one round, and whether every failure has a known
    cause in the program (checks.KnownFault)."""
    by_name = {job.name: out for job, out in zip(jobs, outputs)}
    failed = 0
    correct = True
    for job, out in zip(jobs, outputs):
        try:
            checks.require(not isinstance(out, Crash), f"raised {out}")
            job.check(out, by_name)
        except checks.KnownFault as e:
            failed += 1
            print(f"perfbench: {job.name}: known fault: {e}", file=sys.stderr)
        except (checks.CheckFailed, KeyError, TypeError, ValueError) as e:
            failed += 1
            correct = False
            print(f"perfbench: {job.name}: WRONG: {e!r}", file=sys.stderr)
    return failed, correct


def end_to_end(setup_s, rounds, elapsed, durations, jobs, peak_rss_mb):
    deciles = statistics.quantiles(durations, n=10)
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "jobs_per_s": {"value": rounds * len(jobs) / elapsed, "unit": "1/s"},
        "verdict_s.p50": {"value": statistics.median(durations), "unit": "s"},
        "verdict_s.p90": {"value": deciles[8], "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def main(argv=None):
    args = parse_args(argv)
    load_program()
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        jobs = workloads.build(args.workload, args.seed, workdir)
        setup_s = time.perf_counter() - START
        import monoidkit
        if not os.path.abspath(monoidkit.__file__).startswith(
                os.path.join(ROOT, "src", "")):
            sys.exit("perfbench: monoidkit was not imported from ./src")
        if args.setup_only:
            print(setup_s)
            return 0
        if args.trace:
            result = traced_run(args, jobs)
        else:
            samples = [setup_s] + [fresh_setup_seconds(args)
                                   for _ in range(SETUP_SAMPLES - 1)]
            rounds, elapsed, durations, outputs, same = run_rounds(
                jobs, args.seconds)
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
            failed, correct = check_outputs(jobs, outputs)
            result = {
                "correct": correct and same,
                "attempted": rounds * len(jobs),
                "failed": rounds * failed,
                "metrics": end_to_end(statistics.median(samples), rounds,
                                      elapsed, durations, jobs, peak_rss_mb),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def traced_run(args, jobs):
    """A warm-up round, then untraced and traced rounds in alternation
    until --seconds have passed.  Per-layer metrics are per traced round;
    trace.overhead_s is the median over pairs of the traced minus the
    untraced round time."""
    tracer = tracing.Tracer()
    tracer.install()
    times = {False: [], True: []}
    reference = run_round(jobs, [])
    same = True
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or not times[True]:
        for on in (False, True):
            tracer.enable(on)
            t = time.perf_counter()
            outputs = run_round(jobs, [])
            times[on].append(time.perf_counter() - t)
            same = same and outputs == reference
    tracer.enable(False)
    rounds = len(times[True])
    failed, correct = check_outputs(jobs, reference)
    artifact_bytes = sum(job.size(out) for job, out in zip(jobs, reference)
                         if job.size and not isinstance(out, Crash))
    overhead_s = statistics.median(
        t - u for u, t in zip(times[False], times[True]))
    path = os.path.join(OUT_DIR,
                        f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "rounds": rounds, "spans": tracer.spans(),
                   "counts": dict(tracer.counts)}, f, indent=1,
                  sort_keys=True)
    return {"correct": correct and same,
            "attempted": (2 * rounds + 1) * len(jobs),
            "failed": (2 * rounds + 1) * failed,
            "metrics": tracer.metrics(rounds, artifact_bytes, overhead_s)}


if __name__ == "__main__":
    sys.exit(main())
