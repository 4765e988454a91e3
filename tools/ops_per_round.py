"""Bytecode ops per warm round of a benchmark workload.

    python3 tools/ops_per_round.py --workload tensor --seed 1 [--max-ops N]

Run from the root of a source checkout: the program is imported from
./src and the job list from perfbench/workloads.py.  The script builds the
workload's jobs (workloads.build) in a temporary directory, runs one round
to warm every cache the jobs share, then counts the opcode events that
sys.settrace reports (frame.f_trace_opcodes) over one more round.  It
prints one JSON object: the Python version, the total and the count per
job in round order.  With --max-ops it exits 1 when the total is above N.

The count is the same on every run and under any PYTHONHASHSEED, where
wall time on a shared machine is not.  Bytecode differs between Python
versions, so compare counts taken under one version.  A call into C counts
as one op, so ops do not see the work inside str.find, sorted, dict
operations or big-int arithmetic: they add to wall time and do not replace
it.  Uses the standard library only.
"""

import argparse
import json
import os
import platform
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def count_round(jobs):
    """Opcode events of each job's run, in order."""
    ops = 0

    def local(frame, event, arg):
        nonlocal ops
        if event == "opcode":
            ops += 1
        return local

    def enter(frame, event, arg):   # called on each new frame
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return local

    counts = []
    for job in jobs:
        ops = 0
        sys.settrace(enter)
        try:
            job.run()
        finally:
            sys.settrace(None)
        counts.append((job.name, ops))
    return counts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--max-ops", type=int, default=None,
                        help="exit 1 when the total is above this")
    args = parser.parse_args(argv)
    sys.path[:0] = [os.path.join(ROOT, "src"),
                    os.path.join(ROOT, "perfbench")]
    import workloads

    with tempfile.TemporaryDirectory() as workdir:
        jobs = workloads.build(args.workload, args.seed, workdir)
        for job in jobs:    # the warm round
            job.run()
        counts = count_round(jobs)
    total = sum(n for _, n in counts)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "python": platform.python_version(), "ops": total,
        "per_job": dict(counts)}, indent=1))
    if args.max_ops is not None and total > args.max_ops:
        print(f"ops_per_round: {total} ops, above {args.max_ops}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
