#!/usr/bin/env python3
"""Record the benchmark of one qdecomp checkout as a BENCH_<n>.json file.

Runs perfbench/run.py untraced (--trace 0) and traced (--trace 1) for every
workload and seed, one run at a time, and writes the machine facts, the
checkout's git SHA, src/ line count and tier-1 test count, and the median
and interquartile range of every end-to-end metric (probe-adjusted and raw
side by side) and every per-layer metric, with each run's value.

Example, from the root of a checkout:
    python3 scripts/bench.py --out BENCH_2.json
    python3 scripts/bench.py --checkout ../parent --out BENCH_1.json

The runs leave their logs and reports in <checkout>/.bench_work/results/.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("pipeline-10k", "decompose-50k", "select-10k")
# Fixed so successive BENCH files measure the same runs.
SEEDS = (5100, 5101, 5102)


def run_once(checkout, workload, seed, trace):
    """The report perfbench/run.py leaves for one run, or None when the run
    failed (its output is echoed to stderr)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        return None
    tag = f"{workload}-seed{seed}-trace{trace}"
    with open(checkout / ".bench_work" / "results" / f"{tag}.json",
              encoding="utf-8") as fh:
        report = json.load(fh)
    report["summary"] = json.loads(proc.stdout.strip().splitlines()[-1])
    return report


def tier1_tests(checkout):
    """The number of tests the checkout's tier-1 suite collects."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q",
         "--continue-on-collection-errors", "-p", "no:cacheprovider"],
        cwd=checkout, env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True, text=True, check=False)
    found = re.search(r"(\d+) tests? collected", proc.stdout)
    return int(found.group(1)) if found else None


def spread(values):
    """Median, quartiles and every value of one metric over the runs."""
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr": q3 - q1, "values": values}


def summarize(reports, key):
    """{metric: spread and unit} over the reports' `key` metric dicts."""
    out = {}
    for name in sorted({n for r in reports for n in r[key]}):
        runs = [r[key][name] for r in reports if name in r[key]]
        out[name] = dict(spread([value for value, _ in runs]),
                         unit=runs[0][1])
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    ap.add_argument("--checkout", type=Path, default=ROOT,
                    help="qdecomp checkout to measure (default: this one)")
    args = ap.parse_args(argv)
    checkout = args.checkout.resolve()

    workloads = {}
    facts = None
    failed = 0
    for workload in WORKLOADS:
        reports = {0: [], 1: []}
        for seed in SEEDS:
            for trace in (0, 1):
                report = run_once(checkout, workload, seed, trace)
                if report is None or not report["summary"]["correct"]:
                    failed += 1
                    print(f"{workload} seed {seed} trace {trace}: failed",
                          file=sys.stderr)
                if report is not None:
                    reports[trace].append(report)
                    facts = facts or report["facts"]
                    print(f"{workload} seed {seed} trace {trace}: done",
                          file=sys.stderr)
        e2e = summarize(reports[0], "end_to_end")
        workloads[workload] = {
            "runs": len(reports[0]) + len(reports[1]),
            "end_to_end": {k: v for k, v in e2e.items()
                           if not k.startswith("raw.")},
            "end_to_end_raw": {k[4:]: v for k, v in e2e.items()
                               if k.startswith("raw.")},
            "per_layer": summarize(reports[1], "per_layer"),
        }
    if facts is None:
        print("bench: no run succeeded", file=sys.stderr)
        return 1
    diff = subprocess.run(["git", "diff", "--quiet", "HEAD", "--", "src"],
                          cwd=checkout, check=False)
    bench = {
        "git_sha": facts["git_sha"],
        # src/ differs from the commit git_sha names (an uncommitted change)
        "src_uncommitted": diff.returncode != 0,
        "src_sha256": facts["src_sha256"],
        "src_lines": facts["src_lines"],
        "tier1_tests": tier1_tests(checkout),
        "nproc": facts["nproc"],
        "python": facts["python"],
        "numpy": facts["numpy"],
        "blas": facts["blas"],
        "seeds": list(SEEDS),
        "seconds": facts["seconds"],
        "failed_runs": failed,
        "workloads": workloads,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
