#!/usr/bin/env python3
"""qdecomp benchmark: one seeded workload per invocation.

    python3 perfbench/run.py --workload pipeline-10k --seed 2002 --trace 0
    python3 perfbench/run.py --workload all     # every workload, then traced

Run from the root of a qdecomp checkout. The workload runs in its own child
process (perfbench/child.py) with BLAS pinned to one thread, against the
package sources under src/. The child sets up, repeats the workload's CLI
chain for --seconds, and checks the outputs; this process prints the run
facts and every metric by name and unit, then, as the last line, one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1 the
per-layer metrics of a traced run. Exits 1 when a CLI call fails, a
decompose question is skipped, or an output check fails, and 2 when the
directory holds no qdecomp sources.

End-to-end timings are adjusted to a reference machine speed measured by a
fixed probe (see child.py); the raw figures are printed beside them as
raw.<name>. perfbench/design.json records why each workload and metric
exists and which layer metric should move which end-to-end metric.

Scratch files go to .bench_work/ in the checkout; each run's report and,
for traced runs, its spans stay in .bench_work/results/.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pipeline-10k", "decompose-50k", "select-10k")
# Default seed for hand runs; the acceptance suite's pipeline uses 61-64.
DEFAULT_SEED = 2002
CHILD_TIMEOUT_S = 170
BLAS_PIN = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


def source_facts():
    """Digest and line count of the package sources, and the git commit."""
    digest = hashlib.sha256()
    lines = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    sha = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        sha = out.stdout.strip() or None
    return {"git_sha": sha, "src_sha256": digest.hexdigest(),
            "src_lines": lines}


def show(name, value, unit):
    shown = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"  {name:<40} {shown:>14} {unit}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time (default: run_seconds of "
                         "BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: tiny inputs, for the self-test")
    ap.add_argument("--fault", choices=("none", "repeat", "oracle"),
                    default="none",
                    help="break one output on purpose (self-test only)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.workload == "all":
        rest = ["--seed", str(args.seed), "--size", args.size]
        if args.seconds is not None:
            rest += ["--seconds", str(args.seconds)]
        codes = [main(["--workload", w, "--trace", str(t)] + rest)
                 for t in (0, 1) for w in WORKLOADS]
        return max(codes)

    if not (ROOT / "src" / "qdecomp" / "cli.py").is_file():
        print(f"perfbench: no qdecomp sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = ROOT / ".bench_work"
    results = work / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = work / f"run-{tag}-{os.getpid()}"
    workdir.mkdir()
    result_path = workdir / "result.json"
    log_path = results / f"{tag}.log"
    cmd = [sys.executable, str(HERE / "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace),
           "--size", args.size, "--fault", args.fault,
           "--workdir", str(workdir), "--result", str(result_path),
           "--spans-out", str(results / f"{tag}.spans.json")]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **BLAS_PIN)
    try:
        with open(log_path, "w", encoding="utf-8") as log:
            proc = subprocess.run(cmd, env=env, stdout=log, stderr=log,
                                  stdin=subprocess.DEVNULL,
                                  timeout=CHILD_TIMEOUT_S, check=False)
        rc = proc.returncode
    except subprocess.TimeoutExpired:
        rc = "timeout"
    result = None
    if rc == 0 and result_path.is_file():
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    shutil.rmtree(workdir, ignore_errors=True)
    if result is None:
        print(f"perfbench: {args.workload} child failed ({rc}); log in "
              f"{log_path}", file=sys.stderr)
        with open(log_path, encoding="utf-8", errors="replace") as fh:
            sys.stderr.writelines(fh.readlines()[-20:])
        return 1

    facts = dict(result["facts"], **source_facts())
    result["facts"] = facts
    with open(results / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    print(f"qdecomp benchmark: {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}")
    print("facts: " + json.dumps(facts, sort_keys=True))
    print("end-to-end:" if not args.trace else "per-layer (traced run):")
    measured = result["per_layer"] if args.trace else result["end_to_end"]
    for name, (value, unit) in measured.items():
        show(name, value, unit)
    for note in result["notes"]:
        print(f"  {note}")
    for name, ok in result["checks"]:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}")
    for failure in result["failures"]:
        print(f"failure: {failure}")

    metrics = {}
    for m in wanted:
        value, unit = measured.get(m["name"], (None, None))
        if unit != m["unit"]:
            print(f"failure: {m['name']} measured in {unit}, BENCHMARK.json "
                  f"says {m['unit']}")
            continue
        metrics[m["name"]] = {"value": value, "unit": unit}
    failed = result["failed"] + len(wanted) - len(metrics)
    print(json.dumps({"correct": failed == 0, "attempted": result["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
