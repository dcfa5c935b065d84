#!/usr/bin/env python3
"""Smoke-size self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the root of a qdecomp checkout; takes about a minute. Checks that
BENCHMARK.json keeps to its format and agrees with design.json; that every
workload, traced and untraced, prints every metric of BENCHMARK.json with
its unit on tiny inputs; that deliberately broken outputs (a pass that is
not byte-identical, a decomposition that disagrees with the brute force)
make the run exit nonzero; and that a directory without the package sources
exits nonzero without printing a result.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")


def run(args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--seed", "7", "--seconds",
           "1", "--size", "smoke"] + args
    out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                         timeout=300, check=False)
    lines = out.stdout.strip().splitlines()
    return out.returncode, (lines[-1] if lines else ""), out


def check_spec(problems):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    design = json.loads((HERE / "design.json").read_text())
    if set(spec) != {"command", "paths", "run_seconds", "workloads",
                     "end_to_end", "per_layer"}:
        problems.append(f"BENCHMARK.json keys: {sorted(spec)}")
    names = [w["name"] for w in spec["workloads"]]
    if names != list(design["workloads"]):
        problems.append(f"workloads {names} differ from design.json")
    seen = set()
    for group, keys in (("workloads", {"name", "why"}),
                        ("end_to_end", {"name", "unit", "better", "bound"}),
                        ("per_layer", {"name", "unit", "better"})):
        for entry in spec[group]:
            if set(entry) != keys:
                problems.append(f"{group} entry keys: {sorted(entry)}")
            if not NAME.match(entry["name"]) or entry["name"] in seen:
                problems.append(f"bad or repeated name {entry['name']!r}")
            seen.add(entry["name"])
            if "unit" in entry and not UNIT.match(entry["unit"]):
                problems.append(f"bad unit {entry['unit']!r}")
            if "bound" in entry and not 0 < entry["bound"] <= 0.25:
                problems.append(f"bound of {entry['name']} out of range")
            if "why" in entry and len(entry["why"]) > 200:
                problems.append(f"why of {entry['name']} too long")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower" \
            or setup[0]["bound"] != max(m["bound"] for m in spec["end_to_end"]):
        problems.append("setup_s must be in s, lower is better, largest bound")
    return spec


def check_metrics(spec, problems):
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            rc, last, out = run(["--workload", workload, "--trace", str(trace)])
            try:
                result = json.loads(last)
            except json.JSONDecodeError:
                problems.append(f"{workload} trace {trace}: exit {rc}, no "
                                f"result line\n{out.stderr[-2000:]}")
                continue
            if rc != 0 or result.get("correct") is not True:
                problems.append(f"{workload} trace {trace}: exit {rc}, "
                                f"{last}\n{out.stdout[-2000:]}")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{workload}: result keys {sorted(result)}")
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{workload} trace {trace}: metrics {got} "
                                f"!= {want}")
            for name, value in result["metrics"].items():
                if not isinstance(value.get("value"), (int, float)):
                    problems.append(f"{workload}: {name} is not a number")
            print(f"ok   {workload} trace {trace}: {len(got)} metrics")


def check_faults(problems):
    for workload, fault in (("decompose-50k", "repeat"),
                            ("pipeline-10k", "oracle")):
        rc, last, _ = run(["--workload", workload, "--trace", "0",
                           "--fault", fault])
        if rc == 0 or '"correct": false' not in last:
            problems.append(f"--fault {fault} on {workload} was not caught: "
                            f"exit {rc}, {last}")
        else:
            print(f"ok   --fault {fault} on {workload} exits {rc}")


def check_bare_directory(problems):
    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench")
    rc, last, _ = run(["--workload", "pipeline-10k", "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    if rc == 0 or last.startswith("{"):
        problems.append(f"bare directory: exit {rc}, last line {last!r}")
    else:
        print(f"ok   directory without src/ exits {rc} with no result")


def main():
    problems = []
    spec = check_spec(problems)
    check_metrics(spec, problems)
    check_faults(problems)
    check_bare_directory(problems)
    for p in problems:
        print(f"FAIL {p}")
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
