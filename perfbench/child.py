"""One workload, run in its own process by run.py.

Sets up (package import, seeded input generation, a warm-up CLI call),
repeats the workload's qdecomp CLI chain in-process for the given number of
seconds, checks the outputs, and writes a result JSON for run.py to print.
Every CLI call goes through qdecomp.cli.main with paths relative to the pass
directory, so every artifact, manifests included, must be byte-identical
from one pass to the next.
"""

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import qdecomp.cli  # noqa: E402

import inputs  # noqa: E402
import oracle  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

# Package imports (each in a fresh interpreter) and input generations (each
# with its warm-up call) per run; setup_s adds the two medians.
SETUPS = 3
IMPORT_PROBE = ("import time; t = time.perf_counter(); import qdecomp.cli; "
                "print(time.perf_counter() - t)")
# Probe duration, in ms, on the reference machine that adjusted timings are
# expressed on. Fixed so adjusted figures compare across commits: never retune.
PROBE_REF_MS = 5.0
# Decompositions per method checked against the brute-force oracle.
ORACLE_SAMPLE = {"fixed2": 4, "general3": 3, "variable": 3}
K = 100


class StageFailed(Exception):
    pass


def lines_in(path):
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip())


def read_corpus(path):
    with open(path, encoding="utf-8") as fh:
        return [(r["id"], r["text"]) for r in map(json.loads, fh)]


def read_tsv(path):
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n").split("\t") for line in fh if line.strip()]


def digest_tree(path):
    out = {}
    for dirpath, _, files in os.walk(path):
        for name in files:
            full = os.path.join(dirpath, name)
            with open(full, "rb") as fh:
                out[os.path.relpath(full, path)] = hashlib.sha256(
                    fh.read()).hexdigest()
    return out


# ---------------------------------------------------------------------------
# workloads
#
# generate() writes the inputs into a directory and returns their facts;
# chain() runs one pass of CLI calls with inputs at ../<inputs dir>/, tagging
# decompose calls with their method label; decompose_outputs() names each
# method's question file, TSV and indexed corpus for the checks.

class Pipeline:
    """Criterion-8-shaped chain through every stage of the CLI."""

    name = "pipeline-10k"
    sizes = {
        "full": dict(singles=10_000, topics=120, entities=200, composites=300,
                     prose=200, labeled=300, dim=48, paragraphs=200,
                     spans=20),
        "smoke": dict(singles=600, topics=30, entities=40, composites=30,
                      prose=20, labeled=60, dim=16, paragraphs=10, spans=4),
    }

    def generate(self, d, seed, size):
        texts = inputs.single_hop_texts(size["singles"], seed, size["topics"],
                                        size["entities"])
        comps = inputs.composites(texts, 2, size["composites"], seed, "mined")
        lines = inputs.mined_lines(texts, comps, size["prose"])
        with open(d / "mined.txt", "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        seeds = inputs.composites(texts, 2, size["labeled"], seed, "labeled")
        inputs.write_corpus([(f"ls{i:06d}", t) for i, t in
                             enumerate(texts[:size["labeled"]])],
                            d / "label_single.jsonl")
        inputs.write_corpus([(f"lm{i:06d}", t) for i, t in
                             enumerate(seeds)], d / "label_multi.jsonl")
        for member in range(2):
            inputs.write_logits(d / f"logits_{member}.jsonl",
                                size["paragraphs"], size["spans"], seed,
                                member)
        table = inputs.vector_table(inputs.vocabulary(texts), size["dim"],
                                    seed)
        inputs.write_vec(table, d / "vectors.vec")
        inputs.write_corpus([(f"w{i:03d}", t) for i, t in
                             enumerate(texts[:64])], d / "warmup.jsonl")
        return {"table": table, "rows": len(lines), "seed": seed}

    def chain(self, call, src, facts, workers):
        seed = facts["seed"]
        call("extract", ["--lines", f"{src}/mined.txt", "--out",
                         "corpus.jsonl", "--id-prefix", "m"])
        call("train-classifier", [
            "--labeled", f"single={src}/label_single.jsonl",
            "--labeled", f"multi={src}/label_multi.jsonl",
            "--out", "clf.json", "--dim", "16", "--epochs", "50",
            "--learning-rate", "1.0", "--seed", str(seed % 1000)])
        call("route", ["--model", "clf.json", "--mined", "corpus.jsonl",
                       "--single-label", "single", "--multi-label", "multi",
                       "--out-single", "routed_single.jsonl",
                       "--out-multi", "routed_multi.jsonl"])
        call("build-index", ["--corpus", "routed_single.jsonl",
                             "--vectors", f"{src}/vectors.vec",
                             "--out", "idx"])
        call("decompose", ["--questions", "routed_multi.jsonl",
                           "--index", "idx", "--vectors", f"{src}/vectors.vec",
                           "--out", "pseudo.tsv", "--method", "fixed2",
                           "--k", str(K), "--workers", str(workers)],
             method="fixed2")
        call("edit", ["--decompositions", "pseudo.tsv", "--out", "edited.tsv"])
        call("noise", ["--corpus", "routed_single.jsonl",
                       "--out", "noised.jsonl", "--drop-prob", "0.1",
                       "--mask-prob", "0.1", "--shuffle-window", "3",
                       "--seed", str(seed % 1000 + 1)])
        # round-trip records: the edited decomposition stands in for its own
        # reconstruction, as in the acceptance suite (benchmark glue, untimed)
        with open("records.tsv", "w", encoding="utf-8") as fh:
            for row in read_tsv("edited.tsv"):
                fh.write(f"{row[1]}\t{row[2]}\t{row[2]}\n")
        call("metrics", ["--records", "records.tsv", "--out", "report.json"])
        call("recompose", ["--logits", f"{src}/logits_0.jsonl",
                           "--logits", f"{src}/logits_1.jsonl",
                           "--out", "answer.json"])

    def decompose_outputs(self, passdir, srcdir):
        return [("fixed2", passdir / "routed_multi.jsonl",
                 passdir / "pseudo.tsv", passdir / "routed_single.jsonl")]

    def extra_checks(self, passdir, facts, report):
        return []


class Decompose50k:
    """Scan-bound retrieval on a large, high-dimensional index."""

    name = "decompose-50k"
    sizes = {
        "full": dict(singles=50_000, topics=2000, entities=5000,
                     composites=40, dim=300),
        "smoke": dict(singles=2000, topics=100, entities=200, composites=4,
                      dim=24),
    }
    methods = (("fixed2", ["--method", "fixed2"]),
               ("general3", ["--method", "general", "--n", "3"]))

    def generate(self, d, seed, size):
        texts = inputs.single_hop_texts(size["singles"], seed, size["topics"],
                                        size["entities"])
        records = [(f"s{i:08d}", t) for i, t in enumerate(texts)]
        inputs.write_corpus(records, d / "singles.jsonl")
        comps = inputs.composites(texts, 3, size["composites"], seed,
                                  "decompose")
        inputs.write_corpus([(f"c{i:06d}", t) for i, t in
                             enumerate(comps)], d / "composites.jsonl")
        table = inputs.vector_table(inputs.vocabulary(texts), size["dim"],
                                    seed)
        inputs.write_vec(table, d / "vectors.vec")
        inputs.write_corpus(records[:64], d / "warmup.jsonl")
        return {"table": table, "rows": len(records), "seed": seed}

    def chain(self, call, src, facts, workers):
        call("build-index", ["--corpus", f"{src}/singles.jsonl",
                             "--vectors", f"{src}/vectors.vec",
                             "--out", "idx"])
        for label, flags in self.methods:
            call("decompose", ["--questions", f"{src}/composites.jsonl",
                               "--index", "idx",
                               "--vectors", f"{src}/vectors.vec",
                               "--out", f"{label}.tsv", "--k", str(K),
                               "--workers", str(workers)] + flags,
                 method=label)

    def decompose_outputs(self, passdir, srcdir):
        return [(label, srcdir / "composites.jsonl", passdir / f"{label}.tsv",
                 srcdir / "singles.jsonl") for label, _ in self.methods]

    def extra_checks(self, passdir, facts, report):
        return []


class Select10k(Decompose50k):
    """Selection-bound retrieval: the variable beam and MRR ranking."""

    name = "select-10k"
    sizes = {
        "full": dict(singles=10_000, topics=120, entities=200, composites=12,
                     dim=48, count=200),
        "smoke": dict(singles=1000, topics=40, entities=60, composites=4,
                      dim=16, count=20),
    }
    methods = (("variable", ["--method", "variable", "--max-n", "3",
                             "--beam-width", "100"]),)
    objectives = ("sum-distance", "sim-diversity")

    def generate(self, d, seed, size):
        facts = super().generate(d, seed, size)
        facts["count"] = size["count"]
        return facts

    def chain(self, call, src, facts, workers):
        super().chain(call, src, facts, workers)
        for objective in self.objectives:
            call("synth-eval", ["--corpus", f"{src}/singles.jsonl",
                                "--index", "idx",
                                "--vectors", f"{src}/vectors.vec",
                                "--objective", objective, "--n", "3",
                                "--k", str(K), "--count", str(facts["count"]),
                                "--seed", str(facts["seed"] % 1000),
                                "--out", f"mrr_{objective}.json"],
                 count=facts["count"])

    def extra_checks(self, passdir, facts, report):
        mrr = {}
        failures = []
        for objective in self.objectives:
            with open(passdir / f"mrr_{objective}.json", encoding="utf-8") as fh:
                mrr[objective] = json.load(fh)["mrr"]
            with open(passdir / f"mrr_{objective}.json.ranks.json",
                      encoding="utf-8") as fh:
                ranks = json.load(fh)
            if len(ranks) != facts["count"] or min(ranks) < 1:
                failures.append(f"{objective}: {len(ranks)} ranks, expected "
                                f"{facts['count']} ranks of at least 1")
            report.append((f"mrr.{objective}", mrr[objective], "MRR"))
        if not mrr["sum-distance"] > mrr["sim-diversity"]:
            failures.append(f"mrr.sum-distance {mrr['sum-distance']} is not "
                            f"above mrr.sim-diversity {mrr['sim-diversity']}")
        return [("mrr.sum-distance > mrr.sim-diversity", failures)]


WORKLOADS = {w.name: w for w in (Pipeline(), Decompose50k(), Select10k())}


# ---------------------------------------------------------------------------
# running

class Runner:
    def __init__(self, workload, workdir, workers):
        self.workload = workload
        self.workdir = workdir
        self.workers = workers
        self.calls = 0
        self.failures = []
        self.probe_s = []
        self._probe_words = [f"Word{i % 997}" for i in range(20_000)]
        self._probe_block = np.empty((20_000, 100), dtype=np.float32)
        self._probe_vector = np.random.default_rng(0).normal(
            size=100).astype(np.float32)

    def probe(self):
        """Time a fixed piece of benchmark work (before every CLI call and
        after every pass).

        On a shared host the machine's speed drifts by tens of percent over
        minutes, and every run's timings drift with it. The probe does the
        kinds of work the program does, interpreter-bound dict and string
        work, and filling and scanning an 8 MB float32 matrix; its mean over
        a run measures that run's machine speed. The matrix is allocated
        once, before the program runs, so it adds a constant to peak memory.
        """
        start = time.perf_counter()
        counts = {}
        for word in self._probe_words:
            key = word.lower()
            counts[key] = counts.get(key, 0) + 1
        self._probe_block.fill(0.5)
        (self._probe_block @ self._probe_vector).argmax()
        self.probe_s.append(time.perf_counter() - start)

    def run_chain(self, passdir, src, facts):
        """One pass; returns [(subcommand, seconds, method, count)]."""
        passdir.mkdir()
        timings = []

        def call(sub, argv, method=None, count=None):
            self.calls += 1
            self.probe()
            start = time.perf_counter()
            rc = qdecomp.cli.main([sub] + argv)
            timings.append((sub, time.perf_counter() - start, method, count))
            if rc != 0:
                raise StageFailed(f"qdecomp {sub} exited {rc} in {passdir.name}")

        os.chdir(passdir)
        try:
            self.workload.chain(call, src, facts, self.workers)
        finally:
            os.chdir(self.workdir)
        return timings

    def warm_up(self, src):
        """One small build-index over the workload's vectors: anything the
        program builds once per vector file and reuses lands in setup."""
        warm = self.workdir / f"warm-{src}"
        warm.mkdir()
        os.chdir(warm)
        try:
            self.calls += 1
            self.probe()
            rc = qdecomp.cli.main(["build-index", "--corpus",
                                   f"../{src}/warmup.jsonl", "--vectors",
                                   f"../{src}/vectors.vec", "--out", "idx"])
        finally:
            os.chdir(self.workdir)
        shutil.rmtree(warm)
        if rc != 0:
            raise StageFailed(f"warm-up build-index exited {rc}")


def pass_metrics(workload, passdir, srcdir, timings):
    """End-to-end figures of one pass plus its decompose question counts."""
    by_method = {}
    for label, questions, tsv, _ in workload.decompose_outputs(passdir,
                                                               srcdir):
        by_method[label] = (lines_in(questions), lines_in(tsv))
    m = {"pipeline_s": sum(t for _, t, _, _ in timings)}
    build = [t for sub, t, _, _ in timings if sub == "build-index"]
    m["index_build_s"] = sum(build)
    dec = [(t, method) for sub, t, method, _ in timings if sub == "decompose"]
    m["decompose_qps"] = (sum(by_method[mt][0] for _, mt in dec)
                          / sum(t for t, _ in dec))
    for t, method in dec:
        m[f"decompose_qps.{method}"] = by_method[method][0] / t
    synth = [(t, c) for sub, t, _, c in timings if sub == "synth-eval"]
    if synth:
        m["synth_eval_qps"] = sum(c for _, c in synth) / sum(t for t, _ in synth)
    return m, by_method


def oracle_checks(workload, passdir, srcdir, facts, seed, fault):
    """Compare a seeded sample of decompositions with the brute force."""
    rng = random.Random(seed)
    failures = []
    checked = 0
    indexes = {}
    for label, _, tsv, corpus in workload.decompose_outputs(passdir, srcdir):
        rows = read_tsv(tsv)
        if fault == "oracle" and len(rows) > 1:
            rows[0][2], rows[1][2] = rows[1][2], rows[0][2]
        if corpus not in indexes:
            indexes[corpus] = oracle.OracleIndex(read_corpus(corpus),
                                                 facts["table"])
        index = indexes[corpus]
        sample = sorted(rng.sample(range(len(rows)),
                                   min(ORACLE_SAMPLE[label], len(rows))))
        if fault == "oracle" and 0 not in sample:
            sample[0] = 0
        for i in sample:
            qid, text, decomposition, score, _ = rows[i]
            if label == "variable":
                got, value = oracle.variable_beam(index, text, K, 3, 100)
            else:
                n = 2 if label == "fixed2" else 3
                got, value = oracle.similarity_diversity(index, text, K, n)
            want = index.text_of(got)
            checked += 1
            if want != decomposition or abs(float(score) - value) > 1e-9:
                failures.append(f"{label} {qid}: program chose "
                                f"{decomposition!r} ({score}), brute force "
                                f"{want!r} ({value!r})")
    return checked, failures


def run(args):
    workload = WORKLOADS[args.workload]
    size = workload.sizes[args.size]
    workdir = Path(args.workdir).resolve()
    os.chdir(workdir)
    nproc = len(os.sched_getaffinity(0))
    workers = min(2, nproc)
    tracer = Tracer() if args.trace else None
    runner = Runner(workload, workdir, workers)
    checks = []  # (name, [failure messages])

    # -- set-up
    setup_times = []
    input_digests = []
    for i in range(SETUPS):
        src = workdir / f"inputs-{i}"
        src.mkdir()
        start = time.perf_counter()
        facts = workload.generate(src, args.seed, size)
        runner.warm_up(src.name)
        setup_times.append(time.perf_counter() - start)
        input_digests.append(digest_tree(src))
        if i + 1 < SETUPS:
            shutil.rmtree(src)
    srcdir = src
    src = f"../{src.name}"
    checks.append(("inputs reproducible from the seed",
                   [f"set-up {i} differs" for i, d in enumerate(input_digests)
                    if d != input_digests[0]]))
    # the last set-up's inputs stay where the warm-up saw them, so anything
    # the program cached against their path stays valid
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    import_times = [float(subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True,
        text=True, check=True, timeout=60).stdout) for _ in range(SETUPS)]
    setup_s = statistics.median(import_times) + statistics.median(setup_times)

    # -- measured passes; with tracing, untraced and traced passes alternate
    passes = []  # (traced, metrics)
    first_digests = None
    start = time.perf_counter()
    longest = 0.0
    min_passes = 2 if tracer or args.fault == "repeat" else 1
    skipped = attempted_questions = 0
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        passdir = workdir / f"pass-{len(passes):03d}"
        if traced:
            tracer.pass_id = len(passes)
            tracer.install()
        t0 = time.perf_counter()
        try:
            timings = runner.run_chain(passdir, src, facts)
        except StageFailed as exc:
            runner.failures.append(str(exc))
            break
        finally:
            if traced:
                tracer.uninstall()
        longest = max(longest, time.perf_counter() - t0)
        runner.probe()
        metrics, by_method = pass_metrics(workload, passdir, srcdir, timings)
        if args.fault == "repeat" and len(passes) == 1:
            tsv = workload.decompose_outputs(passdir, srcdir)[0][2]
            with open(tsv, "ab") as fh:
                fh.write(b"\n")
        for label, (questions, written) in by_method.items():
            attempted_questions += questions
            skipped += questions - written
        digests = digest_tree(passdir)
        if first_digests is None:
            first_digests = digests
        elif digests != first_digests:
            diff = sorted(k for k in set(digests) | set(first_digests)
                          if digests.get(k) != first_digests.get(k))
            checks.append((f"pass {len(passes)} byte-identical to pass 0",
                           [f"differing artifacts: {diff}"]))
        else:
            checks.append((f"pass {len(passes)} byte-identical to pass 0", []))
        if len(passes):
            shutil.rmtree(passdir)
        passes.append((traced, metrics))
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed + longest > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- output checks on the first pass
    report = []
    pass0 = workdir / "pass-000"
    if passes and not runner.failures:
        checked, failures = oracle_checks(workload, pass0, srcdir, facts,
                                          args.seed, args.fault)
        checks.append((f"{checked} sampled decompositions equal the brute "
                       f"force", failures))
        checks.extend(workload.extra_checks(pass0, facts, report))

    # -- metrics: timings adjusted to the reference machine speed, and raw
    probe_ms = 1e3 * statistics.mean(runner.probe_s)
    slowdown = probe_ms / PROBE_REF_MS
    untraced = [m for t, m in passes if not t]
    names = sorted({k for m in untraced for k in m})
    e2e = {"setup_s": (setup_s / slowdown, "s")}
    raw = {"raw.setup_s": (setup_s, "s")}
    for name in names:  # none when the first pass failed
        value = statistics.median(m[name] for m in untraced)
        if name.endswith("_s"):
            e2e[name] = (value / slowdown, "s")
            raw[f"raw.{name}"] = (value, "s")
        else:
            unit = "composites/s" if name.startswith("synth") else "questions/s"
            e2e[name] = (value * slowdown, unit)
            raw[f"raw.{name}"] = (value, unit)
    e2e["peak_rss_mb"] = (peak_rss_mb, "MB")
    failed_checks = sum(1 for _, f in checks if f)
    failed = len(runner.failures) + skipped + failed_checks
    attempted = runner.calls + attempted_questions + len(checks)
    e2e["failed_frac"] = (failed / attempted, "failed/attempted")
    for name, value, unit in report:
        e2e[name] = (value, unit)
    e2e["machine_probe_ms"] = (probe_ms, "ms")
    e2e.update(raw)

    layers = {}
    notes = []
    traced = [m["pipeline_s"] for t, m in passes if t]
    if traced:
        layers, notes = layer_metrics(tracer.spans)
        base = raw["raw.pipeline_s"][0]
        layers["trace.overhead_frac"] = (
            (statistics.median(traced) - base) / base, "fraction")
        with open(Path(args.spans_out), "w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "start", "end", "parent", "pass",
                                   "note"], "spans": tracer.dump()}, fh)

    facts_out = {
        "workload": workload.name, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": bool(args.trace),
        "passes": len(passes),
        "traced_passes": sum(1 for t, _ in passes if t),
        "workers": workers, "nproc": nproc,
        "python": sys.version.split()[0], "numpy": np.__version__,
        "blas": blas_version(),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "input_rows": facts["rows"],
        "dim": len(next(iter(facts["table"].values()))),
        "vocabulary_words": len(facts["table"]),
        "vec_bytes": os.path.getsize(srcdir / "vectors.vec"),
        "import_samples_s": import_times, "setup_samples_s": setup_times,
        "machine_probe_ms": {"mean": probe_ms, "reference": PROBE_REF_MS,
                             "n": len(runner.probe_s)},
        "untraced_pass_values": {name: [m[name] for m in untraced]
                                 for name in names},
    }
    return {
        "attempted": attempted, "failed": failed,
        "end_to_end": {k: list(v) for k, v in e2e.items()},
        "per_layer": {k: list(v) for k, v in layers.items()},
        "notes": notes,
        "failures": runner.failures + [f"{name}: {msg}" for name, f in checks
                                       for msg in f]
                    + ([f"{skipped} decompose questions skipped"]
                       if skipped else []),
        "checks": [[name, not f] for name, f in checks],
        "facts": facts_out,
    }


def blas_version():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "smoke"), required=True)
    ap.add_argument("--fault", choices=("none", "repeat", "oracle"),
                    default="none")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans-out", required=True)
    args = ap.parse_args()
    result = run(args)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
