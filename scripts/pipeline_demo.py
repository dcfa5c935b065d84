#!/usr/bin/env python3
"""End-to-end pipeline demo on generated data.

Generates a synthetic mined-text file (single-hop questions, composites, and
prose filler), then drives the CLI through extract, classifier training,
routing, index building, pseudo-decomposition, entity editing, noising, and
round-trip metrics. Everything lands under --workdir; each step leaves a
manifest next to its primary output so any step can be replayed with
`qdecomp <step> --config <manifest>`.
"""

import argparse
import pathlib
import sys

from qdecomp.cli import main as cli
from qdecomp.corpus import QuestionCorpus, save_corpus, write_tsv
from qdecomp.embeddings import save_vector_table
from qdecomp.retrieval import read_dataset_tsv
from qdecomp.synthbench import (build_synthetic_compositional,
                                build_synthetic_singlehop_corpus,
                                corpus_vocabulary, synthetic_vector_table)


def generate_inputs(d, n_questions, seed):
    corpus = build_synthetic_singlehop_corpus(n_questions, seed=seed)
    table = synthetic_vector_table(corpus_vocabulary(corpus), dim=48,
                                   seed=seed + 1)
    vec = d / "vectors.vec"
    save_vector_table(table, vec)

    composites = build_synthetic_compositional(corpus, n=2,
                                               count=max(50, n_questions // 20),
                                               seed=seed + 2)
    lines = list(corpus.texts)
    for i, item in enumerate(composites):
        lines.insert(31 * i % len(lines), item.composite.raw_text)
    for i in range(n_questions // 50):
        lines.insert(47 * i % len(lines), f"Prose filler sentence {i}.")
    mined = d / "mined.txt"
    mined.write_text("\n".join(lines) + "\n")

    # small labeled seed sets for the router
    singles = corpus.texts[:200]
    multis = [m.composite.raw_text for m in
              build_synthetic_compositional(corpus, n=2, count=200,
                                            seed=seed + 3)]
    sp, mp = d / "label_single.jsonl", d / "label_multi.jsonl"
    save_corpus(QuestionCorpus((f"ls{i:06d}" for i in range(len(singles))),
                               singles), sp)
    save_corpus(QuestionCorpus((f"lm{i:06d}" for i in range(len(multis))),
                               multis), mp)
    return vec, mined, sp, mp


def step(cmd):
    print("$ qdecomp " + " ".join(cmd))
    rc = cli(cmd)
    if rc != 0:
        raise SystemExit(f"step failed with exit code {rc}: {cmd}")


def run(args):
    d = pathlib.Path(args.workdir)
    d.mkdir(parents=True, exist_ok=True)
    vec, mined, sp, mp = generate_inputs(d, args.questions, args.seed)

    step(["extract", "--lines", str(mined), "--out", str(d / "corpus.jsonl"),
          "--id-prefix", "m"])
    step(["train-classifier", "--labeled", f"single={sp}",
          "--labeled", f"multi={mp}", "--out", str(d / "clf.json"),
          "--dim", "16", "--epochs", "50", "--learning-rate", "1.0",
          "--seed", "7"])
    step(["route", "--model", str(d / "clf.json"),
          "--mined", str(d / "corpus.jsonl"),
          "--single-label", "single", "--multi-label", "multi",
          "--out-single", str(d / "routed_single.jsonl"),
          "--out-multi", str(d / "routed_multi.jsonl")])
    step(["build-index", "--corpus", str(d / "routed_single.jsonl"),
          "--vectors", str(vec), "--out", str(d / "idx")])
    # general at its default n = 2 would be fixed2; the demo runs n = 3
    size = ["--n", "3"] if args.method == "general" else []
    step(["decompose", "--questions", str(d / "routed_multi.jsonl"),
          "--index", str(d / "idx"), "--vectors", str(vec),
          "--out", str(d / "pseudo.tsv"), "--method", args.method,
          "--k", "100", "--workers", str(args.workers)] + size)
    step(["edit", "--decompositions", str(d / "pseudo.tsv"),
          "--out", str(d / "edited.tsv")])
    step(["noise", "--corpus", str(d / "routed_single.jsonl"),
          "--out", str(d / "noised.jsonl"), "--drop-prob", "0.1",
          "--mask-prob", "0.1", "--shuffle-window", "3", "--seed", "5"])

    # round-trip records: treat the edited decomposition as its own
    # reconstruction so the report exercises the full metric stack
    rows = read_dataset_tsv(d / "edited.tsv")
    write_tsv(((r[1], r[2], r[2]) for r in rows), d / "records.tsv")
    step(["metrics", "--records", str(d / "records.tsv"),
          "--out", str(d / "report.json")])
    print(f"done; artifacts in {d}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workdir", default="pipeline_demo_out")
    ap.add_argument("--questions", type=int, default=2000)
    ap.add_argument("--method", default="fixed2",
                    choices=["fixed2", "general", "variable", "random"])
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--seed", type=int, default=61)
    run(ap.parse_args(argv))
    return 0


if __name__ == "__main__":
    sys.exit(main())
