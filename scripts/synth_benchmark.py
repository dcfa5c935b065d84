#!/usr/bin/env python3
"""Compare decomposition objectives on the synthetic compositional benchmark.

Builds a single-hop corpus, derives deterministic vectors for its vocabulary,
then ranks the gold sub-question set under each objective for composites of
each requested size. Reports MRR per (objective, n) cell.

Example:
    python3 scripts/synth_benchmark.py --questions 1000 --dim 48 --count 200
"""

import argparse
import json
import sys

from qdecomp.retrieval import build_index
from qdecomp.synthbench import (OBJECTIVE_SIM_DIVERSITY, OBJECTIVE_SUM_DISTANCE,
                                build_synthetic_compositional,
                                build_synthetic_singlehop_corpus,
                                corpus_vocabulary, mrr_eval,
                                synthetic_vector_table)


def run(args):
    corpus = build_synthetic_singlehop_corpus(args.questions,
                                              seed=args.corpus_seed)
    table = synthetic_vector_table(corpus_vocabulary(corpus), dim=args.dim,
                                   seed=args.vector_seed)
    index = build_index(corpus, table, filters=None)
    sizes = [int(s) for s in args.sizes.split(",")]
    cells = {}
    for n in sizes:
        bench = build_synthetic_compositional(corpus, n=n, count=args.count,
                                              seed=args.bench_seed)
        for objective in (OBJECTIVE_SUM_DISTANCE, OBJECTIVE_SIM_DIVERSITY):
            report = mrr_eval(objective, bench, index, k=args.k)
            cells[f"n{n}/{objective}"] = report.mrr
            print(f"n={n}  {objective:<14} MRR {report.mrr:.4f}")
    for n in sizes:
        gap = (cells[f"n{n}/{OBJECTIVE_SUM_DISTANCE}"]
               - cells[f"n{n}/{OBJECTIVE_SIM_DIVERSITY}"])
        print(f"n={n}  gap (sum-distance - sim-diversity) {gap:+.4f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"config": vars(args), "mrr": cells}, fh,
                      sort_keys=True, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--questions", type=int, default=1000)
    ap.add_argument("--dim", type=int, default=48)
    ap.add_argument("--count", type=int, default=200,
                    help="composites per size")
    ap.add_argument("--k", type=int, default=100,
                    help="retrieval pool per composite")
    ap.add_argument("--sizes", default="2,3", help="comma-separated n values")
    ap.add_argument("--corpus-seed", type=int, default=11)
    ap.add_argument("--vector-seed", type=int, default=12)
    ap.add_argument("--bench-seed", type=int, default=13)
    ap.add_argument("--out", default=None, help="optional JSON report path")
    run(ap.parse_args(argv))
    return 0


if __name__ == "__main__":
    sys.exit(main())
