"""Command-line pipeline: extract, train-classifier, classify, route,
build-index, decompose, edit, noise, metrics, synth-eval, recompose.

Every run writes a manifest JSON (config snapshot, seed, input digests) next
to its primary output. Flags can be pre-filled from a JSON config file or a
previous manifest via --config; explicit flags win. Exit codes: 0 success,
1 usage error, 2 data or validation error, 3 internal error.
"""

import argparse
import hashlib
import json
import os
import sys
import traceback

from . import __version__
from .classifier import (TrainingConfig, evaluate_classifier, classify,
                         load_classifier, route_mined_questions,
                         save_classifier, train_classifier)
from .corpus import (DEFAULT_WH_WORDS, Question, QuestionCorpus,
                     extract_candidate_questions, load_corpus, save_corpus)
from .editing import edit_sub_question_texts, split_sub_question_texts
from .embeddings import load_vector_table
from .metrics import RoundTripRecord, roundtrip_report
from .noising import NoiseConfig, noise_tokens
from .recompose import (ensemble_average, predict_answer, read_logits_jsonl,
                        span_probabilities)
from .retrieval import (DecomposeConfig, LengthFilter, METHODS,
                        build_index, build_pseudo_decomposition_dataset,
                        load_index, read_dataset_tsv, save_index,
                        write_dataset_tsv, DATASET_COLUMNS, _tsv_field)
from .rng import substream
from .synthbench import (OBJECTIVES, build_synthetic_compositional, mrr_eval)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _progress(message):
    print(message, file=sys.stderr)


def _digest_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _digest_path(path):
    if os.path.isdir(path):
        h = hashlib.sha256()
        for name in sorted(os.listdir(path)):
            sub = os.path.join(path, name)
            if os.path.isfile(sub):
                h.update(name.encode("utf-8"))
                h.update(_digest_file(sub).encode("ascii"))
        return h.hexdigest()
    return _digest_file(path)


def _write_manifest(opts, subcommand, config, inputs, primary_out):
    path = opts.get("manifest") or f"{primary_out}.manifest.json"
    payload = {
        "schema_version": 1,
        "tool": "qdecomp",
        "version": __version__,
        "subcommand": subcommand,
        "config": config,
        "inputs": {p: _digest_path(p) for p in inputs if p},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, ensure_ascii=False, sort_keys=True, indent=2)
        fh.write("\n")


def _write_json(payload, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, ensure_ascii=False, sort_keys=True, indent=2)
        fh.write("\n")


def _resolve(args, defaults, required):
    """Merge defaults, then --config values, then explicitly passed flags."""
    provided = {k: v for k, v in vars(args).items()
                if k not in ("func", "command")}
    config_path = provided.pop("config", None)
    merged = dict(defaults)
    merged["manifest"] = None
    if config_path:
        with open(config_path, encoding="utf-8") as fh:
            cfg = json.load(fh)
        if isinstance(cfg, dict) and "config" in cfg and "subcommand" in cfg:
            cfg = cfg["config"]  # accept a previous run's manifest
        if not isinstance(cfg, dict):
            raise UsageError(f"{config_path}: config must be a JSON object")
        unknown = set(cfg) - set(merged)
        if unknown:
            raise UsageError(
                f"{config_path}: unknown config keys: {sorted(unknown)}")
        merged.update(cfg)
    merged.update(provided)
    for key in required:
        if merged.get(key) in (None, []):
            raise UsageError(f"missing required option --{key.replace('_', '-')}")
    return merged


def _config_snapshot(opts, skip=("manifest",)):
    return {k: v for k, v in sorted(opts.items()) if k not in skip}


# ---------------------------------------------------------------------------
# subcommands

EXTRACT_DEFAULTS = {
    "lines": None, "out": None,
    "wh_words": ",".join(sorted(DEFAULT_WH_WORDS)),
    "id_prefix": "", "dedup": False, "label": None,
}


def cmd_extract(args):
    opts = _resolve(args, EXTRACT_DEFAULTS, required=("lines", "out"))
    with open(opts["lines"], encoding="utf-8") as fh:
        lines = fh.readlines()
    wh = frozenset(w.strip().lower() for w in opts["wh_words"].split(",")
                   if w.strip())
    questions = extract_candidate_questions(lines, wh_words=wh,
                                            id_prefix=opts["id_prefix"],
                                            dedup=opts["dedup"])
    corpus = QuestionCorpus(tuple(questions), label=opts["label"])
    save_corpus(corpus, opts["out"])
    _progress(f"extract: kept {len(questions)} of {len(lines)} lines")
    _write_manifest(opts, "extract", _config_snapshot(opts),
                    [opts["lines"]], opts["out"])
    return 0


TRAIN_DEFAULTS = {
    "labeled": None, "out": None, "report": None,
    "dim": 32, "epochs": 5, "learning_rate": 0.1, "batch_size": 8,
    "min_count": 1, "holdout": 0.1, "seed": 0,
}


def _split_holdout(corpus, fraction, rng):
    n_hold = int(round(fraction * len(corpus)))
    perm = rng.permutation(len(corpus))
    hold_idx = set(int(i) for i in perm[:n_hold])
    train = tuple(q for i, q in enumerate(corpus) if i not in hold_idx)
    hold = tuple(q for i, q in enumerate(corpus) if i in hold_idx)
    return train, hold


def cmd_train_classifier(args):
    opts = _resolve(args, TRAIN_DEFAULTS, required=("labeled", "out"))
    pairs = []
    for spec in opts["labeled"]:
        label, sep, path = spec.partition("=")
        if not sep or not label or not path:
            raise UsageError(f"--labeled expects LABEL=PATH, got {spec!r}")
        pairs.append((label, path))
    if not 0.0 <= opts["holdout"] < 1.0:
        raise UsageError("--holdout must be in [0, 1)")
    train_sets = []
    heldout_sets = []
    rng = substream(opts["seed"], "classifier-split")
    for label, path in pairs:
        corpus = load_corpus(path, label=label)
        if opts["holdout"] > 0.0:
            train_qs, hold_qs = _split_holdout(corpus, opts["holdout"], rng)
        else:
            train_qs, hold_qs = corpus.questions, ()
        train_sets.append((QuestionCorpus(train_qs, label=label), label))
        if hold_qs:
            heldout_sets.append((QuestionCorpus(hold_qs, label=label), label))
    config = TrainingConfig(dim=opts["dim"], epochs=opts["epochs"],
                            learning_rate=opts["learning_rate"],
                            batch_size=opts["batch_size"],
                            min_count=opts["min_count"], seed=opts["seed"])
    model = train_classifier(train_sets, config)
    save_classifier(model, opts["out"])
    report = {
        "labels": list(model.labels),
        "vocabulary_size": len(model.vocab),
        "train_examples": sum(len(c) for c, _ in train_sets),
        "heldout_examples": sum(len(c) for c, _ in heldout_sets),
        "heldout_accuracy": (evaluate_classifier(model, heldout_sets)
                             if heldout_sets else None),
        "epoch_losses": list(model.epoch_losses),
    }
    if opts["report"]:
        _write_json(report, opts["report"])
    print(json.dumps(report, sort_keys=True))
    _progress(f"train-classifier: {report['train_examples']} train examples, "
              f"heldout accuracy {report['heldout_accuracy']}")
    _write_manifest(opts, "train-classifier", _config_snapshot(opts),
                    [p for _, p in pairs], opts["out"])
    return 0


CLASSIFY_DEFAULTS = {"model": None, "corpus": None, "out": None}


def cmd_classify(args):
    opts = _resolve(args, CLASSIFY_DEFAULTS, required=("model", "corpus", "out"))
    model = load_classifier(opts["model"])
    corpus = load_corpus(opts["corpus"])
    with open(opts["out"], "w", encoding="utf-8") as fh:
        for q in corpus:
            pred = classify(model, q)
            fh.write(json.dumps({
                "id": q.id,
                "label": pred.label,
                "degenerate": pred.degenerate,
                "probabilities": [float(p) for p in pred.probabilities],
            }, ensure_ascii=False, sort_keys=True))
            fh.write("\n")
    _progress(f"classify: labeled {len(corpus)} questions")
    _write_manifest(opts, "classify", _config_snapshot(opts),
                    [opts["model"], opts["corpus"]], opts["out"])
    return 0


ROUTE_DEFAULTS = {
    "model": None, "mined": None, "single_label": None, "multi_label": None,
    "out_single": None, "out_multi": None,
}


def cmd_route(args):
    opts = _resolve(args, ROUTE_DEFAULTS,
                    required=("model", "mined", "single_label", "multi_label",
                              "out_single", "out_multi"))
    model = load_classifier(opts["model"])
    mined = load_corpus(opts["mined"])
    to_single, to_multi = route_mined_questions(model, mined,
                                                opts["single_label"],
                                                opts["multi_label"])
    save_corpus(QuestionCorpus(tuple(to_single)), opts["out_single"])
    save_corpus(QuestionCorpus(tuple(to_multi)), opts["out_multi"])
    counts = {"single": len(to_single), "multi": len(to_multi),
              "discarded": len(mined) - len(to_single) - len(to_multi)}
    print(json.dumps(counts, sort_keys=True))
    _progress(f"route: {counts}")
    _write_manifest(opts, "route", _config_snapshot(opts),
                    [opts["model"], opts["mined"]], opts["out_single"])
    return 0


BUILD_INDEX_DEFAULTS = {
    "corpus": None, "out": None, "vectors": None,
    "min_tokens": 4, "max_tokens": 20, "no_length_filter": False,
}


def cmd_build_index(args):
    opts = _resolve(args, BUILD_INDEX_DEFAULTS,
                    required=("corpus", "vectors", "out"))
    questions = []
    for path in opts["corpus"]:
        questions.extend(load_corpus(path).questions)
    merged = QuestionCorpus(tuple(questions))
    table = load_vector_table(opts["vectors"])
    filters = None if opts["no_length_filter"] else LengthFilter(
        min_tokens=opts["min_tokens"], max_tokens=opts["max_tokens"])
    index = build_index(merged, table, filters)
    save_index(index, opts["out"])
    _progress(f"build-index: {len(index)} rows, {index.oov_excluded} without "
              f"vocabulary, {index.filtered_out} outside length bounds")
    inputs = list(opts["corpus"]) + [opts["vectors"]]
    _write_manifest(opts, "build-index", _config_snapshot(opts), inputs,
                    opts["out"])
    return 0


DECOMPOSE_DEFAULTS = {
    "questions": None, "index": None, "out": None, "vectors": None,
    "method": "fixed2", "k": 1000, "n": 2, "max_n": 3, "beam_width": 100,
    "seed": 0, "workers": 1,
}


def _load_query_source(index, opts):
    if not opts["vectors"]:
        raise UsageError("missing required option --vectors")
    table = load_vector_table(opts["vectors"])
    dim = index.unit_matrix.shape[1]
    if table.dim != dim:
        raise ValueError(f"{opts['vectors']}: vectors have dimension "
                         f"{table.dim}, but index {opts['index']} has "
                         f"dimension {dim}")
    return table


def cmd_decompose(args):
    opts = _resolve(args, DECOMPOSE_DEFAULTS,
                    required=("questions", "index", "out"))
    try:
        config = DecomposeConfig(method=opts["method"], k=opts["k"],
                                 n=opts["n"], max_n=opts["max_n"],
                                 beam_width=opts["beam_width"],
                                 seed=opts["seed"], workers=opts["workers"])
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    index = load_index(opts["index"])
    source = _load_query_source(index, opts)
    questions = load_corpus(opts["questions"])
    result = build_pseudo_decomposition_dataset(questions, index, source, config)
    write_dataset_tsv(result.records, opts["out"])
    for qid, reason in result.failures:
        _progress(f"decompose: skipped {qid}: {reason}")
    _progress(f"decompose: wrote {len(result.records)} records, "
              f"skipped {len(result.failures)}")
    inputs = [opts["questions"], opts["index"], opts["vectors"]]
    _write_manifest(opts, "decompose", _config_snapshot(opts), inputs,
                    opts["out"])
    return 0


EDIT_DEFAULTS = {"decompositions": None, "out": None}


def cmd_edit(args):
    opts = _resolve(args, EDIT_DEFAULTS, required=("decompositions", "out"))
    rows = read_dataset_tsv(opts["decompositions"])
    with open(opts["out"], "w", encoding="utf-8") as fh:
        for fields in rows:
            question = Question.from_text(fields[0], fields[1])
            subs = split_sub_question_texts(fields[2])
            edited = edit_sub_question_texts(question, subs)
            fields = list(fields)
            fields[2] = _tsv_field(" ".join(edited))
            fh.write("\t".join(fields))
            fh.write("\n")
    _progress(f"edit: rewrote {len(rows)} decompositions")
    _write_manifest(opts, "edit", _config_snapshot(opts),
                    [opts["decompositions"]], opts["out"])
    return 0


NOISE_DEFAULTS = {
    "corpus": None, "out": None,
    "mask_prob": 0.15, "drop_prob": 0.1, "shuffle_window": 3,
    "mask_token": "<mask>", "seed": 0,
}


def cmd_noise(args):
    opts = _resolve(args, NOISE_DEFAULTS, required=("corpus", "out"))
    corpus = load_corpus(opts["corpus"])
    config = NoiseConfig(mask_prob=opts["mask_prob"],
                         drop_prob=opts["drop_prob"],
                         shuffle_window=opts["shuffle_window"],
                         mask_token=opts["mask_token"], seed=opts["seed"])
    with open(opts["out"], "w", encoding="utf-8") as fh:
        for pos, q in enumerate(corpus):
            rng = substream(config.seed, "noise", pos)
            noisy = noise_tokens(q.tokens, config, rng)
            fh.write(json.dumps({"id": q.id, "text": " ".join(noisy)},
                                ensure_ascii=False, sort_keys=True,
                                separators=(",", ":")))
            fh.write("\n")
    _progress(f"noise: rewrote {len(corpus)} questions")
    _write_manifest(opts, "noise", _config_snapshot(opts), [opts["corpus"]],
                    opts["out"])
    return 0


METRICS_DEFAULTS = {"records": None, "out": None}


def cmd_metrics(args):
    opts = _resolve(args, METRICS_DEFAULTS, required=("records", "out"))
    records = []
    with open(opts["records"], encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise ValueError(f"{opts['records']}:{lineno}: expected 3 "
                                 f"columns (question, decomposition, round trip)")
            question = Question.from_text(f"r{lineno:08d}", fields[0])
            records.append(RoundTripRecord(question=question,
                                           decomposition_text=fields[1],
                                           roundtrip_text=fields[2]))
    report = roundtrip_report(records)
    payload = {
        "bleu": report.bleu,
        "good_fraction": report.good_fraction,
        "scaled": report.scaled,
        "edit_distance_mean": report.edit_distance_mean,
        "length_ratio_mean": report.length_ratio_mean,
    }
    _write_json(payload, opts["out"])
    print(json.dumps(payload, sort_keys=True))
    _write_manifest(opts, "metrics", _config_snapshot(opts),
                    [opts["records"]], opts["out"])
    return 0


SYNTH_EVAL_DEFAULTS = {
    "corpus": None, "index": None, "out": None, "vectors": None,
    "objective": None, "n": 3, "count": 200, "k": 100, "seed": 0,
    "ranks_out": None,
}


def cmd_synth_eval(args):
    opts = _resolve(args, SYNTH_EVAL_DEFAULTS,
                    required=("corpus", "index", "out", "objective"))
    if opts["objective"] not in OBJECTIVES:
        raise UsageError(f"--objective must be one of {', '.join(OBJECTIVES)}")
    if opts["k"] < opts["n"]:
        raise UsageError(f"--k {opts['k']} is below --n {opts['n']}: no "
                         f"size-{opts['n']} subset of the top K can be ranked")
    if opts["count"] < 1:
        raise UsageError(f"--count must be at least 1, got {opts['count']}")
    index = load_index(opts["index"])
    source = _load_query_source(index, opts)
    corpus = load_corpus(opts["corpus"])
    pool = QuestionCorpus(tuple(q for q in corpus if q.id in index),
                          label=corpus.label)
    benchmark = build_synthetic_compositional(pool, opts["n"], opts["count"],
                                              opts["seed"])
    report = mrr_eval(opts["objective"], benchmark, index, source, opts["k"])
    ranks_path = opts["ranks_out"] or f"{opts['out']}.ranks.json"
    _write_json(list(report.ranks), ranks_path)
    payload = {
        "objective": report.objective,
        "n": opts["n"],
        "K": report.k,
        "mrr": report.mrr,
        "per_question_ranks_path": ranks_path,
    }
    _write_json(payload, opts["out"])
    print(json.dumps(payload, sort_keys=True))
    inputs = [opts["corpus"], opts["index"], opts["vectors"]]
    _write_manifest(opts, "synth-eval", _config_snapshot(opts), inputs,
                    opts["out"])
    return 0


RECOMPOSE_DEFAULTS = {"logits": None, "out": None}


def cmd_recompose(args):
    opts = _resolve(args, RECOMPOSE_DEFAULTS, required=("logits", "out"))
    sets = [read_logits_jsonl(path) for path in opts["logits"]]
    paragraphs = sets[0] if len(sets) == 1 else ensemble_average(sets)
    ranked = sorted(span_probabilities(paragraphs),
                    key=lambda e: (-e[2], e[0], e[1]))
    pid, sid = predict_answer(paragraphs)
    payload = {
        "prediction": {"paragraph_id": pid, "span_id": sid},
        "ranked_spans": [{"paragraph_id": p, "span_id": s, "probability": pr}
                         for p, s, pr in ranked],
    }
    _write_json(payload, opts["out"])
    print(json.dumps(payload["prediction"], sort_keys=True))
    _write_manifest(opts, "recompose", _config_snapshot(opts),
                    list(opts["logits"]), opts["out"])
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser():
    parser = _Parser(prog="qdecomp",
                     description="question decomposition pipeline")
    sub = parser.add_subparsers(dest="command", metavar="SUBCOMMAND")

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        p.set_defaults(func=func)
        p.add_argument("--config", help="JSON config file or previous manifest")
        p.add_argument("--manifest", help="manifest output path")
        return p

    p = add("extract", cmd_extract, "harvest question lines from raw text")
    p.add_argument("--lines", help="input text file, one sentence per line")
    p.add_argument("--out", help="output corpus JSONL")
    p.add_argument("--wh-words", dest="wh_words",
                   help="comma-separated question-word list")
    p.add_argument("--id-prefix", dest="id_prefix", help="id namespace prefix")
    p.add_argument("--dedup", action="store_true",
                   help="drop exact duplicate lines")
    p.add_argument("--label", help="corpus label")

    p = add("train-classifier", cmd_train_classifier,
            "train the question-type classifier")
    p.add_argument("--labeled", action="append", metavar="LABEL=PATH",
                   help="labeled corpus (repeatable)")
    p.add_argument("--out", help="model output path")
    p.add_argument("--report", help="training report JSON path")
    p.add_argument("--dim", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--min-count", dest="min_count", type=int)
    p.add_argument("--holdout", type=float,
                   help="held-out fraction per corpus for evaluation")
    p.add_argument("--seed", type=int)

    p = add("classify", cmd_classify, "label a corpus with a trained model")
    p.add_argument("--model")
    p.add_argument("--corpus")
    p.add_argument("--out", help="predictions JSONL")

    p = add("route", cmd_route, "partition mined questions by predicted label")
    p.add_argument("--model")
    p.add_argument("--mined", help="mined corpus JSONL")
    p.add_argument("--single-label", dest="single_label")
    p.add_argument("--multi-label", dest="multi_label")
    p.add_argument("--out-single", dest="out_single")
    p.add_argument("--out-multi", dest="out_multi")

    p = add("build-index", cmd_build_index, "embed a corpus into an index")
    p.add_argument("--corpus", action="append", help="corpus JSONL (repeatable)")
    p.add_argument("--vectors", help="word-vector text file")
    p.add_argument("--out", help="index output directory")
    p.add_argument("--min-tokens", dest="min_tokens", type=int)
    p.add_argument("--max-tokens", dest="max_tokens", type=int)
    p.add_argument("--no-length-filter", dest="no_length_filter",
                   action="store_true")

    p = add("decompose", cmd_decompose, "retrieve pseudo-decompositions")
    p.add_argument("--questions", help="questions corpus JSONL")
    p.add_argument("--index", help="index directory")
    p.add_argument("--vectors", help="word-vector file the index was built from")
    p.add_argument("--out", help="output TSV")
    p.add_argument("--method", choices=METHODS)
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int, help="subset size for general/random")
    p.add_argument("--max-n", dest="max_n", type=int,
                   help="largest subset size for variable")
    p.add_argument("--beam-width", dest="beam_width", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int,
                   help="accepted and checked (at least 1) for existing "
                        "scripts; decompose runs on one thread")

    p = add("edit", cmd_edit, "rewrite decomposition entities in a dataset")
    p.add_argument("--decompositions", help="dataset TSV from decompose")
    p.add_argument("--out", help="edited TSV")

    p = add("noise", cmd_noise, "apply token noise to a corpus")
    p.add_argument("--corpus")
    p.add_argument("--out")
    p.add_argument("--mask-prob", dest="mask_prob", type=float)
    p.add_argument("--drop-prob", dest="drop_prob", type=float)
    p.add_argument("--shuffle-window", dest="shuffle_window", type=int)
    p.add_argument("--mask-token", dest="mask_token")
    p.add_argument("--seed", type=int)

    p = add("metrics", cmd_metrics, "score round-trip records")
    p.add_argument("--records",
                   help="TSV of question, decomposition, round-trip question")
    p.add_argument("--out", help="report JSON")

    p = add("synth-eval", cmd_synth_eval,
            "rank gold subsets of synthetic composites")
    p.add_argument("--corpus", help="single-hop corpus JSONL")
    p.add_argument("--index", help="index directory over that corpus")
    p.add_argument("--vectors", help="word-vector file the index was built from")
    p.add_argument("--objective", choices=OBJECTIVES)
    p.add_argument("--n", type=int, choices=(2, 3))
    p.add_argument("--count", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="report JSON")
    p.add_argument("--ranks-out", dest="ranks_out", help="per-question ranks JSON")

    p = add("recompose", cmd_recompose, "ensemble span logits and rank answers")
    p.add_argument("--logits", action="append",
                   help="paragraph logits JSONL (repeatable)")
    p.add_argument("--out", help="ranked spans JSON")

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 1
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # pragma: no cover - defensive
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
