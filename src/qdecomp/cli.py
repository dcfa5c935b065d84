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
from .embeddings import load_vector_table, vector_file_dim
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


def _write_json(payload, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, ensure_ascii=False, sort_keys=True, indent=2)
        fh.write("\n")


def _write_manifest(opts, subcommand, inputs, primary_out, digests=None):
    """Write the run's manifest; digests holds inputs already hashed."""
    digests = digests or {}
    payload = {
        "schema_version": 1,
        "tool": "qdecomp",
        "version": __version__,
        "subcommand": subcommand,
        "config": {k: v for k, v in opts.items() if k != "manifest"},
        "inputs": {p: digests.get(p) or _digest_path(p)
                   for p in inputs if p},
    }
    _write_json(payload, opts["manifest"] or f"{primary_out}.manifest.json")


# ---------------------------------------------------------------------------
# option declarations

REQUIRED = object()  # default of an option that must be given
COMMANDS = {}  # subcommand -> (function, help text, option rows)


def _opt(flag, default=None, **keywords):
    """One option row: flag, default, argparse keywords (type, choices,
    action, help). Its key in opts and in config files is the flag's dest."""
    return flag, default, keywords


def _dest(flag):
    return flag[2:].replace("-", "_")


_COMMON = (_opt("--config", help="JSON config file or previous manifest"),
           _opt("--manifest", help="manifest output path"))


def _command(name, help_text, *options):
    def register(func):
        COMMANDS[name] = (func, help_text, _COMMON + options)
        return func
    return register


def _given(namespace):
    return {k: v for k, v in vars(namespace).items()
            if k not in ("func", "command")}


def _config_tokens(flag, keywords, value):
    """argv tokens for one config value; a wrong JSON type is a usage error."""
    action = keywords.get("action")
    if action == "store_true":
        ok, kind = isinstance(value, bool), "true or false"
        tokens = [flag] if value is True else []
    elif action == "append":
        ok = isinstance(value, list) and all(isinstance(v, str) for v in value)
        kind = "a list of strings"
        tokens = [f"{flag}={v}" for v in value] if ok else []
    else:
        numeric = "type" in keywords
        ok = (not isinstance(value, bool)
              and isinstance(value, (int, float) if numeric else str))
        kind = "a number" if numeric else "a string"
        tokens = [f"{flag}={value}"]
    if not ok:
        raise UsageError(f"{flag} takes {kind}, got {json.dumps(value)}")
    return tokens


def _resolve(parser, args):
    """Merge defaults, then --config values, then explicitly passed flags.

    A config file is a JSON object keyed by option dest, or a previous run's
    manifest, whose "config" object is used. Each value is turned into argv
    tokens and parsed by the subcommand's own parser, so it passes exactly
    the checks of its flag:

    - null means the option was not given, so its default applies;
    - a switch (--dedup, --no-length-filter) takes true or false;
    - a repeatable flag (--labeled, --corpus, --logits) takes a list of
      strings, and the same flag on the command line replaces the list;
    - an option with a numeric type takes a number and any other option a
      string, parsed by the flag's type= and choices=; booleans, lists and
      objects are rejected.

    A value that breaks a rule, an unknown key and a missing required option
    are usage errors, raised before any input is read.
    """
    options = COMMANDS[args.command][2]
    given = _given(args)
    config_path = given.pop("config", None)
    opts = {_dest(flag): None if default is REQUIRED else default
            for flag, default, _ in options if flag != "--config"}
    if config_path:
        with open(config_path, encoding="utf-8") as fh:
            cfg = json.load(fh)
        if isinstance(cfg, dict) and "config" in cfg and "subcommand" in cfg:
            cfg = cfg["config"]  # accept a previous run's manifest
        if not isinstance(cfg, dict):
            raise UsageError(f"{config_path}: config must be a JSON object")
        unknown = set(cfg) - set(opts)
        if unknown:
            raise UsageError(
                f"{config_path}: unknown config keys: {sorted(unknown)}")
        rows = {_dest(flag): (flag, kw) for flag, _, kw in options}
        for key, value in cfg.items():
            if value is None:
                continue
            try:
                tokens = _config_tokens(*rows[key], value)
                opts.update(_given(parser.parse_args([args.command] + tokens)))
            except UsageError as exc:
                raise UsageError(f"{config_path}: key {key!r}: {exc}") from exc
    opts.update(given)
    for flag, default, _ in options:
        if default is REQUIRED and opts[_dest(flag)] in (None, []):
            raise UsageError(f"missing required option {flag}")
    return opts


def _checked(config_class, **fields):
    """A validated config object; a value it rejects is a usage error."""
    try:
        return config_class(**fields)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


# ---------------------------------------------------------------------------
# subcommands

@_command("extract", "harvest question lines from raw text",
          _opt("--lines", REQUIRED,
               help="input text file, one sentence per line"),
          _opt("--out", REQUIRED, help="output corpus JSONL"),
          _opt("--wh-words", ",".join(sorted(DEFAULT_WH_WORDS)),
               help="comma-separated question-word list"),
          _opt("--id-prefix", "", help="id namespace prefix"),
          _opt("--dedup", False, action="store_true",
               help="drop exact duplicate lines"),
          _opt("--label", help="corpus label"))
def cmd_extract(opts):
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
    _write_manifest(opts, "extract", [opts["lines"]], opts["out"])
    return 0


def _split_holdout(corpus, fraction, rng):
    n_hold = int(round(fraction * len(corpus)))
    perm = rng.permutation(len(corpus))
    hold_idx = set(int(i) for i in perm[:n_hold])
    train = tuple(q for i, q in enumerate(corpus) if i not in hold_idx)
    hold = tuple(q for i, q in enumerate(corpus) if i in hold_idx)
    return train, hold


@_command("train-classifier", "train the question-type classifier",
          _opt("--labeled", REQUIRED, action="append", metavar="LABEL=PATH",
               help="labeled corpus (repeatable)"),
          _opt("--out", REQUIRED, help="model output path"),
          _opt("--report", help="training report JSON path"),
          _opt("--dim", 32, type=int),
          _opt("--epochs", 5, type=int),
          _opt("--learning-rate", 0.1, type=float),
          _opt("--batch-size", 8, type=int),
          _opt("--min-count", 1, type=int),
          _opt("--holdout", 0.1, type=float,
               help="held-out fraction per corpus for evaluation"),
          _opt("--seed", 0, type=int))
def cmd_train_classifier(opts):
    pairs = []
    for spec in opts["labeled"]:
        label, sep, path = spec.partition("=")
        if not sep or not label or not path:
            raise UsageError(f"--labeled expects LABEL=PATH, got {spec!r}")
        pairs.append((label, path))
    if not 0.0 <= opts["holdout"] < 1.0:
        raise UsageError("--holdout must be in [0, 1)")
    config = _checked(TrainingConfig, dim=opts["dim"], epochs=opts["epochs"],
                      learning_rate=opts["learning_rate"],
                      batch_size=opts["batch_size"],
                      min_count=opts["min_count"], seed=opts["seed"])
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
    _write_manifest(opts, "train-classifier", [p for _, p in pairs],
                    opts["out"])
    return 0


@_command("classify", "label a corpus with a trained model",
          _opt("--model", REQUIRED),
          _opt("--corpus", REQUIRED),
          _opt("--out", REQUIRED, help="predictions JSONL"))
def cmd_classify(opts):
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
    _write_manifest(opts, "classify", [opts["model"], opts["corpus"]],
                    opts["out"])
    return 0


@_command("route", "partition mined questions by predicted label",
          _opt("--model", REQUIRED),
          _opt("--mined", REQUIRED, help="mined corpus JSONL"),
          _opt("--single-label", REQUIRED),
          _opt("--multi-label", REQUIRED),
          _opt("--out-single", REQUIRED),
          _opt("--out-multi", REQUIRED))
def cmd_route(opts):
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
    _write_manifest(opts, "route", [opts["model"], opts["mined"]],
                    opts["out_single"])
    return 0


@_command("build-index", "embed a corpus into an index",
          _opt("--corpus", REQUIRED, action="append",
               help="corpus JSONL (repeatable)"),
          _opt("--vectors", REQUIRED, help="word-vector text file"),
          _opt("--out", REQUIRED, help="index output directory"),
          _opt("--min-tokens", 4, type=int),
          _opt("--max-tokens", 20, type=int),
          _opt("--no-length-filter", False, action="store_true"))
def cmd_build_index(opts):
    filters = None if opts["no_length_filter"] else _checked(
        LengthFilter, min_tokens=opts["min_tokens"],
        max_tokens=opts["max_tokens"])
    questions = []
    for path in opts["corpus"]:
        questions.extend(load_corpus(path).questions)
    merged = QuestionCorpus(tuple(questions))
    table = load_vector_table(opts["vectors"])
    digest = _digest_file(opts["vectors"])
    index = build_index(merged, table, filters)
    save_index(index, opts["out"], digest)
    _progress(f"build-index: {len(index)} rows, {index.oov_excluded} without "
              f"vocabulary, {index.filtered_out} outside length bounds")
    inputs = list(opts["corpus"]) + [opts["vectors"]]
    _write_manifest(opts, "build-index", inputs, opts["out"],
                    {opts["vectors"]: digest})
    return 0


def _load_bound_index(opts):
    """The --index, with the word vectors stored in it, and the digest of
    --vectors, which must be the file the index was built from."""
    digest = _digest_file(opts["vectors"])
    index = load_index(opts["index"])
    if digest != index.vectors_sha256:
        raise ValueError(
            f"{opts['vectors']} (sha256 {digest}, dimension "
            f"{vector_file_dim(opts['vectors'])}) is not the word-vector file "
            f"index {opts['index']} was built from (sha256 "
            f"{index.vectors_sha256}, dimension {index.vectors.dim})")
    return index, digest


@_command("decompose", "retrieve pseudo-decompositions",
          _opt("--questions", REQUIRED, help="questions corpus JSONL"),
          _opt("--index", REQUIRED, help="index directory"),
          _opt("--vectors", REQUIRED,
               help="word-vector file the index was built from"),
          _opt("--out", REQUIRED, help="output TSV"),
          _opt("--method", "fixed2", choices=METHODS),
          _opt("--k", 1000, type=int),
          _opt("--n", 2, type=int, help="subset size for general/random"),
          _opt("--max-n", 3, type=int,
               help="largest subset size for variable"),
          _opt("--beam-width", 100, type=int),
          _opt("--seed", 0, type=int),
          _opt("--workers", 1, type=int,
               help="accepted and checked (at least 1) for existing "
                    "scripts; decompose runs on one thread"))
def cmd_decompose(opts):
    config = _checked(DecomposeConfig, method=opts["method"], k=opts["k"],
                      n=opts["n"], max_n=opts["max_n"],
                      beam_width=opts["beam_width"], seed=opts["seed"],
                      workers=opts["workers"])
    index, digest = _load_bound_index(opts)
    questions = load_corpus(opts["questions"])
    result = build_pseudo_decomposition_dataset(questions, index,
                                                index.vectors, config)
    write_dataset_tsv(result.records, opts["out"])
    for qid, reason in result.failures:
        _progress(f"decompose: skipped {qid}: {reason}")
    _progress(f"decompose: wrote {len(result.records)} records, "
              f"skipped {len(result.failures)}")
    inputs = [opts["questions"], opts["index"], opts["vectors"]]
    _write_manifest(opts, "decompose", inputs, opts["out"],
                    {opts["vectors"]: digest})
    return 0


@_command("edit", "rewrite decomposition entities in a dataset",
          _opt("--decompositions", REQUIRED,
               help="dataset TSV from decompose"),
          _opt("--out", REQUIRED, help="edited TSV"))
def cmd_edit(opts):
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
    _write_manifest(opts, "edit", [opts["decompositions"]], opts["out"])
    return 0


@_command("noise", "apply token noise to a corpus",
          _opt("--corpus", REQUIRED),
          _opt("--out", REQUIRED),
          _opt("--mask-prob", 0.15, type=float),
          _opt("--drop-prob", 0.1, type=float),
          _opt("--shuffle-window", 3, type=int),
          _opt("--mask-token", "<mask>"),
          _opt("--seed", 0, type=int))
def cmd_noise(opts):
    config = _checked(NoiseConfig, mask_prob=opts["mask_prob"],
                      drop_prob=opts["drop_prob"],
                      shuffle_window=opts["shuffle_window"],
                      mask_token=opts["mask_token"], seed=opts["seed"])
    corpus = load_corpus(opts["corpus"])
    with open(opts["out"], "w", encoding="utf-8") as fh:
        for pos, q in enumerate(corpus):
            rng = substream(config.seed, "noise", pos)
            noisy = noise_tokens(q.tokens, config, rng)
            fh.write(json.dumps({"id": q.id, "text": " ".join(noisy)},
                                ensure_ascii=False, sort_keys=True,
                                separators=(",", ":")))
            fh.write("\n")
    _progress(f"noise: rewrote {len(corpus)} questions")
    _write_manifest(opts, "noise", [opts["corpus"]], opts["out"])
    return 0


@_command("metrics", "score round-trip records",
          _opt("--records", REQUIRED,
               help="TSV of question, decomposition, round-trip question"),
          _opt("--out", REQUIRED, help="report JSON"))
def cmd_metrics(opts):
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
    _write_manifest(opts, "metrics", [opts["records"]], opts["out"])
    return 0


@_command("synth-eval", "rank gold subsets of synthetic composites",
          _opt("--corpus", REQUIRED, help="single-hop corpus JSONL"),
          _opt("--index", REQUIRED, help="index directory over that corpus"),
          _opt("--vectors", REQUIRED,
               help="word-vector file the index was built from"),
          _opt("--objective", REQUIRED, choices=OBJECTIVES),
          _opt("--n", 3, type=int, choices=(2, 3)),
          _opt("--count", 200, type=int),
          _opt("--k", 100, type=int),
          _opt("--seed", 0, type=int),
          _opt("--out", REQUIRED, help="report JSON"),
          _opt("--ranks-out", help="per-question ranks JSON"))
def cmd_synth_eval(opts):
    if opts["k"] < opts["n"]:
        raise UsageError(f"--k {opts['k']} is below --n {opts['n']}: no "
                         f"size-{opts['n']} subset of the top K can be ranked")
    if opts["count"] < 1:
        raise UsageError(f"--count must be at least 1, got {opts['count']}")
    if opts["seed"] < 0:
        raise UsageError(f"--seed must be non-negative, got {opts['seed']}")
    index, digest = _load_bound_index(opts)
    corpus = load_corpus(opts["corpus"])
    pool = QuestionCorpus(tuple(q for q in corpus if q.id in index),
                          label=corpus.label)
    benchmark = build_synthetic_compositional(pool, opts["n"], opts["count"],
                                              opts["seed"])
    report = mrr_eval(opts["objective"], benchmark, index, index.vectors,
                      opts["k"])
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
    _write_manifest(opts, "synth-eval", inputs, opts["out"],
                    {opts["vectors"]: digest})
    return 0


@_command("recompose", "ensemble span logits and rank answers",
          _opt("--logits", REQUIRED, action="append",
               help="paragraph logits JSONL (repeatable)"),
          _opt("--out", REQUIRED, help="ranked spans JSON"))
def cmd_recompose(opts):
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
    _write_manifest(opts, "recompose", list(opts["logits"]), opts["out"])
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser():
    parser = _Parser(prog="qdecomp",
                     description="question decomposition pipeline")
    sub = parser.add_subparsers(dest="command", metavar="SUBCOMMAND")
    for name, (func, help_text, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text,
                           argument_default=argparse.SUPPRESS)
        p.set_defaults(func=func)
        for flag, _, keywords in options:
            p.add_argument(flag, **keywords)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not hasattr(args, "func"):
            parser.print_usage(sys.stderr)
            return 1
        return args.func(_resolve(parser, args))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 1
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # pragma: no cover - defensive
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
