"""Command-line pipeline: extract, train-classifier, classify, route,
build-index, decompose, edit, noise, metrics, synth-eval, recompose.

Every subcommand body runs inside one _Run: the inputs are hashed on a worker
thread while the command reads them, each output (a file, or build-index's
directory) is written beside its target, and only once the body succeeds,
every input is hashed and every target is checked are the outputs renamed
into place, then the manifest JSON (config snapshot, seed, input digests)
next to the primary output, last. So a failed run changes no file and a
manifest records each input as it was read. Flags can be pre-filled from a
JSON config file or a previous manifest via --config; explicit flags win.
Exit codes: 0 success, 1 usage error, 2 data or validation error, 3
internal error.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import shutil
import sys
import threading
import traceback
from concurrent.futures import ThreadPoolExecutor

from . import __version__
from .classifier import (TrainingConfig, evaluate_classifier,
                         load_classifier, predict, route_mined_questions,
                         save_classifier, train_classifier)
from .corpus import (DEFAULT_WH_WORDS, Question, QuestionCorpus,
                     extract_candidate_questions, load_corpus, read_json,
                     read_lines, read_tsv, save_corpus, write_json,
                     write_jsonl, write_tsv)
from .editing import edit_sub_question_texts, split_sub_question_texts
from .embeddings import load_vector_table, vector_file_dim
from .metrics import RoundTripRecord, roundtrip_report
from .noising import NoiseConfig, noise_corpus
from .recompose import ensemble_average, ranked_spans, read_logits_jsonl
from .retrieval import (DecomposeConfig, LengthFilter, METHODS, OBJECTIVES,
                        build_index, build_pseudo_decomposition_dataset,
                        load_index, read_dataset_tsv, save_index,
                        write_dataset_tsv)
from .rng import substream
from .synthbench import build_synthetic_compositional, mrr_eval


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _progress(message):
    print(message, file=sys.stderr)


class _Stopped(Exception):
    """A digest abandoned because its run ended first."""


def _digest_file(path, stop=None):
    """sha256 of a file, read through one reused 256 KB buffer (a 1 MB one
    adds about 1 MB to the peak resident set of a run whose peak falls while
    its inputs are hashed); raises _Stopped between chunks once the event
    stop is set."""
    h = hashlib.sha256()
    buf = bytearray(1 << 18)
    view = memoryview(buf)
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(buf):
            if stop is not None and stop.is_set():
                raise _Stopped(path)
            h.update(view[:n])
    return h.hexdigest()


def _digest_path(path, stop=None):
    if os.path.isdir(path):
        h = hashlib.sha256()
        for name in sorted(os.listdir(path)):
            sub = os.path.join(path, name)
            if os.path.isfile(sub):
                h.update(name.encode("utf-8"))
                h.update(_digest_file(sub, stop).encode("ascii"))
        return h.hexdigest()
    return _digest_file(path, stop)


def _beside(path):
    """A fresh hidden temp name in path's directory."""
    parent, base = os.path.split(os.path.abspath(path))
    return os.path.join(parent, f".{base}.{os.urandom(6).hex()}.tmp")


class _Run:
    """One subcommand run: hashes its inputs, stages its outputs and commits
    them with the manifest.

    The inputs (files or directories) are hashed in order, one future each, on
    a one-thread executor while the command reads them (file reads and hashlib
    release the GIL, so both use a core). output(path) gives a temp path beside
    path for the command to write a file or a directory to; two outputs of the
    run, the manifest included, that resolve to the same path are a usage
    error. When the block completes, the run waits for every digest and checks
    every target: an existing directory can be replaced only by a staged
    directory that has every name it has, so a directory holding other files is
    refused. Then it writes the manifest to its own temp file and renames the
    outputs over their targets in the order they were opened, the manifest
    last; an existing directory is first renamed aside, and removed once the
    run ends. No input is touched before that, so the manifest records each
    input as it was read. When the block fails, the digests are stopped, the
    worker is joined and every staged output is removed: no thread outlives the
    command and no file is changed, and a data error that names a staged
    temp path names its target instead.
    """

    def __init__(self, opts, subcommand, primary_out, *inputs):
        self._opts, self._subcommand = opts, subcommand
        self._stop = threading.Event()
        self._staged = {}  # real path -> (temp path, target), manifest first
        self._aside = []  # replaced directories, removed as the run ends
        self.output(opts["manifest"] or f"{primary_out}.manifest.json")
        self._pool = pool = ThreadPoolExecutor(
            1, thread_name_prefix="qdecomp-digests")
        self._digests = {path: pool.submit(_digest_path, path, self._stop)
                         for path in dict.fromkeys(inputs)}

    def get(self, path):
        """The sha256 of input path, once hashed; a failed digest raises its
        error."""
        return self._digests[path].result()

    def output(self, path):
        """A temp path beside path, renamed over it when the run commits."""
        real = os.path.realpath(path)
        if real in self._staged:
            raise UsageError(f"{path} is the target of two outputs of one run")
        tmp = _beside(path)
        self._staged[real] = tmp, path
        return tmp

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        try:
            if exc_type is None:
                self._commit()
        except (ValueError, OSError) as error:
            exc = error
        finally:
            self._stop.set()
            self._pool.shutdown(cancel_futures=True)
            for tmp in [tmp for tmp, _ in self._staged.values()] + self._aside:
                if os.path.isdir(tmp):
                    shutil.rmtree(tmp, ignore_errors=True)
                elif os.path.exists(tmp):
                    os.remove(tmp)
        if isinstance(exc, (ValueError, OSError)):
            text = str(exc)
            for tmp, path in self._staged.values():
                text = text.replace(tmp, path)
            raise ValueError(text) from None

    def _commit(self):
        staged = list(self._staged.values())
        for tmp, path in staged:
            if os.path.isdir(path):
                if not os.path.isdir(tmp):
                    raise ValueError(f"{path} is a directory; choose another "
                                     f"output path")
                other = sorted(set(os.listdir(path)) - set(os.listdir(tmp)))
                if other:
                    raise ValueError(f"{path}: holds files this run does not "
                                     f"write ({', '.join(other)}); choose "
                                     f"another output directory")
        write_json({
            "schema_version": 1,
            "tool": "qdecomp",
            "version": __version__,
            "subcommand": self._subcommand,
            "config": {k: v for k, v in self._opts.items() if k != "manifest"},
            "inputs": {path: self.get(path) for path in self._digests},
        }, staged[0][0], indent=2)
        for tmp, path in staged[1:] + staged[:1]:
            if os.path.isdir(path):
                aside = _beside(path)
                os.rename(path, aside)
                os.rename(tmp, path)
                self._aside.append(aside)  # not if the new one failed
            else:
                os.replace(tmp, path)


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


def _field_options(config_class, **extras):
    """One option row per field of config_class: flag --field-name, the
    field's default, type= its type for a number, and the argparse keywords
    extras[field name] (choices, help)."""
    rows = []
    for field in dataclasses.fields(config_class):
        keywords = dict(extras.get(field.name, {}))
        if isinstance(field.default, (int, float)):
            keywords["type"] = type(field.default)
        rows.append(_opt(f"--{field.name.replace('_', '-')}", field.default,
                         **keywords))
    return tuple(rows)


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


def _check_utf8(name, value):
    """A usage error naming name when a string, or a list's string, holds a
    lone surrogate (an argv byte not UTF-8, or a config "\\udcff" escape)."""
    for item in value if isinstance(value, list) else [value]:
        try:
            str(item).encode("utf-8")
        except UnicodeEncodeError:
            raise UsageError(f"{name}: value {item!r} is not valid UTF-8, so "
                             f"no manifest can record it") from None


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

    A value that breaks a rule or is not UTF-8, an unknown key and a missing
    required option are usage errors, raised before any input is read.
    """
    options = COMMANDS[args.command][2]
    rows = {_dest(flag): (flag, kw) for flag, _, kw in options}
    given = _given(args)
    config_path = given.pop("config", None)
    for key, value in given.items():
        _check_utf8(rows[key][0], value)
    opts = {_dest(flag): None if default is REQUIRED else default
            for flag, default, _ in options if flag != "--config"}
    if config_path:
        cfg = read_json(config_path)
        if isinstance(cfg, dict) and "config" in cfg and "subcommand" in cfg:
            cfg = cfg["config"]  # accept a previous run's manifest
        if not isinstance(cfg, dict):
            raise UsageError(f"{config_path}: config must be a JSON object")
        unknown = set(cfg) - set(opts)
        if unknown:
            raise UsageError(
                f"{config_path}: unknown config keys: {sorted(unknown)}")
        for key, value in cfg.items():
            if value is None:
                continue
            _check_utf8(f"{config_path}: key {key!r}", value)
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


def _checked(config_class, opts):
    """config_class built from the options named like its fields; a value it
    rejects is a usage error."""
    try:
        return config_class(**{field.name: opts[field.name]
                               for field in dataclasses.fields(config_class)})
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
               help="drop exact duplicate lines"))
def cmd_extract(opts):
    wh = frozenset(w.strip().lower() for w in opts["wh_words"].split(",")
                   if w.strip())
    with _Run(opts, "extract", opts["out"], opts["lines"]) as run:
        lines = [line for _, line in read_lines(opts["lines"])]
        questions = extract_candidate_questions(lines, wh_words=wh,
                                                id_prefix=opts["id_prefix"],
                                                dedup=opts["dedup"])
        save_corpus(questions, run.output(opts["out"]))
    _progress(f"extract: kept {len(questions)} of {len(lines)} lines")
    return 0


def _split_holdout(corpus, fraction, rng):
    """(train, held-out) corpora: a random fraction of the rows is held
    out, and both parts keep the corpus order."""
    n_hold = int(round(fraction * len(corpus)))
    held = set(rng.permutation(len(corpus))[:n_hold].tolist())
    return (corpus.take([r for r in range(len(corpus)) if r not in held]),
            corpus.take(sorted(held)))


@_command("train-classifier", "train the question-type classifier",
          _opt("--labeled", REQUIRED, action="append", metavar="LABEL=PATH",
               help="labeled corpus (repeatable)"),
          _opt("--out", REQUIRED, help="model output path"),
          _opt("--report", help="training report JSON path"),
          *_field_options(TrainingConfig),
          _opt("--holdout", 0.1, type=float,
               help="held-out fraction per corpus for evaluation"))
def cmd_train_classifier(opts):
    pairs = []
    for spec in opts["labeled"]:
        label, sep, path = spec.partition("=")
        if not sep or not label or not path:
            raise UsageError(f"--labeled expects LABEL=PATH, got {spec!r}")
        if label in dict(pairs):
            raise UsageError(f"--labeled repeats the label {label!r}")
        pairs.append((label, path))
    if not 0.0 <= opts["holdout"] < 1.0:
        raise UsageError("--holdout must be in [0, 1)")
    config = _checked(TrainingConfig, opts)
    train_sets = []
    heldout_sets = []
    rng = substream(opts["seed"], "classifier-split")
    with _Run(opts, "train-classifier", opts["out"],
              *(path for _, path in pairs)) as run:
        for label, path in pairs:
            corpus = load_corpus(path)
            train, hold = _split_holdout(corpus, opts["holdout"], rng)
            if not len(train):
                raise ValueError(f"{path}: no training question for label "
                                 f"{label!r}: --holdout {opts['holdout']} "
                                 f"holds out {len(hold)} of {len(corpus)}")
            if not any(train.tokens):
                raise ValueError(f"{path}: no training text for label "
                                 f"{label!r} holds a token")
            train_sets.append((train, label))
            if len(hold):
                heldout_sets.append((hold, label))
        model = train_classifier(train_sets, config)
        save_classifier(model, run.output(opts["out"]))
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
            write_json(report, run.output(opts["report"]), indent=2)
    print(json.dumps(report, sort_keys=True))
    _progress(f"train-classifier: {report['train_examples']} train examples, "
              f"heldout accuracy {report['heldout_accuracy']}")
    return 0


@_command("classify", "label a corpus with a trained model",
          _opt("--model", REQUIRED),
          _opt("--corpus", REQUIRED),
          _opt("--out", REQUIRED, help="predictions JSONL"))
def cmd_classify(opts):
    with _Run(opts, "classify", opts["out"], opts["model"],
              opts["corpus"]) as run:
        model = load_classifier(opts["model"])
        corpus = load_corpus(opts["corpus"])
        write_jsonl(({"id": qid,
                      "label": pred.label,
                      "degenerate": pred.degenerate,
                      "probabilities": [float(p) for p in pred.probabilities]}
                     for qid, pred in zip(corpus.ids,
                                          predict(model, corpus.tokens))),
                    run.output(opts["out"]))
    _progress(f"classify: labeled {len(corpus)} questions")
    return 0


@_command("route", "partition mined questions by predicted label",
          _opt("--model", REQUIRED),
          _opt("--mined", REQUIRED, help="mined corpus JSONL"),
          _opt("--single-label", REQUIRED),
          _opt("--multi-label", REQUIRED),
          _opt("--out-single", REQUIRED),
          _opt("--out-multi", REQUIRED))
def cmd_route(opts):
    if opts["single_label"] == opts["multi_label"]:
        raise UsageError(f"--single-label and --multi-label are both "
                         f"{opts['single_label']!r}")
    with _Run(opts, "route", opts["out_single"], opts["model"],
              opts["mined"]) as run:
        model = load_classifier(opts["model"])
        mined = load_corpus(opts["mined"])
        to_single, to_multi = route_mined_questions(model, mined,
                                                    opts["single_label"],
                                                    opts["multi_label"])
        save_corpus(mined.take(to_single), run.output(opts["out_single"]))
        save_corpus(mined.take(to_multi), run.output(opts["out_multi"]))
    counts = {"single": len(to_single), "multi": len(to_multi),
              "discarded": len(mined) - len(to_single) - len(to_multi)}
    print(json.dumps(counts, sort_keys=True))
    _progress(f"route: {counts}")
    return 0


@_command("build-index", "embed a corpus into an index",
          _opt("--corpus", REQUIRED, action="append",
               help="corpus JSONL (repeatable)"),
          _opt("--vectors", REQUIRED, help="word-vector text file"),
          _opt("--out", REQUIRED, help="index output directory"),
          *_field_options(LengthFilter),
          _opt("--no-length-filter", False, action="store_true"))
def cmd_build_index(opts):
    filters = (None if opts["no_length_filter"]
               else _checked(LengthFilter, opts))
    with _Run(opts, "build-index", opts["out"], opts["vectors"],
              *opts["corpus"]) as run:
        corpus = load_corpus(*opts["corpus"])
        table = load_vector_table(opts["vectors"])
        index = build_index(corpus, table, filters)
        save_index(index, run.output(opts["out"]), run.get(opts["vectors"]))
    _progress(f"build-index: {len(index)} rows, {index.oov_excluded} without "
              f"vocabulary, {index.filtered_out} outside length bounds")
    return 0


def _load_bound_index(opts, run):
    """The --index, with the word vectors stored in it; --vectors, hashed by
    run, must be the file the index was built from."""
    try:
        index = load_index(opts["index"])
    finally:  # a bad --vectors is reported first, whatever else is wrong
        digest = run.get(opts["vectors"])
    if digest != index.vectors_sha256:
        dim = vector_file_dim(opts["vectors"])
        rows = "no vector rows" if dim is None else f"dimension {dim}"
        raise ValueError(
            f"{opts['vectors']} (sha256 {digest}, {rows}) is not the "
            f"word-vector file index {opts['index']} was built from (sha256 "
            f"{index.vectors_sha256}, dimension {index.vectors.dim})")
    return index


@_command("decompose", "retrieve pseudo-decompositions",
          _opt("--questions", REQUIRED, help="questions corpus JSONL"),
          _opt("--index", REQUIRED, help="index directory"),
          _opt("--vectors", REQUIRED,
               help="word-vector file the index was built from"),
          _opt("--out", REQUIRED, help="output TSV"),
          *_field_options(
              DecomposeConfig, method={"choices": METHODS},
              n={"help": "subset size for general/random"},
              max_n={"help": "largest subset size for variable"},
              workers={"help": "accepted and checked (at least 1) for "
                               "existing scripts; retrieval runs on the main "
                               "thread and input digests on one worker "
                               "thread, whatever the value"}))
def cmd_decompose(opts):
    config = _checked(DecomposeConfig, opts)
    with _Run(opts, "decompose", opts["out"], opts["vectors"],
              opts["questions"], opts["index"]) as run:
        index = _load_bound_index(opts, run)
        questions = load_corpus(opts["questions"])
        result = build_pseudo_decomposition_dataset(questions, index, config)
        if result.failures and not result.records:
            qid, reason = result.failures[0]
            raise ValueError(f"{opts['questions']}: skipped all "
                             f"{len(result.failures)} questions, so no "
                             f"dataset is written; first skip {qid}: {reason}")
        write_dataset_tsv(result.records, run.output(opts["out"]))
    for qid, reason in result.failures:
        _progress(f"decompose: skipped {qid}: {reason}")
    _progress(f"decompose: wrote {len(result.records)} records, "
              f"skipped {len(result.failures)}")
    return 0


@_command("edit", "rewrite decomposition entities in a dataset",
          _opt("--decompositions", REQUIRED,
               help="dataset TSV from decompose"),
          _opt("--out", REQUIRED, help="edited TSV"))
def cmd_edit(opts):
    with _Run(opts, "edit", opts["out"], opts["decompositions"]) as run:
        rows = read_dataset_tsv(opts["decompositions"])
        for fields in rows:
            question = Question.from_text(fields[0], fields[1])
            subs = split_sub_question_texts(fields[2])
            fields[2] = " ".join(edit_sub_question_texts(question, subs))
        write_tsv(rows, run.output(opts["out"]))
    _progress(f"edit: rewrote {len(rows)} decompositions")
    return 0


@_command("noise", "apply token noise to a corpus",
          _opt("--corpus", REQUIRED),
          _opt("--out", REQUIRED),
          *_field_options(NoiseConfig))
def cmd_noise(opts):
    config = _checked(NoiseConfig, opts)
    with _Run(opts, "noise", opts["out"], opts["corpus"]) as run:
        corpus = load_corpus(opts["corpus"])
        noised = map(" ".join, noise_corpus(corpus.tokens, config))
        save_corpus(QuestionCorpus(corpus.ids, noised),
                    run.output(opts["out"]))
    _progress(f"noise: rewrote {len(corpus)} questions")
    return 0


@_command("metrics", "score round-trip records",
          _opt("--records", REQUIRED,
               help="TSV of question, decomposition, round-trip question"),
          _opt("--out", REQUIRED, help="report JSON"))
def cmd_metrics(opts):
    with _Run(opts, "metrics", opts["out"], opts["records"]) as run:
        # columns: question, decomposition, round trip
        records = []
        for lineno, fields in read_tsv(opts["records"], 3):
            question = Question.from_text(f"r{lineno:08d}", fields[0])
            if not question.tokens:
                raise ValueError(f"{opts['records']}:{lineno}: question has "
                                 f"no tokens")
            records.append(RoundTripRecord(question, fields[1], fields[2]))
        payload = dataclasses.asdict(roundtrip_report(records))
        write_json(payload, run.output(opts["out"]), indent=2)
    print(json.dumps(payload, sort_keys=True))
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
    ranks_path = opts["ranks_out"] or f"{opts['out']}.ranks.json"
    with _Run(opts, "synth-eval", opts["out"], opts["vectors"],
              opts["corpus"], opts["index"]) as run:
        index = _load_bound_index(opts, run)
        corpus = load_corpus(opts["corpus"])
        pool = corpus.take([row for row, qid in enumerate(corpus.ids)
                            if qid in index])
        if len(pool) < opts["n"]:
            raise ValueError(f"{opts['corpus']} shares {len(pool)} question "
                             f"ids with index {opts['index']}, need "
                             f"{opts['n']}")
        benchmark = build_synthetic_compositional(pool, opts["n"],
                                                  opts["count"], opts["seed"])
        report = mrr_eval(opts["objective"], benchmark, index, opts["k"])
        write_json(list(report.ranks), run.output(ranks_path), indent=2)
        payload = {
            "objective": report.objective,
            "n": opts["n"],
            "K": report.k,
            "mrr": report.mrr,
            "per_question_ranks_path": ranks_path,
        }
        write_json(payload, run.output(opts["out"]), indent=2)
    print(json.dumps(payload, sort_keys=True))
    return 0


@_command("recompose", "ensemble span logits and rank answers",
          _opt("--logits", REQUIRED, action="append",
               help="paragraph logits JSONL (repeatable)"),
          _opt("--out", REQUIRED, help="ranked spans JSON"))
def cmd_recompose(opts):
    with _Run(opts, "recompose", opts["out"], *opts["logits"]) as run:
        sets = [read_logits_jsonl(path) for path in opts["logits"]]
        ranked = ranked_spans(ensemble_average(sets))
        pid, sid, _ = ranked[0]
        payload = {
            "prediction": {"paragraph_id": pid, "span_id": sid},
            "ranked_spans": [{"paragraph_id": p, "span_id": s,
                              "probability": pr} for p, s, pr in ranked],
        }
        write_json(payload, run.output(opts["out"]), indent=2)
    print(json.dumps(payload["prediction"], sort_keys=True))
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # pragma: no cover - defensive
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
