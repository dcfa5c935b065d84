"""Spans around the qdecomp functions the CLI calls, recorded from outside.

The tracer swaps each target function for a timing wrapper in every loaded
qdecomp module that refers to it (the CLI imports names directly, and
synthbench imports retrieval's private scan), so the package itself is not
edited. Spans are kept in memory as (name, start, end, parent, pass id) and
turned into per-layer metrics and a JSON dump at the end of the run.

A span opened on a worker thread with no open span of its own takes the main
thread's innermost open span as its parent: the decompose thread pool runs
while the main thread waits inside build_pseudo_decomposition_dataset.
"""

import functools
import math
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict


class Span:
    __slots__ = ("name", "parent", "pass_id", "start", "end", "note")

    def __init__(self, name, parent, pass_id):
        self.name = name
        self.parent = parent
        self.pass_id = pass_id
        self.start = self.end = 0.0
        self.note = None

    @property
    def seconds(self):
        return self.end - self.start


def _subcommand(args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv")
    return argv[0]


def _dataset_counts(args, kwargs, result):
    return {"attempted": len(args[0]), "failed": len(result.failures),
            "modes": Counter(d.search_mode for _, d in result.records)}


def _rank_outcome(args, kwargs, result):
    objective, _, gold, index, _, k = args[:6]
    worst = math.comb(min(k, len(index)), len(gold)) + 1
    return {"objective": objective, "in_pool": result < worst}


def _general_label(args, kwargs, result):
    n = args[3] if len(args) > 3 else kwargs["n"]
    return f"general{n}"


# (module, function, span name, note taken from (args, kwargs, result))
TARGETS = (
    ("cli", "main", "cli.main", _subcommand),
    ("corpus", "extract_candidate_questions", "corpus.extract", None),
    ("corpus", "load_corpus", "corpus.load", None),
    ("corpus", "save_corpus", "corpus.save", None),
    ("embeddings", "load_vector_table", "embeddings.load_vector_table",
     lambda a, k, r: len(r)),
    ("classifier", "train_classifier", "classifier.train", None),
    ("classifier", "route_mined_questions", "classifier.route", None),
    ("classifier", "load_classifier", "classifier.load", None),
    ("classifier", "save_classifier", "classifier.save", None),
    ("retrieval", "build_index", "retrieval.build_index",
     lambda a, k, r: len(r)),
    ("retrieval", "save_index", "retrieval.save_index", None),
    ("retrieval", "load_index", "retrieval.load_index", None),
    ("retrieval", "build_pseudo_decomposition_dataset", "retrieval.dataset",
     _dataset_counts),
    ("retrieval", "pseudo_decompose_fixed", "retrieval.select",
     lambda a, k, r: "fixed2"),
    ("retrieval", "pseudo_decompose_general", "retrieval.select",
     _general_label),
    ("retrieval", "pseudo_decompose_variable", "retrieval.select",
     lambda a, k, r: "variable"),
    # pseudo_decompose_* and decomposition_rank reach the scan through the
    # private _topk_rows, not through topk_candidates.
    ("retrieval", "_topk_rows", "retrieval.topk", None),
    ("retrieval", "write_dataset_tsv", "retrieval.write_tsv", None),
    ("retrieval", "read_dataset_tsv", "retrieval.read_tsv", None),
    ("editing", "split_sub_question_texts", "editing.split", None),
    ("editing", "edit_sub_question_texts", "editing.edit", None),
    ("noising", "noise_tokens", "noising.noise", None),
    ("metrics", "roundtrip_report", "metrics.roundtrip_report", None),
    ("recompose", "read_logits_jsonl", "recompose.read", None),
    ("recompose", "ensemble_average", "recompose.ensemble", None),
    ("recompose", "span_probabilities", "recompose.span_probabilities", None),
    ("recompose", "predict_answer", "recompose.predict", None),
    ("synthbench", "build_synthetic_compositional", "synthbench.build", None),
    ("synthbench", "mrr_eval", "synthbench.mrr_eval", None),
    ("synthbench", "decomposition_rank", "synthbench.rank", _rank_outcome),
)


# Spans whose time, summed per pass, is reported under a layer metric.
LAYER_TOTALS = {
    "corpus.extract": "corpus.extract_s",
    "corpus.load": "corpus.load_s",
    "embeddings.load_vector_table": "embeddings.load_vector_table_s",
    "classifier.train": "classifier.train_s",
    "classifier.route": "classifier.route_s",
    "classifier.load": "classifier.load_s",
    "retrieval.build_index": "retrieval.build_index_s",
    "retrieval.save_index": "retrieval.save_index_s",
    "retrieval.load_index": "retrieval.load_index_s",
    "editing.split": "editing.edit_s",
    "editing.edit": "editing.edit_s",
    "noising.noise": "noising.noise_s",
    "metrics.roundtrip_report": "metrics.roundtrip_report_s",
}
COUNTS = frozenset(("retrieval.decompose.attempted",
                    "retrieval.decompose.failed",
                    "retrieval.search_mode.exhaustive",
                    "retrieval.search_mode.greedy", "retrieval.index_rows"))


class Tracer:
    def __init__(self):
        self.spans = []
        self.pass_id = None
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = []
        self._restore = []

    def _stack(self):
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, note):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            outer = stack or tracer._main_stack
            span = Span(name, outer[-1] if outer else None, tracer.pass_id)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if note is not None:
                span.note = note(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every target in every qdecomp module that binds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "qdecomp" or n.startswith("qdecomp.")]
        for mod_name, attr, span_name, note in TARGETS:
            original = getattr(sys.modules[f"qdecomp.{mod_name}"], attr)
            wrapped = self._wrap(span_name, original, note)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                        self._restore.append((module, key, original))

    def uninstall(self):
        for module, key, original in reversed(self._restore):
            setattr(module, key, original)
        self._restore.clear()

    def dump(self):
        """Spans as plain lists, parents given by position in the list."""
        pos = {id(s): i for i, s in enumerate(self.spans)}
        return [[s.name, s.start, s.end,
                 pos.get(id(s.parent)) if s.parent is not None else None,
                 s.pass_id, s.note if isinstance(s.note, (str, int)) else None]
                for s in self.spans]


def _covered(span, children):
    """Length of the union of the children's intervals inside the span."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted((max(c.start, span.start), min(c.end, span.end))
                         for c in children):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def tail(values):
    """(level, value) of the highest percentile with at least ten samples
    beyond it; the maximum (level 100) below 20 samples, where that
    percentile would fall under the median."""
    n = len(values)
    ordered = sorted(values)
    if n < 20:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def layer_metrics(spans):
    """Per-layer metrics from the spans of the traced passes.

    ``*_s`` values are seconds per pass over the workload's CLI chain (the
    median across traced passes); ``*_ms`` values are per call, pooled over
    the passes. Returns {name: (value, unit)} plus a list of report-only
    notes (tail percentiles with their sample counts).
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)].append(s)
    passes = sorted({s.pass_id for s in spans})
    per_pass = defaultdict(lambda: defaultdict(float))
    layer_self = defaultdict(lambda: defaultdict(float))
    per_call = defaultdict(list)
    counts = Counter()
    words = busy = 0.0
    question_s = dataset_s = 0.0
    for s in spans:
        sums = per_pass[s.pass_id]
        kids = children[id(s)]
        layer = s.name.split(".")[0]
        self_s = s.seconds - _covered(s, kids)
        layer_self[s.pass_id][layer] += self_s
        if s.name == "cli.main":
            sums[f"cli.{s.note}_s"] += s.seconds
            sums["cli.self_s"] += self_s
        elif s.name == "retrieval.topk":
            per_call["retrieval.topk_ms"].append(1e3 * s.seconds)
        elif s.name == "retrieval.select":
            if s.parent is not None and s.parent.name == "retrieval.select":
                continue  # general with n=2 delegates to fixed2
            scan = sum(c.seconds for c in kids if c.name == "retrieval.topk")
            ms = 1e3 * (s.seconds - scan)
            per_call["retrieval.select_ms"].append(ms)
            per_call[f"retrieval.select_ms.{s.note}"].append(ms)
            question_s += s.seconds
        elif s.name == "retrieval.dataset":
            dataset_s += s.seconds
            sums["retrieval.decompose.attempted"] += s.note["attempted"]
            sums["retrieval.decompose.failed"] += s.note["failed"]
            for mode in ("exhaustive", "greedy"):
                sums[f"retrieval.search_mode.{mode}"] += s.note["modes"][mode]
        elif s.name == "retrieval.build_index":
            sums["retrieval.index_rows"] = s.note
        elif s.name == "embeddings.load_vector_table":
            words += s.note
            busy += s.seconds
        elif s.name == "synthbench.rank":
            objective = s.note["objective"]
            per_call[f"synthbench.rank_ms.{objective}"].append(1e3 * s.seconds)
            counts["rank"] += 1
            counts["in_pool"] += s.note["in_pool"]
        if s.parent is None or s.parent.name.split(".")[0] != layer:
            # time entering a layer from outside it, so nested calls
            # within one layer are counted once
            key = "recompose.s" if layer == "recompose" else LAYER_TOTALS.get(
                s.name)
            if key is not None:
                sums[key] += s.seconds

    names = set()
    for sums in per_pass.values():
        names.update(sums)
    out = {}
    for name in sorted(names):
        out[name] = (statistics.median(per_pass[p].get(name, 0.0)
                                       for p in passes),
                     "count" if name in COUNTS else "s")
    layers = set()
    for sums in layer_self.values():
        layers.update(sums)
    for layer in sorted(layers):
        out[f"layer.{layer}.self_s"] = (statistics.median(
            layer_self[p].get(layer, 0.0) for p in passes), "s")
    notes = []
    for name, values in sorted(per_call.items()):
        out[name] = (statistics.median(values), "ms")
        level, value = tail(values)
        out[f"{name}.tail"] = (value, "ms")
        notes.append(f"{name}: median {statistics.median(values):.4g} ms, "
                     f"p{level:.1f} {value:.4g} ms, n={len(values)}")
    if busy > 0:
        out["embeddings.vec_words_per_s"] = (words / busy, "words/s")
    if dataset_s > 0:
        out["retrieval.decompose.parallelism"] = (question_s / dataset_s,
                                                  "ratio")
    if counts["rank"]:
        out["synthbench.gold_in_pool_frac"] = (
            counts["in_pool"] / counts["rank"], "fraction")
    return out, notes
