"""The benchmark tracer (perfbench/tracer.py) labels its spans from the
positional and keyword arguments of the functions it wraps. This test runs
the CLI under the tracer, so a signature change that moves one of those
arguments fails here rather than mislabelling a traced benchmark run."""

import importlib
from collections import Counter
from pathlib import Path

from qdecomp import cli
from qdecomp.corpus import QuestionCorpus, save_corpus
from qdecomp.embeddings import save_vector_table
from qdecomp.synthbench import (build_synthetic_compositional,
                                build_synthetic_singlehop_corpus,
                                corpus_vocabulary, synthetic_vector_table)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _indexed(tmp_path):
    """A synthetic corpus, its vector file, corpus file and built index."""
    corpus = build_synthetic_singlehop_corpus(60, seed=41)
    table = synthetic_vector_table(corpus_vocabulary(corpus), dim=24, seed=42)
    vec, single, idx = (tmp_path / "vectors.vec", tmp_path / "single.jsonl",
                        tmp_path / "idx")
    save_vector_table(table, vec)
    save_corpus(corpus, single)
    assert cli.main(["build-index", "--corpus", str(single), "--vectors",
                     str(vec), "--out", str(idx), "--no-length-filter"]) == 0
    return corpus, vec, single, idx


def test_traced_cli_spans_carry_their_labels(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    corpus, vec, single, idx = _indexed(tmp_path)
    traced = tracer.Tracer()
    traced.install()
    try:
        assert cli.main(["decompose", "--questions", str(single), "--index",
                         str(idx), "--vectors", str(vec), "--method",
                         "general", "--n", "3", "--k", "20",
                         "--out", str(tmp_path / "pseudo.tsv")]) == 0
        assert cli.main(["synth-eval", "--corpus", str(single), "--index",
                         str(idx), "--vectors", str(vec), "--objective",
                         "sum-distance", "--n", "3", "--count", "8", "--k",
                         "20", "--out", str(tmp_path / "mrr.json")]) == 0
    finally:
        traced.uninstall()
    capsys.readouterr()
    spans = {}
    for span in traced.spans:
        spans.setdefault(span.name, []).append(span.note)

    # general selections are labelled with their subset size
    assert spans["retrieval.select"]
    assert set(spans["retrieval.select"]) == {"general3"}
    metrics, _ = tracer.layer_metrics(traced.spans)
    assert "retrieval.select_ms.general3" in metrics
    # every rank notes its objective and whether gold was in the pool
    assert len(spans["synthbench.rank"]) == 8
    for note in spans["synthbench.rank"]:
        assert note["objective"] == "sum-distance"
        assert note["in_pool"] in (True, False)
    # the dataset note counts every attempted question
    [dataset] = spans["retrieval.dataset"]
    assert (dataset["attempted"], dataset["failed"]) == (len(corpus), 0)


def test_traced_fixed2_and_variable_runs_time_each_question_once(
        tmp_path, monkeypatch, capsys):
    """fixed2 runs as general at N = 2 with n passed by keyword, so the
    nested general span is labelled general2 and left out of the select
    metrics: each question gets one select time, under its method."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    corpus, vec, single, idx = _indexed(tmp_path)
    for method in ("fixed2", "variable"):
        traced = tracer.Tracer()
        traced.install()
        try:
            assert cli.main(["decompose", "--questions", str(single),
                             "--index", str(idx), "--vectors", str(vec),
                             "--method", method, "--k", "20", "--out",
                             str(tmp_path / f"{method}.tsv")]) == 0
        finally:
            traced.uninstall()
        capsys.readouterr()
        [dataset] = [s.note for s in traced.spans
                     if s.name == "retrieval.dataset"]
        assert (dataset["attempted"], dataset["failed"]) == (len(corpus), 0)
        selects = [s for s in traced.spans if s.name == "retrieval.select"]
        top = [s for s in selects if s.parent.name != "retrieval.select"]
        nested = [s for s in selects if s.parent.name == "retrieval.select"]
        assert len(top) == len(corpus)
        assert {s.note for s in top} == {method}
        if method == "fixed2":
            assert [s.note for s in nested] == ["general2"] * len(top)
            assert {id(s.parent) for s in nested} == {id(s) for s in top}
        else:
            assert not nested
        metrics, _ = tracer.layer_metrics(traced.spans)
        assert f"retrieval.select_ms.{method}" in metrics
        assert not [name for name in metrics
                    if name.startswith("retrieval.select_ms.general")]


def test_traced_corpus_chain_records_its_spans(tmp_path, monkeypatch,
                                               capsys):
    """extract -> route -> build-index -> noise under the tracer records the
    corpus, classifier and index spans the per-layer metrics read."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    corpus = build_synthetic_singlehop_corpus(60, seed=41)
    table = synthetic_vector_table(corpus_vocabulary(corpus), dim=24, seed=42)
    multi = [item.composite.raw_text for item in
             build_synthetic_compositional(corpus, n=2, count=30, seed=43)]
    vec, single, multis, mined = (tmp_path / "vectors.vec",
                                  tmp_path / "single.jsonl",
                                  tmp_path / "multi.jsonl",
                                  tmp_path / "mined.txt")
    save_vector_table(table, vec)
    save_corpus(corpus, single)
    save_corpus(QuestionCorpus([f"m{i}" for i in range(len(multi))], multi),
                multis)
    mined.write_text("\n".join(corpus.texts[:20] + tuple(multi[:10])
                               + ("Not a question.",)) + "\n")
    assert cli.main(["train-classifier", "--labeled", f"single={single}",
                     "--labeled", f"multi={multis}", "--out",
                     str(tmp_path / "clf.json"), "--epochs", "2"]) == 0
    traced = tracer.Tracer()
    traced.install()
    try:
        for argv in (
                ["extract", "--lines", str(mined), "--out",
                 str(tmp_path / "corpus.jsonl")],
                ["route", "--model", str(tmp_path / "clf.json"), "--mined",
                 str(tmp_path / "corpus.jsonl"), "--single-label", "single",
                 "--multi-label", "multi", "--out-single",
                 str(tmp_path / "routed_single.jsonl"), "--out-multi",
                 str(tmp_path / "routed_multi.jsonl")],
                ["build-index", "--corpus", str(tmp_path / "routed_single.jsonl"),
                 "--corpus", str(single), "--vectors", str(vec), "--out",
                 str(tmp_path / "idx"), "--no-length-filter"],
                ["noise", "--corpus", str(tmp_path / "routed_single.jsonl"),
                 "--out", str(tmp_path / "noised.jsonl")]):
            assert cli.main(argv) == 0, argv
    finally:
        traced.uninstall()
    capsys.readouterr()
    names = Counter(span.name for span in traced.spans)
    assert names["corpus.extract"] == 1
    assert names["classifier.route"] == 1
    assert names["retrieval.build_index"] == 1
    # route, build-index (its two files in one call) and noise each load
    assert names["corpus.load"] == 3
    # extract writes one corpus, route two and noise one
    assert names["corpus.save"] == 4
    metrics, _ = tracer.layer_metrics(traced.spans)
    for name in ("corpus.extract_s", "corpus.load_s", "classifier.route_s",
                 "retrieval.build_index_s", "retrieval.index_rows"):
        assert name in metrics
