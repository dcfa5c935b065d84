import errno
import hashlib
import importlib
import json
import os
import shutil
import threading

import numpy as np
import pytest

from qdecomp import cli
from qdecomp.cli import main
from qdecomp.corpus import load_corpus, save_corpus
from qdecomp.embeddings import save_vector_table
from qdecomp.retrieval import load_index, read_dataset_tsv
from qdecomp.synthbench import (
    build_synthetic_singlehop_corpus,
    corpus_vocabulary,
    synthetic_vector_table,
)

from conftest import make_corpus, write_logits_jsonl


@pytest.fixture
def workspace(tmp_path):
    """Small corpus + matching vector file + raw lines file."""
    corpus = build_synthetic_singlehop_corpus(60, seed=41)
    table = synthetic_vector_table(corpus_vocabulary(corpus), dim=24, seed=42)
    vec = tmp_path / "vectors.vec"
    save_vector_table(table, vec)
    lines = tmp_path / "mined.txt"
    raw = [q.raw_text for q in corpus]
    raw.insert(3, "This line is not a question at all.")
    raw.insert(10, "Neither is this one.")
    lines.write_text("\n".join(raw) + "\n")
    single = tmp_path / "single.jsonl"
    save_corpus(corpus, single)
    return {"tmp": tmp_path, "vec": vec, "lines": lines,
            "single": single, "corpus": corpus}


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "qdecomp" in capsys.readouterr().out


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1


def test_missing_required_flag_is_usage_error(workspace, capsys):
    assert main(["extract", "--lines", str(workspace["lines"])]) == 1
    err = capsys.readouterr().err
    assert "out" in err


def test_missing_input_file_is_data_error(tmp_path, capsys):
    out = tmp_path / "c.jsonl"
    assert main(["extract", "--lines", str(tmp_path / "nope.txt"),
                 "--out", str(out)]) == 2


def test_extract_writes_corpus_and_manifest(workspace, capsys):
    out = workspace["tmp"] / "mined.jsonl"
    assert main(["extract", "--lines", str(workspace["lines"]),
                 "--out", str(out), "--id-prefix", "m"]) == 0
    corpus = load_corpus(out)
    assert len(corpus) == 60  # the two prose lines are dropped
    assert all(q.id.startswith("m") for q in corpus)
    manifest = json.loads((workspace["tmp"] / "mined.jsonl.manifest.json").read_text())
    assert manifest["subcommand"] == "extract"
    assert manifest["tool"] == "qdecomp"
    assert manifest["config"]["id_prefix"] == "m"
    assert all(len(digest) == 64 for digest in manifest["inputs"].values())
    assert str(workspace["lines"]) in manifest["inputs"]


def test_config_file_merging_and_flag_precedence(workspace, capsys):
    cfg = workspace["tmp"] / "cfg.json"
    cfg.write_text(json.dumps({"id_prefix": "zz", "dedup": True}))
    out = workspace["tmp"] / "a.jsonl"
    assert main(["extract", "--config", str(cfg), "--lines",
                 str(workspace["lines"]), "--out", str(out)]) == 0
    assert all(q.id.startswith("zz") for q in load_corpus(out))
    out2 = workspace["tmp"] / "b.jsonl"
    assert main(["extract", "--config", str(cfg), "--lines",
                 str(workspace["lines"]), "--out", str(out2),
                 "--id-prefix", "yy"]) == 0
    assert all(q.id.startswith("yy") for q in load_corpus(out2))


def test_unknown_config_key_rejected(workspace, capsys):
    cfg = workspace["tmp"] / "cfg.json"
    cfg.write_text(json.dumps({"no_such_option": 1}))
    out = workspace["tmp"] / "a.jsonl"
    assert main(["extract", "--config", str(cfg), "--lines",
                 str(workspace["lines"]), "--out", str(out)]) == 1


def test_extract_has_no_label_option(tmp_path, capsys):
    # no input exists: the flag must be rejected before any is read
    assert main(["extract", "--lines", str(tmp_path / "lines.txt"),
                 "--out", str(tmp_path / "c.jsonl"), "--label", "x"]) == 1
    assert "--label" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_extract_manifest_with_a_label_does_not_replay(tmp_path, capsys):
    """Manifests of extract runs made while it took --label record
    "label": null; the key is unknown now, and the replay fails before any
    input is read."""
    old = tmp_path / "c.jsonl.manifest.json"
    old.write_text(json.dumps({
        "schema_version": 1, "tool": "qdecomp", "subcommand": "extract",
        "config": {"lines": str(tmp_path / "lines.txt"),
                   "out": str(tmp_path / "c.jsonl"), "wh_words": "what,who",
                   "id_prefix": "", "dedup": False, "label": None},
        "inputs": {}}))
    assert main(["extract", "--config", str(old)]) == 1
    assert "unknown config keys: ['label']" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == [old.name]


def test_manifest_reuse_reproduces_run(workspace, capsys):
    tmp = workspace["tmp"]
    idx = tmp / "idx"
    assert main(["build-index", "--corpus", str(workspace["single"]),
                 "--vectors", str(workspace["vec"]), "--out", str(idx),
                 "--no-length-filter"]) == 0
    tsv1 = tmp / "d1.tsv"
    assert main(["decompose", "--questions", str(workspace["single"]),
                 "--index", str(idx), "--vectors", str(workspace["vec"]),
                 "--out", str(tsv1), "--method", "fixed2", "--k", "30"]) == 0
    tsv2 = tmp / "d2.tsv"
    assert main(["decompose", "--config", str(tmp / "d1.tsv.manifest.json"),
                 "--out", str(tsv2)]) == 0
    assert tsv1.read_bytes() == tsv2.read_bytes()


def test_classifier_pipeline_commands(workspace, capsys):
    tmp = workspace["tmp"]
    single = build_synthetic_singlehop_corpus(80, seed=43)
    multi_texts = []
    qs = list(single)
    for i in range(0, 80, 2):
        a, b = qs[i].raw_text, qs[i + 1].raw_text
        multi_texts.append(a.rstrip("?").rstrip() + " and " + b)
    multi = make_corpus(multi_texts, prefix="mh")
    sp = tmp / "sp.jsonl"
    mp = tmp / "mp.jsonl"
    save_corpus(single, sp)
    save_corpus(multi, mp)

    model = tmp / "clf.json"
    report = tmp / "clf.report.json"
    assert main(["train-classifier", "--labeled", f"single={sp}",
                 "--labeled", f"multi={mp}", "--out", str(model),
                 "--report", str(report), "--dim", "16", "--epochs", "50",
                 "--learning-rate", "1.0", "--holdout", "0.2",
                 "--seed", "7"]) == 0
    rep = json.loads(report.read_text())
    assert rep["heldout_accuracy"] >= 0.9
    assert sorted(rep["labels"]) == ["multi", "single"]
    assert rep["epoch_losses"][-1] < rep["epoch_losses"][0]

    preds = tmp / "preds.jsonl"
    assert main(["classify", "--model", str(model), "--corpus", str(sp),
                 "--out", str(preds)]) == 0
    lines = [json.loads(l) for l in preds.read_text().splitlines()]
    assert len(lines) == 80
    assert {"id", "label", "probabilities"} <= set(lines[0])

    outs = tmp / "r_single.jsonl"
    outm = tmp / "r_multi.jsonl"
    assert main(["route", "--model", str(model), "--mined", str(mp),
                 "--single-label", "single", "--multi-label", "multi",
                 "--out-single", str(outs), "--out-multi", str(outm)]) == 0
    routed_multi = load_corpus(outm)
    assert len(routed_multi) >= 30  # most composites land on the multi side


def _decompose_edit_metrics(workspace, prefix):
    """build-index, decompose, edit and metrics over composite questions
    with ids prefix + a number; each step must exit 0."""
    tmp = workspace["tmp"]
    idx = tmp / "idx"
    assert main(["build-index", "--corpus", str(workspace["single"]),
                 "--vectors", str(workspace["vec"]), "--out", str(idx),
                 "--no-length-filter"]) == 0

    # composite questions to decompose
    qs = list(workspace["corpus"])
    multi_texts = []
    for i in range(0, 20, 2):
        multi_texts.append(qs[i].raw_text.rstrip("?").rstrip()
                           + " and " + qs[i + 1].raw_text)
    mh = tmp / "multi.jsonl"
    questions = make_corpus(multi_texts, prefix=prefix)
    save_corpus(questions, mh)

    tsv = tmp / "pseudo.tsv"
    assert main(["decompose", "--questions", str(mh), "--index", str(idx),
                 "--vectors", str(workspace["vec"]), "--out", str(tsv),
                 "--method", "variable", "--k", "40", "--max-n", "3",
                 "--beam-width", "20"]) == 0
    rows = read_dataset_tsv(tsv)
    assert len(rows) == 10
    assert all(r[4] == "variable" for r in rows)
    assert [r[0] for r in rows] == [qid.replace("\t", " ").replace("\n", " ")
                                    for qid in questions.ids]

    edited = tmp / "edited.tsv"
    assert main(["edit", "--decompositions", str(tsv), "--out", str(edited)]) == 0
    erows = read_dataset_tsv(edited)
    assert len(erows) == 10
    for path in (tsv, edited):
        lines = path.read_text(encoding="utf-8").splitlines()
        assert [len(line.split("\t")) for line in lines] == [5] * 10
    assert [r[0] for r in erows] == [r[0] for r in rows]

    records = tmp / "records.tsv"
    with open(records, "w") as fh:
        for r in erows:
            fh.write(f"{r[1]}\t{r[2]}\t{r[1]}\n")  # perfect round trip
    rep_path = tmp / "report.json"
    assert main(["metrics", "--records", str(records), "--out", str(rep_path)]) == 0
    rep = json.loads(rep_path.read_text())
    assert set(rep) == {"bleu", "good_fraction", "scaled",
                        "edit_distance_mean", "length_ratio_mean"}
    assert rep["bleu"] == pytest.approx(1.0)
    assert rep["scaled"] == pytest.approx(rep["bleu"] * rep["good_fraction"])


def test_decompose_edit_metrics_flow(workspace, capsys):
    _decompose_edit_metrics(workspace, "mh")


def test_ids_with_tab_and_newline_flow_through_the_tsvs(workspace, capsys):
    _decompose_edit_metrics(workspace, "m\th\n")


def test_metrics_names_a_records_line_with_too_few_columns(tmp_path, capsys):
    records = tmp_path / "records.tsv"
    records.write_text("Who is t001 of e001?\tWho is t001?\tWho is t001?\n"
                       "\n"
                       "Who is t002 of e002?\tWho is t002?\n")
    out = tmp_path / "report.json"
    assert main(["metrics", "--records", str(records), "--out", str(out)]) == 2
    assert f"{records}:3: expected 3 columns, got 2" in capsys.readouterr().err
    assert not out.exists()


def test_metrics_names_a_records_line_whose_question_has_no_tokens(
        tmp_path, capsys):
    records = tmp_path / "records.tsv"
    records.write_text("Who is t001 of e001?\tWho is t001?\tWho is t001?\n"
                       " \tWho is t002?\tWho is t002?\n")
    out = tmp_path / "report.json"
    assert main(["metrics", "--records", str(records), "--out", str(out)]) == 2
    assert f"{records}:2: question has no tokens" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "report.json.manifest.json").exists()


@pytest.mark.parametrize("text", ["", "\n\n"], ids=["empty", "blank-lines"])
def test_metrics_names_a_records_file_with_no_records(tmp_path, capsys, text):
    records = tmp_path / "records.tsv"
    records.write_text(text)
    out = tmp_path / "report.json"
    assert main(["metrics", "--records", str(records), "--out", str(out)]) == 2
    assert f"error: {records}: no records" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "report.json.manifest.json").exists()


@pytest.fixture
def indexed(workspace):
    """The workspace plus a word-vector index over its single-hop corpus."""
    idx = workspace["tmp"] / "idx"
    assert main(["build-index", "--corpus", str(workspace["single"]),
                 "--vectors", str(workspace["vec"]), "--out", str(idx),
                 "--no-length-filter"]) == 0
    return dict(workspace, idx=idx)


@pytest.mark.parametrize("flags", [
    ["--k", "0"],
    ["--method", "general", "--n", "1"],
    ["--method", "random", "--n", "0"],
    ["--method", "variable", "--max-n", "0"],
    ["--method", "variable", "--beam-width", "0"],
    ["--workers", "0"],
    ["--k", "1"],
    ["--method", "general", "--n", "4", "--k", "3"],
    ["--method", "random", "--seed", "-1"],
], ids=["k", "general-n", "random-n", "max-n", "beam-width", "workers",
        "fixed2-k", "general-k", "random-seed"])
def test_decompose_bad_flag_is_usage_error(indexed, capsys, flags):
    out = indexed["tmp"] / "pseudo.tsv"
    assert main(["decompose", "--questions", str(indexed["single"]),
                 "--index", str(indexed["idx"]),
                 "--vectors", str(indexed["vec"]), "--out", str(out)]
                + flags) == 1
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, dim", [
    ("decompose", 16), ("synth-eval", 16), ("decompose", None),
], ids=["decompose", "synth-eval", "decompose-empty-vec"])
def test_vector_dimension_mismatch_is_data_error(indexed, capsys, command,
                                                 dim):
    narrow = indexed["tmp"] / "narrow.vec"
    if dim is None:
        narrow.write_bytes(b"")
    else:
        save_vector_table(synthetic_vector_table(
            corpus_vocabulary(indexed["corpus"]), dim=dim, seed=42), narrow)
    out = indexed["tmp"] / "out"
    argv = [command, "--index", str(indexed["idx"]), "--vectors", str(narrow),
            "--out", str(out)]
    if command == "decompose":
        argv += ["--questions", str(indexed["single"])]
    else:
        argv += ["--corpus", str(indexed["single"]),
                 "--objective", "sum-distance", "--count", "5", "--k", "20"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "dimension 24" in err
    assert ("dimension 16" if dim else f"{narrow} (sha256 ") in err
    assert ("no vector rows" in err) == (dim is None)
    assert not out.exists()


def _query_argv(indexed, command, vec, out):
    """A valid decompose or synth-eval run over the indexed workspace."""
    argv = [command, "--index", str(indexed["idx"]), "--vectors", str(vec),
            "--out", str(out)]
    if command == "decompose":
        return argv + ["--questions", str(indexed["single"])]
    return argv + ["--corpus", str(indexed["single"]), "--objective",
                   "sum-distance", "--count", "5", "--k", "20"]


def _other_vectors(indexed):
    """A word-vector file of the index's dimension that it was not built
    from."""
    other = indexed["tmp"] / "other.vec"
    save_vector_table(synthetic_vector_table(
        corpus_vocabulary(indexed["corpus"]), dim=24, seed=43), other)
    return other


@pytest.mark.parametrize("command", ["decompose", "synth-eval"])
def test_other_vectors_of_the_same_dimension_are_data_error(indexed, capsys,
                                                            command):
    other = _other_vectors(indexed)
    out = indexed["tmp"] / "out"
    assert main(_query_argv(indexed, command, other, out)) == 2
    err = capsys.readouterr().err
    for vec in (other, indexed["vec"]):
        assert hashlib.sha256(vec.read_bytes()).hexdigest() in err
    assert "dimension 24" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["decompose", "synth-eval"])
@pytest.mark.parametrize("older", [False, True],
                         ids=["deleted", "older-index"])
def test_index_without_vectors_copy_is_data_error(indexed, capsys, command,
                                                  older):
    idx = indexed["idx"]
    (idx / "vectors.npy").unlink(missing_ok=True)
    if older:  # an index written before the vectors were stored
        (idx / "vocab.json").unlink(missing_ok=True)
        meta = json.loads((idx / "meta.json").read_text())
        meta.pop("vectors", None)
        (idx / "meta.json").write_text(json.dumps(meta))
    out = indexed["tmp"] / "out"
    assert main(_query_argv(indexed, command, indexed["vec"], out)) == 2
    assert str(idx / "vectors.npy") in capsys.readouterr().err
    assert not out.exists()


def with_nan(matrix):
    matrix = matrix.copy()
    matrix[7, 3] = np.nan
    return matrix


def with_long_row(matrix):
    matrix = matrix.copy()
    matrix[12] *= np.float32(1.0001)
    return matrix


def with_inf(matrix):
    matrix = matrix.copy()
    matrix[7, 3] = np.inf
    return matrix


def with_huge_row(matrix):
    # finite, but its float32 squares overflow
    matrix = matrix.copy()
    matrix[12] *= np.float32(1e30)
    return matrix


@pytest.mark.parametrize("name, corrupt, shown", [
    ("unit.npy", lambda m: np.vstack([m, m[:5]]), ["(65, 24)", "(60, 24)"]),
    ("unit.npy", lambda m: m[:-5], ["(55, 24)", "(60, 24)"]),
    ("unit.npy", with_nan, ["NaN"]),
    ("unit.npy", with_long_row, ["row 12 ", "not 1"]),
    ("unit.npy", with_inf, ["NaN or infinite"]),
    ("unit.npy", with_huge_row, ["row 12 has squared norm inf", "not 1"]),
    ("raw.npy", lambda m: np.ascontiguousarray(m[:, :10]),
     ["(60, 10)", "(60, 24)"]),
    ("meta.json", lambda meta: dict(meta, ids=["dup"] * meta["rows"]),
     ["'dup'"]),
    ("meta.json", lambda meta: dict(meta, source="tfidf"), ["'tfidf'"]),
    ("vocab.json", lambda words: 5, ["expected a list of strings"]),
    ("vocab.json", lambda words: list(range(len(words))),
     ["expected a list of strings"]),
    ("vocab.json", lambda words: [[word] for word in words],
     ["expected a list of strings"]),
], ids=["extra-rows", "missing-rows", "nan", "non-unit-row", "inf",
         "huge-row", "narrow-raw",
        "repeated-id", "other-source", "vocab-int", "vocab-of-ints",
        "vocab-of-lists"])
def test_index_contradicting_meta_is_data_error(indexed, capsys, name,
                                                corrupt, shown):
    path = indexed["idx"] / name
    if name.endswith(".json"):
        path.write_text(json.dumps(corrupt(json.loads(path.read_text()))))
    else:
        np.save(path, corrupt(np.load(path)))
    out = indexed["tmp"] / "pseudo.tsv"
    assert main(["decompose", "--questions", str(indexed["single"]),
                 "--index", str(indexed["idx"]),
                 "--vectors", str(indexed["vec"]), "--out", str(out),
                 "--method", "variable", "--k", "20"]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and all(text in err for text in shown)
    assert not out.exists()


def _without(field):
    """Deletes a field of meta.json, or a field of its vectors object
    named vectors.<field>."""
    def corrupt(meta):
        *outer, name = field.split(".")
        del (meta[outer[0]] if outer else meta)[name]
        return meta
    return corrupt


_META_FIELDS = ["rows", "dim", "ids", "texts", "oov_excluded", "filtered_out",
                "vectors.dim", "vectors.words", "vectors.sha256"]


def _with(field, value):
    """Sets a field of meta.json, or vectors.<field> of its vectors object,
    to value(meta)."""
    def corrupt(meta):
        *outer, name = field.split(".")
        (meta[outer[0]] if outer else meta)[name] = value(meta)
        return meta
    return corrupt


_COUNT, _STRINGS = "a non-negative integer", "a list of strings"
_BAD_META_VALUES = [  # (case, field, value of meta, the kind named)
    ("ids-int", "ids", lambda meta: 5, _STRINGS),
    ("ids-of-ints", "ids", lambda meta: list(range(meta["rows"])), _STRINGS),
    ("texts-of-an-int", "texts", lambda meta: [1] + meta["texts"][1:],
     _STRINGS),
    ("texts-string", "texts", lambda meta: "abc", _STRINGS),
    ("oov_excluded-string", "oov_excluded", lambda meta: "x", _COUNT),
    ("rows-float", "rows", lambda meta: float(meta["rows"]), _COUNT),
    ("dim-bool", "dim", lambda meta: True, _COUNT),
    ("filtered_out-negative", "filtered_out", lambda meta: -1, _COUNT),
    ("vectors.dim-string", "vectors.dim", lambda meta: str(meta["dim"]),
     _COUNT),
    ("vectors.words-null", "vectors.words", lambda meta: None, _COUNT),
    ("vectors.sha256-int", "vectors.sha256", lambda meta: 5, "a string"),
]


@pytest.mark.parametrize("corrupt, shown", [
    *((_without(field), f"lacks the field {field}") for field in _META_FIELDS),
    (lambda meta: [meta], "expected a JSON object"),
    (lambda meta: dict(meta, vectors=[meta["vectors"]]),
     "lacks the field vectors.dim"),
    *((_with(field, value), f"the field {field} is not {kind}")
      for _, field, value, kind in _BAD_META_VALUES),
], ids=[f"no-{field}" for field in _META_FIELDS] + ["list", "vectors-list"]
    + [case for case, *_ in _BAD_META_VALUES])
def test_malformed_index_meta_is_data_error(indexed, capsys, corrupt, shown):
    path = indexed["idx"] / "meta.json"
    path.write_text(json.dumps(corrupt(json.loads(path.read_text()))))
    out = indexed["tmp"] / "pseudo.tsv"
    assert main(_query_argv(indexed, "decompose", indexed["vec"], out)) == 2
    err = capsys.readouterr().err
    assert f"{path}: {shown}" in err
    assert not out.exists()


def test_index_with_no_rows_is_data_error(indexed, capsys):
    idx = indexed["idx"]
    meta = json.loads((idx / "meta.json").read_text())
    (idx / "meta.json").write_text(json.dumps(dict(meta, rows=0, ids=[],
                                                   texts=[])))
    for name in ("unit.npy", "raw.npy"):
        np.save(idx / name, np.zeros((0, meta["dim"]), dtype=np.float32))
    out = indexed["tmp"] / "pseudo.tsv"
    assert main(_query_argv(indexed, "decompose", indexed["vec"], out)) == 2
    err = capsys.readouterr().err
    assert str(idx / "meta.json") in err and "rows is 0" in err
    assert not out.exists()


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("command", ["build-index", "decompose", "synth-eval"])
def test_manifest_inputs_are_the_digests_of_their_paths(indexed, capsys,
                                                        command):
    out = indexed["tmp"] / "out"
    argv = (["build-index", "--corpus", str(indexed["single"]),
             "--vectors", str(indexed["vec"]), "--out", str(out)]
            if command == "build-index"
            else _query_argv(indexed, command, indexed["vec"], out))
    assert main(argv) == 0
    inputs = json.loads((indexed["tmp"] / "out.manifest.json").read_text()
                        )["inputs"]
    expected = {str(indexed["single"]), str(indexed["vec"])}
    if command != "build-index":
        expected.add(str(indexed["idx"]))
    assert set(inputs) == expected
    for path, digest in inputs.items():
        assert digest == cli._digest_path(path), path
    assert inputs[str(indexed["vec"])] == _sha256(indexed["vec"])


def test_manifest_records_an_input_as_read_before_out_overwrites_it(
        workspace, capsys):
    corpus = workspace["tmp"] / "c.jsonl"
    corpus.write_bytes(workspace["single"].read_bytes())
    before = _sha256(corpus)
    assert main(["noise", "--corpus", str(corpus), "--out", str(corpus)]) == 0
    assert _sha256(corpus) != before
    manifest = json.loads((workspace["tmp"] / "c.jsonl.manifest.json"
                           ).read_text())
    assert manifest["inputs"] == {str(corpus): before}


@pytest.mark.parametrize("case, code", [
    ("ok", 0), ("other-vectors", 2), ("missing-questions", 2)])
def test_no_thread_outlives_main(indexed, capsys, case, code):
    out = indexed["tmp"] / "pseudo.tsv"
    vec = (_other_vectors(indexed) if case == "other-vectors"
           else indexed["vec"])
    argv = _query_argv(indexed, "decompose", vec, out)
    if case == "missing-questions":
        argv += ["--questions", str(indexed["tmp"] / "gone.jsonl")]
    before = threading.active_count()
    assert main(argv) == code
    assert threading.active_count() == before


def test_failed_run_stops_the_digests_it_has_not_finished(tmp_path,
                                                          monkeypatch):
    """The body fails while the first input is being hashed: the later
    input's digest never completes, the body's own error propagates and the
    digest worker is gone."""
    first, later = tmp_path / "first.txt", tmp_path / "later.bin"
    first.write_text("first\n")
    later.write_bytes(b"x" * (3 << 18))  # three 256 KB digest chunks
    digest_path, stopped, completed = cli._digest_path, [], []

    def digest_after_stop(path, stop=None):
        if path == str(first):
            stopped.append(stop.wait(10))
        digest = digest_path(path, stop)
        completed.append(path)
        return digest

    monkeypatch.setattr(cli, "_digest_path", digest_after_stop)
    before = threading.active_count()
    with pytest.raises(KeyError, match="body failed"):
        with cli._Run({"manifest": None}, "test", str(tmp_path / "out"),
                      str(first), str(later)):
            raise KeyError("body failed")
    assert stopped == [True] and completed == []
    assert threading.active_count() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["first.txt",
                                                          "later.bin"]


def test_vectors_mismatch_leaves_no_tsv_and_no_manifest(indexed, capsys):
    out = indexed["tmp"] / "other.tsv"
    assert main(_query_argv(indexed, "decompose", _other_vectors(indexed),
                            out)) == 2
    assert not out.exists()
    assert not (indexed["tmp"] / "other.tsv.manifest.json").exists()


def test_decompose_with_every_question_skipped_is_data_error(indexed,
                                                             capsys):
    questions = indexed["tmp"] / "oov.jsonl"
    save_corpus(make_corpus(["zzqx yyqx", "xxqz"]), questions)
    out = indexed["tmp"] / "oov.tsv"
    assert main(["decompose", "--questions", str(questions),
                 "--index", str(indexed["idx"]),
                 "--vectors", str(indexed["vec"]), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert (f"{questions}: skipped all 2 questions, so no dataset is "
            f"written; first skip q00000000: text has no in-vocabulary "
            f"tokens") in err
    assert not out.exists()
    assert not (indexed["tmp"] / "oov.tsv.manifest.json").exists()


def test_decompose_of_an_empty_corpus_writes_no_tsv(indexed, capsys):
    questions = indexed["tmp"] / "empty.jsonl"
    questions.write_text("")
    out = indexed["tmp"] / "empty.tsv"
    assert main(["decompose", "--questions", str(questions),
                 "--index", str(indexed["idx"]),
                 "--vectors", str(indexed["vec"]), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {questions}: no records\n"
    assert not out.exists()
    assert not (indexed["tmp"] / "empty.tsv.manifest.json").exists()


@pytest.mark.parametrize("command", ["decompose", "synth-eval"])
def test_missing_vectors_is_named_before_a_missing_index(indexed, capsys,
                                                         command):
    gone_vec = indexed["tmp"] / "gone.vec"
    argv = _query_argv(indexed, command, gone_vec, indexed["tmp"] / "out")
    argv += ["--index", str(indexed["tmp"] / "gone-idx")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(gone_vec) in err and "gone-idx" not in err


@pytest.fixture
def chain(indexed):
    """The indexed workspace plus composite questions, a mined corpus of
    single-hop and composite questions, a classifier, a decompositions TSV,
    round-trip records and span logits: inputs for every subcommand that
    writes files."""
    from qdecomp.recompose import ParagraphLogits
    tmp, qs = indexed["tmp"], list(indexed["corpus"])
    paths = {name: tmp / name for name in (
        "multi.jsonl", "mined.jsonl", "clf.json", "pseudo.tsv", "records.tsv",
        "logits.jsonl")}
    save_corpus(make_corpus([qs[i].raw_text.rstrip("?").rstrip() + " and "
                             + qs[i + 1].raw_text for i in range(0, 40, 2)],
                            prefix="mh"), paths["multi.jsonl"])
    paths["mined.jsonl"].write_bytes(indexed["single"].read_bytes()
                                     + paths["multi.jsonl"].read_bytes())
    assert main(["train-classifier",
                 "--labeled", f"single={indexed['single']}",
                 "--labeled", f"multi={paths['multi.jsonl']}",
                 "--out", str(paths["clf.json"]), "--dim", "16",
                 "--epochs", "50", "--learning-rate", "1.0",
                 "--holdout", "0"]) == 0
    assert main(["decompose", "--questions", str(paths["multi.jsonl"]),
                 "--index", str(indexed["idx"]), "--vectors",
                 str(indexed["vec"]), "--out", str(paths["pseudo.tsv"]),
                 "--k", "20"]) == 0
    paths["records.tsv"].write_text("".join(
        f"{r[1]}\t{r[2]}\t{r[1]}\n"
        for r in read_dataset_tsv(paths["pseudo.tsv"])))
    write_logits_jsonl([ParagraphLogits("p1", (("s1", 2.0), ("s2", 0.5)),
                                        0.1)], paths["logits.jsonl"])
    return dict(indexed, **{name.split(".")[0]: path
                            for name, path in paths.items()})


def _writer_argv(chain, case):
    """A valid run over chain that writes tmp/out (build-index: an index
    over the composites, unlike chain's idx), and tmp/out2 where it writes a
    second file."""
    c = {key: str(value) for key, value in chain.items()}
    out, out2 = str(chain["tmp"] / "out"), str(chain["tmp"] / "out2")
    query = ["--index", c["idx"], "--vectors", c["vec"], "--out", out]
    return {
        "extract": ["extract", "--lines", c["lines"], "--out", out],
        "train-classifier": ["train-classifier", "--labeled",
                             f"single={c['single']}", "--labeled",
                             f"multi={c['multi']}", "--out", out,
                             "--report", out2, "--epochs", "1"],
        "classify": ["classify", "--model", c["clf"], "--corpus", c["single"],
                     "--out", out],
        "build-index": ["build-index", "--corpus", c["multi"], "--vectors",
                        c["vec"], "--out", out, "--no-length-filter"],
        "route": ["route", "--model", c["clf"], "--mined", c["mined"],
                  "--single-label", "single", "--multi-label", "multi",
                  "--out-single", out, "--out-multi", out2],
        "decompose": ["decompose", "--questions", c["multi"], "--k", "20"]
                     + query,
        "edit": ["edit", "--decompositions", c["pseudo"], "--out", out],
        "noise": ["noise", "--corpus", c["single"], "--out", out],
        "noise-in-place": ["noise", "--corpus", out, "--out", out],
        "metrics": ["metrics", "--records", c["records"], "--out", out],
        "synth-eval": ["synth-eval", "--corpus", c["single"], "--objective",
                       "sum-distance", "--count", "5", "--k", "20",
                       "--ranks-out", out2] + query,
        "recompose": ["recompose", "--logits", c["logits"], "--out", out],
    }[case]


class _FullDisk:
    """A text file that takes one write, then fails as a full disk does."""

    def __init__(self, fh):
        self._fh, self._written = fh, False

    def write(self, text):
        if self._written:
            raise OSError(errno.ENOSPC, "No space left on device")
        self._written = True
        return self._fh.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._fh.close()


def _disk_full(module, nth):
    """A fault: the nth file that qdecomp.<module> opens for writing fails
    after its first write."""
    def inject(monkeypatch):
        opened = []

        def failing_open(path, mode="r", *args, **kwargs):
            fh = open(path, mode, *args, **kwargs)
            if "w" not in mode:
                return fh
            opened.append(path)
            return _FullDisk(fh) if len(opened) == nth else fh

        monkeypatch.setattr(importlib.import_module(f"qdecomp.{module}"),
                            "open", failing_open, raising=False)
    return inject


def _np_save_fails(nth):
    """A fault: the nth np.save call fails as a full disk does."""
    def inject(monkeypatch):
        real, calls = np.save, []

        def save(*args, **kwargs):
            calls.append(args)
            if len(calls) == nth:
                raise OSError(errno.ENOSPC, "No space left on device")
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "save", save)
    return inject


def _noise_fails_on_record_10(monkeypatch):
    real = cli.noise_corpus

    def noise_corpus(token_lists, config):
        for count, noisy in enumerate(real(token_lists, config), start=1):
            if count == 10:
                raise RuntimeError("injected fault")
            yield noisy

    monkeypatch.setattr(cli, "noise_corpus", noise_corpus)


@pytest.mark.parametrize("case, fault, code, target", [
    ("extract", _disk_full("corpus", 1), 2, "out"),
    ("extract", _disk_full("corpus", 2), 2, "out.manifest.json"),
    ("train-classifier", _disk_full("corpus", 1), 2, "out"),
    ("train-classifier", _disk_full("corpus", 2), 2, "out2"),
    ("classify", _disk_full("corpus", 1), 2, "out"),
    ("build-index", _np_save_fails(2), 2, "out/raw.npy"),
    ("build-index", _disk_full("corpus", 3), 2, "out.manifest.json"),
    ("route", _disk_full("corpus", 1), 2, "out"),
    ("route", _disk_full("corpus", 2), 2, "out2"),
    ("decompose", _disk_full("corpus", 1), 2, "out"),
    ("edit", _disk_full("corpus", 2), 2, "out.manifest.json"),
    ("noise", _disk_full("corpus", 2), 2, "out.manifest.json"),
    ("noise-in-place", _noise_fails_on_record_10, 3, None),
    ("metrics", _disk_full("corpus", 1), 2, "out"),
    ("synth-eval", _disk_full("corpus", 1), 2, "out2"),
    ("synth-eval", _disk_full("corpus", 2), 2, "out"),
    ("recompose", _disk_full("corpus", 1), 2, "out"),
], ids=["extract", "extract-manifest", "train-classifier-model",
        "train-classifier-report", "classify", "build-index",
        "build-index-manifest", "route-single", "route-multi",
        "decompose", "edit", "noise", "noise-in-place", "metrics",
        "synth-eval-ranks", "synth-eval-report", "recompose"])
def test_failed_write_changes_no_file(chain, capsys, monkeypatch, case,
                                      fault, code, target):
    tmp = chain["tmp"]
    if case == "build-index":  # a previous index, replaced on success
        shutil.copytree(chain["idx"], tmp / "out")
    else:
        (tmp / "out").write_bytes(chain["single"].read_bytes())
    (tmp / "out2").write_bytes(b"previous second output\n")
    (tmp / "out.manifest.json").write_bytes(b"{}\n")
    before = _tree_bytes([tmp])
    fault(monkeypatch)
    assert main(_writer_argv(chain, case)) == code
    if target is not None:  # a full disk, named by the file it fills
        err = capsys.readouterr().err
        line = "" if target.endswith(".npy") else "1:"
        assert f"error: {tmp / target}:{line} [Errno 28] No space" in err
    assert not list(tmp.rglob(".*.tmp"))
    assert _tree_bytes([tmp]) == before


def _surrogate_run(chain, command):
    """argv of a run whose output would hold a lone surrogate, and the place
    its error must name: a question text (decompose's TSV, at the line of
    the question), an id (build-index's meta.json), a classifier term (the
    model) and a paragraph id (recompose's indented answer JSON)."""
    tmp = chain["tmp"]
    out, sur = tmp / "out", tmp / "sur.jsonl"
    c = {key: str(value) for key, value in chain.items()}
    if command == "recompose":
        sur.write_text(json.dumps({
            "paragraph_id": "p\ud800", "no_answer_logit": 0.1,
            "spans": [{"span_id": "s1", "logit": 2.0}]}) + "\n")
        return ["recompose", "--logits", str(sur), "--out", str(out)], \
            f"{out}:3"
    key = "single" if command == "build-index" else "multi"
    lines = chain[key].read_text(encoding="utf-8").splitlines(keepends=True)
    text = json.loads(lines[0])["text"]
    record = ({"id": "\ud800", "text": text} if command == "build-index"
              else {"id": "sur", "text": f"{text} \ud800"})
    lines.insert(2, json.dumps(record) + "\n")  # \ud800 as a JSON escape
    sur.write_text("".join(lines), encoding="utf-8")
    if command == "decompose":
        return ["decompose", "--questions", str(sur), "--index", c["idx"],
                "--vectors", c["vec"], "--k", "20", "--out", str(out)], \
            f"{out}:3"
    if command == "build-index":
        return ["build-index", "--corpus", str(sur), "--vectors", c["vec"],
                "--out", str(out), "--no-length-filter"], \
            f"{out / 'meta.json'}:1"
    return ["train-classifier", "--labeled", f"single={c['single']}",
            "--labeled", f"multi={sur}", "--holdout", "0", "--epochs", "1",
            "--out", str(out)], f"{out}:1"


@pytest.mark.parametrize("command", ["decompose", "build-index",
                                     "train-classifier", "recompose"])
def test_lone_surrogate_names_the_output_and_writes_nothing(chain, capsys,
                                                            command):
    argv, place = _surrogate_run(chain, command)
    assert main(argv) == 2
    assert (f"error: {place}: 'utf-8' codec can't encode character "
            f"'\\ud800'") in capsys.readouterr().err
    tmp = chain["tmp"]
    assert not (tmp / "out").exists()
    assert not (tmp / "out.manifest.json").exists()
    assert not list(tmp.rglob(".*.tmp"))


def _bad_byte(key, line):
    """A corrupt input: byte 0xff in the middle of line `line` of chain[key].
    Each corrupt input returns the error text that names it and the flags
    that pass it to the run, beyond those of _writer_argv."""
    def corrupt(chain):
        path = chain[key]
        lines = path.read_bytes().splitlines(keepends=True)
        mid = len(lines[line - 1]) // 2
        lines[line - 1] = lines[line - 1][:mid] + b"\xff" + lines[line - 1][mid:]
        path.write_bytes(b"".join(lines))
        return f"{path}:{line}: not UTF-8: byte 0xff", []
    return corrupt


def _bad_json(path_of):
    """A corrupt input: the JSON document at path_of(chain) cut short."""
    def corrupt(chain):
        path = path_of(chain)
        path.write_text(path.read_text()[:-5])
        return f"{path}: malformed JSON: ", []
    return corrupt


def _bad_config(chain):
    path = chain["tmp"] / "config.json"
    path.write_text("{")
    return f"{path}: malformed JSON: ", ["--config", str(path)]


def _cut_unit_npy(chain):
    path = chain["idx"] / "unit.npy"
    path.write_bytes(path.read_bytes()[:-10])
    return f"{path}: Failed to read all data", []


def _npz_unit_npy(chain):
    path = chain["idx"] / "unit.npy"
    matrix = np.load(path)
    with open(path, "wb") as fh:
        np.savez(fh, unit=matrix)
    return f"{path}: holds an .npz archive", []


def _zip_magic_unit_npy(chain):
    path = chain["idx"] / "unit.npy"
    path.write_bytes(b"PK\x03\x04" + path.read_bytes())
    return f"{path}: File is not a zip file", []


@pytest.mark.parametrize("case, corrupt", [
    ("noise", _bad_byte("single", 2)),
    ("edit", _bad_byte("pseudo", 2)),
    ("metrics", _bad_byte("records", 3)),
    ("extract", _bad_byte("lines", 4)),
    ("build-index", _bad_byte("vec", 5)),
    ("recompose", _bad_byte("logits", 1)),
    ("classify", _bad_byte("clf", 1)),
    ("noise", _bad_config),
    ("decompose", _bad_json(lambda chain: chain["idx"] / "meta.json")),
    ("decompose", _bad_json(lambda chain: chain["idx"] / "vocab.json")),
    ("classify", _bad_json(lambda chain: chain["clf"])),
    ("decompose", _cut_unit_npy),
    ("decompose", _npz_unit_npy),
    ("decompose", _zip_magic_unit_npy),
], ids=["corpus", "dataset-tsv", "records-tsv", "extract-text", "vec",
        "logits", "model-bytes", "config", "meta", "vocab", "model",
        "unit-npy", "npz-unit-npy", "zip-magic-unit-npy"])
def test_unreadable_input_is_named(chain, capsys, case, corrupt):
    tmp = chain["tmp"]
    shown, flags = corrupt(chain)
    before = _tree_bytes([tmp])
    assert main(_writer_argv(chain, case) + flags) == 2
    assert shown in capsys.readouterr().err
    assert not list(tmp.rglob(".*.tmp"))
    assert _tree_bytes([tmp]) == before


@pytest.mark.parametrize("text", ["", "\n\n"], ids=["empty", "blank-lines"])
@pytest.mark.parametrize("case, key", [
    ("extract", "lines"), ("train-classifier", "multi"),
    ("classify", "single"), ("route", "mined"), ("build-index", "multi"),
    ("decompose", "multi"), ("noise", "single"), ("edit", "pseudo"),
    ("metrics", "records"), ("synth-eval", "single"),
    ("recompose", "logits")])
def test_an_input_with_no_records_is_named(chain, capsys, case, key, text):
    """One rule for every record and line input: a file holding no record
    exits 2 naming it, and leaves no output, manifest or temp file."""
    tmp, empty = chain["tmp"], chain[key]
    empty.write_text(text)
    before = _tree_bytes([tmp])
    assert main(_writer_argv(chain, case)) == 2
    assert capsys.readouterr().err == f"error: {empty}: no records\n"
    assert not list(tmp.rglob(".*.tmp"))
    assert _tree_bytes([tmp]) == before


def test_an_emptied_output_is_refused_by_the_stage_that_reads_it(indexed,
                                                                 capsys):
    tmp, ids = indexed["tmp"], indexed["corpus"].ids
    noised = tmp / "noised.jsonl"
    assert main(["noise", "--corpus", str(indexed["single"]), "--out",
                 str(noised), "--drop-prob", "1.0"]) == 0
    assert noised.read_text() == "".join(
        f'{{"id":"{qid}","text":""}}\n' for qid in ids)
    capsys.readouterr()
    assert main(["build-index", "--corpus", str(noised), "--vectors",
                 str(indexed["vec"]), "--out", str(tmp / "idx2")]) == 2
    assert (f"index is empty: of {len(ids)} questions, {len(ids)} fall "
            f"outside the token bounds and 0 have no in-vocabulary token"
            in capsys.readouterr().err)
    assert main(["decompose", "--questions", str(noised), "--index",
                 str(indexed["idx"]), "--vectors", str(indexed["vec"]),
                 "--out", str(tmp / "noised.tsv")]) == 2
    assert f"skipped all {len(ids)} questions" in capsys.readouterr().err
    lines, mined = tmp / "plain.txt", tmp / "none.jsonl"
    lines.write_text("This line is not a question.\n")
    assert main(["extract", "--lines", str(lines), "--out", str(mined)]) == 0
    assert "extract: kept 0 of 1 lines" in capsys.readouterr().err
    assert mined.read_bytes() == b""
    assert main(["train-classifier", "--labeled",
                 f"single={indexed['single']}", "--labeled",
                 f"multi={mined}", "--out", str(tmp / "clf.json")]) == 2
    assert capsys.readouterr().err == f"error: {mined}: no records\n"
    assert not (tmp / "idx2").exists() and not (tmp / "noised.tsv").exists()
    assert not (tmp / "clf.json").exists()


@pytest.mark.parametrize("case", ["metrics", "noise", "build-index"])
def test_output_into_a_missing_directory_names_the_target(chain, capsys,
                                                          case):
    tmp = chain["tmp"]
    target = tmp / "missing" / "out"
    argv = _writer_argv(chain, case)
    argv[argv.index("--out") + 1] = str(target)
    before = _tree_bytes([tmp])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(target) in err and ".tmp" not in err
    assert not (tmp / "missing").exists()
    assert _tree_bytes([tmp]) == before


@pytest.mark.parametrize("case, first, second", [
    ("route", "--out-single", "--out-multi"),
    ("synth-eval", "--out", "--ranks-out"),
    ("train-classifier", "--out", "--report"),
    ("extract", "--out", "--manifest"),
    ("build-index", "--out", "--manifest"),
])
def test_two_outputs_at_one_path_are_usage_error(chain, capsys, case, first,
                                                 second):
    tmp = chain["tmp"]
    (tmp / "out").write_bytes(b"previous output\n")
    before = _tree_bytes([tmp])
    # the last of a repeated flag wins
    argv = _writer_argv(chain, case) + [first, str(tmp / "out"),
                                        second, str(tmp / "." / "out")]
    assert main(argv) == 1
    assert "two outputs" in capsys.readouterr().err
    assert _tree_bytes([tmp]) == before


def test_build_index_replaces_an_existing_index(chain, capsys):
    tmp = chain["tmp"]
    shutil.copytree(chain["idx"], tmp / "out")
    assert main(_writer_argv(chain, "build-index")) == 0
    assert load_index(tmp / "out").ids == tuple(
        q.id for q in load_corpus(chain["multi"]))
    assert sorted(p.name for p in (tmp / "out").iterdir()) == [
        "meta.json", "raw.npy", "unit.npy", "vectors.npy", "vocab.json"]
    assert not list(tmp.rglob(".*.tmp"))


def test_build_index_keeps_a_directory_that_is_not_an_index(chain, capsys):
    tmp = chain["tmp"]
    shutil.copytree(chain["idx"], tmp / "out")
    (tmp / "out" / "notes.txt").write_text("keep me")
    before = _tree_bytes([tmp])
    assert main(_writer_argv(chain, "build-index")) == 2
    err = capsys.readouterr().err
    assert str(tmp / "out") in err and "notes.txt" in err
    assert not list(tmp.rglob(".*.tmp"))
    assert _tree_bytes([tmp]) == before


def test_build_index_names_both_lines_of_a_repeated_id(workspace, capsys):
    tmp, single = workspace["tmp"], workspace["single"]
    lines = single.read_text(encoding="utf-8").splitlines(keepends=True)
    dup = tmp / "dup.jsonl"
    dup.write_text("".join(lines[:4] + ["\n", lines[1]]), encoding="utf-8")
    argv = ["build-index", "--corpus", str(dup), "--vectors",
            str(workspace["vec"]), "--out", str(tmp / "idx")]
    assert main(argv) == 2
    assert (f"error: {dup}:6: duplicate question id 's00000001' "
            f"(first at {dup}:2)\n") in capsys.readouterr().err
    assert not (tmp / "idx").exists()


def test_build_index_names_both_files_of_a_repeated_id(workspace, capsys):
    tmp, single = workspace["tmp"], workspace["single"]
    extra = tmp / "extra.jsonl"
    extra.write_text('{"id":"x1","text":"who is x ?"}\n'
                     '{"id":"s00000007","text":"who is y ?"}\n',
                     encoding="utf-8")
    argv = ["build-index", "--corpus", str(single), "--corpus", str(extra),
            "--vectors", str(workspace["vec"]), "--out", str(tmp / "idx")]
    assert main(argv) == 2
    assert (f"error: {extra}:2: duplicate question id 's00000007' "
            f"(first at {single}:8)\n") in capsys.readouterr().err
    assert not (tmp / "idx").exists()


def test_output_over_a_directory_changes_no_file(chain, capsys):
    tmp = chain["tmp"]
    (tmp / "out").write_bytes(b"previous output\n")
    (tmp / "out2").mkdir()
    (tmp / "out2" / "notes.txt").write_text("keep me")
    before = _tree_bytes([tmp])
    assert main(_writer_argv(chain, "route")) == 2
    assert f"{tmp / 'out2'} is a directory" in capsys.readouterr().err
    assert not list(tmp.rglob(".*.tmp"))
    assert _tree_bytes([tmp]) == before


def _drop_last(rows):
    return rows[:-1]


def _narrow(rows):
    return [row[:-1] for row in rows]


def _first_not_finite(value):
    """Sets the first number of a vector or a matrix to value."""
    def corrupt(rows):
        first = rows[0] if isinstance(rows[0], list) else rows
        first[0] = value
        return rows
    return corrupt


def _gap_in_vocab(vocab):
    term = next(iter(vocab))
    return dict(vocab, **{term: len(vocab)})


@pytest.mark.parametrize("field, corrupt", [
    ("labels", lambda labels: labels[:1]),
    ("labels", lambda labels: [labels[0]] * len(labels)),
    ("vocab", _gap_in_vocab),
    ("embeddings", _drop_last),
    ("embeddings", _narrow),
    ("weight", _narrow),
    ("weight", _drop_last),
    ("bias", _drop_last),
    ("embeddings", _first_not_finite(float("nan"))),
    ("weight", _first_not_finite(float("inf"))),
    ("bias", _first_not_finite(float("-inf"))),
    ("epoch_losses", lambda losses: 5),
    ("epoch_losses", _first_not_finite(float("nan"))),
], ids=["one-label", "repeated-label", "vocab-gap", "embeddings-rows",
        "embeddings-width", "weight-width", "weight-rows", "bias-short",
        "nan-embedding", "inf-weight", "inf-bias", "losses-not-a-list",
        "nan-loss"])
@pytest.mark.parametrize("command", ["route", "classify"])
def test_malformed_model_is_data_error(chain, capsys, command, field,
                                       corrupt):
    tmp = chain["tmp"]
    payload = json.loads(chain["clf"].read_text())
    payload[field] = corrupt(payload[field])
    bad = tmp / "bad.json"
    bad.write_text(json.dumps(payload))
    before = _tree_bytes([tmp])
    argv = _writer_argv(chain, command)
    argv[argv.index("--model") + 1] = str(bad)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{bad}: {field}" in err
    assert _tree_bytes([tmp]) == before


def test_empty_vocabulary_is_data_error(chain, capsys):
    tmp = chain["tmp"]
    before = _tree_bytes([tmp])
    assert main(_writer_argv(chain, "train-classifier")
                + ["--min-count", "100000"]) == 2
    assert "min_count=100000" in capsys.readouterr().err
    assert _tree_bytes([tmp]) == before


def test_diverged_model_is_data_error(chain, capsys):
    # a learning rate this large turns the weights to NaN: training stops at
    # the first epoch whose loss is not finite, and no model is written
    tmp = chain["tmp"]
    before = _tree_bytes([tmp])
    assert main(["train-classifier", "--labeled", f"single={chain['single']}",
                 "--labeled", f"multi={chain['multi']}",
                 "--out", str(tmp / "model.json"),
                 "--learning-rate", "1e300", "--epochs", "3"]) == 2
    err = capsys.readouterr().err
    assert "training diverged: epoch 1 " in err
    assert _tree_bytes([tmp]) == before


def test_route_to_one_label_is_usage_error(tmp_path, capsys):
    # no input exists: the labels must be rejected before any is read
    argv = ["route", "--model", str(tmp_path / "clf.json"),
            "--mined", str(tmp_path / "mined.jsonl"),
            "--single-label", "single", "--multi-label", "single",
            "--out-single", str(tmp_path / "s.jsonl"),
            "--out-multi", str(tmp_path / "m.jsonl")]
    assert main(argv) == 1
    assert "--multi-label" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_noise_command(workspace, capsys):
    tmp = workspace["tmp"]
    out = tmp / "noised.jsonl"
    assert main(["noise", "--corpus", str(workspace["single"]),
                 "--out", str(out), "--seed", "3"]) == 0
    noised = load_corpus(out)
    assert len(noised) == 60
    out2 = tmp / "noised2.jsonl"
    assert main(["noise", "--corpus", str(workspace["single"]),
                 "--out", str(out2), "--seed", "3"]) == 0
    assert out.read_bytes() == out2.read_bytes()


def test_synth_eval_command(workspace, capsys):
    tmp = workspace["tmp"]
    idx = tmp / "idx"
    assert main(["build-index", "--corpus", str(workspace["single"]),
                 "--vectors", str(workspace["vec"]), "--out", str(idx),
                 "--no-length-filter"]) == 0
    out = tmp / "mrr.json"
    assert main(["synth-eval", "--corpus", str(workspace["single"]),
                 "--index", str(idx), "--vectors", str(workspace["vec"]),
                 "--objective", "sum-distance", "--n", "2", "--count", "10",
                 "--k", "20", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["objective"] == "sum-distance"
    assert rep["n"] == 2
    assert rep["K"] == 20
    assert 0.0 < rep["mrr"] <= 1.0
    ranks = json.loads((tmp / "mrr.json.ranks.json").read_text())
    assert len(ranks) == 10


@pytest.mark.parametrize("flags", [
    ["--k", "2", "--n", "3"],
    ["--k", "0"],
    ["--count", "0"],
], ids=["k-below-n", "k", "count"])
def test_synth_eval_bad_flag_is_usage_error(indexed, capsys, flags):
    out = indexed["tmp"] / "mrr.json"
    assert main(["synth-eval", "--corpus", str(indexed["single"]),
                 "--index", str(indexed["idx"]),
                 "--vectors", str(indexed["vec"]), "--objective",
                 "sum-distance", "--out", str(out)] + flags) == 1
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()
    assert not (indexed["tmp"] / "mrr.json.ranks.json").exists()


def test_synth_eval_corpus_sharing_too_few_ids_is_data_error(indexed,
                                                             capsys):
    corpus = indexed["tmp"] / "other.jsonl"
    save_corpus(make_corpus(["Who is t001?", "Who is t002?"], prefix="z"),
                corpus)
    out = indexed["tmp"] / "mrr.json"
    assert main(["synth-eval", "--corpus", str(corpus),
                 "--index", str(indexed["idx"]),
                 "--vectors", str(indexed["vec"]), "--objective",
                 "sum-distance", "--out", str(out)]) == 2
    assert (f"{corpus} shares 0 question ids with index {indexed['idx']}, "
            f"need 3") in capsys.readouterr().err
    assert not out.exists()
    assert not (indexed["tmp"] / "mrr.json.ranks.json").exists()


def test_recompose_command(tmp_path, capsys):
    from qdecomp.recompose import ParagraphLogits
    a = [ParagraphLogits("p1", (("s1", 2.0), ("s2", 0.0)), 0.0),
         ParagraphLogits("p2", (("s1", 1.0),), 0.5)]
    b = [ParagraphLogits("p1", (("s1", 0.0), ("s2", 2.0)), 0.0),
         ParagraphLogits("p2", (("s1", 3.0),), 0.5)]
    fa = tmp_path / "a.jsonl"
    fb = tmp_path / "b.jsonl"
    write_logits_jsonl(a, fa)
    write_logits_jsonl(b, fb)
    out = tmp_path / "answer.json"
    assert main(["recompose", "--logits", str(fa), "--logits", str(fb),
                 "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    # ensemble means: p1 spans tie at 1.0 each, p2 s1 at 2.0 with low no-answer
    assert rep["prediction"] == {"paragraph_id": "p2", "span_id": "s1"}
    assert len(rep["ranked_spans"]) == 3
    probs = [e["probability"] for e in rep["ranked_spans"]]
    assert probs == sorted(probs, reverse=True)


def _logits_record(paragraph_id="p2", logit=1.0, span_ids=("s1",),
                   no_answer=0.0):
    return json.dumps({"paragraph_id": paragraph_id,
                       "no_answer_logit": no_answer,
                       "spans": [{"span_id": sid, "logit": logit}
                                 for sid in span_ids]})


@pytest.mark.parametrize("record, shown", [
    (_logits_record(logit="abc"), "'abc'"),
    (_logits_record(logit="nan"), "logit 'nan' for 's1' is not a finite number"),
    (_logits_record(logit=10 ** 400), "too large"),
    (_logits_record(paragraph_id=2), "paragraph id 2 is not a string"),
    (_logits_record(span_ids=(1, "s1")), "span id 1 is not a string"),
    (_logits_record(span_ids=("s1", "s1")), "duplicate span id 's1'"),
    (json.dumps({"paragraph_id": "p2", "spans": []}), "'no_answer_logit'"),
    ("[1, 2]", "list indices"),
    (_logits_record(logit=True), "logit True for 's1' is not a finite number"),
    (_logits_record(logit="2.5"),
     "logit '2.5' for 's1' is not a finite number"),
    (_logits_record(logit=1e308, no_answer=-1e308),
     "minus the no-answer logit -1e+308 overflows"),
    (_logits_record(paragraph_id="p1"),
     "paragraph 'p1' repeats (first at line 1)"),
], ids=["logit-string", "logit-nan-string", "logit-overflow", "int-paragraph",
        "mixed-span-ids", "repeated-span", "no-answer-missing", "not-object",
        "logit-bool", "logit-numeric-string", "adjusted-overflow",
        "repeated-paragraph"])
def test_bad_logits_record_names_its_line(tmp_path, capsys, record, shown):
    logits = tmp_path / "logits.jsonl"
    logits.write_text(_logits_record(paragraph_id="p1") + "\n\n" + record
                      + "\n")
    out = tmp_path / "answer.json"
    assert main(["recompose", "--logits", str(logits), "--out",
                 str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{logits}:3: bad logits record: " in err and shown in err
    assert not out.exists()


def test_logits_without_any_span_is_data_error(tmp_path, capsys):
    logits = tmp_path / "logits.jsonl"
    logits.write_text(_logits_record(paragraph_id="p1", span_ids=()) + "\n"
                      + _logits_record(paragraph_id="p2", span_ids=()) + "\n")
    out = tmp_path / "answer.json"
    assert main(["recompose", "--logits", str(logits), "--out",
                 str(out)]) == 2
    assert (f"{logits}: no span in any paragraph record"
            in capsys.readouterr().err)
    assert not out.exists()


def test_internal_error_exit_code(tmp_path, capsys):
    # corrupt index directory: meta.json missing
    d = tmp_path / "idx"
    d.mkdir()
    out = tmp_path / "x.tsv"
    qs = tmp_path / "q.jsonl"
    save_corpus(make_corpus(["who is x ?"]), qs)
    rc = main(["decompose", "--questions", str(qs), "--index", str(d),
               "--vectors", str(tmp_path / "v.vec"), "--out", str(out)])
    assert rc == 2  # missing file surfaces as a data error


@pytest.mark.parametrize("flags", [
    ["--dim", "0"],
    ["--epochs", "0"],
    ["--batch-size", "0"],
    ["--learning-rate", "0"],
    ["--learning-rate", "nan"],
    ["--seed", "-1"],
    ["--min-count", "0"],
], ids=["dim", "epochs", "batch-size", "learning-rate", "nan-rate", "seed",
        "min-count"])
def test_train_classifier_bad_flag_is_usage_error(tmp_path, capsys, flags):
    # the corpora do not exist: a bad value must fail before they are read
    out = tmp_path / "clf.json"
    assert main(["train-classifier", "--labeled", f"a={tmp_path / 'a.jsonl'}",
                 "--labeled", f"b={tmp_path / 'b.jsonl'}", "--out", str(out)]
                + flags) == 1
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


def test_train_classifier_repeated_label_is_usage_error(tmp_path, capsys):
    # the corpora do not exist: the label must be rejected before they are read
    out = tmp_path / "clf.json"
    assert main(["train-classifier", "--labeled", f"a={tmp_path / 'a.jsonl'}",
                 "--labeled", f"b={tmp_path / 'b.jsonl'}",
                 "--labeled", f"a={tmp_path / 'c.jsonl'}",
                 "--out", str(out)]) == 1
    assert ("usage error: --labeled repeats the label 'a'"
            in capsys.readouterr().err)
    assert not out.exists()


def test_holdout_leaving_no_training_question_is_data_error(tmp_path,
                                                            capsys):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_corpus(make_corpus(["Who is t001?", "Who is t002?"]), a)
    save_corpus(make_corpus(["Where is e001?"], prefix="b"), b)
    out = tmp_path / "clf.json"
    assert main(["train-classifier", "--labeled", f"a={a}", "--labeled",
                 f"b={b}", "--holdout", "0.6", "--out", str(out)]) == 2
    assert (f"{b}: no training question for label 'b': --holdout 0.6 holds "
            f"out 1 of 1") in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "clf.json.manifest.json").exists()


def test_label_whose_texts_hold_no_token_is_data_error(tmp_path, capsys):
    # what noise --drop-prob 1.0 writes: every record kept, every text empty
    a, blank = tmp_path / "a.jsonl", tmp_path / "blank.jsonl"
    save_corpus(make_corpus(["Who is t001?", "Who is t002?"]), a)
    blank.write_text('{"id":"m0","text":""}\n{"id":"m1","text":" "}\n',
                     encoding="utf-8")
    out = tmp_path / "clf.json"
    assert main(["train-classifier", "--labeled", f"single={a}", "--labeled",
                 f"multi={blank}", "--min-count", "1", "--holdout", "0",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {blank}: no training text for label 'multi' holds a token\n")
    assert not out.exists()
    assert not (tmp_path / "clf.json.manifest.json").exists()


def test_empty_labeled_file_is_data_error(tmp_path, capsys):
    a, empty = tmp_path / "a.jsonl", tmp_path / "empty.jsonl"
    save_corpus(make_corpus(["Who is t001?", "Who is t002?"]), a)
    empty.write_bytes(b"")
    out = tmp_path / "clf.json"
    assert main(["train-classifier", "--labeled", f"single={a}", "--labeled",
                 f"multi={empty}", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {empty}: no records\n"
    assert not out.exists()
    assert not (tmp_path / "clf.json.manifest.json").exists()


def test_synth_eval_negative_seed_is_usage_error(tmp_path, capsys):
    # no input exists: the seed must be rejected before any is read
    out = tmp_path / "mrr.json"
    assert main(["synth-eval", "--corpus", str(tmp_path / "c.jsonl"),
                 "--index", str(tmp_path / "idx"),
                 "--vectors", str(tmp_path / "v.vec"),
                 "--objective", "sum-distance", "--seed", "-1",
                 "--out", str(out)]) == 1
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--mask-prob", "2"],
    ["--shuffle-window", "-1"],
    ["--mask-token", ""],
    ["--mask-token", " "],
    ["--mask-token", "a b"],
    ["--seed", "-1"],
], ids=["mask-prob", "shuffle-window", "mask-token", "mask-token-space",
        "mask-token-two-tokens", "seed"])
def test_noise_bad_flag_is_usage_error(tmp_path, capsys, flags):
    out = tmp_path / "noised.jsonl"
    assert main(["noise", "--corpus", str(tmp_path / "c.jsonl"),
                 "--out", str(out)] + flags) == 1
    err = capsys.readouterr().err
    assert "usage error" in err
    assert flags[0][2:].replace("-", "_") in err
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--min-tokens", "10", "--max-tokens", "2"],
    ["--min-tokens", "-1"],
], ids=["min-above-max", "negative"])
def test_build_index_bad_length_bounds_are_usage_error(tmp_path, capsys,
                                                       flags):
    out = tmp_path / "idx"
    assert main(["build-index", "--corpus", str(tmp_path / "c.jsonl"),
                 "--vectors", str(tmp_path / "v.vec"), "--out", str(out)]
                + flags) == 1
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


def _argv(indexed, command):
    """Flags that make a valid run of command over the indexed workspace."""
    tmp, single, vec = indexed["tmp"], str(indexed["single"]), str(indexed["vec"])
    return {
        "extract": ["--lines", str(indexed["lines"]), "--out", str(tmp / "x")],
        "train-classifier": ["--labeled", f"single={single}",
                             "--out", str(tmp / "x")],
        "build-index": ["--vectors", vec, "--out", str(tmp / "x")],
        "decompose": ["--questions", single, "--index", str(indexed["idx"]),
                      "--vectors", vec, "--out", str(tmp / "x")],
        "synth-eval": ["--corpus", single, "--index", str(indexed["idx"]),
                       "--vectors", vec, "--objective", "sum-distance",
                       "--out", str(tmp / "x")],
    }[command]


@pytest.mark.parametrize("command, config, key", [
    ("decompose", {"k": 5.5}, "k"),
    ("decompose", {"method": "variable", "beam_width": "3"}, "beam_width"),
    ("decompose", {"k": True}, "k"),
    ("train-classifier", {"holdout": "0.1"}, "holdout"),
    ("train-classifier", {"epochs": 2.5}, "epochs"),
    ("train-classifier", {"labeled": "single=x.jsonl"}, "labeled"),
    ("build-index", {"corpus": "routed_single.jsonl"}, "corpus"),
    ("build-index", {"corpus": ["a.jsonl"], "no_length_filter": "no"},
     "no_length_filter"),
    ("extract", {"dedup": "no"}, "dedup"),
    ("synth-eval", {"n": 4}, "n"),
], ids=["float-k", "string-beam-width", "bool-k", "string-holdout",
        "float-epochs", "string-labeled", "string-corpus", "string-switch",
        "string-dedup", "n-choice"])
def test_bad_config_value_is_usage_error(indexed, capsys, command, config,
                                         key):
    cfg = indexed["tmp"] / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main([command, "--config", str(cfg)]
                + _argv(indexed, command)) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and str(cfg) in err and repr(key) in err
    assert not (indexed["tmp"] / "x").exists()


def test_config_null_and_list_rules(workspace, capsys):
    cfg = workspace["tmp"] / "cfg.json"
    cfg.write_text(json.dumps({"corpus": [str(workspace["tmp"] / "gone")],
                               "max_tokens": None, "no_length_filter": False,
                               "min_tokens": 2}))
    idx = workspace["tmp"] / "idx"
    # --corpus on the command line replaces the config's whole list
    assert main(["build-index", "--config", str(cfg), "--corpus",
                 str(workspace["single"]), "--vectors", str(workspace["vec"]),
                 "--out", str(idx)]) == 0
    config = json.loads((workspace["tmp"] / "idx.manifest.json").read_text()
                        )["config"]
    assert config["corpus"] == [str(workspace["single"])]
    assert (config["min_tokens"], config["max_tokens"]) == (2, 20)
    assert config["no_length_filter"] is False


_NOT_UTF8 = "is not valid UTF-8, so no manifest can record it"


def test_flag_value_not_utf8_is_a_usage_error(tmp_path, capsys):
    lines = tmp_path / os.fsdecode(b"in\xff.txt")  # "in\udcff.txt"
    lines.write_text("Who is x?\n")
    before = sorted(tmp_path.iterdir())
    assert main(["extract", "--lines", str(lines), "--out",
                 str(tmp_path / "out.jsonl")]) == 1
    err = capsys.readouterr().err
    assert f"usage error: --lines: value {str(lines)!r} {_NOT_UTF8}" in err
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("command, config, key", [
    ("extract", {"lines": "in\udcff.txt", "out": "c.jsonl"}, "lines"),
    ("build-index", {"corpus": ["a.jsonl", "b\udcff.jsonl"],
                     "vectors": "v.vec", "out": "idx"}, "corpus"),
], ids=["string", "list-item"])
def test_config_value_not_utf8_is_a_usage_error(tmp_path, monkeypatch,
                                                capsys, command, config, key):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert "\\udcff" in cfg.read_text()  # a JSON escape, read as a surrogate
    before = sorted(tmp_path.iterdir())
    assert main([command, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert f"usage error: {cfg}: key {key!r}: value " in err
    assert _NOT_UTF8 in err
    assert sorted(tmp_path.iterdir()) == before


def _golden_run(chain, command):
    """argv of command with only its required flags, over the chain
    workspace, and the manifest "config" it must record."""
    tmp = chain["tmp"]
    single, vec, idx = (str(chain[k]) for k in ("single", "vec", "idx"))
    if command == "train-classifier":
        labeled = [f"single={single}", f"multi={chain['multi']}"]
        out = str(tmp / "clf2.json")
        return (["train-classifier", "--labeled", labeled[0], "--labeled",
                 labeled[1], "--out", out],
                {"labeled": labeled, "out": out, "report": None, "dim": 32,
                 "epochs": 5, "learning_rate": 0.1, "batch_size": 8,
                 "min_count": 1, "holdout": 0.1, "seed": 0})
    if command == "build-index":
        out = str(tmp / "idx2")
        return (["build-index", "--corpus", single, "--vectors", vec,
                 "--out", out],
                {"corpus": [single], "vectors": vec, "out": out,
                 "min_tokens": 4, "max_tokens": 20,
                 "no_length_filter": False})
    if command == "decompose":
        out = str(tmp / "pseudo2.tsv")
        return (["decompose", "--questions", single, "--index", idx,
                 "--vectors", vec, "--out", out],
                {"questions": single, "index": idx, "vectors": vec,
                 "out": out, "method": "fixed2", "k": 1000, "n": 2,
                 "max_n": 3, "beam_width": 100, "seed": 0, "workers": 1})
    out = str(tmp / "noised.jsonl")
    return (["noise", "--corpus", single, "--out", out],
            {"corpus": single, "out": out, "mask_prob": 0.15,
             "drop_prob": 0.1, "shuffle_window": 3, "mask_token": "<mask>",
             "seed": 0})


@pytest.mark.parametrize("command", ["train-classifier", "build-index",
                                     "decompose", "noise"])
def test_manifest_config_of_required_flags_only(chain, capsys, command):
    """Every default a run records, with its JSON type: an int stays an
    int and a float a float."""
    argv, expected = _golden_run(chain, command)
    assert main(argv) == 0
    manifest = json.loads(open(argv[argv.index("--out") + 1]
                               + ".manifest.json").read())
    assert manifest["config"] == expected
    assert ({k: type(v) for k, v in manifest["config"].items()}
            == {k: type(v) for k, v in expected.items()})


def _tree_bytes(paths):
    """{path: bytes} of every file in paths, directories walked."""
    found = {}
    for path in paths:
        files = sorted(path.rglob("*")) if path.is_dir() else [path]
        found.update((f, f.read_bytes()) for f in files if f.is_file())
    return found


def test_every_manifest_replays_to_identical_outputs(workspace, capsys):
    from qdecomp.recompose import ParagraphLogits
    tmp = workspace["tmp"]
    qs = list(workspace["corpus"])
    multi = tmp / "multi.jsonl"
    save_corpus(make_corpus([qs[i].raw_text.rstrip("?").rstrip() + " and "
                             + qs[i + 1].raw_text for i in range(0, 40, 2)],
                            prefix="mh"), multi)
    logits = tmp / "logits.jsonl"
    write_logits_jsonl([ParagraphLogits("p1", (("s1", 2.0), ("s2", 0.5)),
                                        0.1)], logits)
    single, vec = str(workspace["single"]), str(workspace["vec"])
    p = {name: tmp / name for name in (
        "corpus.jsonl", "clf.json", "clf.report.json", "preds.jsonl",
        "r_single.jsonl", "r_multi.jsonl", "idx", "pseudo.tsv", "edited.tsv",
        "noised.jsonl", "records.tsv", "report.json", "mrr.json",
        "mrr.json.ranks.json", "answer.json")}
    runs = [
        (["extract", "--lines", str(workspace["lines"]),
          "--out", str(p["corpus.jsonl"]), "--id-prefix", "m", "--dedup"],
         ["corpus.jsonl"]),
        (["train-classifier", "--labeled", f"single={single}",
          "--labeled", f"multi={multi}", "--out", str(p["clf.json"]),
          "--report", str(p["clf.report.json"]), "--dim", "8", "--epochs", "3",
          "--learning-rate", "0.5", "--holdout", "0.25", "--seed", "3"],
         ["clf.json", "clf.report.json"]),
        (["classify", "--model", str(p["clf.json"]), "--corpus", str(multi),
          "--out", str(p["preds.jsonl"])], ["preds.jsonl"]),
        (["route", "--model", str(p["clf.json"]),
          "--mined", str(p["corpus.jsonl"]), "--single-label", "single",
          "--multi-label", "multi", "--out-single", str(p["r_single.jsonl"]),
          "--out-multi", str(p["r_multi.jsonl"])],
         ["r_single.jsonl", "r_multi.jsonl"]),
        (["build-index", "--corpus", single, "--vectors", vec,
          "--out", str(p["idx"]), "--min-tokens", "3"], ["idx"]),
        (["decompose", "--questions", str(multi), "--index", str(p["idx"]),
          "--vectors", vec, "--out", str(p["pseudo.tsv"]),
          "--method", "variable", "--k", "30", "--beam-width", "10"],
         ["pseudo.tsv"]),
        (["edit", "--decompositions", str(p["pseudo.tsv"]),
          "--out", str(p["edited.tsv"])], ["edited.tsv"]),
        (["noise", "--corpus", single, "--out", str(p["noised.jsonl"]),
          "--mask-prob", "0.2", "--seed", "4"], ["noised.jsonl"]),
        (["metrics", "--records", str(p["records.tsv"]),
          "--out", str(p["report.json"])], ["report.json"]),
        (["synth-eval", "--corpus", single, "--index", str(p["idx"]),
          "--vectors", vec, "--objective", "sim-diversity", "--n", "2",
          "--count", "8", "--k", "20", "--out", str(p["mrr.json"])],
         ["mrr.json", "mrr.json.ranks.json"]),
        (["recompose", "--logits", str(logits), "--logits", str(logits),
          "--out", str(p["answer.json"])], ["answer.json"]),
    ]
    for argv, _ in runs:
        if argv[0] == "metrics":
            rows = read_dataset_tsv(p["edited.tsv"])
            p["records.tsv"].write_text(
                "".join(f"{r[1]}\t{r[2]}\t{r[1]}\n" for r in rows))
        assert main(argv) == 0, argv
    assert len(read_dataset_tsv(p["pseudo.tsv"])) == 20
    for argv, outputs in runs:
        manifest = tmp / f"{outputs[0]}.manifest.json"
        paths = [p[name] for name in outputs] + [manifest]
        before = _tree_bytes(paths)
        replay = tmp / "replay.json"
        manifest.rename(replay)
        for path in paths[:-1]:
            if path.is_dir():
                for f in path.iterdir():
                    f.unlink()
            else:
                path.unlink()
        assert main([argv[0], "--config", str(replay)]) == 0, argv[0]
        assert _tree_bytes(paths) == before, argv[0]
