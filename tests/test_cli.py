import hashlib
import json

import numpy as np
import pytest

from qdecomp.cli import main
from qdecomp.corpus import load_corpus, save_corpus
from qdecomp.embeddings import save_vector_table
from qdecomp.retrieval import read_dataset_tsv
from qdecomp.synthbench import (
    build_synthetic_singlehop_corpus,
    corpus_vocabulary,
    synthetic_vector_table,
)

from conftest import make_corpus


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
    single = build_synthetic_singlehop_corpus(80, seed=43, label="single")
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


def test_decompose_edit_metrics_flow(workspace, capsys):
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
    save_corpus(make_corpus(multi_texts, prefix="mh"), mh)

    tsv = tmp / "pseudo.tsv"
    assert main(["decompose", "--questions", str(mh), "--index", str(idx),
                 "--vectors", str(workspace["vec"]), "--out", str(tsv),
                 "--method", "variable", "--k", "40", "--max-n", "3",
                 "--beam-width", "20"]) == 0
    rows = read_dataset_tsv(tsv)
    assert len(rows) == 10
    assert all(r[4] == "variable" for r in rows)

    edited = tmp / "edited.tsv"
    assert main(["edit", "--decompositions", str(tsv), "--out", str(edited)]) == 0
    erows = read_dataset_tsv(edited)
    assert len(erows) == 10
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


@pytest.mark.parametrize("command", ["decompose", "synth-eval"])
def test_vector_dimension_mismatch_is_data_error(indexed, capsys, command):
    narrow = indexed["tmp"] / "narrow.vec"
    save_vector_table(synthetic_vector_table(
        corpus_vocabulary(indexed["corpus"]), dim=16, seed=42), narrow)
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
    assert "dimension 16" in err and "dimension 24" in err
    assert not out.exists()


def _query_argv(indexed, command, vec, out):
    """A valid decompose or synth-eval run over the indexed workspace."""
    argv = [command, "--index", str(indexed["idx"]), "--vectors", str(vec),
            "--out", str(out)]
    if command == "decompose":
        return argv + ["--questions", str(indexed["single"])]
    return argv + ["--corpus", str(indexed["single"]), "--objective",
                   "sum-distance", "--count", "5", "--k", "20"]


@pytest.mark.parametrize("command", ["decompose", "synth-eval"])
def test_other_vectors_of_the_same_dimension_are_data_error(indexed, capsys,
                                                            command):
    other = indexed["tmp"] / "other.vec"
    save_vector_table(synthetic_vector_table(
        corpus_vocabulary(indexed["corpus"]), dim=24, seed=43), other)
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


@pytest.mark.parametrize("name, corrupt, shown", [
    ("unit.npy", lambda m: np.vstack([m, m[:5]]), ["(65, 24)", "(60, 24)"]),
    ("unit.npy", lambda m: m[:-5], ["(55, 24)", "(60, 24)"]),
    ("unit.npy", with_nan, ["NaN"]),
    ("raw.npy", lambda m: np.ascontiguousarray(m[:, :10]),
     ["(60, 10)", "(60, 24)"]),
    ("meta.json", lambda meta: dict(meta, ids=["dup"] * meta["rows"]),
     ["'dup'"]),
    ("meta.json", lambda meta: dict(meta, source="tfidf"), ["'tfidf'"]),
], ids=["extra-rows", "missing-rows", "nan", "narrow-raw", "repeated-id",
        "other-source"])
def test_index_contradicting_meta_is_data_error(indexed, capsys, name,
                                                corrupt, shown):
    path = indexed["idx"] / name
    if name == "meta.json":
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


def test_recompose_command(tmp_path, capsys):
    from qdecomp.recompose import ParagraphLogits, write_logits_jsonl
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
], ids=["dim", "epochs", "batch-size", "learning-rate", "nan-rate", "seed"])
def test_train_classifier_bad_flag_is_usage_error(tmp_path, capsys, flags):
    # the corpora do not exist: a bad value must fail before they are read
    out = tmp_path / "clf.json"
    assert main(["train-classifier", "--labeled", f"a={tmp_path / 'a.jsonl'}",
                 "--labeled", f"b={tmp_path / 'b.jsonl'}", "--out", str(out)]
                + flags) == 1
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


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
], ids=["mask-prob", "shuffle-window", "mask-token"])
def test_noise_bad_flag_is_usage_error(tmp_path, capsys, flags):
    out = tmp_path / "noised.jsonl"
    assert main(["noise", "--corpus", str(tmp_path / "c.jsonl"),
                 "--out", str(out)] + flags) == 1
    assert "usage error" in capsys.readouterr().err
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


def _tree_bytes(paths):
    """{path: bytes} of every file in paths, directories expanded."""
    found = {}
    for path in paths:
        files = sorted(path.iterdir()) if path.is_dir() else [path]
        found.update((f, f.read_bytes()) for f in files)
    return found


def test_every_manifest_replays_to_identical_outputs(workspace, capsys):
    from qdecomp.recompose import ParagraphLogits, write_logits_jsonl
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
