"""Acceptance suite: nine checks, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; under
plain -v the test names carry the same information. Each check gathers its
evidence first, prints its verdict, then asserts, so a failing criterion
still reports itself before the traceback.
"""

import json
import math
import time

import numpy as np
import pytest

from qdecomp.classifier import (TrainingConfig, evaluate_classifier,
                                train_classifier)
from qdecomp.cli import main
from qdecomp.corpus import Question, save_corpus
from qdecomp.embeddings import save_vector_table
from qdecomp.metrics import (StoppingState, bleu, is_good_decomposition,
                             edit_distance, roundtrip_report,
                             RoundTripRecord, scaled_roundtrip_bleu,
                             stopping_decision)
from qdecomp.noising import NoiseConfig, local_shuffle, word_dropout
from qdecomp.recompose import ParagraphLogits, predict_answer, span_probabilities
from qdecomp.retrieval import (build_index, pseudo_decompose_fixed,
                               pseudo_decompose_variable, read_dataset_tsv)
from qdecomp.rng import substream
from qdecomp.synthbench import (OBJECTIVE_SIM_DIVERSITY, OBJECTIVE_SUM_DISTANCE,
                                build_synthetic_compositional,
                                build_synthetic_singlehop_corpus,
                                corpus_vocabulary, mrr_eval,
                                synthetic_vector_table)

from conftest import make_corpus, synthetic_labeled_split
from oracles import (bleu_oracle, levenshtein_oracle, pair_argmax_oracle,
                     variable_argmin_oracle)
from test_retrieval import embed_sum_unit, index_from_rows, nonzero_rows, query_for


def _verdict(n, ok, detail):
    print(f"\n[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n}: {detail}"


# -----------------------------------------------------------------------
# 1. fixed-size pair search equals brute force

def test_criterion_1_fixed_pair_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    mismatches = []
    for trial in range(20):
        m = int(rng.integers(5, 51))
        dim = int(rng.integers(2, 9))
        index, table = index_from_rows(nonzero_rows(rng, m, dim))
        q = query_for(table, rng.normal(size=dim))
        question = Question.from_text("q", "qq")
        got = pseudo_decompose_fixed(index, question, table, k=m)
        _, unit = embed_sum_unit(table, question)
        want_ids, _ = pair_argmax_oracle(
            unit, [index.unit_matrix[i].astype(np.float64) for i in range(m)],
            list(index.ids))
        if got.sub_question_ids != want_ids:
            mismatches.append((trial, got.sub_question_ids, want_ids))
    elapsed = time.perf_counter() - start
    _verdict(1, not mismatches and elapsed < 1.0,
             f"20/20 random indexes match the exhaustive pair argmax "
             f"({elapsed:.2f}s)" if not mismatches else f"mismatches: {mismatches}")


# -----------------------------------------------------------------------
# 2. variable-length search equals brute-force subset minimization

def test_criterion_2_variable_length_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2002)
    mismatches = []
    for trial in range(20):
        grid = trial % 2 == 1   # integer vectors force exact distance ties
        m = int(rng.integers(4, 13))
        dim = int(rng.integers(2, 5))
        max_n = int(rng.integers(1, 4))
        index, table = index_from_rows(nonzero_rows(rng, m, dim, grid=grid))
        q_vec = (rng.integers(-3, 4, size=dim).astype(float) if grid
                 else rng.normal(size=dim))
        if not q_vec.any():
            q_vec[0] = 1.0
        query_for(table, q_vec)
        question = Question.from_text("q", "qq")
        got = pseudo_decompose_variable(index, question, table, max_n=max_n,
                                        k=m, beam_width=400)
        raw_q, _ = embed_sum_unit(table, question)
        want_ids, want_dist = variable_argmin_oracle(
            raw_q, index.raw_matrix.astype(np.float64), list(index.ids), max_n)
        if got.sub_question_ids != want_ids or not math.isclose(
                got.objective_score, want_dist, rel_tol=1e-9, abs_tol=1e-12):
            mismatches.append((trial, got.sub_question_ids, want_ids))
    elapsed = time.perf_counter() - start
    _verdict(2, not mismatches and elapsed < 1.0,
             f"20/20 instances (ties included) match brute-force subset "
             f"minimization ({elapsed:.2f}s)" if not mismatches
             else f"mismatches: {mismatches}")


# -----------------------------------------------------------------------
# 3. variable-sum objective beats pair objective on 3-part composites

def test_criterion_3_directional_mrr_gap():
    start = time.perf_counter()
    corpus = build_synthetic_singlehop_corpus(1000, seed=11)
    table = synthetic_vector_table(corpus_vocabulary(corpus), dim=48, seed=12)
    index = build_index(corpus, table, filters=None)
    mrr = {}
    for n in (3, 2):
        bench = build_synthetic_compositional(corpus, n=n, count=200, seed=13)
        for objective in (OBJECTIVE_SUM_DISTANCE, OBJECTIVE_SIM_DIVERSITY):
            mrr[(n, objective)] = mrr_eval(objective, bench, index, table,
                                           k=100).mrr
    gap = mrr[(3, OBJECTIVE_SUM_DISTANCE)] - mrr[(3, OBJECTIVE_SIM_DIVERSITY)]
    floor = mrr[(3, OBJECTIVE_SIM_DIVERSITY)]
    elapsed = time.perf_counter() - start
    ok = (gap >= 0.10
          and mrr[(2, OBJECTIVE_SUM_DISTANCE)] >= floor
          and mrr[(2, OBJECTIVE_SIM_DIVERSITY)] >= floor
          and elapsed < 300)
    _verdict(3, ok,
             f"n=3 MRR gap {gap:.3f} >= 0.10 "
             f"(sum-distance {mrr[(3, OBJECTIVE_SUM_DISTANCE)]:.3f} vs "
             f"sim-diversity {mrr[(3, OBJECTIVE_SIM_DIVERSITY)]:.3f}); "
             f"n=2 MRRs {mrr[(2, OBJECTIVE_SUM_DISTANCE)]:.3f}/"
             f"{mrr[(2, OBJECTIVE_SIM_DIVERSITY)]:.3f} both >= {floor:.3f} "
             f"({elapsed:.1f}s)")


# -----------------------------------------------------------------------
# 4. classifier reaches perfect and near-ceiling accuracy

def test_criterion_4_classifier_accuracy():
    start = time.perf_counter()
    cfg = TrainingConfig(dim=16, epochs=30, learning_rate=0.5, seed=0)
    train, heldout = synthetic_labeled_split(seed=101, n_train=100, n_heldout=100)
    acc_disjoint = evaluate_classifier(train_classifier(train, cfg), heldout)
    train2, heldout2 = synthetic_labeled_split(seed=101, n_train=100,
                                               n_heldout=100, flip_fraction=0.1)
    acc_overlap = evaluate_classifier(train_classifier(train2, cfg), heldout2)
    elapsed = time.perf_counter() - start
    ok = acc_disjoint == 1.0 and acc_overlap >= 0.85 and elapsed < 30
    _verdict(4, ok,
             f"disjoint-vocabulary accuracy {acc_disjoint:.2f} == 1.00, "
             f"noisy-fixture accuracy {acc_overlap:.2f} >= 0.85 ({elapsed:.1f}s)")


# -----------------------------------------------------------------------
# 5. metrics suite: BLEU, edit distance, stopping rule

def test_criterion_5_metrics_suite():
    start = time.perf_counter()
    problems = []

    for toks in (["a"], ["a", "b"], ["a", "b", "c"],
                 ["x", "y", "z", "w"], list("abcdefg")):
        if bleu([toks], [toks]) != 1.0:
            problems.append(f"identity failed for {toks}")

    hyp, ref = ["a", "b", "c", "d", "e"], ["a", "b", "c", "d"]
    want = (4 / 5 * 3 / 4 * 2 / 3 * 1 / 2) ** 0.25
    got = bleu([hyp], [ref])
    if abs(got - want) > 1e-9 or abs(got - bleu_oracle([hyp], [ref])) > 1e-9:
        problems.append(f"hand fixture: got {got!r}, want {want!r}")

    rng = np.random.default_rng(5005)
    words = ["a", "b", "c", "d", "ee"]
    for i in range(1000):
        ta = [words[j] for j in rng.integers(0, len(words), rng.integers(0, 12))]
        tb = [words[j] for j in rng.integers(0, len(words), rng.integers(0, 12))]
        qa = Question.from_text("qa", " ".join(ta) if ta else "a")
        want_d = levenshtein_oracle(list(qa.tokens), tb)
        if edit_distance(qa, " ".join(tb)) != want_d:
            problems.append(f"edit distance pair {i}")
            break

    def hist(*values):
        s = StoppingState()
        for e, v in enumerate(values):
            s.append(e, v)
        return s

    stopping_cases = [
        ((5, 4, 4, 3), True), ((1, 2, 3, 4), False), ((1, 2, 3, 4, 5), False),
        ((5, 4, 3), False), ((5,), False), ((), False),
        ((5, 6, 5, 5, 5), True), ((3, 5, 4, 6), False), ((5, 4, 4, 5), True),
        ((1, 1, 1, 1), True), ((1, 2, 1, 1), False), ((10, 1, 1, 1), True),
    ]
    for values, want_stop in stopping_cases:
        if stopping_decision(hist(*values)) is not want_stop:
            problems.append(f"stopping {values}")

    elapsed = time.perf_counter() - start
    ok = not problems and elapsed < 10
    _verdict(5, ok,
             f"BLEU identity/fixture to 1e-9, 1000 edit-distance pairs, "
             f"{len(stopping_cases)} stopping cases ({elapsed:.1f}s)"
             if not problems else "; ".join(problems[:3]))


# -----------------------------------------------------------------------
# 6. recomposition probability math

def test_criterion_6_recomposition_math():
    start = time.perf_counter()
    rng = np.random.default_rng(6006)
    problems = []
    for i in range(1000):
        paras = []
        for p in range(int(rng.integers(2, 5))):
            spans = tuple((f"s{j}", float(rng.normal(scale=3)))
                          for j in range(int(rng.integers(1, 6))))
            paras.append(ParagraphLogits(paragraph_id=f"p{p}",
                                         span_entries=spans,
                                         no_answer_logit=float(rng.normal())))
        probs = span_probabilities(paras)
        if abs(sum(v for _, _, v in probs) - 1.0) > 1e-9:
            problems.append(f"sum at {i}")
            break
        target = paras[0].paragraph_id
        shift = float(rng.normal(scale=5))
        joint = [ParagraphLogits(p.paragraph_id,
                                 tuple((s, v + shift) for s, v in p.span_entries),
                                 p.no_answer_logit + shift)
                 if p.paragraph_id == target else p for p in paras]
        for (pa, sa, va), (pb, sb, vb) in zip(probs, span_probabilities(joint)):
            if (pa, sa) != (pb, sb) or abs(va - vb) > 1e-9:
                problems.append(f"joint shift at {i}")
                break
        everywhere = [ParagraphLogits(p.paragraph_id,
                                      tuple((s, v + shift) for s, v in p.span_entries),
                                      p.no_answer_logit + shift) for p in paras]
        if predict_answer(paras) != predict_answer(everywhere):
            problems.append(f"global argmax at {i}")
            break
    elapsed = time.perf_counter() - start
    ok = not problems and elapsed < 10
    _verdict(6, ok,
             f"1000 random fixtures: sums within 1e-9, per-paragraph joint "
             f"shifts within 1e-9, global-shift argmax exact ({elapsed:.1f}s)"
             if not problems else "; ".join(problems[:3]))


# -----------------------------------------------------------------------
# 7. noising statistics

def test_criterion_7_noising_statistics():
    start = time.perf_counter()
    tokens = [f"t{i}" for i in range(20)]
    trials = 10_000
    p = 0.15
    rng = substream(7007, "acceptance-drop")
    survivors = sum(len(word_dropout(tokens, p, rng)) for _ in range(trials))
    mean = survivors / trials
    three_sigma = 3 * math.sqrt(20 * p * (1 - p)) / math.sqrt(trials)
    drop_ok = abs(mean - 17.0) <= three_sigma

    rng = substream(7007, "acceptance-shuffle")
    violations = 0
    for t in range(trials):
        window = int(rng.integers(0, 6))
        tagged = [f"{tok}#{i}" for i, tok in enumerate(tokens)]
        out = local_shuffle(tagged, window, rng)
        for new_pos, tok in enumerate(out):
            if abs(new_pos - int(tok.rsplit("#", 1)[1])) > window:
                violations += 1
    elapsed = time.perf_counter() - start
    ok = drop_ok and violations == 0 and elapsed < 30
    _verdict(7, ok,
             f"dropout mean {mean:.3f} within 3 sigma ({three_sigma:.3f}) of 17.0; "
             f"0 displacement violations in {trials} shuffles ({elapsed:.1f}s)")


# -----------------------------------------------------------------------
# 8. end-to-end determinism across worker counts

def _pipeline_inputs(tmp):
    corpus = build_synthetic_singlehop_corpus(10_000, seed=61)
    table = synthetic_vector_table(corpus_vocabulary(corpus), dim=48, seed=63)
    vec = tmp / "vectors.vec"
    save_vector_table(table, vec)

    composites = build_synthetic_compositional(corpus, n=2, count=300, seed=62)
    lines = [q.raw_text for q in corpus]
    for i, item in enumerate(composites):
        lines.insert(31 * i % len(lines), item.composite.raw_text)
    for i in range(200):
        lines.insert(47 * i % len(lines), f"Filler prose sentence number {i}.")
    mined = tmp / "mined.txt"
    mined.write_text("\n".join(lines) + "\n")

    label_single = make_corpus([q.raw_text for q in list(corpus)[:300]], prefix="ls")
    more = build_synthetic_compositional(corpus, n=2, count=300, seed=64)
    label_multi = make_corpus([m.composite.raw_text for m in more], prefix="lm")
    sp, mp = tmp / "label_single.jsonl", tmp / "label_multi.jsonl"
    save_corpus(label_single, sp)
    save_corpus(label_multi, mp)
    return vec, mined, sp, mp


def _run_pipeline(tmp, tag, vec, mined, sp, mp, workers, manifests=None):
    """First run: full explicit flags. Rerun: only --config plus overrides."""
    d = tmp / tag
    d.mkdir()
    paths = {
        "corpus": d / "corpus.jsonl", "model": d / "clf.json",
        "single": d / "routed_single.jsonl", "multi": d / "routed_multi.jsonl",
        "index": d / "idx", "tsv": d / "pseudo.tsv", "edited": d / "edited.tsv",
        "records": d / "records.tsv", "report": d / "report.json",
    }

    def run(manifest_key, full, overrides):
        if manifests is None:
            cmd = full
        else:
            cmd = ([full[0], "--config", str(manifests[manifest_key])]
                   + overrides)
        assert main(cmd) == 0, cmd

    run("corpus",
        ["extract", "--lines", str(mined), "--out", str(paths["corpus"]),
         "--id-prefix", "m"],
        ["--out", str(paths["corpus"])])
    run("model",
        ["train-classifier", "--labeled", f"single={sp}",
         "--labeled", f"multi={mp}", "--out", str(paths["model"]),
         "--dim", "16", "--epochs", "50", "--learning-rate", "1.0",
         "--seed", "7"],
        ["--out", str(paths["model"])])
    run("single",
        ["route", "--model", str(paths["model"]), "--mined", str(paths["corpus"]),
         "--single-label", "single", "--multi-label", "multi",
         "--out-single", str(paths["single"]), "--out-multi", str(paths["multi"])],
        ["--model", str(paths["model"]), "--mined", str(paths["corpus"]),
         "--out-single", str(paths["single"]), "--out-multi", str(paths["multi"])])
    run("index",
        ["build-index", "--corpus", str(paths["single"]), "--vectors", str(vec),
         "--out", str(paths["index"])],
        ["--corpus", str(paths["single"]), "--out", str(paths["index"])])
    run("tsv",
        ["decompose", "--questions", str(paths["multi"]),
         "--index", str(paths["index"]), "--vectors", str(vec),
         "--out", str(paths["tsv"]), "--method", "fixed2", "--k", "100",
         "--workers", str(workers)],
        ["--questions", str(paths["multi"]), "--index", str(paths["index"]),
         "--out", str(paths["tsv"]), "--workers", str(workers)])
    run("edited",
        ["edit", "--decompositions", str(paths["tsv"]),
         "--out", str(paths["edited"])],
        ["--decompositions", str(paths["tsv"]), "--out", str(paths["edited"])])
    rows = read_dataset_tsv(paths["edited"])
    with open(paths["records"], "w", encoding="utf-8") as fh:
        for r in rows:
            fh.write(f"{r[1]}\t{r[2]}\t{r[2]}\n")
    run("report",
        ["metrics", "--records", str(paths["records"]),
         "--out", str(paths["report"])],
        ["--records", str(paths["records"]), "--out", str(paths["report"])])
    return paths


def test_criterion_8_pipeline_determinism(tmp_path):
    start = time.perf_counter()
    vec, mined, sp, mp = _pipeline_inputs(tmp_path)
    first = _run_pipeline(tmp_path, "run1", vec, mined, sp, mp, workers=1)
    manifests = {key: f"{path}.manifest.json" for key, path in first.items()
                 if key != "records"}
    second = _run_pipeline(tmp_path, "run2", vec, mined, sp, mp, workers=4,
                           manifests=manifests)
    diffs = []
    for key in ("corpus", "model", "single", "multi", "tsv", "edited",
                "records", "report"):
        if first[key].read_bytes() != second[key].read_bytes():
            diffs.append(key)
    for name in ("meta.json", "unit.npy", "raw.npy", "vectors.npy",
                 "vocab.json"):
        if ((first["index"] / name).read_bytes()
                != (second["index"] / name).read_bytes()):
            diffs.append(f"index/{name}")
    n_records = len(read_dataset_tsv(first["tsv"]))
    elapsed = time.perf_counter() - start
    ok = not diffs and n_records >= 250 and elapsed < 300
    _verdict(8, ok,
             f"10K-question pipeline rerun from manifests at workers=4: "
             f"{n_records} decompositions, all artifacts byte-identical "
             f"({elapsed:.1f}s)" if not diffs else f"differing: {diffs}")


# -----------------------------------------------------------------------
# 9. well-formedness criteria and scaled round-trip score

def test_criterion_9_good_decomposition_and_scaling():
    start = time.perf_counter()
    q = Question.from_text("q", "who played the role and who directed the film ?")
    short_q = Question.from_text("q2", "who wrote x ?")
    cases = [
        (q, "who played the role ? who directed it ?", True),
        (q, "who played it ? who directed it ?", True),
        (q, "who played the role ? what film was directed ?", True),
        (q, "who played the role ?", False),                     # one mark
        (q, "who ? what ? where ?", False),                      # three marks
        (q, "who played the role and who directed the film ? what else ?",
         False),                                                 # verbatim copy
        (q, "film the directed who and role the played who ? ok ?",
         False),                                                 # reordered copy
        (q, "who who who who who who who who who who who ? what ?",
         False),                                                 # over-long sub
        (q, "who played the role what else entirely here now ? and ?",
         True),                                   # sub exactly at length cap
        (short_q, "who wrote x ? who is x ?", False),            # superset sub
        (short_q, "who wrote ? who is x today here ?", False),   # longer than q
        (short_q, "who wrote it ? who is x ?", True),
        (short_q, "no question marks at all", False),
        (short_q, "", False),
    ]
    problems = [d for qq, d, want in cases
                if is_good_decomposition(qq, d) is not want]

    records = [
        RoundTripRecord(question=q,
                        decomposition_text="who played the role ? who directed it ?",
                        roundtrip_text=q.raw_text),
        RoundTripRecord(question=q,
                        decomposition_text="who played the role ?",
                        roundtrip_text="who played the role and who directed it ?"),
        RoundTripRecord(question=short_q,
                        decomposition_text="who wrote it ? who is x ?",
                        roundtrip_text="who wrote x today ?"),
    ]
    rep = roundtrip_report(records)
    scale_ok = (abs(rep.scaled - rep.bleu * rep.good_fraction) <= 1e-9
                and abs(scaled_roundtrip_bleu(records) - rep.scaled) <= 1e-9
                and rep.good_fraction == pytest.approx(2 / 3))
    elapsed = time.perf_counter() - start
    ok = not problems and scale_ok and elapsed < 5
    _verdict(9, ok,
             f"{len(cases)}-case truth table and scaled score == BLEU x "
             f"good-fraction to 1e-9 ({elapsed:.1f}s)"
             if not problems and scale_ok else f"failing cases: {problems}")
