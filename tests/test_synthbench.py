import math
from itertools import combinations

import numpy as np
import pytest

from qdecomp.corpus import Question
from qdecomp.embeddings import make_vector_table
from qdecomp.retrieval import build_index
from qdecomp.synthbench import (
    OBJECTIVE_SIM_DIVERSITY,
    OBJECTIVE_SUM_DISTANCE,
    SyntheticComposite,
    build_synthetic_compositional,
    build_synthetic_singlehop_corpus,
    corpus_vocabulary,
    decomposition_rank,
    mrr_eval,
    synthetic_vector_table,
)

from conftest import make_corpus


def single_word_index(rows):
    rows = np.asarray(rows, dtype=np.float64)
    words = {f"w{i:02d}": rows[i] for i in range(len(rows))}
    words["and"] = np.zeros(rows.shape[1])
    table = make_vector_table(words)
    corpus = make_corpus([f"w{i:02d}" for i in range(len(rows))], prefix="c")
    return build_index(corpus, table, filters=None), table


def rank_oracle(objective, q_raw, q_unit, index, rows, gold_rows, n):
    """Count strictly better subsets among the pool, python-loop style."""
    unit = index.unit_matrix.astype(np.float64)
    raw = index.raw_matrix.astype(np.float64)

    def score(subset):
        if objective == OBJECTIVE_SIM_DIVERSITY:
            val = sum(float(np.dot(q_unit, unit[i])) for i in subset)
            for i, j in combinations(subset, 2):
                val -= float(np.dot(unit[i], unit[j]))
            return val
        vec = raw[sorted(subset)].sum(axis=0)
        return float(np.linalg.norm(q_raw - vec))

    gold = score(gold_rows)
    better = 0
    for subset in combinations(rows, n):
        s = score(list(subset))
        if objective == OBJECTIVE_SIM_DIVERSITY and s > gold:
            better += 1
        if objective == OBJECTIVE_SUM_DISTANCE and s < gold:
            better += 1
    return better + 1


def test_rank_matches_oracle_on_random_instances():
    rng = np.random.default_rng(21)
    for trial in range(8):
        m = int(rng.integers(6, 12))
        dim = int(rng.integers(2, 5))
        index, table = single_word_index(rng.normal(size=(m, dim)))
        i, j = rng.choice(m, size=2, replace=False)
        composite = Question.from_text("comp", f"w{i:02d} and w{j:02d}")
        gold = (f"c{i:08d}", f"c{j:08d}")
        from qdecomp.retrieval import topk_candidates
        from qdecomp.embeddings import embed_text_sum, unit_normalize
        emb = embed_text_sum(composite.tokens, table)
        q_raw = emb.vector
        q_unit = unit_normalize(q_raw)
        for objective in (OBJECTIVE_SIM_DIVERSITY, OBJECTIVE_SUM_DISTANCE):
            got = decomposition_rank(objective, composite, gold, index, table, k=m)
            rows = [index.row_of(g) for g in
                    [i for i, _ in topk_candidates(index, q_unit, m)]]
            gold_rows = [index.row_of(g) for g in gold]
            want = rank_oracle(objective, q_raw, q_unit, index, rows, gold_rows, 2)
            assert got == want, (trial, objective)


def test_rank_one_when_gold_dominates():
    # gold subs orthogonal, everything else far away
    rows = np.array([[4.0, 0.0], [0.0, 4.0], [-3.0, -3.0], [-4.0, -1.0]])
    index, table = single_word_index(rows)
    composite = Question.from_text("comp", "w00 and w01")
    for objective in (OBJECTIVE_SIM_DIVERSITY, OBJECTIVE_SUM_DISTANCE):
        assert decomposition_rank(objective, composite, ("c00000000", "c00000001"),
                                  index, table, k=4) == 1


def test_rank_gold_outside_pool_gets_worst_rank():
    rows = np.array([[4.0, 0.0], [0.0, 4.0], [-1.0, -1.0], [-2.0, -1.0],
                     [3.0, 1.0], [1.0, 3.0]])
    index, table = single_word_index(rows)
    composite = Question.from_text("comp", "w00 and w01")
    # k=3 pool cannot contain both negative-quadrant golds
    got = decomposition_rank(OBJECTIVE_SUM_DISTANCE, composite,
                             ("c00000002", "c00000003"), index, table, k=3)
    assert got == math.comb(3, 2) + 1


def test_rank_missing_gold_is_error():
    index, table = single_word_index(np.eye(3))
    composite = Question.from_text("comp", "w00 and w01")
    with pytest.raises(ValueError, match="not in the index"):
        decomposition_rank(OBJECTIVE_SUM_DISTANCE, composite,
                           ("c00000000", "nope"), index, table, k=3)


def test_rank_rejects_bad_subset_size():
    index, table = single_word_index(np.eye(4))
    composite = Question.from_text("comp", "w00 and w01")
    with pytest.raises(ValueError):
        decomposition_rank(OBJECTIVE_SUM_DISTANCE, composite, ("c00000000",),
                           index, table, k=4)
    with pytest.raises(ValueError, match="below the subset size"):
        decomposition_rank(OBJECTIVE_SUM_DISTANCE, composite,
                           ("c00000000", "c00000001"), index, table, k=1)


def test_synthetic_corpus_is_deterministic_and_question_like():
    a = build_synthetic_singlehop_corpus(50, seed=9)
    b = build_synthetic_singlehop_corpus(50, seed=9)
    assert [q.raw_text for q in a] == [q.raw_text for q in b]
    assert len(a) == 50
    for q in a:
        assert q.raw_text.endswith("?")
        assert q.tokens[0] in {"who", "what", "when", "where", "which"}
    c = build_synthetic_singlehop_corpus(50, seed=10)
    assert [q.raw_text for q in a] != [q.raw_text for q in c]


def test_composites_join_with_and_and_strip_inner_marks():
    S = build_synthetic_singlehop_corpus(30, seed=3)
    bench = build_synthetic_compositional(S, n=3, count=5, seed=4)
    assert len(bench) == 5
    for item in bench:
        assert len(item.gold_sub_ids) == 3
        assert len(set(item.gold_sub_ids)) == 3
        text = item.composite.raw_text
        assert text.count("?") == 1 and text.endswith("?")
        assert text.count(" and ") >= 2  # joiner between all three parts
        parts = [S.by_id(g).raw_text for g in item.gold_sub_ids]
        joined = " and ".join(p.rstrip("?").rstrip() for p in parts[:-1]) \
            + " and " + parts[-1]
        assert text == joined


def test_synthetic_vector_table_scales_function_words():
    S = build_synthetic_singlehop_corpus(20, seed=5)
    vocab = corpus_vocabulary(S)
    table = synthetic_vector_table(vocab, dim=16, seed=6, function_word_scale=0.2)
    assert set(table.entries) == set(vocab)
    content = np.linalg.norm(table.entries["t094"]) if "t094" in table.entries else None
    the = np.linalg.norm(table.entries["the"])
    who = np.linalg.norm(table.entries["what"])
    # function words have deliberately small norms
    assert the < 0.5 * np.mean([np.linalg.norm(v) for w, v in table.entries.items()
                                if w.startswith(("t", "e")) and w not in ("the",)])
    assert who < 1.0


def test_mrr_eval_report():
    rows = np.array([[4.0, 0.0], [0.0, 4.0], [-3.0, -3.0], [-4.0, -1.0]])
    index, table = single_word_index(rows)
    bench = [SyntheticComposite(
        composite=Question.from_text("comp", "w00 and w01"),
        gold_sub_ids=("c00000000", "c00000001"))]
    rep = mrr_eval(OBJECTIVE_SUM_DISTANCE, bench, index, table, k=4)
    assert rep.objective == OBJECTIVE_SUM_DISTANCE
    assert rep.k == 4
    assert rep.ranks == (1,)
    assert rep.mrr == 1.0
