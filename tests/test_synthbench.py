import math
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qdecomp import retrieval
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
from oracles import embed_sum_oracle, rank_oracle, topk_oracle


def single_word_index(rows):
    rows = np.asarray(rows, dtype=np.float64)
    words = {f"w{i:02d}": rows[i] for i in range(len(rows))}
    words["and"] = np.zeros(rows.shape[1])
    table = make_vector_table(words)
    corpus = make_corpus([f"w{i:02d}" for i in range(len(rows))], prefix="c")
    return build_index(corpus, table, filters=None), table


def distance_rank_oracle(objective, q_raw, q_unit, index, rows, gold_rows, n):
    """Count strictly better subsets among the pool, python-loop style, with
    sum-distance taken as the norm itself rather than its expansion."""
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
        from qdecomp.embeddings import embed_blocks
        [(_, sums)] = embed_blocks([composite.tokens], table)
        q_raw = sums[0]
        q_unit = q_raw / np.linalg.norm(q_raw)
        for objective in (OBJECTIVE_SIM_DIVERSITY, OBJECTIVE_SUM_DISTANCE):
            got = decomposition_rank(objective, composite, gold, index, None,
                                     k=m)
            [(rows, _)] = retrieval._topk_rows(index, [q_unit], m)
            gold_rows = [index.row_of(g) for g in gold]
            want = distance_rank_oracle(objective, q_raw, q_unit, index, rows,
                                        gold_rows, 2)
            assert got == want, (trial, objective)


@st.composite
def rank_cases(draw):
    """Single-word index rows, a query vector, gold positions and K.

    Rows are integer-valued (exact ties under sum-distance), Gaussian, or
    scaled coordinate permutations of one Gaussian row, and some are copies
    of others, so other subsets score exactly gold's value or differ from
    it only by rounding. The query is often gold's summed rows, so gold
    ranks near the top and the bound has blocks to skip.
    K runs from n to past the index size; below it gold can fall outside
    the pool.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.sampled_from((2, 3)))
    m = draw(st.integers(n, 9))
    dim = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(("grid", "normal", "permuted")))
    grid = kind == "grid"
    base = rng.normal(size=dim)
    rows = np.zeros((m, dim))
    for i in range(m):
        while not rows[i].any():
            if kind == "permuted":
                rows[i] = rng.permutation(base) * rng.choice([0.5, 1.0, 2.0])
            else:
                rows[i] = (rng.integers(-3, 4, size=dim) if grid
                           else rng.normal(size=dim))
    for dst in rng.choice(m, size=draw(st.integers(0, m - 1)), replace=False):
        rows[dst] = rows[rng.integers(m)]
    gold = rng.choice(m, size=n, replace=False)
    q_vec = rows[gold].sum(axis=0)
    if draw(st.booleans()) or not q_vec.any():
        q_vec = (rng.integers(-3, 4, size=dim) if grid
                 else rng.normal(size=dim))
        q_vec[0] = q_vec[0] or 1.0
    return rows, q_vec, gold, draw(st.integers(n, m + 3))


def query_index(rows, q_vec):
    """Index of one single-word question per row, and a table with the word
    "qq" whose vector is q_vec."""
    words = {f"w{i:02d}": row for i, row in enumerate(rows)}
    words["qq"] = q_vec
    table = make_vector_table(words)
    corpus = make_corpus([f"w{i:02d}" for i in range(len(rows))], prefix="c")
    return build_index(corpus, table, filters=None), table


# two rows a, b and b / 2, with gold {b / 2, a, a} summing to the query: a
# block whose bound is exactly gold's score holds a subset that rounds
# above it, so a block skipped without the rounding margin loses a count
_A = [-0.7868285179138184, 0.24152354896068573]
_B = [0.9660941958427429, -3.1473140716552734]
_H = [0.48304709792137146, -1.5736570358276367]


@settings(max_examples=400, deadline=None)
@given(rank_cases())
@example((np.array([_A, _B, _H, _B, _A, _A, _H, _A]),
          np.array([-1.0906100273132324] * 2), np.array([6, 0, 4]), 8))
def test_rank_equals_full_enumeration(case):
    rows, q_vec, gold, k = case
    index, table = query_index(rows, q_vec)
    composite = Question.from_text("comp", "qq")
    gold_ids = tuple(index.ids[g] for g in gold)
    q_raw = embed_sum_oracle(["qq"], {"qq": table.matrix[table.vocab["qq"]]},
                             table.dim)
    q_unit = q_raw / np.linalg.norm(q_raw)
    pool, _ = topk_oracle(q_unit, index.unit_matrix, index.ids, k)
    in_pool = all(g in pool for g in gold)
    for objective in (OBJECTIVE_SIM_DIVERSITY, OBJECTIVE_SUM_DISTANCE):
        want = rank_oracle(objective, q_raw, q_unit, index.unit_matrix[pool],
                           index.raw_matrix[pool],
                           [pool.index(g) for g in gold] if in_pool else None,
                           len(gold))
        assert decomposition_rank(objective, composite, gold_ids, index, None,
                                  k) == want


def seeded_rank_case(seed):
    """rank_cases' kinds of row (grid, normal, permuted) and copies, from a
    seed, in pools of 12 to 30 rows, with gold three rows that the query is
    the sum of for even seeds."""
    rng = np.random.default_rng(seed)
    m, dim = int(rng.integers(12, 31)), int(rng.integers(1, 6))
    kind = ("grid", "normal", "permuted")[seed % 3]
    base = rng.normal(size=dim)
    rows = np.zeros((m, dim))
    for i in range(m):
        while not rows[i].any():
            if kind == "permuted":
                rows[i] = rng.permutation(base) * rng.choice([0.5, 1.0, 2.0])
            else:
                rows[i] = (rng.integers(-3, 4, size=dim) if kind == "grid"
                           else rng.normal(size=dim))
    for dst in rng.choice(m, size=int(rng.integers(0, m)), replace=False):
        rows[dst] = rows[rng.integers(m)]
    gold = rng.choice(m, size=3, replace=False)
    q_vec = rows[gold].sum(axis=0)
    if seed % 2 or not q_vec.any():
        q_vec = rng.normal(size=dim)
    return rows, q_vec, gold


@pytest.mark.parametrize("seed", range(24))
def test_rank_is_the_same_under_any_chunk_budget(seed):
    # _count_better scores the rows it keeps in chunks of whole rows under
    # _COUNT_BLOCK entries; a chunk over the budget is a single row
    rows, q_vec, gold = seeded_rank_case(seed)
    index, table = query_index(rows, q_vec)
    composite = Question.from_text("comp", "qq")
    gold_ids = tuple(index.ids[g] for g in gold)
    q_raw = table.matrix[table.vocab["qq"]].astype(np.float64)
    q_unit = q_raw / np.linalg.norm(q_raw)
    k = len(rows)
    pool, _ = topk_oracle(q_unit, index.unit_matrix, index.ids, k)
    ranges, chunks = retrieval._ranges, []

    def spy(starts, ends):
        chunks.append(ends - starts)
        return ranges(starts, ends)

    for objective in (OBJECTIVE_SIM_DIVERSITY, OBJECTIVE_SUM_DISTANCE):
        want = rank_oracle(objective, q_raw, q_unit, index.unit_matrix[pool],
                           index.raw_matrix[pool],
                           [pool.index(g) for g in gold], 3)
        for budget in (retrieval._COUNT_BLOCK, 1, 7):
            chunks.clear()
            with mock.patch.object(retrieval, "_COUNT_BLOCK", budget), \
                    mock.patch.object(retrieval, "_ranges", spy):
                got = decomposition_rank(objective, composite, gold_ids,
                                         index, None, k)
            assert got == want, (objective, budget)
            for sizes in chunks:  # each row's K - 1 - j entries
                assert sizes.sum() <= budget or len(sizes) == 1


def test_mrr_eval_ranks_each_composite_as_decomposition_rank(monkeypatch):
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(12, 4))
    index, _ = single_word_index(rows)
    words = [f"w{i:02d}" for i in range(12)]
    bench = [SyntheticComposite(
        composite=Question.from_text(f"comp{c}", " and ".join(
            words[g] for g in gold)),
        gold_sub_ids=tuple(index.ids[g] for g in gold))
        for c, gold in enumerate(rng.choice(12, size=3, replace=False)
                                 for _ in range(7))]
    chunks = []
    scan = retrieval._topk_rows

    def counted_scan(index, q_units, k):
        chunks.append(len(q_units))
        return scan(index, q_units, k)

    monkeypatch.setattr(retrieval, "_SCAN_BLOCK", 3 * len(index))
    monkeypatch.setattr(retrieval, "_topk_rows", counted_scan)
    for objective in (OBJECTIVE_SIM_DIVERSITY, OBJECTIVE_SUM_DISTANCE):
        chunks.clear()
        rep = mrr_eval(objective, bench, index, k=8)
        assert chunks == [3, 3, 1]
        assert rep.ranks == tuple(
            decomposition_rank(objective, item.composite, item.gold_sub_ids,
                               index, None, k=8) for item in bench)


def test_mrr_eval_out_of_vocabulary_composite_is_error():
    index, _ = single_word_index(np.eye(4) + 0.5)
    bench = [SyntheticComposite(
        composite=Question.from_text(f"comp{c}", text),
        gold_sub_ids=("c00000000", "c00000001"))
        for c, text in enumerate(["w00 and w01", "unknown words"])]
    with pytest.raises(ValueError, match="no in-vocabulary tokens"):
        mrr_eval(OBJECTIVE_SIM_DIVERSITY, bench, index, k=4)


def test_rank_one_when_gold_dominates():
    # gold subs orthogonal, everything else far away
    rows = np.array([[4.0, 0.0], [0.0, 4.0], [-3.0, -3.0], [-4.0, -1.0]])
    index, _ = single_word_index(rows)
    composite = Question.from_text("comp", "w00 and w01")
    for objective in (OBJECTIVE_SIM_DIVERSITY, OBJECTIVE_SUM_DISTANCE):
        assert decomposition_rank(objective, composite, ("c00000000", "c00000001"),
                                  index, None, k=4) == 1


def test_rank_gold_outside_pool_gets_worst_rank():
    rows = np.array([[4.0, 0.0], [0.0, 4.0], [-1.0, -1.0], [-2.0, -1.0],
                     [3.0, 1.0], [1.0, 3.0]])
    index, _ = single_word_index(rows)
    composite = Question.from_text("comp", "w00 and w01")
    # k=3 pool cannot contain both negative-quadrant golds
    got = decomposition_rank(OBJECTIVE_SUM_DISTANCE, composite,
                             ("c00000002", "c00000003"), index, None, k=3)
    assert got == math.comb(3, 2) + 1


def test_rank_missing_gold_is_error():
    index, _ = single_word_index(np.eye(3))
    composite = Question.from_text("comp", "w00 and w01")
    with pytest.raises(ValueError, match="not in the index"):
        decomposition_rank(OBJECTIVE_SUM_DISTANCE, composite,
                           ("c00000000", "nope"), index, None, k=3)


def test_rank_rejects_bad_subset_size():
    index, _ = single_word_index(np.eye(4))
    composite = Question.from_text("comp", "w00 and w01")
    with pytest.raises(ValueError):
        decomposition_rank(OBJECTIVE_SUM_DISTANCE, composite, ("c00000000",),
                           index, None, k=4)
    with pytest.raises(ValueError, match="below the subset size"):
        decomposition_rank(OBJECTIVE_SUM_DISTANCE, composite,
                           ("c00000000", "c00000001"), index, None, k=1)


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
    assert set(table.vocab) == set(vocab)
    norms = {w: np.linalg.norm(table.matrix[r]) for w, r in table.vocab.items()}
    the = norms["the"]
    who = norms["what"]
    # function words have deliberately small norms
    assert the < 0.5 * np.mean([v for w, v in norms.items()
                                if w.startswith(("t", "e")) and w not in ("the",)])
    assert who < 1.0


def test_mrr_eval_report():
    rows = np.array([[4.0, 0.0], [0.0, 4.0], [-3.0, -3.0], [-4.0, -1.0]])
    index, _ = single_word_index(rows)
    bench = [SyntheticComposite(
        composite=Question.from_text("comp", "w00 and w01"),
        gold_sub_ids=("c00000000", "c00000001"))]
    rep = mrr_eval(OBJECTIVE_SUM_DISTANCE, bench, index, k=4)
    assert rep.objective == OBJECTIVE_SUM_DISTANCE
    assert rep.k == 4
    assert rep.ranks == (1,)
    assert rep.mrr == 1.0
