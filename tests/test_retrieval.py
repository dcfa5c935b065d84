import json
import math
from functools import partial
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdecomp import embeddings, retrieval, synthbench
from qdecomp.corpus import Question, QuestionCorpus
from qdecomp.embeddings import embed_blocks, make_vector_table
from qdecomp.retrieval import (
    DecomposeConfig,
    EXHAUSTIVE_SUBSET_CAP,
    EmbeddedIndex,
    LengthFilter,
    PseudoDecomposition,
    build_index,
    build_pseudo_decomposition_dataset,
    decomposition_text,
    load_index,
    pseudo_decompose_fixed,
    pseudo_decompose_general,
    pseudo_decompose_variable,
    read_dataset_tsv,
    save_index,
    write_dataset_tsv,
)

from conftest import make_corpus
from oracles import (embed_sum_oracle, general_argmax_oracle,
                     greedy_general_oracle,
                     pair_argmax_oracle, topk_oracle, variable_argmin_oracle,
                     variable_beam_oracle)


def index_from_rows(rows):
    """One single-word question per row; ids c00, c01, ... follow row order."""
    rows = np.asarray(rows, dtype=np.float64)
    words = {f"w{i:02d}": rows[i] for i in range(len(rows))}
    table = make_vector_table(words)
    corpus = make_corpus([f"w{i:02d}" for i in range(len(rows))], prefix="c")
    # test corpora use bare single-token texts, so length filters stay off
    return build_index(corpus, table, filters=None), table


def add_words(table, words):
    """Add {word: vector} to a table in place; a word it has is replaced."""
    for word, vec in words.items():
        vec = np.asarray(vec, dtype=np.float32)
        if word in table.vocab:
            table.matrix[table.vocab[word]] = vec
        else:
            table.vocab[word] = len(table.matrix)
            table.matrix = np.vstack([table.matrix, vec])


def query_for(table, vec):
    """Question embedding exactly vec, via a dedicated query word."""
    add_words(table, {"qq": vec})
    return Question.from_text("query", "qq")


def nonzero_rows(rng, m, dim, grid=False):
    rows = np.zeros((m, dim))
    for i in range(m):
        while True:
            r = (rng.integers(-2, 3, size=dim).astype(float) if grid
                 else rng.normal(size=dim))
            if np.abs(r).sum() > 1e-9:
                rows[i] = r
                break
    return rows


def embed_sum_unit(table, question):
    [(_, sums)] = embed_blocks([question.tokens], table)
    return sums[0], sums[0] / np.linalg.norm(sums[0])


# ---- top-k ----

def test_topk_orders_by_score_then_id():
    rows = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    index, table = index_from_rows(rows)
    q = query_for(table, [1.0, 0.0])
    _, unit = embed_sum_unit(table, q)
    [(rows, scores)] = retrieval._topk_rows(index, [unit], 3)
    assert [index.ids[r] for r in rows] == ["c00000000", "c00000001",
                                            "c00000003"]
    assert list(scores) == [pytest.approx(1.0)] * 3


def test_topk_breaks_score_ties_by_id_and_signed_zeros_tie():
    # rows orthogonal to q score 0.0, whose sort key -0.0 must tie with
    # 0.0 as Python's sorted does, so all ties fall back to id order
    assert np.lexsort(([1, 0], [-0.0, 0.0])).tolist() == [1, 0]
    rows = np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0], [0.0, -1.0],
                     [-0.0, 1.0], [1.0, 0.0], [0.6, 0.8]], dtype=np.float32)
    ids = ("r5", "r2", "r4", "r0", "r3", "r1", "r6")
    index = EmbeddedIndex(ids=ids, texts=ids, unit_matrix=rows,
                          raw_matrix=rows)
    q = np.array([1.0, -0.0])
    for k in (7, 5):
        [(got_rows, got_scores)] = retrieval._topk_rows(index, [q], k)
        assert got_rows == [5, 2, 6, 3, 1, 4, 0][:k]
        assert got_rows == topk_oracle(q, rows, ids, k)[0]
        assert list(got_scores) == [1.0, 1.0, 0.6000000238418579, 0.0, 0.0,
                                    0.0, 0.0][:k]


def test_topk_k_larger_than_index():
    index, table = index_from_rows(np.eye(3))
    q = query_for(table, [1.0, 0.5, 0.0])
    _, unit = embed_sum_unit(table, q)
    [(rows, scores)] = retrieval._topk_rows(index, [unit], 50)
    assert len(rows) == len(scores) == 3


def test_topk_rejects_bad_k():
    index, table = index_from_rows(np.eye(2))
    q = query_for(table, [1.0, 0.0])
    _, unit = embed_sum_unit(table, q)
    with pytest.raises(ValueError):
        retrieval._topk_rows(index, [unit], 0)


def ulp_neighbour(row, rng):
    """row with each component moved by -1, 0 or +1 float32 ulp."""
    steps = rng.integers(-1, 2, size=row.shape)
    toward = np.where(steps > 0, np.inf, -np.inf).astype(np.float32)
    return np.where(steps == 0, row, np.nextafter(row, toward))


@st.composite
def scan_cases(draw):
    """Unit float32 rows, some of them exact copies or one-ulp neighbours of
    one source row, shuffled ids, a few unit queries (optionally the source
    row itself, so the near-ties rank first), and K from 1 to past N."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 40))
    dim = draw(st.integers(1, 24))
    rows = rng.normal(size=(n, dim))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    rows = rows.astype(np.float32)
    src = draw(st.integers(0, n - 1))
    for dst in rng.choice(n, size=draw(st.integers(0, n - 1)), replace=False):
        if dst != src:
            rows[dst] = (ulp_neighbour(rows[src], rng) if draw(st.booleans())
                         else rows[src])
    ids = tuple(f"r{p:03d}" for p in rng.permutation(n))
    queries = rng.normal(size=(draw(st.integers(1, 4)), dim))
    if draw(st.booleans()):
        queries[0] = rows[src]
    queries /= np.linalg.norm(queries, axis=1, keepdims=True)
    k = draw(st.one_of(st.just(1), st.integers(1, n), st.integers(n, n + 3)))
    return rows, ids, queries, k


@settings(max_examples=300, deadline=None)
@given(scan_cases())
def test_batched_topk_equals_full_float64_scan(case):
    rows, ids, queries, k = case
    index = EmbeddedIndex(ids=ids, texts=ids, unit_matrix=rows,
                          raw_matrix=rows)
    got = retrieval._topk_rows(index, queries, k)
    assert len(got) == len(queries)
    for q, (got_rows, got_scores) in zip(queries, got):
        want_rows, want_scores = topk_oracle(q, rows, ids, k)
        assert got_rows == want_rows
        assert list(got_scores) == want_scores


def test_topk_rejects_bad_queries():
    index, _ = index_from_rows(np.eye(3))
    with pytest.raises(ValueError, match="zero query"):
        retrieval._topk_rows(index, [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], 2)
    with pytest.raises(ValueError, match="matrix"):
        retrieval._topk_rows(index, [1.0, 0.0, 0.0], 2)


# ---- objective oracles ----

def test_fixed_pair_matches_brute_force():
    rng = np.random.default_rng(42)
    for trial in range(20):
        m = int(rng.integers(5, 51))
        dim = int(rng.integers(2, 9))
        rows = nonzero_rows(rng, m, dim)
        index, table = index_from_rows(rows)
        q = query_for(table, rng.normal(size=dim))
        got = pseudo_decompose_fixed(index, Question.from_text("q", "qq"), k=m)
        unit_rows = [index.unit_matrix[i].astype(np.float64) for i in range(m)]
        _, q_unit = embed_sum_unit(table, Question.from_text("q", "qq"))
        want_ids, want_score = pair_argmax_oracle(q_unit, unit_rows, list(index.ids))
        assert got.sub_question_ids == want_ids, f"trial {trial}"
        assert got.objective_score == pytest.approx(want_score, rel=1e-9)
        assert got.method == "fixed2"
        assert got.search_mode == "exhaustive"


def test_fixed_pair_tie_breaks_toward_smallest_id_pair():
    # three identical best rows -> every pair among them ties exactly
    rows = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    index, table = index_from_rows(rows)
    q = query_for(table, [3.0, 1.0])
    got = pseudo_decompose_fixed(index, Question.from_text("q", "qq"), k=4)
    assert got.sub_question_ids == ("c00000000", "c00000003")


def test_general_matches_brute_force_n3():
    rng = np.random.default_rng(7)
    for trial in range(10):
        m = int(rng.integers(6, 19))
        dim = int(rng.integers(2, 7))
        rows = nonzero_rows(rng, m, dim)
        index, table = index_from_rows(rows)
        q = query_for(table, rng.normal(size=dim))
        got = pseudo_decompose_general(index, Question.from_text("q", "qq"),
                                       n=3, k=m)
        unit_rows = [index.unit_matrix[i].astype(np.float64) for i in range(m)]
        _, q_unit = embed_sum_unit(table, Question.from_text("q", "qq"))
        want_ids, want_score = general_argmax_oracle(q_unit, unit_rows, list(index.ids), 3)
        assert got.sub_question_ids == want_ids, f"trial {trial}"
        assert got.objective_score == pytest.approx(want_score, rel=1e-9)
        assert got.search_mode == "exhaustive"


def triu_general3(sims, gram):
    """The n = 3 exhaustive search written with np.triu_indices gathers:
    every position triple tying the best value, in row-major (i, j, k)
    order, and that value."""
    m = len(sims)
    pair_part = sims[:, None] + sims[None, :] - gram
    best, ties = -np.inf, []
    for i in range(m - 2):
        gi = gram[i, i + 1:]
        sub = pair_part[i + 1:, i + 1:] + (sims[i] - gi[:, None] - gi[None, :])
        jj, kk = np.triu_indices(m - i - 1, k=1)
        vals = sub[jj, kk]
        vmax = float(vals.max())
        if vmax > best:
            best, ties = vmax, []
        if vmax == best:
            ties += [(i, i + 1 + int(jj[t]), i + 1 + int(kk[t]))
                     for t in np.flatnonzero(vals == vmax)]
    return ties, best


@pytest.mark.parametrize("seed", range(12))
def test_general_n3_ties_match_the_triu_search(seed):
    # axis rows, each several times over, tie many triples exactly
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 5))
    rows = np.eye(dim)[rng.integers(dim, size=int(rng.integers(5, 13)))]
    if seed % 2:
        rows[0] = rng.normal(size=dim)
    index, table = index_from_rows(rows)
    query_for(table, rng.integers(1, 4, size=dim).astype(float))
    question = Question.from_text("q", "qq")
    got = pseudo_decompose_general(index, question, n=3, k=len(rows))
    _, unit = embed_sum_unit(table, question)
    pool, _ = topk_oracle(unit, index.unit_matrix, index.ids, len(rows))
    cand = index.unit_matrix[pool].astype(np.float64)
    ties, best = triu_general3(cand @ unit, cand @ cand.T)
    assert len(ties) > 1
    want = min(tuple(sorted(index.ids[pool[p]] for p in t)) for t in ties)
    assert got.sub_question_ids == want
    assert repr(got.objective_score) == repr(best)


def ranks_favouring(m, tie):
    """Id ranks that put the positions of tie first, so the smallest-sorted-
    id rule picks tie from any list of ties holding it."""
    return np.argsort(sorted(range(m), key=lambda p: (p not in tie, p)))


def axis_pool(seed):
    """(sims, gram) of a pool of axis rows, each several times over, and of
    a query on the integer grid: many triples tie exactly. Odd seeds then
    move a member of one best triple but not of another by one ulp of the
    best value, so triples that tied are now about an ulp apart."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 5))
    rows = np.eye(dim)[rng.integers(dim, size=int(rng.integers(5, 13)))]
    query = rng.integers(1, 4, size=dim).astype(float)
    query /= np.linalg.norm(query)
    sims, gram = rows @ query, rows @ rows.T
    if seed % 2:
        ties, best = triu_general3(sims, gram)
        p = next(p for p in ties[0] if p not in ties[-1])
        sims[p] += rng.choice([-1.0, 1.0]) * np.spacing(best)
    return sims, gram


def copied_pool(seed):
    """(sims, gram) of normal unit rows, some copies of others, and a normal
    unit query: a copy ties exactly with its original in another block."""
    rng = np.random.default_rng(seed)
    m, dim = int(rng.integers(5, 12)), int(rng.integers(2, 5))
    rows = rng.normal(size=(m, dim))
    copies = int(rng.integers(1, m))
    rows[rng.integers(m, size=copies)] = rows[rng.integers(m, size=copies)]
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    query = rng.normal(size=dim)
    query /= np.linalg.norm(query)
    return rows @ query, rows @ rows.T


# copied_pool seeds where the float64 bound of the (i, j) row holding a
# best triple i < j < k rounds below the best value, so only the rounding
# margin keeps that triple
BOUND_BELOW_A_TIE = (34, 48, 95, 107, 134)


@pytest.mark.parametrize("pruned", [True, False], ids=["pruned", "full-scan"])
@pytest.mark.parametrize("pool, seed",
                         [("axis", s) for s in range(12)]
                         + [("copied", s) for s in BOUND_BELOW_A_TIE])
def test_bounded_n3_search_lists_every_tie_of_the_triu_search(
        monkeypatch, pool, seed, pruned):
    # each tie of the full search must win under ids that favour it, so the
    # bounded search lists every one; forced off (every j > i row bound
    # +inf), it scores all rows in row-major order and must agree as well
    sims, gram = {"axis": axis_pool, "copied": copied_pool}[pool](seed)
    ties, best = triu_general3(sims, gram)
    m = len(sims)
    if pool == "axis":
        assert len(ties) > 1
    else:
        upper = np.triu(np.ones((m, m), dtype=bool), 1)
        bound, _ = retrieval._row_bounds(-0.0, (sims,), -gram, upper)
        assert min(bound[t[0], t[1]] for t in ties) < best
    if not pruned:
        every_row = np.where(np.arange(m)[:, None] < np.arange(m - 1),
                             np.inf, -np.inf)
        monkeypatch.setattr(retrieval, "_row_bounds",
                            lambda *_: (every_row, 0.0))
    for tie in ties:
        chosen, score = retrieval._exhaustive(ranks_favouring(m, tie),
                                              -0.0, (sims,), -gram, 3)
        assert tuple(chosen) == tie
        assert repr(score) == repr(best)


@pytest.mark.parametrize("budget", [1, 7])
@pytest.mark.parametrize("pool, seed",
                         [("axis", s) for s in range(0, 12, 3)]
                         + [("copied", s) for s in BOUND_BELOW_A_TIE])
def test_bounded_n3_search_is_the_same_under_any_chunk_budget(
        monkeypatch, pool, seed, budget):
    # a small budget splits the kept rows over many chunks, so the best
    # rises from chunk to chunk and ties are gathered across chunks; ids
    # that favour any triple, a tie or not, pick the tie the id rule picks
    sims, gram = {"axis": axis_pool, "copied": copied_pool}[pool](seed)
    ties, best = triu_general3(sims, gram)
    monkeypatch.setattr(retrieval, "_COUNT_BLOCK", budget)
    for triple in combinations(range(len(sims)), 3):
        ranks = ranks_favouring(len(sims), triple)
        chosen, score = retrieval._exhaustive(ranks, -0.0, (sims,), -gram, 3)
        assert tuple(chosen) == min(ties, key=lambda t: sorted(ranks[list(t)]))
        assert repr(score) == repr(best)


def exhaustive_order(sims, gram, i, j, k):
    """Triple i < j < k scored in _exhaustive's operation order."""
    return ((sims[j] + sims[k]) - gram[j, k]) + ((sims[i] - gram[i, j])
                                                 - gram[i, k])


def count_order(start, members, pairs, i, j, k):
    """Triple i < j < k scored in retrieval._count_better's operation
    order: start, each position's member terms, then the three pairs."""
    total = start
    for p in (i, j, k):
        for v in members:
            total = total + v[p]
    for a, b in ((i, j), (i, k), (j, k)):
        total = total + pairs[a, b]
    return total


@st.composite
def row_pools(draw, most):
    """3 to most nonzero rows, on an integer grid (exact ties) or normal,
    some of them copies of others, and a nonzero query of the same kind."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m, dim = draw(st.integers(3, most)), draw(st.integers(1, 5))
    grid = draw(st.booleans())
    rows = nonzero_rows(rng, m, dim, grid=grid)
    copies = draw(st.integers(0, m))
    rows[rng.integers(m, size=copies)] = rows[rng.integers(m, size=copies)]
    return rows, nonzero_rows(rng, 1, dim, grid=grid)[0]


def assert_row_bounded(score, start, members, pairs):
    """Every triple's score is at most its (i, j) row's bound plus the
    margin."""
    m = len(members[0])
    upper = np.arange(m)[:, None] < np.arange(m)
    bound, margin = retrieval._row_bounds(start, members, pairs, upper)
    for i, j, k in combinations(range(m), 3):
        assert score(i, j, k) <= bound[i, j] + margin, (i, j, k)


@settings(max_examples=100, deadline=None)
@given(row_pools(14))
def test_row_margin_covers_both_score_orders(case):
    # both n = 3 searches prune by row bounds: one margin serves
    # _exhaustive's order and _count_better's of either objective
    rows, query = case
    index, _ = index_from_rows(rows)
    pool, unit = list(range(len(rows))), query / np.linalg.norm(query)
    terms = retrieval._objective_terms(retrieval.OBJECTIVE_SIM_DIVERSITY,
                                       index, pool, query, unit)
    _, (sims,), pairs = terms
    assert_row_bounded(partial(exhaustive_order, sims, -pairs), *terms)
    for objective in synthbench.OBJECTIVES:
        terms = retrieval._objective_terms(objective, index, pool, query,
                                           unit)
        assert_row_bounded(partial(count_order, *terms), *terms)


# copied_pool seeds where, in both score orders, some triple scores above
# the float64 bound of its (i, j) row, so only the rounding margin covers it
ROW_BOUND_BELOW_A_TRIPLE = (1, 2, 3, 4, 5)


@pytest.mark.parametrize("seed", ROW_BOUND_BELOW_A_TRIPLE + BOUND_BELOW_A_TIE)
def test_row_margin_covers_a_triple_above_its_row_bound(seed):
    sims, gram = copied_pool(seed)
    terms = -0.0, (sims,), -gram
    upper = np.triu(np.ones((len(sims),) * 2, dtype=bool), 1)
    bound, _ = retrieval._row_bounds(*terms, upper)
    for score in (partial(exhaustive_order, sims, gram),
                  partial(count_order, *terms)):
        assert any(score(i, j, k) > bound[i, j]
                   for i, j, k in combinations(range(len(sims)), 3))
        assert_row_bounded(score, *terms)


@pytest.mark.parametrize("m, mode", [(392, "exhaustive"), (393, "greedy")])
def test_general_n3_cap_crossover(m, mode):
    # C(392, 3) = 9,962,680 is within the cap and C(393, 3) = 10,039,316
    # is not: the bounded search leaves the cap where it was
    assert (math.comb(m, 3) <= EXHAUSTIVE_SUBSET_CAP) == (mode == "exhaustive")
    rng = np.random.default_rng(m)
    index, table = index_from_rows(nonzero_rows(rng, m, 6))
    query_for(table, rng.normal(size=6))
    question = Question.from_text("q", "qq")
    got = pseudo_decompose_general(index, question, n=3, k=m)
    assert got.search_mode == mode
    if mode == "exhaustive":
        _, unit = embed_sum_unit(table, question)
        pool, _ = topk_oracle(unit, index.unit_matrix, index.ids, m)
        cand = index.unit_matrix[pool].astype(np.float64)
        ties, best = triu_general3(cand @ unit, cand @ cand.T)
        want = min(tuple(sorted(index.ids[pool[p]] for p in t)) for t in ties)
        assert got.sub_question_ids == want
        assert repr(got.objective_score) == repr(best)


def triu_fixed2(sims, gram):
    """The pair search written with np.triu_indices gathers: every position
    pair tying the best value, in triu_indices order, and that value."""
    iu, ju = np.triu_indices(len(sims), k=1)
    vals = sims[iu] + sims[ju] - gram[iu, ju]
    best = float(vals.max())
    return [(iu[t], ju[t]) for t in np.flatnonzero(vals == best)], best


@st.composite
def pair_pools(draw):
    """Nonzero rows, on an integer grid (exact ties) or normal, some of them
    copies of others; a nonzero query of the same kind; K from 2 to past
    the pool size."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = draw(st.integers(2, 14))
    dim = draw(st.integers(1, 5))
    grid = draw(st.booleans())
    rows = nonzero_rows(rng, m, dim, grid=grid)
    copies = draw(st.integers(0, m))
    rows[rng.integers(m, size=copies)] = rows[rng.integers(m, size=copies)]
    query = nonzero_rows(rng, 1, dim, grid=grid)[0]
    return rows, query, draw(st.integers(2, m + 3))


@settings(max_examples=150, deadline=None)
@given(pair_pools())
def test_fixed2_matches_the_triu_pair_search(case):
    rows, query, k = case
    index, table = index_from_rows(rows)
    query_for(table, query)
    question = Question.from_text("q", "qq")
    got = pseudo_decompose_fixed(index, question, k=k)
    _, unit = embed_sum_unit(table, question)
    pool, _ = topk_oracle(unit, index.unit_matrix, index.ids, k)
    cand = index.unit_matrix[pool].astype(np.float64)
    ties, best = triu_fixed2(cand @ unit, cand @ cand.T)
    want = min(tuple(sorted(index.ids[pool[p]] for p in t)) for t in ties)
    assert got.sub_question_ids == want
    assert repr(got.objective_score) == repr(best)


def test_general_n2_stays_exhaustive_above_the_cap(monkeypatch):
    rng = np.random.default_rng(17)
    index, table = index_from_rows(nonzero_rows(rng, 12, 3))
    query_for(table, rng.normal(size=3))
    question = Question.from_text("q", "qq")
    monkeypatch.setattr(retrieval, "EXHAUSTIVE_SUBSET_CAP", 1)
    got = pseudo_decompose_general(index, question, n=2, k=12)
    assert got == pseudo_decompose_fixed(index, question, k=12)
    assert (got.method, got.search_mode) == ("fixed2", "exhaustive")
    # the patched cap is in force: n = 3 falls back to greedy under it
    n3 = pseudo_decompose_general(index, question, n=3, k=12)
    assert n3.search_mode == "greedy"


def test_general_n2_agrees_with_fixed():
    rng = np.random.default_rng(11)
    rows = nonzero_rows(rng, 20, 4)
    index, table = index_from_rows(rows)
    q = query_for(table, rng.normal(size=4))
    question = Question.from_text("q", "qq")
    a = pseudo_decompose_fixed(index, question, k=20)
    b = pseudo_decompose_general(index, question, n=2, k=20)
    assert a.sub_question_ids == b.sub_question_ids
    assert a.objective_score == b.objective_score


def test_fixed_and_general_share_the_pool_size_check():
    index, table = index_from_rows(np.array([[1.0, 0.5]]))
    query_for(table, [1.0, 0.0])
    question = Question.from_text("q", "qq")
    for select in (partial(pseudo_decompose_fixed, k=5),
                   partial(pseudo_decompose_general, n=2, k=5)):
        with pytest.raises(ValueError,
                           match="^need at least 2 candidates, have 1$"):
            select(index, question)


def test_general_falls_back_to_greedy_above_cap():
    rng = np.random.default_rng(13)
    rows = nonzero_rows(rng, 250, 4)
    index, table = index_from_rows(rows)
    q = query_for(table, rng.normal(size=4))
    assert math.comb(250, 4) > EXHAUSTIVE_SUBSET_CAP
    got = pseudo_decompose_general(index, Question.from_text("q", "qq"),
                                   n=4, k=250)
    assert got.search_mode == "greedy"
    assert len(got.sub_question_ids) == 4
    assert got.sub_question_ids == tuple(sorted(got.sub_question_ids))


@st.composite
def greedy_pools(draw):
    """row_pools of up to 60 rows, K up to 60 and a subset size n from 3 to
    12 that the pool holds."""
    rows, query = draw(row_pools(60))
    k = draw(st.integers(3, 60))
    return rows, query, k, draw(st.integers(3, min(12, k, len(rows))))


@settings(max_examples=150, deadline=None)
@given(greedy_pools())
def test_general_greedy_matches_the_greedy_oracle(case):
    # a cap of 0 sends n = 3 to greedy too; n = 2 is always the pair search
    rows, query, k, n = case
    index, table = index_from_rows(rows)
    query_for(table, query)
    question = Question.from_text("q", "qq")
    with mock.patch.object(retrieval, "EXHAUSTIVE_SUBSET_CAP", 0):
        got = pseudo_decompose_general(index, question, n=n, k=k)
    _, unit = embed_sum_unit(table, question)
    pool, _ = topk_oracle(unit, index.unit_matrix, index.ids, k)
    cand = index.unit_matrix[pool].astype(np.float64)
    want, score = greedy_general_oracle(cand @ unit, cand @ cand.T,
                                        [index.ids[r] for r in pool], n)
    assert got.search_mode == "greedy"
    assert got.sub_question_ids == want
    assert repr(got.objective_score) == repr(score)


def test_variable_matches_brute_force():
    rng = np.random.default_rng(5)
    for trial in range(20):
        grid = trial % 2 == 1  # odd trials use integer vectors so exact ties occur
        m = int(rng.integers(4, 13))
        dim = int(rng.integers(2, 5))
        max_n = int(rng.integers(1, 4))
        rows = nonzero_rows(rng, m, dim, grid=grid)
        index, table = index_from_rows(rows)
        q_vec = (rng.integers(-3, 4, size=dim).astype(float) if grid
                 else rng.normal(size=dim))
        if not q_vec.any():
            q_vec[0] = 1.0
        q = query_for(table, q_vec)
        got = pseudo_decompose_variable(index, Question.from_text("q", "qq"),
                                        max_n=max_n, k=m, beam_width=400)
        raw_q, _ = embed_sum_unit(table, Question.from_text("q", "qq"))
        raw_rows = index.raw_matrix.astype(np.float64)
        want_ids, want_dist = variable_argmin_oracle(raw_q, raw_rows, list(index.ids),
                                                     max_n)
        assert got.sub_question_ids == want_ids, f"trial {trial} (grid={grid})"
        if grid:
            assert got.objective_score == want_dist
        else:
            assert got.objective_score == pytest.approx(want_dist, rel=1e-9)


def test_variable_prefers_fewer_members_on_exact_tie():
    # c02 alone reaches q exactly; so does c00+c01 -> size 1 wins
    rows = np.array([[1.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    index, table = index_from_rows(rows)
    q = query_for(table, [2.0, 0.0])
    got = pseudo_decompose_variable(index, Question.from_text("q", "qq"),
                                    max_n=2, k=3, beam_width=16)
    assert got.sub_question_ids == ("c00000002",)
    assert got.objective_score == 0.0


def test_variable_tie_on_size_prefers_smaller_ids():
    rows = np.array([[2.0, 0.0], [2.0, 0.0]])
    index, table = index_from_rows(rows)
    q = query_for(table, [2.0, 0.0])
    got = pseudo_decompose_variable(index, Question.from_text("q", "qq"),
                                    max_n=1, k=2, beam_width=4)
    assert got.sub_question_ids == ("c00000000",)


@pytest.mark.parametrize("dim", [1, 2, 5, 48])
def test_blocked_subset_sums_are_bitwise_the_per_state_sums(dim):
    # the variable beam's distances are exact only if raws[keys].sum(axis=1)
    # adds rows exactly as the plain beam's raws[list(key)].sum(axis=0)
    # does; chained adds would not for d = 1 and 8 or more rows, where numpy
    # sums pairwise
    rng = np.random.default_rng(dim)
    raws = rng.normal(size=(30, dim)) * rng.choice([1e-8, 1.0, 1e8], size=(30, 1))
    for size in (1, 3, 8, 9, 17):
        keys = np.sort([rng.choice(30, size, replace=False) for _ in range(50)],
                       axis=1)
        for key, got in zip(keys, raws[keys].sum(axis=1)):
            np.testing.assert_array_equal(got, raws[list(key)].sum(axis=0))


@st.composite
def beam_cases(draw):
    """A pool with more states per size than the beam keeps, so the cut at
    beam_width prunes, and ties on that cut: integer grid rows (exact ties),
    or coordinate permutations of one float row around a query whose
    coordinates are all equal (residual norms then agree up to rounding),
    each with some rows duplicated. max_n may exceed the pool size, so the
    search also runs out of states."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = draw(st.integers(2, 10))
    if draw(st.booleans()):
        dim = draw(st.integers(1, 5))
        rows = nonzero_rows(rng, m, dim, grid=True)
        q_vec = rng.integers(-3, 4, size=dim).astype(float)
        q_vec[0] = q_vec[0] or 1.0
    else:
        # summation order only matters once there are several terms
        dim = draw(st.integers(2, 16))
        base = rng.normal(size=dim)
        rows = np.array([rng.permutation(base) for _ in range(m)])
        q_vec = np.full(dim, rng.normal())
    for dst in rng.choice(m, size=draw(st.integers(0, m // 2)), replace=False):
        rows[dst] = rows[rng.integers(m)]
    return rows, q_vec, draw(st.integers(1, 5)), draw(st.integers(1, m + 2))


@settings(max_examples=300, deadline=None)
@given(beam_cases())
def test_variable_beam_equals_plain_beam(case):
    rows, q_vec, beam_width, max_n = case
    index, table = index_from_rows(rows)
    q = query_for(table, q_vec)
    raw_q, unit = embed_sum_unit(table, q)
    pool, _ = topk_oracle(unit, index.unit_matrix, index.ids, len(rows))
    want_ids, want_dist = variable_beam_oracle(
        raw_q, index.raw_matrix[pool], [index.ids[p] for p in pool], max_n,
        beam_width)
    # the whole pool fits in one _BEAM_BLOCK; a block of a few keys splits
    # every size into several
    for block in (retrieval._BEAM_BLOCK, 5 * rows.shape[1]):
        with mock.patch.object(retrieval, "_BEAM_BLOCK", block):
            got = pseudo_decompose_variable(index, q, max_n=max_n,
                                            k=len(rows), beam_width=beam_width)
        assert got.sub_question_ids == want_ids
        assert got.objective_score == want_dist


def test_variable_shortlist_keeps_the_beam_of_near_tie_pools():
    # beam_cases' permuted-row family on larger pools: every residual norm
    # agrees up to rounding, so many (state, position) pairs fall within the
    # shortlist's margin of its cut, and with beam_width below the pool size
    # the shortlist is a strict subset of the extensions
    rng = np.random.default_rng(30)
    for trial in range(400):
        m = int(rng.integers(8, 41))
        dim = int(rng.integers(2, 17))
        base = rng.normal(size=dim)
        rows = np.array([rng.permutation(base) for _ in range(m)])
        for dst in rng.choice(m, size=int(rng.integers(0, m // 2 + 1)),
                              replace=False):
            rows[dst] = rows[rng.integers(m)]
        beam_width, max_n = int(rng.integers(1, m)), int(rng.integers(2, 5))
        index, table = index_from_rows(rows)
        q = query_for(table, np.full(dim, rng.normal()))
        raw_q, unit = embed_sum_unit(table, q)
        pool, _ = topk_oracle(unit, index.unit_matrix, index.ids, m)
        want = variable_beam_oracle(raw_q, index.raw_matrix[pool],
                                    [index.ids[p] for p in pool], max_n,
                                    beam_width)
        got = pseudo_decompose_variable(index, q, max_n=max_n, k=m,
                                        beam_width=beam_width)
        assert (got.sub_question_ids, got.objective_score) == want, trial


# ---- index construction and persistence ----

def test_build_index_length_filter_and_oov_counts(tiny_table):
    corpus = make_corpus([
        "who wrote the hamlet ?",   # kept (5 tokens)
        "who ?",                    # too short
        "zzz yyy xxx qqq www",      # 5 tokens, all OOV
    ])
    index = build_index(corpus, tiny_table, filters=LengthFilter(4, 20))
    assert list(index.ids) == ["q00000000"]
    assert index.filtered_out == 1
    assert index.oov_excluded == 1


def test_build_index_empty_is_error(tiny_table):
    corpus = make_corpus(["zzz yyy"])
    with pytest.raises(ValueError, match="empty"):
        build_index(corpus, tiny_table, filters=None)


def test_empty_index_counts_the_questions_outside_the_token_bounds(
        tiny_table):
    corpus = make_corpus(["who ?", "who wrote the hamlet ?", "zzz yyy"])
    with pytest.raises(ValueError, match=r"^index is empty: of 3 questions, "
                       r"3 fall outside the token bounds and 0 have no "
                       r"in-vocabulary token$"):
        build_index(corpus, tiny_table, filters=LengthFilter(6, 20))


def test_empty_index_counts_the_questions_without_vocabulary(tiny_table):
    corpus = make_corpus(["who ?", "zzz yyy xxx qqq", "yyy zzz xxx www"])
    with pytest.raises(ValueError, match=r"^index is empty: of 3 questions, "
                       r"1 fall outside the token bounds and 2 have no "
                       r"in-vocabulary token$"):
        build_index(corpus, tiny_table, filters=LengthFilter(4, 20))


def test_index_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    index, _ = index_from_rows(rng.normal(size=(6, 3)))
    d = tmp_path / "idx"
    save_index(index, d, "ab" * 32)
    back = load_index(d)
    assert back.vectors_sha256 == "ab" * 32
    assert back.vectors.vocab == index.vectors.vocab
    np.testing.assert_array_equal(back.vectors.matrix, index.vectors.matrix)
    assert back.ids == index.ids
    assert back.texts == index.texts
    assert back.oov_excluded == index.oov_excluded
    assert back.filtered_out == index.filtered_out
    np.testing.assert_array_equal(back.unit_matrix, index.unit_matrix)
    np.testing.assert_array_equal(back.raw_matrix, index.raw_matrix)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 300),
       st.sampled_from((1e-30, 1e-3, 1.0, 1e3, 1e30)))
def test_every_built_index_loads(tmp_path_factory, seed, dim, scale):
    # unit rows keep unit norm within the bound load_index checks, at any
    # dimension and magnitude, with rows of mixed scales and near-zero parts
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(6, dim)) * scale * rng.choice([1e-6, 1.0, 1e6],
                                                          size=(6, 1))
    rows[rng.random(size=rows.shape) < 0.3] = 0.0
    rows[~rows.any(axis=1), 0] = scale
    index, _ = index_from_rows(rows)
    d = tmp_path_factory.mktemp("idx") / "idx"
    save_index(index, d, "ab" * 32)
    np.testing.assert_array_equal(load_index(d).unit_matrix, index.unit_matrix)


def test_load_index_rejects_a_row_that_is_not_unit(tmp_path):
    index, _ = index_from_rows(np.eye(3) + 0.25)
    index.unit_matrix[2] *= np.float32(1 + 2 ** -14)
    save_index(index, tmp_path / "idx", "ab" * 32)
    with pytest.raises(ValueError, match=r"unit\.npy: row 2 has squared norm"):
        load_index(tmp_path / "idx")


def test_load_index_rejects_meta_rows_that_disagree_with_ids(tmp_path):
    index, _ = index_from_rows(np.eye(3))
    save_index(index, tmp_path, "ab" * 32)
    meta = json.loads((tmp_path / "meta.json").read_text())
    meta["texts"] = meta["texts"][:2]
    (tmp_path / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(ValueError, match="rows is 3, but it lists 3 ids "
                                         "and 2 texts"):
        load_index(tmp_path)


def test_index_serialization_is_byte_stable(tmp_path):
    rng = np.random.default_rng(4)
    index, _ = index_from_rows(rng.normal(size=(5, 3)))
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    save_index(index, d1, "ab" * 32)
    save_index(index, d2, "ab" * 32)
    names = ["meta.json", "raw.npy", "unit.npy", "vectors.npy", "vocab.json"]
    assert sorted(p.name for p in d1.iterdir()) == names
    for name in names:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_build_index_equals_per_question_sums_across_blocks():
    # 600 questions span three embed_blocks blocks; opposite words make some
    # sums exactly zero, and those rows are left out as out of vocabulary
    rng = np.random.default_rng(8)
    half = rng.normal(size=(4, 6)) * 10.0 ** rng.integers(-3, 4, (4, 1))
    vectors = dict(zip("abcdefgh", np.vstack([half, -half]).astype(np.float32)))
    table = make_vector_table(vectors)
    texts = [" ".join(rng.choice(list("abcdefghxy"), rng.integers(1, 9)))
             for _ in range(600)]
    texts[:3] = ["a e", "x y", "b f b"]
    corpus = make_corpus(texts)
    index = build_index(corpus, table, filters=LengthFilter(2, 7))
    kept = [q for q in corpus if 2 <= len(q.tokens) <= 7]
    sums = [embed_sum_oracle(q.tokens, vectors, 6) for q in kept]
    embedded = [(q, v) for q, v in zip(kept, sums) if v.any()]
    assert index.ids == tuple(q.id for q, _ in embedded)
    assert index.filtered_out == 600 - len(kept)
    assert index.oov_excluded == len(kept) - len(embedded) >= 3
    for (_, v), raw, unit in zip(embedded, index.raw_matrix, index.unit_matrix):
        assert (raw == v.astype(np.float32)).all()
        assert (unit == (v / np.linalg.norm(v)).astype(np.float32)).all()


@pytest.mark.parametrize("dim, spread", [
    *(pytest.param(d, "rows", id=str(d)) for d in (1, 2, 7, 16, 48, 300, 1000)),
    *(pytest.param(d, "entries", id=f"{d}-entries") for d in (2, 16, 300))])
def test_stacked_matmul_norms_equal_per_row_norms(dim, spread):
    # build_index, _scan_queries and the variable beam take their row norms
    # from _norms, one stacked matmul whose items are one BLAS dot each, as
    # np.linalg.norm's is, so a numpy or BLAS change that breaks the
    # bit-for-bit match fails here; magnitudes span 1e-8 to 1e8 across rows,
    # or within each row
    rng = np.random.default_rng(dim)
    shape = (5000, 1) if spread == "rows" else (5000, dim)
    sums = rng.normal(size=(5000, dim)) * 10.0 ** rng.integers(-8, 9, shape)
    per_row = np.array([np.linalg.norm(v) for v in sums])
    assert retrieval._norms(sums).tobytes() == per_row.tobytes()


def test_scan_queries_divides_each_sum_by_its_norm_across_blocks():
    # lists span three embed_blocks blocks; lists with no in-vocabulary
    # word sit at the start, middle and end of a block and yield None there
    block = embeddings.EMBED_BLOCK
    empty = {0, block // 2, block - 1, block, 2 * block - 1, 2 * block + 40}
    rng = np.random.default_rng(256)
    scaled = rng.normal(size=(6, 5)) * 10.0 ** rng.integers(-8, 9, (6, 5))
    vectors = dict(zip("abcdef", scaled.astype(np.float32)))
    table = make_vector_table(vectors)
    index = build_index(make_corpus(list("abcdef")), table)
    token_lists = [["x", "y"] if i in empty
                   else rng.choice(list("abcdefx"), rng.integers(0, 8)).tolist()
                   + ["abcdef"[i % 6]] for i in range(2 * block + 60)]
    queries = list(retrieval._scan_queries(index, token_lists, None))
    assert len(queries) == len(token_lists)
    for i, (tokens, query) in enumerate(zip(token_lists, queries)):
        if i in empty:
            assert query is None
            continue
        raw, unit, rows = query
        assert raw.tobytes() == embed_sum_oracle(tokens, vectors, 5).tobytes()
        assert unit.tobytes() == (raw / np.linalg.norm(raw)).tobytes()
        assert rows is None


@pytest.mark.parametrize("bounds", [(5, 2), (-1, 20), (0, -1)])
def test_length_filter_rejects_bad_bounds(bounds):
    with pytest.raises(ValueError):
        LengthFilter(*bounds)


def saved_index(path):
    index, _ = index_from_rows(np.eye(3))
    save_index(index, path, "ab" * 32)
    return index


@pytest.mark.parametrize("name, corrupt, message", [
    ("vectors.npy", lambda m: m.astype(np.float64), "float64"),
    ("vectors.npy", lambda m: m[:-1], r"\(2, 3\)"),
    ("vectors.npy", lambda m: np.where(m == 1, np.inf, m).astype(np.float32),
     "NaN or infinite"),
    ("vocab.json", lambda words: words[:-1], "lists 2 words"),
    ("vocab.json", lambda words: [words[0]] * len(words), "'w00' is listed"),
    ("meta.json", lambda meta: dict(meta, vectors=dict(meta["vectors"],
                                                       words=4)),
     "lists 3 words"),
    ("meta.json", lambda meta: dict(meta, vectors=dict(meta["vectors"],
                                                       dim=4)),
     "vectors have dimension 4, but the index has dimension 3"),
], ids=["float64", "missing-row", "inf", "short-vocab", "repeated-word",
        "meta-word-count", "meta-dim"])
def test_load_index_rejects_a_bad_vectors_copy(tmp_path, name, corrupt,
                                               message):
    saved_index(tmp_path)
    path = tmp_path / name
    if name.endswith(".json"):
        path.write_text(json.dumps(corrupt(json.loads(path.read_text()))))
    else:
        np.save(path, corrupt(np.load(path)))
    with pytest.raises(ValueError, match=message):
        load_index(tmp_path)


def test_load_index_names_the_missing_vectors_copy(tmp_path):
    saved_index(tmp_path)
    meta = json.loads((tmp_path / "meta.json").read_text())
    del meta["vectors"]  # as written before the vectors were stored
    (tmp_path / "meta.json").write_text(json.dumps(meta))
    (tmp_path / "vectors.npy").unlink()
    (tmp_path / "vocab.json").unlink()
    with pytest.raises(ValueError, match="vectors.npy is missing"):
        load_index(tmp_path)


# ---- record validation, random baseline, datasets ----

def test_pseudo_decomposition_validation():
    with pytest.raises(ValueError):
        PseudoDecomposition(question_id="q", sub_question_ids=("a", "a"),
                            sub_texts=("x", "y"), objective_score=0.0,
                            method="fixed2")
    with pytest.raises(ValueError):
        PseudoDecomposition(question_id="q", sub_question_ids=("a", "b", "c"),
                            sub_texts=("x", "y", "z"), objective_score=0.0,
                            method="fixed2")


def test_random_baseline_deterministic_and_nan_scored():
    index, _ = index_from_rows(np.eye(10))
    q = Question.from_text("q", "what is it ?")
    a = retrieval._random_from_index(index, q, n=2, seed=5)
    b = retrieval._random_from_index(index, q, n=2, seed=5)
    assert a.sub_question_ids == b.sub_question_ids
    assert len(set(a.sub_question_ids)) == 2
    assert math.isnan(a.objective_score)
    assert a.method == "random"
    assert all(i in index for i in a.sub_question_ids)


def test_dataset_build_worker_count_invariance():
    rng = np.random.default_rng(9)
    rows = nonzero_rows(rng, 30, 4)
    index, table = index_from_rows(rows)
    add_words(table, {f"p{i:02d}": rng.normal(size=4) for i in range(12)})
    questions = make_corpus([f"p{i:02d}" for i in range(12)], prefix="mq")
    cfg1 = DecomposeConfig(method="fixed2", k=30, n=2, max_n=3, beam_width=50,
                           seed=0, workers=1)
    cfg4 = DecomposeConfig(method="fixed2", k=30, n=2, max_n=3, beam_width=50,
                           seed=0, workers=4)
    r1 = build_pseudo_decomposition_dataset(questions, index, cfg1)
    r4 = build_pseudo_decomposition_dataset(questions, index, cfg4)
    assert r1.records == r4.records
    assert r1.failures == r4.failures
    assert [q.id for q, _ in r1.records] == list(questions.ids)


@pytest.mark.parametrize("method, params", [
    ("fixed2", {}),
    ("general", {"n": 3}),
    ("variable", {"max_n": 3, "beam_width": 20}),
])
def test_dataset_build_equals_per_question_calls(monkeypatch, method, params):
    rng = np.random.default_rng(21)
    index, table = index_from_rows(nonzero_rows(rng, 40, 5))
    add_words(table, {f"p{i:02d}": rng.normal(size=5) for i in range(15)})
    questions = make_corpus([f"p{i:02d}" for i in range(15)] + ["unknownword"],
                            prefix="mq")
    scan = retrieval._topk_rows
    chunks = []

    def counted_scan(index, q_units, k):
        chunks.append(len(q_units))
        return scan(index, q_units, k)

    monkeypatch.setattr(retrieval, "_SCAN_BLOCK", 4 * len(index))
    monkeypatch.setattr(retrieval, "_topk_rows", counted_scan)
    config = DecomposeConfig(method=method, k=12, **params)
    result = build_pseudo_decomposition_dataset(questions, index, config)
    assert chunks == [4, 4, 4, 3]

    expected = []
    for q in list(questions)[:15]:
        if method == "fixed2":
            d = pseudo_decompose_fixed(index, q, k=12)
        elif method == "general":
            d = pseudo_decompose_general(index, q, n=3, k=12)
        else:
            d = pseudo_decompose_variable(index, q, max_n=3, k=12,
                                          beam_width=20)
        expected.append((q, d))
    assert result.records == tuple(expected)
    assert result.failures == (("mq00000015", "text has no in-vocabulary tokens"),)


@pytest.mark.parametrize("fields", [
    {"k": 0},
    {"method": "general", "n": 1},
    {"method": "random", "n": 0},
    {"method": "variable", "max_n": 0},
    {"method": "variable", "beam_width": 0},
    {"workers": 0},
    {"method": "nearest"},
    {"k": 1},
    {"method": "general", "n": 4, "k": 3},
    {"method": "random", "seed": -1},
])
def test_decompose_config_rejects_bad_values(fields):
    with pytest.raises(ValueError):
        DecomposeConfig(**fields)


def test_decompose_config_checks_only_what_the_method_uses():
    DecomposeConfig(method="random", k=0, n=1)
    DecomposeConfig(method="fixed2", n=0, max_n=0, beam_width=0)
    DecomposeConfig(method="general", n=4, k=4)
    DecomposeConfig(method="variable", k=1)


def test_dataset_build_records_failures():
    rng = np.random.default_rng(10)
    index, table = index_from_rows(nonzero_rows(rng, 8, 3))
    add_words(table, {"pp": [1.0, -0.5, 0.25]})
    questions = QuestionCorpus(("ok", "oov"), ("pp", "unknownword"))
    cfg = DecomposeConfig(method="fixed2", k=8, n=2, max_n=3, beam_width=10,
                          seed=0, workers=2)
    result = build_pseudo_decomposition_dataset(questions, index, cfg)
    assert [q.id for q, _ in result.records] == ["ok"]
    assert len(result.failures) == 1
    assert result.failures[0][0] == "oov"


def test_dataset_tsv_round_trip(tmp_path):
    q = Question.from_text("q1", "who wrote x and who directed y ?")
    rec = PseudoDecomposition(question_id="q1", sub_question_ids=("a", "b"),
                              sub_texts=("who is x ?", "what is y ?"),
                              objective_score=1.25, method="fixed2")
    p = tmp_path / "d.tsv"
    write_dataset_tsv([(q, rec)], p)
    rows = read_dataset_tsv(p)
    assert rows == [["q1", "who wrote x and who directed y ?",
                     "who is x ? what is y ?", "1.25", "fixed2"]]
    assert float(rows[0][3]) == 1.25


def test_dataset_tsv_score_repr_round_trips(tmp_path):
    q = Question.from_text("q1", "who ?")
    score = 0.1 + 0.2  # not exactly representable; repr must preserve bits
    rec = PseudoDecomposition(question_id="q1", sub_question_ids=("a", "b"),
                              sub_texts=("x ?", "y ?"), objective_score=score,
                              method="fixed2")
    p = tmp_path / "d.tsv"
    write_dataset_tsv([(q, rec)], p)
    assert float(read_dataset_tsv(p)[0][3]) == score


def test_dataset_tsv_sanitizes_control_characters(tmp_path):
    q = Question.from_text("q1", "bad\ttext\nhere ?")
    rec = PseudoDecomposition(question_id="q1", sub_question_ids=("a",),
                              sub_texts=("who\tis\nx ?",), objective_score=0.5,
                              method="variable")
    p = tmp_path / "d.tsv"
    write_dataset_tsv([(q, rec)], p)
    line = p.read_text().splitlines()[0]
    assert line.count("\t") == 4
    rows = read_dataset_tsv(p)
    assert "\t" not in rows[0][1] and "\t" not in rows[0][2]


def test_decomposition_text_joins_with_space():
    rec = PseudoDecomposition(question_id="q1", sub_question_ids=("a", "b"),
                              sub_texts=("who is x ?", "what is y ?"),
                              objective_score=0.0, method="fixed2")
    assert decomposition_text(rec) == "who is x ? what is y ?"
