"""Synthetic compositional questions and retrieval-objective benchmarking.

Composites join n sampled single-hop questions with " and " (dropping the
inner question marks). A decomposition's rank is one plus the number of
size-n candidate subsets that score strictly better than the gold subset
under the chosen objective; MRR averages reciprocal ranks.

mrr_eval embeds every composite and finds its top-K pool in one batched
pass, the dataset builder's. The count scores subsets block by block in
one fixed operation order, never holding all C(K, n) scores, and skips
each n = 3 block that a bound, widened by a proven rounding margin, shows
to hold nothing better than gold; the ranks are those of scoring and
comparing every subset.
"""

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .corpus import Question, QuestionCorpus
from .embeddings import make_vector_table
from .retrieval import _block_bounds, _query_rows, _scan_queries, _unit_pool
from .rng import substream

OBJECTIVE_SIM_DIVERSITY = "sim-diversity"
OBJECTIVE_SUM_DISTANCE = "sum-distance"
OBJECTIVES = (OBJECTIVE_SIM_DIVERSITY, OBJECTIVE_SUM_DISTANCE)


@dataclass(frozen=True)
class SyntheticComposite:
    """A built compositional question and the ids it was assembled from."""

    composite: Question
    gold_sub_ids: tuple


def _strip_question_mark(text):
    s = text.rstrip()
    if s.endswith("?"):
        s = s[:-1].rstrip()
    return s


def build_synthetic_compositional(corpus, n, count, seed):
    """Sample ``count`` composites of ``n`` distinct questions each.

    The first n-1 parts lose their trailing question mark; parts join with
    " and ". Deterministic for a given seed.
    """
    if n not in (2, 3):
        raise ValueError("composites use 2 or 3 parts")
    if len(corpus) < n:
        raise ValueError(f"corpus has {len(corpus)} questions, need {n}")
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = substream(seed, "synthbench")
    out = []
    for ci in range(count):
        picked = rng.choice(len(corpus), size=n, replace=False).tolist()
        parts = [_strip_question_mark(corpus.texts[i]) for i in picked[:-1]]
        parts.append(corpus.texts[picked[-1]].strip())
        text = " and ".join(parts)
        composite = Question.from_text(f"synth{n}-{ci:06d}", text)
        out.append(SyntheticComposite(
            composite=composite,
            gold_sub_ids=tuple(corpus.ids[i] for i in picked)))
    return out


def _objective_terms(objective, index, rows, raw_q, unit):
    """(start, member terms, pair terms) of the objective over a pool.

    A size-n subset of pool positions c_1 < ... < c_n scores start, plus
    each member's terms in member order, plus pairs[c_a, c_b] for each pair
    in (1, 2), (1, 3), (2, 3) order, added left to right; higher is better.
    sim-diversity is sum(sims) - sum(gram) (start -0.0 is the additive
    identity). sum-distance is the squared distance |q - sum(raws)|**2
    expanded as qq - 2 q.r + r.r per member + 2 r.r' per pair, negated:
    round-to-nearest is symmetric, so every step rounds to exactly the
    negation of the unnegated step.
    """
    if objective == OBJECTIVE_SIM_DIVERSITY:
        sims, gram = _unit_pool(index, rows, unit)
        return -0.0, (sims,), -gram
    raws = index.raw_matrix[rows].astype(np.float64)
    gram = raws @ raws.T
    return (-float(raw_q @ raw_q), (2.0 * (raws @ raw_q), -np.diag(gram)),
            -2.0 * gram)


def _count_better(start, members, pairs, gold):
    """Subsets of the pool scoring strictly above the gold positions.

    Scores follow _objective_terms exactly, gold's included. n = 2 is one
    (K, K) block masked to j < k. For n = 3 each first member i has a
    (K-i-1)**2 block of (j, k), masked the same way, unless its
    retrieval._block_bounds bound plus margin is not above gold, which
    proves the block holds nothing above gold.
    """
    lead = start
    for v in members:
        lead = lead + v
    score = start
    for p in gold:
        for v in members:
            score = score + v[p]
    for a, b in combinations(gold, 2):
        score = score + pairs[a, b]
    m = len(lead)
    upper = np.arange(m)[:, None] < np.arange(m)
    if len(gold) == 2:
        block = lead[:, None] + members[0]
        for v in members[1:]:
            block += v
        block += pairs
        return int(np.count_nonzero((block > score) & upper))

    bound, margin = _block_bounds(start, members, pairs, upper)
    better = 0
    for i in np.flatnonzero(bound + margin > score).tolist():
        rest = slice(i + 1, None)
        acc = lead[i]
        for v in members:
            acc = acc + v[rest]
        block = acc[:, None] + members[0][rest]
        for v in members[1:]:
            block += v[rest]
        block += pairs[i, rest][:, None]
        block += pairs[i, rest]
        block += pairs[rest, rest]
        better += int(np.count_nonzero((block > score) & upper[rest, rest]))
    return better


def decomposition_rank(objective, composite, gold_sub_ids, index, query, k):
    """Rank of the gold subset among all size-n subsets of the top-K pool.

    Gold ids must exist in the index; gold outside the top-K pool gets the
    worst rank (subset count plus one). Strictly-better scores only. K must
    be at least n, since below it that worst rank would be 1. query is the
    composite's (raw, unit, top-K rows) from mrr_eval's batched scan, or
    None to embed and scan the composite here.

    The count never holds all C(K, n) scores. n = 2 scores one (K, K)
    block of pairs; n = 3 scores K - 2 blocks, one (K-i-1)**2 block of
    (j, k) pairs per first member i, and skips a block when its bound plus
    the rounding margin is not above gold (see retrieval._block_bounds for
    the bound and the margin). Subsets and gold are scored in one fixed
    operation order, so the rank is that of scoring and comparing every
    subset.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    n = len(gold_sub_ids)
    if n < 2 or n > 3:
        raise ValueError("rank evaluation covers 2- or 3-part composites")
    if k < n:
        raise ValueError(f"K={k} is below the subset size {n}")
    for gid in gold_sub_ids:
        if gid not in index:
            raise ValueError(f"gold sub-question {gid!r} is not in the index")
    raw_q, unit, rows = _query_rows(index, composite, k, query)
    pos_of = {r: p for p, r in enumerate(rows)}
    gold_rows = [index.row_of(g) for g in gold_sub_ids]
    if any(r not in pos_of for r in gold_rows):
        return math.comb(len(rows), n) + 1
    terms = _objective_terms(objective, index, rows, raw_q, unit)
    return 1 + _count_better(*terms, sorted(pos_of[r] for r in gold_rows))


@dataclass(frozen=True)
class MrrReport:
    objective: str
    k: int
    mrr: float
    ranks: tuple


def mrr_eval(objective, benchmark, index, k):
    """Mean reciprocal rank over a synthetic benchmark.

    The composites are embedded and their top-K rows found in one batched
    pass (retrieval._scan_queries); each is then ranked by
    decomposition_rank. A composite with no in-vocabulary token is ranked
    without a query, so it raises the scan's no-vocabulary error after the
    rank's own checks.
    """
    if not benchmark:
        raise ValueError("empty benchmark")
    queries = _scan_queries(index, [item.composite.tokens
                                    for item in benchmark], k)
    ranks = [decomposition_rank(objective, item.composite, item.gold_sub_ids,
                                index, query, k)
             for item, query in zip(benchmark, queries)]
    mrr = sum(1.0 / r for r in ranks) / len(ranks)
    return MrrReport(objective=objective, k=k, mrr=mrr, ranks=tuple(ranks))


# ---------------------------------------------------------------------------
# Synthetic corpus and vector-table generators (benchmarks, demos, tests).

WH_STARTERS = ("What", "Who", "Where", "When", "Which")
FUNCTION_WORDS = ("what", "who", "where", "when", "which",
                  "is", "was", "are", "the", "of", "in", "and", "or", "a",
                  "to", "?", ".", ",")


def build_synthetic_singlehop_corpus(count, seed, topics=120, entities=200,
                                     id_prefix="s"):
    """Template questions over synthetic topic/entity vocabularies."""
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = substream(seed, "singlehop-corpus")
    texts = []
    for i in range(count):
        wh = WH_STARTERS[int(rng.integers(len(WH_STARTERS)))]
        topic = f"t{int(rng.integers(topics)):03d}"
        entity = f"e{int(rng.integers(entities)):03d}"
        form = int(rng.integers(3))
        if form == 0:
            text = f"{wh} is the {topic} of {entity}?"
        elif form == 1:
            text = f"{wh} was the {topic} in {entity}?"
        else:
            text = f"{wh} is the {topic} of the {entity}?"
        texts.append(text)
    return QuestionCorpus((f"{id_prefix}{i:08d}" for i in range(count)), texts)


def corpus_vocabulary(corpus, extra=("and",)):
    """Sorted vocabulary of a corpus plus any extra words."""
    return sorted(set(extra).union(*corpus.tokens))


def synthetic_vector_table(words, dim, seed, function_word_scale=0.2):
    """Gaussian word vectors; function words get a smaller norm scale."""
    if dim < 1:
        raise ValueError("dim must be at least 1")
    rng = substream(seed, "vector-table")
    words = list(words)
    matrix = rng.normal(0.0, 1.0, (len(words), dim))
    matrix[[w in FUNCTION_WORDS for w in words]] *= function_word_scale
    return make_vector_table(dict(zip(words, matrix.astype(np.float32))))
