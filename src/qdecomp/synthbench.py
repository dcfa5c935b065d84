"""Synthetic compositional questions and retrieval-objective benchmarking.

Composites join n sampled single-hop questions with " and " (dropping the
inner question marks). A decomposition's rank is one plus the number of
size-n candidate subsets that score strictly better than the gold subset
under the chosen objective; MRR averages reciprocal ranks.

Only that policy is here: the objectives' terms and the count of better
subsets are retrieval's (_objective_terms, _count_better): the terms the
selectors read, and the n = 3 row bounds, margin and walk that the general
search takes too. mrr_eval embeds every composite and finds its top-K pool
in one batched pass, the dataset builder's.
"""

import math
from dataclasses import dataclass

import numpy as np

from .corpus import Question, QuestionCorpus
from .embeddings import make_vector_table
from .retrieval import (OBJECTIVE_SIM_DIVERSITY, OBJECTIVE_SUM_DISTANCE,
                        OBJECTIVES, _count_better, _objective_terms,
                        _query_rows, _scan_queries)
from .rng import substream


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


def decomposition_rank(objective, composite, gold_sub_ids, index, query, k):
    """Rank of the gold subset among all size-n subsets of the top-K pool.

    Gold ids must exist in the index; gold outside the top-K pool gets the
    worst rank (subset count plus one). Strictly-better scores only. K must
    be at least n, since below it that worst rank would be 1. query is the
    composite's (raw, unit, top-K rows) from mrr_eval's batched scan, or
    None to embed and scan the composite here.

    The count is retrieval._count_better over the objective's
    retrieval._objective_terms. It scores subsets and gold in one fixed
    operation order. For n = 3 it skips each (i, j) row of subsets that a
    bound widened by a proven rounding margin shows to hold nothing above
    gold, and scores the rest in chunks of a fixed number of entries (the
    row walk of the general n = 3 search), so it never holds all C(K, 3)
    scores, yet the rank is that of scoring and comparing every subset.
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
