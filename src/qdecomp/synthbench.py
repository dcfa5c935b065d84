"""Synthetic compositional questions and retrieval-objective benchmarking.

Composites join n sampled single-hop questions with " and " (dropping the
inner question marks). A decomposition's rank is one plus the number of
size-n candidate subsets that score strictly better than the gold subset
under the chosen objective; MRR averages reciprocal ranks.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .corpus import Question, QuestionCorpus
from .embeddings import VectorTable
from .retrieval import _topk_rows, embed_query
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
        idx = rng.choice(len(corpus), size=n, replace=False)
        picked = [corpus.questions[int(i)] for i in idx]
        parts = [_strip_question_mark(q.raw_text) for q in picked[:-1]]
        parts.append(picked[-1].raw_text.strip())
        text = " and ".join(parts)
        composite = Question.from_text(f"synth{n}-{ci:06d}", text)
        out.append(SyntheticComposite(composite=composite,
                                      gold_sub_ids=tuple(q.id for q in picked)))
    return out


@lru_cache(maxsize=8)
def _subset_columns(m, n):
    combos = np.array(list(combinations(range(m), n)), dtype=np.intp)
    return tuple(combos[:, i] for i in range(n))


def _scores_sim_diversity(index, rows, unit, cols):
    cand = index.unit_matrix[rows].astype(np.float64)
    sims = cand @ unit
    gram = cand @ cand.T
    score = sims[cols[0]].copy()
    for c in cols[1:]:
        score += sims[c]
    for i in range(len(cols)):
        for j in range(i + 1, len(cols)):
            score -= gram[cols[i], cols[j]]
    return score


def _scores_sum_distance(index, rows, raw_q, cols):
    raws = index.raw_matrix[rows].astype(np.float64)
    dots = raws @ raw_q
    gram = raws @ raws.T
    diag = np.diag(gram)
    qq = float(raw_q @ raw_q)
    sq = np.full(cols[0].shape, qq)
    for c in cols:
        sq -= 2.0 * dots[c]
        sq += diag[c]
    for i in range(len(cols)):
        for j in range(i + 1, len(cols)):
            sq += 2.0 * gram[cols[i], cols[j]]
    return sq


def decomposition_rank(objective, composite, gold_sub_ids, index, source, k):
    """Rank of the gold subset among all size-n subsets of the top-K pool.

    Gold ids must exist in the index; gold outside the top-K pool gets the
    worst rank (subset count plus one). Strictly-better scores only. K must
    be at least n, since below it that worst rank would be 1.
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
    raw_q, unit = embed_query(source, composite.tokens)
    [(rows, _)] = _topk_rows(index, [unit], k)
    pos_of = {r: p for p, r in enumerate(rows)}
    gold_rows = [index.row_of(g) for g in gold_sub_ids]
    if any(r not in pos_of for r in gold_rows):
        return math.comb(len(rows), n) + 1
    cols = _subset_columns(len(rows), n)
    if objective == OBJECTIVE_SIM_DIVERSITY:
        scores = _scores_sim_diversity(index, rows, unit, cols)
        higher_is_better = True
    else:
        scores = _scores_sum_distance(index, rows, raw_q, cols)
        higher_is_better = False
    gold_pos = np.array(sorted(pos_of[r] for r in gold_rows), dtype=np.intp)
    mask = np.ones(scores.shape, dtype=bool)
    for c, g in zip(cols, gold_pos):
        mask &= c == g
    gold_idx = int(np.flatnonzero(mask)[0])
    gold_score = scores[gold_idx]
    if higher_is_better:
        better = scores > gold_score
    else:
        better = scores < gold_score
    return 1 + int(np.count_nonzero(better))


@dataclass(frozen=True)
class MrrReport:
    objective: str
    k: int
    mrr: float
    ranks: tuple


def mrr_eval(objective, benchmark, index, source, k):
    """Mean reciprocal rank over a synthetic benchmark."""
    if not benchmark:
        raise ValueError("empty benchmark")
    ranks = [decomposition_rank(objective, item.composite, item.gold_sub_ids,
                                index, source, k)
             for item in benchmark]
    mrr = sum(1.0 / r for r in ranks) / len(ranks)
    return MrrReport(objective=objective, k=k, mrr=mrr, ranks=tuple(ranks))


# ---------------------------------------------------------------------------
# Synthetic corpus and vector-table generators (benchmarks, demos, tests).

WH_STARTERS = ("What", "Who", "Where", "When", "Which")
FUNCTION_WORDS = ("what", "who", "where", "when", "which",
                  "is", "was", "are", "the", "of", "in", "and", "or", "a",
                  "to", "?", ".", ",")


def build_synthetic_singlehop_corpus(count, seed, topics=120, entities=200,
                                     label="single-hop", id_prefix="s"):
    """Template questions over synthetic topic/entity vocabularies."""
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = substream(seed, "singlehop-corpus")
    questions = []
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
        questions.append(Question.from_text(f"{id_prefix}{i:08d}", text))
    return QuestionCorpus(tuple(questions), label=label)


def corpus_vocabulary(corpus, extra=("and",)):
    """Sorted vocabulary of a corpus plus any extra words."""
    vocab = set(extra)
    for q in corpus:
        vocab.update(q.tokens)
    return sorted(vocab)


def synthetic_vector_table(words, dim, seed, function_word_scale=0.2):
    """Gaussian word vectors; function words get a smaller norm scale."""
    if dim < 1:
        raise ValueError("dim must be at least 1")
    rng = substream(seed, "vector-table")
    function_words = set(FUNCTION_WORDS)
    entries = {}
    for word in words:
        vec = rng.normal(0.0, 1.0, dim)
        if word in function_words:
            vec *= function_word_scale
        entries[word] = vec.astype(np.float32)
    return VectorTable(dim=dim, entries=entries)
