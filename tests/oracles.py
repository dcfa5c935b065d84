"""Independent reference implementations used to cross-check the package.

Everything here is written as a direct, slow transcription of the intended
behavior (python loops, collections.Counter, full DP matrices). Nothing in
this module imports from qdecomp, so agreement between the two code paths is
meaningful.
"""

import math
from collections import Counter
from itertools import combinations

import numpy as np


def pair_argmax_oracle(q_unit, unit_rows, ids):
    """Brute-force best pair under sim(q,a) + sim(q,b) - sim(a,b).

    Returns (sorted id pair, score). Ties break toward the lexicographically
    smallest sorted id pair.
    """
    best = None
    m = len(ids)
    for i in range(m):
        for j in range(i + 1, m):
            a = unit_rows[i]
            b = unit_rows[j]
            val = float(np.dot(q_unit, a) + np.dot(q_unit, b) - np.dot(a, b))
            key = tuple(sorted((ids[i], ids[j])))
            if best is None or val > best[1] or (val == best[1] and key < best[0]):
                best = (key, val)
    return best


def general_argmax_oracle(q_unit, unit_rows, ids, n):
    """Brute-force best size-n subset: sum of query sims minus unordered
    pairwise sims. Ties break toward the smallest sorted id tuple."""
    best = None
    m = len(ids)
    for subset in combinations(range(m), n):
        val = 0.0
        for i in subset:
            val += float(np.dot(q_unit, unit_rows[i]))
        for i, j in combinations(subset, 2):
            val -= float(np.dot(unit_rows[i], unit_rows[j]))
        key = tuple(sorted(ids[i] for i in subset))
        if best is None or val > best[1] or (val == best[1] and key < best[0]):
            best = (key, val)
    return best


def variable_argmin_oracle(q_raw, raw_rows, ids, max_n):
    """Brute-force subset of size 1..max_n minimizing ||q - sum of rows||.

    Mirrors the package's arithmetic exactly (float64 rows indexed in
    ascending position order, summed with ndarray.sum) so that genuine ties
    are bit-identical; ties prefer smaller subsets, then lexicographic ids.
    Returns (ids tuple, distance).
    """
    rows = np.asarray(raw_rows, dtype=np.float64)
    best = None
    m = len(ids)
    for size in range(1, max_n + 1):
        for subset in combinations(range(m), size):
            vec = rows[list(subset)].sum(axis=0)
            dist = float(np.linalg.norm(np.asarray(q_raw, dtype=np.float64) - vec))
            key = (dist, size, tuple(sorted(ids[i] for i in subset)))
            if best is None or key < best:
                best = key
    return best[2], best[0]


def levenshtein_oracle(a, b):
    """Full-matrix token edit distance (insert/delete/substitute, unit cost)."""
    la, lb = len(a), len(b)
    d = [[0] * (lb + 1) for _ in range(la + 1)]
    for i in range(la + 1):
        d[i][0] = i
    for j in range(lb + 1):
        d[0][j] = j
    for i in range(1, la + 1):
        for j in range(1, lb + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1, d[i - 1][j - 1] + cost)
    return d[la][lb]


def _ngrams(tokens, n):
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu_oracle(hypotheses, references, max_n=4):
    """Corpus BLEU: clipped modified precision per order, geometric mean over
    the orders that have any hypothesis n-grams, brevity penalty
    exp(min(0, 1 - ref_len/hyp_len)). A zero clipped count on a supported
    order gives 0. No smoothing."""
    assert len(hypotheses) == len(references)
    matched = [0] * max_n
    total = [0] * max_n
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, max_n + 1):
            h = _ngrams(hyp, n)
            r = _ngrams(ref, n)
            total[n - 1] += sum(h.values())
            matched[n - 1] += sum(min(c, r[g]) for g, c in h.items())
    if hyp_len == 0:
        return 0.0
    supported = [(m, t) for m, t in zip(matched, total) if t > 0]
    if not supported:
        return 0.0
    if any(m == 0 for m, _ in supported):
        return 0.0
    log_p = sum(math.log(m / t) for m, t in supported) / len(supported)
    bp = math.exp(min(0.0, 1.0 - ref_len / hyp_len))
    return bp * math.exp(log_p)


def topk_oracle(q, rows, ids, k):
    """Full float64 scan: every row upcast and scored as the float64 sum of
    its elementwise products with q, rows sorted by (-score, id), cut to K.

    Returns (row indices, scores). The score expression is the package's
    definition of a row's exact score; what this checks is the selection
    around it (no float32 pass, no shortlist).
    """
    matrix = np.asarray(rows, dtype=np.float64)
    scores = (matrix * np.asarray(q, dtype=np.float64)).sum(axis=1)
    order = sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))[:k]
    return order, [float(scores[i]) for i in order]


def variable_beam_oracle(q_raw, raw_rows, ids, max_n, beam_width):
    """Plain transcription of the documented variable beam search.

    raw_rows are the candidate pool in pool order and keys are ascending
    pool positions. Per size, every beam state extends by every unused
    position; each distinct key is scored once as the norm of q minus its
    rows summed with ndarray.sum (the package's arithmetic); states sort by
    (distance, sorted ids) and the first beam_width survive. The best state
    across sizes is the smallest (distance, size, ids). The search stops
    when a size has no states. Returns (ids tuple, distance).
    """
    rows = np.asarray(raw_rows, dtype=np.float64)
    q = np.asarray(q_raw, dtype=np.float64)
    best = None
    beam = [()]
    for size in range(1, max_n + 1):
        scored = {}
        for prev in beam:
            for c in range(len(ids)):
                if c in prev:
                    continue
                key = tuple(sorted(prev + (c,)))
                if key not in scored:
                    dist = float(np.linalg.norm(q - rows[list(key)].sum(axis=0)))
                    scored[key] = (dist, tuple(sorted(ids[i] for i in key)))
        if not scored:
            break
        beam = sorted(scored, key=lambda key: scored[key])[:beam_width]
        dist, key_ids = scored[beam[0]]
        if best is None or (dist, size, key_ids) < best:
            best = (dist, size, key_ids)
    return best[2], best[0]


def embed_sum_oracle(tokens, vectors, dim):
    """Summed word vectors of one token list: a float64 zero vector plus
    each in-vocabulary token's float32 vector, token by token in order.

    vectors maps words to float32 vectors; other tokens are skipped.
    """
    acc = np.zeros(dim, dtype=np.float64)
    for tok in tokens:
        if tok in vectors:
            acc += vectors[tok]
    return acc
