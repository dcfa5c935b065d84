"""Brute-force references for the decompositions the benchmark checks.

Nothing here imports qdecomp. Embeddings follow the package's documented
arithmetic (float32 word vectors summed in float64 in token order, rows
stored as float32), so the oracle sees the same candidate pool. fixed2 and
general3 are checked by enumerating every subset of the pool; variable is
checked against a plain transcription of the documented beam search, because
with K=100 and beam width 100 the beam is not exhaustive. Subset sums and
norms are taken in canonical (ascending pool position) order with the same
numpy reductions the documentation prescribes, so exact distance ties resolve
as documented.
"""

from itertools import combinations

import numpy as np

from inputs import tokens_of

# Objective values closer than this count as ties, which then break toward
# the smallest sorted id tuple, as documented for fixed2 and general.
TIE_EPS = 1e-9


class OracleIndex:
    """Embedded single-hop pool, built independently of the program."""

    def __init__(self, records, table, min_tokens=4, max_tokens=20):
        self.table = table
        self.ids = []
        self.texts = []
        raws = []
        for qid, text in records:
            toks = tokens_of(text)
            if not min_tokens <= len(toks) <= max_tokens:
                continue
            raw = embed(toks, table)
            if not raw.any():
                continue
            self.ids.append(qid)
            self.texts.append(text)
            raws.append(raw)
        raw = np.vstack(raws)
        norms = np.array([np.linalg.norm(r) for r in raw])
        self.unit = (raw / norms[:, None]).astype(np.float32)
        self.raw = raw.astype(np.float32)

    def pool(self, q_unit, k):
        """Rows of the K highest-cosine candidates, ties broken by id."""
        scores = self.unit @ q_unit
        order = sorted(range(len(self.ids)),
                       key=lambda i: (-scores[i], self.ids[i]))
        return order[:k]

    def text_of(self, rows):
        """Decomposition text: sub-question texts in ascending id order."""
        return " ".join(self.texts[r] for r in
                        sorted(rows, key=lambda r: self.ids[r]))


def embed(tokens, table):
    dim = len(next(iter(table.values())))
    acc = np.zeros(dim, dtype=np.float64)
    for tok in tokens:
        vec = table.get(tok)
        if vec is not None:
            acc += vec
    return acc


def _best_subset(index, rows, values, subsets):
    """Highest-valued subset; near-ties go to the smallest sorted id tuple."""
    best = float(values.max())
    near = np.flatnonzero(values >= best - TIE_EPS)
    pick = min(near.tolist(), key=lambda t: tuple(sorted(
        index.ids[rows[p]] for p in subsets[t])))
    return [rows[p] for p in subsets[pick]], best


def similarity_diversity(index, text, k, n):
    """Best size-n subset of the top-K pool under
    sum of query similarities minus the sum of pairwise similarities."""
    raw_q = embed(tokens_of(text), index.table)
    q = raw_q / np.linalg.norm(raw_q)
    rows = index.pool(q, k)
    cand = index.unit[rows].astype(np.float64)
    subsets = list(combinations(range(len(rows)), n))
    cols = np.array(subsets, dtype=np.intp).T
    sims = cand @ q
    gram = cand @ cand.T
    values = sum(sims[c] for c in cols)
    for a, b in combinations(range(n), 2):
        values = values - gram[cols[a], cols[b]]
    return _best_subset(index, rows, values, subsets)


def variable_beam(index, text, k, max_n, beam_width):
    """Subset of size 1..max_n minimizing ||v_q - sum v_s|| by beam search.

    Each beam state extends by every unused pool candidate; the beam_width
    states with the smallest (distance, sorted ids) survive each size; the
    best over all sizes wins, preferring fewer parts, then smaller ids.
    """
    raw_q = embed(tokens_of(text), index.table)
    rows = index.pool(raw_q / np.linalg.norm(raw_q), k)
    raws = index.raw[rows].astype(np.float64)
    ids = [index.ids[r] for r in rows]
    best = None
    beam = [()]
    for size in range(1, max_n + 1):
        keys = sorted({tuple(sorted(prev + (c,)))
                       for prev in beam for c in range(len(rows))
                       if c not in prev})
        if not keys:
            break
        pos = np.array(keys, dtype=np.intp)
        vec = raws[pos[:, 0]]
        for j in range(1, size):
            vec = vec + raws[pos[:, j]]
        diff = raw_q - vec
        states = sorted((float(np.linalg.norm(d)),
                         tuple(sorted(ids[p] for p in key)), key)
                        for d, key in zip(diff, keys))[:beam_width]
        dist, id_tuple, key = states[0]
        if best is None or (dist, size, id_tuple) < best[:3]:
            best = (dist, size, id_tuple, key)
        beam = [s[2] for s in states]
    return [rows[p] for p in best[3]], best[0]

