"""Embedded candidate index, top-K search, and pseudo-decomposition selection.

Three retrieval objectives over a top-K candidate pool:

* fixed2:   argmax over pairs of  q.s1 + q.s2 - s1.s2   (unit vectors)
* general:  the size-N form, sum of query similarities minus the sum of
            pairwise similarities over unordered candidate pairs
* variable: argmin over subsets of  ||v_q - sum v_s||_2  (un-normalized
            vectors), searched with a width-limited beam over subset sizes

plus a seeded uniform random baseline.
"""

import json
import math
import os
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .embeddings import VectorTable, embed_blocks
from .rng import child_seed

# the one embedding an index holds, named in its meta.json
SOURCE_VECTORS = "sum-of-word-vectors"

METHOD_FIXED = "fixed2"
METHOD_GENERAL = "general"
METHOD_VARIABLE = "variable"
METHOD_RANDOM = "random"
METHODS = (METHOD_FIXED, METHOD_GENERAL, METHOD_VARIABLE, METHOD_RANDOM)

# Exhaustive subset search is only attempted when the number of subsets is
# at most this; beyond it (and for N > 3) greedy forward selection is used.
EXHAUSTIVE_SUBSET_CAP = 10_000_000

# Float32 scores held per scan chunk (4 MB, small beside the index itself):
# the dataset builder scans _SCAN_BLOCK // len(index) questions per
# _topk_rows call.
_SCAN_BLOCK = 1 << 20

# Float64 elements of gathered candidate rows held per block of variable
# beam extensions (512 KB, so a block stays in cache): at the CLI defaults
# (K=1000, beam 100, 300-d) an unblocked size-3 pass would gather
# 100K x 3 x 300 of them.
_BEAM_BLOCK = 1 << 16

_U32 = 2.0 ** -24  # unit roundoff of float32
_U64 = 2.0 ** -53  # unit roundoff of float64


def _gamma(n, u):
    """gamma_n = n*u / (1 - n*u): relative error bound of an n-term dot
    product evaluated in any order with unit roundoff u (Higham, Accuracy
    and Stability of Numerical Algorithms, section 3.1)."""
    return n * u / (1.0 - n * u)


def _norms(rows):
    """Euclidean norm of each row of a 2-D array, as one BLAS dot per row by
    a stacked matmul, so each equals np.linalg.norm of that row bit for bit."""
    return np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0])


def _row_squares(matrix):
    """Squared norm of each row, summed in the matrix's dtype by one einsum,
    without a float64 copy of the matrix."""
    return np.einsum("ij,ij->i", matrix, matrix)


@dataclass(frozen=True)
class LengthFilter:
    """Token-count bounds for index candidates (bounds are inclusive)."""

    min_tokens: int = 4
    max_tokens: int = 20

    def __post_init__(self):
        if self.min_tokens < 0 or self.max_tokens < 0:
            raise ValueError(f"token bounds must be non-negative, got "
                             f"{self.min_tokens} and {self.max_tokens}")
        if self.min_tokens > self.max_tokens:
            raise ValueError(f"min_tokens {self.min_tokens} is above "
                             f"max_tokens {self.max_tokens}")


@dataclass
class EmbeddedIndex:
    """Id-aligned candidate texts with unit and raw embedding matrices.

    unit_matrix rows are unit-normalized float32 (used for similarity
    search); the raw_matrix keeps the pre-normalization embeddings because
    the variable-length objective is defined on un-normalized sums.
    vectors is the VectorTable the rows, and every query, are embedded with;
    vectors_sha256 the digest of the .vec file it was read from (set by
    load_index); row_squares the _row_squares of unit_matrix.
    """

    ids: tuple
    texts: tuple
    unit_matrix: np.ndarray
    raw_matrix: np.ndarray
    oov_excluded: int = 0
    filtered_out: int = 0
    vectors: VectorTable | None = None
    vectors_sha256: str | None = None
    row_squares: np.ndarray | None = None

    def __post_init__(self):
        self._row_map = {qid: i for i, qid in enumerate(self.ids)}
        if self.row_squares is None:
            self.row_squares = _row_squares(self.unit_matrix)

    def __len__(self):
        return len(self.ids)

    def row_of(self, qid):
        return self._row_map[qid]

    def __contains__(self, qid):
        return qid in self._row_map

    @cached_property
    def id_rank(self):
        """Each row's position in the ascending order of the ids."""
        rank = np.empty(len(self.ids), dtype=np.intp)
        rank[sorted(range(len(self.ids)), key=self.ids.__getitem__)] = \
            np.arange(len(self.ids))
        return rank

    @cached_property
    def row_norm_bound(self):
        """Upper bound on the largest row norm of unit_matrix.

        The float32 row_squares are within gamma_d of the true squares, so
        dividing their largest by 1 - gamma_d covers their rounding.
        """
        matrix = self.unit_matrix
        if matrix.dtype != np.float32:
            raise ValueError(f"index unit matrix must be float32, "
                             f"got {matrix.dtype}")
        squares = float(self.row_squares.max())
        bound = squares / (1.0 - _gamma(matrix.shape[1], _U32))
        return math.sqrt(bound) * (1.0 + 2.0 ** -40)


_NO_VOCABULARY = "text has no in-vocabulary tokens"


def build_index(corpus, source, filters=None):
    """Embed every corpus question that passes the length filters.

    Questions whose embedding is zero (all tokens out of vocabulary) are
    excluded and counted. An index that would be empty is an error. The
    questions are summed by embed_blocks, block by block, straight into
    preallocated float32 matrices; each row's unit vector is its sum over
    its _norms, exactly as _scan_queries normalizes a query.
    """
    kept = [q for q in corpus if filters is None
            or filters.min_tokens <= len(q.tokens) <= filters.max_tokens]
    raw = np.empty((len(kept), source.dim), dtype=np.float32)
    unit = np.empty_like(raw)
    rows = []  # positions in kept of the embedded questions
    for start, sums in embed_blocks([q.tokens for q in kept], source):
        nonzero = np.flatnonzero(sums.any(axis=1))
        sums = sums[nonzero]
        at = len(rows)
        raw[at:at + len(sums)] = sums
        unit[at:at + len(sums)] = sums / _norms(sums)[:, None]
        rows.extend((start + nonzero).tolist())
    if not rows:
        raise ValueError("index is empty after filtering and vocabulary checks")
    return EmbeddedIndex(ids=tuple(kept[r].id for r in rows),
                         texts=tuple(kept[r].raw_text for r in rows),
                         unit_matrix=unit[:len(rows)],
                         raw_matrix=raw[:len(rows)],
                         oov_excluded=len(kept) - len(rows),
                         filtered_out=len(corpus) - len(kept),
                         vectors=source)


def save_index(index, dirpath, vectors_sha256):
    """Write meta.json, unit.npy and raw.npy, plus the word vectors the index
    was embedded with (vectors.npy, vocab.json), into a directory.

    vectors_sha256, the digest of the .vec file those vectors were read
    from, goes into meta.json with their dimension and word count. dirpath
    is created if it is missing.
    """
    table = index.vectors
    meta = {
        "schema_version": 1,
        "source": SOURCE_VECTORS,
        "dim": int(index.unit_matrix.shape[1]),
        "rows": len(index.ids),
        "oov_excluded": index.oov_excluded,
        "filtered_out": index.filtered_out,
        "ids": list(index.ids),
        "texts": list(index.texts),
        "vectors": {"dim": table.dim, "sha256": vectors_sha256,
                    "words": len(table)},
    }
    os.makedirs(dirpath, exist_ok=True)
    for name, payload in (("meta.json", meta),
                          ("vocab.json", list(table.vocab))):
        with open(os.path.join(dirpath, name), "w", encoding="utf-8") as fh:
            json.dump(payload, fh, ensure_ascii=False, sort_keys=True)
            fh.write("\n")
    for name, matrix in (("unit.npy", index.unit_matrix),
                         ("raw.npy", index.raw_matrix),
                         ("vectors.npy", table.matrix)):
        np.save(os.path.join(dirpath, name), matrix)


def _load_matrix(path, shape):
    """A float32 matrix of the given shape with only finite values."""
    matrix = np.load(path)
    if matrix.dtype != np.float32 or matrix.shape != shape:
        raise ValueError(f"{path}: expected a float32 matrix of shape {shape} "
                         f"from meta.json, got {matrix.dtype} of shape "
                         f"{matrix.shape}")
    # a float64 sum of float32 values cannot overflow, so it is finite
    # exactly when every value is, and needs no boolean copy of the matrix
    if not np.isfinite(matrix.sum(dtype=np.float64)):
        raise ValueError(f"{path}: holds a NaN or infinite value")
    return matrix


def _check_unit_rows(path, unit):
    """Reject a unit-matrix row whose squared norm is not 1 within rounding.

    build_index stores each row as a float64 sum over its float64 norm,
    rounded to float32. That float64 quotient has squared norm 1 within a
    few float64 ulps; rounding each component to float32 moves its square
    by a factor within (1 +- u32)**2, and the float32 dot product of
    _row_squares adds at most gamma_d(u32). Underflow adds at most
    d * 2**-148, far below u32. So every row build_index writes has
    |squares - 1| <= gamma_{d+3}(u32), and a row outside that was not
    written by it. Returns the float32 squares.
    """
    row_squares = _row_squares(unit)
    squares = row_squares.astype(np.float64)
    bad = np.flatnonzero(np.abs(squares - 1.0)
                         > _gamma(unit.shape[1] + 3, _U32))
    if len(bad):
        row = int(bad[0])
        raise ValueError(f"{path}: row {row} has squared norm "
                         f"{squares[row]!r}, not 1 within float32 rounding "
                         f"({len(bad)} such rows)")
    return row_squares


def load_index(dirpath):
    """Read an index written by save_index, with its word vectors.

    Raises ValueError when meta.json names another source than summed word
    vectors, when its rows, ids and texts disagree, an id repeats or it
    records no rows, when unit.npy or raw.npy is not a finite float32
    (rows, dim) matrix, when a unit.npy row does not have unit norm (see
    _check_unit_rows), when it records no word vectors (an index written
    before they were stored), or when vocab.json does not list the recorded
    number of distinct words or vectors.npy is not a finite float32
    (words, dim) matrix.
    """
    meta_path = os.path.join(dirpath, "meta.json")
    with open(meta_path, encoding="utf-8") as fh:
        meta = json.load(fh)
    if meta.get("source") != SOURCE_VECTORS:
        raise ValueError(f"{meta_path}: index source is {meta.get('source')!r}, "
                         f"only {SOURCE_VECTORS!r} indexes can be read")
    rows, dim = meta["rows"], meta["dim"]
    if not len(meta["ids"]) == len(meta["texts"]) == rows:
        raise ValueError(f"{meta_path}: rows is {rows}, but it lists "
                         f"{len(meta['ids'])} ids and {len(meta['texts'])} texts")
    if rows == 0:
        raise ValueError(f"{meta_path}: rows is 0, but an index holds at "
                         f"least one candidate")
    if len(set(meta["ids"])) != rows:
        [(repeated, _)] = Counter(meta["ids"]).most_common(1)
        raise ValueError(f"{meta_path}: id {repeated!r} is listed more than once")
    unit, raw = (_load_matrix(os.path.join(dirpath, name), (rows, dim))
                 for name in ("unit.npy", "raw.npy"))
    row_squares = _check_unit_rows(os.path.join(dirpath, "unit.npy"), unit)
    vectors_path = os.path.join(dirpath, "vectors.npy")
    vectors = meta.get("vectors")
    if vectors is None:
        raise ValueError(f"{vectors_path} is missing: {meta_path} records no "
                         f"word vectors, so the index was built before "
                         f"build-index stored them; rebuild it")
    if vectors["dim"] != dim:
        raise ValueError(f"{meta_path}: vectors have dimension "
                         f"{vectors['dim']}, but the index has dimension {dim}")
    vocab_path = os.path.join(dirpath, "vocab.json")
    with open(vocab_path, encoding="utf-8") as fh:
        words = json.load(fh)
    if len(words) != vectors["words"]:
        raise ValueError(f"{vocab_path}: lists {len(words)} words, but "
                         f"{meta_path} records {vectors['words']}")
    vocab = {word: row for row, word in enumerate(words)}
    if len(vocab) != len(words):
        [(repeated, _)] = Counter(words).most_common(1)
        raise ValueError(f"{vocab_path}: word {repeated!r} is listed more "
                         f"than once")
    matrix = _load_matrix(vectors_path, (len(words), dim))
    return EmbeddedIndex(ids=tuple(meta["ids"]), texts=tuple(meta["texts"]),
                         unit_matrix=unit, raw_matrix=raw,
                         oov_excluded=meta["oov_excluded"],
                         filtered_out=meta["filtered_out"],
                         vectors=VectorTable(vocab, matrix),
                         vectors_sha256=vectors["sha256"],
                         row_squares=row_squares)


def _topk_rows(index, q_units, k):
    """Top-K rows of the index for each row of a (queries, dim) matrix.

    Returns one (rows, scores) pair per query: the row indices of its K
    highest-cosine candidates, by descending score with ties broken by id,
    and their float64 scores. A row's score is (row * q).sum() in float64,
    which gives a row the same value wherever it sits in the matrix, so
    identical rows tie exactly.

    All queries are scored against every row with one float32 GEMM. A row's
    float32 score g and its float64 score s differ by at most

        delta = R * (gamma_d(u32) |q32| + |q32 - q| + gamma_d(u64) |q|)
                + d * 2**-149

    where R bounds the index row norms (row_norm_bound), q32 is the query
    rounded to float32, gamma_d(u) = d*u / (1 - d*u) is the dot-product
    error bound, and the last term covers underflow. The K rows with the
    largest g have s >= tau - delta, tau being the K-th largest g, so every
    row of the exact top K has g >= tau - 2 * delta. Only those rows are
    rescored in float64, which makes the result identical to sorting the
    float64 scores of all rows.
    """
    if k < 1:
        raise ValueError("K must be at least 1")
    queries = np.asarray(q_units, dtype=np.float64)
    if queries.ndim != 2:
        raise ValueError("queries must be a (count, dim) matrix")
    if not queries.any(axis=1).all():
        raise ValueError("zero query vector")
    matrix = index.unit_matrix
    n, dim = matrix.shape
    k_eff = min(k, n)
    bound = index.row_norm_bound
    q32 = queries.astype(np.float32)
    approx = q32 @ matrix.T
    rounded = q32.astype(np.float64)
    # the factor (1 + 2**-40) covers the rounding of delta itself
    delta = (bound * (_gamma(dim, _U32) * np.linalg.norm(rounded, axis=1)
                      + np.linalg.norm(rounded - queries, axis=1)
                      + _gamma(dim, _U64) * np.linalg.norm(queries, axis=1))
             + dim * 2.0 ** -149) * (1.0 + 2.0 ** -40)
    results = []
    for q, scores32, margin in zip(queries, approx, 2.0 * delta):
        if k_eff == n:
            rows = np.arange(n)
        else:
            tau = np.float64(np.partition(scores32, n - k_eff)[n - k_eff])
            # nextafter covers the rounding of tau - margin
            floor = np.nextafter(tau - margin, -np.inf)
            rows = np.flatnonzero(scores32.astype(np.float64) >= floor)
        scores = (np.asarray(matrix[rows], dtype=np.float64, order="C")
                  * q).sum(axis=1)
        order = np.lexsort((index.id_rank[rows], -scores))[:k_eff]
        results.append((rows[order].tolist(), scores[order]))
    return results


@dataclass(frozen=True)
class PseudoDecomposition:
    """A selected set of sub-questions for one question."""

    question_id: str
    sub_question_ids: tuple
    sub_texts: tuple
    objective_score: float
    method: str
    search_mode: str | None = None

    def __post_init__(self):
        if len(self.sub_question_ids) < 1:
            raise ValueError("decomposition needs at least one sub-question")
        if len(set(self.sub_question_ids)) != len(self.sub_question_ids):
            raise ValueError("sub-question ids must be distinct")
        if len(self.sub_question_ids) != len(self.sub_texts):
            raise ValueError("ids and texts must align")
        if self.method == METHOD_FIXED and len(self.sub_question_ids) != 2:
            raise ValueError("fixed2 decompositions have exactly two sub-questions")


def _query_rows(index, question, k, query):
    """Raw and unit embedding of a question and its top-K index rows.

    query, when given, is that (raw, unit, rows) triple from the batched
    dataset build and is used as given; otherwise the question alone goes
    through _scan_queries. Raises ValueError when no token is in vocabulary.
    """
    if query is None:
        query = next(_scan_queries(index, [question.tokens], k))
        if query is None:
            raise ValueError(_NO_VOCABULARY)
    return query


def _unit_pool(index, rows, unit):
    """(sims, gram) of a top-K pool in float64: each candidate's similarity
    to the unit query, and the candidates' pairwise similarities."""
    cand = index.unit_matrix[rows].astype(np.float64)
    return cand @ unit, cand @ cand.T


def _exhaustive(index, rows, sims, gram, n):
    """Best size-n subset of pool positions (n is 2 or 3) and its score.

    A subset scores the sum of its sims minus the sum of its pairs' gram
    entries. n = 2 scores one (K, K) block of pairs (j, k), each as
    (s_j + s_k) - g_jk; n = 3 scores one (K-i-1)**2 block of (j, k) per
    first member i, each as that pair's value plus (s_i - g_ij - g_ik). Only
    j < k counts. Every tie of the best value is listed row-major, as a
    scan of the upper triangle meets it, and the one with the smallest
    sorted id tuple wins.
    """
    m = len(sims)
    pair_part = sims[:, None] + sims[None, :] - gram
    upper = np.triu(np.ones((m, m), dtype=bool), 1)

    def blocks():  # (leading positions, offset of j and k, block)
        if n == 2:
            yield (), 0, pair_part
            return
        for i in range(m - 2):
            gi = gram[i, i + 1:]
            yield ((i,), i + 1, pair_part[i + 1:, i + 1:]
                   + (sims[i] - gi[:, None] - gi[None, :]))

    best, ties = -np.inf, []
    for head, at, block in blocks():
        pairs = upper[at:, at:]
        vmax = float(block.max(where=pairs, initial=-np.inf))
        if vmax > best:
            best, ties = vmax, []
        if vmax == best:
            jj, kk = np.nonzero((block == vmax) & pairs)
            ties.extend(head + (j, k) for j, k in zip((jj + at).tolist(),
                                                      (kk + at).tolist()))
    chosen = min(ties, key=lambda t: sorted(index.ids[rows[p]] for p in t))
    return chosen, best


def _decomposition(index, question, rows, positions, score, method,
                   search_mode=None):
    """PseudoDecomposition of the chosen pool positions, members by id."""
    ids, texts = zip(*sorted((index.ids[rows[p]], index.texts[rows[p]])
                             for p in positions))
    return PseudoDecomposition(question.id, ids, texts, float(score), method,
                               search_mode)


def pseudo_decompose_fixed(index, question, k=1000, query=None):
    """Best pair under the pair objective, searched exhaustively in the top-K.

    Ties break toward the lexicographically smallest (lower id, higher id)
    pair. query, when given, is the question's (raw, unit, top-K rows)
    from the batched dataset build.
    """
    _, unit, rows = _query_rows(index, question, k, query)
    if len(rows) < 2:
        raise ValueError("need at least two candidates to form a pair")
    sims, gram = _unit_pool(index, rows, unit)
    chosen, best = _exhaustive(index, rows, sims, gram, 2)
    return _decomposition(index, question, rows, chosen, best, METHOD_FIXED,
                          "exhaustive")


def _subset_score(sims, gram, positions):
    """Objective value of a candidate subset (unordered pairwise penalty)."""
    pos = list(positions)
    total = float(sims[pos].sum())
    for a, b in combinations(pos, 2):
        total -= float(gram[a, b])
    return total


def pseudo_decompose_general(index, question, n, k=1000, query=None):
    """Best size-N subset under the generalized objective.

    Exhaustive for N <= 3 while the subset count stays within
    EXHAUSTIVE_SUBSET_CAP; otherwise greedy forward selection (the chosen
    mode is recorded in search_mode). N=2 is exactly the fixed2 search,
    whatever the cap. query, when given, is the question's (raw, unit,
    top-K rows) from the batched dataset build.
    """
    if n < 2:
        raise ValueError("N must be at least 2")
    if n == 2:
        return pseudo_decompose_fixed(index, question, k, query)
    _, unit, rows = _query_rows(index, question, k, query)
    m = len(rows)
    if m < n:
        raise ValueError(f"need at least {n} candidates, have {m}")
    sims, gram = _unit_pool(index, rows, unit)
    if n == 3 and math.comb(m, n) <= EXHAUSTIVE_SUBSET_CAP:
        search_mode = "exhaustive"
        chosen, score = _exhaustive(index, rows, sims, gram, n)
    else:
        search_mode = "greedy"
        selected = []
        remaining = list(range(m))
        for _ in range(n):
            rem = np.array(remaining, dtype=np.intp)
            gains = sims[rem]
            if selected:
                gains = gains - gram[np.ix_(remaining, selected)].sum(axis=1)
            gmax = float(gains.max())
            tie_pos = [remaining[int(t)] for t in np.flatnonzero(gains == gmax)]
            pick = min(tie_pos, key=lambda p: index.ids[rows[p]])
            selected.append(pick)
            remaining.remove(pick)
        chosen = tuple(selected)
        score = _subset_score(sims, gram, chosen)
    return _decomposition(index, question, rows, chosen, score,
                          METHOD_GENERAL, search_mode)


def _extensions(beam, m):
    """Distinct keys of every beam state extended by one unused position.

    beam is a (states, size) array of keys, each a row of ascending pool
    positions. Returns a (keys, size + 1) array of ascending-position rows
    in lexicographic order.
    """
    unused = (beam[:, :, None] != np.arange(m)).all(axis=1)
    prev, extra = np.nonzero(unused)
    keys = np.sort(np.column_stack([beam[prev], extra]), axis=1)
    keys = keys[np.lexsort(keys.T[::-1])]
    fresh = np.ones(len(keys), dtype=bool)
    fresh[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    return keys[fresh]


def pseudo_decompose_variable(index, question, max_n, k=1000, beam_width=100,
                              query=None):
    """Best subset of size 1..max_N minimizing ||v_q - sum v_s||.

    Beam search: states of size m extend by every unused candidate, the
    beam_width lowest-distance states survive per size, and the global best
    across sizes wins. Ties prefer fewer sub-questions, then lexicographic
    ids. A state's distance is norm(v_q - raws[key].sum(axis=0)), with key
    its pool positions in ascending order, so identical subsets found along
    different paths are numerically identical. query, when given, is the
    question's (raw, unit, top-K rows) from the batched dataset build.

    Each size is scored as arrays. The distinct extensions of the beam are
    taken in blocks of _BEAM_BLOCK // (size * d) keys. A block's subset
    sums come from raws[keys].sum(axis=1), the same reduction over the same
    rows in the same order as raws[list(key)].sum(axis=0), and their
    residuals' _norms are np.linalg.norm's bit for bit, so every extension
    gets its exact distance. The beam keeps the states at or below the
    beam_width-th smallest distance, ordered by (distance, sorted ids)
    through their members' id ranks, and cuts them to beam_width.
    """
    if max_n < 1:
        raise ValueError("max_N must be at least 1")
    if beam_width < 1:
        raise ValueError("beam width must be at least 1")
    raw_q, _, rows = _query_rows(index, question, k, query)
    m = len(rows)
    raws = index.raw_matrix[rows].astype(np.float64)
    ranks = index.id_rank[rows]
    best_dist, best_key = np.inf, None
    beam = np.zeros((1, 0), dtype=np.intp)
    for size in range(1, max_n + 1):
        keys = _extensions(beam, m)
        if not len(keys):
            break
        dists = np.empty(len(keys))
        step = max(1, _BEAM_BLOCK // (size * raws.shape[1]))
        for start in range(0, len(keys), step):
            dists[start:start + step] = _norms(
                raw_q - raws[keys[start:start + step]].sum(axis=1))
        if len(keys) > beam_width:
            near = dists <= np.partition(dists, beam_width - 1)[beam_width - 1]
            keys, dists = keys[near], dists[near]
        member_ranks = np.sort(ranks[keys], axis=1)
        order = np.lexsort((*member_ranks.T[::-1], dists))[:beam_width]
        beam = keys[order]
        # a later size replaces the best only on a strictly smaller distance
        if dists[order[0]] < best_dist:
            best_dist, best_key = dists[order[0]], beam[0]

    return _decomposition(index, question, rows, best_key.tolist(), best_dist,
                          METHOD_VARIABLE)


def _random_from_index(index, question, n, seed):
    """Random baseline drawn from index rows (the filtered candidate corpus)."""
    if len(index) < n:
        raise ValueError(f"index has {len(index)} rows, need {n}")
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(index), size=n, replace=False)
    return PseudoDecomposition(
        question_id=question.id,
        sub_question_ids=tuple(index.ids[int(i)] for i in idx),
        sub_texts=tuple(index.texts[int(i)] for i in idx),
        objective_score=float("nan"),
        method=METHOD_RANDOM,
    )


@dataclass(frozen=True)
class DecomposeConfig:
    """Settings of one dataset build, validated before any work.

    workers is accepted and must be at least 1, but the build runs on one
    thread: selection holds the GIL, so worker threads only slowed it down.
    """

    method: str = METHOD_FIXED
    k: int = 1000
    n: int = 2
    max_n: int = 3
    beam_width: int = 100
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {', '.join(METHODS)}, "
                             f"got {self.method!r}")
        if self.method == METHOD_GENERAL and self.n < 2:
            raise ValueError(f"n must be at least 2 for general, got {self.n}")
        # a pool of fewer than the subset size yields no decomposition at all
        least_k = {METHOD_FIXED: 2, METHOD_GENERAL: self.n,
                   METHOD_VARIABLE: 1}.get(self.method)
        if least_k is not None and self.k < least_k:
            raise ValueError(f"k must be at least {least_k} for {self.method}, "
                             f"got {self.k}")
        if self.method == METHOD_RANDOM and self.n < 1:
            raise ValueError(f"n must be at least 1 for random, got {self.n}")
        if self.method == METHOD_VARIABLE:
            if self.max_n < 1:
                raise ValueError(f"max_n must be at least 1, got {self.max_n}")
            if self.beam_width < 1:
                raise ValueError(
                    f"beam_width must be at least 1, got {self.beam_width}")
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class DatasetBuildResult:
    records: tuple   # ((question, decomposition), ...)
    failures: tuple  # ((question id, reason), ...)


def _scan_queries(index, token_lists, k):
    """Embed token lists and find each one's top-K index rows.

    Yields one query per token list, in input order: the (raw, unit, rows)
    triple that pseudo_decompose_* and decomposition_rank take, or None for
    a list with no in-vocabulary token. Every list is embedded first, with
    the word vectors the index was built from (index.vectors), in
    embed_blocks blocks, each sum divided by its _norms. Top-K rows
    are then found for _SCAN_BLOCK // len(index) lists at a time, with one
    _topk_rows call per chunk: a float32 GEMM whose shortlist keeps every
    row within the proven error margin 2 * delta of the K-th best score,
    rescored in float64 (see _topk_rows), so each list gets exactly the rows
    a float64 scan of the whole index would rank first. With k None nothing
    is scanned and rows is None.
    """
    queries = []  # (raw, unit), or None when no token is in vocabulary
    for _, sums in embed_blocks(token_lists, index.vectors):
        live = sums.any(axis=1)
        normalized = iter(sums[live] / _norms(sums[live])[:, None])
        queries.extend((raw, next(normalized)) if ok else None
                       for raw, ok in zip(sums, live.tolist()))
    chunk = max(1, _SCAN_BLOCK // len(index))
    for start in range(0, len(queries), chunk):
        part = queries[start:start + chunk]
        units = [q[1] for q in part if q is not None]
        hits = iter(_topk_rows(index, units, k) if k is not None and units
                    else ())
        for q in part:
            if q is None:
                yield None
            else:
                yield (*q, None if k is None else next(hits)[0])


def build_pseudo_decomposition_dataset(questions, index, config):
    """Decompose every embeddable question; skip and record failures.

    Questions are embedded and scanned by _scan_queries (the random baseline
    is not scanned), and each question's embedding and top-K rows go to
    pseudo_decompose_fixed, _general or _variable. Records and failures
    follow input order, and config.workers does not change the output (the
    build runs on one thread).
    """
    questions = tuple(questions)
    k = None if config.method == METHOD_RANDOM else config.k
    queries = _scan_queries(index, [q.tokens for q in questions], k)
    records = []
    failures = []
    for pos, (q, query) in enumerate(zip(questions, queries)):
        try:
            if query is None:
                raise ValueError(_NO_VOCABULARY)
            if config.method == METHOD_FIXED:
                d = pseudo_decompose_fixed(index, q, config.k, query=query)
            elif config.method == METHOD_GENERAL:
                d = pseudo_decompose_general(index, q, n=config.n, k=config.k,
                                             query=query)
            elif config.method == METHOD_VARIABLE:
                d = pseudo_decompose_variable(index, q, config.max_n, config.k,
                                              config.beam_width, query=query)
            else:
                d = _random_from_index(
                    index, q, config.n,
                    child_seed(config.seed, "decompose-random", pos))
        except ValueError as exc:
            failures.append((q.id, str(exc)))
        else:
            records.append((q, d))
    return DatasetBuildResult(records=tuple(records), failures=tuple(failures))


def _tsv_field(text):
    return text.replace("\t", " ").replace("\n", " ").replace("\r", " ")


def decomposition_text(decomposition):
    """Sub-questions joined by a single space."""
    return " ".join(decomposition.sub_texts)


DATASET_COLUMNS = ("question_id", "question_text", "decomposition_text",
                   "objective_score", "method")


def write_dataset_tsv(records, path):
    """Write (question, decomposition) pairs as a headerless 5-column TSV."""
    with open(path, "w", encoding="utf-8") as fh:
        for q, d in records:
            fields = (q.id, _tsv_field(q.raw_text),
                      _tsv_field(decomposition_text(d)),
                      repr(float(d.objective_score)), d.method)
            fh.write("\t".join(fields))
            fh.write("\n")


def _read_tsv(path, columns):
    """(line number, fields) of each non-blank line of a headerless TSV.

    Raises ValueError naming path:lineno for a line without exactly
    `columns` tab-separated fields.
    """
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != columns:
                raise ValueError(f"{path}:{lineno}: expected {columns} "
                                 f"columns, got {len(fields)}")
            rows.append((lineno, fields))
    return rows


def read_dataset_tsv(path):
    """Rows of the 5-column dataset TSV as lists of strings."""
    return [fields for _, fields in _read_tsv(path, len(DATASET_COLUMNS))]
