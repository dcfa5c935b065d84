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
import shutil
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .corpus import QuestionCorpus
from .embeddings import (VectorTable, embed_blocks, embed_text_sum,
                         unit_normalize)
from .rng import child_seed

# the one embedding an index holds, named in its meta.json
SOURCE_VECTORS = "sum-of-word-vectors"

# The files save_index writes: the candidates, their embeddings, and a copy
# of the word vectors they were embedded with.
INDEX_FILES = ("meta.json", "unit.npy", "raw.npy", "vectors.npy", "vocab.json")

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
    vectors is the VectorTable the rows were embedded with, and
    vectors_sha256 the digest of the .vec file it was read from (set by
    load_index).
    """

    ids: tuple
    texts: tuple
    unit_matrix: np.ndarray
    raw_matrix: np.ndarray
    oov_excluded: int = 0
    filtered_out: int = 0
    vectors: VectorTable | None = None
    vectors_sha256: str | None = None

    def __post_init__(self):
        self._row_map = {qid: i for i, qid in enumerate(self.ids)}

    def __len__(self):
        return len(self.ids)

    def row_of(self, qid):
        return self._row_map[qid]

    def __contains__(self, qid):
        return qid in self._row_map

    @cached_property
    def row_norm_bound(self):
        """Upper bound on the largest row norm of unit_matrix.

        The squared norms are summed in float32, without a float64 copy of
        the matrix; dividing by 1 - gamma_d covers their rounding.
        """
        matrix = self.unit_matrix
        if matrix.dtype != np.float32:
            raise ValueError(f"index unit matrix must be float32, "
                             f"got {matrix.dtype}")
        squares = float(np.einsum("ij,ij->i", matrix, matrix).max())
        bound = squares / (1.0 - _gamma(matrix.shape[1], _U32))
        return math.sqrt(bound) * (1.0 + 2.0 ** -40)


_NO_VOCABULARY = "text has no in-vocabulary tokens"


def embed_query(source, tokens):
    """(raw float64 vector, unit vector): the summed word vectors of a
    token list under a VectorTable.

    Raises ValueError when no token is in vocabulary.
    """
    emb = embed_text_sum(tokens, source)
    if emb.is_zero:
        raise ValueError(_NO_VOCABULARY)
    return emb.vector, unit_normalize(emb.vector)


def build_index(corpus, source, filters=None):
    """Embed every corpus question that passes the length filters.

    Questions whose embedding is zero (all tokens out of vocabulary) are
    excluded and counted. An index that would be empty is an error. The
    questions are summed by embed_blocks, block by block, straight into
    preallocated float32 matrices; each row's unit vector is its sum over
    its own np.linalg.norm, exactly as embed_query computes it.
    """
    kept = [q for q in corpus if filters is None
            or filters.min_tokens <= len(q.tokens) <= filters.max_tokens]
    raw = np.empty((len(kept), source.dim), dtype=np.float32)
    unit = np.empty_like(raw)
    rows = []  # positions in kept of the embedded questions
    for start, sums in embed_blocks([q.tokens for q in kept], source):
        nonzero = np.flatnonzero(sums.any(axis=1))
        sums = sums[nonzero]
        norms = np.array([np.linalg.norm(v) for v in sums])
        at = len(rows)
        raw[at:at + len(sums)] = sums
        unit[at:at + len(sums)] = sums / norms[:, None]
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
    from, goes into meta.json with their dimension and word count. The
    files are written into a new directory beside dirpath, which replaces
    dirpath only once they are all complete, so a failed write leaves a
    previous index as it was. An existing dirpath that holds files other
    than an index's is an error.
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
    if os.path.isdir(dirpath):
        foreign = sorted(set(os.listdir(dirpath)) - set(INDEX_FILES))
        if foreign:
            raise ValueError(f"{dirpath}: holds files that are not part of "
                             f"an index ({', '.join(foreign)}); choose "
                             f"another output directory")
    parent, base = os.path.split(os.path.abspath(dirpath))
    fresh = os.path.join(parent, f".{base}.{os.urandom(6).hex()}.tmp")
    old = f"{fresh}.old"
    os.mkdir(fresh)
    try:
        for name, payload in (("meta.json", meta),
                              ("vocab.json", list(table.vocab))):
            with open(os.path.join(fresh, name), "w", encoding="utf-8") as fh:
                json.dump(payload, fh, ensure_ascii=False, sort_keys=True)
                fh.write("\n")
        for name, matrix in (("unit.npy", index.unit_matrix),
                             ("raw.npy", index.raw_matrix),
                             ("vectors.npy", table.matrix)):
            np.save(os.path.join(fresh, name), matrix)
        if os.path.isdir(dirpath):
            os.rename(dirpath, old)
        os.rename(fresh, dirpath)
    except BaseException:
        shutil.rmtree(fresh, ignore_errors=True)
        raise
    shutil.rmtree(old, ignore_errors=True)


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


def load_index(dirpath):
    """Read an index written by save_index, with its word vectors.

    Raises ValueError when meta.json names another source than summed word
    vectors, when its rows, ids and texts disagree or an id repeats, when
    unit.npy or raw.npy is not a finite float32 (rows, dim) matrix, when it
    records no word vectors (an index written before they were stored), or
    when vocab.json does not list the recorded number of distinct words or
    vectors.npy is not a finite float32 (words, dim) matrix.
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
    if len(set(meta["ids"])) != rows:
        [(repeated, _)] = Counter(meta["ids"]).most_common(1)
        raise ValueError(f"{meta_path}: id {repeated!r} is listed more than once")
    unit, raw = (_load_matrix(os.path.join(dirpath, name), (rows, dim))
                 for name in ("unit.npy", "raw.npy"))
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
    table = VectorTable(vocab=vocab,
                        matrix=_load_matrix(vectors_path, (len(words), dim)))
    return EmbeddedIndex(ids=tuple(meta["ids"]), texts=tuple(meta["texts"]),
                         unit_matrix=unit, raw_matrix=raw,
                         oov_excluded=meta["oov_excluded"],
                         filtered_out=meta["filtered_out"],
                         vectors=table, vectors_sha256=vectors["sha256"])


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
        order = sorted(range(len(rows)),
                       key=lambda i: (-scores[i], index.ids[rows[i]]))[:k_eff]
        results.append(([int(rows[i]) for i in order], scores[order]))
    return results


def topk_candidates(index, q_unit_vector, k):
    """Ranked (id, cosine) list of the K nearest candidates."""
    [(rows, scores)] = _topk_rows(index, [q_unit_vector], k)
    return [(index.ids[r], float(s)) for r, s in zip(rows, scores)]


@dataclass(frozen=True)
class PseudoDecomposition:
    """A selected set of sub-questions for one question."""

    question_id: str
    sub_question_ids: tuple
    sub_texts: tuple
    objective_score: float
    method: str
    edited: bool = False
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


def _query_rows(index, question, source, k, query):
    """Raw and unit embedding of a question and its top-K index rows.

    query, when given, is that (raw, unit, rows) triple from the batched
    dataset build and is used as given.
    """
    if query is not None:
        return query
    raw, unit = embed_query(source, question.tokens)
    [(rows, _)] = _topk_rows(index, [unit], k)
    return raw, unit, rows


def pseudo_decompose_fixed(index, question, source, k=1000, query=None):
    """Best pair under the pair objective, searched exhaustively in the top-K.

    Ties break toward the lexicographically smallest (lower id, higher id)
    pair. query, when given, is the question's (raw, unit, top-K rows)
    from the batched dataset build.
    """
    _, unit, rows = _query_rows(index, question, source, k, query)
    if len(rows) < 2:
        raise ValueError("need at least two candidates to form a pair")
    cand = index.unit_matrix[rows].astype(np.float64)
    sims = cand @ unit
    gram = cand @ cand.T
    iu, ju = np.triu_indices(len(rows), k=1)
    vals = sims[iu] + sims[ju] - gram[iu, ju]
    best = float(vals.max())
    ties = np.flatnonzero(vals == best)

    def pair_key(t):
        a = index.ids[rows[iu[t]]]
        b = index.ids[rows[ju[t]]]
        return (a, b) if a <= b else (b, a)

    chosen = min(ties.tolist(), key=pair_key)
    pair = sorted((rows[iu[chosen]], rows[ju[chosen]]), key=lambda r: index.ids[r])
    return PseudoDecomposition(
        question_id=question.id,
        sub_question_ids=tuple(index.ids[r] for r in pair),
        sub_texts=tuple(index.texts[r] for r in pair),
        objective_score=best,
        method=METHOD_FIXED,
        search_mode="exhaustive",
    )


def _subset_score(sims, gram, positions):
    """Objective value of a candidate subset (unordered pairwise penalty)."""
    pos = list(positions)
    total = float(sims[pos].sum())
    for a, b in combinations(pos, 2):
        total -= float(gram[a, b])
    return total


def pseudo_decompose_general(index, question, source, n, k=1000,
                             query=None):
    """Best size-N subset under the generalized objective.

    Exhaustive for N <= 3 while the subset count stays within
    EXHAUSTIVE_SUBSET_CAP; otherwise greedy forward selection (the chosen
    mode is recorded in search_mode). N=2 is exactly the fixed2 search.
    query, when given, is the question's (raw, unit, top-K rows) from the
    batched dataset build.
    """
    if n < 2:
        raise ValueError("N must be at least 2")
    if n == 2:
        return pseudo_decompose_fixed(index, question, source, k, query)
    _, unit, rows = _query_rows(index, question, source, k, query)
    m = len(rows)
    if m < n:
        raise ValueError(f"need at least {n} candidates, have {m}")
    cand = index.unit_matrix[rows].astype(np.float64)
    sims = cand @ unit
    gram = cand @ cand.T

    def ids_of(positions):
        return tuple(sorted(index.ids[rows[p]] for p in positions))

    if n == 3 and math.comb(m, n) <= EXHAUSTIVE_SUBSET_CAP:
        search_mode = "exhaustive"
        pair_part = sims[:, None] + sims[None, :] - gram
        best_val = -np.inf
        tie_sets = []
        for i in range(m - 2):
            gi = gram[i, i + 1:]
            sub = pair_part[i + 1:, i + 1:] + (sims[i] - gi[:, None] - gi[None, :])
            jj, kk = np.triu_indices(m - i - 1, k=1)
            vals = sub[jj, kk]
            if vals.size == 0:
                continue
            vmax = float(vals.max())
            if vmax > best_val:
                best_val = vmax
                tie_sets = []
            if vmax == best_val:
                for t in np.flatnonzero(vals == vmax):
                    tie_sets.append((i, i + 1 + int(jj[t]), i + 1 + int(kk[t])))
        chosen = min(tie_sets, key=ids_of)
        score = best_val
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

    members = sorted(((index.ids[rows[p]], index.texts[rows[p]]) for p in chosen))
    return PseudoDecomposition(
        question_id=question.id,
        sub_question_ids=tuple(i for i, _ in members),
        sub_texts=tuple(t for _, t in members),
        objective_score=float(score),
        method=METHOD_GENERAL,
        search_mode=search_mode,
    )


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


def pseudo_decompose_variable(index, question, source, max_n, k=1000,
                              beam_width=100, query=None):
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
    rows in the same order as the exact distance, so its residuals are
    bitwise the exact ones; their squared norms a are taken with einsum.
    einsum and the BLAS dot inside np.linalg.norm add the same d
    non-negative terms, each in its own order, so each is within
    gamma_d(u64) = d*u / (1 - d*u) of the true square, plus at most
    d * 2**-1074 from underflow. With tau the beam_width-th smallest a, at
    least beam_width states have a <= tau, and their exact distances bound
    the beam's cut, so every state of the exact beam has

        a <= (tau + d * 2**-1072) * ((1 + gamma_d) / (1 - gamma_d))**2
             * (1 + 2**-40)

    where the last factor covers the rounding of the square root and of
    the bound itself. Only the states within it get their exact distance
    and sorted id tuple and are sorted by (distance, ids), which makes the
    surviving beam identical to sorting every extension exactly.
    """
    if max_n < 1:
        raise ValueError("max_N must be at least 1")
    if beam_width < 1:
        raise ValueError("beam width must be at least 1")
    raw_q, _, rows = _query_rows(index, question, source, k, query)
    if not rows:
        raise ValueError("empty candidate pool")
    m = len(rows)
    raws = index.raw_matrix[rows].astype(np.float64)
    dim = raws.shape[1]
    gamma = _gamma(dim, _U64)
    widen = ((1.0 + gamma) / (1.0 - gamma)) ** 2 * (1.0 + 2.0 ** -40)

    def stats(key):
        vec = raws[list(key)].sum(axis=0)
        dist = float(np.linalg.norm(raw_q - vec))
        ids_t = tuple(sorted(index.ids[rows[p]] for p in key))
        return dist, ids_t

    best = None  # (dist, size, ids_tuple, key)
    beam = np.zeros((1, 0), dtype=np.intp)
    for size in range(1, max_n + 1):
        keys = _extensions(beam, m)
        if not len(keys):
            break
        if len(keys) > beam_width:
            approx = np.empty(len(keys))
            step = max(1, _BEAM_BLOCK // (size * dim))
            for start in range(0, len(keys), step):
                resid = raw_q - raws[keys[start:start + step]].sum(axis=1)
                approx[start:start + step] = np.einsum("ij,ij->i", resid, resid)
            tau = np.partition(approx, beam_width - 1)[beam_width - 1]
            keys = keys[approx <= (tau + dim * 2.0 ** -1072) * widen]
        states = [stats(key) + (key,) for key in map(tuple, keys.tolist())]
        states.sort(key=lambda s: (s[0], s[1]))
        states = states[:beam_width]
        head = states[0]
        cand = (head[0], size, head[1], head[2])
        if best is None or cand[:3] < best[:3]:
            best = cand
        beam = np.array([s[2] for s in states], dtype=np.intp)

    members = sorted(((index.ids[rows[p]], index.texts[rows[p]]) for p in best[3]))
    return PseudoDecomposition(
        question_id=question.id,
        sub_question_ids=tuple(i for i, _ in members),
        sub_texts=tuple(t for _, t in members),
        objective_score=best[0],
        method=METHOD_VARIABLE,
    )


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


def build_pseudo_decomposition_dataset(questions, index, source, config):
    """Decompose every embeddable question; skip and record failures.

    Every question is embedded first, in embed_blocks blocks, each sum
    normalized as embed_query does. The scanning methods then find top-K
    rows for _SCAN_BLOCK // len(index) questions at a time, with one
    _topk_rows call per chunk: a float32 GEMM whose shortlist keeps every
    row within the proven error margin 2 * delta of the K-th best score,
    rescored in float64 (see _topk_rows), so each question gets exactly
    the rows a float64 scan of the whole index would rank first. Each
    question's embedding and rows go to pseudo_decompose_fixed, _general or
    _variable. Records and failures follow input order, and config.workers
    does not change the output (the build runs on one thread).
    """
    questions = tuple(questions)
    outcomes = [None] * len(questions)  # a decomposition or a failure reason
    embedded = []  # (position, question, raw vector, unit vector)
    for start, sums in embed_blocks([q.tokens for q in questions], source):
        for pos, raw in enumerate(sums, start):
            if raw.any():
                embedded.append((pos, questions[pos], raw,
                                 unit_normalize(raw)))
            else:
                outcomes[pos] = _NO_VOCABULARY

    chunk = max(1, _SCAN_BLOCK // len(index))
    for start in range(0, len(embedded), chunk):
        part = embedded[start:start + chunk]
        if config.method == METHOD_RANDOM:
            hits = [(None, None)] * len(part)
        else:
            hits = _topk_rows(index, [unit for *_, unit in part], config.k)
        for (pos, q, raw, unit), (rows, _) in zip(part, hits):
            query = (raw, unit, rows)
            try:
                if config.method == METHOD_FIXED:
                    d = pseudo_decompose_fixed(index, q, source, config.k,
                                               query=query)
                elif config.method == METHOD_GENERAL:
                    d = pseudo_decompose_general(index, q, source, config.n,
                                                 config.k, query=query)
                elif config.method == METHOD_VARIABLE:
                    d = pseudo_decompose_variable(
                        index, q, source, config.max_n, config.k,
                        config.beam_width, query=query)
                else:
                    d = _random_from_index(
                        index, q, config.n,
                        child_seed(config.seed, "decompose-random", pos))
                outcomes[pos] = d
            except ValueError as exc:
                outcomes[pos] = str(exc)

    records = []
    failures = []
    for q, outcome in zip(questions, outcomes):
        if isinstance(outcome, str):
            failures.append((q.id, outcome))
        else:
            records.append((q, outcome))
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


def read_dataset_tsv(path):
    """Rows of the 5-column dataset TSV as lists of strings."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != len(DATASET_COLUMNS):
                raise ValueError(
                    f"{path}:{lineno}: expected {len(DATASET_COLUMNS)} columns, "
                    f"got {len(fields)}")
            rows.append(fields)
    return rows
