"""Embedded candidate index, top-K search, and pseudo-decomposition selection.

Three retrieval objectives over a top-K candidate pool:

* fixed2:   general at N = 2, argmax of  q.s1 + q.s2 - s1.s2  (unit vectors)
* general:  the size-N form, sum of query similarities minus the sum of
            pairwise similarities over unordered candidate pairs
* variable: argmin over subsets of  ||v_q - sum v_s||_2  (un-normalized
            vectors), searched with a width-limited beam over subset sizes

plus a seeded uniform random baseline.

Every subset search and count, synth-eval's included, reads the terms of
_objective_terms, and every selector breaks score ties by id rank.
"""

import math
import os
import zipfile
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .corpus import (COUNT, JSON_KINDS, STRING, STRINGS, read_json,
                     read_tsv, write_json, write_tsv)
from .embeddings import (_U32, _U64, VectorTable, _gamma, _ranges,
                         embed_blocks)
from .rng import child_seed

# the one embedding an index holds, named in its meta.json
SOURCE_VECTORS = "sum-of-word-vectors"

METHOD_FIXED = "fixed2"
METHOD_GENERAL = "general"
METHOD_VARIABLE = "variable"
METHOD_RANDOM = "random"
METHODS = (METHOD_FIXED, METHOD_GENERAL, METHOD_VARIABLE, METHOD_RANDOM)

OBJECTIVE_SIM_DIVERSITY = "sim-diversity"
OBJECTIVE_SUM_DISTANCE = "sum-distance"
OBJECTIVES = (OBJECTIVE_SIM_DIVERSITY, OBJECTIVE_SUM_DISTANCE)

# N = 3 subset search is exhaustive while the number of subsets is at most
# this, and greedy forward selection beyond it and for N > 3; N = 2 is
# exhaustive at any pool size.
EXHAUSTIVE_SUBSET_CAP = 10_000_000

# Float32 scores held per scan chunk (4 MB, small beside the index itself):
# the dataset builder scans _SCAN_BLOCK // len(index) questions per
# _topk_rows call.
_SCAN_BLOCK = 1 << 20

# Float64 elements of gathered candidate rows held per block of the variable
# beam's exact distances (512 KB, so a block stays in cache). Only each
# size's shortlist is gathered, about beam_width * size keys; the block
# bounds the memory of a shortlist that near ties widen.
_BEAM_BLOCK = 1 << 16

# Subset entries per chunk of the size-3 rows that _row_chunks yields to
# _exhaustive and _count_better (about 4 MB of gathered indices and
# scores); a single longer row is one chunk.
_COUNT_BLOCK = 1 << 16


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
    load_index); row_squares the _row_squares of unit_matrix, when
    load_index took them to check its rows (row_norm_bound takes them else).
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

    def __len__(self):
        return len(self.ids)

    @cached_property
    def _row_map(self):
        """Each id's row, built on the first row_of or membership test."""
        return {qid: i for i, qid in enumerate(self.ids)}

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
        squares = float((_row_squares(matrix) if self.row_squares is None
                         else self.row_squares).max())
        bound = squares / (1.0 - _gamma(matrix.shape[1], _U32))
        return math.sqrt(bound) * (1.0 + 2.0 ** -40)


_NO_VOCABULARY = "text has no in-vocabulary tokens"


def build_index(corpus, source, filters=None):
    """Embed every corpus question that passes the length filters.

    Questions whose embedding is zero (all tokens out of vocabulary) are
    excluded and counted; an index that would be empty is an error giving
    both counts. The questions are summed by embed_blocks, block by block,
    straight into preallocated float32 matrices; each row's unit vector is
    its sum over its _norms, exactly as _scan_queries normalizes a query.
    """
    tokens = corpus.tokens
    kept = [r for r, toks in enumerate(tokens) if filters is None
            or filters.min_tokens <= len(toks) <= filters.max_tokens]
    raw = np.empty((len(kept), source.dim), dtype=np.float32)
    unit = np.empty_like(raw)
    rows = []  # positions in kept of the embedded questions
    for start, sums in embed_blocks([tokens[r] for r in kept], source):
        nonzero = np.flatnonzero(sums.any(axis=1))
        sums = sums[nonzero]
        at = len(rows)
        raw[at:at + len(sums)] = sums
        unit[at:at + len(sums)] = sums / _norms(sums)[:, None]
        rows.extend((start + nonzero).tolist())
    if not rows:
        raise ValueError(f"index is empty: of {len(corpus)} questions, "
                         f"{len(corpus) - len(kept)} fall outside the token "
                         f"bounds and {len(kept)} have no in-vocabulary token")
    embedded = [kept[r] for r in rows]  # their rows in the corpus
    return EmbeddedIndex(ids=tuple(corpus.ids[r] for r in embedded),
                         texts=tuple(corpus.texts[r] for r in embedded),
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
    is created if it is missing; its parent must exist.
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
    if not os.path.isdir(dirpath):
        os.mkdir(dirpath)
    write_json(meta, os.path.join(dirpath, "meta.json"))
    write_json(list(table.vocab), os.path.join(dirpath, "vocab.json"))
    for name, matrix in (("unit.npy", index.unit_matrix),
                         ("raw.npy", index.raw_matrix),
                         ("vectors.npy", table.matrix)):
        path = os.path.join(dirpath, name)
        try:  # numpy's write errors name no file
            np.save(path, matrix)
        except OSError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _load_matrix(path, shape, finite=True):
    """A float32 matrix of the given shape, with only finite values unless
    finite is False (unit.npy, whose values _check_unit_rows checks)."""
    try:  # numpy's read errors name no file
        matrix = np.load(path)
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(matrix, np.ndarray):  # an .npz archive
        matrix.close()
        raise ValueError(f"{path}: holds an .npz archive, not one .npy matrix")
    if matrix.dtype != np.float32 or matrix.shape != shape:
        raise ValueError(f"{path}: expected a float32 matrix of shape {shape} "
                         f"from meta.json, got {matrix.dtype} of shape "
                         f"{matrix.shape}")
    # a float64 sum of float32 values cannot overflow, so it is finite
    # exactly when every value is, and needs no boolean copy of the matrix
    if finite and not np.isfinite(matrix.sum(dtype=np.float64)):
        raise ValueError(f"{path}: holds a NaN or infinite value")
    return matrix


def _check_unit_rows(path, unit):
    """Reject a NaN or infinite value, or a unit-matrix row whose squared
    norm is not 1 within rounding.

    build_index stores each row as a float64 sum over its float64 norm,
    rounded to float32. That float64 quotient has squared norm 1 within a
    few float64 ulps; rounding each component to float32 moves its square
    by a factor within (1 +- u32)**2, and the float32 dot product of
    _row_squares adds at most gamma_d(u32). Underflow adds at most
    d * 2**-148, far below u32. So every row build_index writes has
    |squares - 1| <= gamma_{d+3}(u32), and a row outside that was not
    written by it. A NaN or infinite value makes its row's square NaN or
    infinite, so that row fails the test too; a finite row whose float32
    square overflows gets the squared-norm message. Returns the float32
    squares.
    """
    row_squares = _row_squares(unit)
    squares = row_squares.astype(np.float64)
    bad = np.flatnonzero(~(np.abs(squares - 1.0)
                           <= _gamma(unit.shape[1] + 3, _U32)))
    if len(bad):
        if not np.isfinite(unit[bad]).all():
            raise ValueError(f"{path}: holds a NaN or infinite value")
        row = int(bad[0])
        raise ValueError(f"{path}: row {row} has squared norm "
                         f"{float(squares[row])!r}, not 1 within float32 "
                         f"rounding ({len(bad)} such rows)")
    return row_squares


# each meta.json field load_index reads, and the kind of value it holds
_META_FIELDS = {"rows": COUNT, "dim": COUNT, "ids": STRINGS,
                "texts": STRINGS, "oov_excluded": COUNT,
                "filtered_out": COUNT, "vectors.dim": COUNT,
                "vectors.words": COUNT, "vectors.sha256": STRING}


def load_index(dirpath):
    """Read an index written by save_index, with its word vectors.

    Raises ValueError when meta.json is not an object, names another source
    than summed word vectors, records no word vectors (an index written
    before they were stored), lacks a field read here or holds a value of
    another kind than _META_FIELDS gives for it, when its rows, ids and
    texts disagree, an id repeats or it records no rows, when unit.npy or
    raw.npy is not a finite float32 (rows, dim) matrix, when a unit.npy row
    does not have unit norm (see _check_unit_rows), or when vocab.json is
    not a list of the recorded number of distinct strings or vectors.npy is
    not a finite float32 (words, dim) matrix.
    """
    meta_path = os.path.join(dirpath, "meta.json")
    meta = read_json(meta_path)
    if not isinstance(meta, dict):
        raise ValueError(f"{meta_path}: expected a JSON object")
    if meta.get("source") != SOURCE_VECTORS:
        raise ValueError(f"{meta_path}: index source is {meta.get('source')!r}, "
                         f"only {SOURCE_VECTORS!r} indexes can be read")
    vectors_path = os.path.join(dirpath, "vectors.npy")
    vectors = meta.get("vectors")
    if vectors is None:
        raise ValueError(f"{vectors_path} is missing: {meta_path} records no "
                         f"word vectors, so the index was built before "
                         f"build-index stored them; rebuild it")
    for field, kind in _META_FIELDS.items():
        *outer, name = field.split(".")
        holder = vectors if outer else meta
        if not isinstance(holder, dict) or name not in holder:
            raise ValueError(f"{meta_path}: lacks the field {field}")
        if not JSON_KINDS[kind](holder[name]):
            raise ValueError(f"{meta_path}: the field {field} is not {kind}")
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
    unit_path = os.path.join(dirpath, "unit.npy")
    unit = _load_matrix(unit_path, (rows, dim), finite=False)
    row_squares = _check_unit_rows(unit_path, unit)
    raw = _load_matrix(os.path.join(dirpath, "raw.npy"), (rows, dim))
    if vectors["dim"] != dim:
        raise ValueError(f"{meta_path}: vectors have dimension "
                         f"{vectors['dim']}, but the index has dimension {dim}")
    vocab_path = os.path.join(dirpath, "vocab.json")
    words = read_json(vocab_path)
    if not JSON_KINDS[STRINGS](words):
        raise ValueError(f"{vocab_path}: expected {STRINGS}")
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
        # with K >= N, tau is the smallest score and every row is kept
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


def _objective_terms(objective, index, rows, raw_q, unit):
    """(start, member terms, pair terms) of the objective over a pool.

    A size-n subset of pool positions c_1 < ... < c_n scores start, plus
    each member's terms in member order, plus pairs[c_a, c_b] for each pair
    in (1, 2), (1, 3), (2, 3) order, added left to right; higher is better.
    sim-diversity is sum(sims) - sum(gram): start -0.0 (the additive
    identity), the sims and pairs -gram (x + (-g) is x - g). sum-distance
    is the squared distance |q - sum(raws)|**2 expanded as qq - 2 q.r + r.r
    per member + 2 r.r' per pair, negated: round-to-nearest is symmetric,
    so every step rounds to exactly the negation of the unnegated step.
    """
    if objective == OBJECTIVE_SIM_DIVERSITY:
        cand = index.unit_matrix[rows].astype(np.float64)
        return -0.0, (cand @ unit,), -(cand @ cand.T)
    return _distance_terms(index.raw_matrix[rows].astype(np.float64), raw_q)


def _distance_terms(raws, raw_q):
    """_objective_terms' sum-distance terms of the float64 pool rows raws,
    for a caller that holds those rows already."""
    gram = raws @ raws.T
    return (-float(raw_q @ raw_q), (2.0 * (raws @ raw_q), -np.diag(gram)),
            -2.0 * gram)


def _member_sums(start, members):
    """lead_p, start plus position p's member terms, and own_p, its member
    terms alone, each added left to right."""
    lead, own = start + members[0], members[0]
    for v in members[1:]:
        lead, own = lead + v, own + v
    return lead, own


def _pair_block(start, members, *pairs):
    """_member_sums' own, and the block of lead_j, then k's member terms,
    then each of pairs in turn, added left to right: with the (K, K) pair
    terms alone, each pair's score in the order of _objective_terms."""
    lead, own = _member_sums(start, members)
    block = lead[:, None] + members[0]
    for v in members[1:]:
        block += v
    for p in pairs:
        block += p
    return own, block


def _bound_margin(start, members, pairs):
    """The rounding margin of _row_bounds: gamma_{2L}(u64) * W * (1 +
    2**-40).

    A subset i < j < k of pool positions has L = 3 * len(members) + 4
    terms: start, each member vector's entries at i, j and k, and the pairs
    entries (i, j), (i, k), (j, k), whose magnitudes sum to at most W =
    |start| + 3 * sum(max|v| for v in members) + 3 * max|pairs|. Let lead_i
    be start plus i's member terms and t_ij be j's member terms plus
    pairs[i, j], each as computed. The bound of row (i, j) adds four float64
    operands left to right, (t_ij + b) + lead_i + c, with b >= t_ik and c >=
    pairs[j, k] for every k > j.

    An entry of such a subset that adds its L terms in any order is at most
    fl(bound + margin). It is within gamma_{L-1}(u64) * W of its terms'
    exact sum (Higham, Accuracy and Stability of Numerical Algorithms,
    section 3.1), which exceeds the exact sum of the bound's four operands
    by at most gamma_{len(members)} * W (the roundings of lead_i and t_ij),
    and the bound's three roundings add gamma_3 * (1 + gamma_{len(members)})
    * W. As L >= 7, the margin exceeds these by more than 2 * u64 * W, which
    covers rounding bound + margin; the factor covers rounding the margin.
    """
    terms = 3 * len(members) + 4
    width = (abs(start) + 3 * sum(float(np.abs(v).max()) for v in members)
             + 3 * float(np.abs(pairs).max()))
    return _gamma(2 * terms, _U64) * width * (1.0 + 2.0 ** -40)


def _row_bounds(start, members, pairs, upper):
    """Upper bound of each (i, j) row of a pool's size-3 subsets, every
    i < j < k over k, and the rounding margin (_bound_margin).

    Row (i, j) is bounded by (t_ij + max over k > j of t_ik) + lead_i +
    (max over k > j of pairs[j, k]), added left to right in float64, with
    t_ij and lead_i as in _bound_margin. upper is the (K, K) mask of j < k.
    Returns a (K, K - 1) array of row bounds, -inf where j <= i, and the
    margin.
    """
    lead, own = _member_sums(start, members)
    tails = np.where(upper, own + pairs, -np.inf)
    # after[:, j] is the largest tails[:, k] over k > j
    after = np.maximum.accumulate(tails[:, :0:-1], axis=1)[:, ::-1]
    row_best = pairs.max(axis=1, where=upper, initial=-np.inf)
    return ((tails[:, :-1] + after) + lead[:, None] + row_best[:-1],
            _bound_margin(start, members, pairs))


def _row_chunks(keep):
    """The (i, j) rows of size-3 subsets that the (K, K - 1) mask keep
    holds, in row-major order and in chunks of whole rows of at most
    _COUNT_BLOCK entries, or one longer row: each chunk's i, j and row
    sizes K - 1 - j, and its entries' k, every k > j of each row in turn."""
    m = keep.shape[0]
    # a 1-D flatnonzero is far faster than a 2-D nonzero
    ii, jj = np.divmod(np.flatnonzero(keep), m - 1)
    sizes = m - 1 - jj
    ends = np.cumsum(sizes)
    at = 0
    while at < len(ii):
        stop = max(at + 1, int(np.searchsorted(
            ends, ends[at] - sizes[at] + _COUNT_BLOCK, side="right")))
        i, j = ii[at:stop], jj[at:stop]
        yield i, j, sizes[at:stop], _ranges(j + 1, m)
        at = stop


def _exhaustive(id_ranks, start, members, pairs, n):
    """Best size-n subset of pool positions (n is 2 or 3) and its score.

    n = 2 scores the (K, K) _pair_block masked to j < k. n = 3 scores each
    subset i < j < k as pair_block[j, k] + ((own_i + pairs_ij) + pairs_ik).
    Every tie of the best value is listed, and the one with the smallest
    sorted id_ranks (ids) wins.

    n = 3 first scores the row of _row_bounds' largest bound; its best is a
    floor at most the best value. Then only the rows whose bound plus
    margin is at least the floor are scored, through _row_chunks: an entry
    of any other row is below the floor, so no tie is lost, and the chosen
    subset and its score bits are those of scoring every subset.
    """
    own, pair_block = _pair_block(start, members, pairs)
    m = len(own)
    upper = np.arange(m)[:, None] < np.arange(m)
    if n == 2:
        best = float(pair_block.max(where=upper, initial=-np.inf))
        jj, kk = np.nonzero((pair_block == best) & upper)
        ties = zip(jj.tolist(), kk.tolist())
    else:
        def scores(i, j, sizes, k):
            return pair_block.take(np.repeat(j * m, sizes) + k) + (
                np.repeat(own[i] + pairs[i, j], sizes)
                + pairs.take(np.repeat(i * m, sizes) + k))

        bound, margin = _row_bounds(start, members, pairs, upper)
        i, j = divmod(int(bound.argmax()), m - 1)
        floor = scores(i, j, m - 1 - j, np.arange(j + 1, m)).max()
        best, ties = -np.inf, []
        for i, j, sizes, k in _row_chunks(bound + margin >= floor):
            entries = scores(i, j, sizes, k)
            vmax = float(entries.max())
            if vmax > best:
                best, ties = vmax, []
            if vmax == best:
                at = np.flatnonzero(entries == vmax)
                row = np.searchsorted(np.cumsum(sizes), at, side="right")
                ties.extend(zip(i[row].tolist(), j[row].tolist(),
                                k[at].tolist()))
    chosen = min(ties, key=lambda t: sorted(id_ranks[list(t)].tolist()))
    return chosen, best


def _count_better(start, members, pairs, gold):
    """Subsets of the pool scoring strictly above the gold positions.

    Scores follow _objective_terms exactly, gold's included. n = 2 is the
    (K, K) _pair_block masked to j < k. For n = 3 only the (i, j) rows
    whose _row_bounds bound plus margin is above gold can hold a better
    subset, and only their entries are scored, through _row_chunks, each
    in _pair_block's order: lead_i, j's member terms, k's member terms,
    then pairs[i, j], pairs[i, k] and pairs[j, k].
    """
    score = start
    for p in gold:
        for v in members:
            score = score + v[p]
    for a, b in combinations(gold, 2):
        score = score + pairs[a, b]
    m = len(pairs)
    upper = np.arange(m)[:, None] < np.arange(m)
    if len(gold) == 2:
        _, block = _pair_block(start, members, pairs)
        return int(np.count_nonzero((block > score) & upper))

    lead, _ = _member_sums(start, members)
    bound, margin = _row_bounds(start, members, pairs, upper)
    better = 0
    for i, j, sizes, k in _row_chunks(bound + margin > score):
        heads = lead[i]
        for v in members:
            heads = heads + v[j]
        entries = np.repeat(heads, sizes) + members[0][k]
        for v in members[1:]:
            entries += v[k]
        entries += np.repeat(pairs[i, j], sizes)
        entries += pairs.take(np.repeat(i * m, sizes) + k)
        entries += pairs.take(np.repeat(j * m, sizes) + k)
        better += int(np.count_nonzero(entries > score))
    return better


def _decomposition(index, question, rows, positions, score, method,
                   search_mode=None):
    """PseudoDecomposition of the chosen pool positions, members by id."""
    ids, texts = zip(*sorted((index.ids[rows[p]], index.texts[rows[p]])
                             for p in positions))
    return PseudoDecomposition(question.id, ids, texts, float(score), method,
                               search_mode)


def pseudo_decompose_fixed(index, question, k=1000, query=None):
    """The fixed2 pair: pseudo_decompose_general at N = 2."""
    return pseudo_decompose_general(index, question, n=2, k=k, query=query)


def pseudo_decompose_general(index, question, n, k=1000, query=None):
    """Best size-N subset under the generalized objective.

    N = 2 (fixed2, and recorded so) is searched exhaustively whatever
    EXHAUSTIVE_SUBSET_CAP, N = 3 while the subset count stays within it;
    otherwise greedy forward selection runs (search_mode records which).
    Ties break toward the smallest sorted ids. query, when given, is the
    question's (raw, unit, top-K rows) from the batched dataset build.
    """
    if n < 2:
        raise ValueError("N must be at least 2")
    raw_q, unit, rows = _query_rows(index, question, k, query)
    m = len(rows)
    if m < n:
        raise ValueError(f"need at least {n} candidates, have {m}")
    terms = _objective_terms(OBJECTIVE_SIM_DIVERSITY, index, rows, raw_q, unit)
    ranks = index.id_rank[rows]
    if n == 2 or n == 3 and math.comb(m, n) <= EXHAUSTIVE_SUBSET_CAP:
        search_mode = "exhaustive"
        chosen, score = _exhaustive(ranks, *terms, n)
    else:
        search_mode = "greedy"
        _, (sims,), pairs = terms
        chosen = []
        for _ in range(n):
            # take's C-ordered gather sums each row pairwise; pairs[:, chosen]
            # is column-major and adds column by column, unequal from 8 on
            gains = sims + pairs.take(chosen, axis=1).sum(axis=1)
            gains[chosen] = -np.inf
            ties = np.flatnonzero(gains == gains.max())
            chosen.append(int(ties[np.argmin(ranks[ties])]))
        score = float(sims[chosen].sum())
        for a, b in combinations(chosen, 2):
            score += float(pairs[a, b])
    return _decomposition(index, question, rows, chosen, score,
                          METHOD_FIXED if n == 2 else METHOD_GENERAL,
                          search_mode)


def pseudo_decompose_variable(index, question, max_n, k=1000, beam_width=100,
                              query=None):
    """Best subset of size 1..max_N minimizing ||v_q - sum v_s||.

    Beam search: states of size s extend by every unused candidate, the
    beam_width lowest-distance states survive per size, and the global best
    across sizes wins. Ties prefer fewer sub-questions, then lexicographic
    ids. A state's distance is norm(v_q - raws[key].sum(axis=0)), with key
    its pool positions in ascending order, so identical subsets found along
    different paths are numerically identical. query, when given, is the
    question's (raw, unit, top-K rows) from the batched dataset build.

    Each size s scores every (state b, unused position x) pair
    approximately, as one (states, K) array and with no key built, from the
    sum-distance terms of _objective_terms: A = parent_b + (r_x.r_x -
    2 q.r_x) + sum over i in b of 2 gram[i, x], where parent_b is b's
    distance squared (q.q for the empty state). A key has at most s parents
    in the beam, so the J = beam_width * s smallest upper bounds A + M hold
    at least beam_width distinct keys, and T, the J-th smallest of them, is
    at least the beam_width-th smallest squared distance of all extensions.
    Only the shortlist, the pairs with A - M <= T (every pair when there are
    at most J), becomes keys: sorted, deduplicated, and scored in blocks of
    _BEAM_BLOCK // (s * d) keys by raws[keys].sum(axis=1), the same
    reduction over the same rows in the same order as
    raws[list(key)].sum(axis=0), and _norms, which are np.linalg.norm's bit
    for bit. The beam keeps the keys at or below the beam_width-th smallest
    distance, ordered by (distance, sorted ids) through their members' id
    ranks, and cuts them to beam_width. Every key of that beam has its
    squared distance, and so each of its pairs' A - M, at or below T, so
    the beam and its distance bits are those of scoring every extension.

    The margin M of a pair, whose key k has size s, is gamma_{2n} * N**2
    with n = 2d + 5s + 4, N = |q| + sum over the members i of k of |r_i|,
    and gamma_n = _gamma(n, 2**-53). Every bound below holds for any order
    of a sum or a BLAS dot (Higham, Accuracy and Stability of Numerical
    Algorithms, section 3.1). Let D(k) = |q - sum r_i|**2, the real value.
    - Exact path. The subset sum is within gamma_{s-1} * sum |r_i| of the
      real one and the subtraction rounds once, so the residual is within
      gamma_s * N of the real one, whose norm is at most N. Its d-term dot,
      the sqrt and squaring give a dist(k)**2 within gamma_{d+2s+2} * N**2
      of D(k).
    - Approximate path. parent_b is within gamma_{d+2s+1} * N**2 of D(b)
      by the exact path at size s - 1 and one more rounding (q.q, a d-term
      dot, is within gamma_d * |q|**2). q.r_x, r_x.r_x and gram[i, x] are
      d-term dots, each within gamma_d of the product of its norms. The
      terms' real magnitudes sum to at most N**2, and A adds s + 2 of them,
      so |A - D(k)| <= gamma_{d+3s+2} * N**2.
    So |A - dist(k)**2| <= gamma_n * N**2. N is computed from the same dots'
    square roots, within a relative gamma_{d+s+1}, so M is at least 2 *
    gamma_n * N**2 less a few roundings of it, which leaves more than
    2**-52 * N**2 beyond gamma_n * N**2: enough that fl(A + M) is at least
    dist(k)**2. And A - M <= dist(k)**2 <= T gives fl(A - M) <= T.
    """
    if max_n < 1:
        raise ValueError("max_N must be at least 1")
    if beam_width < 1:
        raise ValueError("beam width must be at least 1")
    raw_q, _, rows = _query_rows(index, question, k, query)
    m = len(rows)
    raws = index.raw_matrix[rows].astype(np.float64)
    ranks = index.id_rank[rows]
    start, (twice_qr, neg_rr), neg_pairs = _distance_terms(raws, raw_q)
    gains = -(twice_qr + neg_rr)  # r.r - 2 q.r
    norm_q, norms = math.sqrt(-start), np.sqrt(-neg_rr)
    best_dist, best_key = np.inf, None
    beam, parents = np.zeros((1, 0), dtype=np.intp), np.array([-start])
    for size in range(1, max_n + 1):
        free = (beam[:, :, None] != np.arange(m)).all(axis=1)
        if not free.any():
            break
        approx = (parents[:, None] + gains) - neg_pairs[beam].sum(axis=1)
        reach = (norm_q + norms[beam].sum(axis=1))[:, None] + norms
        n = 2 * raws.shape[1] + 5 * size + 4
        margin = _gamma(2 * n, _U64) * (reach * reach)
        cut = beam_width * size
        if cut < np.count_nonzero(free):
            upper = np.where(free, approx + margin, np.inf).ravel()
            free &= approx - margin <= np.partition(upper, cut - 1)[cut - 1]
        prev, extra = np.nonzero(free)
        keys = np.sort(np.column_stack([beam[prev], extra]), axis=1)
        keys = keys[np.lexsort(keys.T[::-1])]
        fresh = np.ones(len(keys), dtype=bool)
        fresh[1:] = (keys[1:] != keys[:-1]).any(axis=1)
        keys = keys[fresh]
        dists = np.empty(len(keys))
        step = max(1, _BEAM_BLOCK // (size * raws.shape[1]))
        for at in range(0, len(keys), step):
            dists[at:at + step] = _norms(
                raw_q - raws[keys[at:at + step]].sum(axis=1))
        if len(keys) > beam_width:
            near = dists <= np.partition(dists, beam_width - 1)[beam_width - 1]
            keys, dists = keys[near], dists[near]
        member_ranks = np.sort(ranks[keys], axis=1)
        order = np.lexsort((*member_ranks.T[::-1], dists))[:beam_width]
        beam, parents = keys[order], dists[order] ** 2
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
    idx = rng.choice(len(index), size=n, replace=False).tolist()
    return PseudoDecomposition(question.id, tuple(index.ids[i] for i in idx),
                               tuple(index.texts[i] for i in idx),
                               float("nan"), METHOD_RANDOM)


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
    records, failures = [], []
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


def decomposition_text(decomposition):
    """Sub-questions joined by a single space."""
    return " ".join(decomposition.sub_texts)


# the dataset TSV's columns; corpus.read_tsv and write_tsv own its syntax
DATASET_COLUMNS = ("question_id", "question_text", "decomposition_text",
                   "objective_score", "method")


def write_dataset_tsv(records, path):
    """Write (question, decomposition) pairs as a TSV of DATASET_COLUMNS."""
    write_tsv(((q.id, q.raw_text, decomposition_text(d),
                repr(float(d.objective_score)), d.method)
               for q, d in records), path)


def read_dataset_tsv(path):
    """Rows of the dataset TSV (DATASET_COLUMNS) as lists of strings."""
    return [fields for _, fields in read_tsv(path, len(DATASET_COLUMNS))]
