"""Word-vector tables, summed bag-of-words embeddings, and cosine.

A vector table is one float32 matrix with a word -> row vocabulary;
accumulation happens in 64-bit.
"""

from dataclasses import dataclass

import numpy as np

# Token lists summed per embed_blocks block: a float64 (256, 300) block is
# 600 KB, so the accumulator stays small whatever the number of texts.
EMBED_BLOCK = 256


@dataclass
class VectorTable:
    """A vocabulary (word -> row) and one float32 (words, dim) matrix.

    vocab maps each word to its matrix row, in row order.
    """

    vocab: dict
    matrix: np.ndarray

    @property
    def dim(self):
        return self.matrix.shape[1]

    def __contains__(self, word):
        return word in self.vocab

    def __len__(self):
        return len(self.vocab)


def _from_rows(words, matrix):
    """VectorTable of words and their matrix rows; a repeated word keeps its
    first position and its last row, as assigning into a dict would."""
    vocab = {word: row for row, word in enumerate(words)}
    if len(vocab) < len(words):
        matrix = matrix[list(vocab.values())]
        vocab = dict(zip(vocab, range(len(vocab))))
    return VectorTable(vocab=vocab, matrix=matrix)


def _is_int(text):
    try:
        int(text)
    except ValueError:
        return False
    return True


def _vector_rows(fh):
    """(line number, word, components) of each vector row of a .vec file,
    skipping blank lines and an optional "count dim" header line."""
    first = True
    for lineno, line in enumerate(fh, start=1):
        parts = line.split()
        if not parts:
            continue
        if first:
            first = False
            if len(parts) == 2 and _is_int(parts[0]) and _is_int(parts[1]):
                continue  # header line
        yield lineno, parts[0], parts[1:]


def vector_file_dim(path):
    """Component count of the first vector row of a .vec file (None when it
    has no rows), read without parsing the rest of the file."""
    with open(path, encoding="utf-8") as fh:
        for _, _, comps in _vector_rows(fh):
            return len(comps)
    return None


def load_vector_table(path):
    """Parse a text vector file: ``word c1 ... cd`` rows, optional count/dim header.

    A word listed twice keeps its last vector. Raises ValueError naming the
    line number for dimension mismatches and non-numeric or non-finite
    components.
    """
    words = []
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, word, comps in _vector_rows(fh):
            if not comps:
                raise ValueError(f"{path}:{lineno}: row has no vector components")
            if rows and len(comps) != len(rows[0]):
                raise ValueError(f"{path}:{lineno}: expected {len(rows[0])} "
                                 f"components, got {len(comps)}")
            try:
                vec = np.array(list(map(float, comps)), dtype=np.float32)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-numeric vector component") from exc
            if not np.all(np.isfinite(vec)):
                raise ValueError(f"{path}:{lineno}: non-finite vector component")
            words.append(word)
            rows.append(vec)
    if not rows:
        raise ValueError(f"{path}: no vector rows found")
    return _from_rows(words, np.vstack(rows))


def save_vector_table(table, path, header=True):
    """Write a table in the text format load_vector_table reads."""
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"{len(table)} {table.dim}\n")
        for word, row in table.vocab.items():
            comps = " ".join(map(repr, table.matrix[row].tolist()))
            fh.write(f"{word} {comps}\n")


def make_vector_table(entries):
    """Build a VectorTable from a {word: sequence} dict (validates dimensions)."""
    if not entries:
        raise ValueError("empty vector table")
    vectors = [np.asarray(comps, dtype=np.float32) for comps in entries.values()]
    for word, vec in zip(entries, vectors):
        if vec.ndim != 1:
            raise ValueError(f"vector for {word!r} is not one-dimensional")
        if vec.shape != vectors[0].shape:
            raise ValueError(f"vector for {word!r} has dimension {vec.shape[0]}, "
                             f"expected {vectors[0].shape[0]}")
    return _from_rows(list(entries), np.array(vectors))


def embed_blocks(token_lists, table):
    """Summed word vectors of a sequence of token lists, block by block.

    Yields (start, sums): sums is the float64 (rows, dim) matrix of the
    in-vocabulary vector sums of token_lists[start:start + rows], with rows
    at most EMBED_BLOCK. Each row starts from float64 zeros and adds its
    tokens' float32 vectors one token position at a time, in token order,
    so it is bitwise the sum of a per-token ``acc += vector`` loop;
    out-of-vocabulary tokens are skipped, and a row with none in
    vocabulary stays zero. The rows are summed longest first, so the rows
    that have a token at a position are a prefix, and the vectors are
    gathered position by position, so each position adds one slice.
    """
    vocab, matrix, block = table.vocab, table.matrix, EMBED_BLOCK
    for start in range(0, len(token_lists), block):
        rows = [[vocab[t] for t in tokens if t in vocab]
                for tokens in token_lists[start:start + block]]
        lengths = np.array([len(r) for r in rows], dtype=np.intp)
        order = np.argsort(-lengths, kind="stable")
        flat = np.array([i for r in rows for i in r], dtype=np.intp)
        first = (np.cumsum(lengths) - lengths)[order]
        positions = np.arange(lengths.max(initial=0))[:, None]
        live = positions < lengths[order]  # (positions, rows), prefixes
        vectors = matrix[flat[(first + positions)[live]]]
        sums = np.zeros((len(rows), matrix.shape[1]))
        at = 0
        for count in live.sum(axis=1).tolist():
            sums[:count] += vectors[at:at + count]
            at += count
        unsorted = np.empty_like(sums)
        unsorted[order] = sums
        yield start, unsorted


@dataclass(frozen=True)
class TextEmbedding:
    """Sum of in-vocabulary word vectors; is_zero marks an exactly-zero sum."""

    vector: np.ndarray
    is_zero: bool


def embed_text_sum(tokens, table):
    """Sum the vectors of in-vocabulary tokens (float64 accumulation)."""
    [(_, sums)] = embed_blocks([tokens], table)
    return TextEmbedding(vector=sums[0], is_zero=not sums[0].any())


def unit_normalize(vector):
    """Scale to unit L2 norm. Zero vectors are an error."""
    v = np.asarray(vector, dtype=np.float64)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise ValueError("cannot normalize a zero vector")
    return v / norm


def cosine(v1, v2):
    """Cosine similarity in [-1, 1]; zero vectors are an error."""
    a = np.asarray(v1, dtype=np.float64)
    b = np.asarray(v2, dtype=np.float64)
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine is undefined for zero vectors")
    return float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))
