"""Word-vector tables, summed bag-of-words embeddings, and cosine.

Vector tables are stored in 32-bit floats; accumulation happens in 64-bit.
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class VectorTable:
    """word -> float32 vector map with one fixed dimension."""

    dim: int
    entries: dict

    def __contains__(self, word):
        return word in self.entries

    def __len__(self):
        return len(self.entries)


def _is_int(text):
    try:
        int(text)
    except ValueError:
        return False
    return True


def load_vector_table(path):
    """Parse a text vector file: ``word c1 ... cd`` rows, optional count/dim header.

    Raises ValueError naming the line number for dimension mismatches and
    non-numeric or non-finite components.
    """
    entries = {}
    dim = None
    first = True
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if first:
                first = False
                if len(parts) == 2 and _is_int(parts[0]) and _is_int(parts[1]):
                    continue  # header line
            word, comps = parts[0], parts[1:]
            if not comps:
                raise ValueError(f"{path}:{lineno}: row has no vector components")
            if dim is None:
                dim = len(comps)
            elif len(comps) != dim:
                raise ValueError(
                    f"{path}:{lineno}: expected {dim} components, got {len(comps)}")
            try:
                vec = np.array([float(c) for c in comps], dtype=np.float32)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-numeric vector component") from exc
            if not np.all(np.isfinite(vec)):
                raise ValueError(f"{path}:{lineno}: non-finite vector component")
            entries[word] = vec
    if dim is None:
        raise ValueError(f"{path}: no vector rows found")
    return VectorTable(dim=dim, entries=entries)


def save_vector_table(table, path, header=True):
    """Write a table in the text format load_vector_table reads."""
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"{len(table.entries)} {table.dim}\n")
        for word in table.entries:
            comps = " ".join(repr(float(c)) for c in table.entries[word])
            fh.write(f"{word} {comps}\n")


def make_vector_table(entries):
    """Build a VectorTable from a {word: sequence} dict (validates dimensions)."""
    if not entries:
        raise ValueError("empty vector table")
    dim = None
    out = {}
    for word, comps in entries.items():
        vec = np.asarray(comps, dtype=np.float32)
        if vec.ndim != 1:
            raise ValueError(f"vector for {word!r} is not one-dimensional")
        if dim is None:
            dim = vec.shape[0]
        elif vec.shape[0] != dim:
            raise ValueError(f"vector for {word!r} has dimension {vec.shape[0]}, expected {dim}")
        out[word] = vec
    return VectorTable(dim=dim, entries=out)


@dataclass(frozen=True)
class TextEmbedding:
    """Sum of in-vocabulary word vectors; is_zero marks an exactly-zero sum."""

    vector: np.ndarray
    is_zero: bool


def embed_text_sum(tokens, table):
    """Sum the vectors of in-vocabulary tokens (float64 accumulation)."""
    acc = np.zeros(table.dim, dtype=np.float64)
    for tok in tokens:
        vec = table.entries.get(tok)
        if vec is not None:
            acc += vec
    return TextEmbedding(vector=acc, is_zero=not acc.any())


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
