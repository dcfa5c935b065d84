"""Word-vector tables and summed bag-of-words embeddings.

A vector table is one float32 matrix with a word -> row vocabulary;
accumulation happens in 64-bit.
"""

import warnings
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .corpus import open_text, write_lines

# Token lists summed per embed_blocks block: a float64 (256, 300) block is
# 600 KB, so the accumulator stays small whatever the number of texts.
EMBED_BLOCK = 256

# Bytes of .vec lines parsed per bulk block (256 KB): the bulk parse holds a
# few arrays of about this size, never the whole file. With 512 KB or 1 MB
# blocks, a 7K x 300 parse left 3 to 8 MB more resident after it returned,
# and build-index's peak RSS rose by as much.
_VEC_BLOCK = 1 << 18

_U32 = 2.0 ** -24  # unit roundoff of float32
_U64 = 2.0 ** -53  # unit roundoff of float64


def _gamma(n, u):
    """gamma_n = n*u / (1 - n*u): relative error bound of n roundings, as in
    an n-term dot product in any order with unit roundoff u (Higham,
    Accuracy and Stability of Numerical Algorithms, section 3.1)."""
    return n * u / (1.0 - n * u)


# 10**k for the fraction digit counts k the bulk parse takes, each exact.
_POW10 = np.array([float(10 ** k) for k in range(19)])

# Relative half-width of the interval the bulk parse rounds to float32. A
# component -?I.F with k fraction digits is x = I + F / 10**k, computed as
# y = fl(fl(I) + fl(fl(F) / 10**k)) (10**k is exact): two nonnegative terms
# after three roundings, so y = x(1 + t) with |t| <= gamma_3, and x lies in
# [y(1 - gamma_3), y(1 + 2 gamma_3)] (_gamma with u = _U64). Rounding 1 -/+
# _VEC_SLACK and its product with y moves each end by two more roundings,
# which gamma_10 covers, so the two computed ends enclose x. float(token) is
# x rounded to the nearest double and lies between the two ends, since
# rounding is monotone; float32 rounding is monotone too, so when it maps
# both ends to one value, that value is float32(float(token)). The sign goes
# on after, as rounding to nearest commutes with negation. With at most 18
# digits a part, a nonzero x lies in [1e-18, 1e18), inside float32's normal
# range.
_VEC_SLACK = _gamma(10, _U64)


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


def _is_header(parts):
    """Whether the split first non-blank line is a "count dim" header."""
    return len(parts) == 2 and _is_int(parts[0]) and _is_int(parts[1])


def _vector_rows(path):
    """(line number, word, components, dim) of each vector row of the .vec
    file at path, skipping blank lines and an optional "count dim" header
    line; dim is the component count every row must have: the header's
    dim, which must be at least 1, or the first row's count when there is
    no header."""
    dim, first = None, True
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if first:
                first = False
                if _is_header(parts):
                    dim = int(parts[1])
                    if dim < 1:
                        raise ValueError(f"{path}:{lineno}: header dim must "
                                         f"be at least 1, got {dim}")
                    continue
            if dim is None:
                dim = len(parts) - 1
            yield lineno, parts[0], parts[1:], dim


def vector_file_dim(path):
    """Component count of the first vector row of a .vec file (None when it
    has no rows), read without parsing the rest of the file."""
    for _, _, comps, _ in _vector_rows(path):
        return len(comps)
    return None


def load_vector_table(path):
    """Parse a text vector file: ``word c1 ... cd`` rows, optional count/dim header.

    A word listed twice keeps its last vector. Raises ValueError naming the
    line number for a header whose dim is below 1, for a row whose
    component count is not the header's dim (the first row's without a
    header) and for non-numeric or non-finite components. Every component is ``float32(float(token))``; files of
    plain decimal rows are converted in bulk (see _bulk_rows), and any
    other file is read row by row.
    """
    rows = _bulk_rows(path)
    if rows is None:
        rows = _text_rows(path)
    return _from_rows(*rows)


def _text_rows(path):
    """(words, float32 matrix) of a .vec file, parsed one row at a time."""
    words = []
    rows = []
    for lineno, word, comps, dim in _vector_rows(path):
        if not comps:
            raise ValueError(f"{path}:{lineno}: row has no vector components")
        if len(comps) != dim:
            raise ValueError(f"{path}:{lineno}: expected {dim} "
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
    return words, np.vstack(rows)


def _line_blocks(fh):
    """The bytes of a binary file in blocks of whole lines of about
    _VEC_BLOCK bytes, each ending in a newline (added to a last line that
    lacks one)."""
    rest = b""
    while chunk := fh.read(_VEC_BLOCK):
        block = rest + chunk
        cut = block.rfind(b"\n") + 1
        rest = block[cut:]
        if cut:
            yield block[:cut]
    if rest:
        yield rest + b"\n"


def _bulk_rows(path):
    """(words, float32 matrix) of a .vec file read block by block with
    _bulk_block, or None when some block is not in its form; the caller
    then parses the file row by row, which raises every error.

    A block with a blank line or a space ending a line (fastText writes
    one on every row) is tried again without them, as the row split
    ignores both; the first line left is the header when it is one, and
    then every row must have its dim components.
    """
    words, blocks, dim, first = [], [], None, True
    with open(path, "rb") as fh:
        for block in _line_blocks(fh):
            if b"\r" in block:
                return None  # universal newlines would end a line there
            if first:
                block = _drop_blanks(block)
                if not block:
                    continue
                first = False
                head, _, rest = block.partition(b"\n")
                try:
                    parts = head.decode("utf-8").split()
                except UnicodeDecodeError:
                    return None
                if _is_header(parts):
                    dim, block = int(parts[1]), rest
                    if not block:
                        continue
            parsed = _bulk_block(block, dim)
            if parsed is None:
                plain = _drop_blanks(block)
                if plain == block:
                    return None
                if not plain:
                    continue
                parsed = _bulk_block(plain, dim)
                if parsed is None:
                    return None
            words += parsed[0]
            blocks.append(parsed[1])
            dim = parsed[1].shape[1]
    if not blocks:
        return None
    return words, np.vstack(blocks)


def _drop_blanks(block):
    """A block of lines without its blank lines and with one space ending
    a line dropped. Each search here scans the whole block, so it is done
    only for the first block and for blocks that fail _bulk_block."""
    block = block.replace(b" \n", b"\n")
    while b"\n\n" in block:
        block = block.replace(b"\n\n", b"\n")
    return block.lstrip(b"\n")


def _bulk_block(block, dim):
    """(words, float32 (rows, dim) matrix) of a block of whole lines
    ``word SP c1 SP ... SP cd``, or None when a line is not of that form, a
    row does not have dim components (the first row's count when dim is
    None), or a component is not a finite float32 that float() reads.

    A plain component ``-?I(.F)?``, at most 18 digits a part, is converted
    in integers: one np.fromstring call reads every part, and y = I + F /
    10**len(F) is taken where the proven rounding interval around it holds
    a single float32 (see _VEC_SLACK). float() converts every other
    component (an exponent, a "+", ".5", a longer part) and the plain ones
    whose interval holds two.
    """
    # body: each row after a newline, its word zero-filled (so it reads as
    # the integer 0), the block's last newline dropped
    body = bytearray(b"\n")
    body += memoryview(block)[:-1]
    words = []
    at = 0
    while at < len(block):
        end = block.index(b"\n", at)
        cut = block.find(b" ", at, end)
        if cut < 0 or block[end - 1] == 32:
            return None  # a blank line, no components, or a space ending it
        words.append(block[at:cut])
        body[at + 1:cut + 1] = b"0" * (cut - at)
        at = end + 1
    try:
        names = b"\n".join(words).decode("utf-8")
    except UnicodeDecodeError:
        return None
    words = names.split("\n")
    if names.split() != words:
        return None  # an empty word, or Unicode whitespace in one
    width = 1 + (block.count(b" ", 0, block.index(b"\n")) if dim is None
                 else dim)

    # Every byte but a digit is a mark. A newline or space mark starts a
    # token (a newline a row's word), and digits[m] digits follow mark m.
    c = np.frombuffer(body, np.uint8)
    marks = np.flatnonzero(c - 48 > 9)
    kind = c[marks]
    digits = np.diff(marks, append=len(c)) - 1
    first = np.flatnonzero((kind == 10) | (kind == 32))
    if len(first) != len(words) * width or (kind[first[::width]] != 10).any():
        return None  # a row without width - 1 components
    count = np.diff(first, append=len(marks))  # marks in each token
    last = len(marks) - 1
    neg = (count > 1) & (kind[np.minimum(first + 1, last)] == 45)
    whole = first + neg  # the mark the integer part's digits follow
    point = np.minimum(whole + 1, last)
    frac = (count == 2 + neg) & (kind[point] == 46)
    plain = ((count == 1 + neg + frac) & ((digits[first] > 0) != neg)
             & (digits[whole] > 0) & (digits[whole] <= 18)
             & ~(frac & ((digits[point] == 0) | (digits[point] > 18))))
    plain[::width] = True  # the zero-filled words, whatever their length

    # the other components are blanked, so np.fromstring reads one integer
    # per part of each plain token
    bounds = np.append(marks[first], len(c))
    slow = np.flatnonzero(~plain)
    texts = _texts(body, bounds, slow)
    c[_ranges(bounds[slow] + 1, bounds[slow + 1])] = 32
    frac &= plain
    per = plain.astype(np.intp) + frac
    part = np.cumsum(per) - per  # each plain token's first part
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            parts = np.fromstring(bytes(body).replace(b".", b" "),
                                  dtype=np.int64, sep=" ")
    except (ValueError, DeprecationWarning):
        return None
    if len(parts) != per.sum():
        return None
    y = np.abs(parts[np.minimum(part, len(parts) - 1)]).astype(np.float64)
    y += np.where(frac, parts[np.minimum(part + 1, len(parts) - 1)]
                  / _POW10[np.minimum(digits[point], 18)], 0.0)
    low = (y * (1.0 - _VEC_SLACK)).astype(np.float32)
    values = np.where(neg, -low, low)

    near = np.flatnonzero(plain & (low != (y * (1.0 + _VEC_SLACK)).astype(
        np.float32)))
    texts += _texts(body, bounds, near)
    # float() takes whitespace only around a number, where the row split
    # cuts too, so a token it reads is the one the split gives
    try:
        exact = [float(text.decode("ascii")) for text in texts]
    except (UnicodeDecodeError, ValueError):
        return None
    redo = np.concatenate([slow, near])
    with np.errstate(over="ignore"):
        values[redo] = np.array(exact, dtype=np.float32)
    if not np.isfinite(values[redo]).all():
        return None
    return words, values.reshape(-1, width)[:, 1:]


def _texts(body, bounds, tokens):
    """The bytes of the given tokens, token t running from after the mark
    at bounds[t] to bounds[t + 1]."""
    return [body[a + 1:b] for a, b in zip(bounds[tokens].tolist(),
                                          bounds[tokens + 1].tolist())]


def _ranges(starts, ends):
    """Concatenated aranges [starts[i], ends[i]), as one index array."""
    sizes = ends - starts
    offsets = np.cumsum(sizes) - sizes
    return np.repeat(starts - offsets, sizes) + np.arange(sizes.sum())


def save_vector_table(table, path):
    """Write a table in the text format load_vector_table reads."""
    rows = (f"{word} {' '.join(map(repr, table.matrix[row].tolist()))}"
            for word, row in table.vocab.items())
    write_lines(path, chain([f"{len(table)} {table.dim}"], rows))


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


def _features(token_lists, vocab):
    """Each token list's in-vocabulary ids, concatenated in order, with
    each list's start offset and count."""
    ids = [[vocab[t] for t in tokens if t in vocab] for tokens in token_lists]
    lengths = np.fromiter(map(len, ids), dtype=np.intp, count=len(ids))
    flat = np.fromiter(chain.from_iterable(ids), dtype=np.intp,
                       count=int(lengths.sum()))
    return flat, np.cumsum(lengths) - lengths, lengths


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
        flat, starts, lengths = _features(token_lists[start:start + block],
                                          vocab)
        order = np.argsort(-lengths, kind="stable")
        positions = np.arange(lengths.max(initial=0))[:, None]
        live = positions < lengths[order]  # (positions, rows), prefixes
        vectors = matrix[flat[(starts[order] + positions)[live]]]
        sums = np.zeros((len(lengths), matrix.shape[1]))
        at = 0
        for count in live.sum(axis=1).tolist():
            sums[:count] += vectors[at:at + count]
            at += count
        unsorted = np.empty_like(sums)
        unsorted[order] = sums
        yield start, unsorted
