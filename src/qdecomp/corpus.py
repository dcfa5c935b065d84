"""Question corpora: tokenization, question harvesting, and the JSON, JSONL,
text and TSV formats. Every text and JSON input is opened here (open_text,
read_json), so each decode failure names its file and line; every record
file (JSONL, TSV, extract's lines) is read by one loop, read_lines, which
refuses a file with no records, naming it; every text artifact is written
here, by write_lines, so each write failure names its file and line; every
JSON artifact is encoded here under one policy, with the kinds of value its
loaders accept; the TSV syntax is here alone. The .vec reader and the
library functions keep their own empty checks."""

import json
import math
import re
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property

# A token is either a run of non-space non-punctuation characters or a single
# punctuation character from the fixed set below.
_TOKEN_RE = re.compile(r"""[^\s?.,;:!"'()]+|[?.,;:!"'()]""")

DEFAULT_WH_WORDS = frozenset(
    {"who", "what", "when", "where", "why", "which", "whom", "whose"}
)


def tokenize_cased(text):
    """Case-preserving tokens: whitespace split with punctuation broken out."""
    return _TOKEN_RE.findall(text)


def tokenize(text):
    """Lowercase tokens of ``text``. Deterministic; produces no empty tokens.

    The tokens are lowered in one call, joined by spaces: a space ends the
    context that lowercasing a Greek final sigma reads, no character lowers
    to a string holding a space, and no token holds one, so this equals
    lowering each token on its own.
    """
    tokens = _TOKEN_RE.findall(text)
    return " ".join(tokens).lower().split(" ") if tokens else []


def tokenize_with_spans(text):
    """Case-preserving tokens with their (start, end) character offsets."""
    return [(m.group(0), m.start(), m.end()) for m in _TOKEN_RE.finditer(text)]


@dataclass(frozen=True)
class Question:
    """One identified question: stable id, original text, lowercase tokens."""

    id: str
    raw_text: str
    tokens: tuple

    @classmethod
    def from_text(cls, qid, raw_text):
        return cls(id=qid, raw_text=raw_text, tokens=tuple(tokenize(raw_text)))


class QuestionCorpus:
    """Questions with unique ids, held as two columns: ``ids`` and ``texts``.

    ``tokens`` (each text's ``tokenize``, as a tuple) is computed once, on
    first use. Indexing and iteration build ``Question`` objects on demand.
    A corpus holds no label: labels go with corpora where they are used, as
    in train_classifier's (corpus, label) pairs.
    """

    def __init__(self, ids, texts):
        self.ids = tuple(ids)
        self.texts = tuple(texts)
        if len(self.texts) != len(self.ids):
            raise ValueError(f"{len(self.ids)} ids but {len(self.texts)} texts")
        self._rows = dict(zip(self.ids, range(len(self.ids))))
        if len(self._rows) < len(self.ids):
            _check_unique(self.ids, 0, "row {}".format)

    @cached_property
    def tokens(self):
        return tuple(tuple(tokenize(text)) for text in self.texts)

    def __len__(self):
        return len(self.ids)

    def __iter__(self):
        return map(Question, self.ids, self.texts, self.tokens)

    def __getitem__(self, row):
        return Question.from_text(self.ids[row], self.texts[row])

    def by_id(self, qid):
        return self[self._rows[qid]]

    def __contains__(self, qid):
        return qid in self._rows

    def take(self, rows):
        """The records at ``rows``, in that order, as a corpus."""
        ids, texts = self.ids, self.texts
        return QuestionCorpus([ids[r] for r in rows], [texts[r] for r in rows])


def extract_candidate_questions(lines, wh_words=DEFAULT_WH_WORDS, id_prefix="",
                                dedup=False):
    """Harvest question-like lines as a corpus.

    A line is kept iff its first token is a question word or its last
    non-whitespace character is "?". Kept lines get sequential zero-padded
    decimal ids (optionally prefixed). ``dedup`` drops exact duplicate lines
    after whitespace stripping. A line is not tokenized whole: its first
    token lowered alone is ``tokenize(text)[0]`` (see ``tokenize``).
    """
    texts = []
    seen = set()
    for line in lines:
        text = line.strip()
        if not text:
            continue
        if dedup:
            if text in seen:
                continue
            seen.add(text)
        first = _TOKEN_RE.search(text)
        if first is None:
            continue
        if first.group(0).lower() in wh_words or text.endswith("?"):
            texts.append(text)
    return QuestionCorpus((f"{id_prefix}{i:08d}" for i in range(len(texts))),
                          texts)


def _undecodable(path, exc):
    """ValueError naming the first byte of path that is not UTF-8 and its
    line, counted as text mode counts lines: CR, LF and CR LF each end one.

    exc, raised while one buffered chunk was decoded, holds no file offset,
    so the raw bytes are scanned again, on this error path only.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as rescan:
        head = data[:rescan.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        return ValueError(f"{path}:{line}: not UTF-8: byte "
                          f"0x{data[rescan.start]:02x}: {rescan.reason}")
    return ValueError(f"{path}: not UTF-8: {exc}")  # rewritten since read


@contextmanager
def open_text(path):
    """The one way an input text file is opened: UTF-8, universal newlines.
    A byte that is not UTF-8 raises ValueError naming path:line."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise _undecodable(path, exc) from None


def read_json(path):
    """The one JSON document in a file; malformed JSON raises ValueError
    naming path."""
    with open_text(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: malformed JSON: {exc}") from None


def read_lines(path, strip=str.strip):
    """(line number, line) of each line of a record file that strip leaves
    non-empty: the one loop over every record input. A file with no such
    line, 0 bytes or blank lines alone, raises ValueError naming path."""
    kept = False
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if strip(line):
                kept = True
                yield lineno, line
    if not kept:
        raise ValueError(f"{path}: no records")


def read_jsonl(path):
    """(line number, value) of each non-blank line of a JSONL file; a line
    that is not JSON raises ValueError naming path:line."""
    for lineno, line in read_lines(path):
        try:
            value = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: malformed JSON line: {exc}") from exc
        yield lineno, value


def _encoder(indent=None, separators=None):
    """The one JSON encoder policy: keys sorted, non-ASCII kept, and no NaN
    or Infinity, which JSON cannot hold."""
    return json.JSONEncoder(sort_keys=True, ensure_ascii=False,
                            allow_nan=False, indent=indent,
                            separators=separators)


def write_lines(path, lines):
    """The one way a text artifact is written: each line, then "\\n", as
    UTF-8 through fh.write. A ValueError or OSError raised while a line is
    built or written (a NaN, a lone surrogate, a full disk) raises
    ValueError naming path:line, or path alone if raised as the file closes
    and its last buffered lines reach the disk."""
    fh = open(path, "w", encoding="utf-8")
    lineno = 1  # the line being built or written; 0 once all are written
    try:
        with fh:
            for line in lines:
                fh.write(line)
                fh.write("\n")
                lineno += 1
            lineno = 0
    except (ValueError, OSError) as exc:
        where = f"{path}:{lineno}" if lineno else path
        raise ValueError(f"{where}: {exc}") from None


def write_json(value, path, indent=None):
    """Write one JSON document and a newline, line by line. A NaN or
    infinite value raises ValueError naming path, before the file is opened.

    encode() runs the C encoder when there is no indent; json.dump always
    streams through the pure-Python one.
    """
    try:
        text = _encoder(indent).encode(value)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    write_lines(path, text.split("\n"))


def write_jsonl(values, path, separators=None):
    """Write one JSON document per line through one encoder. A NaN or
    infinite value raises ValueError naming path:line."""
    write_lines(path, map(_encoder(separators=separators).encode, values))


def _tsv_field(text):
    return text.replace("\t", " ").replace("\n", " ").replace("\r", " ")


def write_tsv(rows, path):
    """Write rows of string fields as a headerless TSV, with the tabs and
    line breaks of every field turned into spaces."""
    write_lines(path, ("\t".join(map(_tsv_field, fields)) for fields in rows))


def read_tsv(path, columns):
    """(line number, fields) of each non-blank line of a headerless TSV; a
    line without exactly `columns` tab-separated fields raises ValueError
    naming path:line."""
    for lineno, line in read_lines(path, lambda line: line.rstrip("\n")):
        fields = line.rstrip("\n").split("\t")
        if len(fields) != columns:
            raise ValueError(f"{path}:{lineno}: expected {columns} "
                             f"columns, got {len(fields)}")
        yield lineno, fields


COUNT, STRING, NUMBER = ("a non-negative integer", "a string",
                         "a finite number")
STRINGS, NUMBERS = "a list of strings", "a list of finite numbers"


def _is_number(v):
    # every JSON integer is finite; a bool is not a number
    return type(v) is int or type(v) is float and math.isfinite(v)


# the kinds of JSON value the loaders accept, by the name their errors give
JSON_KINDS = {
    COUNT: lambda v: type(v) is int and v >= 0,
    STRING: lambda v: type(v) is str,
    NUMBER: _is_number,
    STRINGS: lambda v: type(v) is list and all(type(s) is str for s in v),
    NUMBERS: lambda v: type(v) is list and all(map(_is_number, v)),
}


def _read_columns(path, ids, texts, lines):
    """Append the id, text and line number of each record of a JSONL corpus."""
    for lineno, obj in read_jsonl(path):
        if not isinstance(obj, dict):
            raise ValueError(f"{path}:{lineno}: expected a JSON object")
        if "id" not in obj or "text" not in obj:
            raise ValueError(f"{path}:{lineno}: record needs 'id' and 'text' fields")
        qid, text = obj["id"], obj["text"]
        if not isinstance(qid, str) or not isinstance(text, str):
            raise ValueError(f"{path}:{lineno}: 'id' and 'text' must be strings")
        ids.append(qid)
        texts.append(text)
        lines.append(lineno)


def _check_unique(ids, start, place):
    """Raise at the first id of ids[start:] that occurs twice there, naming
    the places (``place(row)``) of both occurrences."""
    if len(set(ids[start:])) == len(ids) - start:
        return
    seen = {}
    for row in range(start, len(ids)):
        first = seen.setdefault(ids[row], row)
        if first != row:
            raise ValueError(f"{place(row)}: duplicate question id "
                             f"{ids[row]!r} (first at {place(first)})")


def load_corpus(*paths):
    """Read JSONL corpora of {"id", "text"} records, in order, as one corpus.

    Malformed lines and missing fields raise ValueError naming the line
    number. An id read twice raises naming both of its places: first
    within each file, as it is read, then across the files.
    """
    ids, texts, lines, starts = [], [], [], []

    def place(row):
        i = bisect_right(starts, row) - 1
        return f"{paths[i]}:{lines[row]}"

    for path in paths:
        starts.append(len(ids))
        _read_columns(path, ids, texts, lines)
        _check_unique(ids, starts[-1], place)
    if len(paths) > 1:
        _check_unique(ids, 0, place)
    return QuestionCorpus(ids, texts)


def save_corpus(corpus, path):
    """Write a corpus as JSONL; inverse of load_corpus for id/text content.

    Each line is built from its two strings by encode_basestring, the
    string encoder that _encoder()'s ensure_ascii=False policy uses, with
    the keys in sorted order and no spaces, so the lines are those of
    write_jsonl(..., separators=(",", ":")).
    """
    quote = json.encoder.encode_basestring
    write_lines(path, ('{"id":' + quote(qid) + ',"text":' + quote(text) + "}"
                       for qid, text in zip(corpus.ids, corpus.texts)))
