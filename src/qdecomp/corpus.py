"""Question corpora: tokenization, question harvesting from raw lines, JSONL I/O."""

import json
import re
from dataclasses import dataclass, field

# A token is either a run of non-space non-punctuation characters or a single
# punctuation character from the fixed set below.
_TOKEN_RE = re.compile(r"""[^\s?.,;:!"'()]+|[?.,;:!"'()]""")

# One encoder for every compact JSONL record: non-ASCII kept, keys sorted.
COMPACT_JSON = json.JSONEncoder(ensure_ascii=False, sort_keys=True,
                                separators=(",", ":"))

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


@dataclass(frozen=True)
class QuestionCorpus:
    """Ordered collection of questions with unique ids."""

    questions: tuple
    label: str | None = None
    _by_id: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        by_id = {}
        for q in self.questions:
            if q.id in by_id:
                raise ValueError(f"duplicate question id: {q.id!r}")
            by_id[q.id] = q
        object.__setattr__(self, "_by_id", by_id)

    def __len__(self):
        return len(self.questions)

    def __iter__(self):
        return iter(self.questions)

    def __getitem__(self, i):
        return self.questions[i]

    def by_id(self, qid):
        return self._by_id[qid]

    def __contains__(self, qid):
        return qid in self._by_id

    @property
    def ids(self):
        return tuple(q.id for q in self.questions)


def extract_candidate_questions(lines, wh_words=DEFAULT_WH_WORDS, id_prefix="",
                                dedup=False):
    """Harvest question-like lines.

    A line is kept iff its first token is a question word or its last
    non-whitespace character is "?". Kept lines get sequential zero-padded
    decimal ids (optionally prefixed). ``dedup`` drops exact duplicate lines
    after whitespace stripping.
    """
    kept = []
    seen = set()
    counter = 0
    for line in lines:
        text = line.strip()
        if not text:
            continue
        if dedup:
            if text in seen:
                continue
            seen.add(text)
        toks = tokenize(text)
        if not toks:
            continue
        if toks[0] in wh_words or text.endswith("?"):
            kept.append(Question(id=f"{id_prefix}{counter:08d}",
                                 raw_text=text, tokens=tuple(toks)))
            counter += 1
    return kept


def load_corpus(path, label=None):
    """Read a JSONL corpus of {"id", "text"} records.

    Malformed lines and missing fields raise ValueError naming the line
    number; duplicate ids raise on corpus construction.
    """
    questions = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: malformed JSON line: {exc}") from exc
            if not isinstance(obj, dict):
                raise ValueError(f"{path}:{lineno}: expected a JSON object")
            if "id" not in obj or "text" not in obj:
                raise ValueError(f"{path}:{lineno}: record needs 'id' and 'text' fields")
            qid, text = obj["id"], obj["text"]
            if not isinstance(qid, str) or not isinstance(text, str):
                raise ValueError(f"{path}:{lineno}: 'id' and 'text' must be strings")
            questions.append(Question.from_text(qid, text))
    return QuestionCorpus(tuple(questions), label=label)


def save_corpus(corpus, path):
    """Write a corpus as JSONL; inverse of load_corpus for id/text content."""
    with open(path, "w", encoding="utf-8") as fh:
        for q in corpus:
            fh.write(COMPACT_JSON.encode({"id": q.id, "text": q.raw_text}))
            fh.write("\n")
