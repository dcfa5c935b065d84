"""Answer recomposition: span probabilities from per-paragraph logits.

Each span s in paragraph p has logit l(s); each paragraph has a no-answer
logit n(p). Span probabilities are one softmax over the pooled adjusted
logits l(s) - n(p), so raising a paragraph's no-answer logit lowers all of
its span probabilities. Ensembling averages logits element-wise across
structurally identical logit sets.
"""

import math
from dataclasses import dataclass

import numpy as np

from .corpus import JSON_KINDS, NUMBER, read_jsonl


@dataclass(frozen=True)
class ParagraphLogits:
    """Span logits and the no-answer logit for one paragraph. Each logit is
    a finite JSON number (JSON_KINDS) whose adjusted logit l - n is finite
    in float64; an int too large for a float raises OverflowError."""

    paragraph_id: str
    span_entries: tuple  # ((span_id, logit), ...)
    no_answer_logit: float

    def __post_init__(self):
        pid = self.paragraph_id
        if not isinstance(pid, str):
            raise ValueError(f"paragraph id {pid!r} is not a string")
        no_answer = self.no_answer_logit
        if not JSON_KINDS[NUMBER](no_answer):
            raise ValueError(f"paragraph {pid!r}: no-answer logit "
                             f"{no_answer!r} is not {NUMBER}")
        seen = set()
        for sid, logit in self.span_entries:
            if not isinstance(sid, str):
                raise ValueError(f"paragraph {pid!r}: span id {sid!r} is not "
                                 f"a string")
            if sid in seen:
                raise ValueError(f"paragraph {pid!r}: duplicate span id {sid!r}")
            seen.add(sid)
            if not JSON_KINDS[NUMBER](logit):
                raise ValueError(f"paragraph {pid!r}: logit {logit!r} for "
                                 f"{sid!r} is not {NUMBER}")
            if not math.isfinite(float(logit) - float(no_answer)):
                raise ValueError(f"paragraph {pid!r}: logit {logit!r} for "
                                 f"{sid!r} minus the no-answer logit "
                                 f"{no_answer!r} overflows")


def _adjusted(paragraphs):
    keys = []
    adjusted = []
    for p in paragraphs:
        for sid, logit in p.span_entries:
            keys.append((p.paragraph_id, sid))
            adjusted.append(float(logit) - float(p.no_answer_logit))
    return keys, np.array(adjusted, dtype=np.float64)


def span_probabilities(paragraphs):
    """(paragraph_id, span_id, probability) for every span, summing to one.

    The softmax subtracts the maximum adjusted logit first, so shared logit
    shifts cancel exactly.
    """
    keys, adjusted = _adjusted(paragraphs)
    if adjusted.size == 0:
        raise ValueError("no spans to score")
    z = adjusted - adjusted.max()
    e = np.exp(z)
    probs = e / e.sum()
    return [(pid, sid, float(pr)) for (pid, sid), pr in zip(keys, probs)]


def ensemble_average(logit_sets):
    """Element-wise mean of several structurally identical logit sets."""
    if not logit_sets:
        raise ValueError("no logit sets to ensemble")
    first = logit_sets[0]
    for other in logit_sets[1:]:
        if len(other) != len(first):
            raise ValueError("logit sets have different paragraph counts")
        for p0, p1 in zip(first, other):
            if p1.paragraph_id != p0.paragraph_id:
                raise ValueError(
                    f"paragraph mismatch: {p1.paragraph_id!r} vs {p0.paragraph_id!r}")
            if len(p1.span_entries) != len(p0.span_entries):
                raise ValueError(
                    f"paragraph {p0.paragraph_id!r}: differing span counts")
            for (s0, _), (s1, _) in zip(p0.span_entries, p1.span_entries):
                if s0 != s1:
                    raise ValueError(
                        f"paragraph {p0.paragraph_id!r}: span mismatch "
                        f"{s1!r} vs {s0!r}")
    out = []
    for pi, p0 in enumerate(first):
        span_logits = np.array(
            [[ls[pi].span_entries[si][1] for ls in logit_sets]
             for si in range(len(p0.span_entries))], dtype=np.float64)
        no_answer = np.array([ls[pi].no_answer_logit for ls in logit_sets],
                             dtype=np.float64)
        entries = tuple((sid, float(row.mean()))
                        for (sid, _), row in zip(p0.span_entries, span_logits))
        out.append(ParagraphLogits(paragraph_id=p0.paragraph_id,
                                   span_entries=entries,
                                   no_answer_logit=float(no_answer.mean())))
    return out


def ranked_spans(paragraphs):
    """span_probabilities, most probable first; equal probabilities go in
    (paragraph_id, span_id) order."""
    return sorted(span_probabilities(paragraphs),
                  key=lambda e: (-e[2], e[0], e[1]))


def predict_answer(paragraphs):
    """(paragraph_id, span_id) of the first span of ranked_spans: the most
    probable one, ties broken toward the smallest (paragraph_id, span_id)
    pair. Span ids are only unique within a paragraph, so the full pair is
    returned.
    """
    return ranked_spans(paragraphs)[0][:2]


def read_logits_jsonl(path):
    """Read paragraph logits from JSONL records of
    {"paragraph_id", "no_answer_logit", "spans": [{"span_id", "logit"}]}.

    The values are passed to ParagraphLogits as read, so a record that
    lacks a field, that it refuses (a logit that is a bool, a string or
    too large, say) or that repeats a paragraph id raises ValueError naming
    path:line, and a file with no record, or no span in any, one naming path.
    """
    out = []
    first_line = {}  # each paragraph id's line
    for lineno, obj in read_jsonl(path):
        try:
            entries = tuple((s["span_id"], s["logit"]) for s in obj["spans"])
            paragraph = ParagraphLogits(
                paragraph_id=obj["paragraph_id"], span_entries=entries,
                no_answer_logit=obj["no_answer_logit"])
            first = first_line.setdefault(paragraph.paragraph_id, lineno)
            if first != lineno:
                raise ValueError(f"paragraph {paragraph.paragraph_id!r} "
                                 f"repeats (first at line {first})")
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{path}:{lineno}: bad logits record: {exc}") from exc
        out.append(paragraph)
    if not any(p.span_entries for p in out):
        raise ValueError(f"{path}: no span in any paragraph record")
    return out
