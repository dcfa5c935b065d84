"""Rule-based entity detection and sub-question editing.

Sub-question entities that do not occur in the target question are replaced
by same-type entities taken from the question, cycling through the
question's entities in order. Detection runs on the original cased text.
"""

from dataclasses import dataclass

from .corpus import tokenize, tokenize_cased, tokenize_with_spans

DATE_YEAR = "DATE_YEAR"
NUMBER = "NUMBER"
CAPITALIZED_SPAN = "CAPITALIZED_SPAN"
ENTITY_TYPES = (DATE_YEAR, NUMBER, CAPITALIZED_SPAN)


@dataclass(frozen=True)
class EntitySpan:
    """Half-open token span [token_start, token_end) with its surface text."""

    token_start: int
    token_end: int
    surface: str
    entity_type: str


def _is_year(tok):
    return len(tok) == 4 and tok.isdigit() and 1000 <= int(tok) <= 2999


def _is_number(tok):
    return any(c.isdigit() for c in tok) and all(c.isdigit() or c in ".," for c in tok)


def detect_entities(text):
    """Non-overlapping entity spans over the cased tokens of ``text``.

    4-digit tokens in [1000, 2999] are years; other digit/comma/period tokens
    are numbers; maximal runs of capitalized tokens are capitalized spans,
    except a lone capitalized sentence-initial token (a run starting at
    position 0 counts only when it extends past position 0).
    """
    toks = tokenize_cased(text)
    typed = [None] * len(toks)
    spans = []
    for i, tok in enumerate(toks):
        if _is_year(tok):
            typed[i] = DATE_YEAR
        elif _is_number(tok):
            typed[i] = NUMBER
    cap = [typed[i] is None and bool(t) and t[0].isupper()
           for i, t in enumerate(toks)]
    i = 0
    while i < len(toks):
        if typed[i] is not None:
            spans.append(EntitySpan(i, i + 1, toks[i], typed[i]))
            i += 1
            continue
        if cap[i]:
            j = i + 1
            while j < len(toks) and cap[j]:
                j += 1
            if not (i == 0 and j == 1):
                spans.append(EntitySpan(i, j, " ".join(toks[i:j]), CAPITALIZED_SPAN))
            i = j
            continue
        i += 1
    return spans


def _occurs_in_question(surface, question):
    """True when the surface tokens appear contiguously in the question."""
    needle = tuple(tokenize(surface))
    hay = question.tokens
    if not needle:
        return True
    for i in range(len(hay) - len(needle) + 1):
        if hay[i:i + len(needle)] == needle:
            return True
    return False


def edit_sub_question_texts(question, sub_texts):
    """Replace foreign entities in each sub-question with question entities.

    Entities already present in the question are untouched; a type with no
    counterpart in the question leaves the entity unchanged. When the
    question has several same-type entities they are used in question order,
    cycling across successive replacements. Idempotent.
    """
    by_type = {t: [] for t in ENTITY_TYPES}
    for ent in detect_entities(question.raw_text):
        by_type[ent.entity_type].append(ent)
    cursor = {t: 0 for t in ENTITY_TYPES}

    out = []
    for text in sub_texts:
        spans = tokenize_with_spans(text)
        replacements = []
        for ent in detect_entities(text):
            if _occurs_in_question(ent.surface, question):
                continue
            pool = by_type[ent.entity_type]
            if not pool:
                continue
            source = pool[cursor[ent.entity_type] % len(pool)]
            cursor[ent.entity_type] += 1
            start = spans[ent.token_start][1]
            end = spans[ent.token_end - 1][2]
            replacements.append((start, end, source.surface))
        for start, end, surface in reversed(replacements):
            text = text[:start] + surface + text[end:]
        out.append(text)
    return out


def split_sub_question_texts(text):
    """Split a space-joined decomposition back into per-sub-question strings.

    Each sub-question ends at a "?" character; a trailing fragment without
    one becomes its own entry.
    """
    parts = []
    cur = []
    for ch in text:
        cur.append(ch)
        if ch == "?":
            part = "".join(cur).strip()
            if part:
                parts.append(part)
            cur = []
    tail = "".join(cur).strip()
    if tail:
        parts.append(tail)
    return parts
