"""Round-trip and decomposition quality metrics, and the stopping rule.

BLEU is corpus-level with modified n-gram precisions up to max_n, a
geometric mean with equal weights, brevity penalty exp(min(0, 1 - r/c)),
and no smoothing (any zero precision gives zero).
"""

import math
from collections import Counter
from dataclasses import dataclass, field

from .corpus import tokenize


def _ngrams(seq, n):
    return [tuple(seq[i:i + n]) for i in range(len(seq) - n + 1)]


def bleu(hypotheses, references, max_n=4):
    """Corpus BLEU over paired token lists (single reference each)."""
    if len(hypotheses) != len(references):
        raise ValueError("hypotheses and references must pair up")
    if not hypotheses:
        raise ValueError("empty corpus")
    hyp_len = 0
    ref_len = 0
    clipped = [0] * max_n
    totals = [0] * max_n
    for hyp, ref in zip(hypotheses, references):
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, max_n + 1):
            hyp_counts = Counter(_ngrams(hyp, n))
            ref_counts = Counter(_ngrams(ref, n))
            totals[n - 1] += sum(hyp_counts.values())
            clipped[n - 1] += sum(min(c, ref_counts[g])
                                  for g, c in hyp_counts.items())
    if hyp_len == 0:
        return 0.0
    log_sum = 0.0
    used = 0
    for c, t in zip(clipped, totals):
        if t == 0:
            continue  # order has no n-grams anywhere; drop it from the mean
        if c == 0:
            return 0.0
        log_sum += math.log(c / t)
        used += 1
    if used == 0:
        return 0.0
    brevity = math.exp(min(0.0, 1.0 - ref_len / hyp_len))
    return brevity * math.exp(log_sum / used)


def split_sub_question_tokens(tokens):
    """Token runs each ending at a "?" token; a trailing run without one is
    not a sub-question."""
    subs = []
    cur = []
    for tok in tokens:
        cur.append(tok)
        if tok == "?":
            subs.append(cur)
            cur = []
    return subs


def is_good_decomposition(question, decomposition_text):
    """Well-formedness filter for a decomposition.

    Requires exactly two question marks, no sub-question whose token set
    contains every question token, and no sub-question longer than the
    question. Sub-question token runs include their terminating "?".
    """
    d_tokens = tokenize(decomposition_text)
    if d_tokens.count("?") != 2:
        return False
    q_set = set(question.tokens)
    q_len = len(question.tokens)
    for sub in split_sub_question_tokens(d_tokens):
        if set(sub) >= q_set:
            return False
        if len(sub) > q_len:
            return False
    return True


@dataclass(frozen=True)
class RoundTripRecord:
    """One question with its decomposition and the reconstructed question."""

    question: object
    decomposition_text: str
    roundtrip_text: str


def _bleu_and_good_fraction(records):
    """BLEU of reconstructions against questions, and the fraction of
    well-formed decompositions."""
    if not records:
        raise ValueError("no records")
    hyps = [tokenize(r.roundtrip_text) for r in records]
    refs = [list(r.question.tokens) for r in records]
    good = sum(is_good_decomposition(r.question, r.decomposition_text)
               for r in records)
    return bleu(hyps, refs), good / len(records)


def scaled_roundtrip_bleu(records):
    """BLEU of reconstructions against questions, scaled by the fraction of
    well-formed decompositions."""
    b, good = _bleu_and_good_fraction(records)
    return b * good


@dataclass
class StoppingState:
    """Scaled-metric history as (epoch, value) pairs, epochs strictly increasing."""

    history: list = field(default_factory=list)

    def append(self, epoch, value):
        if self.history and epoch <= self.history[-1][0]:
            raise ValueError("epochs must be strictly increasing")
        self.history.append((epoch, float(value)))


def stopping_decision(state):
    """True once the last three values each fail to beat the running maximum
    of everything before them (needs at least four entries)."""
    values = [v for _, v in state.history]
    if len(values) < 4:
        return False
    for i in range(len(values) - 3, len(values)):
        if values[i] > max(values[:i]):
            return False
    return True


def edit_distance(question, decomposition_text):
    """Token-level Levenshtein distance between question and decomposition."""
    a = list(question.tokens)
    b = tokenize(decomposition_text)
    if not a:
        return len(b)
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, ta in enumerate(a, start=1):
        cur = [i] + [0] * len(b)
        for j, tb in enumerate(b, start=1):
            cost = 0 if ta == tb else 1
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost)
        prev = cur
    return prev[-1]


def length_ratio(question, decomposition_text):
    """Decomposition length over question length, in tokens."""
    if not question.tokens:
        raise ValueError("question has no tokens")
    return len(tokenize(decomposition_text)) / len(question.tokens)


@dataclass(frozen=True)
class RoundTripReport:
    bleu: float
    good_fraction: float
    scaled: float
    edit_distance_mean: float
    length_ratio_mean: float


def roundtrip_report(records):
    """Full metric report over round-trip records.

    scaled is exactly bleu times good_fraction.
    """
    b, good = _bleu_and_good_fraction(records)
    dists = [edit_distance(r.question, r.decomposition_text) for r in records]
    ratios = [length_ratio(r.question, r.decomposition_text) for r in records]
    return RoundTripReport(
        bleu=b,
        good_fraction=good,
        scaled=b * good,
        edit_distance_mean=sum(dists) / len(dists),
        length_ratio_mean=sum(ratios) / len(ratios),
    )
