import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdecomp.corpus import Question
from qdecomp.metrics import (
    RoundTripRecord,
    StoppingState,
    bleu,
    edit_distance,
    is_good_decomposition,
    length_ratio,
    roundtrip_report,
    scaled_roundtrip_bleu,
    split_sub_question_tokens,
    stopping_decision,
)

from oracles import bleu_oracle, levenshtein_oracle

token_lists = st.lists(st.sampled_from("a b c d e".split()), min_size=1, max_size=10)


# ---- BLEU ----

@given(token_lists)
def test_bleu_identity_is_exactly_one(toks):
    assert bleu([toks], [toks]) == 1.0


def test_bleu_hand_fixture():
    # hyp a b c d e vs ref a b c d: precisions 4/5, 3/4, 2/3, 1/2; no BP
    got = bleu([["a", "b", "c", "d", "e"]], [["a", "b", "c", "d"]])
    want = (4 / 5 * 3 / 4 * 2 / 3 * 1 / 2) ** 0.25
    assert got == pytest.approx(want, abs=1e-12)
    assert got == pytest.approx(
        bleu_oracle([["a", "b", "c", "d", "e"]], [["a", "b", "c", "d"]]), abs=1e-9)


def test_bleu_brevity_penalty():
    # perfect precisions on orders with support, hyp shorter than ref
    got = bleu([["a", "b", "c"]], [["a", "b", "c", "d"]])
    assert got == pytest.approx(math.exp(1 - 4 / 3), abs=1e-12)


def test_bleu_pools_counts_across_corpus():
    hyps = [["a", "b"], ["x", "y"]]
    refs = [["a", "b"], ["x", "z"]]
    got = bleu(hyps, refs)
    # pooled: unigrams 3/4, bigrams 1/2, orders 3-4 unsupported
    assert got == pytest.approx(math.sqrt(3 / 4 * 1 / 2), abs=1e-12)
    per_sentence_mean = (bleu([hyps[0]], [refs[0]]) + bleu([hyps[1]], [refs[1]])) / 2
    assert got != pytest.approx(per_sentence_mean)


def test_bleu_zero_overlap_is_zero():
    assert bleu([["a", "b", "c", "d", "e"]], [["v", "w", "x", "y", "z"]]) == 0.0


def test_bleu_clipping_limits_repeats():
    # hyp repeats "a" five times, ref has it twice: clipped 2/5
    got = bleu([["a", "a", "a", "a", "a"]], [["a", "a"]], max_n=1)
    assert got == pytest.approx(2 / 5, abs=1e-12)


def test_bleu_input_validation():
    with pytest.raises(ValueError):
        bleu([], [])
    with pytest.raises(ValueError):
        bleu([["a"]], [])


@given(st.lists(st.tuples(token_lists, token_lists), min_size=1, max_size=4))
@settings(max_examples=150)
def test_bleu_matches_oracle(pairs):
    hyps = [h for h, _ in pairs]
    refs = [r for _, r in pairs]
    assert bleu(hyps, refs) == pytest.approx(bleu_oracle(hyps, refs), abs=1e-12)


# ---- decomposition well-formedness ----

def test_split_runs_include_question_mark():
    assert split_sub_question_tokens(["who", "?", "what", "?"]) == [
        ["who", "?"], ["what", "?"]]
    assert split_sub_question_tokens(["who", "?", "dangling"]) == [["who", "?"]]
    assert split_sub_question_tokens([]) == []


GOOD_Q = Question.from_text("q", "who played the role and who directed the film ?")

GOOD_CASES = [
    "who played the role ? who directed it ?",
    "who played it ? who directed it ?",
]

BAD_CASES = [
    "who played the role ?",                                        # one mark
    "who ? what ? where ?",                                         # three marks
    "who played the role and who directed the film ? what else ?",  # verbatim copy
    "who who who who who who who who who who who ? what ?",         # over-long sub
]


def test_good_decomposition_truth_table():
    for d in GOOD_CASES:
        assert is_good_decomposition(GOOD_Q, d), d
    for d in BAD_CASES:
        assert not is_good_decomposition(GOOD_Q, d), d


def test_verbatim_copy_detected_as_token_set():
    # reordering the question's tokens is still a copy
    q = Question.from_text("q", "who wrote x ?")
    assert not is_good_decomposition(q, "x who wrote ? y ?")


# ---- round-trip scores ----

def rt(question_text, decomposition, roundtrip):
    return RoundTripRecord(question=Question.from_text("q", question_text),
                           decomposition_text=decomposition,
                           roundtrip_text=roundtrip)


def test_scaled_roundtrip_equals_bleu_times_good_fraction():
    records = [
        rt("who played the role and who directed it ?",
           "who played the role ? who directed it ?",
           "who played the role and who directed it ?"),
        rt("what is the capital of the biggest state ?",
           "what is the biggest state ?",        # one mark: not good
           "what is the capital ?"),
    ]
    rep = roundtrip_report(records)
    hyps = [r.roundtrip_text for r in records]
    refs = [r.question.raw_text for r in records]
    want_bleu = bleu([Question.from_text("h", h).tokens for h in hyps],
                     [list(Question.from_text("r", rf).tokens) for rf in refs])
    assert rep.bleu == pytest.approx(want_bleu, abs=1e-12)
    assert rep.good_fraction == 0.5
    assert rep.scaled == pytest.approx(rep.bleu * rep.good_fraction, abs=1e-12)
    assert scaled_roundtrip_bleu(records) == pytest.approx(rep.scaled, abs=1e-12)


def test_perfect_roundtrip_scaled_is_good_fraction():
    records = [rt("who played x and who sang y ?",
                  "who played x ? who sang y ?",
                  "who played x and who sang y ?")]
    assert scaled_roundtrip_bleu(records) == pytest.approx(1.0, abs=1e-12)


# ---- stopping rule ----

def hist(*values):
    s = StoppingState()
    for i, v in enumerate(values):
        s.append(i, v)
    return s


def test_stopping_truth_table():
    cases = [
        ((), False),
        ((5,), False),
        ((5, 4), False),
        ((5, 4, 3), False),          # not enough history yet
        ((5, 4, 4, 3), True),        # three non-improving values
        ((1, 2, 3, 4), False),       # monotone improvement
        ((1, 2, 3, 4, 5), False),
        ((5, 6, 5, 5, 5), True),
        ((3, 5, 4, 6), False),       # final value is a new best
        ((5, 4, 4, 5), True),        # ties with the best are not improvements
        ((1, 1, 1, 1), True),
        ((1, 2, 1, 1), False),       # improvement inside the window
        ((10, 1, 1, 1), True),
        ((2, 3, 1, 3, 2), True),     # 3 == running max 3,- no improvement
    ]
    for values, want in cases:
        assert stopping_decision(hist(*values)) is want, values


def test_stopping_state_requires_increasing_epochs():
    s = StoppingState()
    s.append(0, 5.0)
    with pytest.raises(ValueError):
        s.append(0, 6.0)


# ---- edit distance and length ratio ----

def test_edit_distance_basics():
    q = Question.from_text("q", "who is x ?")
    assert edit_distance(q, "who is x ?") == 0
    assert edit_distance(q, "") == 4
    assert edit_distance(q, "who is y ?") == 1


def test_edit_distance_matches_full_matrix_oracle():
    rng = np.random.default_rng(17)
    words = ["a", "b", "c", "d", "ee", "ff"]
    for _ in range(200):
        a = " ".join(rng.choice(words, size=rng.integers(0, 12)))
        b = " ".join(rng.choice(words, size=rng.integers(0, 12)))
        if not a.strip():
            a = "a"
        q = Question.from_text("q", a)
        want = levenshtein_oracle(list(q.tokens),
                                  list(Question.from_text("d", b).tokens))
        assert edit_distance(q, b) == want, (a, b)


@given(token_lists, token_lists)
@settings(max_examples=100)
def test_edit_distance_symmetry_and_triangle_floor(a_toks, b_toks):
    qa = Question.from_text("qa", " ".join(a_toks))
    qb = Question.from_text("qb", " ".join(b_toks))
    d_ab = edit_distance(qa, " ".join(b_toks))
    d_ba = edit_distance(qb, " ".join(a_toks))
    assert d_ab == d_ba
    assert d_ab >= abs(len(qa.tokens) - len(qb.tokens))


def test_length_ratio():
    q = Question.from_text("q", "who is x ?")
    assert length_ratio(q, "who is x ? who is y ?") == pytest.approx(2.0)
    with pytest.raises(ValueError):
        length_ratio(Question.from_text("q", ""), "who ?")
