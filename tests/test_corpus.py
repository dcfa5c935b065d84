import json

import pytest
from hypothesis import given, strategies as st

from qdecomp.corpus import (
    DEFAULT_WH_WORDS,
    Question,
    QuestionCorpus,
    extract_candidate_questions,
    load_corpus,
    save_corpus,
    tokenize,
    tokenize_cased,
    tokenize_with_spans,
)

from conftest import make_corpus
from oracles import tokenize_oracle


def test_tokenize_lowercases_and_splits_punctuation():
    assert tokenize("Who wrote Hamlet?") == ["who", "wrote", "hamlet", "?"]
    assert tokenize("A, b; c!") == ["a", ",", "b", ";", "c", "!"]
    assert tokenize("") == []
    assert tokenize("   ") == []


def test_tokenize_keeps_intra_word_characters():
    # hyphens and digits stay inside tokens
    assert tokenize("spider-man 2") == ["spider-man", "2"]
    assert tokenize("it's") == ["it", "'", "s"]


def test_only_the_space_lowers_to_a_string_with_a_space():
    # tokenize lowers its tokens joined by spaces, then splits at spaces;
    # no token holds a space
    assert [i for i in range(0x110000) if " " in chr(i).lower()] == [0x20]


@pytest.mark.parametrize("text, tokens", [
    ("\u0391\u03a3'\u0391", ["\u03b1\u03c2", "'", "\u03b1"]),
    ("\u03a3\u0391\u03a3.\u03a3", ["\u03c3\u03b1\u03c2", ".", "\u03c3"]),
    ("\u039f\u0394\u03a5\u03a3\u03a3\u0395\u03a5\u03a3?",
     ["\u03bf\u03b4\u03c5\u03c3\u03c3\u03b5\u03c5\u03c2", "?"]),
    ("\u0130stanbul", ["i\u0307stanbul"]),
    ("", []),
    (" \t\n\u3000", []),
])
def test_tokenize_lowers_each_token_on_its_own(text, tokens):
    """Greek final sigma depends on the letters around it, so lowering
    the whole text would differ; İ lowers to two characters."""
    assert tokenize(text) == tokens == tokenize_oracle(text)


@given(st.text(alphabet=st.sampled_from(
    "\u03a3\u0391\u03c3\u0130I i'.?!,;: \t\u00a0\u0345\u00ad\u1e9e\u0149aZ"),
    max_size=40) | st.text(max_size=40))
def test_tokenize_equals_per_token_lowering(text):
    assert tokenize(text) == tokenize_oracle(text)


def test_tokenize_cased_preserves_case():
    assert tokenize_cased("Who wrote Hamlet?") == ["Who", "wrote", "Hamlet", "?"]


def test_tokenize_with_spans_reconstructs_surface():
    text = "Who directed Vertigo, back in 1958?"
    for tok, start, end in tokenize_with_spans(text):
        assert text[start:end] == tok


@given(st.text(max_size=80))
def test_tokenize_with_spans_matches_cased_tokens(text):
    spans = tokenize_with_spans(text)
    assert [t for t, _, _ in spans] == tokenize_cased(text)


def test_question_from_text():
    q = Question.from_text("q1", "What is this?")
    assert q.id == "q1"
    assert q.raw_text == "What is this?"
    assert q.tokens == ("what", "is", "this", "?")


def test_corpus_rejects_duplicate_ids():
    a = Question.from_text("x", "who?")
    b = Question.from_text("x", "what?")
    with pytest.raises(ValueError, match="duplicate"):
        QuestionCorpus(questions=(a, b))


def test_corpus_lookup():
    c = make_corpus(["who is a?", "what is b?"])
    assert len(c) == 2
    assert "q00000000" in c
    assert "nope" not in c
    assert c.by_id("q00000001").raw_text == "what is b?"
    assert list(c.ids) == ["q00000000", "q00000001"]


def test_extract_keeps_wh_starts_and_question_marks():
    lines = [
        "Who wrote Hamlet?",          # wh word
        "The cat sat on the mat.",    # neither -> dropped
        "Name the largest planet?",   # ends with ?
        "when was it built",          # wh word, no ?
        "It is done",                 # dropped
    ]
    got = extract_candidate_questions(lines, id_prefix="m")
    assert [q.raw_text for q in got] == [
        "Who wrote Hamlet?",
        "Name the largest planet?",
        "when was it built",
    ]
    assert [q.id for q in got] == ["m00000000", "m00000001", "m00000002"]


def test_extract_dedup_flag():
    lines = ["Who is it?", "Who is it?", "What now?"]
    keep = extract_candidate_questions(lines)
    assert len(keep) == 3
    uniq = extract_candidate_questions(lines, dedup=True)
    assert [q.raw_text for q in uniq] == ["Who is it?", "What now?"]


def test_extract_custom_wh_words():
    lines = ["how does it work", "who did it"]
    c = extract_candidate_questions(lines, wh_words=frozenset({"how"}))
    assert [q.raw_text for q in c] == ["how does it work"]


def test_default_wh_words_are_lowercase():
    assert all(w == w.lower() for w in DEFAULT_WH_WORDS)


def test_corpus_jsonl_round_trip(tmp_path):
    c = make_corpus(["Who wrote Hamlet?", "What is love?"], label="mined")
    p = tmp_path / "c.jsonl"
    save_corpus(c, p)
    back = load_corpus(p, label="mined")
    assert [q.id for q in back] == [q.id for q in c]
    assert [q.raw_text for q in back] == [q.raw_text for q in c]
    assert back.label == "mined"
    # stable serialization: keys sorted, no whitespace padding
    first = p.read_text().splitlines()[0]
    assert first == json.dumps(json.loads(first), sort_keys=True, separators=(",", ":"))


def test_load_corpus_reports_line_numbers(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"id":"a","text":"who?"}\nnot json\n')
    with pytest.raises(ValueError, match=r":2:"):
        load_corpus(p)


def test_load_corpus_requires_fields(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"id":"a"}\n')
    with pytest.raises(ValueError, match=r":1:"):
        load_corpus(p)
