import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdecomp.corpus import load_corpus
from qdecomp.recompose import (
    ParagraphLogits,
    ensemble_average,
    predict_answer,
    ranked_spans,
    read_logits_jsonl,
    span_probabilities,
)

from conftest import write_logits_jsonl


def para(pid, spans, na):
    return ParagraphLogits(paragraph_id=pid, span_entries=tuple(spans),
                           no_answer_logit=na)


def random_paragraphs(rng, n_para=3, n_span=4):
    out = []
    for p in range(n_para):
        spans = tuple((f"s{j}", float(rng.normal())) for j in range(n_span))
        out.append(para(f"p{p}", spans, float(rng.normal())))
    return out


def test_probabilities_follow_adjusted_logits():
    # single paragraph, no-answer 0: plain softmax over span logits
    p = para("p", [("a", 1.0), ("b", 0.0)], 0.0)
    probs = dict(((pid, sid), v) for pid, sid, v in span_probabilities([p]))
    z = math.exp(1.0) + math.exp(0.0)
    assert probs[("p", "a")] == pytest.approx(math.exp(1.0) / z, abs=1e-12)
    assert probs[("p", "b")] == pytest.approx(math.exp(0.0) / z, abs=1e-12)


def test_no_answer_logit_downweights_paragraph():
    confident = [para("p1", [("a", 1.0)], 0.0), para("p2", [("a", 1.0)], 3.0)]
    probs = dict(((pid, sid), v) for pid, sid, v in span_probabilities(confident))
    assert probs[("p1", "a")] > probs[("p2", "a")]


def test_probabilities_sum_to_one():
    rng = np.random.default_rng(0)
    for _ in range(100):
        paras = random_paragraphs(rng)
        total = sum(v for _, _, v in span_probabilities(paras))
        assert total == pytest.approx(1.0, abs=1e-9)


def test_joint_shift_invariance_per_paragraph():
    # raising one paragraph's spans and its no-answer logit together is a no-op
    rng = np.random.default_rng(1)
    paras = random_paragraphs(rng)
    shifted = [para(p.paragraph_id,
                    [(s, v + 2.5) for s, v in p.span_entries],
                    p.no_answer_logit + 2.5) if p.paragraph_id == "p1" else p
               for p in paras]
    a = span_probabilities(paras)
    b = span_probabilities(shifted)
    for (pa, sa, va), (pb, sb, vb) in zip(a, b):
        assert (pa, sa) == (pb, sb)
        assert va == pytest.approx(vb, abs=1e-9)


def test_global_shift_keeps_argmax():
    rng = np.random.default_rng(2)
    paras = random_paragraphs(rng)
    shifted = [para(p.paragraph_id, [(s, v + 7.0) for s, v in p.span_entries],
                    p.no_answer_logit + 7.0) for p in paras]
    assert predict_answer(paras) == predict_answer(shifted)


def test_predict_answer_tie_breaks_to_smallest_ids():
    cases = [  # (paragraphs with an exact probability tie, answer)
        ([para("p2", [("s1", 1.0)], 0.0),
          para("p1", [("s2", 1.0), ("s1", 1.0)], 0.0)], ("p1", "s1")),
        ([para("b", [("x", 2.0), ("y", 0.0)], 0.0),
          para("a", [("z", 2.0)], 0.0)], ("a", "z")),
        ([para("p2", [("s", 3.0)], 1.0), para("p1", [("t", 2.5)], 0.5)],
         ("p1", "t")),
        ([para("p", [("b", 1.0), ("a", 1.0), ("c", 5.0)], 0.0)], ("p", "c")),
    ]
    for paras, answer in cases:
        ranked = ranked_spans(paras)
        assert predict_answer(paras) == ranked[0][:2] == answer
        assert sorted(ranked) == sorted(span_probabilities(paras))
        for (p0, s0, pr0), (p1, s1, pr1) in zip(ranked, ranked[1:]):
            assert pr0 > pr1 or (pr0 == pr1 and (p0, s0) < (p1, s1))
        probs = [pr for _, _, pr in ranked]
        assert len(set(probs)) < len(probs)


def test_jsonl_readers_share_the_malformed_line_error(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("\n{oops\n")
    with pytest.raises(ValueError) as corpus_error:
        load_corpus(path)
    with pytest.raises(ValueError) as logits_error:
        read_logits_jsonl(path)
    assert str(corpus_error.value) == str(logits_error.value)
    assert str(corpus_error.value).startswith(f"{path}:2: malformed JSON line: ")


def test_ensemble_averages_logits_elementwise():
    a = [para("p", [("s", 2.0), ("t", 0.0)], 1.0)]
    b = [para("p", [("s", 4.0), ("t", 2.0)], 3.0)]
    out = ensemble_average([a, b])
    assert out[0].span_entries == (("s", 3.0), ("t", 1.0))
    assert out[0].no_answer_logit == 2.0


def test_ensemble_refuses_an_overflowing_mean():
    # each set is finite, but the mean of the span logits overflows
    a = [para("p", [("s", 1e308)], 0.0)]
    with pytest.raises(ValueError, match="paragraph 'p': logit inf for 's'"):
        ensemble_average([a, a])


def test_ensemble_rejects_mismatched_structure():
    a = [para("p", [("s", 1.0)], 0.0)]
    b = [para("other", [("s", 1.0)], 0.0)]
    with pytest.raises(ValueError, match="paragraph"):
        ensemble_average([a, b])
    c = [para("p", [("different", 1.0)], 0.0)]
    with pytest.raises(ValueError, match="span"):
        ensemble_average([a, c])
    with pytest.raises(ValueError):
        ensemble_average([])


def test_paragraph_validation():
    with pytest.raises(ValueError):
        para("p", [("s", float("nan"))], 0.0)
    with pytest.raises(ValueError):
        para("p", [("s", 1.0), ("s", 2.0)], 0.0)
    with pytest.raises(ValueError):
        para("p", [("s", 1.0)], float("inf"))


def test_large_logits_stay_finite():
    paras = [para("p", [("a", 1000.0), ("b", 999.0)], 998.0)]
    probs = span_probabilities(paras)
    assert all(np.isfinite(v) for _, _, v in probs)
    assert sum(v for _, _, v in probs) == pytest.approx(1.0, abs=1e-9)


def test_logits_jsonl_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    paras = random_paragraphs(rng, n_para=2, n_span=3)
    p = tmp_path / "logits.jsonl"
    write_logits_jsonl(paras, p)
    back = read_logits_jsonl(p)
    assert back == paras


@given(st.lists(st.floats(-30, 30), min_size=2, max_size=6), st.floats(-5, 5))
@settings(max_examples=100)
def test_softmax_order_preserved(logits, na):
    spans = [(f"s{i}", v) for i, v in enumerate(logits)]
    ordered = sorted(v for _, v in spans)
    if any(b - a < 1e-6 for a, b in zip(ordered, ordered[1:])):
        return  # near-ties collapse to equal probabilities in float64
    paras = [para("p", spans, na)]
    probs = span_probabilities(paras)
    by_logit = sorted(spans, key=lambda e: -e[1])
    by_prob = sorted(probs, key=lambda e: -e[2])
    assert [s for s, _ in by_logit] == [s for _, s, _ in by_prob]
