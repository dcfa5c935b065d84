import json

import numpy as np
import pytest

from qdecomp.corpus import QuestionCorpus
from qdecomp.embeddings import make_vector_table


def make_corpus(texts, prefix="q"):
    return QuestionCorpus([f"{prefix}{i:08d}" for i in range(len(texts))],
                          texts)


def write_logits_jsonl(paragraphs, path):
    """Paragraph logits in the JSONL form recompose.read_logits_jsonl reads."""
    with open(path, "w", encoding="utf-8") as fh:
        for p in paragraphs:
            obj = {
                "paragraph_id": p.paragraph_id,
                "no_answer_logit": p.no_answer_logit,
                "spans": [{"span_id": sid, "logit": logit}
                          for sid, logit in p.span_entries],
            }
            fh.write(json.dumps(obj, ensure_ascii=False, sort_keys=True))
            fh.write("\n")


@pytest.fixture
def tiny_table():
    # orthogonal-ish hand vectors; "?" deliberately tiny so it never dominates
    return make_vector_table({
        "who": [1.0, 0.0, 0.0, 0.0],
        "what": [0.0, 1.0, 0.0, 0.0],
        "wrote": [0.0, 0.0, 1.0, 0.0],
        "directed": [0.0, 0.0, 0.0, 1.0],
        "hamlet": [1.0, 1.0, 0.0, 0.0],
        "vertigo": [0.0, 0.0, 1.0, 1.0],
        "the": [0.1, 0.1, 0.1, 0.1],
        "?": [0.01, 0.01, 0.01, 0.01],
    })


def random_unit_rows(rng, m, dim):
    rows = rng.normal(size=(m, dim))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return rows


CLASS_A_WORDS = tuple("alpha beta gamma delta epsilon zeta eta theta".split())
CLASS_B_WORDS = tuple("crimson azure viridian amber violet umber coral slate".split())
SHARED_WORDS = tuple("the of a is in on".split())


def synthetic_labeled_split(seed, n_train, n_heldout, flip_fraction=0.0):
    """Two-class corpora: every text carries 2-4 class words plus shared
    filler. flip_fraction relabels that share of examples to the wrong
    class, capping achievable accuracy at 1 - flip_fraction."""
    rng = np.random.default_rng(seed)
    pools = {"a": CLASS_A_WORDS, "b": CLASS_B_WORDS}

    def sample(label):
        toks = list(rng.choice(pools[label], size=rng.integers(2, 5)))
        toks += list(rng.choice(SHARED_WORDS, size=rng.integers(1, 4)))
        rng.shuffle(toks)
        return " ".join(toks) + " ?"

    def batch(n, prefix):
        out = {"a": [], "b": []}
        for i in range(n):
            true = "a" if i % 2 == 0 else "b"
            text = sample(true)
            lab = true
            if flip_fraction and rng.random() < flip_fraction:
                lab = "b" if true == "a" else "a"
            out[lab].append(text)
        return [
            (make_corpus(out["a"], prefix=f"{prefix}a"), "a"),
            (make_corpus(out["b"], prefix=f"{prefix}b"), "b"),
        ]

    return batch(n_train, "tr"), batch(n_heldout, "ho")
