"""Seeded input generation for the benchmark workloads.

Everything here is the benchmark's own code and imports nothing from
qdecomp: the program under test only ever sees the files written here.
The question templates mirror the shapes of qdecomp.synthbench (five
question words, topic/entity slots, three sentence forms) so the inputs look
like the acceptance suite's, but a change to the package's generators cannot
change the benchmark's inputs.
"""

import json

import numpy as np

WH_STARTERS = ("What", "Who", "Where", "When", "Which")
FORMS = ("{wh} is the {topic} of {entity}?",
         "{wh} was the {topic} in {entity}?",
         "{wh} is the {topic} of the {entity}?")
# Function words get a smaller vector norm, as in the package's demos, so
# content words dominate the summed embeddings.
FUNCTION_WORDS = frozenset(("what", "who", "where", "when", "which", "is",
                            "was", "are", "the", "of", "in", "and", "or", "a",
                            "to", "?", ".", ","))
FUNCTION_WORD_SCALE = 0.2


def tokens_of(text):
    """Tokens of a generated text: lowercase words with "?" split off.

    Generated texts contain only words, single spaces and question marks, on
    which this agrees with the package's tokenizer.
    """
    return text.lower().replace("?", " ? ").split()


def _rng(seed, purpose):
    """Independent generator per (seed, purpose) pair."""
    words = [ord(c) for c in purpose]
    return np.random.default_rng(np.random.SeedSequence([seed, *words]))


def single_hop_texts(count, seed, topics, entities):
    rng = _rng(seed, "single-hop")
    wh = rng.integers(len(WH_STARTERS), size=count)
    topic = rng.integers(topics, size=count)
    entity = rng.integers(entities, size=count)
    form = rng.integers(len(FORMS), size=count)
    return [FORMS[f].format(wh=WH_STARTERS[w], topic=f"t{t:03d}",
                            entity=f"e{e:03d}")
            for w, t, e, f in zip(wh.tolist(), topic.tolist(),
                                  entity.tolist(), form.tolist())]


def composites(texts, n, count, seed, purpose):
    """``count`` composites of ``n`` distinct questions each: inner parts
    lose their question mark and parts join with " and "."""
    rng = _rng(seed, purpose)
    out = []
    for _ in range(count):
        idx = rng.choice(len(texts), size=n, replace=False).tolist()
        parts = [texts[i].rstrip("?").rstrip() for i in idx[:-1]]
        parts.append(texts[idx[-1]])
        out.append(" and ".join(parts))
    return out


def vocabulary(texts):
    vocab = {"and"}
    for t in texts:
        vocab.update(tokens_of(t))
    return sorted(vocab)


def vector_table(words, dim, seed):
    """word -> float32 vector, Gaussian with damped function words."""
    rng = _rng(seed, "vectors")
    mat = rng.normal(0.0, 1.0, size=(len(words), dim))
    scale = np.array([FUNCTION_WORD_SCALE if w in FUNCTION_WORDS else 1.0
                      for w in words])
    mat = (mat * scale[:, None]).astype(np.float32)
    return dict(zip(words, mat))


def write_vec(table, path):
    """Text vector file with a count/dim header, each component written as
    the repr of its float32 value widened to a double (the format the
    package's own save_vector_table writes; it parses back exactly)."""
    dim = len(next(iter(table.values())))
    row = "%s" + " %r" * dim + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(table)} {dim}\n")
        for word, vec in table.items():
            fh.write(row % (word, *vec.tolist()))


def write_corpus(records, path):
    """JSONL corpus of (id, text) pairs in the package's corpus format."""
    with open(path, "w", encoding="utf-8") as fh:
        for qid, text in records:
            fh.write(json.dumps({"id": qid, "text": text}, sort_keys=True,
                                separators=(",", ":")))
            fh.write("\n")


def write_logits(path, paragraphs, spans, seed, member):
    """One ensemble member of seeded per-paragraph span logits."""
    rng = _rng(seed, f"logits-{member}")
    logits = rng.normal(0.0, 2.0, size=(paragraphs, spans))
    no_answer = rng.normal(0.0, 1.0, size=paragraphs)
    with open(path, "w", encoding="utf-8") as fh:
        for p in range(paragraphs):
            fh.write(json.dumps({
                "paragraph_id": f"p{p:05d}",
                "no_answer_logit": float(no_answer[p]),
                "spans": [{"span_id": f"s{s:03d}", "logit": float(v)}
                          for s, v in enumerate(logits[p].tolist())],
            }, sort_keys=True))
            fh.write("\n")


def mined_lines(singles, comps, prose):
    """Single-hop questions with composites and prose lines interleaved at
    fixed strides, as in the acceptance suite's pipeline fixture."""
    lines = list(singles)
    for i, text in enumerate(comps):
        lines.insert(31 * i % len(lines), text)
    for i in range(prose):
        lines.insert(47 * i % len(lines), f"Filler prose sentence number {i}.")
    return lines

