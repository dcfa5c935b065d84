"""Independent reference implementations used to cross-check the package.

Everything here is written as a direct, slow transcription of the intended
behavior (python loops, collections.Counter, full DP matrices). Nothing in
this module imports from qdecomp, so agreement between the two code paths is
meaningful.
"""

import json
import math
import re
import zlib
from collections import Counter
from itertools import combinations

import numpy as np


def pair_argmax_oracle(q_unit, unit_rows, ids):
    """Brute-force best pair under sim(q,a) + sim(q,b) - sim(a,b).

    Returns (sorted id pair, score). Ties break toward the lexicographically
    smallest sorted id pair.
    """
    best = None
    m = len(ids)
    for i in range(m):
        for j in range(i + 1, m):
            a = unit_rows[i]
            b = unit_rows[j]
            val = float(np.dot(q_unit, a) + np.dot(q_unit, b) - np.dot(a, b))
            key = tuple(sorted((ids[i], ids[j])))
            if best is None or val > best[1] or (val == best[1] and key < best[0]):
                best = (key, val)
    return best


def general_argmax_oracle(q_unit, unit_rows, ids, n):
    """Brute-force best size-n subset: sum of query sims minus unordered
    pairwise sims. Ties break toward the smallest sorted id tuple."""
    best = None
    m = len(ids)
    for subset in combinations(range(m), n):
        val = 0.0
        for i in subset:
            val += float(np.dot(q_unit, unit_rows[i]))
        for i, j in combinations(subset, 2):
            val -= float(np.dot(unit_rows[i], unit_rows[j]))
        key = tuple(sorted(ids[i] for i in subset))
        if best is None or val > best[1] or (val == best[1] and key < best[0]):
            best = (key, val)
    return best


def variable_argmin_oracle(q_raw, raw_rows, ids, max_n):
    """Brute-force subset of size 1..max_n minimizing ||q - sum of rows||.

    Mirrors the package's arithmetic exactly (float64 rows indexed in
    ascending position order, summed with ndarray.sum) so that genuine ties
    are bit-identical; ties prefer smaller subsets, then lexicographic ids.
    Returns (ids tuple, distance).
    """
    rows = np.asarray(raw_rows, dtype=np.float64)
    best = None
    m = len(ids)
    for size in range(1, max_n + 1):
        for subset in combinations(range(m), size):
            vec = rows[list(subset)].sum(axis=0)
            dist = float(np.linalg.norm(np.asarray(q_raw, dtype=np.float64) - vec))
            key = (dist, size, tuple(sorted(ids[i] for i in subset)))
            if best is None or key < best:
                best = key
    return best[2], best[0]


def levenshtein_oracle(a, b):
    """Full-matrix token edit distance (insert/delete/substitute, unit cost)."""
    la, lb = len(a), len(b)
    d = [[0] * (lb + 1) for _ in range(la + 1)]
    for i in range(la + 1):
        d[i][0] = i
    for j in range(lb + 1):
        d[0][j] = j
    for i in range(1, la + 1):
        for j in range(1, lb + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1, d[i - 1][j - 1] + cost)
    return d[la][lb]


def _ngrams(tokens, n):
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu_oracle(hypotheses, references, max_n=4):
    """Corpus BLEU: clipped modified precision per order, geometric mean over
    the orders that have any hypothesis n-grams, brevity penalty
    exp(min(0, 1 - ref_len/hyp_len)). A zero clipped count on a supported
    order gives 0. No smoothing."""
    assert len(hypotheses) == len(references)
    matched = [0] * max_n
    total = [0] * max_n
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, max_n + 1):
            h = _ngrams(hyp, n)
            r = _ngrams(ref, n)
            total[n - 1] += sum(h.values())
            matched[n - 1] += sum(min(c, r[g]) for g, c in h.items())
    if hyp_len == 0:
        return 0.0
    supported = [(m, t) for m, t in zip(matched, total) if t > 0]
    if not supported:
        return 0.0
    if any(m == 0 for m, _ in supported):
        return 0.0
    log_p = sum(math.log(m / t) for m, t in supported) / len(supported)
    bp = math.exp(min(0.0, 1.0 - ref_len / hyp_len))
    return bp * math.exp(log_p)


def topk_oracle(q, rows, ids, k):
    """Full float64 scan: every row upcast and scored as the float64 sum of
    its elementwise products with q, rows sorted by (-score, id), cut to K.

    Returns (row indices, scores). The score expression is the package's
    definition of a row's exact score; what this checks is the selection
    around it (no float32 pass, no shortlist).
    """
    matrix = np.asarray(rows, dtype=np.float64)
    scores = (matrix * np.asarray(q, dtype=np.float64)).sum(axis=1)
    order = sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))[:k]
    return order, [float(scores[i]) for i in order]


def variable_beam_oracle(q_raw, raw_rows, ids, max_n, beam_width):
    """Plain transcription of the documented variable beam search.

    raw_rows are the candidate pool in pool order and keys are ascending
    pool positions. Per size, every beam state extends by every unused
    position; each distinct key is scored once as the norm of q minus its
    rows summed with ndarray.sum (the package's arithmetic); states sort by
    (distance, sorted ids) and the first beam_width survive. The best state
    across sizes is the smallest (distance, size, ids). The search stops
    when a size has no states. Returns (ids tuple, distance).
    """
    rows = np.asarray(raw_rows, dtype=np.float64)
    q = np.asarray(q_raw, dtype=np.float64)
    best = None
    beam = [()]
    for size in range(1, max_n + 1):
        scored = {}
        for prev in beam:
            for c in range(len(ids)):
                if c in prev:
                    continue
                key = tuple(sorted(prev + (c,)))
                if key not in scored:
                    dist = float(np.linalg.norm(q - rows[list(key)].sum(axis=0)))
                    scored[key] = (dist, tuple(sorted(ids[i] for i in key)))
        if not scored:
            break
        beam = sorted(scored, key=lambda key: scored[key])[:beam_width]
        dist, key_ids = scored[beam[0]]
        if best is None or (dist, size, key_ids) < best:
            best = (dist, size, key_ids)
    return best[2], best[0]


def _parses_as_int(text):
    try:
        int(text)
    except ValueError:
        return False
    return True


def load_vector_table_oracle(path):
    """Row-by-row .vec parse: (vocab, float32 matrix) with the words in
    first-seen order, a repeated word taking its last vector.

    Lines are read in text mode; blank lines are skipped; the first
    non-blank line is a header when it is two integers; each component is
    float32(float(token)). Errors are the ValueErrors load_vector_table
    raises, with their line numbers.
    """
    vectors = {}
    dim = None
    first = True
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if first:
                first = False
                if len(parts) == 2 and all(map(_parses_as_int, parts)):
                    continue
            word, comps = parts[0], parts[1:]
            if not comps:
                raise ValueError(f"{path}:{lineno}: row has no vector components")
            if dim is not None and len(comps) != dim:
                raise ValueError(f"{path}:{lineno}: expected {dim} "
                                 f"components, got {len(comps)}")
            dim = len(comps)
            try:
                vec = np.array([float(t) for t in comps], dtype=np.float32)
            except ValueError as exc:
                raise ValueError(
                    f"{path}:{lineno}: non-numeric vector component") from exc
            if not np.isfinite(vec).all():
                raise ValueError(f"{path}:{lineno}: non-finite vector component")
            vectors[word] = vec
    if not vectors:
        raise ValueError(f"{path}: no vector rows found")
    return ({word: row for row, word in enumerate(vectors)},
            np.array(list(vectors.values())))


def tokenize_oracle(text):
    """Lowercase tokens: the tokenizer's pattern, each token lowered alone."""
    return [t.lower() for t in re.findall(r"""[^\s?.,;:!"'()]+|[?.,;:!"'()]""",
                                          text)]


def embed_sum_oracle(tokens, vectors, dim):
    """Summed word vectors of one token list: a float64 zero vector plus
    each in-vocabulary token's float32 vector, token by token in order.

    vectors maps words to float32 vectors; other tokens are skipped.
    """
    acc = np.zeros(dim, dtype=np.float64)
    for tok in tokens:
        if tok in vectors:
            acc += vectors[tok]
    return acc


def rank_oracle(objective, q_raw, q_unit, pool_unit, pool_raw, gold, n):
    """Rank of the gold subset among every size-n subset of a pool, by full
    enumeration.

    pool_unit and pool_raw are the pool's float32 rows in pool order; gold
    holds the gold members' pool positions, or is None when one of them is
    outside the pool (rank C(m, n) + 1). Each subset of ascending positions
    c is scored in the package's operation order. sim-diversity:
    sims[c0] + sims[c1] (+ sims[c2]), then minus gram[a, b] for each pair
    (a, b) of c in combinations order, with sims = cand @ q_unit and
    gram = cand @ cand.T over the float64 unit rows; higher is better.
    sum-distance: q.q, then per member minus 2 q.r and plus r.r, then plus
    2 r.r' per pair, with dots = raws @ q_raw and gram = raws @ raws.T over
    the float64 raw rows; lower is better. The rank is one plus the number
    of subsets strictly better than gold, scored the same way.
    """
    m = len(pool_unit)
    if gold is None:
        return math.comb(m, n) + 1
    if objective == "sim-diversity":
        cand = np.asarray(pool_unit, dtype=np.float64)
        sims = cand @ np.asarray(q_unit, dtype=np.float64)
        gram = cand @ cand.T

        def score(c):
            s = sims[c[0]]
            for p in c[1:]:
                s = s + sims[p]
            for a, b in combinations(c, 2):
                s = s - gram[a, b]
            return s
    else:
        raws = np.asarray(pool_raw, dtype=np.float64)
        q = np.asarray(q_raw, dtype=np.float64)
        dots = raws @ q
        gram = raws @ raws.T
        qq = float(q @ q)

        def score(c):
            s = qq
            for p in c:
                s = s - 2.0 * dots[p]
                s = s + gram[p, p]
            for a, b in combinations(c, 2):
                s = s + 2.0 * gram[a, b]
            return -s  # higher is better from here on
    target = score(tuple(sorted(gold)))
    return 1 + sum(1 for c in combinations(range(m), n) if score(c) > target)


def _substream(seed, stage, *indices):
    """The package's named RNG substream, transcribed: a SeedSequence over
    the seed, the crc32 of the stage name and the indices."""
    entropy = [int(seed), zlib.crc32(stage.encode("utf-8"))]
    entropy.extend(int(i) for i in indices)
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _softmax(logits):
    z = logits - np.max(logits)
    e = np.exp(z)
    return e / e.sum()


def classifier_train_oracle(labeled, dim, epochs, learning_rate, batch_size,
                            min_count, seed):
    """Mini-batch SGD over [(token tuples, label), ...], one example at a
    time: the classifier's training loop before it was batched.

    Returns (labels, vocab, embeddings, weight, bias, epoch_losses). Each
    example's feature vector is emb[idx].mean(axis=0), or zeros when none of
    its tokens is in the vocabulary; gradients are added onto zeros in
    example order, and each example's embedding update is its own np.add.at
    after the weights have moved.
    """
    labels = tuple(lab for _, lab in labeled)
    counts = Counter()
    examples = []
    for li, (token_lists, _) in enumerate(labeled):
        for tokens in token_lists:
            counts.update(tokens)
            examples.append((tokens, li))
    terms = sorted(t for t, c in counts.items() if c >= min_count)
    vocab = {t: i for i, t in enumerate(terms)}
    feats = [np.array([vocab[t] for t in toks if t in vocab], dtype=np.intp)
             for toks, _ in examples]
    targets = [li for _, li in examples]

    init_rng = _substream(seed, "classifier-init")
    emb = init_rng.uniform(-0.5 / dim, 0.5 / dim, size=(len(vocab), dim))
    weight = np.zeros((len(labels), dim))
    bias = np.zeros(len(labels))

    n = len(examples)
    n_batches = max(1, math.ceil(n / batch_size))
    total_steps = epochs * n_batches
    step = 0
    epoch_losses = []
    for epoch in range(epochs):
        order = _substream(seed, "classifier-shuffle", epoch).permutation(n)
        loss_sum = 0.0
        for start in range(0, n, batch_size):
            batch = order[start:start + batch_size]
            lr = learning_rate * (1.0 - step / total_steps)
            step += 1
            grad_w = np.zeros_like(weight)
            grad_b = np.zeros_like(bias)
            emb_updates = []
            for ex in batch:
                idx = feats[ex]
                if idx.size:
                    h = emb[idx].mean(axis=0)
                else:
                    h = np.zeros(dim)
                probs = _softmax(weight @ h + bias)
                loss_sum += -math.log(max(probs[targets[ex]], 1e-300))
                d = probs.copy()
                d[targets[ex]] -= 1.0
                grad_w += np.outer(d, h)
                grad_b += d
                if idx.size:
                    emb_updates.append((idx, weight.T @ d))
            scale = lr / len(batch)
            weight -= scale * grad_w
            bias -= scale * grad_b
            for idx, gh in emb_updates:
                np.add.at(emb, idx, -(scale / idx.size) * gh)
        epoch_losses.append(loss_sum / n)
    return labels, vocab, emb, weight, bias, tuple(epoch_losses)


def classify_oracle(tokens, labels, vocab, embeddings, weight, bias):
    """(label, probabilities, degenerate) for one token tuple, scored alone.
    No in-vocabulary token: uniform probabilities, the first label and the
    degenerate flag."""
    idx = np.array([vocab[t] for t in tokens if t in vocab], dtype=np.intp)
    k = len(labels)
    if idx.size == 0:
        return labels[0], np.full(k, 1.0 / k), True
    h = embeddings[idx].mean(axis=0)
    probs = _softmax(weight @ h + bias)
    return labels[int(np.argmax(probs))], probs, False


def noise_tokens_oracle(tokens, mask_prob, drop_prob, shuffle_window,
                        mask_token, rng):
    """One token list noised as a per-record loop: a local shuffle (stable
    sort of i + uniform(0, window)), then word dropout, then masking, each
    drawing from ``rng`` only where it can change the list."""
    out = list(tokens)
    if shuffle_window > 0 and len(out) >= 2:
        keys = (np.arange(len(out), dtype=np.float64)
                + rng.uniform(0.0, shuffle_window, len(out)))
        out = [out[i] for i in np.argsort(keys, kind="stable")]
    if drop_prob > 0.0 and out:
        keep = rng.random(len(out)) >= drop_prob
        out = [t for t, k in zip(out, keep) if k]
    if mask_prob > 0.0 and out:
        masked = rng.random(len(out)) < mask_prob
        out = [mask_token if m else t for t, m in zip(out, masked)]
    return out


def noise_jsonl_oracle(records, mask_prob, drop_prob, shuffle_window,
                       mask_token, seed):
    """The `noise` subcommand's output for [(id, tokens), ...]: record i is
    noised from its own substream (seed, "noise", i) and written as one
    compact JSON line."""
    lines = []
    for pos, (qid, tokens) in enumerate(records):
        out = noise_tokens_oracle(tokens, mask_prob, drop_prob,
                                  shuffle_window, mask_token,
                                  _substream(seed, "noise", pos))
        lines.append(json.dumps({"id": qid, "text": " ".join(out)},
                                ensure_ascii=False, sort_keys=True,
                                separators=(",", ":")) + "\n")
    return "".join(lines)
