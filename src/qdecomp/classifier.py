"""Bag-of-words softmax classifier for routing mined questions between corpora."""

import math
from collections import Counter
from dataclasses import asdict, dataclass
from itertools import chain, islice

import numpy as np

from .corpus import JSON_KINDS, NUMBERS, STRINGS, read_json, write_json
from .embeddings import _features, _ranges
from .rng import substream


@dataclass(frozen=True)
class TrainingConfig:
    dim: int = 32
    epochs: int = 5
    learning_rate: float = 0.1
    batch_size: int = 8
    min_count: int = 1
    seed: int = 0

    def __post_init__(self):
        for name in ("dim", "epochs", "batch_size", "min_count"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, "
                                 f"got {getattr(self, name)}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and positive, "
                             f"got {self.learning_rate}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass
class LinearTextClassifier:
    """Averaged learned word embeddings followed by a linear layer and softmax."""

    labels: tuple
    vocab: dict
    embeddings: np.ndarray   # |vocab| x dim
    weight: np.ndarray       # |labels| x dim
    bias: np.ndarray         # |labels|
    config: TrainingConfig
    epoch_losses: tuple = ()


@dataclass(frozen=True)
class Prediction:
    label: str
    probabilities: np.ndarray
    degenerate: bool = False


_BLOCK = 1024  # questions scored per numpy pass


def _length_groups(flat, starts, lengths, batch_size):
    """The one grouping rule of _mean_embeddings, for rows taken in batches
    of batch_size: per batch, a list of (rows, tokens), one pair per
    nonzero length ell. rows are the positions in the batch of the rows of
    length ell, in order; tokens is the (len(rows), ell) array of their
    token ids. Rows of length 0 are in no group.

    One lexsort over (batch, length) orders every row; one gather lays the
    token ids out in that order, so each group's tokens are one contiguous
    slice."""
    n = len(lengths)
    order = np.lexsort((lengths, np.arange(n) // batch_size))
    ell = lengths[order]
    tokens = flat[_ranges(starts[order], starts[order] + ell)]
    batch, rows = np.divmod(order, batch_size)
    first = np.flatnonzero(np.diff(batch, prepend=-1)
                           | np.diff(ell, prepend=-1))
    offset = np.cumsum(ell) - ell
    groups = [[] for _ in range(0, n, batch_size)]
    for b, lo, hi, e, at in zip(batch[first].tolist(), first.tolist(),
                                [*first[1:].tolist(), n], ell[first].tolist(),
                                offset[first].tolist()):
        if e:
            groups[b].append((rows[lo:hi], tokens[at:at + (hi - lo) * e]
                              .reshape(hi - lo, e)))
    return groups


def _mean_embeddings(emb, groups, n):
    """Row i of n is the mean of emb over row i's token ids, bit for bit
    emb[ids].mean(axis=0) taken alone, or zeros where it has none.

    mean's summation order depends on the layout (at dim 1 numpy sums the
    column pairwise), so each group of rows of equal length (see
    _length_groups) is stacked and reduced along the same axis by numpy's
    own reduction."""
    h = np.zeros((n, emb.shape[1]))
    for rows, tokens in groups:
        h[rows] = (np.add.reduce(emb.take(tokens, axis=0), axis=1)
                   / tokens.shape[1])
    return h


def _probabilities(weight, bias, h):
    """Row i is softmax(weight @ h[i] + bias). The stacked matmul makes one
    gemv call per row, as the one-row product does; h @ weight.T is one
    gemm and rounds differently."""
    logits = np.matmul(weight[None], h[:, :, None])[:, :, 0] + bias
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _sequential_sum(terms):
    """terms[0] + terms[1] + ... added in order onto +0.0, as a += loop
    from zeros does; .sum(axis=0) may sum pairwise."""
    return 0.0 + np.add.accumulate(terms, axis=0)[-1]


def train_classifier(labeled, config=TrainingConfig()):
    """Train on [(corpus, label), ...] with mini-batch SGD.

    Deterministic given config.seed: initialization and epoch shuffles come
    from named substreams. The learning rate decays linearly to zero.
    Weights move only between mini-batches, so each batch takes one forward
    and one backward pass; the result is bit for bit that of scoring and
    updating one example at a time. An epoch whose mean loss is not finite
    (the weights have diverged) raises ValueError naming it.

    Every index array a batch uses depends only on the epoch's permutation,
    so each epoch plans all its batches at once: _length_groups gives each
    batch's length groups, and one gather gives every batch's scatter
    indices. The batch loop only slices them. The embedding update is one
    np.add.at on the flat embeddings at token * dim + column: it adds
    element (token, column) its updates in token order, as the row-wise
    np.add.at does, so each element's sum is the same.
    """
    labels = tuple(lab for _, lab in labeled)
    if len(labels) < 2:
        raise ValueError("need at least two labeled corpora")
    if len(set(labels)) != len(labels):
        raise ValueError("labels must be distinct")
    for corpus, lab in labeled:
        if len(corpus) == 0:
            raise ValueError(f"empty corpus for label {lab!r}")

    token_lists = [tokens for corpus, _ in labeled for tokens in corpus.tokens]
    counts = Counter(chain.from_iterable(token_lists))
    terms = sorted(t for t, c in counts.items() if c >= config.min_count)
    if not terms:
        raise ValueError(f"no term occurs min_count={config.min_count} times; "
                         f"the most frequent occurs "
                         f"{max(counts.values(), default=0)} times")
    vocab = {t: i for i, t in enumerate(terms)}
    flat, starts, lengths = _features(token_lists, vocab)
    targets = np.repeat(np.arange(len(labels)), [len(c) for c, _ in labeled])

    dim = config.dim
    init_rng = substream(config.seed, "classifier-init")
    emb = init_rng.uniform(-0.5 / dim, 0.5 / dim, size=(len(vocab), dim))
    weight = np.zeros((len(labels), dim))
    bias = np.zeros(len(labels))

    n = len(token_lists)
    batch_size = config.batch_size
    bounds = [*range(0, n, batch_size), n]  # batch b: bounds[b]:bounds[b + 1]
    total_steps = config.epochs * (len(bounds) - 1)
    step = 0
    epoch_losses = []
    emb_flat = emb.reshape(-1)  # a view: emb is C-contiguous
    cols = np.arange(dim)
    for epoch in range(config.epochs):
        order = substream(config.seed, "classifier-shuffle", epoch).permutation(n)
        e_starts, e_lengths, e_targets = (starts[order], lengths[order],
                                          targets[order])
        groups = _length_groups(flat, e_starts, e_lengths, batch_size)
        scatter = flat[_ranges(e_starts, e_starts + e_lengths)] * dim
        cuts = np.concatenate(([0], np.cumsum(e_lengths)))[bounds].tolist()
        loss_sum = 0.0
        for b, (start, end) in enumerate(zip(bounds, bounds[1:])):
            lr = config.learning_rate * (1.0 - step / total_steps)
            step += 1
            b_lengths = e_lengths[start:end]
            h = _mean_embeddings(emb, groups[b], end - start)
            d = _probabilities(weight, bias, h)
            target = (np.arange(end - start), e_targets[start:end])
            for p in d[target].tolist():
                loss_sum += -math.log(max(p, 1e-300))
            d[target] -= 1.0
            grad_w = _sequential_sum(d[:, :, None] * h[:, None, :])
            grad_b = _sequential_sum(d)
            gh = np.matmul(weight.T[None], d[:, :, None])[:, :, 0]
            scale = lr / (end - start)
            weight -= scale * grad_w
            bias -= scale * grad_b
            # one row per feature, in example order: a featureless example
            # is repeated zero times, so its divisor only has to be nonzero
            updates = -(scale / np.maximum(b_lengths, 1))[:, None] * gh
            np.add.at(emb_flat,
                      (scatter[cuts[b]:cuts[b + 1], None] + cols).ravel(),
                      np.repeat(updates, b_lengths, axis=0).ravel())
        epoch_losses.append(loss_sum / n)
        if not math.isfinite(epoch_losses[-1]):
            raise ValueError(f"training diverged: epoch {epoch + 1} has mean "
                             f"loss {epoch_losses[-1]}; lower the learning "
                             f"rate")

    return LinearTextClassifier(labels=labels, vocab=vocab, embeddings=emb,
                                weight=weight, bias=bias, config=config,
                                epoch_losses=tuple(epoch_losses))


def predict(model, token_lists):
    """Yield the Prediction of each token list, in order, scoring blocks of
    lists in one numpy pass each.

    A list with no in-vocabulary tokens has a zero feature vector; it gets
    uniform probabilities, the first label and the degenerate flag."""
    k = len(model.labels)
    token_lists = iter(token_lists)
    while block := list(islice(token_lists, _BLOCK)):
        flat, starts, lengths = _features(block, model.vocab)
        h = _mean_embeddings(model.embeddings, _length_groups(
            flat, starts, lengths, len(block))[0], len(block))
        probs = _probabilities(model.weight, model.bias, h)
        degenerate = lengths == 0
        probs[degenerate] = 1.0 / k  # whose argmax is 0, the first label
        for p, best, flag in zip(probs, np.argmax(probs, axis=1).tolist(),
                                 degenerate.tolist()):
            yield Prediction(label=model.labels[best], probabilities=p,
                             degenerate=flag)


def evaluate_classifier(model, heldout):
    """Accuracy of argmax predictions over [(corpus, label), ...]."""
    total = 0
    correct = 0
    for corpus, lab in heldout:
        if lab not in model.labels:
            raise ValueError(f"unknown label {lab!r}")
        for pred in predict(model, corpus.tokens):
            total += 1
            correct += int(pred.label == lab)
    if total == 0:
        raise ValueError("empty held-out set")
    return correct / total


def route_mined_questions(model, mined, single_label, multi_label):
    """Partition a mined corpus by predicted label: (row positions labelled
    single, row positions labelled multi); rows with other labels are
    dropped."""
    for lab in (single_label, multi_label):
        if lab not in model.labels:
            raise ValueError(f"unknown label {lab!r}")
    to_single = []
    to_multi = []
    for row, pred in enumerate(predict(model, mined.tokens)):
        if pred.label == single_label:
            to_single.append(row)
        elif pred.label == multi_label:
            to_multi.append(row)
    return to_single, to_multi


def save_classifier(model, path):
    payload = {
        "schema_version": 1,
        "labels": list(model.labels),
        "vocab": model.vocab,
        "embeddings": model.embeddings.tolist(),
        "weight": model.weight.tolist(),
        "bias": model.bias.tolist(),
        "config": asdict(model.config),
        "epoch_losses": list(model.epoch_losses),
    }
    write_json(payload, path)


def load_classifier(path):
    """Read a model written by save_classifier. A model whose fields do not
    fit together is a ValueError naming the file and the field, raised
    before anything is scored."""
    payload = read_json(path)
    fields = {"labels", "vocab", "embeddings", "weight", "bias", "config",
              "epoch_losses"}
    if not isinstance(payload, dict) or not fields <= payload.keys():
        raise ValueError(f"{path}: a model needs the fields {sorted(fields)}")
    try:
        config = TrainingConfig(**payload["config"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: config: {exc}") from None
    labels = payload["labels"]
    if not (JSON_KINDS[STRINGS](labels) and len(labels) >= 2
            and len(set(labels)) == len(labels)):
        raise ValueError(f"{path}: labels must be two or more distinct "
                         f"strings, got {labels!r}")
    vocab = payload["vocab"]
    if not (isinstance(vocab, dict) and vocab
            and all(type(i) is int for i in vocab.values())
            and sorted(vocab.values()) == list(range(len(vocab)))):
        raise ValueError(f"{path}: vocab must map one or more terms to "
                         f"the indices 0..len(vocab)-1")
    arrays = {}
    for name, shape in (("embeddings", (len(vocab), config.dim)),
                        ("weight", (len(labels), config.dim)),
                        ("bias", (len(labels),))):
        try:
            array = np.array(payload[name], dtype=np.float64)
        except (TypeError, ValueError):
            raise ValueError(f"{path}: {name} is not an array of numbers") \
                from None
        if array.shape != shape:
            raise ValueError(f"{path}: {name} has shape {array.shape}, "
                             f"expected {shape}")
        if not np.isfinite(array).all():
            raise ValueError(f"{path}: {name} holds a value that is not "
                             f"finite")
        arrays[name] = array
    losses = payload["epoch_losses"]
    if not JSON_KINDS[NUMBERS](losses):
        raise ValueError(f"{path}: epoch_losses must be {NUMBERS}, got "
                         f"{losses!r}")
    return LinearTextClassifier(labels=tuple(labels), vocab=vocab,
                                config=config, epoch_losses=tuple(losses),
                                **arrays)
