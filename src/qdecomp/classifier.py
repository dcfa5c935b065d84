"""Bag-of-words softmax classifier for routing mined questions between corpora."""

import json
import math
from collections import Counter
from dataclasses import asdict, dataclass

import numpy as np

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
        for name in ("dim", "epochs", "batch_size"):
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


def _softmax(logits):
    z = logits - np.max(logits)
    e = np.exp(z)
    return e / e.sum()


def _feature_indices(tokens, vocab):
    return np.array([vocab[t] for t in tokens if t in vocab], dtype=np.intp)


def train_classifier(labeled, config=TrainingConfig()):
    """Train on [(corpus, label), ...] with mini-batch SGD.

    Deterministic given config.seed: initialization and epoch shuffles come
    from named substreams. The learning rate decays linearly to zero.
    """
    labels = tuple(lab for _, lab in labeled)
    if len(labels) < 2:
        raise ValueError("need at least two labeled corpora")
    if len(set(labels)) != len(labels):
        raise ValueError("labels must be distinct")
    for corpus, lab in labeled:
        if len(corpus) == 0:
            raise ValueError(f"empty corpus for label {lab!r}")

    counts = Counter()
    examples = []
    for li, (corpus, _) in enumerate(labeled):
        for q in corpus:
            counts.update(q.tokens)
            examples.append((q.tokens, li))
    terms = sorted(t for t, c in counts.items() if c >= config.min_count)
    vocab = {t: i for i, t in enumerate(terms)}
    feats = [_feature_indices(toks, vocab) for toks, _ in examples]
    targets = [li for _, li in examples]

    dim = config.dim
    init_rng = substream(config.seed, "classifier-init")
    emb = init_rng.uniform(-0.5 / dim, 0.5 / dim, size=(len(vocab), dim))
    weight = np.zeros((len(labels), dim))
    bias = np.zeros(len(labels))

    n = len(examples)
    n_batches = max(1, math.ceil(n / config.batch_size))
    total_steps = config.epochs * n_batches
    step = 0
    epoch_losses = []
    for epoch in range(config.epochs):
        order = substream(config.seed, "classifier-shuffle", epoch).permutation(n)
        loss_sum = 0.0
        for start in range(0, n, config.batch_size):
            batch = order[start:start + config.batch_size]
            lr = config.learning_rate * (1.0 - step / total_steps)
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

    return LinearTextClassifier(labels=labels, vocab=vocab, embeddings=emb,
                                weight=weight, bias=bias, config=config,
                                epoch_losses=tuple(epoch_losses))


def classify(model, question):
    """Predict a label. A question with no in-vocabulary tokens has a zero
    feature vector; it gets uniform probabilities and the degenerate flag."""
    idx = _feature_indices(question.tokens, model.vocab)
    k = len(model.labels)
    if idx.size == 0:
        probs = np.full(k, 1.0 / k)
        return Prediction(label=model.labels[0], probabilities=probs,
                          degenerate=True)
    h = model.embeddings[idx].mean(axis=0)
    probs = _softmax(model.weight @ h + model.bias)
    return Prediction(label=model.labels[int(np.argmax(probs))],
                      probabilities=probs, degenerate=False)


def evaluate_classifier(model, heldout):
    """Accuracy of argmax predictions over [(corpus, label), ...]."""
    total = 0
    correct = 0
    for corpus, lab in heldout:
        if lab not in model.labels:
            raise ValueError(f"unknown label {lab!r}")
        for q in corpus:
            total += 1
            correct += int(classify(model, q).label == lab)
    if total == 0:
        raise ValueError("empty held-out set")
    return correct / total


def route_mined_questions(model, mined, single_label, multi_label):
    """Partition mined questions by predicted label; other labels are dropped."""
    for lab in (single_label, multi_label):
        if lab not in model.labels:
            raise ValueError(f"unknown label {lab!r}")
    to_single = []
    to_multi = []
    for q in mined:
        lab = classify(model, q).label
        if lab == single_label:
            to_single.append(q)
        elif lab == multi_label:
            to_multi.append(q)
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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, ensure_ascii=False, sort_keys=True)
        fh.write("\n")


def load_classifier(path):
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    return LinearTextClassifier(
        labels=tuple(payload["labels"]),
        vocab=payload["vocab"],
        embeddings=np.array(payload["embeddings"], dtype=np.float64),
        weight=np.array(payload["weight"], dtype=np.float64),
        bias=np.array(payload["bias"], dtype=np.float64),
        config=TrainingConfig(**payload["config"]),
        epoch_losses=tuple(payload["epoch_losses"]),
    )
