import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qdecomp.classifier import (
    LinearTextClassifier,
    TrainingConfig,
    evaluate_classifier,
    load_classifier,
    predict,
    route_mined_questions,
    save_classifier,
    train_classifier,
)
from qdecomp.corpus import Question, QuestionCorpus

from conftest import make_corpus, synthetic_labeled_split
from oracles import classifier_train_oracle, classify_oracle

CFG = TrainingConfig(dim=16, epochs=20, learning_rate=0.5, seed=3)


def test_training_is_deterministic():
    train, _ = synthetic_labeled_split(seed=1, n_train=40, n_heldout=0)
    m1 = train_classifier(train, CFG)
    m2 = train_classifier(train, CFG)
    np.testing.assert_array_equal(m1.weight, m2.weight)
    np.testing.assert_array_equal(m1.bias, m2.bias)
    np.testing.assert_array_equal(m1.embeddings, m2.embeddings)
    assert m1.epoch_losses == m2.epoch_losses


def test_seed_changes_model():
    train, _ = synthetic_labeled_split(seed=1, n_train=40, n_heldout=0)
    m1 = train_classifier(train, CFG)
    m2 = train_classifier(train, TrainingConfig(dim=16, epochs=20, learning_rate=0.5, seed=4))
    assert not np.array_equal(m1.weight, m2.weight)


def test_loss_decreases():
    train, _ = synthetic_labeled_split(seed=2, n_train=60, n_heldout=0)
    m = train_classifier(train, CFG)
    assert len(m.epoch_losses) == CFG.epochs
    assert m.epoch_losses[-1] < m.epoch_losses[0]


def test_separable_fixture_is_learned():
    train, heldout = synthetic_labeled_split(seed=5, n_train=60, n_heldout=40)
    m = train_classifier(train, CFG)
    assert evaluate_classifier(m, heldout) == 1.0


def test_labels_sorted_and_probs_normalized():
    train, _ = synthetic_labeled_split(seed=6, n_train=30, n_heldout=0)
    m = train_classifier(train, CFG)
    assert list(m.labels) == sorted(m.labels)
    q = Question.from_text("x", "alpha beta the ?")
    pred = next(predict(m, [q.tokens]))
    assert pred.probabilities.sum() == pytest.approx(1.0, abs=1e-9)
    assert pred.label == "a"
    assert not pred.degenerate


def test_all_unknown_words_degenerate():
    train, _ = synthetic_labeled_split(seed=7, n_train=30, n_heldout=0)
    m = train_classifier(train, CFG)
    q = Question.from_text("x", "zzzz qqqq")
    pred = next(predict(m, [q.tokens]))
    assert pred.degenerate
    assert pred.probabilities[0] == pytest.approx(pred.probabilities[1], abs=1e-12)


def test_min_count_prunes_vocabulary():
    texts_a = ["alpha alpha common ?"] * 5 + ["alpha rareword ?"]
    texts_b = ["crimson common ?"] * 6
    labeled = [(make_corpus(texts_a, prefix="a"), "a"),
               (make_corpus(texts_b, prefix="b"), "b")]
    m = train_classifier(labeled, TrainingConfig(dim=8, epochs=2, learning_rate=0.5,
                                                 min_count=2, seed=0))
    assert "rareword" not in m.vocab
    assert "alpha" in m.vocab


def test_empty_vocabulary_rejected():
    labeled = [(make_corpus(["alpha beta ?"] * 3, prefix="a"), "a"),
               (make_corpus(["gamma ?"] * 2, prefix="b"), "b")]
    with pytest.raises(ValueError, match=r"min_count=6\b.* occurs 5 times"):
        train_classifier(labeled, TrainingConfig(dim=4, min_count=6))


def test_training_stops_at_the_first_diverged_epoch():
    # the first batches at this rate overflow the weights to NaN
    train, _ = synthetic_labeled_split(seed=2, n_train=60, n_heldout=0)
    config = TrainingConfig(dim=16, epochs=50, learning_rate=1e300, seed=3)
    with np.errstate(all="ignore"), pytest.raises(
            ValueError, match=r"^training diverged: epoch 1 has mean loss nan"):
        train_classifier(train, config)


def test_empty_training_rejected():
    with pytest.raises(ValueError):
        train_classifier([], CFG)


@pytest.mark.parametrize("fields", [
    {"dim": 0},
    {"epochs": 0},
    {"batch_size": 0},
    {"learning_rate": 0.0},
    {"learning_rate": -0.1},
    {"learning_rate": float("nan")},
    {"learning_rate": float("inf")},
    {"seed": -1},
    {"min_count": 0},
])
def test_training_config_rejects_bad_values(fields):
    with pytest.raises(ValueError):
        TrainingConfig(**fields)


def test_route_mined_questions():
    train, _ = synthetic_labeled_split(seed=8, n_train=60, n_heldout=0)
    m = train_classifier(train, CFG)
    mined = make_corpus(["alpha gamma of ?", "azure coral the ?", "beta delta in ?"], prefix="m")
    single, multi = route_mined_questions(m, mined, single_label="a",
                                          multi_label="b")
    assert (single, multi) == ([0, 2], [1])
    with pytest.raises(ValueError):
        route_mined_questions(m, mined, single_label="a",
                              multi_label="nope")


def test_save_load_round_trip_exact(tmp_path):
    train, _ = synthetic_labeled_split(seed=9, n_train=40, n_heldout=0)
    m = train_classifier(train, CFG)
    p = tmp_path / "clf.json"
    save_classifier(m, p)
    back = load_classifier(p)
    np.testing.assert_array_equal(back.weight, m.weight)
    np.testing.assert_array_equal(back.bias, m.bias)
    np.testing.assert_array_equal(back.embeddings, m.embeddings)
    assert back.vocab == m.vocab
    assert back.labels == m.labels
    q = Question.from_text("x", "alpha the azure ?")
    got = next(predict(back, [q.tokens]))
    want = next(predict(m, [q.tokens]))
    np.testing.assert_array_equal(got.probabilities, want.probabilities)


def _saved_bytes(model, path):
    save_classifier(model, path)
    return path.read_bytes()


@settings(max_examples=40, deadline=None)
@given(sizes=st.lists(st.integers(1, 8), min_size=2, max_size=12),
       dim=st.sampled_from([1, 2, 3, 16, 33]),
       epochs=st.integers(1, 3),
       learning_rate=st.sampled_from([0.5, 1.0, 4.0]),
       batch_size=st.integers(1, 40),
       min_count=st.integers(1, 3),
       seed=st.integers(0, 2**16),
       text_seed=st.integers(0, 2**16))
# dim 1 (pairwise token means), more than 8 labels (pairwise softmax sum)
# and a batch size that does not divide the 27 examples
@example(sizes=[3] * 9, dim=1, epochs=2, learning_rate=1.0, batch_size=5,
         min_count=1, seed=0, text_seed=1)
@example(sizes=[4, 7], dim=16, epochs=3, learning_rate=4.0, batch_size=3,
         min_count=2, seed=5, text_seed=2)
# one example per batch
@example(sizes=[5, 6], dim=2, epochs=2, learning_rate=1.0, batch_size=1,
         min_count=1, seed=1, text_seed=3)
# one batch per epoch: batch_size at least the 12 examples
@example(sizes=[4, 3, 5], dim=16, epochs=3, learning_rate=0.5,
         batch_size=40, min_count=1, seed=2, text_seed=4)
# every example with features has 11 tokens: one length group per batch
@example(sizes=[1, 4], dim=1, epochs=2, learning_rate=1.0, batch_size=2,
         min_count=1, seed=3, text_seed=41884)
def test_batched_classifier_equals_per_example_oracle(
        tmp_path_factory, sizes, dim, epochs, learning_rate, batch_size,
        min_count, seed, text_seed):
    rng = np.random.default_rng(text_seed)
    words = [f"w{i}" for i in range(10)]
    labeled, generated = [], []
    for li, size in enumerate(sizes):
        token_lists = [tuple(rng.choice(words, size=rng.integers(0, 25)))
                       for _ in range(size)]
        if li == 0:
            token_lists[0] = ()  # an example with no features
        labeled.append((QuestionCorpus(
            [f"l{li}q{j}" for j in range(size)],
            [" ".join(toks) for toks in token_lists]), f"label{li}"))
        generated.append((token_lists, f"label{li}"))
    config = TrainingConfig(dim=dim, epochs=epochs,
                            learning_rate=learning_rate,
                            batch_size=batch_size, min_count=min_count,
                            seed=seed)
    labels, vocab, emb, weight, bias, losses = classifier_train_oracle(
        generated,
        dim, epochs, learning_rate, batch_size, min_count, seed)
    if not vocab:
        with pytest.raises(ValueError, match="min_count"):
            train_classifier(labeled, config)
        return
    model = train_classifier(labeled, config)
    oracle = LinearTextClassifier(labels=labels, vocab=vocab, embeddings=emb,
                                  weight=weight, bias=bias, config=config,
                                  epoch_losses=losses)
    tmp = tmp_path_factory.mktemp("clf")
    assert (_saved_bytes(model, tmp / "batched.json")
            == _saved_bytes(oracle, tmp / "oracle.json"))

    token_lists = [toks for lists, _ in generated for toks in lists]
    token_lists.append(("zzz",))
    for tokens, pred in zip(token_lists, predict(model, token_lists),
                            strict=True):
        label, probs, degenerate = classify_oracle(
            tokens, model.labels, model.vocab, model.embeddings,
            model.weight, model.bias)
        assert (pred.label, pred.degenerate) == (label, degenerate)
        assert pred.probabilities.tobytes() == probs.tobytes()


# The batched classifier repeats the per-example arithmetic only because
# numpy and BLAS behave as the pins below state; a numpy or BLAS change that
# breaks one fails here by name.

@pytest.mark.parametrize("k, dim", [(2, 1), (2, 16), (3, 48), (9, 1),
                                    (12, 33)])
def test_stacked_matmul_is_one_gemv_per_row(k, dim):
    rng = np.random.default_rng(k * 100 + dim)
    w = rng.normal(size=(k, dim))
    h = rng.normal(size=(50, dim)) * 10.0 ** rng.integers(-4, 5, (50, dim))
    d = rng.normal(size=(50, k)) * 10.0 ** rng.integers(-4, 5, (50, k))
    forward = np.matmul(w[None], h[:, :, None])[:, :, 0]
    backward = np.matmul(w.T[None], d[:, :, None])[:, :, 0]
    for i in range(50):
        assert forward[i].tobytes() == (w @ h[i]).tobytes()
        assert backward[i].tobytes() == (w.T @ d[i]).tobytes()


@pytest.mark.parametrize("dim", [1, 2, 16, 33])
def test_flat_add_at_is_the_row_wise_add_at(dim):
    # element (row, column) of m.reshape(-1) is at row * dim + column, and
    # np.add.at adds in index order, so each element sees its rows in order
    rng = np.random.default_rng(dim + 7)
    rows = rng.integers(0, 6, 40)  # six rows, each repeated
    updates = rng.normal(size=(40, dim)) * 10.0 ** rng.integers(-8, 9,
                                                                 (40, dim))
    m = rng.normal(size=(6, dim))
    row_wise, flat = m.copy(), m.copy()
    np.add.at(row_wise, rows, updates)
    np.add.at(flat.reshape(-1), (rows[:, None] * dim + np.arange(dim)).ravel(),
              updates.ravel())
    assert flat.tobytes() == row_wise.tobytes()


@pytest.mark.parametrize("dim", [1, 2, 16])
def test_equal_length_reduce_is_per_row_mean(dim):
    # at dim 1 a row's mean sums its column pairwise from 8 tokens on
    rng = np.random.default_rng(dim)
    for ell in (1, 2, 7, 8, 9, 16, 17, 40, 130):
        rows = (rng.normal(size=(6, ell, dim))
                * 10.0 ** rng.integers(-6, 7, (6, ell, 1)))
        grouped = np.add.reduce(rows, axis=1) / ell
        for g in range(6):
            assert grouped[g].tobytes() == rows[g].mean(axis=0).tobytes()


@pytest.mark.parametrize("shape", [(1, 3), (8, 2, 16), (40, 9, 1), (300, 5)])
def test_accumulate_is_the_sequential_sum(shape):
    rng = np.random.default_rng(len(shape) * 1000 + shape[0])
    terms = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, shape)
    terms[0, ...] = -0.0  # a leading -0.0 row: the += loop starts at +0.0
    total = np.zeros(shape[1:])
    for row in terms:
        total += row
    assert (0.0 + np.add.accumulate(terms, axis=0)[-1]).tobytes() == \
        total.tobytes()
    zeros = np.full(shape, -0.0)
    assert (0.0 + np.add.accumulate(zeros, axis=0)[-1]).tobytes() == \
        np.zeros(shape[1:]).tobytes()
