import numpy as np
import pytest

from qdecomp.classifier import (
    TrainingConfig,
    classify,
    evaluate_classifier,
    load_classifier,
    route_mined_questions,
    save_classifier,
    train_classifier,
)
from qdecomp.corpus import Question

from conftest import make_corpus, synthetic_labeled_split

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
    pred = classify(m, Question.from_text("x", "alpha beta the ?"))
    assert pred.probabilities.sum() == pytest.approx(1.0, abs=1e-9)
    assert pred.label == "a"
    assert not pred.degenerate


def test_all_unknown_words_degenerate():
    train, _ = synthetic_labeled_split(seed=7, n_train=30, n_heldout=0)
    m = train_classifier(train, CFG)
    pred = classify(m, Question.from_text("x", "zzzz qqqq"))
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
])
def test_training_config_rejects_bad_values(fields):
    with pytest.raises(ValueError):
        TrainingConfig(**fields)


def test_route_mined_questions():
    train, _ = synthetic_labeled_split(seed=8, n_train=60, n_heldout=0)
    m = train_classifier(train, CFG)
    mined = make_corpus(["alpha gamma of ?", "azure coral the ?", "beta delta in ?"], prefix="m")
    single, multi = route_mined_questions(m, mined, single_label="a", multi_label="b")
    assert [q.raw_text for q in single] == ["alpha gamma of ?", "beta delta in ?"]
    assert [q.raw_text for q in multi] == ["azure coral the ?"]
    with pytest.raises(ValueError):
        route_mined_questions(m, mined, single_label="a", multi_label="nope")


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
    np.testing.assert_array_equal(classify(back, q).probabilities,
                                  classify(m, q).probabilities)
