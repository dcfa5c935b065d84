import numpy as np
import pytest

from qdecomp.rng import (child_seed, child_seed_sequence, substream,
                         substream_uniforms)


def test_substream_is_deterministic():
    a = substream(7, "noise", 3).random(5)
    b = substream(7, "noise", 3).random(5)
    assert np.array_equal(a, b)


def test_stages_and_indices_give_distinct_streams():
    base = substream(7, "noise", 3).random(4)
    assert not np.array_equal(base, substream(7, "shuffle", 3).random(4))
    assert not np.array_equal(base, substream(7, "noise", 4).random(4))
    assert not np.array_equal(base, substream(8, "noise", 3).random(4))


def test_child_seed_is_stable_int():
    s1 = child_seed(0, "classifier-init")
    s2 = child_seed(0, "classifier-init")
    assert s1 == s2
    assert isinstance(s1, int)
    assert 0 <= s1 < 2 ** 64


def test_nested_indices():
    seq = child_seed_sequence(1, "stage", 2, 5)
    assert np.random.default_rng(seq).random() == substream(1, "stage", 2, 5).random()


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        substream(-1, "x")


@pytest.mark.parametrize("seed",
                         [0, 7, 2 ** 32 - 1, 2 ** 32, 2 ** 64, 2 ** 100])
@pytest.mark.parametrize("stage", ["noise", "\u00e9tape-\u65e5\u672c"])
@pytest.mark.parametrize("start", [0, 2 ** 32 - 9])
def test_substream_uniforms_equal_per_index_draws(seed, stage, start):
    counts = [0, 3, 1, 0, 0, 7, 2, 0]
    expected = np.concatenate([substream(seed, stage, start + i).random(c)
                               for i, c in enumerate(counts)])
    got = substream_uniforms(seed, stage, counts, start=start)
    assert got.tobytes() == expected.tobytes()


def test_substream_uniforms_edges():
    assert substream_uniforms(3, "noise", []).shape == (0,)
    assert substream_uniforms(3, "noise", [0, 0]).shape == (0,)
    with pytest.raises(ValueError):
        substream_uniforms(-1, "noise", [1])
    with pytest.raises(ValueError):
        substream_uniforms(0, "noise", [1, 1], start=2 ** 32 - 1)
