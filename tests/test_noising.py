import io
import json
import math
import tempfile
from contextlib import redirect_stderr
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdecomp import noising
from qdecomp.cli import main
from qdecomp.noising import NoiseConfig, local_shuffle, noise_tokens, word_dropout
from qdecomp.rng import substream

from oracles import noise_jsonl_oracle, noise_tokens_oracle

TOKENS = [f"t{i}" for i in range(20)]


def test_config_validation():
    with pytest.raises(ValueError):
        NoiseConfig(mask_prob=-0.1)
    with pytest.raises(ValueError):
        NoiseConfig(drop_prob=1.5)
    with pytest.raises(ValueError):
        NoiseConfig(shuffle_window=-1)
    with pytest.raises(ValueError):
        NoiseConfig(seed=-1)
    NoiseConfig(mask_prob=0.0, drop_prob=0.0, shuffle_window=0)  # all-off is legal


@given(st.lists(st.integers(0, 9), max_size=30), st.integers(0, 5), st.integers(0, 2 ** 31))
@settings(max_examples=200)
def test_shuffle_displacement_bounded_and_multiset_preserved(vals, window, seed):
    tokens = [str(v) for v in vals]
    # tag positions so identical tokens stay distinguishable
    tagged = [f"{t}#{i}" for i, t in enumerate(tokens)]
    out = local_shuffle(tagged, window, np.random.default_rng(seed))
    assert sorted(out) == sorted(tagged)
    for new_pos, tok in enumerate(out):
        old_pos = int(tok.rsplit("#", 1)[1])
        assert abs(new_pos - old_pos) <= window


def test_shuffle_window_zero_is_identity():
    rng = np.random.default_rng(0)
    assert local_shuffle(TOKENS, 0, rng) == TOKENS


def test_dropout_keeps_order():
    rng = np.random.default_rng(1)
    out = word_dropout(TOKENS, 0.5, rng)
    positions = [TOKENS.index(t) for t in out]
    assert positions == sorted(positions)


def test_dropout_p_zero_and_one():
    rng = np.random.default_rng(2)
    assert word_dropout(TOKENS, 0.0, rng) == TOKENS
    assert word_dropout(TOKENS, 1.0, rng) == []
    with pytest.raises(ValueError):
        word_dropout(TOKENS, 1.2, rng)


def test_dropout_survivor_mean_within_3_sigma():
    # 10k independent trials, each dropping 20 tokens with p=0.15:
    # survivors ~ Binomial(20, 0.85), mean 17, sd sqrt(20*.85*.15)
    trials = 10_000
    p = 0.15
    rng = substream(123, "dropout-stats")
    total = sum(len(word_dropout(TOKENS, p, rng)) for _ in range(trials))
    mean = total / trials
    sigma_mean = math.sqrt(20 * p * (1 - p)) / math.sqrt(trials)
    assert abs(mean - 17.0) <= 3 * sigma_mean


def test_mask_rate_within_3_sigma():
    trials = 5_000
    cfg = NoiseConfig(mask_prob=0.3, drop_prob=0.0, shuffle_window=0)
    rng = substream(77, "mask-stats")
    masked = 0
    for _ in range(trials):
        out = noise_tokens(TOKENS, cfg, rng)
        assert len(out) == len(TOKENS)
        masked += sum(t == cfg.mask_token for t in out)
    rate = masked / (trials * len(TOKENS))
    sigma = math.sqrt(0.3 * 0.7 / (trials * len(TOKENS)))
    assert abs(rate - 0.3) <= 3 * sigma


def test_noise_tokens_deterministic_from_config_seed():
    cfg = NoiseConfig(seed=9)
    assert noise_tokens(TOKENS, cfg) == noise_tokens(TOKENS, cfg)


def test_noise_tokens_empty_input():
    assert noise_tokens([], NoiseConfig()) == []


def test_noise_applies_shuffle_before_drop_before_mask():
    # with window=0 and drop=0, only masking can change tokens
    cfg = NoiseConfig(mask_prob=1.0, drop_prob=0.0, shuffle_window=0)
    out = noise_tokens(TOKENS, cfg, np.random.default_rng(0))
    assert out == [cfg.mask_token] * len(TOKENS)
    # with mask=0 and drop=1 everything disappears regardless of shuffling
    cfg = NoiseConfig(mask_prob=0.0, drop_prob=1.0, shuffle_window=3)
    assert noise_tokens(TOKENS, cfg, np.random.default_rng(0)) == []


# lowercase words without punctuation, so the corpus tokens are text.split()
WORDS = ["who", "wrote", "x1", "\u00e9t\u00e9", "\u65e5\u672c", "<mask>"]
SEEDS = [0, 2 ** 32 - 1, 2 ** 32, 2 ** 100]


def _noise_cli_equals_oracle(tmp, token_lists, window, drop, mask, seed):
    records = [(f'q"{i}\u00e9', tokens)
               for i, tokens in enumerate(token_lists)]
    corpus, out = Path(tmp) / "c.jsonl", Path(tmp) / "n.jsonl"
    corpus.write_text("".join(
        json.dumps({"id": qid, "text": " ".join(tokens)}) + "\n"
        for qid, tokens in records), encoding="utf-8")
    argv = ["noise", "--corpus", str(corpus), "--out", str(out),
            "--shuffle-window", str(window), "--drop-prob", str(drop),
            "--mask-prob", str(mask), "--seed", str(seed)]
    if not records:  # a 0-byte corpus has no records to noise
        with redirect_stderr(io.StringIO()) as err:
            assert main(argv) == 2
        assert err.getvalue() == f"error: {corpus}: no records\n"
        assert not out.exists()
        return
    assert main(argv) == 0
    expected = noise_jsonl_oracle(records, mask, drop, window, "<mask>", seed)
    assert out.read_bytes() == expected.encode("utf-8")


@given(st.lists(st.lists(st.sampled_from(WORDS), max_size=5), max_size=12),
       st.sampled_from([0, 1, 3, 7]), st.sampled_from([0.0, 0.1, 1.0]),
       st.sampled_from([0.0, 0.3, 1.0]), st.sampled_from(SEEDS),
       st.sampled_from([1, 2, 5, noising.NOISE_BLOCK]))
@settings(max_examples=80, deadline=None)
def test_noise_output_equals_the_per_record_loop(token_lists, window, drop,
                                                 mask, seed, block):
    # small blocks put most corpora across several passes of the core
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(noising, "NOISE_BLOCK", block):
        _noise_cli_equals_oracle(tmp, token_lists, window, drop, mask, seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_noise_output_across_full_blocks_equals_the_per_record_loop(
        tmp_path, capsys, seed):
    rng = np.random.default_rng(seed % 97)
    token_lists = [list(rng.choice(WORDS, size=rng.integers(0, 6)))
                   for _ in range(2 * noising.NOISE_BLOCK + 3)]
    _noise_cli_equals_oracle(tmp_path, token_lists, 3, 0.1, 0.3, seed)


@pytest.mark.parametrize("window", [1, 3, 7, 1000])
def test_uniform_is_window_times_random_bitwise(window):
    # the core's shuffle keys rest on this: uniform(0.0, w, n) == w * random(n)
    a = np.random.default_rng(window).uniform(0.0, window, 10_000)
    b = window * np.random.default_rng(window).random(10_000)
    assert a.tobytes() == b.tobytes()


@given(st.lists(st.sampled_from(WORDS), max_size=8),
       st.sampled_from([0, 1, 3, 7]), st.sampled_from([0.0, 0.1, 0.5, 1.0]),
       st.sampled_from([0.0, 0.3, 1.0]), st.integers(0, 2 ** 32))
@settings(max_examples=200, deadline=None)
def test_noise_tokens_takes_the_per_record_draws(tokens, window, drop, mask,
                                                 seed):
    config = NoiseConfig(mask_prob=mask, drop_prob=drop, shuffle_window=window)
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    assert noise_tokens(tokens, config, ours) == noise_tokens_oracle(
        tokens, mask, drop, window, config.mask_token, theirs)
    assert ours.random() == theirs.random()
