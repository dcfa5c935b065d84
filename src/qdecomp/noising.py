"""Token-level noising: local shuffle, dropout, and masking.

Applied in the order shuffle, drop, mask. The shuffle sorts positions by
i + u_i with u_i uniform in [0, k] (stable sort), which bounds every token's
displacement by k.

One vectorised core noises a batch of token lists, each from its own
uniform draws; ``noise_corpus`` feeds it blocks of a corpus, and
``noise_tokens`` is a batch of one.
"""

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .corpus import tokenize_cased
from .rng import substream_uniforms

NOISE_BLOCK = 1024  # token lists noised per pass of the core


@dataclass(frozen=True)
class NoiseConfig:
    mask_prob: float = 0.15
    drop_prob: float = 0.1
    shuffle_window: int = 3
    mask_token: str = "<mask>"
    seed: int = 0

    def __post_init__(self):
        for name in ("mask_prob", "drop_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if self.shuffle_window < 0:
            raise ValueError("shuffle_window must be non-negative")
        # noised tokens are joined by spaces and tokenized again downstream
        if tokenize_cased(self.mask_token) != [self.mask_token]:
            raise ValueError(f"mask_token {self.mask_token!r} is not one token")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


def _segments(token_lists, config):
    """Per list: its length and the shuffle and dropout draws it takes (n
    each, or 0 where that step leaves the list as it is)."""
    lengths = np.fromiter(map(len, token_lists), np.int64, len(token_lists))
    none = np.zeros_like(lengths)
    shuffle = lengths * (lengths >= 2) if config.shuffle_window > 0 else none
    drop = lengths if config.drop_prob > 0.0 else none
    return lengths, shuffle, drop


def _noise_batch(token_lists, config, draws, starts):
    """Noised copies of token lists, each from its own uniform draws.

    List i's draws begin at ``draws[starts[i]]``, laid out [shuffle n |
    drop n | mask m]: the shuffle keys' uniforms (key j + w * u_j, since
    ``uniform(0.0, w, n)`` is bitwise ``w * random(n)``), the dropout draws
    of the shuffled list, then the mask draws of its m survivors (more may
    follow, unread). A segment is absent where its step draws nothing.
    """
    lengths, shuffle, drop = _segments(token_lists, config)
    first = np.cumsum(lengths) - lengths
    record = np.repeat(np.arange(len(lengths)), lengths)
    pos = np.arange(len(record)) - first[record]
    keys = pos.astype(np.float64)
    shuffled = np.flatnonzero(shuffle[record])
    keys[shuffled] += config.shuffle_window * draws[
        starts[record[shuffled]] + pos[shuffled]]
    order = np.lexsort((keys, record))
    if config.drop_prob > 0.0:
        keep = draws[(starts + shuffle)[record] + pos] >= config.drop_prob
    else:
        keep = np.ones(len(record), dtype=bool)
    kept_before = np.concatenate(([0], np.cumsum(keep)))
    survivors = np.flatnonzero(keep)
    flat = [token for tokens in token_lists for token in tokens]
    out = [flat[i] for i in order[survivors].tolist()]
    if config.mask_prob > 0.0:
        r = record[survivors]
        rank = np.arange(len(survivors)) - kept_before[first][r]
        masked = draws[(starts + shuffle + drop)[r] + rank] < config.mask_prob
        for j in np.flatnonzero(masked).tolist():
            out[j] = config.mask_token
    return [out[a:b] for a, b in zip(kept_before[first].tolist(),
                                      kept_before[first + lengths].tolist())]


def noise_corpus(token_lists, config):
    """Yield a noised copy of each token list, in order.

    List i is noised from the substream ``(config.seed, "noise", i)``;
    blocks of NOISE_BLOCK lists draw all their substreams at once and go
    through the core in one pass.
    """
    token_lists = iter(token_lists)
    done = 0
    while block := list(islice(token_lists, NOISE_BLOCK)):
        lengths, shuffle, drop = _segments(block, config)
        counts = shuffle + drop + (lengths if config.mask_prob > 0.0 else 0)
        draws = substream_uniforms(config.seed, "noise", counts, start=done)
        yield from _noise_batch(block, config, draws,
                                np.cumsum(counts) - counts)
        done += len(block)


def noise_tokens(tokens, config, rng=None):
    """Noised copy of a token list: shuffle, then drop, then mask.

    Takes 2n draws from ``rng`` for shuffle and dropout, then one per
    survivor for the mask, each only where that step applies.
    Deterministic for a given config and rng state; with rng omitted a fresh
    generator is seeded from config.seed.
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    tokens = list(tokens)
    _, shuffle, drop = _segments([tokens], config)
    draws = rng.random(int(shuffle[0] + drop[0]))
    survivors = len(tokens)
    if drop[0]:
        survivors = np.count_nonzero(draws[shuffle[0]:] >= config.drop_prob)
    if config.mask_prob > 0.0 and survivors:
        draws = np.concatenate((draws, rng.random(survivors)))
    return _noise_batch([tokens], config, draws, np.zeros(1, np.int64))[0]


def local_shuffle(tokens, window, rng):
    """Permute tokens with displacement at most ``window``."""
    return noise_tokens(tokens, NoiseConfig(mask_prob=0.0, drop_prob=0.0,
                                            shuffle_window=window), rng)


def word_dropout(tokens, p, rng):
    """Drop each token independently with probability p; order preserved."""
    return noise_tokens(tokens, NoiseConfig(mask_prob=0.0, drop_prob=p,
                                            shuffle_window=0), rng)
