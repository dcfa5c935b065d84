"""Deterministic named RNG substreams derived from one global seed."""

import zlib

import numpy as np

# numpy's SeedSequence (pool of 4 words) and PCG64 constants. NEP 19 fixes
# both streams across numpy releases, so substream_uniforms can rebuild
# them in bulk.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1


def child_seed_sequence(seed, stage, *indices):
    """SeedSequence for a named stage (and optional record indices)."""
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    entropy = [int(seed), zlib.crc32(stage.encode("utf-8"))]
    entropy.extend(int(i) for i in indices)
    return np.random.SeedSequence(entropy)


def substream(seed, stage, *indices):
    """Generator for a named stage; disjoint across stages and indices."""
    return np.random.default_rng(child_seed_sequence(seed, stage, *indices))


def child_seed(seed, stage, *indices):
    """Plain integer seed derived from a named substream (for seed-taking APIs)."""
    state = child_seed_sequence(seed, stage, *indices).generate_state(2)
    return int(state[0]) + (int(state[1]) << 32)


def _words(n):
    """A non-negative int as SeedSequence reads it: little-endian uint32
    words, one word for 0."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hashmix(value, const, mult=_MULT_A):
    """SeedSequence's hashmix on uint32 arrays; returns (value, next const).
    With ``mult=_MULT_B`` it is one step of generate_state."""
    value = value ^ np.uint32(const)
    const = const * mult & _MASK32
    value = value * np.uint32(const)
    return value ^ (value >> np.uint32(16)), const


def _mix(x, y):
    result = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return result ^ (result >> np.uint32(16))


def _pools(entropy):
    """SeedSequence.pool, one column per sequence: ``entropy`` holds one
    uint32 array per entropy word."""
    const = _INIT_A
    pool = []
    for i in range(_POOL):
        word = entropy[i] if i < len(entropy) else np.zeros_like(entropy[0])
        value, const = _hashmix(word, const)
        pool.append(value)
    # every word mixes into every other, late words into early ones too
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                value, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], value)
    # entropy beyond the pool mixes into each pool word in turn
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            value, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], value)
    return pool


def _pcg64_states(pool):
    """(state, inc) of the PCG64 each pool seeds: generate_state(4, uint64)
    gives the seed and increment words, then PCG64's two-step seeding."""
    const = _INIT_B
    halves = []
    for i in range(2 * _POOL):
        value, const = _hashmix(pool[i % _POOL], const, _MULT_B)
        halves.append(value.astype(np.uint64))
    w = [(halves[2 * j] | halves[2 * j + 1] << np.uint64(32)).tolist()
         for j in range(4)]
    for s_hi, s_lo, i_hi, i_lo in zip(*w):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        yield ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128, inc


def substream_uniforms(seed, stage, counts, start=0):
    """Uniform draws of many substreams at once, in one flat float64 array.

    Holds, in order for each i, the values of
    ``substream(seed, stage, start + i).random(counts[i])``, bit for bit:
    the SeedSequence pools and PCG64 states of all positions are computed
    together, and one reused generator fills each slice. Positions must be
    below 2**32.
    """
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    counts = np.asarray(counts, dtype=np.int64)
    if start < 0 or start + len(counts) > 1 << 32:
        raise ValueError("substream positions must be in [0, 2**32)")
    positions = np.arange(start, start + len(counts), dtype=np.uint32)
    entropy = [np.full(len(counts), word, dtype=np.uint32)
               for word in _words(int(seed))
               + [zlib.crc32(stage.encode("utf-8"))]] + [positions]
    ends = np.cumsum(counts)
    out = np.empty(int(ends[-1]) if len(ends) else 0)
    gen = np.random.Generator(np.random.PCG64(0))
    for (state, inc), count, end in zip(_pcg64_states(_pools(entropy)),
                                        counts.tolist(), ends.tolist()):
        if count:
            gen.bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0, "uinteger": 0}
            gen.random(out=out[end - count:end])
    return out
