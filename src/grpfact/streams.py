"""Seeded integer streams, drawn the way ``numpy.random`` draws them.

``Stream(seed).integers(low, high)`` returns the same scalars, in the same
order, as ``numpy.random.default_rng(seed).integers(low, high)``: a
``SeedSequence`` pool, a PCG64 (XSL-RR 128/64) generator seeded as numpy
seeds it, 32-bit outputs taken from the halves of each 64-bit output (low
half first, the high half kept for the next draw), and Lemire's bounded
method with numpy's rejection threshold.  Claim streams run on this class,
so a verify pass does not load ``numpy.random``; anything that only calls
``.integers`` with scalar bounds may be handed either one.

Only ranges below 2^32 are drawn (numpy switches to 64-bit draws above
that); the package's largest range is a domain of 200,000 points.
"""

from __future__ import annotations

from operator import index

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1

# numpy/random/bit_generator.pyx
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

# PCG_DEFAULT_MULTIPLIER_128
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed: int) -> list[int]:
    """The seed as 32-bit words, least significant first ([0] for 0)."""
    if seed < 0:
        raise ValueError("a stream seed must be non-negative")
    words = [seed & _M32]
    seed >>= 32
    while seed:
        words.append(seed & _M32)
        seed >>= 32
    return words


def _pool(seed: int) -> list[int]:
    """``SeedSequence(seed).pool``: the entropy hashed into four words."""
    entropy = _seed_words(seed)
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value ^= const
        const = const * _MULT_A & _M32
        value = value * const & _M32
        return value ^ value >> 16

    def mix(x, y):
        r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _generate_state64(pool: list[int], n_words: int) -> list[int]:
    """``SeedSequence.generate_state(n_words, np.uint64)``."""
    const = _INIT_B
    out32 = []
    for i in range(2 * n_words):
        value = pool[i % _POOL_SIZE] ^ const
        const = const * _MULT_B & _M32
        value = value * const & _M32
        out32.append(value ^ value >> 16)
    return [out32[2 * k] | out32[2 * k + 1] << 32 for k in range(n_words)]


class Stream:
    """``numpy.random.default_rng(seed)``, for scalar ``integers`` draws."""

    __slots__ = ("_state", "_inc", "_high")

    def __init__(self, seed: int):
        s0, s1, i0, i1 = _generate_state64(_pool(index(seed)), 4)
        # pcg_setseq_128_srandom_r: one step from state 0 gives inc; add the
        # initial state and step again
        self._inc = ((i0 << 64 | i1) << 1 | 1) & _M128
        self._state = (self._inc + (s0 << 64 | s1)) * _PCG_MULT + self._inc & _M128
        self._high = None

    def integers(self, low, high=None) -> int:
        """A uniform integer of [low, high), or of [0, low) without high."""
        if high is None:
            low, high = 0, low
        low = index(low)
        excl = index(high) - low
        if excl == 1:
            return low  # numpy draws nothing for a one-point range
        if not 1 < excl <= _M32:
            raise ValueError(f"range [{low}, {high}) is empty or needs 64-bit draws")
        # Lemire: accept m = r * excl unless its low word falls below
        # 2^32 mod excl, which numpy computes as (2^32 - excl) % excl
        threshold = (_M32 + 1 - excl) % excl
        while True:
            r = self._high
            if r is None:
                state = self._state = self._state * _PCG_MULT + self._inc & _M128
                # XSL-RR: xor the halves, rotate right by the top six bits
                x = (state >> 64 ^ state) & _M64
                rot = state >> 122
                x = (x >> rot | x << (64 - rot)) & _M64
                self._high = x >> 32
                r = x & _M32
            else:
                self._high = None
            m = r * excl
            if m & _M32 >= threshold:
                return low + (m >> 32)
