"""numpy 2.4's default_rng(seed).choice(n, size=k, replace=False), draw for draw, on Python ints:
SeedSequence(seed).generate_state(4, uint64) seeds a PCG64 (O'Neill 2014) whose XSL-RR words feed
numpy's Lemire-bounded draws; a bound below 2**32 takes half a word and keeps the other half."""

import operator
from itertools import permutations

import numpy as np

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


def _hasher(const: int, mult: int):
    """SeedSequence's hash: xor with a running constant, step the constant, multiply by it, fold."""
    def hashmix(value: int) -> int:
        nonlocal const
        value = (value ^ const) * (const := const * mult & _M32) & _M32
        return value ^ value >> 16
    return hashmix


def _mix(x: int, y: int) -> int:
    r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
    return r ^ r >> 16


def _seed_words(seed: int) -> list[int]:
    """SeedSequence(seed).generate_state(4, np.uint64): the seed's 32-bit words hashed into a 4-word pool."""
    seed = operator.index(seed)  # a numpy integer too, as default_rng takes one
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src, dst in permutations(range(4), 2):
        pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        pool = [_mix(p, hashmix(word)) for p in pool]
    out = _hasher(0x8B51F9DD, 0x58F38DED)
    halves = [out(pool[i % 4]) for i in range(8)]
    return [halves[i] | halves[i + 1] << 32 for i in range(0, 8, 2)]


class PCG64:
    """The bit generator of np.random.default_rng(seed), with the one Generator method fit calls."""

    def __init__(self, seed: int):
        s = _seed_words(seed)
        self.inc, self.state = ((s[2] << 64 | s[3]) << 1 | 1) & _M128, 0
        self.next64()
        self.state = (self.state + (s[0] << 64 | s[1])) & _M128
        self.next64()
        self.half = None  # the unused upper half of the last word a 32-bit draw split

    def next64(self) -> int:
        """bit_generator.random_raw(): step the LCG, then rotate the xor of its halves."""
        self.state = (self.state * 0x2360ED051FC65DA44385DF649FCCF645 + self.inc) & _M128
        x, rot = (self.state >> 64 ^ self.state) & _M64, self.state >> 122
        return (x >> rot | x << (64 - rot)) & _M64

    def _next32(self) -> int:
        if self.half is None:
            x = self.next64()
            self.half = x >> 32
            return x & _M32
        half, self.half = self.half, None
        return half

    def _bounded(self, top: int) -> int:
        """Uniform in [0, top], numpy's random_bounded_uint64: Lemire's rejection on 32 or 64 bits.
        A top of 2**32 - 1 or 2**64 - 1 has threshold 0 and returns one whole draw, as numpy's special case does."""
        if top == 0:
            return 0
        bits, draw = (32, self._next32) if top <= _M32 else (64, self.next64)
        threshold, m = (1 << bits) % (top + 1), draw() * (top + 1)
        while m & ((1 << bits) - 1) < threshold:
            m = draw() * (top + 1)
        return m >> bits

    def choice(self, n: int, size: int, replace: bool) -> np.ndarray:
        """Generator.choice(n, size, replace=False): Floyd's draw, or a tail shuffle of large draws."""
        if replace:
            raise ValueError("only draws without replacement are implemented")
        if n > 10000 and size > n // 50:
            idx, first = list(range(n)), max(n - size, 1)
        else:
            idx, seen, first = [], set(), 1
            for j in range(n - size, n):
                v = self._bounded(j)
                idx.append(j if v in seen else v)
                seen.add(idx[-1])
        for i in range(len(idx) - 1, first - 1, -1):  # numpy's _shuffle_int
            j = self._bounded(i)
            idx[i], idx[j] = idx[j], idx[i]
        return np.array(idx[len(idx) - size :], dtype=np.int64)
