"""Deterministic random number generation.

All randomness in the toolkit flows through one documented generator so
that a run is reproducible from its master seed alone:

* stream keys are derived from the master seed with splitmix64 applied to
  ``seed XOR fnv1a64(label)``, one label per consumer ("split", "smote",
  ("bagging", tree_index), ...);
* draws come from xoshiro256** seeded from the stream key via four
  splitmix64 outputs (the reference seeding procedure).

Equality of output is promised within this implementation only, not
across reimplementations in other languages.
"""

from __future__ import annotations

from .errors import check_int

MASK64 = (1 << 64) - 1


def splitmix64(state: int) -> tuple[int, int]:
    """Advance a splitmix64 state; returns (new_state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return state, z ^ (z >> 31)


def fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & MASK64
    return h


def derive_key(seed: int, *labels: str | int) -> int:
    """Stream key for a named consumer of the master seed.

    Labels may mix strings and integers; each is hashed and folded into
    the running key with one splitmix64 scramble, so ("bagging", 3) and
    ("bagging", 4) give unrelated streams. Every seeded stream checks its
    seed here: one that is not an integer fails as a ConfigError.
    """
    key = check_int("seed", seed) & MASK64  # a Python int: a numpy one would overflow the mask
    for label in labels:
        raw = label.to_bytes(8, "little") if isinstance(label, int) else str(label).encode()
        _, key = splitmix64(key ^ fnv1a64(raw))
    return key


class Xoshiro256StarStar:
    """xoshiro256** generator; uniform floats carry 53 random bits."""

    def __init__(self, key: int):
        state = key & MASK64
        s = []
        for _ in range(4):
            state, out = splitmix64(state)
            s.append(out)
        # the all-zero state is invalid; splitmix64 seeding cannot produce it
        self._s = s

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        result = ((s1 * 5) & MASK64)
        result = (((result << 7) | (result >> 57)) & MASK64) * 9 & MASK64
        t = (s1 << 17) & MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & MASK64
        self._s = [s0, s1, s2, s3]
        return result

    def random(self) -> float:
        """Uniform in [0, 1)."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def below(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        if n <= 0:
            raise ValueError("below() needs n >= 1")
        return (self.next_u64() * n) >> 64

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


def stream(seed: int, *labels: str | int) -> Xoshiro256StarStar:
    """Generator for the named substream of ``seed``."""
    return Xoshiro256StarStar(derive_key(seed, *labels))
