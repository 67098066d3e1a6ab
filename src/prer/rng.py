"""Deterministic random streams.

Every source of randomness in a run flows from a single seeded Rng.
Child streams are derived by hashing the parent seed together with a
string label, so adding a new consumer never shifts the draws seen by
existing ones. This is what makes per-task resumption and strategy
comparisons on the same seed bitwise reproducible.
"""

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1


class Rng(np.random.Generator):
    """numpy's PCG64 Generator, with its seed kept for labelled forking."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        super().__init__(np.random.PCG64(self.seed & _MASK64))

    def fork(self, label: str) -> "Rng":
        digest = hashlib.blake2b(
            f"{self.seed}/{label}".encode(), digest_size=8
        ).digest()
        return Rng(int.from_bytes(digest, "big"))

    def __repr__(self):
        return f"Rng(seed={self.seed})"

    __str__ = __repr__  # Generator's own names the bit generator, not the seed
