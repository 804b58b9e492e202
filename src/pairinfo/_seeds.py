"""PCG64 generators on seed words derived in advance.

Kept out of :mod:`pairinfo.montecarlo`, which imports this module on the
first substream, so that importing pairinfo does not load ``numpy.random``.
"""

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence


class PrecomputedSeeds(ISeedSequence):
    """The seed sequence that hands PCG64 its 4 uint64 seed words as given."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64 and np.dtype(dtype) != np.uint64:
            raise ValueError(
                f"precomputed seeds hold 4 uint64 words, not {n_words} of {np.dtype(dtype)}"
            )
        return self.words


def generator(words: np.ndarray) -> Generator:
    """PCG64 on the 4 uint64 seed ``words``."""
    return Generator(PCG64(PrecomputedSeeds(words)))
