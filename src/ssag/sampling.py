"""Seeded index generation: uniform sampling and two-stage stratified draws.

Every stream wraps a PCG64 generator, so identical seeds give bit-identical
draw sequences on every platform.  Exhaustive draws (requesting a whole class
or the whole population) return ascending indices without consuming generator
state; this makes paired-trajectory oracles possible by seed sharing alone.
"""

from __future__ import annotations

import numpy as np

from .core import Dataset
from .errors import SamplingError


#: Words per block of the block sampler: about 40 KB of live Python ints.
_BLOCK_WORDS = 1024
#: Consecutive bounded draws after which a stream switches to blocks.
_BLOCK_STREAK = 128
_WORD_RANGE = 1 << 32
_WORD_MASK = _WORD_RANGE - 1


class RngStream:
    """Single-owner random stream with a logical draw counter.

    ``draws`` counts sampling calls that consumed generator state, not raw
    generator words (bounded-integer rejection may consume a variable number
    of words internally; the sequence is still seed-deterministic).

    ``bounded(k)`` returns exactly what ``int(generator.integers(k))`` would.
    After a run of consecutive bounded draws it stops calling the generator
    once per draw: it draws blocks of 32-bit words and applies numpy's
    bounded-integer map (Lemire's multiply-shift with rejection) to them in
    Python.  ``generator`` is the only access to the underlying
    `numpy.random.Generator`.  Reading it first re-synchronises a live
    block: the generator state saved before the block is restored and the
    words used so far are drawn again, so the caller sees the generator in
    the state that one scalar call per draw would have left.  Any draw made
    through it (``choice``, say) therefore continues the same stream, and
    the stream falls back to scalar draws until the next run of bounded
    draws.  Blocks change no draw and no ``draws`` count.
    """

    algorithm = "pcg64"

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._generator = np.random.Generator(np.random.PCG64(self.seed))
        self.draws = 0
        self._streak = 0       # bounded draws since the last generator access
        self._words = None     # live block of 32-bit words, or None
        self._used = 0         # words of the live block consumed so far
        self._saved = None     # bit-generator state before the live block

    @property
    def generator(self) -> np.random.Generator:
        """The underlying generator, in the state scalar draws would leave."""
        if self._words is not None:
            self._generator.bit_generator.state = self._saved
            if self._used:
                self._generator.integers(0, _WORD_RANGE, dtype=np.uint64, size=self._used)
            self._words = None
        self._streak = 0
        return self._generator

    def bounded(self, k: int) -> int:
        """Uniform integer in [0, k): exactly ``int(generator.integers(k))``.

        k = 1 consumes no generator state, as in numpy; k > 2^32 is drawn
        by the generator itself.
        """
        k = int(k)
        if k == 1:
            return 0
        if not 1 < k <= _WORD_RANGE:
            return int(self.generator.integers(k))
        if self._words is None:
            self._streak += 1
            if self._streak < _BLOCK_STREAK:
                return int(self._generator.integers(k))
            self._fill()
        while True:
            if self._used == _BLOCK_WORDS:
                self._fill()
            m = self._words[self._used] * k
            self._used += 1
            if (m & _WORD_MASK) >= (_WORD_RANGE - k) % k:
                return m >> 32

    def _fill(self) -> None:
        self._saved = self._generator.bit_generator.state
        self._words = self._generator.integers(0, _WORD_RANGE, dtype=np.uint64,
                                               size=_BLOCK_WORDS).tolist()
        self._used = 0

    def __repr__(self):
        return f"RngStream(algorithm={self.algorithm!r}, seed={self.seed}, draws={self.draws})"


def sample_class(rng: RngStream, num_classes: int) -> int:
    """Uniform class index from {0..C-1}; one draw, none when C = 1."""
    if num_classes < 1:
        raise SamplingError("need at least one class to sample from")
    if num_classes > 1:
        rng.draws += 1
    return rng.bounded(num_classes)


def sample_within_class(rng: RngStream, dataset: Dataset, class_j: int, n: int) -> np.ndarray:
    """n indices drawn uniformly without replacement from class j's cell.

    Requesting the whole class (n == N_j) returns the cell in ascending
    order without consuming generator state.  A single draw (n == 1) is
    returned as a read-only view of the cell.
    """
    cell = dataset.partition[class_j]
    if n < 1:
        raise SamplingError("batch size must be >= 1")
    if n > cell.size:
        raise SamplingError(
            f"batch size {n} exceeds class {class_j} size {cell.size}")
    if n == cell.size:
        return cell.copy()
    rng.draws += 1
    if n == 1:
        i = rng.bounded(cell.size)
        return cell[i:i + 1]
    return rng.generator.choice(cell, size=n, replace=False)


def sample_uniform(rng: RngStream, n_population: int, n: int) -> np.ndarray:
    """n indices drawn uniformly without replacement from {0..N-1}.

    Requesting the whole population returns ascending indices without
    consuming generator state.
    """
    if n < 1:
        raise SamplingError("sample size must be >= 1")
    if n > n_population:
        raise SamplingError(f"sample size {n} exceeds population {n_population}")
    if n == n_population:
        return np.arange(n_population)
    rng.draws += 1
    if n == 1:
        return np.array([rng.bounded(n_population)])
    return rng.generator.choice(n_population, size=n, replace=False)
