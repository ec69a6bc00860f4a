"""Seeded index generation: two-stage stratified draws, and uniform draws as
their one-stratum case.

Every stream reads the 32-bit words of one PCG64 generator in order: the
low, then the high half of each raw 64-bit output, the order in which numpy
draws bounded integers.  Identical seeds give bit-identical draws on every
platform.  A draw is numpy's: a class in [0, C) is Lemire's multiply-shift
of one word with rejection, and n indices without replacement are Floyd's
algorithm followed by a Fisher-Yates shuffle, exactly what
`Generator.integers` and `Generator.choice(..., replace=False)` return.  One
index is Floyd's first round, which maps the word `integers` would map.
`RngStream.take` returns many steps' draws, a stratum and a batch inside it
per step, from the arrays that `draw_schedule` computes for them at once; the
`sample_*` functions draw one step through the generator.

Exhaustive draws (requesting a whole class or the whole population) return
ascending indices without consuming generator state; this makes
paired-trajectory oracles possible by seed sharing alone.
"""

from __future__ import annotations

import numpy as np

from .core import Dataset
from .errors import SamplingError

_WORD = 1 << 32
_LOW = np.uint64(_WORD - 1)
#: Larger batches are drawn by `Generator.choice`, which costs less per
#: index than the vectorised draw beyond about this size.  They include every
#: batch numpy draws by shuffling the tail of arange(pop) instead of running
#: Floyd's algorithm: it does so only when pop > 10 000 and n > pop // 50.
_MAX_VECTOR_BATCH = 64


def _lemire(words: np.ndarray, k) -> tuple[np.ndarray, np.ndarray]:
    """Each 32-bit word mapped into [0, k), and whether numpy keeps it.

    numpy rejects a word whose low product half lies below (2^32 - k) % k
    and draws again from the next word.
    """
    m = words * k
    return (m >> 32).astype(np.int64), (m & _LOW) >= (_WORD - k) % k


def _within_words(sizes: np.ndarray, n: int) -> np.ndarray:
    """Words each stratum's within draw takes: 0 for the whole stratum,
    Floyd's n plus the shuffle's n - 1 otherwise.  -1 marks a draw left to
    the generator: a batch above _MAX_VECTOR_BATCH, one the stratum cannot
    hold, or one from a stratum above 2^32, whose bounds numpy draws from
    64-bit words."""
    words = np.full(sizes.shape, -1 if n > _MAX_VECTOR_BATCH else 2 * n - 1)
    words[sizes == n] = 0
    words[(sizes < n) | (n < 1) | (sizes > _WORD)] = -1
    return words


def _first_false(ok: np.ndarray) -> int:
    bad = np.flatnonzero(~ok)
    return int(bad[0]) if bad.size else ok.size


def draw_schedule(words: np.ndarray, sizes, n: int,
                  steps: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The draws of the longest run of like steps at the head of ``words``.

    ``words`` holds 32-bit words in PCG64 order (a uint64 array) and
    ``sizes`` the stratum sizes.  A step takes one word for its stratum when
    there is more than one, then the words of its within-stratum draw of n
    positions, as `sample_class` and `sample_within_class` would draw them.
    The run ends after ``steps`` steps, before the first step that would
    reject a word, and before the first step whose word count differs from
    the first step's.

    Returns ``(strata, positions, width)``: the strata (S,), the positions
    inside them (S, n) in draw order, and the words per step.  S is 0 when
    the first step itself is such a step: draw it with the generator.
    """
    sizes = np.asarray(sizes, dtype=np.uint64)
    within = _within_words(sizes, n)
    head = int(sizes.size > 1)
    empty = np.zeros(0, dtype=np.int64), np.zeros((0, max(n, 0)), dtype=np.int64), 0
    if head:
        if not words.size:
            return empty
        j, ok = _lemire(words[:1], sizes.size)
        if not ok[0]:
            return empty
        j = int(j[0])
    else:
        j = 0
    if within[j] < 0:
        return empty
    width = head + int(within[j])
    S = min(steps, words.size // width) if width else steps
    block = words[:S * width].reshape(S, width)
    if head:
        strata, ok = _lemire(block[:, 0], sizes.size)
        S = _first_false(ok & (within[strata] == within[j]))
        strata, block = strata[:S], block[:S]
    else:
        strata = np.zeros(S, dtype=np.int64)
    pop = sizes[strata]
    if within[j] == 0:
        return strata, np.broadcast_to(np.arange(n), (S, n)).copy(), width
    # Floyd's round t draws v in [0, pop - n + t] and keeps it unless it was
    # already taken, else takes pop - n + t itself
    tops = pop[:, None] - np.uint64(n) + np.arange(n, dtype=np.uint64)
    v, ok = _lemire(block[:, head:head + n], tops + np.uint64(1))
    # the shuffle swaps position i with one drawn from [0, i], i = n-1 .. 1
    swaps, ok_swaps = _lemire(block[:, head + n:], np.arange(n, 1, -1, dtype=np.uint64))
    S = _first_false(ok.all(axis=1) & ok_swaps.all(axis=1))
    v, tops, swaps = v[:S], tops[:S].astype(np.int64), swaps[:S]
    # Floyd's algorithm, one round per column for all steps at once
    positions = np.empty((S, n), dtype=np.int64)
    for t in range(n):
        taken = (positions[:, :t] == v[:, t:t + 1]).any(axis=1)
        positions[:, t] = np.where(taken, tops[:, t], v[:, t])
    # the shuffle, one swap per column for all steps at once
    rows = np.arange(S)
    for col, i in enumerate(range(n - 1, 0, -1)):
        s = swaps[:, col]
        picked = positions[rows, s]
        positions[rows, s] = positions[:, i]
        positions[:, i] = picked
    return strata[:S], positions, width


class RngStream:
    """Single-owner random stream over one PCG64 generator's words.

    A run takes its steps' draws in blocks from `take` (a stratum, then a
    batch inside it; a population is a single stratum, so a uniform draw is
    the one-stratum draw).  `take` schedules the block with `draw_schedule`
    from the generator's raw output and moves the generator to the first word
    it did not use; a step the schedule leaves out (a rejected word, a batch
    above 64) is drawn through the generator by the `sample_*` functions.  So
    after every call `generator` is exactly where one generator call per draw
    would have left it, and `sample_*`, `Generator.choice` and any other use
    of the generator continue the same stream.  `take` reads the stratum
    layout (`class_counts`, `order`, `starts`) from the `Dataset`.
    """

    def __init__(self, seed: int):
        self.generator = np.random.Generator(np.random.PCG64(int(seed)))

    def take(self, source, n: int, steps: int) -> tuple[np.ndarray, np.ndarray]:
        """The next ``steps`` draws of one shape: strata (steps,) and indices
        (steps, n).  A `Dataset` source draws a stratum by `sample_class`, then
        n indices inside it by `sample_within_class`; a population size is one
        stratum, so its strata are 0 and its indices are `sample_uniform`'s."""
        cells = isinstance(source, Dataset)
        sizes = source.class_counts if cells else np.array([source])
        strata = np.zeros(steps, dtype=np.int64)
        indices = np.empty((steps, max(n, 0)), dtype=np.int64)
        scheduled = (_within_words(sizes, n) >= 0).any()
        done, ask = 0, steps
        while done < steps:
            if scheduled:
                s, positions = self._schedule(sizes, n, min(ask, steps - done))
                end = done + s.size
                strata[done:end] = s
                indices[done:end] = (source.order[source.starts[s][:, None] + positions]
                                     if cells else positions)
                # a short run ends before a step left out; schedule at most
                # twice as many steps next, so short runs draw few words
                done, ask = end, max(16, 2 * s.size)
                if done == steps:
                    break
            if cells:
                strata[done] = j = sample_class(self, sizes.size)
                indices[done] = sample_within_class(self, source, j, n)
            else:
                indices[done] = sample_uniform(self, source, n)
            done += 1
        return strata, indices

    def _schedule(self, sizes, n, steps):
        """Schedule up to ``steps`` steps from the generator's next words and
        move the generator to the first word they did not take: back by
        `PCG64.advance`, and the pending half-word restored."""
        bitgen = self.generator.bit_generator
        state = bitgen.state
        pending, start_u = state["has_uint32"], state["uinteger"]
        per_step = int(sizes.size > 1) + 2 * n - 1
        raws = bitgen.random_raw((steps * per_step - pending + 1) // 2)
        words = np.empty(pending + 2 * raws.size, dtype=np.uint64)
        words[pending::2] = raws & _LOW
        words[pending + 1::2] = raws >> np.uint64(32)
        if pending:
            words[0] = start_u
        strata, positions, width = draw_schedule(words, sizes, n, steps)
        used = strata.size * width - pending  # raw half-words taken
        bitgen.advance((used + 1) // 2 - raws.size)
        state = bitgen.state
        if used > 0:
            state["has_uint32"] = used & 1
            state["uinteger"] = int(raws[(used - 1) // 2] >> np.uint64(32))
        else:
            state["has_uint32"], state["uinteger"] = -used, start_u
        bitgen.state = state
        return strata, positions


def sample_class(rng: RngStream, num_classes: int) -> int:
    """Uniform class index from {0..C-1}; one draw, none when C = 1."""
    if num_classes < 1:
        raise SamplingError("need at least one class to sample from")
    return int(rng.generator.integers(num_classes))


def sample_within_class(rng: RngStream, dataset: Dataset, class_j: int, n: int) -> np.ndarray:
    """n indices drawn uniformly without replacement from class j's cell:
    the cell's entries at the positions `sample_uniform` draws from its size.

    Requesting the whole class (n == N_j) returns the cell in ascending
    order without consuming generator state.
    """
    cell = dataset.partition[class_j]
    if n > cell.size:
        raise SamplingError(f"batch size {n} exceeds class {class_j} size {cell.size}")
    return cell[sample_uniform(rng, cell.size, n)]


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
    return rng.generator.choice(n_population, size=n, replace=False)
