"""Seeded index generation: two-stage stratified draws, and uniform draws as
their one-stratum case.

Every stream is a cursor over the 32-bit words of one PCG64 generator: the
low, then the high half of each raw 64-bit output, the order in which numpy
draws bounded integers.  Identical seeds give bit-identical draws on every
platform.  A draw is numpy's: a class in [0, C) is Lemire's multiply-shift
of one word with rejection, and n indices without replacement are Floyd's
algorithm followed by a Fisher-Yates shuffle, exactly what
`Generator.integers` and `Generator.choice(..., replace=False)` return.  One
index is Floyd's first round, which maps the word `integers` would map.
`draw_schedule` computes the draws of many steps at once as arrays; the
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
#: Steps in a stream's first chunk; each later chunk is at most twice as
#: long as the steps its predecessor served.
_FIRST_CHUNK = 16
#: Indices a chunk holds at most.
_CHUNK_INDICES = 1 << 16


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
    the generator: a batch above _MAX_VECTOR_BATCH or one the stratum cannot
    hold."""
    words = np.full(sizes.shape, -1 if n > _MAX_VECTOR_BATCH else 2 * n - 1)
    words[sizes == n] = 0
    words[(sizes < n) | (n < 1)] = -1
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
    """Single-owner random stream: a cursor over one PCG64 generator's words.

    A run's steps take their draws from `class_batch` (a class, then a batch
    inside it) and `uniform_batch` (a batch of the population, drawn as the
    batch of a single stratum).  Both serve each step from a chunk of steps
    that `draw_schedule` built ahead from the generator's raw output.  Chunks
    grow geometrically from 16 steps, so a short run draws few words, and
    hold at most 2^16 indices, so a large batch costs little memory.  A step
    the schedule leaves out (a rejected word or a batch above 64) is drawn
    through the generator by the `sample_*` functions.  A chunk reads the
    stratum layout (`class_counts`, `order`, `starts`) from the `Dataset`.

    Every other access (`generator`, or a draw of another shape) first moves
    the generator back to the first step not yet served: `PCG64.advance` and
    the pending half-word restore the exact state that one generator call per
    draw would have left.  So `sample_*`, `Generator.choice` and any other use
    of the generator continue the same stream, and chunks change no draw.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._bitgen = np.random.PCG64(self.seed)
        self._generator = np.random.Generator(self._bitgen)
        # the live chunk: the shape it serves, its draws, the next step to
        # serve, and the raw outputs it was built from (None once synced)
        self._source = self._n = None
        self._strata = self._indices = None
        self._next = self._size = self._width = 0
        self._raws = None
        self._start = (0, 0)  # has_uint32 and uinteger when the chunk began
        # the last shape asked for and whether `draw_schedule` covers any step
        self._schedules = (None, False)

    @property
    def generator(self) -> np.random.Generator:
        """The underlying generator, at the first draw not yet served."""
        self._sync()
        return self._generator

    def class_batch(self, dataset: Dataset, n: int) -> tuple[int, np.ndarray]:
        """One stratified step's draw: `sample_class`, then `sample_within_class`."""
        s = self._next
        if s == self._size or self._source is not dataset or self._n != n:
            return self._restart(dataset, n)
        self._next = s + 1
        return self._strata[s], self._indices[s]

    def uniform_batch(self, n_population: int, n: int) -> np.ndarray:
        """One uniform step's draw: `sample_uniform`."""
        s = self._next
        if s == self._size or self._source != n_population or self._n != n:
            return self._restart(n_population, n)[1]
        self._next = s + 1
        return self._indices[s]

    def _restart(self, source, n):
        """Serve the first step of a new chunk for ``source`` and n, or draw
        the step through the generator where the schedule leaves it out.
        ``source`` is a `Dataset` or a population size; a population is one
        stratum whose positions are the indices, so it needs no gather."""
        steps = min(max(_FIRST_CHUNK, 2 * self._next), max(1, _CHUNK_INDICES // max(n, 1)))
        self._sync()
        cells = isinstance(source, Dataset)
        sizes = source.class_counts if cells else (source,)
        if self._schedules[0] != (source, n):
            self._schedules = ((source, n), (_within_words(np.asarray(sizes), n) >= 0).any())
        strata = ()
        if self._schedules[1]:
            strata, positions = self._build(sizes, n, steps)
        if not len(strata):
            if not cells:
                return None, sample_uniform(self, source, n)
            j = sample_class(self, len(sizes))
            return j, sample_within_class(self, source, j, n)
        self._source, self._n, self._next = source, n, 1
        if cells:
            positions = source.order[source.starts[strata][:, None] + positions]
            self._strata = strata.tolist()
        positions.setflags(write=False)
        self._indices = positions
        return (self._strata[0] if cells else None), positions[0]

    def _build(self, sizes, n, steps):
        """Draw words for up to ``steps`` steps and schedule them as a chunk."""
        state = self._bitgen.state
        pending = state["has_uint32"]
        per_step = int(len(sizes) > 1) + 2 * n - 1
        raws = self._bitgen.random_raw((steps * per_step - pending + 1) // 2)
        words = np.empty(pending + 2 * raws.size, dtype=np.uint64)
        words[pending::2] = raws & _LOW
        words[pending + 1::2] = raws >> np.uint64(32)
        if pending:
            words[0] = state["uinteger"]
        strata, positions, self._width = draw_schedule(words, sizes, n, steps)
        self._raws, self._start = raws, (pending, state["uinteger"])
        self._next, self._size = 0, strata.size
        if not strata.size:
            self._sync()
        return strata, positions

    def _sync(self) -> None:
        """Move the generator to the first word of the first unserved step."""
        raws = self._raws
        if raws is None:
            return
        pending, start_u = self._start
        used = self._next * self._width - pending  # raw half-words served
        self._bitgen.advance((used + 1) // 2 - raws.size)
        state = self._bitgen.state
        if used > 0:
            state["has_uint32"] = used & 1
            state["uinteger"] = int(raws[(used - 1) // 2] >> np.uint64(32))
        else:
            state["has_uint32"], state["uinteger"] = -used, start_u
        self._bitgen.state = state
        self._raws = None
        self._next = self._size = 0

    def __repr__(self):
        return f"RngStream(seed={self.seed})"


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
