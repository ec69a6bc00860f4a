"""Seeded sampling: reproducibility, uniformity, stratum safety."""

from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chisquare

import ssag
from conftest import reference_class_batch, reference_uniform_batch
from ssag.errors import SamplingError
from ssag.optimizers import SPECS
from ssag.sampling import (RngStream, draw_schedule, sample_class, sample_uniform,
                           sample_within_class)

# first 20 class draws for seed 42, C = 10; frozen from the first run
GOLDEN_SEED42_C10 = [0, 7, 6, 4, 4, 8, 0, 6, 2, 0, 5, 9, 7, 7, 7, 7, 5, 1, 8, 4]


@pytest.fixture
def dataset():
    labels = np.array([0] * 5 + [1] * 3 + [2] * 4)
    return ssag.Dataset.from_class_labels(np.zeros((12, 2)), labels)


class TestSampleClass:
    def test_single_class(self):
        rng = RngStream(0)
        assert all(sample_class(rng, 1) == 0 for _ in range(100))

    def test_golden_sequence(self):
        rng = RngStream(42)
        got = [sample_class(rng, 10) for _ in range(20)]
        assert got == GOLDEN_SEED42_C10

    def test_two_class_frequency(self):
        rng = RngStream(7)
        draws = np.array([sample_class(rng, 2) for _ in range(100_000)])
        # binomial 3-sigma band around 0.5
        sigma = 0.5 / np.sqrt(100_000)
        assert abs(draws.mean() - 0.5) <= 3 * sigma

    def test_zero_classes_rejected(self):
        with pytest.raises(SamplingError):
            sample_class(RngStream(0), 0)

    def test_draw_counter(self):
        # each class draw is one generator call
        rng = RngStream(0)
        ref = np.random.Generator(np.random.PCG64(0))
        for _ in range(5):
            sample_class(rng, 3)
            ref.integers(3)
        assert rng.generator.bit_generator.state == ref.bit_generator.state

    def test_single_class_counts_no_draw(self):
        # one class needs no draw: the generator does not move
        rng = RngStream(0)
        assert sample_class(rng, 1) == 0
        assert rng.generator.bit_generator.state == np.random.PCG64(0).state


class TestSampleWithinClass:
    def test_whole_class_exhaustive(self, dataset):
        rng = RngStream(1)
        got = sample_within_class(rng, dataset, 2, 4)
        assert got.tolist() == dataset.partition[2].tolist()
        # exhaustive draws consume no generator state
        assert rng.generator.bit_generator.state == np.random.PCG64(1).state

    def test_stratum_containment(self, dataset):
        rng = RngStream(5)
        for _ in range(500):
            j = sample_class(rng, 3)
            idx = sample_within_class(rng, dataset, j, 2)
            assert np.all(np.isin(idx, dataset.partition[j]))

    def test_no_duplicates(self, dataset):
        rng = RngStream(9)
        for _ in range(200):
            idx = sample_within_class(rng, dataset, 0, 3)
            assert len(set(idx.tolist())) == 3

    def test_pair_frequencies(self):
        labels = np.zeros(5, dtype=np.int64)
        ds = ssag.Dataset.from_class_labels(np.zeros((5, 1)), labels)
        rng = RngStream(13)
        trials = 100_000
        counts = Counter(tuple(sorted(sample_within_class(rng, ds, 0, 2).tolist()))
                         for _ in range(trials))
        assert len(counts) == 10
        p = 1.0 / 10
        sigma = np.sqrt(p * (1 - p) / trials)
        for pair in combinations(range(5), 2):
            assert abs(counts[pair] / trials - p) <= 3 * sigma + 1e-12

    def test_bad_sizes_rejected(self, dataset):
        with pytest.raises(SamplingError):
            sample_within_class(RngStream(0), dataset, 1, 0)
        with pytest.raises(SamplingError):
            sample_within_class(RngStream(0), dataset, 1, 4)  # class 1 has 3


class TestSampleUniform:
    def test_full_population_is_identity_permutation(self):
        rng = RngStream(3)
        got = sample_uniform(rng, 6, 6)
        assert got.tolist() == list(range(6))
        assert rng.generator.bit_generator.state == np.random.PCG64(3).state

    def test_single_draw_frequency(self):
        rng = RngStream(11)
        draws = np.array([sample_uniform(rng, 2, 1)[0] for _ in range(100_000)])
        sigma = 0.5 / np.sqrt(100_000)
        assert abs(draws.mean() - 0.5) <= 3 * sigma

    def test_distinctness(self):
        rng = RngStream(23)
        for _ in range(300):
            idx = sample_uniform(rng, 9, 4)
            assert len(set(idx.tolist())) == 4

    def test_bad_sizes_rejected(self):
        with pytest.raises(SamplingError):
            sample_uniform(RngStream(0), 5, 0)
        with pytest.raises(SamplingError):
            sample_uniform(RngStream(0), 5, 6)


class TestReproducibility:
    def test_identical_seed_identical_sequences(self, dataset):
        a, b = RngStream(2024), RngStream(2024)
        seq_a, seq_b = [], []
        for _ in range(1_000_000):
            seq_a.append(sample_class(a, 12))
            seq_b.append(sample_class(b, 12))
        assert seq_a == seq_b

    def test_mixed_call_reproducibility(self, dataset):
        def trace(seed):
            rng = RngStream(seed)
            out = []
            for _ in range(2000):
                j = sample_class(rng, 3)
                out.append((j, tuple(sample_within_class(rng, dataset, j, 2)),
                            tuple(sample_uniform(rng, 12, 3))))
            return out

        assert trace(77) == trace(77)
        assert trace(77) != trace(78)


class TestUniformityChiSquare:
    def test_class_draws(self):
        rng = RngStream(31)
        n, C = 100_000, 7
        draws = np.array([sample_class(rng, C) for _ in range(n)])
        counts = np.bincount(draws, minlength=C)
        result = chisquare(counts)
        assert result.pvalue > 0.001

    def test_within_class_draws(self, dataset):
        rng = RngStream(37)
        n = 100_000
        draws = np.array([sample_within_class(rng, dataset, 0, 1)[0] for _ in range(n)])
        counts = np.bincount(draws, minlength=12)[dataset.partition[0]]
        result = chisquare(counts)
        assert result.pvalue > 0.001


# bounds of the word-cursor checks: 1 and 2^32 take no rejection path,
# 3e9 rejects about 30 % of words, 2^33 + 1 is drawn from 64-bit words
BOUNDS = (1, 2, 200, 3 * 10**9, 2**32, 2**33 + 1)


def _labelled(counts):
    labels = np.repeat(np.arange(len(counts)), counts)
    return ssag.Dataset.from_class_labels(np.zeros((labels.size, 1)), labels)


def _take(rng, ref, source, n, steps):
    """One `take` of ``steps`` draws from the stream against as many draws
    from the oracle, one call per draw; ``source`` is a `Dataset` or a
    population size."""
    strata, indices = rng.take(source, n, steps)
    assert strata.shape == (steps,) and indices.shape == (steps, n)
    for j, idx in zip(strata.tolist(), indices):
        if isinstance(source, ssag.Dataset):
            j_ref, idx_ref = reference_class_batch(ref, source, n)
            assert np.isin(idx, source.partition[j]).all()
        else:
            j_ref, idx_ref = 0, reference_uniform_batch(ref, source, n)
        assert j == j_ref
        assert np.array_equal(idx, idx_ref)


def _source(kind, ds):
    """The source of an optimizer kind's draws: the dataset for SSAG's
    class-then-batch draw, the population size for the uniform kinds."""
    return ds if kind == "ssag" else ds.n_samples


@st.composite
def _step_plans(draw):
    """Class counts, and one to three blocks (kind, n, steps, mixed call) of
    draws on them."""
    counts = draw(st.lists(st.integers(1, 40), min_size=1, max_size=4))
    big = draw(st.sampled_from((0, 10_000, 10_001, 12_000)))
    counts += [big] * bool(big)
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        # fgd draws nothing: a full pass reads dataset.rows
        kind = draw(st.sampled_from([kind for kind in SPECS if kind != "fgd"]))
        limit = {"ssag": min(counts), "minibatch": sum(counts)}.get(kind, 1)
        # edges: the whole class or population, numpy's tail-shuffle cutoff
        # and the largest batch the schedule draws
        edges = sorted({limit, min(limit, limit // 50 + 1), min(limit, 64), min(limit, 65)})
        n = draw(st.integers(1, limit) | st.sampled_from(edges))
        blocks.append((kind, n, draw(st.integers(1, 200)),
                       draw(st.sampled_from(BOUNDS + ("choice",)))))
    return counts, blocks


class TestWordCursor:
    """`RngStream.take` blocks and `generator` against one scalar
    `np.random.Generator` call per draw."""

    _run = st.tuples(st.just("run"), st.lists(st.sampled_from(BOUNDS), min_size=1, max_size=3),
                     st.integers(1, 1500))
    _choice = st.tuples(st.just("choice"), st.integers(2, 50), st.integers(2, 50))
    _uniform = st.tuples(st.just("uniform"), st.integers(4, 50) | st.sampled_from(BOUNDS),
                         st.integers(1, 3))
    _big = st.tuples(st.just("big"), st.sampled_from((2**33 + 1, 2**40)))
    _steps = st.tuples(st.just("steps"), st.sampled_from(("ssag", "minibatch", "sgd")),
                       st.integers(1, 64), st.integers(1, 300))

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(seed=st.integers(0, 2**64 - 1),
           ops=st.lists(st.one_of(_run, _choice, _uniform, _big, _steps), min_size=1, max_size=8))
    def test_matches_scalar_generator(self, seed, ops):
        ds = _labelled([7, 3, 12])
        rng = RngStream(seed)
        ref = np.random.Generator(np.random.PCG64(seed))
        for op in ops:
            if op[0] == "run":
                _, bounds, count = op
                got = [sample_class(rng, bounds[i % len(bounds)]) for i in range(count)]
                want = [int(ref.integers(bounds[i % len(bounds)])) for i in range(count)]
                assert got == want
            elif op[0] == "choice":
                size, n = op[1], min(op[1], op[2])
                assert np.array_equal(rng.generator.choice(size, size=n, replace=False),
                                      ref.choice(size, size=n, replace=False))
            elif op[0] == "uniform":
                population, n = op[1], min(op[1], op[2])
                assert np.array_equal(sample_uniform(rng, population, n),
                                      reference_uniform_batch(ref, population, n))
            elif op[0] == "steps":
                _, kind, n, count = op
                n = min(n, 3) if kind == "ssag" else 1 if kind == "sgd" else min(n, 22)
                _take(rng, ref, _source(kind, ds), n, count)
            else:
                assert int(rng.generator.integers(op[1])) == int(ref.integers(op[1]))
        assert rng.generator.bit_generator.state == ref.bit_generator.state

    def test_large_bounds_between_blocks(self):
        # a generator call between two blocks, with a bound drawn from 64-bit
        # words or one that rejects often, continues the stream
        ds = _labelled([5, 9])
        rng = RngStream(8)
        ref = np.random.Generator(np.random.PCG64(8))
        for steps, k in [(700, 2**33 + 1), (700, None)] + [(0, 3 * 10**9)] * 300 + [(5, None)]:
            _take(rng, ref, ds, 1, steps)
            if k is not None:
                assert int(rng.generator.integers(k)) == int(ref.integers(k))
        assert rng.generator.bit_generator.state == ref.bit_generator.state

    def test_within_class_single_draw_matches_scalar_index(self, dataset):
        rng = RngStream(6)
        ref = np.random.Generator(np.random.PCG64(6))
        for step in range(3000):
            if step % 2:
                strata, indices = rng.take(dataset, 1, 1)
                j, idx = int(strata[0]), indices[0]
            else:
                j = sample_class(rng, 3)
                idx = sample_within_class(rng, dataset, j, 1)
            assert j == int(ref.integers(3))
            cell = dataset.partition[j]
            assert idx.tolist() == [int(cell[ref.integers(cell.size)])]
        assert rng.generator.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("words, sizes, n", [
        ([], (4, 4), 1),  # no word to draw the first stratum from
        ([0], (4, 4, 4), 1),  # Lemire rejects word 0 for 3 strata: (2^32 - 3) mod 3 = 1
        ([0], (1, 5), 2),  # word 0 draws stratum 0, which cannot hold n = 2
    ])
    def test_schedule_leaves_an_undrawable_first_step_to_the_generator(self, words, sizes, n):
        strata, positions, width = draw_schedule(np.array(words, dtype=np.uint64), sizes, n, 8)
        assert strata.shape == (0,) and positions.shape == (0, n) and width == 0

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2**64 - 1), plan=_step_plans())
    def test_step_draws_match_the_oracle(self, seed, plan):
        # every kind's draw, n up to the class size or population, classes of
        # any balance (N_c = n and C = 1 included), populations on both sides
        # of numpy's tail-shuffle cutoff; after each block a mixed generator
        # call must find the generator where the oracle's is
        counts, blocks = plan
        ds = _labelled(counts)
        rng = RngStream(seed)
        ref = np.random.Generator(np.random.PCG64(seed))
        for kind, n, steps, mixed in blocks:
            _take(rng, ref, _source(kind, ds), n, steps)
            if mixed == "choice":
                assert np.array_equal(rng.generator.choice(9, size=4, replace=False),
                                      ref.choice(9, size=4, replace=False))
            else:
                assert int(rng.generator.integers(mixed)) == int(ref.integers(mixed))
            assert rng.generator.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("counts, n", [
        ([7], 1), ([7], 3), ([7], 7), ([1, 5], 1), ([3, 9, 3], 3),
        ([10_000], 300), ([10_001], 200), ([10_001], 201), ([12_000], 64), ([12_000], 65),
        ([12_000, 80], 64), ([10_001, 12_000], 201), ([12_000, 12_000], 241)])
    def test_edge_shapes_match_the_oracle(self, counts, n):
        # one class, classes with N_c = n, and populations around numpy's
        # tail shuffle: choice shuffles the tail of arange(pop) when
        # pop > 10 000 and n > pop // 50, and runs Floyd's algorithm otherwise
        ds = _labelled(counts)
        rng = RngStream(21)
        ref = np.random.Generator(np.random.PCG64(21))
        for step in range(40):
            _take(rng, ref, _source("ssag" if step % 3 else "minibatch", ds), n, 1)
        assert rng.generator.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("n", [2, 10, 33, 64])
    @pytest.mark.parametrize("kind", ["ssag", "minibatch"])
    def test_long_runs_match_the_oracle(self, kind, n):
        # 3000 steps in blocks of up to 2000, so Floyd's rounds and the
        # shuffle are checked far into a block and across block boundaries
        ds = _labelled([100, 120] if kind == "ssag" else [20_000])
        rng = RngStream(17)
        ref = np.random.Generator(np.random.PCG64(17))
        for steps in (1, 999, 2000):
            _take(rng, ref, _source(kind, ds), n, steps)
        assert rng.generator.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_forced_rejections(self, n):
        # a population of 3e9 rejects about 30 % of words, so most scheduled
        # runs end at a rejected word and its step is drawn by the generator
        rng = RngStream(4)
        ref = np.random.Generator(np.random.PCG64(4))
        _take(rng, ref, 3 * 10**9, n, 3000 // n)
        assert rng.generator.bit_generator.state == ref.bit_generator.state

    def test_schedule_stops_before_the_first_rejected_word(self):
        k = 3 * 10**9
        words = np.random.Generator(np.random.PCG64(9)).integers(0, 2**32, size=64,
                                                                 dtype=np.uint64)
        kept = [(int(w) * k) % 2**32 >= (2**32 - k) % k for w in words]
        first = kept.index(False)
        strata, positions, width = draw_schedule(words, [k], 1, 64)
        assert width == 1 and strata.tolist() == [0] * first
        assert positions[:, 0].tolist() == [int(w) * k >> 32 for w in words[:first]]
        assert draw_schedule(words[first:], [k], 1, 64)[0].size == 0


class TestTake:
    """k steps taken in sub-blocks of any size, 0 included, are k draws of
    the one-call-per-draw oracle, and after every `take` the generator is
    where the oracle's is."""

    # (source, n): a population that rejects nearly half its words; n = 65,
    # above the largest scheduled batch; numpy's tail shuffle (N > 10 000,
    # n > N // 50); whole-stratum draws; imbalanced classes with a stratum of
    # exactly n rows
    CASES = ((2**31 + 1, 1), (2**31 + 1, 3), (300, 65), ((70, 90), 65), (20_001, 500),
             (9, 9), ((4, 4), 4), ((3, 10, 3, 7), 3), ((1, 5, 9), 1), ((8, 40, 8), 8))

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2**64 - 1), case=st.sampled_from(CASES),
           blocks=st.lists(st.integers(0, 150), max_size=4))
    def test_blocks_match_one_call_per_draw(self, seed, case, blocks):
        source, n = case
        if isinstance(source, tuple):
            source = _labelled(list(source))
        rng = RngStream(seed)
        ref = np.random.Generator(np.random.PCG64(seed))
        for steps in blocks + [0]:
            _take(rng, ref, source, n, steps)
            assert rng.generator.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("pop", [2**32, 2**32 + 1])
    @pytest.mark.parametrize("n", [1, 3])
    def test_populations_at_the_32_bit_boundary(self, pop, n):
        # numpy draws a bound above 2^32 from 64-bit words; a bound of 2^32
        # is still one 32-bit word
        got = RngStream(3).take(pop, n, 4)[1]
        by_integers = np.random.Generator(np.random.PCG64(3))
        by_choice = np.random.Generator(np.random.PCG64(3))
        if n == 1:
            assert got.ravel().tolist() == [int(by_integers.integers(pop)) for _ in range(4)]
        assert got.tolist() == [by_choice.choice(pop, n, replace=False).tolist()
                                for _ in range(4)]
        rng, ref = RngStream(3), np.random.Generator(np.random.PCG64(3))
        for steps in (2, 0, 5):
            _take(rng, ref, pop, n, steps)
            assert rng.generator.bit_generator.state == ref.bit_generator.state


class TestOneStratum:
    """A population of N is one stratum: `take(N, n, k)` is the draw on a
    one-class `Dataset` of N rows, step for step."""

    @pytest.mark.parametrize("N, n", [(N, n) for N in (50, 300, 3000)
                                      for n in (1, 3, 65, N) if n <= N])
    def test_population_draw_is_the_one_class_draw(self, N, n):
        # blocks of 1 to 33 steps; n = 65 is drawn by the generator at every step
        ds = _labelled([N])
        by_size, by_dataset = RngStream(5), RngStream(5)
        for steps in (1, 15, 0, 33, 2, 9):
            (strata, idx), (strata_ds, idx_ds) = (by_size.take(N, n, steps),
                                                  by_dataset.take(ds, n, steps))
            assert strata.tolist() == strata_ds.tolist() == [0] * steps
            assert np.array_equal(idx, idx_ds)
            assert by_size.generator.bit_generator.state == by_dataset.generator.bit_generator.state
