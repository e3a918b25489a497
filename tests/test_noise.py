import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from lowrank_sde.errors import GridMismatch
from lowrank_sde.noise import (
    BlockSum,
    BrownianGrid,
    _standard_normal_block,
    coarsen,
    generate,
    lattice_blocks,
)

import reference

# derandomized so every tier-1 run checks the same examples
PROPERTY = settings(derandomize=True, deadline=None, max_examples=40)

seeds = st.integers(0, 2 ** 32 - 1)
noise_dims = st.integers(1, 3)
path_counts = st.integers(1, 20)


class TestGenerate:
    @PROPERTY
    @given(seeds, st.floats(-5.0, 5.0), st.floats(0.01, 10.0),
           st.integers(1, 12), noise_dims, path_counts, st.data())
    def test_deterministic_bit_identical(self, seed, t0, length, n, m,
                                         m_paths, data):
        # Philox stream identity: generate repeats itself, stores the
        # blocks its lattice streams, and any block regenerated alone
        # from its key [seed, step] matches
        args = (seed, t0, t0 + length, n, m, m_paths)
        g = generate(*args)
        assert np.array_equal(g.increments, generate(*args).increments)
        blocks = [block for block, in lattice_blocks(
            [BrownianGrid(seed, t0, t0 + length, n, m, m_paths, None)])]
        assert len(blocks) == n
        for step, block in enumerate(blocks):
            assert np.array_equal(block, g.increments[step])
        step = data.draw(st.integers(0, n - 1))
        alone = np.sqrt(g.dt) * reference.philox_block(seed, step, m, m_paths)
        assert np.array_equal(alone, g.increments[step])

    @PROPERTY
    @given(seeds, st.integers(0, 2 ** 63 - 1), st.integers(2, 6),
           path_counts, st.data())
    def test_fewer_channels_draw_the_leading_rows(self, seed, step, m,
                                                  m_paths, data):
        # Philox fills a block row by row, so a model with fewer noise
        # channels draws exactly the leading rows of a wider model's block
        fewer = data.draw(st.integers(1, m - 1))
        gen = np.random.Generator(np.random.Philox(key=[seed, 0]))
        wide = _standard_normal_block(gen, seed, step, np.empty((m, m_paths)))
        narrow = _standard_normal_block(gen, seed, step,
                                        np.empty((fewer, m_paths)))
        assert np.array_equal(narrow, wide[:fewer])

    def test_node_time_equals_times_entry(self):
        for t0, t1, n in ((0.0, 1.0, 10), (-0.3, 2.7, 7), (1e-3, 0.1, 33)):
            g = generate(19, t0, t1, n, 1, 1)
            times = g.times()
            assert all(g.time(i) == times[i] for i in range(n + 1))

    def test_different_seeds_differ(self):
        g1 = generate(123, 0.0, 1.0, 4, 2, 5)
        g2 = generate(124, 0.0, 1.0, 4, 2, 5)
        assert not np.array_equal(g1.increments, g2.increments)

    def test_shape_and_dt(self):
        g = generate(1, 0.5, 2.5, 8, 2, 3)
        assert g.increments.shape == (8, 2, 3)
        assert g.dt == 0.25
        assert_allclose(g.times()[0], 0.5)
        assert_allclose(g.times()[-1], 2.5)

    def test_sample_variance_matches_dt(self):
        # 10^5 draws: sample variance within 3% of dt (99% confidence band)
        g = generate(7, 0.0, 1.0, 10, 10, 1000)
        draws = g.increments.ravel()
        assert draws.size == 100000
        assert abs(np.var(draws) / g.dt - 1.0) < 0.03

    def test_sample_mean_clt_bound(self):
        g = generate(8, 0.0, 1.0, 10, 10, 1000)
        draws = g.increments.ravel()
        assert abs(np.mean(draws)) < 4.0 * np.sqrt(g.dt / draws.size)

    def test_all_finite(self):
        g = generate(9, 0.0, 1.0, 5, 4, 50)
        assert np.all(np.isfinite(g.increments))

    def test_cross_path_independence(self):
        # empirical correlation between distinct paths over 10^4 paths
        g = generate(10, 0.0, 1.0, 2, 1, 10000)
        a = g.increments[0, 0]
        b = g.increments[1, 0]
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 4.0 / np.sqrt(10000)

    def test_invalid_arguments(self):
        with pytest.raises(GridMismatch):
            generate(1, 0.0, 1.0, 0, 1, 1)
        with pytest.raises(GridMismatch):
            generate(1, 1.0, 1.0, 3, 1, 1)
        with pytest.raises(GridMismatch):
            generate(1, 0.0, 1.0, 3, 0, 1)


def lattice(seed, t1, n, m, m_paths):
    return BrownianGrid(seed=seed, t0=0.0, t1=t1, n_steps=n, m=m,
                        m_paths=m_paths, increments=None)


class TestLatticeBlocks:
    @PROPERTY
    @given(seeds, noise_dims, path_counts,
           st.lists(st.tuples(st.floats(0.01, 10.0), st.integers(1, 12)),
                    min_size=1, max_size=4))
    def test_each_lattice_streams_its_own_blocks(self, seed, m, m_paths,
                                                 shapes):
        # one shared standard normal block per step, scaled per lattice,
        # gives each lattice exactly the blocks it streams alone
        grids = [lattice(seed, t1, n, m, m_paths) for t1, n in shapes]
        steps = list(lattice_blocks(grids))
        assert len(steps) == max(n for _, n in shapes)
        for j, (t1, n) in enumerate(shapes):
            alone = generate(seed, 0.0, t1, n, m, m_paths).increments
            for step, blocks in enumerate(steps):
                if step < n:
                    assert np.array_equal(blocks[j], alone[step])
                else:
                    assert blocks[j] is None

    @PROPERTY
    @given(st.one_of(st.sampled_from((0, 2 ** 64 - 1)),
                     st.integers(0, 2 ** 64 - 1)),
           noise_dims, path_counts,
           st.lists(st.tuples(st.floats(0.01, 10.0), st.integers(1, 8)),
                    min_size=1, max_size=3))
    def test_rekeyed_walk_draws_fresh_philox_blocks(self, seed, m, m_paths,
                                                    shapes):
        # Philox stream identity under re-keying: each step's block is
        # that of a fresh Philox(key=[seed, step]), also past a block
        # that left the buffer half used (odd m * M), and two walks on
        # one seed, advanced in turn, share no generator state.  Philox
        # casts a seed of 2**63 or more through float64, and 2**64 - 1
        # overflows that cast; the walk keys its steps as Philox did
        grids = [lattice(seed, t1, n, m, m_paths) for t1, n in shapes]
        with np.errstate(invalid="ignore"):
            walks = zip(lattice_blocks(grids), lattice_blocks(grids))
            for step, (blocks, twins) in enumerate(walks):
                z = reference.philox_block(seed, step, m, m_paths)
                for grid, block, twin in zip(grids, blocks, twins):
                    if step < grid.n_steps:
                        assert np.array_equal(block, np.sqrt(grid.dt) * z)
                        assert np.array_equal(twin, block)
                    else:
                        assert block is None and twin is None
        assert step == max(n for _, n in shapes) - 1

    @PROPERTY
    @given(seeds, st.integers(0, 2 ** 63 - 1), noise_dims, path_counts)
    def test_rekeying_resets_a_used_generator(self, seed, step, m, m_paths):
        # a generator that drew a 32-bit half and left its buffer part
        # used draws, once re-keyed, the block of a fresh generator
        gen = np.random.Generator(np.random.Philox(key=[seed, 0]))
        gen.integers(0, 2 ** 32, size=3, dtype=np.uint32)
        gen.random(3)
        state = gen.bit_generator.state
        assert state["has_uint32"] == 1 and state["buffer_pos"] < 4
        block = _standard_normal_block(gen, seed, step,
                                       np.empty((m, m_paths)))
        assert np.array_equal(block,
                              reference.philox_block(seed, step, m, m_paths))

    def test_lattices_must_share_the_stream(self):
        for other in (lattice(5, 1.0, 4, 2, 3), lattice(4, 1.0, 4, 1, 3),
                      lattice(4, 1.0, 4, 2, 6)):
            with pytest.raises(GridMismatch, match="share"):
                list(lattice_blocks([lattice(4, 1.0, 4, 2, 3), other]))


class TestCoarsen:
    def test_factor_one_identity(self):
        g = generate(11, 0.0, 1.0, 6, 2, 4)
        assert coarsen(g, 1) is g

    def test_factor_full_telescopes(self):
        g = generate(12, 0.0, 1.0, 8, 2, 4)
        c = coarsen(g, 8)
        assert c.n_steps == 1
        assert_allclose(c.increments[0], g.increments.sum(axis=0), rtol=1e-12)

    def test_sums_of_fine_blocks(self):
        g = generate(13, 0.0, 2.0, 12, 3, 5)
        c = coarsen(g, 3)
        assert c.n_steps == 4
        assert c.dt == 0.5
        assert c.coarsen_factor == 3
        for i in range(4):
            acc = g.increments[3 * i].copy()
            acc += g.increments[3 * i + 1]
            acc += g.increments[3 * i + 2]
            assert np.array_equal(c.increments[i], acc)

    @PROPERTY
    @given(st.integers(1, 6), st.integers(1, 4), st.integers(1, 4),
           noise_dims, path_counts, seeds)
    def test_nested_coarsening_exactly_associative(self, n, a, b, m,
                                                   m_paths, seed):
        args = (seed, 0.0, 1.0, n * a * b, m, m_paths)
        g = generate(*args)
        direct = coarsen(g, a * b)
        for first, second in ((a, b), (b, a)):
            nested = coarsen(coarsen(g, first), second)
            assert np.array_equal(nested.increments, direct.increments)
            assert nested.coarsen_factor == a * b
        # the flat left-to-right sum of the root blocks ...
        for i in range(n):
            acc = g.increments[i * a * b].copy()
            for j in range(i * a * b + 1, (i + 1) * a * b):
                acc += g.increments[j]
            assert np.array_equal(direct.increments[i], acc)
        # ... is also what a BlockSum fed the streamed blocks returns
        run = BlockSum(a * b)
        pushed = (run.push(block) for block, in lattice_blocks([g]))
        streamed = [total for total in pushed if total is not None]
        assert np.array_equal(np.array(streamed), direct.increments)

    def test_metadata_inherited(self):
        g = generate(15, 0.0, 1.0, 10, 2, 3)
        c = coarsen(g, 5)
        assert c.seed == g.seed
        assert (c.t0, c.t1, c.m, c.m_paths) == (g.t0, g.t1, g.m, g.m_paths)

    def test_variance_scales_with_factor(self):
        g = generate(16, 0.0, 1.0, 20, 5, 1000)
        c = coarsen(g, 4)
        draws = c.increments.ravel()
        assert draws.size >= 10000
        assert abs(np.var(draws) / (4 * g.dt) - 1.0) < 0.05

    def test_non_divisor_rejected(self):
        g = generate(17, 0.0, 1.0, 10, 1, 2)
        with pytest.raises(GridMismatch):
            coarsen(g, 3)

    def test_grid_without_increments_rejected(self):
        lattice = BrownianGrid(seed=18, t0=0.0, t1=1.0, n_steps=4, m=1,
                               m_paths=2, increments=None)
        for factor in (1, 2):
            with pytest.raises(GridMismatch, match="no increments"):
                coarsen(lattice, factor)


def test_grid_rederivable_from_tuple():
    # only (seed, t0, t1, n_steps, m, m_paths) need persisting
    meta = dict(seed=99, t0=0.0, t1=3.0, n_steps=6, m=2, m_paths=4)
    g1 = generate(**meta)
    g2 = generate(**meta)
    assert np.array_equal(g1.increments, g2.increments)
    c1 = coarsen(g1, 2)
    c2 = coarsen(g2, 2)
    assert np.array_equal(c1.increments, c2.increments)
