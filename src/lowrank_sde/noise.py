"""Seeded Brownian increments on nested time grids.

Increments are produced by a counter-based generator (Philox) keyed per
step block, so any (step, component, path) entry is reproducible in
isolation.  A step's block is the same standard normal block on every
lattice, scaled by that lattice's sqrt(dt).  ``increment_blocks`` streams
a grid's increments one step block at a time, ``lattice_blocks`` streams
those of several lattices at once and draws each step's block once for
all of them, and ``generate`` stores the blocks of one grid as one array.
Coarse increments are flat left-to-right sums of the finest grid's
blocks (``BlockSum``), which makes repeated coarsening exactly
associative; ``coarsen`` applies that sum to a stored grid, and a caller
that streams the blocks can feed them to a ``BlockSum`` as they come and
keep no grid at all.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .errors import GridMismatch

# shifts uniforms from [0, 1) into (0, 1) so ndtri never sees 0
_OPEN_INTERVAL_SHIFT = 2.0 ** -54


@dataclass(frozen=True)
class BrownianGrid:
    """Brownian increments on a uniform grid over [t0, t1].

    increments[n, c, j] is the increment of component c for path j over
    step n, distributed N(0, dt) with dt = (t1 - t0) / n_steps.  A
    caller that streams the increments (``increment_blocks``,
    ``lattice_blocks``) passes None: such a grid fixes only the time
    lattice and the lineage, and ``coarsen`` and
    ``integrators.integrate`` refuse it.
    coarsen_factor records how many finest-grid steps one step here
    spans (1 for a freshly generated grid).
    """

    seed: int
    t0: float
    t1: float
    n_steps: int
    m: int
    m_paths: int
    increments: np.ndarray
    coarsen_factor: int = 1
    # finest-grid increments this grid was derived from, kept so further
    # coarsening can always sum root blocks in one fixed order
    root_increments: np.ndarray = field(default=None, repr=False)

    @property
    def dt(self):
        return (self.t1 - self.t0) / self.n_steps

    def times(self):
        """Grid nodes t_0 .. t_N, length n_steps + 1."""
        return self.t0 + self.dt * np.arange(self.n_steps + 1)

    def time(self, i):
        """Grid node t_i, equal to ``times()[i]`` bit for bit."""
        return self.t0 + self.dt * np.float64(i)


def standard_normals(gen, shape):
    """Standard normals by the inverse CDF of ``gen``'s uniforms, branch
    free; shared by the step blocks and the initial laws."""
    return ndtri(gen.random(shape) + _OPEN_INTERVAL_SHIFT)


def _standard_normal_block(seed, step, m, m_paths):
    # fresh Philox stream per step block; (component, path) indexes the
    # counter positions of that stream in row-major order
    gen = np.random.Generator(np.random.Philox(key=[seed, step]))
    return standard_normals(gen, (m, m_paths))


def increment_blocks(seed, t0, t1, n_steps, m, m_paths):
    """Stream the increments of a Brownian grid one step block at a time.

    Checks the arguments at once and returns an iterator over the
    (m, m_paths) blocks of steps 0 .. n_steps - 1: sqrt(dt) times an
    inverse-CDF standard normal block from a Philox stream keyed
    [seed, step].  Block n equals ``generate(...).increments[n]``, and
    that of any lattice of ``lattice_blocks`` with these parameters, bit
    for bit; only the block in hand is held in memory.
    """
    if n_steps < 1:
        raise GridMismatch("n_steps must be >= 1, got %d" % n_steps)
    if not t1 > t0:
        raise GridMismatch("need t1 > t0, got [%r, %r]" % (t0, t1))
    if m < 1 or m_paths < 1:
        raise GridMismatch("need m >= 1 and m_paths >= 1")
    grid = BrownianGrid(seed, t0, t1, n_steps, m, m_paths, None)
    return (blocks[0] for blocks in lattice_blocks([grid]))


def lattice_blocks(lattices):
    """Stream the increments of several lattices on one seed together.

    ``lattices`` are ``BrownianGrid``s sharing seed, m and m_paths.  For
    each step below the largest step count, yields per lattice its block
    of that step, or None once it has ended.  Each step's standard
    normal block is drawn once and scaled by each lattice's sqrt(dt).
    """
    first = lattices[0]
    if len({(grid.seed, grid.m, grid.m_paths) for grid in lattices}) > 1:
        raise GridMismatch("lattices must share seed, m and m_paths")
    scales = [np.sqrt(grid.dt) for grid in lattices]
    for step in range(max(grid.n_steps for grid in lattices)):
        z = _standard_normal_block(first.seed, step, first.m, first.m_paths)
        yield [scale * z if step < grid.n_steps else None
               for grid, scale in zip(lattices, scales)]


def generate(seed, t0, t1, n_steps, m, m_paths):
    """Generate a Brownian increment grid.

    Stores the blocks of ``increment_blocks`` as one array. Identical
    arguments give bit-identical arrays.
    """
    blocks = increment_blocks(seed, t0, t1, n_steps, m, m_paths)
    increments = np.empty((n_steps, m, m_paths))
    for step, block in enumerate(blocks):
        increments[step] = block
    grid = BrownianGrid(
        seed=int(seed),
        t0=float(t0),
        t1=float(t1),
        n_steps=int(n_steps),
        m=int(m),
        m_paths=int(m_paths),
        increments=increments,
    )
    object.__setattr__(grid, "root_increments", increments)
    return grid


class BlockSum:
    """Left-to-right sum of each run of ``factor`` consecutive blocks.

    ``push`` takes the next block and returns the finished sum after
    every factor-th block, None before.  The first block of a run is
    copied and the others are added to it in place, one at a time, so
    the sum of a run never depends on how the blocks were delivered.
    Each returned sum is a new array that later pushes leave alone.
    """

    def __init__(self, factor):
        self.factor = factor
        self._count = 0
        self._acc = None

    def push(self, block):
        if self._count == 0:
            self._acc = block.copy()
        else:
            self._acc += block
        self._count += 1
        if self._count < self.factor:
            return None
        self._count = 0
        return self._acc


def coarsen(fine, factor):
    """Sum consecutive increments into a coarser grid.

    factor must divide fine.n_steps. Each coarse increment is the
    ``BlockSum`` of the corresponding finest-grid blocks, so
    coarsen(coarsen(g, a), b) equals coarsen(g, a*b) bit for bit.
    """
    factor = int(factor)
    if factor < 1:
        raise GridMismatch("factor must be >= 1, got %d" % factor)
    if fine.n_steps % factor != 0:
        raise GridMismatch(
            "factor %d does not divide n_steps %d" % (factor, fine.n_steps)
        )
    if fine.root_increments is None:
        raise GridMismatch("cannot coarsen a grid that stores no increments")
    if factor == 1:
        return fine
    root = fine.root_increments
    total = fine.coarsen_factor * factor
    out = np.empty((fine.n_steps // factor, fine.m, fine.m_paths))
    run = BlockSum(total)
    for j, block in enumerate(root):
        summed = run.push(block)
        if summed is not None:
            out[j // total] = summed
    grid = BrownianGrid(
        seed=fine.seed,
        t0=fine.t0,
        t1=fine.t1,
        n_steps=out.shape[0],
        m=fine.m,
        m_paths=fine.m_paths,
        increments=out,
        coarsen_factor=total,
    )
    object.__setattr__(grid, "root_increments", root)
    return grid
