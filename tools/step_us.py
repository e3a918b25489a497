"""Fixed cost of one low-rank step, layer by layer, in microseconds.

For each low-rank scheme on ``toy_example_2`` (k = 2), ``stability_model``
(k = 4) and ``sadr_model`` (k = 18), at the path counts and step sizes
of the benchmark workloads, reports

* ``move``: one ``integrators._move`` on a stack of one, the step's d x M
  work (model evaluation, the moved samples, the basis solve's Gramian
  and right-hand side);
* ``settle``: one ``integrators._settle`` of that move, the k x k phase
  (basis solve, QR refactorization) and the settle's bookkeeping;

and per model one ``noise`` block, the cost of one step of
``noise.lattice_blocks`` on one lattice.  Each figure is the minimum
over ``REPEAT`` (60) rounds of the mean over ``NUMBER`` (20) calls,
taken warm, so it measures the fixed cost of a call and not the host's
noise.

    PYTHONPATH=src python3 tools/step_us.py

Only the standard library and NumPy are used besides the package; the
tool stays outside the test suite.
"""

import time
import warnings

import numpy as np

from lowrank_sde.ensemble import init_rank_k
from lowrank_sde.integrators import _FLAGS, _move, _settle
from lowrank_sde.models import build_model
from lowrank_sde.noise import BrownianGrid, lattice_blocks

# (model, rank, paths, dt, rank policy) of the benchmark workloads'
# finest lattices
CASES = (
    ("toy_example_2", 2, 2000, 0.001, "abort"),
    ("stability_model", 4, 2000, 0.0907, "abort"),
    ("sadr_model", 18, 1000, 0.002, "svd"),
)
SEED = 20240817
REPEAT = 60
NUMBER = 20


def min_mean_us(fn):
    """Smallest mean time of ``NUMBER`` calls of fn over ``REPEAT``
    rounds, in microseconds."""
    best = float("inf")
    for _ in range(REPEAT):
        start = time.perf_counter_ns()
        for _ in range(NUMBER):
            fn()
        best = min(best, (time.perf_counter_ns() - start) / NUMBER)
    return best / 1e3


def case_rows(name, rank, m_paths, dt, rank_policy):
    model, law = build_model(name)
    state = init_rank_k(law(SEED, m_paths), rank)
    steps = REPEAT * NUMBER + 1
    grid = BrownianGrid(SEED, 0.0, steps * dt, steps, model.m, m_paths, None)
    blocks = lattice_blocks([grid])
    dw = next(blocks)[0]
    rows = [(name, rank, "noise", "-",
             min_mean_us(lambda: next(blocks)))]
    for scheme, flags in _FLAGS.items():
        def move():
            return _move(model, state, dt, dw, **flags,
                         rank_policy=rank_policy)

        moved = move()
        rows.append((name, rank, "move", scheme,
                     min_mean_us(move)))
        rows.append((name, rank, "settle", scheme,
                     min_mean_us(lambda: _settle([moved]))))
    return rows


def main():
    print("%-16s %4s  %-7s %-11s %10s" % ("model", "k", "layer", "scheme",
                                           "us"))
    with warnings.catch_warnings(), np.errstate(over="ignore",
                                                invalid="ignore"):
        # the harness steps under this error state (integrators.advance_all)
        warnings.simplefilter("ignore")
        for case in CASES:
            for row in case_rows(*case):
                print("%-16s %4d  %-7s %-11s %10.1f" % row, flush=True)


if __name__ == "__main__":
    main()
