"""The names perfbench/tracer.py replaces must exist in the package.

The tracer patches module attributes by name, and only ``--trace 1``
runs it, so a renamed or deleted name would otherwise go unnoticed.
"""

import importlib.util
import inspect
from pathlib import Path

import lowrank_sde.cli
import lowrank_sde.ensemble
import lowrank_sde.harness
import lowrank_sde.integrators
import lowrank_sde.models
import lowrank_sde.noise

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
MODULES = {
    "cli": lowrank_sde.cli,
    "harness": lowrank_sde.harness,
    "integrators": lowrank_sde.integrators,
}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_patched_name_exists():
    tracer = load_tracer()
    missing = [(module, attr) for module, attr, _, _ in tracer.CALL_SITES
               if attr not in vars(MODULES[module])]
    assert missing == []
    low_rank = set(tracer.STEP_SCHEMES) - {"em"}
    assert set(lowrank_sde.integrators._DLR_STEPS) == low_rank
    assert "__post_init__" in vars(lowrank_sde.ensemble.EnsembleState)
    assert "__init__" in vars(lowrank_sde.models.SdeModel)
    assert callable(lowrank_sde.harness._map_cells)
    # Tracer.__enter__ reads these two, and binds their arguments by
    # name to count noise blocks
    for name, params in (("generate", {"seed", "n_steps", "m", "m_paths"}),
                         ("coarsen", {"fine", "factor"})):
        fn = getattr(lowrank_sde.noise, name)
        assert params <= set(inspect.signature(fn).parameters)
