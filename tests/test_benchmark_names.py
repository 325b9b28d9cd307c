"""The program names the benchmark's tracer wraps still exist.

`perfbench/tracing.py` replaces the attributes in its `TARGETS` with timing
wrappers, and `perfbench/test_perfbench.py` replaces `World._longitudinal`
with a function of the same arguments.  Those tests are not in this suite,
so a rename would otherwise surface only when the benchmark runs.
"""

import importlib.util
import inspect
from pathlib import Path

from nafdrive.simworld import World

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for owner, attr, _label in tracing.TARGETS:
        assert callable(vars(owner).get(attr)), f"{owner.__name__}.{attr}"


def test_longitudinal_takes_the_arguments_the_benchmark_passes():
    params = list(inspect.signature(World._longitudinal).parameters)
    assert params == ["self", "lane_lists", "veh", "faults"]
