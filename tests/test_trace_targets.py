"""The benchmark's trace harness still finds what it wraps in entro.

``perfbench/tracing.py`` names its targets as (module, function) strings and
reads a few arguments and fields by name, so a rename in entro would only
show when a traced benchmark run breaks.  These tests read that file; they
change nothing in it.
"""

import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

from entro.dynamics import OrbitTable, bd_count_table
from entro.metric_core import counts_from_matrix

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_targets_resolve():
    for _, module, func, _ in load_tracing().LAYER_TARGETS:
        target = getattr(importlib.import_module(module), func, None)
        assert callable(target), f"{module}.{func}"


def test_attribute_readers_find_their_names():
    assert list(inspect.signature(bd_count_table).parameters)[1] == "cloud"
    assert list(inspect.signature(counts_from_matrix).parameters)[0] == "dmat"
    assert {"orbits", "depth"} <= {f.name for f in dataclasses.fields(OrbitTable)}
