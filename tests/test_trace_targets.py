"""The benchmark's trace harness still finds what it wraps in entro.

``perfbench/tracing.py`` names its targets as (module, function) strings and
reads a few arguments and fields by name, so a rename in entro would only
show when a traced benchmark run breaks.  These tests read that file; they
change nothing in it.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

from entro import MetricSpec, PointCloud, orbit_space
from entro.dynamics import bd_count_table, build_orbit_table
from entro.gallery import build_doubling, build_escape, run_bundle
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
    table = build_orbit_table(build_doubling(grid=64).system, circle(8), 3)
    assert table.orbits.shape[0] * table.depth == 8 * 3


def circle(size: int) -> PointCloud:
    theta = np.arange(size) * (2.0 * np.pi / size)
    return PointCloud(np.column_stack([np.cos(theta), np.sin(theta)]), 0.05)


def traced_table(cloud: PointCloud, eps_list: list[float], n_max: int):
    tracing = load_tracing()
    with tracing.Tracer(tracing.LAYER_TARGETS).installed() as tracer:
        table = bd_count_table(
            build_doubling(grid=64).system, cloud, MetricSpec.euclidean(), eps_list, n_max
        )
    return table, [span[0] for span in tracer.spans]


def counted_cells(table) -> int:
    """The cells a table counted with ``counts_from_matrix``: those whose
    separated count is below the cloud size.  A count of N means every
    eps-ball holds only its centre, which the table counts without a scan,
    as it does every cell after the order where all pairs are the largest
    scale apart."""
    return sum(r.sep_count < table.cloud_size for r in table.rows)


def test_every_cell_is_one_counts_span():
    """In a table that never has every pair the largest scale apart, the
    ``metric_core.counts`` layer sees each (eps, n) cell that is not all
    singletons once, whichever path built the cell's neighbour lists.  The
    farthest-point walk runs inside those spans: the eager
    ``farthest_point_order`` is never called."""
    cloud = circle(300)
    eps_list, n_max = [0.2, 0.8, 0.4, 0.1], 5
    table, names = traced_table(cloud, eps_list, n_max)
    assert len(table.rows) == len(eps_list) * n_max
    assert dict(table.counts_for(0.8))[n_max] < cloud.size  # no order saturates
    singletons = len(table.rows) - counted_cells(table)
    assert 0 < singletons < len(table.rows)
    assert names.count("metric_core.counts") == counted_cells(table)
    assert names.count("metric_core.fpo") == 0


def test_saturated_table_counts_only_up_to_its_saturating_order():
    """Once every pair is the largest scale apart, no later order is counted."""
    cloud = circle(64)
    eps_list, n_max = [0.8, 0.4, 0.2], 8
    table, names = traced_table(cloud, eps_list, n_max)
    top = dict(table.counts_for(0.8))
    saturating = min(n for n, count in top.items() if count == cloud.size)
    assert saturating < n_max and len(table.rows) == len(eps_list) * n_max
    assert names.count("metric_core.fpo") == 0
    assert names.count("metric_core.counts") == counted_cells(table)
    assert counted_cells(table) <= len(eps_list) * (saturating - 1)


def test_exact_table_builds_no_farthest_point_order():
    """Exact counts do not read a farthest-point order, so none is built."""
    cloud = circle(20)
    eps_list, n_max = [1.9, 0.4], 3
    table, names = traced_table(cloud, eps_list, n_max)
    assert table.mode == "exact" and len(table.rows) == len(eps_list) * n_max
    assert dict(table.counts_for(1.9))[n_max] < cloud.size  # no order saturates
    assert names.count("metric_core.fpo") == 0
    assert names.count("metric_core.counts") == counted_cells(table)


def test_bundle_cloud_member_is_not_counted_again():
    """``run_bundle`` gives the member equal to the bundle cloud the direct
    table: that member adds no cells."""
    bundle = build_doubling(grid=256)
    members = bundle.family.members
    assert [m.size for m in members] == [64, 128, 256]
    tracing = load_tracing()
    with tracing.Tracer(tracing.LAYER_TARGETS).installed() as tracer:
        run = run_bundle(bundle, methods=("bowen_dinaburg", "compacta"))
    names = [span[0] for span in tracer.spans]
    spec = bundle.metric
    eps_list, n_max = list(bundle.eps_list), bundle.n_max
    small = [bd_count_table(bundle.system, m, spec, eps_list, n_max) for m in members[:2]]
    assert names.count("metric_core.counts") == (
        counted_cells(run.bd_table) + sum(counted_cells(t) for t in small)
    )


def test_member_tables_are_counted_inside_compacta():
    """``run_bundle`` counts every table of a direct + compacta run inside
    ``compacta_estimate``, so the benchmark credits the members to
    compacta."""
    tracing = load_tracing()
    with tracing.Tracer(tracing.LAYER_TARGETS).installed() as tracer:
        run_bundle(build_doubling(grid=256), methods=("bowen_dinaburg", "compacta"))
    spans = tracer.spans
    parents = [None if s[3] is None else spans[s[3]][0]
               for s in spans if s[0] == "dynamics.bd_table"]
    assert parents == ["estimators.compacta"] * 3


def test_truncated_lifted_table_is_traced_like_a_whole_one():
    """A lifted table cut to order 1 by an escape still builds its probe and
    its full orbit table inside the lifted span, and counts each scale once,
    so the benchmark credits it as it does a whole table."""
    bundle = build_escape(2, L_max=3, orbit_len=42)
    tracing = load_tracing()
    with tracing.Tracer(tracing.LAYER_TARGETS).installed() as tracer:
        table = orbit_space.friedland_count_table(  # the module's name, which the tracer wraps
            bundle.system, bundle.cloud, list(bundle.eps_list), bundle.n_max, rho=bundle.rho
        )
    spans = tracer.spans
    names = [span[0] for span in spans]
    assert table.truncated_at == 1
    parents = [None if s[3] is None else spans[s[3]][0]
               for s in spans if s[0] == "dynamics.orbit"]
    assert parents == ["orbit_space.lifted"] * 2
    assert names.count("metric_core.counts") == len(bundle.eps_list)
