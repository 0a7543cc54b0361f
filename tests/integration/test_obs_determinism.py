"""Telemetry determinism across the parallel and sharded harnesses.

Counters are derived from the analyzed execution, never from wall-clock
time, and :meth:`CellPool.starmap` merges per-cell snapshots in
submission order — so a serial run and a ``--jobs N`` run of the same
cells must produce *identical* merged counters and gauges (the PR's
acceptance criterion).  Histograms and span events carry wall-clock
durations and are exempt.

The sharded pipeline adds transport-layer telemetry (``shard.*``
counters such as chunk/byte totals, plus coordinator-side
``phase.shard.*`` span counters) that legitimately depends on the
shard count — those namespaces are excluded, and *everything else*
must still be byte-identical across serial, ``--shards {2,4}``, and
``--jobs 2`` arms.  A full-mode sharded run must also merge into one
schema-valid trace timeline: a single trace id, labeled process
tracks for the coordinator and every shard, and paired cross-process
flow arrows.
"""

import pytest

from repro.harness import runner, table3
from repro.harness.parallel import CellPool
from repro.obs.analyze import validate_trace
from repro.obs.export import chrome_trace_document
from repro.obs.registry import (
    MetricsRegistry,
    MODE_COUNTERS,
    MODE_FULL,
    recorder,
    use_registry,
)
from repro.shard import SHARDS_ENV

WORKLOAD = "hedc"

#: telemetry namespaces that describe the sharded *transport* rather
#: than the analyzed execution; they only exist (and legitimately
#: differ) when the pipeline is partitioned
SHARD_ONLY_PREFIXES = ("shard.", "phase.shard.")


def _portable(mapping):
    return {
        name: value
        for name, value in mapping.items()
        if not name.startswith(SHARD_ONLY_PREFIXES)
    }


@pytest.fixture(autouse=True)
def fresh_caches(tmp_path, monkeypatch):
    monkeypatch.setattr(runner, "CACHE_DIR", str(tmp_path))
    runner._FINAL_SPEC_MEMO.clear()
    yield
    runner._FINAL_SPEC_MEMO.clear()


def _cells(spec):
    return [
        ("velodrome", WORKLOAD, spec, seed) for seed in range(3)
    ] + [
        ("single", WORKLOAD, spec, seed) for seed in range(3)
    ] + [
        ("first", WORKLOAD, spec, 7),
        ("baseline", WORKLOAD, None, 0),
    ]


def _run_cells(jobs, mode=MODE_COUNTERS):
    registry = MetricsRegistry(mode)
    previous = use_registry(registry)
    try:
        with CellPool(jobs) as pool:
            results = pool.starmap(runner.run_cell, _cells(spec_for_test()))
    finally:
        use_registry(previous)
    return results, registry.snapshot()


def spec_for_test():
    return runner.initial_spec(WORKLOAD)


def test_serial_and_parallel_merged_counters_identical():
    serial_results, serial = _run_cells(jobs=1)
    parallel_results, parallel = _run_cells(jobs=2)
    assert serial["counters"] == parallel["counters"]
    assert serial["gauges"] == parallel["gauges"]
    assert serial["counters"], "expected a non-empty merged snapshot"
    # the telemetry wrapper must not change the cell results either
    assert len(serial_results) == len(parallel_results)
    for s, p in zip(serial_results[:3], parallel_results[:3]):
        assert s.blamed_methods == p.blamed_methods


def test_full_mode_counters_still_deterministic():
    _, serial = _run_cells(jobs=1, mode=MODE_FULL)
    _, parallel = _run_cells(jobs=2, mode=MODE_FULL)
    assert serial["counters"] == parallel["counters"]
    # events exist in both but carry wall-clock data (not compared)
    assert serial["events"] and parallel["events"]


def test_experiment_generation_deterministic_under_obs():
    """A whole experiment (refinement included) merges identically."""

    def generate(jobs):
        runner._FINAL_SPEC_MEMO.clear()
        runner.clear_caches()
        registry = MetricsRegistry(MODE_COUNTERS)
        previous = use_registry(registry)
        try:
            with CellPool(jobs) as pool:
                result = table3.generate([WORKLOAD], pool=pool)
        finally:
            use_registry(previous)
        return result.render(), registry.snapshot()

    render_serial, serial = generate(jobs=1)
    render_parallel, parallel = generate(jobs=2)
    assert render_serial == render_parallel
    assert serial["counters"] == parallel["counters"]
    assert serial["gauges"] == parallel["gauges"]


def _run_cells_sharded(monkeypatch, shards, mode=MODE_COUNTERS):
    if shards is None:
        monkeypatch.delenv(SHARDS_ENV, raising=False)
    else:
        monkeypatch.setenv(SHARDS_ENV, str(shards))
    try:
        return _run_cells(jobs=1, mode=mode)
    finally:
        monkeypatch.delenv(SHARDS_ENV, raising=False)


def test_counters_identical_serial_vs_sharded_vs_jobs(monkeypatch):
    """The acceptance criterion: one deterministic counter set no
    matter how the work is partitioned — serial, sharded analysis
    (``--shards {2,4}``), or parallel cells (``--jobs 2``) — once the
    shard-transport namespaces are excluded."""
    _, serial = _run_cells_sharded(monkeypatch, None)
    _, jobs2 = _run_cells(jobs=2)
    _, shard2 = _run_cells_sharded(monkeypatch, 2)
    _, shard4 = _run_cells_sharded(monkeypatch, 4)

    base_counters = _portable(serial["counters"])
    base_gauges = _portable(serial["gauges"])
    assert base_counters, "expected a non-empty merged snapshot"
    for name, arm in (("jobs2", jobs2), ("shard2", shard2),
                      ("shard4", shard4)):
        assert _portable(arm["counters"]) == base_counters, name
        assert _portable(arm["gauges"]) == base_gauges, name

    # the exclusion is not vacuous: sharded arms do record transport
    # counters, the serial arm records none
    assert any(k.startswith("shard.") for k in shard2["counters"])
    assert not any(k.startswith("shard.") for k in serial["counters"])
    # and the *deterministic* transport counters agree between shard
    # counts where the merge reconciles them to serial bytes
    for key in ("shard.stream_records", "shard.stream_defs"):
        assert shard2["counters"][key] == shard4["counters"][key]


def test_sharded_full_mode_merges_single_timeline(monkeypatch):
    """``--shards N --obs full`` must produce ONE schema-valid trace:
    a single trace id, labeled tracks for coordinator + analyzer + log
    shards, spans from every process, and paired flow arrows."""
    monkeypatch.setenv(SHARDS_ENV, "2")
    registry = MetricsRegistry(MODE_FULL)
    previous = use_registry(registry)
    try:
        runner.run_cell("single", WORKLOAD, spec_for_test(), 0)
    finally:
        use_registry(previous)
    snapshot = registry.snapshot()
    doc = chrome_trace_document(snapshot)
    assert validate_trace(doc) == []

    assert doc["otherData"]["trace_id"] == snapshot["trace_id"]
    labels = set(snapshot["labels"].values())
    assert "coordinator" in labels
    assert "shard-analyzer" in labels
    assert "shard-log-0" in labels

    events = doc["traceEvents"]
    span_pids = {e["pid"] for e in events if e["ph"] == "X"}
    label_pids = set(snapshot["labels"])
    # every labeled process contributed spans to the one timeline
    assert label_pids <= span_pids
    assert len(span_pids) >= 3

    # flow arrows pair up: each (name, id) start has exactly one finish
    starts = {(e["name"], e["id"]) for e in events if e["ph"] == "s"}
    finishes = {(e["name"], e["id"]) for e in events if e["ph"] == "f"}
    assert starts, "expected cross-process flow arrows"
    assert starts == finishes
    names = {name for name, _id in starts}
    assert "shard.chunk" in names
    assert "shard.job" in names


def test_disabled_mode_parallel_path_unchanged():
    use_registry(None)
    assert recorder().enabled is False
    with CellPool(2) as pool:
        results = pool.starmap(
            runner.run_cell, [("baseline", WORKLOAD, None, 0)] * 2
        )
    assert all(r.steps > 0 for r in results)
