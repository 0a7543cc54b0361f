"""End-to-end instrumentation: registry counters must byte-match the
legacy ``*Stats`` dataclasses after a checker run (the acceptance
criterion for the telemetry layer, and the satellite-1 drift fix for
``engine_search_visits``)."""

import dataclasses

import pytest

from repro.core.doublechecker import DoubleChecker
from repro.harness import runner
from repro.obs.registry import (
    MetricsRegistry,
    MODE_COUNTERS,
    MODE_FULL,
    recorder,
    use_registry,
)
from repro.runtime.lowering import BATCH_ENV
from repro.velodrome.checker import VelodromeChecker
from repro.workloads import build

WORKLOAD = "hedc"


@pytest.fixture(autouse=True)
def restore_recorder():
    previous = recorder()
    yield
    use_registry(previous)


@pytest.fixture
def registry():
    reg = MetricsRegistry(MODE_FULL)
    previous = use_registry(reg)
    yield reg
    use_registry(previous)


def _assert_stats_match(counters, prefix, stats, skip=()):
    """Every published int field of ``stats`` must byte-match its
    counter; dict fields must match key-wise."""
    checked = 0
    for field in dataclasses.fields(stats):
        if field.name in skip:
            continue
        value = getattr(stats, field.name)
        if isinstance(value, bool):
            continue
        if isinstance(value, int):
            assert counters.get(f"{prefix}.{field.name}", 0) == value, (
                f"{prefix}.{field.name}"
            )
            checked += 1
        elif isinstance(value, dict):
            for key, entry in value.items():
                if isinstance(entry, int) and not isinstance(entry, bool):
                    assert counters.get(f"{prefix}.{field.name}.{key}", 0) == entry
                    checked += 1
    assert checked, f"no integer fields published for {prefix}"


def test_single_run_counters_byte_match_legacy_stats(registry):
    spec = runner.initial_spec(WORKLOAD)
    result = runner.run_single(WORKLOAD, spec, seed=0)
    counters = registry.snapshot()["counters"]

    _assert_stats_match(counters, "icd", result.icd_stats)
    _assert_stats_match(counters, "octet", result.octet_stats)
    _assert_stats_match(counters, "transactions", result.tx_stats)
    _assert_stats_match(
        counters, "gc", result.gc_stats,
        skip=("peak_live_transactions", "peak_live_log_entries"),
    )
    _assert_stats_match(counters, "pcd", result.pcd_stats)

    # the satellite-1 metric: sourced from the linked engine stats, so
    # the property, the engine counter, and the registry cannot drift
    assert (
        counters["icd.engine_search_visits"]
        == result.icd_stats.engine_search_visits
        == counters.get("icd.engine.search_visits", 0)
    )

    # executor-level counters reflect the same execution
    assert counters["executor.steps"] == result.execution.steps
    assert counters["executor.accesses"] == result.execution.access_count
    assert counters["executor.runs"] == 1
    assert counters["executor.threads"] == len(result.execution.thread_names)

    # GC peaks are max-merged gauges, not counters
    gauges = registry.snapshot()["gauges"]
    assert gauges["gc.peak_live_transactions"] == (
        result.gc_stats.peak_live_transactions
    )


def test_velodrome_counters_byte_match_legacy_stats(registry):
    spec = runner.initial_spec(WORKLOAD)
    result = runner.run_velodrome(WORKLOAD, spec, seed=0)
    counters = registry.snapshot()["counters"]
    _assert_stats_match(counters, "velodrome", result.stats)
    assert (
        counters["velodrome.engine_search_visits"]
        == result.stats.engine_search_visits
        == counters.get("velodrome.engine.search_visits", 0)
    )


def test_icd_engine_search_visits_reads_through():
    spec = runner.initial_spec(WORKLOAD)
    checker = DoubleChecker(spec)
    result = checker.run_single(build(WORKLOAD), runner.make_scheduler(0))
    stats = result.icd_stats
    assert stats.engine is not None
    assert stats.engine_search_visits == stats.engine.search_visits


def test_icd_engine_search_visits_zero_without_engine():
    spec = runner.initial_spec(WORKLOAD)
    checker = DoubleChecker(spec, use_engine=False)
    result = checker.run_single(build(WORKLOAD), runner.make_scheduler(0))
    assert result.icd_stats.engine is None
    assert result.icd_stats.engine_search_visits == 0


def test_velodrome_engine_search_visits_reads_through():
    spec = runner.initial_spec(WORKLOAD)
    checker = VelodromeChecker(spec)
    result = checker.run(build(WORKLOAD), runner.make_scheduler(0))
    assert result.stats.engine_search_visits == (
        0 if result.stats.engine is None else result.stats.engine.search_visits
    )


def test_stats_with_linked_engine_survive_pickling():
    """CellPool ships results across processes; the linked engine stats
    must pickle with the dataclass."""
    import pickle

    spec = runner.initial_spec(WORKLOAD)
    result = runner.run_single(WORKLOAD, spec, seed=0)
    clone = pickle.loads(pickle.dumps(result.icd_stats))
    assert clone.engine_search_visits == result.icd_stats.engine_search_visits


def test_disabled_mode_records_nothing():
    use_registry(None)
    spec = runner.initial_spec(WORKLOAD)
    result = runner.run_single(WORKLOAD, spec, seed=0)
    assert result.execution.steps > 0
    assert recorder().snapshot()["counters"] == {}


def test_full_mode_times_the_columnar_barrier(monkeypatch):
    """Full-mode dispatch timing wraps the barrier the batch loop really
    uses: a scripted single run reports the same Octet counters —
    including the columnar-barrier hits — with telemetry off, in
    counters mode, and in full mode, and every access is timed."""
    monkeypatch.setenv(BATCH_ENV, "1")
    spec = runner.initial_spec(WORKLOAD)
    octet_stats = {}
    counters = {}
    for mode in (None, MODE_COUNTERS, MODE_FULL):
        use_registry(None if mode is None else MetricsRegistry(mode))
        result = runner.run_single(WORKLOAD, spec, seed=0)
        octet_stats[mode] = dataclasses.asdict(result.octet_stats)
        counters[mode] = recorder().snapshot()["counters"]

    assert octet_stats[None]["fast_path_fused"] > 0
    assert octet_stats[MODE_COUNTERS] == octet_stats[None]
    assert octet_stats[MODE_FULL] == octet_stats[None]
    full = counters[MODE_FULL]
    assert full["executor.batch.frames_lowered"] > 0
    assert full["executor.listener_dispatch.calls"] == full["executor.accesses"]
