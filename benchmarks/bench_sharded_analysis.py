"""Sharded-analysis benchmark: address-partitioned pipeline vs serial.

Times the ``pcdheavy`` workload — large eagerly-detected SCCs with a
high violating-method density, so PCD log construction and replay (the
work the log shards absorb) dominates the serial run — in three arms:

``shards1``
    ``shards=1``: the degradation path, identical to a plain serial
    ``run_single`` (the sharded entry point never forks);
``shards2`` / ``shards4``
    the real multiprocess pipeline (coordinator + analysis shard +
    N-1 log shards) via :func:`repro.shard.coordinator.run_single_sharded`.

The same three arms run on ``hubstress`` (the largest stress
workload).  Hubstress is ICD-bound — almost no PCD work to offload —
so its row documents merge overhead and the lower bound of the
speedup range; ``pcdheavy`` carries the headline and the acceptance
assert.

Methodology — critical-path CPU on a time-shared container
----------------------------------------------------------

This container exposes a single schedulable CPU, so raw wall-clock for
a 4-process pipeline measures time-slicing, not the pipeline.  Each
arm therefore reports per-role CPU seconds (``time.process_time`` in
every process, collected through ``stats_out``), and the headline
metric is::

    steps_per_second = steps / max(role CPU seconds)

i.e. throughput over the pipeline's *critical path* — the wall-clock a
machine with one idle core per role would see, modulo queue-wait.
Raw ``wall_seconds`` is reported alongside, un-headlined, for honesty:
on this container it is *larger* than serial (the processes time-share
one core and pay the wire overhead), and on a multicore machine it is
the number to re-measure.  The speedup claim is that sharding cuts the
critical path, i.e. no single process does more than ``1/speedup`` of
the serial CPU work.

All arms must agree exactly on every deterministic counter (steps,
IDG edges, log entries, SCCs, violations) — the partition is a pure
reorganisation; ``tests/integration/test_sharded_determinism.py``
checks the full transition/log/edge dumps byte for byte.

Each sharded arm also records a per-stage busy/stall breakdown (chunk
decode, PCD jobs, merge vs blocking queue gets) measured by one extra
``--obs counters`` run — the same histograms ``repro obs analyze``
reads, committed so the pipeline's utilization profile is reviewable
alongside its throughput.

Records ``results/BENCH_sharded.json``
(``benchmarks/check_bench_regression.py`` compares fresh runs against
it).  Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_sharded_analysis.py -q

or standalone (JSON only)::

    PYTHONPATH=src python benchmarks/bench_sharded_analysis.py

CI smoke-tests the harness with ``--iterations 40 --out /tmp/...`` (a
shrunken workload written away from the committed baseline).
"""

import argparse
import json
import os
import platform
import sys
import time

RESULTS_PATH = os.path.join(
    os.path.dirname(__file__), "..", "results", "BENCH_sharded.json"
)

#: repetitions per arm; the rep with the smallest critical path is
#: reported (minimum filters out scheduler noise on a shared box)
REPS = 3

#: the acceptance bar for 4 shards against the 1-shard arm of the same
#: run (a paired, same-machine ratio: both arms drift together).  Kept
#: below the ~2.2x measured headline so the assertion survives machine
#: noise.
SPEEDUP_TARGET = 1.8

#: workload seed (any fixed value; all arms share it)
SEED = 1234


def _pcdheavy_spec(iterations=None):
    """High violating-density ring workload: PCD-dominated serial run.

    Eight threads over six hot shared objects with a wide violating
    method population keep eager SCC detection busy (≈2.4k components)
    and push PCD replay to ~60% of serial CPU — the share the log
    shards can absorb.  ``iterations`` shrinks it for smoke runs.
    """
    from repro.workloads.builder import WorkloadSpec

    return WorkloadSpec(
        name="pcdheavy",
        threads=8,
        iterations=iterations if iterations is not None else 500,
        shared_objects=6,
        readonly_objects=2,
        violating_methods=8,
        safe_methods=4,
        unary_ops=1,
        violating_weight=0.30,
        sliced_weight=0.20,
        sliced_methods=8,
        ring_size=8,
        ring_weight=0.35,
        pad=3,
    )


def _hubstress_spec(iterations=None):
    """The cycle-check stress workload (largest catalog-adjacent run).

    Hubstress is ICD-bound — its violating density is tiny, so there
    is little PCD/log work to offload and the analysis shard stays the
    critical path.  It is measured for merge overhead and as the
    honest lower bound of the speedup range, not for the headline.
    """
    from dataclasses import replace

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from bench_analysis_throughput import hubstress_spec

    spec = hubstress_spec()
    if iterations is not None:
        spec = replace(
            spec, iterations=iterations, hub_rounds=1, hub_scan_iters=50
        )
    return spec


def _checker(spec):
    from repro.core.doublechecker import DoubleChecker
    from repro.spec.specification import AtomicitySpecification
    from repro.workloads.builder import build_program

    return DoubleChecker(AtomicitySpecification.initial(build_program(spec)))


def _counters(result):
    """The deterministic outputs every arm must reproduce exactly."""
    return {
        "steps": result.execution.steps,
        "idg_edges": result.icd_stats.idg_edges,
        "log_entries": result.icd_stats.log_entries,
        "sccs": result.icd_stats.sccs,
        "pcd_entries_replayed": result.pcd_stats.entries_replayed,
        "violations": len(result.violations.records),
    }


def _serial_arm(spec, reps):
    """shards=1: the degradation path — a plain in-process run_single."""
    from repro.harness.runner import make_scheduler
    from repro.workloads.builder import build_program

    best = None
    for _ in range(reps or REPS):
        program = build_program(spec)
        checker = _checker(spec)
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        result = checker.run_single(program, make_scheduler(SEED), shards=1)
        cpu = time.process_time() - cpu0
        wall = time.perf_counter() - wall0
        if best is None or cpu < best[0]:
            best = (cpu, wall, result)
    cpu, wall, result = best
    row = {
        "steps_per_second": round(result.execution.steps / cpu),
        "critical_path_cpu_seconds": round(cpu, 3),
        "wall_seconds": round(wall, 3),
        "cpu_seconds": {"serial": round(cpu, 3)},
    }
    row.update(_counters(result))
    return row


def _sharded_arm(spec, shards, reps):
    from repro.harness.runner import make_scheduler
    from repro.shard.coordinator import run_single_sharded
    from repro.workloads.builder import build_program

    best = None
    for _ in range(reps or REPS):
        program = build_program(spec)
        checker = _checker(spec)
        stats = {}
        result, _ = run_single_sharded(
            checker, program, make_scheduler(SEED), shards, stats_out=stats
        )
        cpu = stats["cpu_seconds"]
        crit = max(cpu["coordinator"], cpu["analyzer"], max(cpu["workers"]))
        if best is None or crit < best[0]:
            best = (crit, stats, result)
    crit, stats, result = best
    cpu = stats["cpu_seconds"]
    row = {
        "steps_per_second": round(result.execution.steps / crit),
        "critical_path_cpu_seconds": round(crit, 3),
        "wall_seconds": round(stats["wall_seconds"], 3),
        "cpu_seconds": {
            "coordinator": round(cpu["coordinator"], 3),
            "analyzer": round(cpu["analyzer"], 3),
            "workers": [round(w, 3) for w in cpu["workers"]],
        },
        "merge_seconds": round(stats["merge_seconds"], 3),
        "stream_bytes": stats["stream_bytes"],
        "stream_records": stats["stream_records"],
        "breakdown": _stage_breakdown(spec, shards),
    }
    row.update(_counters(result))
    return row


def _stage_breakdown(spec, shards):
    """Per-stage busy/stall seconds from one instrumented run.

    A separate run with ``--obs counters`` (timing histograms, no event
    buffers) so the headline arms above stay un-instrumented; the
    children's histograms come home in their telemetry capsules.
    Wall-clock values — descriptive, not regression-gated.
    """
    from repro.harness.runner import make_scheduler
    from repro.obs.registry import MetricsRegistry, use_registry
    from repro.shard.coordinator import run_single_sharded
    from repro.workloads.builder import build_program

    registry = MetricsRegistry("counters")
    previous = use_registry(registry)
    try:
        program = build_program(spec)
        checker = _checker(spec)
        run_single_sharded(checker, program, make_scheduler(SEED), shards)
    finally:
        use_registry(previous)
    histograms = registry.snapshot()["histograms"]

    def total(name):
        summary = histograms.get(name)
        return round(summary["total"], 3) if summary else 0.0

    return {
        "busy_seconds": {
            "analyzer_chunks": total("shard.analyzer.chunk.seconds"),
            "analyzer_merge": total("shard.analyzer.merge.seconds"),
            "logshard_chunks": total("shard.log.chunk.seconds"),
            "pcd_jobs": total("shard.pcd.job.seconds"),
        },
        "stall_seconds": {
            "analyzer_get": total("shard.stall.analyzer.get.seconds"),
            "logshard_get": total("shard.stall.logshard.get.seconds"),
            "coordinator_result": total(
                "shard.stall.coordinator.result.seconds"
            ),
        },
    }


def _workload_rows(spec, reps):
    shards1 = _serial_arm(spec, reps)
    shards2 = _sharded_arm(spec, 2, reps)
    shards4 = _sharded_arm(spec, 4, reps)
    # the partition is a pure reorganisation: every deterministic
    # counter must match serial exactly, in every measurement mode
    # (committed baseline, CI smoke, regression gate)
    for arm_name, arm in (("shards2", shards2), ("shards4", shards4)):
        for key in (
            "steps", "idg_edges", "log_entries", "sccs",
            "pcd_entries_replayed", "violations",
        ):
            if arm[key] != shards1[key]:
                raise AssertionError(
                    f"{spec.name}.{arm_name}.{key} = {arm[key]} != serial "
                    f"{shards1[key]}: sharded run diverged"
                )
    return {
        "shards1": shards1,
        "shards2": shards2,
        "shards4": shards4,
        "speedup_4_vs_1": round(
            shards4["steps_per_second"] / shards1["steps_per_second"], 2
        ),
    }


def _measure(iterations=None, reps=None):
    return {
        "pcdheavy_single": _workload_rows(_pcdheavy_spec(iterations), reps),
        "hubstress_single": _workload_rows(_hubstress_spec(iterations), reps),
    }


def write_report(out=None, iterations=None, reps=None):
    report = {
        "module": "bench_sharded_analysis",
        "python": platform.python_version(),
        "methodology": (
            "steps_per_second = steps / max(per-role CPU seconds): "
            "pipeline critical path, not wall-clock (this container "
            "time-shares one CPU across the shard processes; "
            "wall_seconds is reported raw alongside)"
        ),
        "workloads": _measure(iterations, reps),
    }
    path = out or RESULTS_PATH
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return report


def test_sharded_analysis(tmp_path):
    """Regenerates the measurement and checks the partition's contract.

    Identity first: every sharded arm must reproduce the 1-shard arm's
    deterministic counters exactly (the byte-level dump comparison
    lives in the integration suite).  Then performance: 4 shards must
    beat the 1-shard critical path by the acceptance bar — a paired
    same-run ratio, so it holds across machines.
    """
    report = write_report(out=str(tmp_path / "BENCH_sharded.json"))
    row = report["workloads"]["pcdheavy_single"]
    shards1, shards2, shards4 = row["shards1"], row["shards2"], row["shards4"]

    for key in (
        "steps", "idg_edges", "log_entries", "sccs",
        "pcd_entries_replayed", "violations",
    ):
        assert shards2[key] == shards1[key], key
        assert shards4[key] == shards1[key], key
    assert shards4["violations"] > 0  # the workload must exercise PCD

    assert (
        shards4["steps_per_second"]
        >= SPEEDUP_TARGET * shards1["steps_per_second"]
    )
    # 2 shards moves all log construction and PCD onto one worker, so
    # its critical path roughly equals that share of the serial run —
    # a wash on this workload; assert it is at least not materially
    # slower than not sharding at all
    assert shards2["steps_per_second"] >= 0.85 * shards1["steps_per_second"]

    # hubstress (ICD-bound, nothing to offload) must not collapse
    # under sharding either: counter identity is already asserted in
    # _measure, so just require the critical path stays in the same
    # ballpark as serial
    hub = report["workloads"]["hubstress_single"]
    assert (
        hub["shards4"]["steps_per_second"]
        >= 0.70 * hub["shards1"]["steps_per_second"]
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--iterations",
        type=int,
        default=None,
        help="override the workload's per-thread iterations (smoke runs)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="write the JSON report here instead of results/BENCH_sharded.json",
    )
    args = parser.parse_args(argv)
    reps = 1 if args.iterations is not None else None
    report = write_report(out=args.out, iterations=args.iterations, reps=reps)
    json.dump(report, sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
    raise SystemExit(main())
