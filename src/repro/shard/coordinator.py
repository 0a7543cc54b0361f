"""Coordinator for sharded single-run analysis.

Runs the executor in-process with a :class:`ShardStreamRecorder` as its
only listener (so execution proceeds exactly as a serial run would —
analyses never feed back into scheduling), streams the recorded
execution to the analysis shard, and the analysis shard fans log
construction and PCD replay out to ``shards - 1`` log shards.  The
merged bundle that comes back is packaged into the same
:class:`~repro.core.doublechecker.SingleRunResult` a serial
``run_single`` produces, byte-identical in every field the serial run
populates.

Topology (``N = shards`` worker processes)::

    coordinator ──records──▶ analysis shard ──records──▶ log shard 1
        (executor)            (Octet+ICD)    ├─records──▶ ...
                                   ▲         └─records──▶ log shard N-1
                                   │ job results, stat shares
                                   └── log shards (peer slice mesh)

Every child is a forked daemon; the coordinator polls the result queue
with a liveness check so a crashed child surfaces as an error instead
of a hang, and analysis-side exceptions (including the deterministic
``OutOfMemoryBudget``) are re-raised here with their original args.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from typing import Optional, Tuple

from repro.core.reports import ViolationSummary
from repro.errors import OutOfMemoryBudget, ReproError
from repro.obs.registry import NOOP, publish_stats, recorder as obs_recorder
from repro.obs.wire import merge_capsule, sample_depth, trace_context
from repro.runtime.executor import Executor
from repro.shard.analyzer import run_analyzer
from repro.shard.logworker import run_worker
from repro.shard.recorder import ShardStreamRecorder


class ShardWorkerError(ReproError):
    """A shard process failed with a non-analysis error."""


def unsupported_features(checker, monitor_regular,
                         monitor_unary_site) -> Tuple[str, ...]:
    """Which features of this configuration keep it off the sharded path?

    Callables can't cross the process boundary (``monitor_regular`` /
    ``monitor_unary_site``), the ICD memory budget is defined over one
    process's footprint, and object-granularity arrays change the
    address space the partition is defined over.  Returns a tuple of
    feature names, empty when the configuration can run sharded with
    byte-identical results; the caller records one
    ``shard.fallback.<name>`` counter per entry plus a single
    ``shard.fallbacks`` increment for the run.
    """
    missing = []
    if monitor_regular is not None:
        missing.append("monitor_regular")
    if monitor_unary_site is not None:
        missing.append("monitor_unary_site")
    if checker.icd_memory_budget is not None:
        missing.append("icd_memory_budget")
    if checker.array_granularity_object:
        missing.append("array_granularity_object")
    return tuple(missing)


def supported_config(checker, monitor_regular, monitor_unary_site) -> bool:
    """Can this configuration run sharded with byte-identical results?"""
    return not unsupported_features(checker, monitor_regular,
                                    monitor_unary_site)


def run_single_sharded(
    checker,
    program,
    scheduler,
    shards: int,
    *,
    monitor_unary: bool = True,
    capture: bool = False,
    stats_out: Optional[dict] = None,
) -> Tuple["SingleRunResult", Optional[dict]]:
    """Sharded equivalent of ``DoubleChecker.run_single``.

    Returns ``(result, capture_bundle)``; the capture bundle (serial
    transition/log/edge dumps, used by the determinism tests) is
    ``None`` unless ``capture=True``.  ``stats_out``, if given, is
    filled with per-role CPU seconds and wire counters (the sharded
    benchmark reads these to compute the pipeline critical path).
    """
    from repro.core.doublechecker import SingleRunResult

    obs = obs_recorder()
    obs.set_label("coordinator")
    cfg = {
        "spec": checker.spec,
        "shards": shards,
        "monitor_unary": monitor_unary,
        "instrument_arrays": checker.instrument_arrays,
        "cycle_detection": checker.cycle_detection,
        "eager_scc": checker.eager_scc,
        "gc_interval": checker.gc_interval,
        "use_engine": checker.use_engine,
        "pcd_memory_budget": checker.pcd_memory_budget,
        "capture": capture,
        # trace context: children inherit the run's epoch/trace id and
        # ship their span/histogram buffers back inside the bundles
        "obs": trace_context(obs),
    }
    nworkers = shards - 1
    ctx = mp.get_context("fork")
    # mp.Queue (feeder-thread buffered) everywhere: a synchronous pipe
    # (SimpleQueue) can deadlock the peer slice mesh — two log shards
    # sending each other slices block on full pipes simultaneously
    q_analyzer = ctx.Queue()
    worker_queues = [ctx.Queue() for _ in range(nworkers)]
    q_result = ctx.Queue()

    children = [
        ctx.Process(
            target=run_analyzer,
            args=(cfg, q_analyzer, worker_queues, q_result),
            name="shard-analyzer",
            daemon=True,
        )
    ]
    for widx in range(nworkers):
        children.append(
            ctx.Process(
                target=run_worker,
                args=(cfg, widx, worker_queues[widx], worker_queues,
                      q_analyzer, q_result),
                name=f"shard-log-{widx}",
                daemon=True,
            )
        )

    started = time.perf_counter()
    cpu_before = time.process_time()
    try:
        for child in children:
            child.start()
        if obs.enabled:
            epoch = obs.epoch
            chunk_ordinal = [0]

            def _sink(defs, payload):
                # flow start: binds to the analyzer's matching flow
                # finish for the same chunk ordinal (FIFO queue)
                obs.emit_flow("shard.chunk", time.perf_counter() - epoch,
                              chunk_ordinal[0], "s")
                chunk_ordinal[0] += 1
                q_analyzer.put(("C", defs, payload))
                sample_depth(obs, "shard.queue.c2a.depth", q_analyzer)

            recorder = ShardStreamRecorder(_sink)
        else:
            recorder = ShardStreamRecorder(
                lambda defs, payload: q_analyzer.put(("C", defs, payload))
            )
        executor = Executor(program, scheduler, [recorder])
        with obs.span("shard.execute", shards=shards):
            execution = executor.run()
        coordinator_cpu = time.process_time() - cpu_before

        with obs.span("shard.await"):
            bundle = _await_result(q_result, children, obs)
        elapsed = time.perf_counter() - started
    finally:
        for child in children:
            if child.is_alive():
                child.terminate()
        for child in children:
            child.join(timeout=5.0)

    violations = ViolationSummary()
    violations.extend(bundle["violations"])
    result = SingleRunResult(
        violations=violations,
        execution=execution,
        icd_stats=bundle["icd_stats"],
        tx_stats=bundle["tx_stats"],
        octet_stats=bundle["octet_stats"],
        gc_stats=bundle["gc_stats"],
        elision_stats=bundle["elision_stats"],
        protocol_stats=bundle["protocol_stats"],
        pcd_stats=bundle["pcd_stats"],
        elapsed_seconds=elapsed,
    )
    _publish(recorder, bundle, shards, coordinator_cpu)
    if stats_out is not None:
        stats_out["cpu_seconds"] = {
            "coordinator": coordinator_cpu,
            **bundle["cpu_seconds"],
        }
        stats_out["merge_seconds"] = bundle["merge_seconds"]
        stats_out["wall_seconds"] = elapsed
        stats_out["counters"] = dict(bundle["counters"])
        stats_out["stream_bytes"] = recorder.bytes_shipped
        stats_out["stream_records"] = recorder.records
    return result, bundle.get("capture")


def _await_result(q_result, children, obs=NOOP) -> dict:
    """Wait for the analysis bundle, re-raising child failures."""
    import queue as queue_mod

    wait_started = time.perf_counter()
    while True:
        try:
            tag, payload = q_result.get(timeout=1.0)
        except queue_mod.Empty:
            dead = [c for c in children if not c.is_alive() and c.exitcode]
            if dead:
                # drain a possible late error message before giving up
                try:
                    tag, payload = q_result.get(timeout=1.0)
                except queue_mod.Empty:
                    raise ShardWorkerError(
                        "shard process died without reporting: "
                        + ", ".join(
                            f"{c.name} (exit {c.exitcode})" for c in dead
                        )
                    )
            else:
                continue
        except (EOFError, OSError) as exc:  # pragma: no cover - teardown race
            raise ShardWorkerError(f"shard result channel closed: {exc}")
        if tag == "A":
            # time the coordinator spent blocked on the pipeline after
            # its own execution finished (wall, so histogram-only)
            if obs.enabled:
                obs.observe("shard.stall.coordinator.result.seconds",
                            time.perf_counter() - wait_started)
            return payload
        exc_name, args, tb = payload
        if exc_name == "OutOfMemoryBudget":
            # deterministic analysis outcome, not a crash: surface it
            # exactly as the serial run would
            raise OutOfMemoryBudget(*args)
        raise ShardWorkerError(
            f"shard process failed with {exc_name}{tuple(args)!r}:\n{tb}"
        )


def _publish(recorder: ShardStreamRecorder, bundle: dict, shards: int,
             coordinator_cpu: float = 0.0) -> None:
    """Republisher for the coordinator's observability registry.

    Mirrors the serial run's ``ICD.publish_metrics`` + PCD publication
    (the children's counters/gauges are deliberately discarded — see
    :func:`repro.obs.wire.telemetry_capsule`), adds the ``shard.*``
    wire/merge counters, folds in the children's telemetry capsules
    (spans + wall-clock histograms), and records the per-role CPU
    attribution histograms the critical-path analyzer reads.
    """
    obs = obs_recorder()
    if not obs.enabled:
        return
    icd_stats = bundle["icd_stats"]
    publish_stats(obs, "icd", icd_stats)
    obs.inc("icd.engine_search_visits", icd_stats.engine_search_visits)
    bundle["octet_stats"].publish(obs)
    for key, value in sorted(bundle["protocol_stats"].items()):
        if isinstance(value, int) and not isinstance(value, bool):
            obs.inc(f"octet.protocol.{key}", value)
    publish_stats(obs, "transactions", bundle["tx_stats"])
    publish_stats(
        obs,
        "gc",
        bundle["gc_stats"],
        gauges=("peak_live_transactions", "peak_live_log_entries"),
    )
    publish_stats(obs, "elision", bundle["elision_stats"])
    if icd_stats.engine is not None:
        icd_stats.engine.publish(obs, "icd.engine")
    publish_stats(obs, "pcd", bundle["pcd_stats"])
    # a serial run counts one `pcd.process` span per component replay;
    # sharded replays happen inside the log shards, whose counters are
    # discarded with the rest of the capsule, so mirror the span count
    # here to keep the merged counter set byte-identical with serial
    if bundle["pcd_stats"].components_processed:
        obs.inc(
            "phase.pcd.process.count",
            bundle["pcd_stats"].components_processed,
        )
    obs.inc("shard.workers", shards)
    obs.inc("shard.stream_chunks", recorder.chunks)
    obs.inc("shard.stream_bytes", recorder.bytes_shipped)
    obs.inc("shard.stream_records", recorder.records)
    obs.inc("shard.stream_defs", recorder.defs_shipped)
    for key, value in bundle["counters"].items():
        obs.inc(key, value)
    # wall-clock, so histograms like the phase timers — counters and
    # gauges must stay deterministic across identical runs
    obs.observe("shard.merge.seconds", bundle["merge_seconds"])
    cpu = bundle.get("cpu_seconds", {})
    obs.observe("shard.cpu.coordinator.seconds", coordinator_cpu)
    if "analyzer" in cpu:
        obs.observe("shard.cpu.analyzer.seconds", cpu["analyzer"])
    for worker_cpu in cpu.get("workers", ()):
        obs.observe("shard.cpu.logshard.seconds", worker_cpu)
    # fold the children's span/histogram buffers into the run timeline
    telemetry = bundle.get("telemetry") or {}
    merge_capsule(obs, telemetry.get("analyzer"))
    for capsule in telemetry.get("workers", ()):
        merge_capsule(obs, capsule)


__all__ = [
    "run_single_sharded",
    "supported_config",
    "unsupported_features",
    "ShardWorkerError",
]
