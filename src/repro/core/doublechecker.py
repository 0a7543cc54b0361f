"""DoubleChecker's execution modes (Figure 1).

* **Single-run mode** — ICD and PCD operate on the same execution.
  ICD logs all program accesses; each cyclic SCC it detects is handed
  to PCD immediately.  Fully sound and precise.
* **Multi-run mode** — the first run executes only ICD (no logging)
  and produces :class:`~repro.core.static_info.StaticTransactionInfo`;
  the second run executes ICD+PCD but instruments only the statically
  identified transactions.  Each run is cheaper than single-run mode,
  but the mode is unsound: the two runs observe different executions.
* **PCD-only** — the Section 5.4 straw man: PCD processes every
  executed transaction instead of only ICD-flagged ones.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.core.gc import GcStats
from repro.core.icd import ICD, ICDStats
from repro.core.pcd import PCD, PCDStats
from repro.core.reports import ViolationSummary
from repro.core.rwlog import ElisionStats
from repro.core.static_info import StaticTransactionInfo
from repro.core.transactions import Transaction, TransactionStats
from repro.octet.runtime import OctetStats
from repro.runtime.executor import ExecutionResult, Executor
from repro.runtime.program import Program
from repro.runtime.scheduler import Scheduler
from repro.runtime.view import ExecutorView
from repro.spec.specification import AtomicitySpecification

ProgramFactory = Callable[[], Program]
SchedulerFactory = Callable[[int], Scheduler]


@dataclass
class SingleRunResult:
    """Outcome of one execution under ICD(+PCD)."""

    violations: ViolationSummary
    execution: ExecutionResult
    icd_stats: ICDStats
    tx_stats: TransactionStats
    octet_stats: OctetStats
    gc_stats: GcStats
    elision_stats: ElisionStats
    protocol_stats: dict
    pcd_stats: Optional[PCDStats] = None
    elapsed_seconds: float = 0.0

    @property
    def blamed_methods(self) -> set:
        return self.violations.blamed_methods()


@dataclass
class FirstRunResult:
    """Outcome of multi-run mode's first (ICD-only, no-logging) run."""

    static_info: StaticTransactionInfo
    execution: ExecutionResult
    icd_stats: ICDStats
    tx_stats: TransactionStats
    octet_stats: OctetStats
    gc_stats: GcStats
    protocol_stats: dict
    elapsed_seconds: float = 0.0


@dataclass
class MultiRunResult:
    """Outcome of the full multi-run pipeline."""

    first_runs: List[FirstRunResult]
    static_info: StaticTransactionInfo
    second_run: SingleRunResult

    @property
    def violations(self) -> ViolationSummary:
        return self.second_run.violations


class DoubleChecker:
    """Front end configuring and executing the analyses.

    Args:
        spec: the atomicity specification to check against.
        pcd_memory_budget: per-component log-entry cap for PCD.
        icd_memory_budget: cap on ICD's live transactions + log entries.
        gc_interval: transaction-collector cadence (None disables).
        instrument_arrays / array_granularity_object / cycle_detection /
        eager_scc: experiment knobs forwarded to :class:`ICD`.
    """

    def __init__(
        self,
        spec: AtomicitySpecification,
        *,
        pcd_memory_budget: Optional[int] = None,
        icd_memory_budget: Optional[int] = None,
        gc_interval: Optional[int] = 64,
        instrument_arrays: bool = False,
        array_granularity_object: bool = False,
        cycle_detection: bool = True,
        eager_scc: bool = False,
        use_engine: bool = True,
    ) -> None:
        self.spec = spec
        self.pcd_memory_budget = pcd_memory_budget
        self.icd_memory_budget = icd_memory_budget
        self.gc_interval = gc_interval
        self.instrument_arrays = instrument_arrays
        self.array_granularity_object = array_granularity_object
        self.cycle_detection = cycle_detection
        self.eager_scc = eager_scc
        #: route cycle checks through the incremental graph engine;
        #: False restores the original whole-graph DFS/Tarjan schedule
        #: (the analysis-throughput benchmark's baseline arm)
        self.use_engine = use_engine

    # ------------------------------------------------------------------
    # single-run mode
    # ------------------------------------------------------------------
    def run_single(
        self,
        program: Program,
        scheduler: Optional[Scheduler] = None,
        *,
        monitor_regular: Optional[Callable[[str], bool]] = None,
        monitor_unary: bool = True,
        monitor_unary_site: Optional[Callable[[str], bool]] = None,
        shards: Optional[int] = None,
    ) -> SingleRunResult:
        """Run ICD+PCD on one execution (fully sound and precise).

        ``shards`` (or the ``DOUBLECHECKER_SHARDS`` environment
        variable) > 1 partitions the analysis across that many worker
        processes — same results, byte for byte; see
        :mod:`repro.shard`.  Configurations the sharded pipeline cannot
        reproduce exactly (callable filters, ICD memory budgets,
        object-granularity arrays) silently fall back to the serial
        path, counted by the ``shard.fallbacks`` observability counter
        (exactly once per run) with one ``shard.fallback.<feature>``
        detail counter per blocking feature.
        """
        from repro.shard import resolve_shards

        n = resolve_shards(shards)
        if n > 1:
            from repro.obs.registry import recorder as obs_recorder
            from repro.shard.coordinator import (
                run_single_sharded,
                unsupported_features,
            )

            missing = unsupported_features(
                self, monitor_regular, monitor_unary_site
            )
            if not missing:
                result, _ = run_single_sharded(
                    self, program, scheduler, n, monitor_unary=monitor_unary
                )
                return result
            obs = obs_recorder()
            if obs.enabled:
                obs.inc("shard.fallbacks", 1)
                for feature in missing:
                    obs.inc(f"shard.fallback.{feature}", 1)
        violations = ViolationSummary()
        pcd = PCD(memory_budget=self.pcd_memory_budget, use_engine=self.use_engine)

        def handle_scc(component: Sequence[Transaction]) -> None:
            violations.extend(pcd.process(component))

        icd = self._make_icd(
            logging_enabled=True,
            on_scc=handle_scc,
            monitor_regular=monitor_regular,
            monitor_unary=monitor_unary,
            monitor_unary_site=monitor_unary_site,
        )
        started = time.perf_counter()
        execution = self._execute(program, scheduler, icd)
        elapsed = time.perf_counter() - started
        return self._package(icd, execution, violations, pcd, elapsed)

    # ------------------------------------------------------------------
    # multi-run mode
    # ------------------------------------------------------------------
    def run_first(
        self,
        program: Program,
        scheduler: Optional[Scheduler] = None,
        *,
        track_unary_sites: bool = False,
    ) -> FirstRunResult:
        """Multi-run mode's first run: ICD only, no logging.

        ``track_unary_sites`` enables the future-work extension: record
        the enclosing methods of in-cycle unary accesses so the second
        run can instrument non-transactional accesses selectively
        instead of all-or-nothing (see :mod:`repro.core.static_info`).
        """
        components: List[List[Transaction]] = []

        def handle_scc(component: Sequence[Transaction]) -> None:
            components.append(list(component))

        icd = self._make_icd(
            logging_enabled=False,
            on_scc=handle_scc,
            track_unary_sites=track_unary_sites,
        )
        started = time.perf_counter()
        execution = self._execute(program, scheduler, icd)
        elapsed = time.perf_counter() - started
        return FirstRunResult(
            static_info=StaticTransactionInfo.from_components(
                components,
                unary_sites=icd.unary_sites if track_unary_sites else None,
            ),
            execution=execution,
            icd_stats=icd.stats,
            tx_stats=icd.tx_manager.stats,
            octet_stats=icd.octet.stats,
            gc_stats=icd.collector.stats,
            protocol_stats=icd.octet.protocol.stats(),
            elapsed_seconds=elapsed,
        )

    def run_second(
        self,
        program: Program,
        info: StaticTransactionInfo,
        scheduler: Optional[Scheduler] = None,
        *,
        always_instrument_unary: bool = False,
        selective_unary: bool = False,
    ) -> SingleRunResult:
        """Multi-run mode's second run: ICD+PCD on the identified set.

        ``always_instrument_unary`` evaluates the Section 5.3 variant
        that instruments non-transactional accesses unconditionally.
        ``selective_unary`` enables the future-work extension: when the
        first run tracked unary sites, only non-transactional accesses
        inside the recorded enclosing methods are instrumented.
        """
        monitor_unary_site = None
        if (
            selective_unary
            and info.unary_methods
            and not always_instrument_unary
        ):
            monitor_unary_site = lambda m: m in info.unary_methods  # noqa: E731
        return self.run_single(
            program,
            scheduler,
            monitor_regular=info.monitors_method,
            monitor_unary=info.any_unary or always_instrument_unary,
            monitor_unary_site=monitor_unary_site,
        )

    def run_multi(
        self,
        program_factory: ProgramFactory,
        *,
        first_trials: int = 10,
        scheduler_factory: Optional[SchedulerFactory] = None,
        second_scheduler: Optional[Scheduler] = None,
    ) -> MultiRunResult:
        """The full multi-run pipeline.

        Runs the first run ``first_trials`` times (fresh program, fresh
        scheduler per trial — run-to-run nondeterminism), unions the
        static information, and feeds it to one second run.
        """
        first_runs = []
        for trial in range(first_trials):
            scheduler = (
                scheduler_factory(trial) if scheduler_factory is not None else None
            )
            first_runs.append(self.run_first(program_factory(), scheduler))
        info = StaticTransactionInfo.union_all(r.static_info for r in first_runs)
        second = self.run_second(program_factory(), info, second_scheduler)
        return MultiRunResult(first_runs, info, second)

    # ------------------------------------------------------------------
    # PCD-only straw man (Section 5.4)
    # ------------------------------------------------------------------
    def run_pcd_only(
        self, program: Program, scheduler: Optional[Scheduler] = None
    ) -> SingleRunResult:
        """PCD processes *every* executed transaction.

        ICD still demarcates transactions and records logs (PCD is not
        a standalone analysis) but never filters: at execution end, the
        entire transaction population is replayed as one component.
        GC must stay off — every log is needed — which is exactly why
        this variant exhausts memory on the larger benchmarks.
        """
        violations = ViolationSummary()
        pcd = PCD(memory_budget=self.pcd_memory_budget, use_engine=self.use_engine)
        icd = self._make_icd(
            logging_enabled=True,
            on_scc=None,
            cycle_detection=False,
            gc_interval=None,
        )
        started = time.perf_counter()
        execution = self._execute(program, scheduler, icd)
        everything = [
            tx for tx in icd.tx_manager.all_transactions if tx.log is not None
        ]
        violations.extend(pcd.process(everything))
        elapsed = time.perf_counter() - started
        return self._package(icd, execution, violations, pcd, elapsed)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _make_icd(
        self,
        *,
        logging_enabled: bool,
        on_scc,
        monitor_regular: Optional[Callable[[str], bool]] = None,
        monitor_unary: bool = True,
        monitor_unary_site: Optional[Callable[[str], bool]] = None,
        cycle_detection: Optional[bool] = None,
        gc_interval: Optional[int] = -1,
        track_unary_sites: bool = False,
    ) -> ICD:
        return ICD(
            self.spec,
            logging_enabled=logging_enabled,
            monitor_regular=monitor_regular,
            monitor_unary=monitor_unary,
            monitor_unary_site=monitor_unary_site,
            instrument_arrays=self.instrument_arrays,
            array_granularity_object=self.array_granularity_object,
            cycle_detection=(
                self.cycle_detection if cycle_detection is None else cycle_detection
            ),
            eager_scc=self.eager_scc,
            on_scc=on_scc,
            memory_budget=self.icd_memory_budget,
            gc_interval=self.gc_interval if gc_interval == -1 else gc_interval,
            track_unary_sites=track_unary_sites,
            use_engine=self.use_engine,
        )

    @staticmethod
    def _execute(
        program: Program, scheduler: Optional[Scheduler], icd: ICD
    ) -> ExecutionResult:
        executor = Executor(program, scheduler, [icd])
        icd.bind_view(ExecutorView(executor))
        return executor.run()

    @staticmethod
    def _package(
        icd: ICD,
        execution: ExecutionResult,
        violations: ViolationSummary,
        pcd: Optional[PCD],
        elapsed: float,
    ) -> SingleRunResult:
        if pcd is not None:
            pcd.publish_metrics()
        return SingleRunResult(
            violations=violations,
            execution=execution,
            icd_stats=icd.stats,
            tx_stats=icd.tx_manager.stats,
            octet_stats=icd.octet.stats,
            gc_stats=icd.collector.stats,
            elision_stats=icd._elision.stats,
            protocol_stats=icd.octet.protocol.stats(),
            pcd_stats=pcd.stats if pcd is not None else None,
            elapsed_seconds=elapsed,
        )
