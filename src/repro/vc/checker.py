"""The vector-clock online atomicity checker (AeroDrome-style).

Transactions are demarcated exactly as in the other backends (the
shared :class:`~repro.core.transactions.TransactionManager`) and the
dependence graph is represented the same way — edges on the
transaction objects — so the transaction collector, the metadata
table, and the violation model are reused unchanged.  What differs is
cycle detection: instead of running a graph search per new edge
(Velodrome) or deferring precision to a second pass (ICD+PCD), every
transaction carries a vector clock mapping each thread to the newest
transaction of that thread known to happen before it.  An edge
``src -> dst`` closes a cycle exactly when ``src`` already sees a
transaction of ``dst``'s thread at least as new as ``dst`` — a single
dict probe, no traversal.

Soundness and completeness of the edge-time check rest on *eager*
clock propagation: whenever a clock grows, the growth is pushed
transitively along the transaction's out-edges and intra-thread
successor chain until a fixpoint (joins are monotone and bounded by
the per-thread transaction counters, so the worklist terminates).  At
fixpoint, every clock reflects every path in the current graph; a new
cycle must contain the edge just added (any other cycle predates the
edge and was caught at *its* last edge), and the path closing it is
already summarized in ``src``'s clock.  A transaction's intra-thread
predecessor is joined in at start, so program-order edges never close
a cycle themselves — the temporally last edge of any cycle is always a
cross edge.

By default the checker skips synchronization pseudo-accesses
(``sync_edges=False``), the AeroDrome design point: only data
conflicts order transactions, so cycles closed purely through lock
release/acquire edges — which Velodrome reports — are deliberately not
reported.  ``sync_edges=True`` restores Velodrome's treatment (sync
operations as reads/writes of the monitor pseudo-field) and makes the
two backends' verdicts identical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.core.gc import GcStats, TransactionCollector
from repro.core.reports import ViolationRecord, ViolationSummary
from repro.core.transactions import (
    IdgEdge,
    Transaction,
    TransactionManager,
    TransactionStats,
)
from repro.errors import OutOfMemoryBudget
from repro.obs.registry import publish_stats, recorder as obs_recorder
from repro.octet.runtime import barrier_fastpath_enabled
from repro.runtime.events import AccessEvent, AccessKind, Site
from repro.runtime.executor import ExecutionResult, Executor
from repro.runtime.listeners import ExecutionListener
from repro.runtime.program import Program
from repro.runtime.scheduler import Scheduler
from repro.spec.specification import AtomicitySpecification
from repro.velodrome.metadata import MetadataTable


@dataclass
class VcStats:
    """Access-level work counters (feed the cost model)."""

    instrumented_accesses: int = 0
    #: accesses resolved by the columnar barrier's no-op predicate
    #: (the field's metadata already names this transaction); accesses
    #: dispatched as events (sync, generator frames, the reference
    #: interpreter) take on_access and never count here
    fastpath_hits: int = 0
    sync_accesses_skipped: int = 0
    array_accesses_skipped: int = 0
    metadata_updates: int = 0
    edges: int = 0
    #: re-observations of an existing edge (no clock work needed: the
    #: earlier join plus eager propagation already cover it)
    edges_deduplicated: int = 0
    #: clock joins that actually grew the destination clock
    clock_joins: int = 0
    #: worklist pushes during eager transitive propagation
    propagations: int = 0
    cycle_checks: int = 0
    cycles_found: int = 0


@dataclass
class VcResult:
    """Outcome of one execution under the vector-clock checker."""

    violations: ViolationSummary
    execution: ExecutionResult
    stats: VcStats
    tx_stats: TransactionStats
    gc_stats: GcStats
    elapsed_seconds: float = 0.0

    @property
    def blamed_methods(self) -> set:
        return self.violations.blamed_methods()


class _VcState:
    """Per-transaction clock state (side table keyed by tx id —
    :class:`Transaction` is a ``__slots__`` type shared with the other
    backends, so backend-private state lives outside it)."""

    __slots__ = ("clock",)

    def __init__(self, clock: Dict[str, int]) -> None:
        #: thread name -> newest tx id of that thread that happens
        #: before (or is) this transaction's latest observed point;
        #: tx ids are globally monotone, hence monotone per thread,
        #: so they double as the per-thread ordinals
        self.clock = clock


class VcChecker(ExecutionListener):
    """Sound linear-time conflict-serializability checking.

    Args:
        spec: the atomicity specification.
        sync_edges: order transactions through synchronization
            pseudo-accesses as well (Velodrome-identical verdicts);
            off by default — see the module docstring.
        monitor_regular / monitor_unary: instrumentation filters,
            same contract as the other backends.
        instrument_arrays / array_granularity_object: array experiment
            knobs shared with Velodrome.
        memory_budget: cap on live transactions (out-of-memory model).
        gc_interval: transaction-collector cadence.
    """

    def __init__(
        self,
        spec: AtomicitySpecification,
        *,
        sync_edges: bool = False,
        monitor_regular: Optional[Callable[[str], bool]] = None,
        monitor_unary: bool = True,
        instrument_arrays: bool = False,
        array_granularity_object: bool = False,
        memory_budget: Optional[int] = None,
        gc_interval: Optional[int] = 64,
        fastpath: Optional[bool] = None,
    ) -> None:
        self.spec = spec
        self.sync_edges = sync_edges
        #: take the fused no-op shortcut in the columnar barrier (``None`` =
        #: consult ``DOUBLECHECKER_BARRIER_FASTPATH``, the same escape
        #: hatch the Octet/ICD fast path honours)
        self.fastpath = (
            barrier_fastpath_enabled() if fastpath is None else fastpath
        )
        self.instrument_arrays = instrument_arrays
        self.array_granularity_object = array_granularity_object
        self.memory_budget = memory_budget
        self.gc_interval = gc_interval

        self.stats = VcStats()
        self.metadata = MetadataTable()
        self.violations = ViolationSummary()
        self.tx_manager = TransactionManager(
            spec,
            monitor_regular=monitor_regular,
            monitor_unary=monitor_unary,
            on_transaction_start=self._transaction_started,
            on_transaction_end=self._transaction_ended,
        )
        self.collector = TransactionCollector(self.tx_manager)
        self._edge_order = 0
        #: tx id -> clock state; entries are dropped when the collector
        #: sweeps the transaction
        self._states: Dict[int, _VcState] = {}
        self._reported: Set[Tuple[int, int]] = set()
        self._tx_ends_since_gc = 0
        self._obs = obs_recorder()

    # ------------------------------------------------------------------
    # ExecutionListener
    # ------------------------------------------------------------------
    def on_method_enter(self, thread_name: str, method: str, depth: int) -> None:
        self.tx_manager.on_method_enter(thread_name, method, depth)

    def on_method_exit(self, thread_name: str, method: str, depth: int) -> None:
        self.tx_manager.on_method_exit(thread_name, method, depth)

    def on_thread_end(self, thread_name: str) -> None:
        self.tx_manager.on_thread_end(thread_name)

    def on_execution_end(self) -> None:
        self.tx_manager.finish_all()
        self.publish_metrics()

    def publish_metrics(self) -> None:
        """Publish every counter this analysis owns onto the registry."""
        obs = self._obs
        if not obs.enabled:
            return
        publish_stats(obs, "vc", self.stats)
        publish_stats(obs, "transactions", self.tx_manager.stats)
        publish_stats(
            obs,
            "gc",
            self.collector.stats,
            gauges=("peak_live_transactions", "peak_live_log_entries"),
        )

    def on_access(self, event: AccessEvent) -> None:
        if event.is_array and not self.instrument_arrays:
            self.stats.array_accesses_skipped += 1
            return
        if event.is_sync and not self.sync_edges:
            self.stats.sync_accesses_skipped += 1
            return
        tx = self.tx_manager.transaction_for_access(event)
        if tx is None:
            return
        self.stats.instrumented_accesses += 1
        address = (
            event.object_address
            if (event.is_array and self.array_granularity_object)
            else event.address
        )
        self._analyze(tx, address, event.is_read())

    # ------------------------------------------------------------------
    # fused barrier (same pattern as ICD: the batch executor's
    # single-listener dispatch gets a columnar closure whose fast path
    # — the field's metadata already names the accessing transaction,
    # so the access can neither add an edge nor change metadata —
    # costs one dict probe and a branch chain; everything else falls
    # into the shared _analyze, so outputs are identical by
    # construction)
    # ------------------------------------------------------------------
    def access_barrier_batch(self) -> Optional[Callable[..., None]]:
        """Columnar barrier consuming the batch loop's pre-interned
        column values directly (the batch executor routes
        synchronization through :meth:`on_access`, so ``is_sync`` is
        always false here)."""
        if not self.fastpath or self.array_granularity_object:
            return None

        tx_manager = self.tx_manager
        tx_for_fields = tx_manager.transaction_for_fields
        tx_current = tx_manager._current
        tx_stats = tx_manager.stats
        stats = self.stats
        fields_get = self.metadata._fields.get
        instrument_arrays = self.instrument_arrays
        analyze = self._analyze

        def fused_batch(
            seq: int,
            thread: str,
            obj: Any,
            fieldname: str,
            kind: AccessKind,
            site: Site,
            address: Tuple[int, str],
            site_str: str,
            is_array: bool,
            *,
            _READ: AccessKind = AccessKind.READ,
        ) -> None:
            if is_array and not instrument_arrays:
                stats.array_accesses_skipped += 1
                return
            tx = tx_current.get(thread)
            if tx is not None and not tx.is_unary:
                if not tx.monitored:
                    tx_stats.skipped_accesses += 1
                    return
                tx_stats.regular_accesses += 1
            else:
                tx = tx_for_fields(thread, site)
                if tx is None:
                    return
            stats.instrumented_accesses += 1
            is_read = kind is _READ
            meta = fields_get(address)
            if meta is not None:
                if is_read:
                    if meta.last_readers.get(thread) is tx:
                        stats.fastpath_hits += 1
                        return
                elif meta.last_writer is tx and not meta.last_readers:
                    stats.fastpath_hits += 1
                    return
            analyze(tx, address, is_read)

        return fused_batch

    # ------------------------------------------------------------------
    # the per-access analysis (Velodrome's Figure 5 conflict rules; the
    # cycle check is the clock probe instead of a graph search)
    # ------------------------------------------------------------------
    def _analyze(
        self, tx: Transaction, address: Tuple[int, str], is_read: bool
    ) -> None:
        meta = self.metadata.lookup(address)

        writer = meta.last_writer
        if writer is not None and writer.thread_name != tx.thread_name:
            self._add_edge(writer, tx)

        if is_read:
            if meta.last_readers.get(tx.thread_name) is not tx:
                self.stats.metadata_updates += 1
                meta.last_readers[tx.thread_name] = tx
        else:
            # snapshot: adding an edge can end an interrupted unary
            # transaction, whose GC purges weak metadata references
            for thread_name, reader in list(meta.last_readers.items()):
                if thread_name != tx.thread_name:
                    self._add_edge(reader, tx)
            self.stats.metadata_updates += 1
            meta.last_readers.clear()
            meta.last_writer = tx

    def _add_edge(self, src: Transaction, dst: Transaction) -> None:
        if src is dst or src.collected:
            return
        if any(e.dst is dst for e in src.out_edges):
            self.stats.edges_deduplicated += 1
            return  # already joined; eager propagation keeps it current
        self._edge_order += 1
        edge = IdgEdge(src, dst, "vc", self._edge_order)
        src.out_edges.append(edge)
        dst.in_edges.append(edge)
        src.edge_touched = True
        dst.edge_touched = True
        self.stats.edges += 1

        src_state = self._states[src.tx_id]
        dst_state = self._states[dst.tx_id]

        # cycle probe: src happens-after a transaction of dst's thread
        # at least as new as dst => a path dst ~> src already exists,
        # and this edge closes it
        self.stats.cycle_checks += 1
        if src_state.clock.get(dst.thread_name, 0) >= dst.tx_id:
            self._report_cycle(src, dst)

        self._join_into(src, src_state, dst, dst_state)

        # eagerly end an interrupted unary transaction on the source
        # side (the destination is the accessor, mid-access)
        self.tx_manager.end_if_interrupted_unary(src)

    def _join_into(
        self,
        src: Transaction,
        src_state: _VcState,
        dst: Transaction,
        dst_state: _VcState,
    ) -> None:
        """Join ``src``'s knowledge into ``dst`` and propagate any
        growth transitively (worklist over out-edges and the
        intra-thread chain)."""
        if not self._join(src, src_state, dst_state):
            return
        self.stats.clock_joins += 1
        states = self._states
        worklist: List[Transaction] = [dst]
        while worklist:
            node = worklist.pop()
            node_state = states.get(node.tx_id)
            if node_state is None:
                continue
            succs: List[Transaction] = [e.dst for e in node.out_edges]
            if node.intra_next is not None:
                succs.append(node.intra_next)
            for succ in succs:
                succ_state = states.get(succ.tx_id)
                if succ_state is None:
                    continue
                if self._join(node, node_state, succ_state):
                    self.stats.propagations += 1
                    worklist.append(succ)

    @staticmethod
    def _join(src: Transaction, src_state: _VcState, dst_state: _VcState) -> bool:
        """``dst_state.clock |= src_state.clock ∪ {src.thread: src}``;
        returns whether the destination clock grew."""
        dst_clock = dst_state.clock
        grew = False
        for thread, ordinal in src_state.clock.items():
            if dst_clock.get(thread, 0) < ordinal:
                dst_clock[thread] = ordinal
                grew = True
        if dst_clock.get(src.thread_name, 0) < src.tx_id:
            dst_clock[src.thread_name] = src.tx_id
            grew = True
        return grew

    def _report_cycle(self, src: Transaction, dst: Transaction) -> None:
        key = (src.tx_id, dst.tx_id)
        if key in self._reported:
            return
        self._reported.add(key)
        self.stats.cycles_found += 1
        # the closing edge's destination is the current accessor — the
        # same node Velodrome's oldest-out/newest-in blame rule singles
        # out on a two-transaction cycle, so the backends agree there;
        # longer cycles have no canonical witness (see repro.core.blame)
        self.violations.add(
            ViolationRecord(
                blamed_method=dst.method,
                blamed_tx_id=dst.tx_id,
                thread_name=dst.thread_name,
                cycle_methods=(dst.method, src.method),
                cycle_tx_ids=(dst.tx_id, src.tx_id),
                detector="vc",
            )
        )

    # ------------------------------------------------------------------
    # transaction lifecycle, GC, memory budget
    # ------------------------------------------------------------------
    def _transaction_started(self, tx: Transaction) -> None:
        prev = tx.intra_prev
        if prev is not None:
            prev_state = self._states.get(prev.tx_id)
            if prev_state is not None:
                clock = dict(prev_state.clock)
                clock[tx.thread_name] = prev.tx_id
                self._states[tx.tx_id] = _VcState(clock)
                return
        self._states[tx.tx_id] = _VcState({})

    def _transaction_ended(self, tx: Transaction) -> None:
        self._tx_ends_since_gc += 1
        if (
            self.gc_interval is not None
            and self._tx_ends_since_gc >= self.gc_interval
        ):
            self._tx_ends_since_gc = 0
            self.collector.note_peak()
            self.collector.collect()
            states = self._states
            for tx_id in self.collector.last_swept_ids:
                states.pop(tx_id, None)
            self.metadata.purge_collected()
        if self.memory_budget is not None:
            used = len(self.tx_manager.all_transactions)
            if used > self.memory_budget:
                raise OutOfMemoryBudget("VC", used, self.memory_budget)

    # ------------------------------------------------------------------
    def run(
        self, program: Program, scheduler: Optional[Scheduler] = None
    ) -> VcResult:
        """Execute ``program`` under this checker."""
        started = time.perf_counter()
        execution = Executor(program, scheduler, [self]).run()
        elapsed = time.perf_counter() - started
        return VcResult(
            violations=self.violations,
            execution=execution,
            stats=self.stats,
            tx_stats=self.tx_manager.stats,
            gc_stats=self.collector.stats,
            elapsed_seconds=elapsed,
        )
