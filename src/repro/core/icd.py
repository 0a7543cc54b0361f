"""Imprecise cycle detection (ICD) — Section 3.2.

ICD monitors every (instrumented) program access, piggybacking on
Octet state transitions to detect cross-thread dependences soundly but
imprecisely.  It builds the imprecise dependence graph (IDG) whose
nodes are transactions, adds the three kinds of cross-thread edges
from Figure 4, and — when a transaction ends — computes the strongly
connected component containing it.  Cyclic components are potential
atomicity violations; in single-run mode (or the second run of
multi-run mode) they are handed to PCD together with the transactions'
read/write logs.

ICD's imprecision is inherited from Octet and is intentional
(Section 3.2.2, "Sources of imprecision"):

* it does not track the last transaction to read/write each object —
  conflicting-transition edges start at the responding thread's
  *current* transaction, not the transaction of its last access;
* upgrading-to-RdSh edges start at the responder thread's last
  transition to RdEx, which may involve a *different object*;
* RdSh objects have no reader list — all transitions to RdSh are
  chained through ``gLastRdSh``, and RdSh→WrEx conflicts draw edges
  from *all* threads;
* dependences are tracked at object granularity, not field granularity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.core.gc import TransactionCollector
from repro.core.rwlog import AccessEntry, ElisionFilter, ReadWriteLog
from repro.core.scc import is_cyclic_component, scc_containing_counted
from repro.core.transactions import IdgEdge, Transaction, TransactionManager
from repro.graph.dirty import DirtySccScheduler
from repro.graph.engine import GraphEngineStats
from repro.obs.registry import publish_stats, recorder as obs_recorder
from repro.errors import OutOfMemoryBudget
from repro.octet.runtime import OctetListener, OctetRuntime, TransitionRecord
from repro.octet.states import StateKind
from repro.runtime.events import AccessEvent, AccessKind, Site
from repro.runtime.listeners import ExecutionListener
from repro.runtime.view import NullView, RuntimeView
from repro.spec.specification import AtomicitySpecification

SccCallback = Callable[[List[Transaction]], None]


@dataclass
class ICDStats:
    """Counters reproducing Table 3's graph columns plus cost inputs."""

    idg_edges: int = 0
    edges_elided_same_thread: int = 0
    edges_deduplicated: int = 0
    sccs: int = 0
    scc_transactions: int = 0
    largest_scc: int = 0
    scc_computations: int = 0
    scc_skipped_no_edges: int = 0
    #: ends whose engine component was certified acyclic (dirty-marking
    #: scheduler fast path; extends ``scc_skipped_no_edges`` to "has
    #: edges, but none ever closed a cycle")
    scc_skipped_clean: int = 0
    #: ends whose component was unchanged since a fully-resolved check
    scc_skipped_unchanged: int = 0
    #: transactions actually indexed by the Tarjan passes that ran —
    #: the traversal work the schedule did not avoid
    scc_visits: int = 0
    cycle_detection_calls: int = 0
    log_entries: int = 0
    log_marks: int = 0
    #: sum of live log entries sampled at every transaction end: the
    #: integral the garbage collector repeatedly traverses.  Bounded
    #: when collection keeps logs short; grows quadratically when every
    #: log is retained (the PCD-only straw man's memory-pressure story)
    live_log_entry_integral: int = 0
    instrumented_accesses: int = 0
    array_accesses_skipped: int = 0
    #: the engine's live counters (linked when the dirty-marking
    #: scheduler is active) — ``engine_search_visits`` reads through to
    #: them, so the value can never drift from the engine's own stats
    engine: Optional[GraphEngineStats] = None

    @property
    def engine_search_visits(self) -> int:
        """Nodes visited by the engine's reorder/contraction searches.

        Sourced live from the shared engine counters instead of being
        hand-copied at execution end (0 when the engine is disabled).
        """
        return 0 if self.engine is None else self.engine.search_visits


class ICD(ExecutionListener, OctetListener):
    """The imprecise analysis.

    Args:
        spec: atomicity specification (drives transaction demarcation).
        logging_enabled: record read/write logs (single-run mode and
            the second run of multi-run mode; the first run turns this
            off — the source of its speed advantage).
        monitor_regular: predicate selecting which regular transactions
            are instrumented (the second run passes the first run's
            static set).
        monitor_unary: instrument non-transactional accesses (the
            second run passes the first run's boolean).
        instrument_arrays: include array-element accesses (off by
            default, matching the paper's main configuration).
        array_granularity_object: conflate all elements of an array by
            using array-level metadata (the Section 5.4 configuration;
            makes ICD *and* Velodrome imprecise, so cycle detection is
            disabled when the harness uses it).
        cycle_detection: run SCC detection at transaction end.
        eager_scc: ablation — additionally run cycle detection whenever
            a cross-thread edge is created (Velodrome's schedule).
        on_scc: callback receiving each new cyclic SCC's transactions.
        runtime_view: see :mod:`repro.runtime.view`.
        memory_budget: optional cap on live transactions + log entries,
            reproducing the paper's 32-bit out-of-memory ceilings.
        gc_interval: run the transaction collector every N transaction
            ends (None disables collection).
        gc_incremental: use the collector's incremental marking (ICD
            reports every IDG link it adds, which is what makes the
            mode sound — see :mod:`repro.core.gc`).  Results are
            byte-identical either way; ``False`` restores the legacy
            full mark-sweep as a reference arm.
    """

    def __init__(
        self,
        spec: AtomicitySpecification,
        *,
        logging_enabled: bool = True,
        monitor_regular: Optional[Callable[[str], bool]] = None,
        monitor_unary: bool = True,
        instrument_arrays: bool = False,
        array_granularity_object: bool = False,
        cycle_detection: bool = True,
        eager_scc: bool = False,
        on_scc: Optional[SccCallback] = None,
        runtime_view: Optional[RuntimeView] = None,
        memory_budget: Optional[int] = None,
        gc_interval: Optional[int] = 64,
        elide_duplicates: bool = True,
        merge_unary: bool = True,
        track_unary_sites: bool = False,
        monitor_unary_site: Optional[Callable[[str], bool]] = None,
        use_engine: bool = True,
        gc_incremental: bool = True,
    ) -> None:
        self.spec = spec
        self.logging_enabled = logging_enabled
        self.instrument_arrays = instrument_arrays
        self.array_granularity_object = array_granularity_object
        self.cycle_detection = cycle_detection
        self.eager_scc = eager_scc
        self.on_scc = on_scc
        self.memory_budget = memory_budget
        self.gc_interval = gc_interval
        self.elide_duplicates = elide_duplicates
        self.view = runtime_view or NullView()

        self.stats = ICDStats()
        self._obs = obs_recorder()
        #: dirty-marking SCC schedule over the shared incremental graph
        #: engine; ``use_engine=False`` restores the original
        #: Tarjan-from-every-end schedule (the benchmark baseline)
        self.scheduler: Optional[DirtySccScheduler] = (
            DirtySccScheduler() if use_engine and (cycle_detection or eager_scc) else None
        )
        if self.scheduler is not None:
            self.stats.engine = self.scheduler.graph.stats
        # RdSh→WrEx conflicts coordinate with *every other thread that
        # ever ran* — a finished thread responds like a blocked one (the
        # implicit protocol; it will trivially never access again), and
        # dropping it would lose the dependence from its final reads to
        # the write (a soundness hole a property test caught)
        self._started_threads: Set[str] = set()
        self._finished_threads: Set[str] = set()
        self.tx_manager = TransactionManager(
            spec,
            monitor_regular=monitor_regular,
            monitor_unary=monitor_unary,
            on_transaction_end=self._transaction_ended,
            on_transaction_start=self._transaction_started,
            merge_unary=merge_unary,
            monitor_unary_site=monitor_unary_site,
        )
        self.track_unary_sites = track_unary_sites
        #: extension: unary tx id -> enclosing methods of its accesses
        self.unary_sites: Dict[int, Set[str]] = {}
        self.collector = TransactionCollector(self.tx_manager)
        # incremental marking is sound only because ICD reports every
        # link it adds (cross edges in _add_edge, intra links in
        # _transaction_started); Velodrome shares the collector class
        # but not this contract, so the mode is opt-in here
        self.collector.incremental = gc_incremental
        self.octet = OctetRuntime(
            is_thread_blocked=self._is_thread_blocked,
            live_threads=lambda: sorted(self._started_threads),
        )
        self.octet.add_listener(self)

        # "last transaction to do X" facts (Section 3.2.2)
        self._last_rdex: Dict[str, Transaction] = {}
        self._g_last_rdsh: Optional[Transaction] = None

        self._elision = ElisionFilter()
        # Interning tables for the logging hot path: one shared
        # ``(oid, fieldname)`` tuple per field (every AccessEntry and
        # elision probe for that field reuses it) and one shared site
        # string per static site (``str(event.site)`` would otherwise
        # build a fresh string per logged access).
        self._addr_intern: Dict[Tuple[int, str], Tuple[int, str]] = {}
        self._site_intern: Dict[Site, str] = {}
        self._edge_order = 0
        #: the transaction of the access currently in the barrier
        self._req_tx: Optional[Transaction] = None
        self._req_event: Optional[AccessEvent] = None
        self._seen_edges: Set[Tuple[int, int]] = set()
        self._processed_sccs: Set[frozenset] = set()
        self._tx_ends_since_gc = 0
        self._live_log_entries = 0

    # ------------------------------------------------------------------
    # ExecutionListener
    # ------------------------------------------------------------------
    def on_thread_start(self, thread_name: str) -> None:
        self._started_threads.add(thread_name)

    def on_thread_end(self, thread_name: str) -> None:
        self._finished_threads.add(thread_name)
        self.tx_manager.on_thread_end(thread_name)

    def on_method_enter(self, thread_name: str, method: str, depth: int) -> None:
        self.tx_manager.on_method_enter(thread_name, method, depth)

    def on_method_exit(self, thread_name: str, method: str, depth: int) -> None:
        self.tx_manager.on_method_exit(thread_name, method, depth)

    def on_access(self, event: AccessEvent) -> None:
        if event.is_array and not self.instrument_arrays:
            self.stats.array_accesses_skipped += 1
            return
        tx = self.tx_manager.transaction_for_access(event)
        if tx is None:
            return  # not instrumented in this configuration
        self.stats.instrumented_accesses += 1
        if self.track_unary_sites and tx.is_unary:
            self.unary_sites.setdefault(tx.tx_id, set()).add(event.site.method)
        self._req_tx = tx
        self._req_event = event
        try:
            self.octet.observe(event)
            if self.logging_enabled:
                self._log_access(tx, event)
        finally:
            self._req_tx = None
            self._req_event = None

    def access_barrier_batch(self) -> Optional[Callable[..., None]]:
        """Build the fused columnar barrier (ICD + Octet in one call).

        The batch executor calls the returned closure per access with
        its pre-interned column values — object, field name, ``(oid,
        field)`` address, canonical site, site string.  Its fast path —
        the access hits an object whose Octet state is already
        compatible (WrEx/RdEx owned by the accessing thread, or RdSh
        read with a current ``rdShCnt``) — costs one dict probe and one
        branch chain: no :meth:`OctetRuntime.observe` call, no
        ``Classified``/:class:`TransitionRecord` allocation, no listener
        fan-out (same-state transitions never fire Figure 4 procedures),
        no allocation at all unless the access is logged.  Only when
        the access leaves the fast path (first access to an object, any
        Octet state transition) is an :class:`AccessEvent` materialized
        for the reference :meth:`on_access` slow path, which keeps
        outputs byte-identical by construction; the identity tests
        additionally pin the fused pipeline against runs with
        ``DOUBLECHECKER_BARRIER_FASTPATH=0``.

        Returns ``None`` for configurations whose per-access work the
        fused path does not replicate (fast path disabled, unary site
        tracking, object-granularity arrays); the executor then routes
        every access through :meth:`on_access`.
        """
        if (
            not self.octet.fastpath
            or self.track_unary_sites
            or self.array_granularity_object
        ):
            return None

        octet = self.octet
        states = octet._states
        thread_rdsh = octet._thread_rdsh
        tx_manager = self.tx_manager
        tx_for_fields = tx_manager.transaction_for_fields
        # the regular-transaction fast path of transaction_for_fields
        # is inlined below (the dict is created once in the manager's
        # __init__ and only mutated in place, so binding it here is
        # safe); the slow call remains for the unary / first-access
        # cases
        tx_current = tx_manager._current
        tx_stats = tx_manager.stats
        stats = self.stats
        instrument_arrays = self.instrument_arrays
        log_tail = self._logging_tail() if self.logging_enabled else None
        slow_path = self.on_access

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
            _WR_EX: StateKind = StateKind.WR_EX,
            _RD_EX: StateKind = StateKind.RD_EX,
            _RD_SH: StateKind = StateKind.RD_SH,
        ) -> None:
            if is_array and not instrument_arrays:
                stats.array_accesses_skipped += 1
                return
            oid = obj.oid
            state = states.get(oid)
            if state is not None:
                skind = state.kind
                if (
                    state.owner == thread
                    and (
                        skind is _WR_EX
                        or (skind is _RD_EX and kind is _READ)
                    )
                ) or (
                    skind is _RD_SH
                    and kind is _READ
                    and thread_rdsh.get(thread, 0) >= state.counter
                ):
                    tx = tx_current.get(thread)
                    if tx is not None and not tx.is_unary:
                        if not tx.monitored:
                            tx_stats.skipped_accesses += 1
                            return
                        tx_stats.regular_accesses += 1
                    else:
                        tx = tx_for_fields(thread, site)
                        if tx is None:
                            return  # not instrumented in this configuration
                    stats.instrumented_accesses += 1
                    octet._barriers_pending += 1
                    octet._fastpath_pending += 1
                    octet._fused_pending += 1
                    if log_tail is not None:
                        log_tail(tx, seq, thread, oid, fieldname, kind,
                                 site, address, site_str)
                    return
            slow_path(
                AccessEvent(
                    seq, thread, obj, fieldname, kind, False, is_array, site
                )
            )

        return fused_batch

    def _logging_tail(self) -> Callable[..., None]:
        """Build the fused barrier's logging step for a fast-path hit.

        The returned closure takes ``(tx, seq, thread, oid, fieldname,
        kind, site, address, site_str)`` and does what
        :meth:`_log_access` does for the same access: lazy log
        creation, the elision window probe (inlined — its dicts are
        created once in the filter's ``__init__`` and only mutated in
        place), the entry append, and the budget check.  This is the
        one seam the sharded analyzer overrides.
        """
        stats = self.stats
        elision = self._elision
        el_last = elision._last_by_thread
        el_ts = elision._thread_ts
        el_stats = elision.stats
        elide_duplicates = self.elide_duplicates
        check_budget = self.memory_budget is not None

        def log_tail(
            tx: Transaction,
            seq: int,
            thread: str,
            oid: int,
            fieldname: str,
            kind: AccessKind,
            site: Site,
            address: Tuple[int, str],
            site_str: str,
            *,
            _WRITE: AccessKind = AccessKind.WRITE,
        ) -> None:
            log = tx.log
            if log is None:
                log = tx.log = ReadWriteLog()
            # address and site_str are already canonical in the
            # executor's column tables; ICD's own intern tables (fed by
            # the slow path) only yield value-equal duplicates, so no
            # folding needed
            if elide_duplicates:
                per_thread = el_last.get(thread)
                if per_thread is None:
                    per_thread = el_last[thread] = {}
                last = per_thread.get(address)
                ts = el_ts.get(thread, 0)
                if (
                    last is not None
                    and last[0] == ts
                    and (last[1] is kind or last[1] is _WRITE)
                ):
                    el_stats.elided += 1
                    return
                per_thread[address] = (ts, kind)
                el_stats.logged += 1
            log.entries.append(
                AccessEntry(kind, oid, fieldname, seq, site_str, address)
            )
            stats.log_entries += 1
            self._live_log_entries += 1
            if check_budget:
                self._check_budget()

        return log_tail

    def on_execution_end(self) -> None:
        self.tx_manager.finish_all()
        self.publish_metrics()

    def publish_metrics(self) -> None:
        """Publish every counter this analysis owns onto the registry."""
        obs = self._obs
        if not obs.enabled:
            return
        publish_stats(obs, "icd", self.stats)
        obs.inc("icd.engine_search_visits", self.stats.engine_search_visits)
        self.octet.stats.publish(obs)
        for key, value in sorted(self.octet.protocol.stats().items()):
            if isinstance(value, int) and not isinstance(value, bool):
                obs.inc(f"octet.protocol.{key}", value)
        publish_stats(obs, "transactions", self.tx_manager.stats)
        publish_stats(
            obs,
            "gc",
            self.collector.stats,
            gauges=("peak_live_transactions", "peak_live_log_entries"),
        )
        publish_stats(obs, "elision", self._elision.stats)
        if self.scheduler is not None:
            self.scheduler.graph.stats.publish(obs, "icd.engine")

    # ------------------------------------------------------------------
    # OctetListener — the Figure 4 procedures
    # ------------------------------------------------------------------
    def on_conflicting(self, record: TransitionRecord) -> None:
        """handleConflictingTransition: edge from each responder's
        current transaction to the requester's current transaction."""
        req_tx = self._req_tx
        assert req_tx is not None and record.coordination is not None
        for responder in record.coordination.responders:
            resp_tx = self.tx_manager.current_or_latest(responder.thread_name)
            self._add_edge(resp_tx, req_tx, "conflicting")
        new_state = record.new_state
        if new_state is not None and new_state.kind.name == "RD_EX":
            self._last_rdex[req_tx.thread_name] = req_tx

    def on_upgrading_rd_sh(self, record: TransitionRecord) -> None:
        """handleUpgradingTransition: edges from the previous RdEx
        owner's last-RdEx transaction and from gLastRdSh; then update
        gLastRdSh to the current transaction."""
        req_tx = self._req_tx
        assert req_tx is not None
        prior_owner = record.prior_owner
        if prior_owner is not None:
            self._add_edge(self._last_rdex.get(prior_owner), req_tx, "upgrading")
        self._add_edge(self._g_last_rdsh, req_tx, "rdsh-order")
        self._g_last_rdsh = req_tx

    def on_fence(self, record: TransitionRecord) -> None:
        """handleFenceTransition: edge from gLastRdSh."""
        req_tx = self._req_tx
        assert req_tx is not None
        self._add_edge(self._g_last_rdsh, req_tx, "fence")

    def on_upgrading_wr_ex(self, record: TransitionRecord) -> None:
        """RdExT → WrExT is safely ignored: any dependence it creates is
        already captured by existing intra- and cross-thread edges."""

    # ------------------------------------------------------------------
    # IDG construction
    # ------------------------------------------------------------------
    def _add_edge(
        self, src: Optional[Transaction], dst: Transaction, kind: str
    ) -> Optional[IdgEdge]:
        if src is None or src is dst or src.collected:
            # a collected source can never re-enter a cycle (the GC
            # liveness proof), so its edge adds no detectable ordering
            return None
        if src.thread_name == dst.thread_name:
            # covered transitively by the thread's intra-transaction chain
            self.stats.edges_elided_same_thread += 1
            return None
        if not self.logging_enabled:
            key = (src.tx_id, dst.tx_id)
            if key in self._seen_edges:
                self.stats.edges_deduplicated += 1
                src.edge_touched = True
                dst.edge_touched = True
                return None
            self._seen_edges.add(key)
        self._edge_order += 1
        edge = IdgEdge(src, dst, kind, self._edge_order)
        if self.logging_enabled:
            event = self._req_event
            seq = event.seq if event is not None else 0
            # edges interrupt the elision windows of both threads
            self._elision.bump(src.thread_name)
            self._elision.bump(dst.thread_name)
            if src.log is not None:
                edge.src_log_index = src.log.append_mark(edge.order, True, seq)
                self._count_log_entry(is_mark=True)
            if dst.log is not None:
                edge.dst_log_index = dst.log.append_mark(edge.order, False, seq)
                self._count_log_entry(is_mark=True)
        src.out_edges.append(edge)
        dst.in_edges.append(edge)
        src.edge_touched = True
        dst.edge_touched = True
        self.collector.note_link(src, dst)
        self.stats.idg_edges += 1
        if self.scheduler is not None:
            # must precede the eager unary end below: ending src fires
            # _transaction_ended, whose schedule consults the engine
            self.scheduler.note_cross_edge(
                src.tx_id, src.thread_name, dst.tx_id, dst.thread_name
            )
        # the responder sits at a safe point: its interrupted unary
        # transaction (if any) can be ended eagerly (dst is the
        # requester's transaction, mid-access — it ends lazily)
        if src is not self._req_tx:
            self.tx_manager.end_if_interrupted_unary(src)
        if self.eager_scc:
            self._detect_from(dst)
        return edge

    # ------------------------------------------------------------------
    # logging
    # ------------------------------------------------------------------
    def _log_access(self, tx: Transaction, event: AccessEvent) -> None:
        """Log one access — single pass over the hot-path bookkeeping.

        The address tuple is built once and interned (the elision probe,
        the :class:`AccessEntry`, and every later access to the same
        field share one tuple), the site string is interned per static
        site, and the entry count is folded into the append instead of
        a separate :meth:`_count_log_entry` call.
        """
        log = tx.log
        if log is None:
            log = tx.log = ReadWriteLog()
        if event.is_array and self.array_granularity_object:
            address = event.object_address
        else:
            address = (event.obj.oid, event.fieldname)
        address = self._addr_intern.setdefault(address, address)
        if self.elide_duplicates and not self._elision.should_log_addr(
            event.thread_name, address, event.kind
        ):
            return
        site = event.site
        site_str = self._site_intern.get(site)
        if site_str is None:
            site_str = self._site_intern[site] = str(site)
        log.entries.append(
            AccessEntry(event.kind, address[0], address[1], event.seq, site_str, address)
        )
        self.stats.log_entries += 1
        self._live_log_entries += 1
        if self.memory_budget is not None:
            self._check_budget()

    def _count_log_entry(self, is_mark: bool) -> None:
        if is_mark:
            self.stats.log_marks += 1
        else:
            self.stats.log_entries += 1
        self._live_log_entries += 1
        self._check_budget()

    # ------------------------------------------------------------------
    # transaction lifecycle
    # ------------------------------------------------------------------
    def _transaction_started(self, tx: Transaction) -> None:
        self.collector.note_link(tx.intra_prev, tx)
        if self.logging_enabled and tx.monitored:
            tx.log = ReadWriteLog()
        self._elision.bump(tx.thread_name)

    def _transaction_ended(self, tx: Transaction) -> None:
        self.stats.live_log_entry_integral += self._live_log_entries
        if self.cycle_detection:
            self.stats.cycle_detection_calls += 1
            if tx.has_cross_edges():
                # detection must precede collection: the just-completed
                # cycle's members are swept-able once it is reported
                self._detect_from(tx)
            else:
                # sound: the last-finishing member of any cycle always
                # has a cross-thread edge (edges attach only to active
                # transactions, and a crossless member's intra successor
                # outlives it)
                self.stats.scc_skipped_no_edges += 1
        self._maybe_collect()

    def _detect_from(self, tx: Transaction) -> None:
        if not tx.finished:
            return
        frontier = None
        if self.scheduler is not None:
            frontier = self.scheduler.frontier_for(tx.tx_id)
            if frontier is None:
                # engine-certified: either the component is acyclic (the
                # maintained topological order is the witness) or it is
                # unchanged since a check that resolved all of it
                if self.scheduler.last_skip_clean:
                    self.stats.scc_skipped_clean += 1
                else:
                    self.stats.scc_skipped_unchanged += 1
                return
        self.stats.scc_computations += 1
        component, visits = scc_containing_counted(tx, frontier)
        self.stats.scc_visits += visits
        if self.scheduler is not None:
            self.scheduler.note_checked(
                tx.tx_id, {t.tx_id for t in component}
            )
        if not is_cyclic_component(component):
            return
        key = frozenset(t.tx_id for t in component)
        if key in self._processed_sccs:
            return
        self._processed_sccs.add(key)
        self.stats.sccs += 1
        self.stats.scc_transactions += len(component)
        self.stats.largest_scc = max(self.stats.largest_scc, len(component))
        if self.on_scc is not None:
            self.on_scc(component)

    # ------------------------------------------------------------------
    # memory management
    # ------------------------------------------------------------------
    def _maybe_collect(self) -> None:
        self._tx_ends_since_gc += 1
        if self.gc_interval is None or self._tx_ends_since_gc < self.gc_interval:
            self._check_budget()
            return
        self._tx_ends_since_gc = 0
        # _live_log_entries is maintained incrementally (+1 per logged
        # access/mark, minus what each collection sweeps), so neither
        # the peak sample nor the post-collect refresh needs the
        # collector's O(live transactions) log re-scan — profiling
        # showed those scans dominating instrumented single-run time
        self.collector.note_peak(self._live_log_entries)
        roots: List[Transaction] = list(self._last_rdex.values())
        if self._g_last_rdsh is not None:
            roots.append(self._g_last_rdsh)
        self.collector.collect(roots)
        if self.scheduler is not None:
            # the engine keeps merged components (its acyclicity
            # certificate) but can drop collected singletons; the
            # collector reports exactly what this collection swept, so
            # no re-scan of the pre-collect population is needed
            self.scheduler.forget(self.collector.last_swept_ids)
        self._live_log_entries -= self.collector.last_swept_log_entries
        if not self.logging_enabled:
            live_ids = {t.tx_id for t in self.tx_manager.all_transactions}
            self._seen_edges = {
                (s, d) for (s, d) in self._seen_edges if s in live_ids and d in live_ids
            }
        self._check_budget()

    def _check_budget(self) -> None:
        if self.memory_budget is None:
            return
        used = len(self.tx_manager.all_transactions) + self._live_log_entries
        if used > self.memory_budget:
            raise OutOfMemoryBudget("ICD", used, self.memory_budget)

    # ------------------------------------------------------------------
    def _is_thread_blocked(self, thread_name: str) -> bool:
        # a finished thread responds via the implicit protocol, exactly
        # like a blocked one
        if thread_name in self._finished_threads:
            return True
        return self.view.is_thread_blocked(thread_name)

    def bind_view(self, view: RuntimeView) -> None:
        """Attach a live runtime view (the run helpers call this)."""
        self.view = view
