"""The analysis shard (shard 0) of the sharded pipeline.

Replays the coordinator's record stream through the *real* ICD — the
Octet state machine, transaction demarcation, IDG construction, SCC
detection, and GC all run here unmodified — with exactly one seam
replaced: the read/write-logging tail.  Where the serial ICD appends an
:class:`~repro.core.rwlog.AccessEntry`, :class:`ShardedICD` appends a
3-int record to the owning log shard's buffer instead; the transaction
keeps a *stub* log holding only the IDG edge marks, created under
exactly the serial conditions, so SCC membership, GC sweeping, and
PCD's ``log is not None`` member filter behave identically.

Everything the log shards need to reproduce the serial logs travels as
records positioned exactly where the serial side effect happened:
transaction starts (elision-window bumps + current-transaction
switches), IDG edges (bumps on both threads), GC sweeps (free the
swept columns; also the aligned peak-sample point), and the component
cutoff itself — a captured SCC is flushed *then* announced, so the
stream position **is** the cutoff and no entry-count arithmetic is
needed.

The analyzer then plays PCD orchestrator: captured components fan out
round-robin to the log shards, per-job violation results come back
tagged with their cycle keys, and the final merge folds them in
capture (ordinal) order applying the serial run's global cycle
deduplication — so the merged violation list is byte-identical to the
serial run's.
"""

from __future__ import annotations

import time
import traceback
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.gc import GcStats
from repro.core.icd import ICD
from repro.core.pcd import PCDStats
from repro.core.transactions import Transaction
from repro.errors import OutOfMemoryBudget
from repro.obs.registry import use_registry
from repro.obs.wire import (
    child_registry,
    sample_depth,
    stalled_get,
    telemetry_capsule,
)
from repro.runtime.events import AccessEvent, AccessKind, Site, intern_site
from repro.runtime.view import RuntimeView
from repro.shard.snapshot import (
    CaptureTransitionLog,
    stitch_log,
)
from repro.shard.wire import (
    T_BLOCK,
    T_END,
    T_ENTER,
    T_EVENT,
    T_EXIT,
    T_TEND,
    T_TSTART,
    W_EDGE,
    W_JOB,
    W_SWEEP,
    W_TXEND,
    W_TXSTART,
    WORKER_CHUNK_INTS,
    decode_chunk,
    encode_chunk,
    shard_of,
    unpack_columns,
)


class LiteObj:
    """Stand-in for a heap object on the analysis shard.

    Every analysis consumer — Octet state keys, transition records,
    log entries — reads only ``obj.oid``.
    """

    __slots__ = ("oid",)

    def __init__(self, oid: int) -> None:
        self.oid = oid


class _StubLog:
    """Marks-only stand-in for a transaction's ``ReadWriteLog``.

    Access entries live in the log shards' columns; the analysis shard
    keeps only the edge marks — as plain ``(edge_order, is_source,
    seq)`` tuples, already in member-spec wire format, so capturing a
    component's marks is a shallow ``list()`` copy.  ``len()`` matches
    the serial mark-index semantics every consumer here relies on
    (``append_mark`` return values anchor IDG edges, GC counts swept
    stub entries, component capture filters on ``tx.log``).
    """

    __slots__ = ("entries",)

    def __init__(self) -> None:
        self.entries: List[tuple] = []

    def append_mark(self, edge_order: int, is_source: bool, seq: int) -> int:
        self.entries.append((edge_order, is_source, seq))
        return len(self.entries) - 1

    def __len__(self) -> int:
        return len(self.entries)


class MirrorView(RuntimeView):
    """Blocked-thread view reconstructed from T_BLOCK records.

    Thread completion is *not* mirrored here: ICD checks its own
    ``_finished_threads`` (fed by T_TEND) before consulting the view,
    exactly as it does against the live executor.
    """

    def __init__(self) -> None:
        self.blocked: Dict[str, bool] = {}

    def is_thread_blocked(self, thread_name: str) -> bool:
        return self.blocked.get(thread_name, False)


class ShardChannel:
    """Analyzer-side fan-out to the log shards.

    Owns the per-shard record buffers, the worker access-descriptor
    table (interned per ``(site, address, kind)``), and the broadcast
    records that keep every shard's elision replay and column ownership
    in sync.  Definitions are flushed with the chunk that first uses
    them, so a definition always precedes its first reference.
    """

    def __init__(self, queues: List[Any], obs: Any = None) -> None:
        self.queues = queues
        self.n = len(queues)
        #: analysis shard's registry (None when telemetry is off); the
        #: hot paths pay one is-None check when disabled
        self.obs = obs
        #: per log shard: chunks flushed so far — the flow-arrow id for
        #: chunk c to shard w is ``w * 1_000_000 + c`` and both ends
        #: derive it independently (the queues are FIFO)
        self.wchunks = [0] * self.n
        self.bufs = [array("q") for _ in queues]
        self.defs: List[list] = [[] for _ in queues]
        self.tid_by_name: Dict[str, int] = {}
        #: (site, address, kind) -> (worker desc, owning shard index)
        self.descs: Dict[tuple, Tuple[int, int]] = {}
        #: worker desc -> (kind, oid, fieldname, site_str) for capture
        self.desc_meta: List[tuple] = []
        # wire accounting (merged into the shard.* obs counters)
        self.records = 0
        self.chunks = 0
        self.bytes_shipped = 0
        self.defs_shipped = 0
        self.jobs_sent = 0
        #: per owning shard: tx_id -> marks / out-edges already shipped
        #: there (job specs carry only the suffix the owner lacks)
        self.sent_marks: List[Dict[int, int]] = [{} for _ in queues]
        self.sent_out: List[Dict[int, int]] = [{} for _ in queues]

    def register_thread(self, tid: int, name: str) -> None:
        self.tid_by_name[name] = tid

    def register_desc(
        self,
        site: Site,
        address: Tuple[int, str],
        kind: AccessKind,
        site_str: str,
    ) -> Tuple[int, int]:
        d = len(self.desc_meta)
        widx = shard_of(address[0], address[1], self.n)
        entry = self.descs[(site, address, kind)] = (d, widx)
        self.desc_meta.append((kind, address[0], address[1], site_str))
        # broadcast: records for d flow only to the owner, but any
        # shard may have to expand d later when it assembles a PCD job
        # from peer slices
        df = ("d", d, address[0], address[1], kind.value, site_str)
        for defs in self.defs:
            defs.append(df)
        return entry

    def flush(self, widx: int) -> None:
        buf = self.bufs[widx]
        defs = self.defs[widx]
        if not buf and not defs:
            return
        payload = encode_chunk(buf)
        del buf[:]
        sent_defs = tuple(defs)
        defs.clear()
        self.chunks += 1
        self.bytes_shipped += len(payload)
        self.defs_shipped += len(sent_defs)
        self.queues[widx].put(("C", sent_defs, payload))
        obs = self.obs
        if obs is not None:
            obs.emit_flow(
                "shard.wchunk", time.perf_counter() - obs.epoch,
                widx * 1_000_000 + self.wchunks[widx], "s",
            )
            self.wchunks[widx] += 1
            sample_depth(obs, "shard.queue.a2w.depth", self.queues[widx])

    def flush_all(self) -> None:
        for widx in range(self.n):
            self.flush(widx)

    # ------------------------------------------------------------------
    # broadcast records (every shard must see these)
    # ------------------------------------------------------------------
    def tx_start(self, tid: int, tx_id: int) -> None:
        for widx, buf in enumerate(self.bufs):
            buf.append(W_TXSTART)
            buf.append(tid)
            buf.append(tx_id)
            if len(buf) >= WORKER_CHUNK_INTS:
                self.flush(widx)
        self.records += self.n

    def tx_end(self) -> None:
        for buf in self.bufs:
            buf.append(W_TXEND)
        self.records += self.n

    def edge(
        self, stid: int, dtid: int, order: int, stxid: int, dtxid: int
    ) -> None:
        for widx, buf in enumerate(self.bufs):
            buf.append(W_EDGE)
            buf.append(stid)
            buf.append(dtid)
            buf.append(order)
            buf.append(stxid)
            buf.append(dtxid)
            if len(buf) >= WORKER_CHUNK_INTS:
                self.flush(widx)
        self.records += self.n

    def sweep(self, swept_ids) -> None:
        ids = sorted(swept_ids)
        for widx, buf in enumerate(self.bufs):
            buf.append(W_SWEEP)
            buf.append(len(ids))
            for tx_id in ids:
                buf.append(tx_id)
            if len(buf) >= WORKER_CHUNK_INTS:
                self.flush(widx)
        self.records += self.n

    # ------------------------------------------------------------------
    def send_job(self, logged: List[Transaction]) -> int:
        """Announce one captured component to every shard.

        The announcement is a ``W_JOB`` sentinel embedded in each
        shard's record stream — its position *is* the log cutoff — with
        the member spec riding the same chunk's defs tuple, so a job
        costs no flush and no extra queue message.  Only the shard that
        will run the job (round-robin by ordinal) gets the full member
        spec; the others slice columns by id and need only the ids.

        Eager detection re-captures a growing component many times, so
        specs are incremental too: marks and out-edges are shipped as
        the suffix the owning shard has not seen yet (per-owner
        counters), and the owner accumulates them — re-capturing a
        member costs work proportional to what changed, not to the
        member's history.  Out-edges ship unfiltered; the owner filters
        against the job's member set when wiring the component.
        """
        ordinal = self.jobs_sent
        self.jobs_sent = ordinal + 1
        owner = ordinal % self.n
        sent_marks = self.sent_marks[owner]
        sent_out = self.sent_out[owner]
        members = []
        ids = []
        for tx in logged:
            tx_id = tx.tx_id
            ids.append(tx_id)
            # stub entries are wire-format mark tuples; the slice copy
            # decouples the spec from marks appended later (the queue
            # feeder thread pickles asynchronously)
            entries = tx.log.entries
            start = sent_marks.get(tx_id, 0)
            marks_new = entries[start:]
            if marks_new:
                sent_marks[tx_id] = len(entries)
            outs = tx.out_edges
            start = sent_out.get(tx_id, 0)
            out_new = [(e.order, e.dst.tx_id) for e in outs[start:]]
            if out_new:
                sent_out[tx_id] = len(outs)
            members.append(
                (tx_id, tx.thread_name, tx.method, tx.is_unary,
                 marks_new, out_new)
            )
        ids = tuple(ids)
        for widx in range(self.n):
            self.defs[widx].append(
                ("k", ordinal, members if widx == owner else ids)
            )
            buf = self.bufs[widx]
            buf.append(W_JOB)
            buf.append(ordinal)
            if len(buf) >= WORKER_CHUNK_INTS:
                self.flush(widx)
        if self.obs is not None:
            # flow finish lands on the shard that runs the PCD job
            self.obs.emit_flow(
                "shard.job", time.perf_counter() - self.obs.epoch,
                ordinal, "s",
            )
        return ordinal

    def finish(self) -> None:
        self.flush_all()
        for q in self.queues:
            q.put(("F", self.jobs_sent))


class ShardedICD(ICD):
    """ICD with the logging tail rerouted to the log shards.

    The serial fused barrier runs unchanged; only its logging tail
    (:meth:`_logging_tail`) and the reference :meth:`_log_access` are
    overridden, emitting ``[desc, seq, tid]`` to the owning shard
    instead of appending an entry.  Elision is *not* probed here — the
    owning shard replays the filter bit-exactly from the broadcast bump
    records.  Stub logs are created under exactly the serial creation
    conditions and accumulate only edge marks, which keeps every
    consumer of ``tx.log`` (GC, SCC capture, the PCD member filter,
    the mark-count stats) behaving identically.
    """

    def __init__(self, spec, channel: ShardChannel, **kwargs) -> None:
        self.channel = channel
        self.peak_samples: List[int] = []
        super().__init__(spec, **kwargs)

    # ------------------------------------------------------------------
    # logging tails (only the sink differs from the serial ICD)
    # ------------------------------------------------------------------
    def _logging_tail(self) -> Callable[..., None]:
        channel = self.channel
        descs = channel.descs
        register = channel.register_desc
        tid_by_name = channel.tid_by_name
        bufs = channel.bufs
        flush = channel.flush

        def log_tail(tx, seq, thread, oid, fieldname, kind, site,
                     address, site_str) -> None:
            if tx.log is None:
                tx.log = _StubLog()
            entry = descs.get((site, address, kind))
            if entry is None:
                entry = register(site, address, kind, site_str)
            d, widx = entry
            buf = bufs[widx]
            buf.append(d)
            buf.append(seq)
            buf.append(tid_by_name[thread])
            if len(buf) >= WORKER_CHUNK_INTS:
                flush(widx)

        return log_tail

    def _log_access(self, tx: Transaction, event: AccessEvent) -> None:
        # reference slow path: same lazy stub creation and interning as
        # the serial _log_access, with the append replaced by emission
        # (array_granularity_object never reaches the sharded pipeline,
        # so the address is always the field address)
        if tx.log is None:
            tx.log = _StubLog()
        address = (event.obj.oid, event.fieldname)
        address = self._addr_intern.setdefault(address, address)
        site = event.site
        channel = self.channel
        entry = channel.descs.get((site, address, event.kind))
        if entry is None:
            site_str = self._site_intern.get(site)
            if site_str is None:
                site_str = self._site_intern[site] = str(site)
            entry = channel.register_desc(site, address, event.kind, site_str)
        d, widx = entry
        buf = channel.bufs[widx]
        buf.append(d)
        buf.append(event.seq)
        buf.append(channel.tid_by_name[event.thread_name])
        if len(buf) >= WORKER_CHUNK_INTS:
            channel.flush(widx)

    # ------------------------------------------------------------------
    # lifecycle rebroadcasts
    # ------------------------------------------------------------------
    def _transaction_started(self, tx: Transaction) -> None:
        super()._transaction_started(tx)
        if tx.log is not None:
            # serial creation conditions, marks-only representation
            tx.log = _StubLog()
        self.channel.tx_start(self.channel.tid_by_name[tx.thread_name], tx.tx_id)

    def _transaction_ended(self, tx: Transaction) -> None:
        # the serial side samples the live-entry integral before
        # detection runs, so the shards' sample record must precede any
        # component announcement detection may produce
        self.channel.tx_end()
        super()._transaction_ended(tx)

    def _add_edge(self, src, dst, kind):
        edge = super()._add_edge(src, dst, kind)
        if edge is not None:
            ch = self.channel
            ch.edge(
                ch.tid_by_name[edge.src.thread_name],
                ch.tid_by_name[edge.dst.thread_name],
                edge.order,
                edge.src.tx_id,
                edge.dst.tx_id,
            )
        return edge

    def _maybe_collect(self) -> None:
        # the serial collection plus two additions: the aligned peak
        # sample (taken at the serial note_peak point) and the sweep
        # broadcast (the budget check in between is a no-op — sharding
        # refuses ICD memory budgets)
        due = (
            self.gc_interval is not None
            and self._tx_ends_since_gc + 1 >= self.gc_interval
        )
        if due:
            self.peak_samples.append(self._live_log_entries)
        super()._maybe_collect()
        if due:
            self.channel.sweep(self.collector.last_swept_ids)


# ----------------------------------------------------------------------
# process entry point
# ----------------------------------------------------------------------
def run_analyzer(cfg: dict, q_in, worker_queues, q_result) -> None:
    """Analysis-shard main: decode, analyze, orchestrate, merge."""
    try:
        obs = child_registry(cfg.get("obs"), "shard-analyzer")
        if obs is not None:
            # analyses capture the active recorder at construction; the
            # counters they publish are dropped from the capsule (the
            # coordinator reconciles them), spans/histograms ship back
            use_registry(obs)
        bundle = _analyze(cfg, q_in, worker_queues, obs)
        q_result.put(("A", bundle))
    except OutOfMemoryBudget as exc:
        # a deterministic analysis outcome: ship the constructor triple
        # so the coordinator re-raises the exact serial exception
        q_result.put(
            ("E", ("OutOfMemoryBudget",
                   (exc.component, exc.used, exc.budget),
                   traceback.format_exc()))
        )
    except BaseException as exc:  # noqa: BLE001 - crosses a process
        q_result.put(
            ("E", (type(exc).__name__, getattr(exc, "args", ()),
                   traceback.format_exc()))
        )


def _analyze(cfg: dict, q_in, worker_queues, obs: Any = None) -> dict:
    run_started = time.perf_counter()
    channel = ShardChannel(list(worker_queues), obs)
    view = MirrorView()
    capture = cfg["capture"]

    components_small = 0
    transactions_small = 0

    def handle_scc(component) -> None:
        nonlocal components_small, transactions_small
        logged = [tx for tx in component if tx.log is not None]
        if len(logged) < 2:
            # the serial PCD would replay nothing; account for the call
            # here instead of shipping an empty job
            components_small += 1
            transactions_small += len(logged)
            return
        channel.send_job(logged)

    icd = ShardedICD(
        cfg["spec"],
        channel,
        logging_enabled=True,
        monitor_unary=cfg["monitor_unary"],
        instrument_arrays=cfg["instrument_arrays"],
        cycle_detection=cfg["cycle_detection"],
        eager_scc=cfg["eager_scc"],
        on_scc=handle_scc,
        runtime_view=view,
        gc_interval=cfg["gc_interval"],
        use_engine=cfg["use_engine"],
    )
    transitions = None
    if capture:
        transitions = CaptureTransitionLog()
        icd.octet.add_listener(transitions)

    fused = icd.access_barrier_batch()

    threads: List[str] = []
    methods: List[str] = []
    desc_rows: List[tuple] = []
    edesc_rows: List[tuple] = []
    objs: Dict[int, LiteObj] = {}
    addr_intern = icd._addr_intern
    site_intern = icd._site_intern

    def lite(oid: int) -> LiteObj:
        obj = objs.get(oid)
        if obj is None:
            obj = objs[oid] = LiteObj(oid)
        return obj

    def handle_defs(defs: tuple) -> None:
        for df in defs:
            tag = df[0]
            if tag == "d":
                _, _d, oid, fieldname, kindval, method, index, arraybit = df
                address = (oid, fieldname)
                address = addr_intern.setdefault(address, address)
                site = intern_site(method, index)
                site_str = site_intern.get(site)
                if site_str is None:
                    site_str = site_intern[site] = str(site)
                desc_rows.append(
                    (lite(oid), fieldname, AccessKind(kindval), site,
                     address, site_str, bool(arraybit))
                )
            elif tag == "e":
                (_, _ed, oid, fieldname, kindval, method, index,
                 syncbit, arraybit) = df
                edesc_rows.append(
                    (lite(oid), fieldname, AccessKind(kindval),
                     intern_site(method, index), bool(syncbit),
                     bool(arraybit))
                )
            elif tag == "t":
                _, t, name = df
                assert t == len(threads)
                threads.append(name)
                channel.register_thread(t, name)
            else:  # "m"
                _, m, name = df
                assert m == len(methods)
                methods.append(name)

    # results arriving from the log shards while the stream is decoding
    job_results: Dict[int, Tuple[str, object]] = {}
    worker_bundles: Dict[int, dict] = {}
    nworkers = channel.n

    chunks_in = 0
    ended = False
    while not ended:
        msg = stalled_get(q_in, obs, "shard.stall.analyzer.get.seconds")
        tag = msg[0]
        if tag == "C":
            _, defs, payload = msg
            if obs is not None:
                chunk_started = time.perf_counter()
                obs.emit_flow("shard.chunk", chunk_started - obs.epoch,
                              chunks_in, "f")
            if defs:
                handle_defs(defs)
            arr = decode_chunk(payload)
            i = 0
            n = len(arr)
            while i < n:
                v = arr[i]
                if v >= 0:
                    row = desc_rows[v]
                    seq = arr[i + 1]
                    t = arr[i + 2]
                    i += 3
                    if fused is not None:
                        fused(seq, threads[t], *row)
                    else:
                        obj, fieldname, kind, site, _addr, _s, is_array = row
                        icd.on_access(
                            AccessEvent(seq, threads[t], obj, fieldname,
                                        kind, False, is_array, site)
                        )
                elif v == T_EVENT:
                    ed = arr[i + 1]
                    seq = arr[i + 2]
                    t = arr[i + 3]
                    i += 4
                    obj, fieldname, kind, site, is_sync, is_array = \
                        edesc_rows[ed]
                    icd.on_access(
                        AccessEvent(seq, threads[t], obj, fieldname, kind,
                                    is_sync, is_array, site)
                    )
                elif v == T_ENTER:
                    icd.on_method_enter(
                        threads[arr[i + 1]], methods[arr[i + 2]], arr[i + 3]
                    )
                    i += 4
                elif v == T_EXIT:
                    icd.on_method_exit(
                        threads[arr[i + 1]], methods[arr[i + 2]], arr[i + 3]
                    )
                    i += 4
                elif v == T_TSTART:
                    icd.on_thread_start(threads[arr[i + 1]])
                    i += 2
                elif v == T_TEND:
                    icd.on_thread_end(threads[arr[i + 1]])
                    i += 2
                elif v == T_BLOCK:
                    view.blocked[threads[arr[i + 1]]] = bool(arr[i + 2])
                    i += 3
                else:  # T_END
                    ended = True
                    i += 1
            if obs is not None:
                now = time.perf_counter()
                obs.observe("shard.analyzer.chunk.seconds",
                            now - chunk_started)
                obs.emit_event("shard.analyzer.chunk", "shard",
                               ts=chunk_started - obs.epoch,
                               dur=now - chunk_started,
                               args={"ordinal": chunks_in})
                chunks_in += 1
        elif tag == "J":
            job_results[msg[1]] = (msg[2], msg[3])
        else:  # "W"
            worker_bundles[msg[1]] = msg[2]

    # execution end: finish remaining transactions (may capture more
    # components and sweep), then release the log shards
    icd.on_execution_end()
    channel.finish()

    while len(worker_bundles) < nworkers:
        msg = stalled_get(q_in, obs, "shard.stall.analyzer.get.seconds")
        tag = msg[0]
        if tag == "J":
            job_results[msg[1]] = (msg[2], msg[3])
        elif tag == "W":
            worker_bundles[msg[1]] = msg[2]

    if obs is not None:
        # the run span is emitted *before* the merge builds the
        # telemetry capsule — anything recorded later would not ship
        now = time.perf_counter()
        obs.observe("shard.analyzer.run.seconds", now - run_started)
        obs.emit_event("shard.analyzer.run", "shard",
                       ts=run_started - obs.epoch, dur=now - run_started,
                       args={"chunks": chunks_in, "jobs": channel.jobs_sent})
    return _merge(
        cfg, icd, channel, transitions, job_results,
        worker_bundles, components_small, transactions_small, obs,
    )


def _merge(
    cfg: dict,
    icd: ShardedICD,
    channel: ShardChannel,
    transitions: Optional[CaptureTransitionLog],
    job_results: Dict[int, Tuple[str, object]],
    worker_bundles: Dict[int, dict],
    components_small: int,
    transactions_small: int,
    obs: Any = None,
) -> dict:
    merge_started = time.perf_counter()
    nworkers = channel.n
    workers = [worker_bundles[w] for w in range(nworkers)]

    # ------------------------------------------------------------------
    # violations: capture order + the serial global cycle deduplication
    # ------------------------------------------------------------------
    seen_keys: set = set()
    violation_records: List[object] = []
    for ordinal in range(channel.jobs_sent):
        status, payload = job_results[ordinal]
        if status == "error":
            # deterministic: the serial run would raise from this very
            # component (same capture order, same entry total)
            raise OutOfMemoryBudget(*payload)
        for key, record in payload:
            if key not in seen_keys:
                seen_keys.add(key)
                violation_records.append(record)

    # ------------------------------------------------------------------
    # stats reconciliation: distribute-and-sum counters back to the
    # exact serial totals
    # ------------------------------------------------------------------
    stats = icd.stats
    stats.log_entries = sum(w["entries"] for w in workers)
    stats.live_log_entry_integral += sum(w["integral"] for w in workers)

    elision = icd._elision.stats
    elision.logged = sum(w["el_logged"] for w in workers)
    elision.elided = sum(w["el_elided"] for w in workers)

    gc_stats: GcStats = icd.collector.stats
    gc_stats.log_entries_collected += sum(w["collected"] for w in workers)
    if icd.peak_samples:
        for w in workers:
            assert len(w["samples"]) == len(icd.peak_samples)
        gc_stats.peak_live_log_entries = max(
            icd.peak_samples[i] + sum(w["samples"][i] for w in workers)
            for i in range(len(icd.peak_samples))
        )

    pcd_stats = PCDStats()
    pcd_stats.components_processed = components_small
    pcd_stats.transactions_processed = transactions_small
    for w in workers:
        ws: PCDStats = w["pcd_stats"]
        pcd_stats.components_processed += ws.components_processed
        pcd_stats.transactions_processed += ws.transactions_processed
        pcd_stats.entries_replayed += ws.entries_replayed
        pcd_stats.accesses_replayed += ws.accesses_replayed
        pcd_stats.pdg_edges += ws.pdg_edges
        pcd_stats.cycle_checks += ws.cycle_checks
        pcd_stats.cycle_check_visits += ws.cycle_check_visits
        pcd_stats.engine_search_visits += ws.engine_search_visits
        pcd_stats.order_fallbacks += ws.order_fallbacks
    pcd_stats.cycles_found = len(violation_records)

    bundle = {
        "violations": violation_records,
        "icd_stats": stats,
        "tx_stats": icd.tx_manager.stats,
        "octet_stats": icd.octet.stats,
        "gc_stats": gc_stats,
        "elision_stats": elision,
        "protocol_stats": icd.octet.protocol.stats(),
        "pcd_stats": pcd_stats,
        "counters": {
            "shard.worker_chunks": channel.chunks,
            "shard.worker_bytes": channel.bytes_shipped,
            "shard.worker_records": channel.records,
            "shard.worker_defs": channel.defs_shipped,
            "shard.components": channel.jobs_sent,
            "shard.pcd_jobs": channel.jobs_sent,
            # peer slice mesh accounting (bytes-on-wire per channel);
            # suffix-only slicing makes both deterministic per config
            "shard.slice_msgs": sum(w["slice_msgs"] for w in workers),
            "shard.slice_bytes": sum(w["slice_bytes"] for w in workers),
        },
        "cpu_seconds": {
            "analyzer": time.process_time(),
            "workers": [w["cpu_seconds"] for w in workers],
        },
    }

    if transitions is not None:
        bundle["capture"] = _capture_bundle(icd, channel, transitions, workers)
    merge_seconds = time.perf_counter() - merge_started
    bundle["merge_seconds"] = merge_seconds
    if obs is not None:
        obs.observe("shard.analyzer.merge.seconds", merge_seconds)
        obs.emit_event("shard.analyzer.merge", "shard",
                       ts=merge_started - obs.epoch, dur=merge_seconds)
    bundle["telemetry"] = {
        "analyzer": telemetry_capsule(obs),
        "workers": [w.pop("telemetry", None) for w in workers],
    }
    return bundle


def _capture_bundle(
    icd: ShardedICD,
    channel: ShardChannel,
    transitions: CaptureTransitionLog,
    workers: List[dict],
) -> dict:
    """Stitch the serial-format dumps from stubs + worker columns."""
    desc_meta = channel.desc_meta
    # per-tx entry dump tuples, merged across shards by seq (each
    # shard's column is already in log order; seqs are unique per log)
    entries_by_tx: Dict[int, List[tuple]] = {}
    for w in workers:
        for tx_id, payload in w["cols"].items():
            arr = unpack_columns(payload)
            out = entries_by_tx.setdefault(tx_id, [])
            for i in range(0, len(arr), 2):
                kind, oid, fieldname, site_str = desc_meta[arr[i]]
                out.append(("a", kind.value, oid, fieldname, arr[i + 1],
                            site_str))
    for out in entries_by_tx.values():
        out.sort(key=lambda e: e[4])

    # stub logs hold wire-format mark tuples in serial mark order
    logs: Dict[int, List[tuple]] = {}
    for tx in icd.tx_manager.all_transactions:
        if tx.log is not None:
            logs[tx.tx_id] = stitch_log(
                tx.log.entries, entries_by_tx.get(tx.tx_id, [])
            )

    # IDG edges with log anchors lifted from stub (mark-only) indices
    # to full-log indices: marks-before stays the stub index, entries-
    # before is the sum of each shard's column length at edge time
    partials: Dict[int, List[int]] = {}
    for w in workers:
        for order, (src_cnt, dst_cnt) in w["partials"].items():
            acc = partials.get(order)
            if acc is None:
                partials[order] = [src_cnt, dst_cnt]
            else:
                acc[0] += src_cnt
                acc[1] += dst_cnt
    edges = []
    for tx in icd.tx_manager.all_transactions:
        for edge in tx.out_edges:
            counts = partials.get(edge.order, (0, 0))
            src_index = (
                None if edge.src_log_index is None
                else edge.src_log_index + counts[0]
            )
            dst_index = (
                None if edge.dst_log_index is None
                else edge.dst_log_index + counts[1]
            )
            edges.append(
                (edge.src.tx_id, edge.dst.tx_id, edge.kind, edge.order,
                 src_index, dst_index)
            )
    return {
        "transitions": transitions.records,
        "logs": logs,
        "edges": sorted(edges),
    }


__all__ = [
    "LiteObj",
    "MirrorView",
    "ShardChannel",
    "ShardedICD",
    "run_analyzer",
]
