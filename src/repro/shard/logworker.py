"""A log shard: address-partitioned log construction plus PCD jobs.

Each log shard owns a slice of the ``(oid, field)`` address space.  It
consumes the analysis shard's record stream and rebuilds, for its
addresses only, exactly what the serial ICD's logging tail would have
built: the duplicate-elision filter replayed bit-for-bit from the
broadcast window bumps (transaction starts and IDG edges), surviving
entries appended as ``(desc, seq)`` column pairs per transaction, and
GC sweeps freeing swept columns at the serial collection points.

When the analysis shard captures a component (a ``W_JOB`` sentinel in
the record stream), the sentinel's stream position *is* the log
cutoff: every shard slices its members' columns as they stand and
ships the slices to the shard that owns the component (round-robin by
capture ordinal).  Because eager SCC detection re-captures a growing
component many times, both the slices and the owner's reassembly are
*incremental*: a shard only ships the column suffix the owner has not
seen yet (tracked per ``(owner, transaction)``), and the owner keeps
one cached serial log per transaction, extended suffix-only at each
job — every global sequence number in a new slice is greater than
everything already built, so extension is a sort of the new pairs
plus a mark-first merge with the spec's new edge marks.  Each
transaction's log is therefore constructed once, not once per job.
The owner then runs the *real* PCD replay on the assembled component.
Cycle records return to the analyzer tagged with their PDG cycle keys
so the merge can apply the serial run's global cycle deduplication.
"""

from __future__ import annotations

import time
import traceback
from array import array
from typing import Dict, List, Optional, Tuple

from repro.core.pcd import PCD
from repro.core.rwlog import AccessEntry, EdgeMark, ReadWriteLog
from repro.core.transactions import IdgEdge, Transaction
from repro.errors import OutOfMemoryBudget
from repro.obs.registry import use_registry
from repro.obs.wire import (
    child_registry,
    sample_depth,
    stalled_get,
    telemetry_capsule,
)
from repro.runtime.events import AccessKind
from repro.shard.wire import (
    W_EDGE,
    W_JOB,
    W_SWEEP,
    W_TXEND,
    W_TXSTART,
    decode_chunk,
    pack_columns,
)


class _KeyedPCD(PCD):
    """PCD that tags each accepted cycle record with its dedup key.

    The serial run dedups cycles globally through one PCD instance; a
    log shard only sees its own jobs, so it exports the keys (frozensets
    of ``(src_tx_id, dst_tx_id)`` PDG edge pairs — plain ints, stable
    across processes) and the analyzer's merge re-applies the global
    first-occurrence rule in capture order.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._keys: List[frozenset] = []

    def _report(self, cycle, tx_by_id):
        key = frozenset((e.src, e.dst) for e in cycle)
        record = super()._report(cycle, tx_by_id)
        if record is not None:
            self._keys.append(key)
        return record

    def process_keyed(self, component) -> List[tuple]:
        self._keys = []
        records = self.process(component)
        return list(zip(self._keys, records))


class LogShard:
    """Single log shard's state machine (see module docstring)."""

    def __init__(self, widx: int, nworkers: int, capture: bool,
                 worker_queues, q_analyzer, *,
                 pcd_memory_budget: Optional[int] = None,
                 use_engine: bool = True, obs=None) -> None:
        self.widx = widx
        self.nworkers = nworkers
        self.capture = capture
        self.worker_queues = worker_queues
        self.q_analyzer = q_analyzer
        #: this shard's registry (None when telemetry is off)
        self.obs = obs
        #: chunks consumed so far — the flow-arrow id for this shard's
        #: chunk c is ``widx * 1_000_000 + c`` (matches the analyzer's
        #: producer-side count; the queue is FIFO)
        self.chunks_in = 0
        # peer slice mesh accounting (deterministic: suffix counters)
        self.slice_msgs = 0
        self.slice_bytes = 0

        #: worker desc -> (kind, oid, fieldname, site_str, address)
        self.descs: Dict[int, tuple] = {}
        self._addr_intern: Dict[Tuple[int, str], Tuple[int, str]] = {}
        # elision replay (serial ElisionFilter semantics, keyed by tid)
        self.ts_by_tid: Dict[int, int] = {}
        self.last_by_tid: Dict[int, Dict[Tuple[int, str],
                                         Tuple[int, AccessKind]]] = {}
        self.cur_tx: Dict[int, int] = {}
        #: tx_id -> flat [desc, seq, ...] column of surviving entries
        self.cols: Dict[int, array] = {}
        # serial-stat shares owed back to the analyzer
        self.entries = 0
        self.el_logged = 0
        self.el_elided = 0
        self.live = 0
        self.integral = 0
        self.collected = 0
        self.samples: List[int] = []
        #: edge order -> (src column pairs, dst column pairs) at edge
        #: time; lifts stub mark indices to full-log indices (capture)
        self.partials: Dict[int, Tuple[int, int]] = {}
        # component assembly
        self.k_total: Optional[int] = None
        #: ordinal -> member spec (full members for my jobs; the spec
        #: arrives via the defs side-channel of the chunk whose payload
        #: carries the matching W_JOB sentinel)
        self.pending_specs: Dict[int, object] = {}
        self.specs: Dict[int, list] = {}
        #: ordinal -> {source shard -> column-suffix payload}
        self.slices: Dict[int, Dict[int, object]] = {}
        #: per assigned shard: tx_id -> ints of its column already
        #: shipped there (suffix-only slicing)
        self.sent_to: List[Dict[int, int]] = [{} for _ in range(nworkers)]
        #: tx_id -> cached serial log entries; the list is shared
        #: across this shard's jobs and extended suffix-only, so each
        #: log is constructed once
        self.built: Dict[int, list] = {}
        #: tx_id -> accumulated (order, dst_tx_id) out-edges (specs
        #: ship unfiltered suffixes; each job wires a recorded prefix
        #: of this list filtered against its member set)
        self.outs: Dict[int, list] = {}
        self.done: Dict[int, bool] = {}
        self.next_job = widx  # ordinals are assigned round-robin
        self.pcd = _KeyedPCD(pcd_memory_budget, use_engine=use_engine)

    # ------------------------------------------------------------------
    # record stream
    # ------------------------------------------------------------------
    def handle_defs(self, defs: tuple) -> None:
        for df in defs:
            if df[0] == "d":
                _, d, oid, fieldname, kindval, site_str = df
                address = (oid, fieldname)
                address = self._addr_intern.setdefault(address, address)
                self.descs[d] = (AccessKind(kindval), oid, fieldname,
                                 site_str, address)
            else:  # "k": member spec for the W_JOB sentinel in this chunk
                self.pending_specs[df[1]] = df[2]

    def handle_chunk(self, payload: bytes) -> None:
        obs = self.obs
        if obs is not None:
            chunk_started = time.perf_counter()
            obs.emit_flow(
                "shard.wchunk", chunk_started - obs.epoch,
                self.widx * 1_000_000 + self.chunks_in, "f",
            )
            self.chunks_in += 1
        arr = decode_chunk(payload)
        descs = self.descs
        ts_by_tid = self.ts_by_tid
        last_by_tid = self.last_by_tid
        cur_tx = self.cur_tx
        cols = self.cols
        _WRITE = AccessKind.WRITE
        i = 0
        n = len(arr)
        while i < n:
            v = arr[i]
            if v >= 0:
                seq = arr[i + 1]
                tid = arr[i + 2]
                i += 3
                kind = descs[v][0]
                address = descs[v][4]
                per_thread = last_by_tid.get(tid)
                if per_thread is None:
                    per_thread = last_by_tid[tid] = {}
                ts = ts_by_tid.get(tid, 0)
                last = per_thread.get(address)
                if last is not None and last[0] == ts and (
                    last[1] is kind or last[1] is _WRITE
                ):
                    self.el_elided += 1
                    continue
                per_thread[address] = (ts, kind)
                self.el_logged += 1
                col = cols.get(cur_tx[tid])
                if col is None:
                    col = cols[cur_tx[tid]] = array("q")
                col.append(v)
                col.append(seq)
                self.entries += 1
                self.live += 1
            elif v == W_TXSTART:
                tid = arr[i + 1]
                cur_tx[tid] = arr[i + 2]
                ts_by_tid[tid] = ts_by_tid.get(tid, 0) + 1
                i += 3
            elif v == W_TXEND:
                self.integral += self.live
                i += 1
            elif v == W_JOB:
                ordinal = arr[i + 1]
                i += 2
                self.handle_component(
                    ordinal, self.pending_specs.pop(ordinal)
                )
            elif v == W_EDGE:
                stid = arr[i + 1]
                dtid = arr[i + 2]
                ts_by_tid[stid] = ts_by_tid.get(stid, 0) + 1
                ts_by_tid[dtid] = ts_by_tid.get(dtid, 0) + 1
                if self.capture:
                    order = arr[i + 3]
                    scol = self.cols.get(arr[i + 4])
                    dcol = self.cols.get(arr[i + 5])
                    self.partials[order] = (
                        0 if scol is None else len(scol) // 2,
                        0 if dcol is None else len(dcol) // 2,
                    )
                i += 6
            else:  # W_SWEEP
                # the serial peak sample is taken just before the sweep
                self.samples.append(self.live)
                count = arr[i + 1]
                for j in range(i + 2, i + 2 + count):
                    col = cols.pop(arr[j], None)
                    if col is not None:
                        swept = len(col) // 2
                        self.live -= swept
                        self.collected += swept
                i += 2 + count
        if obs is not None:
            now = time.perf_counter()
            obs.observe("shard.log.chunk.seconds", now - chunk_started)
            obs.emit_event("shard.log.chunk", "shard",
                           ts=chunk_started - obs.epoch,
                           dur=now - chunk_started,
                           args={"ordinal": self.chunks_in - 1})

    # ------------------------------------------------------------------
    # components
    # ------------------------------------------------------------------
    def handle_component(self, ordinal: int, spec) -> None:
        """Stage this shard's column suffixes for one captured job.

        ``spec`` is the full member list when the job is assigned here,
        else just the member tx ids.  Only the suffix beyond what the
        assigned shard has already been sent is shipped (or staged
        locally); the per-owner counters make the suffixes disjoint and
        complete, so the owner can extend its cached logs append-only.
        Staging copies eagerly — columns keep growing and may be swept
        before the job actually runs.
        """
        assigned = ordinal % self.nworkers
        cols = self.cols
        sent = self.sent_to[assigned]
        if assigned == self.widx:
            staged: Dict[int, list] = {}
            job_members = []
            for tx_id, tn, method, is_unary, marks_new, out_new in spec:
                col = cols.get(tx_id)
                if col:
                    n = len(col)
                    start = sent.get(tx_id, 0)
                    if n > start:
                        staged[tx_id] = [
                            (col[i + 1], col[i]) for i in range(start, n, 2)
                        ]
                        sent[tx_id] = n
                outs = self.outs.get(tx_id)
                if out_new:
                    if outs is None:
                        outs = self.outs[tx_id] = []
                    outs.extend(out_new)
                # the recorded length pins this job's edge cutoff: the
                # list may grow for later pending jobs before this one
                # has all its slices and runs
                job_members.append(
                    (tx_id, tn, method, is_unary, marks_new,
                     0 if outs is None else len(outs))
                )
            self.specs[ordinal] = job_members
            self.slices.setdefault(ordinal, {})[self.widx] = staged
        else:
            payload: Dict[int, bytes] = {}
            for tx_id in spec:
                col = cols.get(tx_id)
                if not col:
                    continue
                n = len(col)
                start = sent.get(tx_id, 0)
                if n > start:
                    payload[tx_id] = col[start:n].tobytes()
                    sent[tx_id] = n
            self.slice_msgs += 1
            for raw in payload.values():
                self.slice_bytes += len(raw)
            self.worker_queues[assigned].put(
                ("S", ordinal, self.widx, payload)
            )
            if self.obs is not None:
                sample_depth(self.obs, "shard.queue.mesh.depth",
                             self.worker_queues[assigned])

    def handle_slice(self, ordinal: int, from_widx: int,
                     payload: Dict[int, bytes]) -> None:
        self.slices.setdefault(ordinal, {})[from_widx] = payload

    def ready(self, ordinal: int) -> bool:
        return (
            ordinal in self.specs
            and len(self.slices.get(ordinal, ())) == self.nworkers
        )

    def run_ready_jobs(self) -> None:
        # queues are per-producer FIFO and the analyzer emits K messages
        # in ordinal order, so readiness is monotone in the ordinal —
        # processing in ordinal order keeps the per-shard PCD instance's
        # cycle dedup consistent with the serial first-occurrence order
        while self.ready(self.next_job):
            ordinal = self.next_job
            self._run_job(ordinal, self.specs.pop(ordinal),
                          self.slices.pop(ordinal))
            self.done[ordinal] = True
            self.next_job += self.nworkers

    def _note_job(self, ordinal: int, started: float) -> None:
        """Record one PCD job's span + the return-channel depth."""
        obs = self.obs
        if obs is None:
            return
        now = time.perf_counter()
        obs.observe("shard.pcd.job.seconds", now - started)
        obs.emit_event("shard.pcd.job", "shard", ts=started - obs.epoch,
                       dur=now - started, args={"ordinal": ordinal})
        sample_depth(obs, "shard.queue.w2a.depth", self.q_analyzer)

    def _run_job(self, ordinal: int, members: list,
                 shard_slices: Dict[int, Dict[int, object]]) -> None:
        if self.obs is not None:
            job_started = time.perf_counter()
            # arrow from the analyzer's job announcement to the replay
            self.obs.emit_flow("shard.job", job_started - self.obs.epoch,
                               ordinal, "f")
        else:
            job_started = 0.0
        component: List[Transaction] = []
        tx_by_id: Dict[int, Transaction] = {}
        for tx_id, thread_name, method, is_unary, _marks, _nout in members:
            tx = Transaction(tx_id, thread_name, method, is_unary)
            tx_by_id[tx_id] = tx
            component.append(tx)
        # wire up member-internal IDG edges (all PCD reads: .order and
        # .dst.tx_id for merge constraints) — the accumulated edge list
        # up to this job's recorded cutoff, filtered to the member set
        all_outs = self.outs
        for tx_id, _tn, _m, _u, _marks, nout in members:
            if not nout:
                continue
            src = tx_by_id[tx_id]
            outs = all_outs[tx_id]
            for i in range(nout):
                order, dst_id = outs[i]
                dst = tx_by_id.get(dst_id)
                if dst is not None:
                    src.out_edges.append(IdgEdge(src, dst, "", order))
        # extend each member's cached serial log with this job's column
        # suffixes (merged by seq; unique per log) and the spec's new
        # edge marks, mark-first on equal seq.  Everything new carries a
        # seq greater than everything built — the per-owner suffix
        # counters guarantee it — so appending preserves serial order.
        ordered = [shard_slices[s] for s in sorted(shard_slices)]
        built = self.built
        descs = self.descs
        for tx_id, _tn, _m, _u, marks, _nout in members:
            entries = built.get(tx_id)
            if entries is None:
                entries = built[tx_id] = []
            pairs: List[Tuple[int, int]] = []
            for sl in ordered:
                raw = sl.get(tx_id)
                if raw is None:
                    continue
                if isinstance(raw, bytes):
                    arr = array("q")
                    arr.frombytes(raw)
                    for i in range(0, len(arr), 2):
                        pairs.append((arr[i + 1], arr[i]))  # (seq, desc)
                else:  # locally staged: already (seq, desc) tuples
                    pairs.extend(raw)
            if pairs or marks:
                pairs.sort()
                mi, pi = 0, 0
                nm, np_ = len(marks), len(pairs)
                while mi < nm and pi < np_:
                    if marks[mi][2] <= pairs[pi][0]:
                        order, is_source, seq = marks[mi]
                        entries.append(EdgeMark(order, is_source, seq))
                        mi += 1
                    else:
                        seq, d = pairs[pi]
                        kind, oid, fieldname, site_str, address = descs[d]
                        entries.append(
                            AccessEntry(kind, oid, fieldname, seq, site_str,
                                        address)
                        )
                        pi += 1
                for order, is_source, seq in marks[mi:]:
                    entries.append(EdgeMark(order, is_source, seq))
                for seq, d in pairs[pi:]:
                    kind, oid, fieldname, site_str, address = descs[d]
                    entries.append(
                        AccessEntry(kind, oid, fieldname, seq, site_str,
                                    address)
                    )
            log = ReadWriteLog()
            log.entries = entries
            tx_by_id[tx_id].log = log
        try:
            pairs_out = self.pcd.process_keyed(component)
        except OutOfMemoryBudget as exc:
            self._note_job(ordinal, job_started)
            self.q_analyzer.put(
                ("J", ordinal, "error",
                 (exc.component, exc.used, exc.budget))
            )
            return
        self._note_job(ordinal, job_started)
        self.q_analyzer.put(("J", ordinal, "ok", pairs_out))

    # ------------------------------------------------------------------
    def finished(self) -> bool:
        if self.k_total is None:
            return False
        ordinal = self.widx
        while ordinal < self.k_total:
            if ordinal not in self.done:
                return False
            ordinal += self.nworkers
        return True

    def final_bundle(self) -> dict:
        return {
            "entries": self.entries,
            "el_logged": self.el_logged,
            "el_elided": self.el_elided,
            "integral": self.integral,
            "collected": self.collected,
            "samples": self.samples,
            "partials": self.partials,
            "pcd_stats": self.pcd.stats,
            "cols": (
                {tx_id: pack_columns(col)
                 for tx_id, col in self.cols.items() if col}
                if self.capture else {}
            ),
            "cpu_seconds": time.process_time(),
            "slice_msgs": self.slice_msgs,
            "slice_bytes": self.slice_bytes,
            "telemetry": telemetry_capsule(self.obs),
        }


def run_worker(cfg: dict, widx: int, q_in, worker_queues, q_analyzer,
               q_result) -> None:
    """Log-shard main loop."""
    try:
        obs = child_registry(cfg.get("obs"), f"shard-log-{widx}")
        if obs is not None:
            use_registry(obs)
            run_started = time.perf_counter()
        shard = LogShard(
            widx, cfg["shards"] - 1, cfg["capture"], worker_queues, q_analyzer,
            pcd_memory_budget=cfg["pcd_memory_budget"],
            use_engine=cfg["use_engine"], obs=obs,
        )
        while not shard.finished():
            msg = stalled_get(q_in, obs, "shard.stall.logshard.get.seconds")
            tag = msg[0]
            if tag == "C":
                _, defs, payload = msg
                if defs:
                    shard.handle_defs(defs)
                shard.handle_chunk(payload)
                shard.run_ready_jobs()
            elif tag == "S":
                shard.handle_slice(msg[1], msg[2], msg[3])
                shard.run_ready_jobs()
            else:  # "F"
                shard.k_total = msg[1]
                shard.run_ready_jobs()
        if obs is not None:
            # emitted before final_bundle builds the telemetry capsule
            now = time.perf_counter()
            obs.observe("shard.log.run.seconds", now - run_started)
            obs.emit_event("shard.log.run", "shard",
                           ts=run_started - obs.epoch, dur=now - run_started,
                           args={"chunks": shard.chunks_in})
        q_analyzer.put(("W", widx, shard.final_bundle()))
    except BaseException as exc:  # noqa: BLE001 - crosses a process
        q_result.put(
            ("E", (type(exc).__name__, getattr(exc, "args", ()),
                   traceback.format_exc()))
        )


__all__ = ["LogShard", "run_worker", "_KeyedPCD"]
