"""Coordinator-side stream recorder.

Replaces the in-process ICD as the executor's single listener when the
run is sharded: every listener-visible fact — accesses, method
enter/exit, thread lifecycle, blocked-state flips — is serialized into
the :mod:`repro.shard.wire` record stream and shipped to the analysis
shard.  The executor itself is untouched; because analyses never feed
back into scheduling, the recorded execution is step-for-step the one
the serial run would produce.

The hot path is the batch barrier: the batch executor hands over
pre-interned column values, the recorder resolves the ``(site,
address)`` pair to an access descriptor (two dict probes; the pair
determines object, field, kind and site — kind is static per site)
and appends three ints.  The event path (:meth:`on_access`: sync
pseudo-accesses, generator frames) interns a descriptor per ``(site,
oid, field, kind)`` and appends four.
"""

from __future__ import annotations

from array import array
from typing import Any, Callable, Dict, Optional, Tuple

from repro.runtime.events import AccessEvent, AccessKind, Site
from repro.runtime.listeners import ExecutionListener
from repro.shard.wire import (
    CHUNK_INTS,
    T_BLOCK,
    T_END,
    T_ENTER,
    T_EVENT,
    T_EXIT,
    T_TEND,
    T_TSTART,
    encode_chunk,
)


class ShardStreamRecorder(ExecutionListener):
    """Serialize the execution's listener stream into record chunks.

    Args:
        sink: callable receiving ``(defs, chunk_bytes)`` per flush;
            ``defs`` is a tuple of definition tuples (see module docs
            of :mod:`repro.shard.wire`) or ``()``.
    """

    def __init__(self, sink: Callable[[tuple, bytes], None]) -> None:
        self._sink = sink
        self._buf = array("q")
        self._defs: list = []
        # interning tables; ids are dense and defined before first use
        self._tids: Dict[str, int] = {}
        self._mids: Dict[str, int] = {}
        #: batch path: site -> {address -> desc}
        self._desc_by_site: Dict[Site, Dict[Tuple[int, str], int]] = {}
        #: event path: (site, oid, fieldname, kindval) -> edesc
        self._event_descs: Dict[tuple, int] = {}
        self._next_desc = 0
        self._next_edesc = 0
        # wire accounting (obs `shard.*` counters)
        self.records = 0
        self.chunks = 0
        self.bytes_shipped = 0
        self.defs_shipped = 0

    # ------------------------------------------------------------------
    # interning
    # ------------------------------------------------------------------
    def _tid(self, thread: str) -> int:
        t = self._tids.get(thread)
        if t is None:
            t = self._tids[thread] = len(self._tids)
            self._defs.append(("t", t, thread))
        return t

    def _mid(self, method: str) -> int:
        m = self._mids.get(method)
        if m is None:
            m = self._mids[method] = len(self._mids)
            self._defs.append(("m", m, method))
        return m

    def _register_desc(
        self,
        site: Site,
        address: Tuple[int, str],
        kind: AccessKind,
        is_array: bool,
    ) -> int:
        desc = self._next_desc
        self._next_desc = desc + 1
        self._desc_by_site.setdefault(site, {})[address] = desc
        self._defs.append(
            (
                "d",
                desc,
                address[0],
                address[1],
                kind.value,
                site.method,
                site.index,
                1 if is_array else 0,
            )
        )
        return desc

    def _register_edesc(self, key: tuple, event: AccessEvent) -> int:
        edesc = self._next_edesc
        self._next_edesc = edesc + 1
        self._event_descs[key] = edesc
        site = event.site
        self._defs.append(
            (
                "e",
                edesc,
                event.obj.oid,
                event.fieldname,
                event.kind.value,
                site.method,
                site.index,
                1 if event.is_sync else 0,
                1 if event.is_array else 0,
            )
        )
        return edesc

    # ------------------------------------------------------------------
    # flushing
    # ------------------------------------------------------------------
    def _flush(self) -> None:
        buf = self._buf
        if not buf and not self._defs:
            return
        defs = tuple(self._defs)
        self._defs.clear()
        payload = encode_chunk(buf)
        del buf[:]
        self.chunks += 1
        self.bytes_shipped += len(payload)
        self.defs_shipped += len(defs)
        self._sink(defs, payload)

    # ------------------------------------------------------------------
    # barriers
    # ------------------------------------------------------------------
    def on_access(self, event: AccessEvent) -> None:
        key = (event.site, event.obj.oid, event.fieldname, event.kind.value)
        edesc = self._event_descs.get(key)
        if edesc is None:
            edesc = self._register_edesc(key, event)
        t = self._tids.get(event.thread_name)
        if t is None:
            t = self._tid(event.thread_name)
        buf = self._buf
        buf.append(T_EVENT)
        buf.append(edesc)
        buf.append(event.seq)
        buf.append(t)
        self.records += 1
        if len(buf) >= CHUNK_INTS:
            self._flush()

    def access_barrier_batch(self) -> Optional[Callable[..., None]]:
        buf = self._buf
        append = buf.append
        tids = self._tids
        get_tid = self._tid
        by_site = self._desc_by_site
        register = self._register_desc
        flush = self._flush

        def record_batch(
            seq: int,
            thread: str,
            obj: Any,
            fieldname: str,
            kind: AccessKind,
            site: Site,
            address: Tuple[int, str],
            site_str: str,
            is_array: bool,
        ) -> None:
            sub = by_site.get(site)
            desc = sub.get(address) if sub is not None else None
            if desc is None:
                desc = register(site, address, kind, is_array)
            t = tids.get(thread)
            if t is None:
                t = get_tid(thread)
            append(desc)
            append(seq)
            append(t)
            self.records += 1
            if len(buf) >= CHUNK_INTS:
                flush()

        return record_batch

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def on_thread_start(self, thread_name: str) -> None:
        self._buf.append(T_TSTART)
        self._buf.append(self._tid(thread_name))

    def on_thread_end(self, thread_name: str) -> None:
        self._buf.append(T_TEND)
        self._buf.append(self._tid(thread_name))

    def on_method_enter(self, thread_name: str, method: str, depth: int) -> None:
        buf = self._buf
        buf.append(T_ENTER)
        buf.append(self._tid(thread_name))
        buf.append(self._mid(method))
        buf.append(depth)

    def on_method_exit(self, thread_name: str, method: str, depth: int) -> None:
        buf = self._buf
        buf.append(T_EXIT)
        buf.append(self._tid(thread_name))
        buf.append(self._mid(method))
        buf.append(depth)

    def on_thread_blocked(self, thread_name: str) -> None:
        buf = self._buf
        buf.append(T_BLOCK)
        buf.append(self._tid(thread_name))
        buf.append(1)

    def on_thread_unblocked(self, thread_name: str) -> None:
        buf = self._buf
        buf.append(T_BLOCK)
        buf.append(self._tid(thread_name))
        buf.append(0)

    def on_execution_end(self) -> None:
        self._buf.append(T_END)
        self._flush()


__all__ = ["ShardStreamRecorder"]
