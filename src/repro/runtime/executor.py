"""The execution engine: interprets simulated programs step by step.

Each scheduler step advances one thread by one operation.  Before every
shared-memory access (and every synchronization pseudo-access) the
executor invokes the attached listeners' :meth:`on_access` barrier, the
analogue of the compiler-inserted barriers in the paper's Jikes RVM
implementation.

The executor itself knows nothing about transactions, Octet states, or
dependence graphs — those all live in listeners — which keeps the
substrate reusable for every checker configuration the evaluation
needs (Velodrome, single-run, first run, second run, PCD-only, ...).
"""

from __future__ import annotations

import time
from bisect import insort
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional, Tuple

from repro.errors import DeadlockError, ProgramError, StepLimitExceeded
from repro.obs.registry import MODE_FULL, recorder as obs_recorder
from repro.runtime import ops
from repro.runtime.events import (
    LOCK_FIELD,
    THREAD_FIELD,
    AccessEvent,
    AccessKind,
    Site,
    intern_site,
)
from repro.runtime.heap import SharedArray, SharedObject
from repro.runtime.listeners import ExecutionListener, ListenerPipeline
from repro.runtime.lowering import (
    OP_AREAD,
    OP_AWRITE,
    OP_COMPUTE,
    OP_READ,
    OP_WRITE,
    VAL_CONST,
    VAL_INC,
    LoweredBody,
    batch_executor_enabled,
    lower_script,
)
from repro.runtime.program import Program
from repro.runtime.scheduler import RoundRobinScheduler, Scheduler
from repro.runtime.sync import LockTable
from repro.runtime.threads import ThreadState, VThread

#: default safety valve against runaway or livelocked programs
DEFAULT_STEP_LIMIT = 5_000_000

#: most ``executor.quantum`` trace events one run will emit; beyond
#: this, quanta are still counted (``executor.context_switches``,
#: ``executor.quantum.truncated``) but no longer individually traced
QUANTUM_EVENT_LIMIT = 5_000


@dataclass
class ExecutionResult:
    """Summary of one completed execution."""

    steps: int
    access_count: int
    sync_access_count: int
    #: thread name -> number of scheduler steps that ran the thread
    per_thread_ops: Dict[str, int]
    elapsed_seconds: float
    thread_names: List[str] = field(default_factory=list)

    @property
    def program_access_count(self) -> int:
        """Accesses to program data (excludes synchronization accesses)."""
        return self.access_count - self.sync_access_count

    @property
    def steps_per_second(self) -> float:
        """Executor throughput (the microbenchmark's headline metric)."""
        if self.elapsed_seconds <= 0.0:
            return float("inf") if self.steps else 0.0
        return self.steps / self.elapsed_seconds


@dataclass
class _PendingAcquire:
    obj: SharedObject
    depth: int
    after_wait: bool


@dataclass
class _PendingJoin:
    target: str


class _LoweredFrame:
    """One activation of a lowered body on a thread's call stack.

    Occupies the generator slot of the ``(method, payload)`` frame
    tuple; the batch interpreter advances ``pc`` through the body's
    columns instead of ``gen.send``-ing into a generator."""

    __slots__ = ("body", "pc", "regs")

    def __init__(self, body: LoweredBody) -> None:
        self.body = body
        self.pc = 0
        # registers start as None, matching the reference script
        # interpreter's regs.get() for a never-written register
        self.regs: List[Any] = [None] * body.nregs


#: cache-miss sentinel ("not lowerable" is cached as None)
_UNSET = object()


class Executor:
    """Interprets a :class:`~repro.runtime.program.Program`.

    Args:
        program: the program to run.
        scheduler: interleaving policy; defaults to round-robin.
        listeners: analyses to attach (barrier order = list order).
        step_limit: abort threshold for runaway executions.
        sync_as_accesses: when true (the default, matching the paper),
            synchronization operations are also presented to listeners
            as reads/writes of the object being synchronized on.
    """

    def __init__(
        self,
        program: Program,
        scheduler: Optional[Scheduler] = None,
        listeners: Iterable[ExecutionListener] = (),
        step_limit: int = DEFAULT_STEP_LIMIT,
        sync_as_accesses: bool = True,
    ) -> None:
        program.validate()
        self.program = program
        self.scheduler = scheduler or RoundRobinScheduler()
        self.pipeline = ListenerPipeline(listeners)
        self.step_limit = step_limit
        self.sync_as_accesses = sync_as_accesses

        self.heap = program.heap
        self.locks = LockTable()
        self.threads: Dict[str, VThread] = {}
        self._next_tid = 1
        self._seq = 0
        self._steps = 0
        self._access_count = 0
        self._sync_access_count = 0
        self._context = program.make_context()
        # Incrementally maintained scheduling state.  ``_runnable`` is
        # the sorted list of runnable thread names the scheduler sees
        # each step; it is updated on state transitions instead of
        # being rebuilt (and re-sorted) every iteration of the run
        # loop.  ``_runnable_set`` mirrors it for O(1) membership,
        # ``_live_count`` counts unfinished threads.
        self._runnable: List[str] = []
        self._runnable_set: set = set()
        self._live_count = 0
        self._per_thread_steps: Dict[str, int] = {}
        self._on_access = self.pipeline.on_access
        # Batch execution state.  ``_lowered`` caches one LoweredBody
        # per (method, args) activation shape; None marks bodies that
        # cannot be lowered (plain generators, unhashable args).
        self._batch = batch_executor_enabled()
        self._lowered: Dict[Tuple[str, Tuple[Any, ...]], Optional[LoweredBody]] = {}
        self._addr_intern: Dict[Tuple[int, str], Tuple[int, str]] = {}
        self._batch_steps = 0
        self._batch_accesses = 0
        self._batch_delegations = 0
        self._batch_frames_lowered = 0
        self._batch_frames_generator = 0
        # Telemetry.  The recorder is captured once; when telemetry is
        # off it is the NOOP null object and ``run`` takes the exact
        # pre-telemetry path (no per-step or per-access additions).
        self._obs = obs_recorder()
        self._context_switches = 0
        self._last_chosen: Optional[str] = None
        #: [total seconds, calls] spent inside listener dispatch when
        #: access timing is enabled (``full`` mode only)
        self._dispatch_time = [0.0, 0]
        # Quantum spans (``full`` mode only): one trace event per
        # scheduling quantum — a contiguous run of steps on one thread.
        # Bounded so schedulers that switch every step cannot balloon
        # the event buffer; overflow is counted, never silent.
        self._quantum_started = 0.0
        self._quantum_events_left = QUANTUM_EVENT_LIMIT

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run(self) -> ExecutionResult:
        """Execute the program to completion and return a summary."""
        obs = self._obs
        if not obs.enabled:
            return self._run_loop()
        with obs.span(
            "executor.run", category="executor", program=self.program.name
        ):
            result = self._run_loop(tracked=True)
            self._flush_quantum()
        obs.inc("executor.runs")
        obs.inc("executor.steps", result.steps)
        obs.inc("executor.accesses", result.access_count)
        obs.inc("executor.sync_accesses", result.sync_access_count)
        obs.inc("executor.threads", len(result.thread_names))
        obs.inc("executor.context_switches", self._context_switches)
        seconds, calls = self._dispatch_time
        if calls:
            obs.inc("executor.listener_dispatch.calls", calls)
            obs.observe("executor.listener_dispatch.seconds", seconds)
        if self._batch:
            obs.inc("executor.batch.steps", self._batch_steps)
            obs.inc("executor.batch.accesses", self._batch_accesses)
            obs.inc("executor.batch.delegations", self._batch_delegations)
            obs.inc("executor.batch.frames_lowered", self._batch_frames_lowered)
            obs.inc("executor.batch.frames_generator", self._batch_frames_generator)
            obs.inc("executor.batch.bodies", len(self._lowered))
        return result

    def _run_loop(self, tracked: bool = False) -> ExecutionResult:
        if self._batch:
            return self._run_loop_batch(tracked)
        self.scheduler.reset()
        # rebind the access fast path in case listeners were attached
        # to the pipeline after construction; with a single listener the
        # pipeline hands back that listener's bound ``on_access``, so
        # ``_emit_access`` dispatches the whole instrumentation stack
        # through one callable
        self._on_access = self.pipeline.on_access
        choose = self.scheduler.choose
        if tracked:
            # scheduler telemetry wraps ``choose`` so the untracked
            # loop below stays byte-identical to the pre-telemetry one
            choose = self._tracking_choose(choose)
            if self._obs.mode == MODE_FULL and self.pipeline.listeners:
                self._on_access = self._timed_dispatch(self._on_access)
        started = time.perf_counter()
        for spec in self.program.threads:
            self._spawn(spec.name, spec.method, spec.args)

        runnable = self._runnable
        threads = self.threads
        step_limit = self.step_limit
        while self._live_count:
            if not runnable:
                blocked = {
                    t.name: t.state.value
                    for t in threads.values()
                    if t.is_live()
                }
                raise DeadlockError(blocked)
            chosen = choose(runnable, self._steps)
            if chosen not in self._runnable_set:
                raise ProgramError(
                    f"scheduler chose non-runnable thread {chosen!r}"
                )
            self._steps += 1
            if self._steps > step_limit:
                raise StepLimitExceeded(step_limit)
            self._step(threads[chosen])

        self.pipeline.on_execution_end()
        elapsed = time.perf_counter() - started
        return ExecutionResult(
            steps=self._steps,
            access_count=self._access_count,
            sync_access_count=self._sync_access_count,
            per_thread_ops=dict(self._per_thread_steps),
            elapsed_seconds=elapsed,
            thread_names=sorted(self.threads),
        )

    # ------------------------------------------------------------------
    # batch execution
    # ------------------------------------------------------------------
    def _batch_emitter(self):
        """The per-access sink for the batch loop.

        Preference order: a listener-provided *batch barrier* (no
        AccessEvent allocation at all), then the ordinary event path
        (allocating an event per access, exactly like the reference
        arm), then a no-op when nobody is listening.  All three are
        observationally identical because events are value types built
        from the same columns.  Built from the untimed dispatch: full
        telemetry wraps the returned emitter instead, so it times the
        barrier production runs.
        """
        listeners = self.pipeline.listeners
        if not listeners:

            def discard(seq, thread_name, obj, fieldname, kind, site,
                        address, site_str, is_array):
                return None

            return discard
        if len(listeners) == 1:
            factory = getattr(listeners[0], "access_barrier_batch", None)
            if factory is not None:
                barrier = factory()
                if barrier is not None:
                    return barrier
        on_access = self._on_access

        def emit(seq, thread_name, obj, fieldname, kind, site,
                 address, site_str, is_array, _event=AccessEvent):
            on_access(
                _event(seq, thread_name, obj, fieldname, kind, False,
                       is_array, site)
            )

        return emit

    def _lowered_body(self, method: str, args: Tuple[Any, ...]) -> Optional[LoweredBody]:
        key = (method, args)
        try:
            cached = self._lowered.get(key, _UNSET)
        except TypeError:
            # unhashable args cannot key the cache; run as a generator
            return None
        if cached is not _UNSET:
            return cached
        script_fn = getattr(self.program.lookup(method).body, "_dc_script_fn", None)
        lowered = None
        if script_fn is not None:
            lowered = lower_script(
                script_fn(self._context, *args), method, self._addr_intern
            )
        self._lowered[key] = lowered
        return lowered

    def _run_loop_batch(self, tracked: bool = False) -> ExecutionResult:
        """Batch-mode run loop: tight columnar interpretation.

        Lowered frames execute without generator sends, op-dataclass
        allocations, handler-dict dispatch, or Site construction; each
        access calls the emitter with pre-interned column values.
        Control ops, generator frames, blocked-op retries, and thread
        starts delegate to the exact reference-arm handlers, so every
        observable transition matches the reference loop byte for byte.
        """
        self.scheduler.reset()
        self._on_access = self.pipeline.on_access
        emit = self._batch_emitter()
        choose = self.scheduler.choose
        if tracked:
            choose = self._tracking_choose(choose)
            if self._obs.mode == MODE_FULL and self.pipeline.listeners:
                self._on_access = self._timed_dispatch(self._on_access)
                emit = self._timed_dispatch(emit)
        started = time.perf_counter()
        for spec in self.program.threads:
            self._spawn(spec.name, spec.method, spec.args)

        runnable = self._runnable
        runnable_set = self._runnable_set
        threads = self.threads
        step_limit = self.step_limit
        per_thread = self._per_thread_steps
        handlers = self._HANDLERS
        pending_classes = (_PendingAcquire, _PendingJoin)
        kind_read = AccessKind.READ
        kind_write = AccessKind.WRITE
        batch_steps = 0
        batch_accesses = 0
        batch_delegations = 0
        while self._live_count:
            if not runnable:
                blocked = {
                    t.name: t.state.value
                    for t in threads.values()
                    if t.is_live()
                }
                raise DeadlockError(blocked)
            chosen = choose(runnable, self._steps)
            if chosen not in runnable_set:
                raise ProgramError(
                    f"scheduler chose non-runnable thread {chosen!r}"
                )
            self._steps += 1
            if self._steps > step_limit:
                raise StepLimitExceeded(step_limit)
            thread = threads[chosen]
            per_thread[chosen] += 1
            if not thread.started:
                thread.started = True
                self.pipeline.on_thread_start(chosen)
                self._emit_sync_access(
                    thread, thread.thread_obj, THREAD_FIELD, kind_read,
                    intern_site("<thread-start>"),
                )
                continue
            if thread.compute_remaining > 0:
                thread.compute_remaining -= 1
                continue
            pending = thread.pending_value
            if pending is not None and pending.__class__ in pending_classes:
                self._retry_pending(thread)
                continue
            frame = thread.frames[-1][1]
            if frame.__class__ is not _LoweredFrame:
                self._advance(thread)
                continue
            # ---- lowered fast path: one column entry per step ----
            batch_steps += 1
            if pending is not None:
                # a value produced for this frame (a callee's return,
                # fork's thread name): scripts never capture those
                thread.pending_value = None
            body = frame.body
            pc = frame.pc
            if pc == body.length:
                # one step past the last op, like a generator's
                # StopIteration step in the reference arm
                self._return_from_frame(thread, None)
                continue
            frame.pc = pc + 1
            code = body.codes[pc]
            if code <= OP_AWRITE:
                batch_accesses += 1
                seq = self._seq + 1
                self._seq = seq
                self._access_count += 1
                obj = body.objs[pc]
                fieldname = body.fields[pc]
                if code == OP_READ:
                    emit(seq, chosen, obj, fieldname, kind_read,
                         body.sites[pc], body.addresses[pc],
                         body.site_strs[pc], False)
                    dst = body.dst_regs[pc]
                    if dst >= 0:
                        frame.regs[dst] = obj.fields.get(fieldname, 0)
                elif code == OP_WRITE:
                    emit(seq, chosen, obj, fieldname, kind_write,
                         body.sites[pc], body.addresses[pc],
                         body.site_strs[pc], False)
                    mode = body.val_modes[pc]
                    if mode == VAL_INC:
                        value = (frame.regs[body.val_regs[pc]] or 0) \
                            + body.val_consts[pc]
                    elif mode == VAL_CONST:
                        value = body.val_consts[pc]
                    else:
                        value = frame.regs[body.val_regs[pc]]
                    obj.fields[fieldname] = value
                elif code == OP_AREAD:
                    emit(seq, chosen, obj, fieldname, kind_read,
                         body.sites[pc], body.addresses[pc],
                         body.site_strs[pc], True)
                    dst = body.dst_regs[pc]
                    if dst >= 0:
                        frame.regs[dst] = obj.elements[body.array_indices[pc]]
                else:  # OP_AWRITE
                    emit(seq, chosen, obj, fieldname, kind_write,
                         body.sites[pc], body.addresses[pc],
                         body.site_strs[pc], True)
                    mode = body.val_modes[pc]
                    if mode == VAL_INC:
                        value = (frame.regs[body.val_regs[pc]] or 0) \
                            + body.val_consts[pc]
                    elif mode == VAL_CONST:
                        value = body.val_consts[pc]
                    else:
                        value = frame.regs[body.val_regs[pc]]
                    obj.elements[body.array_indices[pc]] = value
            elif code == OP_COMPUTE:
                cost = body.val_consts[pc]
                if cost > 1:
                    thread.compute_remaining = cost - 1
            else:
                # control op: sync the op counter so handler-built
                # sites carry this pc, then run the reference handler
                batch_delegations += 1
                thread.op_counters[-1] = pc
                op = body.control_ops[pc]
                handlers[op.__class__](self, thread, op)

        self._batch_steps += batch_steps
        self._batch_accesses += batch_accesses
        self._batch_delegations += batch_delegations
        self.pipeline.on_execution_end()
        elapsed = time.perf_counter() - started
        return ExecutionResult(
            steps=self._steps,
            access_count=self._access_count,
            sync_access_count=self._sync_access_count,
            per_thread_ops=dict(self._per_thread_steps),
            elapsed_seconds=elapsed,
            thread_names=sorted(self.threads),
        )

    # ------------------------------------------------------------------
    # telemetry wrappers (installed only when a registry is active)
    # ------------------------------------------------------------------
    def _tracking_choose(self, choose):
        """Count context switches around the scheduler's choice.

        In ``full`` mode the wrapper also emits one ``executor.quantum``
        trace event per scheduling quantum (capped at
        :data:`QUANTUM_EVENT_LIMIT`).  All of this lives in the wrapper
        — the batch interpreter's hot loop is untouched and stays
        allocation-free; the untracked loop stays byte-identical to the
        pre-telemetry one.
        """
        obs = self._obs
        if obs.mode != MODE_FULL:

            def tracked(runnable: List[str], step: int) -> str:
                chosen = choose(runnable, step)
                if chosen != self._last_chosen:
                    if self._last_chosen is not None:
                        self._context_switches += 1
                    self._last_chosen = chosen
                return chosen

            return tracked

        perf = time.perf_counter
        epoch = obs.epoch

        def tracked_full(runnable: List[str], step: int) -> str:
            chosen = choose(runnable, step)
            last = self._last_chosen
            if chosen != last:
                now = perf()
                if last is not None:
                    self._context_switches += 1
                    if self._quantum_events_left > 0:
                        self._quantum_events_left -= 1
                        obs.emit_event(
                            "executor.quantum", "executor",
                            ts=self._quantum_started - epoch,
                            dur=now - self._quantum_started,
                            args={"thread": last},
                        )
                    else:
                        obs.inc("executor.quantum.truncated")
                self._quantum_started = now
                self._last_chosen = chosen
            return chosen

        return tracked_full

    def _flush_quantum(self) -> None:
        """Emit the final (still-open) quantum of a tracked full-mode
        run — the loop only closes quanta at context switches."""
        obs = self._obs
        if (
            obs.mode == MODE_FULL
            and self._last_chosen is not None
            and self._quantum_events_left > 0
        ):
            self._quantum_events_left -= 1
            obs.emit_event(
                "executor.quantum", "executor",
                ts=self._quantum_started - obs.epoch,
                dur=time.perf_counter() - self._quantum_started,
                args={"thread": self._last_chosen},
            )

    def _timed_dispatch(self, inner: Callable[..., None]) -> Callable[..., None]:
        """Wrap an access sink (the event dispatch or the batch
        emitter) to measure time spent inside the listener barrier
        (full mode)."""
        accumulator = self._dispatch_time
        perf = time.perf_counter

        def timed(*args: Any) -> None:
            start = perf()
            inner(*args)
            accumulator[0] += perf() - start
            accumulator[1] += 1

        return timed

    # ------------------------------------------------------------------
    # runnable-set bookkeeping
    # ------------------------------------------------------------------
    def _block(self, thread: VThread, state: ThreadState) -> None:
        """Transition a runnable thread into a blocked/waiting state."""
        thread.state = state
        self._runnable_set.remove(thread.name)
        self._runnable.remove(thread.name)
        if state is not ThreadState.FINISHED:
            self.pipeline.on_thread_blocked(thread.name)

    def _unblock(self, thread: VThread) -> None:
        """Transition a blocked/waiting thread back to runnable."""
        thread.state = ThreadState.RUNNABLE
        self._runnable_set.add(thread.name)
        insort(self._runnable, thread.name)
        self.pipeline.on_thread_unblocked(thread.name)

    # ------------------------------------------------------------------
    # thread lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, name: str, method: str, args: Tuple[Any, ...]) -> VThread:
        if name in self.threads:
            raise ProgramError(f"duplicate thread name: {name!r}")
        thread_obj = self.heap.alloc(f"<thread:{name}>")
        thread = VThread(name, self._next_tid, thread_obj)
        self._next_tid += 1
        self.threads[name] = thread
        self._live_count += 1
        self._runnable_set.add(name)
        insort(self._runnable, name)
        self._per_thread_steps[name] = 0
        self._push_call(thread, method, args)
        return thread

    def _push_call(self, thread: VThread, method: str, args: Tuple[Any, ...]) -> None:
        if self._batch:
            lowered = self._lowered_body(method, args)
            if lowered is not None:
                self.pipeline.on_method_enter(
                    thread.name, method, thread.call_depth() + 1
                )
                thread.push_frame(method, _LoweredFrame(lowered))
                self._batch_frames_lowered += 1
                return
            self._batch_frames_generator += 1
        definition = self.program.lookup(method)
        result = definition.body(self._context, *args)
        if hasattr(result, "send"):
            gen: Generator[Any, Any, Any] = result
        else:
            # a plain function body: model it as a generator that
            # immediately returns its value
            def _wrap(value: Any) -> Generator[Any, Any, Any]:
                return value
                yield  # pragma: no cover - makes _wrap a generator fn

            gen = _wrap(result)
        self.pipeline.on_method_enter(thread.name, method, thread.call_depth() + 1)
        thread.push_frame(method, gen)

    def _finish_thread(self, thread: VThread) -> None:
        # the finishing thread is the one being stepped, so it is
        # currently in the runnable set
        self._block(thread, ThreadState.FINISHED)
        self._live_count -= 1
        # thread termination happens-before join() return: model it as a
        # release-like write of the thread object
        self._emit_sync_access(
            thread, thread.thread_obj, THREAD_FIELD, AccessKind.WRITE,
            intern_site("<thread-end>"),
        )
        self.pipeline.on_thread_end(thread.name)
        # wake joiners
        for other in self.threads.values():
            if other.state is ThreadState.BLOCKED_JOIN and other.joining == thread.name:
                self._unblock(other)

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------
    def _step(self, thread: VThread) -> None:
        self._per_thread_steps[thread.name] += 1
        if not thread.started:
            thread.started = True
            self.pipeline.on_thread_start(thread.name)
            # Thread.start() happens-before the first action of the
            # thread: model the child side as an acquire-like read
            self._emit_sync_access(
                thread, thread.thread_obj, THREAD_FIELD, AccessKind.READ,
                intern_site("<thread-start>"),
            )
            return
        if thread.compute_remaining > 0:
            thread.compute_remaining -= 1
            return
        if thread.pending_value.__class__ in (_PendingAcquire, _PendingJoin):
            self._retry_pending(thread)
            return
        self._advance(thread)

    def _advance(self, thread: VThread) -> None:
        _method, gen = thread.frames[-1]
        value, thread.pending_value = thread.pending_value, None
        try:
            op = gen.send(value)
        except StopIteration as stop:
            self._return_from_frame(thread, stop.value)
            return
        self._dispatch(thread, op)

    def _return_from_frame(self, thread: VThread, value: Any) -> None:
        method = thread.pop_frame()
        self.pipeline.on_method_exit(thread.name, method, thread.call_depth() + 1)
        if thread.frames:
            thread.pending_value = value
        else:
            self._finish_thread(thread)

    # ------------------------------------------------------------------
    # operation dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, thread: VThread, op: Any) -> None:
        handler = self._HANDLERS.get(op.__class__)
        if handler is None:
            raise ProgramError(
                f"thread {thread.name!r} yielded a non-operation: {op!r}"
            )
        handler(self, thread, op)

    def _site(self, thread: VThread) -> Site:
        return intern_site(thread.current_method(), thread.next_op_index())

    def _emit_access(
        self,
        thread: VThread,
        obj: Any,
        fieldname: str,
        kind: AccessKind,
        site: Site,
        is_sync: bool = False,
        is_array: bool = False,
    ) -> None:
        seq = self._seq + 1
        self._seq = seq
        self._access_count += 1
        if is_sync:
            self._sync_access_count += 1
        self._on_access(
            AccessEvent(
                seq, thread.name, obj, fieldname, kind, is_sync, is_array, site
            )
        )

    def _emit_sync_access(
        self, thread: VThread, obj: Any, fieldname: str, kind: AccessKind, site: Site
    ) -> None:
        if self.sync_as_accesses:
            self._emit_access(thread, obj, fieldname, kind, site, is_sync=True)

    # --- memory ---------------------------------------------------------
    def _do_read(self, thread: VThread, op: ops.Read) -> None:
        site = self._site(thread)
        self._emit_access(thread, op.obj, op.fieldname, AccessKind.READ, site)
        thread.pending_value = self.heap.read_field(op.obj, op.fieldname)

    def _do_write(self, thread: VThread, op: ops.Write) -> None:
        site = self._site(thread)
        self._emit_access(thread, op.obj, op.fieldname, AccessKind.WRITE, site)
        self.heap.write_field(op.obj, op.fieldname, op.value)

    def _do_array_read(self, thread: VThread, op: ops.ArrayRead) -> None:
        site = self._site(thread)
        self._emit_access(
            thread, op.array, f"[{op.index}]", AccessKind.READ, site, is_array=True
        )
        thread.pending_value = self.heap.read_element(op.array, op.index)

    def _do_array_write(self, thread: VThread, op: ops.ArrayWrite) -> None:
        site = self._site(thread)
        self._emit_access(
            thread, op.array, f"[{op.index}]", AccessKind.WRITE, site, is_array=True
        )
        self.heap.write_element(op.array, op.index, op.value)

    def _do_new(self, thread: VThread, op: ops.New) -> None:
        thread.next_op_index()
        thread.pending_value = self.heap.alloc(op.label)

    def _do_new_array(self, thread: VThread, op: ops.NewArray) -> None:
        thread.next_op_index()
        thread.pending_value = self.heap.alloc_array(op.label, op.length, op.fill)

    # --- synchronization --------------------------------------------------
    def _do_acquire(self, thread: VThread, op: ops.Acquire) -> None:
        site = self._site(thread)
        if self.locks.try_acquire(thread.name, op.obj):
            self._emit_sync_access(thread, op.obj, LOCK_FIELD, AccessKind.READ, site)
        else:
            self._block(thread, ThreadState.BLOCKED_LOCK)
            thread.blocked_on = op.obj
            thread.pending_value = _PendingAcquire(op.obj, 1, after_wait=False)

    def _do_release(self, thread: VThread, op: ops.Release) -> None:
        site = self._site(thread)
        self._emit_sync_access(thread, op.obj, LOCK_FIELD, AccessKind.WRITE, site)
        freed = self.locks.release(thread.name, op.obj)
        if freed:
            self._wake_lock_blocked(op.obj)

    def _do_wait(self, thread: VThread, op: ops.Wait) -> None:
        site = self._site(thread)
        self.locks.require_owner(thread.name, op.obj, "wait")
        self._emit_sync_access(thread, op.obj, LOCK_FIELD, AccessKind.WRITE, site)
        depth = self.locks.release_fully(thread.name, op.obj)
        self.locks.add_waiter(thread.name, op.obj)
        self._block(thread, ThreadState.WAITING)
        thread.blocked_on = op.obj
        thread.pending_value = _PendingAcquire(op.obj, depth, after_wait=True)
        self._wake_lock_blocked(op.obj)

    def _do_notify(self, thread: VThread, op: ops.Notify) -> None:
        site = self._site(thread)
        self.locks.require_owner(thread.name, op.obj, "notify")
        self._emit_sync_access(thread, op.obj, LOCK_FIELD, AccessKind.WRITE, site)
        for name in self.locks.notify(op.obj, op.wake_all):
            waiter = self.threads[name]
            # notified threads compete for the monitor once it is free;
            # WAITING -> BLOCKED_LOCK never touches the runnable set
            waiter.state = ThreadState.BLOCKED_LOCK

    def _wake_lock_blocked(self, obj: SharedObject) -> None:
        for other in self.threads.values():
            if (
                other.state is ThreadState.BLOCKED_LOCK
                and other.blocked_on is obj
            ):
                self._unblock(other)

    # --- structure & threads ----------------------------------------------
    def _do_invoke(self, thread: VThread, op: ops.Invoke) -> None:
        thread.next_op_index()
        self._push_call(thread, op.method, op.args)

    def _do_fork(self, thread: VThread, op: ops.Fork) -> None:
        site = self._site(thread)
        child = self._spawn(op.thread_name, op.method, op.args)
        # Thread.start(): release-like write on the child's thread object
        self._emit_sync_access(
            thread, child.thread_obj, THREAD_FIELD, AccessKind.WRITE, site
        )
        thread.pending_value = op.thread_name

    def _do_join(self, thread: VThread, op: ops.Join) -> None:
        target = self.threads.get(op.thread_name)
        if target is None:
            raise ProgramError(
                f"thread {thread.name!r} joined unknown thread {op.thread_name!r}"
            )
        site = self._site(thread)
        if target.state is ThreadState.FINISHED:
            self._emit_sync_access(
                thread, target.thread_obj, THREAD_FIELD, AccessKind.READ, site
            )
        else:
            self._block(thread, ThreadState.BLOCKED_JOIN)
            thread.joining = op.thread_name
            thread.pending_value = _PendingJoin(op.thread_name)

    def _do_compute(self, thread: VThread, op: ops.Compute) -> None:
        thread.next_op_index()
        thread.compute_remaining = max(0, op.cost - 1)

    # --- pending retries -----------------------------------------------
    def _retry_pending(self, thread: VThread) -> None:
        pending = thread.pending_value
        if isinstance(pending, _PendingAcquire):
            if self.locks.try_acquire(thread.name, pending.obj, pending.depth):
                thread.pending_value = None
                thread.blocked_on = None
                site = intern_site(thread.current_method(), -1)
                self._emit_sync_access(
                    thread, pending.obj, LOCK_FIELD, AccessKind.READ, site
                )
            else:
                self._block(thread, ThreadState.BLOCKED_LOCK)
            return
        if isinstance(pending, _PendingJoin):
            target = self.threads[pending.target]
            if target.state is ThreadState.FINISHED:
                thread.pending_value = None
                thread.joining = None
                site = intern_site(thread.current_method(), -1)
                self._emit_sync_access(
                    thread, target.thread_obj, THREAD_FIELD, AccessKind.READ, site
                )
            else:
                self._block(thread, ThreadState.BLOCKED_JOIN)
            return
        raise ProgramError(f"unknown pending operation: {pending!r}")

    _HANDLERS = {
        ops.Read: _do_read,
        ops.Write: _do_write,
        ops.ArrayRead: _do_array_read,
        ops.ArrayWrite: _do_array_write,
        ops.New: _do_new,
        ops.NewArray: _do_new_array,
        ops.Acquire: _do_acquire,
        ops.Release: _do_release,
        ops.Wait: _do_wait,
        ops.Notify: _do_notify,
        ops.Invoke: _do_invoke,
        ops.Fork: _do_fork,
        ops.Join: _do_join,
        ops.Compute: _do_compute,
    }


def run_program(
    program: Program,
    scheduler: Optional[Scheduler] = None,
    listeners: Iterable[ExecutionListener] = (),
    step_limit: int = DEFAULT_STEP_LIMIT,
) -> ExecutionResult:
    """Convenience wrapper: build an :class:`Executor` and run it."""
    return Executor(program, scheduler, listeners, step_limit).run()
