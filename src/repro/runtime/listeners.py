"""Listener interface connecting analyses to the executor.

Listeners play the role the paper's compiler-inserted instrumentation
plays in Jikes RVM: :meth:`ExecutionListener.on_access` is the barrier
invoked before each program access (and each synchronization
pseudo-access), and the method/thread lifecycle hooks drive transaction
demarcation.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional

from repro.runtime.events import AccessEvent


class ExecutionListener:
    """Callbacks dispatched by the executor; override what you need."""

    def on_thread_start(self, thread_name: str) -> None:
        """A thread began executing (before its first operation)."""

    def on_thread_end(self, thread_name: str) -> None:
        """A thread finished (after its last operation)."""

    def on_method_enter(self, thread_name: str, method: str, depth: int) -> None:
        """A method was entered on ``thread_name`` at call ``depth``."""

    def on_method_exit(self, thread_name: str, method: str, depth: int) -> None:
        """A method returned on ``thread_name``."""

    def on_access(self, event: AccessEvent) -> None:
        """Barrier: invoked immediately before the access takes effect."""

    def access_barrier_batch(self) -> Optional[Callable[..., None]]:
        """A columnar barrier for the batch executor, or ``None``.

        When the batch executor runs a lowered frame it already holds
        every piece of an access as pre-interned column values — so a
        listener may return a callable of signature ``(seq,
        thread_name, obj, fieldname, kind, site, address, site_str,
        is_array)`` that consumes those directly, skipping the
        per-access :class:`AccessEvent` allocation entirely.  This is
        the one place a checker fuses its fast path (ICD: the Octet
        same-state check plus logging).  Returning ``None`` (the
        default) makes the executor wrap the columns into events and
        dispatch :meth:`on_access` as usual, so the batch barrier is
        purely an optimization seam: outputs must be byte-identical
        either way.
        """
        return None

    def on_thread_blocked(self, thread_name: str) -> None:
        """``thread_name`` left the runnable set (lock/wait/join).

        Not fired for thread completion — :meth:`on_thread_end` already
        covers that transition.
        """

    def on_thread_unblocked(self, thread_name: str) -> None:
        """``thread_name`` re-entered the runnable set."""

    def on_execution_end(self) -> None:
        """The whole program finished; flush any pending analysis work."""


def _discard_access(event: AccessEvent) -> None:
    """No-listener fast path: the access barrier is a no-op."""


class ListenerPipeline(ExecutionListener):
    """Dispatch events to an ordered list of listeners.

    Order matters exactly as barrier order matters in the paper: ICD's
    logging instrumentation runs *after* Octet's barrier, which the
    pipeline realizes by registering Octet before ICD's logger.

    ``on_access`` is the hot path — it fires once per dynamic access —
    so the pipeline pre-binds it per instance: with zero listeners it
    is a no-op, with exactly one listener it is that listener's bound
    :meth:`~ExecutionListener.on_access` (no loop, no indirection), and
    only with two or more does the class-level fan-out run.  :meth:`add`
    rebinds, so the fast path stays correct if listeners are attached
    after construction.
    """

    def __init__(self, listeners: Iterable[ExecutionListener] = ()) -> None:
        self.listeners: List[ExecutionListener] = list(listeners)
        self._rebind_access()

    def add(self, listener: ExecutionListener) -> None:
        self.listeners.append(listener)
        self._rebind_access()

    def _rebind_access(self) -> None:
        # shadow the class-level method with the cheapest correct callable
        if not self.listeners:
            self.on_access = _discard_access  # type: ignore[method-assign]
        elif len(self.listeners) == 1:
            self.on_access = self.listeners[0].on_access  # type: ignore[method-assign]
        else:
            # fall back to the class-level fan-out below
            self.__dict__.pop("on_access", None)

    def on_thread_start(self, thread_name: str) -> None:
        for listener in self.listeners:
            listener.on_thread_start(thread_name)

    def on_thread_end(self, thread_name: str) -> None:
        for listener in self.listeners:
            listener.on_thread_end(thread_name)

    def on_method_enter(self, thread_name: str, method: str, depth: int) -> None:
        for listener in self.listeners:
            listener.on_method_enter(thread_name, method, depth)

    def on_method_exit(self, thread_name: str, method: str, depth: int) -> None:
        for listener in self.listeners:
            listener.on_method_exit(thread_name, method, depth)

    def on_access(self, event: AccessEvent) -> None:
        # shadowed per instance by _rebind_access below two listeners
        for listener in self.listeners:
            listener.on_access(event)

    def on_thread_blocked(self, thread_name: str) -> None:
        for listener in self.listeners:
            listener.on_thread_blocked(thread_name)

    def on_thread_unblocked(self, thread_name: str) -> None:
        for listener in self.listeners:
            listener.on_thread_unblocked(thread_name)

    def on_execution_end(self) -> None:
        for listener in self.listeners:
            listener.on_execution_end()


__all__ = ["ExecutionListener", "ListenerPipeline"]
