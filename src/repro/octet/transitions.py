"""Classification of Octet state transitions (the paper's Table 1).

Given an object's current state and an access (thread + read/write),
:func:`classify` decides which transition fires and what the new state
is.  The categories carry the information ICD needs:

* **same-state** — the fast path; no state change, no dependence.
* **initial** — first access to an untouched object; installs an
  exclusive state without coordination.
* **upgrading** — RdExT → WrExT (write by T; no cross-thread
  dependence, ICD ignores it) and RdExT1 → RdShc (read by T2; possible
  dependence, ICD adds edges).
* **fence** — read of a RdShc object by a thread whose ``rdShCnt`` is
  stale; possible dependence.
* **conflicting** — requires the coordination protocol; possible
  dependence.  Four shapes: WrEx→WrEx, WrEx→RdEx, RdEx→WrEx (across
  threads) and RdSh→WrEx (responders are *all* other threads).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.runtime.events import AccessKind
from repro.octet.states import OctetState, StateKind, rd_ex, rd_sh, wr_ex


class TransitionKind(enum.Enum):
    """Transition categories from Table 1 (plus INITIAL for allocation)."""

    SAME_STATE = "same-state"
    INITIAL = "initial"
    UPGRADING_WR_EX = "upgrading-wrex"
    UPGRADING_RD_SH = "upgrading-rdsh"
    FENCE = "fence"
    CONFLICTING_WR_WR = "conflicting-wrex-wrex"
    CONFLICTING_WR_RD = "conflicting-wrex-rdex"
    CONFLICTING_RD_WR = "conflicting-rdex-wrex"
    CONFLICTING_SH_WR = "conflicting-rdsh-wrex"

    def is_conflicting(self) -> bool:
        return self in (
            TransitionKind.CONFLICTING_WR_WR,
            TransitionKind.CONFLICTING_WR_RD,
            TransitionKind.CONFLICTING_RD_WR,
            TransitionKind.CONFLICTING_SH_WR,
        )

    def is_fast_path(self) -> bool:
        return self is TransitionKind.SAME_STATE

    def may_carry_dependence(self) -> bool:
        """The Table 1 'Cross-thread dependence?' column."""
        return self.is_conflicting() or self in (
            TransitionKind.UPGRADING_RD_SH,
            TransitionKind.FENCE,
        )


@dataclass(frozen=True)
class Classified:
    """Result of classifying one access against the current state.

    ``new_state`` is ``None`` exactly for same-state transitions (and
    for fence transitions, which leave the object's state unchanged and
    instead update the *thread's* counter — signalled by
    ``thread_counter_update``).
    """

    kind: TransitionKind
    new_state: Optional[OctetState]
    thread_counter_update: Optional[int] = None

    @property
    def changes_object_state(self) -> bool:
        return self.new_state is not None


def is_same_state(
    state: Optional[OctetState],
    access: AccessKind,
    thread: str,
    thread_rdsh_counter: int,
) -> bool:
    """The barrier fast-path predicate: is this access a same-state one?

    True exactly when :func:`classify` would return
    ``TransitionKind.SAME_STATE``: the thread owns a WrEx object (read
    or write), the thread owns a RdEx object and reads, or the object
    is RdSh, the access is a read, and the thread's ``rdShCnt`` is
    current.  ``OctetRuntime.observe`` and ICD's columnar barrier
    (``ICD.access_barrier_batch``) inline this check (duplicated for
    speed); the property tests pin all three against :func:`classify`.
    """
    if state is None:
        return False
    kind = state.kind
    if state.owner == thread and (
        kind is StateKind.WR_EX
        or (kind is StateKind.RD_EX and access is AccessKind.READ)
    ):
        return True
    return (
        kind is StateKind.RD_SH
        and access is AccessKind.READ
        and state.counter is not None
        and thread_rdsh_counter >= state.counter
    )


def classify(
    state: Optional[OctetState],
    access: AccessKind,
    thread: str,
    thread_rdsh_counter: int,
    next_g_rdsh_counter: int,
) -> Classified:
    """Classify an access per Table 1.

    Args:
        state: the object's current state (``None`` = untouched).
        access: read or write.
        thread: the accessing thread's name.
        thread_rdsh_counter: the accessing thread's ``rdShCnt``.
        next_g_rdsh_counter: the value ``gRdShCnt`` *would take* if this
            access triggers an upgrade to RdSh (the runtime passes
            ``gRdShCnt + 1`` and commits the increment only if the
            classification says the upgrade happens).
    """
    is_write = access is AccessKind.WRITE

    if state is None:
        installed = wr_ex(thread) if is_write else rd_ex(thread)
        return Classified(TransitionKind.INITIAL, installed)

    if state.is_intermediate():
        raise ValueError(
            f"access classified against intermediate state {state}; "
            "the coordination protocol must complete first"
        )

    if state.kind is StateKind.WR_EX:
        if state.owner == thread:
            return Classified(TransitionKind.SAME_STATE, None)
        if is_write:
            return Classified(TransitionKind.CONFLICTING_WR_WR, wr_ex(thread))
        return Classified(TransitionKind.CONFLICTING_WR_RD, rd_ex(thread))

    if state.kind is StateKind.RD_EX:
        if state.owner == thread:
            if is_write:
                return Classified(TransitionKind.UPGRADING_WR_EX, wr_ex(thread))
            return Classified(TransitionKind.SAME_STATE, None)
        if is_write:
            return Classified(TransitionKind.CONFLICTING_RD_WR, wr_ex(thread))
        return Classified(
            TransitionKind.UPGRADING_RD_SH, rd_sh(next_g_rdsh_counter)
        )

    # RdSh
    if is_write:
        return Classified(TransitionKind.CONFLICTING_SH_WR, wr_ex(thread))
    assert state.counter is not None
    if thread_rdsh_counter >= state.counter:
        return Classified(TransitionKind.SAME_STATE, None)
    return Classified(
        TransitionKind.FENCE, None, thread_counter_update=state.counter
    )
