"""Sharded single-execution analysis.

``DOUBLECHECKER_SHARDS=N`` (or ``DoubleChecker(... ) .run_single``
under ``--shards N``) splits the single-run ICD+PCD pipeline across
``N`` worker processes plus the executing (coordinator) process:

* **Coordinator** — the unmodified executor runs the program and, in
  place of the in-process ICD, a :class:`~repro.shard.recorder.
  ShardStreamRecorder` listener serializes the instruction stream —
  accesses as pre-interned 3-int column records, method/thread
  lifecycle and blocked-state flips as tagged records — into flat
  ``array('q')`` chunks shipped over a queue (no per-event pickling).
* **Analysis shard (shard 0)** — one worker replays the stream through
  the *real* ICD (Octet state machine, transaction demarcation, IDG,
  SCC detection, GC), with the read/write-logging tail replaced by
  emission of shard-routed log records, and orchestrates PCD: each
  cyclic SCC is captured (members, edge marks, cross-edge anchors) and
  fanned out as a numbered job.
* **Log shards (shards 1..N-1)** — each owns a slice of the ``(oid,
  field)`` address space (:func:`~repro.shard.wire.shard_of`) and
  builds its slice of every read/write log — replaying the elision
  filter exactly — then replays assigned PCD jobs with the real
  :class:`~repro.core.pcd.PCD` on reconstructed logs.

Results merge deterministically: PCD job results are folded in
component-capture (ordinal) order with the serial run's global
cycle-deduplication applied at the merge, and every counter that the
sharded split distributes (log entries, elision, GC footprint
integrals and peaks) is reconciled from per-shard partials into
exactly the serial totals.  ``DOUBLECHECKER_SHARDS=1`` (the default)
runs the existing single-process path with zero new overhead — the
same escape-hatch pattern as ``DOUBLECHECKER_BATCH_EXECUTOR``.
"""

from __future__ import annotations

import os
from typing import Optional

#: environment escape hatch mirroring DOUBLECHECKER_BATCH_EXECUTOR
SHARDS_ENV = "DOUBLECHECKER_SHARDS"

#: hard cap — more shards than this is certainly a typo, and each
#: shard is a full OS process
MAX_SHARDS = 64


def resolve_shards(shards: Optional[int] = None) -> int:
    """Validate and resolve the shard count (explicit arg wins, then
    ``$DOUBLECHECKER_SHARDS``, then 1 = the serial path).

    Raises :class:`ValueError` with a readable message on anything that
    is not an integer in ``[1, MAX_SHARDS]`` — the CLI preflights with
    this so bad values exit 2 before any work starts, exactly like
    ``--jobs``.
    """
    if shards is None:
        raw = os.environ.get(SHARDS_ENV)
        if raw is None or raw.strip() == "":
            return 1
        try:
            shards = int(raw)
        except ValueError:
            raise ValueError(
                f"{SHARDS_ENV} must be an integer, got {raw!r}"
            ) from None
    if shards < 1:
        raise ValueError(f"--shards must be >= 1, got {shards}")
    if shards > MAX_SHARDS:
        raise ValueError(
            f"--shards must be <= {MAX_SHARDS}, got {shards} "
            f"(each shard is a worker process)"
        )
    return shards


__all__ = ["SHARDS_ENV", "MAX_SHARDS", "resolve_shards"]
