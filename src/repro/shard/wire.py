"""Wire format for the sharded analysis pipeline.

Both inter-process streams — coordinator → analysis shard and analysis
shard → log shards — are sequences of **int64 records** batched into
``array('q')`` chunks and shipped as flat bytes, reusing the columnar
idiom of the batch executor: the hot path appends small integers to a
pre-grown array and periodically flushes ``tobytes()``; nothing is
pickled per event.  Strings (thread names, field names, method names,
site strings) travel out-of-band as *definition* tuples attached to
the chunk message that first needs them; a definition always precedes
the first record that references its id because the sender registers
ids eagerly and flushes definitions with (or before) the chunk that
uses them.

Record layouts (first int is the tag; non-negative tags are interned
access descriptors, so the common case costs three ints)::

  coordinator -> analyzer
    desc >= 0 : [desc, seq, tid]           batch-path access
    T_EVENT   : [tag, edesc, seq, tid]     event-path access
    T_ENTER   : [tag, tid, mid, depth]     method enter
    T_EXIT    : [tag, tid, mid, depth]     method exit
    T_TSTART  : [tag, tid]                 thread start
    T_TEND    : [tag, tid]                 thread end
    T_BLOCK   : [tag, tid, 0|1]            blocked-state flip
    T_END     : [tag]                      execution end

  analyzer -> log shard
    d >= 0    : [d, seq, tid]              log-record candidate
    W_TXSTART : [tag, tid, txid]           transaction start
    W_TXEND   : [tag]                      transaction end (sampling)
    W_EDGE    : [tag, stid, dtid, order, stxid, dtxid]
    W_SWEEP   : [tag, n, txid * n]         GC sweep (peak sample point)
    W_JOB     : [tag, ordinal]             PCD job cutoff sentinel

Access *descriptors* intern the immutable part of an access — object,
field, kind, site — per ``(site, address)`` pair (kind is static per
site, the address varies with the receiver), so the per-access record
is just ``[desc, seq, tid]``.

The address partition is a stable hash of the ``(oid, field)`` pair:
:func:`shard_of` uses ``zlib.crc32`` (process-independent, unlike
Python's randomized ``hash``) so every process agrees on ownership.
"""

from __future__ import annotations

from array import array
from typing import Tuple
from zlib import crc32

# ---------------------------------------------------------------------
# coordinator -> analyzer record tags
# ---------------------------------------------------------------------
T_EVENT = -1
T_ENTER = -2
T_EXIT = -3
T_TSTART = -4
T_TEND = -5
T_BLOCK = -6
T_END = -7

# ---------------------------------------------------------------------
# analyzer -> log shard record tags
# ---------------------------------------------------------------------
W_TXSTART = -1
W_TXEND = -2
W_EDGE = -3
W_SWEEP = -4
#: in-stream component-capture sentinel: its position in the record
#: stream *is* the job's log cutoff (the member spec rides the same
#: chunk's defs tuple), so announcing a job costs no extra flush
W_JOB = -5

#: flush threshold for the coordinator's record buffer, in int64s
#: (~192 KiB per message: large enough to amortize queue overhead,
#: small enough to keep the analyzer streaming)
CHUNK_INTS = 24_576

#: flush threshold for the analyzer's per-shard buffers
WORKER_CHUNK_INTS = 16_384


def shard_of(oid: int, fieldname: str, nshards: int) -> int:
    """Stable owner of address ``(oid, fieldname)`` among ``nshards``
    log shards.  crc32 is deterministic across processes and runs
    (Python's ``hash`` is salted per process, which would scatter the
    same address to different shards on replay)."""
    return crc32(b"%d.%s" % (oid, fieldname.encode())) % nshards


def encode_chunk(buf: array) -> bytes:
    """Flatten a record buffer for the queue; the buffer is reusable
    after ``del buf[:]``."""
    return buf.tobytes()


def decode_chunk(payload: bytes) -> array:
    out = array("q")
    out.frombytes(payload)
    return out


def pack_columns(pairs: array) -> bytes:
    """Serialize a per-transaction (desc, seq) column pair array."""
    return pairs.tobytes()


def unpack_columns(payload: bytes) -> array:
    out = array("q")
    out.frombytes(payload)
    return out


Address = Tuple[int, str]

__all__ = [
    "T_EVENT", "T_ENTER", "T_EXIT", "T_TSTART", "T_TEND", "T_BLOCK",
    "T_END", "W_TXSTART", "W_TXEND", "W_EDGE", "W_SWEEP", "W_JOB",
    "CHUNK_INTS", "WORKER_CHUNK_INTS", "shard_of",
    "encode_chunk", "decode_chunk", "pack_columns", "unpack_columns",
    "Address",
]
