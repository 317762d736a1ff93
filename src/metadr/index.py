"""Per-node identifier index: the artifact exchanged during DR.

Entries are kept in per-nid sequences sorted by lcv and inserted in
runs. An entry above its nid's highest lcv, as every local ingest and
most replication pushes are, is an append (amortized O(1)); any other is
placed by binary search. Incremental range queries and
the sorted set-difference delta computation both ride on that order: a
sync window (the entries above a checkpoint) is a suffix of each run,
found by bisection and diffed in place.

Wire format (bit-exact): a 16-byte header (magic ``MDRI``, u32 version,
u64 entry count, all big-endian) followed by 32-byte encoded ids. Stream
length is exactly 16 + 32 * entries, which feeds transfer-cost
accounting directly.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import NamedTuple

from .identity import ENCODED_ID_BYTES, NODE_ID_BYTES, CompositeId, NodeId, decode_id

WIRE_MAGIC = b"MDRI"
WIRE_VERSION = 1
WIRE_HEADER_BYTES = 16
_HEADER = struct.Struct(">4sIQ")
# a token is nid(16) || lcv(8, BE) || nst(8, BE)
_LCV_AT = NODE_ID_BYTES
_NST_AT = NODE_ID_BYTES + 8
_TOKEN_TAIL = bytes(ENCODED_ID_BYTES - NODE_ID_BYTES)


class ConflictingEntry(ValueError):
    """Same id inserted with different metadata: corruption or an
    immutability violation upstream. `added` holds the run positions of
    the entries the insert added before it met the conflicting one."""

    def __init__(self, message: str, added: Sequence[int] = ()) -> None:
        super().__init__(message)
        self.added = added


class BadMagic(ValueError):
    pass


class BadVersion(ValueError):
    pass


class TruncatedStream(ValueError):
    pass


class _EntryFields(NamedTuple):
    id: CompositeId
    byte_len: int
    crc: int
    user_key: str | None = None


class IndexEntry(_EntryFields):
    """A block's record: its id, modeled byte_len, the CRC-32C of its
    content and its user key. 32 logical bytes on the wire.

    It is the only metadata a node keeps per block: the store holds the
    content bytes under the id, and nothing else. The id is the block's
    key in every node's store, so an entry means the same thing on every
    replica and travels unchanged. A tuple, so building one runs no
    Python code beyond the byte_len check.
    """

    __slots__ = ()

    def __new__(
        cls, id: CompositeId, byte_len: int, crc: int, user_key: str | None = None
    ) -> "IndexEntry":
        if byte_len <= 0:
            raise ValueError(f"byte_len must be positive, got {byte_len}")
        return tuple.__new__(cls, (id, byte_len, crc, user_key))

    @classmethod
    def _make(cls, iterable) -> "IndexEntry":
        # the NamedTuple's own _make, and so _replace, skip __new__'s check
        return cls(*iterable)


class _NidRun:
    """One nid's entries with a parallel lcv array for binary search."""

    __slots__ = ("lcvs", "entries")

    def __init__(self) -> None:
        self.lcvs: list[int] = []
        self.entries: list[IndexEntry] = []


_EMPTY_RUN = _NidRun()


class IdentifierIndex:
    """Sorted per-nid identifier index with instrumented size accounting."""

    def __init__(self) -> None:
        self._runs: dict[NodeId, _NidRun] = {}
        self.entry_count = 0

    def nids(self) -> list[NodeId]:
        return sorted(self._runs)

    def max_lcv(self, nid: NodeId) -> int:
        run = self._runs.get(nid)
        return run.lcvs[-1] if run is not None and run.lcvs else 0

    def insert(self, entries: Sequence[IndexEntry]) -> list[int]:
        """Insert a run of entries in order, keeping per-nid lcv order;
        returns the run positions of the entries added, in order.

        An entry above its nid's highest lcv is appended, as every entry
        of a local ingest or a replication push is; any other is placed
        by binary search. An entry equal to one already held is skipped;
        the same id with any other metadata (crc, byte_len or user key)
        raises ConflictingEntry, signaling corruption or an immutability
        violation, after the entries before it are inserted (the error's
        `added`) and before any after it.
        """
        added: list[int] = []
        runs = self._runs
        nid = lcvs = held = None
        top = -1  # the current nid's highest lcv; -1 while it has none
        for position, entry in enumerate(entries):
            cid = entry[0]
            if cid[0] != nid:  # runs mostly keep to one nid
                nid = cid[0]
                run = runs.get(nid)
                if run is None:
                    run = runs[nid] = _NidRun()
                lcvs, held = run.lcvs, run.entries
                top = lcvs[-1] if lcvs else -1
            lcv = cid[1]
            if lcv > top:
                lcvs.append(lcv)
                held.append(entry)
                top = lcv
            else:
                pos = bisect_right(lcvs, lcv)
                if pos and lcvs[pos - 1] == lcv:
                    if held[pos - 1] != entry:
                        self.entry_count += len(added)
                        raise ConflictingEntry(
                            f"id {cid} already present with different metadata", added
                        )
                    continue  # idempotent duplicate
                lcvs.insert(pos, lcv)
                held.insert(pos, entry)
            added.append(position)
        self.entry_count += len(added)
        return added

    def get(self, cid: CompositeId) -> IndexEntry | None:
        run = self._runs.get(cid.nid)
        if run is None:
            return None
        pos = bisect_right(run.lcvs, cid.lcv) - 1
        if pos >= 0 and run.lcvs[pos] == cid.lcv:
            return run.entries[pos]
        return None

    def __contains__(self, cid: CompositeId) -> bool:
        return self.get(cid) is not None

    def entries_above(self, nid: NodeId, watermark_lcv: int) -> list[IndexEntry]:
        """Entries with the given nid and lcv > watermark, in lcv order.

        Binary search locates the start; the scan is proportional to the
        result size. Unknown nids yield an empty list.
        """
        run = self._runs.get(nid)
        if run is None:
            return []
        start = bisect_right(run.lcvs, watermark_lcv)
        return run.entries[start:]

    def cycle_from(self, nid: NodeId, lcv: int) -> Iterator[IndexEntry]:
        """Every entry once, in (nid, lcv) order from the first key above
        (nid, lcv), wrapping around to end at it.

        The position is a key, not an offset, so it stays put when
        entries are inserted on either side of it. The walk reads the
        runs in place and copies only the sorted nid list; the index
        must not change while it is read.
        """
        order = sorted(self._runs)
        run = self._runs.get(nid, _EMPTY_RUN)
        cut = bisect_right(run.lcvs, lcv)
        segments = [islice(run.entries, cut, None)]
        for other in order[bisect_right(order, nid) :] + order[: bisect_left(order, nid)]:
            segments.append(self._runs[other].entries)
        segments.append(islice(run.entries, cut))
        return chain.from_iterable(segments)

    def entries(self) -> list[IndexEntry]:
        """All entries in global (nid, lcv) order."""
        out: list[IndexEntry] = []
        for nid in self.nids():
            out.extend(self._runs[nid].entries)
        return out

    def ids(self) -> list[CompositeId]:
        return [e.id for e in self.entries()]

    def same_ids(self, other: "IdentifierIndex", nids: list[NodeId] | None = None) -> bool:
        """Whether both hold the same ids of `nids` (None: every nid)."""
        return set_difference(self, other, nids=nids) == ([], [])


@dataclass
class Checkpoint:
    """A node pair's synchronization watermarks: nid -> highest synced
    lcv.

    Watermarks never decrease; lcv 0 is the genesis "never synchronized"
    floor.
    """

    watermarks: dict[NodeId, int] = field(default_factory=dict)

    def watermark(self, nid: NodeId) -> int:
        return self.watermarks.get(nid, 0)

    def advance(self, nid: NodeId, lcv: int) -> None:
        current = self.watermarks.get(nid, 0)
        if lcv > current:
            self.watermarks[nid] = lcv


def set_difference(
    a: IdentifierIndex,
    b: IdentifierIndex,
    meter=None,
    since: Checkpoint | None = None,
    nids: list[NodeId] | None = None,
) -> tuple[list[CompositeId], list[CompositeId]]:
    """Symmetric difference of two indexes, partitioned by direction.

    Returns (missing_in_b, missing_in_a) in (nid, lcv) order, computed
    by a single merge pass over the sorted structures. `since` and
    `nids` select the same window `serialize_index` streams: only
    entries above each nid's watermark, only the given source nids.
    Each run's window is found by bisection and diffed in place. The
    instrumented count is the number of merge-pass steps (head
    comparisons plus tail drains, one per consumed window element);
    every step advances at least one cursor, so the count is at most
    the two window sizes summed, and at fixed delta it scales linearly
    with window size.

    Each nid's two windows are first compared up to the shorter one's
    length with one list `==` on their lcvs. When one is a prefix of the
    other, both cursors skip the shared part, counted one step per
    entry as the merge counts it, and the longer window's tail is
    drained; only windows that differ inside that length are merged.
    """
    missing_in_b: list[CompositeId] = []
    missing_in_a: list[CompositeId] = []
    comparisons = 0
    selected = set(a._runs) | set(b._runs) if nids is None else set(nids)
    for nid in sorted(selected):
        run_a = a._runs.get(nid, _EMPTY_RUN)
        run_b = b._runs.get(nid, _EMPTY_RUN)
        la, lb = run_a.lcvs, run_b.lcvs
        ea, eb = run_a.entries, run_b.entries
        if since is None:
            i = j = 0
        else:
            floor = since.watermark(nid)
            i = bisect_right(la, floor)
            j = bisect_right(lb, floor)
        na, nb = len(la), len(lb)
        short = min(na - i, nb - j)
        if la[i : i + short] == lb[j : j + short]:
            # one window is a prefix of the other: the merge would take one
            # equal step per shared entry, then drain the longer one's tail
            comparisons += short
            i += short
            j += short
        while i < na and j < nb:
            comparisons += 1
            va, vb = la[i], lb[j]
            if va == vb:
                i += 1
                j += 1
            elif va < vb:
                missing_in_b.append(ea[i].id)
                i += 1
            else:
                missing_in_a.append(eb[j].id)
                j += 1
        comparisons += (na - i) + (nb - j)
        missing_in_b.extend(e.id for e in ea[i:])
        missing_in_a.extend(e.id for e in eb[j:])
    if meter is not None:
        meter.add_comparisons(comparisons)
    return missing_in_b, missing_in_a


def serialize_index(
    index: IdentifierIndex,
    since: Checkpoint | None = None,
    nids: list[NodeId] | None = None,
) -> bytes:
    """Serialize ids to the wire stream, optionally only above-watermark
    and optionally restricted to the given source nids.

    Stream length is exactly 16 + 32 * entries_emitted. Each run's
    window is packed in bulk: its tokens start as the run's nid followed
    by 16 zero bytes, then the big-endian lcv and nst planes, one
    `struct` pack each, are interleaved into bytes 16-23 and 24-31 of
    every token by strided slice assignment. The bytes equal
    `encode_id` of each id in turn.
    """
    chunks: list[bytes] = []
    count = 0
    selected = index.nids() if nids is None else sorted(n for n in nids if n in index._runs)
    for nid in selected:
        run = index._runs[nid]
        start = 0 if since is None else bisect_right(run.lcvs, since.watermark(nid))
        n = len(run.lcvs) - start
        if n == 0:
            continue
        planes = struct.Struct(f">{n}Q")
        lcvs = planes.pack(*islice(run.lcvs, start, None))
        nsts = planes.pack(*[entry.id.nst for entry in islice(run.entries, start, None)])
        tokens = bytearray((nid + _TOKEN_TAIL) * n)
        for k in range(8):
            tokens[_LCV_AT + k :: ENCODED_ID_BYTES] = lcvs[k::8]
            tokens[_NST_AT + k :: ENCODED_ID_BYTES] = nsts[k::8]
        chunks.append(tokens)
        count += n
    return _HEADER.pack(WIRE_MAGIC, WIRE_VERSION, count) + b"".join(chunks)


def deserialize_index(stream: bytes) -> list[CompositeId]:
    """Recover the id sequence from a wire stream, order preserved."""
    if len(stream) < WIRE_HEADER_BYTES:
        raise TruncatedStream(f"stream shorter than header: {len(stream)} bytes")
    magic, version, count = _HEADER.unpack_from(stream, 0)
    if magic != WIRE_MAGIC:
        raise BadMagic(f"bad magic {magic!r}")
    if version != WIRE_VERSION:
        raise BadVersion(f"unsupported version {version}")
    body = stream[WIRE_HEADER_BYTES:]
    if len(body) != count * ENCODED_ID_BYTES:
        raise TruncatedStream(
            f"expected {count * ENCODED_ID_BYTES} body bytes, got {len(body)}"
        )
    return [
        decode_id(body[i : i + ENCODED_ID_BYTES])
        for i in range(0, len(body), ENCODED_ID_BYTES)
    ]
