"""Storage-node state machine.

A node owns a logical clock, an identifier index, a block store,
(optionally) the hash baseline, one `hashline.HashIndex` that holds its
digests, pipeline and failure conditions. Ingestion assigns identity
*before* any content analysis: the whole metadata identification path
performs zero content hashing, which the instrumented counters make
checkable.

The block store maps the block's composite id, the same key the index
and the DR delta use, to its content bytes; dict order is the order
blocks arrived. The index entry is the block's only metadata record: its
byte_len and CRC-32 (`crc32c`) travel with the id, and the store holds
nothing else. Blocks are immutable once an id is bound; mutation means a
fresh ingestion under the same user key, with reads resolving to the
highest lcv (ties to the greater nid) on every replica. An id arrives once: a
replica that already indexes it ignores the same entry again and
raises `ConflictingEntry` for different metadata. Integrity is a
separate concern from identity: the entry's CRC is verified at read
time and by background scrubbing.

Ingest and replication take runs: one call stores a batch of blocks,
CRCs them together and indexes them in order, with the same result as
one call per block. A payload is bytes or a virtual (byte_len, seed)
pair; ingest stores a pair's 16-byte packed descriptor as the content,
with the entry's byte_len the modeled length, so no layer below ingest
tells the two fidelities apart.

A node is up or crashed. `crash` freezes it, optionally tearing its
WAL's tail; `restart` replays the WAL and applies the restart's fault,
and only when both succeed is the node up again. A restart that fails
leaves it crashed and unchanged, so it can be restarted once the cause
is mended. A restart prices nothing: the node owes one more WAL
replay, which its next failback charges. A node's framework is fixed
when it is built: with `baseline` it carries a `HashIndex`, and a
`sync.Cluster` runs the framework its nodes carry.

Layer 2 deduplication consolidates content-equal blocks behind a
transparent indirection table (id -> id of the kept copy). It is
structurally barred from running while a DR event is active, and its
hashing is charged to its caller's meter so DR critical-path counters
stay clean; it walks the store as the scrub does, and it never aliases
a block to a kept copy that fails its CRC. A hash-baseline sync
run binds each foreign id whose content the node already holds through
the same table (`replicate_in` with digests). `stored_blocks` is its one
block read.
"""

from __future__ import annotations

import struct
from collections.abc import Iterator
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice, repeat
from operator import attrgetter

from .crc32c import crc32c
from .hashline import BlockColumns, HashIndex, crash_interrupt, payload_digest
from .identity import CompositeId, MemoryWal, NodeId, WalAppendFailure, lww_key, recover_clock
from .index import ConflictingEntry, IdentifierIndex, IndexEntry


class NodeDown(RuntimeError):
    pass


class NotFound(KeyError):
    pass


class CorruptionDetected(RuntimeError):
    pass


class ImmutabilityViolation(RuntimeError):
    pass


RESTART_FAULT_KINDS = ("none", "index_loss", "pipeline_crash")


class NodeStatus(Enum):
    UP = "up"
    CRASHED = "crashed"


@dataclass
class CorruptionReport:
    findings: list[tuple[CompositeId, int, int]] = field(default_factory=list)  # id, expected, found

    @property
    def clean(self) -> bool:
        return not self.findings


_ENTRY_ID = attrgetter("id")
_ENTRY_BYTE_LEN = attrgetter("byte_len")

# a virtual block's content: its (byte_len, seed) descriptor
_DESCRIPTOR = struct.Struct(">QQ")


def _contents(payloads) -> tuple[list[bytes], list[int]]:
    """Each payload's stored content and byte_len, in order: bytes are
    stored as they are, a virtual (byte_len, seed) pair as its packed
    descriptor. Raises ValueError for a byte_len that is not positive
    and for a descriptor field outside 0..2**64 - 1."""
    contents: list[bytes] = []
    byte_lens: list[int] = []
    pack = _DESCRIPTOR.pack
    for payload in payloads:
        if isinstance(payload, (bytes, bytearray)):
            content = bytes(payload)
            byte_len = len(content)
        else:
            byte_len, seed = payload
            try:
                content = pack(byte_len, seed)
            except struct.error as exc:
                raise ValueError(
                    f"virtual descriptor ({byte_len}, {seed}) is outside 0..2**64 - 1"
                ) from exc
        if byte_len <= 0:
            raise ValueError(f"byte_len must be positive, got {byte_len}")
        contents.append(content)
        byte_lens.append(byte_len)
    return contents, byte_lens


@dataclass
class PathCounters:
    """Node-level correctness instrumentation."""

    immutability_violations: int = 0
    lcv_order_violations: int = 0


class StorageNode:
    """One storage node: clock, identifier index, block store, lifecycle."""

    def __init__(
        self,
        nid: NodeId,
        wal=None,
        *,
        baseline: bool = False,
    ) -> None:
        self.nid = nid
        self.wal = wal if wal is not None else MemoryWal()
        self.clock = recover_clock(self.wal)
        self.status = NodeStatus.UP
        self.id_index = IdentifierIndex()
        self.block_store: dict[CompositeId, bytes] = {}
        self.indirection_table: dict[CompositeId, CompositeId] = {}
        self.by_user_key: dict[str, CompositeId] = {}
        self.counters = PathCounters()
        self.baseline: HashIndex | None = HashIndex() if baseline else None
        self.dr_active = False
        self.dedup_deferrals = 0
        self.pending_wal_replays = 0
        self._scrub_cursor: tuple[bytes, int] = (b"", 0)  # before every (nid, lcv)
        self._dedup_cursor: tuple[bytes, int] = (b"", 0)
        self._dedup_seen: dict[bytes, CompositeId] = {}
        self._max_exposed_lcv = 0

    # -- ingestion -----------------------------------------------------

    def ingest(self, payloads, user_keys=None, nst: int = 0) -> list[CompositeId]:
        """Store a run of new blocks, each under a fresh composite
        identifier; returns the ids in run order.

        Each payload is bytes or a virtual (byte_len, seed) pair, and
        `user_keys`, if given, holds one key or None per payload. Every
        payload is checked before the first id is drawn, so a rejected
        run leaves no trace. Then one clock call draws the run's ids, so
        each WAL ceiling record lands where a block-at-a-time ingest
        would put it. If a draw fails, the blocks drawn before it are
        ingested and the error propagates. Identity is assigned before
        any content analysis: the run's CRCs are taken once its ids are
        drawn, and no hashing happens here (the baseline's pipeline hashes
        asynchronously on its own meter).
        """
        if self.status is not NodeStatus.UP:
            raise NodeDown(f"node {self.nid} is {self.status.value}")
        contents, byte_lens = _contents(payloads)
        if user_keys is not None and len(user_keys) != len(contents):
            raise ValueError(f"{len(user_keys)} user keys for {len(contents)} payloads")
        ids: list[CompositeId] = []
        try:
            self.clock.next_id(self.nid, nst, len(contents), ids)
        finally:
            drawn = len(ids)
            if drawn < len(contents):  # a draw failed: keep what was drawn
                del contents[drawn:], byte_lens[drawn:]
                if user_keys is not None:
                    user_keys = user_keys[:drawn]
            if drawn:
                self._store_local(ids, contents, byte_lens, user_keys)
        return ids

    def _store_local(self, ids, contents, byte_lens, keys) -> None:
        """Bind, index and queue a run of freshly drawn ids; `keys` is
        None or one user key (or None) per id."""
        counters = self.counters
        exposed = self._max_exposed_lcv
        for cid in ids:
            if cid.lcv <= exposed:
                counters.lcv_order_violations += 1
            exposed = cid.lcv
        self._max_exposed_lcv = exposed
        self.bind_blocks(ids, contents)
        rows = zip(ids, byte_lens, map(crc32c, contents), repeat(None) if keys is None else keys)
        new = tuple.__new__  # each byte_len was checked positive
        entries = [new(IndexEntry, row) for row in rows]
        self.id_index.insert(entries)
        if keys is not None:
            self._resolve_keys(entries)
        if self.baseline is not None:
            self.baseline.enqueue(ids, contents, byte_lens)

    def bind_blocks(self, ids, contents) -> None:
        """Low-level store write of a run, after checking that none of its
        ids is bound; rebinding a bound id is the in-place-overwrite
        misuse path, and it leaves the store as it was."""
        blocks = self.block_store
        if not blocks.keys().isdisjoint(ids):
            self.counters.immutability_violations += 1
            bound = next(cid for cid in ids if cid in blocks)
            raise ImmutabilityViolation(f"id {bound} already bound")
        blocks.update(zip(ids, contents))

    def replicate_in(self, entries, contents, digests=None) -> dict[CompositeId, CompositeId]:
        """Accept a run of foreign blocks' entries and contents during
        replication or sync; returns the aliases bound (`_aliases`).

        The entries are the source's own: each carries the id and the
        block's integrity metadata, so it is inserted as it arrives and
        its content is stored under its id, and the baseline queues the
        new blocks for hashing. Re-replication of a known id is a no-op.
        A `ConflictingEntry` at entry k propagates after entries 0..k-1
        are replicated; the rest are untouched.

        `digests`, given only to a baseline node, holds each block's
        digest: the run is indexed under them, not hashed, and each entry
        `_aliases` picks is bound as an alias, storing no content.
        """
        conflict = None
        try:
            added = self.id_index.insert(entries)
        except ConflictingEntry as exc:
            added, conflict = exc.added, exc
        if len(added) < len(entries):
            entries = [entries[i] for i in added]
            contents = [contents[i] for i in added]
            if digests is not None:
                digests = [digests[i] for i in added]
        self._resolve_keys(entries)
        ids = list(map(_ENTRY_ID, entries))
        aliases = {}
        if digests is not None:
            run, byte_lens = ids, list(map(_ENTRY_BYTE_LEN, entries))
            if aliases := self._aliases(ids, digests):
                self.indirection_table.update(aliases)
                kept = [i for i, cid in enumerate(ids) if cid not in aliases]
                ids, contents, byte_lens = (
                    [column[i] for i in kept] for column in (ids, contents, byte_lens))
            self.baseline.adopt(run, digests, BlockColumns(ids, contents, byte_lens))
        elif self.baseline is not None:
            self.baseline.enqueue(ids, contents, list(map(_ENTRY_BYTE_LEN, entries)))
        self.block_store.update(zip(ids, contents))
        if conflict is not None:
            raise conflict
        return aliases

    def _aliases(self, ids, digests) -> dict[CompositeId, CompositeId]:
        """The ids of a run to bind as aliases, each with the stored id it
        reads: an id whose digest the node held before the run reads the
        copy the digest's `holder` reads, and one whose digest an earlier
        id of the run brought reads that id's block."""
        holder, table = self.baseline.holder, self.indirection_table
        aliases: dict[CompositeId, CompositeId] = {}
        read: dict[bytes, CompositeId] = {}  # digest -> the stored id its run ids read
        for cid, digest in zip(ids, digests):
            if digest in read:
                aliases[cid] = read[digest]
            elif (kept := holder(digest)) is not None:
                aliases[cid] = read[digest] = table.get(kept, kept)
            else:
                read[digest] = cid
        return aliases

    def _resolve_keys(self, entries) -> None:
        """Point each new entry's user key, if any, at the version
        `lww_key` orders last, entry by entry in run order."""
        by_user_key = self.by_user_key
        for entry in entries:
            key = entry.user_key
            if key is not None:
                current = by_user_key.get(key)
                if current is None or lww_key(entry.id) > lww_key(current):
                    by_user_key[key] = entry.id

    # -- reads and integrity -------------------------------------------

    def stored_blocks(self, ids: list[CompositeId]) -> list[bytes]:
        """The content each id reads, in order: its own, or the copy the
        indirection table binds it to. One store probe per id, and only
        the ids the store misses read through the table; KeyError for an
        id that is neither stored nor an alias."""
        contents = list(map(self.block_store.get, ids))
        if None in contents:
            store, table = self.block_store, self.indirection_table
            contents = [store[table[cid]] if content is None else content
                        for cid, content in zip(ids, contents)]
        return contents

    def inventory(self) -> Iterator[tuple[CompositeId, bytes, int]]:
        """(id, content, byte_len) of every stored block, in store order."""
        for cid, content in self.block_store.items():
            yield cid, content, self.id_index.get(cid).byte_len

    def read_verify(self, cid: CompositeId) -> bytes:
        """Return the block's content after CRC verification; a
        virtual block's content is its packed descriptor."""
        entry = self.id_index.get(cid)
        if entry is None:
            raise NotFound(f"id {cid} not present")
        # Layer-2 indirection is transparent to readers and is never
        # consulted during DR identification (which uses ids only)
        try:
            content, = self.stored_blocks([cid])
        except KeyError:
            raise NotFound(f"block for id {cid} missing from store") from None
        found = crc32c(content)
        if found != entry.crc:
            raise CorruptionDetected(
                f"crc mismatch reading {cid}: expected {entry.crc:#010x}, found {found:#010x}"
            )
        return content

    def read(self, user_key: str) -> bytes:
        """Read the key's current value, the version `lww_key` orders last."""
        cid = self.by_user_key.get(user_key)
        if cid is None:
            raise NotFound(f"user_key {user_key!r} unknown")
        return self.read_verify(cid)

    def corrupt_block(self, key: CompositeId) -> None:
        """Test hook: flip the first stored byte (silent corruption
        injection)."""
        mutated = bytearray(self.block_store[key])
        mutated[0] ^= 0xFF
        self.block_store[key] = bytes(mutated)

    def _stored_window(self, cursor, budget_blocks: int):
        """The next window of a round-robin walk over the stored blocks:
        the entries and contents of up to `budget_blocks` of them (at most
        every one), in (nid, lcv) order from the first key above `cursor`,
        and the window's last key, the next cursor. A key does not shift
        when blocks are inserted on either side of it. An entry with no
        stored block (an indirection alias) is passed over and not counted
        against the budget."""
        budget = min(budget_blocks, len(self.block_store))
        walk = self.id_index.cycle_from(*cursor)
        window: list[IndexEntry] = []
        contents: list[bytes] = []
        while len(window) < budget:
            entries = list(islice(walk, budget - len(window)))
            if not entries:
                break
            blocks = list(map(self.block_store.get, map(_ENTRY_ID, entries)))
            if None in blocks:  # an alias stores no block
                entries = [entry for entry, block in zip(entries, blocks) if block is not None]
                blocks = [block for block in blocks if block is not None]
            window += entries
            contents += blocks
        if window:
            last = window[-1].id
            cursor = (last.nid, last.lcv)
        return window, contents, cursor

    def scrub(self, budget_blocks: int) -> CorruptionReport:
        """CRC-check the walk's next `budget_blocks` stored blocks
        (`_stored_window`) against their entries; never mutates data. A
        finding is (id, expected, found): each corrupt stored block in walk
        order, then each indirection alias that reads one, in table order."""
        report = CorruptionReport()
        window, contents, self._scrub_cursor = self._stored_window(
            self._scrub_cursor, budget_blocks)
        for entry, found in zip(window, map(crc32c, contents)):
            if found != entry.crc:
                report.findings.append((entry.id, entry.crc, found))
        if report.findings:  # an alias reads its kept copy's bad bytes
            bad = {cid: found for cid, _, found in report.findings}
            report.findings += [(alias, self.id_index.get(alias).crc, bad[kept])
                                for alias, kept in self.indirection_table.items() if kept in bad]
        return report

    # -- lifecycle -----------------------------------------------------

    def crash(self, torn_wal_bytes: int | None = None) -> None:
        """Freeze the node. Optionally leave a torn record tail in the
        WAL, as a crash mid-append would: the log is appended to only
        when the clock reserves its next lcv range, so the torn write is
        that reservation's ceiling record. Once the ceiling is 2**64 - 1
        there is no reservation left to tear, and the node crashes with
        its log as it was. The hook never outlives the crash."""
        if self.status is not NodeStatus.UP:
            raise RuntimeError(f"crash on node in state {self.status.value}")
        if torn_wal_bytes is not None:
            self.wal.fail_next_append = ("torn", torn_wal_bytes)
            try:
                self.clock.extend()
            except WalAppendFailure:
                pass  # the torn tail is in the log
            except ValueError:
                pass  # lcv space exhausted: extend appended nothing
            finally:
                self.wal.fail_next_append = None
        self.status = NodeStatus.CRASHED

    def restart(self, fault_kind: str = "none") -> None:
        """Replay the WAL and come back up with `fault_kind`'s damage (see
        `inject_fault`), owing one more WAL replay, which its next
        failback charges. The node is up only once both have succeeded: a
        replay that raises (`WalCorruption` for damage before the log's
        tail) leaves it crashed, with its clock, log and owed replays as
        they were, so it can be restarted again once its log is mended.
        """
        if self.status is not NodeStatus.CRASHED:
            raise RuntimeError(f"restart on node in state {self.status.value}")
        if fault_kind not in RESTART_FAULT_KINDS:
            raise ValueError(f"unknown fault_kind {fault_kind!r}")
        self.clock = recover_clock(self.wal)
        self.inject_fault(fault_kind)
        self.pending_wal_replays += 1
        self.status = NodeStatus.UP

    def inject_fault(self, fault_kind: str) -> None:
        """Apply a fault kind's damage in place. "index_loss" destroys the
        baseline hash index: condition 3 on the next baseline DR.
        "pipeline_crash" rolls the hashing pipeline back to its
        checkpoint, the last drain: condition 2. "none" does nothing."""
        if fault_kind == "index_loss" and self.baseline is not None:
            self.baseline.mark_lost()
        elif fault_kind == "pipeline_crash" and self.baseline is not None:
            crash_interrupt(self.baseline)

    def take_pending_wal_replays(self) -> int:
        """The WAL replays owed since the last take, which clears them."""
        count = self.pending_wal_replays
        self.pending_wal_replays = 0
        return count

    # -- Layer 2: background deduplication -------------------------------

    def dedup_pass(self, budget_blocks: int, meter=None) -> int:
        """Consolidate content-equal blocks behind the indirection table;
        returns how many moved.

        Refuses to run (returns 0, counts a deferral) while a DR event
        is active: Layer 2 is structurally off the DR critical path.
        It hashes the walk's next `budget_blocks` stored blocks
        (`_stored_window`) and charges `meter`, if given, once for them; a
        block whose content an earlier one holds goes behind that kept
        copy, which never moves, so one table rewrite per pass repoints
        the moved blocks' aliases.
        Each kept copy is CRC-checked against its entry once per pass
        before anything goes behind it: one that fails is replaced by the
        duplicate, which stays where it is, and a duplicate whose entry
        CRC differs from the kept copy's (its own bytes are corrupt) stays
        too. Every composite id remains readable with identical bytes, and
        every indirection-table value is a stored key.
        """
        if self.dr_active:
            self.dedup_deferrals += 1
            return 0
        window, contents, self._dedup_cursor = self._stored_window(
            self._dedup_cursor, budget_blocks)
        digests = map(payload_digest, contents)
        if meter is not None:
            meter.charge_hash(*map(_ENTRY_BYTE_LEN, window), ops=len(window))
        seen = self._dedup_seen
        kept_crcs: dict[CompositeId, int | None] = {}  # kept copy -> its CRC, None if corrupt
        moved: dict[CompositeId, CompositeId] = {}  # id -> the kept copy it reads
        for entry, digest in zip(window, digests):
            kept = seen.setdefault(digest, entry.id)
            if kept == entry.id:
                continue
            if kept not in kept_crcs:
                crc = self.id_index.get(kept).crc
                kept_crcs[kept] = crc if crc32c(self.block_store[kept]) == crc else None
            if kept_crcs[kept] is None:  # never alias a block to a corrupt copy
                seen[digest] = entry.id
            elif kept_crcs[kept] == entry.crc:  # nor a corrupt block to a good one
                moved[entry.id] = kept
        if moved:
            table = self.indirection_table
            table.update({alias: moved[target] for alias, target in table.items()
                          if target in moved})
            table.update(moved)
            for cid in moved:
                del self.block_store[cid]
        return len(moved)

    @property
    def physical_block_count(self) -> int:
        return len(self.block_store)

    @property
    def physical_bytes(self) -> int:
        return sum(byte_len for _, _, byte_len in self.inventory())
