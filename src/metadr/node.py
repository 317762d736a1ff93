"""Storage-node state machine.

A node owns a logical clock, an identifier index, a block store, and
(optionally) the shadow baseline state (hash index + pipeline) and a
legacy hash index for migration. Ingestion assigns identity *before*
any content analysis: the whole metadata identification path performs
zero content hashing, which the instrumented counters make checkable.

Blocks are immutable once an id is bound; mutation means a fresh
ingestion under the same user key, with reads resolving to the highest
lcv (ties to the greater nid) on every replica. Integrity is a separate
concern from identity: every block carries a CRC-32C verified at read
time and by background scrubbing.

Layer 2 deduplication consolidates content-equal blocks behind a
transparent indirection table. It is structurally barred from running
while a DR event is active, and its hashing is charged to a background
meter so DR critical-path counters stay clean.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from enum import Enum

from .crc32c import crc32c
from .hashline import HashIndex, PipelineState, crash_interrupt, payload_digest
from .identity import CompositeId, MemoryWal, NodeId, lww_key, recover_clock
from .index import IdentifierIndex, IndexEntry


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
    RECOVERING = "recovering"


@dataclass(frozen=True, slots=True)
class Block:
    """Immutable stored block; concrete (content) or virtual (descriptor)."""

    id: CompositeId
    byte_len: int
    crc: int
    user_key: str | None = None
    content: bytes | None = None
    content_seed: int | None = None

    @property
    def payload(self):
        if self.content is not None:
            return self.content
        return (self.byte_len, self.content_seed)


@dataclass
class CorruptionReport:
    findings: list[tuple[int, int, int]] = field(default_factory=list)  # locator, expected, found

    @property
    def clean(self) -> bool:
        return not self.findings


@dataclass
class LookupResult:
    tier: str  # "identifier" | "legacy"
    id: CompositeId | None = None
    digest: bytes | None = None
    locator: int | None = None


def _descriptor_crc(byte_len: int, seed: int) -> int:
    return crc32c(struct.pack(">QQ", byte_len, seed))


@dataclass
class BaselineState:
    """Per-node shadow state for the hash-based framework."""

    hash_index: HashIndex
    pipeline: PipelineState

    @classmethod
    def fresh(cls) -> "BaselineState":
        index = HashIndex()
        return cls(hash_index=index, pipeline=PipelineState(index))


@dataclass
class PathCounters:
    """Node-level correctness and background-work instrumentation."""

    background_hash_ops: int = 0
    immutability_violations: int = 0
    lcv_order_violations: int = 0


class _BackgroundMeter:
    """Minimal meter for Layer-2 work; keeps DR counters untouched."""

    def __init__(self, counters: PathCounters) -> None:
        self._counters = counters
        self.hashed_bytes = 0

    def charge_hash(self, nbytes: float, ops: int = 0) -> float:
        self._counters.background_hash_ops += ops
        self.hashed_bytes += int(nbytes)
        return 0.0

    def add_hash_ops(self, n: int) -> None:
        self._counters.background_hash_ops += n

    def add_content_reads(self, n: int) -> None:
        pass


class StorageNode:
    """One storage node: clock, identifier index, block store, lifecycle."""

    def __init__(
        self,
        nid: NodeId,
        wal=None,
        *,
        baseline: bool = False,
        migration: bool = False,
        fragmentation_factor: float = 0.0,
    ) -> None:
        self.nid = nid
        self.wal = wal if wal is not None else MemoryWal()
        self.clock = recover_clock(self.wal)
        self.status = NodeStatus.UP
        self.id_index = IdentifierIndex(fragmentation_factor)
        self.block_store: dict[int, Block] = {}
        self.indirection_table: dict[CompositeId, int] = {}
        self.by_user_key: dict[str, CompositeId] = {}
        self.counters = PathCounters()
        self.background_meter = _BackgroundMeter(self.counters)
        self.baseline: BaselineState | None = BaselineState.fresh() if baseline else None
        self.legacy_hash_index: dict[str, tuple[int, bytes]] | None = {} if migration else None
        self._migrated_keys = 0
        self._legacy_seeded = 0
        self.dr_active = False
        self.dedup_deferrals = 0
        self.pending_wal_replay_s = 0.0
        self._next_locator = 0
        self._scrub_cursor = 0
        self._dedup_cursor = 0
        self._dedup_seen: dict[bytes, int] = {}
        self._max_exposed_lcv = 0
        self.ingest_count = 0

    # -- ingestion -----------------------------------------------------

    def ingest(self, payload, user_key: str | None = None, nst: int = 0) -> CompositeId:
        """Store a new block under a fresh composite identifier.

        Identity is assigned before any content analysis; no hashing
        happens here (the baseline's pipeline hashes asynchronously on
        its own meter).
        """
        if self.status is not NodeStatus.UP:
            raise NodeDown(f"node {self.nid} is {self.status.value}")
        cid = self.clock.next_id(self.nid, nst)
        if cid.lcv <= self._max_exposed_lcv:
            self.counters.lcv_order_violations += 1
        self._max_exposed_lcv = cid.lcv
        if isinstance(payload, (bytes, bytearray)):
            content = bytes(payload)
            block = Block(
                id=cid,
                byte_len=len(content),
                crc=crc32c(content),
                user_key=user_key,
                content=content,
            )
        else:
            byte_len, seed = payload
            block = Block(
                id=cid,
                byte_len=byte_len,
                crc=_descriptor_crc(byte_len, seed),
                user_key=user_key,
                content_seed=seed,
            )
        locator = self._next_locator
        self._next_locator += 1
        self.bind_block(locator, block)
        self.id_index.insert(
            IndexEntry(cid, locator, block.byte_len, block.crc, user_key)
        )
        if user_key is not None:
            current = self.by_user_key.get(user_key)
            if current is None or lww_key(cid) > lww_key(current):
                self.by_user_key[user_key] = cid
        if self.baseline is not None:
            self.baseline.pipeline.enqueue(locator, block.payload, block.byte_len)
        self.ingest_count += 1
        return cid

    def bind_block(self, locator: int, block: Block) -> None:
        """Low-level store write; rebinding an occupied locator is the
        in-place-overwrite misuse path."""
        if locator in self.block_store:
            self.counters.immutability_violations += 1
            raise ImmutabilityViolation(f"locator {locator} already bound")
        self.block_store[locator] = block

    def mutate(self, user_key: str, payload) -> CompositeId:
        """Mutation = new ingestion event with a fresh identifier.

        The prior block stays untouched; reads of the key now resolve to
        the new id (higher lcv wins).
        """
        if self.status is not NodeStatus.UP:
            raise NodeDown(f"node {self.nid} is {self.status.value}")
        return self.ingest(payload, user_key=user_key)

    def replicate_in(self, entry: IndexEntry, block: Block) -> None:
        """Accept a foreign block + entry during replication or sync.

        Locators are node-local, so the incoming entry is re-homed to a
        fresh local locator. Re-replication of a known id is a no-op.
        """
        if entry.id in self.id_index:
            return
        locator = self._next_locator
        self._next_locator += 1
        self.block_store[locator] = block
        self.id_index.insert(replace(entry, location=locator))
        key = entry.user_key
        if key is not None:
            current = self.by_user_key.get(key)
            if current is None or lww_key(entry.id) > lww_key(current):
                self.by_user_key[key] = entry.id
        if self.baseline is not None:
            self.baseline.pipeline.enqueue(locator, block.payload, block.byte_len)

    # -- reads and integrity -------------------------------------------

    def locate(self, cid: CompositeId) -> int:
        entry = self.id_index.get(cid)
        if entry is None:
            raise NotFound(f"id {cid} not present")
        # Layer-2 indirection is transparent to readers and is never
        # consulted during DR identification (which uses ids only).
        return self.indirection_table.get(cid, entry.location)

    def read_verify(self, cid: CompositeId) -> bytes:
        """Return the block's bytes after CRC-32C verification.

        Virtual blocks return their packed descriptor (the checksummed
        representation at this fidelity).
        """
        entry = self.id_index.get(cid)
        if entry is None:
            raise NotFound(f"id {cid} not present")
        locator = self.indirection_table.get(cid, entry.location)
        block = self.block_store.get(locator)
        if block is None:
            raise NotFound(f"block for id {cid} missing from store")
        if block.content is not None:
            found = crc32c(block.content)
            raw = block.content
        else:
            raw = struct.pack(">QQ", block.byte_len, block.content_seed)
            found = crc32c(raw)
        if found != entry.crc:
            raise CorruptionDetected(
                f"crc mismatch at locator {locator}: expected {entry.crc:#010x}, found {found:#010x}"
            )
        return raw

    def read(self, user_key: str) -> bytes:
        """Read the key's current value, the version `lww_key` orders last."""
        cid = self.by_user_key.get(user_key)
        if cid is None:
            raise NotFound(f"user_key {user_key!r} unknown")
        return self.read_verify(cid)

    def corrupt_block(self, locator: int) -> None:
        """Test hook: flip a stored byte (silent corruption injection)."""
        block = self.block_store[locator]
        if block.content is not None:
            mutated = bytearray(block.content)
            mutated[0] ^= 0xFF
            tampered = Block(block.id, block.byte_len, block.crc, block.user_key,
                             content=bytes(mutated))
        else:
            tampered = Block(block.id, block.byte_len, block.crc, block.user_key,
                             content_seed=(block.content_seed or 0) ^ 0x1)
        self.block_store[locator] = tampered

    def scrub(self, budget_blocks: int) -> CorruptionReport:
        """Verify up to budget blocks round-robin; never mutates data."""
        report = CorruptionReport()
        if budget_blocks <= 0 or not self.block_store:
            return report
        locators = sorted(self.block_store)
        n = len(locators)
        start = self._scrub_cursor % n
        for i in range(min(budget_blocks, n)):
            locator = locators[(start + i) % n]
            block = self.block_store[locator]
            expected = self.id_index.get(block.id)
            expected_crc = expected.crc if expected is not None else block.crc
            if block.content is not None:
                found = crc32c(block.content)
            else:
                found = _descriptor_crc(block.byte_len, block.content_seed or 0)
            if found != expected_crc:
                report.findings.append((locator, expected_crc, found))
        self._scrub_cursor = (start + min(budget_blocks, n)) % n
        return report

    # -- lifecycle -----------------------------------------------------

    def crash(self, torn_wal_bytes: int | None = None) -> None:
        """Freeze the node. Optionally leave a torn record tail in the
        WAL, as a crash mid-append would."""
        if self.status is not NodeStatus.UP:
            raise RuntimeError(f"crash on node in state {self.status.value}")
        if torn_wal_bytes is not None:
            self.wal.fail_next_append = ("torn", torn_wal_bytes)
            try:
                self.clock.next_id(self.nid)
            except Exception:
                pass
        self.status = NodeStatus.CRASHED

    def restart(self, fault_kind: str = "none", wal_replay_seconds: float = 18.0) -> float:
        """Replay the WAL and come back up with `fault_kind`'s damage (see
        `inject_fault`). Returns the replay latency charged to the
        virtual clock.
        """
        if self.status is not NodeStatus.CRASHED:
            raise RuntimeError(f"restart on node in state {self.status.value}")
        if fault_kind not in RESTART_FAULT_KINDS:
            raise ValueError(f"unknown fault_kind {fault_kind!r}")
        self.status = NodeStatus.RECOVERING
        self.clock = recover_clock(self.wal)
        self.inject_fault(fault_kind)
        self.pending_wal_replay_s += wal_replay_seconds
        self.status = NodeStatus.UP
        return wal_replay_seconds

    def inject_fault(self, fault_kind: str) -> None:
        """Apply a fault kind's damage in place. "index_loss" destroys the
        baseline hash index (and the legacy index if present): condition 3
        on the next baseline DR. "pipeline_crash" rolls the hashing
        pipeline back to its checkpoint: condition 2. "none" does nothing."""
        if fault_kind == "index_loss":
            if self.baseline is not None:
                self.baseline.hash_index.mark_lost()
            if self.legacy_hash_index is not None:
                self.legacy_hash_index = {}
        elif fault_kind == "pipeline_crash" and self.baseline is not None:
            crash_interrupt(self.baseline.pipeline)

    def take_pending_wal_replay(self) -> float:
        seconds = self.pending_wal_replay_s
        self.pending_wal_replay_s = 0.0
        return seconds

    # -- migration (dual lookup) ----------------------------------------

    def seed_legacy_block(self, user_key: str, content: bytes) -> None:
        """Pre-migration data: present only in the legacy hash index."""
        if self.legacy_hash_index is None:
            raise RuntimeError("migration mode not enabled")
        locator = self._next_locator
        self._next_locator += 1
        digest = payload_digest(content, self.background_meter)
        # Legacy blocks have no composite id yet; store under a sentinel.
        self.block_store[locator] = Block(
            id=CompositeId(self.nid, 0, 0),
            byte_len=len(content),
            crc=crc32c(content),
            user_key=user_key,
            content=content,
        )
        self.legacy_hash_index[user_key] = (locator, digest)
        self._legacy_seeded += 1

    def dual_lookup(self, user_key: str) -> LookupResult:
        """Identifier index first; legacy hash index on miss."""
        if self.legacy_hash_index is None:
            raise RuntimeError("migration mode not enabled")
        cid = self.by_user_key.get(user_key)
        if cid is not None:
            return LookupResult(tier="identifier", id=cid)
        legacy = self.legacy_hash_index.get(user_key)
        if legacy is not None:
            locator, digest = legacy
            return LookupResult(tier="legacy", digest=digest, locator=locator)
        raise NotFound(f"user_key {user_key!r} in neither tier")

    def migrate_on_access(self, user_key: str) -> CompositeId:
        """Re-register a legacy block under a fresh composite id."""
        if self.legacy_hash_index is None:
            raise RuntimeError("migration mode not enabled")
        existing = self.by_user_key.get(user_key)
        if existing is not None:
            self.legacy_hash_index.pop(user_key, None)
            return existing  # already migrated; idempotent
        legacy = self.legacy_hash_index.get(user_key)
        if legacy is None:
            raise NotFound(f"user_key {user_key!r} not in legacy tier")
        locator, _digest = legacy
        block = self.block_store.pop(locator)
        cid = self.ingest(block.content, user_key=user_key)
        del self.legacy_hash_index[user_key]
        self._migrated_keys += 1
        return cid

    @property
    def migration_progress(self) -> float:
        if self._legacy_seeded == 0:
            return 1.0
        return self._migrated_keys / self._legacy_seeded

    # -- Layer 2: background deduplication -------------------------------

    def dedup_pass(self, budget_blocks: int) -> int:
        """Consolidate content-equal blocks behind the indirection table.

        Refuses to run (returns 0, counts a deferral) while a DR event
        is active: Layer 2 is structurally off the DR critical path.
        Every composite id remains readable with identical bytes.
        """
        if self.dr_active:
            self.dedup_deferrals += 1
            return 0
        if budget_blocks <= 0 or not self.block_store:
            return 0
        consolidated = 0
        locators = sorted(self.block_store)
        n = len(locators)
        scanned = 0
        i = self._dedup_cursor % n
        while scanned < min(budget_blocks, n):
            locator = locators[i % n]
            i += 1
            scanned += 1
            block = self.block_store.get(locator)
            if block is None or block.id.lcv == 0:
                continue
            digest = payload_digest(block.payload, self.background_meter)
            canonical = self._dedup_seen.get(digest)
            if canonical is None or canonical == locator or canonical not in self.block_store:
                self._dedup_seen[digest] = locator
                continue
            self.indirection_table[block.id] = canonical
            del self.block_store[locator]
            consolidated += 1
        self._dedup_cursor = i % n if self.block_store else 0
        return consolidated

    @property
    def physical_block_count(self) -> int:
        return len(self.block_store)

    @property
    def physical_bytes(self) -> int:
        return sum(b.byte_len for b in self.block_store.values())
