"""Hash-based baseline: SHA-256 fingerprints, Merkle trees, and the
three failure conditions that force re-hashing.

The baseline identifies blocks by content digest. One `HashIndex` per
node holds all of its state: the digest maps, the asynchronous pipeline
that hashes stored blocks into them, the rollback list and the lost
flag. The pipeline lags ingestion (condition 1: stale
index), is not atomic across crashes (condition 2: work since the last
checkpoint is discarded and re-hashed), and lives in a store that can be
lost outright (condition 3: full inventory rehash before any delta can
be computed). `HashIndex.owed_bytes` says what the conditions cost and
`settle` pays it: a rebuild or a drain, after which the checkpoint is
committed. `payload_digest` and `merkle_build` price nothing: the code
that hashes a run (a drain, a rebuild, a Layer-2 pass) charges the meter
once for it, each block's length in run order plus one op per SHA-256
call, so the rebuild cost shows up in virtual recovery time.

A block is hashed as its content bytes and charged as its byte_len.
At virtual fidelity the content is the block's 16-byte descriptor, so
equal descriptors collide exactly as equal payloads would, while the
meter charges the modeled byte length.

SHA-256 comes from `hashlib`, which maps OpenSSL's libcrypto. It is
bound on a process's first hash, not at import, so a run that never
hashes (every metadata-only run) never loads it.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate, chain, takewhile
from operator import ge, itemgetter

from .identity import CompositeId, NodeId

DIGEST_BYTES = 32
EMPTY_LEAF = b"\x00" * DIGEST_BYTES  # pad sentinel for unequal leaf counts
EMPTY_TREE_ROOT = bytes.fromhex(  # SHA-256 of b""
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
)


def _bind_sha256(data: bytes):
    """The process's first hash: bind `_sha256` to `hashlib.sha256`,
    then hash `data` with it. Every later hash looks up the bound one."""
    global _sha256
    import hashlib

    _sha256 = hashlib.sha256
    return _sha256(data)


_sha256 = _bind_sha256  # the SHA-256 constructor, once a hash has bound it


class InconsistentIndex(RuntimeError):
    """Delta service refused: the hash index cannot be trusted until the
    pipeline drains or the index is rebuilt."""


def payload_digest(content: bytes) -> bytes:
    """SHA-256 of a block's content; it prices nothing, and its caller
    charges the block's byte_len (a virtual block's modeled length)."""
    return _sha256(content).digest()


class MerkleTree:
    """Binary hash tree over leaf digests in block-store order.

    Fanout 2 with odd-node promotion: a level's odd trailing node is
    carried up unchanged (no hash charged). The empty tree's root is the
    SHA-256 of the empty string; a single leaf is its own root.
    """

    def __init__(self, levels: list[list[bytes]]) -> None:
        self.levels = levels

    @property
    def leaf_count(self) -> int:
        return len(self.levels[0]) if self.levels else 0

    @property
    def root(self) -> bytes:
        if not self.levels or not self.levels[0]:
            return EMPTY_TREE_ROOT
        return self.levels[-1][0]

    @property
    def internal_node_count(self) -> int:
        """Number of hashed internal nodes (promotions excluded)."""
        count = 0
        for lower, upper in zip(self.levels, self.levels[1:]):
            count += len(lower) // 2
            assert len(upper) == (len(lower) + 1) // 2
        return count


def merkle_build(leaves: list[bytes]) -> MerkleTree:
    """Build the tree, one SHA-256 call per internal node; it prices nothing."""
    if not leaves:
        return MerkleTree([])
    levels = [list(leaves)]
    while len(levels[-1]) > 1:
        lower = levels[-1]
        pairs = iter(lower)
        upper = [_sha256(left + right).digest() for left, right in zip(pairs, pairs)]
        if len(lower) % 2:
            upper.append(lower[-1])  # promote the odd node
        levels.append(upper)
    return MerkleTree(levels)


@dataclass
class MerkleDiff:
    positions: list[int]
    node_visits: int


def merkle_diff(a: MerkleTree, b: MerkleTree) -> MerkleDiff:
    """Leaf positions where the trees differ.

    The shorter tree is padded (at comparison time) with the empty-leaf
    sentinel so positions cover max(leaf counts). Equal subtrees are
    skipped; node_visits counts compared node pairs and is bounded by
    2 * (differing paths * tree height + 1).
    """
    width = max(a.leaf_count, b.leaf_count)
    if width == 0:
        return MerkleDiff([], 0)
    if a.leaf_count != width or b.leaf_count != width:
        pad_a = (list(a.levels[0]) if a.levels else []) + [EMPTY_LEAF] * (width - a.leaf_count)
        pad_b = (list(b.levels[0]) if b.levels else []) + [EMPTY_LEAF] * (width - b.leaf_count)
        a = merkle_build(pad_a)
        b = merkle_build(pad_b)

    positions: list[int] = []
    visits = 0

    def walk(level: int, pos: int) -> None:
        nonlocal visits
        visits += 1
        la = a.levels[level]
        lb = b.levels[level]
        if la[pos] == lb[pos]:
            return
        if level == 0:
            positions.append(pos)
            return
        below = a.levels[level - 1]
        left = 2 * pos
        walk(level - 1, left)
        if left + 1 < len(below):
            walk(level - 1, left + 1)

    walk(len(a.levels) - 1, 0)
    return MerkleDiff(positions, visits)


@dataclass(slots=True)
class BlockColumns:
    """A run of stored blocks as three parallel columns, in run order:
    the hash pipeline's queue and its rollback list."""

    locators: list[CompositeId] = field(default_factory=list)
    contents: list[bytes] = field(default_factory=list)
    byte_lens: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.locators)

    def extend(self, locators, contents, byte_lens) -> None:
        self.locators += locators
        self.contents += contents
        self.byte_lens += byte_lens

    def prepend(self, run: "BlockColumns") -> None:
        self.locators[:0] = run.locators
        self.contents[:0] = run.contents
        self.byte_lens[:0] = run.byte_lens

    def take(self, cut: int) -> "BlockColumns":
        """Split off the first `cut` blocks; a cut past the end takes
        the columns whole."""
        if cut >= len(self.locators):
            head = BlockColumns(self.locators, self.contents, self.byte_lens)
            self.locators, self.contents, self.byte_lens = [], [], []
            return head
        head = BlockColumns(self.locators[:cut], self.contents[:cut], self.byte_lens[:cut])
        del self.locators[:cut], self.contents[:cut], self.byte_lens[:cut]
        return head


# the columns of a (locator, content, byte_len) inventory row
_ROW_LOCATOR = itemgetter(0)
_ROW_BYTE_LEN = itemgetter(2)


class LocatorView(Mapping):
    """Every locator -> digest pair of a `HashIndex`, read-only, over its
    per-nid maps: nid by nid, each in hashing order."""

    __slots__ = ("_by_nid",)

    def __init__(self, by_nid: dict[NodeId, dict[CompositeId, bytes]]) -> None:
        self._by_nid = by_nid

    def __getitem__(self, locator: CompositeId) -> bytes:
        return self._by_nid[locator.nid][locator]

    def __iter__(self):
        return chain.from_iterable(self._by_nid.values())

    def __len__(self) -> int:
        return sum(map(len, self._by_nid.values()))


class HashIndex:
    """One node's hash baseline: digest -> block locators, the pipeline
    that hashes into it and its failure conditions.

    A locator is the block's key in the node's store, its composite id.
    `by_nid` is the one locator map: locator -> digest, split by source
    nid so a session scoped to some nids walks only theirs, each in the
    order its blocks were hashed; `by_locator` is a read-only view of
    all of it. A by_digest value is the one locator that holds its
    digest, or a set of two or more locators when blocks share content
    (the baseline's dedup case), so unique content costs no set per
    block. `holder()` is the one way to read a value: a locator is a
    tuple, so `min()` or iteration over a lone one would see its fields.
    Every `by_nid` pair's digest is a by_digest key with that locator
    among its holders; a DR session relies on it to skip a nid whose two
    locator maps are equal (`sync.compute_delta_hash`). Stored blocks
    wait in the `pending` columns until `pipeline_tick` hashes them; a
    queue that is not empty is a stale index (condition
    1). `lag_bytes` is the queue's byte_len total, kept as blocks are
    queued, drained and rolled back. Work hashed or adopted since the
    last checkpoint sits in the `hashed_since_checkpoint` columns, which
    a crash rolls back into the queue (condition 2). `lost` marks a
    destroyed index store (condition 3). consistent_flag gates delta
    service; it is true only when the queue is empty and the store has
    not been lost.
    """

    def __init__(self) -> None:
        self.by_digest: dict[bytes, CompositeId | set[CompositeId]] = {}
        self.by_nid: dict[NodeId, dict[CompositeId, bytes]] = {}
        self.by_locator = LocatorView(self.by_nid)
        self.pending = BlockColumns()
        self.lag_bytes = 0
        self.hashed_since_checkpoint = BlockColumns()
        self.lost = False

    @property
    def stale(self) -> bool:
        """Stored blocks wait unhashed (condition 1, or 2 after a crash)."""
        return bool(self.pending)

    @property
    def consistent_flag(self) -> bool:
        return not self.lost and not self.pending

    @property
    def lag_blocks(self) -> int:
        return len(self.pending)

    def owed_bytes(self, inventory_bytes: int) -> int:
        """Bytes to hash before the index can be trusted: the whole
        inventory once the store is lost (condition 3), else the queued
        backlog (conditions 1 and 2; zero when consistent)."""
        return inventory_bytes if self.lost else self.lag_bytes

    def add_run(self, locators, digests) -> None:
        """Index each locator under its digest, pair by pair in order."""
        by_digest, by_nid = self.by_digest, self.by_nid
        held_by = by_digest.get
        nid = listed = None
        for locator, digest in zip(locators, digests):
            held = held_by(digest)
            if held is None:
                by_digest[digest] = locator
            elif type(held) is set:
                held.add(locator)
            elif held != locator:
                by_digest[digest] = {held, locator}
            if locator.nid != nid:  # runs mostly keep to one source nid
                nid = locator.nid
                listed = by_nid.get(nid)
                if listed is None:
                    listed = by_nid[nid] = {}
            listed[locator] = digest

    def enqueue(self, locators, contents, byte_lens) -> None:
        """Queue a run of stored blocks for hashing, in order; the three
        sequences are the run's columns."""
        self.pending.extend(locators, contents, byte_lens)
        self.lag_bytes += sum(byte_lens)

    def adopt(self, locators, digests, stored: BlockColumns) -> None:
        """Index a run of locators under the digests that travelled with
        them: nothing is hashed. `stored` holds the run's blocks that were
        stored, not bound as aliases, in run order; a crash before the
        next checkpoint rolls those back like hashed work."""
        self.add_run(locators, digests)
        self.hashed_since_checkpoint.extend(stored.locators, stored.contents, stored.byte_lens)

    def locators(self, nids=None) -> dict[NodeId, dict[CompositeId, bytes]]:
        """The per-nid locator maps of the given source nids, in the
        given order (every nid's when None), walked in place."""
        if nids is None:
            return self.by_nid
        by_nid = self.by_nid
        return {nid: by_nid[nid] for nid in nids if nid in by_nid}

    def remove(self, locator: CompositeId) -> None:
        listed = self.by_nid.get(locator.nid)
        digest = None if listed is None else listed.pop(locator, None)
        if digest is None:
            return
        held = self.by_digest.get(digest)
        if type(held) is set:
            held.discard(locator)
            if len(held) == 1:
                self.by_digest[digest] = held.pop()
        elif held == locator:
            del self.by_digest[digest]

    def holder(self, digest: bytes) -> CompositeId | None:
        """The least locator holding the digest, or None."""
        held = self.by_digest.get(digest)
        return min(held) if type(held) is set else held

    def mark_lost(self) -> None:
        self.by_digest.clear()
        self.by_nid.clear()
        self.lost = True


def pipeline_tick(index: HashIndex, hash_budget_bytes: int, meter=None) -> int:
    """Hash queued blocks until the byte budget is exhausted.

    The run hashed is the longest prefix of the queue whose byte_lens fit
    the budget: the tick stops at the first block that does not fit,
    and sums no byte_len past it. A budget that covers `lag_bytes` takes
    the queue's columns whole, with no cut to find; a smaller one also
    shifts the rest of the queue down its columns (one C memmove each).
    Each block is hashed by `payload_digest`, and the meter is charged
    once for the run: every block's byte_len, summed in queue order, and
    one hash op per block. Returns the number of blocks hashed this
    tick. Lag grows whenever ingestion outruns the budget.
    """
    if hash_budget_bytes < 0:
        raise ValueError("hash budget must be >= 0")
    pending = index.pending
    if hash_budget_bytes >= index.lag_bytes:
        cut = len(pending)
    else:
        fits = partial(ge, hash_budget_bytes)  # fits(total): total <= budget
        cut = len(list(takewhile(fits, accumulate(pending.byte_lens))))
    if not cut:
        return 0
    run = pending.take(cut)
    digests = list(map(payload_digest, run.contents))
    index.lag_bytes -= sum(run.byte_lens)
    if meter is not None:
        meter.charge_hash(*run.byte_lens, ops=cut)
    index.add_run(run.locators, digests)
    index.hashed_since_checkpoint.extend(run.locators, run.contents, run.byte_lens)
    return cut


def commit_checkpoint(index: HashIndex) -> None:
    """Mark everything hashed or adopted so far as durably consistent."""
    index.hashed_since_checkpoint = BlockColumns()


def crash_interrupt(index: HashIndex) -> int:
    """Condition 2: discard the incomplete index region.

    Blocks hashed or adopted since the last checkpoint are removed from
    the index and put back (in order) at the head of the queue for
    rehash. Returns the number of re-enqueued blocks.
    """
    rolled = index.hashed_since_checkpoint
    if not rolled:
        return 0
    for locator in rolled.locators:
        index.remove(locator)
    index.pending.prepend(rolled)
    index.lag_bytes += sum(rolled.byte_lens)
    index.hashed_since_checkpoint = BlockColumns()
    return len(rolled)


def rebuild_index(blocks, meter=None) -> tuple[HashIndex, MerkleTree]:
    """Condition 3 recovery: full hash scan of the inventory.

    `blocks` is an iterable of (locator, content, byte_len) in store
    order. Each block is hashed by `payload_digest`, and once the index
    and the tree over its digests are built the meter is charged once:
    every block's byte_len, summed in store order (virtual seconds =
    bytes/(H*C)), one hash op per block and per internal tree node, and
    one content read per block. Returns the index and the tree, which
    the index does not keep.
    """
    if not isinstance(blocks, list):  # read three times below
        blocks = list(blocks)
    digests = [payload_digest(content) for _, content, _ in blocks]
    index = HashIndex()
    index.add_run(map(_ROW_LOCATOR, blocks), digests)
    tree = merkle_build(digests)
    if meter is not None:
        meter.charge_hash(*map(_ROW_BYTE_LEN, blocks), ops=len(blocks) + tree.internal_node_count)
        meter.add_content_reads(len(blocks))
    return index, tree


def settle(index: HashIndex, blocks, aliases, meter=None) -> tuple[HashIndex, int]:
    """Pay what the index owes (`owed_bytes`) and commit its checkpoint.

    A lost index is rebuilt from `blocks` ((locator, content, byte_len)
    in store order); each (alias, kept) pair of `aliases` then takes its
    kept block's digest, which needs no rehash. Any other index drains
    its queue. Returns the consistent index (a new one after a rebuild)
    and the bytes hashed.
    """
    if index.lost:
        blocks = list(blocks)
        rebuilt, _tree = rebuild_index(blocks, meter)
        by_nid = rebuilt.by_nid
        rebuilt.add_run([alias for alias, _ in aliases],
                        [by_nid[kept.nid][kept] for _, kept in aliases])
        return rebuilt, sum(map(_ROW_BYTE_LEN, blocks))
    backlog = index.lag_bytes
    if index.pending:
        pipeline_tick(index, backlog, meter)
    commit_checkpoint(index)
    return index, backlog


def hash_delta(
    local: HashIndex, remote: HashIndex, ours=None, theirs=None
) -> tuple[list[CompositeId], list[CompositeId]]:
    """Digest-set symmetric difference mapped back to locators.

    Returns (missing_remote, missing_local): local locators whose digest
    the remote lacks, and remote locators whose digest the local lacks,
    nid by nid, each in the order its index hashed them. `ours`/`theirs`
    are the per-nid locator maps each side scans; by default its whole
    index. `sync.compute_delta_hash` passes only the nids whose two maps
    differ, and charges its meter for every listed locator itself, one
    membership check each. Raises
    InconsistentIndex unless both indexes are trustworthy; paying the
    rebuild/drain cost first is exactly the bottleneck under test.
    """
    if not local.consistent_flag or not remote.consistent_flag:
        raise InconsistentIndex("hash index stale, interrupted, or lost; rehash required")
    ours = local.by_nid if ours is None else ours
    theirs = remote.by_nid if theirs is None else theirs
    missing_remote = [loc for locs in ours.values() for loc, d in locs.items()
                      if d not in remote.by_digest]
    missing_local = [loc for locs in theirs.values() for loc, d in locs.items()
                     if d not in local.by_digest]
    return missing_remote, missing_local
