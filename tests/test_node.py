import struct
from bisect import bisect_right
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metadr.costs import CostMeter, CostModel
from metadr.crc32c import crc32c
from metadr.hashline import InconsistentIndex, hash_delta, payload_digest, pipeline_tick
from metadr.identity import (
    LCV_RESERVE,
    MAX_U64,
    LogicalClock,
    MemoryWal,
    NodeId,
    WalAppendFailure,
    WalCorruption,
    new_node_id,
    read_wal,
)
from metadr.index import ConflictingEntry
from metadr.node import (
    CorruptionDetected,
    ImmutabilityViolation,
    NodeDown,
    NodeStatus,
    NotFound,
    StorageNode,
)
from metadr.sync import Cluster, converge, ensure_baseline_consistent, sync_pair_hash


def fresh_node(seed=1, **kwargs):
    return StorageNode(new_node_id(Random(seed)), **kwargs)


# -- ingestion ----------------------------------------------------------------


def test_first_ingest_on_fresh_node():
    node = fresh_node()
    cid = node.ingest([b"hello world"], ["k0"])[0]
    assert cid.lcv == 1
    assert node.id_index.entry_count == 1


def test_many_ingests_distinct_ids_and_zero_hash_ops(sha256_calls):
    node = fresh_node(baseline=True)
    seen = set()
    for start in range(0, 100_000, 1_000):
        for cid in node.ingest([(256, i) for i in range(start, start + 1_000)]):
            assert (cid.nid, cid.lcv) not in seen
            seen.add((cid.nid, cid.lcv))
    assert len(seen) == 100_000
    # identification never hashes: the only permissible hashing lives in
    # the baseline pipeline and in Layer-2 dedup
    assert sha256_calls == []
    assert node.baseline.lag_blocks == 100_000  # nothing drained yet
    assert node.counters.lcv_order_violations == 0


def test_ingest_rejected_when_down():
    node = fresh_node()
    node.crash()
    with pytest.raises(NodeDown):
        node.ingest([b"x"])


@pytest.mark.parametrize("payload", [b"", (0, 7)], ids=["empty-bytes", "zero-length-virtual"])
def test_zero_length_ingest_is_rejected_and_leaves_no_trace(payload):
    node = fresh_node(baseline=True)
    node.ingest([b"kept"], ["k"])
    floor, wal = node.clock.floor, node.wal.data()
    with pytest.raises(ValueError):
        node.ingest([payload], ["k2"])
    assert list(node.block_store) == [node.by_user_key["k"]]
    assert node.id_index.entry_count == 1
    assert node.by_user_key == {"k": node.by_user_key["k"]}
    assert node.baseline.lag_blocks == 1
    assert (node.clock.floor, node.wal.data()) == (floor, wal)
    assert node.scrub(10).clean and node.physical_bytes == 4


def test_virtual_ingest_charges_zero_hash_seconds(sha256_calls):
    node = fresh_node()
    node.ingest([(4096, 1)])
    assert sha256_calls == []


# -- runs ----------------------------------------------------------------------------


def columns(run):
    """A copy of a `BlockColumns` run: its columns grow in place."""
    return list(run.locators), list(run.contents), list(run.byte_lens)


def node_state(node):
    """What an ingest or replicate_in run can change on a node, in an
    order-sensitive, comparable form."""
    baseline = node.baseline
    return (
        node.clock.floor,
        node.clock.ceiling,
        node.wal.data(),
        list(node.block_store.items()),
        list(node.indirection_table.items()),
        node.id_index.entries(),
        node.by_user_key,
        columns(baseline.pending),
        baseline.lag_bytes,
        columns(baseline.hashed_since_checkpoint),
        {nid: list(listed.items()) for nid, listed in baseline.by_nid.items()},
        baseline.by_digest,
        node.counters.lcv_order_violations,
        node.counters.immutability_violations,
    )


def twins(nid_byte):
    return [StorageNode(NodeId(bytes([nid_byte]) * 16), baseline=True) for _ in range(2)]


# bytes and virtual payloads, with equal contents and repeated keys likely
_PAYLOAD = st.one_of(
    st.binary(min_size=1, max_size=40),
    st.tuples(st.integers(1, 64) | st.just(MAX_U64), st.integers(0, 3) | st.just(MAX_U64)),
)
_KEY = st.none() | st.sampled_from("abc")
_BLOCKS = st.lists(st.tuples(_PAYLOAD, _KEY), max_size=40)


@pytest.mark.parametrize(
    "bad", [(2**64, 7), (-1, 7), (64, 2**64), (64, -1), (64, 1.5), (0, 7), b""],
    ids=["len-2**64", "len-negative", "seed-2**64", "seed-negative", "seed-float",
         "len-zero", "empty-bytes"],
)
def test_a_run_with_one_bad_payload_is_rejected_and_leaves_no_trace(bad):
    node = fresh_node(baseline=True)
    node.ingest([b"kept"], ["k"])
    before = node_state(node)
    with pytest.raises(ValueError):
        node.ingest([(64, 1), bad, b"after"], ["k", "k2", None])
    assert node_state(node) == before


@settings(max_examples=100, deadline=None)
@given(
    lead=st.integers(0, 8) | st.integers(LCV_RESERVE - 40, LCV_RESERVE),
    blocks=_BLOCKS,
    failure=st.none() | st.just("lost") | st.tuples(st.just("torn"), st.integers(0, 15)),
)
def test_an_ingest_run_equals_the_same_blocks_in_runs_of_one(lead, blocks, failure):
    # a lead near LCV_RESERVE makes the run cross into the next
    # reservation, where a failing WAL append stops it part way
    run, single = twins(5)
    for node in (run, single):
        node.ingest([(64, i) for i in range(lead)])
        node.wal.fail_next_append = failure
    singles, single_error = [], None
    for payload, key in blocks:
        try:
            singles += single.ingest([payload], [key])
        except WalAppendFailure as exc:
            single_error = exc
            break
    try:
        ids = run.ingest([payload for payload, _ in blocks], [key for _, key in blocks])
    except WalAppendFailure as exc:
        assert single_error is not None, f"the run failed alone: {exc}"
    else:
        assert single_error is None and ids == singles
    assert node_state(run) == node_state(single)


@settings(max_examples=100, deadline=None)
@given(
    blocks=_BLOCKS.filter(bool),
    held=st.sets(st.integers(0, 39)),
    picks=st.lists(st.integers(0, 39), min_size=1, max_size=40),
    conflict=st.none() | st.integers(0, 39),
    adopt=st.booleans(),
)
def test_a_replicate_in_run_equals_the_same_entries_in_runs_of_one(
    blocks, held, picks, conflict, adopt
):
    source = StorageNode(NodeId(b"\x01" * 16))
    source.ingest([payload for payload, _ in blocks], [key for _, key in blocks])
    entries = source.id_index.entries()
    n = len(entries)
    # any order, repeats allowed, and some ids already held
    entries_run = [entries[i % n] for i in picks]
    held = {i % n for i in held}
    if conflict is not None:  # same id as an entry held, other metadata
        k = conflict % len(entries_run)
        entries_run[k] = entries_run[k]._replace(crc=entries_run[k].crc ^ 1)
        held.add(picks[k] % n)
    contents = source.stored_blocks([entry.id for entry in entries_run])
    digests = list(map(payload_digest, contents))
    digests = digests if adopt else None
    run, single = twins(2)
    for node in (run, single):
        prior = [entries[i] for i in sorted(held)]
        node.replicate_in(prior, source.stored_blocks([entry.id for entry in prior]))
    single_error = None
    for i, entry in enumerate(entries_run):
        try:
            single.replicate_in([entry], [contents[i]], digests and [digests[i]])
        except ConflictingEntry as exc:
            single_error = exc
            break
    try:
        run.replicate_in(entries_run, contents, digests)
    except ConflictingEntry:
        assert single_error is not None
    else:
        assert single_error is None
    assert node_state(run) == node_state(single)


# -- mutation and immutability ---------------------------------------------------


def test_mutate_assigns_fresh_higher_id():
    node = fresh_node()
    first = node.ingest([b"v1"], ["key"])[0]
    second = node.ingest([b"v2"], ["key"])[0]
    assert second.lcv > first.lcv
    assert node.read("key") == b"v2"
    assert node.read_verify(first) == b"v1"  # prior block untouched


def test_key_written_on_two_nodes_reads_the_same_on_both():
    # a: higher lcv, lower nid. b receives a's write before writing the
    # key itself, a receives b's write after: both must pick a's version
    a = StorageNode(NodeId(b"\x01" * 16))
    b = StorageNode(NodeId(b"\x02" * 16))
    for i in range(4):
        a.ingest([f"filler {i}".encode()])
    a.ingest([b"from a"], ["k"])
    for entry in a.id_index.entries_above(a.nid, 0):
        b.replicate_in([entry], a.stored_blocks([entry.id]))
    b.ingest([b"from b"], ["k"])
    for entry in b.id_index.entries_above(b.nid, 0):
        a.replicate_in([entry], b.stored_blocks([entry.id]))
    assert a.read("k") == b.read("k") == b"from a"


def test_in_place_overwrite_raises():
    node = fresh_node()
    cid = node.ingest([b"original"])[0]
    with pytest.raises(ImmutabilityViolation):
        node.bind_blocks([cid], [b"evil!"])
    assert node.counters.immutability_violations == 1


def test_replicating_a_known_id_with_other_metadata_conflicts():
    source, replica = fresh_node(1), fresh_node(2, baseline=True)
    cid = source.ingest([b"original"])[0]
    entry = source.id_index.get(cid)
    replica.replicate_in([entry], [b"original"])
    replica.replicate_in([entry], [b"original"])  # the same entry again: a no-op
    forged = entry._replace(crc=entry.crc ^ 1)
    with pytest.raises(ConflictingEntry):
        replica.replicate_in([forged], [b"forged!!"])
    with pytest.raises(ConflictingEntry):  # with its digest, as a hash sync sends it
        replica.replicate_in([forged], [b"original"], [payload_digest(b"original")])
    assert replica.id_index.entry_count == 1
    assert replica.read_verify(cid) == b"original"


def test_replicating_a_known_id_with_another_user_key_conflicts():
    source, replica = fresh_node(1), fresh_node(2, baseline=True)
    cid = source.ingest([b"original"], ["k1"])[0]
    entry = source.id_index.get(cid)
    replica.replicate_in([entry], [b"original"])
    forged = entry._replace(user_key="k2")  # same id, crc and byte_len
    with pytest.raises(ConflictingEntry):
        replica.replicate_in([forged], [b"original"])
    with pytest.raises(ConflictingEntry):
        replica.replicate_in([forged], [b"original"], [payload_digest(b"original")])
    assert replica.by_user_key == {"k1": cid}
    assert replica.id_index.get(cid) is entry


# -- reads, integrity, scrubbing ---------------------------------------------------


def test_read_verify_roundtrip():
    node = fresh_node()
    cid = node.ingest([b"some payload bytes"])[0]
    assert node.read_verify(cid) == b"some payload bytes"
    # a virtual block reads back as its packed descriptor
    cid = node.ingest([(4096, 17)])[0]
    assert node.read_verify(cid) == struct.pack(">QQ", 4096, 17)


def test_stored_blocks_read_aliases_and_aliases_of_aliases():
    # peer's ids sort below node's, so an alias is the least holder of its digest
    node = StorageNode(NodeId(b"\x02" * 16), baseline=True)
    peer = StorageNode(NodeId(b"\x01" * 16), baseline=True)
    own = node.ingest([f"own:{i}".encode() for i in range(6)])
    foreign = peer.ingest([f"own:{i % 3}".encode() for i in range(5)])
    for n in (node, peer):
        ensure_baseline_consistent(n)
    # the first three alias own blocks; the fourth, sent in a later run,
    # finds its digest's least holder is the alias foreign[0]
    for run in (foreign[:3], foreign[3:4]):
        node.replicate_in(list(map(peer.id_index.get, run)), peer.stored_blocks(run),
                          list(map(peer.baseline.by_locator.__getitem__, run)))
    assert node.indirection_table == {
        foreign[0]: own[0], foreign[1]: own[1], foreign[2]: own[2], foreign[3]: own[0]}
    content = dict(zip(own + foreign, node.stored_blocks(own) + peer.stored_blocks(foreign)))
    ids = own + foreign[:4]
    for order in range(4):
        Random(order).shuffle(ids)
        for run in (ids, [cid for cid in ids if cid in own], ids[:1], []):
            assert node.stored_blocks(run) == [content[cid] for cid in run]
    assert node.read_verify(foreign[3]) == b"own:0"
    for run in ([foreign[4]], [own[0], foreign[4]]):
        with pytest.raises(KeyError):
            node.stored_blocks(run)  # neither stored nor an alias


def test_corruption_detected_on_read():
    node = fresh_node()
    for payload in (b"precious data", (4096, 17)):
        cid = node.ingest([payload])[0]
        node.corrupt_block(cid)
        with pytest.raises(CorruptionDetected):
            node.read_verify(cid)


def test_crc_vector_used_for_blocks():
    node = fresh_node()
    cid = node.ingest([b"123456789"])[0]
    assert node.id_index.get(cid).crc == 0xCBF43926 == crc32c(b"123456789")


def test_read_unknown_id():
    node = fresh_node()
    with pytest.raises(NotFound):
        node.read_verify(type(node.ingest([b"x"])[0])(node.nid, 999, 0))


def test_scrub_clean_store():
    node = fresh_node()
    for i in range(20):
        node.ingest([f"block {i}".encode()])
    assert node.scrub(100).clean


def test_scrub_finds_injected_corruptions():
    node = fresh_node()
    ids = node.ingest([f"block {i}".encode() for i in range(50)])
    ids += node.ingest([(4096, i) for i in range(50)])
    for cid in (ids[3], ids[17], ids[42], ids[61], ids[88]):
        node.corrupt_block(cid)
    report = node.scrub(1000)
    assert [key for key, _, _ in report.findings] == [ids[3], ids[17], ids[42], ids[61], ids[88]]


@pytest.mark.parametrize("bound_by", ["layer2", "hash_sync"])
def test_scrub_reports_every_id_that_reads_a_corrupt_block(bound_by):
    # each id the indirection table binds to a corrupt stored block reads
    # its bad bytes, so each is a finding, after the stored block's own
    if bound_by == "layer2":
        node = fresh_node()
        ids = node.ingest([b"same bytes"] * 3)
        assert node.dedup_pass(10) == 2
    else:
        node, peer = (StorageNode(NodeId(bytes([k]) * 16), baseline=True) for k in (1, 2))
        ids = [n.ingest([bytes(64)])[0] for n in (node, peer)]
        converge(Cluster([node, peer]), node.nid, peer.nid)
        assert node.indirection_table == {ids[1]: ids[0]}
    node.corrupt_block(ids[0])
    found = crc32c(node.block_store[ids[0]])
    expected = [(cid, node.id_index.get(cid).crc, found) for cid in ids]
    assert node.scrub(10).findings == expected
    for cid in ids:
        with pytest.raises(CorruptionDetected):
            node.read_verify(cid)


def test_scrub_zero_budget():
    node = fresh_node()
    node.ingest([b"x"])
    before = node._scrub_cursor
    report = node.scrub(0)
    assert report.clean and node._scrub_cursor == before


def test_scrub_round_robin_covers_store_across_calls():
    node = fresh_node()
    ids = node.ingest([f"b{i}".encode() for i in range(10)])
    node.corrupt_block(ids[7])
    findings = []
    for _ in range(5):
        findings += node.scrub(2).findings
    assert len(findings) == 1


def test_scrub_at_width_matches_per_block_reference():
    # wide enough that each window reaches the lane-parallel CRC kernel
    node = fresh_node()
    ids = node.ingest([(4096, i) for i in range(2500)])
    ids += node.ingest([bytes([i]) * 64 for i in range(40)])
    ids += node.ingest([(4096, i) for i in range(2500, 5000)])
    # one nid, so index order is ingest order
    assert [entry.id for entry in node.id_index.entries()] == ids
    n = len(ids)
    # first, last, and both sides of the cursor after the first wrap
    # (4 x 1,500 = 6,000 = n + 960)
    corrupted = {ids[0], ids[-1], ids[959], ids[960], ids[2520]}
    for cid in corrupted:
        node.corrupt_block(cid)

    position = 0
    scanned = 0
    found_keys = set()
    while scanned < 2 * n:
        expected = []
        for i in range(1500):
            key = ids[(position + i) % n]
            crc = node.id_index.get(key).crc
            found = crc32c(node.block_store[key])
            if found != crc:
                expected.append((key, crc, found))
        last = ids[(position + 1499) % n]
        position = (position + 1500) % n
        scanned += 1500
        report = node.scrub(1500)
        assert report.findings == expected
        assert node._scrub_cursor == (last.nid, last.lcv)
        found_keys.update(key for key, _, _ in report.findings)
    assert found_keys == corrupted


def test_scrub_walks_index_order_across_inserts_and_aliases():
    node, low, high = (fresh_node(seed, baseline=seed == 1) for seed in (1, 2, 3))
    assert low.nid < node.nid < high.nid  # foreign runs on both sides of its own
    foreign_ids = {
        f: f.ingest([f"{f.nid.hex()}:{i}".encode() for i in range(40)]) for f in (low, high)
    }
    own = node.ingest([f"own:{i}".encode() for i in range(20)])
    ensure_baseline_consistent(node)
    own_digest = node.baseline.by_locator[own[0]]

    def replicate(source, cid):
        node.replicate_in([source.id_index.get(cid)], source.stored_blocks([cid]))

    def alias(source, cid):  # sent with own[0]'s digest, it binds to own[0]
        node.replicate_in([source.id_index.get(cid)], source.stored_blocks([cid]), [own_digest])

    # even lcvs now; the odd ones arrive later, between scrubs
    for f, cids in foreign_ids.items():
        for cid in cids[::2]:
            (alias if cid.lcv % 10 == 0 else replicate)(f, cid)
    pending = [(f, cid) for f, cids in foreign_ids.items() for cid in cids[1::2]]
    Random(5).shuffle(pending)

    def corrupt_all_new():
        for key in list(node.block_store):
            if key not in corrupted:
                node.corrupt_block(key)
                corrupted.add(key)

    corrupted = set()
    corrupt_all_new()  # so every checked block is a finding
    cursor = (b"", 0)
    rounds = [[]]
    round_start = [set(node.block_store)]
    for step in range(60):
        budget = 1 + step % 13
        # per-entry reference: the next `budget` stored blocks after the
        # cursor in (nid, lcv) order, wrapping around
        order = [e for e in node.id_index.entries() if e.id in node.block_store]
        keys = [(e.id.nid, e.id.lcv) for e in order]
        start = bisect_right(keys, cursor)
        window = [order[(start + i) % len(order)] for i in range(min(budget, len(order)))]
        expected = [(e.id, e.crc, crc32c(node.block_store[e.id])) for e in window]
        report = node.scrub(budget)
        assert report.findings == expected
        for i, entry in enumerate(window):
            if (start + i) % len(order) == 0 and (i or cursor != (b"", 0)):
                rounds.append([])
                round_start.append(set(node.block_store))
            rounds[-1].append(entry.id)
        cursor = (window[-1].id.nid, window[-1].id.lcv)
        assert node._scrub_cursor == cursor
        # inserts between calls land before and after the cursor
        for f, cid in pending[step * 2 : step * 2 + 2]:
            replicate(f, cid)
        node.ingest([f"own:late:{step}".encode()])
        corrupt_all_new()
    assert len(rounds) >= 3
    for checked, stored in zip(rounds[:-1], round_start):
        assert len(checked) == len(set(checked))  # exactly once per round
        assert stored <= set(checked)
    assert not any(key in node.indirection_table for checked in rounds for key in checked)


# -- crash / restart lifecycle ------------------------------------------------------


def test_crash_restart_preserves_index_and_monotonicity():
    node = fresh_node()
    ids = node.ingest([f"d{i}".encode() for i in range(10)])
    node.crash()
    node.restart("none")
    assert node.pending_wal_replays == 1  # a failback charges it
    assert node.id_index.entry_count == 10
    nxt = node.ingest([b"after restart"])[0]
    assert nxt.lcv > max(c.lcv for c in ids)


def test_torn_crash_burns_value_and_never_reuses():
    node = fresh_node()
    exposed = [node.ingest([f"d{i}".encode()])[0].lcv for i in range(5)]
    node.crash(torn_wal_bytes=9)
    node.restart("none")
    nxt = node.ingest([b"next"])[0]
    assert nxt.lcv not in exposed
    assert nxt.lcv > max(exposed)


def test_torn_crash_tears_the_next_reservation():
    node = fresh_node()
    exposed = [node.ingest([f"d{i}".encode()])[0].lcv for i in range(5)]
    node.crash(torn_wal_bytes=12)  # the torn record's ceiling field lands
    assert read_wal(node.wal.data()) == ([LCV_RESERVE], 2 * LCV_RESERVE)
    node.restart("none")
    assert node.ingest([b"next"])[0].lcv == 2 * LCV_RESERVE + 1 > max(exposed)


def test_torn_crash_with_every_lcv_reserved_leaves_the_log_as_it_was():
    node = fresh_node()
    node.clock = LogicalClock(node.wal, floor=MAX_U64 - 1)
    assert node.ingest([b"last"])[0].lcv == MAX_U64  # logs the ceiling 2**64 - 1
    logged = node.wal.data()
    node.crash(torn_wal_bytes=9)  # no reservation is left to tear
    assert node.status is NodeStatus.CRASHED
    assert node.wal.fail_next_append is None
    assert node.wal.data() == logged
    node.restart("none")
    assert node.clock.floor == MAX_U64


def test_crash_passes_on_a_wal_error_other_than_the_torn_append():
    class FailingWal(MemoryWal):
        def _write(self, data):
            raise OSError("log device gone")

    node = StorageNode(new_node_id(Random(1)), FailingWal())
    with pytest.raises(OSError, match="log device gone"):
        node.crash(torn_wal_bytes=9)


def test_index_loss_gates_baseline_until_rebuild():
    a = fresh_node(seed=1, baseline=True)
    b = fresh_node(seed=2, baseline=True)
    for node in (a, b):
        for i in range(10):
            node.ingest([(64, i)])
        ensure_baseline_consistent(node)
    hash_delta(a.baseline, b.baseline)  # serviceable
    a.crash()
    a.restart("index_loss")
    with pytest.raises(InconsistentIndex):
        hash_delta(a.baseline, b.baseline)
    ensure_baseline_consistent(a)
    hash_delta(a.baseline, b.baseline)


def test_pipeline_crash_fault_reenqueues():
    node = fresh_node(baseline=True)
    for i in range(30):
        node.ingest([(64, i)])
    ensure_baseline_consistent(node)  # the drain commits the checkpoint
    for i in range(30, 35):
        node.ingest([(64, i)])
    pipeline_tick(node.baseline, 5 * 64)  # hashed past the checkpoint
    node.crash()
    node.restart("pipeline_crash")
    assert node.baseline.lag_blocks == 5  # only the work since the drain
    assert len(node.baseline.by_locator) == 30


def test_a_failed_restart_leaves_the_node_crashed_and_restartable():
    node = fresh_node()
    node.ingest([(64, i) for i in range(2 * LCV_RESERVE + 1)])  # three ceiling records
    node.crash()
    sound = node.wal.data()
    damaged = bytearray(sound)
    damaged[8] ^= 0x01  # inside the first record's ceiling, far from the tail
    node.wal.rewrite(bytes(damaged))
    clock, floor, ceiling = node.clock, node.clock.floor, node.clock.ceiling
    with pytest.raises(WalCorruption):
        node.restart("none")
    assert node.status is NodeStatus.CRASHED
    assert node.clock is clock and (clock.floor, clock.ceiling) == (floor, ceiling)
    assert node.wal.data() == bytes(damaged)
    assert node.pending_wal_replays == 0
    node.wal.rewrite(sound)
    node.restart("none")
    assert node.status is NodeStatus.UP and node.pending_wal_replays == 1
    assert node.ingest([b"after"])[0].lcv == 3 * LCV_RESERVE + 1


def test_invalid_lifecycle_transitions():
    node = fresh_node()
    with pytest.raises(RuntimeError):
        node.restart("none")
    node.crash()
    with pytest.raises(RuntimeError):
        node.crash()
    with pytest.raises(ValueError):
        node.restart("bogus_fault")


# -- layer 2 dedup ----------------------------------------------------------------


def test_dedup_consolidates_identical_content():
    node = fresh_node()
    a = node.ingest([b"same bytes"])[0]
    b = node.ingest([b"same bytes"])[0]
    before = node.physical_block_count
    consolidated = node.dedup_pass(100)
    assert consolidated == 1
    assert node.physical_block_count == before - 1
    assert node.read_verify(a) == node.read_verify(b) == b"same bytes"


def test_dedup_on_distinct_content_does_nothing():
    node = fresh_node()
    for i in range(20):
        node.ingest([f"unique {i}".encode()])
    assert node.dedup_pass(100) == 0


def test_dedup_recovers_duplicate_share():
    rng = Random(77)
    node = fresh_node()
    uniques = 0
    for i in range(1000):
        if rng.random() < 0.10 and i > 0:
            payload = f"content {rng.randrange(uniques)}".encode()
        else:
            payload = f"content {uniques}".encode()
            uniques += 1
        node.ingest([payload])
    before = node.physical_block_count
    node.dedup_pass(10_000)
    recovered = (before - node.physical_block_count) / before
    assert 0.05 <= recovered <= 0.15  # moderate-redundancy band


def test_dedup_refuses_during_dr():
    node = fresh_node()
    node.ingest([b"dup"])
    node.ingest([b"dup"])
    node.dr_active = True
    assert node.dedup_pass(10) == 0
    assert node.dedup_deferrals == 1
    assert node.physical_block_count == 2
    node.dr_active = False
    assert node.dedup_pass(10) == 1


def test_dedup_transparent_to_reads():
    node = fresh_node()
    ids = node.ingest([b"payload" for _ in range(5)])
    contents_before = [node.read_verify(c) for c in ids]
    node.dedup_pass(100)
    assert [node.read_verify(c) for c in ids] == contents_before


def test_deduplicated_id_replicates_under_its_own_id():
    a, b = fresh_node(seed=1), fresh_node(seed=2)
    first = a.ingest([b"same bytes"])[0]
    second = a.ingest([b"same bytes"])[0]
    assert a.dedup_pass(10) == 1
    for entry in a.id_index.entries_above(a.nid, 0):
        b.replicate_in([entry], a.stored_blocks([entry.id]))
    assert list(b.inventory()) == [(first, b"same bytes", 10), (second, b"same bytes", 10)]
    assert b.read_verify(second) == b"same bytes"


def test_dedup_keeps_a_hash_sync_alias_on_a_stored_block():
    low, node, peer = (StorageNode(NodeId(bytes([k]) * 16), baseline=True) for k in (1, 2, 3))
    node.ingest([b"same bytes"])
    assert node.dedup_pass(10) == 0  # node's own copy is the one kept
    replica = low.id_index.get(low.ingest([b"same bytes"])[0])
    node.replicate_in([replica], [b"same bytes"])
    alias = peer.ingest([b"same bytes"])[0]
    # the hash sync binds peer's id to the lowest id holding the digest: low's
    cluster = Cluster([node, peer])
    sync_pair_hash(cluster, node, peer,
                   scope_nids=cluster.scope(peer.nid, cluster.hosted[node.nid]))
    assert node.indirection_table == {alias: replica.id}
    assert node.dedup_pass(10) == 1  # low's copy goes behind node's own
    assert node.read_verify(alias) == b"same bytes"
    assert set(node.indirection_table.values()) <= set(node.block_store)
    node.crash()
    node.restart("index_loss")
    ensure_baseline_consistent(node)
    assert node.baseline.by_locator[alias] == node.baseline.by_locator[replica.id]


def test_dedup_work_charged_to_the_callers_meter():
    # on the meter's own model: 500 + 1,500 modeled bytes at 1e6 B/s on
    # each of 16 cores
    node = fresh_node()
    node.ingest([b"x" * 500, (1500, 7)])
    node.ingest([b"x" * 500])
    meter = CostMeter(CostModel(hash_throughput=1e6))
    assert node.dedup_pass(2, meter) == 0
    assert (meter.hash_ops, meter.hashed_bytes) == (2, 2000)
    assert meter.t_hash == pytest.approx(1.25e-04)
    assert node.dedup_pass(1) == 1  # no meter, nothing charged
    assert meter.hash_ops == 2


@pytest.mark.parametrize("hasher", ["drain", "rebuild", "dedup"])
def test_charged_hash_ops_equal_the_sha256_calls_made(hasher, sha256_calls):
    # every hasher charges its meter one op per SHA-256 call it makes,
    # and the byte_len of each block it hashed
    node = fresh_node(baseline=True)
    byte_lens = [64 + i % 7 for i in range(37)]
    node.ingest([(n, i % 5) for i, n in enumerate(byte_lens)])
    if hasher != "drain":
        ensure_baseline_consistent(node)
    if hasher == "rebuild":
        node.baseline.mark_lost()
    sha256_calls.clear()
    meter = CostMeter(CostModel())
    if hasher == "dedup":
        node.dedup_pass(20, meter)
        byte_lens = byte_lens[:20]
    else:
        ensure_baseline_consistent(node, meter)
    hashed = {"drain": 37, "rebuild": 37 + 36, "dedup": 20}[hasher]
    assert meter.hash_ops == len(sha256_calls) == hashed
    assert meter.hashed_bytes == sum(byte_lens)


def test_dedup_never_aliases_a_block_to_a_corrupt_kept_copy():
    node = fresh_node()
    first = node.ingest([b"same bytes"])[0]
    assert node.dedup_pass(10) == 0
    node.corrupt_block(first)
    second = node.ingest([b"same bytes"])[0]
    assert node.dedup_pass(10) == 0  # the corrupt copy is not kept
    assert node.read_verify(second) == b"same bytes"
    with pytest.raises(CorruptionDetected):
        node.read_verify(first)
    third = node.ingest([b"same bytes"])[0]
    assert node.dedup_pass(10) == 1  # behind the good copy that replaced it
    assert node.indirection_table == {third: second}
    assert node.read_verify(third) == b"same bytes"


def test_dedup_moves_no_corrupt_block_behind_a_good_copy():
    # corruption turns the kept copy of b"\x00x" into b"\xffx", the bytes
    # of another kept copy: it stays stored, and so does a later b"\x00x"
    node = fresh_node()
    first, other = node.ingest([b"\x00x", b"\xffx"])
    assert node.dedup_pass(10) == 0
    node.corrupt_block(first)
    assert node.dedup_pass(10) == 0
    again = node.ingest([b"\x00x"])[0]
    assert node.dedup_pass(10) == 0
    assert node.indirection_table == {}
    assert node.read_verify(again) == b"\x00x"
    assert node.read_verify(other) == b"\xffx"
    with pytest.raises(CorruptionDetected):
        node.read_verify(first)


def test_dedup_walk_follows_the_index_as_the_store_shrinks():
    # 30 blocks over 10 contents: each pass of 10 walks the next 10
    # blocks, however many the last pass consolidated
    node = fresh_node()
    ids = node.ingest([f"content {i % 10}".encode() for i in range(30)])
    assert [node.dedup_pass(10) for _ in range(3)] == [0, 10, 10]
    assert node.physical_block_count == 10
    assert [node.read_verify(cid) for cid in ids] == [
        f"content {i % 10}".encode() for i in range(30)]


_DUP_PAYLOAD = st.sampled_from([b"a", b"bb", b"ccc", (64, 1), (4096, 1)])
_DEDUP_STEP = st.one_of(
    st.tuples(st.just("ingest"), st.lists(_DUP_PAYLOAD, min_size=1, max_size=5)),
    st.tuples(st.just("replicate"), st.sampled_from([1, 3]),
              st.lists(_DUP_PAYLOAD, min_size=1, max_size=5), st.booleans()),
    st.tuples(st.just("drain")),
    st.tuples(st.just("dedup"), st.integers(0, 4)),
)


def _content(payload):
    return payload if isinstance(payload, bytes) else struct.pack(">QQ", *payload)


@settings(max_examples=100, deadline=None)
@given(steps=st.lists(_DEDUP_STEP, max_size=25), budget=st.integers(1, 4))
def test_dedup_keeps_every_id_reading_its_bytes(steps, budget):
    # peers sort on either side of the node, so replicated ids land before
    # and after its own in the walk, and a hash-sync run aliases digests
    node = StorageNode(NodeId(b"\x02" * 16), baseline=True)
    peers = {k: StorageNode(NodeId(bytes([k]) * 16)) for k in (1, 3)}
    original = {}

    def check():
        ids = node.id_index.ids()
        assert node.stored_blocks(ids) == [original[cid] for cid in ids]
        assert all(node.read_verify(cid) == original[cid] for cid in ids)
        assert set(node.indirection_table.values()) <= set(node.block_store)

    for step in steps:
        if step[0] == "ingest":
            ids = node.ingest(step[1])
            original.update(zip(ids, map(_content, step[1])))
        elif step[0] == "replicate":
            _, k, payloads, with_digests = step
            ids = peers[k].ingest(payloads)
            entries = list(map(peers[k].id_index.get, ids))
            contents = peers[k].stored_blocks(ids)
            digests = None
            if with_digests:
                digests = list(map(payload_digest, contents))
            node.replicate_in(entries, contents, digests)
            original.update(zip(ids, contents))
        elif step[0] == "drain":
            ensure_baseline_consistent(node)
        else:
            node.dedup_pass(step[1])
        check()
    # one full round of small passes leaves one stored copy per content
    walked, stored = 0, node.physical_block_count
    while walked < stored:
        walked += min(budget, node.physical_block_count)
        node.dedup_pass(budget)
        check()
    contents = list(node.block_store.values())
    assert len(set(contents)) == len(contents)


def test_storage_amplification_without_dedup():
    # same content on two nodes: two physical copies under id-based
    # identification, one logical digest under the baseline
    a = fresh_node(seed=1, baseline=True)
    b = fresh_node(seed=2, baseline=True)
    a.ingest([b"shared content"])
    b.ingest([b"shared content"])
    ensure_baseline_consistent(a)
    ensure_baseline_consistent(b)
    assert a.id_index.ids() != b.id_index.ids()  # distinct identities
    assert a.physical_block_count + b.physical_block_count == 2
    digests = set(a.baseline.by_digest) | set(b.baseline.by_digest)
    assert len(digests) == 1
