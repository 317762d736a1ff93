from random import Random

import pytest

from metadr.crc32c import crc32c
from metadr.hashline import InconsistentIndex, hash_delta
from metadr.identity import NodeId, new_node_id
from metadr.node import (
    Block,
    CorruptionDetected,
    ImmutabilityViolation,
    NodeDown,
    NotFound,
    StorageNode,
)
from metadr.sync import ensure_baseline_consistent


def fresh_node(seed=1, **kwargs):
    return StorageNode(new_node_id(Random(seed)), **kwargs)


# -- ingestion ----------------------------------------------------------------


def test_first_ingest_on_fresh_node():
    node = fresh_node()
    cid = node.ingest(b"hello world", user_key="k0")
    assert cid.lcv == 1
    assert node.id_index.entry_count == 1


def test_many_ingests_distinct_ids_and_zero_hash_ops():
    node = fresh_node(baseline=True)
    seen = set()
    for i in range(100_000):
        cid = node.ingest((256, i))
        assert (cid.nid, cid.lcv) not in seen
        seen.add((cid.nid, cid.lcv))
    # identification never hashes: the only permissible hashing lives in
    # the baseline pipeline and the background dedup meter
    assert node.counters.background_hash_ops == 0
    assert node.baseline.pipeline.hashed == 0  # nothing drained yet
    assert node.counters.lcv_order_violations == 0


def test_ingest_rejected_when_down():
    node = fresh_node()
    node.crash()
    with pytest.raises(NodeDown):
        node.ingest(b"x")


def test_virtual_ingest_charges_zero_hash_seconds():
    node = fresh_node()
    node.ingest((4096, 1))
    assert node.counters.background_hash_ops == 0


# -- mutation and immutability ---------------------------------------------------


def test_mutate_assigns_fresh_higher_id():
    node = fresh_node()
    first = node.ingest(b"v1", user_key="key")
    second = node.mutate("key", b"v2")
    assert second.lcv > first.lcv
    assert node.read("key") == b"v2"
    assert node.read_verify(first) == b"v1"  # prior block untouched


def test_key_written_on_two_nodes_reads_the_same_on_both():
    # a: higher lcv, lower nid. b receives a's write before writing the
    # key itself, a receives b's write after: both must pick a's version
    a = StorageNode(NodeId(b"\x01" * 16))
    b = StorageNode(NodeId(b"\x02" * 16))
    for i in range(4):
        a.ingest(f"filler {i}".encode())
    a.ingest(b"from a", user_key="k")
    for entry in a.id_index.entries_above(a.nid, 0):
        b.replicate_in(entry, a.block_store[entry.location])
    b.ingest(b"from b", user_key="k")
    for entry in b.id_index.entries_above(b.nid, 0):
        a.replicate_in(entry, b.block_store[entry.location])
    assert a.read("k") == b.read("k") == b"from a"


def test_in_place_overwrite_raises():
    node = fresh_node()
    cid = node.ingest(b"original")
    entry = node.id_index.get(cid)
    with pytest.raises(ImmutabilityViolation):
        node.bind_block(entry.location, Block(cid, 5, 0, None, content=b"evil!"))
    assert node.counters.immutability_violations == 1


# -- reads, integrity, scrubbing ---------------------------------------------------


def test_read_verify_roundtrip():
    node = fresh_node()
    cid = node.ingest(b"some payload bytes")
    assert node.read_verify(cid) == b"some payload bytes"


def test_corruption_detected_on_read():
    node = fresh_node()
    cid = node.ingest(b"precious data")
    node.corrupt_block(node.id_index.get(cid).location)
    with pytest.raises(CorruptionDetected):
        node.read_verify(cid)


def test_crc_vector_used_for_blocks():
    node = fresh_node()
    cid = node.ingest(b"123456789")
    assert node.id_index.get(cid).crc == 0xE3069283 == crc32c(b"123456789")


def test_read_unknown_id():
    node = fresh_node()
    with pytest.raises(NotFound):
        node.read_verify(type(node.ingest(b"x"))(node.nid, 999, 0))


def test_scrub_clean_store():
    node = fresh_node()
    for i in range(20):
        node.ingest(f"block {i}".encode())
    assert node.scrub(100).clean


def test_scrub_finds_injected_corruptions():
    node = fresh_node()
    ids = [node.ingest(f"block {i}".encode()) for i in range(50)]
    for cid in (ids[3], ids[17], ids[42]):
        node.corrupt_block(node.id_index.get(cid).location)
    report = node.scrub(1000)
    assert len(report.findings) == 3


def test_scrub_zero_budget():
    node = fresh_node()
    node.ingest(b"x")
    before = node._scrub_cursor
    report = node.scrub(0)
    assert report.clean and node._scrub_cursor == before


def test_scrub_round_robin_covers_store_across_calls():
    node = fresh_node()
    ids = [node.ingest(f"b{i}".encode()) for i in range(10)]
    node.corrupt_block(node.id_index.get(ids[7]).location)
    findings = []
    for _ in range(5):
        findings += node.scrub(2).findings
    assert len(findings) == 1


# -- crash / restart lifecycle ------------------------------------------------------


def test_crash_restart_preserves_index_and_monotonicity():
    node = fresh_node()
    ids = [node.ingest(f"d{i}".encode()) for i in range(10)]
    node.crash()
    replay = node.restart("none")
    assert replay == 18.0  # default virtual replay charge
    assert node.id_index.entry_count == 10
    nxt = node.ingest(b"after restart")
    assert nxt.lcv > max(c.lcv for c in ids)


def test_torn_crash_burns_value_and_never_reuses():
    node = fresh_node()
    exposed = [node.ingest(f"d{i}".encode()).lcv for i in range(5)]
    node.crash(torn_wal_bytes=9)
    node.restart("none", wal_replay_seconds=0.0)
    nxt = node.ingest(b"next")
    assert nxt.lcv not in exposed
    assert nxt.lcv > max(exposed)


def test_index_loss_gates_baseline_until_rebuild():
    a = fresh_node(seed=1, baseline=True)
    b = fresh_node(seed=2, baseline=True)
    for node in (a, b):
        for i in range(10):
            node.ingest((64, i))
        ensure_baseline_consistent(node)
    hash_delta(a.baseline.hash_index, b.baseline.hash_index)  # serviceable
    a.crash()
    a.restart("index_loss", wal_replay_seconds=0.0)
    with pytest.raises(InconsistentIndex):
        hash_delta(a.baseline.hash_index, b.baseline.hash_index)
    ensure_baseline_consistent(a)
    hash_delta(a.baseline.hash_index, b.baseline.hash_index)


def test_pipeline_crash_fault_reenqueues():
    node = fresh_node(baseline=True)
    for i in range(30):
        node.ingest((64, i))
    ensure_baseline_consistent(node)
    node.crash()
    node.restart("pipeline_crash", wal_replay_seconds=0.0)
    assert node.baseline.pipeline.lag_blocks == 30  # nothing checkpointed yet


def test_invalid_lifecycle_transitions():
    node = fresh_node()
    with pytest.raises(RuntimeError):
        node.restart("none")
    node.crash()
    with pytest.raises(RuntimeError):
        node.crash()
    with pytest.raises(ValueError):
        node.restart("bogus_fault")


# -- migration (dual lookup) ----------------------------------------------------


def migration_node():
    node = fresh_node(migration=True)
    for i in range(4):
        node.seed_legacy_block(f"legacy{i}", f"old content {i}".encode())
    return node


def test_dual_lookup_identifier_tier_wins():
    node = migration_node()
    node.ingest(b"new data", user_key="fresh")
    assert node.dual_lookup("fresh").tier == "identifier"


def test_dual_lookup_falls_back_to_legacy():
    node = migration_node()
    result = node.dual_lookup("legacy2")
    assert result.tier == "legacy"
    assert result.digest is not None


def test_dual_lookup_miss_everywhere():
    node = migration_node()
    with pytest.raises(NotFound):
        node.dual_lookup("nowhere")


def test_dual_lookup_precedence_after_migration():
    node = migration_node()
    node.migrate_on_access("legacy1")
    assert node.dual_lookup("legacy1").tier == "identifier"


def test_migration_progress_counts_accessed_keys():
    node = migration_node()
    assert node.migration_progress == 0.0
    node.migrate_on_access("legacy0")
    node.migrate_on_access("legacy3")
    assert node.migration_progress == pytest.approx(2 / 4)
    for key in ("legacy1", "legacy2"):
        node.migrate_on_access(key)
    assert node.migration_progress == 1.0


def test_migration_preserves_content():
    node = migration_node()
    cid = node.migrate_on_access("legacy2")
    assert node.read_verify(cid) == b"old content 2"


def test_double_migrate_is_idempotent():
    node = migration_node()
    first = node.migrate_on_access("legacy0")
    second = node.migrate_on_access("legacy0")
    assert first == second
    assert node.id_index.entry_count == 1


# -- layer 2 dedup ----------------------------------------------------------------


def test_dedup_consolidates_identical_content():
    node = fresh_node()
    a = node.ingest(b"same bytes")
    b = node.ingest(b"same bytes")
    before = node.physical_block_count
    consolidated = node.dedup_pass(100)
    assert consolidated == 1
    assert node.physical_block_count == before - 1
    assert node.read_verify(a) == node.read_verify(b) == b"same bytes"


def test_dedup_on_distinct_content_does_nothing():
    node = fresh_node()
    for i in range(20):
        node.ingest(f"unique {i}".encode())
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
        node.ingest(payload)
    before = node.physical_block_count
    node.dedup_pass(10_000)
    recovered = (before - node.physical_block_count) / before
    assert 0.05 <= recovered <= 0.15  # moderate-redundancy band


def test_dedup_refuses_during_dr():
    node = fresh_node()
    node.ingest(b"dup")
    node.ingest(b"dup")
    node.dr_active = True
    assert node.dedup_pass(10) == 0
    assert node.dedup_deferrals == 1
    assert node.physical_block_count == 2
    node.dr_active = False
    assert node.dedup_pass(10) == 1


def test_dedup_transparent_to_reads():
    node = fresh_node()
    ids = [node.ingest(b"payload") for _ in range(5)]
    contents_before = [node.read_verify(c) for c in ids]
    node.dedup_pass(100)
    assert [node.read_verify(c) for c in ids] == contents_before


def test_dedup_work_charged_to_background_meter():
    node = fresh_node()
    node.ingest(b"one")
    node.ingest(b"one")
    node.dedup_pass(10)
    assert node.counters.background_hash_ops > 0


def test_storage_amplification_without_dedup():
    # same content on two nodes: two physical copies under id-based
    # identification, one logical digest under the baseline
    a = fresh_node(seed=1, baseline=True)
    b = fresh_node(seed=2, baseline=True)
    a.ingest(b"shared content")
    b.ingest(b"shared content")
    ensure_baseline_consistent(a)
    ensure_baseline_consistent(b)
    assert a.id_index.ids() != b.id_index.ids()  # distinct identities
    assert a.physical_block_count + b.physical_block_count == 2
    digests = set(a.baseline.hash_index.by_digest) | set(b.baseline.hash_index.by_digest)
    assert len(digests) == 1
