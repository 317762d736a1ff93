"""Executable property suites behind `metadr verify`.

Each suite returns (name, passed, detail) tuples. The identity suite
covers global id uniqueness under crash/restart chaos and WAL
truncation at every byte offset; the sync suite covers partition
convergence, idempotence, framework equivalence, and the split-brain
merge the simulator runs (`converge` plus the nodes' last-writer-wins
rule), in both argument orders; the baseline suite pins the
cryptographic primitives to independent references and the
Merkle/pipeline machinery to brute-force oracles.
"""

from __future__ import annotations

from random import Random

from . import hashline, identity
from .costs import CostMeter, CostModel
from .crc32c import crc32c, crc32c_many
from .index import Checkpoint
from .node import StorageNode
from .sync import (
    Cluster,
    compute_delta_hash,
    compute_delta_meta,
    converge,
    ensure_baseline_consistent,
    sync_pair_meta,
)

Check = tuple[str, bool, str]


def _crc32c_bitwise(data: bytes) -> int:
    """Independent bit-at-a-time CRC-32C (no table), for cross-checking."""
    crc = 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = (crc >> 1) ^ 0x82F63B78 if crc & 1 else crc >> 1
    return crc ^ 0xFFFFFFFF


def _chaos_uniqueness(
    rng: Random, nodes: int, target_exposed: int, byte_len: int
) -> tuple[bool, str]:
    """Interleaved ingest plus crash/restart with torn WAL tails; every
    exposed id must be globally unique."""
    cluster = [StorageNode(identity.new_node_id(rng)) for _ in range(nodes)]
    seen: set[tuple[bytes, int]] = set()
    exposed = 0
    while exposed < target_exposed:
        node = cluster[rng.randrange(len(cluster))]
        if node.status.value == "crashed":
            if rng.random() < 0.6:
                node.restart("none", wal_replay_seconds=0.0)
            continue
        if rng.random() < 0.05:
            node.crash(torn_wal_bytes=rng.randrange(0, identity.WAL_RECORD_BYTES))
            continue
        (cid,) = node.ingest([(byte_len, rng.randrange(1 << 30))])
        key = (cid.nid, cid.lcv)
        if key in seen:
            return False, f"duplicate id {cid}"
        seen.add(key)
        exposed += 1
    return True, f"{exposed} exposed ids, all unique"


def _truncation_enumeration(nid: identity.NodeId) -> tuple[bool, str]:
    """Truncate a WAL of 10 ceiling records at every byte offset; recovery
    must never re-expose a value the clock exposed while its log was at
    most that long."""
    reserve = 3  # small, so a short run still logs 10 records
    wal = identity.MemoryWal()
    clock = identity.LogicalClock(wal, reserve=reserve)
    exposed_at: list[tuple[int, int]] = []  # (log size when exposed, lcv)
    for _ in range(10 * reserve):
        lcv = clock.next_id(nid).lcv
        exposed_at.append((len(wal.data()), lcv))
    data = wal.data()
    for cut in range(len(data) + 1):
        recovered = identity.recover_clock(identity.MemoryWal(data[:cut]), reserve=reserve)
        highest = max((lcv for size, lcv in exposed_at if size <= cut), default=0)
        for _ in range(2 * reserve):  # across the next reservation too
            nxt = recovered.next_id(nid).lcv
            if nxt <= highest:
                return False, f"lcv {nxt} not above exposed lcv {highest} at cut {cut}"
    return True, f"{len(data) + 1} truncation points, no reuse"


def suite_identity(seed: int = 0) -> list[Check]:
    checks: list[Check] = []
    rng = Random(f"verify-id:{seed}")

    ok, detail = _truncation_enumeration(identity.NodeId(b"\x01" * 16))
    checks.append(("wal_truncation_every_offset_no_reuse", ok, detail))

    total_exposed = 0
    ok_all = True
    detail = ""
    for s in range(20):
        ok, detail = _chaos_uniqueness(
            Random(f"verify:{seed * 100 + s}"), nodes=8, target_exposed=5200, byte_len=1024
        )
        if not ok:
            ok_all = False
            break
        total_exposed += int(detail.split()[0])
    if ok_all:
        detail = f"{total_exposed} exposed ids across 20 chaos runs, all unique"
    checks.append(("uniqueness_under_crash_restart_1e5_events", ok_all and total_exposed >= 100000, detail))

    ok = True
    for _ in range(2000):
        cid = identity.CompositeId(
            identity.NodeId(rng.randbytes(16)),
            rng.randrange(1, 1 << 64),
            rng.randrange(0, 1 << 64),
        )
        if identity.decode_id(identity.encode_id(cid)) != cid:
            ok = False
            break
    checks.append(("encode_decode_roundtrip_fuzz", ok, "2000 random ids"))
    return checks


def _two_node_partition_case(rng: Random, max_blocks: int, byte_len: int) -> tuple[bool, str]:
    """Two nodes ingest apart, then converge: the union in one round,
    and a repeat full exchange moves nothing."""
    a = StorageNode(identity.new_node_id(rng))
    b = StorageNode(identity.new_node_id(rng))
    for _ in range(rng.randrange(1, max_blocks)):
        a.ingest([(byte_len, rng.randrange(1 << 30))])
    for _ in range(rng.randrange(1, max_blocks)):
        b.ingest([(byte_len, rng.randrange(1 << 30))])
    rounds = converge(Cluster([a, b]), a, b)
    if rounds != 1:
        return False, f"convergence took {rounds} rounds"
    if not a.id_index.same_ids(b.id_index):
        return False, "indexes differ after convergence"
    before = a.id_index.entry_count
    meter = CostMeter(CostModel())
    rounds2 = converge(Cluster([a, b]), a, b, meter)  # a full exchange again
    if rounds2 != 1 or a.id_index.entry_count != before or meter.t_delta != 0.0:
        return False, "repeat convergence was not idempotent"
    return True, "union reached in 1 round, idempotent"


def _framework_equivalence_case(rng: Random, max_blocks: int) -> tuple[bool, str]:
    """Two baseline nodes ingest distinct payloads apart: the hash plan
    and the metadata plan must name the same blocks, and a metadata sync
    must leave byte-identical stores."""
    a = StorageNode(identity.new_node_id(rng), baseline=True)
    b = StorageNode(identity.new_node_id(rng), baseline=True)
    for i in range(rng.randrange(2, max_blocks)):
        payload = i.to_bytes(4, "big") + rng.randbytes(rng.randrange(12, 196))
        (a if rng.random() < 0.5 else b).ingest([payload])
    for node in (a, b):
        ensure_baseline_consistent(node)
    hash_plan = compute_delta_hash(a.baseline, b.baseline)
    meta_plan = compute_delta_meta(a.id_index, Checkpoint(), b.id_index)
    for hashed, meta in ((hash_plan.ids_to_pull, meta_plan.ids_to_pull),
                         (hash_plan.ids_to_push, meta_plan.ids_to_push)):
        if set(hashed) != set(meta):
            return False, "frameworks disagree on the delta block sets"
    sync_pair_meta(Cluster([a, b]), a, b)
    if not a.id_index.same_ids(b.id_index):
        return False, "post-sync indexes differ"
    contents_a, contents_b = (sorted(c for _, c, _ in n.inventory()) for n in (a, b))
    if contents_a != contents_b:
        return False, "post-sync stores are not byte-identical"
    return True, "identical delta sets and byte-identical stores"


def _dual_write(seed: str) -> tuple[StorageNode, StorageNode]:
    """Two nodes that each write some of the same user keys while apart;
    one seed always builds the same pair, so two calls build twins."""
    rng = Random(seed)
    a = StorageNode(identity.new_node_id(rng))
    b = StorageNode(identity.new_node_id(rng))
    for key in [f"k{i}" for i in range(rng.randrange(1, 10))]:
        if rng.random() < 0.8:
            a.ingest([(64, rng.randrange(1 << 20))], [key])
        if rng.random() < 0.8:
            b.ingest([(64, rng.randrange(1 << 20))], [key])
    return a, b


def _split_brain_case(
    pair: tuple[StorageNode, StorageNode], twin: tuple[StorageNode, StorageNode]
) -> tuple[bool, str]:
    """Heal a split brain the way the simulator does: `converge` the
    pair as (a, b) and its twin as (b, a). Every node must then hold the
    union of ids, and each user key must resolve, on all four nodes, to
    its version with the greatest `lww_key`, and read the same bytes."""
    entries = [e for node in pair for e in node.id_index.entries()]
    converge(Cluster(list(pair)), pair[0], pair[1])
    converge(Cluster(list(twin)), twin[1], twin[0])
    nodes = (*pair, *twin)
    union = {e.id for e in entries}
    if any(set(node.id_index.ids()) != union for node in nodes):
        return False, "a merge lost or invented ids"
    versions: dict[str, list[identity.CompositeId]] = {}
    for e in entries:
        if e.user_key is not None:
            versions.setdefault(e.user_key, []).append(e.id)
    for key, ids in versions.items():
        winner = max(ids, key=identity.lww_key)
        if any(node.by_user_key[key] != winner for node in nodes):
            return False, f"key {key!r} does not resolve to {winner} everywhere"
        if len({node.read(key) for node in nodes}) != 1:
            return False, f"key {key!r} reads different bytes on different nodes"
    return True, f"{len(union)} ids, {len(versions)} keys"


def suite_sync(seed: int = 0) -> list[Check]:
    checks: list[Check] = []
    ok_all, detail = True, ""
    for s in range(25):
        ok, detail = _two_node_partition_case(
            Random(f"verify-sync:{seed * 100 + s}"), max_blocks=60, byte_len=512
        )
        if not ok:
            ok_all = False
            break
    checks.append(("partition_union_convergence_round1", ok_all,
                   detail if not ok_all else "25 randomized partitions"))

    ok_all, detail = True, ""
    for s in range(15):
        ok, detail = _framework_equivalence_case(
            Random(f"verify-fw:{seed * 100 + s}"), max_blocks=80
        )
        if not ok:
            ok_all = False
            break
    checks.append(("framework_equivalence_fresh_indexes", ok_all,
                   detail if not ok_all else "15 randomized inventories"))

    ok, detail = True, "20 dual-write workloads, converged both ways: union and LWW hold"
    for s in range(20):
        workload = f"verify-sb:{seed * 100 + s}"
        ok, failure = _split_brain_case(_dual_write(workload), _dual_write(workload))
        if not ok:
            detail = failure
            break
    checks.append(("split_brain_merge_commutative_lossless", ok, detail))
    return checks


def _merkle_diff_case(rng: Random, trees: int, max_leaves: int) -> tuple[bool, str]:
    """merkle_diff against an exhaustive leaf compare over random tree
    pairs, each with about a fifth of its leaves replaced."""
    for _ in range(trees):
        n = rng.randrange(1, max_leaves)
        leaves_a = [rng.randbytes(32) for _ in range(n)]
        leaves_b = [rng.randbytes(32) if rng.random() < 0.2 else leaf for leaf in leaves_a]
        diff = hashline.merkle_diff(
            hashline.merkle_build(leaves_a), hashline.merkle_build(leaves_b)
        )
        if diff.positions != [i for i in range(n) if leaves_a[i] != leaves_b[i]]:
            return False, f"merkle_diff mismatch at n={n}"
    return True, f"{trees} randomized tree pairs vs exhaustive leaf compare"


def suite_baseline(seed: int = 0) -> list[Check]:
    # hashlib is the independent reference for `payload_digest`; imported
    # here, so only a process that runs this suite loads it for the check
    import hashlib

    checks: list[Check] = []
    vectors = [
        (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
    ]
    ok = all(
        hashline.payload_digest(data, len(data)).hex() == expected
        and hashlib.sha256(data).hexdigest() == expected
        for data, expected in vectors
    )
    checks.append(("sha256_standard_vectors", ok, "empty and 'abc'"))

    check_value = crc32c(b"123456789")
    bitwise = _crc32c_bitwise(b"123456789")
    ok = check_value == 0xE3069283 == bitwise
    checks.append(
        ("crc32c_castagnoli_check_value", ok,
         f"table {check_value:#010x}, bitwise {bitwise:#010x}")
    )
    rng = Random(f"verify-crc:{seed}")
    ok = all(
        crc32c(payload) == _crc32c_bitwise(payload)
        for payload in (rng.randbytes(rng.randrange(0, 64)) for _ in range(300))
    )
    checks.append(("crc32c_table_matches_bitwise_reference", ok, "300 random payloads"))
    rng = Random(f"verify-crc-many:{seed}")
    descriptors = [rng.randbytes(16) for _ in range(200)]
    mixed = [rng.randbytes(rng.choice((0, 1, 15, 16, 17, 33, 100))) for _ in range(300)]
    ok = all(
        crc32c_many(batch) == [_crc32c_bitwise(block) for block in batch]
        for batch in (descriptors, mixed)
    )
    checks.append(
        ("crc32c_many_matches_bitwise_reference", ok,
         f"{len(descriptors)} 16-byte descriptors, {len(mixed)} mixed-length blocks")
    )

    ok, detail = _merkle_diff_case(Random(f"verify-merkle:{seed}"), trees=60, max_leaves=64)
    checks.append(("merkle_diff_matches_exhaustive_compare", ok, detail))

    index = hashline.HashIndex()
    nid = identity.NodeId(b"\x01" * 16)
    index.enqueue([identity.CompositeId(nid, i + 1) for i in range(100)],
                  [i.to_bytes(16, "big") for i in range(100)], [100] * 100)
    hashline.pipeline_tick(index, 100 * 50)
    grew = index.lag_blocks == 50
    hashline.commit_checkpoint(index)
    hashline.pipeline_tick(index, 100 * 50)
    drained = index.lag_blocks == 0 and index.consistent_flag
    rolled = hashline.crash_interrupt(index)
    checks.append(
        ("pipeline_lag_and_crash_rollback", grew and drained and rolled == 50,
         f"lag grew to 50, drained, crash re-enqueued {rolled}")
    )
    return checks


SUITES = {
    "identity": suite_identity,
    "sync": suite_sync,
    "baseline": suite_baseline,
}


def run_suites(names, seed: int = 0) -> tuple[bool, list[str]]:
    """Run the named suites; returns (all_passed, printable lines)."""
    lines: list[str] = []
    all_ok = True
    for name in names:
        for check, ok, detail in SUITES[name](seed):
            lines.append(f"{'PASS' if ok else 'FAIL'} {name}.{check}: {detail}")
            all_ok = all_ok and ok
    return all_ok, lines
