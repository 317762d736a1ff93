import itertools
import threading
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metadr.identity import (
    BadLength,
    CompositeId,
    LogicalClock,
    MemoryWal,
    FileWal,
    NodeId,
    WAL_RECORD_BYTES,
    WalAppendFailure,
    WalCorruption,
    decode_id,
    encode_id,
    new_node_id,
    read_wal,
    recover_clock,
)

NID = NodeId(b"\x01" * 16)


@pytest.fixture(params=["MemoryWal", "FileWal"])
def make_wal(request, tmp_path):
    """A factory of WALs of one medium, each holding the given bytes."""
    if request.param == "MemoryWal":
        return MemoryWal
    paths = (tmp_path / f"wal-{i}.log" for i in itertools.count())

    def file_wal(data: bytes = b"") -> FileWal:
        path = next(paths)
        path.write_bytes(data)
        return FileWal(str(path))

    return file_wal


# -- node ids ----------------------------------------------------------------


def test_two_draws_are_distinct():
    rng = Random(42)
    assert new_node_id(rng) != new_node_id(rng)


def test_same_seed_reproduces_first_id():
    assert new_node_id(Random(42)) == new_node_id(Random(42))


def test_ten_thousand_ids_pairwise_distinct():
    rng = Random(7)
    ids = sorted(new_node_id(rng).value for _ in range(10_000))
    for a, b in zip(ids, ids[1:]):  # sort-and-scan oracle
        assert a != b


def test_node_id_width_enforced():
    with pytest.raises(ValueError):
        NodeId(b"\x01" * 15)


# -- encoding ----------------------------------------------------------------


def test_encode_layout_zero_case():
    cid = CompositeId(NodeId(b"\x00" * 16), 1, 0)
    assert encode_id(cid) == b"\x00" * 16 + b"\x00" * 7 + b"\x01" + b"\x00" * 8


def test_encode_is_32_bytes():
    assert len(encode_id(CompositeId(NID, 2**64 - 1, 2**64 - 1))) == 32


def test_big_endian_sorts_lcv_numerically():
    lo = encode_id(CompositeId(NID, 255))
    hi = encode_id(CompositeId(NID, 256))
    assert lo < hi


def test_decode_rejects_bad_length():
    with pytest.raises(BadLength):
        decode_id(b"\x00" * 31)


@settings(max_examples=300)
@given(
    nid=st.binary(min_size=16, max_size=16),
    lcv=st.integers(min_value=0, max_value=2**64 - 1),
    nst=st.integers(min_value=0, max_value=2**64 - 1),
)
def test_roundtrip_property(nid, lcv, nst):
    cid = CompositeId(NodeId(nid), lcv, nst)
    assert decode_id(encode_id(cid)) == cid


def test_roundtrip_many_random_ids():
    rng = Random(3)
    for _ in range(100_000):
        cid = CompositeId(
            NodeId(rng.randbytes(16)), rng.randrange(1 << 64), rng.randrange(1 << 64)
        )
        assert decode_id(encode_id(cid)) == cid


def test_fuzzed_tokens_decode_and_reencode_identically():
    rng = Random(4)
    for _ in range(5_000):
        token = rng.randbytes(32)
        assert encode_id(decode_id(token)) == token


def test_ordering_ignores_namespace_tag():
    a = CompositeId(NID, 5, nst=9)
    b = CompositeId(NID, 6, nst=0)
    assert a < b
    assert sorted([b, a]) == [a, b]


# -- logical clock -----------------------------------------------------------


def test_fresh_clock_starts_at_one():
    clock = LogicalClock(MemoryWal())
    assert clock.next_id(NID).lcv == 1


def test_ten_thousand_sequential_values_no_gaps():
    clock = LogicalClock(MemoryWal())
    values = [clock.next_id(NID).lcv for _ in range(10_000)]
    assert values == list(range(1, 10_001))


def test_append_failure_leaves_clock_unchanged(make_wal):
    wal = make_wal()
    clock = LogicalClock(wal)
    clock.next_id(NID)
    logged = wal.data()
    wal.fail_next_append = "lost"
    with pytest.raises(WalAppendFailure):
        clock.next_id(NID)
    assert clock.last_committed == 1
    assert wal.data() == logged
    assert clock.next_id(NID).lcv > 1


def test_torn_append_failure_then_success(make_wal):
    wal = make_wal()
    clock = LogicalClock(wal)
    clock.next_id(NID)
    wal.fail_next_append = ("torn", 7)
    with pytest.raises(WalAppendFailure):
        clock.next_id(NID)
    assert read_wal(wal.data()) == ([1], 2)  # the torn prefix landed and burns lcv 2
    follow_up = clock.next_id(NID)
    assert follow_up.lcv == 2
    # torn bytes were truncated before the successful append
    assert read_wal(wal.data()) == ([1, 2], None)


def test_exposure_only_after_durable_append():
    wal = MemoryWal()
    clock = LogicalClock(wal)
    cid = clock.next_id(NID)
    lcvs, _ = read_wal(wal.data())
    assert lcvs[-1] == cid.lcv


def test_concurrent_callers_get_distinct_values():
    clock = LogicalClock(MemoryWal())
    out: list[int] = []
    lock = threading.Lock()

    def worker():
        got = [clock.next_id(NID).lcv for _ in range(500)]
        with lock:
            out.extend(got)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(out) == len(set(out)) == 4000
    assert clock.last_committed == 4000


# -- WAL format and recovery --------------------------------------------------


def test_wal_record_layout_bit_exact():
    wal = MemoryWal()
    LogicalClock(wal).next_id(NID)
    data = wal.data()
    assert len(data) == WAL_RECORD_BYTES
    assert data[:4] == (8).to_bytes(4, "big")
    assert data[4:12] == (1).to_bytes(8, "big")
    from metadr.crc32c import crc32c

    assert data[12:16] == crc32c(data[4:12]).to_bytes(4, "big")


def test_recover_empty_wal_is_genesis():
    clock = recover_clock(MemoryWal())
    assert clock.last_committed == 0
    assert clock.next_id(NID).lcv == 1


def test_recover_resumes_after_complete_records():
    wal = MemoryWal()
    clock = LogicalClock(wal)
    for _ in range(500):
        clock.next_id(NID)
    recovered = recover_clock(MemoryWal(wal.data()))
    assert recovered.last_committed == 500
    assert recovered.next_id(NID).lcv == 501


def test_torn_tail_burns_the_value():
    wal = MemoryWal()
    clock = LogicalClock(wal)
    for _ in range(500):
        clock.next_id(NID)
    torn = MemoryWal(wal.data() + (8).to_bytes(4, "big") + (501).to_bytes(8, "big"))
    recovered = recover_clock(torn)
    assert recovered.last_committed == 500
    nxt = recovered.next_id(NID)
    assert nxt.lcv >= 501
    assert nxt.lcv not in range(1, 501)


def test_crash_point_enumeration_never_reuses(make_wal):
    # truncate the WAL at every byte offset, recover, assert no reuse
    wal = make_wal()
    clock = LogicalClock(wal)
    for _ in range(12):
        clock.next_id(NID)
    data = wal.data()
    for cut in range(len(data) + 1):
        prefix = data[:cut]
        committed = set(read_wal(prefix)[0])
        recovered = recover_clock(make_wal(prefix))
        assert recovered.next_id(NID).lcv not in committed


def test_mid_stream_corruption_is_unrecoverable():
    wal = MemoryWal()
    clock = LogicalClock(wal)
    for _ in range(10):
        clock.next_id(NID)
    data = bytearray(wal.data())
    data[20] ^= 0xFF  # inside the second record, far from the tail
    with pytest.raises(WalCorruption):
        recover_clock(MemoryWal(bytes(data)))


def test_file_wal_roundtrip(tmp_path):
    path = tmp_path / "node.wal"
    wal = FileWal(str(path))
    clock = LogicalClock(wal)
    for _ in range(25):
        clock.next_id(NID)
    recovered = recover_clock(FileWal(str(path)))
    assert recovered.last_committed == 25
    assert recovered.next_id(NID).lcv == 26


def test_default_wal_replay_cost_is_18_seconds():
    from metadr.costs import CostModel

    assert CostModel().wal_replay_seconds == 18.0
