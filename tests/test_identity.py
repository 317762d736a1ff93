import itertools
import os
import threading
from random import Random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from metadr.identity import (
    LCV_RESERVE,
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


def reopen(wal):
    """The WAL a restarted process sees: a file log is opened afresh, the
    simulator's memory log survives as it is."""
    return FileWal(wal.path) if isinstance(wal, FileWal) else wal


R = LCV_RESERVE


def ceiling_record(ceiling: int) -> bytes:
    wal = MemoryWal()
    wal.append_lcv(ceiling)
    return wal.data()


# -- node ids ----------------------------------------------------------------


def test_two_draws_are_distinct():
    rng = Random(42)
    assert new_node_id(rng) != new_node_id(rng)


def test_same_seed_reproduces_first_id():
    assert new_node_id(Random(42)) == new_node_id(Random(42))


def test_ten_thousand_ids_pairwise_distinct():
    rng = Random(7)
    ids = sorted(new_node_id(rng) for _ in range(10_000))
    for a, b in zip(ids, ids[1:]):  # sort-and-scan oracle
        assert a != b


def test_node_id_width_enforced():
    with pytest.raises(ValueError):
        NodeId(b"\x01" * 15)


def test_node_id_is_its_bytes():
    raw = bytes(range(16))
    nid = NodeId(raw)
    assert nid == raw and hash(nid) == hash(raw)
    assert repr(nid) == str(nid) == f"{nid}" == "NodeId(00010203..)"
    assert sorted([NodeId(b"\x02" * 16), nid]) == [nid, NodeId(b"\x02" * 16)]
    assert type(encode_id(CompositeId(nid, 1))) is bytes


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


def test_replace_and_make_keep_the_range_checks():
    cid = CompositeId(NID, 1)
    with pytest.raises(ValueError):
        cid._replace(lcv=-5)
    with pytest.raises(ValueError):
        cid._replace(nst=2**64)
    with pytest.raises(ValueError):
        CompositeId._make((NID, 2**64, 0))
    assert cid._replace(lcv=2) == CompositeId(NID, 2)
    assert type(cid._replace(nst=3)) is CompositeId


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


def exhaust_first_range(clock: LogicalClock) -> None:
    """Expose every value the first ceiling covers, so the next value
    needs a log append."""
    for _ in range(clock.reserve):
        clock.next_id(NID)


def test_append_failure_leaves_clock_unchanged(make_wal):
    for reserve in (R, 1):
        wal = make_wal()
        clock = LogicalClock(wal, reserve=reserve)
        exhaust_first_range(clock)
        logged = wal.data()
        wal.fail_next_append = "lost"
        with pytest.raises(WalAppendFailure):
            clock.next_id(NID)
        assert (clock.floor, clock.ceiling) == (reserve, reserve)
        assert wal.data() == logged
        assert clock.next_id(NID).lcv == reserve + 1


def test_values_below_the_ceiling_need_no_append():
    wal = MemoryWal()
    clock = LogicalClock(wal)
    clock.next_id(NID)
    logged = wal.data()
    wal.fail_next_append = "lost"  # would fire on the next append
    assert [clock.next_id(NID).lcv for _ in range(R - 1)] == list(range(2, R + 1))
    assert wal.data() == logged


@pytest.mark.parametrize("nst", [-1, 2**64])
def test_out_of_range_nst_leaves_clock_unchanged(make_wal, nst):
    for issued in (0, R, R + 3):  # fresh, range used up, mid-range
        wal = make_wal()
        clock = LogicalClock(wal)
        for _ in range(issued):
            clock.next_id(NID)
        before = (clock.floor, clock.ceiling, wal.data())
        with pytest.raises(ValueError):
            clock.next_id(NID, nst)
        assert (clock.floor, clock.ceiling, wal.data()) == before
        assert clock.next_id(NID, 2**64 - 1) == CompositeId(NID, issued + 1, 2**64 - 1)


@pytest.mark.parametrize("reserve", [R, 1])
def test_clock_issues_every_value_up_to_max_then_refuses(make_wal, reserve):
    top = 2**64 - 1
    wal = make_wal()
    clock = LogicalClock(wal, floor=top - 3, reserve=reserve)
    ids = [clock.next_id(NID, 7) for _ in range(3)]
    assert ids == [CompositeId(NID, lcv, 7) for lcv in (top - 2, top - 1, top)]
    assert all(type(cid) is CompositeId for cid in ids)
    assert read_wal(wal.data())[0][-1] == top  # the last ceiling is clamped to 2**64 - 1
    for _ in range(2):
        before = (clock.floor, clock.ceiling, wal.data())
        with pytest.raises(ValueError, match="exhausted"):
            clock.next_id(NID)
        assert (clock.floor, clock.ceiling, wal.data()) == before == (top, top, wal.data())
    with pytest.raises(ValueError, match="exhausted"):
        recover_clock(reopen(wal)).next_id(NID)


# -- run draws ---------------------------------------------------------------


def draw_one_by_one(clock: LogicalClock, count: int, nst: int, ids: list) -> None:
    """The reference: `count` one-id draws, appending each id as it comes."""
    for _ in range(count):
        ids.append(clock.next_id(NID, nst))


def arm(wal, failure, at: int) -> None:
    """Make the wal's `at`-th append from now fail with `failure`."""
    append, calls = wal.append_lcv, itertools.count(1)

    def armed(lcv: int) -> None:
        if next(calls) == at:
            wal.fail_next_append = failure
        append(lcv)

    wal.append_lcv = armed


@settings(max_examples=300, deadline=None)
@given(reserve=st.sampled_from([1, 2, 3, 4, 5, 1024]), before=st.integers(0, 12),
       crossings=st.integers(0, 3), fill=st.integers(0, 1024),
       nst=st.sampled_from([0, 7, 2**64 - 1]),
       failure=st.sampled_from([None, "lost", ("torn", 0), ("torn", 5), ("torn", 13)]),
       fail_at=st.integers(1, 3))
def test_a_run_draw_equals_one_id_draws(reserve, before, crossings, fill, nst, failure,
                                        fail_at):
    # two clocks with the same history: one draws a run, the other one id at a time
    clocks = [LogicalClock(MemoryWal(), reserve=reserve) for _ in range(2)]
    for clock in clocks:
        draw_one_by_one(clock, before, 0, [])
    headroom = clocks[0].ceiling - clocks[0].floor  # ids drawn with no append
    fill = min(fill, reserve)
    if crossings == 0:
        count = min(fill, headroom)
    else:  # the run needs exactly `crossings` ceiling appends
        count = headroom + (crossings - 1) * reserve + max(1, fill)
    run_draw = lambda c, k, n, ids: c.next_id(NID, n, k, ids)  # noqa: E731
    outcomes, drawn = [], []
    for clock, draw in zip(clocks, (run_draw, draw_one_by_one)):
        arm(clock.wal, failure, fail_at)
        ids = ["earlier"]  # a run appends to what the list holds
        try:
            last = draw(clock, count, nst, ids)
            outcomes.append(("ok", None))
        except WalAppendFailure as exc:
            last = None
            outcomes.append(("failed", str(exc)))
        drawn.append(ids)
        if clock is clocks[0] and last is not None:
            assert last == ids[-1]
    run, reference = clocks
    assert outcomes[0] == outcomes[1]
    assert drawn[0] == drawn[1]
    assert all(type(cid) is CompositeId for cid in drawn[0][1:])
    assert run.wal.data() == reference.wal.data()
    assert (run.floor, run.ceiling) == (reference.floor, reference.ceiling)
    if failure is not None and fail_at <= crossings:
        # exactly the ids the appends before the failed one covered came out
        assert outcomes[0][0] == "failed"
        assert len(drawn[0]) == 1 + headroom + (fail_at - 1) * reserve
    else:
        assert outcomes[0][0] == "ok" and len(drawn[0]) == 1 + count
        drawn_total = before + count  # one ceiling per `reserve` ids
        assert len(read_wal(run.wal.data())[0]) == -(-drawn_total // reserve)


@pytest.mark.parametrize(
    "nst, into, match",
    [(-1, [], "nst"), (2**64, [], "nst"), (0, None, "list to draw into")],
    ids=["nst-negative", "nst-2**64", "no-list"],
)
def test_a_refused_run_draws_nothing(make_wal, nst, into, match):
    wal = make_wal()
    clock = LogicalClock(wal, reserve=4)
    clock.next_id(NID, 0, 6, [])
    before = (clock.floor, clock.ceiling, wal.data())
    with pytest.raises(ValueError, match=match):
        clock.next_id(NID, nst, 10, into)
    assert not into and (clock.floor, clock.ceiling, wal.data()) == before


@pytest.mark.parametrize("reserve", [R, 1, 2])
def test_a_run_that_exhausts_the_lcv_space_keeps_its_prefix(reserve):
    top = 2**64 - 1
    clocks = [LogicalClock(MemoryWal(), floor=top - 4, reserve=reserve) for _ in range(2)]
    drawn = []
    for clock, draw in zip(clocks, (lambda c, k, ids: c.next_id(NID, 0, k, ids),
                                    lambda c, k, ids: draw_one_by_one(c, k, 0, ids))):
        ids: list[CompositeId] = []
        with pytest.raises(ValueError, match="exhausted"):
            draw(clock, 9, ids)
        drawn.append(ids)
    assert drawn[0] == drawn[1] == [CompositeId(NID, lcv) for lcv in range(top - 3, top + 1)]
    assert clocks[0].wal.data() == clocks[1].wal.data()
    assert clocks[0].floor == clocks[1].floor == top


def test_a_run_of_zero_draws_nothing():
    clock = LogicalClock(MemoryWal())
    ids: list[CompositeId] = []
    assert clock.next_id(NID, 0, 0, ids) is None
    assert ids == [] and (clock.floor, clock.ceiling, clock.wal.data()) == (0, 0, b"")


def test_torn_append_failure_then_success(make_wal):
    for reserve in (R, 1):
        wal = make_wal()
        clock = LogicalClock(wal, reserve=reserve)
        exhaust_first_range(clock)
        wal.fail_next_append = ("torn", 7)
        with pytest.raises(WalAppendFailure):
            clock.next_id(NID)
        # the torn prefix landed and burns the value after the ceiling
        assert read_wal(wal.data()) == ([reserve], reserve + 1)
        follow_up = clock.next_id(NID)
        assert follow_up.lcv == reserve + 1
        # torn bytes were truncated before the successful append
        assert read_wal(wal.data()) == ([reserve, 2 * reserve], None)


def test_exposure_only_after_durable_append():
    wal = MemoryWal()
    clock = LogicalClock(wal)
    for _ in range(2 * R + 1):
        cid = clock.next_id(NID)
        lcvs, _ = read_wal(wal.data())
        assert cid.lcv <= lcvs[-1]  # a logged ceiling covers every exposed value
    assert lcvs == [R, 2 * R, 3 * R]


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
    assert clock.floor == 4000


# -- WAL format and recovery --------------------------------------------------


def test_wal_record_layout_bit_exact():
    from metadr.crc32c import crc32c

    for reserve in (R, 1):
        wal = MemoryWal()
        LogicalClock(wal, reserve=reserve).next_id(NID)
        data = wal.data()
        assert len(data) == WAL_RECORD_BYTES
        assert data[:4] == (8).to_bytes(4, "big")
        assert data[4:12] == reserve.to_bytes(8, "big")  # the first ceiling
        assert data[12:16] == crc32c(data[4:12]).to_bytes(4, "big")


def test_a_log_checksummed_with_crc32c_fails_its_checks():
    # ceilings 1,024 and 2,048 as the format wrote them when its checksum
    # was CRC-32C (Castagnoli): the first record reads as corrupt, and a
    # last record alone as a torn tail, whose value is burned
    old = bytes.fromhex("000000080000000000000400c2a2d356" "000000080000000000000800113c7132")
    with pytest.raises(WalCorruption, match="checksum mismatch at offset 0"):
        read_wal(old)
    assert read_wal(old[WAL_RECORD_BYTES:]) == ([], 2 * R)


def test_recover_empty_wal_is_genesis():
    wal = MemoryWal()
    clock = recover_clock(wal)
    assert clock.floor == 0
    assert wal.data() == b""
    assert clock.next_id(NID).lcv == 1


def test_recover_resumes_after_complete_records():
    wal = MemoryWal()
    clock = LogicalClock(wal)
    for _ in range(2 * R + 500):
        clock.next_id(NID)
    recovered = recover_clock(MemoryWal(wal.data()))
    assert recovered.floor == 3 * R  # the last complete record's ceiling
    assert recovered.next_id(NID).lcv == 3 * R + 1


@pytest.mark.parametrize("reserve", [R, 1])
def test_recover_compacts_the_log_to_one_record(make_wal, reserve):
    wal = make_wal()
    clock = LogicalClock(wal, reserve=reserve)
    for _ in range(3 * reserve):
        clock.next_id(NID)
    wal = reopen(wal)
    recovered = recover_clock(wal, reserve=reserve)
    assert wal.data() == ceiling_record(3 * reserve)
    assert recovered.next_id(NID).lcv == 3 * reserve + 1
    assert read_wal(wal.data()) == ([3 * reserve, 4 * reserve], None)


def test_recover_of_a_compact_log_writes_nothing():
    class NoRewriteWal(MemoryWal):
        def _replace(self, data):
            raise AssertionError("a compact log was rewritten")

    wal = MemoryWal()
    LogicalClock(wal).next_id(NID)
    assert recover_clock(NoRewriteWal(wal.data())).next_id(NID).lcv == R + 1


def test_torn_tail_burns_the_value():
    wal = MemoryWal()
    clock = LogicalClock(wal)
    for _ in range(500):
        clock.next_id(NID)
    torn = MemoryWal(wal.data() + (8).to_bytes(4, "big") + (2 * R).to_bytes(8, "big"))
    recovered = recover_clock(torn)
    assert recovered.floor == 2 * R  # the torn record's ceiling is burned
    nxt = recovered.next_id(NID)
    assert nxt.lcv == 2 * R + 1
    assert read_wal(torn.data()) == ([2 * R, 3 * R], None)


def test_crash_point_enumeration_never_reuses(make_wal):
    # truncate a log of 12 ceiling records at every byte offset, recover,
    # and assert that no value exposed while the log was that long comes back
    reserve = 2
    wal = make_wal()
    clock = LogicalClock(wal, reserve=reserve)
    exposed_at = []  # (log size when exposed, lcv)
    for _ in range(12 * reserve):
        lcv = clock.next_id(NID).lcv
        exposed_at.append((len(wal.data()), lcv))
    data = wal.data()
    assert len(data) == 12 * WAL_RECORD_BYTES
    for cut in range(len(data) + 1):
        highest = max((lcv for size, lcv in exposed_at if size <= cut), default=0)
        recovered = recover_clock(make_wal(data[:cut]), reserve=reserve)
        resumed = recovered.floor
        assert resumed >= highest
        assert [recovered.next_id(NID).lcv for _ in range(2 * reserve)] == list(
            range(resumed + 1, resumed + 2 * reserve + 1)
        )


_CLOCK_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("ids"), st.integers(1, 40)),
        st.tuples(st.just("crash"), st.none() | st.integers(0, WAL_RECORD_BYTES - 1)),
    ),
    max_size=12,
)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ops=_CLOCK_OPS, reserve=st.sampled_from([1, 3, 16, R]))
def test_ids_strictly_increase_across_crashes(make_wal, ops, reserve):
    # any interleaving of next_id and crash (with a torn tail at any
    # byte, or none) then restart: ids strictly increase, none reused
    wal = make_wal()
    clock = recover_clock(wal, reserve=reserve)
    issued: list[int] = []
    for op, arg in ops:
        if op == "ids":
            issued += [clock.next_id(NID).lcv for _ in range(arg)]
            continue
        if arg is not None:  # the crash tears the next reservation
            wal.fail_next_append = ("torn", arg)
            with pytest.raises(WalAppendFailure):
                clock.extend()
        wal = reopen(wal)
        clock = recover_clock(wal, reserve=reserve)
        assert len(wal.data()) <= WAL_RECORD_BYTES  # restart leaves one record
    assert all(a < b for a, b in zip(issued, issued[1:]))


def test_file_wal_crash_before_rename_keeps_the_old_log(tmp_path, monkeypatch):
    path = tmp_path / "node.wal"
    clock = LogicalClock(FileWal(str(path)))
    exposed = [clock.next_id(NID).lcv for _ in range(2 * R + 5)]
    old_log = path.read_bytes()

    def crash(src, dst):
        raise OSError("crashed between the temp file and the rename")

    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(OSError, match="crashed"):
        recover_clock(FileWal(str(path)))
    monkeypatch.undo()
    assert path.read_bytes() == old_log  # the temp file never replaced it
    recovered = recover_clock(FileWal(str(path)))
    assert recovered.next_id(NID).lcv > max(exposed)
    assert path.read_bytes() == ceiling_record(3 * R) + ceiling_record(4 * R)


def test_mid_stream_corruption_is_unrecoverable():
    wal = MemoryWal()
    clock = LogicalClock(wal)
    for _ in range(10 * R):  # ten ceiling records
        clock.next_id(NID)
    assert len(wal.data()) == 10 * WAL_RECORD_BYTES
    data = bytearray(wal.data())
    data[20] ^= 0xFF  # inside the second record, far from the tail
    with pytest.raises(WalCorruption):
        recover_clock(MemoryWal(bytes(data)))


def test_file_wal_roundtrip(tmp_path):
    path = tmp_path / "node.wal"
    wal = FileWal(str(path))
    clock = LogicalClock(wal)
    for _ in range(R + 25):
        clock.next_id(NID)
    recovered = recover_clock(FileWal(str(path)))
    assert recovered.floor == 2 * R
    assert recovered.next_id(NID).lcv == 2 * R + 1
    assert read_wal(path.read_bytes()) == ([2 * R, 3 * R], None)


def test_default_wal_replay_cost_is_18_seconds():
    from metadr.costs import CostModel

    assert CostModel().wal_replay_seconds == 18.0
