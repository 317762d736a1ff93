from bisect import bisect_right
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metadr.costs import CostMeter, CostModel
from metadr.identity import CompositeId, NodeId, encode_id
from metadr.index import (
    BadMagic,
    BadVersion,
    Checkpoint,
    ConflictingEntry,
    IdentifierIndex,
    IndexEntry,
    TruncatedStream,
    deserialize_index,
    serialize_index,
    set_difference,
)

N1 = NodeId(b"\x01" * 16)
N2 = NodeId(b"\x02" * 16)


def entry(nid, lcv, crc=0, user_key=None):
    return IndexEntry(CompositeId(nid, lcv), 100, crc, user_key)


def build_index(pairs):
    idx = IdentifierIndex()
    idx.insert([entry(nid, lcv) for nid, lcv in pairs])
    return idx


def build_index_unchecked(pairs):
    """`build_index` for (nid, lcv) pairs drawn in range: each id and
    entry is built as `LogicalClock.next_id` builds a run's ids, without
    re-validating it."""
    idx = IdentifierIndex()
    idx.insert([tuple.__new__(IndexEntry, (tuple.__new__(CompositeId, (nid, lcv, 0)), 100, 0, None))
                for nid, lcv in pairs])
    return idx


# -- insert -------------------------------------------------------------------


def test_insert_into_empty_index():
    idx = IdentifierIndex()
    idx.insert([entry(N1, 1)])
    assert idx.entry_count == 1


def test_reinsert_identical_entry_is_idempotent():
    idx = IdentifierIndex()
    idx.insert([entry(N1, 1)])
    idx.insert([entry(N1, 1)])
    assert idx.entry_count == 1


def test_insert_reports_whether_it_added_the_entry():
    idx = IdentifierIndex()
    assert idx.insert([entry(N1, 5)]) == [0]  # append
    assert idx.insert([entry(N1, 2)]) == [0]  # foreign, inserted in order
    assert idx.insert([entry(N1, 5)]) == []
    assert idx.insert([entry(N1, 2)]) == []
    assert idx.entry_count == 2


def test_a_run_insert_reports_the_positions_it_added():
    idx = build_index([(N1, 3)])
    run = [entry(N1, 4), entry(N1, 3), entry(N2, 1), entry(N1, 2), entry(N1, 4)]
    assert idx.insert(run) == [0, 2, 3]
    with pytest.raises(ConflictingEntry) as conflict:
        idx.insert([entry(N1, 9), entry(N1, 3, crc=7), entry(N1, 10)])
    assert conflict.value.added == [0]  # inserted before the conflict; 10 never is
    assert [e.id.lcv for e in idx.entries_above(N1, 0)] == [2, 3, 4, 9]
    assert idx.entry_count == 5 and idx.insert([]) == []


def test_same_id_different_crc_conflicts():
    idx = IdentifierIndex()
    idx.insert([entry(N1, 1, crc=5)])
    with pytest.raises(ConflictingEntry):
        idx.insert([entry(N1, 1, crc=6)])


def test_foreign_insert_keeps_order():
    idx = IdentifierIndex()
    for lcv in (5, 1, 3, 2, 4):
        idx.insert([entry(N1, lcv)])
    assert [e.id.lcv for e in idx.entries_above(N1, 0)] == [1, 2, 3, 4, 5]


def test_byte_len_must_be_positive():
    with pytest.raises(ValueError):
        IndexEntry(CompositeId(N1, 1), 0, 0)


def test_replace_and_make_keep_the_byte_len_check():
    entry = IndexEntry(CompositeId(N1, 1), 10, 0)
    with pytest.raises(ValueError):
        entry._replace(byte_len=0)
    with pytest.raises(ValueError):
        IndexEntry._make((entry.id, -1, 0, None))
    assert entry._replace(crc=7) == IndexEntry(entry.id, 10, 7)
    assert type(entry._replace(user_key="k")) is IndexEntry


# -- entries_above --------------------------------------------------------------


def test_genesis_watermark_returns_all():
    idx = build_index([(N1, 1), (N1, 2), (N1, 3)])
    assert [e.id.lcv for e in idx.entries_above(N1, 0)] == [1, 2, 3]


def test_watermark_at_max_returns_empty():
    idx = build_index([(N1, 1), (N1, 2), (N1, 3)])
    assert idx.entries_above(N1, 3) == []


def test_unknown_nid_returns_empty():
    assert IdentifierIndex().entries_above(N1, 0) == []


def test_entries_above_matches_linear_filter_oracle():
    rng = Random(11)
    idx = IdentifierIndex()
    seen = set()
    all_entries = []
    for _ in range(10_000):
        nid = N1 if rng.random() < 0.5 else N2
        lcv = rng.randrange(1, 50_000)
        if (nid, lcv) in seen:
            continue
        seen.add((nid, lcv))
        e = entry(nid, lcv)
        idx.insert([e])
        all_entries.append(e)
    for _ in range(50):
        watermark = rng.randrange(0, 50_000)
        nid = N1 if rng.random() < 0.5 else N2
        got = [e.id.lcv for e in idx.entries_above(nid, watermark)]
        expected = sorted(
            e.id.lcv for e in all_entries if e.id.nid == nid and e.id.lcv > watermark
        )
        assert got == expected


# -- set difference -------------------------------------------------------------


def test_identical_indexes_empty_difference():
    idx = build_index([(N1, 1), (N2, 4)])
    same = build_index([(N1, 1), (N2, 4)])
    assert set_difference(idx, same) == ([], [])


def test_singleton_difference():
    a = build_index([(N1, 1)])
    b = IdentifierIndex()
    missing_in_b, missing_in_a = set_difference(a, b)
    assert [c.lcv for c in missing_in_b] == [1]
    assert missing_in_a == []


def test_difference_is_antisymmetric():
    rng = Random(5)
    a = build_index([(N1, rng.randrange(1, 100)) for _ in range(40)])
    b = build_index([(N1, rng.randrange(1, 100)) for _ in range(40)])
    ab = set_difference(a, b)
    ba = set_difference(b, a)
    assert ab[0] == ba[1] and ab[1] == ba[0]


def test_randomized_difference_matches_brute_force_oracle():
    for seed in range(100):
        rng = Random(seed)
        nids = [N1, N2, NodeId(b"\x03" * 16)]
        size_a, size_b = rng.randrange(0, 10_000), rng.randrange(0, 10_000)
        pairs_a = {(rng.choice(nids), rng.randrange(1, 20_000)) for _ in range(size_a)}
        pairs_b = {(rng.choice(nids), rng.randrange(1, 20_000)) for _ in range(size_b)}
        a = build_index_unchecked(sorted(pairs_a))  # one sorted run: each insert appends
        b = build_index_unchecked(sorted(pairs_b))
        meter = CostMeter(CostModel())
        missing_in_b, missing_in_a = set_difference(a, b, meter)
        assert {(c.nid, c.lcv) for c in missing_in_b} == pairs_a - pairs_b
        assert {(c.nid, c.lcv) for c in missing_in_a} == pairs_b - pairs_a
        # Table-I executable form: merge pass comparisons bounded by |a| + |b|
        assert meter.comparisons <= a.entry_count + b.entry_count


def test_difference_output_is_sorted():
    a = build_index([(N1, 3), (N1, 1), (N2, 2)])
    b = IdentifierIndex()
    missing_in_b, _ = set_difference(a, b)
    assert missing_in_b == sorted(missing_in_b)


@settings(max_examples=200)
@given(
    lcvs_a=st.sets(st.integers(min_value=1, max_value=300)),
    lcvs_b=st.sets(st.integers(min_value=1, max_value=300)),
)
def test_difference_property(lcvs_a, lcvs_b):
    a = build_index([(N1, lcv) for lcv in lcvs_a])
    b = build_index([(N1, lcv) for lcv in lcvs_b])
    missing_in_b, missing_in_a = set_difference(a, b)
    assert {c.lcv for c in missing_in_b} == lcvs_a - lcvs_b
    assert {c.lcv for c in missing_in_a} == lcvs_b - lcvs_a


N3 = NodeId(b"\x03" * 16)
_NIDS = (N1, N2, N3)


def window_difference_oracle(a, b, meter, since, nids):
    """The sync windows built the long way: each side's entries above the
    watermark, for the selected nids, inserted into a fresh index, then
    the two copies diffed."""
    def window(idx):
        copy = IdentifierIndex()
        selected = idx.nids() if nids is None else [n for n in nids if n in idx._runs]
        for nid in selected:
            floor = since.watermark(nid) if since is not None else 0
            copy.insert(idx.entries_above(nid, floor))
        return copy

    return set_difference(window(a), window(b), meter)


_LCV_SETS = st.dictionaries(st.sampled_from(_NIDS), st.sets(st.integers(1, 60), max_size=25))


def merge_difference(a, b, since=None, nids=None):
    """`set_difference` as one merge pass over every window, comparing no
    window whole first: (missing_in_b, missing_in_a, comparisons)."""
    missing_in_b, missing_in_a, comparisons = [], [], 0
    selected = set(a._runs) | set(b._runs) if nids is None else set(nids)
    for nid in sorted(selected):
        run_a, run_b = a._runs.get(nid), b._runs.get(nid)
        la, ea = (run_a.lcvs, run_a.entries) if run_a else ([], [])
        lb, eb = (run_b.lcvs, run_b.entries) if run_b else ([], [])
        floor = 0 if since is None else since.watermark(nid)
        i, j = bisect_right(la, floor), bisect_right(lb, floor)
        while i < len(la) and j < len(lb):
            comparisons += 1
            if la[i] == lb[j]:
                i, j = i + 1, j + 1
            elif la[i] < lb[j]:
                missing_in_b.append(ea[i].id)
                i += 1
            else:
                missing_in_a.append(eb[j].id)
                j += 1
        comparisons += (len(la) - i) + (len(lb) - j)
        missing_in_b += [e.id for e in ea[i:]]
        missing_in_a += [e.id for e in eb[j:]]
    return missing_in_b, missing_in_a, comparisons


@st.composite
def _near_runs(draw):
    """Two indexes' runs, each nid's pair cut from one drawn lcv sequence:
    one run a prefix of the other, or the whole sequence against it
    without the lcv at one drawn position; either side may take either."""
    runs_a, runs_b = {}, {}
    for nid in draw(st.lists(st.sampled_from(_NIDS), unique=True)):
        lcvs = sorted(draw(st.sets(st.integers(1, 60), max_size=25)))
        if lcvs and draw(st.booleans()):
            at = draw(st.integers(0, len(lcvs) - 1))
            ours, theirs = lcvs, lcvs[:at] + lcvs[at + 1 :]
        else:
            ours, theirs = lcvs, lcvs[: draw(st.integers(0, len(lcvs)))]
        if draw(st.booleans()):
            ours, theirs = theirs, ours
        runs_a[nid], runs_b[nid] = ours, theirs
    return runs_a, runs_b


@settings(max_examples=400)
@given(
    runs=st.tuples(_LCV_SETS, _LCV_SETS) | _near_runs(),
    watermarks=st.none() | st.dictionaries(st.sampled_from(_NIDS), st.integers(0, 70)),
    nids=st.none() | st.lists(st.sampled_from(_NIDS), max_size=4),
)
def test_windowed_difference_matches_window_copies(runs, watermarks, nids):
    # independent runs, and run pairs whose windows agree up to the shorter
    # one's length (which skip the merge) or but for one position: the same
    # delta as the window copies give, and the same count as the merge pass
    a, b = (build_index([(nid, lcv) for nid, lcvs in side.items() for lcv in lcvs])
            for side in runs)
    since = None if watermarks is None else Checkpoint(watermarks=watermarks)
    meter = CostMeter(CostModel())
    oracle_meter = CostMeter(CostModel())
    got = set_difference(a, b, meter, since=since, nids=nids)
    assert got == window_difference_oracle(a, b, oracle_meter, since, nids)
    missing_in_b, missing_in_a, comparisons = merge_difference(a, b, since, nids)
    assert got == (missing_in_b, missing_in_a)
    assert meter.comparisons == oracle_meter.comparisons == comparisons


def test_partitioned_writes_split_cleanly_by_direction():
    # writes during a partition land on distinct nids, so each id shows
    # up in exactly one direction of the difference
    shared = [(N1, 1), (N2, 1)]
    a = build_index(shared + [(N1, lcv) for lcv in range(2, 30)])
    b = build_index(shared + [(N2, lcv) for lcv in range(2, 25)])
    missing_in_b, missing_in_a = set_difference(a, b)
    assert all(c.nid == N1 for c in missing_in_b)
    assert all(c.nid == N2 for c in missing_in_a)
    assert not (set(missing_in_b) & set(missing_in_a))


# -- serialization ----------------------------------------------------------------


def test_empty_index_serializes_to_header_only():
    stream = serialize_index(IdentifierIndex())
    assert len(stream) == 16
    assert stream[:4] == b"MDRI"


def test_stream_length_formula():
    idx = build_index([(N1, i) for i in range(1, 8)])
    assert len(serialize_index(idx)) == 16 + 32 * 7


def test_roundtrip_reproduces_id_sequence():
    rng = Random(9)
    idx = build_index({(rng.choice([N1, N2]), rng.randrange(1, 5000)) for _ in range(800)})
    ids = deserialize_index(serialize_index(idx))
    assert ids == idx.ids()


def test_checkpointed_serialization_filters_by_watermark():
    idx = build_index([(N1, i) for i in range(1, 11)] + [(N2, i) for i in range(1, 6)])
    ckpt = Checkpoint(watermarks={N1: 8})
    ids = deserialize_index(serialize_index(idx, since=ckpt))
    assert {(c.nid, c.lcv) for c in ids} == {(N1, 9), (N1, 10)} | {(N2, i) for i in range(1, 6)}


N4 = NodeId(b"\x04" * 16)  # never holds a run
_U64 = st.sampled_from([0, 1, 2**32, 2**63, 2**64 - 2, 2**64 - 1]) | st.integers(0, 2**64 - 1)


@settings(max_examples=300)
@given(
    runs=st.dictionaries(st.sampled_from(_NIDS), st.dictionaries(_U64, _U64, max_size=20)),
    watermarks=st.none() | st.dictionaries(st.sampled_from(_NIDS), _U64),
    nids=st.none() | st.lists(st.sampled_from(_NIDS + (N4,)), unique=True, max_size=4),
)
def test_bulk_serialization_equals_per_id_encoding(runs, watermarks, nids):
    idx = IdentifierIndex()
    for nid, nst_of in runs.items():
        idx.insert([IndexEntry(CompositeId(nid, lcv, nst), 100, 0) for lcv, nst in nst_of.items()])
    since = None if watermarks is None else Checkpoint(watermarks=watermarks)
    stream = serialize_index(idx, since=since, nids=nids)
    selected = idx.nids() if nids is None else sorted(n for n in nids if n in runs)
    ids = [
        e.id
        for nid in selected
        for e in idx.entries_above(nid, -1 if since is None else since.watermark(nid))
    ]
    header = b"MDRI" + (1).to_bytes(4, "big") + len(ids).to_bytes(8, "big")
    assert stream == header + b"".join(encode_id(cid) for cid in ids)
    assert deserialize_index(stream) == ids


def test_deserialize_rejects_bad_magic():
    with pytest.raises(BadMagic):
        deserialize_index(b"XXXX" + b"\x00" * 12)


def test_deserialize_rejects_bad_version():
    stream = b"MDRI" + (9).to_bytes(4, "big") + (0).to_bytes(8, "big")
    with pytest.raises(BadVersion):
        deserialize_index(stream)


def test_deserialize_rejects_truncation():
    stream = serialize_index(build_index([(N1, 1), (N1, 2)]))
    with pytest.raises(TruncatedStream):
        deserialize_index(stream[:-5])
    with pytest.raises(TruncatedStream):
        deserialize_index(stream[:10])


def test_full_index_transfer_cost_reproduces_25_6_seconds():
    # one billion 32-byte entries over 10 GbE
    meter = CostMeter(CostModel())
    meter.charge_index_transfer(1_000_000_000 * 32)
    assert meter.t_index == pytest.approx(25.6)


def test_checkpoint_watermarks_never_decrease():
    ckpt = Checkpoint()
    ckpt.advance(N1, 10)
    ckpt.advance(N1, 5)
    assert ckpt.watermark(N1) == 10
