import hashlib
import struct
import sys
from collections import deque
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metadr.costs import CostMeter, CostModel
from metadr.hashline import (
    EMPTY_TREE_ROOT,
    BlockColumns,
    HashIndex,
    InconsistentIndex,
    commit_checkpoint,
    crash_interrupt,
    hash_delta,
    merkle_build,
    merkle_diff,
    payload_digest,
    pipeline_tick,
    rebuild_index,
    settle,
)
from metadr.identity import CompositeId, NodeId


def cid(i: int) -> CompositeId:
    """The i-th block's id: hash-index locators are the store's keys."""
    return CompositeId(NodeId(b"\x01" * 16), i + 1)


def descriptor(byte_len: int, seed: int) -> bytes:
    """A virtual block's content, as the node stores it."""
    return struct.pack(">QQ", byte_len, seed)


# ---------------------------------------------------------------------------
# independent SHA-256 reference (FIPS 180-4, straight from the pseudocode),
# used to cross-check the production path before anything else relies on it

_K = [
    0x428A2F98, 0x71374491, 0xB5C0FBCF, 0xE9B5DBA5, 0x3956C25B, 0x59F111F1,
    0x923F82A4, 0xAB1C5ED5, 0xD807AA98, 0x12835B01, 0x243185BE, 0x550C7DC3,
    0x72BE5D74, 0x80DEB1FE, 0x9BDC06A7, 0xC19BF174, 0xE49B69C1, 0xEFBE4786,
    0x0FC19DC6, 0x240CA1CC, 0x2DE92C6F, 0x4A7484AA, 0x5CB0A9DC, 0x76F988DA,
    0x983E5152, 0xA831C66D, 0xB00327C8, 0xBF597FC7, 0xC6E00BF3, 0xD5A79147,
    0x06CA6351, 0x14292967, 0x27B70A85, 0x2E1B2138, 0x4D2C6DFC, 0x53380D13,
    0x650A7354, 0x766A0ABB, 0x81C2C92E, 0x92722C85, 0xA2BFE8A1, 0xA81A664B,
    0xC24B8B70, 0xC76C51A3, 0xD192E819, 0xD6990624, 0xF40E3585, 0x106AA070,
    0x19A4C116, 0x1E376C08, 0x2748774C, 0x34B0BCB5, 0x391C0CB3, 0x4ED8AA4A,
    0x5B9CCA4F, 0x682E6FF3, 0x748F82EE, 0x78A5636F, 0x84C87814, 0x8CC70208,
    0x90BEFFFA, 0xA4506CEB, 0xBEF9A3F7, 0xC67178F2,
]


def _rotr(x, n):
    return ((x >> n) | (x << (32 - n))) & 0xFFFFFFFF


def sha256_reference(message: bytes) -> bytes:
    h = [0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A,
         0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19]
    length = len(message) * 8
    message += b"\x80"
    message += b"\x00" * ((56 - len(message) % 64) % 64)
    message += length.to_bytes(8, "big")
    for off in range(0, len(message), 64):
        w = [int.from_bytes(message[off + 4 * i : off + 4 * i + 4], "big") for i in range(16)]
        for i in range(16, 64):
            s0 = _rotr(w[i - 15], 7) ^ _rotr(w[i - 15], 18) ^ (w[i - 15] >> 3)
            s1 = _rotr(w[i - 2], 17) ^ _rotr(w[i - 2], 19) ^ (w[i - 2] >> 10)
            w.append((w[i - 16] + s0 + w[i - 7] + s1) & 0xFFFFFFFF)
        a, b, c, d, e, f, g, hh = h
        for i in range(64):
            s1 = _rotr(e, 6) ^ _rotr(e, 11) ^ _rotr(e, 25)
            ch = (e & f) ^ (~e & g)
            temp1 = (hh + s1 + ch + _K[i] + w[i]) & 0xFFFFFFFF
            s0 = _rotr(a, 2) ^ _rotr(a, 13) ^ _rotr(a, 22)
            maj = (a & b) ^ (a & c) ^ (b & c)
            temp2 = (s0 + maj) & 0xFFFFFFFF
            hh, g, f, e, d, c, b, a = (
                g, f, e, (d + temp1) & 0xFFFFFFFF, c, b, a, (temp1 + temp2) & 0xFFFFFFFF,
            )
        h = [(x + y) & 0xFFFFFFFF for x, y in zip(h, [a, b, c, d, e, f, g, hh])]
    return b"".join(x.to_bytes(4, "big") for x in h)


EMPTY_SHA = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
ABC_SHA = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"


def test_reference_implementation_matches_standard_vectors():
    assert sha256_reference(b"").hex() == EMPTY_SHA
    assert sha256_reference(b"abc").hex() == ABC_SHA


def test_fingerprint_standard_vectors():
    assert payload_digest(b"", 0).hex() == EMPTY_SHA
    assert payload_digest(b"abc", 3).hex() == ABC_SHA


def test_fingerprint_matches_reference_on_random_inputs():
    rng = Random(13)
    for _ in range(200):
        payload = rng.randbytes(rng.randrange(0, 300))
        assert payload_digest(payload, len(payload)) == sha256_reference(payload)


def test_fingerprint_deterministic():
    assert payload_digest(b"same content", 12) == payload_digest(b"same content", 12)


def test_fingerprint_charges_meter():
    meter = CostMeter(CostModel())
    payload_digest(b"x" * 1000, 1000, meter)
    assert meter.hashed_bytes == 1000
    assert meter.hash_ops == 1
    assert meter.t_hash == pytest.approx(1000 / (5e8 * 16))


def test_descriptor_digest_models_virtual_blocks():
    meter = CostMeter(CostModel())
    d1 = payload_digest(descriptor(4096, 17), 4096, meter)
    d2 = payload_digest(descriptor(4096, 17), 4096)
    d3 = payload_digest(descriptor(4096, 18), 4096)
    assert d1 == d2 != d3
    assert d1 == sha256_reference(descriptor(4096, 17))
    assert meter.hashed_bytes == 4096  # charged the modeled length


# -- merkle -------------------------------------------------------------------


def test_empty_tree_root_is_sha_of_empty():
    assert merkle_build([]).root == EMPTY_TREE_ROOT == hashlib.sha256(b"").digest()


def test_single_leaf_is_its_own_root():
    leaf = hashlib.sha256(b"leaf").digest()
    assert merkle_build([leaf]).root == leaf


def test_four_leaves_match_manual_three_hash_oracle():
    leaves = [hashlib.sha256(bytes([i])).digest() for i in range(4)]
    left = hashlib.sha256(leaves[0] + leaves[1]).digest()
    right = hashlib.sha256(leaves[2] + leaves[3]).digest()
    expected_root = hashlib.sha256(left + right).digest()
    meter = CostMeter(CostModel())
    tree = merkle_build(leaves, meter)
    assert tree.root == expected_root
    assert tree.internal_node_count == 3
    assert meter.hash_ops == 3


def test_odd_leaf_is_promoted_not_rehashed():
    leaves = [hashlib.sha256(bytes([i])).digest() for i in range(3)]
    pair = hashlib.sha256(leaves[0] + leaves[1]).digest()
    expected_root = hashlib.sha256(pair + leaves[2]).digest()
    tree = merkle_build(leaves)
    assert tree.root == expected_root
    assert tree.internal_node_count == 2


def test_identical_trees_diff_empty():
    leaves = [hashlib.sha256(bytes([i])).digest() for i in range(16)]
    diff = merkle_diff(merkle_build(leaves), merkle_build(leaves))
    assert diff.positions == []
    assert diff.node_visits == 1  # equal roots, nothing descended


def test_single_divergent_leaf_in_1024():
    rng = Random(21)
    leaves_a = [rng.randbytes(32) for _ in range(1024)]
    leaves_b = list(leaves_a)
    leaves_b[517] = rng.randbytes(32)
    diff = merkle_diff(merkle_build(leaves_a), merkle_build(leaves_b))
    assert diff.positions == [517]
    height = 11  # 1024 leaves -> 11 levels
    assert diff.node_visits <= 2 * (1 * height + 1)


def test_all_leaves_differ():
    rng = Random(22)
    a = [rng.randbytes(32) for _ in range(64)]
    b = [rng.randbytes(32) for _ in range(64)]
    diff = merkle_diff(merkle_build(a), merkle_build(b))
    assert diff.positions == list(range(64))


def test_diff_matches_exhaustive_leaf_compare():
    rng = Random(23)
    for _ in range(100):
        n = rng.randrange(1, 130)
        a = [rng.randbytes(32) for _ in range(n)]
        b = [leaf if rng.random() < 0.7 else rng.randbytes(32) for leaf in a]
        diff = merkle_diff(merkle_build(a), merkle_build(b))
        assert diff.positions == [i for i in range(n) if a[i] != b[i]]


def test_diff_pads_unequal_leaf_counts():
    rng = Random(24)
    a = [rng.randbytes(32) for _ in range(10)]
    b = a + [rng.randbytes(32) for _ in range(3)]
    diff = merkle_diff(merkle_build(a), merkle_build(b))
    assert diff.positions == [10, 11, 12]


# -- pipeline -----------------------------------------------------------------


def make_pipeline(blocks=0, size=100):
    state = HashIndex()
    for i in range(blocks):
        state.enqueue([cid(i)], [descriptor(size, i)], [size])
    return state


def test_budget_covering_everything_drains():
    state = make_pipeline(50)
    pipeline_tick(state, 50 * 100)
    assert state.lag_blocks == 0
    assert state.consistent_flag


def test_zero_budget_starves():
    state = make_pipeline(10)
    pipeline_tick(state, 0)
    assert state.lag_blocks == 10
    state.enqueue([cid(99)], [descriptor(100, 99)], [100])
    assert state.lag_blocks == 11  # strictly grows under starvation
    assert not state.consistent_flag


def test_sustained_ingest_at_twice_budget_halves_coverage():
    # closed-form queue arithmetic: per tick, 2 blocks in, budget for 1
    state = make_pipeline(0)
    locator = 0
    for _tick in range(40):
        for _ in range(2):
            state.enqueue([cid(locator)], [descriptor(100, locator)], [100])
            locator += 1
        pipeline_tick(state, 100)
    assert len(state.by_locator) == 40  # hashed half of the 80 ingested
    assert state.lag_blocks == 40


def test_negative_budget_rejected():
    with pytest.raises(ValueError):
        pipeline_tick(make_pipeline(1), -1)


def test_crash_at_checkpoint_is_noop():
    state = make_pipeline(20)
    pipeline_tick(state, 20 * 100)
    commit_checkpoint(state)
    assert crash_interrupt(state) == 0


def test_crash_reenqueues_everything_past_checkpoint():
    state = make_pipeline(10_000)
    pipeline_tick(state, 100 * 100)  # hash 100 blocks, checkpoint them
    commit_checkpoint(state)
    pipeline_tick(state, 10_000 * 100)  # hash the rest, no checkpoint
    assert state.lag_blocks == 0
    rolled = crash_interrupt(state)
    assert rolled == 9900
    assert state.lag_blocks == 9900
    assert not state.consistent_flag
    # post-crash rebuild cost equals the re-enqueued block count
    meter = CostMeter(CostModel())
    pipeline_tick(state, 9900 * 100, meter)
    assert meter.hash_ops == 9900


def test_crash_rollback_preserves_order():
    state = make_pipeline(8)
    pipeline_tick(state, 800)
    crash_interrupt(state)
    assert state.pending.locators == [cid(i) for i in range(8)]


def test_settle_drains_and_commits_the_checkpoint():
    state = make_pipeline(5)
    settled, hashed = settle(state, [], [])
    assert settled is state and hashed == 500
    assert state.consistent_flag and state.owed_bytes(10**6) == 0
    assert crash_interrupt(state) == 0  # the drain was committed


def test_settle_rebuilds_a_lost_index_and_its_aliases():
    state = make_pipeline(3)
    pipeline_tick(state, 300)
    state.mark_lost()
    blocks = [(cid(i), descriptor(100, i), 100) for i in range(3)]
    assert state.owed_bytes(300) == 300
    rebuilt, hashed = settle(state, blocks, [(cid(9), cid(1))])
    assert rebuilt is not state and hashed == 300 and rebuilt.consistent_flag
    assert rebuilt.by_locator[cid(9)] == rebuilt.by_locator[cid(1)]  # no rehash for an alias
    _, tree = rebuild_index(blocks)
    # the rebuild's tree is over the settled index's digests, in store order
    assert tree.levels[0] == [rebuilt.by_locator[cid(i)] for i in range(3)]


# -- rebuild and delta -----------------------------------------------------------


def test_rebuild_charges_full_inventory_bytes():
    # 1.1e14 bytes at H=5e8, C=16 -> 13,750 virtual seconds
    meter = CostMeter(CostModel())
    blocks = [(cid(0), descriptor(110_000_000_000_000, 1), 110_000_000_000_000)]
    rebuild_index(blocks, meter)
    assert meter.t_hash == pytest.approx(13_750.0)


def test_rebuild_empty_inventory_costs_nothing():
    meter = CostMeter(CostModel())
    index, tree = rebuild_index([], meter)
    assert meter.t_hash == 0
    assert tree.root == EMPTY_TREE_ROOT


def test_rebuild_16gb_costs_two_seconds():
    meter = CostMeter(CostModel())
    rebuild_index([(cid(0), descriptor(16_000_000_000, 1), 16_000_000_000)], meter)
    assert meter.t_hash == pytest.approx(2.0)


def test_rebuild_hash_ops_count_leaves_plus_internal_nodes():
    meter = CostMeter(CostModel())
    blocks = [(cid(i), descriptor(64, i), 64) for i in range(16)]
    index, tree = rebuild_index(blocks, meter)
    assert meter.hash_ops == 16 + tree.internal_node_count == 16 + 15
    assert meter.content_reads == 16
    assert index.consistent_flag


def test_hash_delta_identical_inventories():
    a, _ = rebuild_index([(cid(i), descriptor(64, i), 64) for i in range(10)])
    b, _ = rebuild_index([(cid(i), descriptor(64, i), 64) for i in range(10)])
    assert hash_delta(a, b) == ([], [])


def test_stale_index_refuses_delta_until_drained():
    state = make_pipeline(5)
    fresh, _ = rebuild_index([(cid(i), descriptor(64, i), 64) for i in range(5)])
    with pytest.raises(InconsistentIndex):
        hash_delta(state, fresh)
    pipeline_tick(state, 500)
    hash_delta(state, fresh)  # now serviceable


def test_lost_index_refuses_delta():
    index, _ = rebuild_index([(cid(i), descriptor(64, i), 64) for i in range(5)])
    index.mark_lost()
    other, _ = rebuild_index([(cid(i), descriptor(64, i), 64) for i in range(5)])
    with pytest.raises(InconsistentIndex):
        hash_delta(index, other)


def test_hash_delta_matches_content_comparison_oracle():
    rng = Random(31)
    for _ in range(30):
        contents_a = {cid(i): rng.randrange(20) for i in range(rng.randrange(1, 40))}
        contents_b = {cid(i): rng.randrange(20) for i in range(rng.randrange(1, 40))}
        a, _ = rebuild_index([(loc, descriptor(64, seed), 64)
                              for loc, seed in sorted(contents_a.items())])
        b, _ = rebuild_index([(loc, descriptor(64, seed), 64)
                              for loc, seed in sorted(contents_b.items())])
        missing_b, missing_a = hash_delta(a, b)
        values_a = set(contents_a.values())
        values_b = set(contents_b.values())
        assert {contents_a[loc] for loc in missing_b} == values_a - values_b
        assert {contents_b[loc] for loc in missing_a} == values_b - values_a


# -- the digest map ------------------------------------------------------------


def assert_digest_map_matches_reference(index: HashIndex) -> None:
    # the reference: every locator holding each digest, from the by_locator view.
    # Matching it includes the premise of a DR session's skip of equal locator
    # maps (`sync.compute_delta_hash`): every by_nid pair's digest is a
    # by_digest key with that locator among its holders
    ref: dict[bytes, set[CompositeId]] = {}
    for loc, digest in index.by_locator.items():
        ref.setdefault(digest, set()).add(loc)
    assert index.by_digest.keys() == ref.keys()
    for digest, held in ref.items():
        assert index.holder(digest) == min(held)
        value = index.by_digest[digest]
        if len(held) == 1:
            assert value == next(iter(held))
        else:
            assert isinstance(value, set) and value == held
    assert index.holder(b"\xff" * 32) is None
    flat = {loc: d for listed in index.by_nid.values() for loc, d in listed.items()}
    assert dict(index.by_locator) == flat and len(index.by_locator) == len(flat)
    assert all(loc in index.by_locator for loc in flat)
    assert CompositeId(NodeId(b"\x09" * 16), 1) not in index.by_locator  # an unknown nid


_LOCATOR = st.tuples(st.integers(1, 3), st.integers(1, 30)).map(
    lambda t: CompositeId(NodeId(bytes([t[0]]) * 16), t[1]))
_CONTENT = st.integers(0, 3)  # four contents, so digests are shared
_STEP = st.one_of(
    st.tuples(st.sampled_from(["add", "adopt", "enqueue"]), _LOCATOR, _CONTENT),
    st.tuples(st.just("tick"), st.integers(0, 5)),
    st.tuples(st.just("remove"), _LOCATOR),
    st.tuples(st.sampled_from(["checkpoint", "crash", "mark_lost", "settle"])),
)


@settings(max_examples=300, deadline=None)
@given(steps=st.lists(_STEP, max_size=60))
def test_digest_map_matches_a_reference_rebuilt_from_by_locator(steps):
    # every step draws a fresh locator, as a node's store does; a locator
    # drawn twice is skipped. The queue and the rollback list are checked
    # against a per-block reference: a deque of (locator, byte_len,
    # content) blocks, and a list. `settle` rebuilds a lost index from
    # the store as a node does: a locator whose content an earlier one
    # holds is an alias of it
    index = HashIndex()
    used: set[CompositeId] = set()
    store: dict[bytes, list[CompositeId]] = {}  # content -> its locators, in store order
    ref_pending, ref_hashed = deque(), []
    for step in steps:
        kind = step[0]
        if kind in ("add", "adopt", "enqueue"):
            _, loc, seed = step
            if loc in used:
                continue
            used.add(loc)
            content = descriptor(64, seed)
            store.setdefault(content, []).append(loc)
            if kind == "add":
                index.add_run([loc], [payload_digest(content, 64)])
            elif kind == "adopt":
                stored = BlockColumns([loc], [content], [64])
                index.adopt([loc], [payload_digest(content, 64)], stored)
                ref_hashed.append((loc, 64, content))
            else:
                index.enqueue([loc], [content], [64])
                ref_pending.append((loc, 64, content))
        elif kind == "tick":
            pipeline_tick(index, 64 * step[1])
            for _ in range(min(step[1], len(ref_pending))):
                ref_hashed.append(ref_pending.popleft())
        elif kind == "checkpoint":
            commit_checkpoint(index)
            ref_hashed.clear()
        elif kind == "crash":
            crash_interrupt(index)
            ref_pending.extendleft(reversed(ref_hashed))
            ref_hashed.clear()
        elif kind == "remove":
            index.remove(step[1])
        elif kind == "settle":
            blocks = [(locs[0], content, 64) for content, locs in store.items()]
            aliases = [(alias, locs[0]) for locs in store.values() for alias in locs[1:]]
            index, _ = settle(index, blocks, aliases)
            ref_pending.clear()
            ref_hashed.clear()
        else:
            index.mark_lost()
        assert_digest_map_matches_reference(index)
        assert rows_of(index.pending) == list(ref_pending)
        assert rows_of(index.hashed_since_checkpoint) == ref_hashed
        assert index.lag_bytes == 64 * len(ref_pending)


def test_unique_digests_take_no_set_each():
    index = HashIndex()
    index.add_run(map(cid, range(10_000)),
                  [payload_digest(descriptor(64, i), 64) for i in range(10_000)])
    assert not any(isinstance(v, set) for v in index.by_digest.values())
    # the map's own bytes: its table and any sets it holds (locators and
    # digests are shared with the by_nid maps)
    own = sys.getsizeof(index.by_digest) + sum(
        sys.getsizeof(v) for v in index.by_digest.values() if isinstance(v, set))
    assert own <= 1.5 * sum(map(sys.getsizeof, index.by_nid.values()))


# -- run kernels against per-block references --------------------------------------


def reference_add(index: HashIndex, locator: CompositeId, digest: bytes) -> None:
    """The digest-map rule written out for one block."""
    held = index.by_digest.get(digest)
    if held is None:
        index.by_digest[digest] = locator
    elif isinstance(held, set):
        held.add(locator)
    elif held != locator:
        index.by_digest[digest] = {held, locator}
    index.by_nid.setdefault(locator.nid, {})[locator] = digest


def reference_merkle(leaves: list[bytes]) -> tuple[bytes, int]:
    """(root, internal node count), one pair at a time."""
    if not leaves:
        return EMPTY_TREE_ROOT, 0
    level, internal = list(leaves), 0
    while len(level) > 1:
        upper = []
        for i in range(0, len(level) - 1, 2):
            upper.append(hashlib.sha256(level[i] + level[i + 1]).digest())
            internal += 1
        if len(level) % 2:
            upper.append(level[-1])
        level = upper
    return level[0], internal


def assert_same_maps(index: HashIndex, ref: HashIndex) -> None:
    assert index.by_digest == ref.by_digest
    assert ({nid: list(listed.items()) for nid, listed in index.by_nid.items()}
            == {nid: list(listed.items()) for nid, listed in ref.by_nid.items()})


def rows_of(columns) -> list[tuple[CompositeId, int, bytes]]:
    """A column run as (locator, byte_len, content) blocks."""
    return list(zip(columns.locators, columns.byte_lens, columns.contents))


def assert_same_meter(meter: CostMeter, ref: CostMeter) -> None:
    assert meter.t_hash == ref.t_hash  # bit-identical, not approximately equal
    assert meter.hashed_bytes == ref.hashed_bytes
    assert meter.hash_ops == ref.hash_ops
    assert meter.content_reads == ref.content_reads


# (nid, content seed, byte_len): three nids, and four contents so digests
# repeat within a run and across runs; lengths whose quotients by H*C round
_BLOCK = st.tuples(st.integers(1, 3), st.integers(0, 3), st.integers(1, 10**7))


def store_blocks(drawn, first: int = 0) -> list[tuple[CompositeId, bytes, int]]:
    """Drawn blocks as (locator, content, byte_len) rows, each locator new."""
    return [(CompositeId(NodeId(bytes([nid]) * 16), first + i + 1), descriptor(n, seed), n)
            for i, (nid, seed, n) in enumerate(drawn)]


@settings(max_examples=300, deadline=None)
@given(indexed=st.lists(_BLOCK, max_size=20), queued=st.lists(_BLOCK, max_size=40),
       extra=st.integers(0, 2 * 10**7), share=st.floats(0, 1.2), prior=st.floats(0, 1))
def test_pipeline_tick_matches_a_per_block_loop(indexed, queued, extra, share, prior):
    model = CostModel()
    rows = store_blocks(queued, first=len(indexed))
    backlog = sum(n for _, _, n in rows)
    budget = int(share * backlog) + extra  # from 0 to past the backlog
    # the reference keeps its queue and rollback list as (locator, byte_len,
    # content) blocks: a deque it pops one block at a time, and a list
    index, ref = HashIndex(), HashIndex()
    ref_pending, ref_hashed = deque(), []
    for locator, content, n in store_blocks(indexed):  # hashed before this tick
        for state in (index, ref):
            reference_add(state, locator, payload_digest(content, n))
        index.hashed_since_checkpoint.extend([locator], [content], [n])
        ref_hashed.append((locator, n, content))
    for locator, content, n in rows:
        index.enqueue([locator], [content], [n])
        ref_pending.append((locator, n, content))
    meter, ref_meter = CostMeter(model, t_hash=prior), CostMeter(model, t_hash=prior)

    done = pipeline_tick(index, budget, meter)

    ref_done, remaining = 0, budget
    while ref_pending and ref_pending[0][1] <= remaining:
        block = ref_pending.popleft()
        locator, n, content = block
        reference_add(ref, locator, payload_digest(content, n))
        ref_hashed.append(block)
        ref_meter.t_hash += model.hash_seconds(n)
        ref_meter.hashed_bytes += n
        ref_meter.hash_ops += 1
        remaining -= n
        ref_done += 1
    assert done == ref_done
    assert rows_of(index.pending) == list(ref_pending)
    assert index.lag_bytes == sum(n for _, n, _ in ref_pending)
    assert rows_of(index.hashed_since_checkpoint) == ref_hashed
    assert_same_maps(index, ref)
    assert_same_meter(meter, ref_meter)


@settings(max_examples=300, deadline=None)
@given(drawn=st.lists(_BLOCK, max_size=40), prior=st.floats(0, 1))
def test_rebuild_index_matches_a_per_block_loop(drawn, prior):
    model = CostModel()
    rows = store_blocks(drawn)
    meter, ref_meter = CostMeter(model, t_hash=prior), CostMeter(model, t_hash=prior)

    index, tree = rebuild_index(iter(rows), meter)

    ref, leaves = HashIndex(), []
    for locator, content, n in rows:
        digest = payload_digest(content, n)
        reference_add(ref, locator, digest)
        leaves.append(digest)
        ref_meter.t_hash += model.hash_seconds(n)
        ref_meter.hashed_bytes += n
        ref_meter.hash_ops += 1
        ref_meter.content_reads += 1
    root, internal = reference_merkle(leaves)
    ref_meter.hash_ops += internal
    assert_same_maps(index, ref)
    assert_same_meter(meter, ref_meter)
    assert (tree.root, tree.leaf_count, tree.internal_node_count) == (root, len(rows), internal)
    assert index.consistent_flag


def test_one_charge_over_a_run_equals_one_charge_per_length():
    rng = Random(7)
    lengths = [rng.randrange(1, 10**9) for _ in range(1000)]
    model = CostModel()
    run, single = CostMeter(model, t_hash=0.25), CostMeter(model, t_hash=0.25)
    charged = run.charge_hash(*lengths, ops=len(lengths))
    singles = 0.0
    for n in lengths:
        singles += single.charge_hash(n, ops=1)
    assert run.t_hash == single.t_hash and charged == singles
    assert run.hashed_bytes == single.hashed_bytes == sum(lengths)
    assert run.hash_ops == single.hash_ops == len(lengths)
    # the lengths tell the rule from one division of their sum
    assert 0.25 + sum(lengths) / (model.hash_throughput * model.cores) != run.t_hash
    assert run.charge_hash(ops=2) == 0.0 and run.hash_ops == len(lengths) + 2
