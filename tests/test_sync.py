from operator import itemgetter
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metadr.costs import CostMeter, CostModel, Volumetrics
from metadr.hashline import HashIndex, InconsistentIndex, payload_digest, pipeline_tick
from metadr.identity import CompositeId, NodeId, lww_key, new_node_id
from metadr.index import set_difference
from metadr.node import StorageNode
from metadr.sync import (
    Cluster,
    NodeStatusError,
    NoSurvivingReplica,
    _transfer,
    compute_delta_hash,
    compute_delta_meta,
    converge,
    ensure_baseline_consistent,
    execute_failback,
    execute_failover,
    replicate,
    sync_pair_hash,
    sync_pair_meta,
    volumetric_report,
)
from metadr.verify import _framework_equivalence_case, _split_brain_case

REFERENCE_VOL = Volumetrics(data_bytes=1.1e14, blocks=1_000_000_000, delta_bytes=1.0e12)


def at_reference_scale(live):
    """The live report's event charged at the reference volumetrics."""
    return volumetric_report(
        live.kind, live.framework, CostModel(), REFERENCE_VOL, wal_replay_s=live.t_wal_replay
    )


def make_nodes(count, *, baseline=False, seed=0):
    rng = Random(f"sync-test:{seed}")
    return [StorageNode(new_node_id(rng), baseline=baseline) for _ in range(count)]


def fill(node, n, tag=0):
    node.ingest([(128, tag * 1_000_000 + i) for i in range(n)])


def shared(cluster, a, b):
    """The nids both nodes host: a pair session's scope, as `converge` takes it."""
    return cluster.scope(b.nid, cluster.hosted[a.nid])


# -- compute_delta_meta ----------------------------------------------------------


def test_synchronized_peer_yields_empty_plan_with_header_only_streams():
    a, b = make_nodes(2)
    cluster = Cluster([a, b])
    fill(a, 10)
    sync_pair_meta(cluster, a, b, scope_nids=shared(cluster, a, b))
    ckpt = cluster.checkpoint(a.nid, b.nid)
    plan = compute_delta_meta(a.id_index, ckpt, b.id_index)
    assert plan.ids_to_pull == [] and plan.ids_to_push == []
    assert plan.index_bytes_exchanged == 2 * 16  # two bare headers


def test_peer_missing_delta_blocks():
    a, b = make_nodes(2)
    cluster = Cluster([a, b])
    fill(a, 20)
    sync_pair_meta(cluster, a, b, scope_nids=shared(cluster, a, b))
    fill(a, 7)  # the delta
    ckpt = cluster.checkpoint(a.nid, b.nid)
    plan = compute_delta_meta(a.id_index, ckpt, b.id_index)
    assert len(plan.ids_to_push) == 7
    assert plan.ids_to_pull == []
    assert {c.lcv for c in plan.ids_to_push} == set(range(21, 28))


def test_routine_replication_transmits_delta_not_inventory():
    a, b = make_nodes(2)
    cluster = Cluster([a, b])
    fill(a, 1000)
    sync_pair_meta(cluster, a, b, scope_nids=shared(cluster, a, b))
    fill(a, 5)
    ckpt = cluster.checkpoint(a.nid, b.nid)
    plan = compute_delta_meta(a.id_index, ckpt, b.id_index)
    # O(delta) entries on the wire, not O(N)
    assert plan.index_bytes_exchanged == (16 + 32 * 5) + 16


def test_delta_plan_against_brute_force_oracle():
    for seed in range(30):
        rng = Random(seed)
        a, b = make_nodes(2, seed=seed)
        cluster = Cluster([a, b])
        fill(a, rng.randrange(1, 80), tag=1)
        fill(b, rng.randrange(1, 80), tag=2)
        ckpt = cluster.checkpoint(a.nid, b.nid)
        plan = compute_delta_meta(a.id_index, ckpt, b.id_index)
        push, pull = set_difference(a.id_index, b.id_index)
        assert plan.ids_to_push == push
        assert plan.ids_to_pull == pull


# -- compute_delta_hash ----------------------------------------------------------


def test_fresh_indexes_plan_equals_content_truth():
    a, b = make_nodes(2, baseline=True)
    fill(a, 12, tag=1)
    fill(b, 9, tag=2)
    ensure_baseline_consistent(a)
    ensure_baseline_consistent(b)
    plan = compute_delta_hash(a.baseline, b.baseline)
    assert len(plan.ids_to_pull) == 9
    assert len(plan.ids_to_push) == 12


_PLAN_NIDS = [NodeId(bytes([k]) * 16) for k in (1, 2, 3)]
_UNHELD_NID = NodeId(b"\x09" * 16)


def _digest(content: int) -> bytes:
    return bytes([content]) * 32


@st.composite
def _hash_index_pairs(draw):
    """Two consistent hash indexes over three source nids, each nid's two
    locator maps drawn equal, partly equal, on one side only, or
    disjoint, and a session scope. Four contents, so digests repeat
    within and across nids (set-valued by_digest: the baseline's
    aliases); maybe one locator both sides hold under different digests
    (a corrupted copy, whose content no other block has); each side
    indexes its locators in a drawn order."""
    sides = ([], [])  # (locator, content) pairs, one list per side
    for nid in _PLAN_NIDS:
        relation = draw(st.sampled_from(["equal", "partly", "local", "peer", "disjoint"]))
        drawn = draw(st.dictionaries(st.integers(1, 12), st.integers(0, 3), max_size=8))
        pairs = [(CompositeId(nid, lcv), content) for lcv, content in sorted(drawn.items())]
        if relation == "equal":
            local, peer = pairs, pairs
        elif relation == "partly":
            local = [p for p in pairs if draw(st.booleans())]
            peer = [p for p in pairs if draw(st.booleans())]
        elif relation == "local":
            local, peer = pairs, []
        elif relation == "peer":
            local, peer = [], pairs
        else:
            others = draw(st.dictionaries(st.integers(13, 24), st.integers(0, 3), max_size=8))
            local = pairs
            peer = [(CompositeId(nid, lcv), content) for lcv, content in sorted(others.items())]
        sides[0].extend(local)
        sides[1].extend(peer)
    common = sorted(set(map(itemgetter(0), sides[0])) & set(map(itemgetter(0), sides[1])))
    if common and draw(st.booleans()):  # its digest is one no other block has
        corrupted = draw(st.sampled_from(common))
        at = list(map(itemgetter(0), sides[1])).index(corrupted)
        sides[1][at] = (corrupted, 4)
    indexes = []
    for side in sides:
        order = draw(st.permutations(side))
        index = HashIndex()
        index.add_run([loc for loc, _ in order], [_digest(content) for _, content in order])
        indexes.append(index)
    scope = draw(st.none() | st.lists(st.sampled_from(_PLAN_NIDS + [_UNHELD_NID]), unique=True))
    return indexes[0], indexes[1], scope


def _full_scan_plan(local, peer, scope_nids):
    """The hash plan from one scan of every listed locator on each side,
    skipping no nid: (ids to pull, ids to push, index bytes, meter
    comparisons)."""
    def listing(index):
        nids = index.by_nid if scope_nids is None else scope_nids
        return [(loc, digest) for nid in nids for loc, digest in index.by_nid.get(nid, {}).items()]

    def lacking(listed, puller):
        return [loc for loc, digest in listed if digest not in puller.by_digest]

    def held_elsewhere(listed, puller):
        return sorted(loc for loc, digest in listed
                      if digest in puller.by_digest and loc not in puller.by_locator)

    ours, theirs = listing(local), listing(peer)
    listed = len(ours) + len(theirs)
    return (lacking(theirs, local) + held_elsewhere(theirs, local),
            lacking(ours, peer) + held_elsewhere(ours, peer),
            2 * 16 + 32 * listed, listed)


@settings(max_examples=300, deadline=None)
@given(pair=_hash_index_pairs())
def test_skipping_equal_locator_maps_keeps_the_full_scan_plan(pair):
    local, peer, scope = pair
    meter = CostMeter(CostModel())
    plan = compute_delta_hash(local, peer, meter, scope)
    got = (plan.ids_to_pull, plan.ids_to_push, plan.index_bytes_exchanged, meter.comparisons)
    assert got == _full_scan_plan(local, peer, scope)


@pytest.mark.parametrize("fault", ["stale", "lost"])
def test_equal_listings_still_refuse_an_untrusted_index(fault):
    # every listed map is equal, so no locator is scanned; the session
    # must still refuse an index that is stale or lost
    local, peer = HashIndex(), HashIndex()
    locators = [CompositeId(_PLAN_NIDS[0], lcv) for lcv in (1, 2, 3)]
    for index in (local, peer):
        index.add_run(locators, [_digest(0), _digest(1), _digest(0)])
    if fault == "stale":  # a queued block of another nid: the listed maps stay equal
        peer.enqueue([CompositeId(_PLAN_NIDS[1], 1)], [b"queued"], [64])
        scope = _PLAN_NIDS[:1]
    else:  # a lost index lists nothing, nor does an empty one
        peer.mark_lost()
        local, scope = HashIndex(), None
    assert local.locators(scope) == peer.locators(scope)
    with pytest.raises(InconsistentIndex):
        compute_delta_hash(local, peer, CostMeter(CostModel()), scope)


def test_condition1_lag_cost_is_sum_of_lagged_blocks():
    a, b = make_nodes(2, baseline=True)
    fill(a, 25)  # pipeline never ticked: all 25 blocks lag
    ensure_baseline_consistent(b)
    assert a.baseline.owed_bytes(a.physical_bytes) == 25 * 128
    assert b.baseline.owed_bytes(b.physical_bytes) == 0


def test_assess_conditions_after_index_loss():
    a, b = make_nodes(2, baseline=True)
    fill(a, 10)
    ensure_baseline_consistent(a)
    a.baseline.mark_lost()
    assert a.baseline.owed_bytes(a.physical_bytes) == a.physical_bytes


# -- placement --------------------------------------------------------------------


@pytest.mark.parametrize("n", range(2, 7))
def test_ring_placement_matches_the_ring_formula(n):
    nodes = make_nodes(n, seed=n)
    for rf in range(1, n + 1):
        cluster = Cluster(nodes, replica_factor=rf)
        for i, node in enumerate(nodes):
            # i writes to the rf - 1 nodes after it, in ring order, and
            # hosts the nid of each node i - k for k < rf
            assert cluster.replicas[node.nid] == [nodes[(i + k) % n] for k in range(1, rf)]
            assert cluster.hosted[node.nid] == {
                other.nid for j, other in enumerate(nodes) if (i - j) % n < rf
            }
    unplaced = Cluster(nodes)
    every = {node.nid for node in nodes}
    assert all(unplaced.hosted[nid] == every for nid in every)
    for node in nodes:
        assert set(unplaced.replicas[node.nid]) == set(nodes) - {node}
    with pytest.raises(ValueError, match="replica_factor"):
        Cluster(nodes, replica_factor=n + 1)


# -- framework --------------------------------------------------------------------

FRAMEWORKS = [(False, "meta"), (True, "hash")]


@pytest.mark.parametrize("baseline, framework", FRAMEWORKS)
def test_a_cluster_runs_its_nodes_framework(baseline, framework):
    nodes = make_nodes(4, baseline=baseline)
    assert Cluster(nodes[:2]).framework == framework
    assert Cluster(nodes, replica_factor=2).framework == framework


def test_a_mixed_node_list_builds_no_cluster():
    meta, hashed = make_nodes(2), make_nodes(2, baseline=True, seed=1)
    for nodes in ([meta[0], hashed[0]], [hashed[0], meta[0], hashed[1]]):
        with pytest.raises(ValueError, match="mixes"):
            Cluster(nodes)


@pytest.mark.parametrize("baseline, framework", FRAMEWORKS)
def test_dr_events_run_and_report_the_clusters_framework(baseline, framework):
    cluster, (a, b, c) = make_cluster(baseline=baseline)
    fill(a, 10, tag=1)
    replicate_all(cluster, [a, b, c])
    a.crash()
    fill(b, 5, tag=2)
    failover = execute_failover(cluster, a.nid, c.nid)
    a.restart("none")
    failback = execute_failback(cluster, a.nid)
    fill(a, 5, tag=3)
    converged = converge(cluster, a.nid, b.nid)
    assert converged.kind == "converge" and converged.note == "rounds=1"
    reports = (failover, failback, converged)
    assert {report.framework for report in reports} == {framework}
    # only a hash session pays the baseline's owed rehash
    for report in reports:
        assert (report.hash_ops > 0) == baseline


# -- failover ---------------------------------------------------------------------


def make_cluster(n=3, *, baseline=False, seed=0):
    nodes = make_nodes(n, baseline=baseline, seed=seed)
    return Cluster(nodes), nodes


def replicate_all(cluster, nodes):
    for i, a in enumerate(nodes):
        for b in nodes[i + 1 :]:
            sync_pair_meta(cluster, a, b, scope_nids=shared(cluster, a, b))


def test_failover_produces_superset_and_phase_breakdown():
    cluster, (a, b, c) = make_cluster()
    fill(a, 30, tag=1)
    fill(b, 20, tag=2)
    replicate_all(cluster, [a, b, c])
    fill(b, 15, tag=3)  # written after the last sync; only b has these
    b.crash()
    report = execute_failover(cluster, b.nid, c.nid)
    assert report.kind == "failover" and report.framework == "meta"
    assert report.t_hash == 0.0 and report.hash_ops == 0 and report.content_reads == 0
    assert report.virtual_rto_seconds == pytest.approx(
        report.t_hash + report.t_index + report.t_delta + report.t_wal_replay
    )
    # substitute is a superset of everything the survivor holds
    _, missing = set_difference(c.id_index, a.id_index)
    assert missing == []


def test_failover_requires_crashed_node():
    cluster, (a, b, c) = make_cluster()
    with pytest.raises(RuntimeError):
        execute_failover(cluster, b.nid, c.nid)


def test_failover_without_survivors():
    cluster, (a, b) = make_cluster(2)
    fill(a, 5)
    a.crash()
    with pytest.raises(NoSurvivingReplica):
        execute_failover(cluster, a.nid, b.nid)


def test_paper_scale_failover_rtos():
    reports = {}
    for baseline in (True, False):  # a hash twin and a meta twin of one filled cluster
        cluster, (a, b, c) = make_cluster(baseline=baseline)
        fill(a, 10)
        replicate_all(cluster, [a, b, c])
        for node in (a, b, c):
            ensure_baseline_consistent(node)
        a.crash()
        live = execute_failover(cluster, a.nid, c.nid)
        reports[live.framework] = at_reference_scale(live)
    hash_report, meta_report = reports["hash"], reports["meta"]
    assert hash_report.virtual_rto_seconds == pytest.approx(14_575.6, abs=0.5)
    assert meta_report.virtual_rto_seconds == pytest.approx(825.6, abs=0.5)
    assert meta_report.t_hash == 0.0
    factor = hash_report.virtual_rto_seconds / meta_report.virtual_rto_seconds
    assert factor == pytest.approx(17.65, abs=0.1)


def test_zero_delta_failover_is_index_time_only():
    report = volumetric_report(
        "failover", "meta", CostModel(),
        Volumetrics(data_bytes=1.1e14, blocks=1_000_000_000, delta_bytes=0.0),
    )
    assert report.t_delta == 0.0
    assert report.virtual_rto_seconds == report.t_index


def test_network_bytes_identical_across_frameworks():
    meta_r = volumetric_report("failover", "meta", CostModel(), REFERENCE_VOL)
    hash_r = volumetric_report("failover", "hash", CostModel(), REFERENCE_VOL)
    assert meta_r.network_bytes == hash_r.network_bytes
    assert hash_r.t_hash > 0 and meta_r.t_hash == 0


# -- failback ---------------------------------------------------------------------


def test_failback_with_no_absence_writes():
    cluster, (a, b, c) = make_cluster()
    fill(a, 10)
    replicate_all(cluster, [a, b, c])
    a.crash()
    a.restart("none")  # owes one replay: 18 s on the default model
    report = execute_failback(cluster, a.nid)
    assert report.t_wal_replay == 18.0
    assert report.t_delta == 0.0
    assert report.virtual_rto_seconds == pytest.approx(report.t_index + 18.0)


def test_failback_acquires_absence_writes_union_oracle():
    for seed in range(20):
        rng = Random(seed)
        cluster, nodes = make_cluster(3, seed=seed)
        a, b, c = nodes
        fill(a, 10, tag=1)
        replicate_all(cluster, nodes)
        a.crash()
        for node, tag in ((b, 2), (c, 3)):
            fill(node, rng.randrange(1, 30), tag=tag)
        sync_pair_meta(cluster, b, c, scope_nids=shared(cluster, b, c))
        a.restart("none")
        # oracle: snapshot the union of everything anyone holds pre-failback
        union_before = (
            {e.id for e in a.id_index.entries()}
            | {e.id for e in b.id_index.entries()}
            | {e.id for e in c.id_index.entries()}
        )
        execute_failback(cluster, a.nid)
        assert {e.id for e in a.id_index.entries()} == union_before


def test_crash_failback_includes_replay_in_report():
    cluster, (a, b, c) = make_cluster()
    fill(a, 5)
    replicate_all(cluster, [a, b, c])
    a.crash(torn_wal_bytes=5)
    a.restart("none")
    report = at_reference_scale(execute_failback(cluster, a.nid))
    assert report.t_wal_replay == 18.0
    assert report.virtual_rto_seconds > 825.0


def test_a_failback_charges_each_replay_its_node_owes_on_the_clusters_model():
    for model, charged in ((None, 36.0), (CostModel(wal_replay_seconds=0.0), 0.0)):
        a, b = make_nodes(2)
        cluster = Cluster([a, b], model)
        for _ in range(2):
            a.crash()
            a.restart("none")
        assert a.pending_wal_replays == 2
        assert execute_failback(cluster, a.nid).t_wal_replay == charged
        assert a.pending_wal_replays == 0
        assert execute_failback(cluster, a.nid).t_wal_replay == 0.0


def test_a_failback_whose_session_raises_leaves_its_replays_owed(monkeypatch):
    a, b = make_nodes(2)
    cluster = Cluster([a, b])
    a.crash()
    a.restart("none")

    def broken(*args):
        raise RuntimeError("session failed")

    monkeypatch.setattr("metadr.sync._session", broken)
    with pytest.raises(RuntimeError, match="session failed"):
        execute_failback(cluster, a.nid)
    assert a.pending_wal_replays == 1


# -- converge -----------------------------------------------------------------------


def test_disjoint_partition_writes_converge_in_one_round():
    a, b = make_nodes(2)
    fill(a, 40, tag=1)
    fill(b, 25, tag=2)
    converge(Cluster([a, b]), a.nid, b.nid)
    assert a.id_index.same_ids(b.id_index)
    assert a.id_index.entry_count == 65


def test_identical_indexes_converge_idempotently():
    a, b = make_nodes(2)
    fill(a, 10)
    cluster = Cluster([a, b])
    converge(cluster, a.nid, b.nid)
    report = converge(cluster, a.nid, b.nid)
    assert report.network_bytes == 2 * 16  # incremental repeat: empty windows
    report = converge(Cluster([a, b]), a.nid, b.nid)
    assert report.network_bytes > 2 * 16  # fresh pair: the whole indexes compared
    assert report.t_delta == 0.0  # and nothing moves


def test_converge_is_commutative_and_idempotent_across_seeds():
    for seed in range(25):
        rng = Random(seed)
        a, b = make_nodes(2, seed=seed)
        fill(a, rng.randrange(1, 50), tag=1)
        fill(b, rng.randrange(1, 50), tag=2)
        converge(Cluster([a, b]), a.nid, b.nid)
        before = (a.id_index.entry_count, b.id_index.entry_count)
        converge(Cluster([a, b]), b.nid, a.nid)  # full exchange again
        assert (a.id_index.entry_count, b.id_index.entry_count) == before
        assert a.id_index.same_ids(b.id_index)


@pytest.mark.parametrize("framework", ["meta", "hash"])
def test_converge_moves_only_the_nids_both_nodes_host(framework):
    # a 4-node ring at RF=2: a and b share a's nid, a and c share none
    a, b, c, d = make_nodes(4, baseline=framework == "hash")
    cluster = Cluster([a, b, c, d], replica_factor=2)
    for tag, node in enumerate((a, b, c, d)):
        fill(node, 10, tag=tag)
    converge(cluster, a.nid, b.nid)
    assert {cid.nid for cid in b.id_index.ids()} == {a.nid, b.nid}
    assert {cid.nid for cid in a.id_index.ids()} == {a.nid}
    report = converge(cluster, a.nid, c.nid)
    assert report.network_bytes == 2 * 16  # one empty index header per side
    assert a.id_index.entry_count == c.id_index.entry_count == 10


def test_converge_raises_when_the_pair_still_differs(monkeypatch):
    a, b = make_nodes(2)
    fill(a, 5)
    monkeypatch.setattr("metadr.sync._session", lambda *args: None)
    with pytest.raises(RuntimeError, match="unequal"):
        converge(Cluster([a, b]), a.nid, b.nid)


@pytest.mark.parametrize("baseline", [False, True])
def test_converge_refuses_an_open_partition_and_moves_nothing(baseline):
    a, b = make_nodes(2, baseline=baseline)
    fill(a, 5, tag=1)
    fill(b, 3, tag=2)
    cluster = Cluster([a, b])
    cluster.partitions = [((0,), (1,))]

    def state():
        return [(n.id_index.entries(), list(n.block_store.items()), n.dr_active,
                 n.baseline and n.baseline.lag_blocks) for n in (a, b)]

    before = state()
    with pytest.raises(RuntimeError, match="open partition"):
        converge(cluster, a.nid, b.nid)
    assert state() == before
    assert cluster.checkpoint(a.nid, b.nid).watermarks == {}
    cluster.partitions = []
    converge(cluster, a.nid, b.nid)
    assert a.id_index.same_ids(b.id_index) and a.id_index.entry_count == 8


def test_an_open_partition_cuts_placement_and_the_push_until_it_heals():
    a, b, c = make_nodes(3)
    cluster = Cluster([a, b, c])
    cluster.partitions = [((0,), (2,))]
    assert [peer for peer, _ in cluster.placement_peers(a.nid, [a.nid])] == [b]
    fill(a, 4)
    replicate(cluster, a)
    assert (b.id_index.entry_count, c.id_index.entry_count) == (4, 0)
    cluster.partitions.clear()
    assert [peer for peer, _ in cluster.placement_peers(a.nid, [a.nid])] == [b, c]
    fill(a, 1)
    replicate(cluster, a)  # the next push catches the cut-off peer up
    assert b.id_index.same_ids(a.id_index) and c.id_index.same_ids(a.id_index)
    assert a.id_index.entry_count == 5


def test_converge_needs_both_nodes_up():
    a, b = make_nodes(2)
    b.crash()
    with pytest.raises(NodeStatusError, match="crashed"):
        converge(Cluster([a, b]), a.nid, b.nid)


# -- split brain ---------------------------------------------------------------------


def converged_twins(write, seed=0):
    """Run `write(a, b)` on two twin node pairs, then heal the split
    brain with `converge`, one pair as (a, b) and its twin as (b, a)
    (`_split_brain_case`, which must pass). Returns the four nodes."""
    pairs = []
    for _ in range(2):
        a, b = make_nodes(2, seed=seed)
        write(a, b)
        pairs.append((a, b))
    ok, detail = _split_brain_case(*pairs)
    assert ok, detail
    return (*pairs[0], *pairs[1])


def test_no_shared_keys_means_no_conflicts():
    def write(a, b):
        a.ingest([b"1"], ["left"])
        b.ingest([b"2"], ["right"])

    for node in converged_twins(write):
        assert node.id_index.entry_count == 2
        assert (node.read("left"), node.read("right")) == (b"1", b"2")


def test_lww_by_lcv_picks_higher_value():
    def write(a, b):
        for _ in range(16):
            a.ingest([b"filler"])  # advance a's clock to 17
        a.ingest([b"a-write"], ["shared"])  # lcv 17
        for _ in range(39):
            b.ingest([b"filler"])
        b.ingest([b"b-write"], ["shared"])  # lcv 40

    for node in converged_twins(write):
        assert node.read("shared") == b"b-write"
        assert node.by_user_key["shared"].lcv == 40
        assert node.id_index.entry_count == 17 + 40


def test_lcv_tie_broken_by_greater_nid():
    def write(a, b):
        a.ingest([b"A"], ["k"])  # lcv 1 on both sides
        b.ingest([b"B"], ["k"])

    a, b, *_ = nodes = converged_twins(write)
    expected = b"A" if a.nid > b.nid else b"B"
    assert [node.read("k") for node in nodes] == [expected] * 4


def test_reconcile_deterministic_across_argument_order():
    for seed in range(25):
        def write(a, b, seed=seed):
            rng = Random(seed)
            for i in range(rng.randrange(1, 15)):
                key = f"k{rng.randrange(6)}"
                (a if rng.random() < 0.5 else b).ingest([(64, i)], [key])

        a, b, twin_a, twin_b = converged_twins(write, seed=seed)
        assert a.id_index.ids() == twin_b.id_index.ids()
        assert a.by_user_key == b.by_user_key == twin_a.by_user_key == twin_b.by_user_key


def test_merge_never_loses_ids_and_conflicts_have_two_sources():
    for seed in range(15):
        written = {}

        def write(a, b, seed=seed):
            rng = Random(seed + 500)
            for i in range(rng.randrange(2, 25)):
                key = f"k{rng.randrange(4)}"
                node = a if rng.random() < 0.5 else b
                written[node.ingest([(64, i)], [key])[0]] = key

        nodes = converged_twins(write, seed=seed + 500)
        for node in nodes:
            assert set(node.id_index.ids()) == set(written)  # union, nothing lost
        for key in set(written.values()):
            versions = [cid for cid, k in written.items() if k == key]
            if len({cid.nid for cid in versions}) < 2:
                continue  # written on one side only: no conflict
            winner = max(versions, key=lww_key)
            assert all(node.by_user_key[key] == winner for node in nodes)


# -- framework equivalence -------------------------------------------------------------


def test_frameworks_transfer_identical_block_sets():
    for seed in range(10):
        ok, detail = _framework_equivalence_case(Random(seed), max_blocks=60)
        assert ok, f"{detail} at seed {seed}"


def test_hash_exchange_binds_ids_whose_content_the_puller_holds():
    a, b = make_nodes(2, baseline=True)
    cluster = Cluster([a, b])
    shared_a = a.ingest([b"same bytes"])[0]
    shared_b = b.ingest([b"same bytes"])[0]
    a.ingest([b"only on a"])
    meter = CostMeter(CostModel())
    plan = sync_pair_hash(cluster, a, b, meter, scope_nids=shared(cluster, a, b))
    assert plan.content_bytes_to_transfer == len(b"only on a")
    assert a.id_index.same_ids(b.id_index) and a.id_index.entry_count == 3
    assert a.physical_block_count == 2 and b.physical_block_count == 2
    assert a.read_verify(shared_b) == b.read_verify(shared_a) == b"same bytes"
    # a rebuilt index still lists the bound id: nothing is owed or moved
    a.baseline.mark_lost()
    plan = sync_pair_hash(cluster, a, b, scope_nids=shared(cluster, a, b))
    assert plan.content_bytes_to_transfer == 0
    assert shared_b in a.baseline.by_locator


def test_hash_pull_of_two_ids_with_equal_content_stores_one_block():
    # the ids move as one run: the first is adopted with its content, and
    # the second, whose digest the first brought, is its alias
    a, b = make_nodes(2, baseline=True)
    first, second = b.ingest([b"same bytes", b"same bytes"])
    cluster = Cluster([a, b])
    plan = sync_pair_hash(cluster, a, b, scope_nids=shared(cluster, a, b))
    assert plan.ids_to_pull == [first, second]
    assert plan.content_bytes_to_transfer == len(b"same bytes")
    assert list(a.block_store) == [first]
    assert a.indirection_table == {second: first}
    assert a.read_verify(second) == a.read_verify(first) == b"same bytes"
    assert a.baseline.by_locator[second] == a.baseline.by_locator[first]


def test_pipeline_crash_rolls_back_only_a_digest_adopted_after_the_drain():
    a, b = make_nodes(2, baseline=True)
    cluster = Cluster([a, b])
    fill(a, 10, tag=1)
    only_b = b.ingest([(128, 7)])[0]
    # drains both, then a adopts only_b's digest
    sync_pair_hash(cluster, a, b, scope_nids=shared(cluster, a, b))
    a.crash()
    a.restart("pipeline_crash")
    assert a.baseline.lag_blocks == 1 and only_b not in a.baseline.by_locator
    assert len(a.baseline.by_locator) == 10  # the drained digests survive
    assert ensure_baseline_consistent(a) == 128  # rehash of the one rolled back
    assert only_b in a.baseline.by_locator


# -- the run transfer ------------------------------------------------------------


def _per_id_transfer(puller, source, ids):
    """The reference hash transfer, one id at a time: an id whose digest
    the puller holds at its turn reads the copy the digest's holder
    reads, and any other is adopted with its content. Returns the
    content bytes moved."""
    index, by_nid = puller.baseline, source.baseline.by_nid
    moved = 0
    for cid in ids:
        digest = by_nid[cid.nid][cid]
        entry = source.id_index.get(cid)
        kept = index.holder(digest)
        if kept is not None:
            if puller.id_index.insert([entry]):
                puller._resolve_keys([entry])
                puller.indirection_table[cid] = puller.indirection_table.get(kept, kept)
            index.add_run([cid], [digest])
            continue
        puller.replicate_in([entry], source.stored_blocks([cid]), [digest])
        moved += entry.byte_len
    return moved


# six contents, so digests repeat within a run and across the nodes
_BLOCKS = st.lists(st.tuples(st.integers(0, 5), st.none() | st.sampled_from("ab")), max_size=12)


@st.composite
def _transfer_recipes(draw):
    """How to build a baseline puller and source: three node ids in a
    drawn order, each node's own blocks, the runs of a third node's
    blocks that the puller and the source took in with digests (a digest
    a node already holds binds an alias, and an alias of an alias when
    its least holder is an alias), and a shuffle of the transferred ids."""
    nids = draw(st.permutations([1, 2, 3]))
    blocks = [draw(_BLOCKS) for _ in range(3)]
    picks = st.lists(st.lists(st.integers(0, 11), max_size=4), max_size=3)
    return nids, blocks, draw(picks), draw(picks), draw(st.none() | st.integers(0, 2**16))


def _baseline_pair(recipe):
    """The drained puller and source a recipe builds, and the ids of the
    source that the puller lacks, in the recipe's order."""
    nids, blocks, puller_runs, source_runs, order = recipe
    puller, source, third = (StorageNode(NodeId(bytes([k]) * 16), baseline=True) for k in nids)
    for node, run in zip((puller, source, third), blocks):
        node.ingest([b"content %d" % c * (c + 1) for c, _ in run], [key for _, key in run])
        ensure_baseline_consistent(node)
    third_ids = third.id_index.ids()
    for node, runs in ((puller, puller_runs), (source, source_runs)):
        for picks in runs:
            run = [third_ids[i] for i in picks if i < len(third_ids)]
            node.replicate_in(list(map(third.id_index.get, run)), third.stored_blocks(run),
                              list(map(third.baseline.by_locator.__getitem__, run)))
    held = set(puller.id_index.ids())
    ids = [cid for cid in source.id_index.ids() if cid not in held]
    if order is not None:
        Random(order).shuffle(ids)
    return puller, source, ids


def _transfer_state(node):
    """What a hash transfer can change on the puller, order-sensitive."""
    index = node.baseline
    rollback = index.hashed_since_checkpoint
    return (
        list(node.indirection_table.items()),
        list(node.block_store),
        {nid: list(listed.items()) for nid, listed in index.by_nid.items()},
        index.by_digest,
        (rollback.locators, rollback.contents, rollback.byte_lens),
        node.id_index.entries(),
        node.by_user_key,
    )


@settings(max_examples=200, deadline=None)
@given(recipe=_transfer_recipes())
def test_a_hash_transfer_run_equals_the_per_id_transfer(recipe):
    run_puller, run_source, ids = _baseline_pair(recipe)
    puller, source, _ = _baseline_pair(recipe)
    assert _transfer(run_puller, run_source, ids, digests=True) == (
        _per_id_transfer(puller, source, ids))
    assert _transfer_state(run_puller) == _transfer_state(puller)


_BASELINE_OPS = ("ingest", "replicate_in", "tick", "adopt", "pipeline_crash",
                 "index_loss", "drain")


@settings(max_examples=150, deadline=None)
@given(steps=st.lists(st.tuples(st.sampled_from(_BASELINE_OPS), st.integers(0, 1_000)),
                      max_size=40))
def test_baseline_owes_what_its_drain_pays(steps):
    node, source = make_nodes(2, baseline=True)
    for op, n in steps:
        if op == "ingest":
            node.ingest([(64 + n, n)])
        elif op in ("replicate_in", "adopt"):
            cid = source.ingest([(64 + n, n)])[0]
            entry, (content,) = source.id_index.get(cid), source.stored_blocks([cid])
            digest = payload_digest(content) if op == "adopt" else None
            node.replicate_in([entry], [content], None if digest is None else [digest])
        elif op == "tick":
            pipeline_tick(node.baseline, n)
        elif op in ("pipeline_crash", "index_loss"):
            node.crash()
            node.restart(op)
        else:
            owed = node.baseline.owed_bytes(node.physical_bytes)
            assert ensure_baseline_consistent(node) == owed
            assert node.baseline.owed_bytes(node.physical_bytes) == 0
        index = node.baseline
        assert index.lag_bytes == sum(index.pending.byte_lens)
        assert index.consistent_flag == (not index.lost and index.lag_blocks == 0)
        if not index.lost:  # every id is indexed or queued, never both
            queued = index.pending.locators
            assert set(index.by_locator).isdisjoint(queued)
            assert set(index.by_locator) | set(queued) == set(node.id_index.ids())


def test_k_node_gossip_converges_within_tournament_bound():
    # rounds sweep adjacent pairs, alternating direction: the forward sweep
    # gathers the union at the last node and the reversed one spreads it
    # back, so two rounds converge any k >= 3 within the k - 1 bound
    for k in (3, 4, 5, 8):
        for seed in range(5):
            rng = Random(f"gossip:{k}:{seed}")
            nodes = [StorageNode(new_node_id(rng)) for _ in range(k)]
            ingested = 0
            for tag, node in enumerate(nodes):
                for i in range(rng.randrange(1, 25)):
                    node.ingest([(64, tag * 10_000 + i)])
                    ingested += 1
            cluster = Cluster(nodes)
            pairs = list(zip(nodes, nodes[1:]))
            rounds = 0
            while not all(n.id_index.same_ids(nodes[0].id_index) for n in nodes[1:]):
                assert rounds < k - 1
                for a, b in pairs if rounds % 2 == 0 else reversed(pairs):
                    converge(cluster, a.nid, b.nid)
                rounds += 1
            assert rounds == 2
            assert nodes[0].id_index.entry_count == ingested
