"""DR protocol engine: failover, failback, convergence, reconciliation.

Synchronization is an incremental index exchange. Each node pair shares
a checkpoint (per-source-nid watermarks of the highest mutually
synchronized lcv); a session exchanges only the windows above the
checkpoint, diffs them with a single merge pass, transfers the missing
blocks in both directions, and advances the checkpoint. Because every
pull takes the peer's whole window, per-source holdings remain prefixes
of the source's emission order, which keeps max-based watermarks sound.

Under the metadata framework the identification step touches ids only:
no content is read and nothing is hashed, and the per-event report's
counters prove it. Under the hash baseline, any active failure
condition (stale, interrupted, or lost hash index) must be paid for in
rehash time before a delta can even be computed.

Reports can be produced at two fidelities: live (costs from the bytes
actually moved at desk scale) and volumetric (costs charged from
declared production-scale parameters while the live mechanics still run).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .costs import CostMeter, CostModel
from .hashline import PipelineState, hash_delta, pipeline_tick, rebuild_index
from .identity import CompositeId, NodeId, lww_key
from .index import (
    WIRE_HEADER_BYTES,
    Checkpoint,
    IdentifierIndex,
    serialize_index,
    set_difference,
)
from .node import NodeStatus, StorageNode


class NoSurvivingReplica(RuntimeError):
    pass


class NodeStatusError(RuntimeError):
    def __init__(self, node) -> None:
        super().__init__(f"node {node.nid} is {node.status.value}")


@dataclass
class DeltaPlan:
    """What a sync session decided to move.

    ids_to_pull / ids_to_push hold CompositeIds for the metadata
    framework and block locators for the hash baseline. A nonzero
    rehash_required_bytes means the plan is not serviceable until that
    hashing cost has been paid (the baseline's bottleneck).
    """

    ids_to_pull: list = field(default_factory=list)
    ids_to_push: list = field(default_factory=list)
    index_bytes_exchanged: int = 0
    content_bytes_to_transfer: int = 0
    rehash_required_bytes: int = 0


@dataclass
class DrReport:
    """Per-event recovery accounting: phase breakdown plus counters."""

    kind: str  # failover | failback | converge
    framework: str  # meta | hash
    t_hash: float = 0.0
    t_index: float = 0.0
    t_delta: float = 0.0
    t_wal_replay: float = 0.0
    hash_ops: int = 0
    content_reads: int = 0
    comparisons: int = 0
    network_bytes: int = 0
    blocks_transferred: int = 0
    note: str = ""

    @property
    def virtual_rto_seconds(self) -> float:
        return self.t_hash + self.t_index + self.t_delta + self.t_wal_replay

    def scaled(self, factor: float) -> "DrReport":
        """Apply a multiplicative jitter factor to every phase (the RTO
        stays the sum of its components)."""
        return replace(
            self,
            t_hash=self.t_hash * factor,
            t_index=self.t_index * factor,
            t_delta=self.t_delta * factor,
            t_wal_replay=self.t_wal_replay * factor,
        )


@dataclass
class ReconciliationPolicy:
    mode: str = "lww_by_lcv"  # or "application_merge_hook"
    merge_hook: object = None  # callable(user_key, head_a, head_b) -> CompositeId


@dataclass
class Conflict:
    user_key: str
    candidates: tuple
    winner: CompositeId


@dataclass
class Volumetrics:
    """Paper-scale per-event parameters for virtual cost accounting."""

    data_bytes: float
    blocks: int
    delta_bytes: float
    extra_rehash_fraction: float = 0.0  # condition-2 re-enqueued work


class Cluster:
    """The DR engine's view of a cluster: nodes, cost model, pair state."""

    def __init__(
        self,
        nodes: list[StorageNode],
        model: CostModel | None = None,
        replica_map: dict[NodeId, set[NodeId]] | None = None,
    ) -> None:
        self.nodes: dict[NodeId, StorageNode] = {n.nid: n for n in nodes}
        if len(self.nodes) != len(nodes):
            raise ValueError("duplicate node ids in cluster")
        self.model = model if model is not None else CostModel()
        self.replica_map = replica_map
        self._checkpoints: dict[frozenset, Checkpoint] = {}
        self.partitions: list[tuple[frozenset, frozenset]] = []

    def node(self, nid: NodeId) -> StorageNode:
        return self.nodes[nid]

    def checkpoint(self, a: NodeId, b: NodeId) -> Checkpoint:
        key = frozenset((a, b))
        ckpt = self._checkpoints.get(key)
        if ckpt is None:
            ckpt = self._checkpoints[key] = Checkpoint(peer=max(a, b))
        return ckpt

    def reachable(self, a: NodeId, b: NodeId) -> bool:
        for side_a, side_b in self.partitions:
            if (a in side_a and b in side_b) or (a in side_b and b in side_a):
                return False
        return True

    def up_nodes(self) -> list[StorageNode]:
        return [n for n in self.nodes.values() if n.status is NodeStatus.UP]

    def survivors_for(self, failed: NodeId, from_node: NodeId) -> list[StorageNode]:
        """Up, reachable nodes eligible to serve the failed node's data."""
        eligible = []
        for n in self.nodes.values():
            if n.nid in (failed, from_node) or n.status is not NodeStatus.UP:
                continue
            if self.replica_map is not None and n.nid not in self.replica_map.get(failed, set()):
                continue
            if not self.reachable(from_node, n.nid):
                continue
            eligible.append(n)
        return sorted(eligible, key=lambda n: n.nid.value)


def _window(
    idx: IdentifierIndex, ckpt: Checkpoint, scope_nids=None
) -> tuple[IdentifierIndex, int]:
    """Build the above-checkpoint window and its wire size."""
    window = IdentifierIndex()
    nids = idx.nids() if scope_nids is None else [n for n in scope_nids if n in idx._runs]
    for nid in nids:
        for entry in idx.entries_above(nid, ckpt.watermark(nid)):
            window.insert(entry)
    stream = serialize_index(idx, since=ckpt, nids=scope_nids)
    return window, len(stream)


def compute_delta_meta(
    local: IdentifierIndex,
    peer_checkpoint: Checkpoint,
    peer_index: IdentifierIndex,
    meter: CostMeter | None = None,
    scope_nids=None,
) -> DeltaPlan:
    """Plan a metadata-framework sync from the incremental windows.

    Both sides contribute only entries above the shared checkpoint; the
    windows are diffed with one merge pass. No hashing is ever required:
    rehash_required_bytes is 0 by construction. scope_nids restricts the
    session to the given source nids (e.g. just the failed node's data).
    """
    local_window, local_bytes = _window(local, peer_checkpoint, scope_nids)
    peer_window, peer_bytes = _window(peer_index, peer_checkpoint, scope_nids)
    missing_in_peer, missing_in_local = set_difference(local_window, peer_window, meter)
    pull_bytes = sum(peer_window.get(cid).byte_len for cid in missing_in_local)
    push_bytes = sum(local_window.get(cid).byte_len for cid in missing_in_peer)
    return DeltaPlan(
        ids_to_pull=missing_in_local,
        ids_to_push=missing_in_peer,
        index_bytes_exchanged=local_bytes + peer_bytes,
        content_bytes_to_transfer=pull_bytes + push_bytes,
        rehash_required_bytes=0,
    )


@dataclass
class ConditionState:
    """How much rehashing the baseline owes before a delta is computable."""

    local_rehash_bytes: int = 0
    peer_rehash_bytes: int = 0

    @property
    def total_rehash_bytes(self) -> int:
        return self.local_rehash_bytes + self.peer_rehash_bytes


def baseline_rehash_bytes(node: StorageNode) -> int:
    """Bytes the node must hash before its baseline index is trustworthy.

    Lost index store (condition 3): the full inventory. Stale or
    interrupted pipeline (conditions 1 and 2): the unindexed backlog.
    """
    baseline = node.baseline
    if baseline is None:
        return 0
    if baseline.hash_index.lost:
        return node.physical_bytes
    if baseline.hash_index.stale:
        return baseline.pipeline.lag_bytes
    return 0


def assess_conditions(local: StorageNode, peer: StorageNode) -> ConditionState:
    return ConditionState(
        local_rehash_bytes=baseline_rehash_bytes(local),
        peer_rehash_bytes=baseline_rehash_bytes(peer),
    )


def compute_delta_hash(
    local, peer, condition_state: ConditionState, meter: CostMeter | None = None
) -> DeltaPlan:
    """Plan a baseline sync; conditions surface as rehash cost, not errors.

    When either index is untrustworthy the plan carries the owed rehash
    bytes and no block sets: it becomes serviceable only after the cost
    is paid (rebuild or pipeline drain) and the plan is recomputed.
    """
    rehash = condition_state.total_rehash_bytes
    if rehash > 0:
        return DeltaPlan(rehash_required_bytes=rehash)
    missing_remote, missing_local = hash_delta(local, peer)
    if meter is not None:
        # digest-set membership checks, one per entry on each side
        meter.add_comparisons(len(local.by_digest) + len(peer.by_digest))
    return DeltaPlan(
        ids_to_pull=missing_local,
        ids_to_push=missing_remote,
        index_bytes_exchanged=2 * WIRE_HEADER_BYTES
        + 32 * (len(local.by_locator) + len(peer.by_locator)),
        content_bytes_to_transfer=0,  # caller sums real block sizes at transfer
        rehash_required_bytes=0,
    )


def _transfer_meta(puller: StorageNode, source: StorageNode, ids: list[CompositeId]) -> int:
    """Move the identified blocks; returns content bytes transferred."""
    moved = 0
    for cid in ids:
        entry = source.id_index.get(cid)
        locator = source.indirection_table.get(cid, entry.location)
        block = source.block_store[locator]
        puller.replicate_in(entry, block)
        moved += entry.byte_len
    return moved


def _advance_pair_checkpoint(
    ckpt: Checkpoint, a: StorageNode, b: StorageNode, scope_nids=None
) -> None:
    nids = (
        set(a.id_index.nids()) | set(b.id_index.nids())
        if scope_nids is None
        else set(scope_nids)
    )
    for nid in nids:
        shared = min(a.id_index.max_lcv(nid), b.id_index.max_lcv(nid))
        ckpt.advance(nid, shared)


def sync_pair_meta(
    cluster: Cluster,
    a: StorageNode,
    b: StorageNode,
    meter: CostMeter | None = None,
    scope_nids=None,
) -> DeltaPlan:
    """One bidirectional incremental exchange between two nodes."""
    ckpt = cluster.checkpoint(a.nid, b.nid)
    plan = compute_delta_meta(a.id_index, ckpt, b.id_index, meter, scope_nids)
    if meter is not None:
        meter.charge_index_transfer(plan.index_bytes_exchanged)
    moved = _transfer_meta(a, b, plan.ids_to_pull)
    moved += _transfer_meta(b, a, plan.ids_to_push)
    if meter is not None and moved:
        meter.charge_delta_transfer(moved)
    _advance_pair_checkpoint(ckpt, a, b, scope_nids)
    return plan


def ensure_baseline_consistent(node: StorageNode, meter: CostMeter | None = None) -> int:
    """Pay whatever the baseline owes: full rebuild or pipeline drain.

    Returns the bytes hashed. Rebuild recreates the hash index and the
    Merkle tree from the block inventory, charging content bytes plus
    one hash op per leaf and per internal node.
    """
    baseline = node.baseline
    if baseline is None:
        return 0
    if baseline.hash_index.lost:
        blocks = [
            (locator, block.payload) for locator, block in sorted(node.block_store.items())
        ]
        hashed = sum(block.byte_len for block in node.block_store.values())
        new_index, tree = rebuild_index(blocks, meter)
        ingested = baseline.pipeline.ingested
        baseline.hash_index = new_index
        baseline.pipeline = PipelineState(new_index)
        baseline.pipeline.ingested = ingested
        baseline.pipeline.hashed = ingested
        baseline.merkle = tree
        return hashed
    if baseline.hash_index.stale:
        backlog = baseline.pipeline.lag_bytes
        pipeline_tick(baseline.pipeline, backlog, meter)
        return backlog
    return 0


def _transfer_hash(puller: StorageNode, source: StorageNode, locators: list[int]) -> int:
    moved = 0
    for locator in locators:
        block = source.block_store[locator]
        entry = source.id_index.get(block.id)
        digest = source.baseline.hash_index.by_locator[locator]
        puller.replicate_in(entry, block)
        local_entry = puller.id_index.get(block.id)
        pipeline = puller.baseline.pipeline
        # The digest travels with the block; retire the pipeline entry
        # replicate_in just queued instead of rehashing on arrival.
        if pipeline.pending and pipeline.pending[-1].locator == local_entry.location:
            pending = pipeline.pending.pop()
            pipeline.hashed += 1
            pipeline.hashed_since_checkpoint.append(pending)
            puller.baseline.hash_index.add(local_entry.location, digest, pending.seq)
            if not pipeline.pending and not pipeline.index.lost:
                pipeline.index.stale = False
        moved += block.byte_len
    return moved


def sync_pair_hash(
    cluster: Cluster, a: StorageNode, b: StorageNode, meter: CostMeter | None = None
) -> DeltaPlan:
    """Baseline exchange: pay conditions first, then digest-set difference."""
    for participant in (a, b):
        owed = baseline_rehash_bytes(participant)
        if owed:
            ensure_baseline_consistent(participant, meter)
    plan = compute_delta_hash(
        a.baseline.hash_index, b.baseline.hash_index, ConditionState(), meter
    )
    if meter is not None:
        meter.charge_index_transfer(plan.index_bytes_exchanged)
    moved = _transfer_hash(a, b, plan.ids_to_pull)
    moved += _transfer_hash(b, a, plan.ids_to_push)
    plan.content_bytes_to_transfer = moved
    if meter is not None and moved:
        meter.charge_delta_transfer(moved)
    _advance_pair_checkpoint(cluster.checkpoint(a.nid, b.nid), a, b)
    return plan


def verify_superset(
    substitute: StorageNode, survivors: list[StorageNode], scope_nids=None
) -> None:
    """Identity-level superset check: nothing any survivor holds (within
    scope) may be missing from the substitute. No content comparison."""
    for survivor in survivors:
        if scope_nids is None:
            _, missing_in_sub = set_difference(substitute.id_index, survivor.id_index)
        else:
            missing_in_sub = []
            for nid in scope_nids:
                for entry in survivor.id_index.entries_above(nid, 0):
                    if entry.id not in substitute.id_index:
                        missing_in_sub.append(entry.id)
        if missing_in_sub:
            raise RuntimeError(
                f"superset verification failed: {len(missing_in_sub)} ids missing"
            )


def execute_failover(
    cluster: Cluster,
    failed: NodeId,
    substitute: NodeId,
    framework: str,
    volumetrics: Volumetrics | None = None,
    scope_to_failed: bool = False,
) -> DrReport:
    """Bring the substitute to a consistent superset of the failed
    node's last known state, relative to the surviving replicas.

    scope_to_failed restricts the exchange to the failed node's own nid
    (the usual production posture); otherwise survivors sync in full.
    """
    failed_node = cluster.node(failed)
    sub = cluster.node(substitute)
    if failed_node.status is not NodeStatus.CRASHED:
        raise RuntimeError("failover requires the failed node to be down")
    if sub.status is not NodeStatus.UP:
        raise NodeStatusError(sub)
    survivors = cluster.survivors_for(failed, substitute)
    if not survivors:
        raise NoSurvivingReplica(f"no surviving replica for {failed}")
    scope = [failed] if scope_to_failed else None
    meter = CostMeter(cluster.model)
    participants = [sub] + survivors
    for n in participants:
        n.dr_active = True
    try:
        for survivor in survivors:
            if framework == "meta":
                sync_pair_meta(cluster, sub, survivor, meter, scope)
            else:
                sync_pair_hash(cluster, sub, survivor, meter)
        verify_superset(sub, survivors, scope)
    finally:
        for n in participants:
            n.dr_active = False
    report = report_from_meter("failover", framework, meter)
    if volumetrics is not None:
        report = volumetric_report(
            "failover", framework, cluster.model, volumetrics, wal_replay_s=0.0
        )
    return report


def execute_failback(
    cluster: Cluster,
    recovered: NodeId,
    framework: str,
    volumetrics: Volumetrics | None = None,
    peers: list[StorageNode] | None = None,
    scope_nids=None,
) -> DrReport:
    """Re-integrate a restarted node: acquire everything written during
    its absence, including the WAL replay cost of its own recovery."""
    node = cluster.node(recovered)
    if node.status is not NodeStatus.UP:
        raise NodeStatusError(node)
    meter = CostMeter(cluster.model)
    replay = node.take_pending_wal_replay()
    if replay:
        meter.charge_wal_replay(replay)
    if peers is None:
        peers = [
            n
            for n in cluster.up_nodes()
            if n.nid != recovered and cluster.reachable(recovered, n.nid)
        ]
    for n in peers + [node]:
        n.dr_active = True
    try:
        for peer in sorted(peers, key=lambda n: n.nid.value):
            if framework == "meta":
                sync_pair_meta(cluster, node, peer, meter, scope_nids)
            else:
                sync_pair_hash(cluster, node, peer, meter)
    finally:
        for n in peers + [node]:
            n.dr_active = False
    report = report_from_meter("failback", framework, meter)
    if volumetrics is not None:
        report = volumetric_report(
            "failback", framework, cluster.model, volumetrics, wal_replay_s=replay
        )
    return report


def converge(
    n1: StorageNode, n2: StorageNode, cluster: Cluster | None = None,
    meter: CostMeter | None = None,
) -> int:
    """Full-index exchange after a partition heals.

    Returns the number of exchange rounds used; one round always
    suffices for a pair (the union is commutative and idempotent), and
    a repeat invocation transfers nothing.
    """
    if cluster is None:
        cluster = Cluster([n1, n2])
        # fresh cluster has a genesis checkpoint: full exchange
    rounds = 0
    for _ in range(4):  # safety bound; equality is reached in round 1
        rounds += 1
        genesis = Checkpoint(peer=n2.nid)  # full-index exchange, not incremental
        plan = compute_delta_meta(n1.id_index, genesis, n2.id_index, meter)
        if meter is not None:
            meter.charge_index_transfer(plan.index_bytes_exchanged)
        moved = _transfer_meta(n1, n2, plan.ids_to_pull)
        moved += _transfer_meta(n2, n1, plan.ids_to_push)
        if meter is not None and moved:
            meter.charge_delta_transfer(moved)
        if n1.id_index.same_ids(n2.id_index):
            break
    _advance_pair_checkpoint(cluster.checkpoint(n1.nid, n2.nid), n1, n2)
    return rounds


def converge_cluster(nodes: list[StorageNode], cluster: Cluster | None = None) -> int:
    """Converge k healed nodes with a deterministic gossip schedule.

    Rounds sweep adjacent pairs in nid order: the first (forward) sweep
    gathers the union at the highest nid, the second (reversed) sweep
    distributes it back down, so two rounds always suffice for any k
    (within the k-1 pairwise-round bound for k >= 3). Returns the rounds
    actually used; a repeat invocation uses one empty round.
    """
    if cluster is None:
        cluster = Cluster(nodes)
    order = sorted(nodes, key=lambda n: n.nid.value)
    k = len(order)
    if k < 2:
        return 0
    rounds = 0
    for sweep in range(max(2, k - 1)):
        rounds += 1
        pairs = list(zip(order, order[1:]))
        if sweep % 2:
            pairs.reverse()
        for a, b in pairs:
            converge(a, b, cluster)
        if all(order[0].id_index.same_ids(n.id_index) for n in order[1:]):
            break
    return rounds


def reconcile_split_brain(
    a_view: IdentifierIndex,
    b_view: IdentifierIndex,
    policy: ReconciliationPolicy | None = None,
) -> tuple[IdentifierIndex, list[Conflict]]:
    """Merge two independently progressed views.

    Identifier sets union cleanly (ids cannot collide across nids); the
    only conflicts are user keys written on *both* sides during the
    divergence. lww_by_lcv resolves each to the highest lcv, ties broken
    by the lexicographically greater nid; application_merge_hook hands
    the two divergent heads to a caller-supplied resolver.
    """
    if policy is None:
        policy = ReconciliationPolicy()
    merged = IdentifierIndex()
    for view in (a_view, b_view):
        for entry in view.entries():
            merged.insert(entry)

    def keyed(view: IdentifierIndex) -> dict[str, list]:
        by_key: dict[str, list] = {}
        for entry in view.entries():
            if entry.user_key is not None:
                by_key.setdefault(entry.user_key, []).append(entry.id)
        return by_key

    keys_a = keyed(a_view)
    keys_b = keyed(b_view)
    conflicts: list[Conflict] = []
    for user_key in sorted(set(keys_a) & set(keys_b)):
        ids_a = set(keys_a[user_key])
        ids_b = set(keys_b[user_key])
        new_a = ids_a - ids_b
        new_b = ids_b - ids_a
        if not new_a or not new_b:
            continue  # written on at most one side; not a conflict
        head_a = max(new_a, key=lww_key)
        head_b = max(new_b, key=lww_key)
        candidates = tuple(sorted(ids_a | ids_b, key=lww_key))
        if policy.mode == "application_merge_hook" and policy.merge_hook is not None:
            low, high = sorted((head_a, head_b), key=lww_key)
            winner = policy.merge_hook(user_key, low, high)
        else:
            winner = candidates[-1]  # lww by lcv, nid tie-break
        conflicts.append(Conflict(user_key=user_key, candidates=candidates, winner=winner))
    return merged, conflicts


def report_from_meter(kind: str, framework: str, meter: CostMeter) -> DrReport:
    """One event's report from the meter its live sessions charged."""
    return DrReport(
        kind=kind,
        framework=framework,
        t_hash=meter.t_hash,
        t_index=meter.t_index,
        t_delta=meter.t_delta,
        t_wal_replay=meter.t_wal_replay,
        hash_ops=meter.hash_ops,
        content_reads=meter.content_reads,
        comparisons=meter.comparisons,
        network_bytes=meter.network_bytes,
    )


def volumetric_report(
    kind: str,
    framework: str,
    model: CostModel,
    vol: Volumetrics,
    wal_replay_s: float = 0.0,
) -> DrReport:
    """Account one DR event at declared production-scale volumetrics.

    Live mechanics run separately at desk scale (their correctness
    checks stand); phases and counters here are charged from the
    scenario's declared inventory so petabyte-scale recovery arithmetic
    is reproduced without moving petabytes. Index wire bytes are
    identical across frameworks by construction (same envelope, 32-byte
    entries), so network parity holds to the byte. WAL replay is a
    metadata-side phase; the baseline's crash penalty is the
    extra_rehash_fraction of re-enqueued hashing work.
    """
    meter = CostMeter(model)
    blocks = int(vol.blocks)
    index_wire = WIRE_HEADER_BYTES + model.index_entry_bytes * blocks
    if framework == "hash":
        rehash_bytes = vol.data_bytes * (1.0 + vol.extra_rehash_fraction)
        meter.charge_hash(rehash_bytes, ops=blocks + max(0, blocks - 1))
        meter.add_content_reads(blocks)
    meter.charge_index_transfer(index_wire)
    meter.charge_delta_transfer(vol.delta_bytes)
    if wal_replay_s and framework == "meta":
        meter.charge_wal_replay(wal_replay_s)
    meter.add_comparisons(2 * blocks)
    report = report_from_meter(kind, framework, meter)
    report.note = "volumetric"
    return report
