"""DR protocol engine: write replication, failover, failback and
convergence. It is the one module that moves blocks between nodes and
reads or advances a pair checkpoint.

Synchronization is an incremental index exchange. Each node pair shares
a checkpoint (per-source-nid watermarks of the highest mutually
synchronized lcv); a session exchanges only the windows above the
checkpoint, diffs them with a single merge pass, transfers the missing
blocks in both directions, and advances the checkpoint. A window is the
suffix of each per-nid run above its watermark: the wire stream of each
side is serialized for its size, and the diff bisects both indexes to
their windows in place. Because every pull takes the peer's whole
window, and every push the source's whole run above the watermark,
per-source holdings remain prefixes of the source's emission order,
which keeps max-based watermarks sound.

Ring placement lives in `Cluster` and nowhere else: it decides where
each write is replicated (`Cluster.replicas`) and every DR session's
peers and scope (`Cluster.hosted`). `replicate` pushes a node's new
writes to its replicas, everything above each pair's watermark, and
advances the pair checkpoint by the rule a session uses
(`_advance_pair_checkpoint`); every session, and the push, names the
nids it covers. A failover syncs the failed node's nid from its
surviving replicas, a failback the nids the recovered node shares with
each node of its replica sets, and a converge the nids its two nodes
both host. Every exchange, converge included, is incremental
from the pair's checkpoint. `reachable` is the one partition rule, over
node ordinals, for `Cluster.reachable` and `simnet.Lifecycle` alike: no
session, converge included, crosses an open partition.

A split brain needs no merge of its own. Ids of different nids never
collide, so a converge after the partition heals unions the two sides'
ids; a user key written on both sides resolves, on every node that
admits its versions, to the one `identity.lww_key` orders last
(`StorageNode._resolve_keys`). That is the merge `verify` checks.

Under the metadata framework the identification step touches ids only:
no content is read and nothing is hashed, and the per-event report's
counters prove it. Under the hash baseline, any active failure
condition (stale, interrupted, or lost hash index) must be paid for in
rehash time before a delta can even be computed. `hashline` holds the
rule for what a node's index owes and how it pays. A cluster runs one
framework, its nodes': `Cluster.framework` is "hash" when every node
carries a `HashIndex` and "meta" when none does, and a failover, a
failback or a converge runs and reports that one. Both frameworks
share one pair exchange, one scope, one DR session loop and one
transfer, which moves each side's delta as one run; they differ in how
a pair plans its delta, and the baseline's digests travel with the run.

A DR event's report is live: its costs come from the bytes the session
actually moved at desk scale. `volumetric_report` charges the same kind
of event from a `costs.Volumetrics`, the declared production-scale
inventory, instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from operator import attrgetter

from .costs import CostMeter, CostModel, Volumetrics
from .hashline import hash_delta, settle
from .identity import CompositeId, NodeId
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

    ids_to_pull / ids_to_push hold CompositeIds under both frameworks:
    the metadata framework finds them by id, the hash baseline by
    digest (its locator is the block's id). content_bytes_to_transfer is
    what the exchange moved, set by `sync_pair_meta` and
    `sync_pair_hash`; a plan that has not been exchanged leaves it 0.
    """

    ids_to_pull: list = field(default_factory=list)
    ids_to_push: list = field(default_factory=list)
    index_bytes_exchanged: int = 0
    content_bytes_to_transfer: int = 0


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


def ring_successors(node: int, nodes: int, count: int) -> list[int]:
    """The `count` ordinals after `node` on the placement ring. Node i
    replicates each write to `ring_successors(i, nodes, replica_factor - 1)`."""
    return [(node + k) % nodes for k in range(1, count + 1)]


def reachable(partitions, a, b) -> bool:
    """Whether no partition in `partitions`, (side_a, side_b) pairs of
    node ordinals, puts ordinals `a` and `b` on opposite sides."""
    return not any(
        (a in side_a and b in side_b) or (a in side_b and b in side_a)
        for side_a, side_b in partitions
    )


class Cluster:
    """The DR engine's view of a cluster: nodes, framework, cost model,
    pair state, and ring placement over the node list. `framework` is
    its nodes': "hash" when every node carries a `HashIndex`, "meta"
    when none does; a node list that mixes the two raises ValueError.
    `replicas[nid]` lists the nodes a write on `nid` goes to, in ring
    order; `hosted[nid]` is the set of nids that node holds. Without a
    replica factor every node replicates to every other and hosts every
    nid. `partitions` holds each open partition as a (side_a, side_b)
    pair of node ordinals, the ring's own keys; `reachable` reads it."""

    def __init__(
        self,
        nodes: list[StorageNode],
        model: CostModel | None = None,
        replica_factor: int | None = None,
    ) -> None:
        self.nodes: dict[NodeId, StorageNode] = {n.nid: n for n in nodes}
        if len(self.nodes) != len(nodes):
            raise ValueError("duplicate node ids in cluster")
        hashed = {node.baseline is not None for node in nodes}
        if len(hashed) > 1:
            raise ValueError("cluster mixes hash-baseline and metadata nodes")
        self.framework = "hash" if hashed == {True} else "meta"
        self.model = model if model is not None else CostModel()
        if replica_factor is None:
            replica_factor = len(nodes)
        elif not 1 <= replica_factor <= len(nodes):
            raise ValueError(f"replica_factor must be within [1, {len(nodes)}]")
        self.replicas: dict[NodeId, list[StorageNode]] = {
            node.nid: [nodes[j] for j in ring_successors(i, len(nodes), replica_factor - 1)]
            for i, node in enumerate(nodes)
        }
        self.hosted: dict[NodeId, set[NodeId]] = {nid: {nid} for nid in self.nodes}
        for source, peers in self.replicas.items():
            for peer in peers:
                self.hosted[peer.nid].add(source)
        self._checkpoints: dict[frozenset, Checkpoint] = {}
        self._ordinals = {node.nid: i for i, node in enumerate(nodes)}
        self.partitions: list[tuple[tuple[int, ...], tuple[int, ...]]] = []

    def node(self, nid: NodeId) -> StorageNode:
        return self.nodes[nid]

    def reachable(self, a: NodeId, b: NodeId) -> bool:
        """Whether no open partition puts nodes `a` and `b` on opposite sides."""
        return not self.partitions or reachable(
            self.partitions, self._ordinals[a], self._ordinals[b])

    def checkpoint(self, a: NodeId, b: NodeId) -> Checkpoint:
        key = frozenset((a, b))
        ckpt = self._checkpoints.get(key)
        if ckpt is None:
            ckpt = self._checkpoints[key] = Checkpoint()
        return ckpt

    def scope(self, nid: NodeId, nids) -> list[NodeId]:
        """Those of `nids` that node `nid` hosts, sorted."""
        return sorted(self.hosted[nid].intersection(nids))

    def placement_peers(self, nid: NodeId, nids) -> list[tuple[StorageNode, list[NodeId]]]:
        """The up nodes `nid` can reach that host any of `nids`, in cluster
        (ordinal) order, each with its `scope` of `nids`."""
        peers = []
        for n in self.nodes.values():
            if (n.nid == nid or n.status is not NodeStatus.UP
                    or not self.reachable(nid, n.nid)):
                continue
            scope = self.scope(n.nid, nids)
            if scope:
                peers.append((n, scope))
        return peers


def compute_delta_meta(
    local: IdentifierIndex,
    peer_checkpoint: Checkpoint,
    peer_index: IdentifierIndex,
    meter: CostMeter | None = None,
    scope_nids=None,
) -> DeltaPlan:
    """Plan a metadata-framework sync from the incremental windows.

    Both sides contribute only entries above the shared checkpoint: each
    side's window is the wire stream it sends, and the two windows are
    diffed in place with one merge pass; nothing is hashed. scope_nids
    restricts the session to the given source nids (e.g. just the failed
    node's data).
    """
    exchanged = sum(
        len(serialize_index(idx, since=peer_checkpoint, nids=scope_nids))
        for idx in (local, peer_index)
    )
    missing_in_peer, missing_in_local = set_difference(
        local, peer_index, meter, since=peer_checkpoint, nids=scope_nids
    )
    return DeltaPlan(
        ids_to_pull=missing_in_local,
        ids_to_push=missing_in_peer,
        index_bytes_exchanged=exchanged,
    )


def compute_delta_hash(local, peer, meter: CostMeter | None = None, scope_nids=None) -> DeltaPlan:
    """Plan a baseline sync between two consistent hash indexes.

    Each side lacks the other's locators whose digest it lacks, and
    also the locators whose content it already holds under another id:
    the transfer binds those to the local copy and moves no content (the
    baseline's own dedup). scope_nids lists and charges only locators of
    those source nids; digests match against the whole other index.
    Callers pay the owed rehash first
    (`ensure_baseline_consistent`); `hash_delta` refuses stale indexes.

    Each nid's two locator maps are first compared whole (one dict
    `==`), and only the nids whose maps differ are scanned: every digest
    of a `by_nid` map is a `by_digest` key of its index (the invariant
    `HashIndex` keeps), so equal maps hold nothing either side lacks.
    `hash_delta` still runs on every session, and the meter and the
    index bytes still count every listed locator.
    """
    ours, theirs = local.locators(scope_nids), peer.locators(scope_nids)
    differ_ours = {nid: locs for nid, locs in ours.items() if theirs.get(nid) != locs}
    differ_theirs = {nid: locs for nid, locs in theirs.items() if ours.get(nid) != locs}
    missing_remote, missing_local = hash_delta(local, peer, differ_ours, differ_theirs)
    listed = sum(map(len, ours.values())) + sum(map(len, theirs.values()))
    if meter is not None:
        # digest-set membership checks, one per listed locator on each side
        meter.add_comparisons(listed)
    return DeltaPlan(
        ids_to_pull=missing_local + _held_elsewhere(differ_theirs, local),
        ids_to_push=missing_remote + _held_elsewhere(differ_ours, peer),
        index_bytes_exchanged=2 * WIRE_HEADER_BYTES + 32 * listed,
    )


def _held_elsewhere(listed: dict, puller) -> list[CompositeId]:
    """Listed locators (per-nid maps) the puller lacks although it holds
    their digest, in id order. (Each set difference reuses the dicts'
    stored hashes.)"""
    held, puller_by_nid = puller.by_digest, puller.by_nid
    return sorted(
        loc
        for nid, locs in listed.items()
        for loc in set(locs).difference(puller_by_nid.get(nid, {}))
        if locs[loc] in held
    )


def _transfer(puller: StorageNode, source: StorageNode, ids: list[CompositeId],
              digests: bool) -> int:
    """Move the identified blocks as one run, their entries and contents
    read once; returns the content bytes moved. With `digests` (the hash
    baseline) each block's digest travels with it, and the puller binds
    an id whose content it already holds as an alias, which moves no
    content (`StorageNode.replicate_in`)."""
    if not ids:
        return 0
    entries = list(map(source.id_index.get, ids))
    travelled = list(map(source.baseline.by_locator.__getitem__, ids)) if digests else None
    aliases = puller.replicate_in(entries, source.stored_blocks(ids), travelled)
    if aliases:  # an alias moves no content
        entries = [entry for entry in entries if entry.id not in aliases]
    return sum(map(attrgetter("byte_len"), entries))


def _advance_pair_checkpoint(
    ckpt: Checkpoint, a: StorageNode, b: StorageNode, scope_nids
) -> None:
    """Raise each scoped nid's watermark to the highest lcv both nodes
    hold of it: the one rule by which a session or a push advances."""
    for nid in scope_nids:
        ckpt.advance(nid, min(a.id_index.max_lcv(nid), b.id_index.max_lcv(nid)))


def replicate(cluster: Cluster, node: StorageNode) -> None:
    """Push `node`'s own run to its ring replicas (`Cluster.replicas`)
    that are up and reachable: everything above each pair's watermark,
    not just the last write, so a peer that was down or partitioned
    catches up here. Peers at the same watermark get the same run, read
    once. Each pair then advances by the sessions' rule."""
    window = (None, [], [])  # (watermark, entries above it, their contents)
    for peer in cluster.replicas[node.nid]:
        if peer.status is not NodeStatus.UP or not cluster.reachable(node.nid, peer.nid):
            continue
        ckpt = cluster.checkpoint(node.nid, peer.nid)
        watermark = ckpt.watermark(node.nid)
        if watermark != window[0]:
            entries = node.id_index.entries_above(node.nid, watermark)
            window = (watermark, entries, node.stored_blocks([entry.id for entry in entries]))
        if window[1]:
            peer.replicate_in(window[1], window[2])
        _advance_pair_checkpoint(ckpt, node, peer, [node.nid])


def _exchange(a: StorageNode, b: StorageNode, plan: DeltaPlan, meter: CostMeter | None,
              digests: bool = False) -> int:
    """Carry out one pair plan under either framework: charge the index
    exchange, move the blocks each side lacks with `_transfer`, charge
    the delta. Returns the content bytes moved."""
    if meter is not None:
        meter.charge_index_transfer(plan.index_bytes_exchanged)
    moved = _transfer(a, b, plan.ids_to_pull, digests)
    moved += _transfer(b, a, plan.ids_to_push, digests)
    if meter is not None and moved:
        meter.charge_delta_transfer(moved)
    return moved


def sync_pair_meta(
    cluster: Cluster,
    a: StorageNode,
    b: StorageNode,
    meter: CostMeter | None = None,
    *,
    scope_nids,
) -> DeltaPlan:
    """One bidirectional incremental exchange between two nodes, over
    the source nids `scope_nids`."""
    ckpt = cluster.checkpoint(a.nid, b.nid)
    plan = compute_delta_meta(a.id_index, ckpt, b.id_index, meter, scope_nids)
    plan.content_bytes_to_transfer = _exchange(a, b, plan, meter)
    _advance_pair_checkpoint(ckpt, a, b, scope_nids)
    return plan


def ensure_baseline_consistent(node: StorageNode, meter: CostMeter | None = None) -> int:
    """Pay what the baseline owes (`HashIndex.owed_bytes` of the stored
    inventory) with `hashline.settle`: a full rebuild of a lost index
    from the block inventory, else a pipeline drain; either way the
    checkpoint is committed. Returns the bytes hashed. A rebuild charges
    content bytes plus one hash op per leaf and per internal Merkle node.
    """
    if node.baseline is None:
        return 0
    node.baseline, hashed = settle(
        node.baseline, node.inventory(), node.indirection_table.items(), meter
    )
    return hashed


def sync_pair_hash(cluster: Cluster, a: StorageNode, b: StorageNode,
                   meter: CostMeter | None = None, *, scope_nids) -> DeltaPlan:
    """Baseline exchange over the source nids `scope_nids`: pay
    conditions first, then digest-set difference."""
    for participant in (a, b):
        ensure_baseline_consistent(participant, meter)
    plan = compute_delta_hash(a.baseline, b.baseline, meter, scope_nids)
    plan.content_bytes_to_transfer = _exchange(a, b, plan, meter, digests=True)
    _advance_pair_checkpoint(cluster.checkpoint(a.nid, b.nid), a, b, scope_nids)
    return plan


def verify_superset(
    substitute: StorageNode, survivors: list[StorageNode], *, scope_nids
) -> None:
    """Identity-level superset check: nothing any survivor holds (within
    scope) may be missing from the substitute. No content comparison."""
    for survivor in survivors:
        _, missing_in_sub = set_difference(
            substitute.id_index, survivor.id_index, nids=scope_nids
        )
        if missing_in_sub:
            raise RuntimeError(
                f"superset verification failed: {len(missing_in_sub)} ids missing"
            )


def _session(
    cluster: Cluster,
    node: StorageNode,
    peers: list[tuple[StorageNode, list[NodeId]]],
    meter: CostMeter | None,
) -> None:
    """Sync `node` with each peer in turn, within its scope, under the
    cluster's framework. Layer-2 dedup is barred on every participant
    until the session ends."""
    participants = [node] + [peer for peer, _ in peers]
    sync_pair = sync_pair_hash if cluster.framework == "hash" else sync_pair_meta
    for n in participants:
        n.dr_active = True
    try:
        for peer, scope in peers:
            sync_pair(cluster, node, peer, meter, scope_nids=scope)
    finally:
        for n in participants:
            n.dr_active = False


def execute_failover(cluster: Cluster, failed: NodeId, substitute: NodeId) -> DrReport:
    """Bring the substitute to a consistent superset of the failed
    node's data on its surviving replicas: it syncs with each up replica
    it can reach, in cluster (ordinal) order, scoped to the failed
    node's nid."""
    failed_node = cluster.node(failed)
    sub = cluster.node(substitute)
    if failed_node.status is not NodeStatus.CRASHED:
        raise RuntimeError("failover requires the failed node to be down")
    if sub.status is not NodeStatus.UP:
        raise NodeStatusError(sub)
    peers = cluster.placement_peers(substitute, [failed])
    if not peers:
        raise NoSurvivingReplica(f"no surviving replica for {failed}")
    meter = CostMeter(cluster.model)
    _session(cluster, sub, peers, meter)
    verify_superset(sub, [peer for peer, _ in peers], scope_nids=[failed])
    return report_from_meter("failover", cluster.framework, meter)


def execute_failback(cluster: Cluster, recovered: NodeId) -> DrReport:
    """Re-integrate a restarted node: acquire everything written during
    its absence, including the WAL replay cost of its own recovery. It
    syncs with each up, reachable node it shares placement with, in
    cluster (ordinal) order, scoped to the nids the two host in common."""
    node = cluster.node(recovered)
    if node.status is not NodeStatus.UP:
        raise NodeStatusError(node)
    meter = CostMeter(cluster.model)
    replay = node.take_pending_wal_replay()
    if replay:
        meter.charge_wal_replay(replay)
    peers = cluster.placement_peers(recovered, cluster.hosted[recovered])
    _session(cluster, node, peers, meter)
    return report_from_meter("failback", cluster.framework, meter)


def converge(cluster: Cluster, a: StorageNode, b: StorageNode,
             meter: CostMeter | None = None) -> int:
    """One DR session between two healed nodes, scoped to the nids both
    host; a pair sharing none exchanges two empty index headers. Both
    nodes must be up and no open partition may separate them, as
    `placement_peers` requires of a failover's and a failback's peers;
    a refused converge raises before any exchange. Returns the rounds
    used: always one, since the session leaves no window a second round
    could exchange, so a pair whose scoped id sets still differ raises."""
    for node in (a, b):
        if node.status is not NodeStatus.UP:
            raise NodeStatusError(node)
    if not cluster.reachable(a.nid, b.nid):
        raise RuntimeError(f"converge across an open partition: {a.nid} and {b.nid}")
    scope = cluster.scope(b.nid, cluster.hosted[a.nid])
    _session(cluster, a, [(b, scope)], meter)
    if not a.id_index.same_ids(b.id_index, scope):
        raise RuntimeError(f"converge left {a.nid} and {b.nid} unequal")
    return 1


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
    extra_rehash: float = 0.0,
) -> DrReport:
    """Account one DR event at declared production-scale volumetrics.

    Live mechanics run separately at desk scale (their correctness
    checks stand); phases and counters here are charged from the
    scenario's declared inventory so petabyte-scale recovery arithmetic
    is reproduced without moving petabytes. Index wire bytes are
    identical across frameworks by construction (same envelope, 32-byte
    entries), so network parity holds to the byte. WAL replay is a
    metadata-side phase; the baseline's crash penalty is `extra_rehash`,
    the fraction of D re-enqueued for hashing.
    """
    meter = CostMeter(model)
    blocks = int(vol.blocks)
    index_wire = WIRE_HEADER_BYTES + model.index_entry_bytes * blocks
    if framework == "hash":
        rehash_bytes = vol.data_bytes * (1.0 + extra_rehash)
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
