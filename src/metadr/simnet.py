"""Deterministic cluster simulator: virtual clock, fault injection,
scenario execution, and the scaled soak-test driver.

Everything is a pure function of (scenario, seed): node ids, workload
contents, fault timing, and jitter all come from named seeded streams,
so identical inputs produce bit-identical metrics.

Two fidelities coexist. Live mechanics run at desk scale: real
ingestion through the logical clocks and indexes, real WAL recovery,
real index exchange and block transfer, with violation counters watched
throughout. The soak charges recovery-time arithmetic for
production-scale inventories through the cost model from declared
volumetrics (blocks, data bytes, delta bytes) so hours-long rehash
windows are reproduced in milliseconds of wall time.

Scenario files are YAML whose sections mirror the `Scenario`
dataclasses; one loader builds both scenarios and soak configs. The
runtime's `sync.Cluster` holds the ring placement: where each write is
replicated, what every DR session syncs, and the cost model `sync`
prices each DR event's report on; the runtime records the report. It
draws and ingests each write; `sync.replicate` pushes it to its
replicas. One `Lifecycle` over node ordinals, on the same ring rule
(`ring_successors`), says which fault may run in which state:
validation dry-runs a state of its own, the runtime checks each fault
on the nodes' status and steps `Cluster.partitions` in place.
`SimRuntime.run()` is the one timeline: hourly writes, then the faults
at that hour. The soak is a scenario on it: its seven-day cadence
(planned failover/failback cycles every 12 hours plus crash injections
on configured days) is a list of four faults per DR event.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import astuple, dataclass, field, fields, is_dataclass, replace
from functools import cache
from pathlib import Path
from random import Random
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from .costs import PAPER_VOLUMETRICS, CostModel, Volumetrics
from .discovery import DnsRecordSet, rebind_cname, resolve
from .evalmodel import rto_breakdown
from .identity import WAL_RECORD_BYTES, new_node_id
from .node import RESTART_FAULT_KINDS, NodeDown, NodeStatus, StorageNode
from .sync import (
    Cluster,
    DrReport,
    converge,
    execute_failback,
    execute_failover,
    reachable,
    replicate,
    ring_successors,
    volumetric_report,
)

class ScenarioValidation(ValueError):
    pass


# ---------------------------------------------------------------------------
# scenario definition


@dataclass
class ClusterSpec:
    nodes: int = 2
    replica_factor: int = 2


@dataclass
class WorkloadSpec:
    blocks_per_hour_per_node: float = 0.0
    duplicate_ratio: float = 0.0
    sequential_fraction: float = 0.7
    keyed_fraction: float = 1.0


@dataclass
class InventorySpec:
    blocks_per_node: int = 0
    block_bytes_min: int = 1024
    block_bytes_max: int = 4096


@dataclass
class DiscoverySpec:
    zone: list[str] = field(default_factory=list)


@dataclass
class FaultSpec:
    kind: str
    at_hours: float
    until_hours: float | None = None
    node: int | None = None
    failed: int | None = None
    substitute: int | None = None
    a: int | None = None
    b: int | None = None
    side_a: tuple[int, ...] = ()
    side_b: tuple[int, ...] = ()
    fault_kind: str = "none"
    torn_bytes: int | None = None

    @property
    def event(self) -> str:
        """The fault as refusal messages name it, e.g. "crash at 1.0h"."""
        return f"{self.kind} at {self.at_hours}h"


@dataclass
class Scenario:
    name: str = "scenario"
    seed: int = 0
    fidelity: str = "concrete"  # concrete | virtual
    framework: str = "meta"  # meta | hash | both (meta and hash twins from one seed)
    horizon_hours: float = 8.0
    cluster: ClusterSpec = field(default_factory=ClusterSpec)
    inventory: InventorySpec = field(default_factory=InventorySpec)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    cost: CostModel = field(default_factory=CostModel)
    discovery: DiscoverySpec = field(default_factory=DiscoverySpec)
    faults: list[FaultSpec] = field(default_factory=list)


# a crash's fault_kind: "torn" tears the WAL tail at a drawn byte
CRASH_FAULT_KINDS = ("none", "torn")

# the fields each fault kind reads besides kind and at_hours: (must set,
# may set); it refuses any other field set away from its FaultSpec default
_FAULT_FIELDS = {
    "crash": (("node",), ("fault_kind", "torn_bytes")),
    "restart": (("node",), ("fault_kind",)),
    "index_loss": (("node",), ()),
    "pipeline_crash": (("node",), ()),
    "partition": (("until_hours",), ("side_a", "side_b")),
    "failover": (("failed", "substitute"), ()),
    "failback": (("node",), ()),
    "converge": (("a", "b"), ()),
}
# each kind's fields past kind and at_hours that it does not read, with their defaults
_UNREAD_FIELDS = {
    kind: [(f.name, f.default) for f in fields(FaultSpec)[2:] if f.name not in needs + may]
    for kind, (needs, may) in _FAULT_FIELDS.items()
}


class Lifecycle:
    """Which fault may run in which state, over node ordinals: `down` holds
    the nodes that are down, `partitions` the open (side_a, side_b) pairs,
    as `sync.Cluster.partitions` holds them. It rules on the state it is
    given, or on a fresh one: no node down, no partition open. `check`
    holds every rule about one fault, those of its `shape` and those of
    the `state`; `step` applies one fault or heals one partition, in place."""

    def __init__(self, nodes: int, replica_factor: int, down: set[int] | None = None,
                 partitions: list | None = None) -> None:
        self.nodes, self.replica_factor = nodes, replica_factor
        self.down = set() if down is None else down
        self.partitions = [] if partitions is None else partitions

    def shape(self, f: FaultSpec) -> str | None:
        """The first rule fault `f` breaks in any state, or None."""
        if f.kind not in _FAULT_FIELDS:
            return f"unknown fault kind {f.kind!r}"
        if missing := [name for name in _FAULT_FIELDS[f.kind][0] if getattr(f, name) is None]:
            return f"{f.event} needs {', '.join(missing)}"
        if unread := [name for name, default in _UNREAD_FIELDS[f.kind]
                      if getattr(f, name) != default]:
            return f"{f.event} does not read {', '.join(unread)}"
        for ordinal in (f.node, f.failed, f.substitute, f.a, f.b, *f.side_a, *f.side_b):
            if ordinal is not None and not 0 <= ordinal < self.nodes:
                return f"node ordinal {ordinal} out of range"
        # a crash and a restart read fault_kind; every other kind keeps "none"
        kinds = CRASH_FAULT_KINDS if f.kind == "crash" else RESTART_FAULT_KINDS
        if f.fault_kind not in kinds:
            return f"{f.event}: fault_kind must be one of {'|'.join(kinds)}"
        if f.torn_bytes is not None and not 0 <= f.torn_bytes < WAL_RECORD_BYTES:
            return f"{f.event}: torn_bytes must be within [0, {WAL_RECORD_BYTES})"
        if f.kind == "partition" and f.until_hours <= f.at_hours:
            return "partition needs until_hours > at_hours"
        if f.kind == "partition" and not (f.side_a and f.side_b and
                                          set(f.side_a).isdisjoint(f.side_b)):
            return "partition sides must be disjoint and non-empty"
        if f.kind == "failover" and f.failed == f.substitute:
            return "failover substitute must differ from failed node"
        if f.kind == "converge" and f.a == f.b:
            return f"{f.event}: node {f.a} cannot converge with itself"
        return None

    def check(self, f: FaultSpec) -> str | None:
        """The first rule fault `f` breaks in this state, or None."""
        return self.shape(f) or self.state(f)

    def state(self, f: FaultSpec) -> str | None:
        """The first state rule fault `f`, whose `shape` is sound, breaks
        in this state, or None."""
        down = self.down
        if f.kind == "crash" and f.node in down:
            return f"{f.event}: node {f.node} is already down"
        if f.kind == "restart" and f.node not in down:
            return f"{f.event}: node {f.node} is not down"
        if f.kind == "failback" and f.node in down:
            return f"{f.event}: node {f.node} is down"
        if f.kind == "failover" and f.failed not in down:
            return f"{f.event}: node {f.failed} is not down"
        if f.kind == "failover" and f.substitute in down:
            return f"{f.event}: substitute {f.substitute} is down"
        if f.kind == "failover" and not any(
                reachable(self.partitions, f.substitute, r)
                for r in ring_successors(f.failed, self.nodes, self.replica_factor - 1)
                if r not in down and r != f.substitute):
            return (f"{f.event}: no up replica of node {f.failed} that substitute "
                    f"{f.substitute} can reach")
        if f.kind == "converge" and {f.a, f.b} & down:
            return f"{f.event}: node {f.a if f.a in down else f.b} is down"
        if f.kind == "converge" and not reachable(self.partitions, f.a, f.b):
            return f"{f.event}: nodes {f.a} and {f.b} are partitioned"
        if f.kind == "partition" and any(
                {*f.side_a, *f.side_b} & {*side_a, *side_b} for side_a, side_b in self.partitions):
            return "overlapping partitions share nodes"
        return None

    def step(self, f: FaultSpec, heal: bool = False) -> None:
        """Apply fault `f`, which `check` passed; with `heal`, end partition `f`."""
        if f.kind == "partition" and heal:
            self.partitions.remove((tuple(f.side_a), tuple(f.side_b)))
        elif f.kind == "partition":
            self.partitions.append((tuple(f.side_a), tuple(f.side_b)))
        elif f.kind == "crash":
            self.down.add(f.node)
        elif f.kind == "restart":
            self.down.remove(f.node)


# ---------------------------------------------------------------------------
# config loading: one mapping -> dataclass loader for scenarios and soak configs


def _read_mapping(source):
    """The raw config behind `source`: YAML text, a YAML file path
    (`os.PathLike`), or else `source` itself, which should be a dict.
    PyYAML is imported only to read text or a file, so a config built
    in code never loads it."""
    if not isinstance(source, (str, os.PathLike)):
        return source
    import yaml

    try:
        if isinstance(source, os.PathLike):
            source = Path(source).read_text(encoding="utf-8")
        return yaml.safe_load(source)
    except (OSError, yaml.YAMLError) as exc:
        raise ScenarioValidation(str(exc)) from exc


_field_types = cache(get_type_hints)  # resolved once per dataclass


def _build(cls, raw, default=None, where: str = ""):
    """Build dataclass `cls` from the mapping `raw`.

    Keys absent from `raw` keep their value in `default`, the parent's
    default instance of this section, else the class default. Unknown
    keys, values of the wrong type and values the class rejects raise
    ScenarioValidation.
    """
    if not isinstance(raw, dict):
        raise ScenarioValidation(
            f"{where.rstrip('.') or 'config'} must be a mapping, got {type(raw).__name__}"
        )
    hints = _field_types(cls)
    values = {}
    for key, value in raw.items():
        if key not in hints:
            raise ScenarioValidation(f"unknown key {where}{key}")
        values[key] = _typed(hints[key], value, getattr(default, key, None), f"{where}{key}")
    try:
        return replace(default, **values) if default is not None else cls(**values)
    except (TypeError, ValueError) as exc:
        raise ScenarioValidation(f"{where.rstrip('.') or cls.__name__}: {exc}") from exc


def _typed(tp, value, default, where: str):
    """`value` checked against the field type `tp` (an int field takes an
    integral float such as 1.0e+9; a float field takes an int)."""
    origin, args = get_origin(tp), get_args(tp)
    if origin is UnionType:
        if value is None and type(None) in args:
            return None
        (tp,) = (arg for arg in args if arg is not type(None))
        return _typed(tp, value, default, where)
    if is_dataclass(tp):
        return _build(tp, value, default, f"{where}.")
    if origin in (list, tuple):
        fixed = origin is tuple and args[-1] is not Ellipsis  # e.g. tuple[float, float]
        if not isinstance(value, (list, tuple)) or fixed and len(value) != len(args):
            raise ScenarioValidation(
                f"{where} must be a list{f' of {len(args)}' if fixed else ''}, got {value!r}"
            )
        items = [
            _typed(args[i] if fixed else args[0], item, None, f"{where}[{i}]")
            for i, item in enumerate(value)
        ]
        return items if origin is list else tuple(items)
    if tp is float and type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)
    if tp is int and type(value) is float and value.is_integer():
        return int(value)
    if type(value) is tp:
        return value
    raise ScenarioValidation(f"{where} must be {tp.__name__}, got {value!r}")


def load_scenario(source) -> Scenario:
    """Build and validate a Scenario from a dict, YAML text or a YAML file
    path (`os.PathLike`). The file's sections mirror the dataclasses."""
    scenario = _build(Scenario, _read_mapping(source), Scenario())
    validate_scenario(scenario)
    return scenario


def validate_scenario(s: Scenario) -> None:
    if s.fidelity not in ("concrete", "virtual"):
        raise ScenarioValidation(f"fidelity must be concrete|virtual, got {s.fidelity!r}")
    if s.framework not in ("meta", "hash", "both"):
        raise ScenarioValidation(f"framework must be meta|hash|both, got {s.framework!r}")
    nodes = s.cluster.nodes
    if nodes < 1:
        raise ScenarioValidation("cluster needs at least one node")
    if not 1 <= s.cluster.replica_factor <= nodes:
        raise ScenarioValidation("replica_factor must be within [1, nodes]")
    if s.horizon_hours <= 0:
        raise ScenarioValidation("horizon_hours must be positive")
    if not 0 < s.inventory.block_bytes_min <= s.inventory.block_bytes_max:
        raise ScenarioValidation("inventory needs 0 < block_bytes_min <= block_bytes_max")
    if not 0 <= s.workload.blocks_per_hour_per_node < math.inf:
        raise ScenarioValidation("workload.blocks_per_hour_per_node must be finite and >= 0")
    for name in ("duplicate_ratio", "sequential_fraction", "keyed_fraction"):
        if not 0 <= getattr(s.workload, name) <= 1:  # NaN fails too
            raise ScenarioValidation(f"workload.{name} must be within [0, 1]")
    try:
        records = DnsRecordSet.from_zone_lines(s.discovery.zone)
    except ValueError as exc:
        raise ScenarioValidation(f"discovery.zone: {exc}") from exc
    for i in range(nodes):  # the runtime binds host-i as an endpoint
        if f"host-{i}" in records.cname_records:
            raise ScenarioValidation(
                f"discovery.zone: host-{i} is node {i}'s endpoint name, not a CNAME"
            )
    lifecycle = Lifecycle(nodes, s.cluster.replica_factor)
    for f in s.faults:  # in list order: a partition without until_hours cannot be scheduled
        if problem := lifecycle.shape(f):
            raise ScenarioValidation(problem)
        if not 0 <= f.at_hours <= s.horizon_hours:
            raise ScenarioValidation(f"fault at {f.at_hours}h outside horizon")
    for _at, _seq, kind, f in _fault_schedule(s.faults):  # a dry run, in run order
        if kind == "fault" and (problem := lifecycle.state(f)):
            raise ScenarioValidation(problem)
        lifecycle.step(f, heal=kind == "heal")


def _fault_schedule(faults: list[FaultSpec]) -> list[tuple[float, int, str, FaultSpec]]:
    """(at_hours, seq, "fault" | "heal", fault) for each fault and each
    partition's end, in run order: by time, then the heals before the
    faults, each by list position, so a fault at a partition's end sees
    it healed. Every seq is at least 0: an hour's writes (seq -1) run
    first."""
    schedule = []
    for seq, f in enumerate(faults):
        schedule.append((f.at_hours, len(faults) + seq, "fault", f))
        if f.kind == "partition":
            schedule.append((f.until_hours, seq, "heal", f))
    schedule.sort(key=lambda item: item[:2])
    return schedule


# ---------------------------------------------------------------------------
# metrics


@dataclass
class Violations:
    lcv_reuse: int = 0
    immutability: int = 0
    corruption: int = 0

    @property
    def total(self) -> int:
        return self.lcv_reuse + self.immutability + self.corruption


@dataclass
class DrEvent:
    at_hours: float
    label: str
    reports: list[DrReport] = field(default_factory=list)


@dataclass
class Metrics:
    scenario: str
    seed: int
    events: list[DrEvent] = field(default_factory=list)
    converge_rounds: list[int] = field(default_factory=list)
    ingests: int = 0
    total_entries: int = 0
    physical_index_bytes: float = 0.0
    # (at_hours, ingests, total_entries, physical_index_bytes, lcv_reuse)
    samples: list[tuple[float, int, int, float, int]] = field(default_factory=list)
    violations: Violations = field(default_factory=Violations)
    notes: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# runtime


def _content_bytes(seed: int, size: int) -> bytes:
    """Deterministic pseudo-content: equal (seed, size) means equal bytes."""
    pattern = seed.to_bytes(8, "big")
    reps = size // 8 + 1
    return (pattern * reps)[:size]


# blocks per node the end-of-run integrity pass verifies: budgeted
# round-robin sampling, as a background scrub would be
_SCRUB_BUDGET_BLOCKS = 20_000


class SimRuntime:
    """Executes one scenario under one framework on a virtual clock."""

    def __init__(self, scenario: Scenario, seed: int | None = None) -> None:
        if scenario.framework not in ("meta", "hash"):
            raise ValueError(
                f"a runtime runs framework meta or hash, not {scenario.framework!r}"
            )
        self.scenario = scenario
        self.seed = scenario.seed if seed is None else seed
        self.rng_work = Random(f"{self.seed}:workload")
        self.rng_sizes = Random(f"{self.seed}:sizes")
        self.rng_faults = Random(f"{self.seed}:faults")
        self.metrics = Metrics(scenario=scenario.name, seed=self.seed)
        self._content_counter = 0
        self._dup_pool: list[tuple[int, int]] = []
        # block sizes are log-uniform between the inventory's bounds
        sizes = scenario.inventory
        self._size_range = (sizes.block_bytes_min, sizes.block_bytes_max)
        self._log_size_range = tuple(map(math.log, self._size_range))
        self._key_counter = 0
        self._keys: list[str] = []

        baseline = scenario.framework == "hash"
        rng_ids = Random(f"{self.seed}:nid")
        n = scenario.cluster.nodes
        self.sim_nodes: list[StorageNode] = [
            StorageNode(new_node_id(rng_ids), baseline=baseline) for _ in range(n)
        ]
        self.cluster = Cluster(self.sim_nodes, scenario.cost, scenario.cluster.replica_factor)

        self.records = DnsRecordSet.from_zone_lines(scenario.discovery.zone)
        # node i answers at host-i (a failover rebinds service-i to the
        # substitute's host-j); the zone may pin either name beforehand
        for i in range(n):
            host, service = f"host-{i}", f"service-{i}"
            if host not in self.records.endpoint_records:
                self.records.add_endpoint(host, f"10.0.0.{10 + i}:7000")
            if service not in self.records.cname_records and (
                service not in self.records.endpoint_records
            ):
                self.records.add_cname(service, host)

    # -- workload ------------------------------------------------------

    def _draw_run(self, count: int) -> tuple[list, list | None]:
        """The next `count` blocks' payloads and user keys, in one pass.

        Each block draws its payload, then its key. A payload repeats a
        pooled one with chance `duplicate_ratio`, else it is new content
        with a log-uniform size from `rng_sizes`; it is a concrete
        block's bytes or a virtual (byte_len, seed) pair. A key is drawn
        with chance `keyed_fraction`: a new key with chance
        `sequential_fraction`, else a known one. The keys come back as
        None when `keyed_fraction` draws none at all.
        """
        work = self.scenario.workload
        dup_ratio, keyed, sequential = (
            work.duplicate_ratio, work.keyed_fraction, work.sequential_fraction)
        random, randrange, size_random = (
            self.rng_work.random, self.rng_work.randrange, self.rng_sizes.random)
        concrete = self.scenario.fidelity == "concrete"
        lo, hi = self._size_range
        log_lo, log_hi = self._log_size_range
        log_span = log_hi - log_lo  # uniform(log_lo, log_hi), inlined
        exp = math.exp
        pool, known = self._dup_pool, self._keys
        seed, key_counter = self._content_counter, self._key_counter
        payloads: list = []
        keys: list | None = [] if keyed > 0 else None
        for _ in range(count):
            if dup_ratio > 0 and pool and random() < dup_ratio:
                block_seed, size = pool[randrange(len(pool))]
            else:
                block_seed = seed
                seed += 1
                size = lo if lo >= hi else int(exp(log_lo + log_span * size_random()))
                if dup_ratio > 0 and len(pool) < 10000:
                    pool.append((block_seed, size))
            payloads.append(
                _content_bytes(block_seed, size) if concrete else (size, block_seed))
            if keys is None:
                continue
            if random() >= keyed:
                key = None
            elif known and random() >= sequential:
                key = known[randrange(len(known))]
            else:
                key = f"k{key_counter}"
                key_counter += 1
                if len(known) < 50000:
                    known.append(key)
            keys.append(key)
        self._content_counter, self._key_counter = seed, key_counter
        return payloads, keys

    def ingest_batch(self, node: StorageNode, count: int) -> None:
        """Ingest `count` blocks on `node`, then push to its ring replicas
        with `sync.replicate`. A node that is down raises NodeDown, as
        `StorageNode.ingest` would, before any workload stream is drawn."""
        if node.status is not NodeStatus.UP:
            raise NodeDown(f"node {node.nid} is {node.status.value}")
        payloads, keys = self._draw_run(count)
        node.ingest(payloads, keys)
        self.metrics.ingests += count
        replicate(self.cluster, node)

    # -- fault handlers --------------------------------------------------

    def apply_fault(self, f: FaultSpec) -> None:
        """Apply fault `f` now. A fault the lifecycle refuses raises
        ScenarioValidation with validation's message and changes nothing."""
        lifecycle = self._lifecycle()
        if problem := lifecycle.check(f):
            raise ScenarioValidation(problem)
        nodes = self.sim_nodes
        if f.kind == "crash":
            torn = f.torn_bytes
            if torn is None and f.fault_kind == "torn":
                torn = self.rng_faults.randrange(1, WAL_RECORD_BYTES)
            nodes[f.node].crash(torn_wal_bytes=torn)
        elif f.kind == "restart":
            nodes[f.node].restart(f.fault_kind)
            replay = self.cluster.model.wal_replay_seconds
            self.metrics.notes.append(
                f"restart node {f.node} at {f.at_hours}h: wal replay {replay:g}s")
        elif f.kind in ("index_loss", "pipeline_crash"):
            nodes[f.node].inject_fault(f.kind)
        elif f.kind == "failover":
            label, service = f"failover {f.failed}->{f.substitute}", f"service-{f.failed}"
            if service in self.records.cname_records:
                rebind_cname(self.records, service, f"host-{f.substitute}")
                label += f" via {resolve(self.records, service).endpoint}"
            report = execute_failover(self.cluster, nodes[f.failed].nid, nodes[f.substitute].nid)
            self.metrics.events.append(DrEvent(f.at_hours, label, [report]))
        elif f.kind == "failback":
            if f"service-{f.node}" in self.records.cname_records:
                rebind_cname(self.records, f"service-{f.node}", f"host-{f.node}")
            report = execute_failback(self.cluster, nodes[f.node].nid)
            self.metrics.events.append(DrEvent(f.at_hours, f"failback {f.node}", [report]))
        elif f.kind == "converge":
            report = converge(self.cluster, nodes[f.a].nid, nodes[f.b].nid)
            self.metrics.converge_rounds.append(1)
            self.metrics.events.append(DrEvent(f.at_hours, f"converge {f.a}<->{f.b}", [report]))
        lifecycle.step(f)

    def _lifecycle(self) -> Lifecycle:
        """The live cluster's lifecycle: `down` is the nodes that are not
        up, and `partitions` is `cluster.partitions`, which `step` changes."""
        down = {i for i, node in enumerate(self.sim_nodes) if node.status is not NodeStatus.UP}
        return Lifecycle(len(self.sim_nodes), self.scenario.cluster.replica_factor,
                         down, self.cluster.partitions)

    # -- main loop -------------------------------------------------------

    def run(self) -> Metrics:
        s = self.scenario
        # initial inventory
        for node in self.sim_nodes:
            if s.inventory.blocks_per_node:
                self.ingest_batch(node, s.inventory.blocks_per_node)
        self._sample(0.0)

        # the workload spreads `total` blocks over the (hour, node) slots in
        # hour-then-node order: slot j takes floor((j+1)T/S) - floor(jT/S),
        # which is the rate itself when the rate is whole. Each hour's
        # workload runs ahead of the faults at that hour.
        n = len(self.sim_nodes)
        hours = math.floor(s.horizon_hours)
        total = round(s.workload.blocks_per_hour_per_node * hours * n)
        slots = hours * n
        schedule = [(float(h), -1, "workload", None) for h in range(1, hours + 1)] if total else []
        schedule.extend(_fault_schedule(s.faults))
        schedule.sort(key=lambda item: item[:2])

        for at, _seq, kind, f in schedule:
            if kind == "workload":
                for i, node in enumerate(self.sim_nodes):
                    j = (int(at) - 1) * n + i
                    if node.status is NodeStatus.UP:
                        self.ingest_batch(node, (j + 1) * total // slots - j * total // slots)
                self._sample(at)
            elif kind == "fault":
                self.apply_fault(f)
            else:
                self._lifecycle().step(f, heal=True)

        self._finalize()
        return self.metrics

    def _sample(self, at_hours: float) -> None:
        total_entries = sum(n.id_index.entry_count for n in self.sim_nodes)
        physical = 32 * total_entries * (1.0 + self.scenario.cost.fragmentation_factor)
        lcv_reuse = sum(n.counters.lcv_order_violations for n in self.sim_nodes)
        self.metrics.samples.append(
            (at_hours, self.metrics.ingests, total_entries, physical, lcv_reuse)
        )

    def _finalize(self) -> None:
        violations = self.metrics.violations
        for node in self.sim_nodes:
            violations.lcv_reuse += node.counters.lcv_order_violations
            violations.immutability += node.counters.immutability_violations
            if node.status is NodeStatus.UP:
                report = node.scrub(_SCRUB_BUDGET_BLOCKS)
                violations.corruption += len(report.findings)
        self._sample(self.scenario.horizon_hours)
        _, _, self.metrics.total_entries, self.metrics.physical_index_bytes, _ = (
            self.metrics.samples[-1]
        )


def run_scenario(scenario: Scenario, seed: int | None = None) -> Metrics:
    """Execute the scenario's event script to completion; deterministic
    for a fixed (scenario, seed).

    `framework: both` runs a meta twin and a hash twin of the same
    scenario and seed, and returns the meta twin's metrics with the hash
    twin's report after the meta report of each event, converges
    included, and with both twins' violation counters summed.
    """
    if scenario.framework != "both":
        return SimRuntime(scenario, seed).run()
    metrics = SimRuntime(replace(scenario, framework="meta"), seed).run()
    hashed = SimRuntime(replace(scenario, framework="hash"), seed).run()
    for event, twin in zip(metrics.events, hashed.events, strict=True):
        event.reports += twin.reports
    counts = zip(astuple(metrics.violations), astuple(hashed.violations))
    metrics.violations = Violations(*map(sum, counts))
    return metrics


# ---------------------------------------------------------------------------
# soak driver


@dataclass
class SoakConfig:
    """Seven-day-style soak: live desk-scale cluster plus production-scale
    volumetric accounting per DR event.

    The `paper-soak` preset carries the published model parameters
    (H=500 MB/s/core, C=16, B=10 GbE, delta=1 TB, N=1e9 blocks,
    D=110 TB per event). The published per-event numbers are consistent
    with that 10 GbE arithmetic, not with the testbed's nominal 100 GbE
    fabric; the preset reproduces the published numbers and the report
    annotates the tension rather than resolving it.
    """

    name: str = "paper-soak"
    seed: int = 42
    days: int = 7
    planned_every_hours: float = 12.0
    crash_days: tuple[int, ...] = (2, 4, 6)
    crash_hour_offset: float = 6.5
    nodes: int = 12
    replica_factor: int = 3
    total_ingest_blocks: int = 1_050_000
    block_bytes_min: int = 4096
    block_bytes_max: int = 65536
    duplicate_ratio: float = 0.0
    sequential_fraction: float = 0.7
    keyed_fraction: float = 0.0625
    cost: CostModel = field(
        default_factory=lambda: CostModel(fragmentation_factor=0.011)
    )
    volumetrics: Volumetrics = PAPER_VOLUMETRICS
    crash_rehash_extra: tuple[float, float] = (0.025, 0.029)


# the drift table's per-id assignment latency: a modeled figure, not a measurement
_MODELED_ASSIGN_LATENCY_US = 1.2


def load_soak_config(source) -> SoakConfig:
    """SoakConfig from a dict, YAML text or a YAML file path (`os.PathLike`),
    checked by building its scenario; see the bundled paper-soak.yaml."""
    cfg = _build(SoakConfig, _read_mapping(source), SoakConfig())
    _soak_scenario(cfg)
    return cfg


def _soak_scenario(cfg: SoakConfig) -> Scenario:
    """The soak as one validated virtual meta scenario: `days` x 24 hours of
    writes that add up to `total_ingest_blocks`, and four faults per DR
    event at its hour: crash (torn for a crash event), failover to the
    first node past the replica set, restart, failback. Planned events
    rotate through the nodes; the i-th crash event hits node
    (i + 1) x replica_factor. The soak's own settings are checked here,
    each by name, before any fault is built; `validate_scenario` holds
    the rules of the ring and the horizon.
    """
    if cfg.days < 1:
        raise ScenarioValidation("soak needs days >= 1")
    if not 0 < cfg.planned_every_hours <= 24.0 * cfg.days:
        raise ScenarioValidation(
            "soak needs 0 < planned_every_hours <= 24 x days: at least one planned event"
        )
    if not 0 <= cfg.crash_hour_offset < 24:
        raise ScenarioValidation("soak needs 0 <= crash_hour_offset < 24")
    if outside := [d for d in cfg.crash_days if not 1 <= d <= cfg.days]:
        raise ScenarioValidation(
            f"soak needs every crash_days entry within [1, days], got {outside[0]}"
        )
    if not 2 <= cfg.replica_factor < cfg.nodes:
        raise ScenarioValidation(
            "soak needs 2 <= replica_factor < nodes: a failover copies from a surviving "
            "replica to the first node past the replica set"
        )
    if cfg.total_ingest_blocks < 1:
        raise ScenarioValidation(
            "soak needs total_ingest_blocks >= 1: a soak without writes samples nothing"
        )
    lo, hi = cfg.crash_rehash_extra
    if not 0 <= lo <= hi <= 1:
        raise ScenarioValidation(
            "soak needs 0 <= crash_rehash_extra[0] <= crash_rehash_extra[1] <= 1"
        )
    scenario = Scenario(
        name=cfg.name,
        seed=cfg.seed,
        fidelity="virtual",
        framework="meta",
        horizon_hours=24.0 * cfg.days,
        cluster=ClusterSpec(nodes=cfg.nodes, replica_factor=cfg.replica_factor),
        inventory=InventorySpec(
            block_bytes_min=cfg.block_bytes_min, block_bytes_max=cfg.block_bytes_max
        ),
        workload=WorkloadSpec(
            duplicate_ratio=cfg.duplicate_ratio,
            sequential_fraction=cfg.sequential_fraction,
            keyed_fraction=cfg.keyed_fraction,
        ),
        cost=cfg.cost,
    )
    validate_scenario(scenario)  # the ring must be sound before the cadence is laid on it
    n, rf, horizon = cfg.nodes, cfg.replica_factor, scenario.horizon_hours
    scenario.workload.blocks_per_hour_per_node = cfg.total_ingest_blocks / (horizon * n)
    every = cfg.planned_every_hours
    # k x every may land a rounding error either side of the horizon
    planned = [min(k * every, horizon) for k in range(1, int(horizon / every + 1e-9) + 1)]
    crashes = sorted((d - 1) * 24.0 + cfg.crash_hour_offset for d in cfg.crash_days)
    for at, kind, f in sorted(
        [(t, "Planned", i % n) for i, t in enumerate(planned)]
        + [(t, "Crash", (i + 1) * rf % n) for i, t in enumerate(crashes)]
    ):
        scenario.faults += [
            FaultSpec("crash", at, node=f, fault_kind="torn" if kind == "Crash" else "none"),
            FaultSpec("failover", at, failed=f, substitute=ring_successors(f, n, rf)[-1]),
            FaultSpec("restart", at, node=f),
            FaultSpec("failback", at, node=f),
        ]
    validate_scenario(scenario)
    return scenario


@dataclass
class SoakEventRow:
    event_no: int
    day: int
    kind: str  # Planned | Crash
    meta_seconds: float
    hash_seconds: float

    @property
    def factor(self) -> float:
        return self.hash_seconds / self.meta_seconds


@dataclass
class SoakDriftRow:
    day: int
    entries: int
    physical_gb: float
    growth_gb_per_hour: float
    assign_rate_per_s: float
    lcv_violations: int
    modeled_assign_latency_us: float


@dataclass
class SoakResourceRow:
    resource: str
    hash_value: str
    meta_value: str
    annotation: str = ""


@dataclass
class SoakSummary:
    mean_meta_s: float
    std_meta_s: float
    cv_meta: float
    mean_hash_s: float
    std_hash_s: float
    factor_min: float
    factor_max: float
    crash_excess_seconds: list[float]
    planned_mean_meta_s: float
    violations: Violations
    ingests: int
    total_entries: int
    physical_index_bytes: float
    theoretical_index_bytes: int


@dataclass
class SoakReport:
    config_name: str
    seed: int
    events: list[SoakEventRow]
    drift: list[SoakDriftRow]
    resources: list[SoakResourceRow]
    summary: SoakSummary
    dr_reports: list[DrReport]
    annotations: list[str]


def _clipped_normal(rng: Random, cv: float) -> float:
    if cv <= 0:
        return 1.0
    lo, hi = 1.0 - 2.5 * cv, 1.0 + 2.5 * cv
    return min(hi, max(lo, rng.gauss(1.0, cv)))


def soak(config: SoakConfig | None = None) -> SoakReport:
    """Run the scaled soak: live ingestion with violation monitoring,
    DR cadence with per-event volumetric RTO accounting.

    The live cluster runs `_soak_scenario(config)` once through
    `SimRuntime.run()`, under the same rules as any scenario. Day d of the
    drift table is the run's last sample at hour 24 x d, so the last day
    is the end state after the final event.

    Each event's row is charged from the declared volumetrics. Planned
    events share one multiplicative jitter draw across both frameworks
    (both reports describe the same event, so event-local variation is
    common-mode); the draws are mean-normalized so aggregate means are
    seed-stable. Crash events carry explicit noise terms instead: a
    WAL-replay draw on the metadata side and a re-enqueued-rehash
    fraction on the baseline side.
    """
    cfg = config or SoakConfig()
    model = cfg.cost
    vol = cfg.volumetrics
    rt = SimRuntime(_soak_scenario(cfg))
    metrics = rt.run()

    rng_jitter = Random(f"{cfg.seed}:jitter")
    rng_replay = Random(f"{cfg.seed}:replay")
    rng_rehash = Random(f"{cfg.seed}:rehash")
    # an event's crash fault carries its hour and kind: a crash event tears the WAL
    events = [(f.at_hours, "Crash" if f.fault_kind == "torn" else "Planned")
              for f in rt.scenario.faults if f.kind == "crash"]
    # mean-normalized common-mode jitter for planned events
    raw = [_clipped_normal(rng_jitter, model.rto_jitter_cv)
           for _, kind in events if kind == "Planned"]
    mean_raw = sum(raw) / len(raw)
    planned_jitter = iter([j / mean_raw for j in raw])
    dr_reports: list[DrReport] = []
    event_rows: list[SoakEventRow] = []
    for at, kind in events:
        if kind == "Planned":
            jitter = next(planned_jitter)
            meta_r = volumetric_report("failover", "meta", model, vol).scaled(jitter)
            hash_r = volumetric_report("failover", "hash", model, vol).scaled(jitter)
        else:
            w = model.wal_replay_seconds * _clipped_normal(rng_replay, model.rto_jitter_cv)
            g = rng_rehash.uniform(*cfg.crash_rehash_extra)
            meta_r = volumetric_report("failback", "meta", model, vol, wal_replay_s=w)
            hash_r = volumetric_report("failback", "hash", model, vol, extra_rehash=g)
        dr_reports += [meta_r, hash_r]
        event_rows.append(SoakEventRow(
            event_no=len(event_rows) + 1,
            day=int(math.ceil(at / 24.0)),
            kind=kind,
            meta_seconds=meta_r.virtual_rto_seconds,
            hash_seconds=hash_r.virtual_rto_seconds,
        ))

    last_at = {sample[0]: sample for sample in metrics.samples}  # the last sample per hour
    drift_rows: list[SoakDriftRow] = []
    prev_physical = 0.0
    for day in range(1, cfg.days + 1):
        _, ingests, entries, physical, lcv_reuse = last_at[day * 24.0]
        drift_rows.append(SoakDriftRow(
            day=day,
            entries=entries,
            physical_gb=physical / 1e9,
            growth_gb_per_hour=(physical - prev_physical) / 1e9 / 24.0,
            assign_rate_per_s=ingests / (day * 24.0 * 3600.0),
            lcv_violations=lcv_reuse,
            modeled_assign_latency_us=_MODELED_ASSIGN_LATENCY_US,
        ))
        prev_physical = physical

    metas = [r.meta_seconds for r in event_rows]
    hashes = [r.hash_seconds for r in event_rows]
    planned_metas = [r.meta_seconds for r in event_rows if r.kind == "Planned"]
    crash_metas = [r.meta_seconds for r in event_rows if r.kind == "Crash"]
    mean_meta = sum(metas) / len(metas)
    mean_hash = sum(hashes) / len(hashes)
    std_meta = math.sqrt(sum((m - mean_meta) ** 2 for m in metas) / len(metas))
    std_hash = math.sqrt(sum((h - mean_hash) ** 2 for h in hashes) / len(hashes))
    planned_mean = sum(planned_metas) / len(planned_metas)

    summary = SoakSummary(
        mean_meta_s=mean_meta,
        std_meta_s=std_meta,
        cv_meta=std_meta / mean_meta,
        mean_hash_s=mean_hash,
        std_hash_s=std_hash,
        factor_min=min(r.factor for r in event_rows),
        factor_max=max(r.factor for r in event_rows),
        crash_excess_seconds=[m - planned_mean for m in crash_metas],
        planned_mean_meta_s=planned_mean,
        violations=metrics.violations,
        ingests=metrics.ingests,
        total_entries=metrics.total_entries,
        physical_index_bytes=metrics.physical_index_bytes,
        theoretical_index_bytes=32 * metrics.total_entries,
    )

    resources = _resource_rows(model, vol, mean_meta, mean_hash)
    annotations = [
        "per-event RTO phases are volumetric: charged from the preset's declared "
        "production-scale inventory (D, N, delta) through the cost model",
        "preset bandwidth is 10 GbE: the published per-event numbers follow the "
        "10 GbE worked example, not the testbed's nominal 100 GbE fabric "
        "(documented tension)",
        "drift is modeled, not emergent: physical index size is exactly "
        "(1 + fragmentation) x 32 x entries",
        "planned-event jitter draws are mean-normalized so aggregate soak means "
        "are seed-stable",
    ]
    return SoakReport(
        config_name=cfg.name,
        seed=cfg.seed,
        events=event_rows,
        drift=drift_rows,
        resources=resources,
        summary=summary,
        dr_reports=dr_reports,
        annotations=annotations,
    )


# Engaged-core figures of the resource table, back-derived from the
# published utilization rows: preset targets, not model outputs. A row is
# engaged-core-seconds over basis-cores times phase duration.
_CPU_BASIS_CORES = 40
_REHASH_ENGAGED_CORES = 37.88
_SYNC_ENGAGED_CORES_META = 1.28
_SYNC_ENGAGED_CORES_HASH = 1.24


def _resource_rows(model: CostModel, vol: Volumetrics,
                   mean_meta: float, mean_hash: float) -> list[SoakResourceRow]:
    rehash_pct = 100.0 * _REHASH_ENGAGED_CORES / _CPU_BASIS_CORES
    meta_pct = 100.0 * _SYNC_ENGAGED_CORES_META / _CPU_BASIS_CORES
    hash_sync_pct = 100.0 * _SYNC_ENGAGED_CORES_HASH / _CPU_BASIS_CORES
    xfer_preset = rto_breakdown(model, vol).rto_meta
    xfer_100gbe = rto_breakdown(replace(model, bandwidth=1.25e10), vol).rto_meta
    return [
        SoakResourceRow(
            "CPU - rehash phase",
            f"{rehash_pct:.1f}% aggregate",
            "0% (eliminated)",
            annotation=(
                "engaged-core figure back-derived from the published utilization "
                "row (preset target, not derivable from H/C/B)"
            ),
        ),
        SoakResourceRow(
            "CPU - index + delta",
            f"{hash_sync_pct:.1f}%",
            f"{meta_pct:.1f}%",
            annotation="engaged-core convention (matches the TCO arithmetic)",
        ),
        SoakResourceRow(
            "Network (index + delta)",
            f"{xfer_preset:.1f} s @ preset B",
            f"{xfer_preset:.1f} s @ preset B",
            annotation=(
                f"identical by construction; at 100 GbE the same bytes take "
                f"{xfer_100gbe:.1f} s, published value (~106 s) is not derivable "
                f"from any stated N/delta pair (flagged)"
            ),
        ),
        SoakResourceRow(
            "Wall-clock RTO (mean)",
            f"{mean_hash / 3600.0:.2f} hr",
            f"{mean_meta / 60.0:.1f} min",
        ),
        SoakResourceRow(
            "App traffic impact",
            "severe (CPU starved)",
            "negligible",
            annotation="qualitative, as published",
        ),
    ]
