"""The benchmark's three workloads.

Each is a single-threaded closed loop: the next call into the program
starts when the previous one returns. A run repeats episodes of fixed
size until its time is up. Every episode starts from a fresh set-up,
so a faster program does more episodes, never bigger ones, and the
state each call sees does not depend on the machine's speed.

Inventory sizes stand in for a cache-fit axis, since the program keeps
no cache:

soak        the paper-soak preset at 1/80 of its ingest volume (13,125
            blocks over 12 nodes, RF=3, 17 DR events).
dr-cycles   6 nodes, RF=3, 1,000 preloaded virtual blocks per node,
            12 DR cycles per episode on each framework.
write-read  3 nodes, RF=3, 60 preloaded 1-16 KiB blocks per node, then
            600 one-block writes and 300 reads per episode.

The program is driven only through public entry points. Calls the
tracer should see go through the module attribute (``simnet.soak``),
never through a name imported into this file. ``run`` makes the
workload's calls and returns what ``check`` needs; the runner calls
``check`` after the tracer is removed, and checks made inside ``run``
sit under ``ep.pause()``, so no check counts as the workload's work.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import replace
from importlib import resources
from random import Random
from time import perf_counter

from metadr import simnet
from metadr.node import NodeStatus


class Episode:
    """Wall time per kind of timed call, plus what was attempted and broke."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = {}
        self.attempted = 0
        self.breaches: list[str] = []
        # set by the runner: pauses the tracer, if one is installed
        self.pause = nullcontext
        # filled in by the runner
        self.traced = False
        self.setup_s = 0.0
        self.reference_s = 0.0
        self.layers: dict[str, float] = {}
        self.calls: dict[str, int] = {}

    def timed(self, kind: str, call, *args):
        """Run one public call, record its wall time under `kind`."""
        self.attempted += 1
        t0 = perf_counter()
        result = call(*args)
        self.samples.setdefault(kind, []).append(perf_counter() - t0)
        return result

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.breaches.append(message)

    @property
    def busy_s(self) -> float:
        return sum(sum(v) for v in self.samples.values())


def apply_faults(rt, *faults) -> None:
    for fault in faults:
        rt.apply_fault(fault)


def within(value: float, target: float, rel: float) -> bool:
    return abs(value - target) <= rel * abs(target)


# ---------------------------------------------------------------------------
# soak


class Soak:
    """The paper's headline run: `soak()` on the scaled paper-soak preset."""

    name = "soak"
    # 1/80 of 1,050,000 blocks still puts at least one block in each of
    # the week's 12,096 (interval, node) slots
    scale = 80

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self):
        preset = resources.files("metadr") / "scenarios" / "paper-soak.yaml"
        cfg = simnet.load_soak_config(preset.read_text(encoding="utf-8"))
        return replace(
            cfg, seed=self.seed, total_ingest_blocks=cfg.total_ingest_blocks // self.scale
        )

    def run(self, cfg, ep: Episode):
        return cfg, ep.timed("soak", simnet.soak, cfg)

    def check(self, outcome, ep: Episode) -> None:
        cfg, report = outcome
        s = report.summary
        kinds = [row.kind for row in report.events]
        ep.check(len(kinds) == 17, f"soak: {len(kinds)} events, expected 17")
        ep.check(kinds.count("Planned") == 14 and kinds.count("Crash") == 3,
                 f"soak: {kinds.count('Planned')} planned / {kinds.count('Crash')} crash")
        for row in report.events:
            ep.check(17.4 <= row.factor <= 17.9,
                     f"soak: event {row.event_no} factor {row.factor:.3f} outside [17.4, 17.9]")
        ep.check(within(s.mean_meta_s, 826.0, 0.03), f"soak: mean meta {s.mean_meta_s:.1f} s")
        ep.check(within(s.mean_hash_s, 14_549.0, 0.03), f"soak: mean hash {s.mean_hash_s:.1f} s")
        ep.check(s.violations.total == 0, f"soak: violations {s.violations}")
        ep.check(s.ingests == cfg.total_ingest_blocks,
                 f"soak: {s.ingests} ingests, expected {cfg.total_ingest_blocks}")
        ep.check(
            math.isclose(s.physical_index_bytes,
                         32 * s.total_entries * (1 + cfg.cost.fragmentation_factor)),
            "soak: physical index bytes differ from 32 x entries x (1 + fragmentation)",
        )


# ---------------------------------------------------------------------------
# dr-cycles


class DrCycles:
    """Recovery itself: the same DR cycles on a meta twin and a hash twin."""

    name = "dr-cycles"
    nodes = 6
    preload_blocks = 1000
    write_blocks = 10
    cycles = 12  # two rounds of the node order: >= 100 of each event per run

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def scenario(self, framework: str) -> dict:
        """One generated virtual scenario; the twins differ only in framework.

        Cycle c fails node order[c]: crash (torn WAL tail on odd cycles),
        failover to the next node, restart (index loss every third
        cycle), failback, then a converge with the node three along.
        """
        rng = Random(f"{self.seed}:dr-order")
        order = list(range(self.nodes))
        rng.shuffle(order)
        faults = []
        for c in range(self.cycles):
            failed = order[c % self.nodes]
            at = float(c)
            faults += [
                {"kind": "crash", "at_hours": at + 0.1, "node": failed,
                 "fault_kind": "torn" if c % 2 else "none"},
                {"kind": "failover", "at_hours": at + 0.2, "failed": failed,
                 "substitute": (failed + 1) % self.nodes},
                {"kind": "restart", "at_hours": at + 0.3, "node": failed,
                 "fault_kind": "index_loss" if c % 3 == 2 else "none"},
                {"kind": "failback", "at_hours": at + 0.4, "node": failed},
                {"kind": "converge", "at_hours": at + 0.5, "a": failed,
                 "b": (failed + 3) % self.nodes},
            ]
        return {
            "name": f"dr-cycles-{framework}",
            "seed": self.seed,
            "fidelity": "virtual",
            "framework": framework,
            "horizon_hours": float(self.cycles),
            "cluster": {"nodes": self.nodes, "replica_factor": 3},
            "inventory": {"blocks_per_node": self.preload_blocks,
                          "block_bytes_min": 4096, "block_bytes_max": 65536},
            "workload": {"keyed_fraction": 0.25},
            "cost": {"rto_jitter_cv": 0.0},
            "faults": faults,
        }

    def setup(self):
        twins = []
        for framework in ("meta", "hash"):
            scenario = simnet.load_scenario(self.scenario(framework))
            rt = simnet.SimRuntime(scenario)
            for node in rt.sim_nodes:
                rt.ingest_batch(node, scenario.inventory.blocks_per_node)
            twins.append(rt)
        return twins

    def run(self, twins, ep: Episode):
        meta, hashed = twins
        per_cycle = len(meta.scenario.faults) // self.cycles
        for c in range(self.cycles):
            for rt in (meta, hashed):
                fw = rt.scenario.framework
                for node in rt.sim_nodes:
                    if node.status is NodeStatus.UP:
                        ep.timed("write", rt.ingest_batch, node, self.write_blocks)
                crash, failover, restart, failback, converge = (
                    rt.scenario.faults[c * per_cycle:(c + 1) * per_cycle])
                ep.timed("crash", rt.apply_fault, crash)
                ep.timed(f"failover_{fw}", rt.apply_fault, failover)
                # failback includes the restart: WAL replay is part of crash RTO
                ep.timed(f"failback_{fw}", apply_faults, rt, restart, failback)
                if fw == "meta":
                    ep.timed("converge", rt.apply_fault, converge)
        return twins

    def check(self, twins, ep: Episode) -> None:
        meta = twins[0]
        for rt in twins:
            fw = rt.scenario.framework
            events = rt.metrics.events
            for kind in ("failover", "failback"):
                n = sum(1 for e in events for r in e.reports if r.kind == kind)
                ep.check(n == self.cycles, f"dr-cycles {fw}: {n} {kind} reports")
            for node in rt.sim_nodes:
                c = node.counters
                ep.check(c.lcv_order_violations == 0 and c.immutability_violations == 0,
                         f"dr-cycles {fw}: violation counters {c}")
                ep.check(node.status is NodeStatus.UP, f"dr-cycles {fw}: node left down")
                scrub = node.scrub(node.physical_block_count)
                ep.check(scrub.clean, f"dr-cycles {fw}: scrub found {scrub.findings[:3]}")
        for event in meta.metrics.events:
            for r in event.reports:
                ep.check(r.framework == "meta" and r.hash_ops == 0 and r.content_reads == 0,
                         f"dr-cycles meta: {event.label}: {r.framework} report hashed "
                         f"({r.hash_ops} ops, {r.content_reads} content reads)")
        rounds = meta.metrics.converge_rounds
        ep.check(len(rounds) == self.cycles and set(rounds) == {1},
                 f"dr-cycles meta: converge rounds {rounds}")


# ---------------------------------------------------------------------------
# write-read


class WriteRead:
    """The foreground path: one-block writes beside reads, 2 to 1."""

    name = "write-read"
    nodes = 3
    preload_blocks = 60
    writes = 600

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self):
        scenario = simnet.load_scenario({
            "name": "write-read",
            "seed": self.seed,
            "fidelity": "concrete",
            "framework": "meta",
            "cluster": {"nodes": self.nodes, "replica_factor": self.nodes},
            "inventory": {"blocks_per_node": self.preload_blocks,
                          "block_bytes_min": 1024, "block_bytes_max": 16384},
            "workload": {"keyed_fraction": 1.0},
        })
        rt = simnet.SimRuntime(scenario)
        for node in rt.sim_nodes:
            rt.ingest_batch(node, scenario.inventory.blocks_per_node)
        keys = sorted({entry.user_key for entry in rt.sim_nodes[0].id_index.entries()})
        return rt, keys

    def run(self, state, ep: Episode):
        rt, keys = state
        nodes = rt.sim_nodes
        rng = Random(f"{self.seed}:reads")
        known = set(keys)
        for i in range(self.writes):
            node = nodes[i % len(nodes)]
            before = node.id_index.max_lcv(node.nid)
            ep.timed("write", rt.ingest_batch, node, 1)
            written = node.id_index.entries_above(node.nid, before)
            ep.check(len(written) == 1, f"write-read: write made {len(written)} entries")
            for entry in written:
                if entry.user_key not in known:
                    known.add(entry.user_key)
                    keys.append(entry.user_key)
            if i % 2:
                self.read(nodes, keys[rng.randrange(len(keys))], rng, ep)
        return rt

    def read(self, nodes, key, rng, ep: Episode) -> None:
        r = rng.randrange(len(nodes))
        replica, other = nodes[r], nodes[(r + 1) % len(nodes)]
        # node.read verifies the CRC of what it returns
        data = ep.timed("read", replica.read, key)
        with ep.pause():
            entry = replica.id_index.get(replica.by_user_key[key])
            ep.check(len(data) == entry.byte_len, f"write-read: {key} read {len(data)} bytes")
            ep.check(other.read(key) == data,
                     f"write-read: {key} reads differently on nodes {replica.nid} "
                     f"and {other.nid}")

    def check(self, rt, ep: Episode) -> None:
        # replication is synchronous: every node holds every block
        expected = self.nodes * self.preload_blocks + self.writes
        for node in rt.sim_nodes:
            n = node.id_index.entry_count
            ep.check(n == expected, f"write-read: node {node.nid} holds {n} entries, "
                                    f"expected {expected}")


WORKLOADS = {w.name: w for w in (Soak, DrCycles, WriteRead)}

# Functions each workload must call at least once when traced: a layer
# metric that silently drops to zero after a refactor fails the run.
MUST_CALL = {
    "soak": ["simnet.soak", "node.ingest", "node.replicate_in", "node.restart", "node.scrub"],
    "dr-cycles": [
        "identity.next_id", "identity.recover_clock",
        "index.insert", "index.get", "index.set_difference", "index.serialize_index",
        "sync.execute_failover", "sync.execute_failback", "sync.converge",
        "sync.compute_delta_meta", "sync.verify_superset",
        "sync.ensure_baseline_consistent", "sync.sync_pair_hash",
        "hashline.payload_digest", "hashline.rebuild_index", "hashline.merkle_build",
        "hashline.hash_delta", "hashline.pipeline_tick",
        "costs.charge_hash", "simnet.ingest_batch", "simnet.apply_fault",
    ],
    "write-read": ["crc32c", "node.ingest", "node.replicate_in", "node.read_verify"],
}
