import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metadr import simnet
from metadr.costs import CostMeter, CostModel, account_hash_cost, account_transfer
from metadr.simnet import (
    ScenarioValidation,
    SimRuntime,
    SoakConfig,
    load_scenario,
    load_soak_config,
    run_scenario,
    soak,
)

PARTITION_SCENARIO = {
    "name": "partition-test",
    "seed": 5,
    "fidelity": "concrete",
    "framework": "meta",
    "horizon_hours": 4.0,
    "cluster": {"nodes": 2, "replica_factor": 2},
    "inventory": {"blocks_per_node": 20, "block_bytes_min": 64, "block_bytes_max": 256},
    "workload": {"blocks_per_hour_per_node": 15},
    "faults": [
        {"kind": "partition", "at_hours": 1.0, "until_hours": 3.0,
         "side_a": [0], "side_b": [1]},
        {"kind": "converge", "at_hours": 3.5, "a": 0, "b": 1},
    ],
}


# -- cost accounting ---------------------------------------------------------------


def test_account_hash_cost_formula():
    meter = CostMeter(CostModel())
    assert account_hash_cost(meter, 1.1e14) == pytest.approx(13_750.0)


def test_account_transfer_formula():
    meter = CostMeter(CostModel())
    assert account_transfer(meter, 3.2e10, phase="index") == pytest.approx(25.6)
    assert account_transfer(meter, 0) == 0.0


def test_meter_accumulates_phases():
    meter = CostMeter(CostModel())
    account_hash_cost(meter, 8e9)
    account_transfer(meter, 1.25e9, phase="index")
    account_transfer(meter, 2.5e9)
    assert meter.t_hash == pytest.approx(1.0)
    assert meter.t_index == pytest.approx(1.0)
    assert meter.t_delta == pytest.approx(2.0)
    assert meter.virtual_seconds == pytest.approx(4.0)
    assert meter.network_bytes == 1_250_000_000 + 2_500_000_000


# -- scenario loading and validation --------------------------------------------------


def test_load_scenario_from_dict():
    scenario = load_scenario(PARTITION_SCENARIO)
    assert scenario.cluster.nodes == 2
    assert scenario.faults[0].kind == "partition"


def test_loader_rejects_unknown_keys():
    for bad in (
        dict(PARTITION_SCENARIO, inventroy={"blocks_per_node": 5}),
        dict(PARTITION_SCENARIO, cluster={"nodes": 2, "replicas": 2}),
        dict(PARTITION_SCENARIO, faults=[{"kind": "crash", "at_hours": 1.0, "nod": 0}]),
    ):
        with pytest.raises(ScenarioValidation, match="unknown key"):
            load_scenario(bad)
    with pytest.raises(ScenarioValidation, match="unknown key"):
        load_soak_config({"cost": {"fragmentation": 0.02}})


def test_loader_checks_field_types():
    for bad in (
        dict(PARTITION_SCENARIO, seed="5"),
        dict(PARTITION_SCENARIO, cluster={"nodes": 2.5}),
        dict(PARTITION_SCENARIO, faults=[{"kind": "crash", "at_hours": 1.0, "node": "1"}]),
        dict(PARTITION_SCENARIO, faults=[{"kind": "crash", "at_hours": 1.0, "node": True}]),
        dict(PARTITION_SCENARIO, horizon_hours=float("nan")),
        dict(PARTITION_SCENARIO, volumetrics={"data_bytes": 1e12}),  # missing fields
        dict(PARTITION_SCENARIO, cost={"cores": 0}),  # CostModel rejects it
        dict(PARTITION_SCENARIO, discovery={"zone": ["A host-0 10.0.0.1:7000"]}),
    ):
        with pytest.raises(ScenarioValidation):
            load_scenario(bad)
    with pytest.raises(ScenarioValidation, match="crash_rehash_extra"):
        load_soak_config({"crash_rehash_extra": [0.1]})


def test_loader_accepts_integral_floats_and_keeps_section_defaults():
    scenario = load_scenario(dict(
        PARTITION_SCENARIO,
        volumetrics={"data_bytes": 1.1e14, "blocks": 1.0e9, "delta_bytes": 1e12},
    ))
    assert scenario.volumetrics.blocks == 1_000_000_000
    assert type(scenario.volumetrics.blocks) is int
    cfg = load_soak_config("cost:\n  cores: 8\nvolumetrics:\n  blocks: 2.0e+9\n")
    assert cfg.cost.cores == 8
    assert cfg.cost.fragmentation_factor == 0.011  # SoakConfig's own default
    assert cfg.volumetrics.blocks == 2_000_000_000
    assert cfg.volumetrics.data_bytes == 1.1e14


_ANY = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from(["1", "meta", "crash", "CNAME s h", "bad zone line"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=3),
    max_leaves=10,
)


def _maybe(strategy):
    """Mostly well-formed values, sometimes anything at all."""
    return st.integers(0, 9).flatmap(lambda i: _ANY if i == 9 else strategy)


_ORDINAL = _maybe(st.integers(-1, 3))
_FAULT = _maybe(st.fixed_dictionaries(
    {"kind": _maybe(st.sampled_from(sorted(simnet._FAULT_FIELDS) + ["meteor"])),
     "at_hours": _maybe(st.floats(0, 0.5))},
    optional={
        "node": _ORDINAL, "failed": _ORDINAL, "substitute": _ORDINAL, "a": _ORDINAL,
        "b": _ORDINAL, "until_hours": _maybe(st.floats(0, 0.5)),
        "side_a": _maybe(st.lists(st.integers(-1, 3), max_size=2)),
        "side_b": _maybe(st.lists(st.integers(-1, 3), max_size=2)),
        "fault_kind": _maybe(st.sampled_from(["none", "torn", "index_loss"])),
        "torn_bytes": _maybe(st.integers(0, 20)),
    },
))
_SCENARIO_MAPPING = st.fixed_dictionaries({
    "horizon_hours": _maybe(st.floats(0.5, 6)),
    "cluster": _maybe(st.fixed_dictionaries({}, optional={
        "nodes": _maybe(st.integers(0, 4)), "replica_factor": _maybe(st.integers(0, 4))})),
    "faults": _maybe(st.lists(_FAULT, max_size=6)),
}, optional={
    "name": _maybe(st.text(max_size=5)),
    "seed": _maybe(st.integers(0, 9)),
    "fidelity": _maybe(st.sampled_from(["concrete", "virtual"])),
    "framework": _maybe(st.sampled_from(["meta", "hash", "both"])),
    "cost": _maybe(st.dictionaries(
        st.sampled_from(["cores", "bandwidth", "fragmentation_factor", "typo"]), _ANY,
        max_size=2)),
    "volumetrics": _maybe(st.fixed_dictionaries(
        {"data_bytes": _maybe(st.floats(0, 1e15)), "blocks": _maybe(st.floats(0, 1e9)),
         "delta_bytes": _maybe(st.floats(0, 1e12))})),
    "discovery": _maybe(st.fixed_dictionaries({"zone": _maybe(st.lists(
        st.sampled_from(["ENDPT host-9 10.0.0.9:7000", "CNAME svc host-9", "bad"]),
        max_size=2))})),
})


@settings(max_examples=300, deadline=None)
@given(raw=_maybe(_SCENARIO_MAPPING).filter(lambda raw: isinstance(raw, dict)))
def test_load_scenario_returns_or_raises_validation_only(raw):
    try:
        load_scenario(raw)
    except ScenarioValidation:
        pass


def test_validation_rejects_unknown_fault():
    bad = dict(PARTITION_SCENARIO, faults=[{"kind": "meteor", "at_hours": 1.0}])
    with pytest.raises(ScenarioValidation):
        load_scenario(bad)


def test_validation_rejects_out_of_horizon():
    bad = dict(PARTITION_SCENARIO, faults=[{"kind": "crash", "at_hours": 99.0, "node": 0}])
    with pytest.raises(ScenarioValidation):
        load_scenario(bad)


def test_validation_rejects_overlapping_partitions():
    bad = dict(
        PARTITION_SCENARIO,
        faults=[
            {"kind": "partition", "at_hours": 1.0, "until_hours": 3.0,
             "side_a": [0], "side_b": [1]},
            {"kind": "partition", "at_hours": 2.0, "until_hours": 4.0,
             "side_a": [1], "side_b": [0]},
        ],
    )
    with pytest.raises(ScenarioValidation):
        load_scenario(bad)


def test_validation_rejects_bad_ordinals():
    bad = dict(PARTITION_SCENARIO, faults=[{"kind": "crash", "at_hours": 1.0, "node": 7}])
    with pytest.raises(ScenarioValidation):
        load_scenario(bad)


@pytest.mark.parametrize("faults, message", [
    ([{"kind": "failover", "at_hours": 1.0, "failed": 0, "substitute": 1}], "not down"),
    ([{"kind": "crash", "at_hours": 1.0, "node": 0},
      {"kind": "crash", "at_hours": 2.0, "node": 0}], "already down"),
    ([{"kind": "restart", "at_hours": 1.0, "node": 0}], "not down"),
    ([{"kind": "crash", "at_hours": 1.0, "node": 0},
      {"kind": "restart", "at_hours": 2.0, "node": 0, "fault_kind": "torn"}], "fault_kind"),
    ([{"kind": "crash", "at_hours": 1.0, "node": 0},
      {"kind": "failback", "at_hours": 2.0, "node": 0}], "is down"),
    ([{"kind": "crash", "at_hours": 1.0, "node": 0},
      {"kind": "crash", "at_hours": 1.5, "node": 1},
      {"kind": "failover", "at_hours": 2.0, "failed": 0, "substitute": 2}], "no up replica"),
    ([{"kind": "crash", "at_hours": 1.0, "node": 0},
      {"kind": "crash", "at_hours": 1.5, "node": 2},
      {"kind": "failover", "at_hours": 2.0, "failed": 0, "substitute": 2}], "substitute 2"),
    ([{"kind": "crash", "at_hours": 1.0}], "needs node"),
])
def test_validation_replays_node_lifecycle(faults, message):
    bad = dict(PARTITION_SCENARIO, cluster={"nodes": 3, "replica_factor": 3}, faults=faults)
    with pytest.raises(ScenarioValidation, match=message):
        load_scenario(bad)


def test_validation_follows_run_order_not_list_order():
    scenario = load_scenario(dict(PARTITION_SCENARIO, faults=[
        {"kind": "restart", "at_hours": 2.0, "node": 0},
        {"kind": "crash", "at_hours": 1.0, "node": 0, "fault_kind": "torn"},
    ]))
    assert [f.kind for f in scenario.faults] == ["restart", "crash"]


def test_validation_rejects_self_failover():
    bad = dict(
        PARTITION_SCENARIO,
        faults=[
            {"kind": "crash", "at_hours": 0.5, "node": 0},
            {"kind": "failover", "at_hours": 1.0, "failed": 0, "substitute": 0},
        ],
    )
    with pytest.raises(ScenarioValidation):
        load_scenario(bad)


# -- scenario execution ------------------------------------------------------------------


def test_same_seed_gives_identical_metrics():
    a = run_scenario(load_scenario(PARTITION_SCENARIO))
    b = run_scenario(load_scenario(PARTITION_SCENARIO))
    assert a == b  # bit-identical dataclass trees


def test_different_seed_gives_different_workload():
    a = run_scenario(load_scenario(PARTITION_SCENARIO))
    b = run_scenario(load_scenario(dict(PARTITION_SCENARIO, seed=6)))
    assert a != b


def test_empty_scenario_is_quiet():
    metrics = run_scenario(load_scenario({
        "name": "noop", "horizon_hours": 1.0,
        "cluster": {"nodes": 2}, "workload": {}, "faults": [],
    }))
    assert metrics.events == []
    assert metrics.violations.total == 0
    assert metrics.ingests == 0


def test_partition_then_converge_reaches_union_in_one_round():
    metrics = run_scenario(load_scenario(PARTITION_SCENARIO))
    assert metrics.converge_rounds == [1]
    assert metrics.violations.total == 0
    # both nodes hold the complete write history
    ingests = metrics.ingests
    assert metrics.total_entries == 2 * ingests


def test_crash_restart_script_never_reuses_lcv():
    scenario = load_scenario({
        "name": "crash-cycle", "seed": 3, "horizon_hours": 6.0,
        "cluster": {"nodes": 2, "replica_factor": 2},
        "workload": {"blocks_per_hour_per_node": 25},
        "faults": [
            {"kind": "crash", "at_hours": 1.5, "node": 0, "torn_bytes": 9},
            {"kind": "restart", "at_hours": 2.5, "node": 0},
            {"kind": "crash", "at_hours": 3.5, "node": 0, "torn_bytes": 3},
            {"kind": "restart", "at_hours": 4.5, "node": 0},
        ],
    })
    metrics = run_scenario(scenario)
    assert metrics.violations.lcv_reuse == 0
    assert any("wal replay 18" in note for note in metrics.notes)


def test_condition3_failover_contrasts_frameworks():
    scenario = load_scenario({
        "name": "c3", "seed": 1, "fidelity": "concrete", "framework": "both",
        "horizon_hours": 3.0,
        "cluster": {"nodes": 3, "replica_factor": 2},
        "inventory": {"blocks_per_node": 40, "block_bytes_min": 64, "block_bytes_max": 128},
        "workload": {},
        "faults": [
            {"kind": "index_loss", "at_hours": 0.5, "node": 1},
            {"kind": "crash", "at_hours": 1.0, "node": 0},
            {"kind": "failover", "at_hours": 1.5, "failed": 0, "substitute": 2},
        ],
    })
    metrics = run_scenario(scenario)
    (event,) = metrics.events
    by_framework = {r.framework: r for r in event.reports}
    assert by_framework["hash"].t_hash > 0
    assert by_framework["meta"].t_hash == 0
    assert by_framework["meta"].hash_ops == 0
    assert by_framework["meta"].content_reads == 0


def test_pipeline_crash_fault_rolls_back_the_hash_pipeline():
    runtime = SimRuntime(load_scenario({
        "name": "pipeline", "framework": "hash", "horizon_hours": 2.0,
        "inventory": {"blocks_per_node": 10},
        "faults": [{"kind": "pipeline_crash", "at_hours": 1.0, "node": 0}],
    }))
    metrics = runtime.run()
    assert metrics.violations.total == 0
    assert runtime.sim_nodes[0].baseline.hash_index.stale


def test_partitioned_nodes_do_not_replicate():
    # partition covers every workload batch; replication resumes only at
    # heal time, after the last write, so divergence persists at the end
    scenario = load_scenario(dict(PARTITION_SCENARIO, faults=[
        {"kind": "partition", "at_hours": 0.5, "until_hours": 4.0,
         "side_a": [0], "side_b": [1]},
    ]))
    metrics = run_scenario(scenario)
    assert metrics.total_entries < 2 * metrics.ingests


# -- soak ---------------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_soak_run():
    """The small soak's report and the SimRuntime it ran on."""
    runtimes = []

    class Recorded(SimRuntime):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            runtimes.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simnet, "SimRuntime", Recorded)
        report = soak(SoakConfig(total_ingest_blocks=24_000, intervals_per_day=24))
    (runtime,) = runtimes
    return report, runtime


@pytest.fixture(scope="module")
def small_soak(small_soak_run):
    return small_soak_run[0]


def test_soak_ring_replicas_hold_every_id(small_soak_run):
    report, rt = small_soak_run
    assert rt.scenario.framework == "meta"
    assert all(node.baseline is None for node in rt.sim_nodes)
    for owner in rt.sim_nodes:
        own = {e.id for e in owner.id_index.entries_above(owner.nid, 0)}
        assert own
        for peer_nid in rt.replica_peers[owner.nid]:
            peer = rt.cluster.node(peer_nid)
            assert own <= {e.id for e in peer.id_index.entries_above(owner.nid, 0)}
    assert report.summary.ingests == sum(
        len(n.id_index.entries_above(n.nid, 0)) for n in rt.sim_nodes
    )


def test_soak_emits_seventeen_events(small_soak):
    assert len(small_soak.events) == 17
    kinds = [r.kind for r in small_soak.events]
    assert kinds.count("Planned") == 14
    assert kinds.count("Crash") == 3


def test_soak_factors_within_published_range(small_soak):
    assert 17.5 <= small_soak.summary.factor_min
    assert small_soak.summary.factor_max <= 17.8


def test_soak_crash_events_add_replay_overhead(small_soak):
    for excess in small_soak.summary.crash_excess_seconds:
        assert 15.0 <= excess <= 21.0


def test_soak_zero_violations(small_soak):
    assert small_soak.summary.violations.total == 0


def test_soak_drift_is_exactly_the_fragmentation_model(small_soak):
    s = small_soak.summary
    assert s.physical_index_bytes == 32 * s.total_entries * 1.011
    assert s.physical_index_bytes / s.theoretical_index_bytes == pytest.approx(1.011)


def test_soak_is_deterministic():
    a = soak(SoakConfig(total_ingest_blocks=6_000, intervals_per_day=12))
    b = soak(SoakConfig(total_ingest_blocks=6_000, intervals_per_day=12))
    assert a.events == b.events
    assert a.summary == b.summary
    assert a.drift == b.drift


def test_soak_network_parity_per_event(small_soak):
    reports = small_soak.dr_reports
    for meta_r, hash_r in zip(reports[::2], reports[1::2]):
        assert meta_r.framework == "meta" and hash_r.framework == "hash"
        assert meta_r.network_bytes == hash_r.network_bytes


def test_soak_meta_counters_clean(small_soak):
    for report in small_soak.dr_reports:
        if report.framework == "meta":
            assert report.hash_ops == 0
            assert report.content_reads == 0


def test_soak_config_from_yaml(tmp_path):
    path = tmp_path / "mini.yaml"
    path.write_text(
        "name: mini\nseed: 9\ndays: 7\ntotal_ingest_blocks: 5000\n"
        "intervals_per_day: 12\ncost: {fragmentation_factor: 0.011}\n"
    )
    cfg = load_soak_config(path)
    assert cfg.name == "mini" and cfg.seed == 9
    report = soak(cfg)
    assert len(report.events) == 17


def test_soak_accepts_ragged_ring_and_rejects_configs_without_a_substitute():
    # ring placement needs no whole replica groups
    report = soak(load_soak_config({
        "nodes": 10, "replica_factor": 3, "total_ingest_blocks": 3_000, "intervals_per_day": 6,
    }))
    assert len(report.events) == 17
    assert report.summary.violations.total == 0
    for bad in ({"nodes": 3, "replica_factor": 3}, {"replica_factor": 1},
                {"planned_every_hours": 0.0}, {"block_bytes_min": 0}):
        with pytest.raises(ScenarioValidation):
            load_soak_config(bad)


def test_live_shadow_delta_parity_and_incremental_index_advantage():
    # dup-free concrete shadow event: both frameworks transfer the same
    # delta bytes; the identifier exchange never puts more on the wire
    # than the baseline's full digest list (checkpoints only shrink it)
    scenario = load_scenario({
        "name": "parity", "seed": 2, "fidelity": "concrete", "framework": "both",
        "horizon_hours": 2.0,
        "cluster": {"nodes": 3, "replica_factor": 2},
        "inventory": {"blocks_per_node": 30, "block_bytes_min": 64, "block_bytes_max": 512},
        "workload": {},
        "faults": [
            {"kind": "crash", "at_hours": 1.0, "node": 0},
            {"kind": "failover", "at_hours": 1.5, "failed": 0, "substitute": 2},
        ],
    })
    metrics = run_scenario(scenario)
    (event,) = metrics.events
    by_framework = {r.framework: r for r in event.reports}
    assert by_framework["meta"].t_delta == by_framework["hash"].t_delta
    assert by_framework["meta"].network_bytes <= by_framework["hash"].network_bytes


def test_genesis_pair_exchange_has_byte_identical_envelopes():
    # with no prior checkpoint both frameworks serialize one 32-byte
    # entry per block inside the same envelope: parity to the byte
    from random import Random

    from metadr.identity import new_node_id
    from metadr.index import Checkpoint
    from metadr.node import StorageNode
    from metadr.sync import (
        ConditionState,
        compute_delta_hash,
        compute_delta_meta,
        ensure_baseline_consistent,
    )

    rng = Random("parity")
    a = StorageNode(new_node_id(rng), baseline=True)
    b = StorageNode(new_node_id(rng), baseline=True)
    for i in range(25):
        (a if i % 2 else b).ingest(f"content {i}".encode())
    ensure_baseline_consistent(a)
    ensure_baseline_consistent(b)
    meta_plan = compute_delta_meta(a.id_index, Checkpoint(peer=b.nid), b.id_index)
    hash_plan = compute_delta_hash(
        a.baseline.hash_index, b.baseline.hash_index, ConditionState()
    )
    assert meta_plan.index_bytes_exchanged == hash_plan.index_bytes_exchanged


def test_injection_entry_points_schedule_and_validate():
    from metadr.simnet import inject_crash, inject_index_loss, inject_partition

    runtime = SimRuntime(load_scenario({
        "name": "inject", "seed": 4, "framework": "hash", "horizon_hours": 5.0,
        "cluster": {"nodes": 3, "replica_factor": 2},
        "inventory": {"blocks_per_node": 10, "block_bytes_min": 64, "block_bytes_max": 64},
        "workload": {"blocks_per_hour_per_node": 5},
    }))
    inject_crash(runtime, 1, at_hours=1.0)
    inject_partition(runtime, [0], [2], from_hours=2.0, to_hours=3.0)
    inject_index_loss(runtime, 2, at_hours=3.5)
    with pytest.raises(ScenarioValidation):
        inject_crash(runtime, 9, at_hours=1.0)
    runtime.scenario.faults.pop()  # drop the invalid one
    runtime.scenario.faults.append(
        __import__("metadr.simnet", fromlist=["FaultSpec"]).FaultSpec(
            kind="restart", at_hours=4.0, node=1
        )
    )
    metrics = runtime.run()
    assert metrics.violations.total == 0
    assert runtime.sim_nodes[2].baseline.hash_index.lost


def test_hash_only_framework_actually_transfers():
    scenario = load_scenario({
        "name": "hash-only", "seed": 8, "fidelity": "concrete", "framework": "hash",
        "horizon_hours": 2.0,
        "cluster": {"nodes": 3, "replica_factor": 2},
        "inventory": {"blocks_per_node": 20, "block_bytes_min": 64, "block_bytes_max": 64},
        "workload": {},
        "faults": [
            {"kind": "crash", "at_hours": 1.0, "node": 0},
            {"kind": "failover", "at_hours": 1.5, "failed": 0, "substitute": 2},
        ],
    })
    metrics = run_scenario(scenario)
    (event,) = metrics.events
    (report,) = event.reports
    assert report.framework == "hash"
    assert report.t_delta > 0  # blocks really moved
    assert report.t_hash > 0  # condition payment (stale pipelines)


def test_virtual_fidelity_scenario_runs_clean():
    scenario = load_scenario(dict(
        PARTITION_SCENARIO, name="virtual-partition", fidelity="virtual",
    ))
    metrics = run_scenario(scenario)
    assert metrics.converge_rounds == [1]
    assert metrics.violations.total == 0
