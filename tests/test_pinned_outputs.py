"""Pinned outputs: the SHA-256 of the repr of fixed-seed runs.

A refactor that must not change results (every virtual-seconds float
included) keeps these digests. A deliberate change to the model updates
them and says why.
"""

import hashlib
from importlib import resources

import pytest

from metadr.simnet import SoakConfig, load_scenario, run_scenario, soak

# One hash-framework run that restarts nodes with index_loss after
# failover transfers: the rebuild hashes each store in its order, so the
# order of the block store reaches the float sums of t_hash.
HASH_RESTART_SCENARIO = {
    "name": "hash-restart-index-loss", "seed": 5, "fidelity": "concrete",
    "framework": "hash", "horizon_hours": 4.0,
    "cluster": {"nodes": 3, "replica_factor": 2},
    "inventory": {"blocks_per_node": 40, "block_bytes_min": 64, "block_bytes_max": 2048},
    "workload": {"blocks_per_hour_per_node": 8},
    "faults": [
        {"kind": "crash", "at_hours": 1.0, "node": 0},
        {"kind": "failover", "at_hours": 1.5, "failed": 0, "substitute": 2},
        {"kind": "restart", "at_hours": 2.0, "node": 0, "fault_kind": "index_loss"},
        {"kind": "failback", "at_hours": 2.5, "node": 0},
        {"kind": "crash", "at_hours": 3.0, "node": 2},
        {"kind": "restart", "at_hours": 3.25, "node": 2, "fault_kind": "index_loss"},
        {"kind": "failback", "at_hours": 3.5, "node": 2},
    ],
}


# Both twins at virtual fidelity through every restart fault kind: the
# hash twin drains and rebuilds over descriptor-backed blocks, and a fifth
# of the workload repeats earlier content. Node 0 has hashed nothing when
# its pipeline_crash restart comes, so that restart rolls nothing back.
VIRTUAL_HASH_SCENARIO = {
    "name": "virtual-hash-restarts", "seed": 9, "fidelity": "virtual",
    "framework": "both", "horizon_hours": 5.0,
    "cluster": {"nodes": 4, "replica_factor": 2},
    "inventory": {"blocks_per_node": 60, "block_bytes_min": 4096, "block_bytes_max": 65536},
    "workload": {"blocks_per_hour_per_node": 10, "duplicate_ratio": 0.2},
    "faults": [
        {"kind": "crash", "at_hours": 1.0, "node": 0, "fault_kind": "torn"},
        {"kind": "failover", "at_hours": 1.5, "failed": 0, "substitute": 2},
        {"kind": "restart", "at_hours": 2.0, "node": 0, "fault_kind": "pipeline_crash"},
        {"kind": "failback", "at_hours": 2.5, "node": 0},
        {"kind": "crash", "at_hours": 3.0, "node": 1},
        {"kind": "failover", "at_hours": 3.25, "failed": 1, "substitute": 3},
        {"kind": "restart", "at_hours": 3.5, "node": 1, "fault_kind": "index_loss"},
        {"kind": "failback", "at_hours": 4.0, "node": 1},
    ],
}


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def bundled(name: str):
    text = resources.files("metadr").joinpath("scenarios", f"{name}.yaml").read_text()
    return load_scenario(text)


def test_soak_output_is_pinned():
    report = soak(SoakConfig(total_ingest_blocks=13_125, seed=101))
    assert digest(report) == "c6a0722ac963a73edf5700a5568285bf4c8e1fa20c649aab1ce0beb179c4fd81"


_BUNDLED_PINS = [
    ("condition3-failover", 0,
     "8557d7c17413b765bd8faa7b0a3f51b58fa852787ff6a3a73eb336edce9d77d9"),
    ("condition3-failover", 7,
     "bf7fbbf27a3a5d2039a5d73167b5006f9ba1474769b13c15fc47ebe1c41557cd"),
    ("partition-converge", 0,
     "890b5c4d8df1112aacb25750e19d88226eccb58c745b4dd44eec7ba47c2ed877"),
    ("partition-converge", 7,
     "6dff3218b654ec4532e659e9c7c5b6ebb1355e267a460e1f111ac22fa6abc3ea"),
]


# ids are name-seed, so re-recording a digest keeps the case's name
@pytest.mark.parametrize("name,seed,expected", _BUNDLED_PINS,
                         ids=[f"{name}-{seed}" for name, seed, _ in _BUNDLED_PINS])
def test_bundled_scenario_metrics_are_pinned(name, seed, expected):
    assert digest(run_scenario(bundled(name), seed)) == expected


def test_hash_restart_after_transfers_is_pinned():
    metrics = run_scenario(load_scenario(HASH_RESTART_SCENARIO))
    assert [r.content_reads for e in metrics.events for r in e.reports] == [0, 96, 176]
    assert digest(metrics) == "bf9931c3713efd42950ff3c9968099be2835834cd615cc155e8f43e6ef02f83f"


def test_virtual_hash_restarts_are_pinned():
    metrics = run_scenario(load_scenario(VIRTUAL_HASH_SCENARIO))
    hash_reports = [r for e in metrics.events for r in e.reports if r.framework == "hash"]
    assert [r.hash_ops for r in hash_reports] == [280, 310, 60, 439]
    assert [r.content_reads for r in hash_reports] == [0, 0, 0, 190]
    assert digest(metrics) == "b100aa3c71359951fa18e0cb0a83a67c921d78c3caa02723fe353afc2aa46283"
