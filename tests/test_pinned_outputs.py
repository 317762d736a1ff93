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
    assert digest(report) == "e8cf0969e3bfbe257bf54104e7220aa2c2381662617cc4259150c8c7078d4cd4"


_BUNDLED_PINS = [
    ("condition3-failover", 0,
     "c92a959073fd0751e23715c720bd47236be230c6bc317e1b2a0d9893e6059917"),
    ("condition3-failover", 7,
     "8476ce26b54af141fa09b2ed598f46ae522a9f4b48e30098bbcc5289124de275"),
    ("partition-converge", 0,
     "f1ffaa9991b27d611d3d31cc9b76ec502662ed1e054f3632ab90d970165dfd61"),
    ("partition-converge", 7,
     "864d435d89b87ff82b734dd882f65d8f836999994460f755d52bcbfe8dad2d53"),
]


# ids are name-seed, so re-recording a digest keeps the case's name
@pytest.mark.parametrize("name,seed,expected", _BUNDLED_PINS,
                         ids=[f"{name}-{seed}" for name, seed, _ in _BUNDLED_PINS])
def test_bundled_scenario_metrics_are_pinned(name, seed, expected):
    assert digest(run_scenario(bundled(name), seed)) == expected


def test_hash_restart_after_transfers_is_pinned():
    metrics = run_scenario(load_scenario(HASH_RESTART_SCENARIO))
    assert [r.content_reads for e in metrics.events for r in e.reports] == [0, 96, 176]
    assert digest(metrics) == "f99197781943f26e3cf809b06031e3f11dcd4100670a3f4e288bf2e2345ecb5b"


def test_virtual_hash_restarts_are_pinned():
    metrics = run_scenario(load_scenario(VIRTUAL_HASH_SCENARIO))
    hash_reports = [r for e in metrics.events for r in e.reports if r.framework == "hash"]
    assert [r.hash_ops for r in hash_reports] == [280, 310, 60, 439]
    assert [r.content_reads for r in hash_reports] == [0, 0, 0, 190]
    assert digest(metrics) == "4de0a3390d194822fa6ef0d39b08fbab2dfccc1338d97412ffe4d62500f0bb8b"
