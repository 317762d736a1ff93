"""Pinned outputs: the SHA-256 of the repr of fixed-seed runs, and of the
printed output of the analytic verbs.

A refactor that must not change results (every virtual-seconds float
included) keeps these digests. A deliberate change to the model updates
them and says why.
"""

import hashlib
from importlib import resources

import pytest

from metadr import cli
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
    assert digest(report) == "077ddf005d04704d1c3fd2e51c48a493d024c58d8918af0005ced8a0e94f34ac"


_BUNDLED_PINS = [
    ("condition3-failover", 0,
     "a36a01fede3f0a6766acd75cc607436c8f68d99bd1d97bf441c7a9b98ca7c278"),
    ("condition3-failover", 7,
     "aadc7b6de9586de51776557f3a9c04ac46a0a60c5d089c1e6bb6e83974870455"),
    ("partition-converge", 0,
     "b5082f70b5c68413962fb073e28e8964d458087b2e4ad2f7eada72fed3d57633"),
    ("partition-converge", 7,
     "6d648e7cdd28e1f68f536b8413907a31d76cd5cfda281cc86b3514fe109e88b7"),
]


# ids are name-seed, so re-recording a digest keeps the case's name
@pytest.mark.parametrize("name,seed,expected", _BUNDLED_PINS,
                         ids=[f"{name}-{seed}" for name, seed, _ in _BUNDLED_PINS])
def test_bundled_scenario_metrics_are_pinned(name, seed, expected):
    assert digest(run_scenario(bundled(name), seed)) == expected


def test_hash_restart_after_transfers_is_pinned():
    metrics = run_scenario(load_scenario(HASH_RESTART_SCENARIO))
    assert [r.content_reads for e in metrics.events for r in e.reports] == [0, 96, 176]
    assert digest(metrics) == "e3273b35b48e143067a9819adaea67e3668a847c5234b9a866986155acd81013"


def test_virtual_hash_restarts_are_pinned():
    metrics = run_scenario(load_scenario(VIRTUAL_HASH_SCENARIO))
    hash_reports = [r for e in metrics.events for r in e.reports if r.framework == "hash"]
    assert [r.hash_ops for r in hash_reports] == [280, 310, 60, 439]
    assert [r.content_reads for r in hash_reports] == [0, 0, 0, 190]
    assert digest(metrics) == "c54deb81171f8670612f1cca233ac174b111b28103433845e14228e170e106ec"


RTO_EXAMPLE = ("rto", "--D", "1.1e14", "--delta", "1e12", "--N", "1e9")

_ANALYTIC_PINS = [
    ("rto-csv", (*RTO_EXAMPLE, "--format", "csv"),
     "08f02ae94103a5cf7d6b133c1136014768ccc647dbe1001c0d9f942a6348c57f"),
    ("rto-md", (*RTO_EXAMPLE, "--format", "md"),
     "a4a3d1e63420ffdaefa86438ebafc9f528f93d875af9e035541aa5b966cf5074"),
    ("table2-csv", ("table2", "--format", "csv"),
     "ff37ce3978fc3190585227b6b9b378f628a1c04dfc52ff74f085d4cb2c7cba42"),
    ("table2-md", ("table2", "--format", "md"),
     "ee2e24bd145eea9c892a8c67623358a187219f8b7594ae593e538c50b8e3061d"),
    ("tco-csv", ("tco", "--format", "csv"),
     "160d06f8f88bb5dc27b99457beeadc60455e3a066336786541e790dadecebc00"),
    ("sweep-C", ("sensitivity", "--sweep", "C=16,32,64,128", "--format", "csv"),
     "ec75f62231a4f0a5f128dda4561ad713b76a8ee9699522ec3f02f5211edec7bf"),
    ("sweep-delta", ("sensitivity", "--sweep", "delta=1e11,1e12,1e13", "--format", "csv"),
     "9c7d9dab764087c86013c63d64e83b3c2d6102e0c5762ace6210e1b11f6577c4"),
    ("sweep-N", ("sensitivity", "--sweep", "N=1e8,1e9,1e10", "--format", "csv"),
     "c36be4a33694f62d19597c2b23aa267e326b6f7d9d77f6d677cafb7645514a44"),
    ("sweep-B", ("sensitivity", "--sweep", "B=1.25e9,1.25e10", "--format", "csv"),
     "094b3cbf435540377ce44d67d1b8ad88231179bff6bdfb988df0fa05faaceece"),
]


@pytest.mark.parametrize("argv,expected", [pin[1:] for pin in _ANALYTIC_PINS],
                         ids=[pin[0] for pin in _ANALYTIC_PINS])
def test_analytic_verb_output_is_pinned(capsys, argv, expected):
    assert cli.main(list(argv)) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == expected
