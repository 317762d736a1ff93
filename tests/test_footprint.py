"""What a process loads: a metadata-only run never imports OpenSSL's
hashlib backend (`_hashlib`), and a config built in code never imports
PyYAML. Each case runs in a fresh interpreter, since the test process
itself has loaded both."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# a 3-node virtual scenario with a crash, failover, restart and failback
FAILOVER = {
    "fidelity": "virtual",
    "horizon_hours": 3.0,
    "cluster": {"nodes": 3, "replica_factor": 2},
    "inventory": {"blocks_per_node": 20},
    "workload": {"blocks_per_hour_per_node": 10},
    "faults": [
        {"kind": "crash", "at_hours": 1.0, "node": 0},
        {"kind": "failover", "at_hours": 1.5, "failed": 0, "substitute": 2},
        {"kind": "restart", "at_hours": 2.0, "node": 0},
        {"kind": "failback", "at_hours": 2.5, "node": 0},
    ],
}


def loaded_after(script: str, *args: str, cwd=None) -> dict:
    """Run `script` in a fresh interpreter that imports metadr from this
    checkout; it must print one JSON object as its last line."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, env=env, cwd=cwd, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


LOADED = 'json.dumps({m: m in sys.modules for m in ("yaml", "_hashlib")})'


def test_a_soak_from_a_dict_loads_neither_yaml_nor_openssl():
    loaded = loaded_after(
        "import json, sys\n"
        "from metadr import simnet\n"
        "report = simnet.soak(simnet.load_soak_config({'total_ingest_blocks': 13125}))\n"
        "assert len(report.events) == 17\n"
        f"print({LOADED})\n"
    )
    assert loaded == {"yaml": False, "_hashlib": False}


@pytest.mark.parametrize("framework, hashes", [("meta", False), ("hash", True)])
def test_only_a_hash_scenario_loads_openssl(framework, hashes):
    # the hash twin is the control: the same failover does load it
    loaded = loaded_after(
        "import json, sys\n"
        "from metadr import simnet\n"
        "scenario = simnet.load_scenario(json.loads(sys.argv[1]))\n"
        "metrics = simnet.run_scenario(scenario)\n"
        "assert metrics.events[0].label.startswith('failover 0->2'), metrics.events\n"
        f"print({LOADED})\n",
        json.dumps({**FAILOVER, "framework": framework}),
    )
    assert loaded == {"yaml": False, "_hashlib": hashes}


def test_cli_soak_from_a_yaml_file_does_not_load_openssl(tmp_path):
    (tmp_path / "soak.yaml").write_text("total_ingest_blocks: 13125\n")
    loaded = loaded_after(
        "import json, sys\n"
        "from metadr.cli import main\n"
        "assert main(['soak', '--config', 'soak.yaml', '--format', 'csv']) == 0\n"
        f"print({LOADED})\n",
        cwd=tmp_path,
    )
    assert loaded == {"yaml": True, "_hashlib": False}


def reference_levels(leaves: list[bytes]) -> list[list[bytes]]:
    """The Merkle levels `merkle_build` must give, from hashlib directly."""
    levels = [leaves]
    while len(levels[-1]) > 1:
        lower = levels[-1]
        upper = [hashlib.sha256(a + b).digest() for a, b in zip(lower[::2], lower[1::2])]
        levels.append(upper + lower[len(lower) // 2 * 2:])
    return levels


# the process's first hash, made three ways; each script sees its
# inputs and the hashlib reference as hex in argv
FIRST_HASH = {
    "merkle_build": "assert merkle_build(leaves).root == ref_root\n",
    # a one-leaf tree hashes nothing, so the diff's padded rebuild of
    # both trees to five leaves is the first hash
    "merkle_diff": (
        "diff = merkle_diff(merkle_build(leaves[:1]), MerkleTree(ref_levels))\n"
        "assert diff.positions == [1, 2, 3, 4], diff\n"
        "same = merkle_diff(MerkleTree(ref_levels), merkle_build(leaves))\n"
        "assert (same.positions, same.node_visits) == ([], 1), same\n"
    ),
    "payload_digest": "assert payload_digest(b'abc', 3) == ref_abc\n",
}


@pytest.mark.parametrize("first", FIRST_HASH)
def test_the_first_hash_of_a_process_binds_sha256_whichever_makes_it(first):
    leaves = [hashlib.sha256(bytes([i])).digest() for i in range(5)]
    levels = reference_levels(leaves)
    loaded = loaded_after(
        "import json, sys\n"
        "from metadr.hashline import MerkleTree, merkle_build, merkle_diff, payload_digest\n"
        "args = json.loads(sys.argv[1])\n"
        "leaves = [bytes.fromhex(h) for h in args['leaves']]\n"
        "ref_levels = [[bytes.fromhex(h) for h in level] for level in args['levels']]\n"
        "ref_root = ref_levels[-1][0]\n"
        "ref_abc = bytes.fromhex(args['abc'])\n"
        "before = '_hashlib' in sys.modules\n"
        + FIRST_HASH[first]
        + "assert payload_digest(b'abc', 3) == ref_abc\n"
        "assert merkle_build(leaves).root == ref_root\n"
        "after = '_hashlib' in sys.modules\n"
        "import hashlib\n"
        "from metadr import hashline\n"  # later hashes look up hashlib's own constructor
        "bound = hashline._sha256 is hashlib.sha256\n"
        "print(json.dumps({'before': before, 'after': after, 'bound': bound}))\n",
        json.dumps({
            "leaves": [leaf.hex() for leaf in leaves],
            "levels": [[node.hex() for node in level] for level in levels],
            "abc": hashlib.sha256(b"abc").hexdigest(),
        }),
    )
    assert loaded == {"before": False, "after": True, "bound": True}
