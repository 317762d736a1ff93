"""Acceptance gate: one test per shipped criterion, each at its stated
tolerance, printing one PASS line when it holds.

Criteria 3, 4, and 9 share a single full-scale soak run (module
fixture). The soak reproduces published behavior with deterministic
virtual-time accounting at the model parameters; correctness claims run
live at desk scale.
"""

import csv
import io
from random import Random

import pytest

from metadr import cli, hashline, identity
from metadr.costs import PAPER_VOLUMETRICS, CostMeter, CostModel
from metadr.crc32c import crc32c
from metadr.evalmodel import TcoParams, table2, tco
from metadr.index import IdentifierIndex, IndexEntry, set_difference
from metadr.node import StorageNode
from metadr.simnet import SoakConfig, soak
from metadr.sync import (
    Cluster,
    ensure_baseline_consistent,
    execute_failover,
    sync_pair_meta,
)
from metadr.verify import (
    _chaos_uniqueness,
    _crc32_bitwise,
    _framework_equivalence_case,
    _merkle_diff_case,
    _truncation_enumeration,
    _two_node_partition_case,
)


def ok(n, message):
    print(f"ACCEPTANCE {n} PASS: {message}")


@pytest.fixture(scope="module")
def paper_soak():
    return soak(SoakConfig())


# -- criterion 1: reference RTO decomposition, exact arithmetic -----------------


def test_criterion_1_rto_reproduction(capsys):
    code = cli.main([
        "rto", "--D", "1.1e14", "--delta", "1e12", "--H", "5e8", "--C", "16",
        "--B", "1.25e9", "--S", "32", "--N", "1e9", "--format", "csv",
    ])
    out = capsys.readouterr().out
    assert code == 0
    rows = [r for r in csv.reader(io.StringIO(out)) if r]
    row = dict(zip(rows[0], rows[1]))
    assert float(row["t_hash_s"]) == pytest.approx(13_750.0, abs=0.5)
    assert float(row["t_index_s"]) == pytest.approx(25.6, abs=0.5)
    assert float(row["t_delta_s"]) == pytest.approx(800.0, abs=0.5)
    assert float(row["rto_hash_s"]) == pytest.approx(14_575.6, abs=0.5)
    assert float(row["rto_meta_s"]) == pytest.approx(825.6, abs=0.5)
    assert float(row["factor"]) == pytest.approx(17.65, abs=0.1)
    with capsys.disabled():
        ok(1, "rto CLI reproduces 13,750 / 25.6 / 800 / 14,575.6 / 825.6 / 17.65")


# -- criterion 2: capacity-scaling table with annotations ------------------------


def test_criterion_2_table2_reproduction(capsys):
    rows = {r.label: r for r in table2(CostModel(), PAPER_VOLUMETRICS)}

    anchor = rows["100 TB"]
    assert anchor.direct.t_hash == 13_750.0
    assert anchor.direct.rto_hash == 14_575.6
    assert anchor.direct.rto_meta == 825.6

    for label in ("500 TB", "1 PB"):
        row = rows[label]
        assert row.conv_hash_s / 3600.0 == pytest.approx(row.published_hash, rel=0.05)
        assert row.conv_meta_s / 60.0 == pytest.approx(row.published_meta_min, rel=0.05)
        assert row.conv_factor == pytest.approx(row.published_factor, rel=0.05)
        assert row.annotation  # direct-formula divergence stays visible

    ten = rows["10 TB"]
    assert ten.conv_factor == pytest.approx(1.8, abs=0.1)
    assert "0.23 min" in ten.annotation and "inconsistent" in ten.annotation
    with capsys.disabled():
        ok(2, "scaling table matches published convention within 5%, bad cell annotated")


# -- criteria 3 + 4 + 9: the paper-soak run ---------------------------------------


def test_criterion_3_soak_event_statistics(paper_soak, capsys):
    s = paper_soak.summary
    assert len(paper_soak.events) == 17
    kinds = [r.kind for r in paper_soak.events]
    assert kinds.count("Planned") == 14 and kinds.count("Crash") == 3
    assert s.mean_meta_s == pytest.approx(826.0, rel=0.03)
    assert s.mean_hash_s == pytest.approx(14_549.0, rel=0.03)
    for row in paper_soak.events:
        assert 17.4 <= row.factor <= 17.9
    for excess in s.crash_excess_seconds:
        assert 15.0 <= excess <= 21.0
    assert s.cv_meta <= 0.02
    with capsys.disabled():
        ok(3, f"17 events, mean meta {s.mean_meta_s:.1f} s, mean hash "
              f"{s.mean_hash_s:.1f} s, factors [{s.factor_min:.2f}, {s.factor_max:.2f}], "
              f"crash excess {[round(e, 1) for e in s.crash_excess_seconds]}, "
              f"cv {100 * s.cv_meta:.2f}%")


def test_criterion_4_drift_and_correctness_counters(paper_soak, capsys):
    s = paper_soak.summary
    assert s.ingests >= 1_000_000
    assert s.violations.lcv_reuse == 0
    assert s.violations.immutability == 0
    assert s.physical_index_bytes == 32 * s.total_entries * (1 + 0.011)
    with capsys.disabled():
        ok(4, f"{s.ingests} ingests, zero violations, physical index exactly "
              f"32 x {s.total_entries} x 1.011")


def test_criterion_9_resource_and_network_parity(paper_soak, capsys):
    reports = paper_soak.dr_reports
    assert len(reports) == 34  # meta + hash per event
    for meta_r, hash_r in zip(reports[::2], reports[1::2]):
        assert meta_r.network_bytes == hash_r.network_bytes  # to the byte
    rehash_row = next(r for r in paper_soak.resources if "rehash" in r.resource)
    rehash_pct = float(rehash_row.hash_value.split("%")[0])
    assert rehash_pct == pytest.approx(94.7, abs=1.0)
    sync_row = next(r for r in paper_soak.resources if "index + delta" in r.resource)
    meta_pct = float(sync_row.meta_value.rstrip("%"))
    assert meta_pct == pytest.approx(3.2, abs=0.5)
    with capsys.disabled():
        ok(9, f"network parity on all 17 shadow events; rehash CPU {rehash_pct}%, "
              f"meta DR CPU {meta_pct}%")


# -- criterion 5: identifier uniqueness under chaos --------------------------------


def test_criterion_5_uniqueness_property_suite(capsys):
    total_exposed = 0
    for seed in range(100):
        ok5, detail, exposed = _chaos_uniqueness(
            Random(f"accept5:{seed}"), nodes=8, target_exposed=1_050, byte_len=256
        )
        assert ok5, f"{detail} at seed {seed}"
        total_exposed += exposed
    assert total_exposed >= 100_000

    ok5, truncation = _truncation_enumeration(identity.NodeId(b"\x05" * 16))
    assert ok5, truncation
    with capsys.disabled():
        ok(5, f"{total_exposed} ids across 100 chaos scenarios, zero duplicates; {truncation}")


# -- criterion 6: partition convergence -----------------------------------------------


def test_criterion_6_convergence_property_suite(capsys):
    for seed in range(100):
        ok6, detail = _two_node_partition_case(
            Random(f"accept6:{seed}"), max_blocks=120, byte_len=128
        )
        assert ok6, f"{detail} at seed {seed}"
    with capsys.disabled():
        ok(6, "100 partition scenarios: union in exactly 1 round, idempotent repeat")


# -- criterion 7: oracle equivalences --------------------------------------------------


def test_criterion_7_oracle_equivalences(capsys):
    n1 = identity.NodeId(b"\x01" * 16)
    n2 = identity.NodeId(b"\x02" * 16)

    # set_difference vs brute force, entries_above vs linear filter
    for seed in range(40):
        rng = Random(f"accept7:{seed}")
        pairs_a = {(rng.choice([n1, n2]), rng.randrange(1, 20_000))
                   for _ in range(rng.randrange(0, 10_000))}
        pairs_b = {(rng.choice([n1, n2]), rng.randrange(1, 20_000))
                   for _ in range(rng.randrange(0, 10_000))}

        def build(pairs):  # one sorted run: each insert appends
            idx = IdentifierIndex()
            idx.insert([IndexEntry(identity.CompositeId(nid, lcv), 64, 0)
                        for nid, lcv in sorted(pairs)])
            return idx

        a, b = build(pairs_a), build(pairs_b)
        missing_b, missing_a = set_difference(a, b)
        assert {(c.nid, c.lcv) for c in missing_b} == pairs_a - pairs_b
        assert {(c.nid, c.lcv) for c in missing_a} == pairs_b - pairs_a
        watermark = rng.randrange(0, 20_000)
        got = [(e.id.nid, e.id.lcv) for e in a.entries_above(n1, watermark)]
        expected = sorted(((nid, lcv) for nid, lcv in pairs_a
                           if nid == n1 and lcv > watermark), key=lambda p: p[1])
        assert got == expected

    # merkle_diff vs exhaustive leaf comparison
    ok7, detail = _merkle_diff_case(Random("accept7:merkle"), trees=60, max_leaves=200)
    assert ok7, detail

    # framework equivalence on concrete stores
    for seed in range(12):
        ok7, detail = _framework_equivalence_case(Random(f"accept7:fw:{seed}"), max_blocks=400)
        assert ok7, f"{detail} at seed {seed}"
    with capsys.disabled():
        ok(7, "diff/range/merkle oracles agree; frameworks transfer identical "
              "block sets with byte-identical post-sync stores")


# -- criterion 8: condition instrumentation ---------------------------------------------


def test_criterion_8_condition_instrumentation(paper_soak, capsys, sha256_calls):
    # condition 3: rehash bytes equal the full inventory, hash ops equal
    # the SHA-256 calls the rebuild makes: one per leaf and one per
    # internal node
    rng = Random("accept8")
    node = StorageNode(identity.new_node_id(rng), baseline=True)
    inventory_bytes = 0
    for i in range(1_024):
        size = rng.randrange(64, 256)
        node.ingest([(size, i)])
        inventory_bytes += size
    ensure_baseline_consistent(node)
    node.baseline.mark_lost()
    assert node.baseline.owed_bytes(node.physical_bytes) == inventory_bytes == node.physical_bytes
    meter = CostMeter(CostModel())
    sha256_calls.clear()
    ensure_baseline_consistent(node, meter)
    assert meter.hashed_bytes == inventory_bytes
    assert meter.hash_ops == len(sha256_calls) == 1_024 + 1_023
    assert meter.content_reads == 1_024

    # meta counters are zero on every DR critical path (soak + concrete)
    for report in paper_soak.dr_reports:
        if report.framework == "meta":
            assert report.hash_ops == 0 and report.content_reads == 0
    cluster_rng = Random("accept8:cluster")
    nodes = [StorageNode(identity.new_node_id(cluster_rng)) for _ in range(3)]
    cluster = Cluster(nodes)
    for i in range(50):
        nodes[0].ingest([(64, i)])
    sync_pair_meta(cluster, nodes[0], nodes[1],
                   scope_nids=cluster.scope(nodes[1].nid, cluster.hosted[nodes[0].nid]))
    nodes[0].crash()
    live = execute_failover(cluster, nodes[0].nid, nodes[2].nid)
    assert live.hash_ops == 0 and live.content_reads == 0

    # doubling N at fixed delta at most doubles meta comparisons
    def comparisons_at(n_blocks):
        rng_n = Random(f"accept8:scale:{n_blocks}")
        nid = identity.NodeId(b"\x07" * 16)
        a = IdentifierIndex()
        b = IdentifierIndex()
        for lcv in range(1, n_blocks + 1):
            entry = IndexEntry(identity.CompositeId(nid, lcv), 64, 0)
            a.insert([entry])
            if lcv <= n_blocks - 16:  # fixed delta of 16
                b.insert([entry])
        meter_n = CostMeter(CostModel())
        set_difference(a, b, meter_n)
        return meter_n.comparisons

    base = comparisons_at(2_000)
    doubled = comparisons_at(4_000)
    assert doubled <= 2 * base
    with capsys.disabled():
        ok(8, f"condition-3 rehash = full inventory ({inventory_bytes} bytes), "
              f"hash ops = SHA-256 calls (leaves + internal nodes); meta counters 0; "
              f"comparisons {base} -> {doubled} under N doubling")


# -- criterion 10: TCO ---------------------------------------------------------------------


def test_criterion_10_tco_reproduction(capsys):
    report = tco(TcoParams())
    assert report.core_hours_hash_per_event == pytest.approx(161.7, abs=0.05)
    assert report.core_hours_meta_per_event == pytest.approx(0.3, abs=0.05)
    assert report.annual_compute_saving_usd == pytest.approx(6_864.0, rel=0.02)
    assert report.annual_storage_saving_usd == pytest.approx(55_200.0, rel=0.01)
    with capsys.disabled():
        ok(10, f"161.7 / 0.3 core-hours per event, "
               f"${report.annual_compute_saving_usd:,.0f} compute, "
               f"${report.annual_storage_saving_usd:,.0f} storage")


# -- criterion 11: bit-exact primitives -------------------------------------------------------


def test_criterion_11_primitives(capsys):
    from test_hashline import sha256_reference

    assert hashline.payload_digest(b"").hex() == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    )
    assert hashline.payload_digest(b"abc").hex() == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )
    assert sha256_reference(b"") == hashline.payload_digest(b"")
    assert sha256_reference(b"abc") == hashline.payload_digest(b"abc")
    assert crc32c(b"123456789") == 0xCBF43926 == _crc32_bitwise(b"123456789")
    with capsys.disabled():
        ok(11, "SHA-256 vectors and the CRC-32 check value hold against "
               "independent reference implementations")
