import csv
import io
import os
import subprocess
import sys
import zipfile
from pathlib import Path

import pytest

from metadr import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(out):
    rows = [r for r in csv.reader(io.StringIO(out)) if r]
    return rows[0], rows[1:]


# -- rto ------------------------------------------------------------------------


def test_rto_reference_example(capsys):
    code, out, _ = run_cli(
        capsys, "rto", "--D", "1.1e14", "--delta", "1e12", "--N", "1e9",
        "--format", "csv",
    )
    assert code == 0
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert float(row["t_hash_s"]) == 13750.0
    assert float(row["t_index_s"]) == 25.6
    assert float(row["t_delta_s"]) == 800.0
    assert float(row["rto_hash_s"]) == 14575.6
    assert float(row["rto_meta_s"]) == 825.6
    assert float(row["factor"]) == pytest.approx(17.65)


def test_rto_missing_required_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["rto", "--D", "1e12"])
    assert exc.value.code == 2


def test_rto_domain_error_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "rto", "--D", "1e6", "--delta", "2e6", "--N", "10"
    )
    assert code == 2
    assert "error" in err
    # a NaN or an infinity is outside the model's domain
    for argv in (("rto", "--D", "nan", "--delta", "1e12", "--N", "1e9"),
                 (*RTO_EXAMPLE, "--H", "inf")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and not out
        (line,) = err.splitlines()
        assert line.startswith("error: ") and "finite" in line


def test_rto_csv_has_header_first():
    buf = io.StringIO()
    import contextlib

    with contextlib.redirect_stdout(buf):
        cli.main(["rto", "--D", "1.1e14", "--delta", "1e12", "--N", "1e9",
                  "--format", "csv"])
    first_line = buf.getvalue().splitlines()[0]
    assert first_line.startswith("t_hash_s,")


# -- table2 / tco / sensitivity ----------------------------------------------------


def test_table2_rows_and_annotation(capsys):
    code, out, _ = run_cli(capsys, "table2", "--format", "csv")
    assert code == 0
    header, rows = parse_csv(out)
    assert [r[0] for r in rows] == ["10 TB", "100 TB", "500 TB", "1 PB"]
    ten_tb = dict(zip(header, rows[0]))
    assert "0.23 min" in ten_tb["annotation"]


def test_tco_defaults(capsys):
    code, out, _ = run_cli(capsys, "tco", "--format", "csv")
    assert code == 0
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert float(row["core_hours_hash_per_event"]) == pytest.approx(161.7, abs=0.05)
    assert float(row["core_hours_meta_per_event"]) == pytest.approx(0.3, abs=0.05)
    assert float(row["annual_compute_saving_usd"]) == pytest.approx(6864, rel=0.02)
    assert float(row["annual_storage_saving_usd"]) == pytest.approx(55200, rel=0.01)


def test_sensitivity_sweep_monotone(capsys):
    code, out, _ = run_cli(
        capsys, "sensitivity", "--sweep", "C=16,32,64,128", "--format", "csv"
    )
    assert code == 0
    _, rows = parse_csv(out)
    factors = [float(r[-1]) for r in rows]
    assert factors == sorted(factors, reverse=True)


@pytest.mark.parametrize("flags", [
    ("--meta-core-fraction", "-1"),
    ("--meta-core-fraction", "1.5"),
    ("--rto-hash", "-5"),
    ("--rto-meta", "-1"),
    ("--price-core-hour", "-1"),
    ("--capacity", "-1"),
    ("--price-gb-month", "-0.5"),
    ("--rto-hash", "nan"),
])
def test_tco_out_of_domain_input_exits_2_with_one_error_line(capsys, flags):
    code, out, err = run_cli(capsys, "tco", *flags)
    assert code == 2 and not out
    (line,) = err.splitlines()
    assert line.startswith("error: ")


def test_sensitivity_bad_sweep_exits_2(capsys):
    code, _, err = run_cli(capsys, "sensitivity", "--sweep", "Q=1,2")
    assert code == 2
    code, out, err = run_cli(capsys, "sensitivity", "--sweep", "B=nan")
    assert code == 2 and not out
    (line,) = err.splitlines()
    assert line.startswith("error: ") and "finite" in line


# -- whole-number inputs ------------------------------------------------------------

RTO_EXAMPLE = ("rto", "--D", "1.1e14", "--delta", "1e12", "--N", "1e9")


@pytest.mark.parametrize("argv", [
    (*RTO_EXAMPLE, "--C", "16.9"),
    (*RTO_EXAMPLE, "--S", "32.5"),
    ("tco", "--events", "17.5"),
    ("tco", "--cores", "40.5"),
    ("rto", "--D", "1.1e14", "--delta", "1e12", "--N", "1000000000.5"),
    ("sensitivity", "--sweep", "C=16,16.5,17"),
    ("sensitivity", "--sweep", "N=1e9,1.5"),
])
def test_fractional_count_flag_exits_2_with_one_error_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and not out
    (line,) = err.splitlines()
    assert line.startswith("error: ") and "whole number" in line


def test_non_numeric_seed_variable_exits_2_with_one_error_line(capsys, monkeypatch):
    monkeypatch.setenv("METADR_SEED", "abc")
    code, out, err = run_cli(capsys, "verify", "--suite", "baseline")
    assert code == 2 and not out
    (line,) = err.splitlines()
    assert line == "error: METADR_SEED must be a whole number, got 'abc'"
    # --seed takes the same rule, and wins over the variable
    for verb in (("verify", "--suite", "baseline"), ("simulate", "partition-converge"),
                 ("soak",)):
        for seed in ("abc", "7.5"):
            code, out, err = run_cli(capsys, *verb, "--seed", seed)
            assert code == 2 and not out
            (line,) = err.splitlines()
            assert line == f"error: --seed must be a whole number, got {seed!r}"


def test_integral_floats_count_as_whole_numbers(capsys, monkeypatch):
    assert run_cli(capsys, *RTO_EXAMPLE, "--C", "1.6e1", "--S", "32.0") == run_cli(
        capsys, *RTO_EXAMPLE
    )
    assert run_cli(capsys, "tco", "--events", "1.7e1", "--cores", "40.0") == run_cli(
        capsys, "tco"
    )
    assert run_cli(capsys, "sensitivity", "--sweep", "C=1.6e1,32.0") == run_cli(
        capsys, "sensitivity", "--sweep", "C=16,32"
    )
    expected = run_cli(capsys, "verify", "--suite", "baseline", "--seed", "7")
    assert run_cli(capsys, "verify", "--suite", "baseline", "--seed", "7.0") == expected
    monkeypatch.setenv("METADR_SEED", "7.0")
    assert run_cli(capsys, "verify", "--suite", "baseline") == expected
    simulate = ("simulate", "partition-converge", "--format", "csv")
    assert run_cli(capsys, *simulate, "--seed", "7.0") == run_cli(capsys, *simulate, "--seed", "7")


# -- simulate -----------------------------------------------------------------------


def test_simulate_bundled_partition_converge(capsys):
    code, out, _ = run_cli(capsys, "simulate", "partition-converge", "--format", "csv")
    assert code == 0
    assert "rounds=1" in out


def test_bundled_scenarios_load_from_a_zipped_install(capsys, tmp_path):
    # a zipped install has no file path to its package data: the scenario
    # text is read as a resource
    archive = tmp_path / "metadr.zip"
    package = Path(cli.__file__).parent
    with zipfile.ZipFile(archive, "w") as zf:
        for path in package.rglob("*"):
            if path.suffix in (".py", ".yaml"):
                zf.write(path, path.relative_to(package.parent).as_posix())
    env = {**os.environ, "PYTHONPATH": str(archive)}
    zipped = subprocess.run(
        [sys.executable, "-m", "metadr.cli", "simulate", "partition-converge", "--format", "csv"],
        cwd=tmp_path, env=env, capture_output=True, check=False,
    )
    assert zipped.returncode == 0, zipped.stderr.decode()
    _, out, _ = run_cli(capsys, "simulate", "partition-converge", "--format", "csv")
    assert zipped.stdout.decode() == out


def test_simulate_bundled_condition3(capsys):
    code, out, _ = run_cli(capsys, "simulate", "condition3-failover", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    hash_rows = [l for l in lines if ",hash," in l]
    meta_rows = [l for l in lines if ",meta," in l]
    assert hash_rows and meta_rows
    # t_hash is the 4th column; hash framework pays, meta does not
    assert float(hash_rows[0].split(",")[3]) > 0
    assert float(meta_rows[0].split(",")[3]) == 0


def test_simulate_unknown_scenario_exits_2(capsys):
    code, _, err = run_cli(capsys, "simulate", "no-such-scenario")
    assert code == 2


@pytest.mark.parametrize("text", [
    # failover of a node that is up
    "cluster: {nodes: 3, replica_factor: 2}\n"
    "faults:\n  - {kind: failover, at_hours: 1.0, failed: 0, substitute: 2}\n",
    # a string node ordinal beside a misspelled section
    "inventroy: {blocks_per_node: 10}\n"
    "faults:\n  - {kind: crash, at_hours: 1.0, node: \"1\"}\n",
    # the failed node's only other replica is partitioned from the substitute
    "faults:\n"
    "  - {kind: partition, at_hours: 0.5, until_hours: 5.0, side_a: [1], side_b: [2]}\n"
    "  - {kind: crash, at_hours: 1.0, node: 0}\n"
    "  - {kind: failover, at_hours: 2.0, failed: 0, substitute: 2}\n"
    "cluster: {nodes: 3, replica_factor: 2}\n",
    # a zone line that turns the runtime's endpoint name into an alias
    "discovery: {zone: [\"CNAME host-0 elsewhere\"]}\n",
    # a converge across an open partition
    "cluster: {nodes: 3}\n"
    "faults:\n"
    "  - {kind: partition, at_hours: 0.5, until_hours: 5.0, side_a: [0], side_b: [1, 2]}\n"
    "  - {kind: converge, at_hours: 1.0, a: 0, b: 1}\n",
    # a cost knob the model does not have
    "cost: {link_latency_seconds: 0.5}\n",
    # a crash that writes a whole WAL record, not a torn tail
    "faults:\n  - {kind: crash, at_hours: 1.0, node: 0, torn_bytes: 100}\n",
    # a crash that writes nothing
    "faults:\n  - {kind: crash, at_hours: 1.0, node: 0, torn_bytes: -5}\n",
    # a crash fault kind that does not exist
    "faults:\n  - {kind: crash, at_hours: 1.0, node: 0, fault_kind: bogus}\n",
    # a negative write rate
    "workload: {blocks_per_hour_per_node: -5}\n",
    # workload fractions outside [0, 1], or NaN
    *(f"fidelity: virtual\ncluster: {{nodes: 3}}\nworkload: {{{field}}}\n" for field in (
        "duplicate_ratio: 1.5", "duplicate_ratio: -1", "keyed_fraction: .nan",
        "keyed_fraction: -0.5", "sequential_fraction: 7",
    )),
    # a hash DR cycle with one field its fault's kind does not read
    *("framework: hash\ncluster: {nodes: 3, replica_factor: 2}\nfaults:\n" + "".join(
        f"  - {{{fault}{', ' + extra if i == bad else ''}}}\n"
        for i, fault in enumerate([
            "kind: crash, at_hours: 1.0, node: 0",
            "kind: failover, at_hours: 2.0, failed: 0, substitute: 2",
            "kind: restart, at_hours: 3.0, node: 0",
            "kind: failback, at_hours: 4.0, node: 0",
        ]))
      for bad, extra in enumerate([
          "substitute: 2", "fault_kind: index_loss", "torn_bytes: 5",
          "fault_kind: pipeline_crash, until_hours: 9.0",
      ])),
])
def test_simulate_bad_scenario_exits_2_with_one_error_line(tmp_path, capsys, text):
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    code, _, err = run_cli(capsys, "simulate", str(path))
    assert code == 2
    (line,) = err.splitlines()
    assert line.startswith("error: ")


def test_simulate_failover_after_partition_heals_runs(tmp_path, capsys):
    path = tmp_path / "healed.yaml"
    path.write_text(
        "cluster: {nodes: 3, replica_factor: 2}\n"
        "faults:\n"
        "  - {kind: partition, at_hours: 0.5, until_hours: 2.0, side_a: [1], side_b: [2]}\n"
        "  - {kind: crash, at_hours: 1.0, node: 0}\n"
        "  - {kind: failover, at_hours: 2.0, failed: 0, substitute: 2}\n"
    )
    code, out, _ = run_cli(capsys, "simulate", str(path), "--format", "csv")
    assert code == 0
    assert "failover 0->2" in out


def test_simulate_zone_may_pin_a_service_name(tmp_path, capsys):
    # service-1 is pinned, so the runtime binds no alias for it; a
    # failover onto node 1 still rebinds service-0 to host-1
    path = tmp_path / "pinned.yaml"
    path.write_text(
        "cluster: {nodes: 3, replica_factor: 3}\n"
        "discovery: {zone: [\"ENDPT service-1 10.9.9.9:7000\"]}\n"
        "faults:\n"
        "  - {kind: crash, at_hours: 1.0, node: 0}\n"
        "  - {kind: failover, at_hours: 2.0, failed: 0, substitute: 1}\n"
    )
    code, out, _ = run_cli(capsys, "simulate", str(path), "--format", "csv")
    assert code == 0
    assert "via 10.0.0.11:7000" in out


_DUPLICATE_CONTENT = (
    "fidelity: concrete\nhorizon_hours: 2.0\n"
    "cluster: {nodes: 3, replica_factor: 2}\n"
    "inventory: {blocks_per_node: 40, block_bytes_min: 64, block_bytes_max: 512}\n"
    "workload: {duplicate_ratio: 0.2}\n"
    "faults:\n"
    "  - {kind: crash, at_hours: 1.0, node: 0}\n"
    "  - {kind: failover, at_hours: 1.5, failed: 0, substitute: 2}\n"
)


@pytest.mark.parametrize("text", [
    # survivor ids whose content the substitute holds under other ids
    "framework: hash\n" + _DUPLICATE_CONTENT,
    "framework: both\n" + _DUPLICATE_CONTENT,
    # a lost hash index on a node that holds no blocks
    "framework: hash\nhorizon_hours: 2.0\n"
    "cluster: {nodes: 3, replica_factor: 3}\n"
    "faults:\n"
    "  - {kind: index_loss, at_hours: 0.5, node: 1}\n"
    "  - {kind: crash, at_hours: 1.0, node: 0}\n"
    "  - {kind: failover, at_hours: 1.5, failed: 0, substitute: 2}\n",
])
def test_simulate_hash_failover_runs(tmp_path, capsys, text):
    path = tmp_path / "hash.yaml"
    path.write_text(text)
    code, out, err = run_cli(capsys, "simulate", str(path), "--format", "csv")
    assert (code, err) == (0, "")
    assert "failover 0->2" in out and ",hash," in out


def test_simulate_counts_the_hash_twins_violations(tmp_path, capsys, monkeypatch):
    # only the hash twin's nodes report a finding; `both` must still exit 3
    from metadr.node import StorageNode

    scrub = StorageNode.scrub

    def scrub_finding_on_baseline(self, budget_blocks):
        report = scrub(self, budget_blocks)
        if self.baseline is not None:
            report.findings.append((next(iter(self.block_store)), 0, 1))
        return report

    monkeypatch.setattr(StorageNode, "scrub", scrub_finding_on_baseline)
    path = tmp_path / "both.yaml"
    path.write_text("framework: both\ncluster: {nodes: 2}\ninventory: {blocks_per_node: 5}\n")
    code, _, err = run_cli(capsys, "simulate", str(path), "--format", "csv")
    assert code == 3
    assert "corruption=2" in err


def test_soak_bad_config_exits_2(tmp_path, capsys):
    path = tmp_path / "soak.yaml"
    path.write_text("nodes: 3\nreplica_factor: 3\n")
    code, _, err = run_cli(capsys, "soak", "--config", str(path))
    assert code == 2
    assert err.startswith("error: ")
    code, _, err = run_cli(capsys, "soak", "--config", str(tmp_path / "missing.yaml"))
    assert code == 2
    assert err.startswith("error: ")
    for text, message in (
        ("volumetrics: {data_bytes: -1.0e+14}", "data_bytes must be strictly positive"),
        ("volumetrics: {data_bytes: 1.0e+9, delta_bytes: 5.0e+12}",
         "delta_bytes cannot exceed data_bytes"),
        ("crash_rehash_extra: [-2.0, -1.5]", "crash_rehash_extra"),
        ("keyed_fraction: 2", "keyed_fraction must be within [0, 1]"),
    ):
        path.write_text(f"{text}\n")
        code, out, err = run_cli(capsys, "soak", "--config", str(path))
        assert code == 2 and not out
        (line,) = err.splitlines()
        assert line.startswith("error: ") and message in line


def test_soak_config_without_a_planned_event_exits_2_with_one_error_line(tmp_path, capsys):
    path = tmp_path / "soak.yaml"
    path.write_text("planned_every_hours: 500.0\n")  # past the 7-day horizon
    code, out, err = run_cli(capsys, "soak", "--config", str(path))
    assert code == 2 and not out
    (line,) = err.splitlines()
    assert line.startswith("error: ") and "planned event" in line


def test_simulate_repeated_seed_writes_identical_files(tmp_path, capsys):
    for d in ("a", "b"):
        code, _, _ = run_cli(
            capsys, "simulate", "partition-converge", "--seed", "123",
            "--format", "csv", "--out", str(tmp_path / d),
        )
        assert code == 0
    for name in os.listdir(tmp_path / "a"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# -- verify --------------------------------------------------------------------------


def test_verify_baseline_suite_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "baseline")
    assert code == 0
    assert "PASS baseline.sha256_standard_vectors" in out
    assert "PASS baseline.crc32c_many_matches_bitwise_reference" in out
    assert "FAIL" not in out


def test_verify_failure_path_exits_1(capsys, monkeypatch):
    from metadr import verify as verify_mod

    def broken_suite(seed=0):
        return [("intentionally_broken", False, "injected bug build")]

    monkeypatch.setitem(verify_mod.SUITES, "baseline", broken_suite)
    code, out, _ = run_cli(capsys, "verify", "--suite", "baseline")
    assert code == 1
    assert "FAIL" in out


# -- output formats --------------------------------------------------------------------


def test_markdown_format(capsys):
    code, out, _ = run_cli(capsys, "table2", "--format", "md")
    assert code == 0
    assert out.startswith("### ")
    assert "| --- |" in out


def test_text_format_is_aligned(capsys):
    code, out, _ = run_cli(capsys, "tco")
    assert code == 0
    lines = out.splitlines()
    assert lines[1].startswith("---")
