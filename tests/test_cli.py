import csv
import io
import os

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


def test_sensitivity_bad_sweep_exits_2(capsys):
    code, _, err = run_cli(capsys, "sensitivity", "--sweep", "Q=1,2")
    assert code == 2


# -- simulate -----------------------------------------------------------------------


def test_simulate_bundled_partition_converge(capsys):
    code, out, _ = run_cli(capsys, "simulate", "partition-converge", "--format", "csv")
    assert code == 0
    assert "rounds=1" in out


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
])
def test_simulate_bad_scenario_exits_2_with_one_error_line(tmp_path, capsys, text):
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    code, _, err = run_cli(capsys, "simulate", str(path))
    assert code == 2
    (line,) = err.splitlines()
    assert line.startswith("error: ")


def test_soak_bad_config_exits_2(tmp_path, capsys):
    path = tmp_path / "soak.yaml"
    path.write_text("nodes: 3\nreplica_factor: 3\n")
    code, _, err = run_cli(capsys, "soak", "--config", str(path))
    assert code == 2
    assert err.startswith("error: ")
    code, _, err = run_cli(capsys, "soak", "--config", str(tmp_path / "missing.yaml"))
    assert code == 2
    assert err.startswith("error: ")


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
