import math
from dataclasses import replace

import pytest

from metadr.costs import PAPER_VOLUMETRICS, CostModel, Volumetrics
from metadr.evalmodel import (
    DomainError,
    TcoParams,
    rto_breakdown,
    sensitivity,
    table2,
    tco,
)


# -- rto_breakdown --------------------------------------------------------------


def test_reference_example_exact_arithmetic():
    bd = rto_breakdown(CostModel(), PAPER_VOLUMETRICS)
    assert bd.t_hash == 13_750.0
    assert bd.t_index == 25.6
    assert bd.t_delta == 800.0
    assert bd.rto_hash == 14_575.6
    assert bd.rto_meta == 825.6
    assert bd.improvement_factor == pytest.approx(17.65, abs=0.01)


def test_zero_delta_zero_blocks_gives_infinite_factor():
    bd = rto_breakdown(CostModel(), Volumetrics(data_bytes=1e12, blocks=0, delta_bytes=0.0))
    assert bd.rto_meta == 0.0
    assert bd.improvement_factor == math.inf


def test_high_core_count_shrinks_the_gap():
    bd = rto_breakdown(CostModel(cores=128), PAPER_VOLUMETRICS)
    assert bd.t_hash == pytest.approx(1_718.75)
    # direct formula gives ~3.08; the published ~2.7 figure follows a
    # different rounding path and is annotated, not asserted
    assert bd.improvement_factor == pytest.approx(3.08, abs=0.01)


def test_domain_errors():
    with pytest.raises(ValueError, match="data_bytes must be strictly positive"):
        Volumetrics(data_bytes=0, blocks=0, delta_bytes=0)
    with pytest.raises(ValueError, match="delta_bytes cannot exceed data_bytes"):
        Volumetrics(data_bytes=1e6, blocks=0, delta_bytes=2e6)
    with pytest.raises(ValueError, match="cores must be strictly positive"):
        CostModel(cores=0)


def test_meta_rto_independent_of_data_volume():
    small = rto_breakdown(CostModel(), replace(PAPER_VOLUMETRICS, data_bytes=1e13))
    large = rto_breakdown(CostModel(), replace(PAPER_VOLUMETRICS, data_bytes=1e15))
    assert small.rto_meta == large.rto_meta


def test_scaling_data_by_k_grows_hash_rto_sublinearly():
    base = rto_breakdown(CostModel(), PAPER_VOLUMETRICS)
    k = 8
    scaled = rto_breakdown(CostModel(), replace(PAPER_VOLUMETRICS, data_bytes=1.1e14 * k))
    assert scaled.rto_hash < k * base.rto_hash  # additive transfer terms


# -- table2 -----------------------------------------------------------------------


def test_table2_has_four_canonical_rows():
    rows = table2(CostModel(), PAPER_VOLUMETRICS)
    assert [r.label for r in rows] == ["10 TB", "100 TB", "500 TB", "1 PB"]


def test_table2_100tb_row_matches_reference_exactly():
    row = next(r for r in table2(CostModel(), PAPER_VOLUMETRICS) if r.label == "100 TB")
    assert row.direct.rto_hash == 14_575.6
    assert row.direct.rto_meta == 825.6
    assert row.annotation == ""  # no divergence on the anchor row


def test_table2_scaling_rows_match_published_convention_within_5pct():
    rows = {r.label: r for r in table2(CostModel(), PAPER_VOLUMETRICS)}
    for label in ("500 TB", "1 PB"):
        row = rows[label]
        assert row.conv_hash_s / 3600.0 == pytest.approx(row.published_hash, rel=0.05)
        assert row.conv_meta_s / 60.0 == pytest.approx(row.published_meta_min, rel=0.05)
        assert row.conv_factor == pytest.approx(row.published_factor, rel=0.05)
        assert "direct formula" in row.annotation  # divergence stays auditable


def test_table2_10tb_row_reproduces_factor_and_flags_bad_cell():
    row = next(r for r in table2(CostModel(), PAPER_VOLUMETRICS) if r.label == "10 TB")
    assert row.conv_factor == pytest.approx(1.8, abs=0.1)
    assert "0.23 min" in row.annotation
    assert "inconsistent" in row.annotation


def test_table2_1pb_meta_follows_constant_meta_convention():
    row = next(r for r in table2(CostModel(), PAPER_VOLUMETRICS) if r.label == "1 PB")
    assert row.conv_meta_s / 60.0 == pytest.approx(14.0, rel=0.05)


# -- sensitivity -------------------------------------------------------------------


def test_factor_decreases_as_delta_approaches_data():
    values = [1e12, 1e13, 5e13, 1.1e14]
    points = sensitivity(CostModel(), PAPER_VOLUMETRICS, "delta", values)
    factors = [p.factor for p in points]
    assert factors == sorted(factors, reverse=True)


def test_delta_equals_data_limit_formula():
    point = sensitivity(CostModel(), PAPER_VOLUMETRICS, "delta", [1.1e14])[0]
    bd = point.breakdown
    expected = 1 + bd.t_hash / (bd.t_index + 1.1e14 / 1.25e9)
    assert point.factor == pytest.approx(expected)


def test_factor_decreases_with_core_count():
    points = sensitivity(CostModel(), PAPER_VOLUMETRICS, "C", [16, 32, 64, 128])
    factors = [p.factor for p in points]
    assert factors == sorted(factors, reverse=True)
    assert factors[0] == pytest.approx(17.65, abs=0.01)
    assert 2.7 <= factors[-1] <= 3.1


def test_factor_diverges_with_bandwidth():
    points = sensitivity(CostModel(), PAPER_VOLUMETRICS, "B", [1.25e9, 1.25e11, 1.25e13])
    factors = [p.factor for p in points]
    assert factors == sorted(factors)
    assert factors[-1] > 1000


def test_unknown_sweep_parameter():
    with pytest.raises(DomainError):
        sensitivity(CostModel(), PAPER_VOLUMETRICS, "Q", [1])


# -- tco ---------------------------------------------------------------------------


def test_core_hours_per_event_match_engaged_core_convention():
    report = tco(TcoParams())
    assert report.core_hours_hash_per_event == pytest.approx(161.7, abs=0.05)
    assert report.core_hours_meta_per_event == pytest.approx(0.3, abs=0.05)


def test_weekly_and_annual_compute_savings():
    report = tco(TcoParams())
    assert report.weekly_core_hours_saved == pytest.approx(2743, abs=10)
    assert report.annual_compute_saving_usd == pytest.approx(6864, rel=0.02)


def test_storage_saving_two_petabytes_ten_percent():
    report = tco(TcoParams())
    assert report.annual_storage_saving_usd == pytest.approx(55_200.0, rel=0.01)


def test_savings_nonnegative_when_meta_is_faster():
    report = tco(TcoParams())
    assert report.weekly_core_hours_saved >= 0
    assert report.annual_compute_saving_usd >= 0


def test_tco_parameter_validation():
    with pytest.raises(DomainError):
        TcoParams(dedup_rate=1.5)
    with pytest.raises(DomainError):
        TcoParams(node_cores=0)
