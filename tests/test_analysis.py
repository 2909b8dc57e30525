"""Tests for the trade-off analysis, design-space explorer and reporting."""


import pytest

from repro.analysis.explorer import describe_design_space, explore
from repro.analysis.reporting import format_figure, format_series, format_table
from repro.engine.jobs import STYLE_VARIANTS, Campaign
from repro.engine.runner import CampaignRunner
from repro.flow import FlowSpec
from repro.analysis.tradeoff import (
    GeneratorMetrics,
    TradeoffRecord,
    average_factors,
    compare_generators,
    evaluate_cntag,
    evaluate_srag,
)
from repro.workloads import motion_estimation


# ---------------------------------------------------------------------------
# Trade-off records
# ---------------------------------------------------------------------------

def _record(workload, srag_delay, srag_area, cnt_delay, cnt_area):
    return TradeoffRecord(
        workload=workload,
        rows=16,
        cols=16,
        srag=GeneratorMetrics("SRAG", srag_delay, srag_area, 32),
        cntag=GeneratorMetrics("CntAG", cnt_delay, cnt_area, 10),
    )


def test_factors_computation():
    record = _record("w", 1.0, 3000.0, 2.0, 1000.0)
    assert record.delay_reduction_factor == pytest.approx(2.0)
    assert record.area_increase_factor == pytest.approx(3.0)
    assert "w" in record.describe()


def test_average_factors():
    records = [_record("w", 1.0, 2000.0, 1.5, 1000.0), _record("w", 1.0, 4000.0, 2.5, 1000.0)]
    delay, area = average_factors(records)
    assert delay == pytest.approx(2.0)
    assert area == pytest.approx(3.0)
    with pytest.raises(ValueError):
        average_factors([])


def test_evaluate_and_compare_real_generators():
    pattern = motion_estimation.new_img_read_pattern(16, 16, 2, 2)
    srag = evaluate_srag(pattern)
    cntag = evaluate_cntag(pattern)
    assert srag.style == "SRAG"
    assert cntag.style == "CntAG"
    assert set(cntag.detail) == {"counter", "row_decoder", "column_decoder", "full"}

    record = compare_generators("motion_est_read", pattern)
    # The paper's qualitative claims: SRAG is faster but larger.
    assert record.delay_reduction_factor > 1.0
    assert record.area_increase_factor > 1.0


# ---------------------------------------------------------------------------
# Exploration
# ---------------------------------------------------------------------------

def _styles(records):
    return {record.style for record in records}


def test_explore_covers_multiple_architectures():
    result = explore("fifo", 4, 4)
    points = result.ok_records()
    assert {"SRAG", "CntAG"}.issubset(_styles(points))
    assert result.pareto_fronts()
    text = describe_design_space(result)
    assert "Pareto" in text


def test_explore_records_inapplicable_architectures():
    result = explore("motion_est_read", 4, 4)
    skipped = [record for record in result.records if record.status == "skipped"]
    # The SFM cannot implement block access.
    assert "SFM" in _styles(skipped)
    for record in skipped:
        assert record.note
        assert f"not applicable: {record.note}" in describe_design_space(result)


def test_explore_skips_fsm_for_long_sequences():
    result = explore("motion_est_read", 8, 8, spec=FlowSpec(max_fsm_states=16))
    assert "FSM" not in _styles(result.records)


def test_explore_records_failures_raised_during_evaluation(monkeypatch):
    """Regression: a failure inside synthesize() must be skipped, not raised.

    Candidate construction can succeed while elaboration/synthesis later
    raises (the netlist is built lazily); those land in the ``skipped``
    records like construction failures do.
    """
    from repro.engine import runner
    from repro.hdl.netlist import NetlistError

    class ExplodingDesign:
        def synthesize(self, **kwargs):
            raise NetlistError("elaboration exploded late")

    real_build_design = runner.build_design

    def with_exploder(pattern, style, variant):
        if (style, variant) == ("ArithAG", "binary"):
            return ExplodingDesign()
        return real_build_design(pattern, style, variant)

    monkeypatch.setattr(runner, "build_design", with_exploder)
    result = explore("fifo", 4, 4)
    (boom,) = [r for r in result.records if r.style == "ArithAG"]
    assert boom.status == "skipped" and "exploded late" in boom.note
    # The survivors are unaffected.
    assert _styles(result.ok_records()) >= {"SRAG", "CntAG"}


def test_explore_passes_opt_level_through_to_synthesis():
    raw = explore("fifo", 8, 8)
    opt = explore("fifo", 8, 8, spec=FlowSpec(opt_level=1))
    area = {(r.style, r.variant): r.area_cells for r in raw.ok_records()}
    area_opt = {(r.style, r.variant): r.area_cells for r in opt.ok_records()}
    assert area_opt[("CntAG", "decoders")] < area[("CntAG", "decoders")]


def test_explore_records_match_a_campaign_over_the_same_styles():
    result = explore("fifo", 8, 8)
    styles = [(r.style, r.variant) for r in result.records]
    campaign = Campaign.from_grid("g", workloads=("fifo",), geometries=((8, 8),), styles=styles)
    with CampaignRunner() as campaign_runner:
        expected = campaign_runner.run(campaign).records
    assert len(expected) == len(result.records) == len(STYLE_VARIANTS)

    def comparable(record):
        return {**record.to_dict(), "duration_s": 0.0}

    assert [comparable(r) for r in result.records] == [comparable(r) for r in expected]


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def test_format_table_alignment_and_floats():
    text = format_table(
        ["name", "value"],
        [["a", 1.234], ["bbbb", 10.0]],
        title="demo",
        float_format="{:.1f}",
    )
    lines = text.splitlines()
    assert lines[0] == "demo"
    assert "1.2" in text and "10.0" in text
    # Header separator row present.
    assert set(lines[2].replace(" ", "")) == {"-"}


def test_format_series_and_figure():
    series = {"SRAG": [1.0, 1.1], "CntAG": [2.0, 2.2]}
    text = format_series("size", ["16x16", "32x32"], series)
    assert "SRAG" in text and "32x32" in text
    figure = format_figure(
        "Figure 8", "size", ["16x16"], {"SRAG": [1.0]},
        y_label="delay/ns", expectation="SRAG roughly 2x faster",
    )
    assert figure.startswith("=== Figure 8 ===")
    assert "delay/ns" in figure
    assert "2x faster" in figure
