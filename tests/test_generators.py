"""Tests for the baseline address-generator architectures."""

import pytest

from repro.core.addm_generator import SragAddressGenerator
from repro.generators import (
    ArithmeticAddressGenerator,
    CounterBasedAddressGenerator,
    FsmAddressGenerator,
    SfmPointerGenerator,
)
from repro.hdl.netlist import NetlistError
from repro.workloads import dct, fifo, motion_estimation, zoom
from repro.workloads.loopnest import AffineAccessPattern, AffineExpression, Loop


# ---------------------------------------------------------------------------
# CntAG
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "pattern_factory",
    [
        lambda: motion_estimation.new_img_read_pattern(8, 8, 2, 2),
        lambda: motion_estimation.new_img_write_pattern(4, 4),
        lambda: dct.column_pass_pattern(4, 4),
        lambda: zoom.zoom_read_pattern(4, 4, 2),
    ],
)
def test_cntag_generates_the_right_addresses(pattern_factory):
    pattern = pattern_factory()
    assert CounterBasedAddressGenerator(pattern).verify()


def test_cntag_adder_and_concatenation_variants_agree():
    pattern = motion_estimation.new_img_read_pattern(8, 8, 2, 2)
    concat = CounterBasedAddressGenerator(pattern, use_concatenation=True)
    adders = CounterBasedAddressGenerator(pattern, use_concatenation=False)
    assert concat.simulate(32) == adders.simulate(32)
    # The adder-based variant carries extra logic.
    assert adders.synthesize().area_cells > concat.synthesize().area_cells


def test_cntag_without_decoders_has_no_select_lines():
    pattern = dct.column_pass_pattern(4, 4)
    design = CounterBasedAddressGenerator(pattern, include_decoders=False)
    assert design.verify()
    assert not any(name.startswith("rs_") for name in design.netlist.outputs)


def test_cntag_decoder_outputs_are_select_lines():
    pattern = fifo.fifo_pattern(4, 4)
    design = CounterBasedAddressGenerator(pattern)
    outputs = design.netlist.outputs
    assert sum(1 for name in outputs if name.startswith("rs_")) == 4
    assert sum(1 for name in outputs if name.startswith("cs_")) == 4


def test_cntag_component_reports_and_paper_delay():
    pattern = motion_estimation.new_img_read_pattern(16, 16, 2, 2)
    design = CounterBasedAddressGenerator(pattern)
    components = design.component_reports()
    assert set(components) == {"counter", "row_decoder", "column_decoder"}
    total = design.paper_methodology_delay()
    assert total == pytest.approx(
        components["counter"].delay_ns
        + max(components["row_decoder"].delay_ns, components["column_decoder"].delay_ns)
    )
    assert total > components["counter"].delay_ns


def test_cntag_rejects_non_unit_stride_and_negative_coefficients():
    bad_stride = AffineAccessPattern(
        name="bad",
        loops=[Loop("i", 0, 8, step=2)],
        row_expr=AffineExpression.build({"i": 1}),
        col_expr=AffineExpression.build({}),
        rows=8,
        cols=1,
    )
    with pytest.raises(NetlistError):
        CounterBasedAddressGenerator(bad_stride)

    negative = AffineAccessPattern(
        name="neg",
        loops=[Loop("i", 0, 4)],
        row_expr=AffineExpression.build({"i": -1}, constant=3),
        col_expr=AffineExpression.build({}),
        rows=4,
        cols=1,
    )
    with pytest.raises(NetlistError):
        CounterBasedAddressGenerator(negative).elaborate()


def test_cntag_affine_constant_offset():
    pattern = AffineAccessPattern(
        name="offset",
        loops=[Loop("i", 0, 4)],
        row_expr=AffineExpression.build({"i": 1}, constant=2),
        col_expr=AffineExpression.build({}, constant=1),
        rows=8,
        cols=4,
    )
    design = CounterBasedAddressGenerator(pattern)
    assert design.simulate(4) == [2 * 4 + 1, 3 * 4 + 1, 4 * 4 + 1, 5 * 4 + 1]


# ---------------------------------------------------------------------------
# Arithmetic generator
# ---------------------------------------------------------------------------

def test_arithmetic_generator_constant_stride():
    design = ArithmeticAddressGenerator(fifo.fifo_sequence(4, 4))
    assert design.distinct_strides == [1]
    assert design.verify()


def test_arithmetic_generator_variable_stride():
    sequence = motion_estimation.read_sequence(4, 4, 2, 2)
    design = ArithmeticAddressGenerator(sequence)
    assert len(design.distinct_strides) > 1
    assert design.verify()


def test_arithmetic_generator_with_decoders():
    design = ArithmeticAddressGenerator(fifo.fifo_sequence(4, 4), include_decoders=True)
    assert any(name.startswith("rs_") for name in design.netlist.outputs)
    assert design.verify()


def test_arithmetic_generator_requires_power_of_two_array():
    sequence = fifo.fifo_sequence(3, 3)
    with pytest.raises(NetlistError):
        ArithmeticAddressGenerator(sequence)


# ---------------------------------------------------------------------------
# FSM generator
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("output_style", ["select_lines", "two_hot", "binary"])
def test_fsm_generator_output_styles(output_style):
    sequence = motion_estimation.read_sequence(4, 4, 2, 2)
    design = FsmAddressGenerator(sequence, encoding="binary", output_style=output_style)
    assert design.verify()


def test_fsm_generator_invalid_style():
    with pytest.raises(ValueError):
        FsmAddressGenerator(fifo.fifo_sequence(2, 2), output_style="gray_code")


def test_fsm_generator_exposes_synthesis_stats():
    design = FsmAddressGenerator(fifo.incremental_sequence(8))
    result = design.fsm_synthesis
    assert result.state_width == 3
    assert result.stats.minterms > 0


# ---------------------------------------------------------------------------
# SFM generator
# ---------------------------------------------------------------------------

def test_sfm_generator_incremental_only():
    assert SfmPointerGenerator(fifo.incremental_sequence(8)).verify()
    with pytest.raises(NetlistError):
        SfmPointerGenerator(motion_estimation.read_sequence(4, 4, 2, 2))


def test_sfm_generator_has_two_pointer_registers():
    design = SfmPointerGenerator(fifo.incremental_sequence(6))
    flops = design.netlist.sequential_cells()
    assert len(flops) == 12  # head + tail, one flip-flop per cell


# ---------------------------------------------------------------------------
# Common interface behaviour
# ---------------------------------------------------------------------------

def test_designs_share_the_common_interface():
    sequence = fifo.fifo_sequence(4, 4)
    pattern = fifo.fifo_pattern(4, 4)
    designs = [
        SragAddressGenerator(sequence),
        CounterBasedAddressGenerator(pattern),
        ArithmeticAddressGenerator(sequence),
        FsmAddressGenerator(sequence, output_style="two_hot"),
        SfmPointerGenerator(fifo.incremental_sequence(16)),
    ]
    for design in designs:
        result = design.synthesize(metadata={"test": True})
        assert result.delay_ns > 0
        assert result.area_cells > 0
        assert result.metadata["style"] == design.style
        assert result.metadata["test"] is True


def test_netlist_cache_and_invalidate():
    design = SragAddressGenerator(fifo.fifo_sequence(4, 4))
    first = design.netlist
    assert design.netlist is first
    design.invalidate()
    assert design.netlist is not first


def test_srag_generator_exposes_mappings():
    design = SragAddressGenerator(motion_estimation.read_sequence(4, 4, 2, 2))
    assert design.row_mapping.div_count == 2
    assert design.col_mapping.div_count == 1
