"""Integration tests: the paper's qualitative claims, end to end.

These tests run the complete flow (workload -> mapping -> elaboration ->
synthesis) and assert the *qualitative* results of the paper's evaluation --
the quantities the benchmark harness then reports numerically.
"""


from repro.analysis.tradeoff import average_factors, compare_generators
from repro.core import SragAddressGenerator, generate
from repro.generators import CounterBasedAddressGenerator, FsmAddressGenerator
from repro.synth.fsm import FiniteStateMachine, synthesize_fsm
from repro.synth.flow import run_synthesis_flow
from repro.workloads import dct, fifo, motion_estimation, zoom
from repro.workloads.fifo import incremental_sequence


def test_srag_is_faster_but_larger_than_cntag():
    """The headline trade-off (Section 6, Figures 8 and 10)."""
    pattern = motion_estimation.new_img_read_pattern(32, 32, 2, 2)
    record = compare_generators("motion_est_read", pattern)
    assert record.delay_reduction_factor > 1.3
    assert record.area_increase_factor > 1.5


def test_srag_delay_is_flatter_than_cntag_delay():
    """SRAG delay grows slowly with array size; CntAG delay grows faster."""
    small = compare_generators(
        "motion_est_read", motion_estimation.new_img_read_pattern(16, 16, 2, 2)
    )
    large = compare_generators(
        "motion_est_read", motion_estimation.new_img_read_pattern(64, 64, 2, 2)
    )
    srag_growth = large.srag.delay_ns - small.srag.delay_ns
    cntag_growth = large.cntag.delay_ns - small.cntag.delay_ns
    assert cntag_growth > srag_growth
    assert large.srag.delay_ns < 1.6 * small.srag.delay_ns


def test_decoder_delay_grows_with_array_size():
    """Figure 9's driver: the decoder contribution increases with the array."""
    small = CounterBasedAddressGenerator(
        motion_estimation.new_img_read_pattern(16, 16, 2, 2)
    ).component_reports()
    large = CounterBasedAddressGenerator(
        motion_estimation.new_img_read_pattern(128, 128, 2, 2)
    ).component_reports()
    assert large["row_decoder"].delay_ns > small["row_decoder"].delay_ns
    assert large["counter"].delay_ns < 2 * small["counter"].delay_ns


def test_shift_register_beats_symbolic_fsm_for_incremental_access():
    """Section 3 (Figures 3 and 4): the shift register is much faster than the
    binary-encoded symbolic FSM at a modest area premium."""
    length = 64
    sequence = incremental_sequence(length)

    fsm = FiniteStateMachine.from_select_sequence(sequence.linear, num_lines=length)
    fsm_result = run_synthesis_flow(synthesize_fsm(fsm, encoding="binary").netlist)

    shift_register = SragAddressGenerator(sequence).synthesize()

    assert shift_register.delay_ns < fsm_result.delay_ns
    # Area premium is modest compared to the delay advantage.
    assert shift_register.area_cells < 3.0 * fsm_result.area_cells


def test_table3_factors_are_in_the_papers_ballpark():
    """Average delay-reduction and area-increase factors land near Table 3."""
    records = []
    for size in (16, 32):
        records.append(
            compare_generators(
                "motion_est", motion_estimation.new_img_read_pattern(size, size, 2, 2)
            )
        )
    delay_factor, area_factor = average_factors(records)
    assert 1.2 < delay_factor < 3.0
    assert 1.2 < area_factor < 4.5


def test_every_paper_workload_flows_end_to_end():
    """Mapping, elaboration, gate-level verification and HDL generation work
    for each of the four Table 3 workloads."""
    sequences = [
        motion_estimation.read_sequence(8, 8, 2, 2),
        dct.column_pass_sequence(8, 8),
        zoom.zoom_read_sequence(4, 4, 2),
        fifo.fifo_sequence(8, 8),
    ]
    for sequence in sequences:
        result = generate(sequence, synthesize=True)
        assert result.generator.verify()
        assert result.synthesis.delay_ns > 0
        assert "entity" in result.vhdl


def test_fsm_generator_is_viable_but_expensive_for_block_access():
    """A symbolic FSM can also drive the ADDM, but with one state per access
    it carries far more synthesis effort than the SRAG for the same sequence."""
    sequence = motion_estimation.read_sequence(8, 8, 2, 2)
    fsm_design = FsmAddressGenerator(sequence, output_style="two_hot")
    assert fsm_design.verify()
    srag = SragAddressGenerator(sequence)
    fsm_states = fsm_design.fsm_synthesis.fsm.num_states
    srag_flops = (
        srag.row_mapping.total_flip_flops + srag.col_mapping.total_flip_flops
    )
    assert fsm_states == sequence.length
    assert srag_flops < fsm_states
