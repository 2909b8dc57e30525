"""Tests for the SRAdGen mapping procedure (the paper's Section 5)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mapper import map_address_sequence, map_sequence
from repro.core.mapping_params import MappingError
from repro.core.srag import SragFunctionalModel
from repro.workloads import motion_estimation


def test_table2_row_mapping_matches_paper():
    """The Table 2 parameters for the row address sequence of Table 1."""
    row_sequence = [0, 0, 1, 1, 0, 0, 1, 1, 2, 2, 3, 3, 2, 2, 3, 3]
    mapping = map_sequence(row_sequence, num_lines=4)
    table = mapping.as_table()
    assert table["I"] == row_sequence
    assert table["D"] == [2] * 8
    assert table["R"] == [0, 1, 0, 1, 2, 3, 2, 3]
    assert table["U"] == [0, 1, 2, 3]
    assert table["O"] == [2, 2, 2, 2]
    assert table["Z"] == [0, 1, 4, 5]
    assert table["S"] == [(0, 1), (2, 3)]
    assert table["P"] == [4, 4]
    assert table["dC"] == 2
    assert table["pC"] == 4


def test_table2_column_mapping():
    col_sequence = [0, 1, 0, 1, 2, 3, 2, 3, 0, 1, 0, 1, 2, 3, 2, 3]
    mapping = map_sequence(col_sequence, num_lines=4)
    assert mapping.div_count == 1
    assert mapping.registers == [(0, 1), (2, 3)]
    assert mapping.pass_count == 4


def test_paper_divcnt_example():
    """dC = 2 with pass always asserted: 5,5,1,1,4,4,0,0,3,3,7,7,6,6,2,2."""
    sequence = [5, 5, 1, 1, 4, 4, 0, 0, 3, 3, 7, 7, 6, 6, 2, 2]
    mapping = map_sequence(sequence, num_lines=8)
    assert mapping.div_count == 2
    produced = SragFunctionalModel.from_mapping(mapping).run(len(sequence))
    assert produced == sequence


def test_paper_divcnt_violation_example():
    """5,5,5,1,1,... has a dC of 3 for address 5 and 2 elsewhere -> rejected."""
    sequence = [5, 5, 5, 1, 1, 4, 4, 0, 0, 3, 3, 7, 7, 6, 6, 2, 2]
    with pytest.raises(MappingError, match="DivCnt"):
        map_sequence(sequence, num_lines=8)


def test_paper_passcnt_example():
    """pC = 8 and dC = 1: 5,1,4,0,5,1,4,0,3,7,6,2,3,7,6,2."""
    sequence = [5, 1, 4, 0, 5, 1, 4, 0, 3, 7, 6, 2, 3, 7, 6, 2]
    mapping = map_sequence(sequence, num_lines=8)
    assert mapping.div_count == 1
    assert mapping.pass_count == 8
    assert mapping.registers == [(5, 1, 4, 0), (3, 7, 6, 2)]


def test_paper_passcnt_violation_example():
    """5,1,4,0 x3 then 3,7,6,2 x2 has pC 12 vs 8 -> rejected."""
    sequence = [5, 1, 4, 0] * 3 + [3, 7, 6, 2] * 2
    with pytest.raises(MappingError, match="PassCnt"):
        map_sequence(sequence, num_lines=8)


def test_paper_grouping_verification_failure_example():
    """The paper's 1,2,3,4,3,2,1,4 example fails the verification step."""
    with pytest.raises(MappingError):
        map_sequence([1, 2, 3, 4, 3, 2, 1, 4], num_lines=5)


def test_incremental_sequence_maps_to_single_register():
    mapping = map_sequence(list(range(16)))
    assert mapping.num_registers == 1
    assert mapping.register_lengths == [16]
    assert mapping.div_count == 1
    assert mapping.total_flip_flops == 16


def test_mapping_rejects_empty_and_negative():
    with pytest.raises(MappingError):
        map_sequence([])
    with pytest.raises(MappingError):
        map_sequence([0, -1])
    with pytest.raises(MappingError):
        map_sequence([4], num_lines=4)


def test_mapping_of_full_2d_sequence():
    sequence = motion_estimation.read_sequence(8, 8, 2, 2)
    row_mapping, col_mapping = map_address_sequence(sequence)
    assert row_mapping.num_lines == 8
    assert col_mapping.num_lines == 8
    assert row_mapping.div_count == 2
    assert col_mapping.div_count == 1
    # Each dimension uses one flip-flop per distinct address.
    assert row_mapping.total_flip_flops == 8
    assert col_mapping.total_flip_flops == 8


def test_iterations_per_register():
    mapping = map_sequence([0, 1, 0, 1, 2, 3, 2, 3], num_lines=4)
    assert mapping.iterations_per_register() == [2, 2]


def test_describe_contains_all_parameters():
    mapping = map_sequence([0, 0, 1, 1], num_lines=2)
    text = mapping.describe()
    for key in ("I =", "D =", "R =", "U =", "O =", "Z =", "S =", "P =", "dC =", "pC ="):
        assert key in text


# ---------------------------------------------------------------------------
# Property-based: any mapping the mapper accepts regenerates its input.
# ---------------------------------------------------------------------------

@st.composite
def mappable_sequences(draw):
    """Generate sequences by construction from SRAG parameters.

    Register lengths are at least 2 so that a recirculating register never
    emits the same address on consecutive cycles -- single-flip-flop
    registers make repetitions ambiguous between the DivCnt and the PassCnt,
    and such sequences are represented with a different (equally valid)
    parameter set by the mapper.  All registers share one length because the
    paper's greedy initial grouping can merge registers of unequal length
    that each circulate exactly once, and (as the paper itself notes) the
    procedure then rejects the sequence rather than re-grouping.
    """
    num_registers = draw(st.integers(1, 3))
    common_length = draw(st.integers(2, 4))
    lengths = [common_length for _ in range(num_registers)]
    # Assign distinct addresses to every flip-flop.
    addresses = list(range(sum(lengths)))
    registers = []
    offset = 0
    for length in lengths:
        registers.append(addresses[offset:offset + length])
        offset += length
    div_count = draw(st.integers(1, 3))
    # The pass count must be a common multiple of every register length for
    # the generated sequence to satisfy the restrictions.
    base = 1
    for length in lengths:
        base = base * length // _gcd(base, length)
    pass_count = base * draw(st.integers(1, 2))
    model = SragFunctionalModel(registers, div_count, pass_count)
    cycles = div_count * pass_count * num_registers
    return model.run(cycles), registers, div_count, pass_count


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


@given(mappable_sequences())
@settings(max_examples=40, deadline=None)
def test_mapper_round_trip_property(case):
    """Any sequence produced by an SRAG is accepted by the mapper, and the
    mapped parameters regenerate it exactly (the parameters themselves may
    legitimately differ from the generating ones)."""
    sequence, _registers, _div_count, _pass_count = case
    mapping = map_sequence(sequence)
    model = SragFunctionalModel.from_mapping(mapping)
    assert model.run(len(sequence)) == sequence
