"""The paper's primary contribution.

* :mod:`repro.core.mapper` / :mod:`repro.core.mapping_params` -- the SRAdGen
  automatic mapping procedure of Section 5 and its parameter records
  (Table 2).
* :mod:`repro.core.srag` -- the Shift Register based Address Generator of
  Section 4, as both a behavioural model and a structural elaboration.
* :mod:`repro.core.addm_generator` -- the complete two-hot generator (row
  SRAG + column SRAG) for an address decoder-decoupled memory.
* :mod:`repro.core.two_hot` -- two-hot encoding helpers.
* :mod:`repro.core.sradgen` -- the end-to-end SRAdGen tool flow (sequence in,
  VHDL/Verilog + synthesis report out).
* :mod:`repro.core.multi_counter` -- the relaxed multi-counter extension the
  paper sketches as future work.
"""

from repro.core.addm_generator import SragAddressGenerator
from repro.core.mapper import map_address_sequence, map_sequence
from repro.core.mapping_params import MappingError, SragMapping
from repro.core.multi_counter import (
    GeneralisedSragModel,
    GeneralisedSragParameters,
    build_generalised_srag,
    map_sequence_relaxed,
)
from repro.core.srag import SragFunctionalModel, SragPorts, build_srag
from repro.core.sradgen import SRAdGenResult, generate
from repro.core.two_hot import (
    decode_two_hot,
    encode_two_hot,
    is_valid_two_hot,
    one_hot_width,
    two_hot_width,
)

__all__ = [
    "SragAddressGenerator",
    "map_address_sequence",
    "map_sequence",
    "MappingError",
    "SragMapping",
    "GeneralisedSragModel",
    "GeneralisedSragParameters",
    "build_generalised_srag",
    "map_sequence_relaxed",
    "SragFunctionalModel",
    "SragPorts",
    "build_srag",
    "SRAdGenResult",
    "generate",
    "decode_two_hot",
    "encode_two_hot",
    "is_valid_two_hot",
    "one_hot_width",
    "two_hot_width",
]
