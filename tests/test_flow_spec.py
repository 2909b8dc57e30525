"""Tests for :mod:`repro.flow` -- the canonical FlowSpec configuration object.

Three contracts matter here:

* **Validation and round-tripping** -- a spec is frozen, validated on
  construction, and ``from_spec(to_spec())`` is the identity.
* **Cache-key stability** -- the golden-key tests pin literal SHA-256 digests
  for a legacy job and a fully-loaded job, so no future ``FlowSpec`` edit can
  silently invalidate every on-disk campaign cache.  The same applies to the
  ``EvalRecord`` dictionary form.
* **One configuration surface** -- ``spec`` is the only way to configure
  a flow: the pre-``FlowSpec`` loose keywords and positional forms are gone
  and raise ``TypeError``.
"""

import dataclasses
import json
import os
import pickle
import subprocess
import sys

import pytest

import repro
from repro.analysis.explorer import explore
from repro.cli import build_parser, main
from repro.core.addm_generator import SragAddressGenerator
from repro.core.sradgen import generate
from repro.engine.jobs import Campaign, EvalJob
from repro.engine.runner import EvalRecord
from repro.flow import DEFAULT_SPEC, FSM_ENCODINGS, FlowSpec, opt_label_suffix
from repro.synth.cell_library import STD018, get_library
from repro.synth.flow import run_synthesis_flow
from repro.workloads.fifo import incremental_sequence


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------

def test_spec_defaults_and_immutability():
    spec = FlowSpec()
    assert spec == DEFAULT_SPEC
    assert (spec.library, spec.max_fanout, spec.max_fsm_states) == ("std018", 8, 512)
    assert spec.opt_level == 0 and spec.power_cycles == 0
    assert spec.fsm_encodings == FSM_ENCODINGS
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.opt_level = 1
    # Hashable: specs can key dicts/sets (and so can jobs embedding them).
    assert len({FlowSpec(), FlowSpec(opt_level=1)}) == 2


@pytest.mark.parametrize(
    "bad",
    [
        dict(library="no_such_library"),
        dict(max_fanout=1),
        dict(opt_level=-1),
        dict(power_cycles=-5),
        dict(max_fsm_states=0),
        dict(fsm_encodings=("binary", "hexadecimal")),
        dict(opt_level=True),
        dict(max_fanout="8"),
        dict(library=3.14),
    ],
)
def test_spec_rejects_invalid_values(bad):
    with pytest.raises((KeyError, ValueError, TypeError)):
        FlowSpec(**bad)


def test_spec_accepts_a_library_object_and_normalises_to_its_name():
    assert FlowSpec(library=STD018).library == "std018"
    assert FlowSpec(library=get_library("std018_lp")).library == "std018_lp"


def test_spec_registers_unseen_library_objects_under_qualified_names():
    """An ad-hoc characterisation stays serialisable and collision-proof."""
    corner = STD018.scaled("flow_spec_test_corner", area_scale=2.0)
    spec = FlowSpec(library=corner)
    assert spec.library.startswith("flow_spec_test_corner#")
    assert spec.resolve_library() is corner
    # Round-tripping through the canonical dict finds the same library.
    assert FlowSpec.from_spec(spec.to_spec()) == spec


def test_fsm_encodings_sequence_is_coerced_to_tuple():
    spec = FlowSpec(fsm_encodings=["gray"])
    assert spec.fsm_encodings == ("gray",)


# ---------------------------------------------------------------------------
# Canonical serialisation
# ---------------------------------------------------------------------------

def test_to_spec_omits_post_seed_fields_at_their_defaults():
    assert FlowSpec().to_spec() == {
        "library": "std018",
        "max_fanout": 8,
        "max_fsm_states": 512,
    }
    loaded = FlowSpec(opt_level=1, power_cycles=64, fsm_encodings=("gray",))
    assert loaded.to_spec() == {
        "library": "std018",
        "max_fanout": 8,
        "max_fsm_states": 512,
        "opt_level": 1,
        "power_cycles": 64,
        "fsm_encodings": ["gray"],
    }
    # Enumeration-only knobs never reach job cache keys.
    assert "fsm_encodings" not in loaded.to_spec(job_key=True)


def test_from_spec_round_trips_and_rejects_unknown_fields():
    for spec in (
        FlowSpec(),
        FlowSpec(library="std018_fast", max_fanout=4),
        FlowSpec(opt_level=1, power_cycles=256, max_fsm_states=64),
        FlowSpec(fsm_encodings=("onehot", "gray")),
    ):
        assert FlowSpec.from_spec(spec.to_spec()) == spec
    with pytest.raises(ValueError, match="effort_tier"):
        FlowSpec.from_spec({"library": "std018", "effort_tier": "high"})


def test_with_overrides_skips_none_and_rejects_unknown_fields():
    spec = FlowSpec(opt_level=1)
    assert spec.with_overrides(opt_level=None, library=None) is spec
    derived = spec.with_overrides(library="std018_lp", power_cycles=32)
    assert (derived.library, derived.power_cycles, derived.opt_level) == (
        "std018_lp", 32, 1,
    )
    with pytest.raises(TypeError):
        spec.with_overrides(effort_tier="high")


def test_from_cli_args_reads_namespace_fields():
    parser = build_parser()
    args = parser.parse_args(
        ["--workload", "fifo", "--rows", "4", "--cols", "4",
         "--opt-level", "1", "--max-fsm-states", "99"]
    )
    spec = FlowSpec.from_cli_args(args)
    assert spec == FlowSpec(opt_level=1, max_fsm_states=99)
    defaults = parser.parse_args(["--workload", "fifo", "--rows", "4", "--cols", "4"])
    assert FlowSpec.from_cli_args(defaults) == FlowSpec()


def test_opt_label_suffix_shared_by_jobs_and_records():
    assert opt_label_suffix(0) == ""
    assert opt_label_suffix(1) == " O1"
    assert FlowSpec(opt_level=1).label_suffix == " O1"
    job = EvalJob("fifo", 4, 4, "SRAG", "two-hot", FlowSpec(opt_level=1))
    assert job.label.endswith(" O1")


# ---------------------------------------------------------------------------
# Golden cache keys: literal digests pinned across FlowSpec refactors
# ---------------------------------------------------------------------------

def test_golden_key_legacy_job():
    """A default-knob job hashes exactly as it did before FlowSpec existed."""
    job = EvalJob("fifo", 4, 4, "SRAG", "two-hot")
    assert job.key == (
        "7731f6f8aaf22a1697f00a431ea842b26809569477ff0966cb23caa498afd238"
    )
    assert json.dumps(job.to_spec(), sort_keys=True, separators=(",", ":")) == (
        '{"cols":4,"library":"std018","library_fingerprint":"614ba225acce9b14",'
        '"max_fanout":8,"max_fsm_states":512,"rows":4,"style":"SRAG",'
        '"variant":"two-hot","version":1,"workload":"fifo"}'
    )


def test_golden_key_fully_loaded_job():
    """Every optional knob engaged: the omit-at-default fields all appear."""
    job = EvalJob(
        "motion_est_read", 16, 16, "FSM", "gray",
        FlowSpec(library="std018_lp", max_fanout=4, max_fsm_states=1024,
                 power_cycles=128, opt_level=1),
    )
    assert job.key == (
        "206dcc12212e7b9bbb89c3675d115664b13a9821a372ec270b9a138c064d0913"
    )
    # The read-only convenience views that labels and reports use.
    assert (job.library, job.max_fanout, job.max_fsm_states) == ("std018_lp", 4, 1024)
    assert (job.power_cycles, job.opt_level) == (128, 1)


def test_golden_record_serialisation():
    """The cached dictionary form of records is byte-identical to the seed era."""
    record = EvalRecord(
        workload="fifo", rows=4, cols=4, style="SRAG", variant="two-hot",
        library="std018", key="k" * 64, status="ok", delay_ns=1.5,
        area_cells=650.0, flip_flops=10, total_cells=21, buffers_inserted=2,
        note="", duration_s=0.25,
    )
    assert json.dumps(record.to_dict(), sort_keys=True) == (
        '{"area_cells": 650.0, "buffers_inserted": 2, "cols": 4, '
        '"delay_ns": 1.5, "duration_s": 0.25, "flip_flops": 10, '
        f'"key": "{"k" * 64}", "library": "std018", "note": "", "rows": 4, '
        '"status": "ok", "style": "SRAG", "total_cells": 21, '
        '"variant": "two-hot", "workload": "fifo"}'
    )
    # Power/optimization fields only appear once those features opt in.
    powered = dataclasses.replace(
        record, energy_per_access_fj=12.5, avg_power_uw=3.5,
        opt_level=1, opt_cells_removed=4,
    )
    data = powered.to_dict()
    assert data["energy_per_access_fj"] == 12.5 and data["opt_level"] == 1
    assert EvalRecord.from_dict(record.to_dict()) == record


# ---------------------------------------------------------------------------
# One configuration surface: spec= is the only way in
# ---------------------------------------------------------------------------

def _figures(result):
    return (result.area_cells, result.delay_ns, result.buffers_inserted)


#: One pre-FlowSpec call form per entry point; each now raises TypeError.
_PRE_FLOWSPEC_CALLS = {
    "run_synthesis_flow": lambda: run_synthesis_flow(
        SragAddressGenerator(incremental_sequence(8)).netlist, opt_level=1
    ),
    "synthesize": lambda: SragAddressGenerator(incremental_sequence(8)).synthesize(
        library=STD018
    ),
    "synthesize-two-positionals": lambda: SragAddressGenerator(
        incremental_sequence(8)
    ).synthesize(STD018, STD018),
    "generate": lambda: generate(incremental_sequence(8), library=STD018),
    "explore": lambda: explore("fifo", 4, 4, max_fsm_states=4),
    "EvalJob": lambda: EvalJob("fifo", 4, 4, "SRAG", "two-hot", power_cycles=64),
    "Campaign.from_grid": lambda: Campaign.from_grid(
        "g", workloads=("fifo",), geometries=((4, 4),), max_fanout=4
    ),
}


@pytest.mark.parametrize("entry_point", sorted(_PRE_FLOWSPEC_CALLS))
def test_entry_points_reject_pre_flowspec_arguments(entry_point):
    with pytest.raises(TypeError, match="unexpected keyword argument|positional"):
        _PRE_FLOWSPEC_CALLS[entry_point]()


def test_eval_job_rejects_a_library_in_the_spec_slot():
    """The pre-FlowSpec dataclass had ``library`` as its 6th positional field."""
    with pytest.raises(TypeError, match="FlowSpec"):
        EvalJob("fifo", 4, 4, "SRAG", "two-hot", "std018_lp")


def test_eval_job_pickles_without_warning(recwarn):
    job = EvalJob("fifo", 4, 4, "SRAG", "two-hot", FlowSpec(opt_level=1))
    clone = pickle.loads(pickle.dumps(job))
    assert clone == job and clone.key == job.key
    assert not [w for w in recwarn if issubclass(w.category, DeprecationWarning)]


def test_synthesize_accepts_a_positional_spec(recwarn):
    design = SragAddressGenerator(incremental_sequence(32))
    positional = design.synthesize(FlowSpec(max_fanout=4))
    keyword = design.synthesize(spec=FlowSpec(max_fanout=4))
    assert _figures(positional) == _figures(keyword)
    assert not [w for w in recwarn if issubclass(w.category, DeprecationWarning)]
    with pytest.raises(TypeError, match="spec"):
        design.synthesize(FlowSpec(), spec=FlowSpec())


def test_ephemeral_library_specs_survive_pickling_into_fresh_registries(monkeypatch):
    """Worker processes on spawn-start platforms build their registry from
    scratch; a spec naming an ad-hoc corner must carry it along."""
    from repro.synth.cell_library import LIBRARIES

    corner = STD018.scaled("pickle_test_corner", area_scale=1.5)
    job = EvalJob("fifo", 4, 4, "SRAG", "two-hot", FlowSpec(library=corner))
    payload = pickle.dumps(job)
    # Simulate the fresh process: the qualified name is unknown there.
    monkeypatch.delitem(LIBRARIES, job.spec.library)
    clone = pickle.loads(payload)
    assert clone.key == job.key  # key needs the fingerprint -> the library
    assert clone.spec.resolve_library().cells == corner.cells


_IMPORT_WITHOUT_PACKAGE_INIT = """
import importlib, sys, types
package = types.ModuleType("repro")
package.__path__ = [{package_dir!r}]
sys.modules["repro"] = package
importlib.import_module({module!r})
"""


@pytest.mark.parametrize(
    "module", ["repro.flow", "repro.synth.flow", "repro.generators.base"]
)
def test_module_imports_without_the_package_init(module):
    """No import order is load-bearing: each module loads on its own, not
    only after ``repro/__init__`` has imported its dependencies first."""
    code = _IMPORT_WITHOUT_PACKAGE_INIT.format(
        package_dir=os.path.dirname(repro.__file__), module=module
    )
    completed = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert completed.returncode == 0, completed.stderr


# ---------------------------------------------------------------------------
# CLI integration: --max-fsm-states routed through FlowSpec.from_cli_args
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("value", ["banana", "0", "-3", "2.5"])
def test_cli_rejects_garbage_max_fsm_states(value, capsys):
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(
            ["--workload", "fifo", "--rows", "4", "--cols", "4",
             "--max-fsm-states", value]
        )
    err = capsys.readouterr().err
    assert "--max-fsm-states" in err


def test_cli_max_fsm_states_bounds_exploration(capsys):
    assert main(["--workload", "fifo", "--rows", "4", "--cols", "4",
                 "--explore"]) == 0
    assert "FSM[" in capsys.readouterr().out
    assert main(["--workload", "fifo", "--rows", "4", "--cols", "4",
                 "--explore", "--max-fsm-states", "1"]) == 0
    assert "FSM[" not in capsys.readouterr().out
