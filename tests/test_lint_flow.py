"""Lint/flow integration: the lint-off path is byte-identical and free, the
lint-on path surfaces reports through SynthesisResult, EvalRecord and the
CLI without perturbing cache keys or serialised records."""

import json
import time

import pytest

from repro.cli import main
from repro.engine.jobs import EvalJob
from repro.engine.runner import EvalRecord, evaluate_job
from repro.flow import FlowSpec
from repro.generators.fsm_based import FsmAddressGenerator
from repro.lint.design import lint_netlist_if_enabled
from repro.synth.flow import run_synthesis_flow
from repro.synth.fsm import FiniteStateMachine
from repro.workloads.registry import build_pattern


@pytest.fixture(scope="module")
def pattern():
    return build_pattern("fifo", 4, 4)


# ---------------------------------------------------------------------------
# Spec plumbing: default-off, default-omitted, never in job keys
# ---------------------------------------------------------------------------

def test_lint_field_defaults_off_and_is_omitted():
    spec = FlowSpec()
    assert spec.lint == 0
    assert "lint" not in spec.to_spec()
    assert "lint" not in spec.to_spec(job_key=True)


def test_lint_field_serialises_when_set_but_never_in_job_keys():
    spec = FlowSpec(lint=1)
    assert spec.to_spec()["lint"] == 1
    # Diagnostic knob: selecting lint must not re-key (and so re-evaluate)
    # any cached point.
    assert "lint" not in spec.to_spec(job_key=True)
    assert FlowSpec.from_spec(spec.to_spec()) == spec


def test_lint_field_is_validated():
    with pytest.raises(ValueError):
        FlowSpec(lint=-1)
    with pytest.raises(TypeError):
        FlowSpec(lint=True)


def test_job_keys_identical_with_and_without_lint():
    plain = EvalJob("fifo", 4, 4, "SRAG", "two-hot", FlowSpec())
    linted = EvalJob("fifo", 4, 4, "SRAG", "two-hot", FlowSpec(lint=1))
    assert plain.key == linted.key
    assert plain.to_spec() == linted.to_spec()


# ---------------------------------------------------------------------------
# Flow stage + SynthesisResult surface
# ---------------------------------------------------------------------------

def test_flow_attaches_lint_report_only_when_enabled(pattern):
    from repro.engine.jobs import build_design

    design = build_design(pattern, "SRAG", "two-hot")
    off = design.synthesize(spec=FlowSpec())
    assert off.lint_report is None
    on = design.synthesize(spec=FlowSpec(lint=1))
    assert on.lint_report is not None
    assert on.lint_report.findings == []
    assert on.lint_report.checked > 0
    # Lint must not perturb the measured result.
    assert on.delay_ns == off.delay_ns
    assert on.area_cells == off.area_cells


def test_run_synthesis_flow_lints_the_working_copy(pattern):
    from repro.engine.jobs import build_design

    netlist = build_design(pattern, "CntAG", "decoders").netlist
    before = (sorted(netlist.nets), sorted(netlist.cells))
    result = run_synthesis_flow(netlist, spec=FlowSpec(lint=1, opt_level=1))
    assert result.lint_report is not None
    assert result.lint_report.target == result.netlist.name
    # The caller's netlist is untouched (flow clones before rewriting).
    assert (sorted(netlist.nets), sorted(netlist.cells)) == before


def test_fsm_generator_feeds_its_machine_to_the_linter(pattern):
    design = FsmAddressGenerator(pattern.to_sequence(), encoding="binary")
    context = design.lint_context()
    assert isinstance(context["fsm"], FiniteStateMachine)
    result = design.synthesize(spec=FlowSpec(lint=1))
    assert result.lint_report is not None
    assert result.lint_report.findings == []


# ---------------------------------------------------------------------------
# EvalRecord: volatile findings, byte-identical serialisation
# ---------------------------------------------------------------------------

def test_evaluate_job_collects_findings_but_never_serialises_them():
    record = evaluate_job(EvalJob("fifo", 4, 4, "SRAG", "two-hot", FlowSpec(lint=1)))
    assert record.status == "ok"
    assert record.lint_findings == []  # clean design: empty, but collected
    assert "lint_findings" not in record.to_dict()


def test_record_jsonl_byte_identical_with_lint_on_and_off():
    job_off = EvalJob("dct", 4, 4, "CntAG", "decoders", FlowSpec())
    job_on = EvalJob("dct", 4, 4, "CntAG", "decoders", FlowSpec(lint=1))
    record_off = evaluate_job(job_off)
    record_on = evaluate_job(job_on)
    # duration_s is volatile run-to-run noise that predates linting;
    # normalise it, then demand byte identity of the serialised form.
    record_off.duration_s = record_on.duration_s = 0.0
    assert json.dumps(record_off.to_dict(), sort_keys=True) == json.dumps(
        record_on.to_dict(), sort_keys=True
    )


def test_record_with_findings_round_trips_without_them():
    record = EvalRecord(
        workload="w", rows=4, cols=4, style="SRAG", variant="two-hot",
        library="std018", key="k", status="ok",
        lint_findings=[{"rule": "design.dangling-net", "severity": "warning"}],
    )
    data = record.to_dict()
    assert "lint_findings" not in data
    rebuilt = EvalRecord.from_dict(data, cached=True)
    assert rebuilt.lint_findings == []
    assert rebuilt.cached


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

def test_cli_lint_flag_on_generate_path(capsys):
    code = main(
        ["--workload", "fifo", "--rows", "4", "--cols", "4", "--lint"]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "lint: 0 finding(s)" in captured.out


def test_cli_lint_flag_on_campaign_path(capsys):
    code = main(["--campaign", "smoke", "--lint", "--serial", "--quiet"])
    captured = capsys.readouterr()
    assert code == 0
    # 15 of the 16 jobs: the skipped dct SFM job never reaches the linter.
    assert (
        "lint: 0 error-severity finding(s) over 15 freshly linted record(s)"
        in captured.out
    )


# ---------------------------------------------------------------------------
# Disabled-path overhead floor (the NULL_SPAN pattern from PR 6)
# ---------------------------------------------------------------------------

def test_lint_disabled_path_overhead_floor(pattern):
    """Best-of-3: the lint-off gate must stay in noise territory.

    Mirrors test_disabled_tracer_overhead_floor: the disabled branch is one
    falsy attribute test, so a regression that starts resolving libraries or
    walking the netlist with linting off shows up as an order of magnitude.
    """
    from repro.engine.jobs import build_design

    netlist = build_design(pattern, "SRAG", "two-hot").netlist
    spec = FlowSpec()
    n = 200_000

    def gated_loop():
        for _ in range(n):
            lint_netlist_if_enabled(netlist, spec)

    elapsed = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        gated_loop()
        elapsed = min(elapsed, time.perf_counter() - start)
    # ~2.5 us per disabled call is an order of magnitude above observed cost.
    assert elapsed < n * 2.5e-6, f"lint-off overhead too high: {elapsed:.3f}s"
