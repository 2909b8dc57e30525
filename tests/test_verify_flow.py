"""repro.verify in the flow: the CEC-off path is byte-identical, the CEC-on
path (``FlowSpec.cec`` / ``--cec``) surfaces verdicts through
SynthesisResult, EvalRecord and the CLI without perturbing cache keys or
serialised records -- the same diagnostic-knob contract as lint
(tests/test_lint_flow.py)."""

import json

import pytest

from repro.cli import main
from repro.engine.jobs import EvalJob
from repro.engine.runner import EvalRecord, evaluate_job
from repro.flow import FlowSpec
from repro.obs import metrics
from repro.workloads.registry import build_pattern


@pytest.fixture(scope="module")
def pattern():
    return build_pattern("fifo", 4, 4)


# ---------------------------------------------------------------------------
# Spec plumbing: default-off, default-omitted, never in job keys
# ---------------------------------------------------------------------------

def test_verify_field_defaults_off_and_is_omitted():
    spec = FlowSpec()
    assert spec.cec == 0
    assert "cec" not in spec.to_spec()
    assert "cec" not in spec.to_spec(job_key=True)


def test_verify_field_serialises_when_set_but_never_in_job_keys():
    spec = FlowSpec(cec=1)
    assert spec.to_spec()["cec"] == 1
    assert "cec" not in spec.to_spec(job_key=True)
    assert FlowSpec.from_spec(spec.to_spec()) == spec


def test_verify_field_is_validated():
    with pytest.raises(ValueError):
        FlowSpec(cec=-1)
    with pytest.raises(TypeError):
        FlowSpec(cec=True)


def test_job_keys_identical_with_and_without_verify():
    plain = EvalJob("fifo", 4, 4, "SRAG", "two-hot", FlowSpec())
    verified = EvalJob("fifo", 4, 4, "SRAG", "two-hot", FlowSpec(cec=1))
    assert plain.key == verified.key
    assert plain.to_spec() == verified.to_spec()


# ---------------------------------------------------------------------------
# Flow stage + SynthesisResult surface
# ---------------------------------------------------------------------------

def test_flow_attaches_cec_report_only_when_enabled(pattern):
    from repro.engine.jobs import build_design

    design = build_design(pattern, "SRAG", "two-hot")
    off = design.synthesize(spec=FlowSpec(opt_level=1))
    assert off.cec_report is None
    on = design.synthesize(spec=FlowSpec(opt_level=1, cec=1))
    assert on.cec_report is not None
    assert on.cec_report.equivalent and on.cec_report.proven
    # The proof must not perturb the measured result.
    assert on.delay_ns == off.delay_ns
    assert on.area_cells == off.area_cells


def test_flow_verifies_working_copy_against_callers_netlist(pattern):
    from repro.engine.jobs import build_design
    from repro.synth.flow import run_synthesis_flow

    netlist = build_design(pattern, "CntAG", "decoders").netlist
    before = (sorted(netlist.nets), sorted(netlist.cells))
    result = run_synthesis_flow(netlist, spec=FlowSpec(opt_level=1, cec=1))
    assert result.cec_report is not None
    assert result.cec_report.equivalent
    # The caller's netlist is untouched (the flow clones before rewriting).
    assert (sorted(netlist.nets), sorted(netlist.cells)) == before


# ---------------------------------------------------------------------------
# EvalRecord: volatile verdicts, byte-identical serialisation
# ---------------------------------------------------------------------------

def test_evaluate_job_collects_verdict_but_never_serialises_it():
    record = evaluate_job(
        EvalJob("fifo", 4, 4, "SRAG", "two-hot", FlowSpec(cec=1))
    )
    assert record.status == "ok"
    assert record.cec_result is not None
    assert record.cec_result["equivalent"] is True
    assert "cec_result" not in record.to_dict()


def test_record_jsonl_byte_identical_with_verify_on_and_off():
    record_off = evaluate_job(
        EvalJob("dct", 4, 4, "CntAG", "decoders", FlowSpec())
    )
    record_on = evaluate_job(
        EvalJob("dct", 4, 4, "CntAG", "decoders", FlowSpec(cec=1))
    )
    record_off.duration_s = record_on.duration_s = 0.0
    assert json.dumps(record_off.to_dict(), sort_keys=True) == json.dumps(
        record_on.to_dict(), sort_keys=True
    )


def test_record_with_verdict_round_trips_without_it():
    record = EvalRecord(
        workload="w", rows=4, cols=4, style="SRAG", variant="two-hot",
        library="std018", key="k", status="ok",
        cec_result={"equivalent": True, "method": "induction"},
    )
    data = record.to_dict()
    assert "cec_result" not in data
    rebuilt = EvalRecord.from_dict(data, cached=True)
    assert rebuilt.cec_result is None
    assert rebuilt.cached


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

def test_cli_verify_flag_on_generate_path(capsys):
    code = main(
        ["--workload", "fifo", "--rows", "4", "--cols", "4", "--cec"]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "cec: equivalent" in captured.out


def test_cli_verify_flag_on_campaign_path(capsys):
    code = main(["--campaign", "smoke", "--cec", "--serial", "--quiet"])
    captured = capsys.readouterr()
    assert code == 0
    assert "cec: 0 proven-inequivalent record(s)" in captured.out


# ---------------------------------------------------------------------------
# Guard: --cec and --lint compose in one flow
# ---------------------------------------------------------------------------

def test_verify_and_lint_compose_in_one_flow(pattern):
    from repro.engine.jobs import build_design

    design = build_design(pattern, "SRAG", "two-hot")
    result = design.synthesize(spec=FlowSpec(opt_level=1, lint=1, cec=1))
    assert result.lint_report is not None
    assert result.cec_report is not None
    assert result.lint_report.findings == []
    assert result.cec_report.equivalent


def test_cli_verify_and_lint_combined_generate(capsys):
    code = main(
        ["--workload", "fifo", "--rows", "4", "--cols", "4",
         "--cec", "--lint"]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "lint: 0 finding(s)" in captured.out
    assert "cec: equivalent" in captured.out


def test_cli_verify_and_lint_combined_campaign(capsys):
    code = main(
        ["--campaign", "smoke", "--cec", "--lint", "--serial", "--quiet"]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "lint: 0 error-severity finding(s)" in captured.out
    assert "cec: 0 proven-inequivalent record(s)" in captured.out


def test_cli_cec_summary_counts_only_records_with_a_verdict(tmp_path, capsys):
    """Skipped records (dct SFM) and cached records carry no verdict."""
    argv = ["--campaign", "smoke", "--cec", "--serial", "--quiet",
            "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    assert (
        "cec: 0 proven-inequivalent record(s) over 15 checked record(s)"
        in capsys.readouterr().out
    )
    assert main(argv) == 0
    assert (
        "cec: 0 proven-inequivalent record(s) over 0 checked record(s)"
        in capsys.readouterr().out
    )


# ---------------------------------------------------------------------------
# One check per flag, each runs alone; no flag reports a check that never ran
# ---------------------------------------------------------------------------

_FIFO = ["--workload", "fifo", "--rows", "4", "--cols", "4"]


def _usage_error_line(argv, capsys):
    """Run ``argv``; it must exit 2 with exactly one ``sradgen: error:`` line."""
    with pytest.raises(SystemExit) as exit:
        main(argv)
    err = capsys.readouterr().err
    assert exit.value.code == 2
    assert "Traceback" not in err
    (line,) = [line for line in err.splitlines() if line.startswith("sradgen: error:")]
    return line


def test_cli_cec_runs_without_the_gate_level_sequence_check(capsys):
    before = metrics.counter("sim.compiled.cycles")
    assert main(_FIFO + ["--cec", "--no-verify"]) == 0
    assert "cec: equivalent" in capsys.readouterr().out
    assert metrics.counter("sim.compiled.cycles") == before
    assert main(_FIFO + ["--cec"]) == 0
    assert metrics.counter("sim.compiled.cycles") > before


def test_cli_rejects_the_retired_verify_flag(capsys):
    line = _usage_error_line(_FIFO + ["--verify"], capsys)
    assert "--verify" in line


@pytest.mark.parametrize("check", ["--lint", "--cec"])
def test_cli_connect_refuses_checks_whose_results_never_come_back(check, capsys):
    # Refused before any connection is attempted, so no server is needed.
    line = _usage_error_line(
        ["--campaign", "smoke", check, "--connect", "127.0.0.1:9"], capsys
    )
    assert "--connect" in line and check in line


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["--campaign", "smoke", "--no-verify"], "--no-verify"),
        (_FIFO + ["--explore", "--no-verify"], "--no-verify"),
        (_FIFO + ["--explore", "--connect", "127.0.0.1:9"], "--connect"),
    ],
    ids=["campaign-no-verify", "explore-no-verify", "explore-connect"],
)
def test_cli_refuses_flags_the_mode_would_ignore(argv, flag, capsys):
    # Refused before any evaluation or connection is attempted.
    line = _usage_error_line(argv, capsys)
    assert flag in line


@pytest.mark.parametrize("check", ["--lint", "--cec"])
def test_cli_explore_refuses_checks_it_cannot_report(check, capsys):
    line = _usage_error_line(_FIFO + ["--explore", check], capsys)
    assert "--explore" in line and check in line
