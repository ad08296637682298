import io
import json
import os
import tracemalloc
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bellseries import fileio, refdata, sica
from bellseries.cli import _load_input
from bellseries.errors import BellSeriesError, ParseError
from bellseries.model import (
    ASetting,
    BSetting,
    RecordedRun,
    Schedule,
    SeriesTable,
    block_halves,
    custom_schedule,
    random_per_slot,
    table_from_run,
)
from bellseries.oracle import EnumSpec, max_chsh
from bellseries.sica import fill_counterfactual
from bellseries.simulate import SourceConfig, simulate

from conftest import event_logs, json_values, recorded_runs, table_objects


def test_simulate_is_reproducible(cli, tmp_path):
    out1 = tmp_path / "r1.jsonl"
    out2 = tmp_path / "r2.jsonl"
    args = ["simulate", "--seed", "7", "--slots", "40", "--schedule", "random"]
    assert cli(*args, "--output", str(out1)) == 0
    assert cli(*args, "--output", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_report_matches_analyze(cli, tmp_path, capsys):
    out = tmp_path / "run.jsonl"
    assert cli("simulate", "--seed", "3", "--slots", "100",
               "--schedule", "random", "--output", str(out)) == 0
    sim_report = json.loads(capsys.readouterr().out)
    assert cli("analyze", "--input", str(out)) == 0
    analysis = json.loads(capsys.readouterr().out)
    analysis.pop("detectors")
    assert analysis == sim_report["analysis"]


def test_analyze_empty_event_log(cli, tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert cli("analyze", "--input", str(empty), "--format", "text") == 0
    out = capsys.readouterr().out
    assert "S undefined" in out
    assert "N_c = 0" in out
    # No slots measure nothing, so no set verdict is reported on them.
    assert "counting bound" not in out and "fully measured" not in out
    table = tmp_path / "empty.json"
    table.write_text(json.dumps({"slots": 0, "a": [], "b": [], "a_prime": [], "b_prime": []}))
    for path in (empty, table):
        assert cli("analyze", "--input", str(path)) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["slots"] == 0 and report["fully_measured"] is False
        assert "set_stats" not in report and "cardinality_bound" not in report


def test_analyze_writes_report_file(cli, tmp_path, read_json):
    runfile = tmp_path / "run.jsonl"
    fileio.write_run_file(refdata.fig5(), str(runfile))
    report_path = tmp_path / "report.json"
    assert cli("analyze", "--input", str(runfile),
               "--output", str(report_path)) == 0
    report = read_json(report_path)
    assert report["schema_version"] == 1


def test_figures_emit_the_reference_stats(cli, tmp_path, read_json):
    assert cli("figures", "--output", str(tmp_path)) == 0
    stats = read_json(tmp_path / "fig3.stats.json")
    assert (stats["chsh"]["s"]["num"], stats["chsh"]["s"]["den"]) == (16, 7)
    assert (stats["efficiency"]["eta"]["num"],
            stats["efficiency"]["eta"]["den"]) == (14, 15)
    assert stats["cardinality_bound"]["rhs"] == 32

    black = read_json(tmp_path / "fig6-black.stats.json")
    assert black["chsh"]["s"]["num"] == 4
    assert black["reorder"]["success"] is False

    fig8 = read_json(tmp_path / "fig8.table.json")
    assert fig8 == fileio.table_to_json(
        refdata.fig8().table, refdata.fig8().provenance
    )


def test_single_figure_selection(cli, tmp_path):
    assert cli("figures", "--which", "fig7", "--output", str(tmp_path)) == 0
    assert (tmp_path / "fig7.table.json").exists()
    assert not (tmp_path / "fig2.table.json").exists()


def test_completion_command_reproduces_published_table(cli, tmp_path, read_json):
    events = tmp_path / "black.jsonl"
    fileio.write_run_file(refdata.fig6("black"), str(events))
    out = tmp_path / "complete.json"
    assert cli("sica-complete", "--input", str(events),
               "--free-choices", "1,2", "--output", str(out)) == 0
    expected = fileio.table_to_json(refdata.fig8().table, refdata.fig8().provenance)
    assert read_json(out) == expected


def test_reorder_then_condense_pipeline(cli, tmp_path, capsys):
    events = tmp_path / "red.jsonl"
    fileio.write_run_file(refdata.fig6("red"), str(events))
    fixed = tmp_path / "red_fixed.jsonl"
    assert cli("sica-reorder", "--input", str(events),
               "--output", str(fixed)) == 0
    reorder_report = json.loads(capsys.readouterr().out)
    assert reorder_report["success"] is True
    cond = tmp_path / "red_cond.json"
    assert cli("sica-condense", "--input", str(fixed),
               "--output", str(cond)) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["analysis"]["chsh"]["s"] == {
        "num": 2, "den": 1, "decimal": 2.0,
    }


def test_check_command_reports_witnesses(cli, tmp_path, capsys):
    events = tmp_path / "fig5.jsonl"
    fileio.write_run_file(refdata.fig5(), str(events))
    assert cli("sica-check", "--input", str(events)) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["holds"] is False
    assert verdict["witnesses"][0]["row"] == "a"


def test_fill_zeros_policy(cli, tmp_path, capsys):
    events = tmp_path / "black.jsonl"
    fileio.write_run_file(refdata.fig6("black"), str(events))
    assert cli("fill", "zeros", "--input", str(events)) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["analysis"]["efficiency"]["verdict"] == "not_applicable"


@pytest.mark.parametrize("extra", [("sica",), ("zeros", "--budget", "1"),
                                   ("zeros", "--free-choices", "1,2")],
                         ids=["sica-policy", "budget", "free-choices"])
def test_fill_is_only_the_zeros_policy(cli, tmp_path, capsys, extra):
    # Completion is sica-complete's alone: fill takes no policy or flag of it.
    events = tmp_path / "black.jsonl"
    fileio.write_run_file(refdata.fig6("black"), str(events))
    assert cli("fill", *extra, "--input", str(events)) == 2
    assert capsys.readouterr().err.startswith("usage: ")


def test_oracle_command(cli, capsys):
    assert cli("oracle", "--objective", "chsh", "--slots", "4",
               "--constraint", "sica") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["max"]["num"] == 2
    assert report["tables_scanned"] == 256


def test_oracle_lists_no_witnesses_at_cap_zero(cli, capsys):
    assert cli("oracle", "--objective", "chsh", "--slots", "2", "--witnesses", "0") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["max"]["num"] == 2 and report["witnesses"] == []


def test_exit_code_for_missing_input(cli, capsys):
    assert cli("analyze", "--input", "/no/such/file.jsonl") == 3
    assert "cannot read" in capsys.readouterr().err


def test_exit_code_for_usage_errors(cli, capsys):
    assert cli("frobnicate") == 2
    capsys.readouterr()
    assert cli("simulate", "--seed", "1", "--slots", "8") == 2
    capsys.readouterr()


def test_exit_code_for_budget_refusal(cli, capsys):
    assert cli("oracle", "--objective", "chsh", "--slots", "7") == 3
    assert "budget" in capsys.readouterr().err


def test_schedule_from_file(cli, tmp_path):
    sched_path = tmp_path / "sched.json"
    sched_path.write_text(json.dumps(random_per_slot(16, 5).to_json()))
    out = tmp_path / "run.jsonl"
    assert cli("simulate", "--seed", "2", "--slots", "16",
               "--schedule", f"file:{sched_path}", "--output", str(out)) == 0
    run = fileio.read_run_file(str(out))
    assert run.schedule == random_per_slot(16, 5)


def test_text_format_renders_rationals(cli, tmp_path, capsys):
    tabfile = tmp_path / "fig3.json"
    fileio.write_json_atomic(str(tabfile), fileio.table_to_json(refdata.fig3()))
    assert cli("analyze", "--input", str(tabfile), "--format", "text") == 0
    out = capsys.readouterr().out
    assert "S = 16/7" in out
    assert "eta = 14/15" in out


@pytest.mark.parametrize("text", [
    '{"slots": 1, "a": [true], "b": [1], "a_prime": [1], "b_prime": [1]}',
    '{"slots": 1, "a": [1.0], "b": [1], "a_prime": [1], "b_prime": [1]}',
    '{"slot": 0, "a_setting": "alpha", "b_setting": "beta", "a": true, "b": 1}',
    '{"slot": 0, "a_setting": "alpha", "b_setting": "beta", "a": 1, "b": 1}\n'
    '{"slot": true, "a_setting": "alpha", "b_setting": "beta", "a": 1, "b": 1}',
], ids=["table-bool", "table-float", "event-bool", "slot-bool"])
def test_lookalike_values_exit_3(cli, tmp_path, capsys, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    assert cli("analyze", "--input", str(path)) == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_check_refuses_partial_table_without_schedule(cli, tmp_path, capsys):
    tabfile = tmp_path / "partial.json"
    fileio.write_json_atomic(
        str(tabfile), fileio.table_to_json(table_from_run(refdata.fig5()))
    )
    data = json.loads(tabfile.read_text())
    data["a"][0] = data["a_prime"][0] = None  # slot 0 now has no A setting
    tabfile.write_text(json.dumps(data))
    assert cli("sica-check", "--input", str(tabfile)) == 3
    assert "without a schedule" in capsys.readouterr().err


_TABLE = {"slots": 2, "a": [1, -1], "b": [1, 1], "a_prime": [-1, -1], "b_prime": [1, -1]}


@pytest.mark.parametrize("provenance", [
    ["a", "b", "a_prime", "b_prime"],
    "abab",
    {"a": 1, "b": ["F", "C"], "a_prime": ["F", "C"], "b_prime": ["F", "C"]},
    {"a": ["F", "C"], "b": ["F", "C"], "a_prime": ["F", "C"]},
    {"a": ["F", "X"], "b": ["F", "C"], "a_prime": ["C", "F"], "b_prime": ["C", "F"]},
    {"a": ["F"], "b": ["F", "C"], "a_prime": ["C", "F"], "b_prime": ["C", "F"]},
], ids=["list", "string", "int-marks", "missing-row", "x-mark", "short-row"])
def test_malformed_provenance_exits_3(cli, tmp_path, capsys, provenance):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(dict(_TABLE, provenance=provenance)))
    assert cli("analyze", "--input", str(path)) == 3
    assert "provenance" in capsys.readouterr().err


_DEEP = "[" * 200_000
_LONG = "1" * 5_000


@pytest.mark.parametrize(
    "content",
    [None, '{"a_settings": ["alpha"', '{"a_settings": ' + _DEEP, '{"seed": ' + _LONG + "}"],
    ids=["missing", "bad-json", "nested", "long-int"],
)
def test_bad_schedule_file_exits_3(cli, tmp_path, capsys, content):
    sched = tmp_path / "sched.json"
    if content is not None:
        sched.write_text(content)
    out = tmp_path / "run.jsonl"
    assert cli("simulate", "--seed", "1", "--slots", "4",
               "--schedule", f"file:{sched}", "--output", str(out)) == 3
    assert str(sched) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text", [
    _DEEP,
    '{"meta": null}\n' + _DEEP,
    '{"slots": 1, "a": ' + _DEEP,
    '{"a": 1, "a_setting": "alpha", "b": 1, "b_setting": "beta", "slot": ' + _LONG + "}",
    '{"meta": null}\n{"a": 1, "a_setting": "alpha", "b": 1, "b_setting": "beta", "slot": 0}\n'
    '{"a": 1, "a_setting": "alpha", "b": 1, "b_setting": "beta", "slot": ' + _LONG + "}",
    '{"slots": ' + _LONG + ', "a": [], "b": [], "a_prime": [], "b_prime": []}',
], ids=["log-nested", "log-nested-line-2", "table-nested",
        "log-long-slot", "log-long-slot-line-3", "table-long-slots"])
def test_hostile_json_exits_3(cli, tmp_path, capsys, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    assert cli("analyze", "--input", str(path)) == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_input_that_is_not_utf8_exits_3(cli, tmp_path, capsys):
    path = tmp_path / "run.jsonl"
    path.write_bytes(b'{"meta": "\xff"}\n')
    assert cli("analyze", "--input", str(path)) == 3
    assert "UTF-8" in capsys.readouterr().err


def test_event_log_is_read_once(cli, tmp_path, capsys, monkeypatch):
    import builtins

    events = tmp_path / "red.jsonl"
    fileio.write_run_file(refdata.fig6("red"), str(events))
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    assert cli("analyze", "--input", str(events)) == 0
    assert opened.count(str(events)) == 1
    assert json.loads(capsys.readouterr().out)["slots"] == refdata.fig6("red").slots


def test_a_streamed_log_is_never_held_whole(tmp_path):
    config = SourceConfig(model="quantum", schedule=random_per_slot(50_000, 1), seed=2, eta=0.9)
    run = simulate(config)
    path = tmp_path / "run.jsonl"
    fileio.write_run_file(run, str(path))
    _load_input(str(path))
    tracemalloc.start()
    try:
        loaded = _load_input(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded == (None, None, run) and loaded[2].meta == run.meta
    assert peak < 0.5 * path.stat().st_size


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_a_log_from_a_pipe_is_read_whole():
    run = refdata.fig6("red")
    buf = io.StringIO()
    fileio.write_run_events(run, buf)
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, buf.getvalue().encode("utf-8"))
        os.close(write_end)
        # A pipe cannot be rewound after its head is read.
        assert _load_input(f"/dev/fd/{read_end}") == (None, None, run)
    finally:
        os.close(read_end)


@pytest.mark.parametrize("bad_line", [False, True], ids=["good-lines", "bad-line-first"])
def test_a_bad_byte_past_the_first_block_exits_3_as_not_utf8(cli, tmp_path, capsys, bad_line):
    run = simulate(SourceConfig(model="quantum", schedule=random_per_slot(2_000, 1), seed=2))
    path = tmp_path / "run.jsonl"
    fileio.write_run_file(run, str(path))
    lines = path.read_bytes().splitlines(keepends=True)
    if bad_line:
        # Read whole, the file is refused for its encoding before any line
        # is parsed; streamed, it still is.
        lines[2] = b"{oops\n"
    lines.insert(-1, b'{"note": "\xff"}\n')
    data = b"".join(lines)
    assert data.index(b"\xff") > 2 * fileio._BLOCK
    path.write_bytes(data)
    assert cli("analyze", "--input", str(path)) == 3
    assert capsys.readouterr().err == f"error: {path} is not UTF-8 text: invalid start byte\n"


# --- a file is told apart by its head as by its whole text ------------------


def _load_by_whole_text(path):
    """The reference: a file is a table when ``json.loads`` of its whole text
    is an object with ``slots``, and an event log read from that text
    otherwise."""
    text = fileio.read_text(path)
    try:
        data = fileio.parse_json(text)
    except ParseError:
        data = None
    if isinstance(data, dict) and "slots" in data:
        return fileio.table_from_json(data), fileio.provenance_from_json(data), None
    return None, None, fileio.read_run_events(text)


def _loaded(load, path):
    try:
        table, provenance, run = load(path)
    except BellSeriesError as exc:
        return type(exc), str(exc)
    return table, provenance, run, run and run.meta


_COMPLETE = refdata.fig8()
_FIG8_LINE = json.dumps(fileio.table_to_json(_COMPLETE.table, _COMPLETE.provenance))
_SMALL_TABLE = '{"slots": 1, "a": [1], "b": [-1], "a_prime": [null], "b_prime": [null]}'
_META = '{"meta": {"seed": 1}}'
_LINES = "".join(
    json.dumps({"a": 1, "a_setting": "alpha", "b": -1, "b_setting": "beta", "slot": slot}) + "\n"
    for slot in range(3)
)
_PAD = "x" * (fileio._BLOCK + 10)
# Files by name, and whether their head shows them to be logs.
_INPUTS = {
    "log": (_META + "\n" + _LINES, True),
    "log-without-meta": (_LINES, True),
    "log-crlf": ((_META + "\n" + _LINES).replace("\n", "\r\n"), True),
    "log-line-without-newline": (_LINES.splitlines()[0], False),
    "log-of-a-meta-line": (_META + "\n\n \t\n", False),
    "log-blank-past-the-head": (_META + "\n" * (fileio._BLOCK + 5) + _LINES, False),
    "meta-longer-than-the-head": ('{"meta": "%s"}\n' % _PAD + _LINES, False),
    "one-line-table": (_FIG8_LINE, False),
    "one-line-table-newline": (_FIG8_LINE + "\n", False),
    "table-then-blank-lines": (_FIG8_LINE + "\n\n \t\r\n\n", False),
    "table-then-a-line": (_FIG8_LINE + "\n" + _LINES, True),
    "table-then-form-feed": (_FIG8_LINE + "\n\x0c\n", True),
    "table-longer-than-the-head": (_FIG8_LINE[:-1] + ', "pad": "%s"}\n' % _PAD, False),
    "indented-table": (fileio.json_text(json.loads(_FIG8_LINE)) + "\n", False),
    "indented-table-crlf": (fileio.json_text(json.loads(_FIG8_LINE)).replace("\n", "\r\n"), False),
    "open-brace-then-lines": ("{\n" + _LINES, False),
    "scalar-then-lines": ("3\n" + _LINES, True),
    "string-then-lines": ('"slots"\n' + _LINES, True),
    "array-then-lines": ("[1, 2]\n" + _LINES, True),
    "nested-first-line": ("[" * 200_000 + "\n" + _LINES, False),
    "long-int-first-line": ("1" * 5_000 + "\n" + _LINES, False),
    "empty": ("", False),
    "whitespace": (" \n\n\t", False),
    "bom-table": ("\ufeff" + _FIG8_LINE, False),
    "bom-log": ("\ufeff" + _META + "\n" + _LINES, False),
}


@pytest.mark.parametrize("name", sorted(_INPUTS))
def test_a_file_is_told_apart_by_its_head_as_by_its_whole_text(tmp_path, name):
    text, streamed = _INPUTS[name]
    path = tmp_path / "input"
    path.write_bytes(text.encode("utf-8"))
    assert _loaded(_load_input, str(path)) == _loaded(_load_by_whole_text, str(path))
    with open(path, encoding="utf-8") as fp:
        assert fileio.starts_a_log(fp) is streamed
        assert fp.tell() == 0


_FIRST_LINES = (_SMALL_TABLE, _META, "3", "[1, 2]", '"x"', "null", "{", "", " ", "\ufeff" + _META)
_LATER_LINES = (_SMALL_TABLE, _META, "}", "", " ", "\t", "\r", "\x0c", *_LINES.splitlines())


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(_FIRST_LINES), st.lists(st.sampled_from(_LATER_LINES), max_size=4),
       st.sampled_from(("", "\n", "\r\n")))
def test_any_file_is_told_apart_as_by_its_whole_text(tmp_path, first, later, end):
    path = tmp_path / "input"
    path.write_bytes("\n".join([first, *later]).encode("utf-8") + end.encode())
    assert _loaded(_load_input, str(path)) == _loaded(_load_by_whole_text, str(path))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=event_logs())
def test_analyze_on_fuzzed_event_logs_exits_0_or_3(cli, tmp_path, capsys, text):
    path = tmp_path / "fuzz.jsonl"
    path.write_text(text, encoding="utf-8")
    code = cli("analyze", "--input", str(path))
    captured = capsys.readouterr()
    assert code in (0, 3), captured.err
    assert (code == 3) == captured.err.startswith("error: ")


_SIM = ("simulate", "--seed", "1", "--slots", "8")
_LOG = "{log}"
_EMPTY_LOG = "{empty-log}"
_EMPTY_TABLE = "{empty-table}"
_SCHEDULE_4 = "{schedule-4}"


@pytest.mark.parametrize("argv, message", [
    ((*_SIM, "--angles", "a,0,0,0"), "--angles"),
    ((*_SIM, "--angles", "inf,0,0,0"), "finite"),
    ((*_SIM, "--angles", "nan,0,0,0"), "finite"),
    ((*_SIM, "--angles", "1e308,0,-1e308,0"), "finite"),
    (("simulate", "--seed", "1", "--slots", "-4", "--schedule", "random"), "--slots"),
    # 10^15 slots: every per-slot allocation fails at once, touching no memory.
    (("simulate", "--seed", "1", "--slots", str(10**15)),
     f"--slots {10**15}: that many slots do not fit"),
    (("simulate", "--seed", "1", "--slots", str(10**15), "--schedule", "random"),
     f"--slots {10**15}: that many slots do not fit"),
    (("simulate", "--seed", "-1", "--slots", "8"), "--seed"),
    (("oracle", "--objective", "chsh", "--slots", "2", "--constraint", "eta>=abc"),
     "not a rational number"),
    (("oracle", "--objective", "chsh", "--slots", "2", "--constraint", "eta>=1/0"),
     "not a rational number"),
    # A denominator this fine wrapped the sweep's int64 products into a wrong count.
    (("oracle", "--objective", "s-eta", "--slots", "2", "--alphabet", "pmz", "--constraint",
      "eta>=4611686018427387903/4611686018427387904"), "efficiency threshold is too fine"),
    (("oracle", "--objective", "s-eta", "--slots", "2", "--alphabet", "pmz", "--constraint",
      "eta<1/10000000000000000000000"), "efficiency threshold is too fine"),
    (("oracle", "--objective", "s-eta", "--slots", "2", "--alphabet", "pmz", "--constraint",
      "eta>=1e5000"), "Q's exponent exceeds"),
    (("sica-reorder", "--input", _LOG, "--budget", "-3"), "--budget"),
    (("sica-complete", "--input", _LOG, "--free-choices", "1,2", "--budget", "-3"),
     "--budget"),
    (("oracle", "--objective", "chsh", "--slots", "4000"), "2^16000 tables"),
    ((*_SIM, "--model", "deterministic", "--input", _EMPTY_TABLE),
     "instruction table has no slots"),
    (("sica-complete", "--input", _EMPTY_LOG, "--free-choices", "0,0"),
     "positive slot count"),
    ((*_SIM, "--schedule", "file:" + _SCHEDULE_4), "covers 4 slots, not 8"),
    (("oracle", "--objective", "chsh", "--slots", "2", "--witnesses", "-3"), "--witnesses"),
    (("sica-check", "--input", _EMPTY_LOG), "table has no slots"),
    (("sica-check", "--input", _EMPTY_TABLE), "table has no slots"),
    (("sica-condense", "--input", _EMPTY_LOG), "table has no slots"),
    (("sica-condense", "--input", _EMPTY_TABLE), "table has no slots"),
    (("sica-complete", "--input", _LOG, "--free-choices", "zz,1"), "'zz' is not hexadecimal"),
    (("sica-complete", "--input", _LOG, "--free-choices", "15,1"),
     "word 0x15 does not fit 2 bits"),
    (("oracle", "--objective", "chsh", "--slots", "1", "--constraint", "bogus"),
     "unknown constraint 'bogus'"),
    ((*_SIM, "--model", "deterministic"), "--model deterministic reads its instruction table"),
    (("figures", "--which", "nope"), "unknown dataset 'nope'"),
], ids=["angles-word", "angles-inf", "angles-nan", "angles-overflow", "negative-slots",
        "impossible-slots-block", "impossible-slots-random", "negative-seed", "constraint-word",
        "constraint-div-zero", "constraint-fine-wraps", "constraint-fine-overflows",
        "constraint-huge-exponent",
        "reorder-budget", "complete-budget",
        "oracle-huge-slots", "simulate-empty-instructions", "complete-empty-log",
        "simulate-schedule-file-length", "oracle-witnesses",
        "check-empty-log", "check-empty-table", "condense-empty-log", "condense-empty-table",
        "free-choice-not-hex", "free-choice-too-wide", "oracle-unknown-constraint",
        "simulate-deterministic-without-input", "figures-unknown-dataset"])
def test_bad_arguments_exit_3(cli, tmp_path, capsys, argv, message):
    files = {_LOG: tmp_path / "black.jsonl", _EMPTY_LOG: tmp_path / "empty.jsonl",
             _EMPTY_TABLE: tmp_path / "empty.json", _SCHEDULE_4: tmp_path / "sched4.json"}
    fileio.write_run_file(refdata.fig6("black"), str(files[_LOG]))
    files[_EMPTY_LOG].write_text("")
    files[_EMPTY_TABLE].write_text(
        json.dumps({"slots": 0, "a": [], "b": [], "a_prime": [], "b_prime": []})
    )
    files[_SCHEDULE_4].write_text(json.dumps(random_per_slot(4, 1).to_json()))
    argv = [a.replace(_SCHEDULE_4, str(files[_SCHEDULE_4])) for a in argv]
    out = tmp_path / "out.jsonl"
    argv = [str(files[a]) if a in files else a for a in argv]
    if argv[0] == "simulate":
        argv += ["--output", str(out)]
    assert cli(*argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert len(err) < 200
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("analyze", "--input", "fig5.jsonl", "--output", "nodir/out.json"),
    ("simulate", "--seed", "1", "--slots", "8", "--output", "nodir/run.jsonl"),
    ("simulate", "--seed", "1", "--slots", "8", "--output", "."),
    ("figures", "--output", "fig5.jsonl"),
], ids=["analyze-no-dir", "simulate-no-dir", "simulate-onto-cwd", "figures-onto-a-file"])
def test_unwritable_output_exits_3(cli, tmp_path, capsys, monkeypatch, argv):
    work = tmp_path / "work"
    work.mkdir()
    fileio.write_run_file(refdata.fig5(), str(work / "fig5.jsonl"))
    monkeypatch.chdir(work)
    assert cli(*argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {argv[-1]}: ")
    # "." writes its temp file beside the working directory, in tmp_path.
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["fig5.jsonl", "work"]


_OFF_SCHEDULE = {"slots": 4, "a": [None, None, 1, 1], "b": [1, 1, 1, 1],
                 "a_prime": [None] * 4, "b_prime": [None] * 4}


def test_condense_refuses_cells_off_the_schedule(cli, tmp_path, capsys):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(_OFF_SCHEDULE))
    out = tmp_path / "condensed.json"
    assert cli("sica-condense", "--input", str(path), "--schedule", "block",
               "--output", str(out)) == 3
    assert "not run-derived" in capsys.readouterr().err
    assert not out.exists()


def test_check_refuses_cells_off_the_schedule(cli, tmp_path, capsys):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(_OFF_SCHEDULE))
    assert cli("sica-check", "--input", str(path), "--schedule", "block") == 3
    assert "not run-derived" in capsys.readouterr().err
    run = RecordedRun(random_per_slot(8, 3), (1,) * 8, (1,) * 8)
    fileio.write_json_atomic(str(path), fileio.table_to_json(table_from_run(run)))
    assert cli("sica-check", "--input", str(path), "--schedule", "block") == 3
    assert "do not follow the given schedule" in capsys.readouterr().err


def test_figure_tables_check_under_the_schedule_their_cells_fix(cli, tmp_path, capsys):
    """A completed table's factual cells fix its schedule: fig8's identity
    holds, its condensation fig9's fails on rows a' and b'.  A fully
    measured table without provenance fixes none and is refused."""
    assert cli("figures", "--output", str(tmp_path)) == 0
    capsys.readouterr()
    verdicts = {}
    for name in ("fig8", "fig9"):
        assert cli("sica-check", "--input", str(tmp_path / f"{name}.table.json")) == 0
        verdicts[name] = json.loads(capsys.readouterr().out)
    assert verdicts["fig8"]["holds"] is True
    assert verdicts["fig9"]["holds"] is False
    assert [w["row"] for w in verdicts["fig9"]["witnesses"]] == ["a_prime"] * 2 + ["b_prime"] * 2
    for name in ("fig2", "fig3", "fig7"):
        assert cli("sica-check", "--input", str(tmp_path / f"{name}.table.json")) == 3
        assert "without a schedule" in capsys.readouterr().err


def test_schedule_flag_on_a_completed_table_must_agree_with_its_provenance(cli, tmp_path,
                                                                          capsys):
    path = tmp_path / "fig8.json"
    fileio.write_json_atomic(str(path), fileio.table_to_json(refdata.fig8().table,
                                                             refdata.fig8().provenance))
    for command in ("sica-check", "sica-condense"):
        plain = cli(command, "--input", str(path)), capsys.readouterr()
        given = cli(command, "--input", str(path), "--schedule", "block")
        assert (given, capsys.readouterr()) == plain
        assert plain[0] == 0
    sched = tmp_path / "sched.json"
    sched.write_text(json.dumps(random_per_slot(8, 6).to_json()))
    for command in ("sica-check", "sica-condense"):
        assert cli(command, "--input", str(path), "--schedule", f"file:{sched}") == 3
        assert "do not follow the given schedule" in capsys.readouterr().err


def test_partial_table_with_provenance_exits_3(cli, tmp_path, capsys):
    data = fileio.table_to_json(refdata.fig8().table, refdata.fig8().provenance)
    data["a"][4] = None
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(data))
    for command in ("sica-check", "sica-condense"):
        assert cli(command, "--input", str(path)) == 3
        assert "no unmeasured cells" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sica-check", "sica-condense"])
@pytest.mark.parametrize("schedule", [(), ("--schedule", "block")], ids=["derived", "block"])
@pytest.mark.parametrize("marks", ["all-factual", "a-and-a-prime-factual"])
def test_factual_cells_that_fix_no_schedule_exit_3(cli, tmp_path, capsys, command, schedule,
                                                   marks):
    """A completed table's F marks record its schedule: one factual A and
    one factual B cell per slot.  Marks with more fix none, and a given
    schedule does not make up for them."""
    data = fileio.table_to_json(refdata.fig8().table, refdata.fig8().provenance)
    if marks == "all-factual":
        data["provenance"] = {key: ["F"] * 8 for key in data["provenance"]}
    else:
        data["provenance"]["a_prime"][0] = "F"  # a is factual at slot 0 already
    path = tmp_path / "marked.json"
    path.write_text(json.dumps(data))
    assert cli(command, "--input", str(path), *schedule) == 3
    err = capsys.readouterr().err
    assert "the table's factual cells fix no schedule: slot 0" in err


@pytest.mark.parametrize("argv", [
    ("sica-reorder",),
    ("sica-complete", "--free-choices", "1,2"),
    ("fill", "zeros"),
], ids=["sica-reorder", "sica-complete", "fill-zeros"])
def test_run_commands_refuse_a_table_file(cli, tmp_path, capsys, argv):
    path = tmp_path / "fig8.table.json"
    fileio.write_json_atomic(str(path), fileio.table_to_json(refdata.fig8().table,
                                                             refdata.fig8().provenance))
    assert cli(*argv, "--input", str(path)) == 3
    assert "works on event logs, not full tables" in capsys.readouterr().err


def test_figures_and_completion_write_one_shape_of_factual_correlations(cli, tmp_path,
                                                                      capsys, read_json):
    events = tmp_path / "black.jsonl"
    fileio.write_run_file(refdata.fig6("black"), str(events))
    assert cli("sica-complete", "--input", str(events), "--free-choices", "1,2") == 0
    completed = json.loads(capsys.readouterr().out)
    assert cli("figures", "--output", str(tmp_path)) == 0
    fig8 = read_json(tmp_path / "fig8.stats.json")
    assert fig8["identity_holds"] is True
    assert fig8["factual_correlations"] == completed["factual_correlations"]
    assert len(fig8["factual_correlations"]) == 4
    fig9 = read_json(tmp_path / "fig9.stats.json")
    assert fig9["identity_holds"] is False
    # Every pairing is listed, also one with no factual coincidence.
    assert fig9["factual_correlations"] == {
        "alpha:beta": {"n_c": 0, "e": None},
        "alpha:beta_prime": {"n_c": 2, "e": {"num": -1, "den": 1, "decimal": -1.0}},
        "alpha_prime:beta": {"n_c": 2, "e": {"num": 1, "den": 1, "decimal": 1.0}},
        "alpha_prime:beta_prime": {"n_c": 0, "e": None},
    }


def test_closed_stdout_is_not_an_internal_error(tmp_path):
    """A reader that has gone before the report is written (``| head``)
    gets exit 1 and no traceback or internal error on stderr."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "bellseries.cli", "oracle", "--objective", "chsh",
             "--slots", "2"],
            cwd=tmp_path, env=env, stdout=write_end, stderr=subprocess.PIPE, text=True,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert done.stderr == ""


@st.composite
def completion_inputs(draw):
    """An event log (block layout or any settings, with or without zeros)
    and a --free-choices text: two fitting hex words, or any text, one or
    three words, non-hex or too wide words."""
    slots = 4 * draw(st.integers(0, 3))
    if draw(st.integers(0, 4)) == 4:
        slots += draw(st.integers(1, 3))
    if slots % 4 == 0 and draw(st.integers(0, 3)):
        schedule = block_halves(slots)
    else:
        pick = st.lists(st.booleans(), min_size=slots, max_size=slots)
        schedule = custom_schedule(
            [ASetting.ALPHA_PRIME if x else ASetting.ALPHA for x in draw(pick)],
            [BSetting.BETA_PRIME if x else BSetting.BETA for x in draw(pick)],
        )
    values = st.sampled_from(draw(st.sampled_from(((-1, 1), (-1, 1), (-1, 0, 1)))))
    outcomes = st.lists(values, min_size=slots, max_size=slots)
    run = RecordedRun(schedule, tuple(draw(outcomes)), tuple(draw(outcomes)))
    quarter = max(slots // 4, 1)
    word = st.integers(0, (1 << quarter) - 1).map(lambda w: f"{w:x}")
    odd_word = st.one_of(
        word, st.integers(1 << quarter, 1 << (quarter + 8)).map(lambda w: f"{w:x}"),
        st.text(max_size=4),
    )
    choices = draw(st.one_of(
        st.tuples(word, word).map(",".join),
        st.lists(odd_word, min_size=1, max_size=3).map(",".join),
        st.text(max_size=8),
    ))
    return run, choices


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=completion_inputs(), budget=st.sampled_from((None, 0, 1, 2)))
def test_completion_commands_on_fuzzed_inputs_exit_0_or_3(cli, tmp_path, capsys, case, budget):
    run, choices = case
    log = tmp_path / "run.jsonl"
    fileio.write_run_file(run, str(log))
    extra = [] if budget is None else ["--budget", str(budget)]
    for argv in (("sica-complete", f"--free-choices={choices}", *extra), ("fill", "zeros")):
        code = cli(*argv, "--input", str(log))
        captured = capsys.readouterr()
        assert code in (0, 3), captured.err
        assert (code == 3) == captured.err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ("analyze",), ("sica-check",), ("sica-check", "--schedule", "block"), ("sica-condense",),
    ("sica-condense", "--schedule", "block"),
], ids=["analyze", "sica-check", "sica-check-block", "sica-condense", "sica-condense-block"])
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=table_objects())
def test_table_commands_on_fuzzed_tables_exit_0_or_3(cli, tmp_path, capsys, argv, data):
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code = cli(*argv, "--input", str(path))
    captured = capsys.readouterr()
    assert code in (0, 3), captured.err
    assert (code == 3) == captured.err.startswith("error: ")


_SCHEDULE_SLOTS = st.sampled_from((0, 4, 8, 8, 5))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(run=st.none() | recorded_runs(), text=event_logs(),
       budget=st.sampled_from((None, 0, 1, 3)))
def test_reorder_on_fuzzed_event_logs_exits_0_or_3(cli, tmp_path, capsys, run, text, budget):
    log = tmp_path / "run.jsonl"
    if run is None:
        log.write_text(text, encoding="utf-8")
    else:
        fileio.write_run_file(run, str(log))
    extra = [] if budget is None else ["--budget", str(budget)]
    code = cli("sica-reorder", "--input", str(log), "--output", str(tmp_path / "out.jsonl"),
               *extra)
    captured = capsys.readouterr()
    assert code in (0, 3), captured.err
    assert (code == 3) == captured.err.startswith("error: ")


@st.composite
def schedule_objects(draw):
    """Schedule-file objects: two settings lists of 0, 4, 5 or 8 names, with
    any kind and seed, then sometimes damaged: a list replaced by any JSON
    value, a key dropped, an entry replaced or one appended; or any JSON
    value at all."""
    if draw(st.integers(0, 5)) == 0:
        return draw(json_values)
    slots = draw(_SCHEDULE_SLOTS)
    data = {
        key: draw(st.lists(st.sampled_from(names), min_size=slots, max_size=slots))
        for key, names in (("a_settings", ("alpha", "alpha_prime")),
                           ("b_settings", ("beta", "beta_prime")))
    }
    for key in ("kind", "seed"):
        if draw(st.booleans()):
            data[key] = draw(json_values)
    for _ in range(draw(st.sampled_from((0, 0, 1, 2)))):
        key = draw(st.sampled_from(("a_settings", "b_settings")))
        target = draw(st.sampled_from(("list", "drop", "entry", "append")))
        if target == "list":
            data[key] = draw(json_values)
        elif target == "drop":
            data.pop(key, None)
        elif isinstance(data.get(key), list):
            if target == "append" or not data[key]:
                data[key].append(draw(json_values))
            else:
                data[key][draw(st.integers(0, len(data[key]) - 1))] = draw(json_values)
    return data


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=schedule_objects(), run=recorded_runs(_SCHEDULE_SLOTS), full=st.booleans())
def test_schedule_files_on_fuzzed_contents_exit_0_or_3(cli, tmp_path, capsys, data, run, full):
    sched = tmp_path / "sched.json"
    sched.write_text(json.dumps(data), encoding="utf-8")
    table = tmp_path / "table.json"
    cells = table_from_run(run)
    if full:
        cells = fill_counterfactual(run)
    fileio.write_json_atomic(str(table), fileio.table_to_json(cells))
    simulate = ("simulate", "--seed", "1", "--slots", "8", "--output", str(tmp_path / "o.jsonl"))
    for argv in (simulate, ("sica-check", "--input", str(table)),
                 ("sica-condense", "--input", str(table))):
        code = cli(*argv, "--schedule", f"file:{sched}")
        captured = capsys.readouterr()
        assert code in (0, 3), captured.err
        assert (code == 3) == captured.err.startswith("error: ")


def _random_log(tmp_path):
    """An 8-slot event log on a random schedule, which is not the block
    layout, whose series identity holds: it checks and condenses."""
    run = RecordedRun(random_per_slot(8, 6), (1,) * 8, (1,) * 8)
    assert run.schedule != block_halves(8)
    log = tmp_path / "random.jsonl"
    fileio.write_run_file(run, str(log))
    return run, log


@pytest.mark.parametrize("argv, message", [
    (("sica-check", "--schedule", "block"), "do not follow the given schedule"),
    (("sica-condense", "--schedule", "block"), "do not follow the given schedule"),
    (("sica-check", "--schedule", "random"), "only simulate"),
    (("sica-condense", "--schedule", "random"), "only simulate"),
    (("sica-condense", "--schedule", "nonsense"), "unknown schedule"),
], ids=["check-block", "condense-block", "check-random", "condense-random",
        "condense-nonsense"])
def test_schedule_flag_on_an_event_log_must_agree_with_it(cli, tmp_path, capsys, argv,
                                                          message):
    _, log = _random_log(tmp_path)
    out = tmp_path / "out.json"
    assert cli(*argv, "--input", str(log), "--output", str(out)) == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_a_log_is_read_under_its_own_schedule_not_derived_again(cli, tmp_path, capsys,
                                                                 monkeypatch):
    run, log = _random_log(tmp_path)
    sched = tmp_path / "sched.json"
    sched.write_text(json.dumps(run.schedule.to_json()))
    table = tmp_path / "table.json"
    table.write_text(json.dumps(fileio.table_to_json(table_from_run(run))))
    commands = ("sica-check", "sica-condense")
    expected = {c: (cli(c, "--input", str(table)), capsys.readouterr().out) for c in commands}

    def derive(_table):
        raise AssertionError("a log's schedule was derived from its table")

    monkeypatch.setattr(sica, "derive_schedule", derive)
    for command in commands:
        for flag in ((), ("--schedule", f"file:{sched}")):
            got = cli(command, "--input", str(log), *flag), capsys.readouterr().out
            assert got == expected[command]
    assert expected["sica-check"][0] == 0


def test_random_schedule_on_a_table_exits_3(cli, tmp_path, capsys):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(_TABLE))
    for command in ("sica-check", "sica-condense"):
        assert cli(command, "--input", str(path), "--schedule", "random") == 3
        assert "only simulate" in capsys.readouterr().err


def test_schedule_file_equal_to_the_log_gives_the_same_verdict(cli, tmp_path, capsys):
    run, log = _random_log(tmp_path)
    sched = tmp_path / "sched.json"
    sched.write_text(json.dumps(run.schedule.to_json()))
    for command in ("sica-check", "sica-condense"):
        plain = cli(command, "--input", str(log)), capsys.readouterr()
        given = cli(command, "--input", str(log), "--schedule", f"file:{sched}")
        assert (given, capsys.readouterr()) == plain
    assert plain[0] == 0
    block_log = tmp_path / "block.jsonl"
    fileio.write_run_file(refdata.fig5(), str(block_log))
    assert cli("sica-check", "--input", str(block_log)) == 0
    plain = capsys.readouterr().out
    assert cli("sica-check", "--input", str(block_log), "--schedule", "block") == 0
    assert capsys.readouterr().out == plain


def test_oracle_cardinality_command(cli, capsys):
    assert cli("oracle", "--objective", "cardinality", "--slots", "2",
               "--alphabet", "pmz") == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"command", "objective", "spec", "tables_scanned", "violations",
                           "min_slack", "witness", "elapsed_s"}
    assert report["spec"]["space_size"] == report["tables_scanned"] == 3 ** 8
    assert report["violations"] == 0
    assert report["min_slack"] == 0
    assert report["witness"] == fileio.table_to_json(
        SeriesTable.from_rows((-1, -1), (-1, -1), (-1, -1), (-1, -1))
    )


def test_oracle_cardinality_command_applies_the_constraint(cli, capsys):
    # No table has an efficiency below 0, so no table is admissible.
    assert cli("oracle", "--objective", "cardinality", "--slots", "2",
               "--alphabet", "pmz", "--constraint", "eta<0") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tables_scanned"] == 3 ** 8
    assert (report["violations"], report["min_slack"], report["witness"]) == (0, None, None)


def test_oracle_reads_a_strict_eta_constraint(cli, capsys):
    assert cli("oracle", "--objective", "chsh", "--slots", "1", "--constraint", "eta<1/2") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["spec"]["constraint"] == {"kind": "eta_below", "threshold": "1/2"}


def test_oracle_equal_nc_constraint(cli, capsys):
    assert cli("oracle", "--objective", "chsh", "--slots", "2", "--alphabet", "pmz",
               "--constraint", "equal-nc") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["spec"]["constraint"] == "equal_nc"
    want = max_chsh(EnumSpec(slots=2, alphabet="pmz", constraint="equal_nc"))
    assert report["admissible"] == want.admissible < report["tables_scanned"] == 3 ** 8
    assert (report["max"]["num"], report["max"]["den"]) == (
        want.max_value.numerator, want.max_value.denominator
    )
    assert report["witnesses"] == [fileio.table_to_json(w) for w in want.witnesses]


@pytest.mark.parametrize("argv", [
    ("sica-check", "--input", "{log}"),
    ("oracle", "--objective", "chsh", "--slots", "2"),
], ids=["sica-check", "oracle"])
def test_output_file_equals_the_printed_report(cli, tmp_path, capsys, read_json, argv):
    log = tmp_path / "fig5.jsonl"
    fileio.write_run_file(refdata.fig5(), str(log))
    out = tmp_path / "report.json"
    argv = [str(log) if a == "{log}" else a for a in argv]
    assert cli(*argv, "--output", str(out)) == 0
    assert read_json(out) == json.loads(capsys.readouterr().out)


def test_text_format_on_other_commands(cli, tmp_path, capsys):
    log = tmp_path / "fig5.jsonl"
    fileio.write_run_file(refdata.fig5(), str(log))
    assert cli("sica-check", "--input", str(log)) == 0
    report = json.loads(capsys.readouterr().out)
    assert cli("sica-check", "--input", str(log), "--format", "text") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["command: sica-check", "holds: False"]
    assert lines[2] == "witnesses: " + json.dumps(report["witnesses"], sort_keys=True)


def test_failed_atomic_write_leaves_no_file(tmp_path):
    run = RecordedRun(block_halves(4), (1,) * 4, (1,) * 4, meta={"source": object()})
    target = tmp_path / "run.jsonl"
    with pytest.raises(TypeError):
        fileio.write_run_file(run, str(target))
    assert list(tmp_path.iterdir()) == []


# --- which commands load numpy and scipy -------------------------------------

_MAIN_THEN_MODULES = (
    "import json, sys\n"
    "from bellseries.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "loaded = sorted(m for m in ('numpy', 'scipy') if m in sys.modules)\n"
    "sys.stderr.write(json.dumps([code, loaded]))\n"
)


def _fresh_cli(cwd, *argv):
    """One CLI command in a fresh interpreter: its exit code, which of numpy
    and scipy it left loaded, and its report."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, "-c", _MAIN_THEN_MODULES, *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    code, loaded = json.loads(done.stderr.splitlines()[-1])
    return code, loaded, json.loads(done.stdout)


@pytest.mark.parametrize("argv", [
    ("analyze", "--input", "fig5.jsonl"),
    ("analyze", "--input", "fig3.table.json"),
    ("sica-check", "--input", "fig5.jsonl"),
    ("sica-check", "--input", "fig8.table.json"),
    ("sica-condense", "--input", "fig8.table.json"),
    ("sica-complete", "--input", "black.jsonl", "--free-choices", "1,2"),
    ("fill", "zeros", "--input", "black.jsonl"),
], ids=["analyze-log", "analyze-table", "sica-check-log", "sica-check-completed",
        "sica-condense-completed", "sica-complete", "fill-zeros"])
def test_reading_commands_do_not_load_numpy(tmp_path, argv):
    fileio.write_run_file(refdata.fig5(), str(tmp_path / "fig5.jsonl"))
    fileio.write_run_file(refdata.fig6("black"), str(tmp_path / "black.jsonl"))
    table = fileio.table_to_json(refdata.fig3())
    fileio.write_json_atomic(str(tmp_path / "fig3.table.json"), table)
    fig8 = fileio.table_to_json(refdata.fig8().table, refdata.fig8().provenance)
    fileio.write_json_atomic(str(tmp_path / "fig8.table.json"), fig8)
    code, loaded, _ = _fresh_cli(tmp_path, *argv)
    assert (code, loaded) == (0, [])


@pytest.mark.parametrize("eta, certificate", [
    (1.0, r"the CHSH sum with \(\w+:\w+\) negated: "),
    (0.9, r"the CHSH sum with \(\w+:\w+\) negated: "),
    # Every product of an eta 0 log is 0, so its CHSH sum decides nothing.
    (0.0, r"row \w+'s per-value counts: "),
], ids=["chsh-sum", "chsh-sum-lossy", "regime"])
def test_certified_reorder_failure_loads_neither_numpy_nor_scipy(tmp_path, eta, certificate):
    from bellseries.simulate import SourceConfig, simulate

    config = SourceConfig(model="quantum", schedule=random_per_slot(4000, 31), seed=32, eta=eta)
    fileio.write_run_file(simulate(config), str(tmp_path / "run.jsonl"))
    code, loaded, report = _fresh_cli(tmp_path, "sica-reorder", "--input", "run.jsonl")
    assert (code, loaded) == (0, [])
    assert report["success"] is False
    assert report["best_keepable"] is None
    assert re.match(certificate, report["obstruction"])


def test_run_path_commands_never_build_the_tuples(cli, tmp_path, capsys, monkeypatch):
    """A run and a schedule store only their codes: the run path reads
    those, so here every setting and outcome tuple view raises."""
    def refuse(self):
        raise AssertionError("a per-slot tuple was built")

    for cls, names in ((Schedule, ("a_settings", "b_settings")),
                       (RecordedRun, ("a_outcomes", "b_outcomes"))):
        for name in names:
            monkeypatch.setattr(cls, name, property(refuse))
    log, red = tmp_path / "run.jsonl", tmp_path / "red.jsonl"
    fileio.write_run_file(refdata.fig6("red"), str(red))
    assert cli("simulate", "--seed", "32", "--slots", "4000", "--schedule", "random",
               "--output", str(log)) == 0
    for command in ("analyze", "sica-check", "sica-reorder"):
        capsys.readouterr()
        assert cli(command, "--input", str(log)) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["success"] is False and report["best_keepable"] is None
    assert cli("sica-reorder", "--input", str(red), "--output", str(tmp_path / "out.jsonl")) == 0
    assert json.loads(capsys.readouterr().out)["success"] is True


def test_reorder_the_certificates_cannot_decide_loads_the_solver(tmp_path):
    # The guard above is not vacuous: the MILP path does load both.
    fileio.write_run_file(refdata.fig6("red"), str(tmp_path / "red.jsonl"))
    code, loaded, report = _fresh_cli(tmp_path, "sica-reorder", "--input", "red.jsonl")
    assert (code, loaded) == (0, ["numpy", "scipy"])
    assert (report["success"], report["best_keepable"]) == (True, 2)


def test_reorder_failure_the_integer_program_decides_loads_the_solver(tmp_path):
    from bellseries.simulate import SourceConfig, simulate

    config = SourceConfig(model="quantum", schedule=block_halves(40), seed=3, eta=1.0)
    fileio.write_run_file(simulate(config), str(tmp_path / "run.jsonl"))
    code, loaded, report = _fresh_cli(tmp_path, "sica-reorder", "--input", "run.jsonl")
    assert (code, loaded) == (0, ["numpy", "scipy"])
    assert (report["success"], report["best_keepable"], report["required"]) == (False, 5, 6)
    assert report["obstruction"].startswith("the integer program's LP dual: ")
    assert report["obstruction"].endswith("; so at most 5 can be kept, 6 required")


def test_reorder_of_a_never_measured_setting_pair_reports_the_required_count(
        cli, tmp_path, capsys):
    # The budget of 5 lets each 50-slot block keep 45; both alpha' blocks are empty.
    schedule = custom_schedule([ASetting.ALPHA] * 100,
                               [BSetting.BETA] * 50 + [BSetting.BETA_PRIME] * 50)
    fileio.write_run_file(RecordedRun(schedule, (1,) * 100, (-1,) * 100),
                          str(tmp_path / "run.jsonl"))
    assert cli("sica-reorder", "--input", str(tmp_path / "run.jsonl")) == 0
    assert json.loads(capsys.readouterr().out) == {
        "command": "sica-reorder", "success": False, "best_keepable": 0, "required": 45,
        "obstruction": "never-measured setting pairs: alpha_prime:beta, alpha_prime:beta_prime",
    }
