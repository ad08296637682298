import io
import json
import math
import os
import random
import re
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellseries import fileio, refdata
from bellseries.errors import BellSeriesError, ParseError, PreconditionError, StructuralError
from bellseries.model import (
    EVENTS,
    ASetting,
    BSetting,
    RecordedRun,
    SeriesTable,
    block_halves,
    project_table,
    random_per_slot,
)
from bellseries.simulate import SourceConfig, simulate

from conftest import EVENT, event_logs, make_rng, random_table
from naive_model import naive_event_code, naive_events


def _sample_run(seed=3, slots=12):
    rng = make_rng(seed)
    table = random_table(rng, slots=slots, alphabet=(-1, 1))
    return project_table(table, random_per_slot(slots, seed), meta={"seed": seed})


def test_run_events_round_trip():
    run = _sample_run()
    buf = io.StringIO()
    fileio.write_run_events(run, buf)
    buf.seek(0)
    again = fileio.read_run_events(buf)
    assert again == run
    assert again.meta == {"seed": 3}


def test_run_file_round_trip(tmp_path):
    run = _sample_run(seed=5)
    path = tmp_path / "run.jsonl"
    fileio.write_run_file(run, str(path))
    assert fileio.read_run_file(str(path)) == run


def test_parse_error_reports_line_number():
    run = _sample_run()
    buf = io.StringIO()
    fileio.write_run_events(run, buf)
    lines = buf.getvalue().splitlines()
    lines[2] = "{not json"
    with pytest.raises(ParseError) as err:
        fileio.read_run_events(io.StringIO("\n".join(lines)))
    assert err.value.line_number == 3


def test_duplicate_slot_rejected():
    run = _sample_run()
    buf = io.StringIO()
    fileio.write_run_events(run, buf)
    lines = buf.getvalue().splitlines()
    lines.append(lines[-1])
    with pytest.raises(StructuralError):
        fileio.read_run_events(io.StringIO("\n".join(lines)))


def test_missing_slot_rejected():
    run = _sample_run()
    buf = io.StringIO()
    fileio.write_run_events(run, buf)
    lines = buf.getvalue().splitlines()
    del lines[4]
    with pytest.raises(StructuralError):
        fileio.read_run_events(io.StringIO("\n".join(lines)))


def test_table_json_round_trip():
    rng = make_rng(11)
    table = random_table(rng, slots=6)
    data = fileio.table_to_json(table)
    assert fileio.table_from_json(data) == table
    assert fileio.provenance_from_json(data) is None


def test_table_json_keeps_provenance():
    table = SeriesTable.from_rows((1, -1), (1, 1), (-1, -1), (1, -1))
    prov = {
        "a": ("F", "C"),
        "b": ("C", "F"),
        "a_prime": ("F", "F"),
        "b_prime": ("C", "C"),
    }
    data = fileio.table_to_json(table, prov)
    assert fileio.table_from_json(data) == table
    assert fileio.provenance_from_json(data) == prov


def test_atomic_json_write(tmp_path):
    path = tmp_path / "out.json"
    fileio.write_json_atomic(str(path), {"b": 2, "a": 1})
    text = path.read_text()
    assert text.endswith("\n")
    assert json.loads(text) == {"a": 1, "b": 2}
    # keys come out sorted so repeated writes are byte-stable
    assert text.index('"a"') < text.index('"b"')


# Strings with quotes, backslashes, control characters and non-ASCII text.
_json_strings = st.text(st.sampled_from('ab"\\\n\t\x00\x1fé€😀'), max_size=6) | st.text(max_size=6)
_json_scalars = (
    st.none() | st.booleans() | st.floats() | st.integers()
    | st.integers(min_value=2**63, max_value=2**200) | _json_strings
)
_json_trees = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(_json_strings, inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(_json_trees)
def test_json_text_is_the_indented_encoding(tree):
    assert fileio.json_text(tree) == json.dumps(tree, indent=2, sort_keys=True)


@pytest.mark.parametrize("tree", [
    [], {}, [[]], {"a": {}}, [{}, []], {"x": [1, {"y": []}], "a": None},
    {2: "int keys", 1: [1.5, True]}, [{2.5: 0, 0.5: [1]}], {True: [None], False: 1},
])
def test_json_text_on_empty_nested_and_converted_keys(tree):
    assert fileio.json_text(tree) == json.dumps(tree, indent=2, sort_keys=True)


cells = st.sampled_from((-1, 0, 1))


@settings(max_examples=40)
@given(st.integers(0, 6), st.data())
def test_any_run_survives_serialization(seed, data):
    slots = data.draw(st.integers(1, 10)) * 4
    rows = [
        tuple(data.draw(cells) for _ in range(slots)) for _ in range(4)
    ]
    table = SeriesTable.from_rows(*rows)
    run = project_table(table, block_halves(slots))
    buf = io.StringIO()
    fileio.write_run_events(run, buf)
    buf.seek(0)
    assert fileio.read_run_events(buf) == run


# --- values that only compare equal to an outcome are not outcomes ---------

LOOKALIKES = (True, False, 1.0, "1")


def _events(*slots_and_a):
    return io.StringIO("\n".join(
        json.dumps({"slot": slot, "a_setting": "alpha", "b_setting": "beta",
                    "a": a, "b": -1})
        for slot, a in slots_and_a
    ))


def _table_json(slots=1, cell=1):
    return {"slots": slots, "a": [cell], "b": [1], "a_prime": [None], "b_prime": [None]}


STRICT_ENTRY_POINTS = {
    "from_rows": (StructuralError, lambda v: SeriesTable.from_rows((v,), (1,), (1,), (1,))),
    "recorded_run": (
        PreconditionError,
        lambda v: RecordedRun(block_halves(4), (1, v, 1, 1), (1, 1, 1, 1)),
    ),
    "table_cell": (StructuralError, lambda v: fileio.table_from_json(_table_json(cell=v))),
    "table_slots": (StructuralError, lambda v: fileio.table_from_json(_table_json(slots=v))),
    "event_outcome": (ParseError, lambda v: fileio.read_run_events(_events((0, v)))),
    "event_slot": (ParseError, lambda v: fileio.read_run_events(_events((0, 1), (v, 1)))),
}


@pytest.mark.parametrize("value", LOOKALIKES, ids=repr)
@pytest.mark.parametrize("entry", sorted(STRICT_ENTRY_POINTS))
def test_lookalike_values_are_rejected(entry, value):
    error, build = STRICT_ENTRY_POINTS[entry]
    with pytest.raises(error):
        build(value)


@pytest.mark.parametrize("read, content", [
    (fileio.read_text, b'{"slots": "\xff"}'),
    (fileio.read_run_file, b'{"meta": "\xff"}\n'),
], ids=["table", "event-log"])
def test_file_that_is_not_utf8_is_a_parse_error(tmp_path, read, content):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    with pytest.raises(ParseError, match="not UTF-8"):
        read(str(path))


def test_duplicate_slots_are_named():
    with pytest.raises(StructuralError, match=r"duplicate slot numbers: \[0, 2\]"):
        fileio.read_run_events(_events((0, 1), (2, 1), (0, 1), (2, 1), (1, 1)))


# --- the event-line writer against per-line json.dumps ---------------------


def _reference_events_text(run):
    """The event log as ``json.dumps(..., sort_keys=True)`` writes it, line by line."""
    lines = []
    if run.meta is not None:
        lines.append(json.dumps({"meta": run.meta}, sort_keys=True))
    for i in range(run.slots):
        event = {
            "slot": i,
            "a_setting": run.schedule.a_settings[i].value,
            "b_setting": run.schedule.b_settings[i].value,
            "a": run.a_outcomes[i],
            "b": run.b_outcomes[i],
        }
        lines.append(json.dumps(event, sort_keys=True))
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("meta", [None, {"seed": 3, "note": "é \"quoted\"", "angles": [0.0, 45.0]}])
def test_event_lines_match_json_dumps(tmp_path, meta):
    schedule = random_per_slot(400, 9)
    config = SourceConfig(model="quantum", schedule=schedule, seed=10, eta=0.8)
    run = simulate(config)
    run = RecordedRun(run.schedule, run.a_outcomes, run.b_outcomes, meta=meta)
    assert {-1, 0, 1} <= set(run.a_outcomes) | set(run.b_outcomes)
    expected = _reference_events_text(run)
    buf = io.StringIO()
    fileio.write_run_events(run, buf)
    assert buf.getvalue() == expected
    path = tmp_path / "run.jsonl"
    fileio.write_run_file(run, str(path))
    assert path.read_bytes() == expected.encode("utf-8")


# --- every malformed line names its line and says why ----------------------

_GOOD = dict(EVENT, slot=1)
_MISSING = object()


def _with(**changes):
    event = dict(_GOOD)
    for key, value in changes.items():
        if value is _MISSING:
            del event[key]
        else:
            event[key] = value
    return json.dumps(event)


MALFORMED_LINES = {
    **{f"missing-{key}": (_with(**{key: _MISSING}), f"event is missing field {key!r}")
       for key in _GOOD},
    **{f"{key}={value!r}": (_with(**{key: value}), f"{value!r} is not a valid {kind}")
       for key, kind in (("a_setting", "ASetting"), ("b_setting", "BSetting"))
       for value in ("gamma", "ALPHA", [], {}, None, 1, True)},
    **{f"{key}={value!r}": (_with(**{key: value}), f"outcome {key}={value!r} not one of 1, -1, 0")
       for key in ("a", "b")
       for value in (True, False, 1.0, "1", 2, None, [], {})},
    **{f"slot={value!r}": (_with(slot=value), f"slot {value!r} is not an integer")
       for value in (True, False, 1.0, "1", None)},
    "array": ("[1, 2]", "expected an object, got list"),
    "number": ("3", "expected an object, got int"),
    "null": ("null", "expected an object, got NoneType"),
    "late-meta": ('{"meta": {}}', "meta line must be the first line"),
    "bad-json": ("{oops", "not valid JSON: Expecting property name enclosed in double quotes"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_LINES))
def test_malformed_line_is_named(name):
    line, message = MALFORMED_LINES[name]
    first = json.dumps(dict(_GOOD, slot=0))
    text = '{"meta": {"x": 1}}\n\n' + first + "\n" + line + "\n"
    with pytest.raises(ParseError) as err:
        fileio.read_run_events(io.StringIO(text))
    assert err.value.line_number == 4
    assert str(err.value) == f"line 4: {message}"


@pytest.mark.parametrize("first_meta", ["null", "{}", '{"seed": 1}'])
def test_second_meta_line_is_rejected(first_meta):
    text = f'{{"meta": {first_meta}}}\n{{"meta": {{"seed": 2}}}}\n'
    with pytest.raises(ParseError, match="line 2: meta line must be the first line"):
        fileio.read_run_events(io.StringIO(text))


def test_events_in_any_slot_order_load_in_slot_order():
    run = _sample_run(seed=8, slots=16)
    buf = io.StringIO()
    fileio.write_run_events(run, buf)
    meta, *events = buf.getvalue().splitlines(keepends=True)
    shuffled = [meta] + events[8:] + events[::-1][8:]
    assert fileio.read_run_events(iter(shuffled)) == run


# --- fuzz: any line either loads or is refused with a named error -----------

@settings(max_examples=150, deadline=None)
@given(event_logs())
def test_fuzzed_event_logs_load_or_raise_a_named_error(text):
    try:
        run = fileio.read_run_events(io.StringIO(text))
    except BellSeriesError:
        return
    assert fileio.read_run_events(iter(_reference_events_text(run).splitlines(True))) == run


# --- the block decoder against json.loads ----------------------------------

# Every (a, a_setting, b, b_setting) a run can hold, and its event code.
_CODES = {(a, p.a_setting, b, p.b_setting): code for code, (p, a, b) in enumerate(EVENTS)}
_KEYS = sorted(_CODES, key=repr)


def _head(key):
    return fileio._EVENT_HEADS[_CODES[key]]


@pytest.mark.parametrize("key", _KEYS, ids=repr)
def test_every_head_plus_a_slot_reads_back_as_its_key(key):
    a, a_setting, b, b_setting = key
    for slot in (0, 7, 10**18 - 1):
        loaded = json.loads(_head(key) + f"{slot}}}")
        expected = {"a": a, "a_setting": a_setting.value, "b": b,
                    "b_setting": b_setting.value, "slot": slot}
        assert loaded == expected
        assert [type(loaded[k]) for k in expected] == [type(v) for v in expected.values()]
    assert fileio._HEAD_EVENTS[_head(key).encode()] == _CODES[key] == naive_event_code(*key)


def _outcome(text, block_decode=True):
    """What read_run_events makes of ``text``: the run's event codes, the
    outcome, setting and pairing-code series built from them, and its meta;
    or the error's type, message and line number.  Without ``block_decode``
    no line's head is known, so every line goes through json.loads."""
    heads = fileio._HEAD_EVENTS if block_decode else {}
    with mock.patch.object(fileio, "_HEAD_EVENTS", heads):
        try:
            run = fileio.read_run_events(text)
        except BellSeriesError as exc:
            return type(exc), str(exc), getattr(exc, "line_number", None)
    assert run.events == naive_events(run)
    schedule = run.schedule
    return (run.events, run.a_outcomes, run.b_outcomes, schedule.a_settings,
            schedule.b_settings, schedule.codes, run.meta)


def _json_calls(text):
    """How many lines of ``text`` read_run_events hands to json.loads."""
    with mock.patch.object(fileio, "parse_json", wraps=fileio.parse_json) as parse:
        try:
            fileio.read_run_events(text)
        except BellSeriesError:
            pass
    return parse.call_count


@settings(max_examples=300)
@given(st.lists(st.sampled_from(_KEYS), min_size=1, max_size=12),
       st.sampled_from(("", " ", "\t", "\r")), st.booleans())
def test_every_line_the_decoder_accepts_reads_as_json_loads_reads_it(keys, pad, meta):
    lines = ['{"meta": {"seed": 1}}'] if meta else []
    lines += [pad + _head(key) + f"{slot}}}" + pad for slot, key in enumerate(keys)]
    text = "".join(line + "\n" for line in lines)
    # Only exactly written lines are decoded whole; padded ones go to json.loads.
    assert _json_calls(text) == int(meta) + (len(keys) if pad else 0)
    events, a_out, b_out, a_settings, b_settings, _, _ = _outcome(text)
    assert list(zip(a_out, a_settings, b_out, b_settings)) == keys
    assert list(events) == [_CODES[key] for key in keys]
    assert _outcome(text) == _outcome(text, block_decode=False)


_CANONICAL = '{"a": 1, "a_setting": "alpha", "b": -1, "b_setting": "beta", "slot": %d}'

# Lines that read_run_events must hand to json.loads, each with what it does.
NEAR_MISSES = {
    "minus-zero": lambda s: _CANONICAL.replace('"a": 1', '"a": -0') % s,
    "leading-zero-outcome": lambda s: _CANONICAL.replace('"a": 1', '"a": 01') % s,
    "plus-one": lambda s: _CANONICAL.replace('"a": 1', '"a": +1') % s,
    "float": lambda s: _CANONICAL.replace('"b": -1', '"b": -1.0') % s,
    "true": lambda s: _CANONICAL.replace('"a": 1', '"a": true') % s,
    "leading-zero-slot": lambda s: _CANONICAL.replace("%d", "0%d") % s,
    "arabic-indic-slot": lambda s: _CANONICAL.replace("%d", "%s") % chr(0x660 + s % 10),
    "fullwidth-slot": lambda s: _CANONICAL.replace("%d", "%s") % chr(0xFF10 + s % 10),
    "long-slot": lambda s: _CANONICAL.replace("%d", "%s") % ("1" * 19),
    "escaped-setting": lambda s: _CANONICAL.replace('"alpha"', '"alph\\u0061"') % s,
    "compact": lambda s: json.dumps(json.loads(_CANONICAL % s), separators=(",", ":"),
                                    sort_keys=True),
    "key-order": lambda s: json.dumps(dict(EVENT, slot=s)),
    "inner-space": lambda s: (_CANONICAL % s)[:-1] + " }",
    "trailing-space": lambda s: _CANONICAL % s + " \t",
    "crlf": lambda s: _CANONICAL % s + "\r",
}


@pytest.mark.parametrize("name", sorted(NEAR_MISSES))
def test_near_miss_lines_read_as_json_loads_reads_them(name):
    line = NEAR_MISSES[name](1)
    text = '{"meta": null}\n' + _CANONICAL % 0 + "\n" + line + "\n" + _CANONICAL % 2 + "\n"
    # the meta line, then the near miss's block line by line up to it
    assert _json_calls(text) >= 3
    assert _outcome(text) == _outcome(text, block_decode=False)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(sorted(NEAR_MISSES)) | st.none(), max_size=8), st.booleans())
def test_logs_with_near_misses_read_as_with_json_loads_alone(kinds, meta):
    lines = ['{"meta": {"seed": 1}}'] if meta else []
    for slot, kind in enumerate(kinds):
        lines.append(_CANONICAL % slot if kind is None else NEAR_MISSES[kind](slot))
    text = "".join(line + "\n" for line in lines)
    assert _outcome(text) == _outcome(text, block_decode=False)


# Perturbations of a long log, by name; _perturbed gives the lines each puts
# at a slot and how many slots they take.  The readable ones leave the log
# readable; each fatal one makes it fail, most of them at its line.
_READABLE = ("blank", "compact", "crlf", "escaped-setting", "inner-space", "key-order",
             "minus-zero", "swap", "trailing-space")
_FATAL = sorted(set(NEAR_MISSES) - set(_READABLE)) + ["late-meta", "duplicate"]


def _event_line(rng, slot):
    return json.dumps({"slot": slot, "a": rng.choice((-1, 0, 1)), "b": rng.choice((-1, 0, 1)),
                       "a_setting": rng.choice(("alpha", "alpha_prime")),
                       "b_setting": rng.choice(("beta", "beta_prime"))}, sort_keys=True)


def _perturbed(kind, rng, slot):
    if kind == "blank":
        return [""], 0
    if kind == "swap":
        return [_event_line(rng, slot + 1), _event_line(rng, slot)], 2
    if kind == "late-meta":
        return ['{"meta": {"late": true}}'], 0
    if kind == "duplicate":
        return [_event_line(rng, max(slot - 1, 0))], 0
    return [NEAR_MISSES[kind](slot)], 1


def _perturbed_log(seed, full_blocks=4):
    """A seeded event log of ``full_blocks`` decode blocks and part of one
    more, as written but for perturbations at the first and last line of the
    first block, of a middle one and of the last one (the log's last line),
    and at random inside those three.  Returns the text, the numbers of the
    perturbed lines and the three blocks' indices (block 0 is the first
    line)."""
    rng = random.Random(seed)
    size = fileio._BLOCK
    chosen = (1, rng.randint(2, full_blocks - 1), full_blocks + 1)
    fatal = rng.choice(_FATAL) if rng.random() < 0.3 else None
    lines, marked = [], set()
    slot, pos, block, block_end = 0, 0, 0, 0

    def add(new, perturbed):
        nonlocal pos, block, block_end
        for line in new:
            lines.append(line)
            if perturbed:
                marked.add(len(lines))
            pos += len(line) + 1
            if pos - 1 >= block_end:
                block, block_end = block + 1, pos + size

    if rng.random() < 0.5:
        add(['{"meta": {"seed": %d}}' % seed], False)
    while pos < (full_blocks + 0.5) * size:
        at_edge = pos == block_end - size or pos + 100 >= block_end
        if block in chosen and (at_edge or rng.random() < 1 / 150):
            pool = [fatal] if fatal and rng.random() < 0.2 else _READABLE
            new, used = _perturbed(rng.choice(pool), rng, slot)
            add(new, True)
            slot += used
        else:
            add([_event_line(rng, slot)], False)
            slot += 1
    add([NEAR_MISSES[rng.choice([k for k in _READABLE if k in NEAR_MISSES])](slot)], True)
    return "".join(line + "\n" for line in lines), marked, chosen


@pytest.mark.parametrize("seed", range(32))
def test_long_perturbed_logs_read_as_with_json_loads_alone(seed):
    text, marked, chosen = _perturbed_log(seed)
    layout, first = [], 1
    for block in fileio._blocks(fileio._encoded(text)):
        layout.append((first, first + block.count(b"\n") - 1))
        first += block.count(b"\n")
    assert len(text) >= 3 * fileio._BLOCK and len(layout) == chosen[-1] + 1
    for index in chosen:
        assert {*layout[index]} <= marked
    expected = _outcome(text, block_decode=False)
    assert _outcome(text) == expected
    if expected[0] is not ParseError:
        # the blocks left as written were decoded whole
        assert _json_calls(text) < text.count("\n")


@pytest.mark.parametrize("meta", [None, {"seed": 4}])
def test_written_event_lines_decode_without_json_loads(monkeypatch, meta):
    config = SourceConfig(model="quantum", schedule=random_per_slot(400, 4), seed=4, eta=0.8)
    run = simulate(config)
    run = RecordedRun(run.schedule, run.a_outcomes, run.b_outcomes, meta=meta)
    assert {-1, 0, 1} <= set(run.a_outcomes) & set(run.b_outcomes)
    buf = io.StringIO()
    fileio.write_run_events(run, buf)
    calls = []
    real_loads = json.loads

    def counting_loads(text, *args, **kwargs):
        calls.append(text)
        return real_loads(text, *args, **kwargs)

    monkeypatch.setattr(json, "loads", counting_loads)
    again = fileio.read_run_events(io.StringIO(buf.getvalue()))
    assert again == run and again.meta == meta
    assert calls == ([] if meta is None else ['{"meta": {"seed": 4}}'])


_HOSTILE = {"nested": "[" * 200_000, "long-slot": _CANONICAL.replace("%d", "1" * 5_000)}


@pytest.mark.parametrize("name", sorted(_HOSTILE))
def test_hostile_json_is_a_parse_error(name):
    text = _CANONICAL % 0 + "\n" + _HOSTILE[name] + "\n"
    with pytest.raises(ParseError) as err:
        fileio.read_run_events(io.StringIO(text))
    assert err.value.line_number == 2
    with pytest.raises(ParseError):
        fileio.parse_json('{"slots": 1, "a": ' + _HOSTILE[name])


_WHERE = ("first", "middle", "last")


def _slot(where, slots):
    return {"first": 0, "middle": slots // 2, "last": slots - 1}[where]


@pytest.mark.parametrize("where", _WHERE)
@pytest.mark.parametrize("bad", [2, True, 1.0, "1", [], {}], ids=repr)
def test_table_json_names_the_first_bad_cell(tmp_path, cli, capsys, where, bad):
    slot = _slot(where, 7)
    data = {"slots": 7, "a": [1, None, -1, 0, None, 1, 0], "b": [None] * 7,
            "a_prime": [0] * 7, "b_prime": [None, 1, -1, 0, 1, 1, 1]}
    data["b_prime"][slot] = bad
    message = f"row b_prime slot {slot}: cell {bad!r} is not one of 1, -1, 0, None"
    with pytest.raises(StructuralError, match=re.escape(message)):
        fileio.table_from_json(data)
    # Unhashable cells too are named, and the command exits 3, not 4.
    path = tmp_path / "table.json"
    path.write_text(json.dumps(data))
    assert cli("analyze", "--input", str(path)) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("where", _WHERE)
@pytest.mark.parametrize("bad", ["f", "", 1, None, [], {}], ids=repr)
def test_provenance_refuses_a_bad_mark(tmp_path, cli, capsys, where, bad):
    complete = refdata.fig8()
    data = fileio.table_to_json(complete.table, complete.provenance)
    data["provenance"]["a_prime"][_slot(where, data["slots"])] = bad
    with pytest.raises(StructuralError, match="provenance row 'a_prime' must be 'F'/'C' per slot"):
        fileio.provenance_from_json(data)
    path = tmp_path / "table.json"
    path.write_text(json.dumps(data))
    assert cli("sica-check", "--input", str(path)) == 3
    assert "must be 'F'/'C' per slot" in capsys.readouterr().err


# --- a log read as a stream reads as its whole text -------------------------

# Lines a streamed log may hold, by name, each given its slot number.
_STREAM_LINES = {
    "event": lambda s: _CANONICAL % s,
    "blank": lambda s: "",
    "spaces": lambda s: "   ",
    "padded": lambda s: " " * 40 + _CANONICAL % s + " " * 40,
    "late-meta": lambda s: '{"meta": null}',
    **NEAR_MISSES,
}


@st.composite
def _streamed_logs(draw):
    """A log's text, mostly events in slot order, and where to cut it."""
    lines = []
    if draw(st.booleans()):
        lines.append('{"meta": {"pad": "%s"}}' % ("x" * draw(st.sampled_from((0, 50)))))
    kinds = st.sampled_from(("event", "blank")) | st.sampled_from(sorted(_STREAM_LINES))
    for slot, kind in enumerate(draw(st.lists(kinds, max_size=30))):
        lines.append(_STREAM_LINES[kind](slot))
    if draw(st.booleans()):
        # A bad last line, whose number counts every line before it.
        lines.append("{oops")
    text = "\n".join(lines) + draw(st.sampled_from(("", "\n", "\n\n")))
    cuts = draw(st.lists(st.integers(0, len(text)), max_size=8))
    return text, sorted(cuts)


@settings(max_examples=60, deadline=None)
@given(_streamed_logs(), st.sampled_from((1, 16, 64, 300)))
def test_a_log_cut_anywhere_reads_as_its_whole_text(log, block):
    text, cuts = log
    bounds = [0, *cuts, len(text)]
    pieces = [text[i:j] for i, j in zip(bounds, bounds[1:])]
    with mock.patch.object(fileio, "_BLOCK", block):
        expected = _outcome(text)
        assert _outcome(iter(pieces)) == expected
        # A text stream is read a block at a time, a list of lines line by line.
        assert _outcome(io.StringIO(text)) == expected
        assert _outcome(io.StringIO(text).readlines()) == expected
        assert _outcome(text, block_decode=False) == expected


@pytest.mark.parametrize("name", ["long-meta", "long-line", "long-bad-line"])
def test_lines_longer_than_a_block_read_as_the_whole_text(name):
    long = " " * (fileio._BLOCK + 10)
    lines = [_CANONICAL % 0, _CANONICAL % 1, long + _CANONICAL % 2, _CANONICAL % 3]
    if name == "long-meta":
        lines.insert(0, '{"meta": "%s"}' % ("x" * 2 * fileio._BLOCK))
    elif name == "long-bad-line":
        lines.append(long + "{oops")
    text = "\n".join(lines) + "\n"
    expected = _outcome(text)
    assert expected == _outcome(text, block_decode=False)
    for size in (1, 4096, fileio._BLOCK - 1, fileio._BLOCK + 1):
        pieces = [text[i:i + size] for i in range(0, len(text), size)]
        assert _outcome(iter(pieces)) == expected
    assert _outcome(io.StringIO(text)) == expected


def test_a_stream_is_read_a_block_at_a_time():
    run = _sample_run(seed=6, slots=3_000)
    buf = io.StringIO()
    fileio.write_run_events(run, buf)
    buf.seek(0)
    with mock.patch.object(buf, "read", wraps=buf.read) as read:
        assert fileio.read_run_events(buf) == run
    assert {call.args for call in read.call_args_list} == {(fileio._BLOCK,)}
    # The last read finds the end.
    assert read.call_count == math.ceil(len(buf.getvalue()) / fileio._BLOCK) + 1


# --- the block codec against line-by-line json.loads ------------------------


def _json_lines_reference(text):
    """What reading ``text`` one line at a time through ``json.loads`` gives:
    the event codes in slot order and the meta, or the error's type, message
    and line number.  Only the faults the codec tests draw are named."""
    meta, seen_meta, by_slot = None, False, []
    for lineno, line in enumerate(text.split("\n"), 1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            return ParseError, f"line {lineno}: not valid JSON: {exc.msg}", lineno
        if "meta" in obj:
            if by_slot or seen_meta:
                return ParseError, f"line {lineno}: meta line must be the first line", lineno
            meta, seen_meta = obj["meta"], True
            continue
        for key in ("a", "b"):
            if type(obj[key]) is not int:
                return (ParseError, f"line {lineno}: outcome {key}={obj[key]!r} not one of 1, -1, 0",
                        lineno)
        key = (obj["a"], ASetting(obj["a_setting"]), obj["b"], BSetting(obj["b_setting"]))
        by_slot.append((obj["slot"], _CODES[key]))
    slots = sorted(slot for slot, _ in by_slot)
    dupes = sorted({s for s in slots if slots.count(s) > 1})
    if dupes:
        return StructuralError, f"duplicate slot numbers: {dupes}", None
    if slots != list(range(len(slots))):
        return StructuralError, f"slots are not contiguous from 0: saw {slots}", None
    return bytes(code for _, code in sorted(by_slot)), meta


def _read_outcome(read, source):
    try:
        run = read(source)
    except BellSeriesError as exc:
        return type(exc), str(exc), getattr(exc, "line_number", None)
    return run.events, run.meta


# One line of a written log, changed: each takes the lines and the index.
_SLOT_TAIL = re.compile(r'"slot": (\d+)\}$')


def _swap(lines, i):
    j = min(i + 1, len(lines) - 1)
    lines[i], lines[j] = lines[j], lines[i]


_MUTATIONS = {
    "leading-zero-slot": lambda lines, i: lines.__setitem__(
        i, _SLOT_TAIL.sub(r'"slot": 0\1}', lines[i])),
    "plus-one": lambda lines, i: lines.__setitem__(
        i, re.sub(r'"a": -?\d', '"a": +1', lines[i])),
    "float": lambda lines, i: lines.__setitem__(
        i, re.sub(r'"b": (-?\d)', r'"b": \1.0', lines[i])),
    "out-of-order": _swap,
    "duplicate": lambda lines, i: lines.insert(i, lines[i]),
    "trailing-space": lambda lines, i: lines.__setitem__(i, lines[i] + " "),
    "crlf": lambda lines, i: lines.__setitem__(i, lines[i] + "\r"),
    "blank": lambda lines, i: lines.insert(i, ""),
    "non-ascii-meta": lambda lines, i: lines.insert(
        0, json.dumps({"meta": {"note": "é € 😀", "slots": i}}, ensure_ascii=False)),
}


@st.composite
def _mutated_logs(draw):
    """A written log of 0-60 slots, with or without meta, its text with one
    line changed (or none), and with or without a final newline."""
    codes = bytes(draw(st.lists(st.integers(0, len(EVENTS) - 1), max_size=60)))
    meta = draw(st.sampled_from((None, {"seed": 3})))
    buf = io.StringIO()
    fileio.write_run_events(RecordedRun.from_events(codes, meta), buf)
    lines = buf.getvalue().splitlines()
    kind = draw(st.sampled_from((None, *sorted(_MUTATIONS))))
    if kind is not None and lines:
        _MUTATIONS[kind](lines, draw(st.integers(0, len(lines) - 1)))
    end = draw(st.sampled_from(("\n", "")))
    return "\n".join(lines) + (end if lines else "")


@settings(max_examples=300, deadline=None)
@given(_mutated_logs(), st.sampled_from((1, 16, 64, 300)))
def test_the_codec_reads_a_log_as_json_loads_line_by_line(text, block):
    expected = _json_lines_reference(text)
    with mock.patch.object(fileio, "_BLOCK", block):
        assert _read_outcome(fileio.read_run_events, text) == expected
        assert _read_outcome(fileio.read_run_events, io.StringIO(text)) == expected
        assert _read_outcome(fileio.read_run_events, text.splitlines(True)) == expected


@settings(max_examples=150, deadline=None)
@given(_mutated_logs(), st.sampled_from((1, 16, 64, 300)),
       st.sampled_from(("", "\r\n", "\r", b"\xff", b"\xe2\x82", "é")), st.data())
def test_a_file_read_as_bytes_reads_as_its_text(text, block, extra, data):
    """A file's bytes (universal newlines, a bad or cut UTF-8 sequence
    anywhere) read as the text a UTF-8 text open gives."""
    raw = text.encode("utf-8")
    if extra:
        at = data.draw(st.integers(0, len(raw)))
        piece = extra if isinstance(extra, bytes) else extra.encode("utf-8")
        raw = raw[:at] + piece + raw[at:]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.jsonl")
        with open(path, "wb") as fp:
            fp.write(raw)
        with mock.patch.object(fileio, "_BLOCK", block):
            try:
                expected = _read_outcome(fileio.read_run_events, fileio.read_text(path))
            except ParseError as exc:
                expected = ParseError, str(exc), None
            assert _read_outcome(fileio.read_run_file, path) == expected


@pytest.mark.parametrize("tail, reason", [(b"\xe2\x82", "unexpected end of data"),
                                          (b"\xe2\x82\n", "invalid continuation byte")])
def test_a_file_cut_inside_a_character_is_not_utf8(tmp_path, tail, reason):
    path = tmp_path / "run.jsonl"
    path.write_bytes(b"{oops\n" + (_CANONICAL % 0).encode() * 2000 + tail)
    with pytest.raises(ParseError, match=f"is not UTF-8 text: {reason}$"):
        fileio.read_run_file(str(path))


def test_a_string_that_is_not_utf8_reads_as_its_text():
    meta = '{"meta": {"note": "\ud800 lone"}}'
    text = meta + "\n" + _CANONICAL % 0 + "\n"
    run = fileio.read_run_events(text)
    assert run.meta == {"note": "\ud800 lone"} and run.slots == 1
    with pytest.raises(ParseError, match="line 2: not valid JSON"):
        fileio.read_run_events(_CANONICAL % 0 + "\n" + "\udfff" + "\n")


@pytest.mark.parametrize("meta", [None, {"seed": 3, "note": "é"}])
@pytest.mark.parametrize("extra", [-1, 0, 1])
@pytest.mark.parametrize("blocks", [0, 1])
def test_write_run_events_is_json_dumps_line_by_line(meta, extra, blocks):
    """Every one of the 36 events, in runs of 0, 1 and a write block's
    slots less one, exactly and plus one, as ``json.dumps(event,
    sort_keys=True)`` writes each line."""
    slots = max(blocks * fileio._WRITE_SLOTS + extra, 0)
    run = RecordedRun.from_events(bytes(i % len(EVENTS) for i in range(slots)), meta)
    buf = io.StringIO()
    fileio.write_run_events(run, buf)
    assert buf.getvalue() == _reference_events_text(run)


def test_a_written_log_takes_the_block_path_throughout(tmp_path):
    """A written 50,000-slot log decodes without json.loads past its meta
    line, from a string and from a file: a silent fall back to the line by
    line path would double the read time."""
    codes = bytes(random.Random(5).choices(range(len(EVENTS)), k=50_000))
    run = RecordedRun.from_events(codes, {"seed": 5})
    path = tmp_path / "run.jsonl"
    fileio.write_run_file(run, str(path))
    for read, source in ((fileio.read_run_file, str(path)),
                         (fileio.read_run_events, path.read_text())):
        with mock.patch.object(fileio.json, "loads", wraps=json.loads) as loads:
            assert read(source) == run
        assert [call.args for call in loads.call_args_list] == [('{"meta": {"seed": 5}}',)]
