"""Reading and writing runs and series tables.

Two interchange formats:

* **Run events** (JSON Lines): one event object per line, fields ``slot``,
  ``a_setting``, ``b_setting``, ``a``, ``b``.  An optional first line holding
  a ``meta`` key carries run provenance.  Slots must be contiguous from 0.

* **Series table** (single JSON object): ``slots`` plus the four value
  arrays keyed ``a``, ``a_prime``, ``b``, ``b_prime``; ``null`` marks an
  unmeasured cell.  A completed table additionally carries a ``provenance``
  object of parallel arrays over the same keys, each entry ``"F"`` (factual,
  carried over from a record) or ``"C"`` (counterfactual, filled in).
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from collections import Counter
from contextlib import contextmanager
from typing import Any, Iterable, Iterator, TextIO

from .errors import ParseError, PreconditionError, StructuralError
from .model import (
    MEASURED_VALUES,
    ROW_KEYS,
    ASetting,
    BSetting,
    RecordedRun,
    SeriesTable,
    custom_schedule,
    is_outcome,
)

_EVENT_FIELDS = ("slot", "a_setting", "b_setting", "a", "b")

# json.dumps(event, sort_keys=True) for plain-int outcomes and setting names
# that need no escaping, which is every value a RecordedRun can hold.
_EVENT_LINE = (
    '{"a": %d, "a_setting": "%s", "b": %d, "b_setting": "%s", "slot": %d}\n'
)
_A_SETTINGS = {s.value: s for s in ASetting}
_B_SETTINGS = {s.value: s for s in BSetting}
_SETTING_NAMES = {s: name for name, s in (*_A_SETTINGS.items(), *_B_SETTINGS.items())}
# The lines _EVENT_LINE writes, and only lines that json.loads reads to the
# same values with every check passing.  The slot has ASCII digits, no leading
# zero and at most 18 of them, so int() reads it as json.loads would and never
# meets the interpreter's limit on integer-string length.
_match_event = re.compile(
    r'\{"a": (-1|0|1), "a_setting": "(alpha|alpha_prime)", '
    r'"b": (-1|0|1), "b_setting": "(beta|beta_prime)", "slot": (0|[1-9][0-9]{0,17})\}'
).fullmatch
_OUTCOMES = {"-1": -1, "0": 0, "1": 1}


def parse_json(text: str, lineno: int | None = None, name: str | None = None) -> Any:
    """``json.loads`` on user input, with every way it can fail (bad syntax,
    nesting too deep for the parser, an integer too long for ``int``) raised
    as a :class:`ParseError` naming the file ``name`` and the line."""
    what = f"{name} is not valid JSON" if name else "not valid JSON"
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{what}: {exc.msg}", lineno or exc.lineno) from exc
    except (RecursionError, ValueError) as exc:
        raise ParseError(f"{what}: {exc}", lineno) from exc


def write_run_events(run: RecordedRun, fp: TextIO) -> None:
    if run.meta is not None:
        fp.write(json.dumps({"meta": run.meta}, sort_keys=True) + "\n")
    a_names = map(_SETTING_NAMES.__getitem__, run.schedule.a_settings)
    b_names = map(_SETTING_NAMES.__getitem__, run.schedule.b_settings)
    fp.writelines(
        map(
            _EVENT_LINE.__mod__,
            zip(run.a_outcomes, a_names, run.b_outcomes, b_names, range(run.slots)),
        )
    )


def _setting(names: dict, value, kind: str, lineno: int):
    try:
        return names[value]
    except (KeyError, TypeError):
        raise ParseError(f"{value!r} is not a valid {kind}", lineno) from None


def read_run_events(fp: Iterable[str]) -> RecordedRun:
    """Parse an event log from its lines (an open text file or any iterable
    of strings).  Blank lines are skipped; events may come in any slot order.

    A line in the canonical shape ``write_run_events`` writes is decoded by
    one regular expression; every other line goes through ``json.loads`` and
    is checked field by field, so a bad line is named with the same line
    number and message either way."""
    meta: dict | None = None
    seen_meta = False
    slots: list[int] = []
    a_settings: list[ASetting] = []
    b_settings: list[BSetting] = []
    a_out: list[int] = []
    b_out: list[int] = []
    for lineno, raw in enumerate(fp, start=1):
        line = raw.strip()
        event = _match_event(line)
        if event is not None:
            a, a_name, b, b_name, slot = event.groups()
            a_settings.append(_A_SETTINGS[a_name])
            b_settings.append(_B_SETTINGS[b_name])
            a_out.append(_OUTCOMES[a])
            b_out.append(_OUTCOMES[b])
            slots.append(int(slot))
            continue
        if not line:
            continue
        obj = parse_json(line, lineno)
        if not isinstance(obj, dict):
            raise ParseError(f"expected an object, got {type(obj).__name__}", lineno)
        if "meta" in obj:
            if slots or seen_meta:
                raise ParseError("meta line must be the first line", lineno)
            meta = obj["meta"]
            seen_meta = True
            continue
        for key in _EVENT_FIELDS:
            if key not in obj:
                raise ParseError(f"event is missing field {key!r}", lineno)
        a_settings.append(_setting(_A_SETTINGS, obj["a_setting"], "ASetting", lineno))
        b_settings.append(_setting(_B_SETTINGS, obj["b_setting"], "BSetting", lineno))
        a, b, slot = obj["a"], obj["b"], obj["slot"]
        if type(a) is not int or a not in MEASURED_VALUES:
            raise ParseError(f"outcome a={a!r} not one of 1, -1, 0", lineno)
        if type(b) is not int or b not in MEASURED_VALUES:
            raise ParseError(f"outcome b={b!r} not one of 1, -1, 0", lineno)
        if type(slot) is not int:
            raise ParseError(f"slot {slot!r} is not an integer", lineno)
        a_out.append(a)
        b_out.append(b)
        slots.append(slot)
    expected = list(range(len(slots)))
    if slots != expected:
        seen = sorted(slots)
        if seen != expected:
            dupes = sorted(s for s, n in Counter(seen).items() if n > 1)
            if dupes:
                raise StructuralError(f"duplicate slot numbers: {dupes}")
            raise StructuralError(
                f"slots are not contiguous from 0: saw {seen[:8]}..."
                if len(seen) > 8
                else f"slots are not contiguous from 0: saw {seen}"
            )
        order = sorted(expected, key=slots.__getitem__)
        a_settings, b_settings, a_out, b_out = (
            [column[i] for i in order] for column in (a_settings, b_settings, a_out, b_out)
        )
    return RecordedRun(
        custom_schedule(a_settings, b_settings), tuple(a_out), tuple(b_out), meta=meta
    )


def table_to_json(table: SeriesTable, provenance: dict[str, tuple[str, ...]] | None = None) -> dict:
    data: dict[str, Any] = {"slots": table.slots}
    for key in ROW_KEYS:
        data[key] = list(table.row(key))
    if provenance is not None:
        data["provenance"] = {key: list(provenance[key]) for key in ROW_KEYS}
    return data


def table_from_json(data: dict) -> SeriesTable:
    if not isinstance(data, dict):
        raise StructuralError(f"expected an object, got {type(data).__name__}")
    for key in ("slots", *ROW_KEYS):
        if key not in data:
            raise StructuralError(f"table object is missing {key!r}")
    slots = data["slots"]
    if type(slots) is not int or slots < 0:
        raise StructuralError(f"slots must be a non-negative integer, got {slots!r}")
    rows = {}
    for key in ROW_KEYS:
        row = data[key]
        if not isinstance(row, list) or len(row) != slots:
            raise StructuralError(f"row {key!r} must be a list of {slots} cells")
        for i, v in enumerate(row):
            if v is not None and not is_outcome(v):
                raise StructuralError(f"row {key!r} slot {i} holds {v!r}")
        rows[key] = tuple(row)
    return SeriesTable(slots, rows["a"], rows["b"], rows["a_prime"], rows["b_prime"])


def provenance_from_json(data: dict) -> dict[str, tuple[str, ...]] | None:
    prov = data.get("provenance")
    if prov is None:
        return None
    if not isinstance(prov, dict):
        raise StructuralError(f"provenance must be an object, got {type(prov).__name__}")
    out = {}
    for key in ROW_KEYS:
        if key not in prov:
            raise StructuralError(f"provenance is missing row {key!r}")
        marks = prov[key]
        if (
            not isinstance(marks, list)
            or len(marks) != data["slots"]
            or any(m not in ("F", "C") for m in marks)
        ):
            raise StructuralError(f"provenance row {key!r} must be 'F'/'C' per slot")
        out[key] = tuple(marks)
    return out


def read_text(path: str) -> str:
    """The whole of a UTF-8 file.  A file that cannot be opened raises
    :class:`PreconditionError`, one that is not UTF-8 :class:`ParseError`;
    both name the file."""
    try:
        with open(path, "r", encoding="utf-8") as fp:
            return fp.read()
    except OSError as exc:
        raise PreconditionError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc.reason}") from exc


def read_table(path: str) -> SeriesTable:
    return table_from_json(parse_json(read_text(path)))


@contextmanager
def _atomic_writer(path: str) -> Iterator[TextIO]:
    """A text file that replaces ``path`` only once it is completely written,
    via a sibling temp file and a rename, so readers never see a
    half-written artifact.  An unwritable path raises PreconditionError."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
        with os.fdopen(fd, "w", encoding="utf-8") as fp:
            yield fp
        os.replace(tmp, path)
    except OSError as exc:
        raise PreconditionError(f"cannot write {path}: {exc.strerror}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def write_json_atomic(path: str, data: Any) -> None:
    with _atomic_writer(path) as fp:
        fp.write(json.dumps(data, indent=2, sort_keys=True) + "\n")


def write_run_file(run: RecordedRun, path: str) -> None:
    with _atomic_writer(path) as fp:
        write_run_events(run, fp)


def read_run_file(path: str) -> RecordedRun:
    with open(path, encoding="utf-8") as fp:
        try:
            return read_run_events(fp)
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8 text: {exc.reason}") from exc
