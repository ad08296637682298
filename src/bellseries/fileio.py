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
import tempfile
from collections import Counter
from typing import Any, TextIO

from .errors import ParseError, StructuralError
from .model import (
    ROW_KEYS,
    ASetting,
    BSetting,
    RecordedRun,
    SeriesTable,
    custom_schedule,
    is_outcome,
)

_EVENT_FIELDS = ("slot", "a_setting", "b_setting", "a", "b")


def write_run_events(run: RecordedRun, fp: TextIO) -> None:
    if run.meta is not None:
        fp.write(json.dumps({"meta": run.meta}, sort_keys=True) + "\n")
    for i in range(run.slots):
        event = {
            "slot": i,
            "a_setting": run.schedule.a_settings[i].value,
            "b_setting": run.schedule.b_settings[i].value,
            "a": run.a_outcomes[i],
            "b": run.b_outcomes[i],
        }
        fp.write(json.dumps(event, sort_keys=True) + "\n")


def read_run_events(fp: TextIO) -> RecordedRun:
    meta: dict | None = None
    events: list[dict] = []
    for lineno, raw in enumerate(fp, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"not valid JSON: {exc.msg}", lineno) from exc
        if not isinstance(obj, dict):
            raise ParseError(f"expected an object, got {type(obj).__name__}", lineno)
        if "meta" in obj:
            if events or meta is not None:
                raise ParseError("meta line must be the first line", lineno)
            meta = obj["meta"]
            continue
        for key in _EVENT_FIELDS:
            if key not in obj:
                raise ParseError(f"event is missing field {key!r}", lineno)
        try:
            a_setting = ASetting(obj["a_setting"])
            b_setting = BSetting(obj["b_setting"])
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from exc
        for station in ("a", "b"):
            if not is_outcome(obj[station]):
                raise ParseError(
                    f"outcome {station}={obj[station]!r} not one of 1, -1, 0", lineno
                )
        if type(obj["slot"]) is not int:
            raise ParseError(f"slot {obj['slot']!r} is not an integer", lineno)
        events.append(
            {
                "slot": obj["slot"],
                "a_setting": a_setting,
                "b_setting": b_setting,
                "a": obj["a"],
                "b": obj["b"],
            }
        )
    seen = [e["slot"] for e in events]
    if sorted(seen) != list(range(len(events))):
        dupes = sorted(s for s, n in Counter(seen).items() if n > 1)
        if dupes:
            raise StructuralError(f"duplicate slot numbers: {dupes}")
        raise StructuralError(
            f"slots are not contiguous from 0: saw {sorted(seen)[:8]}..."
            if len(seen) > 8
            else f"slots are not contiguous from 0: saw {sorted(seen)}"
        )
    events.sort(key=lambda e: e["slot"])
    schedule = custom_schedule(
        [e["a_setting"] for e in events], [e["b_setting"] for e in events]
    )
    return RecordedRun(
        schedule,
        tuple(e["a"] for e in events),
        tuple(e["b"] for e in events),
        meta=meta,
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
    out = {}
    for key in ROW_KEYS:
        if key not in prov:
            raise StructuralError(f"provenance is missing row {key!r}")
        marks = prov[key]
        if len(marks) != data["slots"] or any(m not in ("F", "C") for m in marks):
            raise StructuralError(f"provenance row {key!r} must be 'F'/'C' per slot")
        out[key] = tuple(marks)
    return out


def read_table(path: str) -> SeriesTable:
    with open(path, encoding="utf-8") as fp:
        try:
            data = json.load(fp)
        except json.JSONDecodeError as exc:
            raise ParseError(f"not valid JSON: {exc.msg}", exc.lineno) from exc
    return table_from_json(data)


def write_text_atomic(path: str, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a
    half-written artifact."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fp:
            fp.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_atomic(path: str, data: Any) -> None:
    write_text_atomic(path, json.dumps(data, indent=2, sort_keys=True) + "\n")


def write_run_file(run: RecordedRun, path: str) -> None:
    import io

    buf = io.StringIO()
    write_run_events(run, buf)
    write_text_atomic(path, buf.getvalue())


def read_run_file(path: str) -> RecordedRun:
    with open(path, encoding="utf-8") as fp:
        return read_run_events(fp)
