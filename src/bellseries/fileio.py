"""Reading and writing runs and series tables.

Two interchange formats:

* **Run events** (JSON Lines): one event object per line, fields ``slot``,
  ``a_setting``, ``b_setting``, ``a``, ``b``.  An optional first line holding
  a ``meta`` key carries run provenance.  Slots must be contiguous from 0.
  Each event line is written as the text ``json.dumps(event, sort_keys=True)``
  gives, a block of slots in one format call.  A log is read as UTF-8
  bytes, a block of lines at a time, so its text is never held whole; a
  block is accepted whole only when it equals its own rebuilt canonical
  text, and any other goes line by line through ``json.loads`` (see
  :func:`read_run_events`).

* **Series table** (single JSON object): ``slots`` plus the four value
  arrays keyed ``a``, ``a_prime``, ``b``, ``b_prime``; ``null`` marks an
  unmeasured cell.  A completed table additionally carries a ``provenance``
  object of parallel arrays over the same keys, each entry ``"F"`` (factual,
  carried over from a record) or ``"C"`` (counterfactual, filled in): the
  record of the schedule the factual cells were measured under.
"""

from __future__ import annotations

import codecs
import io
import json
import os
import tempfile
from collections import Counter
from contextlib import contextmanager
from functools import partial
from itertools import repeat
from typing import Any, BinaryIO, Iterable, Iterator, Sequence, TextIO

from .errors import BellSeriesError, ParseError, PreconditionError, StructuralError
from .model import (
    EVENTS,
    MEASURED_VALUES,
    ROW_KEYS,
    ASetting,
    BSetting,
    RecordedRun,
    SeriesTable,
    custom_schedule,  # unused here; perfbench/launch.py wraps fileio.custom_schedule
    first_bad,
    gather,
)

_EVENT_FIELDS = ("slot", "a_setting", "b_setting", "a", "b")
_A_SETTINGS = {s.value: s for s in ASetting}
_B_SETTINGS = {s.value: s for s in BSetting}
# Per event code, what json.dumps(event, sort_keys=True) writes before the
# slot number: plain-int outcomes and setting names that need no escaping.
_EVENT_HEADS = tuple(
    f'{{"a": {a}, "a_setting": "{p.a_setting.value}", "b": {b}, '
    f'"b_setting": "{p.b_setting.value}", "slot": '
    for p, a, b in EVENTS
)
_HEAD_EVENTS = {head.encode(): code for code, head in enumerate(_EVENT_HEADS)}
# Per (a_setting, b_setting, a, b) of an event read through json.loads, its code.
_FIELD_EVENTS = {(p.a_setting, p.b_setting, a, b): code for code, (p, a, b) in enumerate(EVENTS)}
# About this many bytes of an event log are decoded at a time.
_BLOCK = 1 << 16
# This many slots of a run are written at a time, in one format call.
_WRITE_SLOTS = 1024


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


def _event_lines(line, heads: Sequence, first: int):
    """``line``, a head and a slot number, once per head of ``heads`` with
    the slots from ``first``: event lines in one format call."""
    args: list = [None] * (2 * len(heads))
    args[::2] = heads
    args[1::2] = range(first, first + len(heads))
    return (line * len(heads)) % tuple(args)


def write_run_events(run: RecordedRun, fp: TextIO) -> None:
    if run.meta is not None:
        fp.write(json.dumps({"meta": run.meta}, sort_keys=True) + "\n")
    for start in range(0, run.slots, _WRITE_SLOTS):
        heads = gather(_EVENT_HEADS, run.events[start:start + _WRITE_SLOTS])
        fp.write(_event_lines("%s%d}\n", heads, start))


def _setting(names: dict, value, kind: str, lineno: int):
    try:
        return names[value]
    except (KeyError, TypeError):
        raise ParseError(f"{value!r} is not a valid {kind}", lineno) from None


def _encoded(source: str | TextIO | Iterable[str]) -> Iterator[bytes]:
    """The text of ``source`` (a string, a text stream read :data:`_BLOCK`
    characters at a time, or the strings an iterable joins) as UTF-8, piece
    by piece; a lone surrogate is kept, so it still reads as its text."""
    if isinstance(source, str):
        # Encoded a block at a time, so its bytes are never held whole.
        pieces = (source[i:i + _BLOCK] for i in range(0, len(source), _BLOCK))
    elif hasattr(source, "read"):
        pieces = iter(partial(source.read, _BLOCK), "")
    else:
        pieces = source
    return (piece.encode("utf-8", "surrogatepass") for piece in pieces)


def _file_bytes(fp: BinaryIO) -> Iterator[bytes]:
    """The bytes of the binary file ``fp``, read :data:`_BLOCK` at a time,
    as a UTF-8 text open reads them (``UnicodeDecodeError`` at a bad byte,
    universal newlines).  An ASCII chunk without ``\\r`` is passed on as it
    is, unless the decoder still holds a part of what came before."""
    decoder = io.IncrementalNewlineDecoder(codecs.getincrementaldecoder("utf-8")(), True)
    for chunk in iter(partial(fp.read, _BLOCK), b""):
        if chunk.isascii() and b"\r" not in chunk and decoder.getstate() == (b"", 0):
            yield chunk
        else:
            yield decoder.decode(chunk).encode()
    yield decoder.decode(b"", True).encode()


def _blocks(chunks: Iterable[bytes]) -> Iterator[bytes]:
    """The bytes ``chunks`` join, cut at newlines into blocks of whole
    lines, each line ending in a newline: the first line alone, then blocks
    that each end at the first newline at least :data:`_BLOCK` bytes past
    their start.  The cuts do not depend on how the bytes come in pieces,
    and only the unfinished block is held."""
    size = 0
    # The unfinished block, and how many bytes it holds.
    parts: list[bytes] = []
    held = 0
    for chunk in chunks:
        parts.append(chunk)
        if chunk.find(b"\n", max(size - held, 0)) < 0:
            held += len(chunk)
            continue
        data, start = b"".join(parts), 0
        while (stop := data.find(b"\n", start + size)) >= 0:
            yield data[start:stop + 1]
            start, size = stop + 1, _BLOCK
        parts = [data[start:]]
        held = len(parts[0])
    rest = b"".join(parts)
    if rest:
        yield rest if rest.endswith(b"\n") else rest + b"\n"


def read_run_events(source: str | TextIO | Iterable[str]) -> RecordedRun:
    """Parse an event log from its text: a string, a text stream, or the
    strings an iterable joins (the lines of a file, say).  Blank lines are
    skipped; events may come in any slot order.

    The text is read as UTF-8 bytes (:func:`_encoded`), a block of lines at
    a time (:func:`_blocks`).  A block is accepted whole when it equals,
    byte for byte, the lines ``write_run_events`` writes for its lines'
    heads (each line without its trailing digits and ``}``) and the next
    slots in order: one format call and one comparison check it all, the
    head of each line giving its event code.  Any other block (a blank
    line, stray whitespace, a carriage return a text source holds, a slot
    out of order, any byte that is not ASCII) is decoded as text and goes
    line by line through ``json.loads``, checked field by field, so a bad
    line is named with the same line number and message either way."""
    return _decode(_encoded(source))


def _decode(chunks: Iterable[bytes]) -> RecordedRun:
    """The run of the event log whose UTF-8 bytes ``chunks`` join (see
    :func:`read_run_events`)."""
    meta: dict | None = None
    seen_meta = False
    # Slot numbers are kept only once an event comes out of slot order.
    slots: list[int] | None = None
    # The event codes, a block at a time, and how many there are.
    blocks: list[bytes] = []
    count = 0
    next_line = 1
    for data in _blocks(chunks):
        lines = data.split(b"\n")
        del lines[-1]
        first_line, next_line = next_line, next_line + len(lines)
        heads = list(map(bytes.rstrip, lines, repeat(b"0123456789}")))
        codes = list(map(_HEAD_EVENTS.get, heads))
        if None not in codes and _event_lines(b"%s%d}\n", heads, count) == data:
            blocks.append(bytes(codes))
            if slots is not None:
                slots.extend(range(count, count + len(codes)))
            count += len(codes)
            continue
        block = bytearray()
        text = data.decode("utf-8", "surrogatepass").split("\n")
        for lineno, line in enumerate(map(str.strip, text[:-1]), first_line):
            if not line:
                continue
            obj = parse_json(line, lineno)
            if not isinstance(obj, dict):
                raise ParseError(f"expected an object, got {type(obj).__name__}", lineno)
            if "meta" in obj:
                if count or seen_meta:
                    raise ParseError("meta line must be the first line", lineno)
                meta = obj["meta"]
                seen_meta = True
                continue
            for key in _EVENT_FIELDS:
                if key not in obj:
                    raise ParseError(f"event is missing field {key!r}", lineno)
            a_setting = _setting(_A_SETTINGS, obj["a_setting"], "ASetting", lineno)
            b_setting = _setting(_B_SETTINGS, obj["b_setting"], "BSetting", lineno)
            a, b, slot = obj["a"], obj["b"], obj["slot"]
            i = first_bad((a, b), MEASURED_VALUES)
            if i is not None:
                raise ParseError(f"outcome {'ab'[i]}={(a, b)[i]!r} not one of 1, -1, 0", lineno)
            if type(slot) is not int:
                raise ParseError(f"slot {slot!r} is not an integer", lineno)
            if slots is None and slot != count:
                slots = list(range(count))
            if slots is not None:
                slots.append(slot)
            block.append(_FIELD_EVENTS[a_setting, b_setting, a, b])
            count += 1
        blocks.append(bytes(block))
    events = b"".join(blocks)
    if slots is not None:
        expected = range(len(slots))
        seen = sorted(slots)
        if seen != list(expected):
            dupes = sorted(s for s, n in Counter(seen).items() if n > 1)
            if dupes:
                raise StructuralError(f"duplicate slot numbers: {dupes}")
            raise StructuralError(
                f"slots are not contiguous from 0: saw {seen[:8]}..."
                if len(seen) > 8
                else f"slots are not contiguous from 0: saw {seen}"
            )
        events = bytes(gather(events, sorted(expected, key=slots.__getitem__)))
    return RecordedRun.from_events(events, meta)


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
    for key in ROW_KEYS:
        row = data[key]
        if not isinstance(row, list) or len(row) != slots:
            raise StructuralError(f"row {key!r} must be a list of {slots} cells")
    return SeriesTable.from_rows(data["a"], data["b"], data["a_prime"], data["b_prime"])


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
            or first_bad(marks, ("F", "C")) is not None
        ):
            raise StructuralError(f"provenance row {key!r} must be 'F'/'C' per slot")
        out[key] = tuple(marks)
    return out


@contextmanager
def open_text(path: str) -> Iterator[TextIO]:
    """``path`` open as UTF-8 text.  A file that cannot be opened or read
    raises :class:`PreconditionError`, one that is not UTF-8
    :class:`ParseError`; both name the file."""
    try:
        with open(path, "r", encoding="utf-8") as fp:
            yield fp
    except OSError as exc:
        raise PreconditionError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc.reason}") from exc


def read_text(path: str) -> str:
    """The whole of a UTF-8 file (see :func:`open_text`)."""
    with open_text(path) as fp:
        return fp.read()


def starts_a_log(fp: TextIO) -> bool:
    """Whether the head of the seekable text file ``fp`` shows that
    ``json.loads`` of its whole text fails, so the file is an event log,
    not a table: its first line is a JSON value and more than whitespace
    follows.  False where only the whole text can tell.  ``fp`` is left at
    its start."""
    first, newline, rest = fp.read(_BLOCK).partition("\n")
    fp.seek(0)
    if not newline or not rest.strip(" \t\n\r"):
        return False
    try:
        json.loads(first)
    except (RecursionError, ValueError):
        return False
    return True


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


_SCALARS = {int, float, str, bool, type(None)}


def _indented(value: Any, newline: str) -> str:
    """``value`` as ``json.dumps(value, indent=2, sort_keys=True)`` writes it
    where its lines begin with ``newline``: a line break and the indent."""
    if isinstance(value, dict):
        if not all(type(key) is str for key in value):
            # Keys json converts to strings: left to json itself.
            return json.dumps(value, indent=2, sort_keys=True).replace("\n", newline)
        items = value.values()
    elif isinstance(value, (list, tuple)):
        items = value
    else:
        return json.dumps(value)
    if not value:
        return json.dumps(value)
    inner = newline + "  "
    if _SCALARS.issuperset(map(type, items)):
        # A container of scalars: one call of the C encoder, the indent
        # folded into its item separator.
        text = json.dumps(value, sort_keys=True, separators=("," + inner, ": "))
        return text[0] + inner + text[1:-1] + newline + text[-1]
    if isinstance(value, dict):
        body = (f"{json.dumps(key)}: {_indented(v, inner)}" for key, v in sorted(value.items()))
        return "{" + inner + ("," + inner).join(body) + newline + "}"
    return "[" + inner + ("," + inner).join(_indented(v, inner) for v in value) + newline + "]"


def json_text(data: Any) -> str:
    """The text ``json.dumps(data, indent=2, sort_keys=True)`` gives.

    With an indent, json falls back to its pure-Python encoder; this writes
    the same text with the C encoder, one call per container of scalars."""
    return _indented(data, "\n")


def write_json_atomic(path: str, data: Any) -> None:
    with _atomic_writer(path) as fp:
        fp.write(json_text(data) + "\n")


def write_run_file(run: RecordedRun, path: str) -> None:
    with _atomic_writer(path) as fp:
        write_run_events(run, fp)


def read_run_file(file: str | BinaryIO | TextIO) -> RecordedRun:
    """The event log in a UTF-8 file, given by its path or open at its
    start (in binary, :func:`_file_bytes`, or as text), decoded as it is
    read.  A file that is not UTF-8 is refused as such even where a bad line
    comes before its first bad byte, as when its whole text was read first."""
    if isinstance(file, str):
        with open_text(file) as fp:
            return read_run_file(fp.buffer)
    chunks = _encoded(file) if isinstance(file, io.TextIOBase) else _file_bytes(file)
    try:
        return _decode(chunks)
    except BellSeriesError:
        for _ in chunks:
            pass
        raise
