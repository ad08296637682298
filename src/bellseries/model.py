"""Core data model for two-station outcome series.

A measurement run records, for every time slot, which analyzer setting was
active at each of the two stations (A chooses between ``alpha`` and
``alpha_prime``, B between ``beta`` and ``beta_prime``) and the detector
outcome at each station: +1, -1, or 0 for "no detection".

A series table holds the four aligned value series (a, a', b, b') over the
same slots.  A cell is ``None`` where the corresponding setting was not
active, i.e. nothing was or could have been recorded there.  A recorded 0 and
an absent cell are logically different states and are never conflated.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from enum import Enum
from functools import cached_property
from itertools import compress, product
from operator import itemgetter
from typing import Optional, Sequence

from .errors import PreconditionError, StructuralError

PLUS = 1
MINUS = -1
ZERO = 0

#: Values a measured cell may take.
MEASURED_VALUES = (PLUS, MINUS, ZERO)


Cell = Optional[int]


def first_bad(items: Sequence, allowed: Sequence) -> int | None:
    """The index of the first of ``items`` that is not one of ``allowed``,
    type included (``True`` and ``1.0`` are not 1), if any.  Two set tests at
    C speed decide, types first so that no unhashable item reaches set();
    the scan only names the culprit."""
    types, allowed = set(map(type, allowed)), set(allowed)
    if set(map(type, items)) <= types and set(items) <= allowed:
        return None
    return next(i for i, v in enumerate(items) if type(v) not in types or v not in allowed)


ROW_KEYS = ("a", "b", "a_prime", "b_prime")


class ASetting(str, Enum):
    ALPHA = "alpha"
    ALPHA_PRIME = "alpha_prime"

    @property
    def row(self) -> str:
        return "a" if self is ASetting.ALPHA else "a_prime"


class BSetting(str, Enum):
    BETA = "beta"
    BETA_PRIME = "beta_prime"

    @property
    def row(self) -> str:
        return "b" if self is BSetting.BETA else "b_prime"


class Pairing(Enum):
    """One of the four joint setting choices."""

    AB = (ASetting.ALPHA, BSetting.BETA)
    ABP = (ASetting.ALPHA, BSetting.BETA_PRIME)
    APB = (ASetting.ALPHA_PRIME, BSetting.BETA)
    APBP = (ASetting.ALPHA_PRIME, BSetting.BETA_PRIME)

    @property
    def a_setting(self) -> ASetting:
        return self.value[0]

    @property
    def b_setting(self) -> BSetting:
        return self.value[1]

    @property
    def a_row(self) -> str:
        return self.a_setting.row

    @property
    def b_row(self) -> str:
        return self.b_setting.row

    @property
    def key(self) -> str:
        """Stable identifier used in JSON reports, e.g. ``"alpha:beta"``."""
        return f"{self.a_setting.value}:{self.b_setting.value}"


PAIRINGS = (Pairing.AB, Pairing.ABP, Pairing.APB, Pairing.APBP)

#: The 36 events a slot of a run can record, (setting pair, a, b), each at
#: its event code 9 * (the pair's index in PAIRINGS) + 3 * (a + 1) + (b + 1).
EVENTS = tuple(product(PAIRINGS, (MINUS, ZERO, PLUS), (MINUS, ZERO, PLUS)))
#: Per event code, its setting pair, its a and its b: the columns of EVENTS.
EVENT_PAIRINGS, EVENT_A, EVENT_B = zip(*EVENTS)
#: Per event code, the cells (a, b, a', b') it lays out in a table.
EVENT_COLUMNS = tuple(
    tuple({p.a_row: a, p.b_row: b}.get(key) for key in ROW_KEYS) for p, a, b in EVENTS
)
_EVENT_PAIRING = bytes(code // 9 for code in range(len(EVENTS))).ljust(256, b"\0")
_EVENT_CODES, _PAIRING_CODES = bytes(range(len(EVENTS))), bytes(range(len(PAIRINGS)))
_PRIMED = {ASetting.ALPHA: 0, ASetting.ALPHA_PRIME: 1, BSetting.BETA: 0, BSetting.BETA_PRIME: 1}
_A_OF_PAIRING, _B_OF_PAIRING = zip(*(p.value for p in PAIRINGS))


def gather(table: Sequence, keys: Sequence) -> tuple:
    """``tuple(table[k] for k in keys)``, looked up at C speed."""
    return itemgetter(*keys)(table) if len(keys) > 1 else tuple(map(table.__getitem__, keys))


def _bytewise(slots: int, terms) -> bytes:
    """Per byte, the sum of weight * byte over (weight, bytes) ``terms``; each is below 256."""
    total = sum(weight * int.from_bytes(part, "big") for weight, part in terms)
    return total.to_bytes(slots, "big")


@dataclass(frozen=True)
class SeriesTable:
    """Four aligned outcome series over ``slots`` time slots.

    The constructor stores data as given; :meth:`from_rows` checks the row
    lengths and cells and raises :class:`StructuralError` on a bad one.
    """

    slots: int
    a: tuple[Cell, ...]
    b: tuple[Cell, ...]
    a_prime: tuple[Cell, ...]
    b_prime: tuple[Cell, ...]

    def __post_init__(self):
        for key in ROW_KEYS:
            object.__setattr__(self, key, tuple(getattr(self, key)))

    @classmethod
    def from_rows(cls, a, b, a_prime, b_prime) -> "SeriesTable":
        """Build a table from four equal-length rows, checking the cells."""
        rows = [tuple(r) for r in (a, b, a_prime, b_prime)]
        lengths = {len(r) for r in rows}
        if len(lengths) != 1:
            raise StructuralError(
                f"rows differ in length: {sorted(len(r) for r in rows)}"
            )
        for key, row in zip(ROW_KEYS, rows):
            i = first_bad(row, (None, *MEASURED_VALUES))
            if i is not None:
                raise StructuralError(
                    f"row {key} slot {i}: cell {row[i]!r} is not one of 1, -1, 0, None"
                )
        return cls(len(rows[0]), *rows)

    def row(self, key: str) -> tuple[Cell, ...]:
        if key not in ROW_KEYS:
            raise KeyError(key)
        return getattr(self, key)

    @property
    def fully_measured(self) -> bool:
        return all(None not in self.row(key) for key in ROW_KEYS)


@dataclass(frozen=True)
class Schedule:
    """Per-slot assignment of analyzer settings to both stations.

    ``codes`` holds per slot the index of its setting pair in
    :data:`PAIRINGS`, ``2 * (A primed) + (B primed)``: the only stored form,
    from which :attr:`a_settings` and :attr:`b_settings` are computed on
    each request.  Two schedules are equal when their codes are; ``kind``
    and ``seed`` only describe where the assignment came from and survive
    neither event-log serialization nor comparison.
    """

    kind: str = field(compare=False)
    codes: bytes = field(repr=False)
    seed: int | None = field(default=None, compare=False)

    def __post_init__(self):
        codes = bytes(self.codes)
        # lstrip returns the empty singleton for valid codes, allocating nothing.
        bad = codes.lstrip(_PAIRING_CODES)
        if bad:
            raise PreconditionError(f"pairing code {bad[0]} is not one of 0-3")
        object.__setattr__(self, "codes", codes)

    @property
    def a_settings(self) -> tuple[ASetting, ...]:
        return gather(_A_OF_PAIRING, self.codes)

    @property
    def b_settings(self) -> tuple[BSetting, ...]:
        return gather(_B_OF_PAIRING, self.codes)

    @property
    def slots(self) -> int:
        return len(self.codes)

    def to_json(self) -> dict:
        data: dict = {
            "kind": self.kind,
            "a_settings": [s.value for s in self.a_settings],
            "b_settings": [s.value for s in self.b_settings],
        }
        if self.seed is not None:
            data["seed"] = self.seed
        return data


def block_halves(slots: int) -> Schedule:
    """The block layout: A measures alpha on the first half of the slots and
    alpha_prime on the second, while B measures beta on the middle half and
    beta_prime on the outer quarters.

    Requires ``slots`` divisible by 4 so the four contiguous quarters carry
    one setting pair each.
    """
    if slots % 4 != 0:
        raise PreconditionError(
            f"block-halves schedule needs a slot count divisible by 4, got {slots}"
        )
    quarters = (Pairing.ABP, Pairing.AB, Pairing.APB, Pairing.APBP)
    return Schedule("block", b"".join(bytes([PAIRINGS.index(p)]) * (slots // 4) for p in quarters))


#: Slots of a random stream drawn at a time.  Each block is reduced to one
#: byte a slot as soon as it is drawn, so no int64 or float64 array of every
#: slot is ever alive.  PCG64 chains the blocks into the same stream as one
#: whole draw: a double takes one 64-bit output, and a bit of ``integers``
#: a 32-bit half, the unused half kept in the generator between calls.
DRAW_BLOCK = 16_384


def slot_blocks(slots: int):
    """The slots, :data:`DRAW_BLOCK` at a time, as slices in time order."""
    return (slice(start, min(start + DRAW_BLOCK, slots)) for start in range(0, slots, DRAW_BLOCK))


def random_per_slot(slots: int, seed: int) -> Schedule:
    """Independent uniform setting choices at both stations, seeded: all of
    A's choices, then all of B's, each stream drawn in blocks."""
    # numpy is imported where a command draws, so commands that read stay light.
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    codes = np.zeros(slots, np.uint8)
    for weight in (2, 1):
        for block in slot_blocks(slots):
            # The stream is that of int64 draws: another dtype draws other bits.
            primed = rng.integers(0, 2, size=block.stop - block.start, dtype=np.int64)
            codes[block] += weight * primed.astype(np.uint8)
    return Schedule("random", codes.tobytes(), seed)


def custom_schedule(a_settings: Sequence[ASetting], b_settings: Sequence[BSetting]) -> Schedule:
    """The schedule setting A to ``a_settings`` and B to ``b_settings``, slot
    by slot: the one place settings become pairing codes."""
    a, b = tuple(a_settings), tuple(b_settings)
    if len(a) != len(b):
        raise PreconditionError("schedule station assignments differ in length")
    primed = (bytes(gather(_PRIMED, settings)) for settings in (a, b))
    return Schedule("custom", _bytewise(len(a), zip((2, 1), primed)))


def schedule_from_json(data: dict) -> Schedule:
    try:
        a = tuple(ASetting(v) for v in data["a_settings"])
        b = tuple(BSetting(v) for v in data["b_settings"])
    except (KeyError, ValueError, TypeError) as exc:
        raise PreconditionError(f"bad schedule data: {exc}") from exc
    return Schedule(data.get("kind", "custom"), custom_schedule(a, b).codes, data.get("seed"))


@dataclass(frozen=True, init=False)
class RecordedRun:
    """A run: one setting pair and one outcome pair per slot.

    Outcomes are integers in {+1, -1, 0}; at most one detector fires per
    station per slot, which the single signed value per station encodes by
    construction.  ``events`` holds each slot's event code (see
    :data:`EVENTS`): the only stored form, which every per-slot pass reads
    and from which :attr:`a_outcomes` and :attr:`b_outcomes` are computed on
    each request.  ``meta`` carries provenance (simulator configuration,
    seeds, generator name) and does not take part in equality.
    """

    schedule: Schedule = field(compare=False)
    events: bytes = field(repr=False)
    meta: dict | None = field(default=None, compare=False)

    def __init__(self, schedule: Schedule, a_outcomes, b_outcomes, meta: dict | None = None):
        a_outcomes, b_outcomes = tuple(a_outcomes), tuple(b_outcomes)
        n = schedule.slots
        if len(a_outcomes) != n or len(b_outcomes) != n:
            raise PreconditionError("run outcome series must match the schedule length")
        for series in (a_outcomes, b_outcomes):
            i = first_bad(series, MEASURED_VALUES)
            if i is not None:
                raise PreconditionError(f"outcome {series[i]!r} not one of +1, -1, 0")
        # (1, 2, 0)[v] is v + 1 for v in (-1, 0, 1).
        a, b = (bytes(gather((1, 2, 0), series)) for series in (a_outcomes, b_outcomes))
        self._store(schedule, _bytewise(n, ((9, schedule.codes), (3, a), (1, b))), meta)

    def _store(self, schedule: Schedule, events: bytes, meta: dict | None) -> None:
        for f, value in zip(fields(self), (schedule, events, meta)):
            object.__setattr__(self, f.name, value)

    @classmethod
    def from_events(cls, events: bytes, meta: dict | None = None) -> "RecordedRun":
        """The run whose event codes are ``events``, each below 36; its
        schedule is read off the codes."""
        events = bytes(events)
        bad = events.lstrip(_EVENT_CODES)
        if bad:
            raise PreconditionError(f"event code {bad[0]} is not one of 0-{len(EVENTS) - 1}")
        run = cls.__new__(cls)
        run._store(Schedule("custom", events.translate(_EVENT_PAIRING)), events, meta)
        return run

    @cached_property
    def event_counts(self) -> dict[int, int]:
        """Per event code the run records, how many of its slots record it:
        the run's one census, taken when first asked for."""
        return {code: n for code in range(len(EVENTS)) if (n := self.events.count(code))}

    @property
    def a_outcomes(self) -> tuple[int, ...]:
        return gather(EVENT_A, self.events)

    @property
    def b_outcomes(self) -> tuple[int, ...]:
        return gather(EVENT_B, self.events)

    @property
    def slots(self) -> int:
        return self.schedule.slots


def table_from_run(run: RecordedRun) -> SeriesTable:
    """Lay the recorded outcomes into the four series; cells under inactive
    settings stay unmeasured.  Each row looks its cells up by event code;
    the run has already checked its outcomes, so they are not checked
    again."""
    return SeriesTable(run.slots, *(gather(cells, run.events) for cells in zip(*EVENT_COLUMNS)))


def derive_schedule(table: SeriesTable, marks: dict[str, Sequence[str]] | None = None) -> Schedule:
    """Recover the setting schedule from a run-derived table, or from a
    completed table's F/C ``marks``, its factual ("F") cells counting as
    the measured ones.

    Requires exactly one of (a, a') and one of (b, b') measured per slot;
    otherwise the earliest slot without one is named, A before B.
    """
    # Per station: is the unprimed cell unmeasured, is the primed one measured?
    stations = (("a", "a_prime"), ("b", "b_prime"))
    if marks is None:
        masks = [([v is None for v in table.row(row)], [v is not None for v in table.row(primed)])
                 for row, primed in stations]
    else:
        masks = [([m != "F" for m in marks[row]], [m == "F" for m in marks[primed]])
                 for row, primed in stations]
    if any(unmeasured != primed for unmeasured, primed in masks):
        for i in range(table.slots):
            for station, (unmeasured, primed) in zip("AB", masks):
                if unmeasured[i] != primed[i]:
                    raise PreconditionError(
                        f"slot {i}: expected exactly one measured {station} cell, "
                        "table is not run-derived"
                    )
    (_, a_primed), (_, b_primed) = masks
    return Schedule("custom", _bytewise(table.slots, ((2, bytes(a_primed)), (1, bytes(b_primed)))))


def project_table(table: SeriesTable, schedule: Schedule, meta: dict | None = None) -> RecordedRun:
    """Sample a fully measured table through a schedule of the same length,
    reading each active row at the same slot index."""
    if not table.fully_measured:
        raise PreconditionError("projection needs a fully measured table")
    if schedule.slots != table.slots:
        raise PreconditionError(
            f"schedule has {schedule.slots} slots but the table has {table.slots}"
        )
    a_out = tuple(table.row(s.row)[i] for i, s in enumerate(schedule.a_settings))
    b_out = tuple(table.row(s.row)[i] for i, s in enumerate(schedule.b_settings))
    return RecordedRun(schedule, a_out, b_out, meta=meta)


def pairing_mask(schedule: Schedule, pairings) -> bytes:
    """Per slot, 1 if its setting pair is one of ``pairings``, else 0."""
    return schedule.codes.translate(bytes(p in pairings for p in PAIRINGS).ljust(256, b"\0"))


def pairing_slots(schedule: Schedule, pairings) -> list[int]:
    """The slots whose setting pair is one of ``pairings``, in time order."""
    return list(compress(range(schedule.slots), pairing_mask(schedule, pairings)))


def pairing_blocks(run: RecordedRun) -> dict[Pairing, list[int]]:
    """Slots grouped by the active setting pair, each group in time order."""
    return {p: pairing_slots(run.schedule, (p,)) for p in PAIRINGS}
