import json

import numpy as np
import pytest
from hypothesis import strategies as st

from bellseries.model import (
    ROW_KEYS,
    ASetting,
    BSetting,
    RecordedRun,
    SeriesTable,
    custom_schedule,
)


def make_rng(seed):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def random_table(rng, slots=None, alphabet=(-1, 0, 1)):
    """Cells drawn uniformly from ``alphabet``; include None for unmeasured
    cells.  Draws the same stream as ``rng.choice(alphabet)`` per cell."""
    if slots is None:
        slots = int(rng.integers(1, 11))
    rows = [
        tuple(alphabet[int(rng.integers(len(alphabet)))] for _ in range(slots))
        for _ in range(4)
    ]
    return SeriesTable.from_rows(*rows)


def table_rows(table):
    """The plain-dict view the naive reference implementations expect."""
    return {
        "a": table.a,
        "b": table.b,
        "a_prime": table.a_prime,
        "b_prime": table.b_prime,
    }


EVENT = {"slot": 0, "a_setting": "alpha", "b_setting": "beta", "a": 1, "b": -1}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False)
    | st.sampled_from(("alpha", "alpha_prime", "beta", "beta_prime", "")) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def event_logs(draw):
    """Event lines for slots 0, 1, ..., some with a field missing, replaced by
    any JSON value or renumbered, some replaced by a meta line or any text."""
    lines = []
    slot = 0
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            lines.append(draw(st.text(max_size=20)).replace("\n", " "))
            continue
        if kind == 1:
            lines.append(json.dumps({"meta": draw(json_values)}))
            continue
        event = dict(EVENT, slot=slot)
        slot += 1
        if kind == 2:
            del event[draw(st.sampled_from(sorted(event)))]
        elif kind == 3:
            event[draw(st.sampled_from(sorted(event)))] = draw(json_values)
        elif kind == 4:
            event["slot"] = draw(st.integers(-1, 5))
        lines.append(json.dumps(event))
    return "".join(line + "\n" for line in lines)


@st.composite
def table_objects(draw):
    """Table objects of up to 8 slots: fully measured, run-shaped (one A and
    one B cell per slot) or any mix of cells, with no provenance, any marks
    or run-shaped marks (one factual A and one factual B cell per slot),
    then sometimes damaged: the slot count, a row, a cell, a provenance row
    or a key replaced by any JSON value or dropped."""
    slots = draw(st.integers(0, 8))
    shape = draw(st.sampled_from(("full", "run", "any")))
    cells = st.sampled_from((-1, 0, 1) if shape == "full" else (-1, 0, 1, None))
    rows = {key: draw(st.lists(cells, min_size=slots, max_size=slots)) for key in ROW_KEYS}
    if shape == "run":
        for i in range(slots):
            for pair in (("a", "a_prime"), ("b", "b_prime")):
                active = draw(st.sampled_from(pair))
                value = draw(st.sampled_from((-1, 0, 1)))
                for key in pair:
                    rows[key][i] = value if key == active else None
    data = dict(rows, slots=slots)
    marking = draw(st.sampled_from(("none", "any", "run")))
    if marking == "any":
        marks = st.lists(st.sampled_from("FC"), min_size=slots, max_size=slots)
        data["provenance"] = {key: draw(marks) for key in ROW_KEYS}
    elif marking == "run":
        data["provenance"] = {key: [] for key in ROW_KEYS}
        for _ in range(slots):
            for pair in (("a", "a_prime"), ("b", "b_prime")):
                factual = draw(st.sampled_from(pair))
                for key in pair:
                    data["provenance"][key].append("F" if key == factual else "C")
    for _ in range(draw(st.integers(0, 2))):
        target = draw(st.sampled_from(("slots", *ROW_KEYS, "cell", "provenance", "drop")))
        if target == "drop":
            data.pop(draw(st.sampled_from(sorted(data))), None)
        elif target == "cell":
            row = data.get(draw(st.sampled_from(ROW_KEYS)))
            if isinstance(row, list) and row:
                row[draw(st.integers(0, len(row) - 1))] = draw(json_values)
        elif target == "provenance" and isinstance(data.get(target), dict) and draw(st.booleans()):
            data[target][draw(st.sampled_from(ROW_KEYS))] = draw(json_values)
        else:
            data[target] = draw(json_values)
    return data


@st.composite
def recorded_runs(draw, slots=st.integers(0, 12)):
    """Runs on any settings, with or without zeros, or with every outcome
    +1 (so that reordering can succeed)."""
    slots = draw(slots)
    pick = st.lists(st.booleans(), min_size=slots, max_size=slots)
    schedule = custom_schedule(
        [ASetting.ALPHA_PRIME if x else ASetting.ALPHA for x in draw(pick)],
        [BSetting.BETA_PRIME if x else BSetting.BETA for x in draw(pick)],
    )
    values = st.sampled_from(draw(st.sampled_from(((-1, 1), (-1, 0, 1), (1,)))))
    outcomes = st.lists(values, min_size=slots, max_size=slots)
    return RecordedRun(schedule, tuple(draw(outcomes)), tuple(draw(outcomes)))


@pytest.fixture
def cli():
    """Invoke the command-line entry point in-process."""
    from bellseries.cli import main

    def invoke(*argv):
        return main(list(argv))

    return invoke


@pytest.fixture
def read_json():
    def load(path):
        with open(path, "r", encoding="utf-8") as fp:
            return json.load(fp)

    return load
