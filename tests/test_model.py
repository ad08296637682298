import dataclasses
import io
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellseries import fileio, sica, stats
from bellseries.errors import PreconditionError, StructuralError
from bellseries.model import (
    EVENT_COLUMNS,
    EVENTS,
    MINUS,
    PAIRINGS,
    PLUS,
    ROW_KEYS,
    ZERO,
    ASetting,
    BSetting,
    Pairing,
    RecordedRun,
    Schedule,
    SeriesTable,
    block_halves,
    custom_schedule,
    derive_schedule,
    first_bad,
    pairing_blocks,
    project_table,
    random_per_slot,
    schedule_from_json,
    table_from_run,
)
from bellseries.simulate import SourceConfig, replay, simulate

from conftest import bytes_per_slot, make_rng, random_table
from naive_model import (
    naive_derive_schedule,
    naive_event_counts,
    naive_events,
    naive_table_from_run,
)
from naive_sica import naive_block_pairs, naive_distant_regimes
from naive_simulate import naive_pairing_blocks
from naive_stats import naive_run_columns, naive_run_detectors


def test_pairing_rows_and_keys():
    assert Pairing.AB.a_row == "a"
    assert Pairing.AB.b_row == "b"
    assert Pairing.APBP.a_row == "a_prime"
    assert Pairing.APBP.b_row == "b_prime"
    assert Pairing.ABP.key == "alpha:beta_prime"
    assert len(PAIRINGS) == 4


def test_from_rows_rejects_ragged_rows():
    with pytest.raises(StructuralError):
        SeriesTable.from_rows((PLUS,), (PLUS, MINUS), (PLUS,), (PLUS,))


def test_from_rows_rejects_bad_cell():
    with pytest.raises(StructuralError):
        SeriesTable.from_rows((2,), (PLUS,), (PLUS,), (PLUS,))


def test_fully_measured_distinguishes_missed_from_unmeasured():
    # a zero cell is a measurement that missed; only None is unmeasured
    missed = SeriesTable.from_rows((PLUS,), (ZERO,), (PLUS,), (MINUS,))
    unmeasured = SeriesTable.from_rows((PLUS,), (None,), (PLUS,), (MINUS,))
    assert missed.fully_measured
    assert not unmeasured.fully_measured
    assert set(unmeasured.row("b")) == {None}


def test_block_halves_layout():
    sched = block_halves(8)
    pairs = [PAIRINGS[code] for code in sched.codes]
    assert pairs == [
        Pairing.ABP, Pairing.ABP,
        Pairing.AB, Pairing.AB,
        Pairing.APB, Pairing.APB,
        Pairing.APBP, Pairing.APBP,
    ]


def test_block_halves_needs_multiple_of_four():
    with pytest.raises(PreconditionError):
        block_halves(6)


def test_random_schedule_is_seeded():
    s1 = random_per_slot(64, 5)
    s2 = random_per_slot(64, 5)
    s3 = random_per_slot(64, 6)
    assert s1 == s2
    assert s1 != s3
    # both settings should show up on each side at this length
    assert {s for s in s1.a_settings} == {ASetting.ALPHA, ASetting.ALPHA_PRIME}
    assert {s for s in s1.b_settings} == {BSetting.BETA, BSetting.BETA_PRIME}


def test_schedule_json_round_trip():
    sched = random_per_slot(12, 99)
    again = schedule_from_json(sched.to_json())
    assert again == sched


def test_project_then_derive_round_trip():
    rng = make_rng(0)
    table = random_table(rng, slots=16, alphabet=(-1, 1))
    sched = block_halves(16)
    run = project_table(table, sched)
    assert derive_schedule(table_from_run(run)) == sched


def test_project_leaves_inactive_cells_unmeasured():
    table = SeriesTable.from_rows(
        (PLUS,) * 4, (MINUS,) * 4, (PLUS,) * 4, (MINUS,) * 4
    )
    run = project_table(table, block_halves(4))
    t = table_from_run(run)
    # slot 0 pairs alpha with beta_prime, so b and a_prime are unmeasured there
    assert t.a[0] == PLUS and t.b_prime[0] == MINUS
    assert t.b[0] is None and t.a_prime[0] is None


def test_pairing_blocks_partition_slots():
    full = SeriesTable.from_rows((PLUS,) * 8, (PLUS,) * 8, (PLUS,) * 8, (PLUS,) * 8)
    run = project_table(full, block_halves(8))
    blocks = pairing_blocks(run)
    assert blocks[Pairing.ABP] == [0, 1]
    assert blocks[Pairing.AB] == [2, 3]
    assert blocks[Pairing.APB] == [4, 5]
    assert blocks[Pairing.APBP] == [6, 7]
    assert sorted(i for ids in blocks.values() for i in ids) == list(range(8))


@pytest.mark.parametrize("slots", [0, 1, 12, 1_000])
def test_pairing_blocks_match_per_slot_loop(slots):
    for seed in range(4):
        for schedule in (random_per_slot(slots, seed), block_halves(slots - slots % 4)):
            run = RecordedRun(schedule, (0,) * schedule.slots, (0,) * schedule.slots)
            assert pairing_blocks(run) == naive_pairing_blocks(run)


def test_first_bad_reads_none_and_the_types_off_the_allowed_values():
    cells = [1, None, -1, 0, None, 1, 0]
    assert first_bad(cells, (None, 1, -1, 0)) is None
    assert first_bad(cells, (1, -1, 0)) == 1
    assert first_bad([], (1,)) is None
    # Equal is not enough: True and 1.0 are not the int 1, nor 1 the float 1.0.
    assert first_bad([1, 0, True], (1, 0)) == 2
    assert first_bad([1, 1.0, 0], (1, 0)) == 1
    assert first_bad([1.0, 1], (1.0,)) == 1


@pytest.mark.parametrize("where", [0, 3, 6])
@pytest.mark.parametrize("bad", [[], {}, set()], ids=repr)
def test_first_bad_names_an_unhashable_item_where_it_sits(where, bad):
    cells = [1, None, -1, 0, None, 1, 0]
    cells[where] = bad
    assert first_bad(cells, (None, 1, -1, 0)) == where
    marks = ["F", "C", "C", "F", "F", "C", "F"]
    marks[where] = bad
    assert first_bad(marks, ("F", "C")) == where
    # A bad hashable item before it is named first.
    assert first_bad([2, *cells], (None, 1, -1, 0)) == 0


@pytest.mark.parametrize("bad", [True, False, 1.0, 2, None, [], "1"], ids=repr)
def test_recorded_run_names_the_first_bad_outcome(bad):
    # A's series is checked before B's, each from its first slot.
    with pytest.raises(PreconditionError, match=re.escape(f"outcome {bad!r} not one of")):
        RecordedRun(block_halves(4), (1, 0, 1, 1), (1, bad, -1, 7))
    with pytest.raises(PreconditionError, match="outcome 7 not one of"):
        RecordedRun(block_halves(4), (1, 7, 1, 1), (1, bad, -1, 1))


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("bad", [2, True, 1.0, "1", [], {}], ids=repr)
def test_from_rows_names_the_first_bad_cell(where, bad):
    slot = {"first": 0, "middle": 3, "last": 6}[where]
    row = [1, None, -1, 0, None, 1, 0]
    row[slot] = bad
    with pytest.raises(StructuralError, match=re.escape(
            f"row a_prime slot {slot}: cell {bad!r} is not one of 1, -1, 0, None")):
        SeriesTable.from_rows((1,) * 7, (None,) * 7, row, (7, 0, 0, 0, 0, 0, 7))


@st.composite
def _runs(draw):
    """Runs of 0-70 slots: each station on random settings or on one
    setting throughout, each station's outcomes from one of four alphabets,
    all zeros among them."""
    slots = draw(st.integers(0, 70))

    def station(settings):
        fixed = draw(st.sampled_from((None, *settings)))
        pick = st.sampled_from(settings)
        return [fixed] * slots if fixed else draw(st.lists(pick, min_size=slots, max_size=slots))

    def outcomes():
        values = st.sampled_from(draw(st.sampled_from(((-1, 1), (-1, 0, 1), (1,), (0,)))))
        return tuple(draw(st.lists(values, min_size=slots, max_size=slots)))

    schedule = custom_schedule(station(tuple(ASetting)), station(tuple(BSetting)))
    return RecordedRun(schedule, outcomes(), outcomes())


def _derived_runs(run):
    """Runs the package makes from ``run``: decoded from its written log,
    simulated, projected and replayed under its schedule, and rearranged by
    a successful reorder."""
    buf = io.StringIO()
    fileio.write_run_events(run, buf)
    yield fileio.read_run_events(buf.getvalue())
    yield simulate(SourceConfig(model="quantum", schedule=run.schedule, seed=run.slots, eta=0.8))
    full = sica.fill_counterfactual(run)
    yield project_table(full, run.schedule)
    if run.slots % 2 == 0 and run.slots:
        yield replay(full, block_halves(2 * run.slots))
    outcome = sica.reorder_to_sica(run, budget=run.slots)
    if outcome.success:
        yield sica.apply_plan(run, outcome.plan)


def _schedule_or_message(derive, *args):
    try:
        schedule = derive(*args)
    except PreconditionError as exc:
        return str(exc)
    return schedule.a_settings, schedule.b_settings


@settings(max_examples=200, deadline=None)
@given(_runs(), st.data())
def test_derive_schedule_reads_a_table_as_the_per_slot_reference(run, data):
    """A run's table, and the same table with one cell added or removed,
    give the per-slot reference's schedule or its message; so do F/C marks
    that flag the same cells as factual on a completed table."""
    table = table_from_run(run)
    tables = [table]
    if run.slots:
        key = data.draw(st.sampled_from(ROW_KEYS))
        slot = data.draw(st.integers(0, run.slots - 1))
        row = list(table.row(key))
        row[slot] = data.draw(st.sampled_from((-1, 0, 1))) if row[slot] is None else None
        tables.append(dataclasses.replace(table, **{key: tuple(row)}))
    for each in tables:
        expected = naive_derive_schedule(each)
        assert _schedule_or_message(derive_schedule, each) == expected
        if not run.slots:
            continue
        marks = {key: tuple("C" if v is None else "F" for v in each.row(key)) for key in ROW_KEYS}
        full = sica.fill_counterfactual(run)
        got = _schedule_or_message(
            lambda: sica.CompleteTable.from_provenance(full, marks).schedule)
        if isinstance(expected, str):
            expected = f"the table's factual cells fix no schedule: {expected}"
        assert got == expected


@settings(max_examples=100, deadline=None)
@given(_runs())
def test_a_run_takes_one_event_census_that_its_readers_share(run):
    counts = run.event_counts
    assert counts == naive_event_counts(run) and run.event_counts is counts
    # The census takes no part in equality, and a run's meta none in it.
    assert RecordedRun.from_events(run.events, {"seed": 1}) == run
    # The block pairs, the detector counts and the summed counts all read it.
    fake = RecordedRun.from_events(run.events, run.meta)
    code = len(EVENTS) - 1
    vars(fake)["event_counts"] = {code: 5}
    assert sica._block_pairs(fake)[Pairing.APBP] == {(1, 1): 5}
    assert stats.run_detector_efficiencies(fake)["a_prime+"]["singles"] == 5
    assert stats._counts(fake) == stats._sum_props({EVENT_COLUMNS[code]: 5})


@settings(max_examples=150, deadline=None)
@given(_runs())
def test_run_path_reads_the_event_codes_as_the_per_slot_references(run):
    assert run.events == naive_events(run)
    assert table_from_run(run) == naive_table_from_run(run)
    assert pairing_blocks(run) == naive_pairing_blocks(run)
    assert stats._counts(run) == stats._sum_props(naive_run_columns(run))
    assert stats.correlation_report(run) == stats.correlation_report(table_from_run(run))
    detectors = stats.run_detector_efficiencies(run)
    assert {label: (rec["singles"], rec["coincidences"]) for label, rec in detectors.items()} == (
        naive_run_detectors(run))
    assert sica._block_pairs(run) == naive_block_pairs(run)
    assert sica._regimes(run.schedule) == naive_distant_regimes(run.schedule)
    table = table_from_run(run)
    for key in ROW_KEYS:
        assert sica._cells(run, run.schedule, key) == sica._cells(table, run.schedule, key)
    for derived in _derived_runs(run):
        # The tuples computed from the codes rebuild the codes.
        assert derived.events == naive_events(derived)
        again = RecordedRun(derived.schedule, derived.a_outcomes, derived.b_outcomes)
        assert again.events == derived.events and again == derived
        decoded = RecordedRun.from_events(derived.events)
        assert decoded == derived and decoded.schedule == derived.schedule
        s = derived.schedule
        assert custom_schedule(s.a_settings, s.b_settings) == s
        assert schedule_from_json(s.to_json()) == s


def test_from_events_reads_the_schedule_off_the_codes():
    run = RecordedRun(block_halves(4), (1, 0, -1, 1), (0, 0, 1, -1))
    again = RecordedRun.from_events(run.events)
    assert again == run and again.schedule == run.schedule
    assert (again.a_outcomes, again.b_outcomes) == ((1, 0, -1, 1), (0, 0, 1, -1))
    assert again.schedule.a_settings == run.schedule.a_settings
    assert again.schedule.b_settings == run.schedule.b_settings


@pytest.mark.parametrize("bad", [36, 37, 255])
def test_from_events_refuses_a_code_past_the_events(bad):
    with pytest.raises(PreconditionError, match=f"event code {bad} is not one of 0-35"):
        RecordedRun.from_events(bytes([0, 35, bad, 1]))


@pytest.mark.parametrize("bad", [4, 9, 255])
def test_schedule_refuses_a_code_past_the_setting_pairs(bad):
    with pytest.raises(PreconditionError, match=f"pairing code {bad} is not one of 0-3"):
        Schedule("custom", bytes([0, 3, bad, 1]))


def test_checking_valid_codes_copies_none_of_them():
    """A valid code string is checked without a buffer as long as it: a
    schedule keeps the codes it is given, and a run decoded from its event
    codes adds only its schedule's codes."""
    slots = 10**6
    codes, events = bytes(range(4)) * (slots // 4), bytes(range(36)) * (slots // 36)
    assert bytes_per_slot(lambda: Schedule("custom", codes), slots) < 0.1
    assert bytes_per_slot(lambda: RecordedRun.from_events(events), len(events)) <= 1.05
