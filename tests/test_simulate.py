import io
import json
import math
import tracemalloc

import pytest

from bellseries import fileio
from bellseries.errors import PreconditionError
from bellseries.model import (
    ASetting,
    BSetting,
    SeriesTable,
    block_halves,
    custom_schedule,
    random_per_slot,
    schedule_from_json,
    table_from_run,
)
from bellseries.simulate import (
    DEFAULT_ANGLES,
    SourceConfig,
    _draw_events,
    expected_chsh,
    replay,
    simulate,
)
from bellseries.stats import chsh_detail, correlation
from bellseries.model import Pairing

from conftest import make_rng, random_table
from naive_simulate import naive_random_per_slot, naive_simulate


def _quantum(slots, seed, **kwargs):
    sched = kwargs.pop("schedule", None) or random_per_slot(slots, seed + 1)
    return SourceConfig(model="quantum", schedule=sched, seed=seed, **kwargs)


def test_same_seed_same_run():
    cfg = _quantum(500, 42)
    assert simulate(cfg) == simulate(cfg)


def test_same_seed_same_bytes():
    cfg = _quantum(200, 7)
    bufs = []
    for _ in range(2):
        buf = io.StringIO()
        fileio.write_run_events(simulate(cfg), buf)
        bufs.append(buf.getvalue())
    assert bufs[0] == bufs[1]


def test_different_seeds_differ():
    sched = random_per_slot(500, 1)
    a = simulate(SourceConfig(model="quantum", schedule=sched, seed=10))
    b = simulate(SourceConfig(model="quantum", schedule=sched, seed=11))
    assert a != b


def test_expected_chsh_at_default_angles():
    cfg = _quantum(8, 0)
    assert math.isclose(expected_chsh(cfg), 2 * math.sqrt(2))


def test_quantum_run_converges_to_expected_value():
    cfg = _quantum(80000, 5)
    run = simulate(cfg)
    s = float(chsh_detail(table_from_run(run)).s)
    # around 20k coincidences per pairing the standard error of S is ~0.01
    assert abs(s - 2 * math.sqrt(2)) < 0.05


def test_zero_efficiency_erases_everything():
    cfg = _quantum(100, 3, eta=0.0)
    run = simulate(cfg)
    assert all(v == 0 for v in run.a_outcomes)
    assert all(v == 0 for v in run.b_outcomes)


def test_partial_efficiency_erases_independently():
    cfg = _quantum(40000, 9, eta=0.75)
    run = simulate(cfg)
    kept_a = sum(1 for v in run.a_outcomes if v != 0)
    kept_b = sum(1 for v in run.b_outcomes if v != 0)
    for kept in (kept_a, kept_b):
        # 3 sigma window around the binomial mean
        assert abs(kept - 30000) < 3 * math.sqrt(40000 * 0.75 * 0.25)


def test_outcomes_have_no_marginal_bias():
    run = simulate(_quantum(40000, 13))
    mean = sum(run.a_outcomes) / len(run.a_outcomes)
    assert abs(mean) < 3 / math.sqrt(40000)


def test_deterministic_source_reads_instructions_cyclically():
    instructions = SeriesTable.from_rows(
        (1, -1, 1, -1), (1, 1, -1, -1), (-1, -1, 1, 1), (-1, 1, -1, 1)
    )
    sched = block_halves(8)
    run = simulate(
        SourceConfig(model="deterministic", schedule=sched, seed=0,
                     instructions=instructions)
    )
    for i in range(8):
        src = i % 4
        assert run.a_outcomes[i] == instructions.row(sched.a_settings[i].row)[src]
        assert run.b_outcomes[i] == instructions.row(sched.b_settings[i].row)[src]


def test_config_validation():
    sched = block_halves(4)
    with pytest.raises(PreconditionError):
        SourceConfig(model="psychic", schedule=sched, seed=0)
    with pytest.raises(PreconditionError):
        SourceConfig(model="quantum", schedule=sched, seed=0, eta=1.5)
    with pytest.raises(PreconditionError):
        SourceConfig(model="quantum", schedule=sched, seed=0, angles=(0.0, 1.0))
    with pytest.raises(PreconditionError):
        SourceConfig(model="deterministic", schedule=sched, seed=0)


def test_replay_projects_equal_length_table():
    table = SeriesTable.from_rows((1,) * 4, (-1,) * 4, (1,) * 4, (-1,) * 4)
    run = replay(table, block_halves(4))
    t = table_from_run(run)
    assert t.a == (1, 1, None, None)
    assert t.b_prime == (-1, None, None, -1)


def test_replay_consumes_double_length_table_sequentially():
    table = SeriesTable.from_rows(
        (1, -1), (1, 1), (-1, -1), (-1, 1)
    )
    run = replay(table, block_halves(4))
    assert run.slots == 4
    # every row is active in exactly two of the four slots and is read
    # in its own time order
    assert run.a_outcomes == (1, -1, -1, -1)
    assert run.b_outcomes == (-1, 1, 1, 1)


def test_replay_rejects_other_lengths():
    table = SeriesTable.from_rows((1,) * 3, (1,) * 3, (1,) * 3, (1,) * 3)
    with pytest.raises(PreconditionError):
        replay(table, block_halves(4))


def test_quantum_correlations_track_the_angles():
    # colinear analyzers agree perfectly on detected pairs
    cfg = SourceConfig(
        model="quantum",
        schedule=random_per_slot(2000, 21),
        seed=22,
        angles=(0.0, 0.0, 0.0, 0.0),
    )
    run = simulate(cfg)
    table = table_from_run(run)
    for p in Pairing:
        assert correlation(table, p).e == 1


# --- the whole-array simulator against per-slot loops ------------------------

_PARITY_SLOTS = 1_000


def _log(run):
    buf = io.StringIO()
    fileio.write_run_events(run, buf)
    return buf.getvalue()


def _schedule(layout, tmp_path, seed):
    """A schedule over _PARITY_SLOTS slots in the given layout; ``file`` is a
    seeded pattern of runs of one setting pair, read back from a JSON file."""
    if layout == "block":
        return block_halves(_PARITY_SLOTS)
    if layout == "random":
        return random_per_slot(_PARITY_SLOTS, seed)
    rng = make_rng(seed)
    a, b = [], []
    while len(a) < _PARITY_SLOTS:
        length = int(rng.integers(1, 40))
        a += [(ASetting.ALPHA, ASetting.ALPHA_PRIME)[int(rng.integers(2))]] * length
        b += [(BSetting.BETA, BSetting.BETA_PRIME)[int(rng.integers(2))]] * length
    path = tmp_path / "schedule.json"
    path.write_text(json.dumps(custom_schedule(a[:_PARITY_SLOTS], b[:_PARITY_SLOTS]).to_json()))
    return schedule_from_json(json.loads(path.read_text()))


def _assert_matches_reference(config):
    run, reference = simulate(config), naive_simulate(config)
    assert run == reference and run.meta == reference.meta
    assert _log(run) == _log(reference)


@pytest.mark.parametrize("angles", [DEFAULT_ANGLES, (10.0, -33.5, 71.25, 200.0)])
@pytest.mark.parametrize("layout", ["block", "random", "file"])
@pytest.mark.parametrize("eta", [0.0, 0.37, 0.9, 1.0])
def test_quantum_source_matches_per_slot_loops(tmp_path, eta, layout, angles):
    seed = 31 + int(100 * eta)
    schedule = _schedule(layout, tmp_path, seed)
    _assert_matches_reference(
        SourceConfig(model="quantum", schedule=schedule, seed=seed, angles=angles, eta=eta)
    )


@pytest.mark.parametrize("instruction_slots", [1, 3, 7, 12])
@pytest.mark.parametrize("layout", ["block", "random", "file"])
@pytest.mark.parametrize("eta", [0.0, 0.37, 0.9, 1.0])
def test_deterministic_source_matches_per_slot_loops(tmp_path, eta, layout, instruction_slots):
    seed = 57 + instruction_slots
    instructions = random_table(make_rng(seed), slots=instruction_slots)
    _assert_matches_reference(SourceConfig(
        model="deterministic", schedule=_schedule(layout, tmp_path, seed), seed=seed,
        eta=eta, instructions=instructions,
    ))


@pytest.mark.parametrize("slots", [0, 1, 7, 1_000])
def test_random_schedule_matches_per_slot_loop(slots):
    for seed in range(5):
        schedule, reference = random_per_slot(slots, seed), naive_random_per_slot(slots, seed)
        assert schedule == reference
        assert (schedule.kind, schedule.seed) == (reference.kind, reference.seed)


@pytest.mark.parametrize("model", ["quantum", "deterministic"])
def test_drawing_keeps_at_most_one_float_array_alive(model):
    slots = 200_000
    instructions = random_table(make_rng(3), slots=64, alphabet=(-1, 1))
    config = SourceConfig(model=model, schedule=random_per_slot(slots, 2), seed=4, eta=0.9,
                          instructions=instructions if model == "deterministic" else None)
    _draw_events(config)
    tracemalloc.start()
    try:
        _draw_events(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # One float64 draw and the per-slot thresholds it is compared with take
    # 16 bytes a slot; four live draws would take 32.
    assert peak / slots < 24
