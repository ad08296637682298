import itertools
import random
from fractions import Fraction

import pytest

from bellseries import refdata, sica
from bellseries.errors import BellSeriesError, PreconditionError
from bellseries.model import (
    Pairing,
    RecordedRun,
    SeriesTable,
    block_halves,
    pairing_blocks,
    project_table,
    random_per_slot,
    table_from_run,
)
from bellseries.sica import (
    CompleteTable,
    apply_plan,
    build_complete_table,
    check_sica,
    condense,
    default_discard_budget,
    enumerate_complete_tables,
    fill_counterfactual,
    reorder_to_sica,
)
from bellseries.simulate import SourceConfig, simulate
from bellseries.stats import chsh, correlation

from naive_sica import naive_greedy_obstruction, naive_plan, naive_stable_match


def test_fully_measured_table_has_no_regimes_to_compare():
    verdict = check_sica(refdata.fig2())
    assert verdict.holds
    assert "regime" in verdict.note


def test_replayed_run_breaks_the_identity():
    run = refdata.fig5()
    verdict = check_sica(table_from_run(run))
    assert not verdict.holds
    first = verdict.witnesses[0]
    assert first.row == "a"
    assert first.position == 0
    assert (first.slot_left, first.slot_right) == (8, 0)


def test_witness_detail_names_slots():
    verdict = check_sica(table_from_run(refdata.fig5()))
    assert "slot" in verdict.witnesses[0].detail


def test_black_run_cannot_be_reordered():
    run = refdata.fig6("black")
    assert chsh(table_from_run(run)) == 4
    outcome = reorder_to_sica(run)
    assert not outcome.success
    assert outcome.best_keepable == 0
    assert outcome.required == 1
    assert "block" in outcome.obstruction


def test_red_run_reorders_and_condenses():
    run = refdata.fig6("red")
    outcome = reorder_to_sica(run)
    assert outcome.success
    rearranged = apply_plan(run, outcome.plan)
    assert check_sica(table_from_run(rearranged)).holds
    condensed = condense(table_from_run(rearranged), rearranged.schedule)
    assert condensed == refdata.fig7()
    assert chsh(condensed) == 2


def test_reorder_keeps_block_multisets():
    run = refdata.fig6("red")
    outcome = reorder_to_sica(run)
    rearranged = apply_plan(run, outcome.plan)
    old_blocks = pairing_blocks(run)
    new_blocks = pairing_blocks(rearranged)
    for p in Pairing:
        old_pairs = {
            (run.a_outcomes[i], run.b_outcomes[i]) for i in old_blocks[p]
        }
        new_pairs = [
            (rearranged.a_outcomes[i], rearranged.b_outcomes[i])
            for i in new_blocks[p]
        ]
        assert set(new_pairs) <= old_pairs


def test_reorder_is_stable_under_block_internal_shuffle():
    def reversed_within_blocks(run):
        blocks = pairing_blocks(run)
        a = list(run.a_outcomes)
        b = list(run.b_outcomes)
        for ids in blocks.values():
            for i, j in zip(ids, reversed(ids)):
                a[i] = run.a_outcomes[j]
                b[i] = run.b_outcomes[j]
        return RecordedRun(run.schedule, tuple(a), tuple(b))

    black = refdata.fig6("black")
    red = refdata.fig6("red")
    assert not reorder_to_sica(reversed_within_blocks(black)).success
    shuffled = reorder_to_sica(reversed_within_blocks(red))
    assert shuffled.success
    assert shuffled.best_keepable == reorder_to_sica(red).best_keepable


def test_large_divergent_run_fails_by_margin_certificate():
    sched = random_per_slot(4000, 31)
    run = simulate(SourceConfig(model="quantum", schedule=sched, seed=32))
    outcome = reorder_to_sica(run)
    assert not outcome.success
    assert "CHSH combination" in outcome.obstruction


def test_default_discard_budget_grows_like_sqrt():
    assert default_discard_budget(4) == 1
    assert default_discard_budget(16) == 2
    assert default_discard_budget(32) == 3
    assert default_discard_budget(200000) == 224


# --- completion -------------------------------------------------------------


def test_completion_reproduces_published_table():
    run = refdata.fig6("black")
    bits_a, bits_ap = refdata.fig8_free_choices()
    result = build_complete_table(run, bits_a, bits_ap)
    expected = refdata.fig8()
    assert result.complete.table == expected.table
    assert result.complete.provenance == expected.provenance
    assert result.complete.check().holds
    assert result.discarded_slots == ()


def test_completion_factual_correlations_match_blocks():
    run = refdata.fig6("black")
    complete = build_complete_table(run, *refdata.fig8_free_choices()).complete
    facts = complete.factual_correlations()
    assert facts[Pairing.AB].e == 1
    assert facts[Pairing.ABP].e == -1
    assert facts[Pairing.APB].e == 1
    assert facts[Pairing.APBP].e == 1


def test_condensing_the_complete_table():
    complete = refdata.fig8()
    condensed = complete.condense()
    expected = refdata.fig9()
    assert condensed.table == expected.table
    assert condensed.provenance == expected.provenance
    assert chsh(condensed.table) == 2
    # the condensed table does not itself satisfy the identity
    assert not check_sica(condensed.table, block_halves(4)).holds


def test_resample_restores_the_factual_value():
    complete = refdata.fig8()
    assert correlation(complete.table, Pairing.ABP).e == 0
    res = complete.resample({Pairing.ABP: (2, 3)})
    assert res.stats[Pairing.ABP].e == 1
    assert res.s == 2


def test_resample_rejects_unknown_slots():
    with pytest.raises(PreconditionError):
        refdata.fig8().resample({Pairing.ABP: (2, 99)})


def test_every_free_choice_yields_a_distinct_valid_table():
    run = refdata.fig6("black")
    block_es = {
        p: correlation(table_from_run(run), p).e for p in Pairing
    }
    tables = []
    for result in enumerate_complete_tables(run):
        complete = result.complete
        assert complete.check().holds
        facts = complete.factual_correlations()
        for p in Pairing:
            assert facts[p].e == block_es[p]
        tables.append(complete.table)
    assert len(tables) == 16
    assert len(set(tables)) == 16


def test_completion_rejects_missed_detections():
    run = refdata.fig6("black")
    a = list(run.a_outcomes)
    a[0] = 0
    lossy = RecordedRun(run.schedule, tuple(a), run.b_outcomes)
    with pytest.raises(PreconditionError, match="missed detections"):
        build_complete_table(lossy, (0, 1), (1, 0))


def test_completion_requires_block_layout():
    run = simulate(
        SourceConfig(model="quantum", schedule=random_per_slot(8, 1), seed=2)
    )
    with pytest.raises(PreconditionError, match="needs the block layout"):
        build_complete_table(run, (0, 1), (1, 0))


def test_completion_budget_refusal_names_the_quarters():
    # values in quarters 1 and 2 of row a share no sign, so matching fails
    # there, while the a' quarters match fully
    run = RecordedRun(
        block_halves(8),
        (1, 1, -1, -1, 1, 1, 1, 1),
        (1, 1, 1, 1, 1, 1, 1, 1),
    )
    with pytest.raises(PreconditionError, match="row a, quarters 1-2"):
        build_complete_table(run, (0, 0), (0, 0), budget=0)


def test_fill_zeros_marks_counterfactuals_as_missed():
    run = refdata.fig6("black")
    table = fill_counterfactual(run, "zeros")
    assert table.fully_measured
    assert table.b[0] == 0  # slot 0 measured beta_prime, so beta got nothing


# --- exhaustive small-size checks -------------------------------------------


def test_all_identity_satisfying_tables_condense_within_bound():
    sched = block_halves(4)
    count = 0
    for vals in itertools.product((-1, 1), repeat=8):
        v = vals
        table = SeriesTable.from_rows(
            (v[0], v[0], v[1], v[1]),
            (v[2], v[3], v[2], v[3]),
            (v[4], v[4], v[5], v[5]),
            (v[6], v[7], v[6], v[7]),
        )
        assert check_sica(table, sched).holds
        condensed = condense(table, sched)
        assert condensed.slots == 2
        s = chsh(condensed)
        assert s is None or s <= 2
        count += 1
    assert count == 256


def test_condense_full_table_without_schedule_truncates():
    table = refdata.fig2()
    condensed = condense(table)
    assert condensed.slots == 16 // 2
    assert condensed.a == table.a[:8]


def test_condense_rejects_unequal_blocks():
    # 8 slots, but three of one pairing and one of another
    sched_ids = [Pairing.ABP, Pairing.ABP, Pairing.ABP, Pairing.AB,
                 Pairing.APB, Pairing.APB, Pairing.APBP, Pairing.APBP]
    from bellseries.model import custom_schedule

    sched = custom_schedule(
        [p.a_setting for p in sched_ids], [p.b_setting for p in sched_ids]
    )
    run = RecordedRun(sched, (1,) * 8, (1,) * 8)
    with pytest.raises(PreconditionError):
        condense(table_from_run(run), sched)


def test_complete_table_validates_provenance():
    good = refdata.fig8()
    bad_prov = dict(good.provenance)
    bad_prov["a"] = ("X",) + good.provenance["a"][1:]
    with pytest.raises(PreconditionError):
        CompleteTable(good.table, bad_prov, good.schedule)


def test_solver_failure_is_an_error_not_an_obstruction(monkeypatch):
    import scipy.optimize

    def failed_milp(**_kwargs):
        return scipy.optimize.OptimizeResult(
            success=False, status=4, message="solver gave up", x=None, fun=None
        )

    monkeypatch.setattr(scipy.optimize, "milp", failed_milp)
    with pytest.raises(BellSeriesError, match="status 4.*solver gave up"):
        reorder_to_sica(refdata.fig6("red"))


def _assert_realized_as_naive(run, budget=None):
    outcome = reorder_to_sica(run, budget=budget)
    assert outcome.success
    block_orders, discarded, kept = naive_plan(run)
    assert outcome.plan.block_orders == block_orders
    assert outcome.plan.discarded_slots == discarded
    assert outcome.plan.kept_per_block == kept


def test_reorder_realization_matches_first_match_scan_on_red_run():
    _assert_realized_as_naive(refdata.fig6("red"))


@pytest.mark.parametrize("seed", range(20))
def test_reorder_realization_matches_first_match_scan(seed):
    rng = random.Random(seed)
    slots = rng.choice((400, 800, 1200, 2000, 4000))
    width = rng.choice((8, 16, 64))
    instructions = SeriesTable.from_rows(
        *([rng.choice((-1, 1)) for _ in range(width)] for _ in range(4))
    )
    config = SourceConfig(
        model="deterministic",
        schedule=random_per_slot(slots, seed),
        seed=seed,
        eta=rng.choice((1.0, 0.9)),
        instructions=instructions,
    )
    _assert_realized_as_naive(simulate(config), budget=slots)


# --- the obstruction walk and completion's matching against list scans -------


def test_obstruction_matches_list_scan_on_a_large_quantum_run():
    config = SourceConfig(
        model="quantum", schedule=random_per_slot(200_000, 2), seed=3, eta=0.9
    )
    run = simulate(config)
    blocks = pairing_blocks(run)
    text = sica._greedy_obstruction(run, blocks)
    assert text == naive_greedy_obstruction(run, blocks)
    assert text.count("matched slots") == 64


def test_obstruction_matches_list_scan_on_every_branch():
    branches = {"under (": "a", "; no slot in block (alpha_prime:beta)": "b",
                "carrying": "pair", "no single": "none"}
    reached = set()
    for seed in range(300):
        rng = random.Random(seed)
        slots = rng.randrange(4, 41)
        values = rng.choice(((-1, 1), (-1, 0, 1)))
        run = RecordedRun(
            random_per_slot(slots, seed),
            tuple(rng.choice(values) for _ in range(slots)),
            tuple(rng.choice(values) for _ in range(slots)),
        )
        blocks = pairing_blocks(run)
        text = sica._greedy_obstruction(run, blocks)
        assert text == naive_greedy_obstruction(run, blocks), seed
        reached.update(kind for marker, kind in branches.items() if marker in text)
    assert reached == {"a", "b", "pair", "none"}


@pytest.mark.parametrize("seed", range(10))
def test_stable_match_matches_list_scan(seed):
    rng = random.Random(seed)
    values = rng.choice(((-1, 1), (-1, 0, 1), (1,)))
    donors = [(i, rng.choice(values)) for i in range(rng.randrange(60))]
    targets = [(100 + i, rng.choice(values)) for i in range(rng.randrange(60))]
    assert sica._stable_match(donors, targets) == naive_stable_match(donors, targets)


def _completion(run, budget=None):
    result = build_complete_table(run, [1, 0] * run.slots, [0, 1] * run.slots, budget)
    return result.complete.table, result.complete.provenance, result.discarded_slots, result.note


def _adversarial_block_run(slots):
    """Quarter 1 holds a=+1 then a=-1, quarter 2 the reverse: every target of
    the first-match scan sits half a quarter into its donors."""
    q = slots // 4
    half = q // 2
    a = [1] * half + [-1] * (q - half) + [-1] * half + [1] * (q - half)
    a += [(-1) ** i for i in range(2 * q)]
    b = [1 if (i * 7) % 3 else -1 for i in range(slots)]
    return RecordedRun(block_halves(slots), tuple(a), tuple(b))


@pytest.mark.parametrize(
    "run",
    [_adversarial_block_run(4000)]
    + [
        project_table(
            SeriesTable.from_rows(
                *([random.Random(seed * 4 + k).choice((-1, 1)) for _ in range(slots)]
                  for k in range(4))
            ),
            block_halves(slots),
        )
        for seed, slots in enumerate((8, 40, 400, 2000))
    ],
    ids=["adversarial-4000", "seeded-8", "seeded-40", "seeded-400", "seeded-2000"],
)
def test_completion_matches_list_scan_matching(run, monkeypatch):
    budget = run.slots // 4
    fast = _completion(run, budget)
    monkeypatch.setattr(sica, "_stable_match", naive_stable_match)
    assert fast == _completion(run, budget)
