import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellseries import refdata, sica
from bellseries.errors import BellSeriesError, BudgetExceeded, PreconditionError
from bellseries.model import (
    PAIRINGS,
    ROW_KEYS,
    ASetting,
    BSetting,
    Pairing,
    RecordedRun,
    SeriesTable,
    block_halves,
    custom_schedule,
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
from bellseries.oracle import census_complete_tables
from bellseries.simulate import SourceConfig, simulate
from bellseries.stats import chsh, correlation

from conftest import bytes_per_slot, recorded_runs
from naive_sica import (
    naive_build_complete_table,
    naive_check_sica,
    naive_chsh_sum_bound,
    naive_condense_complete,
    naive_condense_run_table,
    naive_cover_bound,
    naive_plan,
    naive_regime_bound,
    naive_stable_match,
)


def test_fully_measured_table_without_a_schedule_is_refused():
    # Its cells fix no schedule, so there are no regimes to compare until
    # one is given; the identity never holds by default.
    with pytest.raises(PreconditionError, match="fully measured table without a schedule"):
        check_sica(refdata.fig2())
    assert not check_sica(refdata.fig2(), block_halves(16)).holds


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
    # S = 4 over 8 slots: every recorded cell agrees with the CHSH pattern
    # that negates (alpha, beta'), so it weighs 0, and no quadruple is
    # offered by all four blocks.
    run = refdata.fig6("black")
    assert chsh(table_from_run(run)) == 4
    outcome = reorder_to_sica(run)
    assert not outcome.success
    assert outcome.best_keepable is None
    assert outcome.required == 1
    assert outcome.obstruction == (
        "the CHSH sum with (alpha:beta_prime) negated: every outcome quadruple the four "
        "blocks offer weighs at least 2 on its four cells; the weighted recorded cells, as "
        "count x weight: none; so at most 0 can be kept, 1 required"
    )
    assert naive_cover_bound(run, outcome.certificate) == 0


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


def _cover_bounds(run):
    """(bound, label) of each of ``sica._covers``, in order."""
    pair_counts = sica._block_pairs(run)
    return [(sica._cover_bound(pair_counts, cover), label)
            for label, cover in sica._covers(pair_counts)]


def _smallest(run, family):
    """The smallest (bound, label) of the CHSH or the row covers, first on a tie."""
    prefix = "the CHSH sum" if family == "chsh" else "row "
    return min((found for found in _cover_bounds(run) if found[1].startswith(prefix)),
               key=lambda found: found[0])


@pytest.mark.parametrize("eta", [1.0, 0.9])
def test_large_divergent_run_fails_by_chsh_sum_certificate(eta):
    sched = random_per_slot(4000, 31)
    run = simulate(SourceConfig(model="quantum", schedule=sched, seed=32, eta=eta))
    bound, _, _ = naive_chsh_sum_bound(run)
    outcome = reorder_to_sica(run)
    assert (outcome.success, outcome.best_keepable) == (False, None)
    assert bound < outcome.required
    assert outcome.obstruction.startswith("the CHSH sum with (")
    assert " negated: every outcome quadruple the four blocks offer weighs at least 2 " in (
        outcome.obstruction)
    assert outcome.obstruction.endswith(
        f"; so at most {bound} can be kept, {outcome.required} required"
    )
    assert naive_cover_bound(run, outcome.certificate) == bound


def test_regime_certificate_names_the_binding_row():
    # A local source reading a per-slot random instruction table: its CHSH
    # sum is too small to decide, but one row's values are spread unevenly
    # over its two blocks.
    rng = random.Random(0)
    rows = [tuple(rng.choice((-1, 1)) for _ in range(2000)) for _ in range(4)]
    config = SourceConfig(model="deterministic", schedule=random_per_slot(2000, 0), seed=0,
                          instructions=SeriesTable.from_rows(*rows))
    run = simulate(config)
    bound, row, counts = naive_regime_bound(run)
    outcome = reorder_to_sica(run)
    assert bound < outcome.required <= naive_chsh_sum_bound(run)[0]
    assert outcome.obstruction.startswith(
        f"row {row}'s per-value counts: every outcome quadruple the four blocks offer "
        "weighs at least 1 on its four cells; "
    )
    assert outcome.obstruction.endswith(
        f"; so at most {bound} can be kept, {outcome.required} required"
    )
    weights, d = outcome.certificate
    assert d == 1 and set(weights.values()) == {1}
    # Per value, the weighted cells are the row's cells of that value in the
    # block that holds fewer of them, if it holds any.
    blocks = [p for p in Pairing if row in (p.a_row, p.b_row)]
    side = 0 if blocks[0].a_row == row else 1
    for v, (n1, n2) in counts.items():
        weighted = {p for p, cell in weights if cell[side] == v}
        assert weighted == ({blocks[0] if n1 <= n2 else blocks[1]} if min(n1, n2) else set())
    assert naive_cover_bound(run, outcome.certificate) == bound


def _seeded_small_run(seed: int) -> tuple[RecordedRun, int | None]:
    """A small run and a budget: pm or pmz values, random or block schedule,
    outcomes drawn at random or read from a narrow instruction table (which
    often reorders), and a budget from none at all to the whole run."""
    rng = random.Random(seed)
    values = rng.choice(((-1, 1), (-1, 0, 1)))
    if rng.random() < 0.5:
        schedule = random_per_slot(rng.randrange(4, 61), seed)
    else:
        schedule = block_halves(4 * rng.randrange(1, 16))
    slots = schedule.slots
    if rng.random() < 0.5:
        a = tuple(rng.choice(values) for _ in range(slots))
        b = tuple(rng.choice(values) for _ in range(slots))
    else:
        width = rng.choice((1, 2, 4))
        rows = {key: [rng.choice(values) for _ in range(width)]
                for key in ("a", "b", "a_prime", "b_prime")}
        a = tuple(rows[s.row][i % width] for i, s in enumerate(schedule.a_settings))
        b = tuple(rows[s.row][i % width] for i, s in enumerate(schedule.b_settings))
    budget = rng.choice((None, 0, 1, 2, slots))
    return RecordedRun(schedule, a, b), budget


@pytest.mark.parametrize("seed", range(20))
def test_regime_bound_matches_list_scan(seed):
    if seed % 2:
        config = SourceConfig(model="quantum", schedule=random_per_slot(3000, seed),
                              seed=seed, eta=random.Random(seed).choice((0.7, 0.9, 1.0)))
        run = simulate(config)
    else:
        run, _ = _seeded_small_run(seed)
    bound, row, _ = naive_regime_bound(run)
    assert _smallest(run, "row") == (bound, f"row {row}'s per-value counts")


def test_chsh_sum_bound_matches_run_scan():
    runs = [_seeded_small_run(seed) for seed in range(200)]
    for seed in range(20):
        config = SourceConfig(model="quantum", schedule=random_per_slot(400 * (1 + seed % 5), seed),
                              seed=seed, eta=(1.0, 0.9)[seed % 2])
        runs.append((simulate(config), (None, 0, 3)[seed % 3]))
    fired = 0
    for run, budget in runs:
        if not all(pairing_blocks(run).values()):
            continue
        bound = naive_chsh_sum_bound(run)[0]
        assert _smallest(run, "chsh")[0] == bound
        fired += bound < reorder_to_sica(run, budget).required
    assert 5 <= fired < len(runs) - 5, fired


def test_reorder_bounds_are_sound():
    """Over 600 seeded small runs, zeros included: no cover bounds below
    what the integer program keeps, and the program decides success.  Every
    failure but a never-measured one carries a cover that the slot-scan
    verifier accepts, with its bound below ``required``: the smallest
    solver-free cover when that decides, else the LP dual, whose bound
    equals the program's best."""
    reached = {"chsh-sum": 0, "regime": 0, "milp-fail": 0, "milp-success": 0,
               "never-measured": 0}
    for seed in range(600):
        run, budget = _seeded_small_run(seed)
        outcome = reorder_to_sica(run, budget)
        blocks = pairing_blocks(run)
        if not all(blocks.values()):
            reached["never-measured"] += 1
            assert (outcome.success, outcome.best_keepable, outcome.certificate) == (
                False, 0, None), seed
            assert outcome.obstruction.startswith("never-measured setting pairs: "), seed
            continue
        best, _ = sica._max_joint_arrangement(sica._block_pairs(run))
        bounds = _cover_bounds(run)
        smallest = min(bounds, key=lambda found: found[0])
        assert best <= smallest[0], seed
        assert outcome.success == (best >= outcome.required), seed
        if outcome.success:
            reached["milp-success"] += 1
            assert outcome.best_keepable == best and outcome.certificate is None, seed
            continue
        bound = naive_cover_bound(run, outcome.certificate)
        assert bound is not None and bound < outcome.required, seed
        assert outcome.obstruction.endswith(
            f"; so at most {bound} can be kept, {outcome.required} required"), seed
        if smallest[0] < outcome.required:
            kind = "chsh-sum" if smallest[1].startswith("the CHSH sum") else "regime"
            assert outcome.best_keepable is None, seed
            assert bound == smallest[0], seed
            assert outcome.obstruction.startswith(smallest[1] + ": "), seed
        else:
            kind = "milp-fail"
            assert outcome.best_keepable == best == bound, seed
            assert outcome.obstruction.startswith("the integer program's LP dual: "), seed
        reached[kind] += 1
    assert all(reached.values()), reached


def test_milp_failure_carries_the_lp_dual_certificate():
    """Every failure the integer program decides carries its rounded LP
    dual as certificate: the slot-scan verifier accepts it, its bound is the
    program's best, below ``required``, and the text lists each weighted
    recorded cell.  With no class offered by all four blocks, the dual
    weighs nothing and bounds 0."""
    runs = [_seeded_small_run(seed) for seed in range(300)]
    for seed in range(160):
        slots = random.Random(seed).choice((24, 40, 64, 100, 200, 400))
        config = SourceConfig(model="quantum", schedule=block_halves(slots), seed=seed,
                              eta=(1.0, 0.95, 0.8)[seed % 3])
        runs.append((simulate(config), (None, 0, 1, 3)[seed % 4]))
    reached = {"kept": 0, "none offered": 0}
    for run, budget in runs:
        outcome = reorder_to_sica(run, budget)
        measured = all(pairing_blocks(run).values())
        if outcome.success or outcome.best_keepable is None or not measured:
            continue
        best = outcome.best_keepable
        assert naive_cover_bound(run, outcome.certificate) == best < outcome.required
        assert outcome.obstruction.startswith(
            "the integer program's LP dual: every outcome quadruple the four blocks offer "
            f"weighs at least {outcome.certificate[1]} on its four cells; the weighted "
            "recorded cells, as count x weight: "
        )
        assert outcome.obstruction.endswith(
            f"; so at most {best} can be kept, {outcome.required} required")
        weights, _ = outcome.certificate
        for (p, (a, b)), w in weights.items():
            n = sum(1 for i in pairing_blocks(run)[p]
                    if (run.a_outcomes[i], run.b_outcomes[i]) == (a, b))
            assert f"({a:+d},{b:+d}) {n}x{w}" in outcome.obstruction
        if weights:
            reached["kept"] += 1
        else:
            reached["none offered"] += 1
            assert best == 0 and "count x weight: none; " in outcome.obstruction
    assert reached["kept"] >= 10 and reached["none offered"] >= 2, reached


@pytest.mark.parametrize("dual", ["solver fails", "no cover"])
def test_milp_failure_without_a_verified_dual_says_so(monkeypatch, dual):
    import scipy.optimize

    def failed_linprog(c, **kwargs):
        if dual == "solver fails":
            return scipy.optimize.OptimizeResult(status=2, success=False, message="infeasible")
        # Zero duals cover no class.
        marginals = [0.0] * len(kwargs["b_ub"])
        return scipy.optimize.OptimizeResult(
            status=0, success=True, ineqlin=scipy.optimize.OptimizeResult(marginals=marginals))

    run = simulate(SourceConfig(model="quantum", schedule=block_halves(40), seed=3, eta=1.0))
    monkeypatch.setattr(scipy.optimize, "linprog", failed_linprog)
    outcome = reorder_to_sica(run)
    assert (outcome.success, outcome.best_keepable, outcome.required) == (False, 5, 6)
    assert outcome.certificate is None
    assert outcome.obstruction == (
        "the integer program keeps at most 5, 6 required; its LP dual gave no certificate"
    )


def test_never_measured_setting_pair_reports_the_required_count():
    # A stays at alpha and B moves from beta to beta' halfway: both alpha'
    # blocks are empty, and the default budget of 5 leaves 45 of 50 slots.
    schedule = custom_schedule([ASetting.ALPHA] * 100,
                               [BSetting.BETA] * 50 + [BSetting.BETA_PRIME] * 50)
    outcome = reorder_to_sica(RecordedRun(schedule, (1,) * 100, (1,) * 100))
    assert (outcome.success, outcome.best_keepable, outcome.required) == (False, 0, 45)
    assert outcome.obstruction == (
        "never-measured setting pairs: alpha_prime:beta, alpha_prime:beta_prime"
    )
    assert outcome.certificate is None


@settings(max_examples=80, deadline=None)
@given(run=recorded_runs(), budget=st.sampled_from((None, 0, 1, 3)))
def test_reorder_outcomes_on_fuzzed_runs_prove_themselves(run, budget):
    outcome = reorder_to_sica(run, budget)
    if outcome.success:
        rearranged = apply_plan(run, outcome.plan)
        assert check_sica(table_from_run(rearranged)).holds
        kept = {p: len(slots) for p, slots in pairing_blocks(rearranged).items()}
        assert set(kept.values()) == {outcome.plan.kept_per_block}
        assert outcome.plan.kept_per_block >= outcome.required
    elif outcome.certificate is None:
        assert outcome.obstruction.startswith("never-measured setting pairs: ")
    else:
        bound = naive_cover_bound(run, outcome.certificate)
        assert bound is not None and bound < outcome.required


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
    assert complete.schedule == block_halves(8)
    condensed = complete.condense()
    expected = refdata.fig9()
    assert condensed == expected
    assert chsh(condensed.table) == 2
    # the condensed table does not itself satisfy the identity, under the
    # schedule its own factual cells fix or under the block layout
    verdict = condensed.check()
    assert not verdict.holds
    assert [w.row for w in verdict.witnesses] == ["a_prime"] * 2 + ["b_prime"] * 2
    assert condensed.schedule != block_halves(4)
    assert not check_sica(condensed.table, block_halves(4)).holds


def test_a_complete_table_is_one_more_input_of_the_resolver():
    """Its F/C marks read back into it, and ``check_sica`` and ``condense``
    read it under the schedule it carries, as its methods do; a given
    schedule must be that one."""
    fig8 = refdata.fig8()
    assert CompleteTable.from_provenance(fig8.table, fig8.provenance) == fig8
    assert check_sica(fig8) == check_sica(fig8, block_halves(8)) == fig8.check()
    assert condense(fig8) == condense(fig8, block_halves(8)) == fig8.condense() == refdata.fig9()
    for read in (check_sica, condense):
        with pytest.raises(PreconditionError, match="do not follow the given schedule"):
            read(fig8, random_per_slot(8, 6))


def test_complete_table_has_no_unmeasured_cells():
    good = refdata.fig8()
    partial = SeriesTable.from_rows(
        (None,) + good.table.a[1:], good.table.b, good.table.a_prime, good.table.b_prime
    )
    with pytest.raises(PreconditionError, match="no unmeasured cells"):
        CompleteTable(partial, good.schedule)


def test_a_schedule_of_another_length_is_refused():
    fig8 = refdata.fig8()
    for read in (check_sica, condense, CompleteTable):
        with pytest.raises(PreconditionError, match="schedule covers 4 slots, table has 8"):
            read(fig8.table, block_halves(4))


def test_every_condensed_completion_fixes_a_schedule():
    """Rows a and a' keep the same slot at each condensed position, and
    exactly one of the two was factual there; so a condensed completion is
    again a complete table, with half the slots."""
    condensed = 0
    for seed in range(120):
        rng = random.Random(seed)
        slots = 4 * rng.randrange(1, 9)
        run = RecordedRun(block_halves(slots),
                          tuple(rng.choice((-1, 1)) for _ in range(slots)),
                          tuple(rng.choice((-1, 1)) for _ in range(slots)))
        q = slots // 4
        bits = [[rng.randrange(2) for _ in range(q)] for _ in range(2)]
        try:
            complete = build_complete_table(run, *bits, budget=q).complete
        except PreconditionError:
            continue
        half = complete.condense()
        assert isinstance(half, CompleteTable)
        assert half.schedule.slots == complete.table.slots // 2
        condensed += 1
    assert condensed >= 100


def test_resample_restores_the_factual_value():
    complete = refdata.fig8()
    assert correlation(complete.table, Pairing.ABP).e == 0
    res = complete.resample({Pairing.ABP: (2, 3)})
    assert res.stats[Pairing.ABP].e == 1
    assert res.s == 2


def test_resample_rejects_unknown_slots():
    with pytest.raises(PreconditionError):
        refdata.fig8().resample({Pairing.ABP: (2, 99)})


def test_enumeration_refusal_names_the_size_as_a_power_of_two():
    run = RecordedRun(block_halves(40_000), (1,) * 40_000, (1,) * 40_000)
    with pytest.raises(BudgetExceeded, match=r"enumerating 2\^20000 completions"):
        next(enumerate_complete_tables(run))


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
    table = fill_counterfactual(run)
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


def test_condense_full_table_without_schedule_is_refused():
    with pytest.raises(PreconditionError, match="fully measured table without a schedule"):
        condense(refdata.fig2())


def test_condense_rejects_unequal_blocks():
    # 8 slots, but three of one pairing and one of another
    sched_ids = [Pairing.ABP, Pairing.ABP, Pairing.ABP, Pairing.AB,
                 Pairing.APB, Pairing.APB, Pairing.APBP, Pairing.APBP]
    sched = custom_schedule(
        [p.a_setting for p in sched_ids], [p.b_setting for p in sched_ids]
    )
    run = RecordedRun(sched, (1,) * 8, (1,) * 8)
    with pytest.raises(PreconditionError):
        condense(table_from_run(run), sched)


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


# --- completion's matching against list scans ---------------------------------


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


# --- completion and condensation against the hand-assembled references -------


def _result_or_refusal(build):
    try:
        result = build()
    except PreconditionError as exc:
        return str(exc)
    complete = result.complete
    return (complete.table, complete.provenance, complete.schedule,
            result.discarded_slots, result.note)


def test_completion_matches_hand_assembled_rows():
    kinds = set()
    for seed in range(200):
        rng = random.Random(seed)
        slots = 4 * rng.randrange(1, 9)
        quarter = slots // 4
        values = (-1, 1) if seed % 10 else (-1, 0, 1)
        run = RecordedRun(
            block_halves(slots) if seed % 17 else random_per_slot(slots, seed),
            tuple(rng.choice(values) for _ in range(slots)),
            tuple(rng.choice(values) for _ in range(slots)),
        )
        width = quarter - (seed % 13 == 0)
        bits_a = [rng.randrange(2) for _ in range(width)]
        bits_ap = [rng.randrange(2) for _ in range(width)]
        for budget in (None, *range(quarter + 1)):
            got = _result_or_refusal(lambda: build_complete_table(run, bits_a, bits_ap, budget))
            want = _result_or_refusal(
                lambda: naive_build_complete_table(run, bits_a, bits_ap, budget)
            )
            assert got == want, (seed, budget)
            if isinstance(got, str):
                kinds.add(got.split(":")[0].split(" (")[0])
            else:
                kinds.add("trimmed" if got[3] else "whole")
    assert kinds == {
        "whole", "trimmed", "unbalanced factual quarters", "free_choice_a",
        "completion needs the block layout",
        "completion of runs with missed detections is not supported",
    }


def _run_derived_tables():
    """Reordered deterministic runs on random schedules, and tables whose
    block-layout projection repeats each row's factual values across the
    two regimes (half of them with one cell changed), with their schedules."""
    for seed in range(30):
        rng = random.Random(seed)
        slots, width = rng.choice((40, 80, 200)), rng.choice((4, 8))
        instructions = SeriesTable.from_rows(
            *([rng.choice((-1, 1)) for _ in range(width)] for _ in range(4))
        )
        run = simulate(SourceConfig(model="deterministic", schedule=random_per_slot(slots, seed),
                                    seed=seed, instructions=instructions))
        outcome = reorder_to_sica(run, budget=slots)
        if outcome.success:
            run = apply_plan(run, outcome.plan)
        yield table_from_run(run), run.schedule
    for seed in range(30):
        rng = random.Random(100 + seed)
        q = rng.randrange(1, 6)

        def halves():
            return [rng.choice((-1, 0, 1)) for _ in range(q)], [rng.choice((-1, 0, 1)) for _ in range(q)]

        (u, w), (x, y), (u2, w2), (x2, y2) = halves(), halves(), halves(), halves()
        rows = [u + u + w + w, x + y + y + x, u2 + u2 + w2 + w2, x2 + y2 + y2 + x2]
        if seed % 2:
            rows[rng.randrange(4)][rng.randrange(4 * q)] = 1 - 2 * rng.randrange(2)
        run = project_table(SeriesTable.from_rows(*rows), block_halves(4 * q))
        yield table_from_run(run), run.schedule


def test_condensing_run_derived_tables_matches_block_by_block_reference():
    condensed = 0
    for table, schedule in _run_derived_tables():
        try:
            want = naive_condense_run_table(table, schedule)
        except PreconditionError as exc:
            want = str(exc)
        for given in (schedule, None):
            try:
                got = condense(table, given)
            except PreconditionError as exc:
                got = str(exc)
            assert got == want
        condensed += not isinstance(want, str)
    assert 40 <= condensed < 60


def test_condense_refuses_cells_off_the_schedule():
    table = SeriesTable.from_rows(
        (None, None, 1, 1), (1, 1, 1, 1), (None,) * 4, (None,) * 4
    )
    with pytest.raises(PreconditionError, match="run-derived"):
        condense(table, block_halves(4))
    run = RecordedRun(random_per_slot(8, 3), (1,) * 8, (1,) * 8)
    with pytest.raises(PreconditionError, match="do not follow the given schedule"):
        condense(table_from_run(run), block_halves(8))


@st.composite
def _block_layout_runs(draw):
    """Block-layout runs of 4-16 slots, with or without zeros."""
    slots = 4 * draw(st.integers(1, 4))
    values = st.sampled_from(draw(st.sampled_from(((-1, 1), (-1, 0, 1), (1,)))))
    outcomes = st.lists(values, min_size=slots, max_size=slots)
    return RecordedRun(block_halves(slots), draw(outcomes), draw(outcomes))


@settings(max_examples=150, deadline=None)
@given(run=st.one_of(recorded_runs(st.integers(1, 12)), _block_layout_runs()))
def test_check_sica_of_a_run_is_the_cell_by_cell_rule(run):
    outcome = reorder_to_sica(run, budget=run.slots)
    for checked in (run, apply_plan(run, outcome.plan)) if outcome.success else (run,):
        table = table_from_run(checked)
        want = naive_check_sica(table, checked.schedule)
        for given_schedule in (None, checked.schedule):
            assert check_sica(checked, given_schedule) == want
            assert check_sica(table, given_schedule) == want


@st.composite
def _identity_runs(draw):
    """Runs whose four blocks hold q slots each, in any order, where the
    k-th slot of a block reads the k-th value of the series of its A row and
    of its B row, so the identity holds; then up to 16 outcomes changed,
    which can give more than eight witnesses."""
    q = draw(st.integers(1, 5))
    values = st.sampled_from(draw(st.sampled_from(((-1, 1), (-1, 0, 1)))))
    series = {key: draw(st.lists(values, min_size=q, max_size=q)) for key in ROW_KEYS}
    order = draw(st.permutations(list(PAIRINGS) * q))
    taken = Counter()
    outcomes = []
    for p in order:
        outcomes.append([series[p.a_row][taken[p]], series[p.b_row][taken[p]]])
        taken[p] += 1
    for _ in range(draw(st.one_of(st.just(0), st.integers(1, 16)))):
        cell = draw(st.sampled_from(outcomes))
        side = draw(st.integers(0, 1))
        cell[side] = draw(st.sampled_from([v for v in (-1, 0, 1) if v != cell[side]]))
    schedule = custom_schedule([p.a_setting for p in order], [p.b_setting for p in order])
    return RecordedRun(schedule, *zip(*outcomes))


def _result(verdict, *args):
    try:
        return verdict(*args)
    except PreconditionError as exc:
        return f"refused: {exc}"


@settings(max_examples=300, deadline=None)
@given(run=st.one_of(recorded_runs(), _block_layout_runs(), _identity_runs()), data=st.data())
def test_a_run_is_checked_and_condensed_as_its_table(run, data):
    """A run's cell codes are read off its event codes, a table's off its
    cells and schedule: the same verdicts, witnesses, condensed tables and
    refusals, under no schedule, the run's own, or one that disagrees with
    it."""
    table = table_from_run(run)
    other = data.draw(recorded_runs(st.sampled_from((run.slots, run.slots + 4)))).schedule
    for given_schedule in (None, run.schedule, other):
        for verdict in (check_sica, condense):
            got = _result(verdict, run, given_schedule)
            assert got == _result(verdict, table, given_schedule)
            if given_schedule is not other and run.slots:
                reference = naive_check_sica if verdict is check_sica else naive_condense_run_table
                assert got == _result(reference, table, run.schedule)


@st.composite
def _identity_completions(draw):
    """Complete tables on random schedules where each station takes each of
    its settings in half of the slots, and each row reads one series under
    both distant settings, so the identity holds; then, half of the time,
    one cell changed, so it fails."""
    half = draw(st.integers(1, 6))
    a_primed, b_primed = (draw(st.permutations([0] * half + [1] * half)) for _ in "ab")
    schedule = custom_schedule(
        [ASetting.ALPHA_PRIME if x else ASetting.ALPHA for x in a_primed],
        [BSetting.BETA_PRIME if x else BSetting.BETA for x in b_primed],
    )
    values = st.sampled_from(draw(st.sampled_from(((-1, 1), (-1, 0, 1)))))
    rows = {}
    for key in ROW_KEYS:
        series = draw(st.lists(values, min_size=half, max_size=half))
        taken = [0, 0]
        rows[key] = []
        for primed in b_primed if key in ("a", "a_prime") else a_primed:
            rows[key].append(series[taken[primed]])
            taken[primed] += 1
    if draw(st.booleans()):
        row = rows[draw(st.sampled_from(ROW_KEYS))]
        slot = draw(st.integers(0, 2 * half - 1))
        row[slot] = draw(st.sampled_from([v for v in (-1, 0, 1) if v != row[slot]]))
    return CompleteTable(SeriesTable.from_rows(*(rows[key] for key in ROW_KEYS)), schedule)


@settings(max_examples=200, deadline=None)
@given(complete=_identity_completions())
def test_condensing_a_complete_table_is_the_list_scan_rule(complete):
    """As a complete table, by itself or by its method, it condenses to the
    reference's; its table read under its schedule condenses to the
    reference's table; all three refuse alike."""
    want = _result(naive_condense_complete, complete)
    assert _result(condense, complete) == _result(CompleteTable.condense, complete) == want
    got = _result(condense, complete.table, complete.schedule)
    assert got == (want if isinstance(want, str) else want.table)


@pytest.mark.parametrize("schedule", ["random", "block"])
def test_checking_a_run_takes_a_few_bytes_a_slot(schedule):
    # Laying the run out as a table and listing its regimes took 74 bytes a slot.
    slots = 200_000
    layout = random_per_slot(slots, 5) if schedule == "random" else block_halves(slots)
    run = simulate(SourceConfig(model="quantum", schedule=layout, seed=6, eta=0.9))
    assert bytes_per_slot(lambda: check_sica(run), slots) < 8


@settings(max_examples=150, deadline=None)
@given(slots=st.integers(1, 12), data=st.data())
def test_check_sica_of_a_full_table_is_the_cell_by_cell_rule(slots, data):
    values = st.sampled_from(data.draw(st.sampled_from(((1,), (-1, 1), (-1, 0, 1)))))
    row = st.lists(values, min_size=slots, max_size=slots)
    table = SeriesTable.from_rows(*(data.draw(row) for _ in range(4)))
    schedule = data.draw(recorded_runs(st.just(slots))).schedule
    assert check_sica(table, schedule) == naive_check_sica(table, schedule)


def test_a_failing_verdict_lists_at_most_eight_witnesses():
    # Rows a and a_prime each fail on length and row b on six positions, so
    # row b_prime's first mismatch would be the ninth witness.
    b = (-1, -1, 1, -1, -1, -1, 1, 1, 1, 1, -1, 1)
    b_prime = (-1,) * 9 + (1, -1, 1)
    table = SeriesTable.from_rows((-1,) * 12, b, (-1,) * 12, b_prime)
    schedule = RecordedRun.from_events(bytes.fromhex("08081a0808081a1a1a1a1a08")).schedule
    verdict = check_sica(table, schedule)
    assert verdict == naive_check_sica(table, schedule)
    assert [w.row for w in verdict.witnesses] == ["a"] + ["b"] * 6 + ["a_prime"]
    # A run, read off its events: rows a and b' mismatch at all ten positions.
    run = RecordedRun(block_halves(40), [1] * 10 + [-1] * 10 + [1] * 20, [1] * 30 + [-1] * 10)
    verdict = check_sica(run)
    assert verdict == naive_check_sica(table_from_run(run), run.schedule)
    assert [w.row for w in verdict.witnesses] == ["a"] * 8
    assert verdict.witnesses[-1].detail == "row a position 7: -1 at slot 17 vs +1 at slot 7"


@settings(max_examples=60, deadline=None)
@given(run=_block_layout_runs(), data=st.data())
def test_check_sica_of_a_completion_is_the_cell_by_cell_rule(run, data):
    completions = [refdata.fig8(), refdata.fig9()]
    bits = st.lists(st.integers(0, 1), min_size=run.slots // 4, max_size=run.slots // 4)
    try:
        built = build_complete_table(run, data.draw(bits), data.draw(bits)).complete
        completions += [built, built.condense()]
    except PreconditionError:
        pass  # lossy, or quarters too unbalanced to complete
    for complete in completions:
        assert complete.check() == naive_check_sica(complete.table, complete.schedule)


@pytest.mark.parametrize("seed", range(6))
def test_each_completion_is_the_census_sample_of_its_free_bits(seed):
    """The paper's closing construction, in order: completing a run whose
    factual cells already satisfy the identity with the free words (wa, wap)
    gives census sample number wa * 2^q + wap."""
    if seed == 0:
        run = refdata.fig6("black")
    else:
        rng = random.Random(seed)
        quarter = rng.choice((1, 2, 3))
        a_half = [rng.choice((-1, 1)) for _ in range(quarter)]
        ap_half = [rng.choice((-1, 1)) for _ in range(quarter)]
        run = RecordedRun(
            block_halves(4 * quarter),
            tuple(a_half * 2 + ap_half * 2),
            tuple(rng.choice((-1, 1)) for _ in range(4 * quarter)),
        )
    q = run.slots // 4
    census = census_complete_tables(run, sample_cap=1 << (2 * q))
    assert census.count == len(census.samples) == 1 << (2 * q)
    for wa in range(1 << q):
        for wap in range(1 << q):
            result = build_complete_table(run, sica._bits(wa, q), sica._bits(wap, q))
            assert result.discarded_slots == ()
            assert result.complete.table == census.samples[wa << q | wap]


def test_a_table_of_no_slots_is_refused():
    empty = SeriesTable(0, (), (), (), ())
    nothing = RecordedRun.from_events(b"")
    for verdict in (lambda: check_sica(empty), lambda: condense(empty),
                    lambda: check_sica(nothing), lambda: condense(nothing),
                    lambda: check_sica(empty, block_halves(0)),
                    lambda: sica.CompleteTable(empty, block_halves(0))):
        with pytest.raises(PreconditionError, match="table has no slots"):
            verdict()
