"""Slow, direct references for the slot-matching rules in ``sica``.

``naive_plan``: how ``sica.reorder_to_sica`` realizes a plan.  Given the
arrangement the MILP chose (how many quadruples of each outcome class to
keep), the quadruples are taken in class order and each one takes, in every
setting-pair block, the earliest unused slot carrying its projection, found
by scanning the block from the start.  This is the rule as written, quadratic
in the block size; the arrangement itself comes from ``sica`` so that a
comparison tests only the realization.

``naive_stable_match`` follows the same earliest-unused rule for
completion's matching, by copying every donor and removing each one taken.

``naive_regime_bound`` and ``naive_chsh_sum_bound`` read the reorder
regime-count bound and CHSH-sum bound off the run's own series, slot by
slot, without the block pair counts ``sica``'s covers read them from.
``naive_cover_bound`` verifies a reorder cover the same way: per outcome
quadruple class, it scans the run's slots for the class's pair in each
block, and it sums the slots' weights one by one.  ``naive_block_pairs``
counts each block's outcome pairs and ``naive_distant_regimes`` splits
each row's slots by the distant setting, both slot by slot from the
setting and outcome tuples instead of the event codes.

``naive_check_sica`` is the identity check as the rule is written: per
row, the recorded cells split by the distant setting, each part in time
order, compared term by term, without the regimes ``sica`` reads off the
schedule's setting-pair blocks.

``naive_build_complete_table`` and ``naive_condense_run_table`` write the
block-layout completion and the condensation of a run-derived table out by
hand, quarter by quarter and block by block, instead of filling and pairing
cells by the series identity.  The completion is a full table under the
block layout of its kept slots; its F/C marks, written out quarter by
quarter, must equal the ones ``sica.CompleteTable`` reads off that schedule.
"""

import itertools

from bellseries import sica
from bellseries.errors import PreconditionError
from bellseries.model import (
    PAIRINGS,
    ASetting,
    BSetting,
    Pairing,
    SeriesTable,
    block_halves,
    pairing_blocks,
    table_from_run,
)

# Per row: its station's outcomes, its own setting, the distant station's
# settings and that station's unprimed setting.
_ROW_READS = (
    ("a", "a", ASetting.ALPHA, "b", BSetting.BETA),
    ("b", "b", BSetting.BETA, "a", ASetting.ALPHA),
    ("a_prime", "a", ASetting.ALPHA_PRIME, "b", BSetting.BETA),
    ("b_prime", "b", BSetting.BETA_PRIME, "a", ASetting.ALPHA),
)


def naive_plan(run):
    """(block_orders, discarded_slots, kept_per_block) by first-match scans."""
    a_out, b_out = run.a_outcomes, run.b_outcomes
    blocks = pairing_blocks(run)
    best, chosen = sica._max_joint_arrangement(sica._block_pairs(run))
    quads = []
    for q in sorted(chosen):
        quads.extend([q] * chosen[q])
    block_orders = {}
    kept = set()
    for p in PAIRINGS:
        unused = list(blocks[p])
        order = []
        for q in quads:
            need = sica._class_pair(q, p)
            for idx, slot in enumerate(unused):
                if (a_out[slot], b_out[slot]) == need:
                    order.append(slot)
                    del unused[idx]
                    break
            else:
                raise AssertionError("arrangement not realizable")
        block_orders[p] = tuple(order)
        kept.update(order)
    discarded = tuple(i for i in range(run.slots) if i not in kept)
    return block_orders, discarded, best


def naive_regime_bound(run):
    """The smallest bound of ``sica._covers``' row covers by list scans:
    per row (a, b, a', b'), the values it recorded under the distant
    station's unprimed setting and under its primed one, each counted with
    ``list.count``; the bound is the smallest per-row sum of the smaller
    counts, first such row in order."""
    settings = {"a": run.schedule.a_settings, "b": run.schedule.b_settings}
    outcomes = {"a": run.a_outcomes, "b": run.b_outcomes}
    best = None
    for row, station, own, distant, unprimed in _ROW_READS:
        under_first, under_second = [], []
        for i in range(run.slots):
            if settings[station][i] == own:
                side = under_first if settings[distant][i] == unprimed else under_second
                side.append(outcomes[station][i])
        counts = {v: (under_first.count(v), under_second.count(v)) for v in (-1, 0, 1)}
        bound = sum(min(pair) for pair in counts.values())
        if best is None or bound < best[0]:
            best = (bound, row, counts)
    return best


def naive_chsh_sum_bound(run):
    """The smallest bound of ``sica._covers``' CHSH covers by one scan of
    the run: each slot's outcome product joins the list of its setting
    pair, T_p is that list's sum, N the slots scanned, W the largest
    |T_AB + T_AB' + T_A'B + T_A'B' - 2*T_p| (the first such p in order),
    and the bound is (N - W) // 2."""
    a_set, b_set = run.schedule.a_settings, run.schedule.b_settings
    a_out, b_out = run.a_outcomes, run.b_outcomes
    products = {p: [] for p in PAIRINGS}
    for i in range(run.slots):
        pairing = Pairing((a_set[i], b_set[i]))
        products[pairing].append(a_out[i] * b_out[i])
    totals = {p: sum(products[p]) for p in PAIRINGS}
    best = None
    for p in PAIRINGS:
        worst = abs(sum(totals.values()) - 2 * totals[p])
        if best is None or worst > best[1]:
            best = ((run.slots - worst) // 2, worst, p)
    return best


def naive_cover_bound(run, cover):
    """``sica._cover_bound`` by scans of the run.  A cover (weights, d) maps
    (setting pair, (a, b)) cells to integer weights over d.  Each of the 81
    classes (a, b, a', b') needs (a, b) in block (alpha, beta), (a, b') in
    (alpha, beta'), (a', b) in (alpha', beta) and (a', b') in (alpha',
    beta'); a class whose four pairs some slot of each block recorded must
    weigh at least d on those cells.  The bound is the sum of each slot's
    cell weight, over d, rounded down; None when the cover fails."""
    a_set, b_set = run.schedule.a_settings, run.schedule.b_settings
    a_out, b_out = run.a_outcomes, run.b_outcomes
    weights, d = cover
    if d < 1 or any(w < 0 for w in weights.values()):
        return None
    slot_cells = [
        (Pairing((a_set[i], b_set[i])), (a_out[i], b_out[i])) for i in range(run.slots)
    ]
    for a, b, ap, bp in itertools.product((-1, 0, 1), repeat=4):
        needs = [(Pairing.AB, (a, b)), (Pairing.ABP, (a, bp)),
                 (Pairing.APB, (ap, b)), (Pairing.APBP, (ap, bp))]
        if all(cell in slot_cells for cell in needs):
            if sum(weights.get(cell, 0) for cell in needs) < d:
                return None
    return sum(weights.get(cell, 0) for cell in slot_cells) // d


def naive_block_pairs(run):
    """``sica._block_pairs``: per setting pair, how many of its slots carry
    each outcome pair, counted one slot at a time."""
    a_set, b_set = run.schedule.a_settings, run.schedule.b_settings
    a_out, b_out = run.a_outcomes, run.b_outcomes
    pairs = {p: {} for p in PAIRINGS}
    for i in range(run.slots):
        pairing = Pairing((a_set[i], b_set[i]))
        pair = (a_out[i], b_out[i])
        pairs[pairing][pair] = pairs[pairing].get(pair, 0) + 1
    return pairs


def naive_distant_regimes(schedule):
    """``sica._distant_regimes``: per row, its slots under the distant
    station's unprimed setting, then under its primed one."""
    out = {}
    for row, _, _, distant, unprimed in _ROW_READS:
        settings = schedule.a_settings if distant == "a" else schedule.b_settings
        first = [i for i in range(schedule.slots) if settings[i] == unprimed]
        second = [i for i in range(schedule.slots) if settings[i] != unprimed]
        out[row] = (first, second)
    return out


def naive_check_sica(table, schedule):
    """``sica.check_sica`` of ``table`` read under ``schedule``, scanning
    each row's cells one by one; the same witnesses, at most 8 of them."""
    witnesses = []
    for row, _, _, distant, unprimed in _ROW_READS:
        cells = table.row(row)
        settings = schedule.a_settings if distant == "a" else schedule.b_settings
        recorded = [i for i in range(table.slots) if cells[i] is not None]
        left = [i for i in recorded if settings[i] == unprimed]
        right = [i for i in recorded if settings[i] != unprimed]
        if len(left) != len(right):
            witnesses.append(sica.SicaWitness(
                row, "length-mismatch",
                f"row {row} has {len(left)} cells under one distant setting "
                f"and {len(right)} under the other"))
            continue
        for pos, (sl, sr) in enumerate(zip(left, right)):
            if cells[sl] != cells[sr]:
                witnesses.append(sica.SicaWitness(
                    row, "value-mismatch",
                    f"row {row} position {pos}: {cells[sl]:+d} at slot {sl} vs "
                    f"{cells[sr]:+d} at slot {sr}", pos, sl, sr))
    return sica.SicaVerdict(not witnesses, tuple(witnesses[:8]))


def naive_stable_match(donors, targets):
    """``sica._stable_match`` by scanning the unused donors from the start."""
    unused = list(donors)
    out = []
    for t_slot, t_val in targets:
        for idx, (d_slot, d_val) in enumerate(unused):
            if d_val == t_val:
                out.append((d_slot, t_slot))
                del unused[idx]
                break
    return out


def naive_build_complete_table(run, free_choice_a, free_choice_aprime, budget=None):
    """``sica.build_complete_table`` with its rows and F/C marks assembled
    by hand.  With quarters Q1..Q4: reorder Q1 so the a-values repeat Q2
    (carrying b' along), reorder Q3 so the a'-values repeat Q4 (carrying b
    along), take the counterfactual a-quarter Q3 from the free bits and copy
    it to Q4 (likewise a' over Q1 copied to Q2), then the counterfactual b
    and b' quarters are forced: b|Q1 := reordered b|Q3, b|Q4 := b|Q2,
    b'|Q2 := b'|Q4, b'|Q3 := reordered b'|Q1."""
    t = run.slots
    if t <= 0 or t % 4 != 0:
        raise PreconditionError(
            f"completion needs a positive slot count divisible by 4, got {t}"
        )
    if run.schedule != block_halves(t):
        raise PreconditionError(
            "completion needs the block layout: alpha on the first half of "
            "the slots, beta on the middle half"
        )
    if any(v == 0 for v in run.a_outcomes) or any(v == 0 for v in run.b_outcomes):
        raise PreconditionError(
            "completion of runs with missed detections is not supported"
        )
    quarter = t // 4
    if budget is None:
        budget = sica.default_discard_budget(t)
    table = table_from_run(run)
    q = [range(k * quarter, (k + 1) * quarter) for k in range(4)]
    match_a = naive_stable_match(
        [(i, table.a[i]) for i in q[0]], [(i, table.a[i]) for i in q[1]]
    )
    match_ap = naive_stable_match(
        [(i, table.a_prime[i]) for i in q[2]], [(i, table.a_prime[i]) for i in q[3]]
    )
    m = min(len(match_a), len(match_ap))
    if m < max(1, quarter - budget):
        where = (
            "row a, quarters 1-2" if len(match_a) < len(match_ap) else "row a_prime, quarters 3-4"
        )
        raise PreconditionError(
            f"unbalanced factual quarters ({where}): only {m} of {quarter} slots "
            f"can be matched, budget allows discarding {min(budget, quarter - 1)}"
        )
    match_a = match_a[:m]
    match_ap = match_ap[:m]
    kept_q2 = sorted(t_ for _, t_ in match_a)
    kept_q4 = sorted(t_ for _, t_ in match_ap)
    donor_for_target_a = dict((t_, d) for d, t_ in match_a)
    donor_for_target_ap = dict((t_, d) for d, t_ in match_ap)
    donors_q1 = [donor_for_target_a[t_] for t_ in kept_q2]
    donors_q3 = [donor_for_target_ap[t_] for t_ in kept_q4]

    a_f = [table.a[i] for i in kept_q2]
    bp_f = [table.b_prime[i] for i in donors_q1]
    b_q2 = [table.b[i] for i in kept_q2]
    ap_f = [table.a_prime[i] for i in kept_q4]
    b_f = [table.b[i] for i in donors_q3]
    bp_q4 = [table.b_prime[i] for i in kept_q4]

    free_a = sica._bits_to_values(free_choice_a, m, "free_choice_a")
    free_ap = sica._bits_to_values(free_choice_aprime, m, "free_choice_aprime")

    a_row = a_f + a_f + free_a + free_a
    ap_row = free_ap + free_ap + ap_f + ap_f
    b_row = b_f + b_q2 + b_f + b_q2
    bp_row = bp_f + bp_q4 + bp_f + bp_q4

    f = ["F"] * m
    c = ["C"] * m
    provenance = {
        "a": tuple(f + f + c + c),
        "b": tuple(c + f + f + c),
        "a_prime": tuple(c + c + f + f),
        "b_prime": tuple(f + c + c + f),
    }
    out_table = SeriesTable.from_rows(a_row, b_row, ap_row, bp_row)
    complete = sica.CompleteTable(out_table, block_halves(4 * m))
    assert complete.provenance == provenance
    kept_all = set(donors_q1) | set(kept_q2) | set(donors_q3) | set(kept_q4)
    discarded = tuple(i for i in range(t) if i not in kept_all)
    note = "" if not discarded else f"trimmed {len(discarded)} slots to balance quarters"
    return sica.CompletionResult(complete, discarded, note)


def naive_condense_run_table(table, schedule):
    """Condense a run-derived table block by block: the j-th condensed slot
    takes a and b from the j-th slot of block (alpha, beta), a' from the
    j-th of (alpha', beta) and b' from the j-th of (alpha, beta')."""
    a_set, b_set = schedule.a_settings, schedule.b_settings
    verdict = sica.check_sica(table, schedule)
    if not verdict.holds:
        lines = "; ".join(w.detail for w in verdict.witnesses[:3])
        raise PreconditionError(f"series identity fails, cannot condense: {lines}")
    blocks = {p: [] for p in PAIRINGS}
    for i in range(schedule.slots):
        blocks[Pairing((a_set[i], b_set[i]))].append(i)
    sizes = {p: len(blocks[p]) for p in PAIRINGS}
    if len(set(sizes.values())) != 1 or min(sizes.values()) == 0:
        raise PreconditionError(
            "condensation needs all four setting pairs measured equally often, "
            f"got {dict((p.key, n) for p, n in sizes.items())}"
        )
    return SeriesTable.from_rows(
        [table.a[i] for i in blocks[Pairing.AB]],
        [table.b[i] for i in blocks[Pairing.AB]],
        [table.a_prime[i] for i in blocks[Pairing.APB]],
        [table.b_prime[i] for i in blocks[Pairing.ABP]],
    )
