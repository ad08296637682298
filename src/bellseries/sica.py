"""Series-identity checking, reordering, condensation, and completion.

The central notion: a station's outcome series should be the same sequence
regardless of which setting the distant station used.  Runs that satisfy it
carry each series twice, so the table can be condensed to half length; runs
that do not can sometimes be repaired by reordering slots within each
setting-pair block (a joint permutation of both stations' cells, which
leaves every measured correlation untouched), possibly discarding a few
slots.  When no such repair exists the failure itself is the finding.

Completion goes the other way: given a run, counterfactual values are
assigned to the never-measured cells so that the full table satisfies the
identity, while the factual cells keep their recorded values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterator, Sequence

import numpy as np

from .errors import BellSeriesError, BudgetExceeded, PreconditionError
from .model import (
    MINUS,
    PAIRINGS,
    PLUS,
    ROW_KEYS,
    ZERO,
    ASetting,
    BSetting,
    Cell,
    Pairing,
    RecordedRun,
    Schedule,
    SeriesTable,
    block_halves,
    derive_schedule,
    pairing_blocks,
    table_from_run,
)
from .stats import chsh_combination, correlation_over_slots

VALUES = (MINUS, ZERO, PLUS)


def default_discard_budget(slots: int) -> int:
    """Ceiling of sqrt(slots/4): grows with the run but stays negligible."""
    quarter = max(slots // 4, 1)
    root = math.isqrt(quarter)
    return root if root * root == quarter else root + 1


# ---------------------------------------------------------------------------
# Checking


@dataclass(frozen=True)
class SicaWitness:
    row: str
    rule: str
    detail: str
    position: int | None = None
    slot_left: int | None = None
    slot_right: int | None = None


@dataclass(frozen=True)
class SicaVerdict:
    holds: bool
    witnesses: tuple[SicaWitness, ...]
    note: str = ""


def _distant_regimes(schedule: Schedule) -> dict[str, tuple[list[int], list[int]]]:
    """Per row, its slots grouped by the distant station's setting (unprimed,
    then primed), in time order.  Rows a and a' share one split of B's
    settings, rows b and b' one split of A's."""

    def split(settings, first, second):
        return (
            [i for i, s in enumerate(settings) if s is first],
            [i for i, s in enumerate(settings) if s is second],
        )

    by_b = split(schedule.b_settings, BSetting.BETA, BSetting.BETA_PRIME)
    by_a = split(schedule.a_settings, ASetting.ALPHA, ASetting.ALPHA_PRIME)
    return {"a": by_b, "a_prime": by_b, "b": by_a, "b_prime": by_a}


def check_sica(
    table: SeriesTable, schedule: Schedule | None = None, max_witnesses: int = 8
) -> SicaVerdict:
    """Does each station's series read the same under both distant settings?

    With a schedule (or a run-derived table, where one is recovered), each
    row's recorded cells are split by the distant station's setting into two
    subsequences, aligned in time order, and compared term by term.  A fully
    measured table with no schedule has one value per cell and nothing to
    compare, so the condition holds by construction.  A partially measured
    table whose schedule can neither be given nor recovered cannot be
    checked, and raises :class:`PreconditionError` rather than pass.
    """
    if schedule is None:
        try:
            schedule = derive_schedule(table)
        except PreconditionError as exc:
            if table.fully_measured:
                return SicaVerdict(
                    True, (), note="fully measured, no regime structure to compare"
                )
            raise PreconditionError(
                "cannot check the series identity of a partially measured table "
                f"without a schedule: {exc}"
            ) from exc
    if schedule.slots != table.slots:
        raise PreconditionError(
            f"schedule covers {schedule.slots} slots, table has {table.slots}"
        )
    witnesses: list[SicaWitness] = []
    regimes = _distant_regimes(schedule)
    for key in ROW_KEYS:
        row = table.row(key)
        left_slots, right_slots = regimes[key]
        left = [(i, row[i]) for i in left_slots if row[i] is not None]
        right = [(i, row[i]) for i in right_slots if row[i] is not None]
        if len(left) != len(right):
            witnesses.append(
                SicaWitness(
                    key,
                    "length-mismatch",
                    f"row {key} has {len(left)} cells under one distant setting "
                    f"and {len(right)} under the other",
                )
            )
            continue
        for pos, ((sl, vl), (sr, vr)) in enumerate(zip(left, right)):
            if vl != vr:
                witnesses.append(
                    SicaWitness(
                        key,
                        "value-mismatch",
                        f"row {key} position {pos}: {vl:+d} at slot {sl} vs "
                        f"{vr:+d} at slot {sr}",
                        position=pos,
                        slot_left=sl,
                        slot_right=sr,
                    )
                )
                if len(witnesses) >= max_witnesses:
                    return SicaVerdict(False, tuple(witnesses))
    return SicaVerdict(len(witnesses) == 0, tuple(witnesses))


# ---------------------------------------------------------------------------
# Condensation


def _condense_run_table(table: SeriesTable, schedule: Schedule) -> SeriesTable:
    verdict = check_sica(table, schedule)
    if not verdict.holds:
        lines = "; ".join(w.detail for w in verdict.witnesses[:3])
        raise PreconditionError(f"series identity fails, cannot condense: {lines}")
    blocks: dict[Pairing, list[int]] = {p: [] for p in PAIRINGS}
    for i in range(schedule.slots):
        blocks[schedule.pairing(i)].append(i)
    sizes = {p: len(blocks[p]) for p in PAIRINGS}
    if len(set(sizes.values())) != 1 or min(sizes.values()) == 0:
        raise PreconditionError(
            "condensation needs all four setting pairs measured equally often, "
            f"got {dict((p.key, n) for p, n in sizes.items())}"
        )
    n = sizes[Pairing.AB]
    a = [table.a[blocks[Pairing.AB][j]] for j in range(n)]
    b = [table.b[blocks[Pairing.AB][j]] for j in range(n)]
    a_prime = [table.a_prime[blocks[Pairing.APB][j]] for j in range(n)]
    b_prime = [table.b_prime[blocks[Pairing.ABP][j]] for j in range(n)]
    return SeriesTable.from_rows(a, b, a_prime, b_prime)


def _condense_full(
    table: SeriesTable, schedule: Schedule
) -> tuple[SeriesTable, dict[str, tuple[int, ...]]]:
    """Condense a fully measured table along a regime structure.

    Each row appears once under each distant setting; the two copies are
    equal by the identity check, and per position the copy from the earlier
    slot is kept.  Returns the condensed table and, per row, the original
    slot each kept cell came from.
    """
    verdict = check_sica(table, schedule)
    if not verdict.holds:
        lines = "; ".join(w.detail for w in verdict.witnesses[:3])
        raise PreconditionError(f"series identity fails, cannot condense: {lines}")
    rows: dict[str, list[Cell]] = {}
    sources: dict[str, tuple[int, ...]] = {}
    regimes = _distant_regimes(schedule)
    for key in ROW_KEYS:
        row = table.row(key)
        left_slots, right_slots = regimes[key]
        if len(left_slots) != len(right_slots):
            raise PreconditionError(
                f"row {key}: regimes cover {len(left_slots)} and {len(right_slots)} "
                "slots; cannot pair the two copies"
            )
        kept_slots = [min(l, r) for l, r in zip(left_slots, right_slots)]
        rows[key] = [row[s] for s in kept_slots]
        sources[key] = tuple(kept_slots)
    out = SeriesTable.from_rows(rows["a"], rows["b"], rows["a_prime"], rows["b_prime"])
    return out, sources


def condense(table: SeriesTable, schedule: Schedule | None = None) -> SeriesTable:
    """Halve a table that satisfies the series identity.

    Run-derived tables condense to one slot per setting-pair block position,
    eliminating all unmeasured cells; the four measured correlations are
    preserved exactly.  A fully measured table condenses along the given
    schedule's regime structure (keeping the earlier copy of each cell), or,
    with no schedule, to its first half.
    """
    if not table.fully_measured:
        return _condense_run_table(table, schedule or derive_schedule(table))
    if schedule is not None:
        out, _ = _condense_full(table, schedule)
        return out
    if table.slots % 2 != 0:
        raise PreconditionError(f"cannot halve a table of {table.slots} slots")
    half = table.slots // 2
    return SeriesTable.from_rows(
        table.a[:half], table.b[:half], table.a_prime[:half], table.b_prime[:half]
    )


# ---------------------------------------------------------------------------
# Reordering


@dataclass(frozen=True)
class ReorderPlan:
    """Joint within-block permutations plus the slots given up.

    ``block_orders`` maps each setting pair to the original slots whose
    events occupy, in order, the kept positions of that block.  A slot and
    its partner cell always travel together, and discarding is a whole-slot
    operation, so it is symmetric across the pairing's two rows.
    """

    block_orders: dict[Pairing, tuple[int, ...]]
    discarded_slots: tuple[int, ...]
    kept_per_block: int


@dataclass(frozen=True)
class ReorderOutcome:
    success: bool
    plan: ReorderPlan | None
    best_keepable: int
    required: int
    obstruction: str = ""


def _block_pairs(run: RecordedRun, blocks: dict[Pairing, list[int]]):
    out = {}
    for p, slots in blocks.items():
        counts: dict[tuple[int, int], int] = {}
        for i in slots:
            pair = (run.a_outcomes[i], run.b_outcomes[i])
            counts[pair] = counts.get(pair, 0) + 1
        out[p] = counts
    return out


_QUAD_CLASSES = [
    (a, b, ap, bp) for a in VALUES for b in VALUES for ap in VALUES for bp in VALUES
]


def _class_pair(quad: tuple[int, int, int, int], pairing: Pairing) -> tuple[int, int]:
    a = quad[0] if pairing.a_row == "a" else quad[2]
    b = quad[1] if pairing.b_row == "b" else quad[3]
    return a, b


def _max_joint_arrangement(pair_counts) -> tuple[int, dict[tuple, int]]:
    """Largest m such that m slot quadruples can be drawn with each pairing's
    projection available in its block.  Exact small integer program."""
    # scipy.optimize takes most of the package's import time; only reorder
    # needs it.
    from scipy.optimize import LinearConstraint, milp

    classes = [
        q
        for q in _QUAD_CLASSES
        if all(pair_counts[p].get(_class_pair(q, p), 0) > 0 for p in PAIRINGS)
    ]
    if not classes:
        return 0, {}
    rows = []
    bounds = []
    for p in PAIRINGS:
        for pair, count in sorted(pair_counts[p].items()):
            rows.append([1 if _class_pair(q, p) == pair else 0 for q in classes])
            bounds.append(count)
    constraints = LinearConstraint(np.array(rows), -np.inf, np.array(bounds))
    res = milp(
        c=-np.ones(len(classes)),
        constraints=constraints,
        integrality=np.ones(len(classes)),
        bounds=None,
    )
    if not res.success:
        raise BellSeriesError(
            f"reorder MILP failed (status {res.status}): {res.message}"
        )
    x = np.round(res.x).astype(int)
    chosen = {q: int(k) for q, k in zip(classes, x) if k > 0}
    return int(round(-res.fun)), chosen


def _earliest_unused(items: Sequence, key):
    """``take(value)``: the earliest of ``items`` whose ``key`` is ``value``
    and that no earlier call took, or None.  One lazy queue per value, so
    each value's scan passes over ``items`` once in all."""
    queues: dict = {}

    def take(value):
        if value not in queues:
            queues[value] = (item for item in items if key(item) == value)
        return next(queues[value], None)

    return take


def _greedy_obstruction(run: RecordedRun, blocks) -> str:
    """Walk the forced-matching cascade until it dead-ends, for the report.

    Each of the first 64 slots of block (alpha, beta) takes, in each other
    block, the earliest unused slot offering the value it forces."""
    a_out, b_out = run.a_outcomes, run.b_outcomes
    take_abp = _earliest_unused(blocks[Pairing.ABP], a_out.__getitem__)
    take_apb = _earliest_unused(blocks[Pairing.APB], b_out.__getitem__)
    take_apbp = _earliest_unused(blocks[Pairing.APBP], lambda s: (a_out[s], b_out[s]))
    steps: list[str] = []
    for slot_ab in blocks[Pairing.AB][:64]:
        a, b = a_out[slot_ab], b_out[slot_ab]
        slot_abp = take_abp(a)
        if slot_abp is None:
            return (
                f"slot {slot_ab} fixes a={a:+d} under ({Pairing.AB.key}); no slot in "
                f"block ({Pairing.ABP.key}) still offers a={a:+d}. " + " ".join(steps)
            )
        b_prime = b_out[slot_abp]
        slot_apb = take_apb(b)
        if slot_apb is None:
            return (
                f"slot {slot_ab} fixes b={b:+d}; no slot in block ({Pairing.APB.key}) "
                f"still offers b={b:+d}. " + " ".join(steps)
            )
        a_prime = a_out[slot_apb]
        slot_apbp = take_apbp((a_prime, b_prime))
        if slot_apbp is None:
            return (
                f"carrying a={a:+d}, b={b:+d} from slot {slot_ab} forces "
                f"b'={b_prime:+d} (slot {slot_abp}) and a'={a_prime:+d} "
                f"(slot {slot_apb}), but no slot in block ({Pairing.APBP.key}) "
                f"offers the pair (a'={a_prime:+d}, b'={b_prime:+d}). " + " ".join(steps)
            )
        steps.append(f"matched slots ({slot_ab},{slot_abp},{slot_apb},{slot_apbp}).")
    return "no single forced dead end; joint availability is the binding limit. " + " ".join(
        steps
    )


def _margin_certificate(
    run: RecordedRun, blocks, budget: int
) -> str | None:
    """A cheap exact proof of infeasibility for loss-free runs.

    Every condensed table of plus/minus outcomes satisfies all four sign
    variants of the CHSH combination, and keeping all but d slots of a block
    of n moves its correlation by at most 2d/(n-d).  A block-correlation
    combination exceeding 2 by more than the total possible drift therefore
    rules out every plan within the discard budget.
    """
    for i in range(run.slots):
        if run.a_outcomes[i] == 0 or run.b_outcomes[i] == 0:
            return None
    e = {}
    drift = Fraction(0)
    for p in PAIRINGS:
        n = len(blocks[p])
        d = min(budget, n - 1)
        total = sum(run.a_outcomes[i] * run.b_outcomes[i] for i in blocks[p])
        e[p] = Fraction(total, n)
        drift += Fraction(2 * d, n - d) if n > d else Fraction(2)
    full = e[Pairing.AB] + e[Pairing.ABP] + e[Pairing.APB] + e[Pairing.APBP]
    worst = max(abs(full - 2 * e[p]) for p in PAIRINGS)
    if worst > 2 + drift:
        return (
            f"block correlations reach a CHSH combination of {worst} "
            f"(> 2 + maximal discard drift {drift}); no reordering within "
            "the budget can repair this"
        )
    return None


def reorder_to_sica(run: RecordedRun, budget: int | None = None) -> ReorderOutcome:
    """Find a correlation-preserving rearrangement enforcing the identity.

    Success means: a joint permutation within each setting-pair block, plus
    at most ``budget`` discarded slots per block (never a whole block), after
    which every kept block has the same length m and the j-th kept slot of
    each block carries the j-th of m common outcome quadruples.  The derived
    table of the rearranged run then passes :func:`check_sica`, and the
    permutation part changes no measured correlation.

    Failure is a result, not an error: the outcome carries a narrated
    cascade obstruction and the best keepable m.
    """
    if budget is None:
        budget = default_discard_budget(run.slots)
    blocks = pairing_blocks(run)
    empty = [p.key for p in PAIRINGS if not blocks[p]]
    if empty:
        return ReorderOutcome(
            False, None, 0, 1, f"never-measured setting pairs: {', '.join(empty)}"
        )
    required = max(1, max(len(blocks[p]) - min(budget, len(blocks[p]) - 1) for p in PAIRINGS))
    certificate = _margin_certificate(run, blocks, budget)
    if certificate is not None:
        return ReorderOutcome(False, None, 0, required, certificate)
    pair_counts = _block_pairs(run, blocks)
    best, chosen = _max_joint_arrangement(pair_counts)
    if best < required:
        return ReorderOutcome(
            False, None, best, required, _greedy_obstruction(run, blocks)
        )
    # Each quadruple, in class order, takes the earliest unused slot of each
    # block that carries its projection: one time-ordered queue per pair.
    block_orders: dict[Pairing, tuple[int, ...]] = {}
    kept: set[int] = set()
    for p in PAIRINGS:
        queues: dict[tuple[int, int], list[int]] = {}
        for slot in blocks[p]:
            queues.setdefault((run.a_outcomes[slot], run.b_outcomes[slot]), []).append(slot)
        heads = {pair: iter(slots) for pair, slots in queues.items()}
        order: list[int] = []
        for q in sorted(chosen):
            picked = list(islice(heads.get(_class_pair(q, p), iter(())), chosen[q]))
            if len(picked) < chosen[q]:
                raise AssertionError("arrangement certified feasible but not realizable")
            order.extend(picked)
        block_orders[p] = tuple(order)
        kept.update(order)
    discarded = tuple(i for i in range(run.slots) if i not in kept)
    plan = ReorderPlan(block_orders, discarded, best)
    return ReorderOutcome(True, plan, best, required)


def apply_plan(run: RecordedRun, plan: ReorderPlan) -> RecordedRun:
    """Rearrange the run per the plan: discarded slots vanish, kept slots
    stay in time order under their original settings, and within each block
    the j-th kept position takes the j-th donor's outcome pair."""
    donors_at: dict[int, int] = {}
    for p, order in plan.block_orders.items():
        positions = sorted(order)
        for pos, donor in zip(positions, order):
            donors_at[pos] = donor
    kept = sorted(donors_at)
    a_out = tuple(run.a_outcomes[donors_at[i]] for i in kept)
    b_out = tuple(run.b_outcomes[donors_at[i]] for i in kept)
    schedule = Schedule(
        "custom",
        tuple(run.schedule.a_settings[i] for i in kept),
        tuple(run.schedule.b_settings[i] for i in kept),
    )
    return RecordedRun(schedule, a_out, b_out, meta=run.meta)


# ---------------------------------------------------------------------------
# Completion


@dataclass(frozen=True)
class CompleteTable:
    """A fully measured table whose cells are tagged factual ("F", recorded)
    or counterfactual ("C", assigned), satisfying the series identity under
    its schedule."""

    table: SeriesTable
    provenance: dict[str, tuple[str, ...]]
    schedule: Schedule

    def __post_init__(self):
        if not self.table.fully_measured:
            raise PreconditionError("a complete table has no unmeasured cells")
        if self.schedule.slots != self.table.slots:
            raise PreconditionError("schedule and table lengths differ")
        for key in ROW_KEYS:
            marks = self.provenance.get(key)
            if marks is None or len(marks) != self.table.slots:
                raise PreconditionError(f"provenance for row {key} missing or wrong length")
            if any(m not in ("F", "C") for m in marks):
                raise PreconditionError(f"provenance for row {key} must be 'F'/'C'")

    def check(self) -> SicaVerdict:
        return check_sica(self.table, self.schedule)

    def factual_slots(self, pairing: Pairing) -> tuple[int, ...]:
        pa = self.provenance[pairing.a_row]
        pb = self.provenance[pairing.b_row]
        return tuple(i for i in range(self.table.slots) if pa[i] == "F" and pb[i] == "F")

    def factual_correlations(self):
        return {
            p: correlation_over_slots(self.table, p, self.factual_slots(p))
            for p in PAIRINGS
        }

    def condense(self) -> "CondensedTable":
        out, sources = _condense_full(self.table, self.schedule)
        provenance = {
            key: tuple(self.provenance[key][s] for s in sources[key]) for key in ROW_KEYS
        }
        return CondensedTable(out, provenance)

    def resample(self, overrides: dict[Pairing, Sequence[int]] | None = None):
        """Re-pick which slots count as the factual observation of each
        pairing, and report the resulting per-pairing statistics and CHSH
        combination.  Defaults to the construction's own factual slots."""
        chosen: dict[Pairing, tuple[int, ...]] = {
            p: self.factual_slots(p) for p in PAIRINGS
        }
        if overrides:
            for p, slots in overrides.items():
                picked = tuple(slots)
                bad = [i for i in picked if not 0 <= i < self.table.slots]
                if bad:
                    raise PreconditionError(
                        f"{p.key}: slots {bad} lie outside the table"
                    )
                chosen[p] = picked
        stats = {p: correlation_over_slots(self.table, p, chosen[p]) for p in PAIRINGS}
        s = chsh_combination(*(stats[p].e for p in PAIRINGS))
        return ResampleResult(chosen, stats, s)


@dataclass(frozen=True)
class CondensedTable:
    """Half-length table mixing factual and counterfactual cells.  Not a
    :class:`CompleteTable`: after condensation the redundancy that the
    identity check consumes is gone."""

    table: SeriesTable
    provenance: dict[str, tuple[str, ...]]


@dataclass(frozen=True)
class ResampleResult:
    slots: dict[Pairing, tuple[int, ...]]
    stats: dict
    s: Fraction | None


@dataclass(frozen=True)
class CompletionResult:
    complete: CompleteTable
    discarded_slots: tuple[int, ...]
    note: str = ""


def _is_block_halves(schedule: Schedule) -> bool:
    if schedule.slots % 4 != 0:
        return False
    ref = block_halves(schedule.slots)
    return (
        schedule.a_settings == ref.a_settings and schedule.b_settings == ref.b_settings
    )


def _stable_match(
    donors: Sequence[tuple[int, int]], targets: Sequence[tuple[int, int]]
) -> list[tuple[int, int]]:
    """Pair each target (slot, value) with the earliest unused donor slot of
    equal value; unmatched targets are skipped.  Returns (donor, target)
    slot pairs in target order."""
    take = _earliest_unused(donors, lambda donor: donor[1])
    out = []
    for t_slot, t_val in targets:
        donor = take(t_val)
        if donor is not None:
            out.append((donor[0], t_slot))
    return out


def _bits_to_values(bits: Sequence[int], m: int, what: str) -> list[int]:
    if any(b not in (0, 1) for b in bits):
        raise PreconditionError(f"{what}: free choices are bits, 0 (minus) or 1 (plus)")
    if len(bits) < m:
        raise PreconditionError(
            f"{what}: need at least {m} free-choice bits, got {len(bits)}"
        )
    return [PLUS if b else MINUS for b in bits[:m]]


def build_complete_table(
    run: RecordedRun,
    free_choice_a: Sequence[int],
    free_choice_aprime: Sequence[int],
    budget: int | None = None,
) -> CompletionResult:
    """Constructive completion of a block-layout run.

    With quarters Q1..Q4 of the block layout, the factual cells are
    a over Q1+Q2, a' over Q3+Q4, b over Q2+Q3, b' over Q1+Q4.
    The construction: reorder Q1 so the a-values repeat Q2 (carrying b'
    along), reorder Q3 so the a'-values repeat Q4 (carrying b along), take
    the counterfactual a-quarter Q3 from the free bits and copy it to Q4
    (likewise a' over Q1 copied to Q2), then the counterfactual b and b'
    quarters are forced: b|Q1 := reordered b|Q3, b|Q4 := b|Q2,
    b'|Q2 := b'|Q4, b'|Q3 := reordered b'|Q1.

    Quarters whose value counts disagree are trimmed by the discard budget
    (default ceiling of sqrt(T/4) slots); beyond it, the deficient quarter
    pair is named.  Zeros are out of scope here: completion of lossy runs is
    an open problem, not a supported path.
    """
    t = run.slots
    if t % 4 != 0:
        raise PreconditionError(f"completion needs a slot count divisible by 4, got {t}")
    if not _is_block_halves(run.schedule):
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
        budget = default_discard_budget(t)
    table = table_from_run(run)
    q = [range(k * quarter, (k + 1) * quarter) for k in range(4)]

    a_pairs_1 = [(i, table.a[i]) for i in q[0]]
    a_pairs_2 = [(i, table.a[i]) for i in q[1]]
    ap_pairs_3 = [(i, table.a_prime[i]) for i in q[2]]
    ap_pairs_4 = [(i, table.a_prime[i]) for i in q[3]]

    match_a = _stable_match(a_pairs_1, a_pairs_2)
    match_ap = _stable_match(ap_pairs_3, ap_pairs_4)
    m = min(len(match_a), len(match_ap))
    min_keep = max(1, quarter - budget)
    if m < min_keep:
        where = (
            "row a, quarters 1-2" if len(match_a) < len(match_ap) else "row a_prime, quarters 3-4"
        )
        raise PreconditionError(
            f"unbalanced factual quarters ({where}): only {m} of {quarter} slots "
            f"can be matched, budget allows discarding {min(budget, quarter - 1)}"
        )
    match_a = match_a[:m]
    match_ap = match_ap[:m]

    donors_q1 = [d for d, _ in match_a]
    kept_q2 = sorted(t_ for _, t_ in match_a)
    donors_q3 = [d for d, _ in match_ap]
    kept_q4 = sorted(t_ for _, t_ in match_ap)
    # Donor order must track the kept targets in their final (sorted) order.
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

    free_a = _bits_to_values(free_choice_a, m, "free_choice_a")
    free_ap = _bits_to_values(free_choice_aprime, m, "free_choice_aprime")

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
    complete = CompleteTable(out_table, provenance, block_halves(4 * m))
    verdict = complete.check()
    if not verdict.holds:
        raise AssertionError(
            "constructed table fails its own identity check: "
            + "; ".join(w.detail for w in verdict.witnesses[:3])
        )
    kept_all = set(donors_q1) | set(kept_q2) | set(donors_q3) | set(kept_q4)
    discarded = tuple(i for i in range(t) if i not in kept_all)
    note = "" if not discarded else f"trimmed {len(discarded)} slots to balance quarters"
    return CompletionResult(complete, discarded, note)


def fill_counterfactual(
    run: RecordedRun,
    policy: str,
    free_choice_a: Sequence[int] | None = None,
    free_choice_aprime: Sequence[int] | None = None,
    budget: int | None = None,
):
    """Fill the never-measured cells of a run's table.

    ``"zeros"`` writes 0 everywhere a setting was inactive and returns the
    resulting :class:`~bellseries.model.SeriesTable`; under the block layout
    every pairing then retains at most half of each station's detections.
    ``"sica"`` delegates to :func:`build_complete_table` and returns its
    :class:`CompletionResult`.
    """
    if policy == "zeros":
        table = table_from_run(run)
        rows = {
            key: tuple(ZERO if v is None else v for v in table.row(key))
            for key in ROW_KEYS
        }
        return SeriesTable.from_rows(
            rows["a"], rows["b"], rows["a_prime"], rows["b_prime"]
        )
    if policy == "sica":
        if free_choice_a is None or free_choice_aprime is None:
            raise PreconditionError(
                "policy 'sica' needs free_choice_a and free_choice_aprime bits"
            )
        return build_complete_table(run, free_choice_a, free_choice_aprime, budget=budget)
    raise PreconditionError(f"unknown fill policy {policy!r}")


def enumerate_complete_tables(
    run: RecordedRun, budget: int = 2**26
) -> Iterator[CompletionResult]:
    """All completions of a block-layout run, one per free-choice pair, in
    ascending order of the two bit words (a first, then a')."""
    quarter = run.slots // 4
    total = 1 << (2 * quarter)
    if total > budget:
        raise BudgetExceeded(
            f"enumerating {total} completions exceeds the budget of {budget}", total
        )
    for word_a in range(1 << quarter):
        bits_a = [(word_a >> (quarter - 1 - j)) & 1 for j in range(quarter)]
        for word_ap in range(1 << quarter):
            bits_ap = [(word_ap >> (quarter - 1 - j)) & 1 for j in range(quarter)]
            yield build_complete_table(run, bits_a, bits_ap)
