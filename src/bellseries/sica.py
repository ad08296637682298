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
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, product
from typing import Iterator, Sequence

from .errors import BellSeriesError, BudgetExceeded, PreconditionError
from .model import (
    EVENT_COLUMNS,
    EVENT_PAIRINGS,
    EVENTS,
    MINUS,
    PAIRINGS,
    PLUS,
    ROW_KEYS,
    ZERO,
    Cell,
    Pairing,
    RecordedRun,
    Schedule,
    SeriesTable,
    _bytewise,
    block_halves,
    custom_schedule,
    derive_schedule,
    gather,
    pairing_blocks,
    pairing_mask,
    pairing_slots,
    table_from_run,
)
from .stats import chsh_combination, correlation_over_slots

VALUES = (MINUS, ZERO, PLUS)
#: A failing verdict lists at most this many witnesses.
_MAX_WITNESSES = 8


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


#: Per row, the two blocks its cells fall in: under the distant station's
#: unprimed setting, then under its primed one.
_ROW_BLOCKS = {key: tuple(p for p in PAIRINGS if key in (p.a_row, p.b_row)) for key in ROW_KEYS}
#: Per row, the setting pairs under the distant station's unprimed setting,
#: then under its primed one: the blocks of the distant station's two rows.
_DISTANT_SIDES = {key: tuple(_ROW_BLOCKS[k] for k in ROW_KEYS if k[0] != key[0])
                  for key in ROW_KEYS}
#: A cell's index: that of its value in VALUES, or 3 if unmeasured.
_CELL_INDEX = {cell: i for i, cell in enumerate((*VALUES, None))}
#: Per row, per setting pair's code, 4 if the distant setting is primed there, else 0.
_DISTANT_PRIMED = {key: bytes(4 * (p in primed) for p in PAIRINGS).ljust(256, b"\0")
                   for key, (_, primed) in _DISTANT_SIDES.items()}
#: Per row, per event code, its cell code (:func:`_cells`).
_EVENT_CELLS = {key: bytes(_DISTANT_PRIMED[key][PAIRINGS.index(p)] + _CELL_INDEX[cells[r]]
                           for p, cells in zip(EVENT_PAIRINGS, EVENT_COLUMNS)).ljust(256, b"\0")
                for r, key in enumerate(ROW_KEYS)}
#: Per distant setting, unprimed then primed, the cell codes of a row's
#: measured cells under it, and the codes its series drops.
_KEPT = (b"\0\1\2", b"\4\5\6")
_DROPPED = tuple(bytes(code for code in range(8) if code not in kept) for kept in _KEPT)


def _regimes(schedule: Schedule) -> dict[str, tuple[list[int], list[int]]]:
    """Per row, the slots of its two series on a fully measured table, in
    time order: those under the distant station's unprimed setting, then
    under its primed one (:data:`_DISTANT_SIDES`).  Rows that share a split
    share its lists, so the schedule is read four times."""
    slots = {blocks: pairing_slots(schedule, blocks) for blocks in _ROW_BLOCKS.values()}
    return {key: tuple(map(slots.get, sides)) for key, sides in _DISTANT_SIDES.items()}


def _fill_identity_pairs(
    rows: dict[str, list[Cell]], schedule: Schedule
) -> list[tuple[str, int, int]] | None:
    """Fill, in place, every cell of ``rows`` that the series identity
    forces under ``schedule``, and return the pairs it leaves free.

    Per row, the identity ties the k-th slot under one distant setting to
    the k-th under the other.  A pair with one recorded cell copies it to
    the other; a pair with none is free.  The free pairs come as (row, slot,
    slot), row by row and each row's pairs by their earlier slot (both of a
    row's regimes ascend).  Returns None when no +-1 extension exists: a
    row's regimes differ in length, a pair holds two different values, or a
    recorded 0 would be copied.
    """
    regimes = _regimes(schedule)
    free: list[tuple[str, int, int]] = []
    for key in ROW_KEYS:
        row = rows[key]
        lefts, rights = regimes[key]
        if len(lefts) != len(rights):
            return None
        for l, r in zip(lefts, rights):
            vl, vr = row[l], row[r]
            if vl is None and vr is None:
                free.append((key, l, r))
            elif vl is None or vr is None:
                fixed = vr if vl is None else vl
                if fixed == ZERO:
                    return None
                row[l] = row[r] = fixed
            elif vl != vr:
                return None
    return free


def _resolve_schedule(
    data: SeriesTable | RecordedRun | CompleteTable, schedule: Schedule | None
) -> tuple[SeriesTable | RecordedRun, Schedule]:
    """The cells ``data`` holds (a run: its event codes; a
    :class:`CompleteTable`: its table), and the schedule they are read
    under: the one ``data`` records, and a given one must be that one.  A
    run records its own schedule, as a :class:`CompleteTable` records the
    one its factual cells were measured in; neither is derived again.  A
    partially measured table records the one its cells fix
    (:func:`derive_schedule`).  A fully measured table records none and must
    be given one.  A table of no slots is refused: no verdict on it may pass
    vacuously."""
    if isinstance(data, CompleteTable):
        data, recorded = data.table, data.schedule
    else:
        recorded = data.schedule if isinstance(data, RecordedRun) else None
    if not data.slots:
        raise PreconditionError("the table has no slots, so there is no series identity to check")
    if schedule is not None and schedule.slots != data.slots:
        raise PreconditionError(
            f"schedule covers {schedule.slots} slots, table has {data.slots}"
        )
    if recorded is None and data.fully_measured:
        if schedule is None:
            raise PreconditionError(
                "cannot check the series identity of a fully measured table without "
                "a schedule: its cells fix none"
            )
        return data, schedule
    if recorded is None:
        try:
            recorded = derive_schedule(data)
        except PreconditionError as exc:
            if schedule is not None:
                raise
            raise PreconditionError(
                "cannot check the series identity of a partially measured table without a "
                f"schedule: {exc}"
            ) from exc
    if schedule is not None and schedule != recorded:
        raise PreconditionError("the table's recorded cells do not follow the given schedule")
    return data, recorded


def _cells(data: SeriesTable | RecordedRun, schedule: Schedule, key: str) -> bytes:
    """Row ``key``'s cell codes under ``schedule``, which
    :func:`_resolve_schedule` has settled on: per slot, 4 if the distant
    station's setting is primed there, else 0, plus the cell's index in
    (-1, 0, +1, unmeasured).  A run's are one translate of its event codes;
    a table's are read off its cells and the schedule."""
    if isinstance(data, RecordedRun):
        return data.events.translate(_EVENT_CELLS[key])
    primed = schedule.codes.translate(_DISTANT_PRIMED[key])
    return _bytewise(data.slots, ((1, primed), (1, bytes(gather(_CELL_INDEX, data.row(key))))))


def _slot(codes: bytes, kept: bytes, position: int) -> int:
    """The slot of the ``position``-th (from 0) of ``codes`` that is one of
    ``kept``, by bisection on counts: each step counts half of what is
    left."""
    lo, hi = 0, len(codes)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        below = sum(codes.count(code, lo, mid) for code in kept)
        lo, hi, position = (lo, mid, position) if position < below else (mid, hi, position - below)
    return lo


def _mismatches(left: bytes, right: bytes) -> Iterator[int]:
    """The positions where two byte strings of one length differ, in order,
    read off their XOR as one integer, the first byte lowest."""
    diff = int.from_bytes(left, "little") ^ int.from_bytes(right, "little")
    position = -1
    while diff:
        equal = ((diff & -diff).bit_length() - 1) // 8
        position += equal + 1
        yield position
        diff >>= 8 * (equal + 1)


def _compare(
    data: SeriesTable | RecordedRun, schedule: Schedule
) -> tuple[SicaVerdict, dict[str, bytes]]:
    """The identity verdict of ``data`` read under ``schedule``, and per
    row the first of the two series it compared, the k-th measured cell
    under one distant setting against the k-th under the other.  Per row,
    one row at a time, each series is one translate of its cell codes
    (:func:`_cells`) to the indices in VALUES of its cells' values.  A row
    whose two series differ in length is left out.  Slots are looked up
    only for the witnesses."""
    witnesses: list[SicaWitness] = []
    firsts: dict[str, bytes] = {}
    for key in ROW_KEYS:
        if len(witnesses) >= _MAX_WITNESSES:
            break
        codes = _cells(data, schedule, key)
        # A cell code's low two bits are its cell's index.
        left, right = (codes.translate(bytes(range(4)) * 64, dropped) for dropped in _DROPPED)
        if len(left) != len(right):
            witnesses.append(SicaWitness(key, "length-mismatch", (
                f"row {key} has {len(left)} cells under one distant setting "
                f"and {len(right)} under the other")))
            continue
        firsts[key] = left
        for pos in islice(_mismatches(left, right), _MAX_WITNESSES - len(witnesses)):
            vl, vr = VALUES[left[pos]], VALUES[right[pos]]
            sl, sr = (_slot(codes, kept, pos) for kept in _KEPT)
            witnesses.append(
                SicaWitness(
                    key,
                    "value-mismatch",
                    f"row {key} position {pos}: {vl:+d} at slot {sl} vs {vr:+d} at slot {sr}",
                    position=pos,
                    slot_left=sl,
                    slot_right=sr,
                )
            )
    return SicaVerdict(len(witnesses) == 0, tuple(witnesses)), firsts


def check_sica(
    data: SeriesTable | RecordedRun | CompleteTable, schedule: Schedule | None = None
) -> SicaVerdict:
    """Does each station's series read the same under both distant settings?

    The cells ``data`` holds (a run: its event codes; a
    :class:`CompleteTable`: its table) are read under the schedule it
    records (see :func:`_resolve_schedule`), and a given one must be that
    one; a fully measured table records none and is read under the given
    one.  Under it, each row's recorded cells are split by the distant
    station's setting into two subsequences, aligned in time order, and
    compared term by term.  A table read under no schedule, or that records
    another than the given one, raises :class:`PreconditionError` rather
    than pass.
    """
    return _compare(*_resolve_schedule(data, schedule))[0]


# ---------------------------------------------------------------------------
# Condensation


def condense(
    data: SeriesTable | RecordedRun | CompleteTable, schedule: Schedule | None = None
) -> SeriesTable | CompleteTable:
    """Halve a table (a run: the table it lays out) that satisfies the
    identity.

    The schedule is settled as for :func:`check_sica`, and each row keeps
    one cell of every slot pair :func:`_compare` compared, the k-th
    recorded cell under one distant setting with the k-th under the other:
    the two are equal once the check passes.  A run-derived table thereby
    loses all its unmeasured cells and keeps its four measured correlations
    exactly.  A :class:`CompleteTable` condenses to one: each pair's cell
    from the earlier slot is kept, so rows a and a' keep the same slot at
    each position, and so do b and b', and the kept slots' settings are the
    condensed schedule.  Its table is fully measured, so a series' slots
    are all those on its distant side (:func:`_regimes`).
    """
    source, schedule = _resolve_schedule(data, schedule)
    verdict, firsts = _compare(source, schedule)
    if not verdict.holds:
        lines = "; ".join(w.detail for w in verdict.witnesses[:3])
        raise PreconditionError(f"series identity fails, cannot condense: {lines}")
    out = SeriesTable.from_rows(*(gather(VALUES, firsts[key]) for key in ROW_KEYS))
    if not isinstance(data, CompleteTable):
        return out
    regimes = _regimes(schedule)
    kept = {key: tuple(map(min, *regimes[key])) for key in ("a", "b")}
    return CompleteTable(out, custom_schedule(
        gather(schedule.a_settings, kept["a"]), gather(schedule.b_settings, kept["b"])
    ))


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
    best_keepable: int | None  # None when a solver-free cover decided, not the solver
    required: int
    obstruction: str = ""
    certificate: tuple[dict, int] | None = None  # a failure's verified cover: _cover_bound


def _block_pairs(run: RecordedRun) -> dict[Pairing, Counter]:
    """Per block, how many of its slots carry each outcome pair (a, b)."""
    pairs: dict[Pairing, Counter] = {p: Counter() for p in PAIRINGS}
    for code, n in run.event_counts.items():
        p, a, b = EVENTS[code]
        pairs[p][a, b] = n
    return pairs


def _class_pair(quad: tuple[int, int, int, int], pairing: Pairing) -> tuple[int, int]:
    a = quad[0] if pairing.a_row == "a" else quad[2]
    b = quad[1] if pairing.b_row == "b" else quad[3]
    return a, b


#: Per outcome-quadruple class (a, b, a', b'), its four (block, pair) cells.
_CLASS_CELLS = {
    q: tuple((p, _class_pair(q, p)) for p in PAIRINGS) for q in product(VALUES, repeat=4)
}


def _program(pair_counts):
    """The reorder integer program: a variable per class whose four pairs
    all four blocks recorded, and per recorded (block, pair) cell a row with
    a 1 for each class that takes the cell, bounded by the cell's count."""
    classes = [q for q, four in _CLASS_CELLS.items()
               if all(pair_counts[p][pair] for p, pair in four)]
    cells = [(p, pair) for p in PAIRINGS for pair in sorted(pair_counts[p])]
    rows = [[int(cell in _CLASS_CELLS[q]) for q in classes] for cell in cells]
    return classes, cells, rows, [pair_counts[p][pair] for p, pair in cells]


def _max_joint_arrangement(pair_counts) -> tuple[int, dict[tuple, int]]:
    """Largest m such that m slot quadruples can be drawn with each pairing's
    projection available in its block.  Exact small integer program."""
    # numpy and scipy.optimize take most of the package's import time; only
    # a reorder that no solver-free cover decides needs them.
    import numpy as np
    from scipy.optimize import LinearConstraint, milp

    classes, _, rows, capacities = _program(pair_counts)
    if not classes:
        return 0, {}
    constraints = LinearConstraint(np.array(rows), -np.inf, np.array(capacities))
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


def _time_queues(items: Sequence, key):
    """``take(value, n)``: the ``n`` earliest of ``items`` whose ``key`` is
    ``value`` and that no earlier call took, fewer if fewer are left.  One
    time-ordered queue per value, filled in one pass over ``items``."""
    queues: dict = {}
    for item in items:
        queues.setdefault(key(item), []).append(item)
    heads = {value: iter(queue) for value, queue in queues.items()}
    return lambda value, n=1: list(islice(heads.get(value, ()), n))


def _lp_dual_cover(pair_counts) -> tuple[dict, int] | None:
    """The LP relaxation's optimal dual, each weight rounded to a fraction of
    denominator at most 12, over their common denominator; None when the
    solver fails.  Only run after the integer program has loaded scipy."""
    from scipy.optimize import linprog

    classes, cells, rows, capacities = _program(pair_counts)
    if not classes:
        return {}, 1
    res = linprog([-1] * len(classes), A_ub=rows, b_ub=capacities)
    if res.status != 0:
        return None
    duals = [Fraction(-y).limit_denominator(12) for y in res.ineqlin.marginals]
    d = math.lcm(*(y.denominator for y in duals))
    return {cell: int(y * d) for cell, y in zip(cells, duals) if y}, d


def _cover_bound(pair_counts, cover: tuple[dict, int]) -> int | None:
    """The most quadruples ``cover`` lets a reorder keep, or None when it is
    no cover; exact, in integers.  A cover (weights, d) gives (block, pair)
    cells non-negative integer weights over d, and every class the four
    blocks offer weighs at least d on its four cells.  So each kept
    quadruple uses up weight 1, and no plan keeps more than the cells' sum
    of weight * count, over d."""
    weights, d = cover
    if d < 1 or min(weights.values(), default=0) < 0:
        return None
    for cells in _CLASS_CELLS.values():
        if (sum(weights.get(c, 0) for c in cells) < d
                and all(pair_counts[p][pair] for p, pair in cells)):
            return None
    return sum(w * pair_counts[p][pair] for (p, pair), w in weights.items()) // d


def _covers(pair_counts) -> Iterator[tuple[str, tuple[dict, int]]]:
    """The solver-free covers, as (label, cover).  First eight CHSH sign
    patterns: block p gets a sign s_p, all equal but one, and cell
    (p, (a, b)) weight 1 - s_p*a*b over d = 2, as a quadruple's four signed
    products sum to at most 2, zeros included; with T_p a block's product
    sum, the bound is (N - sum of s_p*T_p) // 2 over the N slots.  Then per
    row, weight 1 over d = 1 on its cells of each value in whichever of its
    :data:`_ROW_BLOCKS` holds fewer, as a quadruple takes one from both."""
    for negated in PAIRINGS:
        for sign in (1, -1):
            weights = {(p, (a, b)): 1 - sign * (-a * b if p is negated else a * b)
                       for p in PAIRINGS for a, b in pair_counts[p]}
            yield f"the CHSH sum with ({negated.key}) negated", (weights, 2)
    for key, blocks in _ROW_BLOCKS.items():
        side = 0 if blocks[0].a_row == key else 1
        weights = {}
        for v in VALUES:
            cells = [[(p, pair) for pair in pair_counts[p] if pair[side] == v] for p in blocks]
            fewer = min(cells, key=lambda found: sum(pair_counts[p][pair] for p, pair in found))
            weights.update(dict.fromkeys(fewer, 1))
        yield f"row {key}'s per-value counts", (weights, 1)


def _render(label: str, pair_counts, cover: tuple[dict, int], bound: int, required: int) -> str:
    """A verified cover's text: label, weighted recorded cells, bound."""
    weights, d = cover
    listing = "; ".join(
        f"({p.key}) " + ", ".join(cells)
        for p in PAIRINGS
        if (cells := [f"({a:+d},{b:+d}) {n}x{weights[p, (a, b)]}"
                      for (a, b), n in sorted(pair_counts[p].items()) if weights.get((p, (a, b)))])
    )
    return (
        f"{label}: every outcome quadruple the four blocks offer weighs at least {d} on its "
        f"four cells; the weighted recorded cells, as count x weight: {listing or 'none'}; "
        f"so at most {bound} can be kept, {required} required"
    )


def reorder_to_sica(run: RecordedRun, budget: int | None = None) -> ReorderOutcome:
    """Find a correlation-preserving rearrangement enforcing the identity.

    Success means: a joint permutation within each setting-pair block, plus
    at most ``budget`` discarded slots per block (never a whole block), after
    which every kept block has the same length m and the j-th kept slot of
    each block carries the j-th of m common outcome quadruples.  The derived
    table of the rearranged run then passes :func:`check_sica`, and the
    permutation part changes no measured correlation.

    Failure is a result, not an error; ``required`` is the fewest
    quadruples the budget lets it keep.  Unless a setting pair was never
    measured, the block pair counts (:func:`_block_pairs`) decide, shown
    by one verified cover (:func:`_cover_bound`): the smallest of
    :func:`_covers`, first on a tie, leaves ``best_keepable`` None and
    loads neither numpy nor scipy; else the integer program's best m,
    with its rounded LP dual (:func:`_lp_dual_cover`) as certificate when
    that verifies below ``required``.  A solver failure is an error.
    """
    if budget is None:
        budget = default_discard_budget(run.slots)
    pair_counts = _block_pairs(run)
    sizes = {p: sum(pair_counts[p].values()) for p in PAIRINGS}
    required = max(1, max(sizes[p] - min(budget, sizes[p] - 1) for p in PAIRINGS))
    empty = [p.key for p in PAIRINGS if not sizes[p]]
    if empty:
        return ReorderOutcome(
            False, None, 0, required, f"never-measured setting pairs: {', '.join(empty)}"
        )
    bound, label, cover = min(
        ((_cover_bound(pair_counts, c), label, c) for label, c in _covers(pair_counts)),
        key=lambda found: found[0],
    )
    if bound < required:
        obstruction = _render(label, pair_counts, cover, bound, required)
        return ReorderOutcome(False, None, None, required, obstruction, cover)
    best, chosen = _max_joint_arrangement(pair_counts)
    if best < required:
        cover = _lp_dual_cover(pair_counts)
        bound = None if cover is None else _cover_bound(pair_counts, cover)
        if bound is None or bound >= required:
            return ReorderOutcome(False, None, best, required, (
                f"the integer program keeps at most {best}, {required} required; "
                "its LP dual gave no certificate"))
        obstruction = _render("the integer program's LP dual", pair_counts, cover, bound, required)
        return ReorderOutcome(False, None, best, required, obstruction, cover)
    # Each quadruple, in class order, takes the earliest unused slot of each
    # block that carries its projection.
    blocks = pairing_blocks(run)
    block_orders: dict[Pairing, tuple[int, ...]] = {}
    kept: set[int] = set()
    for p in PAIRINGS:
        take = _time_queues(blocks[p], run.events.__getitem__)
        order: list[int] = []
        for q in sorted(chosen):
            picked = take(EVENTS.index((p, *_class_pair(q, p))), chosen[q])
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
    for order in plan.block_orders.values():
        donors_at.update(zip(sorted(order), order))
    kept = sorted(donors_at)
    # A donor's event code carries its block's setting pair and its outcomes.
    events = bytes(gather(run.events, gather(donors_at, kept)))
    return RecordedRun.from_events(events, meta=run.meta)


# ---------------------------------------------------------------------------
# Completion


@dataclass(frozen=True)
class CompleteTable:
    """A fully measured table read under the ``schedule`` its factual cells
    were recorded in: a cell is factual (recorded) where the schedule
    measured its row and counterfactual (assigned) elsewhere.  A table file
    records the schedule by per-cell F/C marks, which only
    :meth:`from_provenance` and :attr:`provenance` read and write.  A
    completion satisfies the series identity under its schedule, and its
    condensation need not."""

    table: SeriesTable
    schedule: Schedule

    def __post_init__(self):
        if not self.table.fully_measured:
            raise PreconditionError("a complete table has no unmeasured cells")
        _resolve_schedule(self.table, self.schedule)

    @classmethod
    def from_provenance(cls, table: SeriesTable, marks: dict[str, Sequence[str]]) -> "CompleteTable":
        """The completed ``table`` whose F/C ``marks`` record its schedule:
        its factual ("F") cells fix it, as a run's recorded cells do."""
        try:
            schedule = derive_schedule(table, marks)
        except PreconditionError as exc:
            raise PreconditionError(f"the table's factual cells fix no schedule: {exc}") from exc
        return cls(table, schedule)

    @property
    def provenance(self) -> dict[str, tuple[str, ...]]:
        """Per row, "F" on the factual cells and "C" on the counterfactual
        ones: the marks a table file records the schedule by."""
        return {key: gather(("C", "F"), pairing_mask(self.schedule, _ROW_BLOCKS[key]))
                for key in ROW_KEYS}

    def check(self) -> SicaVerdict:
        return check_sica(self)

    def factual_correlations(self):
        return self.resample().stats

    def condense(self) -> "CompleteTable":
        return condense(self)

    def resample(self, overrides: dict[Pairing, Sequence[int]] | None = None):
        """Re-pick which slots count as the factual observation of each
        pairing, and report the resulting per-pairing statistics and CHSH
        combination.  Defaults to the construction's own factual slots."""
        chosen = {p: tuple(pairing_slots(self.schedule, (p,))) for p in PAIRINGS}
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
class ResampleResult:
    slots: dict[Pairing, tuple[int, ...]]
    stats: dict
    s: Fraction | None


@dataclass(frozen=True)
class CompletionResult:
    complete: CompleteTable
    discarded_slots: tuple[int, ...]
    note: str = ""


def _stable_match(
    donors: Sequence[tuple[int, int]], targets: Sequence[tuple[int, int]]
) -> list[tuple[int, int]]:
    """Pair each target (slot, value) with the earliest unused donor slot of
    equal value; unmatched targets are skipped.  Returns (donor, target)
    slot pairs in target order."""
    take = _time_queues(donors, lambda donor: donor[1])
    return [(d_slot, t_slot) for t_slot, t_val in targets for d_slot, _ in take(t_val)]


def _bits(word: int, width: int) -> tuple[int, ...]:
    """The ``width`` low bits of ``word``, most significant first."""
    return tuple((word >> (width - 1 - j)) & 1 for j in range(width))


def _bits_to_values(bits: Sequence[int], m: int, what: str) -> list[int]:
    if any(b not in (0, 1) for b in bits):
        raise PreconditionError(f"{what}: free choices are bits, 0 (minus) or 1 (plus)")
    if len(bits) < m:
        raise PreconditionError(
            f"{what}: need at least {m} free-choice bits, got {len(bits)}"
        )
    return [PLUS if b else MINUS for b in bits[:m]]


def _completion_quarter(run: RecordedRun) -> int:
    """The quarter length of a run that completion takes: a positive
    multiple of 4 slots in the block layout, with no missed detection."""
    slots = run.slots
    if slots <= 0 or slots % 4 != 0:
        raise PreconditionError(
            f"completion needs a positive slot count divisible by 4, got {slots}"
        )
    if run.schedule != block_halves(slots):
        raise PreconditionError(
            "completion needs the block layout: alpha on the first half of "
            "the slots, beta on the middle half"
        )
    if ZERO in run.a_outcomes or ZERO in run.b_outcomes:
        raise PreconditionError(
            "completion of runs with missed detections is not supported"
        )
    return slots // 4


def build_complete_table(
    run: RecordedRun,
    free_choice_a: Sequence[int],
    free_choice_aprime: Sequence[int],
    budget: int | None = None,
) -> CompletionResult:
    """Constructive completion of a block-layout run.

    With quarters Q1..Q4 of the block layout, the factual cells are
    a over Q1+Q2, a' over Q3+Q4, b over Q2+Q3, b' over Q1+Q4.  Each slot of
    Q2 is matched with the earliest unused slot of Q1 carrying the same
    a-value, and each slot of Q4 with one of Q3 carrying the same a'-value;
    the trimmed run holds the matched Q1 slots, then Q2, Q3 and Q4, each
    quarter in the order of its targets, under the block layout.  Its
    table is then filled as the identity ties its cells (see
    :func:`_fill_identity_pairs`): the free pairs, a over Q3+Q4 then a'
    over Q1+Q2, take the free bits, and every other unmeasured cell copies
    a factual one.  So each completion is one sample of the census.

    Quarters whose value counts disagree are trimmed by the discard budget
    (default ceiling of sqrt(T/4) slots); beyond it, the deficient quarter
    pair is named.  Zeros are out of scope here: completion of lossy runs is
    an open problem, not a supported path.
    """
    t = run.slots
    quarter = _completion_quarter(run)
    if budget is None:
        budget = default_discard_budget(t)
    q = [range(k * quarter, (k + 1) * quarter) for k in range(4)]
    a_out = run.a_outcomes
    match_a = _stable_match([(i, a_out[i]) for i in q[0]], [(i, a_out[i]) for i in q[1]])
    match_ap = _stable_match([(i, a_out[i]) for i in q[2]], [(i, a_out[i]) for i in q[3]])
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
    free_a = _bits_to_values(free_choice_a, m, "free_choice_a")
    free_ap = _bits_to_values(free_choice_aprime, m, "free_choice_aprime")

    # Both matches list their pairs in target order.
    donors_a, targets_a = zip(*match_a[:m])
    donors_ap, targets_ap = zip(*match_ap[:m])
    kept = donors_a + targets_a + donors_ap + targets_ap
    # The kept slots come quarter by quarter, so their events lay out the block layout.
    trimmed = RecordedRun.from_events(bytes(gather(run.events, kept)))
    factual = table_from_run(trimmed)
    rows = {key: list(factual.row(key)) for key in ROW_KEYS}
    free = _fill_identity_pairs(rows, trimmed.schedule)
    if free is None or len(free) != 2 * m:
        raise AssertionError("matched quarters do not leave two free quarter patterns")
    for (key, l, r), value in zip(free, free_a + free_ap):
        rows[key][l] = rows[key][r] = value
    out_table = SeriesTable.from_rows(rows["a"], rows["b"], rows["a_prime"], rows["b_prime"])
    complete = CompleteTable(out_table, trimmed.schedule)
    kept_all = set(kept)
    discarded = tuple(i for i in range(t) if i not in kept_all)
    note = "" if not discarded else f"trimmed {len(discarded)} slots to balance quarters"
    return CompletionResult(complete, discarded, note)


def fill_counterfactual(run: RecordedRun) -> SeriesTable:
    """Fill the never-measured cells of a run's table with 0, everywhere a
    setting was inactive; under the block layout every pairing then retains
    at most half of each station's detections.  The identity-preserving
    completion is :func:`build_complete_table`.
    """
    table = table_from_run(run)
    rows = {key: tuple(ZERO if v is None else v for v in table.row(key)) for key in ROW_KEYS}
    return SeriesTable.from_rows(rows["a"], rows["b"], rows["a_prime"], rows["b_prime"])


def enumerate_complete_tables(
    run: RecordedRun, budget: int = 2**26
) -> Iterator[CompletionResult]:
    """All completions of a block-layout run, one per free-choice pair, in
    ascending order of the two bit words (a first, then a')."""
    quarter = run.slots // 4
    total = 1 << (2 * quarter)
    if total > budget:
        raise BudgetExceeded(
            f"enumerating 2^{2 * quarter} completions exceeds the budget of {budget}", total
        )
    for word_a in range(1 << quarter):
        for word_ap in range(1 << quarter):
            yield build_complete_table(run, _bits(word_a, quarter), _bits(word_ap, quarter))
