"""Correlation and bound statistics over series tables.

Every per-table statistic is a sum over the slots of what each slot's
column (a, b, a', b') adds to a few named integer counts
(:func:`column_props`), so each one is read off a single count of those
columns: at most 4**4 classes, whatever the table length.  The exhaustive
sweeps in :mod:`bellseries.oracle` scan the same counts and evaluate the
same formulas (:func:`chsh_combination`, :data:`RETENTIONS`,
:func:`cardinality_sides`).

All ratio-valued statistics are computed with exact rational arithmetic
(:class:`fractions.Fraction`); nothing here rounds.  Decimal renderings are
produced only at the reporting edge.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, fields
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import PreconditionError
from .model import (
    EVENT_COLUMNS,
    EVENTS,
    MINUS,
    PAIRINGS,
    PLUS,
    ROW_KEYS,
    ZERO,
    Cell,
    Pairing,
    RecordedRun,
    SeriesTable,
    gather,
)

SCHEMA_VERSION = 1

#: Per pairing, the names of its outcome-product sum and coincidence count.
PRODUCT = {p: f"u_{p.name.lower()}" for p in PAIRINGS}
COINCIDENCE = {p: f"n_{p.name.lower()}" for p in PAIRINGS}
_PLUS_PLUS = {p: f"pp_{p.name.lower()}" for p in PAIRINGS}
#: Per row, the name of its detection count: the size of its set.
DETECTION = {"a": "n_alpha", "b": "n_beta", "a_prime": "n_alpha_prime", "b_prime": "n_beta_prime"}
#: The eight station retentions whose smallest is a table's efficiency:
#: per pairing and each of its rows, (coincidence count, row detections).
RETENTIONS = tuple(
    (COINCIDENCE[p], DETECTION[row]) for p in PAIRINGS for row in (p.a_row, p.b_row)
)


@lru_cache(maxsize=None)
def column_props(col: tuple[Cell, Cell, Cell, Cell]) -> Mapping[str, int]:
    """What one slot's column (a, b, a', b') adds to each count a statistic
    reads.  Only +1 and -1 are detections; 0 and None (unrecorded) are not.

    Per pairing: the outcome product ``u_*`` and the coincidence ``n_*``
    where both rows detected, and the ++ coincidence ``pp_*``.  Per row:
    ``recorded_*`` and its detection (:data:`DETECTION`).  Then the other
    set sizes of :class:`SetStats`, the CH singles ``singles_a`` and
    ``singles_b`` (a +1 in row a or b), and ``j``, the column's part of the
    CH combination.
    """
    cell = dict(zip(ROW_KEYS, col))
    det = {key: int(v in (PLUS, MINUS)) for key, v in cell.items()}
    plus = {key: int(v == PLUS) for key, v in cell.items()}
    props = {}
    for p in PAIRINGS:
        props[COINCIDENCE[p]] = det[p.a_row] * det[p.b_row]
        props[PRODUCT[p]] = cell[p.a_row] * cell[p.b_row] if props[COINCIDENCE[p]] else 0
        props[_PLUS_PLUS[p]] = plus[p.a_row] * plus[p.b_row]
    for key in ROW_KEYS:
        props[f"recorded_{key}"] = int(cell[key] is not None)
        props[DETECTION[key]] = det[key]
    both = det["b"] * det["b_prime"]
    same = both * int(cell["b"] == cell["b_prime"])
    props.update(n_both_same=same, n_both_diff=both - same)
    props.update(singles_a=plus["a"], singles_b=plus["b"])
    for name, hit in (("beta_beta_prime", both), ("both_same", same), ("both_diff", both - same)):
        props[f"n_alpha_{name}"] = det["a"] * hit
        props[f"n_alpha_prime_{name}"] = det["a_prime"] * hit
    pp = [props[_PLUS_PLUS[p]] for p in PAIRINGS]
    props["j"] = pp[0] + pp[1] + pp[2] - pp[3] - plus["a"] - plus["b"]
    return MappingProxyType(props)


def _sum_props(columns: Mapping) -> dict[str, int]:
    """Each count of :func:`column_props`, summed over the columns' slots."""
    totals = dict.fromkeys(column_props((None,) * 4), 0)
    for col, n in columns.items():
        for name, v in column_props(col).items():
            totals[name] += n * v
    return totals


def _counts(data: SeriesTable | RecordedRun) -> dict[str, int]:
    """The summed counts of a table, or of a run laid out as one: a run's
    columns are those of its event codes."""
    if isinstance(data, RecordedRun):
        return _sum_props({EVENT_COLUMNS[code]: n for code, n in Counter(data.events).items()})
    return _sum_props(Counter(zip(*(data.row(key) for key in ROW_KEYS))))


def _ratio(num: int, den: int) -> Fraction | None:
    return Fraction(num, den) if den else None


@dataclass(frozen=True)
class PairingStat:
    """Coincidence count, outcome-product sum, and correlation for one
    setting pair."""

    pairing: Pairing
    n_c: int
    total: int
    e: Fraction | None


def _pairing_stat(pairing: Pairing, counts: Mapping[str, int]) -> PairingStat:
    n_c, total = counts[COINCIDENCE[pairing]], counts[PRODUCT[pairing]]
    return PairingStat(pairing, n_c, total, _ratio(total, n_c))


def correlation(table: SeriesTable, pairing: Pairing) -> PairingStat:
    """Correlation over slots where both stations of the pairing detected.

    A 0 on either side removes the slot from the coincidence count; an
    unmeasured cell does too.
    """
    return _pairing_stat(pairing, _counts(table))


def correlation_over_slots(
    table: SeriesTable, pairing: Pairing, slots: Iterable[int]
) -> PairingStat:
    """Same as :func:`correlation`, but restricted to the given slots; a slot
    listed twice counts twice."""
    slots = list(slots)
    columns = zip(*(gather(table.row(key), slots) for key in ROW_KEYS))
    return _pairing_stat(pairing, _sum_props(Counter(columns)))


def chsh_combination(e_ab, e_abp, e_apb, e_apbp):
    """S = |E(a,b) - E(a,b')| + |E(a',b) + E(a',b')|, or None when any of
    the four correlations is undefined.  Exact on Fractions, plain on
    floats, elementwise on integer arrays."""
    if any(e is None for e in (e_ab, e_abp, e_apb, e_apbp)):
        return None
    return abs(e_ab - e_abp) + abs(e_apb + e_apbp)


@dataclass(frozen=True)
class ChshDetail:
    stats: dict[Pairing, PairingStat]
    s: Fraction | None
    nc_equal: bool


def _chsh_detail(counts: Mapping[str, int]) -> ChshDetail:
    stats = {p: _pairing_stat(p, counts) for p in PAIRINGS}
    nc_equal = len({st.n_c for st in stats.values()}) == 1
    s = chsh_combination(*(stats[p].e for p in PAIRINGS))
    return ChshDetail(stats, s, nc_equal)


def chsh_detail(table: SeriesTable) -> ChshDetail:
    """S = |E(a,b) - E(a,b')| + |E(a',b) + E(a',b')| with each correlation
    normalized by its own coincidence count.

    S is undefined (None) when any pairing has no coincidences.  When all
    four coincidence counts agree, this per-pairing form coincides with the
    single-sum form normalized by the common count; ``nc_equal`` reports
    whether that held.
    """
    return _chsh_detail(_counts(table))


def chsh(table: SeriesTable) -> Fraction | None:
    return chsh_detail(table).s


@dataclass(frozen=True)
class ClauserHorneDetail:
    j: int
    coincidences: dict[Pairing, int]
    singles_a: int
    singles_b: int


def _clauser_horne(counts: Mapping[str, int]) -> ClauserHorneDetail:
    coincidences = {p: counts[_PLUS_PLUS[p]] for p in PAIRINGS}
    return ClauserHorneDetail(counts["j"], coincidences, counts["singles_a"], counts["singles_b"])


def clauser_horne_j(table: SeriesTable) -> ClauserHorneDetail:
    """The count-based combination

        J = N(a,b) + N(a,b') + N(a',b) - N(a',b') - N(a) - N(b)

    where each N is a number of ++ coincidences (or single + detections for
    the last two), counting +1 as a detection and everything else as none.
    On a fully measured table each slot contributes -2, -1 or 0, so J
    cannot be positive there.
    """
    return _clauser_horne(_counts(table))


@dataclass(frozen=True)
class SetStats:
    """Slot-set sizes of a fully measured table.

    alpha, beta, alpha', beta' are the slot sets where the row detected
    (nonzero); both_same / both_diff split the slots where b and b' both
    detected by sign agreement, and a name joining several sets counts
    their intersection.  The u-values are the outcome-product sums entering
    the four correlations, restricted to coincidences, and the n_ab-style
    fields are the coincidence counts.
    """

    n_alpha: int
    n_beta: int
    n_alpha_prime: int
    n_beta_prime: int
    n_both_same: int
    n_both_diff: int
    n_alpha_beta_beta_prime: int
    n_alpha_prime_beta_beta_prime: int
    n_alpha_both_same: int
    n_alpha_both_diff: int
    n_alpha_prime_both_same: int
    n_alpha_prime_both_diff: int
    u_ab: int
    u_abp: int
    u_apb: int
    u_apbp: int
    n_ab: int
    n_abp: int
    n_apb: int
    n_apbp: int


#: The set-size fields of :class:`SetStats`, in report order.
_SET_SIZES = tuple(f.name for f in fields(SetStats))[:12]


def _fully_measured(table: SeriesTable, counts: Mapping[str, int]) -> bool:
    """Every cell recorded, on at least one slot: no verdict rests on none."""
    return table.slots > 0 and all(counts[f"recorded_{key}"] == table.slots for key in ROW_KEYS)


def _set_stats(table: SeriesTable, counts: Mapping[str, int]) -> SetStats:
    if not table.slots:
        raise PreconditionError("set statistics need recorded cells; the table has no slots")
    if not _fully_measured(table, counts):
        raise PreconditionError(
            "set statistics need every cell recorded; complete the table first "
            "(fill or condense)"
        )
    return SetStats(**{f.name: counts[f.name] for f in fields(SetStats)})


def set_stats(table: SeriesTable) -> SetStats:
    return _set_stats(table, _counts(table))


@dataclass(frozen=True)
class CardinalityBound:
    """Both sides of the count-level inequality

        |u1 - u2| + |u3 + u4| <= sum of the four coincidence counts
                                 - 2 N(alpha & both_same)
                                 - 2 N(alpha' & both_diff)

    which holds for every fully measured table by term counting alone."""

    lhs: int
    rhs: int
    n_alpha_both_same: int
    n_alpha_prime_both_diff: int

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs


def cardinality_sides(counts: Mapping):
    """(lhs, rhs) of the :class:`CardinalityBound` inequality from named
    counts: integers of one table, or arrays over many."""
    lhs = chsh_combination(*(counts[PRODUCT[p]] for p in PAIRINGS))
    overlaps = counts["n_alpha_both_same"] + counts["n_alpha_prime_both_diff"]
    return lhs, sum(counts[COINCIDENCE[p]] for p in PAIRINGS) - 2 * overlaps


def _cardinality_bound(st: SetStats) -> CardinalityBound:
    return CardinalityBound(
        *cardinality_sides(vars(st)), st.n_alpha_both_same, st.n_alpha_prime_both_diff
    )


def cardinality_bound(table: SeriesTable) -> CardinalityBound:
    return _cardinality_bound(set_stats(table))


def overlap_fraction(eta: Fraction) -> Fraction:
    """Guaranteed fraction of coincidence slots shared between two pairings
    that each retain at least a fraction ``eta`` of a common slot pool:
    (2*eta - 1)/eta above one half, zero at or below it."""
    if not 0 <= eta <= 1:
        raise PreconditionError(f"efficiency must lie in [0, 1], got {eta}")
    if eta * 2 <= 1:
        return Fraction(0)
    return (2 * eta - 1) / eta


class BoundVerdict(Enum):
    WITHIN_BOUND = "within_bound"
    VIOLATES = "violates"
    NOT_APPLICABLE = "not_applicable"


@dataclass(frozen=True)
class EfficiencyBound:
    """The efficiency-scaled CHSH test: S * eta <= 2, meaningful only when
    every pairing retains more than half of each participating station's
    detections."""

    s: Fraction | None
    eta: Fraction | None
    product: Fraction | None
    verdict: BoundVerdict


def _retention(counts: Mapping[str, int], pairing: Pairing) -> dict[str, Fraction | None]:
    n_c = counts[COINCIDENCE[pairing]]
    return {row: _ratio(n_c, counts[DETECTION[row]]) for row in (pairing.a_row, pairing.b_row)}


def station_retention(table: SeriesTable, pairing: Pairing) -> dict[str, Fraction | None]:
    """For one pairing, the fraction of each station's detections that also
    saw the other station detect (coincidences / singles)."""
    return _retention(_counts(table), pairing)


def _table_eta(counts: Mapping[str, int]) -> Fraction | None:
    ratios = [_ratio(counts[n_c], counts[n_r]) for n_c, n_r in RETENTIONS]
    return None if any(r is None for r in ratios) else min(ratios)


def table_eta(table: SeriesTable) -> Fraction | None:
    """The table's working efficiency: the smallest of the eight
    per-pairing station retentions, or None when some station never
    detected under some pairing."""
    return _table_eta(_counts(table))


def _efficiency_bound(counts: Mapping[str, int], s: Fraction | None) -> EfficiencyBound:
    eta = _table_eta(counts)
    if s is None or eta is None:
        return EfficiencyBound(s, eta, None, BoundVerdict.NOT_APPLICABLE)
    product = s * eta
    if eta * 2 <= 1:
        return EfficiencyBound(s, eta, product, BoundVerdict.NOT_APPLICABLE)
    verdict = BoundVerdict.WITHIN_BOUND if product <= 2 else BoundVerdict.VIOLATES
    return EfficiencyBound(s, eta, product, verdict)


def efficiency_bound(table: SeriesTable) -> EfficiencyBound:
    counts = _counts(table)
    return _efficiency_bound(counts, _chsh_detail(counts).s)


def _station_overlap_min(counts: Mapping[str, int], row: str) -> Fraction | None:
    etas = [_retention(counts, p)[row] for p in PAIRINGS if row in (p.a_row, p.b_row)]
    if any(e is None for e in etas):
        return None
    return overlap_fraction(min(etas))


def station_overlap_min(table: SeriesTable, row: str) -> Fraction | None:
    """Guaranteed overlap between the two coincidence sets a station row
    participates in, as a fraction of that row's detections.

    Row ``a`` is paired once against b and once against b'; if it retains at
    least a fraction eta of its detections in each, the two coincidence sets
    must share at least (2*eta - 1)/eta of them.  None when a retention is
    undefined.
    """
    return _station_overlap_min(_counts(table), row)


def run_detector_efficiencies(run: RecordedRun) -> dict[str, dict[str, object]]:
    """Sign-specific detector bookkeeping for a recorded run.

    Each station has one detector per outcome sign per setting; a single is
    any slot where that detector fired, a coincidence one where the distant
    station also detected (either sign).  Efficiency is their ratio.
    """
    counters: dict[str, list[int]] = {}
    for code, n in Counter(run.events).items():
        pairing, a_v, b_v = EVENTS[code]
        for row, v, distant in ((pairing.a_row, a_v, b_v), (pairing.b_row, b_v, a_v)):
            if v != ZERO:
                rec = counters.setdefault(f"{row}{'+' if v == PLUS else '-'}", [0, 0])
                rec[0] += n
                rec[1] += n if distant != ZERO else 0
    out: dict[str, dict[str, object]] = {}
    for label in sorted(counters):
        singles, coincidences = counters[label]
        out[label] = {
            "singles": singles,
            "coincidences": coincidences,
            "efficiency": _ratio(coincidences, singles),
        }
    return out


def _frac_json(x: Fraction | None) -> dict | None:
    if x is None:
        return None
    return {
        "num": x.numerator,
        "den": x.denominator,
        "decimal": float(x),
    }


def correlation_report(table: SeriesTable | RecordedRun) -> dict:
    """Everything the analyzer computes for one table, JSON-shaped.  A run
    reports as the table :func:`~bellseries.model.table_from_run` lays it
    out, counted from its event codes."""
    counts = _counts(table)
    fully_measured = _fully_measured(table, counts)
    detail = _chsh_detail(counts)
    report: dict = {
        "schema_version": SCHEMA_VERSION,
        "slots": table.slots,
        "fully_measured": fully_measured,
        "pairings": {
            p.key: {"n_c": st.n_c, "total": st.total, "e": _frac_json(st.e)}
            for p, st in detail.stats.items()
        },
        "chsh": {
            "s": _frac_json(detail.s),
            "nc_equal": detail.nc_equal,
            "n_c_common": detail.stats[Pairing.AB].n_c if detail.nc_equal else None,
        },
    }
    ch = _clauser_horne(counts)
    report["clauser_horne"] = {
        "j": ch.j,
        "coincidences": {p.key: ch.coincidences[p] for p in PAIRINGS},
        "singles_a": ch.singles_a,
        "singles_b": ch.singles_b,
    }
    eff = _efficiency_bound(counts, detail.s)
    report["efficiency"] = {
        "eta": _frac_json(eff.eta),
        "s_times_eta": _frac_json(eff.product),
        "verdict": eff.verdict.value,
        "overlap_fraction": _frac_json(
            overlap_fraction(eff.eta) if eff.eta is not None else None
        ),
        "retention": {
            p.key: {row: _frac_json(ratio) for row, ratio in _retention(counts, p).items()}
            for p in PAIRINGS
        },
        "station_overlap_min": {
            "a": _frac_json(_station_overlap_min(counts, "a")),
            "a_prime": _frac_json(_station_overlap_min(counts, "a_prime")),
        },
    }
    if fully_measured:
        st = _set_stats(table, counts)
        cb = _cardinality_bound(st)
        report["set_stats"] = {
            **{name: getattr(st, name) for name in _SET_SIZES},
            "same_diff_asymmetry": {
                "alpha": st.n_alpha_both_same - st.n_alpha_both_diff,
                "alpha_prime": st.n_alpha_prime_both_same - st.n_alpha_prime_both_diff,
            },
            "u": {p.key: counts[PRODUCT[p]] for p in PAIRINGS},
        }
        report["cardinality_bound"] = {**asdict(cb), "holds": cb.holds}
    return report
