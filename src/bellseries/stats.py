"""Correlation and bound statistics over series tables.

Every per-table statistic depends only on how many slots hold each column
(a, b, a', b'), so each one is read off a single count of those columns
(:func:`_column_counts`): at most 4**4 classes, whatever the table length.

All ratio-valued statistics are computed with exact rational arithmetic
(:class:`fractions.Fraction`); nothing here rounds.  Decimal renderings are
produced only at the reporting edge.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from typing import Callable, Iterable

from .errors import PreconditionError
from .model import (
    MINUS,
    PAIRINGS,
    PLUS,
    ROW_KEYS,
    ZERO,
    Pairing,
    RecordedRun,
    SeriesTable,
)

SCHEMA_VERSION = 1

_DETECTED = (PLUS, MINUS)
_INDEX = {key: i for i, key in enumerate(ROW_KEYS)}


def _column_counts(table: SeriesTable) -> Counter:
    """How many slots hold each column, in :data:`ROW_KEYS` order."""
    return Counter(zip(*(table.row(key) for key in ROW_KEYS)))


def _count(classes: Counter, hit: Callable[..., bool]) -> int:
    """Slots whose class (unpacked into ``hit``'s arguments) satisfies ``hit``."""
    return sum(n for cls, n in classes.items() if hit(*cls))


def _fully_measured(columns: Counter) -> bool:
    return not any(None in col for col in columns)


def _pair_cells(columns: Counter, pairing: Pairing) -> Counter:
    """How many slots hold each (x, y) cell pair of the pairing's two rows."""
    i, j = _INDEX[pairing.a_row], _INDEX[pairing.b_row]
    cells: Counter = Counter()
    for col, n in columns.items():
        cells[col[i], col[j]] += n
    return cells


@dataclass(frozen=True)
class PairingStat:
    """Coincidence count, outcome-product sum, and correlation for one
    setting pair."""

    pairing: Pairing
    n_c: int
    total: int
    e: Fraction | None


def _pairing_stat(pairing: Pairing, cells: Counter) -> PairingStat:
    n_c = 0
    total = 0
    for (x, y), n in cells.items():
        if x in _DETECTED and y in _DETECTED:
            n_c += n
            total += n * x * y
    e = Fraction(total, n_c) if n_c else None
    return PairingStat(pairing, n_c, total, e)


def correlation(table: SeriesTable, pairing: Pairing) -> PairingStat:
    """Correlation over slots where both stations of the pairing detected.

    A 0 on either side removes the slot from the coincidence count; an
    unmeasured cell does too.
    """
    return _pairing_stat(pairing, _pair_cells(_column_counts(table), pairing))


def correlation_over_slots(
    table: SeriesTable, pairing: Pairing, slots: Iterable[int]
) -> PairingStat:
    """Same as :func:`correlation`, but restricted to the given slots; a slot
    listed twice counts twice."""
    a_row = table.row(pairing.a_row)
    b_row = table.row(pairing.b_row)
    return _pairing_stat(pairing, Counter((a_row[i], b_row[i]) for i in slots))


def _correlations(columns: Counter) -> dict[Pairing, PairingStat]:
    return {p: _pairing_stat(p, _pair_cells(columns, p)) for p in PAIRINGS}


def chsh_combination(e_ab, e_abp, e_apb, e_apbp):
    """S = |E(a,b) - E(a,b')| + |E(a',b) + E(a',b')|, or None when any of
    the four correlations is undefined.  Exact on Fractions, plain on
    floats."""
    if any(e is None for e in (e_ab, e_abp, e_apb, e_apbp)):
        return None
    return abs(e_ab - e_abp) + abs(e_apb + e_apbp)


@dataclass(frozen=True)
class ChshDetail:
    stats: dict[Pairing, PairingStat]
    s: Fraction | None
    nc_equal: bool


def _chsh_detail(columns: Counter) -> ChshDetail:
    stats = _correlations(columns)
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
    return _chsh_detail(_column_counts(table))


def chsh(table: SeriesTable) -> Fraction | None:
    return chsh_detail(table).s


@dataclass(frozen=True)
class ClauserHorneDetail:
    j: int
    coincidences: dict[Pairing, int]
    singles_a: int
    singles_b: int


def _clauser_horne(columns: Counter) -> ClauserHorneDetail:
    coincidences = {p: _pair_cells(columns, p)[PLUS, PLUS] for p in PAIRINGS}
    singles_a = _count(columns, lambda a, b, ap, bp: a == PLUS)
    singles_b = _count(columns, lambda a, b, ap, bp: b == PLUS)
    j = (
        coincidences[Pairing.AB]
        + coincidences[Pairing.ABP]
        + coincidences[Pairing.APB]
        - coincidences[Pairing.APBP]
        - singles_a
        - singles_b
    )
    return ClauserHorneDetail(j, coincidences, singles_a, singles_b)


def clauser_horne_j(table: SeriesTable) -> ClauserHorneDetail:
    """The count-based combination

        J = N(a,b) + N(a,b') + N(a',b) - N(a',b') - N(a) - N(b)

    where each N is a number of ++ coincidences (or single + detections for
    the last two), counting +1 as a detection and everything else as none.
    On a fully measured table each slot contributes -2, -1 or 0, so J
    cannot be positive there.
    """
    return _clauser_horne(_column_counts(table))


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

    @property
    def coincidence_total(self) -> int:
        return self.n_ab + self.n_abp + self.n_apb + self.n_apbp


def _same(b, bp) -> bool:
    return b != ZERO and b == bp


def _diff(b, bp) -> bool:
    return ZERO not in (b, bp) and b != bp


#: Each set-size field of :class:`SetStats` and the column test it counts.
_SET_SIZES = (
    ("n_alpha", lambda a, b, ap, bp: a != ZERO),
    ("n_beta", lambda a, b, ap, bp: b != ZERO),
    ("n_alpha_prime", lambda a, b, ap, bp: ap != ZERO),
    ("n_beta_prime", lambda a, b, ap, bp: bp != ZERO),
    ("n_both_same", lambda a, b, ap, bp: _same(b, bp)),
    ("n_both_diff", lambda a, b, ap, bp: _diff(b, bp)),
    ("n_alpha_beta_beta_prime", lambda a, b, ap, bp: ZERO not in (a, b, bp)),
    ("n_alpha_prime_beta_beta_prime", lambda a, b, ap, bp: ZERO not in (ap, b, bp)),
    ("n_alpha_both_same", lambda a, b, ap, bp: a != ZERO and _same(b, bp)),
    ("n_alpha_both_diff", lambda a, b, ap, bp: a != ZERO and _diff(b, bp)),
    ("n_alpha_prime_both_same", lambda a, b, ap, bp: ap != ZERO and _same(b, bp)),
    ("n_alpha_prime_both_diff", lambda a, b, ap, bp: ap != ZERO and _diff(b, bp)),
)


def _set_stats(columns: Counter) -> SetStats:
    if not _fully_measured(columns):
        raise PreconditionError(
            "set statistics need every cell recorded; complete the table first "
            "(fill or condense)"
        )
    e = _correlations(columns)
    return SetStats(
        **{name: _count(columns, hit) for name, hit in _SET_SIZES},
        u_ab=e[Pairing.AB].total,
        u_abp=e[Pairing.ABP].total,
        u_apb=e[Pairing.APB].total,
        u_apbp=e[Pairing.APBP].total,
        n_ab=e[Pairing.AB].n_c,
        n_abp=e[Pairing.ABP].n_c,
        n_apb=e[Pairing.APB].n_c,
        n_apbp=e[Pairing.APBP].n_c,
    )


def set_stats(table: SeriesTable) -> SetStats:
    return _set_stats(_column_counts(table))


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


def _cardinality_bound(st: SetStats) -> CardinalityBound:
    n1 = st.n_alpha_both_same
    n2 = st.n_alpha_prime_both_diff
    lhs = abs(st.u_ab - st.u_abp) + abs(st.u_apb + st.u_apbp)
    rhs = st.coincidence_total - 2 * n1 - 2 * n2
    return CardinalityBound(lhs, rhs, n1, n2)


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


def _retention(columns: Counter, pairing: Pairing) -> dict[str, Fraction | None]:
    cells = _pair_cells(columns, pairing)
    n_a = _count(cells, lambda x, y: x in _DETECTED)
    n_b = _count(cells, lambda x, y: y in _DETECTED)
    n_c = _pairing_stat(pairing, cells).n_c
    return {
        pairing.a_row: Fraction(n_c, n_a) if n_a else None,
        pairing.b_row: Fraction(n_c, n_b) if n_b else None,
    }


def station_retention(table: SeriesTable, pairing: Pairing) -> dict[str, Fraction | None]:
    """For one pairing, the fraction of each station's detections that also
    saw the other station detect (coincidences / singles)."""
    return _retention(_column_counts(table), pairing)


def _table_eta(columns: Counter) -> Fraction | None:
    ratios: list[Fraction] = []
    for p in PAIRINGS:
        for ratio in _retention(columns, p).values():
            if ratio is None:
                return None
            ratios.append(ratio)
    return min(ratios)


def table_eta(table: SeriesTable) -> Fraction | None:
    """The table's working efficiency: the smallest of the eight
    per-pairing station retentions, or None when some station never
    detected under some pairing."""
    return _table_eta(_column_counts(table))


def _efficiency_bound(columns: Counter, s: Fraction | None) -> EfficiencyBound:
    eta = _table_eta(columns)
    if s is None or eta is None:
        return EfficiencyBound(s, eta, None, BoundVerdict.NOT_APPLICABLE)
    product = s * eta
    if eta * 2 <= 1:
        return EfficiencyBound(s, eta, product, BoundVerdict.NOT_APPLICABLE)
    verdict = BoundVerdict.WITHIN_BOUND if product <= 2 else BoundVerdict.VIOLATES
    return EfficiencyBound(s, eta, product, verdict)


def efficiency_bound(table: SeriesTable) -> EfficiencyBound:
    columns = _column_counts(table)
    return _efficiency_bound(columns, _chsh_detail(columns).s)


def _station_overlap_min(columns: Counter, row: str) -> Fraction | None:
    etas = [_retention(columns, p)[row] for p in PAIRINGS if row in (p.a_row, p.b_row)]
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
    return _station_overlap_min(_column_counts(table), row)


def run_detector_efficiencies(run: RecordedRun) -> dict[str, dict[str, object]]:
    """Sign-specific detector bookkeeping for a recorded run.

    Each station has one detector per outcome sign per setting; a single is
    any slot where that detector fired, a coincidence one where the distant
    station also detected (either sign).  Efficiency is their ratio.
    """
    events = Counter(
        zip(run.schedule.a_settings, run.schedule.b_settings, run.a_outcomes, run.b_outcomes)
    )
    counters: dict[str, list[int]] = {}
    for (a_setting, b_setting, a_v, b_v), n in events.items():
        for row, v, distant in ((a_setting.row, a_v, b_v), (b_setting.row, b_v, a_v)):
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
            "efficiency": Fraction(coincidences, singles) if singles else None,
        }
    return out


def detector_efficiencies(table: SeriesTable) -> dict[str, dict[str, object]]:
    """Per-row detection bookkeeping: recorded slots, detections (nonzero),
    and for each pairing the row participates in, its coincidence retention."""
    columns = _column_counts(table)
    out: dict[str, dict[str, object]] = {}
    for key, k in _INDEX.items():
        out[key] = {
            "recorded": _count(columns, lambda *col: col[k] is not None),
            "detections": _count(columns, lambda *col: col[k] in _DETECTED),
            "retention_by_pairing": {
                p.key: _retention(columns, p)[key]
                for p in PAIRINGS
                if key in (p.a_row, p.b_row)
            },
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


def correlation_report(table: SeriesTable) -> dict:
    """Everything the analyzer computes for one table, JSON-shaped."""
    columns = _column_counts(table)
    fully_measured = _fully_measured(columns)
    detail = _chsh_detail(columns)
    report: dict = {
        "schema_version": SCHEMA_VERSION,
        "slots": table.slots,
        "fully_measured": fully_measured,
        "pairings": {},
        "chsh": {
            "s": _frac_json(detail.s),
            "nc_equal": detail.nc_equal,
            "n_c_common": detail.stats[Pairing.AB].n_c if detail.nc_equal else None,
        },
    }
    for p in PAIRINGS:
        st = detail.stats[p]
        report["pairings"][p.key] = {
            "n_c": st.n_c,
            "total": st.total,
            "e": _frac_json(st.e),
        }
    ch = _clauser_horne(columns)
    report["clauser_horne"] = {
        "j": ch.j,
        "coincidences": {p.key: ch.coincidences[p] for p in PAIRINGS},
        "singles_a": ch.singles_a,
        "singles_b": ch.singles_b,
    }
    eff = _efficiency_bound(columns, detail.s)
    report["efficiency"] = {
        "eta": _frac_json(eff.eta),
        "s_times_eta": _frac_json(eff.product),
        "verdict": eff.verdict.value,
        "overlap_fraction": _frac_json(
            overlap_fraction(eff.eta) if eff.eta is not None else None
        ),
        "retention": {
            p.key: {row: _frac_json(ratio) for row, ratio in _retention(columns, p).items()}
            for p in PAIRINGS
        },
        "station_overlap_min": {
            "a": _frac_json(_station_overlap_min(columns, "a")),
            "a_prime": _frac_json(_station_overlap_min(columns, "a_prime")),
        },
    }
    if fully_measured:
        st = _set_stats(columns)
        cb = _cardinality_bound(st)
        report["set_stats"] = {
            **{name: getattr(st, name) for name, _ in _SET_SIZES},
            "same_diff_asymmetry": {
                "alpha": st.n_alpha_both_same - st.n_alpha_both_diff,
                "alpha_prime": st.n_alpha_prime_both_same - st.n_alpha_prime_both_diff,
            },
            "u": {
                "alpha:beta": st.u_ab,
                "alpha:beta_prime": st.u_abp,
                "alpha_prime:beta": st.u_apb,
                "alpha_prime:beta_prime": st.u_apbp,
            },
        }
        report["cardinality_bound"] = {
            "lhs": cb.lhs,
            "rhs": cb.rhs,
            "holds": cb.holds,
            "n_alpha_both_same": cb.n_alpha_both_same,
            "n_alpha_prime_both_diff": cb.n_alpha_prime_both_diff,
        }
    return report
