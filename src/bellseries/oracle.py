"""Exhaustive ground truth at small sizes.

Every bound the statistics module reports is re-derived here by brute
force: tables are enumerated outright and the extremal value of the
quantity in question is measured, not assumed.  The search spaces are tiny
by design (tens of millions of tables at most), so the sweeps stay exact.

Enumeration order is fixed and documented so witnesses are reproducible:
a table is a base-K numeral whose digits are its slot columns, first slot
most significant; a column (a, b, a', b') is indexed lexicographically with
cell values ordered -1 < 0 < +1.  Identity-constrained sweeps enumerate the
free cells of the block layout instead (see :func:`_component_slot_vars`)
and order witnesses by that free-cell numeral.

Every objective and constraint sees a table only through the sum of its
columns' property vectors: the counts :func:`~bellseries.stats.column_props`
gives, the same counts every statistic in :mod:`bellseries.stats` reads,
fed to the same formulas (``chsh_combination``, ``RETENTIONS``,
``cardinality_sides``).  Each sweep sees only the counts it reads: each
objective and each constraint declares them, and the vectors hold their
union.  So scans meet in the middle (Horowitz & Sahni, JACM 21(2), 1974):
each half table's vectors are reduced to their distinct values with
multiplicities, and distinct left vectors are summed against distinct
right vectors.  The work grows with the number of distinct pairs,
while ``tables_scanned`` and ``admissible`` count every table a pair
covers, weighted by the product of the multiplicities.  Witnesses are the
first tables, in numeral order, whose pair reaches the extremum.  The
scan itself, in numpy, is :mod:`bellseries._sweep`, imported only when a
sweep runs: importing this module, or running the census, loads no numpy.

Comparisons are integer-exact.  Every count is at most the slot number, so
with M = lcm(1..slots) each ratio u/n or n_i/n_r times M is an integer;
the scan compares S*M, S*eta*M^2 and the integer CH combination.  The
reported maximum is recomputed as an exact rational from each witness.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import BudgetExceeded, PreconditionError
from .model import (
    PAIRINGS,
    ROW_KEYS,
    RecordedRun,
    SeriesTable,
    block_halves,
    pairing_blocks,
    table_from_run,
)
from .sica import _bits, _completion_quarter, _fill_identity_pairs, check_sica
from .stats import chsh, clauser_horne_j, correlation_over_slots, table_eta

DEFAULT_BUDGET = 2**26

_VALUES = {"pm": (-1, 1), "pmz": (-1, 0, 1)}

Constraint = object  # None | "equal_nc" | "sica" | (kind, Fraction)


@dataclass(frozen=True)
class EnumSpec:
    """One exhaustive sweep: table size, cell alphabet, admissibility
    constraint, and the size ceiling the sweep refuses to exceed."""

    slots: int
    alphabet: str = "pm"
    constraint: Constraint = None
    budget: int = DEFAULT_BUDGET

    @property
    def _cells(self) -> int:
        """Free cells per table: the identity ties each cell to a partner."""
        return (2 if self.constraint == "sica" else 4) * self.slots

    @property
    def space_size(self) -> int:
        return len(_VALUES[self.alphabet]) ** self._cells

    def validate(self) -> None:
        if self.alphabet not in _VALUES:
            raise PreconditionError(f"alphabet must be 'pm' or 'pmz', got {self.alphabet!r}")
        if self.slots < 1:
            raise PreconditionError(f"need at least one slot, got {self.slots}")
        if self.constraint == "sica" and self.slots not in (4, 8):
            raise PreconditionError(
                "identity-constrained sweeps support 4 or 8 slots "
                f"(block layout), got {self.slots}"
            )
        if isinstance(self.constraint, tuple):
            # The kinds are the engine's, which the sweep loads next anyway.
            from ._sweep import _ETA_CONSTRAINTS

            kind, q = self.constraint
            if kind not in _ETA_CONSTRAINTS:
                raise PreconditionError(f"unknown constraint {self.constraint!r}")
            if type(q) is not int and not isinstance(q, Fraction):
                # The mask compares counts with the threshold's exact ratio.
                raise PreconditionError(
                    f"efficiency threshold must be an int or a Fraction, got {type(q).__name__}"
                )
            if not 0 <= q <= 1:
                raise PreconditionError(f"efficiency threshold out of range: {q}")
        elif self.constraint not in (None, "equal_nc", "sica"):
            raise PreconditionError(f"unknown constraint {self.constraint!r}")
        k = len(_VALUES[self.alphabet])
        if self._cells * math.log2(k) > self.budget.bit_length() + 64:
            # Over 2^64 times the budget: refused without building the count,
            # which can be too large to build or print.
            raise BudgetExceeded(
                f"sweep needs {k}^{self._cells} tables, budget is {self.budget}",
                required=None,
            )
        if self.space_size > self.budget:
            raise BudgetExceeded(
                f"sweep needs {self.space_size} tables, budget is {self.budget}",
                required=self.space_size,
            )


@dataclass(frozen=True)
class ExtremalResult:
    max_value: Fraction | None
    witnesses: tuple[SeriesTable, ...]
    tables_scanned: int
    admissible: int
    space_size: int
    elapsed: float
    note: str = ""


@dataclass(frozen=True)
class CardinalitySweep:
    tables_scanned: int
    violations: int
    min_slack: int | None
    witness: SeriesTable | None
    elapsed: float


@dataclass(frozen=True)
class CensusResult:
    count: int
    construction_count: int | None
    samples: tuple[SeriesTable, ...]
    space_size: int
    elapsed: float


# ---------------------------------------------------------------------------
# Enumeration order


@lru_cache(maxsize=None)
def _column_classes(alphabet: str) -> tuple[tuple[int, int, int, int], ...]:
    return tuple(itertools.product(_VALUES[alphabet], repeat=4))


@lru_cache(maxsize=None)
def _component_slot_vars() -> tuple[tuple[int, int, int, int], ...]:
    """Per slot of the 4-slot block layout, the free cell each column
    (a, b, a', b') reads: its index among the layout's free pairs.

    This is the identity-constrained grid.  Under the block layout each row
    is two interleaved copies of its free half, which couples the slots into
    independent groups of 4 (every other slot, at 8 slots), each laid out as
    the 4-slot block layout and driven by its own 8 free cells."""
    rows = {key: [None] * 4 for key in ROW_KEYS}
    free = _fill_identity_pairs(rows, block_halves(4))
    var = {(key, slot): j for j, (key, l, r) in enumerate(free) for slot in (l, r)}
    return tuple(tuple(var[key, slot] for key in ROW_KEYS) for slot in range(4))


# ---------------------------------------------------------------------------
# Witness reconstruction


def _digits(value: int, base: int, width: int) -> list[int]:
    out = []
    for j in range(width):
        out.append((value // base ** (width - 1 - j)) % base)
    return out


def _table_from_index(spec: EnumSpec, li: int, ri: int) -> SeriesTable:
    """The table of raw left half ``li`` and raw right half ``ri``."""
    values = _VALUES[spec.alphabet]
    k = len(values)
    if spec.constraint == "sica":
        # The 8-slot table interleaves two groups: even slots from the left
        # half's free cells, odd slots from the right half's.
        groups = [_digits(li, k, 8)] + ([_digits(ri, k, 8)] if spec.slots == 8 else [])
        cols = [
            tuple(values[cells[j]] for j in slot_vars)
            for slot_vars in _component_slot_vars()
            for cells in groups
        ]
    else:
        classes = _column_classes(spec.alphabet)
        kk = len(classes)
        left = spec.slots // 2
        cols = [classes[d] for d in _digits(li, kk, left)]
        cols += [classes[d] for d in _digits(ri, kk, spec.slots - left)]
    return SeriesTable.from_rows(*([c[r] for c in cols] for r in range(4)))


# ---------------------------------------------------------------------------
# Objectives: the scan compares scaled integers, a witness gives the exact value


def _exact_chsh(table: SeriesTable) -> Fraction | None:
    return chsh(table)


def _exact_s_eta(table: SeriesTable) -> Fraction | None:
    s, eta = chsh(table), table_eta(table)
    return None if s is None or eta is None else s * eta


def _exact_ch(table: SeriesTable) -> Fraction:
    return Fraction(clauser_horne_j(table).j)


_EXACT = {"chsh": _exact_chsh, "s_eta": _exact_s_eta, "ch": _exact_ch}


def _scan_max(spec: EnumSpec, objective: str, witness_cap: int) -> ExtremalResult:
    spec.validate()
    from . import _sweep  # numpy, loaded only where a sweep runs

    t0 = time.perf_counter()
    scan = _sweep.scan(spec, objective)
    best = scan.best
    if best.value is None:
        return ExtremalResult(
            None, (), scan.tables, 0, spec.space_size,
            time.perf_counter() - t0, note="no table satisfies the constraint",
        )
    # The maximum is read off a witness, so at least one is always built.
    hits = best.first_tables(max(witness_cap, 1))
    witnesses = tuple(_table_from_index(spec, li, ri) for li, ri in hits)
    exact_fn = _EXACT[objective]
    max_value = exact_fn(witnesses[0])
    if max_value * scan.unit != best.value:
        raise AssertionError(
            f"scan maximum {best.value}/{scan.unit} != witness value {max_value}"
        )
    for w in witnesses:
        v = exact_fn(w)
        if v != max_value:
            raise AssertionError(
                f"witness disagreement: {v} != {max_value} for {w}"
            )
        if spec.constraint == "sica":
            if not check_sica(w, block_halves(spec.slots)).holds:
                raise AssertionError("constrained witness fails the identity check")
    return ExtremalResult(
        max_value,
        witnesses[:witness_cap],
        scan.tables,
        scan.admissible,
        spec.space_size,
        time.perf_counter() - t0,
    )


def max_chsh(spec: EnumSpec, witness_cap: int = 3) -> ExtremalResult:
    """Exact maximum of the CHSH combination over every admissible table."""
    return _scan_max(spec, "chsh", witness_cap)


def max_clauser_horne(spec: EnumSpec, witness_cap: int = 3) -> ExtremalResult:
    """Exact maximum of the count-based CH combination (an integer)."""
    return _scan_max(spec, "ch", witness_cap)


def max_s_eta(spec: EnumSpec, witness_cap: int = 3) -> ExtremalResult:
    """Exact maximum of S times the table's working efficiency."""
    return _scan_max(spec, "s_eta", witness_cap)


def sweep_cardinality_bound(spec: EnumSpec) -> CardinalitySweep:
    """Check the counting inequality on every admissible table.

    The left side |u1 - u2| + |u3 + u4| is compared against the coincidence
    total minus twice the two overlap-census corrections; the sweep reports
    how many admissible tables violate it (expected: none, it is a
    term-counting identity) and the smallest slack together with the first
    table attaining it, both None when no table is admissible.
    """
    if spec.alphabet != "pmz":
        raise PreconditionError("the counting bound concerns {+1,-1,0} tables")
    spec.validate()
    from . import _sweep  # numpy, loaded only where a sweep runs

    t0 = time.perf_counter()
    scan = _sweep.scan(spec, "cardinality")  # maximizes the negated slack
    min_slack = witness = None
    if scan.best.value is not None:
        ((li, ri),) = scan.best.first_tables(1)
        min_slack, witness = -scan.best.value, _table_from_index(spec, li, ri)
    return CardinalitySweep(
        scan.tables, scan.positive, min_slack, witness, time.perf_counter() - t0
    )


def census_complete_tables(run: RecordedRun, sample_cap: int = 64) -> CensusResult:
    """Count every fully measured +-1 extension of a run's factual cells
    that satisfies the series identity under the run's schedule.

    Factual cells keep their values, so factual correlations are preserved
    by construction; the census is over the never-measured cells only,
    filled from the numeral's bits (0 as minus, 1 as plus, first missing
    cell most significant, cells ordered by row then slot).

    The identity only equates cells, so the cells fall into pairs (see
    :func:`~bellseries.sica._fill_identity_pairs`): the count is 2^(free
    pairs), or 0 when no extension exists, and the satisfying numerals in
    increasing order are the binary numbers 0, 1, 2, ... over the free
    pairs, ordered by their more significant cell.
    """
    t0 = time.perf_counter()
    base = table_from_run(run)
    rows = {key: list(base.row(key)) for key in ROW_KEYS}
    n_missing = sum(cell is None for key in ROW_KEYS for cell in rows[key])
    free = _fill_identity_pairs(rows, run.schedule)
    try:
        construction_count = 1 << (2 * _completion_quarter(run))
    except PreconditionError:
        construction_count = None
    count = 0 if free is None else 1 << len(free)
    samples: list[SeriesTable] = []
    for numeral in range(min(count, sample_cap)):
        for (key, l, r), bit in zip(free, _bits(numeral, len(free))):
            rows[key][l] = rows[key][r] = 1 if bit else -1
        samples.append(
            SeriesTable.from_rows(rows["a"], rows["b"], rows["a_prime"], rows["b_prime"])
        )
    blocks = pairing_blocks(run)
    want = {p: correlation_over_slots(base, p, blocks[p]) for p in PAIRINGS}
    for sample in samples:
        for p in PAIRINGS:
            got = correlation_over_slots(sample, p, blocks[p])
            if got.n_c != want[p].n_c or got.total != want[p].total:
                raise AssertionError("census sample does not preserve factual counts")
    return CensusResult(
        count, construction_count, tuple(samples), 1 << n_missing, time.perf_counter() - t0
    )
