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
``cardinality_sides``).  So scans meet in the middle (Horowitz & Sahni,
JACM 21(2), 1974): each half table's vectors are reduced to their distinct
values with multiplicities, and distinct left vectors are summed against
distinct right vectors.  The work grows with the number of distinct pairs,
while ``tables_scanned`` and ``admissible`` count every table a pair
covers, weighted by the product of the multiplicities.  Witnesses are the
first tables, in numeral order, whose pair reaches the extremum.

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

import numpy as np

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
from .stats import (
    COINCIDENCE,
    DETECTION,
    PRODUCT,
    RETENTIONS,
    cardinality_sides,
    chsh,
    chsh_combination,
    clauser_horne_j,
    column_props,
    correlation_over_slots,
    table_eta,
)

DEFAULT_BUDGET = 2**26

#: The counts of :func:`~bellseries.stats.column_props` the sweeps scan, in
#: the order of a property vector's entries.
_SCANNED = (
    *PRODUCT.values(), *COINCIDENCE.values(), *DETECTION.values(),
    "n_alpha_both_same", "n_alpha_prime_both_diff", "j",
)
_PROPS = len(_SCANNED)

#: Per efficiency constraint: how one retention is compared with the
#: threshold, and how the eight comparisons combine.
_ETA_CONSTRAINTS = {
    "eta_at_least": (np.greater_equal, np.logical_and),
    "eta_at_most": (np.less_equal, np.logical_or),
    "eta_below": (np.less, np.logical_or),
}

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
            kind, q = self.constraint
            if kind not in _ETA_CONSTRAINTS:
                raise PreconditionError(f"unknown constraint {self.constraint!r}")
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
# Property tables and half enumerations


@lru_cache(maxsize=None)
def _column_classes(alphabet: str) -> tuple[tuple[int, int, int, int], ...]:
    return tuple(itertools.product(_VALUES[alphabet], repeat=4))


@lru_cache(maxsize=None)
def _column_props(alphabet: str) -> np.ndarray:
    return np.array(
        [[column_props(col)[name] for name in _SCANNED] for col in _column_classes(alphabet)],
        dtype=np.int64,
    )


@dataclass(frozen=True)
class _Half:
    """A half-table enumeration reduced to its distinct property vectors."""

    vectors: np.ndarray  # distinct vectors, one per row
    inverse: np.ndarray  # raw half index -> row of ``vectors``
    counts: np.ndarray  # number of raw halves sharing each row

    @property
    def raw_size(self) -> int:
        return len(self.inverse)


def _distinct(raw: np.ndarray) -> _Half:
    vectors, inverse, counts = np.unique(
        raw, axis=0, return_inverse=True, return_counts=True
    )
    return _Half(vectors, inverse.reshape(-1), counts)


@lru_cache(maxsize=None)
def _prefix_half(alphabet: str, n_slots: int) -> _Half:
    """Property vectors of every column sequence of the given length,
    indexed by the base-K numeral with the first slot most significant."""
    col = _column_props(alphabet)
    out = np.zeros((1, _PROPS), dtype=np.int64)
    for _ in range(n_slots):
        out = (out[:, None, :] + col[None, :, :]).reshape(-1, _PROPS)
    return _distinct(out)


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


@lru_cache(maxsize=None)
def _sica_component(alphabet: str) -> _Half:
    values = _VALUES[alphabet]
    k = len(values)
    n = k**8
    idx = np.arange(n)
    digits = np.empty((n, 8), dtype=np.int64)
    for j in range(8):
        digits[:, j] = (idx // k ** (7 - j)) % k
    col = _column_props(alphabet)
    out = np.zeros((n, _PROPS), dtype=np.int64)
    for va, vb, vap, vbp in _component_slot_vars():
        cls = (
            (digits[:, va] * k + digits[:, vb]) * k + digits[:, vap]
        ) * k + digits[:, vbp]
        out += col[cls]
    return _distinct(out)


def _halves(spec: EnumSpec) -> tuple[_Half, _Half]:
    if spec.constraint == "sica":
        grid = _sica_component(spec.alphabet)
        if spec.slots == 4:
            return grid, _prefix_half(spec.alphabet, 0)
        return grid, grid
    left = spec.slots // 2
    return (
        _prefix_half(spec.alphabet, left),
        _prefix_half(spec.alphabet, spec.slots - left),
    )


# Distinct pairs summed per block: large enough to amortize numpy's per-call
# cost, small enough that a block's temporaries stay in cache (4096 was
# fastest among powers of two from 2^11 to 2^16 on the pmz 4-slot sweeps).
_BLOCK_PAIRS = 1 << 12


def _pair_blocks(left: _Half, right: _Half):
    """Every distinct (left, right) pair, a block of left rows at a time.

    Yields the flat index (left row times distinct rights, plus right row)
    of the block's first pair, the summed counts by name (one contiguous
    array each, the right row varying fastest), and the number of tables
    each pair covers.
    """
    n_right = len(right.vectors)
    step = max(1, _BLOCK_PAIRS // n_right)
    for i0 in range(0, len(left.vectors), step):
        rows = slice(i0, i0 + step)
        sums = (left.vectors.T[:, rows, None] + right.vectors.T[:, None, :]).reshape(_PROPS, -1)
        weight = (left.counts[rows, None] * right.counts[None, :]).reshape(-1)
        yield i0 * n_right, dict(zip(_SCANNED, sums)), weight


class _ArgMax:
    """Running integer maximum over the distinct pairs of two halves, with
    a flag per distinct pair that reaches it."""

    def __init__(self, left: _Half, right: _Half) -> None:
        self.left, self.right = left, right
        self.value: int | None = None
        self._hit = np.zeros((len(left.vectors), len(right.vectors)), dtype=bool)

    def update(self, first_pair: int, values: np.ndarray, ok: np.ndarray) -> None:
        if not ok.any():
            return
        m = int(values[ok].max())
        if self.value is None or m > self.value:
            self.value = m
            self._hit[:] = False
        if m == self.value:
            self._hit.reshape(-1)[first_pair:first_pair + len(values)] = ok & (values == m)

    def first_tables(self, cap: int) -> list[int]:
        """Global indices of the first ``cap`` tables reaching the maximum:
        raw left halves in numeral order, and within each the raw right
        halves whose distinct pair hit."""
        left, right = self.left, self.right
        out: list[int] = []
        for li in np.flatnonzero(self._hit.any(axis=1)[left.inverse]):
            hit = np.flatnonzero(self._hit[left.inverse[li]][right.inverse])
            out.extend(int(li) * right.raw_size + int(ri) for ri in hit[: cap - len(out)])
            if len(out) == cap:
                break
        return out


# ---------------------------------------------------------------------------
# Witness reconstruction


def _digits(value: int, base: int, width: int) -> list[int]:
    out = []
    for j in range(width):
        out.append((value // base ** (width - 1 - j)) % base)
    return out


def _table_from_index(spec: EnumSpec, global_idx: int, n_right: int) -> SeriesTable:
    li, ri = divmod(global_idx, n_right)
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
# Objectives (scaled integers for the scan, exact rationals at the end)


def _eta_defined(c: dict) -> np.ndarray:
    return np.logical_and.reduce([c[n_r] >= 1 for n_r in DETECTION.values()])


def _constraint_mask(spec: EnumSpec, c: dict) -> np.ndarray:
    if spec.constraint == "equal_nc":
        n = [c[COINCIDENCE[p]] for p in PAIRINGS]
        return (n[0] >= 1) & (n[0] == n[1]) & (n[0] == n[2]) & (n[0] == n[3])
    if isinstance(spec.constraint, tuple):
        kind, q = spec.constraint
        compare, combine = _ETA_CONSTRAINTS[kind]
        hits = [compare(c[n_c] * q.denominator, q.numerator * c[n_r]) for n_c, n_r in RETENTIONS]
        return _eta_defined(c) & combine.reduce(hits)
    return np.ones(len(c["j"]), dtype=bool)


# Each scaled objective takes the summed counts and ``per_count``, where
# per_count[n] = M // n (0 for n = 0), and returns where the objective is
# defined together with its value times M**power as int64.


def _chsh_scaled(c: dict, per_count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = [c[COINCIDENCE[p]] for p in PAIRINGS]
    e = [c[PRODUCT[p]] * per_count[n_c] for p, n_c in zip(PAIRINGS, n)]
    return np.logical_and.reduce([n_c >= 1 for n_c in n]), chsh_combination(*e)


def _eta_scaled(c: dict, per_count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    scale = {n_r: per_count[c[n_r]] for n_r in DETECTION.values()}
    ratios = [c[n_c] * scale[n_r] for n_c, n_r in RETENTIONS]
    return _eta_defined(c), np.minimum.reduce(ratios)


def _s_eta_scaled(c: dict, per_count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    s_ok, s = _chsh_scaled(c, per_count)
    eta_ok, eta = _eta_scaled(c, per_count)
    return s_ok & eta_ok, s * eta


def _ch_scaled(c: dict, _per_count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return np.ones(len(c["j"]), dtype=bool), c["j"]


def _exact_chsh(table: SeriesTable) -> Fraction | None:
    return chsh(table)


def _exact_s_eta(table: SeriesTable) -> Fraction | None:
    s, eta = chsh(table), table_eta(table)
    return None if s is None or eta is None else s * eta


def _exact_ch(table: SeriesTable) -> Fraction:
    return Fraction(clauser_horne_j(table).j)


# objective -> (scaled scan values, exact value of a witness, power of M)
_OBJECTIVES = {
    "chsh": (_chsh_scaled, _exact_chsh, 1),
    "s_eta": (_s_eta_scaled, _exact_s_eta, 2),
    "ch": (_ch_scaled, _exact_ch, 0),
}


def _scan_max(spec: EnumSpec, objective: str, witness_cap: int) -> ExtremalResult:
    spec.validate()
    t0 = time.perf_counter()
    scaled_fn, exact_fn, power = _OBJECTIVES[objective]
    left, right = _halves(spec)
    scale = math.lcm(*range(1, spec.slots + 1))
    per_count = np.array(
        [0] + [scale // n for n in range(1, spec.slots + 1)], dtype=np.int64
    )
    scanned = left.raw_size * right.raw_size
    admissible = 0
    best = _ArgMax(left, right)
    for first_pair, c, weight in _pair_blocks(left, right):
        ok, vals = scaled_fn(c, per_count)
        ok &= _constraint_mask(spec, c)
        admissible += int(weight[ok].sum())
        best.update(first_pair, vals, ok)
    if best.value is None:
        return ExtremalResult(
            None, (), scanned, 0, spec.space_size,
            time.perf_counter() - t0, note="no table satisfies the constraint",
        )
    # The maximum is read off a witness, so at least one is always built.
    hits = best.first_tables(max(witness_cap, 1))
    witnesses = tuple(_table_from_index(spec, h, right.raw_size) for h in hits)
    max_value = exact_fn(witnesses[0])
    if max_value * scale**power != best.value:
        raise AssertionError(
            f"scan maximum {best.value}/{scale}^{power} != witness value {max_value}"
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
        scanned,
        admissible,
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
    how many tables violate it (expected: none, it is a term-counting
    identity) and the smallest slack together with a table attaining it.
    """
    if spec.alphabet != "pmz":
        raise PreconditionError("the counting bound concerns {+1,-1,0} tables")
    spec.validate()
    t0 = time.perf_counter()
    left, right = _halves(spec)
    violations = 0
    tightest = _ArgMax(left, right)  # of the negated slack
    for first_pair, c, weight in _pair_blocks(left, right):
        lhs, rhs = cardinality_sides(c)
        slack = rhs - lhs
        violations += int(weight[slack < 0].sum())
        tightest.update(first_pair, -slack, np.ones(len(slack), dtype=bool))
    (first_idx,) = tightest.first_tables(1)
    return CardinalitySweep(
        left.raw_size * right.raw_size,
        violations,
        -tightest.value,
        _table_from_index(spec, first_idx, right.raw_size),
        time.perf_counter() - t0,
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
