"""The numpy engine of the oracle's exhaustive sweeps.

:mod:`bellseries.oracle` imports this module only when a sweep runs, so
importing the oracle, or running its census, never loads numpy.

Every objective and every constraint declares the counts of
:func:`~bellseries.stats.column_props` it reads.  A sweep's property
vectors hold only the union of what its objective and its constraint read:
half tables that differ only in counts the sweep never reads share one
distinct vector, so fewer distinct pairs are summed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import PAIRINGS
from .oracle import _VALUES, EnumSpec, _column_classes, _component_slot_vars
from .stats import (
    COINCIDENCE,
    DETECTION,
    PRODUCT,
    RETENTIONS,
    cardinality_sides,
    chsh_combination,
    column_props,
)

# ---------------------------------------------------------------------------
# Property tables and half enumerations, over the counts a sweep reads


@lru_cache(maxsize=None)
def _column_props(alphabet: str, reads: tuple[str, ...]) -> np.ndarray:
    return np.array(
        [[column_props(col)[name] for name in reads] for col in _column_classes(alphabet)],
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
    """The distinct rows of ``raw`` in lexicographic order, found through
    one integer key per row: its entries as mixed-radix digits, the first
    most significant.  ``np.unique`` on the keys is about 100 times faster
    than on the rows (0.2 against 21 ms on a pmz 2-slot half)."""
    low = raw.min(axis=0)
    spans = (raw.max(axis=0) - low + 1).tolist()
    if math.prod(spans) >= 2**63:
        raise AssertionError(f"half-table counts too wide for an int64 key: {spans}")
    key = np.zeros(len(raw), dtype=np.int64)
    for column, lo, span in zip(raw.T, low, spans):
        key = key * span + (column - lo)
    _, first, inverse, counts = np.unique(
        key, return_index=True, return_inverse=True, return_counts=True
    )
    return _Half(raw[first], inverse, counts)


@lru_cache(maxsize=None)
def _prefix_half(alphabet: str, n_slots: int, reads: tuple[str, ...]) -> _Half:
    """Property vectors of every column sequence of the given length,
    indexed by the base-K numeral with the first slot most significant."""
    col = _column_props(alphabet, reads)
    out = np.zeros((1, len(reads)), dtype=np.int64)
    for _ in range(n_slots):
        out = (out[:, None, :] + col[None, :, :]).reshape(-1, len(reads))
    return _distinct(out)


@lru_cache(maxsize=None)
def _sica_component(alphabet: str, reads: tuple[str, ...]) -> _Half:
    k = len(_VALUES[alphabet])
    n = k**8
    idx = np.arange(n)
    digits = np.empty((n, 8), dtype=np.int64)
    for j in range(8):
        digits[:, j] = (idx // k ** (7 - j)) % k
    col = _column_props(alphabet, reads)
    out = np.zeros((n, len(reads)), dtype=np.int64)
    for va, vb, vap, vbp in _component_slot_vars():
        cls = (
            (digits[:, va] * k + digits[:, vb]) * k + digits[:, vap]
        ) * k + digits[:, vbp]
        out += col[cls]
    return _distinct(out)


def _halves(spec: EnumSpec, reads: tuple[str, ...]) -> tuple[_Half, _Half]:
    if spec.constraint == "sica":
        grid = _sica_component(spec.alphabet, reads)
        if spec.slots == 4:
            return grid, _prefix_half(spec.alphabet, 0, reads)
        return grid, grid
    left = spec.slots // 2
    return (
        _prefix_half(spec.alphabet, left, reads),
        _prefix_half(spec.alphabet, spec.slots - left, reads),
    )


# Distinct pairs summed per block: large enough to amortize numpy's per-call
# cost, small enough that a block's temporaries stay in cache.  Measured
# over powers of two from 2^11 to 2^16 on the pmz 4-slot sweeps (s-eta with
# eta<1, cardinality, ch with eta>=1/2), halves cached, 2-vCPU host: 2^12
# and 2^13 tied within 5 % (s-eta 50-59 ms, cardinality 10-13 ms); 2^11
# was up to 1.4x slower and 2^15 and 2^16 1.5-2.5x slower.
_BLOCK_PAIRS = 1 << 12


def _pair_blocks(left: _Half, right: _Half, reads: tuple[str, ...]):
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
        sums = (left.vectors.T[:, rows, None] + right.vectors.T[:, None, :]).reshape(len(reads), -1)
        weight = (left.counts[rows, None] * right.counts[None, :]).reshape(-1)
        yield i0 * n_right, dict(zip(reads, sums)), weight


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

    def first_tables(self, cap: int) -> list[tuple[int, int]]:
        """The first ``cap`` tables reaching the maximum, as (raw left half,
        raw right half): left halves in numeral order, and within each the
        right halves whose distinct pair hit."""
        left, right = self.left, self.right
        out: list[tuple[int, int]] = []
        for li in np.flatnonzero(self._hit.any(axis=1)[left.inverse]):
            hit = np.flatnonzero(self._hit[left.inverse[li]][right.inverse])
            out.extend((int(li), int(ri)) for ri in hit[: cap - len(out)])
            if len(out) == cap:
                break
        return out


# ---------------------------------------------------------------------------
# Constraints and objectives, each with the counts it reads


#: Per efficiency constraint: how one retention is compared with the
#: threshold, and how the eight comparisons combine.
_ETA_CONSTRAINTS = {
    "eta_at_least": (np.greater_equal, np.logical_and),
    "eta_at_most": (np.less_equal, np.logical_or),
    "eta_below": (np.less, np.logical_or),
}


def _constraint_reads(constraint) -> tuple[str, ...]:
    if constraint == "equal_nc":
        return tuple(COINCIDENCE.values())
    if isinstance(constraint, tuple):
        return tuple(name for retention in RETENTIONS for name in retention)
    return ()  # the identity constraint shapes the halves instead


def _eta_defined(c: dict) -> np.ndarray:
    return np.logical_and.reduce([c[n_r] >= 1 for n_r in DETECTION.values()])


def _constraint_mask(constraint, c: dict) -> np.ndarray | bool:
    """Where the constraint holds, from the counts it reads."""
    if constraint == "equal_nc":
        n = [c[COINCIDENCE[p]] for p in PAIRINGS]
        return (n[0] >= 1) & (n[0] == n[1]) & (n[0] == n[2]) & (n[0] == n[3])
    if isinstance(constraint, tuple):
        kind, q = constraint
        compare, combine = _ETA_CONSTRAINTS[kind]
        hits = [compare(c[n_c] * q.denominator, q.numerator * c[n_r]) for n_c, n_r in RETENTIONS]
        return _eta_defined(c) & combine.reduce(hits)
    return True


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


def _cardinality_excess(c: dict, _per_count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The counting bound's left side minus its right side: the negated
    slack, positive exactly where the bound is violated."""
    lhs, rhs = cardinality_sides(c)
    return np.ones(len(lhs), dtype=bool), lhs - rhs


_S_READS = (*PRODUCT.values(), *COINCIDENCE.values())

#: objective -> (counts it reads, scaled scan values, power of M)
OBJECTIVES = {
    "chsh": (_S_READS, _chsh_scaled, 1),
    "s_eta": ((*_S_READS, *DETECTION.values()), _s_eta_scaled, 2),
    "ch": (("j",), _ch_scaled, 0),
    "cardinality": (
        (*_S_READS, "n_alpha_both_same", "n_alpha_prime_both_diff"), _cardinality_excess, 0
    ),
}


def sweep_reads(spec: EnumSpec, objective: str) -> tuple[str, ...]:
    """The counts a sweep's property vectors hold: what its objective and
    its constraint read, in that order."""
    return tuple(dict.fromkeys(OBJECTIVES[objective][0] + _constraint_reads(spec.constraint)))


@dataclass(frozen=True)
class Scan:
    best: _ArgMax  # the scaled maximum over admissible tables, and its pairs
    tables: int  # every table the sweep covers
    admissible: int  # tables that meet the constraint, the objective defined
    positive: int  # admissible tables whose value is above 0
    unit: int  # the scan value of an objective value of 1: M**power


def scan(spec: EnumSpec, objective: str) -> Scan:
    """One pass over the distinct pairs of the sweep's two halves."""
    _, scaled, power = OBJECTIVES[objective]
    reads = sweep_reads(spec, objective)
    left, right = _halves(spec, reads)
    scale = math.lcm(*range(1, spec.slots + 1))
    per_count = np.array(
        [0] + [scale // n for n in range(1, spec.slots + 1)], dtype=np.int64
    )
    admissible = positive = 0
    best = _ArgMax(left, right)
    for first_pair, c, weight in _pair_blocks(left, right, reads):
        ok, vals = scaled(c, per_count)
        ok &= _constraint_mask(spec.constraint, c)
        admissible += int(weight[ok].sum())
        positive += int(weight[ok & (vals > 0)].sum())
        best.update(first_pair, vals, ok)
    return Scan(best, left.raw_size * right.raw_size, admissible, positive, scale**power)
