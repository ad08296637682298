"""Slow, direct reimplementation of the exhaustive sweeps and the census.

Tables are enumerated one by one with itertools, in the oracle's documented
numeral order, and scored only through the statistics module; census
extensions are all 2^k fills of the never-measured cells, checked against
the series identity written out from its definition.
Nothing here shares code with the oracle, so the two can be compared on
every small case.
"""

import itertools
from fractions import Fraction
from functools import lru_cache

import numpy as np

from bellseries.model import PAIRINGS, ROW_KEYS, SeriesTable
from bellseries.stats import cardinality_bound, chsh, clauser_horne_j, correlation, table_eta

VALUES = {"pm": (-1, 1), "pmz": (-1, 0, 1)}


def tables(alphabet, slots, sica=False):
    """Every table of the sweep, in enumeration order.

    Unconstrained: the columns (a, b, a', b') of each slot run through the
    cell values lexicographically, first slot most significant.  Identity
    constrained (block layout): at 4 slots the eight free cells (a0, a1, b0,
    b1, a'0, a'1, b'0, b'1) run through the values, first cell most
    significant, and each row repeats them as the layout requires; at 8
    slots sixteen free cells do, eight for the even slots (va) and then
    eight for the odd ones (vb).
    """
    values = VALUES[alphabet]
    if sica:
        assert slots in (4, 8)
        for v in itertools.product(values, repeat=2 * slots):
            if slots == 4:
                yield SeriesTable.from_rows(
                    (v[0], v[0], v[1], v[1]),
                    (v[2], v[3], v[2], v[3]),
                    (v[4], v[4], v[5], v[5]),
                    (v[6], v[7], v[6], v[7]),
                )
                continue
            va, vb = v[:8], v[8:]
            yield SeriesTable.from_rows(
                (va[0], vb[0], va[0], vb[0], va[1], vb[1], va[1], vb[1]),
                (va[2], vb[2], va[3], vb[3], va[2], vb[2], va[3], vb[3]),
                (va[4], vb[4], va[4], vb[4], va[5], vb[5], va[5], vb[5]),
                (va[6], vb[6], va[7], vb[7], va[6], vb[6], va[7], vb[7]),
            )
        return
    columns = list(itertools.product(values, repeat=4))
    for cols in itertools.product(columns, repeat=slots):
        yield SeriesTable.from_rows(*(tuple(c[r] for c in cols) for r in range(4)))


@lru_cache(maxsize=None)
def scored(alphabet, slots, sica=False):
    """(table, S, eta, CH, coincidence counts) for every table, in order."""
    return tuple(
        (
            t,
            chsh(t),
            table_eta(t),
            Fraction(clauser_horne_j(t).j),
            tuple(correlation(t, p).n_c for p in PAIRINGS),
        )
        for t in tables(alphabet, slots, sica)
    )


def _admissible(constraint, eta, n_c):
    if constraint in (None, "sica"):
        return True
    if constraint == "equal_nc":
        return len(set(n_c)) == 1 and n_c[0] >= 1
    kind, q = constraint
    if eta is None:
        return False
    return {
        "eta_at_least": eta >= q,
        "eta_at_most": eta <= q,
        "eta_below": eta < q,
    }[kind]


def naive_max(objective, alphabet, slots, constraint=None, witness_cap=3):
    """(maximum, admissible count, tables scanned, first witnesses)."""
    rows = scored(alphabet, slots, constraint == "sica")
    candidates = []
    for table, s, eta, j, n_c in rows:
        if not _admissible(constraint, eta, n_c):
            continue
        if objective == "chsh":
            value = s
        elif objective == "ch":
            value = j
        else:
            value = None if s is None or eta is None else s * eta
        if value is not None:
            candidates.append((table, value))
    if not candidates:
        return None, 0, len(rows), ()
    best = max(v for _, v in candidates)
    witnesses = tuple(t for t, v in candidates if v == best)[: max(witness_cap, 1)]
    return best, len(candidates), len(rows), witnesses


def naive_cardinality(slots, constraint=None):
    """(tables scanned, violations, smallest slack, first table at it) over
    the admissible tables; the last two are None when none is admissible."""
    best = (None, None)
    violations = 0
    count = 0
    for table, _s, eta, _j, n_c in scored("pmz", slots, constraint == "sica"):
        count += 1
        if not _admissible(constraint, eta, n_c):
            continue
        bound = cardinality_bound(table)
        slack = bound.rhs - bound.lhs
        violations += slack < 0
        if best[0] is None or slack < best[0]:
            best = (slack, table)
    return count, violations, *best


def naive_census(run, sample_cap=64):
    """(count, first samples) over every +-1 fill of the unmeasured cells.

    Fill number f sets the unmeasured cells (by row, then slot) from the
    bits of f, first cell most significant, 1 as plus.  A fill counts when
    each row, read under either distant setting in time order, gives the
    same sequence.  All fills are checked at once as one array.
    """
    a_settings = [s.value for s in run.schedule.a_settings]
    b_settings = [s.value for s in run.schedule.b_settings]
    grid = np.zeros((4, run.slots), dtype=np.int8)
    measured = np.zeros((4, run.slots), dtype=bool)
    for i in range(run.slots):
        for row, value in (
            (ROW_KEYS.index("a" if a_settings[i] == "alpha" else "a_prime"), run.a_outcomes[i]),
            (ROW_KEYS.index("b" if b_settings[i] == "beta" else "b_prime"), run.b_outcomes[i]),
        ):
            grid[row, i] = value
            measured[row, i] = True
    rows, slots = np.nonzero(~measured)
    width = len(rows)
    bits = (np.arange(2**width)[:, None] >> np.arange(width - 1, -1, -1)) & 1
    fills = np.repeat(grid[None], 2**width, axis=0)
    fills[:, rows, slots] = 2 * bits - 1
    ok = np.ones(2**width, dtype=bool)
    for row, key in enumerate(ROW_KEYS):
        distant = b_settings if key in ("a", "a_prime") else a_settings
        under = [[i for i, s in enumerate(distant) if s == k] for k in sorted(set(distant))]
        if len(under) != 2 or len(under[0]) != len(under[1]):
            return 0, []
        ok &= (fills[:, row, under[0]] == fills[:, row, under[1]]).all(axis=1)
    hits = np.flatnonzero(ok)
    samples = [
        SeriesTable.from_rows(*(tuple(int(v) for v in fills[h, r]) for r in range(4)))
        for h in hits[:sample_cap]
    ]
    return len(hits), samples
