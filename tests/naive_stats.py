"""Slow, direct reimplementations of the counting statistics.

Deliberately written from the definitions with plain loops and no shared
code, so the package can be cross-checked against them on arbitrary
tables.  Rows are passed as plain tuples of -1/0/+1/None cells; a cell
counts as a detection only when it is +1 or -1.
"""

from fractions import Fraction

PAIR_ROWS = {
    "alpha:beta": ("a", "b"),
    "alpha:beta_prime": ("a", "b_prime"),
    "alpha_prime:beta": ("a_prime", "b"),
    "alpha_prime:beta_prime": ("a_prime", "b_prime"),
}


def naive_correlation(rows, a_row, b_row):
    """(sum of products, coincidence count) over slots where both sides hit."""
    num = 0
    den = 0
    for x, y in zip(rows[a_row], rows[b_row]):
        if x in (1, -1) and y in (1, -1):
            num += x * y
            den += 1
    return num, den


def naive_e(rows, a_row, b_row):
    num, den = naive_correlation(rows, a_row, b_row)
    if den == 0:
        return None
    return Fraction(num, den)


def naive_chsh(rows):
    es = []
    for a_row, b_row in PAIR_ROWS.values():
        e = naive_e(rows, a_row, b_row)
        if e is None:
            return None
        es.append(e)
    return abs(es[0] - es[1]) + abs(es[2] + es[3])


def naive_ch_j(rows):
    """Plus counts as 1, anything else as 0."""

    def hits(row):
        return [1 if v == 1 else 0 for v in rows[row]]

    a, b = hits("a"), hits("b")
    ap, bp = hits("a_prime"), hits("b_prime")
    n = len(a)
    j = 0
    for i in range(n):
        j += a[i] * b[i] + a[i] * bp[i] + ap[i] * b[i] - ap[i] * bp[i]
        j -= a[i] + b[i]
    return j


def naive_eta(rows):
    """Smallest of the eight per-pairing station retentions."""
    fractions = []
    for a_row, b_row in PAIR_ROWS.values():
        _, n_c = naive_correlation(rows, a_row, b_row)
        for row in (a_row, b_row):
            singles = sum(1 for v in rows[row] if v in (1, -1))
            if singles == 0:
                return None
            fractions.append(Fraction(n_c, singles))
    return min(fractions)


def naive_cardinality_sides(rows):
    """(lhs, rhs) of the counting bound on the four correlation sums."""
    u = {}
    n_c = {}
    for key, (a_row, b_row) in PAIR_ROWS.items():
        u[key], n_c[key] = naive_correlation(rows, a_row, b_row)
    lhs = abs(u["alpha:beta"] - u["alpha:beta_prime"]) + abs(
        u["alpha_prime:beta"] + u["alpha_prime:beta_prime"]
    )
    both_same = 0
    both_diff = 0
    for a, b, bp in zip(rows["a"], rows["b"], rows["b_prime"]):
        if a != 0 and b != 0 and bp != 0:
            if b == bp:
                both_same += 1
            else:
                both_diff += 1
    both_same_ap = 0
    both_diff_ap = 0
    for ap, b, bp in zip(rows["a_prime"], rows["b"], rows["b_prime"]):
        if ap != 0 and b != 0 and bp != 0:
            if b == bp:
                both_same_ap += 1
            else:
                both_diff_ap += 1
    rhs = sum(n_c.values()) - 2 * both_same - 2 * both_diff_ap
    return lhs, rhs


def naive_correlation_over_slots(rows, a_row, b_row, slots):
    """(sum of products, coincidence count) over the listed slots, each
    occurrence counted."""
    num = 0
    den = 0
    for i in slots:
        x, y = rows[a_row][i], rows[b_row][i]
        if x in (1, -1) and y in (1, -1):
            num += x * y
            den += 1
    return num, den


def naive_retention(rows, a_row, b_row):
    """Coincidences over each side's detections, None for a silent side."""
    _, n_c = naive_correlation(rows, a_row, b_row)
    out = {}
    for row in (a_row, b_row):
        singles = sum(1 for v in rows[row] if v in (1, -1))
        out[row] = Fraction(n_c, singles) if singles else None
    return out


def naive_ch_counts(rows):
    """(++ coincidences per pairing key, + singles of a, + singles of b)."""
    coincidences = {}
    for key, (a_row, b_row) in PAIR_ROWS.items():
        coincidences[key] = sum(
            1 for x, y in zip(rows[a_row], rows[b_row]) if x == 1 and y == 1
        )
    singles_a = sum(1 for v in rows["a"] if v == 1)
    singles_b = sum(1 for v in rows["b"] if v == 1)
    return coincidences, singles_a, singles_b


def naive_row_counts(rows, row):
    """(recorded cells, detections) of one row."""
    recorded = sum(1 for v in rows[row] if v is not None)
    detections = sum(1 for v in rows[row] if v in (1, -1))
    return recorded, detections


def naive_set_sizes(rows):
    """Sizes of the detection sets of a fully measured table and of the
    intersections the set statistics report, built as index sets."""
    n = len(rows["a"])
    alpha = {i for i in range(n) if rows["a"][i] != 0}
    beta = {i for i in range(n) if rows["b"][i] != 0}
    alpha_p = {i for i in range(n) if rows["a_prime"][i] != 0}
    beta_p = {i for i in range(n) if rows["b_prime"][i] != 0}
    both = beta & beta_p
    same = {i for i in both if rows["b"][i] == rows["b_prime"][i]}
    diff = both - same
    return {
        "n_alpha": len(alpha),
        "n_beta": len(beta),
        "n_alpha_prime": len(alpha_p),
        "n_beta_prime": len(beta_p),
        "n_both_same": len(same),
        "n_both_diff": len(diff),
        "n_alpha_beta_beta_prime": len(alpha & both),
        "n_alpha_prime_beta_beta_prime": len(alpha_p & both),
        "n_alpha_both_same": len(alpha & same),
        "n_alpha_both_diff": len(alpha & diff),
        "n_alpha_prime_both_same": len(alpha_p & same),
        "n_alpha_prime_both_diff": len(alpha_p & diff),
    }


def naive_run_detectors(run):
    """Per-detector (singles, coincidences), one slot at a time."""
    a_set, b_set = run.schedule.a_settings, run.schedule.b_settings
    a_out, b_out = run.a_outcomes, run.b_outcomes
    out = {}
    for i in range(run.slots):
        a_row = a_set[i].row
        b_row = b_set[i].row
        a, b = a_out[i], b_out[i]
        for label, v, distant in ((a_row, a, b), (b_row, b, a)):
            if v != 0:
                rec = out.setdefault(label + ("+" if v == 1 else "-"), [0, 0])
                rec[0] += 1
                if distant != 0:
                    rec[1] += 1
    return {label: tuple(rec) for label, rec in out.items()}


def naive_run_columns(run):
    """How many slots of a run lay out each column (a, b, a', b'): each
    slot's two outcomes go in the rows of its two active settings, the
    other two cells are None."""
    a_set, b_set = run.schedule.a_settings, run.schedule.b_settings
    a_out, b_out = run.a_outcomes, run.b_outcomes
    out = {}
    for i in range(run.slots):
        cells = dict.fromkeys(("a", "b", "a_prime", "b_prime"))
        cells[a_set[i].row] = a_out[i]
        cells[b_set[i].row] = b_out[i]
        column = (cells["a"], cells["b"], cells["a_prime"], cells["b_prime"])
        out[column] = out.get(column, 0) + 1
    return out
