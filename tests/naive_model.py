"""Slow, per-slot references for a run's event codes and its laid-out table.

Each walks the run one slot at a time through its setting and outcome
tuples, so the package's lookups by event code can be checked against them.
"""

from bellseries.model import ROW_KEYS, ASetting, BSetting, SeriesTable


def naive_event_code(a, a_setting, b, b_setting):
    """9 * p + 3 * (a + 1) + (b + 1), where the setting pair's index p in
    (AB, AB', A'B, A'B') is 2 * (A primed) + (B primed)."""
    p = 2 * (a_setting is ASetting.ALPHA_PRIME) + (b_setting is BSetting.BETA_PRIME)
    return 9 * p + 3 * (a + 1) + (b + 1)


def naive_events(run):
    """The run's event codes, one slot at a time."""
    a_set, b_set = run.schedule.a_settings, run.schedule.b_settings
    a_out, b_out = run.a_outcomes, run.b_outcomes
    codes = []
    for i in range(run.slots):
        codes.append(naive_event_code(a_out[i], a_set[i], b_out[i], b_set[i]))
    return bytes(codes)


def naive_table_from_run(run):
    """Each slot's outcomes written into the rows of its two active
    settings; every other cell stays None."""
    a_set, b_set = run.schedule.a_settings, run.schedule.b_settings
    a_out, b_out = run.a_outcomes, run.b_outcomes
    rows = {key: [None] * run.slots for key in ROW_KEYS}
    for i in range(run.slots):
        rows[a_set[i].row][i] = a_out[i]
        rows[b_set[i].row][i] = b_out[i]
    return SeriesTable.from_rows(rows["a"], rows["b"], rows["a_prime"], rows["b_prime"])
