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
    codes = []
    for i in range(run.slots):
        codes.append(naive_event_code(run.a_outcomes[i], run.schedule.a_settings[i],
                                      run.b_outcomes[i], run.schedule.b_settings[i]))
    return bytes(codes)


def naive_table_from_run(run):
    """Each slot's outcomes written into the rows of its two active
    settings; every other cell stays None."""
    rows = {key: [None] * run.slots for key in ROW_KEYS}
    for i in range(run.slots):
        rows[run.schedule.a_settings[i].row][i] = run.a_outcomes[i]
        rows[run.schedule.b_settings[i].row][i] = run.b_outcomes[i]
    return SeriesTable.from_rows(rows["a"], rows["b"], rows["a_prime"], rows["b_prime"])
