"""Slow, per-slot reimplementations of the simulator and the schedule helpers.

Each walks the slots one at a time with plain Python loops, drawing the same
numpy streams in the same order as the package (``s``, ``t``, ``u_a``, ``u_b``
for the quantum source, ``u_a``, ``u_b`` for the deterministic one), each
stream as one whole array, so the package's code, which draws each stream in
blocks, can be checked against them run for run and byte for byte.
"""

import numpy as np

from bellseries.model import (
    MINUS,
    PAIRINGS,
    PLUS,
    ASetting,
    BSetting,
    Pairing,
    RecordedRun,
    Schedule,
    custom_schedule,
)
from bellseries.simulate import _meta


def _pairings(schedule):
    """Each slot's setting pair, from its two settings rather than the codes."""
    return [Pairing(settings) for settings in zip(schedule.a_settings, schedule.b_settings)]


def _generator(seed):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def naive_random_per_slot(slots, seed):
    """Independent uniform setting choices, one slot at a time."""
    rng = _generator(seed)
    a_bits = rng.integers(0, 2, size=slots)
    b_bits = rng.integers(0, 2, size=slots)
    a = tuple(ASetting.ALPHA if bit == 0 else ASetting.ALPHA_PRIME for bit in a_bits)
    b = tuple(BSetting.BETA if bit == 0 else BSetting.BETA_PRIME for bit in b_bits)
    return Schedule("random", custom_schedule(a, b).codes, seed)


def naive_simulate(config):
    """The configured source's run, decided slot by slot."""
    a_set, b_set = config.schedule.a_settings, config.schedule.b_settings
    n = config.schedule.slots
    rng = _generator(config.seed)
    a_out = []
    b_out = []
    if config.model == "quantum":
        s = rng.random(n)
        t = rng.random(n)
        u_a = rng.random(n)
        u_b = rng.random(n)
        e_by_pairing = {p: config.pairing_correlation(p) for p in PAIRINGS}
        pairings = _pairings(config.schedule)
        for i in range(n):
            e = e_by_pairing[pairings[i]]
            same = s[i] < (1.0 + e) / 2.0
            sign = PLUS if t[i] < 0.5 else MINUS
            a = sign
            b = sign if same else -sign
            if u_a[i] >= config.eta:
                a = 0
            if u_b[i] >= config.eta:
                b = 0
            a_out.append(a)
            b_out.append(b)
        draw_order = "s,t,u_a,u_b"
    else:
        u_a = rng.random(n)
        u_b = rng.random(n)
        table = config.instructions
        for i in range(n):
            j = i % table.slots
            a = table.row(a_set[i].row)[j]
            b = table.row(b_set[i].row)[j]
            if u_a[i] >= config.eta:
                a = 0
            if u_b[i] >= config.eta:
                b = 0
            a_out.append(a)
            b_out.append(b)
        draw_order = "u_a,u_b"
    return RecordedRun(
        config.schedule, tuple(a_out), tuple(b_out), meta=_meta(config, draw_order)
    )


def naive_pairing_blocks(run):
    """Slots grouped by their setting pair, read off the settings slot by slot."""
    blocks = {p: [] for p in PAIRINGS}
    for i, pairing in enumerate(_pairings(run.schedule)):
        blocks[pairing].append(i)
    return blocks
