"""Run generation: correlated two-station sources and table replay.

The quantum-style source draws joint sign outcomes from the cosine
correlation law E(theta_A, theta_B) = cos 2(theta_A - theta_B) with
unbiased marginals:

    P(same sign) = (1 + E) / 2,  split evenly between ++ and --
    P(opposite)  = (1 - E) / 2,  split evenly between +- and -+

The deterministic source reads outcomes from a fixed instruction table.
Detection losses erase outcomes to 0 independently per station per slot.

RNG contract: all randomness comes from numpy's PCG64 seeded with the
config seed.  Per slot the quantum model consumes, in this order, four
uniform streams, each whole before the next: ``s`` (sign agreement),
``t`` (common sign), ``u_a`` (station A erasure), ``u_b`` (station B
erasure).  The deterministic model consumes only ``u_a`` and ``u_b``.
This order is part of the reproducibility contract and is echoed in the
run metadata.  Each stream is drawn in blocks, the same stream
(:data:`~bellseries.model.DRAW_BLOCK` slots at a time), and each block is
reduced to one byte a slot as soon as it is drawn, so no float array of
every slot is ever alive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import PreconditionError
from .model import (
    MINUS,
    PAIRINGS,
    PLUS,
    ROW_KEYS,
    Pairing,
    RecordedRun,
    Schedule,
    SeriesTable,
    project_table,
    slot_blocks,
)
from .stats import chsh_combination

#: Analyzer angles (alpha, alpha_prime, beta, beta_prime) in degrees that
#: maximize the CHSH combination under the cosine correlation law.
DEFAULT_ANGLES = (0.0, 45.0, 22.5, 67.5)

GENERATOR_NAME = "numpy-pcg64"


def cosine_correlation(theta_a: float, theta_b: float) -> float:
    """E(theta_A, theta_B) = cos 2(theta_A - theta_B), angles in degrees."""
    return math.cos(2.0 * math.radians(theta_a - theta_b))


@dataclass(frozen=True)
class SourceConfig:
    model: str
    schedule: Schedule
    seed: int
    angles: tuple[float, float, float, float] = DEFAULT_ANGLES
    eta: float = 1.0
    instructions: SeriesTable | None = None

    def __post_init__(self):
        if self.model not in ("quantum", "deterministic"):
            raise PreconditionError(f"unknown source model {self.model!r}")
        if not 0.0 <= self.eta <= 1.0:
            raise PreconditionError(f"efficiency must lie in [0, 1], got {self.eta}")
        if len(self.angles) != 4:
            raise PreconditionError("angles must be (alpha, alpha_prime, beta, beta_prime)")
        if self.model == "deterministic":
            if self.instructions is None:
                raise PreconditionError("deterministic model needs an instruction table")
            if not self.instructions.fully_measured:
                raise PreconditionError("instruction table must be fully measured")
            if self.instructions.slots == 0:
                raise PreconditionError("instruction table has no slots")
        elif not all(math.isfinite(a - b) for a, b in map(self.pairing_angles, PAIRINGS)):
            raise PreconditionError(
                f"angles and their differences must be finite degrees, got {self.angles}"
            )

    def pairing_angles(self, pairing: Pairing) -> tuple[float, float]:
        theta_a = self.angles[0] if pairing.a_row == "a" else self.angles[1]
        theta_b = self.angles[2] if pairing.b_row == "b" else self.angles[3]
        return theta_a, theta_b

    def pairing_correlation(self, pairing: Pairing) -> float:
        return cosine_correlation(*self.pairing_angles(pairing))


def expected_chsh(config: SourceConfig) -> float:
    """The CHSH value implied by the correlation law at the configured angles."""
    return chsh_combination(*(config.pairing_correlation(p) for p in PAIRINGS))


def _meta(config: SourceConfig, draw_order: str) -> dict:
    meta = {
        "model": config.model,
        "seed": config.seed,
        "eta": config.eta,
        "slots": config.schedule.slots,
        "schedule": config.schedule.kind,
        "generator": GENERATOR_NAME,
        "draw_order": draw_order,
    }
    if config.model == "quantum":
        meta["angles"] = list(config.angles)
    else:
        meta["instruction_slots"] = config.instructions.slots
    if config.schedule.seed is not None:
        meta["schedule_seed"] = config.schedule.seed
    return meta


def _draw_events(config: SourceConfig) -> tuple[bytes, str]:
    """Each slot's event code, drawn in blocks, the same stream, and the
    draw order.  Outcomes are held as ``outcome + 1`` in one uint8 array a
    station, and each block of a uniform stream is reduced into them as soon
    as it is drawn."""
    # numpy is imported where a command draws, so commands that read stay light.
    import numpy as np

    n = config.schedule.slots
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(config.seed)))

    def stream():
        """One uniform stream over every slot, a block at a time."""
        for block in slot_blocks(n):
            yield block, rng.random(block.stop - block.start)

    # Per slot, the index of its setting pair in PAIRINGS: 2 * primed A + primed B.
    pairing = np.frombuffer(config.schedule.codes, np.uint8)
    a, b = np.empty(n, np.uint8), np.empty(n, np.uint8)
    if config.model == "quantum":
        same_below = np.array([(1.0 + config.pairing_correlation(p)) / 2.0 for p in PAIRINGS])
        same = np.empty(n, bool)
        for block, s in stream():
            same[block] = s < same_below[pairing[block]]
        for block, t in stream():
            a[block] = np.where(t < 0.5, PLUS + 1, MINUS + 1)
            b[block] = np.where(same[block], a[block], 2 - a[block])
        del same
        draw_order = "s,t,u_a,u_b"
    else:
        table = config.instructions
        rows = {key: np.array(table.row(key), np.int8) + 1 for key in ROW_KEYS}
        for block in slot_blocks(n):
            # The instructions are read cyclically: slot i reads column i mod their length.
            column = np.arange(block.start, block.stop) % table.slots
            a[block] = np.where(pairing[block] >> 1, rows["a_prime"][column], rows["a"][column])
            b[block] = np.where(pairing[block] & 1, rows["b_prime"][column], rows["b"][column])
        draw_order = "u_a,u_b"
    for outcomes in (a, b):
        for block, u in stream():
            outcomes[block][u >= config.eta] = 1
    a *= 3
    a += b
    a += 9 * pairing
    return a.tobytes(), draw_order


def simulate(config: SourceConfig) -> RecordedRun:
    """Generate a run from the configured source, schedule, and efficiency.

    Bit-exact reproducible: the same config (seed included) always yields
    the same run.
    """
    events, draw_order = _draw_events(config)
    return RecordedRun.from_events(events, meta=_meta(config, draw_order))


def replay(table: SeriesTable, schedule: Schedule, meta: dict | None = None) -> RecordedRun:
    """Expose a fully measured table through a measurement schedule.

    Two layouts are supported:

    * schedule of the same length: read the active rows at the same slot;
    * schedule of twice the length, activating every row exactly
      ``table.slots`` times: each row is consumed in slot order, so the
      k-th slot where a row's setting is active reads that row's k-th
      value.  This is how a table over T joint slots spreads over 2T
      single-setting slots.
    """
    if not table.fully_measured:
        raise PreconditionError("replay needs a fully measured table")
    if meta is None:
        meta = {"generator": "replay", "source_slots": table.slots}
    if schedule.slots == table.slots:
        return project_table(table, schedule, meta=meta)
    if schedule.slots == 2 * table.slots:
        # Per slot, the rows its A and its B setting read.
        rows = [s.row for pair in zip(schedule.a_settings, schedule.b_settings) for s in pair]
        active = {key: rows.count(key) for key in ROW_KEYS}
        bad = {k: v for k, v in active.items() if v != table.slots}
        if bad:
            raise PreconditionError(
                f"sequential replay needs every row active exactly {table.slots} "
                f"times, got {bad}"
            )
        cursors = {key: iter(table.row(key)) for key in ROW_KEYS}
        values = [next(cursors[row]) for row in rows]
        return RecordedRun(schedule, values[0::2], values[1::2], meta=meta)
    raise PreconditionError(
        f"schedule must cover {table.slots} or {2 * table.slots} slots, "
        f"got {schedule.slots}"
    )
