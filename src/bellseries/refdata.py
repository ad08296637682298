"""Reference series used as worked examples and regression fixtures.

Each builder returns a small hand-checkable object: complete tables with
known exact statistics, runs that do or do not admit a series-identity
rearrangement, and one constructed completion under its schedule.
The registry at the bottom maps dataset names to builders for the CLI and
the tests.
"""

from __future__ import annotations

from .model import (
    MINUS,
    PLUS,
    ZERO,
    ASetting,
    BSetting,
    RecordedRun,
    SeriesTable,
    block_halves,
    custom_schedule,
)
from .sica import CompleteTable
from .simulate import replay

P = PLUS
M = MINUS


def fig1() -> RecordedRun:
    """Six slots of a constant (alpha, beta) run with mixed detections.

    The plus detector on the A side fires three times but only twice with a
    coincident detection opposite, so its working efficiency is 2/3.
    """
    schedule = custom_schedule([ASetting.ALPHA] * 6, [BSetting.BETA] * 6)
    a = (M, P, ZERO, M, P, P)
    b = (M, M, P, ZERO, P, ZERO)
    return RecordedRun(schedule, a, b)


def fig2() -> SeriesTable:
    """A 16-slot fully measured table with every correlation 1/2 in
    magnitude and a CHSH combination of exactly 2."""
    return SeriesTable.from_rows(
        a=[P] * 8 + [M] * 8,
        b=[M, M] + [P] * 8 + [M] * 6,
        a_prime=[M] * 4 + [P] * 8 + [M] * 4,
        b_prime=[M] * 6 + [P] * 8 + [M, M],
    )


def fig3() -> SeriesTable:
    """The 16-slot table of :func:`fig2` with one missed detection per row,
    none of them coincident, so every series keeps efficiency 14/15."""
    base = fig2()
    a = list(base.a)
    b = list(base.b)
    a_prime = list(base.a_prime)
    b_prime = list(base.b_prime)
    a[0] = ZERO
    b[10] = ZERO
    a_prime[4] = ZERO
    b_prime[14] = ZERO
    return SeriesTable.from_rows(a, b, a_prime, b_prime)


def fig5() -> RecordedRun:
    """The table of :func:`fig2` sampled through a 32-slot block layout,
    each row consumed sequentially by its own setting's sixteen active
    slots.  The derived table fails the series-identity check."""
    return replay(fig2(), block_halves(32))


def fig6(variant: str = "black") -> RecordedRun:
    """An 8-slot block-layout run in two variants differing only in the
    B-side outcomes.

    The ``black`` variant reports a CHSH combination of 4 from its four
    block correlations and admits no identity-restoring rearrangement; the
    ``red`` variant satisfies the identity as recorded and condenses to
    :func:`fig7`.
    """
    a = (M, P, M, P, M, P, M, P)
    if variant == "black":
        b = (P, M, M, P, M, P, M, P)
    elif variant == "red":
        b = (M, P, M, P, M, P, M, P)
    else:
        raise ValueError(f"unknown variant {variant!r}: expected 'black' or 'red'")
    return RecordedRun(block_halves(8), a, b)


def fig7() -> SeriesTable:
    """The two-slot condensation of the red variant of :func:`fig6`: every
    row reads (-, +), all four correlations are 1, and the CHSH combination
    is exactly 2."""
    return SeriesTable.from_rows([M, P], [M, P], [M, P], [M, P])


def fig8_free_choices() -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The free-choice bit pair that completes the black variant of
    :func:`fig6` into :func:`fig8`."""
    return (0, 1), (1, 0)


def fig8() -> CompleteTable:
    """The completion of the black :func:`fig6` run under the free choices
    of :func:`fig8_free_choices`: factual cells keep their recorded values
    (and block correlations), counterfactual cells make the identity hold."""
    table = SeriesTable.from_rows(
        a=[M, P, M, P, M, P, M, P],
        b=[M, P, M, P, M, P, M, P],
        a_prime=[P, M, P, M, M, P, M, P],
        b_prime=[P, M, M, P, P, M, M, P],
    )
    return CompleteTable(table, block_halves(8))


def fig9() -> CompleteTable:
    """The half-length condensation of :func:`fig8`.

    Per row, each regime pair keeps the earlier slot's cell, so factual and
    counterfactual cells mix: the kept slots' settings are its schedule,
    under which the series identity fails on rows a' and b', and its CHSH
    combination is exactly 2.
    """
    table = SeriesTable.from_rows(
        a=[M, P, M, P],
        b=[M, P, M, P],
        a_prime=[P, M, M, P],
        b_prime=[P, M, M, P],
    )
    schedule = custom_schedule([ASetting.ALPHA] * 2 + [ASetting.ALPHA_PRIME] * 2,
                               [BSetting.BETA_PRIME] * 2 + [BSetting.BETA] * 2)
    return CompleteTable(table, schedule)


DATASETS = {
    "fig1": fig1,
    "fig2": fig2,
    "fig3": fig3,
    "fig5": fig5,
    "fig6-black": lambda: fig6("black"),
    "fig6-red": lambda: fig6("red"),
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
}
