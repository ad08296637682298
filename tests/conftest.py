import json

import numpy as np
import pytest

from bellseries.model import SeriesTable


def make_rng(seed):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def random_table(rng, slots=None, alphabet=(-1, 0, 1)):
    """Cells drawn uniformly from ``alphabet``; include None for unmeasured
    cells.  Draws the same stream as ``rng.choice(alphabet)`` per cell."""
    if slots is None:
        slots = int(rng.integers(1, 11))
    rows = [
        tuple(alphabet[int(rng.integers(len(alphabet)))] for _ in range(slots))
        for _ in range(4)
    ]
    return SeriesTable.from_rows(*rows)


def table_rows(table):
    """The plain-dict view the naive reference implementations expect."""
    return {
        "a": table.a,
        "b": table.b,
        "a_prime": table.a_prime,
        "b_prime": table.b_prime,
    }


@pytest.fixture
def cli():
    """Invoke the command-line entry point in-process."""
    from bellseries.cli import main

    def invoke(*argv):
        return main(list(argv))

    return invoke


@pytest.fixture
def read_json():
    def load(path):
        with open(path, "r", encoding="utf-8") as fp:
            return json.load(fp)

    return load
