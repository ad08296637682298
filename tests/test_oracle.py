import itertools
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from bellseries import _sweep, refdata
from bellseries.errors import BudgetExceeded, PreconditionError
from bellseries.model import (
    ASetting,
    BSetting,
    Pairing,
    RecordedRun,
    block_halves,
    custom_schedule,
    table_from_run,
)
from bellseries.oracle import (
    EnumSpec,
    census_complete_tables,
    max_chsh,
    max_clauser_horne,
    max_s_eta,
    sweep_cardinality_bound,
)
from bellseries.sica import check_sica
from bellseries.stats import chsh, clauser_horne_j, column_props, correlation, table_eta

import naive_oracle
import naive_stats
from conftest import table_rows


def test_single_pair_tables():
    result = max_chsh(EnumSpec(slots=2))
    assert result.max_value == 2
    assert result.tables_scanned == 256
    # the earliest witness in scan order is the all-minus table, whose four
    # correlations are all exactly +1
    first = result.witnesses[0]
    assert first.a == (-1, -1)
    for pairing in Pairing:
        assert correlation(first, pairing).e == 1


def test_two_pair_tables():
    result = max_chsh(EnumSpec(slots=4))
    assert result.max_value == 2
    assert result.tables_scanned == 65536


def test_a_zero_witness_cap_lists_no_witness():
    # The maximum is still read off one witness, which is then not listed.
    result = max_chsh(EnumSpec(slots=2), witness_cap=0)
    assert result.max_value == 2 and result.witnesses == ()


def test_witness_recomputes_exactly():
    result = max_chsh(EnumSpec(slots=4))
    w = result.witnesses[0]
    assert chsh(w) == result.max_value
    assert naive_stats.naive_chsh(table_rows(w)) == result.max_value


def test_plus_counting_functional_never_positive():
    for slots in (2, 4):
        result = max_clauser_horne(EnumSpec(slots=slots))
        assert result.max_value == 0
        assert clauser_horne_j(result.witnesses[0]).j == 0


def test_identity_constrained_search_is_tiny():
    result = max_chsh(EnumSpec(slots=4, constraint="sica"))
    assert result.max_value == 2
    assert result.tables_scanned == 256  # 8 free cells, not 16
    for w in result.witnesses:
        assert check_sica(w, block_halves(4)).holds


def test_identity_constrained_eight_slots():
    result = max_chsh(EnumSpec(slots=8, constraint="sica"))
    assert result.max_value == 2
    assert result.tables_scanned == 65536
    assert check_sica(result.witnesses[0], block_halves(8)).holds


def test_eight_slot_identity_witnesses_follow_the_block_layout():
    result = max_chsh(EnumSpec(slots=8, constraint="sica"), witness_cap=10)
    first = []
    for table in naive_oracle.tables("pm", 8, sica=True):
        s = chsh(table)
        assert s is None or s <= result.max_value
        if s == result.max_value:
            first.append(table)
            if len(first) == 10:
                break
    assert result.witnesses == tuple(first)


def test_counting_bound_sweep_small():
    sweep = sweep_cardinality_bound(EnumSpec(slots=2, alphabet="pmz"))
    assert sweep.tables_scanned == 6561
    assert sweep.violations == 0
    assert sweep.min_slack == 0
    lhs, rhs = naive_stats.naive_cardinality_sides(table_rows(sweep.witness))
    assert lhs == rhs  # the witness sits exactly on the bound


def test_counting_bound_sweep_rejects_pm():
    with pytest.raises(PreconditionError):
        sweep_cardinality_bound(EnumSpec(slots=2, alphabet="pm"))


def test_efficiency_strata_at_one_pair():
    full = max_s_eta(
        EnumSpec(slots=2, alphabet="pmz", constraint=("eta_at_least", Fraction(1)))
    )
    assert full.max_value == 2
    assert full.admissible == 288
    below = max_s_eta(
        EnumSpec(slots=2, alphabet="pmz", constraint=("eta_below", Fraction(1)))
    )
    assert below.max_value == 2  # one pair per setting is too small to violate


@pytest.mark.parametrize("kind", ["eta_below", "eta_at_least", "eta_at_most"])
@pytest.mark.parametrize("q", [0.5, 1.0, True, False, "1", None], ids=repr)
def test_an_inexact_efficiency_threshold_is_refused(kind, q):
    with pytest.raises(PreconditionError, match=f"an int or a Fraction, got {type(q).__name__}$"):
        max_chsh(EnumSpec(slots=1, constraint=(kind, q)))


@pytest.mark.parametrize("kind", ["eta_below", "eta_at_least", "eta_at_most"])
@pytest.mark.parametrize("q, slots, message", [
    (Fraction(2**62 - 1, 2**62), 2, "too fine"),
    (Fraction(1, 2**62), 1, None),
    (Fraction(1, 2**62), 2, "too fine"),
    (Fraction(1, 10**22), 1, "too fine"),
    (Fraction(10**5000), 1, "out of range"),
    (-(10**5000), 1, "out of range"),
], ids=["wraps", "fits", "reaches-2^63", "overflows", "huge", "huge-negative"])
def test_an_efficiency_threshold_is_refused_before_its_products_leave_int64(kind, q, slots, message):
    """The mask multiplies counts of at most ``slots`` by q's denominator and
    numerator in int64, so q's denominator times ``slots`` must stay below
    2^63; a refusal shows none of q's digits."""
    spec = EnumSpec(slots=slots, alphabet="pmz", constraint=(kind, q))
    if message is None:
        spec.validate()
        return
    with pytest.raises(PreconditionError, match=message) as raised:
        spec.validate()
    assert len(str(raised.value)) < 200


@pytest.mark.parametrize("kind", ["eta_below", "eta_at_least", "eta_at_most"])
def test_an_int_efficiency_threshold_is_its_fraction(kind):
    for q in (0, 1):
        as_int, as_fraction = (
            replace(max_chsh(EnumSpec(slots=1, alphabet="pmz", constraint=(kind, t))), elapsed=0)
            for t in (q, Fraction(q))
        )
        assert as_int == as_fraction


def test_stratum_witness_respects_constraint():
    result = max_s_eta(
        EnumSpec(slots=2, alphabet="pmz", constraint=("eta_at_least", Fraction(1)))
    )
    assert table_eta(result.witnesses[0]) == 1


def test_relaxing_the_constraint_never_lowers_the_max():
    free = max_chsh(EnumSpec(slots=4)).max_value
    constrained = max_chsh(EnumSpec(slots=4, constraint="sica")).max_value
    equal_counts = max_chsh(EnumSpec(slots=4, constraint="equal_nc")).max_value
    assert free >= constrained
    assert free >= equal_counts
    loose = max_s_eta(
        EnumSpec(slots=2, alphabet="pmz", constraint=("eta_at_least", Fraction(1, 2)))
    ).max_value
    tight = max_s_eta(
        EnumSpec(slots=2, alphabet="pmz", constraint=("eta_at_least", Fraction(1)))
    ).max_value
    assert loose >= tight


def test_empty_stratum_reports_no_tables():
    # without zeros every retention is 1, so the below-one stratum is empty
    result = max_chsh(
        EnumSpec(slots=2, alphabet="pm", constraint=("eta_below", Fraction(1)))
    )
    assert result.max_value is None
    assert result.admissible == 0
    assert "no table" in result.note


def test_budget_refusal_reports_requirement():
    spec = EnumSpec(slots=7)
    with pytest.raises(BudgetExceeded) as err:
        max_chsh(spec)
    assert err.value.required == 16 ** 7


def test_census_counts_a_large_block_run_without_a_budget():
    # 16,000 missing cells in 8,000 identity pairs, 4,000 of them free: the
    # census counts pairs, so no size of the extension space refuses it.
    run = RecordedRun(block_halves(8000), (1,) * 8000, (1,) * 8000)
    census = census_complete_tables(run)
    assert census.count == census.construction_count == 2**4000
    assert census.space_size == 2**16000
    assert len(census.samples) == 64
    for sample in census.samples:
        assert check_sica(sample, run.schedule).holds


def test_spec_validation():
    with pytest.raises(PreconditionError):
        max_chsh(EnumSpec(slots=0))
    with pytest.raises(PreconditionError):
        max_chsh(EnumSpec(slots=2, alphabet="abc"))
    with pytest.raises(PreconditionError):
        max_chsh(EnumSpec(slots=2, constraint="sica"))  # needs 4 or 8 slots
    with pytest.raises(PreconditionError):
        max_chsh(EnumSpec(slots=2, constraint=("eta_at_least", Fraction(3, 2))))


def test_census_matches_construction_on_published_run():
    run = refdata.fig6("black")
    census = census_complete_tables(run)
    assert census.count == 16
    assert census.construction_count == 16
    assert len(census.samples) == 16
    for sample in census.samples:
        assert check_sica(sample, run.schedule).holds


def test_census_trivial_run():
    run = RecordedRun(block_halves(4), (1, 1, 1, 1), (1, 1, 1, 1))
    census = census_complete_tables(run)
    assert census.count == 4
    assert census.construction_count == 4


@pytest.mark.parametrize("run", [
    # recorded a-values already differ across the two regimes, so no
    # assignment of the missing cells can restore the identity
    RecordedRun(
        block_halves(8),
        (1, 1, 1, -1, 1, 1, 1, 1),
        (1, 1, 1, 1, 1, 1, 1, 1),
    ),
    # row a has 4 slots under beta and 2 under beta': its regimes cannot pair
    RecordedRun(
        custom_schedule([ASetting.ALPHA] * 6, [BSetting.BETA] * 4 + [BSetting.BETA_PRIME] * 2),
        (1,) * 6,
        (1,) * 6,
    ),
], ids=["values-differ", "lengths-differ"])
def test_census_counts_zero_for_impossible_runs(run):
    census = census_complete_tables(run)
    assert (census.count, census.samples) == (0, ())


def test_scan_reports_are_self_describing():
    result = max_chsh(EnumSpec(slots=2))
    assert result.space_size == 256
    assert result.admissible == result.tables_scanned
    assert result.elapsed >= 0


# ---------------------------------------------------------------------------
# Cross-checks against the table-by-table reference in naive_oracle


_SWEEPS = {"chsh": max_chsh, "ch": max_clauser_horne, "s_eta": max_s_eta}


@pytest.mark.parametrize(
    "objective, alphabet, slots, constraint",
    [
        (objective, alphabet, slots, constraint)
        for objective in ("chsh", "ch", "s_eta")
        for alphabet, slots, constraint in (
            ("pm", 2, None),
            ("pmz", 2, None),
            ("pm", 4, "sica"),
            ("pmz", 2, "equal_nc"),
        )
    ]
    + [
        ("s_eta", "pmz", 2, ("eta_at_least", Fraction(1, 2))),
        ("s_eta", "pmz", 2, ("eta_at_most", Fraction(2, 3))),
        ("s_eta", "pmz", 2, ("eta_below", Fraction(1))),
        ("chsh", "pmz", 2, ("eta_below", Fraction(1, 2))),
        ("ch", "pmz", 2, ("eta_at_least", Fraction(1))),
        ("chsh", "pm", 2, "equal_nc"),
        ("ch", "pmz", 2, ("eta_at_most", Fraction(1, 2))),
    ]
    + [(objective, "pmz", 4, "sica") for objective in ("chsh", "ch", "s_eta")],
)
def test_sweep_matches_reference(objective, alphabet, slots, constraint):
    spec = EnumSpec(slots=slots, alphabet=alphabet, constraint=constraint)
    result = _SWEEPS[objective](spec, witness_cap=5)
    best, admissible, scanned, witnesses = naive_oracle.naive_max(
        objective, alphabet, slots, constraint, witness_cap=5
    )
    assert result.max_value == best
    assert result.admissible == admissible
    assert result.tables_scanned == scanned
    assert result.witnesses == witnesses


class _Counts(dict):
    """Each named count over every one-column pmz table, and which were read."""

    def __init__(self, names):
        classes = itertools.product((-1, 0, 1), repeat=4)
        columns = [column_props(col) for col in classes]
        super().__init__({name: np.array([col[name] for col in columns]) for name in names})
        self.read = set()

    def __getitem__(self, name):
        self.read.add(name)
        return super().__getitem__(name)


@pytest.mark.parametrize("objective", sorted(_sweep.OBJECTIVES))
def test_each_objective_reads_exactly_its_declared_counts(objective):
    # A count it does not declare would raise KeyError.
    reads, scaled, _power = _sweep.OBJECTIVES[objective]
    counts = _Counts(reads)
    ok, values = scaled(counts, np.array([0, 1]))
    assert len(ok) == len(values) == 81
    assert counts.read == set(reads)


@pytest.mark.parametrize("constraint", [
    None, "sica", "equal_nc", ("eta_at_least", Fraction(1, 2)),
    ("eta_at_most", Fraction(1, 2)), ("eta_below", Fraction(1)),
])
def test_each_constraint_reads_exactly_its_declared_counts(constraint):
    reads = _sweep._constraint_reads(constraint)
    counts = _Counts(reads)
    _sweep._constraint_mask(constraint, counts)
    assert counts.read == set(reads)


@pytest.mark.parametrize("objective, constraint, pairs", [
    # The benchmark's two pmz 4-slot sweeps: 1,350 distinct halves a side
    # over every count, against 691 and 501 over the counts each reads.
    ("s_eta", ("eta_below", Fraction(1)), 691**2),
    ("cardinality", None, 501**2),
    ("ch", None, 3**2),
])
def test_sweeps_pair_only_the_distinct_halves_of_what_they_read(objective, constraint, pairs):
    spec = EnumSpec(slots=4, alphabet="pmz", constraint=constraint)
    left, right = _sweep._halves(spec, _sweep.sweep_reads(spec, objective))
    assert len(left.vectors) * len(right.vectors) == pairs


@pytest.mark.parametrize("slots, constraint", [
    (1, None),
    (2, None),
    (2, ("eta_below", Fraction(1))),
    (2, ("eta_at_least", Fraction(1, 2))),
    (2, ("eta_at_most", Fraction(2, 3))),
    (2, "equal_nc"),
    (4, "sica"),
    # No table has an efficiency below 0: nothing is admissible.
    (2, ("eta_below", Fraction(0))),
], ids=["1", "2", "2-eta_below-1", "2-eta_at_least-1/2", "2-eta_at_most-2/3", "2-equal_nc",
        "4-sica", "2-eta_below-0"])
def test_cardinality_sweep_matches_reference(slots, constraint):
    sweep = sweep_cardinality_bound(EnumSpec(slots=slots, alphabet="pmz", constraint=constraint))
    scanned, violations, min_slack, witness = naive_oracle.naive_cardinality(slots, constraint)
    assert sweep.tables_scanned == scanned
    assert sweep.violations == violations
    assert sweep.min_slack == min_slack
    assert sweep.witness == witness


def _census_matching_reference(run):
    census = census_complete_tables(run)
    count, samples = naive_oracle.naive_census(run)
    assert census.count == count
    assert list(census.samples) == samples
    return census.count


def test_census_matches_reference_on_every_small_block_run():
    schedule = block_halves(4)
    hits = 0
    for a in itertools.product((1, -1, 0), repeat=4):
        for b in itertools.product((1, -1, 0), repeat=4):
            hits += _census_matching_reference(RecordedRun(schedule, a, b)) > 0
    assert hits == 144  # a0 = a1, a'2 = a'3, and four nonzero b, b' cells that fix partners


def _balanced_run(rng, slots):
    """A random balanced schedule with outcomes read off an identity-
    satisfying table, then a few flipped or zeroed."""
    half = slots // 2
    a_settings = [ASetting.ALPHA] * half + [ASetting.ALPHA_PRIME] * half
    b_settings = [BSetting.BETA] * half + [BSetting.BETA_PRIME] * half
    rng.shuffle(a_settings)
    rng.shuffle(b_settings)
    full = {}
    for key, distant in (
        ("a", b_settings), ("a_prime", b_settings), ("b", a_settings), ("b_prime", a_settings),
    ):
        # the k-th slot under each distant setting shares the k-th value
        values = [rng.choice((1, -1)) for _ in range(half)]
        position = {setting: 0 for setting in set(distant)}
        row = []
        for setting in distant:
            row.append(values[position[setting]])
            position[setting] += 1
        full[key] = row

    def outcome(value):
        return rng.choice((0, -value)) if rng.random() < 0.1 else value

    a = [outcome(full[s.row][i]) for i, s in enumerate(a_settings)]
    b = [outcome(full[s.row][i]) for i, s in enumerate(b_settings)]
    return RecordedRun(custom_schedule(a_settings, b_settings), a, b)


@pytest.mark.parametrize("slots", [6, 8])
def test_census_matches_reference_on_random_balanced_runs(slots):
    rng = random.Random(slots)
    counts = set()
    for _ in range(25):
        counts.add(_census_matching_reference(_balanced_run(rng, slots)))
    assert 0 in counts and len(counts) > 1  # both outcomes are exercised
