from fractions import Fraction

import pytest

from bellseries import refdata
from bellseries.errors import PreconditionError
from bellseries.model import ROW_KEYS, Pairing, SeriesTable, random_per_slot
from bellseries.simulate import SourceConfig, simulate
from bellseries.stats import (
    DETECTION,
    BoundVerdict,
    _counts,
    cardinality_bound,
    chsh,
    chsh_detail,
    clauser_horne_j,
    correlation,
    correlation_over_slots,
    correlation_report,
    efficiency_bound,
    overlap_fraction,
    run_detector_efficiencies,
    set_stats,
    station_overlap_min,
    station_retention,
    table_eta,
)

import naive_stats
from conftest import make_rng, random_table, table_rows


# --- frozen values for the worked examples ---------------------------------


def test_reference_full_table_correlations():
    table = refdata.fig2()
    assert correlation(table, Pairing.AB).e == Fraction(1, 2)
    assert correlation(table, Pairing.ABP).e == Fraction(-1, 2)
    assert correlation(table, Pairing.APB).e == Fraction(1, 2)
    assert correlation(table, Pairing.APBP).e == Fraction(1, 2)
    detail = chsh_detail(table)
    assert detail.s == 2
    assert detail.nc_equal
    assert table_eta(table) == 1
    assert efficiency_bound(table).verdict is BoundVerdict.WITHIN_BOUND


def test_reference_missed_detection_table():
    table = refdata.fig3()
    ab = correlation(table, Pairing.AB)
    assert (ab.e, ab.n_c) == (Fraction(8, 14), 14)
    detail = chsh_detail(table)
    assert detail.s == Fraction(32, 14)
    assert table_eta(table) == Fraction(14, 15)
    bound = efficiency_bound(table)
    assert bound.product == Fraction(32, 15)
    assert bound.verdict is BoundVerdict.VIOLATES

    st = set_stats(table)
    assert st.n_alpha_both_same == 6
    assert st.n_alpha_both_diff == 7

    cb = cardinality_bound(table)
    assert cb.lhs == 32
    assert cb.rhs == 32
    assert cb.holds


def test_station_overlap_minimum():
    assert station_overlap_min(refdata.fig2(), "a") == 1
    assert station_overlap_min(refdata.fig3(), "a") == Fraction(13, 14)
    assert station_overlap_min(refdata.fig3(), "a_prime") == Fraction(13, 14)


def test_per_detector_efficiency_on_run():
    det = run_detector_efficiencies(refdata.fig1())
    assert det["a+"]["efficiency"] == Fraction(2, 3)
    assert det["a+"]["singles"] == 3
    assert det["a-"]["efficiency"] == Fraction(1, 2)
    assert det["b-"]["efficiency"] == 1


def test_overlap_fraction_guarantee():
    assert overlap_fraction(Fraction(1)) == 1
    assert overlap_fraction(Fraction(14, 15)) == Fraction(13, 14)
    # at half retention or below, nothing is guaranteed to overlap
    assert overlap_fraction(Fraction(1, 2)) == 0
    assert overlap_fraction(Fraction(1, 3)) == 0


# --- generic behavior -------------------------------------------------------


def test_set_stats_requires_full_table():
    partial = SeriesTable.from_rows((1, None), (1, 1), (-1, 1), (1, -1))
    with pytest.raises(PreconditionError, match="complete the table first"):
        set_stats(partial)


def test_set_verdicts_refuse_a_table_of_no_slots():
    empty = SeriesTable.from_rows((), (), (), ())
    for verdict in (set_stats, cardinality_bound):
        with pytest.raises(PreconditionError, match="no slots"):
            verdict(empty)


def test_chsh_undefined_without_coincidences():
    table = SeriesTable.from_rows((1, 0), (0, 1), (1, 0), (0, 1))
    assert chsh(table) is None


def test_retention_none_when_station_silent():
    table = SeriesTable.from_rows((0, 0), (1, 1), (1, -1), (1, 1))
    ret = station_retention(table, Pairing.AB)
    assert ret["a"] is None


def test_report_is_json_shaped():
    report = correlation_report(refdata.fig3())
    assert report["schema_version"] == 1
    s = report["chsh"]["s"]
    assert (s["num"], s["den"]) == (16, 7)
    assert abs(s["decimal"] - 16 / 7) < 1e-12
    assert report["efficiency"]["eta"] == {
        "num": 14, "den": 15, "decimal": 14 / 15,
    }
    assert report["cardinality_bound"]["rhs"] == 32
    assert report["set_stats"]["n_alpha_both_same"] == 6


# --- cross-checks against the naive reference implementations --------------


def _frac(node):
    return None if node is None else Fraction(node["num"], node["den"])


def test_matches_naive_on_random_tables():
    rng = make_rng(20)
    for i in range(600):
        alphabet = (-1, 0, 1) if i % 2 else (-1, 0, 1, None)
        table = random_table(rng, alphabet=alphabet)
        rows = table_rows(table)
        report = correlation_report(table)
        for pairing in Pairing:
            stat = correlation(table, pairing)
            num, den = naive_stats.naive_correlation(
                rows, pairing.a_row, pairing.b_row
            )
            assert (stat.n_c, stat.total) == (den, num)
            assert stat.e == naive_stats.naive_e(rows, pairing.a_row, pairing.b_row)
            entry = report["pairings"][pairing.key]
            assert (entry["n_c"], entry["total"], _frac(entry["e"])) == (
                stat.n_c, stat.total, stat.e,
            )
            retention = naive_stats.naive_retention(rows, pairing.a_row, pairing.b_row)
            assert station_retention(table, pairing) == retention
            assert {
                row: _frac(node)
                for row, node in report["efficiency"]["retention"][pairing.key].items()
            } == retention
        assert chsh(table) == naive_stats.naive_chsh(rows)
        assert _frac(report["chsh"]["s"]) == naive_stats.naive_chsh(rows)
        ch = clauser_horne_j(table)
        coincidences, singles_a, singles_b = naive_stats.naive_ch_counts(rows)
        assert ch.j == naive_stats.naive_ch_j(rows)
        assert {p.key: n for p, n in ch.coincidences.items()} == coincidences
        assert (ch.singles_a, ch.singles_b) == (singles_a, singles_b)
        assert report["clauser_horne"] == {
            "j": ch.j, "coincidences": coincidences,
            "singles_a": singles_a, "singles_b": singles_b,
        }
        assert table_eta(table) == naive_stats.naive_eta(rows)
        assert _frac(report["efficiency"]["eta"]) == naive_stats.naive_eta(rows)
        counts = _counts(table)
        for key in ROW_KEYS:
            assert (counts[f"recorded_{key}"], counts[DETECTION[key]]) == (
                naive_stats.naive_row_counts(rows, key)
            )
        assert report["fully_measured"] == (None not in sum(rows.values(), ()))
        if report["fully_measured"]:
            st = set_stats(table)
            sizes = naive_stats.naive_set_sizes(rows)
            assert {name: getattr(st, name) for name in sizes} == sizes
            assert {name: report["set_stats"][name] for name in sizes} == sizes


def test_correlation_over_slots_matches_naive():
    rng = make_rng(23)
    for _ in range(300):
        table = random_table(rng, alphabet=(-1, 0, 1, None))
        rows = table_rows(table)
        picks = int(rng.integers(0, 3 * table.slots))
        slots = [int(i) for i in rng.integers(0, table.slots, size=picks)]
        for pairing in Pairing:
            stat = correlation_over_slots(table, pairing, slots)
            num, den = naive_stats.naive_correlation_over_slots(
                rows, pairing.a_row, pairing.b_row, slots
            )
            assert (stat.n_c, stat.total) == (den, num)
            assert stat.e == (Fraction(num, den) if den else None)


def test_run_detector_efficiencies_match_per_slot_loop():
    for seed in range(20):
        schedule = random_per_slot(40, seed)
        run = simulate(SourceConfig("quantum", schedule, seed=seed, eta=0.6))
        expected = naive_stats.naive_run_detectors(run)
        det = run_detector_efficiencies(run)
        assert list(det) == sorted(expected)
        for label, (singles, coincidences) in expected.items():
            assert det[label] == {
                "singles": singles,
                "coincidences": coincidences,
                "efficiency": Fraction(coincidences, singles),
            }


def test_matches_naive_counting_bound():
    rng = make_rng(21)
    for i in range(300):
        alphabet = (-1, 1) if i % 2 else (-1, 0, 1)
        table = random_table(rng, alphabet=alphabet)
        lhs, rhs = naive_stats.naive_cardinality_sides(table_rows(table))
        cb = cardinality_bound(table)
        assert (cb.lhs, cb.rhs) == (lhs, rhs)
        assert cb.holds, "the counting bound is an identity, zeros included"
