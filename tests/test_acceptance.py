"""Acceptance gate: one test per shipping criterion.

Each test prints a single ``criterion N: PASS/FAIL`` line (visible under
``pytest -s``; under plain pytest the test outcome itself is the line)
and enforces the stated tolerance and time limit.
"""

import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

import bellseries as bs
from bellseries import refdata
from bellseries.model import (
    Pairing,
    SeriesTable,
    block_halves,
    random_per_slot,
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
from bellseries.simulate import SourceConfig, replay, simulate

README = Path(__file__).resolve().parents[1] / "README.md"


def _verdict(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_full_table_exact_statistics():
    start = time.monotonic()
    table = refdata.fig2()
    es = {p: bs.correlation(table, p).e for p in Pairing}
    detail = bs.chsh_detail(table)
    elapsed = time.monotonic() - start
    ok = (
        all(abs(e) == Fraction(1, 2) for e in es.values())
        and es[Pairing.AB] == Fraction(1, 2)
        and detail.s == 2
        and elapsed < 1.0
    )
    _verdict(1, ok, f"E magnitudes 1/2, S={detail.s}, {elapsed:.3f}s")


def test_criterion_02_missed_detection_exact_statistics():
    start = time.monotonic()
    table = refdata.fig3()
    eta = bs.table_eta(table)
    e_ab = bs.correlation(table, Pairing.AB).e
    s = bs.chsh(table)
    bound = bs.efficiency_bound(table)
    st = bs.set_stats(table)
    cb = bs.cardinality_bound(table)
    elapsed = time.monotonic() - start
    ok = (
        eta == Fraction(14, 15)
        and e_ab == Fraction(8, 14)
        and s == Fraction(32, 14)
        and bound.product == Fraction(32, 15)
        and cb.rhs == 32
        and cb.lhs == 32
        and st.n_alpha_both_same == 6
        and st.n_alpha_both_diff == 7
        and elapsed < 1.0
    )
    _verdict(
        2,
        ok,
        f"eta={eta}, E(ab)={e_ab}, S={s}, S*eta={bound.product}, "
        f"bound {cb.lhs}<={cb.rhs}, overlap counts ({st.n_alpha_both_same}, "
        f"{st.n_alpha_both_diff}), {elapsed:.3f}s",
    )


def test_criterion_03_full_tables_never_beat_two():
    start = time.monotonic()
    max_s = {}
    max_j = {}
    for slots in (2, 4, 6):
        max_s[slots] = max_chsh(EnumSpec(slots=slots)).max_value
        max_j[slots] = max_clauser_horne(EnumSpec(slots=slots)).max_value
    elapsed = time.monotonic() - start
    ok = (
        all(v == 2 for v in max_s.values())
        and all(v == 0 for v in max_j.values())
        and elapsed < 300.0
    )
    _verdict(3, ok, f"max S {max_s}, max J {max_j}, {elapsed:.1f}s")


def test_criterion_04_counting_bound_has_no_exceptions():
    start = time.monotonic()
    sweep = sweep_cardinality_bound(EnumSpec(slots=4, alphabet="pmz"))
    elapsed = time.monotonic() - start
    ok = (
        sweep.tables_scanned == 3**16
        and sweep.violations == 0
        and elapsed < 600.0
    )
    _verdict(
        4,
        ok,
        f"{sweep.tables_scanned} tables, {sweep.violations} violations, "
        f"min slack {sweep.min_slack}, {elapsed:.1f}s",
    )


def test_criterion_05_efficiency_strata():
    start = time.monotonic()
    full = max_s_eta(
        EnumSpec(slots=4, alphabet="pmz", constraint=("eta_at_least", Fraction(1)))
    )
    below = max_s_eta(
        EnumSpec(slots=4, alphabet="pmz", constraint=("eta_below", Fraction(1)))
    )
    witness = below.witnesses[0]
    bound = bs.efficiency_bound(witness)
    elapsed = time.monotonic() - start
    readme_documents_it = (
        README.exists() and "statistical" in README.read_text(encoding="utf-8")
    )
    ok = (
        full.max_value == 2
        and below.max_value == Fraction(8, 3)
        and below.max_value > 2
        and bound.eta < 1
        and bound.verdict.value == "violates"
        and readme_documents_it
    )
    _verdict(
        5,
        ok,
        f"eta=1 stratum max {full.max_value}, eta<1 stratum max "
        f"{below.max_value} (witness eta {bound.eta}), README notes the "
        f"bound is statistical: {readme_documents_it}, {elapsed:.1f}s",
    )


def test_criterion_06_worked_example_pipeline():
    start = time.monotonic()
    black = refdata.fig6("black")
    red = refdata.fig6("red")

    s_black = bs.chsh(table_from_run(black))
    black_out = bs.reorder_to_sica(black)

    red_out = bs.reorder_to_sica(red)
    red_fixed = bs.apply_plan(red, red_out.plan)
    red_cond = bs.condense(table_from_run(red_fixed), red_fixed.schedule)

    built = bs.build_complete_table(black, *refdata.fig8_free_choices()).complete
    fig8 = refdata.fig8()
    cond9 = built.condense()
    fig9 = refdata.fig9()

    res = built.resample({Pairing.ABP: (2, 3)})
    elapsed = time.monotonic() - start
    ok = (
        s_black == 4
        and not black_out.success
        and red_out.success
        and red_cond == refdata.fig7()
        and bs.chsh(red_cond) == 2
        and built.table == fig8.table
        and built.provenance == fig8.provenance
        and cond9.table == fig9.table
        and res.stats[Pairing.ABP].e == 1
        and res.s == 2
        and elapsed < 1.0
    )
    _verdict(
        6,
        ok,
        f"black S={s_black} reorder fails, red condenses to S=2, "
        f"completion and condensation reproduce the published tables, "
        f"resampled E=+1 with S={res.s}, {elapsed:.3f}s",
    )


def test_criterion_07_extension_census():
    start = time.monotonic()
    black = refdata.fig6("black")
    block_es = {p: bs.correlation(table_from_run(black), p).e for p in Pairing}
    tables = set()
    all_valid = True
    for result in bs.enumerate_complete_tables(black):
        complete = result.complete
        if not complete.check().holds:
            all_valid = False
        facts = complete.factual_correlations()
        if any(facts[p].e != block_es[p] for p in Pairing):
            all_valid = False
        tables.add(complete.table)
    census = census_complete_tables(black)
    census_tables = set(census.samples)
    elapsed = time.monotonic() - start
    ok = (
        len(tables) == 16
        and all_valid
        and census.count == 16
        and census.construction_count == 16
        and census_tables == tables
        and elapsed < 60.0
    )
    _verdict(
        7,
        ok,
        f"{len(tables)} distinct completions, census count {census.count}, "
        f"sample sets match: {census_tables == tables}, {elapsed:.1f}s",
    )


def test_criterion_08_source_models():
    start = time.monotonic()
    target = 2 * math.sqrt(2)
    quantum_ok = True
    devs = []
    for seed in range(10):
        sched = random_per_slot(200000, seed * 1000 + 1)
        run = simulate(SourceConfig(model="quantum", schedule=sched,
                                    seed=seed * 1000 + 2))
        s = float(bs.chsh_detail(table_from_run(run)).s)
        devs.append(abs(s - target))
        if abs(s - target) > 0.02:
            quantum_ok = False
        if bs.reorder_to_sica(run).success:
            quantum_ok = False

    deterministic_ok = True
    for seed in range(10):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        rows = (rng.integers(0, 2, size=(4, 4)) * 2 - 1).tolist()
        instructions = SeriesTable.from_rows(*(tuple(r) for r in rows))
        sched = random_per_slot(400, 7000 + seed)
        run = simulate(SourceConfig(model="deterministic", schedule=sched,
                                    seed=0, instructions=instructions))
        outcome = bs.reorder_to_sica(run, budget=run.slots)
        if not outcome.success:
            deterministic_ok = False
            continue
        fixed = bs.apply_plan(run, outcome.plan)
        condensed = bs.condense(table_from_run(fixed), fixed.schedule)
        s = bs.chsh(condensed)
        if s is None or s > 2:
            deterministic_ok = False
    elapsed = time.monotonic() - start
    ok = quantum_ok and deterministic_ok and elapsed < 60.0
    _verdict(
        8,
        ok,
        f"10 quantum runs within 0.02 of 2.828 (worst {max(devs):.4f}) and "
        f"unreorderable; 10 deterministic runs condense within the bound; "
        f"{elapsed:.1f}s",
    )


def test_criterion_09_zero_fill_never_applicable():
    start = time.monotonic()
    ok = True
    for seed in range(100):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        slots = int(rng.integers(1, 9)) * 4
        rows = (rng.integers(0, 2, size=(4, slots)) * 2 - 1).tolist()
        table = SeriesTable.from_rows(*(tuple(r) for r in rows))
        run = replay(table, block_halves(slots))
        filled = bs.fill_counterfactual(run)
        for p in Pairing:
            for frac in bs.station_retention(filled, p).values():
                if frac is None or frac > Fraction(1, 2):
                    ok = False
        if bs.efficiency_bound(filled).verdict.value != "not_applicable":
            ok = False
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10.0
    _verdict(
        9,
        ok,
        f"100 seeded zero-filled runs: retentions at most 1/2 and the "
        f"efficiency-scaled test never applies, {elapsed:.1f}s",
    )
