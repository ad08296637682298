"""The benchmark's workloads: their inputs, command sequences and output checks.

Sizes are part of each workload's definition.  ``smoke=True`` shrinks them
so the benchmark's own tests run in seconds; pinned digests apply only at
full size and the default seed, every other run checks invariants.

Inputs are made from the benchmark seed alone (``random.Random(seed)``), so
the same seed gives the same files and command lines.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 1
PINNED = json.loads((Path(__file__).with_name("pinned.json")).read_text())


@dataclass
class Step:
    """One command of a workload, run as its own process."""

    name: str                 # CLI command, or "census" for the census launcher
    args: list[str]           # arguments after the command name
    outputs: list[str] = field(default_factory=list)   # files the command writes
    check: Callable[[dict, dict, Path], list[str]] | None = None
    pin: str | None = None    # "report", or an output file, whose digest is pinned


@dataclass
class Workload:
    name: str
    work_items: int           # slots, or tables in the swept spaces
    steps: list[Step]
    inputs: dict[str, str] = field(default_factory=dict)        # file -> text
    generate: list[list[str]] = field(default_factory=list)     # untimed CLI commands


def strip_timing(node):
    """Drop wall-clock fields so reports of equal work compare equal."""
    if isinstance(node, dict):
        return {k: strip_timing(v) for k, v in node.items() if k != "elapsed_s"}
    if isinstance(node, list):
        return [strip_timing(v) for v in node]
    return node


def report_digest(report: dict) -> str:
    text = json.dumps(strip_timing(report), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _frac(node) -> Fraction | None:
    return None if node is None else Fraction(node["num"], node["den"])


def _expect(problems: list[str], ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


# ---------------------------------------------------------------------------
# run_analysis: the measured-run path on a quantum source.


def run_analysis(seed: int, smoke: bool) -> Workload:
    slots = 2_000 if smoke else 200_000

    def check_simulate(report, _reports, work):
        problems: list[str] = []
        _expect(problems, report.get("slots") == slots, f"simulate slots {report.get('slots')}")
        lines = (work / "run.jsonl").read_bytes().count(b"\n")
        _expect(problems, lines == slots + 1, f"event log has {lines} lines")
        return problems

    def check_analyze(report, reports, _work):
        problems: list[str] = []
        _expect(problems, report.get("slots") == slots, f"analyze slots {report.get('slots')}")
        analysis = {k: v for k, v in report.items() if k != "detectors"}
        _expect(problems, analysis == reports["simulate"].get("analysis"),
                "analyze disagrees with the statistics simulate reported")
        _expect(problems, bool(report.get("detectors")), "analyze has no detector block")
        return problems

    def check_sica_check(report, _reports, _work):
        problems: list[str] = []
        _expect(problems, report.get("holds") is False and report.get("witnesses"),
                "a random-schedule quantum run passed the identity check")
        return problems

    def check_reorder(report, _reports, _work):
        problems: list[str] = []
        _expect(problems, report.get("success") is False and report.get("obstruction"),
                "reorder of a quantum run did not fail with an obstruction")
        return problems

    return Workload(
        name="run_analysis",
        work_items=slots,
        steps=[
            Step("simulate", ["--seed", str(seed), "--slots", str(slots), "--schedule", "random",
                              "--eta", "0.9", "--output", "run.jsonl"],
                 outputs=["run.jsonl"], check=check_simulate, pin="run.jsonl"),
            Step("analyze", ["--input", "run.jsonl", "--output", "analysis.json"],
                 outputs=["analysis.json"], check=check_analyze, pin="report"),
            Step("sica-check", ["--input", "run.jsonl"], check=check_sica_check),
            Step("sica-reorder", ["--input", "run.jsonl"], check=check_reorder),
        ],
    )


# ---------------------------------------------------------------------------
# identity_repair: the sica success path on a deterministic source.


def _instruction_table(rng: random.Random) -> dict:
    """Four copies of each of the 16 +-1 columns, in seeded order.

    Every column appears equally often, so the outcome mix per setting pair,
    and with it the reorder work, is nearly the same for every seed.
    """
    columns = [((q >> 3) & 1, (q >> 2) & 1, (q >> 1) & 1, q & 1) for q in range(16)] * 4
    rng.shuffle(columns)
    rows = ("a", "b", "a_prime", "b_prime")
    table = {"slots": len(columns)}
    for r, key in enumerate(rows):
        table[key] = [1 if col[r] else -1 for col in columns]
    return table


def _condensed_s_at_most_two(report, _reports, _work) -> list[str]:
    problems: list[str] = []
    analysis = report.get("analysis", {})
    _expect(problems, analysis.get("fully_measured") is True, "condensed table is not fully measured")
    s = _frac(analysis.get("chsh", {}).get("s"))
    _expect(problems, s is not None and s <= 2, f"condensed deterministic S = {s}, expected <= 2")
    return problems


def identity_repair(seed: int, smoke: bool) -> Workload:
    slots = 400 if smoke else 40_000
    rng = random.Random(seed)
    instructions = _instruction_table(rng)
    quarter = slots // 4
    words = ",".join(f"{rng.getrandbits(quarter):x}" for _ in range(2))
    deterministic = ["--model", "deterministic", "--input", "instructions.json",
                     "--slots", str(slots)]

    def check_reorder(report, _reports, work):
        problems: list[str] = []
        _expect(problems, report.get("success") is True, "reorder of a deterministic run failed")
        kept = report.get("kept_per_block", 0)
        _expect(problems, kept > 0 and 4 * kept + len(report.get("discarded_slots", [])) == slots,
                "kept and discarded slots do not add up to the run")
        _expect(problems, (work / "repaired.jsonl").exists(), "no repaired event log")
        return problems

    def check_complete(report, _reports, _work):
        problems: list[str] = []
        _expect(problems, report.get("identity_holds") is True, "completed table fails the identity")
        _expect(problems, report.get("analysis", {}).get("fully_measured") is True,
                "completed table is not fully measured")
        return problems

    return Workload(
        name="identity_repair",
        work_items=slots,
        inputs={"instructions.json": json.dumps(instructions)},
        generate=[
            ["simulate", "--seed", str(seed), "--schedule", "random", *deterministic,
             "--output", "random.jsonl"],
            ["simulate", "--seed", str(seed), "--schedule", "block", *deterministic,
             "--output", "block.jsonl"],
        ],
        steps=[
            Step("sica-reorder", ["--input", "random.jsonl", "--budget", str(slots),
                                  "--output", "repaired.jsonl"],
                 outputs=["repaired.jsonl"], check=check_reorder, pin="repaired.jsonl"),
            Step("sica-condense", ["--input", "repaired.jsonl", "--output", "condensed-run.json"],
                 outputs=["condensed-run.json"], check=_condensed_s_at_most_two, pin="report"),
            Step("sica-complete", ["--input", "block.jsonl", "--free-choices", words,
                                   "--output", "complete.json"],
                 outputs=["complete.json"], check=check_complete, pin="complete.json"),
            Step("sica-condense", ["--input", "complete.json", "--output", "condensed-table.json"],
                 outputs=["condensed-table.json"], check=_condensed_s_at_most_two, pin="report"),
        ],
    )


# ---------------------------------------------------------------------------
# exhaustive_sweep: the oracle sweeps and the census, no event logs.


def _census_run(rng: random.Random, slots: int) -> tuple[dict, int]:
    """A balanced run whose factual cells come from an identity-satisfying
    full table, and the number of identity-satisfying +-1 extensions.

    Each row's identity pairs the k-th slot of one distant regime with the
    k-th slot of the other, so every never-measured cell shares a class with
    exactly one other cell; a class is free (two choices) when neither of
    its two cells was measured.
    """
    half = slots // 2
    a_settings = ["alpha"] * half + ["alpha_prime"] * half
    b_settings = ["beta"] * half + ["beta_prime"] * half
    rng.shuffle(a_settings)
    rng.shuffle(b_settings)
    by_b = ([i for i in range(slots) if b_settings[i] == "beta"],
            [i for i in range(slots) if b_settings[i] == "beta_prime"])
    by_a = ([i for i in range(slots) if a_settings[i] == "alpha"],
            [i for i in range(slots) if a_settings[i] == "alpha_prime"])
    full: dict[str, list[int]] = {}
    free = 0
    for row, setting, active, pairs in (
        ("a", "alpha", a_settings, by_b), ("a_prime", "alpha_prime", a_settings, by_b),
        ("b", "beta", b_settings, by_a), ("b_prime", "beta_prime", b_settings, by_a),
    ):
        cells = [0] * slots
        for left, right in zip(*pairs):
            cells[left] = cells[right] = rng.choice((1, -1))
            free += active[left] != setting and active[right] != setting
        full[row] = cells
    run = {
        "a_settings": a_settings,
        "b_settings": b_settings,
        "a": [full["a" if s == "alpha" else "a_prime"][i] for i, s in enumerate(a_settings)],
        "b": [full["b" if s == "beta" else "b_prime"][i] for i, s in enumerate(b_settings)],
    }
    return run, 2 ** free


def exhaustive_sweep(seed: int, smoke: bool) -> Workload:
    # (oracle arguments, space size, expected maximum or None)
    if smoke:
        sweeps = [
            (["--objective", "s-eta", "--slots", "2", "--alphabet", "pmz", "--constraint", "eta<1"],
             3 ** 8, None),
            (["--objective", "cardinality", "--slots", "2", "--alphabet", "pmz"], 3 ** 8, None),
            (["--objective", "chsh", "--slots", "2"], 2 ** 8, Fraction(2)),
        ]
        census_slots = 6
    else:
        sweeps = [
            (["--objective", "s-eta", "--slots", "4", "--alphabet", "pmz", "--constraint", "eta<1"],
             3 ** 16, Fraction(8, 3)),
            (["--objective", "cardinality", "--slots", "4", "--alphabet", "pmz"], 3 ** 16, None),
            (["--objective", "chsh", "--slots", "6"], 2 ** 24, Fraction(2)),
        ]
        census_slots = 10
    census_run, census_count = _census_run(random.Random(seed), census_slots)
    census_space = 2 ** (2 * census_slots)

    def check_sweep(space: int, expected_max: Fraction | None):
        def check(report, _reports, _work):
            problems: list[str] = []
            _expect(problems, report.get("tables_scanned") == space,
                    f"scanned {report.get('tables_scanned')} tables, expected {space}")
            if report.get("objective") == "cardinality":
                _expect(problems, report.get("violations") == 0,
                        f"{report.get('violations')} counting-bound violations")
            else:
                got = _frac(report.get("max"))
                _expect(problems, got is not None, "sweep found no maximum")
                if expected_max is not None:
                    _expect(problems, got == expected_max, f"maximum {got}, expected {expected_max}")
            return problems
        return check

    def check_census(report, _reports, _work):
        problems: list[str] = []
        _expect(problems, report.get("space_size") == census_space,
                f"census space {report.get('space_size')}, expected {census_space}")
        _expect(problems, report.get("count") == census_count,
                f"census count {report.get('count')}, expected {census_count}")
        return problems

    steps = [Step("oracle", args, check=check_sweep(space, best)) for args, space, best in sweeps]
    steps.append(Step("census", ["census-run.json"], check=check_census, pin="report"))
    return Workload(
        name="exhaustive_sweep",
        work_items=sum(space for _, space, _ in sweeps) + census_space,
        inputs={"census-run.json": json.dumps(census_run)},
        steps=steps,
    )


WORKLOADS = {
    "run_analysis": run_analysis,
    "identity_repair": identity_repair,
    "exhaustive_sweep": exhaustive_sweep,
}
