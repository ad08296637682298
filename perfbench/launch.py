"""Child-process launcher for the benchmark.

    python3 perfbench/launch.py --spans FILE --run-id ID cli <bellseries args...>
    python3 perfbench/launch.py [--spans FILE --run-id ID] census <run.json>

``cli`` runs ``bellseries.cli.main`` on the given arguments, which is what
``python3 -m bellseries.cli`` does; untraced CLI commands run as
``python3 -m bellseries.cli`` itself, so ``cli`` needs ``--spans``.
``census`` runs ``oracle.census_complete_tables`` on a small run given as
JSON (schedule and outcomes), because the CLI has no census command, and
prints a JSON report.

With ``--spans`` the launcher wraps each layer's public functions where
``bellseries.cli``, ``bellseries.sica``, ``bellseries.oracle`` (and
``bellseries.fileio``, for the schedule it builds) look them up, records one
span per call in memory (name, start, end, parent, counts) and writes them
to FILE when the command ends.  Nothing in the package is edited; the wrappers
return exactly what the wrapped functions return.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time


class Tracer:
    """Spans of one process, kept in memory until :meth:`dump`."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs, count):
        index = len(self.spans)
        span = {
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
        if count is not None:
            span["counts"] = count(args, result)
        return result

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count)

        setattr(owner, attr, traced)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            json.dump({"run_id": self.run_id, "spans": self.spans}, fp)


def _file_bytes(key: str, position: int):
    return lambda args, _result: {key: os.path.getsize(args[position])}


def _run_slots(key: str):
    return lambda args, _result: {key: args[0].slots}


def _result_slots(key: str):
    return lambda _args, result: {key: result.slots}


def _reorder_counts(args, outcome) -> dict:
    run = args[0]
    kept = run.slots - len(outcome.plan.discarded_slots) if outcome.success else 0
    return {"reorders": 1, "reorder_successes": int(outcome.success),
            "reorder_in_slots": run.slots if outcome.success else 0, "kept_slots": kept}


def _extremal_counts(_args, result) -> dict:
    return {"tables_scanned": result.tables_scanned, "extremal_scanned": result.tables_scanned,
            "admissible": result.admissible}


def _cardinality_counts(_args, sweep) -> dict:
    return {"tables_scanned": sweep.tables_scanned}


def _census_counts(_args, census) -> dict:
    return {"census_hits": census.count, "census_space": census.space_size}


def instrument(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    cli = importlib.import_module("bellseries.cli")
    fileio = importlib.import_module("bellseries.fileio")
    sica = importlib.import_module("bellseries.sica")
    oracle = importlib.import_module("bellseries.oracle")

    # cli looks the file functions up on the fileio module.
    tracer.wrap(fileio, "write_run_file", "fileio.write_run", _file_bytes("bytes_written", 1))
    tracer.wrap(fileio, "write_json_atomic", "fileio.write_json", _file_bytes("bytes_written", 0))
    tracer.wrap(fileio, "read_run_file", "fileio.read_run", _result_slots("events_read"))
    tracer.wrap(fileio, "table_from_json", "fileio.read_table")
    tracer.wrap(fileio, "custom_schedule", "model.schedule")
    tracer.wrap(cli, "_load_input", "cli.load_input", _file_bytes("bytes_read", 0))

    for module in (cli, sica, oracle):
        tracer.wrap(module, "table_from_run", "model.table_from_run",
                    _run_slots("slots_laid"))
        tracer.wrap(module, "block_halves", "model.schedule")
    tracer.wrap(cli, "random_per_slot", "model.schedule")
    tracer.wrap(cli, "schedule_from_json", "model.schedule")
    tracer.wrap(sica, "derive_schedule", "model.schedule")

    tracer.wrap(cli, "correlation_report", "stats.correlation_report",
                lambda _a, _r: {"reports": 1})
    tracer.wrap(cli, "run_detector_efficiencies", "stats.detector_efficiencies")
    tracer.wrap(sica, "correlation_over_slots", "stats.exact_check")
    for attr in ("correlation_over_slots", "chsh", "clauser_horne_j", "table_eta"):
        tracer.wrap(oracle, attr, "stats.exact_check")

    for module in (cli, sica, oracle):
        tracer.wrap(module, "check_sica", "sica.check")
    tracer.wrap(cli, "condense", "sica.condense")
    tracer.wrap(sica.CompleteTable, "condense", "sica.condense")
    tracer.wrap(cli, "reorder_to_sica", "sica.reorder", _reorder_counts)
    tracer.wrap(cli, "apply_plan", "sica.apply_plan")
    tracer.wrap(cli, "build_complete_table", "sica.complete")

    tracer.wrap(cli, "simulate", "simulate.simulate", _result_slots("slots"))

    # cli calls the sweeps through the oracle module.
    tracer.wrap(oracle, "max_s_eta", "oracle.max_s_eta", _extremal_counts)
    tracer.wrap(oracle, "max_chsh", "oracle.max_chsh", _extremal_counts)
    tracer.wrap(oracle, "sweep_cardinality_bound", "oracle.cardinality", _cardinality_counts)
    tracer.wrap(oracle, "census_complete_tables", "oracle.census", _census_counts)


def census_main(argv: list[str]) -> int:
    """Run the census on a run stored as {a_settings, b_settings, a, b}."""
    from bellseries import oracle
    from bellseries.model import ASetting, BSetting, RecordedRun, custom_schedule

    if len(argv) != 1:
        print("usage: census <run.json>", file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as fp:
        data = json.load(fp)
    schedule = custom_schedule(
        [ASetting(s) for s in data["a_settings"]], [BSetting(s) for s in data["b_settings"]]
    )
    run = RecordedRun(schedule, tuple(data["a"]), tuple(data["b"]))
    census = oracle.census_complete_tables(run)
    report = {
        "command": "census",
        "count": census.count,
        "construction_count": census.construction_count,
        "samples": len(census.samples),
        "space_size": census.space_size,
        "elapsed_s": round(census.elapsed, 3),
    }
    json.dump(report, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def main(argv: list[str]) -> int:
    spans_path = run_id = None
    while argv and argv[0].startswith("--"):
        flag, value, argv = argv[0], argv[1], argv[2:]
        if flag == "--spans":
            spans_path = value
        elif flag == "--run-id":
            run_id = value
        else:
            print(f"unknown launcher flag {flag}", file=sys.stderr)
            return 2
    modes = ("cli", "census") if spans_path else ("census",)
    if not argv or argv[0] not in modes:
        print("usage: launch.py --spans FILE --run-id ID cli ARGS...\n"
              "       launch.py [--spans FILE --run-id ID] census RUN.json", file=sys.stderr)
        return 2
    mode, rest = argv[0], argv[1:]
    if spans_path is None:
        return census_main(rest)

    tracer = Tracer(run_id or mode)

    def setup():
        # Wrapping takes about a millisecond; it is counted with the import
        # so that no time falls between the two root spans.
        module = importlib.import_module("bellseries.cli")
        instrument(tracer)
        return module

    cli = tracer.call("setup.cli_import", setup, (), {}, None)
    entry = (lambda: cli.main(rest)) if mode == "cli" else (lambda: census_main(rest))
    try:
        return tracer.call("cli.main", entry, (), {}, None)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
