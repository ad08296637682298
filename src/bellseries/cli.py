"""Command-line front end.

Every subcommand reads input files, writes output files atomically, and
prints a report to stdout (JSON by default, ``--format text`` for a
summary).  Exit codes: 0 success, 1 stdout was closed before the report
was written (a reader such as ``head`` stopped early), 2 usage error, 3 a
domain precondition failed (the message names it), 4 unexpected internal
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from fractions import Fraction

from . import fileio, refdata
from .errors import BellSeriesError, ParseError, PreconditionError
from .model import (
    RecordedRun,
    Schedule,
    SeriesTable,
    block_halves,
    random_per_slot,
    schedule_from_json,
    table_from_run,
)
from .sica import (
    CompleteTable,
    _bits,
    _completion_quarter,
    apply_plan,
    build_complete_table,
    check_sica,
    condense,
    fill_counterfactual,
    reorder_to_sica,
)
from .simulate import DEFAULT_ANGLES, SourceConfig, simulate
from .stats import _frac_json, correlation_report, run_detector_efficiencies

_FIGURE_NAMES = ("fig2", "fig3", "fig6-black", "fig6-red", "fig7", "fig8", "fig9")


def _split_seed(seed: int) -> tuple[int, int]:
    """One user seed feeds two independent streams: schedule, then source."""
    # numpy is imported where a command draws, so commands that read stay light.
    import numpy as np

    children = np.random.SeedSequence(seed).spawn(2)
    return tuple(int(c.generate_state(1, np.uint64)[0]) for c in children)


def _make_schedule(spec: str, slots: int, seed: int | None = None) -> Schedule:
    """The ``--schedule`` of a command on ``slots`` slots; ``random`` draws
    new settings, so only ``simulate`` takes it, with its ``seed``."""
    if spec == "block":
        return block_halves(slots)
    if spec == "random":
        if seed is None:
            raise PreconditionError("--schedule random draws new settings; only simulate takes it")
        return random_per_slot(slots, seed)
    if spec.startswith("file:"):
        path = spec[len("file:"):]
        data = fileio.parse_json(fileio.read_text(path), name=f"schedule file {path}")
        schedule = schedule_from_json(data)
        if schedule.slots != slots:
            raise PreconditionError(
                f"schedule file {path} covers {schedule.slots} slots, not {slots}"
            )
        return schedule
    raise PreconditionError(
        f"unknown schedule {spec!r}: expected block, random, or file:<path>"
    )


def _load_input(path: str):
    """(table, provenance, None) of a table file, a single JSON object with
    ``slots``, and (None, None, run) of anything else, an event log.  The
    file is opened once.  A seekable file whose head shows a log
    (:func:`fileio.starts_a_log`) is streamed; any other is read whole and
    told apart by its text."""
    with fileio.open_text(path) as fp:
        if fp.seekable() and fileio.starts_a_log(fp):
            return None, None, fileio.read_run_file(fp)
        text = fp.read()
    try:
        data = fileio.parse_json(text)
    except ParseError:
        data = None
    if isinstance(data, dict) and "slots" in data:
        table = fileio.table_from_json(data)
        provenance = fileio.provenance_from_json(data)
        return table, provenance, None
    return None, None, fileio.read_run_events(text)


def _parse_free_choices(text: str, quarter: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise PreconditionError(
            "--free-choices wants two comma-separated hex words, one per station row"
        )
    words = []
    for part in parts:
        try:
            words.append(int(part, 16))
        except ValueError:
            raise PreconditionError(f"free-choice word {part!r} is not hexadecimal")
    for w in words:
        if w < 0 or w >> quarter:
            raise PreconditionError(
                f"free-choice word 0x{w:x} does not fit {quarter} bits"
            )
    return tuple(_bits(w, quarter) for w in words)


def _non_negative(flag: str, value: int | None) -> None:
    if value is not None and value < 0:
        raise PreconditionError(f"{flag} must be non-negative, got {value}")


def _parse_constraint(text: str):
    if text in ("none", ""):
        return None
    if text == "equal-nc":
        return "equal_nc"
    if text == "sica":
        return "sica"
    for prefix, kind in (
        ("eta>=", "eta_at_least"),
        ("eta<=", "eta_at_most"),
        ("eta<", "eta_below"),
    ):
        if text.startswith(prefix):
            try:
                return (kind, Fraction(text[len(prefix):]))
            except (ValueError, ZeroDivisionError):
                raise PreconditionError(
                    f"constraint {text!r}: {text[len(prefix):]!r} is not a rational number"
                ) from None
    raise PreconditionError(
        f"unknown constraint {text!r}: expected none, equal-nc, sica, "
        "eta>=Q, eta<=Q, or eta<Q"
    )


def _frac_str(node) -> str:
    if node is None:
        return "undefined"
    return f"{node['num']}/{node['den']} = {node['decimal']:.4f}"


def _render_text(report: dict) -> str:
    lines = [f"slots: {report['slots']}"
             + (" (fully measured)" if report["fully_measured"] else "")]
    for key, stats in report["pairings"].items():
        lines.append(f"E({key}) = {_frac_str(stats['e'])}  [N_c = {stats['n_c']}]")
    s = report["chsh"]["s"]
    if s is None:
        lines.append("S undefined (some pairing has no coincidences)")
    else:
        lines.append(f"S = {_frac_str(s)}")
    lines.append(f"J = {report['clauser_horne']['j']}")
    eff = report["efficiency"]
    lines.append(
        f"eta = {_frac_str(eff['eta'])}; S*eta = {_frac_str(eff['s_times_eta'])}; "
        f"verdict: {eff['verdict']}"
    )
    if "cardinality_bound" in report:
        cb = report["cardinality_bound"]
        lines.append(
            f"counting bound: {cb['lhs']} <= {cb['rhs']}"
            + (" (holds)" if cb["holds"] else " (VIOLATED)")
        )
    return "\n".join(lines) + "\n"


def _print_json(data: dict, args) -> None:
    if args.format == "text":
        for key, value in data.items():
            if isinstance(value, (dict, list)):
                value = json.dumps(value, sort_keys=True)
            sys.stdout.write(f"{key}: {value}\n")
    else:
        sys.stdout.write(fileio.json_text(data) + "\n")


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_simulate(args) -> int:
    _non_negative("--seed", args.seed)
    _non_negative("--slots", args.slots)
    schedule_seed, source_seed = _split_seed(args.seed)
    schedule = _make_schedule(args.schedule, args.slots, schedule_seed)
    instructions = None
    if args.model == "deterministic":
        if not args.input:
            raise PreconditionError(
                "--model deterministic reads its instruction table from --input"
            )
        table, _, log = _load_input(args.input)
        instructions = table if log is None else table_from_run(log)
    try:
        angles = tuple(float(x) for x in args.angles.split(","))
    except ValueError:
        angles = ()
    if len(angles) != 4:
        raise PreconditionError(
            f"--angles wants four comma-separated degrees, got {args.angles!r}"
        )
    config = SourceConfig(
        model=args.model,
        schedule=schedule,
        seed=source_seed,
        angles=angles,
        eta=args.eta,
        instructions=instructions,
    )
    run = simulate(config)
    fileio.write_run_file(run, args.output)
    report = {
        "command": "simulate",
        "output": args.output,
        "seed": args.seed,
        "slots": run.slots,
        "analysis": correlation_report(run),
    }
    _print_json(report, args)
    return 0


def _cmd_analyze(args) -> int:
    table, _, run = _load_input(args.input)
    report = correlation_report(table if run is None else run)
    if run is not None:
        report["detectors"] = {
            label: {
                "singles": rec["singles"],
                "coincidences": rec["coincidences"],
                "efficiency": _frac_json(rec["efficiency"]),
            }
            for label, rec in run_detector_efficiencies(run).items()
        }
    if args.output:
        fileio.write_json_atomic(args.output, report)
    if args.format == "text":
        sys.stdout.write(_render_text(report))
    else:
        _print_json(report, args)
    return 0


def _read_table(args):
    """The input at ``--input`` and the ``--schedule`` given with it, if
    any.  The input is an event log, a table, or the :class:`CompleteTable`
    a table file with F/C marks records
    (:meth:`CompleteTable.from_provenance`); ``sica`` settles the schedule
    it is read under.  A bad ``--schedule`` is named before the marks."""
    table, provenance, run = _load_input(args.input)
    data = table if run is None else run
    schedule = _make_schedule(args.schedule, data.slots) if args.schedule else None
    if provenance is not None:
        data = CompleteTable.from_provenance(table, provenance)
    return data, schedule


def _write_table(path: str | None, table: SeriesTable | CompleteTable) -> SeriesTable:
    """The cells of ``table``, first written to ``path`` if one is given: a
    :class:`CompleteTable` with the F/C marks of its schedule."""
    complete = isinstance(table, CompleteTable)
    cells = table.table if complete else table
    if path:
        marks = table.provenance if complete else None
        fileio.write_json_atomic(path, fileio.table_to_json(cells, marks))
    return cells


def _identity_json(complete: CompleteTable) -> dict:
    """A completed table's identity verdict and factual correlations."""
    return {
        "identity_holds": complete.check().holds,
        "factual_correlations": {
            p.key: {"n_c": st.n_c, "e": _frac_json(st.e)}
            for p, st in complete.factual_correlations().items()
        },
    }


def _reorder_json(outcome) -> dict:
    """The verdict of a reorder, as ``sica-reorder`` and ``figures`` report it."""
    report = {
        "success": outcome.success,
        "best_keepable": outcome.best_keepable,
        "required": outcome.required,
    }
    if not outcome.success:
        report["obstruction"] = outcome.obstruction
    return report


def _cmd_sica_check(args) -> int:
    verdict = check_sica(*_read_table(args))
    report = {
        "command": "sica-check",
        "holds": verdict.holds,
        "witnesses": [asdict(w) for w in verdict.witnesses],
    }
    if args.output:
        fileio.write_json_atomic(args.output, report)
    _print_json(report, args)
    return 0


def _run_input(args, what: str) -> RecordedRun:
    """The event log at ``--input`` for a command that takes ``--budget``."""
    _non_negative("--budget", args.budget)
    _, _, run = _load_input(args.input)
    if run is None:
        raise PreconditionError(f"{what} works on event logs, not full tables")
    return run


def _complete(args, run: RecordedRun):
    """``sica-complete`` and ``fill sica``: the completion of ``run`` under
    the ``--free-choices`` words."""
    if args.free_choices is None:
        raise PreconditionError("completion needs --free-choices")
    bits_a, bits_ap = _parse_free_choices(args.free_choices, _completion_quarter(run))
    return build_complete_table(run, bits_a, bits_ap, budget=args.budget)


def _cmd_sica_reorder(args) -> int:
    run = _run_input(args, "reordering")
    outcome = reorder_to_sica(run, budget=args.budget)
    report = {"command": "sica-reorder", **_reorder_json(outcome)}
    if outcome.success:
        rearranged = apply_plan(run, outcome.plan)
        report["discarded_slots"] = list(outcome.plan.discarded_slots)
        report["kept_per_block"] = outcome.plan.kept_per_block
        if args.output:
            fileio.write_run_file(rearranged, args.output)
            report["output"] = args.output
        report["analysis"] = correlation_report(rearranged)
    _print_json(report, args)
    return 0


def _cmd_sica_condense(args) -> int:
    condensed = _write_table(args.output, condense(*_read_table(args)))
    report = {
        "command": "sica-condense",
        "slots": condensed.slots,
        "analysis": correlation_report(condensed),
    }
    _print_json(report, args)
    return 0


def _cmd_sica_complete(args) -> int:
    result = _complete(args, _run_input(args, "completion"))
    table = _write_table(args.output, result.complete)
    report = {
        "command": "sica-complete",
        "slots": table.slots,
        "discarded_slots": list(result.discarded_slots),
        "note": result.note,
        **_identity_json(result.complete),
        "analysis": correlation_report(table),
    }
    _print_json(report, args)
    return 0


def _cmd_fill(args) -> int:
    if args.policy == "zeros":
        for flag, value in (("--free-choices", args.free_choices), ("--budget", args.budget)):
            if value is not None:
                raise PreconditionError(f"fill zeros takes no {flag}: it is for the sica policy")
    run = _run_input(args, "fill")
    filled = fill_counterfactual(run) if args.policy == "zeros" else _complete(args, run).complete
    table = _write_table(args.output, filled)
    report = {
        "command": "fill",
        "policy": args.policy,
        "slots": table.slots,
        "analysis": correlation_report(table),
    }
    _print_json(report, args)
    return 0


def _spec_json(spec) -> dict:
    constraint = spec.constraint
    if isinstance(constraint, tuple):
        constraint = {"kind": constraint[0], "threshold": str(constraint[1])}
    return {
        "slots": spec.slots,
        "alphabet": spec.alphabet,
        "constraint": constraint,
        "budget": spec.budget,
        "space_size": spec.space_size,
    }


def _cmd_oracle(args) -> int:
    _non_negative("--witnesses", args.witnesses)
    # The sweeps need numpy, which commands that only read should not load:
    # the command loads the sweep engine with its other modules, so a
    # sweep's own time holds no module loading.  The sweeps are called
    # through the oracle module, so a wrapper set on it applies.
    from . import _sweep, oracle

    spec = oracle.EnumSpec(
        slots=args.slots,
        alphabet=args.alphabet,
        constraint=_parse_constraint(args.constraint),
        budget=oracle.DEFAULT_BUDGET if args.budget is None else args.budget,
    )
    if args.objective == "cardinality":
        sweep = oracle.sweep_cardinality_bound(spec)
        report = {
            "command": "oracle",
            "objective": "cardinality",
            "spec": _spec_json(spec),
            "tables_scanned": sweep.tables_scanned,
            "violations": sweep.violations,
            "min_slack": sweep.min_slack,
            "witness": (
                None if sweep.witness is None else fileio.table_to_json(sweep.witness)
            ),
            "elapsed_s": round(sweep.elapsed, 3),
        }
    else:
        op = {
            "chsh": oracle.max_chsh,
            "ch": oracle.max_clauser_horne,
            "s-eta": oracle.max_s_eta,
        }[args.objective]
        result = op(spec, witness_cap=args.witnesses)
        report = {
            "command": "oracle",
            "objective": args.objective,
            "spec": _spec_json(spec),
            "max": _frac_json(result.max_value),
            "tables_scanned": result.tables_scanned,
            "admissible": result.admissible,
            "witnesses": [fileio.table_to_json(w) for w in result.witnesses],
            "elapsed_s": round(result.elapsed, 3),
            "note": result.note,
        }
    if args.output:
        fileio.write_json_atomic(args.output, report)
    _print_json(report, args)
    return 0


def _figure_artifacts(name: str):
    """A dataset and its stats: a run's report with its reorder verdict, a
    table's report, and a completed table's with its identity verdict."""
    built = refdata.DATASETS[name]()
    if isinstance(built, RecordedRun):
        stats = correlation_report(built)
        stats["reorder"] = _reorder_json(reorder_to_sica(built))
        return built, stats
    if isinstance(built, CompleteTable):
        return built, {**correlation_report(built.table), **_identity_json(built)}
    return built, correlation_report(built)


def _cmd_figures(args) -> int:
    names = _FIGURE_NAMES if args.which == "all" else (args.which,)
    for name in names:
        if name not in refdata.DATASETS:
            raise PreconditionError(
                f"unknown dataset {name!r}: expected one of "
                + ", ".join(sorted(refdata.DATASETS))
            )
    try:
        os.makedirs(args.output, exist_ok=True)
    except OSError as exc:
        raise PreconditionError(f"cannot write {args.output}: {exc.strerror}") from exc
    written = []
    for name in names:
        built, stats = _figure_artifacts(name)
        if isinstance(built, RecordedRun):
            path = os.path.join(args.output, f"{name}.events.jsonl")
            fileio.write_run_file(built, path)
        else:
            path = os.path.join(args.output, f"{name}.table.json")
            _write_table(path, built)
        stats_path = os.path.join(args.output, f"{name}.stats.json")
        fileio.write_json_atomic(stats_path, stats)
        written.extend([path, stats_path])
    _print_json({"command": "figures", "written": written}, args)
    return 0


# ---------------------------------------------------------------------------
# Parser


def _add_common(sub, *, output_help: str) -> None:
    sub.add_argument("--output", help=output_help)
    sub.add_argument(
        "--format", choices=("json", "text"), default="json",
        help="stdout report format",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellseries",
        description="Two-station outcome-series toolkit: simulate, analyze, "
        "check and repair the series identity, and verify bounds exhaustively.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("simulate", help="generate a recorded run")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--slots", type=int, required=True)
    p.add_argument("--schedule", default="block", help="block, random, or file:<path>")
    p.add_argument("--eta", type=float, default=1.0)
    p.add_argument("--angles", default=",".join(str(a) for a in DEFAULT_ANGLES))
    p.add_argument("--model", choices=("quantum", "deterministic"), default="quantum")
    p.add_argument("--input", help="instruction table for --model deterministic")
    _add_common(p, output_help="event log to write")
    p.set_defaults(func=_cmd_simulate)

    p = subs.add_parser("analyze", help="statistics report for a run or table")
    p.add_argument("--input", required=True)
    _add_common(p, output_help="report JSON to write")
    p.set_defaults(func=_cmd_analyze)

    p = subs.add_parser("sica-check", help="series-identity verdict")
    p.add_argument("--input", required=True)
    p.add_argument("--schedule", help="block or file:<path>; must agree with the input")
    _add_common(p, output_help="verdict JSON to write")
    p.set_defaults(func=_cmd_sica_check)

    p = subs.add_parser("sica-reorder", help="identity-restoring rearrangement")
    p.add_argument("--input", required=True)
    p.add_argument("--budget", type=int, help="max slots to discard per block")
    _add_common(p, output_help="rearranged event log to write")
    p.set_defaults(func=_cmd_sica_reorder)

    p = subs.add_parser("sica-condense", help="halve an identity-satisfying table")
    p.add_argument("--input", required=True)
    p.add_argument("--schedule", help="block or file:<path>; must agree with the input")
    _add_common(p, output_help="condensed table JSON to write")
    p.set_defaults(func=_cmd_sica_condense)

    p = subs.add_parser(
        "sica-complete", help="fill counterfactual cells so the identity holds"
    )
    p.add_argument("--input", required=True)
    p.add_argument(
        "--free-choices", required=True,
        help="two hex words, one per station row (e.g. 1,2)",
    )
    p.add_argument("--budget", type=int, help="max slots to trim per quarter")
    _add_common(p, output_help="complete table JSON to write")
    p.set_defaults(func=_cmd_sica_complete)

    p = subs.add_parser("fill", help="fill unmeasured cells by policy")
    p.add_argument("policy", choices=("zeros", "sica"))
    p.add_argument("--input", required=True)
    p.add_argument("--free-choices", help="for the sica policy")
    p.add_argument("--budget", type=int, help="for the sica policy")
    _add_common(p, output_help="table JSON to write")
    p.set_defaults(func=_cmd_fill)

    p = subs.add_parser("oracle", help="exhaustive sweep at small sizes")
    p.add_argument(
        "--objective", required=True, choices=("chsh", "ch", "s-eta", "cardinality")
    )
    p.add_argument("--slots", type=int, required=True)
    p.add_argument("--alphabet", choices=("pm", "pmz"), default="pm")
    p.add_argument(
        "--constraint", default="none",
        help="none, equal-nc, sica, eta>=Q, eta<=Q, or eta<Q",
    )
    p.add_argument("--budget", type=int)
    p.add_argument("--witnesses", type=int, default=3)
    _add_common(p, output_help="sweep report JSON to write")
    p.set_defaults(func=_cmd_oracle)

    p = subs.add_parser("figures", help="regenerate the worked-example datasets")
    p.add_argument("--which", default="all")
    p.add_argument("--output", default=".", help="directory for the artifacts")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=_cmd_figures)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    if args.command == "simulate" and not args.output:
        print("error: simulate needs --output for the event log", file=sys.stderr)
        return 2
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Point stdout at devnull so the flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except BellSeriesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"internal error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
