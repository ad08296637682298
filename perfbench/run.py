"""bellseries benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--smoke]

Runs one workload (see ``workloads.py`` and ``BENCHMARK.json``) through the
real ``bellseries`` CLI of this checkout (``src/``), one process per command,
sequentially, with numeric-library threads capped at 1.  Every command's
output is checked.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.

Timed region: one pass of the workload's command sequence, so ``wall_s``
and ``peak_rss_mb`` are one sample each.  ``setup_s`` is the median of fresh
interpreters importing ``bellseries.cli``: one before each command, then
more after the last until ``--seconds`` have passed (at least one), so the
samples spread over the run; an untimed probe first fills the bytecode and
file caches.  With ``--trace 1`` the sequence runs once more under
``launch.py --spans``, and its outputs must equal the untraced ones.

``--all`` runs every workload traced and untraced and prints every metric
with its unit and sample count, including ``slots_per_s``/``tables_per_s``
and ``fail_ratio``.  Each run also writes a record (metrics, per-command
times, nproc, Python/numpy/scipy versions, commit) to ``.bench_results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from workloads import DEFAULT_SEED, PINNED, WORKLOADS, Workload, file_digest, report_digest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAUNCH = Path(__file__).resolve().with_name("launch.py")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
CHILD_TIMEOUT_S = 170
DEPS_SAMPLES = 3
CLI_IMPORT = "import bellseries.cli"
DEPS_IMPORT = "import numpy, scipy.optimize"
VERSIONS = ("import json, sys, numpy, scipy, bellseries.cli; print(json.dumps("
            "{'python': sys.version.split()[0], 'numpy': numpy.__version__, "
            "'scipy': scipy.__version__, 'bellseries': bellseries.cli.__file__}))")
# Spans whose self time is the front end's own work rather than a layer's.
SPAN_METRIC = {"cli.main": "cli.self_s", "cli.load_input": "cli.self_s"}


class BenchError(Exception):
    """The benchmark itself cannot run here; no result is printed."""


@dataclass
class Proc:
    start: float              # perf_counter; the same clock as the child's spans
    end: float
    rss_mb: float
    code: int

    @property
    def wall_s(self) -> float:
        return self.end - self.start


@dataclass
class StepRun:
    name: str
    proc: Proc
    problems: list[str]
    digests: dict[str, str]
    spans: list[dict] = field(default_factory=list)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_child(argv: list[str], cwd: Path, env: dict, out: Path, err: Path) -> Proc:
    """Run one process to completion; wall time and peak RSS from its own rusage."""
    lock = threading.Lock()
    reaped = False
    with open(out, "wb") as out_fp, open(err, "wb") as err_fp:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out_fp, stderr=err_fp)

        def kill() -> None:
            with lock:
                if not reaped:
                    proc.kill()

        timer = threading.Timer(CHILD_TIMEOUT_S, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        end = time.perf_counter()
        with lock:
            reaped = True
            proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(start, end, usage.ru_maxrss / 1024.0, proc.returncode)


def timed_imports(code: str, samples: int, work: Path, env: dict) -> list[float]:
    walls = []
    for i in range(samples):
        proc = run_child([sys.executable, "-c", code], work, env,
                         work / f"import-{i}.out", work / f"import-{i}.err")
        if proc.code != 0:
            raise BenchError(f"`{code}` failed: {(work / f'import-{i}.err').read_text()[-2000:]}")
        walls.append(proc.wall_s)
    return walls


def git_commit() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _tail(path: Path) -> str:
    return path.read_text(errors="replace")[-600:].strip()


def run_steps(wl: Workload, work: Path, env: dict, tag: str, spans: bool,
              pins: bool, before: Callable[[], None] | None = None) -> list[StepRun]:
    """One pass of the workload's command sequence, checked; ``before`` runs
    ahead of each command, outside its timing."""
    runs: list[StepRun] = []
    reports: dict[str, dict] = {}
    for index, step in enumerate(wl.steps):
        if before is not None:
            before()
        stem = work / f"{tag}-{index}"
        launcher = [sys.executable, str(LAUNCH)]
        if spans:
            launcher += ["--spans", f"{stem}.spans.json", "--run-id", f"{wl.name}/{tag}/{index}"]
        if step.name == "census":
            argv = launcher + ["census", *step.args]
        elif spans:
            argv = launcher + ["cli", step.name, *step.args]
        else:
            argv = [sys.executable, "-m", "bellseries.cli", step.name, *step.args]
        for name in step.outputs:
            # A file left by the untraced pass must not pass for the traced one's.
            (work / name).unlink(missing_ok=True)
        proc = run_child(argv, work, env, Path(f"{stem}.out"), Path(f"{stem}.err"))
        problems: list[str] = []
        digests: dict[str, str] = {}
        report: dict = {}
        if proc.code != 0:
            problems.append(f"exit code {proc.code}: {_tail(Path(f'{stem}.err'))}")
        else:
            try:
                report = json.loads(Path(f"{stem}.out").read_text())
            except json.JSONDecodeError as exc:
                problems.append(f"stdout is not one JSON report: {exc}")
            digests["report"] = report_digest(report)
            for name in step.outputs:
                if (work / name).exists():
                    digests[name] = file_digest(work / name)
                else:
                    problems.append(f"did not write {name}")
            if step.check is not None and not problems:
                problems.extend(step.check(report, reports, work))
            if pins and step.pin is not None and step.pin in digests:
                want = PINNED.get(wl.name, {}).get(f"{index}:{step.pin}")
                if digests[step.pin] != want:
                    problems.append(f"{step.pin} digest {digests[step.pin]} != pinned {want}")
        reports[step.name] = report
        step_spans = []
        if spans and Path(f"{stem}.spans.json").exists():
            step_spans = json.loads(Path(f"{stem}.spans.json").read_text())["spans"]
        runs.append(StepRun(step.name, proc, problems, digests, step_spans))
    return runs


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus what its direct children cover; checks nesting."""
    own = [s["end"] - s["start"] for s in spans]
    for i, s in enumerate(spans):
        p = s["parent"]
        if p is None:
            continue
        parent = spans[p]
        if not (p < i and parent["start"] <= s["start"] <= s["end"] <= parent["end"]):
            raise BenchError(f"span {s['name']} does not nest in {parent['name']}")
        own[p] -= s["end"] - s["start"]
    return own


def layer_metrics(traced: list[StepRun], untraced_wall: float, deps: list[float]) -> dict:
    values = {m["name"]: 0.0 for m in SPEC["per_layer"] if m["unit"] == "s"}
    counts: dict[str, float] = {}
    for run in traced:
        values[f"cli.{run.name.replace('-', '_')}_s"] += run.proc.wall_s
        if run.spans:
            # Interpreter start before the first span, and exit after the last.
            values["setup.boot_s"] += run.spans[0]["start"] - run.proc.start
            values["cli.exit_s"] += run.proc.end - max(
                s["end"] for s in run.spans if s["parent"] is None)
        for span, own in zip(run.spans, self_times(run.spans)):
            name = SPAN_METRIC.get(span["name"], span["name"] + "_s")
            values[name] = values.get(name, 0.0) + own
            for key, n in span["counts"].items():
                counts[key] = counts.get(key, 0) + n
    traced_wall = sum(r.proc.wall_s for r in traced)
    in_spans = sum(sum(self_times(r.spans)) for r in traced)

    def ratio(num: str, den: str) -> float:
        return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

    values.update({
        "fileio.bytes_written": counts.get("bytes_written", 0),
        "fileio.bytes_read": counts.get("bytes_read", 0),
        "fileio.events_read": counts.get("events_read", 0),
        "model.slots_laid": counts.get("slots_laid", 0),
        "stats.reports": counts.get("reports", 0),
        "sica.reorder_success_ratio": ratio("reorder_successes", "reorders"),
        "sica.kept_ratio": ratio("kept_slots", "reorder_in_slots"),
        "simulate.slots": counts.get("slots", 0),
        "oracle.tables_scanned": counts.get("tables_scanned", 0),
        "oracle.admissible_ratio": ratio("admissible", "extremal_scanned"),
        "oracle.census_hit_ratio": ratio("census_hits", "census_space"),
        "setup.deps_import_s": statistics.median(deps),
        "trace.overhead_ratio": traced_wall / untraced_wall - 1.0,
        "trace.in_span_ratio": in_spans / traced_wall,
    })
    return values


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Run one workload; return its record (metrics, checks, environment)."""
    if not (SRC / "bellseries" / "cli.py").is_file():
        raise BenchError(f"no bellseries sources under {SRC}")
    wl = WORKLOADS[name](seed, smoke)
    pins = seed == DEFAULT_SEED and not smoke
    env = child_env()
    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        probe = run_child([sys.executable, "-c", VERSIONS], work, env,
                          work / "versions.out", work / "versions.err")
        if probe.code != 0:
            raise BenchError(f"cannot import bellseries: {_tail(work / 'versions.err')}")
        versions = json.loads((work / "versions.out").read_text())
        if not Path(versions.pop("bellseries")).resolve().is_relative_to(SRC):
            raise BenchError("bellseries was not imported from this checkout")

        for filename, text in wl.inputs.items():
            (work / filename).write_text(text)
        for i, args in enumerate(wl.generate):
            proc = run_child([sys.executable, "-m", "bellseries.cli", *args], work, env,
                             work / f"gen-{i}.out", work / f"gen-{i}.err")
            if proc.code != 0:
                raise BenchError(f"input generation failed: {_tail(work / f'gen-{i}.err')}")

        setup: list[float] = []

        def sample_setup() -> None:
            setup.extend(timed_imports(CLI_IMPORT, 1, work, env))

        start = time.perf_counter()
        runs = run_steps(wl, work, env, "untraced", False, pins, before=sample_setup)
        sample_setup()
        while time.perf_counter() - start < seconds:
            sample_setup()
        wall = sum(r.proc.wall_s for r in runs)
        metrics = {
            "wall_s": wall,
            "throughput_per_s": wl.work_items / wall,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": max(r.proc.rss_mb for r in runs),
        }
        all_runs = list(runs)
        record = {"workload": name, "seed": seed, "smoke": smoke, "work_items": wl.work_items,
                  "setup_samples": setup}
        if trace:
            deps = timed_imports(DEPS_IMPORT, 1 if smoke else DEPS_SAMPLES, work, env)
            traced = run_steps(wl, work, env, "traced", True, False)
            for run, want in zip(traced, (r.digests for r in runs)):
                if run.digests != want and not run.problems:
                    run.problems.append("traced outputs differ from untraced outputs")
            metrics.update(layer_metrics(traced, wall, deps))
            all_runs += traced
            record["traced_walls"] = [r.proc.wall_s for r in traced]
            record["deps_samples"] = deps
        failed = [r for r in all_runs if r.problems]
        record.update({
            "attempted": len(all_runs),
            "failed": len(failed),
            "problems": [f"{r.name}: {p}" for r in failed for p in r.problems],
            "commands": [{"name": r.name, "wall_s": r.proc.wall_s, "rss_mb": r.proc.rss_mb,
                          "code": r.proc.code, "digests": r.digests} for r in all_runs],
            "metrics": metrics,
            "env": {"nproc": os.cpu_count(), "platform": platform.platform(),
                    "commit": git_commit(), **versions},
        })
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def save(record: dict, trace: bool) -> None:
    out = ROOT / ".bench_results"
    out.mkdir(exist_ok=True)
    name = f"{record['workload']}-seed{record['seed']}-trace{int(trace)}-{time.time_ns()}.json"
    (out / name).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


def contract_line(record: dict, trace: bool) -> str:
    declared = SPEC["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in record["metrics"]]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    if trace:
        undeclared = set(record["metrics"]) - {m["name"] for m in SPEC["per_layer"]} \
            - {m["name"] for m in SPEC["end_to_end"]}
        if undeclared:
            raise BenchError(f"spans without a declared metric: {sorted(undeclared)}")
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]}
                    for m in declared},
    })


def describe(record: dict) -> list[str]:
    env = record["env"]
    lines = [
        f"# {record['workload']} seed={record['seed']} setup_samples={len(record['setup_samples'])} "
        f"nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
        f"scipy={env['scipy']} commit={env['commit']}",
    ]
    for c in record["commands"]:
        lines.append(f"#   {c['name']:<14} {c['wall_s']:8.3f} s {c['rss_mb']:7.1f} MB exit {c['code']}")
    lines.extend(f"# FAILED {p}" for p in record["problems"])
    return lines


def print_all(records: list[dict]) -> None:
    """Every metric of every workload, with unit and sample count."""
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for record in records:
        m = record["metrics"]
        rate = "tables_per_s" if record["workload"] == "exhaustive_sweep" else "slots_per_s"
        rows = [
            ("wall_s", m["wall_s"], "s", "one pass"),
            (rate, m["throughput_per_s"], "1/s", f"{record['work_items']} / wall_s"),
            ("setup_s", m["setup_s"], "s", f"median of {len(record['setup_samples'])}"),
            ("peak_rss_mb", m["peak_rss_mb"], "MB", "max over the pass's commands"),
            ("fail_ratio", record["failed"] / record["attempted"], "ratio",
             f"{record['failed']} / {record['attempted']}"),
        ]
        rows += [(k, v, units[k], "traced, 1") for k, v in m.items()
                 if k not in ("wall_s", "throughput_per_s", "setup_s", "peak_rss_mb")]
        print(f"== {record['workload']} (seed {record['seed']})")
        for key, value, unit, samples in rows:
            print(f"  {key:<30} {value:>16.6g} {unit:<6} {samples}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(WORKLOADS))
    which.add_argument("--all", action="store_true", help="every workload, traced and untraced")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's tests")
    args = parser.parse_args(argv)
    try:
        if args.all:
            records = []
            for name in WORKLOADS:
                record = measure(name, args.seed, args.seconds, True, args.smoke)
                save(record, True)
                print("\n".join(describe(record)))
                records.append(record)
            print_all(records)
            return 0 if all(r["failed"] == 0 for r in records) else 1
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
        save(record, bool(args.trace))
        line = contract_line(record, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(describe(record)))
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
