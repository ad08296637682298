import ast
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import bellseries
from bellseries import fileio, refdata


def test_every_export_resolves():
    missing = [name for name in bellseries.__all__ if not hasattr(bellseries, name)]
    assert missing == []
    assert len(set(bellseries.__all__)) == len(bellseries.__all__)


def test_exports_are_exactly_the_public_imports():
    # The oracle names are imported on first use (PEP 562); they count as
    # imports, and each must be the oracle's own object.
    from bellseries import oracle

    tree = ast.parse(inspect.getsource(bellseries))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    } | set(bellseries._ORACLE_NAMES)
    assert set(bellseries.__all__) == {n for n in imported if not n.startswith("_")}
    for name in bellseries._ORACLE_NAMES:
        assert getattr(bellseries, name) is getattr(oracle, name)


def _launch_traced(tmp_path, *argv) -> list[str]:
    """The span names of ``bellseries`` run on ``argv`` under
    perfbench/launch.py, which wraps package functions by name."""
    root = Path(__file__).resolve().parents[1]
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, str(root / "perfbench" / "launch.py"), "--spans", str(spans),
         "--run-id", "t", "cli", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return [span["name"] for span in json.loads(spans.read_text())["spans"]]


def test_benchmark_launcher_wraps_names_that_exist(tmp_path):
    """A renamed or deleted wrapped name fails here, not only in a traced
    benchmark run."""
    log = tmp_path / "fig5.jsonl"
    fileio.write_run_file(refdata.fig5(), str(log))
    assert "cli.load_input" in _launch_traced(tmp_path, "analyze", "--input", str(log))


def test_completed_table_schedule_is_derived_in_its_span(tmp_path):
    """The schedule a table file's F/C marks record is derived by ``sica``,
    inside the ``model.schedule`` span the benchmark reads."""
    path = tmp_path / "fig8.table.json"
    fig8 = refdata.fig8()
    fileio.write_json_atomic(str(path), fileio.table_to_json(fig8.table, fig8.provenance))
    names = _launch_traced(tmp_path, "sica-condense", "--input", str(path))
    assert "model.schedule" in names and "sica.condense" in names


def test_importing_the_package_leaves_numpy_unloaded():
    """numpy loads only where a sweep runs: not on importing the package,
    the CLI or the oracle, nor for the census by either of its names."""
    code = (
        "import json, sys\n"
        "loaded = {}\n"
        "import bellseries, bellseries.cli\n"
        "loaded['import'] = 'numpy' in sys.modules\n"
        "import bellseries.oracle\n"
        "bellseries.max_chsh\n"
        "loaded['oracle'] = 'numpy' in sys.modules\n"
        "from bellseries.model import RecordedRun, block_halves\n"
        "run = RecordedRun(block_halves(4), (1, 1, 1, 1), (1, -1, 1, -1))\n"
        "assert bellseries.oracle.census_complete_tables(run).count == 4\n"
        "loaded['oracle.census'] = 'numpy' in sys.modules\n"
        "assert bellseries.census_complete_tables(run).count == 4\n"
        "loaded['census'] = 'numpy' in sys.modules\n"
        "bellseries.max_chsh(bellseries.EnumSpec(slots=1))\n"
        "loaded['sweep'] = 'numpy' in sys.modules\n"
        "print(json.dumps(loaded))\n"
    )
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {
        "import": False, "oracle": False, "oracle.census": False, "census": False,
        # The guard is not vacuous: a sweep does load it.
        "sweep": True,
    }


def test_unknown_attribute_is_an_attribute_error():
    assert not hasattr(bellseries, "no_such_name")
