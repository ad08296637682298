"""Two-station outcome-series toolkit.

Fixed-length recorded runs of paired measurements, the counting
statistics and efficiency bounds defined on them, an identity check on
each station's outcome series across the distant station's settings,
the rearrangement/condensation/completion machinery that identity
supports, exhaustive sweeps over all small tables, and a seeded
simulator for quantum and locally deterministic sources.
"""

from .errors import (
    BellSeriesError,
    BudgetExceeded,
    ParseError,
    PreconditionError,
    StructuralError,
)
from .model import (
    MINUS,
    PAIRINGS,
    PLUS,
    ZERO,
    ASetting,
    BSetting,
    Pairing,
    RecordedRun,
    Schedule,
    SeriesTable,
    block_halves,
    custom_schedule,
    derive_schedule,
    pairing_blocks,
    project_table,
    random_per_slot,
    table_from_run,
)
from .sica import (
    CompleteTable,
    apply_plan,
    build_complete_table,
    check_sica,
    condense,
    enumerate_complete_tables,
    fill_counterfactual,
    reorder_to_sica,
)
from .simulate import DEFAULT_ANGLES, SourceConfig, expected_chsh, replay, simulate
from .stats import (
    cardinality_bound,
    chsh,
    chsh_detail,
    clauser_horne_j,
    correlation,
    correlation_report,
    efficiency_bound,
    overlap_fraction,
    set_stats,
    station_retention,
    table_eta,
)

__version__ = "0.1.0"

#: Served from ``oracle`` on first use (PEP 562): the sweeps need numpy, and
#: importing the package should not load it.
_ORACLE_NAMES = (
    "EnumSpec",
    "census_complete_tables",
    "max_chsh",
    "max_clauser_horne",
    "max_s_eta",
    "sweep_cardinality_bound",
)


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ASetting",
    "BSetting",
    "BellSeriesError",
    "BudgetExceeded",
    "CompleteTable",
    "DEFAULT_ANGLES",
    "EnumSpec",
    "MINUS",
    "PAIRINGS",
    "PLUS",
    "Pairing",
    "ParseError",
    "PreconditionError",
    "RecordedRun",
    "Schedule",
    "SeriesTable",
    "SourceConfig",
    "StructuralError",
    "ZERO",
    "apply_plan",
    "block_halves",
    "build_complete_table",
    "cardinality_bound",
    "census_complete_tables",
    "check_sica",
    "chsh",
    "chsh_detail",
    "clauser_horne_j",
    "condense",
    "correlation",
    "correlation_report",
    "custom_schedule",
    "derive_schedule",
    "efficiency_bound",
    "enumerate_complete_tables",
    "expected_chsh",
    "fill_counterfactual",
    "max_chsh",
    "max_clauser_horne",
    "max_s_eta",
    "overlap_fraction",
    "pairing_blocks",
    "project_table",
    "random_per_slot",
    "replay",
    "reorder_to_sica",
    "set_stats",
    "simulate",
    "station_retention",
    "sweep_cardinality_bound",
    "table_eta",
    "table_from_run",
]
