"""Reporting: ASCII charts for the paper's figures, Gantt views of
schedules, and study serialization (markdown/CSV/JSON)."""

from .ascii import AsciiChart
from .emit import (
    FrozenStudy,
    load_study_json,
    study_to_dict,
    study_to_markdown,
    write_study_csv,
    write_study_json,
)
from .figures import (
    Figure,
    fig1_schematic,
    fig2_traversal,
    fig3_figure,
    fig4_figure,
    fig5_figure,
    fig6_figure,
    fig7_figure,
)
from .gantt import render_gantt

# Observability phase/metric tables render through the same TextTable
# machinery as the paper tables, and schedule traces through the same
# Chrome-trace writer as span traces; surfaced here so reporting is the
# one place callers fetch tabular and trace views from.
from ..observability.export import (
    metrics_table,
    phase_table,
    schedule_to_trace_events,
    write_chrome_trace,
)

__all__ = [
    "AsciiChart",
    "Figure",
    "FrozenStudy",
    "fig1_schematic",
    "fig2_traversal",
    "fig3_figure",
    "fig4_figure",
    "fig5_figure",
    "fig6_figure",
    "fig7_figure",
    "load_study_json",
    "metrics_table",
    "phase_table",
    "render_gantt",
    "schedule_to_trace_events",
    "study_to_dict",
    "write_chrome_trace",
    "study_to_markdown",
    "write_study_csv",
    "write_study_json",
]
