"""Evaluation harness: one runner per table/figure of the paper.

Each ``figXX_rows``/``tableX_rows`` function regenerates the data
behind one table or figure of the paper's evaluation (Section 6) and
returns a list of row dictionaries; :func:`repro.eval.reporting.render`
prints them as an ASCII table.  ``benchmarks/`` wraps each runner in a
pytest-benchmark target, and EXPERIMENTS.md records paper-vs-measured
values.

Workload scale is controlled per call (``scale=``); the defaults keep
the full harness tractable in pure Python while preserving every trend
the paper reports (see DESIGN.md's substitution notes).
"""

from repro.eval.reporting import render
from repro.eval.runs import gpm_metrics, clear_run_cache
from repro.eval import figures, tables

__all__ = [
    "render",
    "gpm_metrics",
    "clear_run_cache",
    "figures",
    "tables",
]
