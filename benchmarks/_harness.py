"""Shared reporting helpers for the experiment benchmarks.

Every benchmark regenerates one experiment row-set from DESIGN.md's
per-experiment index (E1-E12).  Besides the pytest-benchmark timing
table, each experiment emits a human-readable table through
:func:`report`, which always prints it (visible with ``pytest -s`` and
in piped logs) and, when ``REPRO_BENCH_RECORD=1`` is set, persists it
under ``benchmarks/results/<experiment>.txt`` so EXPERIMENTS.md can cite
stable artifacts.  Without the variable a test run writes no tracked
file::

    REPRO_BENCH_RECORD=1 PYTHONPATH=src python -m pytest -q benchmarks/

Each report is *also* persisted as machine-readable JSON
(``benchmarks/results/BENCH_<experiment>.json``, one schema for every
experiment) -- the first step of the machine-readable perf trajectory:
rows keyed by their workload identity with parsed measurement cells, so
tooling can diff numbers across commits without scraping aligned text.
``benchmarks/check_drift.py`` enforces that the JSON structure stays in
lockstep with the committed files, like the text tables.
"""

from __future__ import annotations

import json
import os
import platform
import re
from typing import Iterable, List, Sequence

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Set to ``1`` to (re)write the result files; unset, :func:`report`
#: only prints.
RECORD_ENV = "REPRO_BENCH_RECORD"

__all__ = ["report", "format_table", "parse_report", "BENCH_SCHEMA"]

#: Version stamp of the JSON result schema.
BENCH_SCHEMA = 1

#: A *measurement* cell: a decimal/scientific float, or a unit-suffixed
#: number (``61.5x``, ``12ms``).  Mirrors ``check_drift.py``: bare
#: integers are workload parameters, part of the row's identity.
_MEASUREMENT = re.compile(
    r"^-?(\d+\.\d+(e-?\d+)?|\d+(\.\d+)?(x|ms|s|%))$", re.IGNORECASE
)
_UNIT = re.compile(r"^(-?\d+(?:\.\d+)?(?:e-?\d+)?)(x|ms|s|%)$", re.IGNORECASE)
_INT = re.compile(r"^-?\d+$")
_FLOAT = re.compile(r"^-?\d+\.\d+(e-?\d+)?$", re.IGNORECASE)

#: Post-table annotation lines ("workload: ...", "acceptance floor
#: (...): ...") -- prose keyed by a colon inside the first cell, never a
#: workload row identity.  Mirrors ``check_drift.py``.
_ANNOTATION = re.compile(r"^[^\s].*?\S: ")


def format_table(headers: Sequence[str], rows: Iterable[Sequence]) -> List[str]:
    """Render an aligned text table as a list of lines."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in str_rows)
    return lines


def _engine_stamp() -> str:
    """One line recording the evaluation-engine configuration in effect."""
    try:
        from repro.engine import default_context

        ctx = default_context()
        backend = ctx.backend.name if ctx.backend is not None else "inherit"
        return f"engine: backend={backend}, cache={type(ctx.cache).__name__}"
    except Exception:  # engine unavailable (e.g. partial checkouts)
        return "engine: unavailable"


def _effective_cpus() -> int:
    """The CPU budget of *this process* (affinity/quota-aware), matching
    ``repro.engine.plan.effective_cpus`` without requiring repro on
    the path (the drift checker imports this module standalone)."""
    try:
        affinity = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        affinity = 0
    return affinity or os.cpu_count() or 1


def _host_stamp() -> str:
    """One line recording the hardware/python the numbers came from.

    Parallel experiments (E21's fleet worker scaling in particular) are only
    interpretable relative to the CPU budget of the machine that ran
    them, so every result file records it -- the *effective* budget
    (CPU affinity, container quotas), not the raw core count, since
    that is what the planner and the worker pools get to use.
    """
    effective = _effective_cpus()
    online = os.cpu_count() or 1
    return (
        f"host: {effective} effective CPU(s) of {online} online, "
        f"python {platform.python_version()}, "
        f"{platform.machine() or 'unknown-arch'}"
    )


def _cells(line: str) -> List[str]:
    """Split an aligned table row on 2+ space runs (the writer's idiom)."""
    return [cell for cell in re.split(r"\s{2,}", line.strip()) if cell]


def _parse_cell(cell: str):
    """A table cell as data: ints/floats as numbers, unit-suffixed
    measurements as ``{"value": ..., "unit": ...}``, anything else as
    the raw string."""
    if _INT.match(cell):
        return int(cell)
    if _FLOAT.match(cell):
        return float(cell)
    unit = _UNIT.match(cell)
    if unit:
        return {"value": float(unit.group(1)), "unit": unit.group(2)}
    return cell


def parse_report(experiment: str, title: str, lines: Sequence[str]) -> dict:
    """The one JSON schema every experiment's report is emitted in.

    ``rows`` carry a ``key`` (the leading identity cells, before the
    first measurement -- the same row identity ``check_drift.py``
    compares) and a ``cells`` mapping of column name to parsed value;
    trailing non-table lines land in ``annotations``.
    """
    lines = [line for line in lines if line.strip()]
    columns: List[str] = []
    rows: List[dict] = []
    annotations: List[str] = []
    in_table = False
    table_done = False
    for line in lines:
        cells = _cells(line)
        if not in_table:
            if cells and all(set(c) == {"-"} for c in cells):
                in_table = True
                continue
            if columns:
                annotations.append(line)  # no table followed after all
            else:
                columns = cells
            continue
        if table_done or not cells or _ANNOTATION.match(line.strip()):
            table_done = table_done or bool(_ANNOTATION.match(line.strip()))
            annotations.append(line)
            continue
        key = []
        for cell in cells:
            if _MEASUREMENT.match(cell):
                break
            key.append(cell)
        if not key:
            # annotation/stamp region: prose, not a workload row
            table_done = True
            annotations.append(line)
            continue
        rows.append(
            {
                "key": key,
                "cells": {
                    col: _parse_cell(cell)
                    for col, cell in zip(columns, cells)
                },
            }
        )
    return {
        "schema": BENCH_SCHEMA,
        "experiment": experiment,
        "title": title,
        "columns": columns,
        "rows": rows,
        "annotations": annotations,
        "engine": _engine_stamp(),
        "host": _host_stamp(),
    }


def report(experiment: str, title: str, lines: Iterable[str]) -> None:
    """Print one experiment's table (stamped with the engine backend and
    host so result files record how they were produced), and persist it
    only when ``REPRO_BENCH_RECORD=1``, so a plain test run never
    rewrites the committed rows.

    Persists twice: the human-readable aligned table as
    ``<experiment>.txt`` and the same content as machine-readable
    ``BENCH_<experiment>.json`` (see :func:`parse_report`).
    """
    lines = list(lines)
    body = [f"== {experiment}: {title} =="]
    body.extend(lines)
    body.append(_engine_stamp())
    body.append(_host_stamp())
    text = "\n".join(body)
    print("\n" + text)
    if os.environ.get(RECORD_ENV) != "1":
        return
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{experiment}.txt")
    with open(path, "w") as fh:
        fh.write(text + "\n")
    json_path = os.path.join(RESULTS_DIR, f"BENCH_{experiment}.json")
    with open(json_path, "w") as fh:
        json.dump(parse_report(experiment, title, lines), fh, indent=1)
        fh.write("\n")
