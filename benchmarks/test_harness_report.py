"""The reporting harness writes result files only when asked to.

A plain tier-1 run must leave the committed ``benchmarks/results/``
rows untouched; ``REPRO_BENCH_RECORD=1`` is the one switch that
regenerates them.
"""

from __future__ import annotations

import json
import os

import _harness
from _harness import RECORD_ENV, format_table, report

LINES = format_table(["|S|", "time"], [[4, "1.5ms"], [8, "3.0ms"]])


def test_report_prints_but_writes_nothing_by_default(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.delenv(RECORD_ENV, raising=False)
    monkeypatch.setattr(_harness, "RESULTS_DIR", str(tmp_path / "results"))
    report("E0_probe", "harness probe", LINES)
    assert "== E0_probe: harness probe ==" in capsys.readouterr().out
    assert not os.path.exists(tmp_path / "results")


def test_report_records_when_asked(tmp_path, monkeypatch):
    monkeypatch.setenv(RECORD_ENV, "1")
    monkeypatch.setattr(_harness, "RESULTS_DIR", str(tmp_path))
    report("E0_probe", "harness probe", LINES)
    text = (tmp_path / "E0_probe.txt").read_text()
    assert text.startswith("== E0_probe: harness probe ==\n")
    data = json.loads((tmp_path / "BENCH_E0_probe.json").read_text())
    assert data["experiment"] == "E0_probe"
    assert [row["key"] for row in data["rows"]] == [["4"], ["8"]]
