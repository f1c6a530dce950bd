#!/usr/bin/env python
"""Fail CI when regenerated benchmark results drift from the committed ones.

Timing cells vary run to run and host to host, so a byte diff is
useless -- what must *not* drift silently is the experiment's
**structure**: its title, its table header (the measured columns), and
its row identities (the workload each row pins: ``|S|``, backend,
worker count, ...).  A benchmark change that adds/renames/retypes rows or
columns has to land together with the regenerated committed file; this
checker makes CI enforce that, where previously regenerated rows were
printed and never compared.

For every ``benchmarks/results/*.txt`` present in git HEAD, the
regenerated working-tree file is compared on:

* the ``== Exx: title ==`` line,
* the header row (column names),
* the ordered list of row keys -- each data row's leading cells up to
  its first numeric cell (numbers, including ``1.5x`` / ``12.3`` forms,
  are measurements; everything before them identifies the workload).

Annotation lines after the table (host stamps, acceptance notes) are
host-dependent and ignored.  A results file deleted from the working
tree, or an experiment whose structure changed, fails the check.

Committed ``benchmarks/results/BENCH_*.json`` files (the machine-readable
twins emitted by ``_harness.report``) are enforced the same way: their
``experiment`` / ``title`` / ``columns`` and the ordered row ``key``
lists must match the regenerated working-tree JSON -- measurement
values and the engine/host stamps are free to vary.

Timing-gate mode (``--timing``) additionally compares the *measurement*
cells of the committed ``BENCH_*.json`` files against the regenerated
ones, matched by row key and column, with a noise-tolerant ratio band
(default 3x, ``--timing-ratio``): speedup/agreement cells (``x``/``%``
units) must not fall below ``committed / ratio``, timing and
slowdown/overhead cells must not rise above ``committed * ratio``.
Deterministic cells (ints, non-timing stats) stay under the structure
check only.  Because sub-4-CPU hosts time too noisily to enforce
against numbers committed from another machine, the gate is
informational there (warnings, exit 0) and enforcing where the
effective CPU count is >= 4 -- ``--enforce-timing`` forces enforcement
anywhere.

Run:  python benchmarks/check_drift.py          (compares vs git HEAD)
      python benchmarks/check_drift.py --list   (prints the structures)
      python benchmarks/check_drift.py --timing (structure + timing gate)
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from typing import List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS = os.path.join("benchmarks", "results")

#: A *measurement* cell: a decimal/scientific float, or a unit-suffixed
#: number (``61.5x``, ``12ms``).  Bare integers are workload parameters
#: and deterministic seeded counts -- part of the row's identity.
_MEASUREMENT = re.compile(
    r"^-?(\d+\.\d+(e-?\d+)?|\d+(\.\d+)?(x|ms|s|%))$", re.IGNORECASE
)

_TITLE = re.compile(r"^== (\S+): (.*) ==$")

#: Post-table annotation lines ("engine: ...", "host: ...",
#: "workload: ...", "acceptance floor (...): ...") -- prose keyed by a
#: colon inside the first cell, never a workload row identity.
_ANNOTATION = re.compile(r"^[^\s].*?\S: ")


def _cells(line: str) -> List[str]:
    """Split an aligned table row on 2+ space runs (the writer's idiom)."""
    return [cell for cell in re.split(r"\s{2,}", line.strip()) if cell]


def _row_key(line: str) -> Tuple[str, ...]:
    """A data row's identity: leading cells before the first measurement."""
    key: List[str] = []
    for cell in _cells(line):
        if _MEASUREMENT.match(cell):
            break
        key.append(cell)
    return tuple(key)


def structure(text: str) -> Optional[dict]:
    """Parse one result file into its comparable structure."""
    lines = [line.rstrip("\n") for line in text.splitlines() if line.strip()]
    if not lines:
        return None
    title = _TITLE.match(lines[0])
    if title is None:
        return None
    header: Optional[Tuple[str, ...]] = None
    rows: List[Tuple[str, ...]] = []
    in_table = False
    for line in lines[1:]:
        cells = _cells(line)
        if not in_table:
            # the header is the line right before the dashed rule
            if cells and all(set(c) == {"-"} for c in cells):
                in_table = True
            else:
                header = tuple(cells)
            continue
        if cells and all(set(c) <= set("-") for c in cells):
            continue
        if _ANNOTATION.match(line.strip()):
            break  # host stamps / acceptance notes: host-dependent
        key = _row_key(line)
        if not key:
            break  # annotation/stamp region begins
        rows.append(key)
    return {
        "experiment": title.group(1),
        "title": title.group(2),
        "header": header,
        "rows": rows,
    }


def json_structure(text: str) -> Optional[dict]:
    """Parse one BENCH_*.json file into the same comparable structure.

    Same fields as :func:`structure` so :func:`compare` diffs both file
    kinds with one code path: row identity is each row's ``key`` list,
    the header is the ``columns`` list.
    """
    try:
        data = json.loads(text)
    except ValueError:
        return None
    if not isinstance(data, dict) or "experiment" not in data:
        return None
    return {
        "experiment": data.get("experiment"),
        "title": data.get("title"),
        "header": tuple(data.get("columns") or ()),
        "rows": [tuple(row.get("key") or ()) for row in data.get("rows") or ()],
    }


def committed_files() -> List[str]:
    out = subprocess.run(
        ["git", "ls-tree", "-r", "--name-only", "HEAD", RESULTS],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    return [
        path
        for path in out.stdout.splitlines()
        if path.endswith(".txt")
        or (os.path.basename(path).startswith("BENCH_") and path.endswith(".json"))
    ]


def committed_text(path: str) -> str:
    return subprocess.run(
        ["git", "show", f"HEAD:{path}"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    ).stdout


def compare(path: str) -> List[str]:
    problems: List[str] = []
    work_path = os.path.join(ROOT, path)
    if not os.path.exists(work_path):
        return [f"{path}: regenerated file is missing from the working tree"]
    parse = json_structure if path.endswith(".json") else structure
    baseline = parse(committed_text(path))
    with open(work_path) as fh:
        regenerated = parse(fh.read())
    if baseline is None:
        return []  # unstructured committed file: nothing to enforce
    if regenerated is None:
        shape = (
            "its BENCH json shape"
            if path.endswith(".json")
            else "its '== Exx: title ==' shape"
        )
        return [f"{path}: regenerated file lost {shape}"]
    for field in ("experiment", "title", "header"):
        if baseline[field] != regenerated[field]:
            problems.append(
                f"{path}: {field} drifted\n"
                f"  committed:   {baseline[field]!r}\n"
                f"  regenerated: {regenerated[field]!r}"
            )
    if baseline["rows"] != regenerated["rows"]:
        problems.append(
            f"{path}: row keys drifted\n"
            f"  committed:   {baseline['rows']!r}\n"
            f"  regenerated: {regenerated['rows']!r}"
        )
    return problems


#: Measurement columns/rows where *smaller* is better even though the
#: cell carries a ratio unit (E18's service slowdown, E19's auto/best
#: ratio rows): gate them with a ceiling, not a floor.
_LOWER_BETTER = ("slowdown", "overhead", "ratio", "latency")


def _effective_cpus() -> int:
    """Affinity/quota-aware CPU budget (mirrors
    ``repro.engine.plan.effective_cpus``; duplicated so the checker
    keeps working without repro on ``sys.path``)."""
    try:
        affinity = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        affinity = 0
    return affinity or os.cpu_count() or 1


def timing_cells(text: str) -> dict:
    """The gateable measurement cells of one BENCH json:
    ``{(row_key, column): (value, unit)}``.  Unit-suffixed cells carry
    their unit; bare floats are gated only when the column names a
    timing (contains ``ms``) -- deterministic float stats are not
    timings and belong to the structure check."""
    try:
        data = json.loads(text)
    except ValueError:
        return {}
    if not isinstance(data, dict):
        return {}
    out: dict = {}
    for row in data.get("rows") or ():
        key = tuple(row.get("key") or ())
        for col, val in (row.get("cells") or {}).items():
            if isinstance(val, dict) and "value" in val:
                out[(key, col)] = (float(val["value"]), str(val.get("unit", "")))
            elif isinstance(val, float) and "ms" in col.lower():
                out[(key, col)] = (val, "ms")
    return out


def compare_timing(path: str, ratio: float) -> List[str]:
    """Ratio-band regressions of ``path``'s regenerated measurement
    cells against the committed ones (missing cells are structure
    drift, not timing drift -- the structure check owns those)."""
    work_path = os.path.join(ROOT, path)
    if not os.path.exists(work_path):
        return []
    baseline = timing_cells(committed_text(path))
    with open(work_path) as fh:
        regenerated = timing_cells(fh.read())
    problems: List[str] = []
    for (key, col), (value, unit) in sorted(baseline.items()):
        cell = regenerated.get((key, col))
        if cell is None or value <= 0:
            continue
        new_value, new_unit = cell
        if new_unit != unit:
            continue
        where = f"{path}: {'/'.join(key)} [{col}]"
        lower_better = unit == "ms" or any(
            word in f"{' '.join(key)} {col}".lower() for word in _LOWER_BETTER
        )
        if lower_better:
            ceiling = value * ratio
            if new_value > ceiling:
                problems.append(
                    f"{where}: {new_value:g}{unit} rose above the noise "
                    f"ceiling {ceiling:g}{unit} (committed {value:g}{unit}, "
                    f"ratio {ratio:g})"
                )
        else:
            floor = value / ratio
            if new_value < floor:
                problems.append(
                    f"{where}: {new_value:g}{unit} fell below the noise "
                    f"floor {floor:g}{unit} (committed {value:g}{unit}, "
                    f"ratio {ratio:g})"
                )
    return problems


def main(argv: List[str]) -> int:
    paths = committed_files()
    if not paths:
        print("no committed result files under", RESULTS)
        return 1
    if "--list" in argv:
        for path in paths:
            parse = json_structure if path.endswith(".json") else structure
            print(path, parse(committed_text(path)))
        return 0
    ratio = 3.0
    if "--timing-ratio" in argv:
        ratio = float(argv[argv.index("--timing-ratio") + 1])
    if ratio <= 1:
        print(f"--timing-ratio must be > 1, got {ratio:g}")
        return 2
    failures: List[str] = []
    for path in paths:
        failures.extend(compare(path))
    if failures:
        print(f"benchmark drift detected in {len(failures)} place(s):\n")
        for failure in failures:
            print(failure)
        print(
            "\nIf the benchmark intentionally changed shape, regenerate and "
            "commit the result file in the same change."
        )
        return 1
    print(f"benchmark structure clean: {len(paths)} result file(s) match HEAD")
    if "--timing" not in argv:
        return 0
    regressions: List[str] = []
    json_paths = [path for path in paths if path.endswith(".json")]
    for path in json_paths:
        regressions.extend(compare_timing(path, ratio))
    cpus = _effective_cpus()
    enforcing = cpus >= 4 or "--enforce-timing" in argv
    if not regressions:
        print(
            f"benchmark timing clean: {len(json_paths)} BENCH file(s) "
            f"within {ratio:g}x of HEAD"
        )
        return 0
    print(f"\nbenchmark timing drift in {len(regressions)} cell(s):\n")
    for regression in regressions:
        print(regression)
    if not enforcing:
        print(
            f"\nWARNING only: {cpus} effective CPU(s) time too noisily to "
            "enforce (the gate enforces at >= 4, or with --enforce-timing)."
        )
        return 0
    print(
        "\nIf the slowdown is intended (or the host legitimately differs), "
        "regenerate and commit the BENCH_*.json files in the same change."
    )
    return 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
