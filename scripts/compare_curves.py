#!/usr/bin/env python3
"""Print the largest relative change of every CSV between two output directories.

    python scripts/compare_curves.py OLD_DIR NEW_DIR

For each CSV of OLD_DIR, compares its data rows (lines not starting with `#`)
with the same-named file of NEW_DIR: numeric cells by |new - old| / max(|new|,
|old|), every other cell (`nan`, diagnostics) for equality. Prints one line per
file with the largest change, its column and the row's first cell. Exits 0;
this is a report, not a gate.
"""

import argparse
import math
import sys
from pathlib import Path


def rows(path: Path) -> list[list[str]]:
    """Data rows by the header's columns.  A validate check name may hold
    unquoted commas, so the surplus leading cells of a row are joined back."""
    lines = [line.split(",") for line in path.read_text().splitlines()
             if not line.startswith("#")]
    width = len(lines[0]) if lines else 0
    return [[",".join(r[:name])] + r[name:]
            for r, name in ((r, max(1, len(r) - width + 1)) for r in lines)]


def largest_change(old: list[list[str]], new: list[list[str]]) -> str:
    if len(old) != len(new) or old[:1] != new[:1]:
        return "header or row count differs"
    worst, where = 0.0, "every numeric cell equal"
    for old_row, new_row in zip(old[1:], new[1:]):
        if len(old_row) != len(new_row):
            return f"row {old_row[0]}: cell count differs"
        for column, a, b in zip(old[0], old_row, new_row):
            try:
                x, y = float(a), float(b)
            except ValueError:
                x = y = None
            if x is None or math.isnan(x) or math.isnan(y):
                if a != b:
                    return f"{column} at {old_row[0]}: {a!r} -> {b!r}"
                continue
            change = 0.0 if x == y else abs(y - x) / max(abs(x), abs(y))
            if change > worst:
                worst, where = change, f"{column} at {old_row[0]}"
    return f"{worst:.3g} ({where})"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args()
    for path in sorted(args.old.glob("*.csv")):
        other = args.new / path.name
        change = largest_change(rows(path), rows(other)) if other.exists() else "missing"
        print(f"{path.name}: largest relative change {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
