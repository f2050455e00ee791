"""Golden-curve gate: the `--quick` CSV of every bundled config must match the
committed curve under tests/golden/.

Numeric cells agree to 1e-10 relative, `nan` cells (undefined bounds) stay
`nan`, and the diagnostics column is identical, empty cells included.  The `#`
header lines are identical too: the label (`# mdighz <version> <command
label>`), so that no curve is written under another's label, and the manifest
digest, which hashes the serialized config with the command, seed and version,
so that neither the serialization nor the hash changes the digest of a run.
Regenerate the goldens only from a commit whose curves are known to be right:

    PYTHONPATH=src python -m mdighz.cli qcc --config configs/qcc_eta40.cfg \
        --out tests/golden/qcc_eta40.csv --quick
"""

import math
from pathlib import Path

import pytest

from mdighz import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"
NAMES = sorted(p.stem for p in GOLDEN_DIR.glob("*.csv"))
RTOL = 1e-10


def table(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().splitlines()
            if not line.startswith("#")]


def comments(path: Path) -> list[str]:
    return [line for line in path.read_text().splitlines() if line.startswith("#")]


def test_every_bundled_curve_has_a_golden():
    configs = {p.stem for p in (ROOT / "configs").glob("*.cfg")} - {"validate"}
    assert set(NAMES) == configs


@pytest.mark.parametrize("name", NAMES)
def test_quick_curve_matches_golden(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    command = name.split("_")[0]
    code = cli.main([command, "--config", str(ROOT / "configs" / f"{name}.cfg"),
                     "--out", str(out), "--quick"])
    assert code == 0
    assert comments(out) == comments(GOLDEN_DIR / f"{name}.csv")
    want, got = table(GOLDEN_DIR / f"{name}.csv"), table(out)
    assert got[0] == want[0]  # header
    assert got[0][-1] == "diagnostics"
    assert len(got) == len(want)
    for want_row, got_row in zip(want[1:], got[1:]):
        assert len(got_row) == len(want_row)
        assert got_row[-1] == want_row[-1], f"diagnostics at {want_row[0]} km"
        for col, w, g in zip(want[0][:-1], want_row[:-1], got_row[:-1]):
            if w == "nan" or g == "nan":
                assert g == w, f"{col} at {want_row[0]} km"
            else:
                assert math.isclose(float(g), float(w), rel_tol=RTOL, abs_tol=0.0), \
                    f"{col} at {want_row[0]} km: {g} vs golden {w}"
