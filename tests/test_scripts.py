"""scripts/compare_curves.py reads validate CSVs, whose check names hold
unquoted commas, by the header's columns."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_curves.py"
HEADER = "check,analytic,estimate,stderr,deviation,status"


def compare_curves():
    spec = importlib.util.spec_from_file_location("compare_curves", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def validate_csv(path, status):
    path.write_text("\n".join([
        "# mdighz 0.1.0 validate", HEADER,
        "mc:A,0.1,0.1,0.001,0.5,pass",
        f"sym:samepol(mu=0.4,eta=0.04),1e-05,1e-05,,0.0,{status}",
        "bracket:L=0.0,1e-05,2e-05,,-1e-05,pass"]) + "\n")
    return path


def test_rows_join_a_check_name_with_commas(tmp_path):
    got = compare_curves().rows(validate_csv(tmp_path / "v.csv", "pass"))
    assert got[2][0] == "sym:samepol(mu=0.4,eta=0.04)"
    assert all(len(row) == len(HEADER.split(",")) for row in got)


def test_flipped_status_is_reported(tmp_path):
    script = compare_curves()
    old = script.rows(validate_csv(tmp_path / "old.csv", "pass"))
    new = script.rows(validate_csv(tmp_path / "new.csv", "FAIL"))
    assert script.largest_change(old, new) == (
        "status at sym:samepol(mu=0.4,eta=0.04): 'pass' -> 'FAIL'")
    assert script.largest_change(old, old) == "0 (every numeric cell equal)"
