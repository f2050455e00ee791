"""scripts/compare_curves.py reads validate CSVs, whose check names hold
unquoted commas, by the header's columns; scripts/mutants.py judges its
catalogue only on a tree whose Tier-1 passes unmutated."""

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


def mutants(monkeypatch, tmp_path, test_body, catalogue):
    """scripts/mutants.py on a tree of one module, x = 1, and one test."""
    spec = importlib.util.spec_from_file_location("mutants", SCRIPT.parent / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    (tmp_path / "src").mkdir(parents=True)
    (tmp_path / "src" / "m.py").write_text("x = 1\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_m.py").write_text(f"import m\n\n\ndef test_x():\n    {test_body}\n")
    monkeypatch.setattr(module, "ROOT", tmp_path)
    monkeypatch.setattr(module, "CATALOGUE", tuple(
        module.Mutant(name, "src/m.py", "x = 1", new, "x is 1") for name, new in catalogue))
    return module.main()


def test_mutants_refuse_a_failing_baseline(monkeypatch, tmp_path, capsys):
    # a tree whose Tier-1 fails unmutated would report every mutant killed
    assert mutants(monkeypatch, tmp_path, "assert m.x == 2", [("two", "x = 2")]) == 1
    out = capsys.readouterr().out
    assert "baseline fails" in out and "killed" not in out


def test_mutants_report_killed_and_surviving(monkeypatch, tmp_path, capsys):
    catalogue = [("two", "x = 2"), ("same", "x = 1 + 0")]
    assert mutants(monkeypatch, tmp_path, "assert m.x == 1", catalogue) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out[:3]] == ["baseline", "killed", "SURVIVED"]
    assert out[-1] == "1 non-equivalent mutants survived: same"
    assert mutants(monkeypatch, tmp_path / "k", "assert m.x == 1", catalogue[:1]) == 0
