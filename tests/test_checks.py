"""A perturbed input turns the rows of its check family, and only those, to FAIL."""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from mdighz import checks, cli, decoy, fock, gains

from conftest import CONFIG_DIR, qcc_config

MIXED = ("HHV", "VHH", "HVH")
GRID = [(0.4, 0.04, 1e-7), (0.05, 0.9, 1e-4), (0.8, 0.25, 1e-2)]
FAMILIES = {"mc": lambda: checks.monte_carlo(0.8, 0.7, 0.01, 100_000, 1, sliced=(0.8, 8)),
            "sym": lambda: checks.symmetries(GRID),
            "bracket": lambda: checks.brackets(qcc_config(), (0.0, 50.0)),
            "fock": lambda: checks.fock_closed_form(3)}


def perturb(monkeypatch, module, name, change, when=None):
    """module.name returns change(result), for all arguments or where when(*args)."""
    exact = getattr(module, name)

    def patched(*args, **kwargs):
        value = exact(*args, **kwargs)
        return change(value) if when is None or when(*args) else value

    monkeypatch.setattr(module, name, patched)


def one_entry_off(table, by):
    """The table with its first nonzero entry moved by `by`."""
    table = table.copy()
    table.flat[np.flatnonzero(table)[0]] += by
    return table


def test_nan_mixed_class_fails_validate(monkeypatch, tmp_path):
    perturb(monkeypatch, gains, "z_pattern_outcome_gain", lambda q: math.nan,
            lambda pols, *args: pols in MIXED)
    out = tmp_path / "validate.csv"
    code = cli.main(["validate", "--config", str(CONFIG_DIR / "validate.cfg"), "--quick",
                     "--out", str(out)])
    rows = [line.split(",")[-2:] for line in out.read_text().splitlines()
            if line.startswith("sym:mixedclass")]
    assert rows == [["nan", "FAIL"]] * 5
    assert code == cli.EXIT_VALIDATION


@pytest.mark.parametrize("config", [CONFIG_DIR / "validate.cfg",
                                    CONFIG_DIR.parent / "perfbench" / "validate_bright.cfg"],
                         ids=["validate", "validate_bright"])
def test_wrong_diagonal_basis_bounds_fail_validate(monkeypatch, tmp_path, config):
    # the secret-sharing curves read Y111_xl and e111_bzu; too high a yield
    # bound and too low an error bound must not pass
    perturb(monkeypatch, decoy, "single_photon_bounds",
            lambda b: replace(b, y111_xl=3.0 * b.y111_xl, e111_bzu=b.e111_bzu / 3.0))
    code = cli.main(["validate", "--config", str(config), "--quick",
                     "--out", str(tmp_path / "validate.csv")])
    assert code == cli.EXIT_VALIDATION


@pytest.mark.parametrize("module, name, change, when, family, failing", [
    (gains, "z_gain_components", lambda z: replace(z, b=2.0 * z.b), None, "mc", ["mc:B"]),
    (gains, "z_pattern_outcome_gain", lambda q: q * (1 + 1e-6),
     lambda pols, *a: pols == "VVV", "sym", ["sym:samepol"] * len(GRID)),
    (gains, "z_pattern_outcome_gain", lambda q: q * (1 + 1e-6),
     lambda pols, *a: pols in MIXED, "sym", ["sym:mixedclass"] * len(GRID)),
    (gains, "z_pattern_outcome_gain", lambda q: math.nan,  # a NaN that max() would skip
     lambda pols, *a: pols == "VHH", "sym", ["sym:mixedclass"] * len(GRID)),
    (gains, "mermin_outcome_gains",  # each row's correct gains, as the points are stacked
     lambda rows: [([c * (1 + 1e-6) for c in q_c], q_e) for q_c, q_e in rows],
     lambda signs, *a: signs == (1, 1, 1), "sym", ["sym:signclasses"] * len(GRID)),
    (fock, "exact_single_photon_stats",  # each efficiency's stats, as they are stacked
     lambda stats: [replace(s, y111_z=0.5 * s.y111_z) for s in stats],
     None, "bracket", ["bracket:L=0.0", "bracket:L=50.0"]),
    (fock, "exact_single_photon_stats", lambda stats: [replace(s, y111_z=math.inf) for s in stats],
     None, "bracket", ["bracket:L=0.0", "bracket:L=50.0"]),  # deviation -inf
    (decoy, "single_photon_bounds", lambda b: replace(b, e111_bxu=None),  # no bound
     None, "bracket", ["bracket:L=0.0", "bracket:L=50.0"]),
    (decoy, "single_photon_bounds", lambda b: replace(b, y111_xl=3.0 * b.y111_xl),
     None, "bracket", ["bracket:L=0.0", "bracket:L=50.0"]),
    (decoy, "single_photon_bounds", lambda b: replace(b, e111_bzu=b.e111_bzu / 3.0),
     None, "bracket", ["bracket:L=0.0", "bracket:L=50.0"]),
    (decoy, "single_photon_bounds", lambda b: replace(b, e111_bzu=None),
     None, "bracket", ["bracket:L=0.0", "bracket:L=50.0"]),
    (fock, "ideal_detector_table", lambda t: t * 1.001, None, "fock", ["fock:closed-form"]),
    (fock, "ideal_detector_table", lambda t: t * math.nan, None, "fock", ["fock:closed-form"]),
    (fock, "ideal_detector_table", lambda t: t[:, ::-1], None, "fock", ["fock:closed-form"]),
    (fock, "ideal_detector_table", lambda t: one_entry_off(t, 1e-9), None, "fock",
     ["fock:closed-form"]),
], ids=["mc", "samepol", "mixedclass", "mixedclass-nan", "signclasses", "bracket",
        "bracket-inf", "bracket-missing-bound", "bracket-diagonal-yield",
        "bracket-rectilinear-error", "bracket-missing-rectilinear-error", "closed-form",
        "closed-form-nan", "closed-form-outcomes-swapped", "closed-form-one-entry"])
def test_perturbed_input_fails_its_rows(monkeypatch, module, name, change, when, family,
                                        failing):
    assert all(row.passed for row in FAMILIES[family]())
    perturb(monkeypatch, module, name, change, when)
    rows = FAMILIES[family]()
    assert [row.check.partition("(")[0] for row in rows if not row.passed] == failing


class TestClosedFormCheck:
    @staticmethod
    def worst(max_total_photons):
        (row,) = checks.fock_closed_form(max_total_photons)
        return row.deviation

    def test_empty_input_vacuous_pass(self):
        assert self.worst(0) == 0.0

    def test_three_photons_exact(self):
        assert self.worst(3) < 1e-12

    def test_six_photons_exact_and_fast(self):
        start = time.monotonic()
        assert self.worst(6) < 1e-12
        assert time.monotonic() - start < 30.0

    def test_cutoff_guard(self):
        with pytest.raises(ValueError):
            checks.fock_closed_form(99)
