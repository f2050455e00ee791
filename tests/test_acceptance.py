"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest -v -rA tests/test_acceptance.py` to see the PASS/FAIL lines
of passing criteria too (pytest captures stdout otherwise).
"""

import time

import numpy as np
import pytest

from mdighz import checks, cli, fock, keyrates, mermin
from mdighz.params import DecoyPlan, parse_config

from conftest import config_copy, cutoff_km, naive_qss_error, qcc_config
from test_keyrates import pps_config, HERALDED_CONFIG, QND_CONFIG


def report(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:>2}: {status} - {description}"
          + (f" [{detail}]" if detail else ""))
    assert ok, f"criterion {number}: {description} [{detail}]"


def find_cutoff(variant, cfg, lo, hi, coarse=4.0):
    """Cutoff by coarse scan plus 1 km refinement around the sign change."""
    grid = list(np.arange(lo, hi + coarse / 2, coarse))
    rough = cutoff_km(keyrates.sweep(variant, cfg, grid))
    if rough is None:
        return None
    fine = [rough + k for k in np.arange(-coarse, coarse + 0.5, 1.0) if lo <= rough + k <= hi]
    return cutoff_km(keyrates.sweep(variant, cfg, fine))


class TestCriterion1QccCutoffs:
    def test_qcc_cutoffs_and_runtime(self):
        cutoffs = {}
        runtimes = {}
        for eta_d in (0.40, 0.93):
            cfg = qcc_config(eta_d=eta_d)
            start = time.monotonic()
            points = keyrates.sweep("qcc", cfg)  # full 0..250 km at 1 km steps
            runtimes[eta_d] = time.monotonic() - start
            cutoffs[eta_d] = cutoff_km(points)
        ok = (180 <= cutoffs[0.40] <= 200 and 200 <= cutoffs[0.93] <= 220
              and all(t < 120.0 for t in runtimes.values()))
        report(1, "conferencing cutoffs 190/210 +-10 km, sweeps under 2 min", ok,
               f"cutoffs {cutoffs[0.40]:.0f}/{cutoffs[0.93]:.0f} km, "
               f"runtimes {runtimes[0.40]:.0f}/{runtimes[0.93]:.0f} s")


class TestCriterion2PpsCutoffs:
    def test_pps_cutoffs(self):
        cuts = {}
        for eta_d in (0.40, 0.93):
            cuts[eta_d] = find_cutoff("qss_pps", pps_config(eta_d=eta_d), 0, 200)
        ok = 120 <= cuts[0.40] <= 140 and 140 <= cuts[0.93] <= 160
        report(2, "phase-post-selection cutoffs 130/150 +-10 km", ok,
               f"cutoffs {cuts[0.40]:.0f}/{cuts[0.93]:.0f} km")


class TestCriterion3NaiveErrorPlateau:
    def test_plateau(self):
        cfg = pps_config()
        worst = 0.0
        for length in (50.0, 75.0, 100.0, 125.0, 150.0):
            params = cfg.system.at_distance(length)
            err = naive_qss_error(params, 0.11, 0.11, 0.11)
            worst = max(worst, abs(err - 0.375))
        report(3, "plain diagonal-basis error within 37.5% +-1pp on 50-150 km",
               worst <= 0.01, f"max deviation {worst:.4f}")


class TestCriterion4MerminCurve:
    def test_mermin(self):
        plan = DecoyPlan(0.4, 0.005)
        above_two = True
        m170 = {}
        for eta_d in (0.40, 0.93):
            cfg = qcc_config(eta_d=eta_d, e_d=0.015)
            for length in np.arange(0.0, 151.0, 10.0):
                est = mermin.mermin_lower_bound(cfg.system.at_distance(length), plan)
                above_two &= est.m_lower > 2.0
            m170[eta_d] = mermin.mermin_lower_bound(
                cfg.system.at_distance(170.0), plan).m_lower
        in_window = any(3.35 <= m170[e] <= 3.65 for e in m170)
        report(4, "Mermin bound > 2 through 150 km and ~3.5 at 170 km",
               above_two and in_window,
               f"M(170) = {m170[0.40]:.3f}/{m170[0.93]:.3f}")


class TestCriterion5DecoySoundness:
    def test_bounds_and_rate_ordering(self):
        ok = True
        detail = []
        for eta_d in (0.40, 0.93):
            cfg = qcc_config(eta_d=eta_d)
            distances = np.arange(0.0, 151.0, 15.0)
            ok &= all(row.passed for row in checks.brackets(cfg, distances))
            for length in distances:
                pt = keyrates.rate_point("qcc", cfg, float(length))
                ok &= pt.columns["e111_bxu"] is not None  # so its bracket was checked
                ok &= pt.rate <= pt.rate_infinite * (1 + 1e-9) + 1e-300
            pt100 = keyrates.rate_point("qcc", cfg, 100.0)
            ratio = pt100.rate / pt100.rate_infinite
            detail.append(f"ratio(100km,{eta_d:.0%}) = {ratio:.2f}")
            ok &= ratio >= 0.5
        report(5, "two-decoy bounds bracket the exact engine; rates ordered",
               ok, "; ".join(detail))


class TestCriterion6OracleEquivalence:
    def test_monte_carlo_matches_analytic(self):
        start = time.monotonic()
        # 50 km of fiber at 40% detectors: eta = 0.04, p_d = 1e-7
        rows = checks.monte_carlo(0.4, 0.04, 1e-7, samples=10_000_000, seed=20,
                                  sliced=(0.11, 8))
        elapsed = time.monotonic() - start
        worst_z = max(abs(row.deviation) for row in rows)
        ok = all(row.passed for row in rows) and elapsed < 180.0
        report(6, "1e7-sample Monte Carlo within 3 sigma of analytic gains",
               ok, f"worst |z| = {worst_z:.2f}, {elapsed:.0f} s")


class TestCriterion7FockFidelity:
    def test_closed_form_and_unitarity(self):
        (row,) = checks.fock_closed_form(6)
        u = fock.analyzer_unitary()
        unitarity = float(np.abs(u.T.conj() @ u - np.eye(6)).max())
        ok = row.passed and unitarity < 1e-12
        report(7, "exact propagator matches printed amplitudes to 1e-12",
               ok, f"max dev {row.deviation:.1e}, unitarity {unitarity:.1e}")


class TestCriterion8SymmetrySuites:
    def test_equalities_on_parameter_grid(self):
        rows = checks.symmetries([(0.4, 0.04, 1e-7), (0.005, 0.04, 1e-7), (0.11, 0.4, 1e-7),
                                  (0.4, 0.372, 1e-6), (0.8, 0.1, 1e-4)])
        worst = max(row.deviation for row in rows)
        report(8, "outcome/polarization equalities hold to 1e-10 on 5-point grid",
               all(row.passed for row in rows), f"worst relative spread {worst:.1e}")


class TestCriterion9HeraldedAndQnd:
    def test_rates_and_orderings(self):
        ok = True
        details = []
        for kind, config_text in (("heralded", HERALDED_CONFIG), ("qnd", QND_CONFIG)):
            variant = f"qss_{kind}"
            for eta_d in (0.40, 0.93):
                cfg = parse_config(config_text.format(eta_d=eta_d))
                grid = [0.0, 25.0, 50.0, 75.0, 100.0, 125.0, 150.0]
                points = keyrates.sweep(variant, cfg, grid)
                rates = [p.rate for p in points]
                r50 = rates[grid.index(50.0)]
                ok &= r50 > 0.0
                peak = rates.index(max(rates))
                ok &= all(a >= b for a, b in zip(rates[peak:], rates[peak + 1:]))
                for p in points:
                    ok &= p.rate <= p.rate_infinite * (1 + 1e-6) + 1e-300
                details.append(f"{kind}@{eta_d:.0%}: R(50km)={r50:.1e}")
        report(9, "heralded/filtered variants positive at 50 km, ordered curves",
               ok, "; ".join(details))


class TestCriterion10Determinism:
    def test_byte_identical_outputs(self, tmp_path):
        cfg = config_copy(tmp_path, "qcc_eta40", ("sweep.L_max = 250", "sweep.L_max = 30"),
                          ("sweep.L_step = 1", "sweep.L_step = 10"))
        blobs = []
        for tag in ("r1", "r2", "r3"):
            out = tmp_path / f"{tag}.csv"
            code = cli.main(["qcc", "--config", str(cfg), "--out", str(out),
                             "--seed", "99"])
            assert code == 0
            blobs.append(out.read_bytes())
        ok = blobs[0] == blobs[1] == blobs[2]
        report(10, "identical config+seed gives byte-identical CSVs", ok,
               f"{len(blobs[0])} bytes")
