"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest -v -rA tests/test_acceptance.py` to see the PASS/FAIL lines
of passing criteria too (pytest captures stdout otherwise).
"""

import itertools
import time
from pathlib import Path

import numpy as np
import pytest

from mdighz import cli, decoy, fock, gains, keyrates, mermin, montecarlo
from mdighz.params import DecoyPlan, parse_config

from conftest import qcc_config
from test_keyrates import pps_config, HERALDED_CONFIG, QND_CONFIG

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def report(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:>2}: {status} - {description}"
          + (f" [{detail}]" if detail else ""))
    assert ok, f"criterion {number}: {description} [{detail}]"


def find_cutoff(variant, cfg, lo, hi, coarse=4.0):
    """Cutoff by coarse scan plus 1 km refinement around the sign change."""
    grid = list(np.arange(lo, hi + coarse / 2, coarse))
    curve = keyrates.sweep(variant, cfg, grid)
    rough = curve.cutoff_km
    if rough is None:
        return None
    fine = [rough + k for k in np.arange(-coarse, coarse + 0.5, 1.0) if lo <= rough + k <= hi]
    refined = keyrates.sweep(variant, cfg, fine)
    return refined.cutoff_km


class TestCriterion1QccCutoffs:
    def test_qcc_cutoffs_and_runtime(self):
        cutoffs = {}
        runtimes = {}
        for eta_d in (0.40, 0.93):
            cfg = qcc_config(eta_d=eta_d)
            start = time.monotonic()
            curve = keyrates.sweep("qcc", cfg)  # full 0..250 km at 1 km steps
            runtimes[eta_d] = time.monotonic() - start
            cutoffs[eta_d] = curve.cutoff_km
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
            err = keyrates.naive_qss_error(params, 0.11, 0.11, 0.11)
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
            plan = cfg.decoy
            for length in np.arange(0.0, 151.0, 15.0):
                params = cfg.system.at_distance(length)
                grid = decoy.build_gain_grid(
                    lambda triples: gains.wcs_gain_sets(triples, params), plan)
                bounds = decoy.single_photon_bounds(grid, decoy.poisson_level(plan.mu2),
                                                    decoy.poisson_level(plan.mu1))
                exact = fock.exact_single_photon_stats_for(params)
                ok &= bounds.y111_zl <= exact.y111_z + 1e-12
                ok &= bounds.e111_bxu >= exact.e111_bx - 1e-12
                pt = keyrates.rate_point("qcc", cfg, float(length))
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
        samples = 10_000_000
        eta, p_d = 0.04, 1e-7  # 50 km of fiber at 40% detectors
        ok = True
        worst_z = 0.0

        mu = 0.4
        z = gains.z_gain_components(mu, mu, mu, eta, p_d)
        x = gains.x_gain_components(mu, mu, mu, eta, p_d)
        runs = [("HHH", None, ((8 * z.a, 0),)), ("HHV", None, ((8 * z.b, 0),)),
                ("VHH", None, ((8 * z.c, 0),)), ("HVH", None, ((8 * z.d, 0),)),
                ("+++", None, ((8 * x.e, 0), (8 * x.f, 1)))]
        sliced = gains.phase_sliced_gains(0.11, 0.11, 0.11, eta, p_d, 8)
        runs.append(("+++sliced", 8, ((64 * sliced.q_c, 0), (64 * sliced.q_e, 1))))

        for label, slice_k, wanted in runs:
            pols = label[:3]
            intensities = (mu, mu, mu) if slice_k is None else (0.11, 0.11, 0.11)
            ests = montecarlo.mc_coherent_gains(
                pols, intensities, eta, p_d,
                montecarlo.McConfig(samples=samples, seed=20), slice_k=slice_k)
            for analytic, which in wanted:
                score = ests[which].z_score(analytic)
                worst_z = max(worst_z, abs(score))
                ok &= abs(score) < 3.0
        elapsed = time.monotonic() - start
        ok &= elapsed < 180.0
        report(6, "1e7-sample Monte Carlo within 3 sigma of analytic gains",
               ok, f"worst |z| = {worst_z:.2f}, {elapsed:.0f} s")


class TestCriterion7FockFidelity:
    def test_closed_form_and_unitarity(self):
        rep = montecarlo.fock_closed_form_check(6)
        u = fock.analyzer_unitary()
        unitarity = float(np.abs(u.T.conj() @ u - np.eye(6)).max())
        ok = rep.max_deviation < 1e-12 and unitarity < 1e-12
        report(7, "exact propagator matches printed amplitudes to 1e-12",
               ok, f"max dev {rep.max_deviation:.1e}, unitarity {unitarity:.1e}")


class TestCriterion8SymmetrySuites:
    def test_equalities_on_parameter_grid(self):
        grid = [(0.4, 0.04, 1e-7), (0.005, 0.04, 1e-7), (0.11, 0.4, 1e-7),
                (0.4, 0.372, 1e-6), (0.8, 0.1, 1e-4)]
        worst = 0.0
        for mu, eta, p_d in grid:
            same = [gains.z_pattern_outcome_gain(p, mu, mu, mu, eta, p_d, o)
                    for p in ("HHH", "VVV") for o in ("plus", "minus")]
            worst = max(worst, (max(same) - min(same)) / max(max(same), 1e-300))
            correct, false = [], []
            for signs in itertools.product((1, -1), repeat=3):
                qp, qm = gains.mermin_outcome_gains(signs, mu, mu, mu, eta, p_d)
                parity = signs[0] * signs[1] * signs[2]
                (correct if parity == 1 else false).append(qp)
                (false if parity == 1 else correct).append(qm)
            for group in (correct, false):
                worst = max(worst, (max(group) - min(group)) / max(max(group), 1e-300))
        report(8, "outcome/polarization equalities hold to 1e-10 on 5-point grid",
               worst < 1e-10, f"worst relative spread {worst:.1e}")


class TestCriterion9HeraldedAndQnd:
    def test_rates_and_orderings(self):
        ok = True
        details = []
        for kind, config_text in (("heralded", HERALDED_CONFIG), ("qnd", QND_CONFIG)):
            variant = f"qss_{kind}"
            for eta_d in (0.40, 0.93):
                cfg = parse_config(config_text.format(eta_d=eta_d))
                grid = [0.0, 25.0, 50.0, 75.0, 100.0, 125.0, 150.0]
                curve = keyrates.sweep(variant, cfg, grid)
                rates = [p.rate for p in curve.points]
                r50 = rates[grid.index(50.0)]
                ok &= r50 > 0.0
                peak = rates.index(max(rates))
                ok &= all(a >= b for a, b in zip(rates[peak:], rates[peak + 1:]))
                for p in curve.points:
                    ok &= p.rate <= p.rate_infinite * (1 + 1e-6) + 1e-300
                details.append(f"{kind}@{eta_d:.0%}: R(50km)={r50:.1e}")
        report(9, "heralded/filtered variants positive at 50 km, ordered curves",
               ok, "; ".join(details))


class TestCriterion10Determinism:
    def test_byte_identical_outputs(self, tmp_path):
        base = (CONFIG_DIR / "qcc_eta40.cfg").read_text()
        base = base.replace("sweep.L_max = 250", "sweep.L_max = 30")
        base = base.replace("sweep.L_step = 1", "sweep.L_step = 10")
        cfg = tmp_path / "det.cfg"
        cfg.write_text(base)
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
