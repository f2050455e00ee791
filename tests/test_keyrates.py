import math
from dataclasses import replace

import numpy as np
import pytest

from mdighz import decoy, fock, gains, keyrates, mermin
from mdighz.params import (ChannelModel, ConfigError, DecoyPlan, DetectorModel,
                           SystemParams, parse_config)

from conftest import CONFIG_DIR, naive_qss_error, qcc_config

PPS_CONFIG = """
channel.beta = 0.2
detector.eta_d = {eta_d}
detector.p_d = 1e-7
system.e_d = 0.0
system.f = 1.16
source.kind = wcs
source.mu = 0.11
decoy.mu1 = 0.005
phase.K = {k}
sweep.L_min = {l_min}
sweep.L_max = {l_max}
sweep.L_step = {l_step}
"""

HERALDED_CONFIG = """
channel.beta = 0.2
detector.eta_d = {eta_d}
detector.p_d = 1e-7
system.e_d = 0.015
system.f = 1.16
source.kind = heralded
source.mu = 5e-3
decoy.mu1 = 5e-4
sweep.L_min = 0
sweep.L_max = 60
sweep.L_step = 30
"""

QND_CONFIG = """
channel.beta = 0.2
detector.eta_d = {eta_d}
detector.p_d = 1e-7
system.e_d = 0.015
system.f = 1.16
source.kind = wcs_qnd
source.mu = 0.4
decoy.mu1 = 0.005
sweep.L_min = 0
sweep.L_max = 60
sweep.L_step = 30
"""


def pps_config(eta_d=0.40, k=8, l_min=0, l_max=200, l_step=1):
    return parse_config(PPS_CONFIG.format(eta_d=eta_d, k=k, l_min=l_min,
                                          l_max=l_max, l_step=l_step))


class TestRateFormulas:
    def test_unbounded_error_forces_zero(self):
        signal = gains.assemble_gain_set(1e-6, 1e-9, 1e-9, 1e-9, 1e-6, 1e-7, 0.0)
        rate, raw, diags = keyrates.qcc_rate(1.16, signal, signal, 1e-2, 1e-4,
                                             None, math.exp(-0.4))
        assert rate == 0.0
        assert any("unbounded" in d for d in diags)

    def test_no_signal_x_gain_is_zero_rate(self):
        empty = gains.assemble_gain_set(0, 0, 0, 0, 0, 0, 0.0)
        rate, raw, _ = keyrates.qss_rate(1.16, empty, 0.0, 0.0, 0.0, 0.0, 0.01)
        assert rate == 0.0

    def test_qcc_monotone_in_phase_error_and_pairwise_qber(self):
        z = gains.z_gain_components(0.4, 0.4, 0.4, 0.04, 1e-7)
        x = gains.mermin_outcome_gains((1, 1, 1), 0.4, 0.4, 0.4, 0.04, 1e-7)
        signal = gains.assemble_gain_set(z.a, z.b, z.c, z.d, *x, 0.0)
        vac_z = gains.z_gain_components(0.0, 0.4, 0.4, 0.04, 1e-7)
        vac = gains.assemble_gain_set(vac_z.a, vac_z.b, vac_z.c, vac_z.d, *x, 0.0)
        rates = [keyrates.qcc_rate(1.16, signal, vac, 1e-2, 1e-5, e, math.exp(-0.4))[0]
                 for e in (0.01, 0.05, 0.2, 0.5)]
        assert all(a >= b - 1e-18 for a, b in zip(rates, rates[1:]))

    def test_raw_rate_sign_tracks_clamp(self):
        signal = gains.assemble_gain_set(1e-9, 1e-7, 1e-7, 1e-7, 1e-9, 1e-9, 0.0)
        rate, raw, _ = keyrates.qcc_rate(1.16, signal, signal, 1e-9, 1e-9,
                                         0.25, math.exp(-0.4))
        assert rate == 0.0 and raw < 0.0


class TestNaiveQssError:
    def test_plateau_at_paper_point(self, paper_system):
        params = paper_system.at_distance(100.0)
        err = naive_qss_error(params, 0.11, 0.11, 0.11)
        assert err == pytest.approx(0.375, abs=0.01)

    def test_single_photon_synthetic_residual(self):
        # single-photon-only events classify almost perfectly; residual darks
        (stats,) = fock.exact_single_photon_stats([0.04], fock.single_photon_yields(1e-7), 0.0)
        assert stats.e111_bx < 1e-3

    def test_no_signal_marker(self):
        params = SystemParams(ChannelModel(0.2, 10.0), DetectorModel(0.4, 0.0),
                              0.0, 1.16)
        assert naive_qss_error(params, 0.0, 0.0, 0.0) is None


class TestSweeps:
    def test_empty_grid(self):
        assert keyrates.sweep("qcc", qcc_config(l_min=10, l_max=5)) == ()

    def test_qcc_point_matches_known_value(self):
        cfg = qcc_config()
        pt = keyrates.rate_point("qcc", cfg, 100.0)
        assert pt.rate == pytest.approx(2.7644911173633087e-10, rel=1e-6)
        assert pt.rate <= pt.rate_infinite

    def test_two_decoy_below_infinite_and_monotone_tail(self):
        cfg = qcc_config()
        distances = [0, 40, 80, 120, 160, 200]
        points = keyrates.sweep("qcc", cfg, distances)
        for p in points:
            assert p.rate <= p.rate_infinite * (1 + 1e-9) + 1e-300
        rates = [p.rate for p in points]
        peak = rates.index(max(rates))
        assert all(a >= b for a, b in zip(rates[peak:], rates[peak + 1:]))

    def test_better_detector_dominates(self):
        c40, c93 = qcc_config(eta_d=0.40), qcc_config(eta_d=0.93)
        for length in (10.0, 80.0, 150.0):
            r40 = keyrates.rate_point("qcc", c40, length).rate
            r93 = keyrates.rate_point("qcc", c93, length).rate
            assert r93 >= r40


class TestPps:
    def test_naive_wcs_error_kills_unsliced_rate(self):
        # K = 1 disables slicing; the 37.5% plateau forces zero rate
        cfg = pps_config(k=1)
        for length in (10.0, 60.0, 120.0):
            assert keyrates.rate_point("qss_pps", cfg, length).rate == 0.0

    def test_sliced_rate_positive_at_short_distance(self):
        cfg = pps_config(k=8)
        pt = keyrates.rate_point("qss_pps", cfg, 50.0)
        assert pt.rate > 0.0
        assert pt.rate <= pt.rate_infinite * (1 + 1e-9)

    def test_k_tradeoff_both_computable(self):
        r1 = keyrates.rate_point("qss_pps", pps_config(k=1), 30.0)
        r8 = keyrates.rate_point("qss_pps", pps_config(k=8), 30.0)
        assert r1.columns["E_x_sliced"] > r8.columns["E_x_sliced"]

    def test_requires_phase_plan(self):
        cfg = qcc_config()
        with pytest.raises(ValueError, match="phase"):
            keyrates.rate_point("qss_pps", cfg, 10.0)


class TestHeraldedAndQnd:
    def test_heralded_positive_at_fifty_km(self):
        for eta_d in (0.40, 0.93):
            cfg = parse_config(HERALDED_CONFIG.format(eta_d=eta_d))
            pt = keyrates.rate_point("qss_heralded", cfg, 50.0)
            assert pt.rate > 0.0
            assert pt.rate <= pt.rate_infinite * (1 + 1e-9)

    def test_qnd_positive_at_fifty_km(self):
        for eta_d in (0.40, 0.93):
            cfg = parse_config(QND_CONFIG.format(eta_d=eta_d))
            pt = keyrates.rate_point("qss_qnd", cfg, 50.0)
            assert pt.rate > 0.0
            # the filtered channel makes two-decoy and infinite-decoy coincide
            assert pt.rate == pytest.approx(pt.rate_infinite, rel=1e-6)

    @pytest.mark.parametrize("variant, template", [("qss_heralded", HERALDED_CONFIG),
                                                   ("qss_qnd", QND_CONFIG)],
                             ids=["heralded", "qnd"])
    def test_rates_are_plain_floats(self, variant, template):
        pt = keyrates.rate_point(variant, parse_config(template.format(eta_d=0.4)), 50.0)
        for value in (pt.rate, pt.rate_infinite, pt.raw_rate, *pt.columns.values()):
            assert type(value) is float, value

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="variant"):
            keyrates.rate_point("qss_teleport", qcc_config(), 10.0)

    def test_variant_refuses_other_sources(self):
        heralded = parse_config(HERALDED_CONFIG.format(eta_d=0.4))
        with pytest.raises(ConfigError, match="source.kind"):
            keyrates.rate_point("qcc", heralded, 10.0)
        with pytest.raises(ConfigError, match="source.kind"):
            keyrates.sweep("qss_qnd", qcc_config(), [])
        with pytest.raises(ConfigError, match="source.kind"):
            # the box lies below the decoy level, so no rate point is evaluated
            keyrates.optimize_intensities("qcc", heralded, 10.0, (1e-4, 4e-4))


class TestExtremeDistance:
    @pytest.mark.parametrize("length", (3000.0, 17000.0))
    @pytest.mark.parametrize("variant", [*keyrates.VARIANTS, "mermin"])
    def test_zero_rate_without_crash(self, variant, length):
        cfg = parse_config((CONFIG_DIR / f"{variant}_eta40.cfg").read_text())
        if variant == "mermin":
            est = mermin.mermin_lower_bound(cfg.system.at_distance(length), cfg.decoy)
            assert math.isfinite(est.m_lower) and est.m_lower < 2.0
            return
        pt = keyrates.rate_point(variant, cfg, length)
        assert pt.rate == 0.0 and pt.rate_infinite == 0.0
        assert math.isfinite(pt.raw_rate)
        if variant == "qss_qnd":
            # the thinned levels underflow: no estimate, explicitly flagged
            assert decoy.DEGENERATE in pt.diagnostics


def unmemoized_optimize(variant, cfg, length_km, box, points=9, rounds=3):
    # reference: the same search without a memo, so every grid point, and the
    # box's lower end before the first grid, calls rate_point afresh
    def rate_at(mu):
        if mu <= cfg.decoy.mu1:
            return 0.0
        trial = replace(cfg, source=replace(cfg.source, mu=mu),
                        decoy=DecoyPlan(mu2=mu, mu1=cfg.decoy.mu1))
        return keyrates.rate_point(variant, trial, length_km).rate

    lo, hi = box
    best_mu, best_rate = lo, rate_at(lo)
    for _ in range(rounds):
        grid = np.linspace(lo, hi, points) if hi > lo else np.array([lo])
        for mu in grid:
            r = rate_at(float(mu))
            if r > best_rate or (r == best_rate and mu < best_mu):
                best_mu, best_rate = float(mu), r
        span = (hi - lo) / max(points - 1, 1)
        lo = max(box[0], best_mu - span)
        hi = min(box[1], best_mu + span)
    return best_mu, best_rate


def record_rounds(monkeypatch):
    """Per call of the search's round entry: its trial intensities, one per
    row, and an empty list for the test to fill."""
    rounds = []
    points = keyrates._points

    def recording(variant, cfg, model, rows):
        rounds.append(([plan.mu2 for plan, _ in rows], []))
        return points(variant, cfg, model, rows)

    monkeypatch.setattr(keyrates, "_points", recording)
    return rounds


class TestOptimize:
    def test_each_trial_intensity_evaluated_once(self, monkeypatch):
        cfg = parse_config((CONFIG_DIR / "qcc_eta40.cfg").read_text())
        expected = unmemoized_optimize("qcc", cfg, 100.0, (0.2, 0.8))
        rounds = record_rounds(monkeypatch)
        models = []
        source_model = keyrates.source_model
        monkeypatch.setattr(keyrates, "source_model", lambda c: models.append(c) or source_model(c))
        assert keyrates.optimize_intensities("qcc", cfg, 100.0, (0.2, 0.8)) == expected
        # one row per trial: 1 + 3 rounds x 9 points = 28 trials without the
        # memo, 5 of them repeats; the box's lower end, then one call per
        # round, all of one source model
        trials = [mu for mus, _ in rounds for mu in mus]
        assert len(trials) == 23
        assert len(set(trials)) == 23
        assert [len(mus) for mus, _ in rounds] == [1, 8, 7, 7]
        assert len(models) == 1

    @pytest.mark.parametrize("variant, name, length, box", [
        ("qcc", "qcc_eta40", 100.0, (0.2, 0.8)),
        ("qss_pps", "qss_pps_eta40", 100.0, (0.05, 0.3)),
        ("qcc", "qcc_eta93", 0.0, (0.05, 1.0)),
        ("qss_pps", "qss_pps_eta93", 0.0, (0.05, 1.0)),
        ("qss_heralded", "qss_heralded_eta40", 100.0, (0.001, 0.01)),
        ("qss_qnd", "qss_qnd_eta40", 100.0, (0.001, 0.01)),
    ])
    def test_stacked_rounds_equal_per_trial_search(self, variant, name, length, box):
        # every trial a row of its round's stacked evaluation, bit for bit
        # what one source model and one rate point per trial give
        cfg = parse_config((CONFIG_DIR / f"{name}.cfg").read_text())
        assert (keyrates.optimize_intensities(variant, cfg, length, box)
                == unmemoized_optimize(variant, cfg, length, box))

    @pytest.mark.parametrize("variant, name", [("qcc", "qcc_eta93"),
                                               ("qss_pps", "qss_pps_eta93")])
    def test_one_round_mixes_rungs(self, variant, name, monkeypatch):
        # at 0 km the bright trials of one round need more points per axis
        # than the dim ones: each row takes its own rung
        rounds = record_rounds(monkeypatch)
        rungs = gains._rungs

        def recording(bound, t):
            taken = rungs(bound, t)
            if t > 1:  # the decoy grid's diagonal-basis gains, not the sliced ones
                rounds[-1][1].extend(taken)
            return taken

        monkeypatch.setattr(gains, "_rungs", recording)
        cfg = parse_config((CONFIG_DIR / f"{name}.cfg").read_text())
        keyrates.optimize_intensities(variant, cfg, 0.0, (0.05, 1.0))
        mus, first = rounds[1]
        assert len(first) == len(mus) == 8
        assert [gains.QUAD_LADDER[r] for r in first] == [12, 16, 16, 16, 16, 16, 16, 24]

    def test_degenerate_box_returns_point(self):
        cfg = qcc_config()
        mu, rate = keyrates.optimize_intensities("qcc", cfg, 50.0, (0.4, 0.4))
        assert mu == 0.4
        assert rate > 0.0

    def test_search_dominates_fixed_interior_point(self):
        cfg = qcc_config()
        fixed = keyrates.rate_point("qcc", cfg, 100.0).rate
        mu, rate = keyrates.optimize_intensities("qcc", cfg, 100.0, (0.2, 0.8),
                                                 points=7, rounds=2)
        assert rate >= fixed

    def test_bad_rounds_and_distance_rejected(self):
        cfg = qcc_config()
        with pytest.raises(ValueError, match="rounds"):
            keyrates.optimize_intensities("qcc", cfg, 50.0, (0.2, 0.8), rounds=0)
        # the box lies below the decoy level, so no rate point is evaluated
        for length in (float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="channel.L"):
                keyrates.optimize_intensities("qcc", cfg, length, (1e-4, 4e-4))

    @pytest.mark.parametrize("box", [(0.2, float("inf")), (float("nan"), 0.8),
                                     (0.0, 0.8), (0.8, 0.2)])
    def test_bad_box_rejected(self, box):
        with pytest.raises(ValueError, match="search box"):
            keyrates.optimize_intensities("qcc", qcc_config(), 100.0, box)

    def test_hopeless_box_reports_zero(self):
        cfg = qcc_config()
        mu, rate = keyrates.optimize_intensities("qcc", cfg, 249.0,
                                                 (0.001, 0.004), points=3,
                                                 rounds=1)
        assert rate == 0.0
        assert 0.001 <= mu <= 0.004
