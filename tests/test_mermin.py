import itertools

import pytest

from mdighz import mermin
from mdighz.params import (ChannelModel, DecoyPlan, DetectorModel, SystemParams,
                           overall_efficiency)
from yield_reference import ghz_outcome_yields, propagate_parties, single_photon_phi_plus


def system(length_km, eta_d=0.40, p_d=1e-7, e_d=0.015):
    return SystemParams(ChannelModel(0.2, length_km), DetectorModel(eta_d, p_d),
                        e_d, 1.16)


PLAN = DecoyPlan(mu2=0.4, mu1=0.005)


class TestMerminLowerBound:
    def test_full_misalignment_kills_the_witness(self):
        est = mermin.mermin_lower_bound(system(50.0, e_d=0.5), PLAN)
        assert est.m_lower == 0.0

    def test_never_exceeds_quantum_maximum(self):
        for length in (0.0, 60.0, 140.0):
            est = mermin.mermin_lower_bound(system(length), PLAN)
            assert est.m_lower <= 4.0 + 1e-9

    def test_monotone_decreasing_in_misalignment(self):
        vals = [mermin.mermin_lower_bound(system(80.0, e_d=e), PLAN).m_lower
                for e in (0.0, 0.015, 0.1, 0.3)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_paper_value_near_170_km(self):
        reached = []
        for eta_d in (0.40, 0.93):
            est = mermin.mermin_lower_bound(system(170.0, eta_d=eta_d), PLAN)
            reached.append(3.35 <= est.m_lower <= 3.65)
        assert any(reached)

    def test_exceeds_local_realism_through_150_km(self):
        for eta_d in (0.40, 0.93):
            for length in (0.0, 75.0, 150.0):
                est = mermin.mermin_lower_bound(system(length, eta_d=eta_d), PLAN)
                assert est.m_lower > mermin.LOCAL_REALISM_BOUND

    def test_exact_yields_recover_maximum(self):
        # bypass the decoy machinery: ideal single-photon yields give M = 4
        y_plus, y_minus = (single_photon_phi_plus(pols, 1.0, 0.0) for pols in ("+++", "---"))
        m = 4.0 * (y_plus - y_minus) / (y_plus + y_minus)
        assert m == pytest.approx(4.0, abs=1e-12)

    def test_bounds_are_conservative_against_exact(self):
        params = system(100.0)
        est = mermin.mermin_lower_bound(params, PLAN)
        eta = overall_efficiency(params.channel, params.detector)
        y_ppp, y_mmm = (single_photon_phi_plus(pols, eta, params.detector.p_d)
                        for pols in ("+++", "---"))
        exact_xxx = (1 - 2 * params.e_d) * ((y_ppp - y_mmm) / (y_ppp + y_mmm))
        assert est.m_lower <= 4 * exact_xxx + 1e-9

    def test_no_signal_marker(self):
        est = mermin.mermin_lower_bound(system(10.0, p_d=0.0, eta_d=0.0), PLAN)
        assert est.m_lower == 0.0
        assert any("no-signal" in d for d in est.diagnostics)


class TestCorrelatorSymmetry:
    def test_circular_basis_correlators_match_sign_identity(self):
        # ideal single photons: the three mixed-basis correlators of the Mermin
        # combination equal minus the all-diagonal one
        def correlator(bases):
            tokens = {("X", 1): "+", ("X", -1): "-", ("Y", 1): "R", ("Y", -1): "L"}
            num = den = 0.0
            for signs in itertools.product((1, -1), repeat=3):
                pols = "".join(tokens[(b, s)] for b, s in zip(bases, signs))
                dist = propagate_parties(pols, (1, 1, 1))
                y_plus, _ = ghz_outcome_yields(dist, 1.0, 0.0)
                parity = signs[0] * signs[1] * signs[2]
                num += parity * y_plus
                den += y_plus
            return num / den

        xxx = correlator("XXX")
        assert xxx == pytest.approx(1.0, abs=1e-12)
        for bases in ("XYY", "YXY", "YYX"):
            assert correlator(bases) == pytest.approx(-xxx, abs=1e-12)
        # and the Mermin combination reaches the quantum maximum
        m = xxx - correlator("XYY") - correlator("YXY") - correlator("YYX")
        assert m == pytest.approx(4.0, abs=1e-12)

    def test_curve_helper(self):
        from conftest import qcc_config
        cfg = qcc_config(e_d=0.015, l_min=0, l_max=20, l_step=10)
        pts = mermin.mermin_curve(cfg)
        assert [p[0] for p in pts] == [0.0, 10.0, 20.0]
        assert all(est.m_lower > 2 for _, est in pts)
