import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mdighz import fock
from mdighz.fock import (analyzer_unitary, click_probability, propagate_fock,
                         propagate_parties, ghz_outcome_yields,
                         exact_single_photon_stats, unitary_csv)
from mdighz.params import DetectorModel


def dense_expansion_oracle(pols, numbers):
    """Independent float oracle: expand the creation-operator polynomial by
    repeated single-photon multiplication on a dense exponent grid."""
    u = analyzer_unitary().astype(complex)
    pol_vec = {"H": (1, 0), "V": (0, 1),
               "+": (1 / np.sqrt(2), 1 / np.sqrt(2)),
               "-": (1 / np.sqrt(2), -1 / np.sqrt(2)),
               "R": (1 / np.sqrt(2), 1j / np.sqrt(2)),
               "L": (1 / np.sqrt(2), -1j / np.sqrt(2))}
    n_tot = sum(numbers)
    dim = n_tot + 1
    state = np.zeros((dim,) * 6, dtype=complex)
    state[(0,) * 6] = 1.0
    for party, (pol, n) in enumerate(zip(pols, numbers)):
        vh, vv = pol_vec[pol]
        vec = u[:, 2 * party] * vh + u[:, 2 * party + 1] * vv
        for _ in range(n):
            nxt = np.zeros_like(state)
            for j in range(6):
                if vec[j] != 0:
                    shifted = np.roll(state, 1, axis=j)
                    idx = [slice(None)] * 6
                    idx[j] = 0
                    shifted[tuple(idx)] = 0.0
                    nxt += vec[j] * shifted
            state = nxt
    probs = {}
    fact = [1.0]
    for k in range(1, dim + 1):
        fact.append(fact[-1] * k)
    norm = 1.0
    for n in numbers:
        norm *= fact[n]
    for occ in itertools.product(range(dim), repeat=6):
        c = state[occ]
        if c == 0:
            continue
        weight = abs(c) ** 2
        for e in occ:
            weight *= fact[e]
        probs[occ] = weight / norm
    return probs


class TestUnitary:
    def test_unitarity(self):
        u = analyzer_unitary()
        assert np.abs(u.T.conj() @ u - np.eye(6)).max() < 1e-12

    def test_bob_h_splits_into_group_one(self):
        u = analyzer_unitary()
        col = u[:, 2]
        assert col[0] == pytest.approx(1 / np.sqrt(2))
        assert col[1] == pytest.approx(1 / np.sqrt(2))
        assert np.abs(col[2:]).max() == 0

    def test_charlie_v_interferes_in_group_three(self):
        u = analyzer_unitary()
        col = u[:, 5]
        assert col[4] == pytest.approx(1 / np.sqrt(2))
        assert col[5] == pytest.approx(-1 / np.sqrt(2))
        assert np.abs(col[:4]).max() == 0

    def test_csv_dump(self):
        text = unitary_csv()
        assert text.count("\n") == 7
        assert "1H_re" in text.splitlines()[0]


class TestPropagation:
    @pytest.mark.parametrize("occ", [(1, 0, 1, 0, 0, 1), (2, 0, 1, 0, 0, 3),
                                     (0, 2, 0, 2, 2, 0), (1, 1, 1, 1, 1, 1)])
    def test_normalization_and_conservation(self, occ):
        dist = propagate_fock(occ)
        assert dist.probabilities.sum() == pytest.approx(1.0, abs=1e-10)
        assert (dist.occupations.sum(axis=1) == sum(occ)).all()

    @pytest.mark.parametrize("pols,numbers", [
        ("HHV", (2, 1, 3)), ("HHV", (1, 1, 1)), ("+++", (1, 1, 2)),
        ("+-+", (2, 2, 0)), ("RLV", (1, 2, 1)),
    ])
    def test_against_dense_expansion_oracle(self, pols, numbers):
        dist = propagate_parties(pols, numbers)
        oracle = dense_expansion_oracle(pols, numbers)
        mine = {tuple(o): p for o, p in zip(map(tuple, dist.occupations),
                                            dist.probabilities)}
        for key in set(oracle) | set(mine):
            assert mine.get(key, 0.0) == pytest.approx(oracle.get(key, 0.0), abs=1e-12)

    def test_global_phase_invariance(self):
        # multiplying one party's photon amplitude by i must not move probabilities
        vec, half = fock._party_output_vector(1, "+")
        rotated = {k: fock._gmul(g, (0, 1)) for k, g in vec.items()}
        base = fock._expand_beams([(vec, half, 2)])
        turned = fock._expand_beams([(rotated, half, 2)])
        assert base == turned

    def test_cutoff_enforced(self):
        with pytest.raises(ValueError, match="cutoff"):
            propagate_fock((13, 0, 0, 0, 0, 0))

    def test_circular_pols_differ_from_diagonal(self):
        d1 = propagate_parties("R++", (1, 1, 1))
        d2 = propagate_parties("+++", (1, 1, 1))
        assert not np.array_equal(d1.probabilities, d2.probabilities) or \
            not np.array_equal(d1.occupations, d2.occupations)


class TestClickModel:
    def test_no_light_no_darks(self):
        assert click_probability(0, 0.5, 0.0) == 0.0

    def test_unit_efficiency(self):
        assert click_probability(1, 1.0, 0.0) == 1.0

    def test_two_photons_partial(self):
        assert click_probability(2, 0.4, 1e-7) == pytest.approx(0.640000036, rel=1e-12)

    def test_set_variant(self):
        det = DetectorModel(0.4, 1e-7)
        vals = fock.click_probability_set((0, 1, 2, 0, 0, 0), det)
        assert vals[0] == pytest.approx(1e-7)
        assert vals[2] == pytest.approx(0.640000036, rel=1e-12)


class TestOutcomeYields:
    def test_vacuum_dark_free(self):
        dist = propagate_fock((0,) * 6)
        assert ghz_outcome_yields(dist, 0.5, 0.0) == (0.0, 0.0)

    def test_vacuum_darks_only(self):
        p_d = 1e-3
        dist = propagate_fock((0,) * 6)
        expect = 4 * p_d ** 3 * (1 - p_d) ** 3
        yp, ym = ghz_outcome_yields(dist, 0.5, p_d)
        assert yp == pytest.approx(expect, rel=1e-12)
        assert ym == pytest.approx(expect, rel=1e-12)

    def test_ideal_hhh_single_photons(self):
        # brute-force oracle value: the all-H triple splits evenly over both
        # announced classes and is always announced at unit efficiency
        dist = propagate_parties("HHH", (1, 1, 1))
        yp, ym = ghz_outcome_yields(dist, 1.0, 0.0)
        oracle = dense_expansion_oracle("HHH", (1, 1, 1))
        def click_class(patterns):
            total = 0.0
            for occ, p in oracle.items():
                clicked = tuple(j for j in range(6) if occ[j] > 0)
                if clicked in patterns:
                    total += p
            return total
        assert yp == pytest.approx(click_class(fock.PHI_PLUS_PATTERNS), abs=1e-12)
        assert ym == pytest.approx(click_class(fock.PHI_MINUS_PATTERNS), abs=1e-12)
        assert yp == pytest.approx(0.5, abs=1e-12)
        assert ym == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("pols, numbers", [("+++", (2, 1, 3)), ("HHV", (1, 2, 0)),
                                               ("+-V", (1, 2, 1)), ("VHH", (0, 0, 0))])
    @pytest.mark.parametrize("eta, p_d", [(0.9, 0.0), (0.3, 1e-3), (1e-4, 1e-7),
                                          (1.0, 0.02)])
    def test_factored_pattern_product_matches_loop(self, pols, numbers, eta, p_d):
        # reference: every pattern as a product over all six detectors
        dist = propagate_parties(pols, numbers)
        occ = dist.occupations
        survive = (1.0 - eta) ** occ
        silent = (1.0 - p_d) * survive
        if eta < 1.0:  # 1 - (1-p_d)(1-eta)^k without cancellation at small eta
            click = -np.expm1(occ * np.log1p(-eta)) + p_d * survive
        else:
            click = 1.0 - silent
        want = []
        for patterns in (fock.PHI_PLUS_PATTERNS, fock.PHI_MINUS_PATTERNS):
            total = 0.0
            for pat in patterns:
                term = dist.probabilities.copy()
                for j in range(6):
                    term *= click[:, j] if j in pat else silent[:, j]
                total += term.sum()
            want.append(total)
        got = ghz_outcome_yields(dist, eta, p_d)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-13, abs=1e-300)

    @given(st.floats(0.05, 1.0), st.floats(0.0, 0.05))
    def test_yield_polys_match_direct(self, eta, p_d):
        dist = propagate_parties("+-V", (1, 2, 1))
        cp, cm = fock.outcome_yield_polys(dist, p_d)
        direct = ghz_outcome_yields(dist, eta, p_d)
        assert fock.eval_yield_poly(cp, eta) == pytest.approx(direct[0], rel=1e-10, abs=1e-18)
        assert fock.eval_yield_poly(cm, eta) == pytest.approx(direct[1], rel=1e-10, abs=1e-18)


class TestSinglePhotonStats:
    def test_ideal_analyzer_is_error_free(self):
        s = exact_single_photon_stats(1.0, 0.0, 0.0)
        assert s.e111_bx == 0.0
        assert s.e111_bz == 0.0
        assert s.y111_z == pytest.approx(0.25, abs=1e-12)
        assert s.y_ppp_phi_plus == pytest.approx(0.25, abs=1e-12)
        assert s.y_mmm_phi_plus == 0.0

    def test_full_misalignment_symmetrizes(self):
        s = exact_single_photon_stats(0.3, 1e-6, 0.5)
        assert s.e111_bz == pytest.approx(0.5, abs=1e-12)
        assert s.e111_bx == pytest.approx(0.5, abs=1e-12)

    def test_regression_hundred_km_93(self):
        # frozen from the first verified run (eta = 0.93 * 1e-2, paper darks)
        s = exact_single_photon_stats(0.0093, 1e-7, 0.0)
        assert s.y111_z == pytest.approx(2.0112786995242447e-07, rel=1e-9)
        assert s.y111_x == pytest.approx(2.0112786995242441e-07, rel=1e-9)
        assert s.e111_bx == pytest.approx(9.61584269796235e-05, rel=1e-9)
        assert s.e111_bz == pytest.approx(0.0001284116556049079, rel=1e-9)

    def test_z_symmetry_of_outcome_classes(self):
        # product rectilinear inputs feed both announced classes equally
        for pols in ("HHH", "HVH", "VVH"):
            dist = propagate_parties(pols, (1, 1, 1))
            yp, ym = ghz_outcome_yields(dist, 0.37, 1e-4)
            assert yp == pytest.approx(ym, rel=1e-12)
