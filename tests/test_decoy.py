import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mdighz import decoy, fock, gains
from mdighz.decoy import (DEGENERATE, GainGrid, build_gain_grid,
                          distribution_level, heralded_stats, mermin_yield_bounds,
                          poisson_level, single_photon_bounds, vacuum_stats)
from mdighz.params import (ChannelModel, DecoyPlan, DetectorModel, SystemParams,
                           overall_efficiency)
from conftest import fock_gain_set
from yield_reference import single_photon_phi_plus


def poisson_pmf(mu, n_max=12):
    return np.array([math.exp(-mu) * mu ** n / math.factorial(n)
                     for n in range(n_max + 1)])


# the two level constructors; a Poisson source must give the same bounds
# through either of them
LEVELS = {"poisson": poisson_level,
          "distribution": lambda mu: distribution_level(poisson_pmf(mu))}


def level_bounds(grid, plan, level=poisson_level):
    return single_photon_bounds(grid, level(plan.mu2), level(plan.mu1))


def stub_gain_set(q_z=0.0, eq_z=0.0, q_x=0.0, eq_x=0.0):
    """GainSet whose estimator-visible fields are set directly (e_d = 0, so the
    error-class gains carry the EQ products verbatim)."""
    return gains.GainSet(
        q_z=q_z, q_cz=q_z - eq_z, q_ez=eq_z,
        q_czab=0, q_ezab=0, q_czac=0, q_ezac=0,
        q_x=q_x, q_cx=q_x - eq_x, q_ex=eq_x,
        e_x=None, e_d=0.0)


def synthetic_grid(yields, errors, plan, n_cut=3):
    """Gains of a photon-number channel truncated at n_cut photons per user,
    with prescribed yields/errors; Poisson sources at the plan's levels."""
    def gain_fn(mu_a, mu_b, mu_c):
        q_z = eq_z = q_x = eq_x = 0.0
        for n, m, l in itertools.product(range(n_cut + 1), repeat=3):
            w = 1.0
            for mu, k in ((mu_a, n), (mu_b, m), (mu_c, l)):
                w *= math.exp(-mu) * mu ** k / math.factorial(k)
            y = yields[(n, m, l)]
            e = errors[(n, m, l)]
            q_z += w * y
            eq_z += w * e * y
            q_x += w * y
            eq_x += w * e * y
        return stub_gain_set(q_z, eq_z, q_x, eq_x)
    return build_gain_grid(lambda triples: [gain_fn(*t) for t in triples], plan)


class TestGainGrid:
    def test_requires_all_fifteen_patterns(self):
        plan = DecoyPlan(0.4, 0.005)
        grid = build_gain_grid(
            lambda triples: [stub_gain_set(a + b + c) for a, b, c in triples], plan)
        assert len(grid.entries) == 16  # 2 x 7 + shared vacuum under both levels
        with pytest.raises(ValueError, match="incomplete"):
            entries = dict(grid.entries)
            del entries[("decoy", (1, 0, 0))]
            GainGrid(entries)

    def test_vacuum_shared(self):
        plan = DecoyPlan(0.4, 0.005)
        calls = []
        def gains_fn(triples):
            calls.append(triples)
            return [stub_gain_set(a + b + c) for a, b, c in triples]
        grid = build_gain_grid(gains_fn, plan)
        assert len(calls) == 1  # one evaluation for the whole grid
        triples = calls[0]
        assert len(triples) == 15
        assert triples == decoy.grid_triples(plan)
        assert triples.count((0.0, 0.0, 0.0)) == 1 and triples[0] == (0.0, 0.0, 0.0)
        assert grid.gain("signal", (0, 0, 0)) is grid.gain("decoy", (0, 0, 0))
        assert grid.gain("signal", (1, 0, 1)).q_z == 0.8
        assert grid.gain("decoy", (0, 1, 1)).q_z == 0.01


class TestWcsBounds:
    @pytest.mark.parametrize("level", LEVELS)
    @given(st.integers(0, 2 ** 24 - 1), st.floats(0.3, 0.7), st.floats(0.05, 0.2))
    @settings(max_examples=30)
    def test_exact_for_truncated_source(self, level, bits, mu2, mu1):
        # levels kept well-conditioned: the cancellation amplification of the
        # estimator is ~1/mu1^3, so extreme level ratios only probe float noise
        # a source with no components above three photons makes the estimator
        # algebra cancel exactly: the bound equals the true yield/error
        rng = np.random.default_rng(bits)
        yields = {}
        errors = {}
        for key in itertools.product(range(4), repeat=3):
            yields[key] = float(rng.uniform(0.0, 1.0)) if sum(key) <= 3 else 0.0
            errors[key] = float(rng.uniform(0.0, 0.5))
        plan = DecoyPlan(mu2=mu2, mu1=mu1)
        grid = synthetic_grid(yields, errors, plan)
        bounds = level_bounds(grid, plan, LEVELS[level])
        y_true = yields[(1, 1, 1)]
        e_true = errors[(1, 1, 1)]
        assert bounds.y111_zl == pytest.approx(y_true, rel=1e-10, abs=1e-10)
        if y_true > 1e-6:
            assert bounds.e111_bxu == pytest.approx(e_true, rel=1e-6, abs=1e-8)

    def test_all_zero_grid_reports_unbounded(self):
        plan = DecoyPlan(0.4, 0.005)
        grid = build_gain_grid(lambda triples: [stub_gain_set() for _ in triples], plan)
        bounds = level_bounds(grid, plan)
        assert bounds.y111_zl == 0.0
        assert bounds.y111_xl == 0.0
        assert bounds.e111_bxu is None
        assert bounds.e111_bzu is None
        assert any("unbounded" in d for d in bounds.diagnostics)

    def test_bracketing_against_exact_engine(self):
        plan = DecoyPlan(0.4, 0.005)
        det = DetectorModel(0.93, 1e-7)
        for length in (0.0, 40.0, 90.0, 150.0):
            params = SystemParams(ChannelModel(0.2, length), det, 0.0, 1.16)
            grid = build_gain_grid(
                lambda triples: gains.wcs_gain_sets(triples, params), plan)
            bounds = level_bounds(grid, plan)
            exact = fock.exact_single_photon_stats_for(params)
            assert bounds.y111_zl <= exact.y111_z + 1e-12
            assert bounds.y111_xl <= exact.y111_x + 1e-12
            assert bounds.e111_bxu >= exact.e111_bx - 1e-12
            assert bounds.e111_bzu >= exact.e111_bz - 1e-12

    def test_error_bound_monotone_in_darks(self):
        plan = DecoyPlan(0.4, 0.005)
        def at_darks(p_d):
            det = DetectorModel(0.4, p_d)
            params = SystemParams(ChannelModel(0.2, 80.0), det, 0.0, 1.16)
            grid = build_gain_grid(
                lambda triples: gains.wcs_gain_sets(triples, params), plan)
            return level_bounds(grid, plan).e111_bxu
        assert at_darks(5e-7) >= at_darks(1e-7) - 1e-12


class TestLevelConstructors:
    @pytest.mark.parametrize("length", (0.0, 50.0, 150.0))
    def test_distribution_levels_match_poisson_levels(self, length):
        plan = DecoyPlan(0.4, 0.005)
        params = SystemParams(ChannelModel(0.2, length), DetectorModel(0.4, 1e-7),
                              0.015, 1.16)
        grid = build_gain_grid(
            lambda triples: gains.wcs_gain_sets(triples, params), plan)
        poisson = level_bounds(grid, plan, LEVELS["poisson"])
        dist = level_bounds(grid, plan, LEVELS["distribution"])
        for name in ("y111_zl", "y111_xl", "e111_bxu", "e111_bzu"):
            want = getattr(poisson, name)
            assert want > 0.0
            assert getattr(dist, name) == pytest.approx(want, rel=1e-12, abs=0.0), name

    def test_poisson_level_form(self):
        level = poisson_level(0.3)
        assert level.weights == tuple(math.exp(k * 0.3) for k in range(4))
        assert (level.c1, level.c2) == (0.3, 0.045)

    @pytest.mark.parametrize("signal, decoy_", [
        (poisson_level(0.4), poisson_level(0.0)),
        (distribution_level([1.0, 0.0, 0.0]), distribution_level(poisson_pmf(0.1))),
    ])
    def test_degenerate_levels_give_zero_bounds(self, signal, decoy_):
        plan = DecoyPlan(0.4, 0.005)
        grid = build_gain_grid(
            lambda triples: [stub_gain_set(1e-3, 1e-5, 1e-3, 1e-5) for _ in triples], plan)
        b = single_photon_bounds(grid, signal, decoy_)
        assert (b.y111_zl, b.y111_xl, b.e111_bxu, b.e111_bzu) == (0.0, 0.0, None, None)
        assert b.diagnostics == (DEGENERATE,)
        pairs = build_gain_grid(lambda triples: [(1e-3, 1e-5) for _ in triples], plan)
        m = mermin_yield_bounds(pairs, signal, decoy_)
        assert (m.y_ppp_lower, m.y_ppp_upper, m.y_mmm_upper) == (0.0, 0.0, 0.0)
        assert m.diagnostics == (DEGENERATE,)


class TestHeraldedStats:
    def test_vacuum_source(self):
        p_n = heralded_stats(0.0, DetectorModel(0.4, 1e-6))
        assert p_n[0] == 1.0
        assert p_n[1:].sum() == 0.0

    def test_perfect_trigger_never_passes_vacuum(self):
        assert heralded_stats(0.01, DetectorModel(1.0, 0.0))[0] == 0.0

    def test_normalization_and_tail(self):
        p_n = heralded_stats(5e-3, DetectorModel(0.4, 1e-7))
        assert p_n.sum() == pytest.approx(1.0, abs=1e-12)
        assert 1.0 - p_n.sum() < 1e-12  # mass beyond the cutoff

    def test_trigger_probability_formula(self):
        mu, eta, p_d = 0.02, 0.35, 1e-5
        n = np.arange(13)
        click = 1 - (1 - eta) ** n + p_d * (1 - eta) ** n  # 1 - (1-p_d)(1-eta)^n
        p_c = (mu * eta + p_d) / (1 + mu * eta)
        assert heralded_stats(mu, DetectorModel(eta, p_d)) == pytest.approx(
            mu ** n / (1 + mu) ** (n + 1) * click / p_c, rel=1e-12, abs=0.0)

    @given(st.floats(1e-5, 0.1), st.floats(0.05, 1.0), st.floats(0.0, 1e-3))
    def test_distribution_is_normalized(self, mu, eta, p_d):
        p_n = heralded_stats(mu, DetectorModel(eta, p_d))
        assert p_n.sum() == pytest.approx(1.0, abs=1e-9)
        assert (p_n >= 0).all()


class TestHeraldedBounds:
    def test_degenerate_grid(self):
        plan = DecoyPlan(5e-3, 5e-4)
        grid = build_gain_grid(lambda triples: [stub_gain_set() for _ in triples], plan)
        trig = DetectorModel(0.4, 1e-7)
        b = single_photon_bounds(grid, distribution_level(heralded_stats(5e-3, trig)),
                                 distribution_level(heralded_stats(5e-4, trig)))
        assert b.y111_zl == 0.0 and b.y111_xl == 0.0
        assert b.e111_bxu is None and b.e111_bzu is None

    def test_short_distance_bracketing(self):
        trig = DetectorModel(0.4, 1e-7)
        det = DetectorModel(0.4, 1e-7)
        plan = DecoyPlan(5e-3, 5e-4)
        stats = {0.0: vacuum_stats(), plan.mu1: heralded_stats(plan.mu1, trig),
                 plan.mu2: heralded_stats(plan.mu2, trig)}
        for length in (0.0, 50.0):
            params = SystemParams(ChannelModel(0.2, length), det, 0.015, 1.16)
            eta = det.eta_d * 10 ** (-0.2 * length / 10)

            def gain_set(a, b, c):
                return fock_gain_set((stats[a], stats[b], stats[c]), eta, det.p_d, params.e_d)

            grid = build_gain_grid(lambda triples: [gain_set(*t) for t in triples], plan)
            bounds = single_photon_bounds(grid, distribution_level(stats[plan.mu2]),
                                          distribution_level(stats[plan.mu1]))
            exact = fock.exact_single_photon_stats_for(params)
            assert bounds.y111_xl <= exact.y111_x + 1e-12
            assert bounds.y111_zl <= exact.y111_z + 1e-12
            assert bounds.e111_bxu >= exact.e111_bx - 1e-12
            assert bounds.e111_bzu >= exact.e111_bz - 1e-12


class TestMerminYieldBounds:
    def bounds_at(self, params, plan):
        eta = overall_efficiency(params.channel, params.detector)
        grid = build_gain_grid(
            lambda triples: [tuple(gains.mermin_outcome_gains(
                signs, *mus, eta, params.detector.p_d)[0]
                for signs in ((1, 1, 1), (-1, -1, -1))) for mus in triples], plan)
        return mermin_yield_bounds(grid, poisson_level(plan.mu2),
                                   poisson_level(plan.mu1))

    def test_all_zero_grid(self):
        plan = DecoyPlan(0.4, 0.005)
        zeros = build_gain_grid(lambda triples: [(0.0, 0.0) for _ in triples], plan)
        b = mermin_yield_bounds(zeros, poisson_level(plan.mu2), poisson_level(plan.mu1))
        assert (b.y_ppp_lower, b.y_ppp_upper, b.y_mmm_upper) == (0.0, 0.0, 0.0)

    def test_ideal_short_distance_suppresses_false_outcome(self):
        plan = DecoyPlan(0.4, 0.005)
        params = SystemParams(ChannelModel(0.2, 0.0), DetectorModel(1.0, 0.0),
                              0.0, 1.16)
        b = self.bounds_at(params, plan)
        y_ppp, y_mmm = (single_photon_phi_plus(pols, 1.0, 0.0) for pols in ("+++", "---"))
        assert y_mmm == 0.0
        # the false-outcome upper bound keeps the decoy-level multiphoton
        # slack (~3 mu1/2 times the four-photon yields), so "suppressed" means
        # small against the correct class, not zero
        assert b.y_mmm_upper < 5e-3 * b.y_ppp_upper
        # gains carry the 1/8 preparation probability, yields do not
        assert b.y_ppp_lower <= y_ppp / 8 + 1e-12
        assert b.y_ppp_upper >= y_ppp / 8 - 1e-12

    def test_bound_ordering_at_paper_point(self):
        plan = DecoyPlan(0.4, 0.005)
        params = SystemParams(ChannelModel(0.2, 100.0), DetectorModel(0.4, 1e-7),
                              0.015, 1.16)
        b = self.bounds_at(params, plan)
        assert b.y_ppp_lower <= b.y_ppp_upper
        eta = overall_efficiency(params.channel, params.detector)
        y_ppp, y_mmm = (single_photon_phi_plus(pols, eta, params.detector.p_d)
                        for pols in ("+++", "---"))
        assert b.y_ppp_lower <= y_ppp / 8 + 1e-12
        assert b.y_ppp_upper >= y_ppp / 8 - 1e-12
        assert b.y_mmm_upper >= y_mmm / 8 - 1e-12
