import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mdighz import fock, gains
from mdighz.decoy import (DEGENERATE, GRID, LEVEL_PATTERNS, distribution_level, grid_triples,
                          heralded_stats, mermin_yield_bounds, poisson_level,
                          single_photon_bounds, vacuum_stats)
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


def exact_stats(params):
    eta = overall_efficiency(params.channel, params.detector)
    return fock.exact_single_photon_stats([eta], fock.single_photon_yields(params.detector.p_d),
                                          params.e_d)[0]


def wcs_grid(plan, params):
    """The weak-coherent decoy grid of the plan at the params' distance."""
    eta = overall_efficiency(params.channel, params.detector)
    (grid,) = gains.wcs_gain_sets([grid_triples(plan)], [eta], params.detector.p_d, params.e_d)
    return grid


def stub_gain_set(q_z=0.0, eq_z=0.0, q_x=0.0, eq_x=0.0):
    """GainSet whose estimator-visible fields are set directly."""
    return gains.GainSet(q_z=q_z, q_x=q_x, eq_z=eq_z, eq_x=eq_x, eq_zab=0.0, eq_zac=0.0,
                         e_x=None)


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
    return [gain_fn(*t) for t in grid_triples(plan)]


class TestGainGrid:
    def test_requires_all_fifteen_patterns(self):
        plan = DecoyPlan(0.4, 0.005)
        grid = [stub_gain_set(a + b + c) for a, b, c in grid_triples(plan)]
        pairs = [(1e-3, 1e-5)] * len(GRID)
        levels = poisson_level(plan.mu2), poisson_level(plan.mu1)
        for estimator, full in ((single_photon_bounds, grid), (mermin_yield_bounds, pairs)):
            estimator(full, *levels)
            for wrong in (full[:14], full + full[:1]):
                with pytest.raises(ValueError, match="15 gains"):
                    estimator(wrong, *levels)

    def test_vacuum_shared(self):
        plan = DecoyPlan(0.4, 0.005)
        triples = grid_triples(plan)
        assert len(triples) == 15
        assert triples.count((0.0, 0.0, 0.0)) == 1 and triples[0] == (0.0, 0.0, 0.0)
        grid = [stub_gain_set(a + b + c) for a, b, c in triples]
        assert grid[GRID.index((2, 0, 2))].q_z == 0.8
        assert grid[GRID.index((0, 1, 1))].q_z == 0.01

    def test_layout(self):
        # the shared vacuum, then each level's patterns contiguous in
        # LEVEL_PATTERNS order: signal (index 2) before decoy (index 1)
        assert len(GRID) == len(set(GRID)) == 15
        assert GRID[0] == (0, 0, 0)
        for start, level in ((1, 2), (8, 1)):
            assert GRID[start:start + 7] == tuple(tuple(level * p for p in pat)
                                                  for pat in LEVEL_PATTERNS)

    @given(st.floats(5e-324, 1e3), st.floats(5e-324, 1e3))
    def test_triples_bitwise(self, a, b):
        # reference: the vacuum, then each level's intensity times its 0/1 patterns
        plan = DecoyPlan(mu2=max(a, b), mu1=min(a, b)) if a != b else DecoyPlan(2 * a, a)
        want = ((0.0, 0.0, 0.0),) + tuple(tuple(mu * p for p in pat)
                                          for mu in (plan.mu2, plan.mu1)
                                          for pat in LEVEL_PATTERNS)
        got = grid_triples(plan)
        assert [[x.hex() for x in t] for t in got] == [[x.hex() for x in t] for t in want]


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
        grid = [stub_gain_set()] * len(GRID)
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
            grid = wcs_grid(plan, params)
            bounds = level_bounds(grid, plan)
            exact = exact_stats(params)
            assert bounds.y111_zl <= exact.y111_z + 1e-12
            assert bounds.y111_xl <= exact.y111_x + 1e-12
            assert bounds.e111_bxu >= exact.e111_bx - 1e-12
            assert bounds.e111_bzu >= exact.e111_bz - 1e-12

    def test_error_bound_monotone_in_darks(self):
        plan = DecoyPlan(0.4, 0.005)
        def at_darks(p_d):
            det = DetectorModel(0.4, p_d)
            params = SystemParams(ChannelModel(0.2, 80.0), det, 0.0, 1.16)
            grid = wcs_grid(plan, params)
            return level_bounds(grid, plan).e111_bxu
        assert at_darks(5e-7) >= at_darks(1e-7) - 1e-12


class TestClamps:
    """Each clamp acts at its documented threshold and leaves its diagnostic:
    yield bounds are floored at 0, error bounds capped at 1/2."""

    SIGNAL, DECOY = poisson_level(0.5), poisson_level(0.1)
    DENOMINATOR = SIGNAL.c1 ** 2 * DECOY.c1 ** 2 * (SIGNAL.c2 * DECOY.c1 - DECOY.c2 * SIGNAL.c1)

    def bounds(self, **entries):
        """The bounds of a grid that is 0 except for the given GRID triples."""
        grid = [stub_gain_set()] * len(GRID)
        for name, gain_set in entries.items():
            grid[GRID.index(tuple(int(c) for c in name[1:]))] = gain_set
        return single_photon_bounds(grid, self.SIGNAL, self.DECOY)

    def test_negative_yield_bound_floored_at_0(self):
        # all signal users' gain alone enters the yield bound with a negative
        # weight: raw Y111_zl = -1e-9
        s, d = self.SIGNAL, self.DECOY
        q = 1e-9 * self.DENOMINATOR / (d.c1 ** 2 * d.c2 * s.weights[3])
        bounds = self.bounds(g222=stub_gain_set(q_z=q))
        assert bounds.y111_zl == 0.0
        assert "Y111_zl floored at 0 (raw -1.000e-09)" in bounds.diagnostics

    def test_error_bound_above_one_half_capped(self):
        # all decoy users' gain alone: a positive yield bound, and an error
        # gain that makes the raw e111_bzu 0.55
        s, d = self.SIGNAL, self.DECOY
        q = 1e-3
        y = s.c1 ** 2 * s.c2 * (d.weights[3] * q) / self.DENOMINATOR
        eq = 0.55 * y * d.c1 ** 3 / d.weights[3]
        bounds = self.bounds(g111=stub_gain_set(q_z=q, eq_z=eq))
        assert bounds.y111_zl == pytest.approx(y, rel=1e-15)
        assert bounds.e111_bzu == 0.5
        assert "e111_bzu capped at 1/2 (raw 5.500e-01)" in bounds.diagnostics


class TestLevelConstructors:
    @pytest.mark.parametrize("length", (0.0, 50.0, 150.0))
    def test_distribution_levels_match_poisson_levels(self, length):
        plan = DecoyPlan(0.4, 0.005)
        params = SystemParams(ChannelModel(0.2, length), DetectorModel(0.4, 1e-7),
                              0.015, 1.16)
        grid = wcs_grid(plan, params)
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
        grid = [stub_gain_set(1e-3, 1e-5, 1e-3, 1e-5)] * len(GRID)
        b = single_photon_bounds(grid, signal, decoy_)
        assert (b.y111_zl, b.y111_xl, b.e111_bxu, b.e111_bzu) == (0.0, 0.0, None, None)
        assert b.diagnostics == (DEGENERATE,)
        pairs = [(1e-3, 1e-5)] * len(GRID)
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
        grid = [stub_gain_set()] * len(GRID)
        trig = DetectorModel(0.4, 1e-7)
        b = single_photon_bounds(grid, distribution_level(heralded_stats(5e-3, trig)),
                                 distribution_level(heralded_stats(5e-4, trig)))
        assert b.y111_zl == 0.0 and b.y111_xl == 0.0
        assert b.e111_bxu is None and b.e111_bzu is None

    def test_short_distance_bracketing(self):
        trig = DetectorModel(0.4, 1e-7)
        det = DetectorModel(0.4, 1e-7)
        plan = DecoyPlan(5e-3, 5e-4)
        stats = [vacuum_stats(), heralded_stats(plan.mu1, trig), heralded_stats(plan.mu2, trig)]
        for length in (0.0, 50.0):
            params = SystemParams(ChannelModel(0.2, length), det, 0.015, 1.16)
            eta = det.eta_d * 10 ** (-0.2 * length / 10)
            grid = [fock_gain_set([stats[i] for i in t], eta, det.p_d, params.e_d)
                    for t in GRID]
            bounds = single_photon_bounds(grid, distribution_level(stats[2]),
                                          distribution_level(stats[1]))
            exact = exact_stats(params)
            assert bounds.y111_xl <= exact.y111_x + 1e-12
            assert bounds.y111_zl <= exact.y111_z + 1e-12
            assert bounds.e111_bxu >= exact.e111_bx - 1e-12
            assert bounds.e111_bzu >= exact.e111_bz - 1e-12


class TestMerminYieldBounds:
    def bounds_at(self, params, plan):
        eta = overall_efficiency(params.channel, params.detector)
        grid = [tuple(gains.mermin_outcome_gains(signs, *mus, eta, params.detector.p_d)[0]
                      for signs in ((1, 1, 1), (-1, -1, -1))) for mus in grid_triples(plan)]
        return mermin_yield_bounds(grid, poisson_level(plan.mu2),
                                   poisson_level(plan.mu1))

    def test_all_zero_grid(self):
        plan = DecoyPlan(0.4, 0.005)
        zeros = [(0.0, 0.0)] * len(GRID)
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
