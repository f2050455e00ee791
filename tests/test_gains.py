import itertools
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import yield_reference
from conftest import CONFIG_DIR, fock_gain_set
from mdighz import checks, decoy, fock, gains, keyrates, mermin, montecarlo
from mdighz.params import (ChannelModel, DecoyPlan, DetectorModel, NumericsError,
                           SystemParams, overall_efficiency, parse_config,
                           transmission_efficiency)
from yield_reference import (assemble_gain_set_reference, gain_set_reference,
                             gains_qnd_reference, ghz_outcome_yields, i0_minus_1_reference,
                             outcome_pattern_sums,
                             propagate_parties, thinned_gain_sets_reference,
                             z_gain_components_reference)

LN2 = math.log(2.0)


def z_bits(z):
    """The four class gains of a ZGainComponents, bit for bit."""
    return tuple(float.hex(v) for v in (z.a, z.b, z.c, z.d))


def mc_check(pols, intensities, eta, p_d, analytic_pair, samples=400_000,
             seed=11, slice_k=None, scale=8.0):
    """Assert both announced-class gains sit within 3 MC standard errors."""
    est_p, est_m = montecarlo.mc_coherent_gains(
        (pols,), intensities, eta, p_d, montecarlo.McConfig(samples=samples, seed=seed),
        slice_k=slice_k)
    for est, q in ((est_p, analytic_pair[0]), (est_m, analytic_pair[1])):
        assert abs(checks._mc_row("", scale * q, est).deviation) < 3.0, (est, scale * q)


def reference_outcome_sums(signs, ia, ib, ic, p_d, phi_ab, phi_bc, phi_ac):
    """Both announced-outcome probabilities at the given phase differences:
    the six detector intensities, then every click pattern as a product over
    all six detectors."""
    sa, sb, sc = signs
    mean_n = []
    for s, x, y, phi in ((sa, ia, ib, phi_ab), (sb, ib, ic, phi_bc),
                         (sc, ia, ic, phi_ac)):
        cross = s * 0.5 * math.sqrt(x * y) * np.cos(phi)
        mean_n += [(x + y) / 4.0 + cross, (x + y) / 4.0 - cross]
    click = [-np.expm1(-n) + p_d * np.exp(-n) for n in mean_n]
    silent = [(1.0 - p_d) * np.exp(-n) for n in mean_n]
    out = []
    for patterns in (fock.PHI_PLUS_PATTERNS, fock.PHI_MINUS_PATTERNS):
        total = 0.0
        for pat in patterns:
            term = 1.0
            for j in range(6):
                term = term * (click[j] if j in pat else silent[j])
            total = total + term
        out.append(total)
    return out


def plain_outcome_sums(ia, ib, ic, signs, cosines, p_d):
    """The diagonal-basis outcome sums in the float operations of the plain
    path: the six mean photon numbers, whole click and silent arrays, then the
    generator sum over the patterns.  The in-place kernel must equal it bit
    for bit."""
    mean_n = []
    for s, (x, y), c in zip(signs, ((ia, ib), (ib, ic), (ia, ic)), cosines):
        base, cross = (x + y) / 4.0, s * (0.5 * np.sqrt(x * y)) * c
        mean_n += [base + cross, base - cross]
    survive = [np.exp(-n) for n in mean_n]
    click = [-np.expm1(-n) + p_d * s for n, s in zip(mean_n, survive)]
    silent = [(1.0 - p_d) * s for s in survive]
    return outcome_pattern_sums(click, silent)


def plain_full_circle(signs, mu, nu, omega, eta, p_d, points):
    """Both outcome gains of each triple on the points^2 trapezoid grid,
    from `plain_outcome_sums`, as `mermin_outcome_gains` returns them."""
    phi = np.arange(points) * (2.0 * np.pi / points)
    pab, pac = phi[:, None], phi[None, :]
    ia, ib, ic = (np.reshape(np.multiply(m, eta), (-1, 1, 1)) for m in (mu, nu, omega))
    sums = plain_outcome_sums(ia, ib, ic, signs, (np.cos(pab), np.cos(pac - pab), np.cos(pac)),
                              p_d)
    return tuple((s.reshape(len(ia), -1).mean(axis=-1) / 8.0).tolist() for s in sums)


def gauss_legendre(n, length):
    t, w = np.polynomial.legendre.leggauss(n)
    return length / 2.0 * (t + 1.0), length / 2.0 * w


def reference_full_circle(signs, ia, ib, ic, p_d, n=128):
    """Tensor Gauss-Legendre over both phases on [0, 2 pi]^2."""
    phi, w = gauss_legendre(n, 2.0 * np.pi)
    pab, pac = phi[:, None], phi[None, :]
    weight = np.outer(w, w) / (2.0 * np.pi) ** 2 / 8.0
    sums = reference_outcome_sums(signs, ia, ib, ic, p_d, pab, pac - pab, pac)
    return [float((s * weight).sum()) for s in sums]


def reference_sliced(ia, ib, ic, p_d, k, n=64):
    """Tensor Gauss-Legendre over all three phases on [0, pi/K]^3."""
    phi, w = gauss_legendre(n, np.pi / k)
    pa, pb, pc = phi[:, None, None], phi[None, :, None], phi[None, None, :]
    weight = w[:, None, None] * w[None, :, None] * w[None, None, :] * k / np.pi ** 3
    sums = reference_outcome_sums((1, 1, 1), ia, ib, ic, p_d, pa - pb, pb - pc, pa - pc)
    return [float((s * weight).sum()) for s in sums]


class TestBesselSeries:
    """gains._i0_minus_1 sums one series for every argument: checked against
    an exact partial sum below z = 0.5 and against np.i0 above it."""

    def test_small_dyadic_arguments_against_exact_partial_sum(self):
        for k in range(32):
            z = k / 64  # dyadic: z * z / 4 is exact in binary
            q, term, exact = Fraction(z) ** 2 / 4, Fraction(1), Fraction(0)
            for j in range(1, 30):  # the remaining tail is below 1e-100 relative
                term *= q / (j * j)
                exact += term
            assert gains._i0_minus_1(z) == pytest.approx(float(exact), rel=1e-15, abs=0)

    def test_large_arguments_against_numpy_i0(self):
        # np.i0 is an independent (Cephes Chebyshev) evaluation; worst gap 4.3e-15
        for z in np.linspace(0.5, 60.0, 2000):
            assert gains._i0_minus_1(float(z)) == pytest.approx(np.i0(z) - 1.0,
                                                                rel=2e-14, abs=0)

    def test_overflow_returns_inf(self):
        assert math.isfinite(gains._i0_minus_1(713.0))
        assert gains._i0_minus_1(720.0) == math.inf

    def test_arrays_bit_for_bit_as_one_term_at_a_time(self):
        # 16 terms at a time, each element stopping at its own last term:
        # arguments past one chunk, past a few hundred, overflowing and subnormal
        rng = np.random.default_rng(5)
        z = np.concatenate([[0.0, 5e-324, 1e-160, 0.5, 3.0, 713.0, 720.0, 1e200, math.inf],
                            rng.random(200) * 800.0, 10.0 ** rng.uniform(-200.0, 3.0, 300)])
        want = np.array([i0_minus_1_reference(v) for v in z.tolist()])
        assert np.array_equal(gains._i0_minus_1(z).view(np.int64), want.view(np.int64))
        assert gains._i0_minus_1(3.0) == i0_minus_1_reference(3.0)


class TestRectilinearClosedForms:
    def test_dark_free_no_light(self):
        z = gains.z_gain_components(0, 0, 0, 0.4, 0.0)
        assert (z.a, z.b, z.c, z.d) == (0.0, 0.0, 0.0, 0.0)

    def test_special_point_one_over_128(self):
        z = gains.z_gain_components(2 * LN2, 2 * LN2, 2 * LN2, 1.0, 0.0)
        assert z.a == pytest.approx(1 / 128, rel=1e-12)

    def test_same_pol_product_and_closed_forms_agree(self):
        # the constructor asserts this internally at 1e-12; exercise a spread
        for mu, eta, p_d in [(0.4, 0.04, 1e-7), (1.2, 0.9, 1e-3),
                             (1e-4, 1e-4, 1e-9), (0.7, 0.3, 0.04)]:
            gains.z_gain_components(mu, mu / 2, mu / 3, eta, p_d)

    def test_same_pol_forms_disagreeing_by_1e_10_refused(self, monkeypatch):
        args = (0.4, 0.4, 0.4, 0.04, 1e-7)
        gains.z_gain_components(*args)
        # every exponential 5e-11 relative too large: the product form has
        # three of them and the closed form one, so they part by 1e-10
        monkeypatch.setattr(gains, "exp", lambda x: math.exp(x) * (1.0 + 5e-11))
        with pytest.raises(NumericsError, match="same-polarization gain forms disagree"):
            gains.z_gain_components(*args)

    @pytest.mark.parametrize("eta", [0.4, 0.93])
    def test_same_pol_forms_agree_where_every_group_clicks(self, eta):
        # mu eta >> 1: a one-party group's silence is ~e^{-mu eta / 2}, which
        # 1 - click would lose to cancellation
        gains.z_gain_components(50, 50, 50, eta, 1e-7)

    @pytest.mark.parametrize("mu1", [0.005, 1e-12])
    @pytest.mark.parametrize("eta, p_d", [(0.93, 1e-7), (0.4, 0.0), (4e-5, 1e-7), (0.5, 1e-3)])
    def test_grid_equals_per_triple_reference(self, eta, p_d, mu1):
        # one call for a decoy grid shares each intensity's and each pair's
        # factors; every triple keeps the float operations it has on its own
        triples = decoy.grid_triples(DecoyPlan(0.4, mu1))
        want = [z_bits(z_gain_components_reference(*t, eta, p_d)) for t in triples]
        assert [z_bits(z) for z in gains.z_gain_components(*zip(*triples), eta, p_d)] == want
        assert [z_bits(gains.z_gain_components(*t, eta, p_d)) for t in triples] == want

    def test_extremes_as_the_per_triple_reference(self):
        # every group clicks at mu = 50, and the same-polarization forms agree
        assert z_bits(gains.z_gain_components(50.0, 50.0, 50.0, 0.93, 1e-7)) == z_bits(
            z_gain_components_reference(50.0, 50.0, 50.0, 0.93, 1e-7))
        for t in [(2000.0, 2000.0, 2000.0), (1600.0, 0.0, 0.0)]:
            message = re.escape(f"mixed-class gain at intensity {max(t)!r}: its factors "
                                f"e^(intensity * eta / 2) overflow a float")
            with pytest.raises(NumericsError, match=message):
                z_gain_components_reference(*t, 0.93, 1e-7)
            with pytest.raises(NumericsError, match=message):
                gains.z_gain_components(*t, 0.93, 1e-7)
            # in a grid, the first triple refused names its own intensity
            with pytest.raises(NumericsError, match=message):
                gains.z_gain_components(*zip((0.4, 0.4, 0.4), t, (2000.0, 0.0, 0.0)), 0.93, 1e-7)

    def test_paper_point_against_monte_carlo(self):
        eta, p_d = 0.04, 1e-7
        z = gains.z_gain_components(0.4, 0.4, 0.4, eta, p_d)
        mc_check("HHH", (0.4, 0.4, 0.4), eta, p_d, (z.a, z.a), seed=5)

    def test_dark_classes_against_monte_carlo(self):
        # darks must be plentiful for the mixed classes to produce events
        mu, eta, p_d = 0.6, 0.3, 0.05
        z = gains.z_gain_components(mu, mu, mu, eta, p_d)
        mc_check("HHV", (mu, mu, mu), eta, p_d, (z.b, z.b), seed=21)
        mc_check("VHH", (mu, mu, mu), eta, p_d, (z.c, z.c), seed=22)
        mc_check("HVH", (mu, mu, mu), eta, p_d, (z.d, z.d), seed=23)

    def test_asymmetric_intensities_against_monte_carlo(self):
        eta, p_d = 0.5, 0.02
        z = gains.z_gain_components(0.9, 0.3, 0.0, eta, p_d)
        mc_check("HHV", (0.9, 0.3, 0.0), eta, p_d, (z.b, z.b), seed=31)

    @given(st.floats(0, 1.2), st.floats(0, 1.2), st.floats(0, 1.2),
           st.floats(1e-3, 1.0), st.floats(0, 0.05))
    def test_in_range_and_monotone_in_darks(self, mu, nu, om, eta, p_d):
        lo = gains.z_gain_components(mu, nu, om, eta, p_d)
        hi = gains.z_gain_components(mu, nu, om, eta, min(2 * p_d, 0.1))
        for field in ("a", "b", "c", "d"):
            v_lo, v_hi = getattr(lo, field), getattr(hi, field)
            assert 0.0 <= v_lo <= 1.0
            assert v_hi >= v_lo - 1e-15

    def test_four_way_outcome_equality(self):
        grid = [(0.4, 0.04, 1e-7), (0.05, 0.9, 1e-4), (0.8, 0.25, 1e-2)]
        assert all(row.passed for row in checks.symmetries(grid))  # samepol, to 1e-10


class TestDiagonalQuadrature:
    def test_no_light_dark_free(self):
        assert gains.mermin_outcome_gains((1, 1, 1), 0, 0, 0, 0.4, 0.0) == (0.0, 0.0)

    def test_no_light_dark_pattern_counting(self):
        p_d = 1e-3
        e, f = gains.mermin_outcome_gains((1, 1, 1), 0, 0, 0, 0.4, p_d)
        expect = p_d ** 3 * (1 - p_d) ** 3 / 2.0
        assert e == pytest.approx(expect, rel=1e-10, abs=0.0)
        assert f == pytest.approx(expect, rel=1e-10, abs=0.0)

    def test_paper_point_against_monte_carlo(self):
        eta, p_d = 0.04, 1e-7
        e, f = gains.mermin_outcome_gains((1, 1, 1), 0.4, 0.4, 0.4, eta, p_d)
        assert e > f
        mc_check("+++", (0.4, 0.4, 0.4), eta, p_d, (e, f), seed=7,
                 samples=2_000_000)

    def test_quadrature_stable_under_doubling(self, monkeypatch):
        monkeypatch.setattr(gains, "QUAD_LADDER", (128,))
        coarse = gains.mermin_outcome_gains((1, 1, 1), 0.5, 0.5, 0.5, 0.3, 1e-5)
        monkeypatch.setattr(gains, "QUAD_LADDER", (256,))
        fine = gains.mermin_outcome_gains((1, 1, 1), 0.5, 0.5, 0.5, 0.3, 1e-5)
        assert coarse == pytest.approx(fine, rel=1e-8, abs=0.0)

    @pytest.mark.parametrize("signs, intensities, eta, p_d", [
        ((1, 1, 1), (0.4, 0.4, 0.4), 0.04, 1e-7),
        ((1, -1, 1), (2.0, 1.0, 0.5), 0.93, 1e-3),
        ((-1, -1, -1), (0.6, 0.6, 0.0), 0.5, 1e-3),
        ((1, 1, -1), (0.005, 0.4, 0.4), 4e-5, 1e-7),
    ])
    def test_trapezoid_matches_gauss_legendre(self, signs, intensities, eta, p_d):
        got = gains.mermin_outcome_gains(signs, *intensities, eta, p_d)
        want = reference_full_circle(signs, *(x * eta for x in intensities), p_d)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-12, abs=0.0)

    def test_certification_refuses_non_finite(self):
        nan = float("nan")
        for q in ([nan, 0.1], [0.2, nan], [float("inf"), 0.1]):
            with pytest.raises(NumericsError, match="non-finite"):
                gains._certified(q, 0.0, "diagonal-basis gain")

    def test_certification_refuses_too_few_nodes(self, monkeypatch):
        monkeypatch.setattr(gains, "QUAD_LADDER", (4,))
        with pytest.raises(NumericsError, match="diagonal-basis"):
            gains.mermin_outcome_gains((1, 1, 1), 3.0, 3.0, 3.0, 0.9, 0.0)

    def test_certification_floor_is_per_triple(self):
        # triple 0 bright; triple 1 near 1e-9 with an error bound of 1e-6
        # relative, which only a floor set by triple 0 would forgive
        q = np.array([[1.0, 1e-9], [0.5, 2e-9]])
        with pytest.raises(NumericsError, match="error bound"):
            gains._certified(q, np.array([0.0, 1e-15]), "diagonal-basis gain")
        gains._certified(q, np.array([0.0, 0.0]), "diagonal-basis gain")
        # a bound that is no number certifies nothing
        with pytest.raises(NumericsError, match="error bound"):
            gains._certified(q, np.array([0.0, float("nan")]), "diagonal-basis gain")

    def test_stacked_certification_refuses_one_unstable_triple(self, monkeypatch):
        # the dim triples alone pass at four points; beside them the bright
        # one, which four points cannot resolve, must still be refused
        monkeypatch.setattr(gains, "QUAD_LADDER", (4,))
        dim = ([0.0, 1e-3], [1e-3, 0.0], [0.0, 0.0])
        gains.mermin_outcome_gains((1, 1, 1), *dim, 0.9, 0.0)
        with pytest.raises(NumericsError, match="diagonal-basis"):
            gains.mermin_outcome_gains((1, 1, 1), *([3.0] + d for d in dim), 0.9, 0.0)

    @pytest.mark.parametrize("eta, p_d", [(0.04, 1e-7), (4e-5, 1e-7), (0.9, 0.0),
                                          (0.5, 1e-3)])
    @pytest.mark.parametrize("signs", [(1, 1, 1), (-1, -1, -1)])
    def test_stacked_equals_per_triple_calls(self, signs, eta, p_d, monkeypatch):
        # every triple of a decoy plan: the stacked gains are bit-identical to
        # the scalar calls, because each triple keeps its own pairwise sum; one
        # rung, since a stacked call takes the rung its brightest triple needs
        monkeypatch.setattr(gains, "QUAD_LADDER", gains.QUAD_LADDER[-1:])
        triples = decoy.grid_triples(DecoyPlan(0.4, 0.005))
        assert len(triples) == 15
        q_c, q_e = gains.mermin_outcome_gains(signs, *zip(*triples), eta, p_d)
        for t, c, e in zip(triples, q_c, q_e, strict=True):
            assert (c, e) == gains.mermin_outcome_gains(signs, *t, eta, p_d), t

    @pytest.mark.parametrize("eta, p_d", [(0.04, 1e-7), (4e-5, 1e-7), (0.9, 0.0),
                                          (0.5, 1e-3)])
    @pytest.mark.parametrize("signs", [(1, 1, 1), (1, -1, 1)])
    def test_flipped_triple_swaps_the_outcomes(self, signs, eta, p_d):
        # flipping every sign swaps the detectors of each pair: phi_plus(-s) is
        # phi_minus(s), which the Mermin witness takes as the all-"-" gain
        triples = decoy.grid_triples(DecoyPlan(0.4, 0.005))
        plus, minus = gains.mermin_outcome_gains(signs, *zip(*triples), eta, p_d)
        flipped = gains.mermin_outcome_gains(tuple(-s for s in signs), *zip(*triples),
                                             eta, p_d)
        for got, want in zip(flipped, (minus, plus), strict=True):
            got, want = np.array(got), np.array(want)
            assert (np.abs(got - want) <= 4 * np.spacing(np.maximum(got, want))).all()

    def test_negated_pair_refuses_one_unstable_triple(self, monkeypatch):
        # the all-"-" triple, whose gains equal the swapped (+,+,+) outcomes,
        # is certified triple by triple as well: one bright triple is refused
        monkeypatch.setattr(gains, "QUAD_LADDER", (4,))
        dim = ([0.0, 1e-3], [1e-3, 0.0], [0.0, 0.0])
        gains.mermin_outcome_gains((-1, -1, -1), *dim, 0.9, 0.0)
        with pytest.raises(NumericsError, match="diagonal-basis"):
            gains.mermin_outcome_gains((-1, -1, -1), *([3.0] + d for d in dim), 0.9, 0.0)

    @given(st.floats(0, 0.8), st.floats(1e-3, 1.0), st.floats(0, 0.02))
    def test_in_range_and_monotone_in_darks(self, mu, eta, p_d):
        lo = gains.mermin_outcome_gains((1, 1, 1), mu, mu, mu, eta, p_d)
        hi = gains.mermin_outcome_gains((1, 1, 1), mu, mu, mu, eta, min(2 * p_d, 0.05))
        assert all(0.0 <= q <= 1.0 for q in lo)
        assert all(q_hi >= q_lo - 1e-14 for q_lo, q_hi in zip(lo, hi))


def kernel_layouts(rng, rows, nodes):
    """Random inputs of the full-circle layout: intensities (rows, 1, 1) and
    cosines (2 nodes, 1), (2 nodes, 2 nodes), (1, 2 nodes)."""
    intensities = [rng.uniform(0.0, 3.0, (rows, 1, 1)) * rng.integers(0, 2, (rows, 1, 1))
                   for _ in range(3)]
    cosines = [rng.uniform(-1.0, 1.0, shape)
               for shape in ((2 * nodes, 1), (2 * nodes, 2 * nodes), (1, 2 * nodes))]
    return intensities, cosines


def hexagon_layout(rng, points):
    """Random inputs of the phase-sliced layout: scalar intensities, cosines
    (points,)."""
    return [float(x) for x in rng.uniform(0.0, 3.0, 3)], [rng.uniform(-1.0, 1.0, points)
                                                          for _ in range(3)]


class TestOutcomeKernel:
    """The in-place kernel against the plain generator sum, bit for bit."""

    def test_equals_plain_sum_in_every_layout(self):
        rng = np.random.default_rng(20261018)
        # interleaved so that no state can carry from one call into the
        # next one of another shape
        cases = [kernel_layouts(rng, 15, 16), hexagon_layout(rng, 3072),
                 kernel_layouts(rng, 1, 16), hexagon_layout(rng, 768),
                 kernel_layouts(rng, 15, 4), kernel_layouts(rng, 15, 16),
                 hexagon_layout(rng, 768), kernel_layouts(rng, 1, 16)]
        for (ia, ib, ic), cosines in cases:
            signs = tuple(int(x) for x in rng.choice((-1, 1), 3))
            p_d = float(rng.choice((0.0, 1e-7, rng.uniform(0.0, 0.05))))
            want = plain_outcome_sums(ia, ib, ic, signs, cosines, p_d)
            sums = [s.copy() for s, _ in gains._outcome_sums(np.array((ia, ib, ic)), signs,
                                                             cosines, p_d)]
            assert len(sums) == 2
            for got, expect in zip(sums, want, strict=True):
                assert got.shape == expect.shape
                assert np.array_equal(got, expect)

    def test_gains_equal_plain_path_across_node_changes(self, monkeypatch):
        rng = np.random.default_rng(7)
        mu, nu, omega = (rng.uniform(0.0, 1.0, 15) for _ in range(3))
        for points in (32, 16, 64, 32):
            monkeypatch.setattr(gains, "QUAD_LADDER", (points,))
            got = gains.mermin_outcome_gains((1, -1, 1), mu, nu, omega, 0.04, 1e-6)
            want = plain_full_circle((1, -1, 1), mu, nu, omega, 0.04, 1e-6, points)
            assert got == want, points
            one = gains.mermin_outcome_gains((1, -1, 1), mu[3], nu[3], omega[3], 0.04, 1e-6)
            assert one == (want[0][3], want[1][3])

    def test_pattern_order_of_the_negated_triple(self):
        # the identity the Mermin witness relies on: swapping the detectors of
        # every pair maps the phi_plus patterns onto the phi_minus ones reversed
        swapped = [tuple(j ^ 1 for j in p) for p in fock.PHI_PLUS_PATTERNS]
        assert swapped == list(fock.PHI_MINUS_PATTERNS[::-1])

    def test_threads_at_once_get_their_own_gains(self):
        # two threads at once, each alternating a 15-row and a 1-row stacked
        # call; any state shared between calls would mix their grids
        triples = decoy.grid_triples(DecoyPlan(0.4, 0.005))
        calls = [((1, 1, 1), *zip(*triples), 0.04, 1e-7),
                 ((1, -1, 1), *triples[7], 0.5, 1e-3)]
        want = [gains.mermin_outcome_gains(*c) for c in calls]
        results, errors = [[], []], []

        def run(k):
            try:
                for i in range(20):
                    c = calls[(i + k) % 2]
                    results[k].append((c, gains.mermin_outcome_gains(*c)))
            except Exception as exc:  # reported below, the thread must not hide it
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        for k in range(2):
            assert len(results[k]) == 20
            for c, got in results[k]:
                assert got == want[calls.index(c)]


class TestSignPatternGains:
    def test_even_flip_leaves_gain(self):
        q1 = gains.mermin_outcome_gains((1, 1, 1), 0.3, 0.3, 0.3, 0.2, 1e-5)
        q2 = gains.mermin_outcome_gains((1, -1, -1), 0.3, 0.3, 0.3, 0.2, 1e-5)
        assert q1[0] == pytest.approx(q2[0], rel=1e-10, abs=0.0)

    def test_eight_pattern_classes(self):
        assert all(row.passed for row in checks.symmetries([(0.4, 0.1, 1e-6)]))  # signclasses

    def test_no_light(self):
        assert gains.mermin_outcome_gains((1, -1, 1), 0, 0, 0, 0.3, 0.0) == (0.0, 0.0)

    def test_decoy_combo_against_monte_carlo(self):
        eta, p_d = 0.5, 1e-3
        q = gains.mermin_outcome_gains((1, 1, 1), 0.6, 0.6, 0.0, eta, p_d)
        mc_check("++-", (0.6, 0.6, 0.0), eta, p_d,
                 gains.mermin_outcome_gains((1, 1, -1), 0.6, 0.6, 0.0, eta, p_d),
                 seed=41, samples=2_000_000)
        # vacuum third arm: the sign of the dark user cannot matter
        q2 = gains.mermin_outcome_gains((1, 1, -1), 0.6, 0.6, 0.0, eta, p_d)
        assert q[0] == pytest.approx(q2[0], rel=1e-10, abs=0.0)


class TestSlicedGains:
    def test_no_light_reports_no_signal(self):
        sliced = gains.phase_sliced_gains(0, 0, 0, 0.4, 0.0, 8)
        assert sliced.q_total == 0.0
        assert sliced.error_rate(0.0) is None

    def test_k_equal_one_reduces_to_full_average(self):
        eta, p_d = 0.1, 1e-5
        sliced = gains.phase_sliced_gains(0.3, 0.3, 0.3, eta, p_d, 1)
        e, f = gains.mermin_outcome_gains((1, 1, 1), 0.3, 0.3, 0.3, eta, p_d)
        assert sliced.q_c == pytest.approx(8 * e, rel=1e-8, abs=0.0)
        assert sliced.q_e == pytest.approx(8 * f, rel=1e-8, abs=0.0)

    def test_paper_point_error_well_below_plateau(self):
        eta = 0.04
        sliced = gains.phase_sliced_gains(0.11, 0.11, 0.11, eta, 1e-7, 8)
        assert sliced.error_rate(0.0) < 0.10  # vs the 37.5% plateau

    def test_large_k_shrinks_misalignment_residual(self):
        # narrower slices align the phases; the error falls toward the dark floor
        eta = 0.4
        wide = gains.phase_sliced_gains(0.2, 0.2, 0.2, eta, 1e-7, 8)
        tight = gains.phase_sliced_gains(0.2, 0.2, 0.2, eta, 1e-7, 64)
        assert tight.error_rate(0.0) < wide.error_rate(0.0) / 10
        assert tight.error_rate(0.0) < 1e-3

    @pytest.mark.parametrize("k", [1, 8, 64])
    @pytest.mark.parametrize("mu, eta, p_d", [(0.5, 0.3, 1e-4), (0.11, 4e-5, 1e-7)])
    def test_hexagon_rule_matches_3d_gauss_legendre(self, k, mu, eta, p_d):
        sliced = gains.phase_sliced_gains(mu, 0.8 * mu, 1.2 * mu, eta, p_d, k)
        want = reference_sliced(mu * eta, 0.8 * mu * eta, 1.2 * mu * eta, p_d, k)
        assert sliced.q_c == pytest.approx(want[0], rel=1e-12, abs=0.0)
        assert sliced.q_e == pytest.approx(want[1], rel=1e-12, abs=0.0)

    def test_certification_refuses_too_few_nodes(self, monkeypatch):
        monkeypatch.setattr(gains, "QUAD_LADDER", (4,))
        with pytest.raises(NumericsError, match="phase-sliced"):
            gains.phase_sliced_gains(3.0, 3.0, 3.0, 0.9, 0.0, 1)

    def test_against_monte_carlo(self):
        eta, p_d, k = 0.3, 1e-4, 4
        sliced = gains.phase_sliced_gains(0.5, 0.5, 0.5, eta, p_d, k)
        mc_check("+++", (0.5, 0.5, 0.5), eta, p_d, (sliced.q_c, sliced.q_e),
                 seed=17, samples=1_000_000, slice_k=k, scale=k * k)

    def test_gauss_legendre_is_leggauss_bit_for_bit(self):
        for n in sorted({*gains.QUAD_LADDER, *range(2, 41)}):
            got, want = gains._gauss_legendre(n), np.polynomial.legendre.leggauss(n)
            for g, w in zip(got, want, strict=True):
                assert g.tobytes() == w.tobytes(), n

    def test_sliced_gains_leave_numpy_polynomial_unimported(self):
        code = ("import sys, mdighz.cli\n"
                "from mdighz import gains\n"
                "gains.phase_sliced_gains(0.11, 0.11, 0.11, 0.04, 1e-7, 8)\n"
                "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))")
        src = str(Path(gains.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, timeout=60)
        assert (run.returncode, run.stdout.strip()) == (0, "[]"), run.stderr


SIGN_TRIPLES = tuple(itertools.product((1, -1), repeat=3))
INTENSITIES = st.tuples(*[st.floats(0, 3)] * 3)
# the ladder, and below it rules coarse enough that their truncation error
# shows above rounding
RUNGS = (2, 3, 4, 6, *gains.QUAD_LADDER)


def rounding_allowance(intensities, p_d, norm):
    """16 ulps of the real-line modulus bound of the integrand: both the rule
    and the reference round each node to a few ulps of it, and sum
    nonnegative weighted terms."""
    scale, ratio = gains._group_bounds(np.reshape(intensities, (3, 1)), p_d, np.ones((1, 1)))
    return 16 * 2.0 ** -52 * float(scale[0] * ratio.prod()) / norm


class TestQuadratureBounds:
    """The a priori bounds cover the measured error at every rung, and their
    scale is below the gains it stands for."""

    @given(INTENSITIES, st.floats(0, 0.05), st.sampled_from(SIGN_TRIPLES))
    def test_circle_bound_covers_the_error(self, intensities, p_d, signs):
        x = np.reshape(intensities, (3, 1))
        bound, scale = gains._circle_bound(x, p_d, RUNGS)
        want = np.array(reference_full_circle(signs, *intensities, p_d))
        slack = rounding_allowance(intensities, p_d, 8.0)
        assert scale[0] <= want.sum() + slack
        for points, b in zip(RUNGS, bound[:, 0] * scale[0], strict=True):
            got = gains._circle_quad(signs, x, p_d, points)[:, 0]
            assert (np.abs(got - want) <= b + slack).all(), points

    @given(INTENSITIES, st.floats(0, 0.05), st.sampled_from((1, 8, 64)))
    def test_hexagon_bound_covers_the_error(self, intensities, p_d, k):
        x = np.reshape(intensities, (3, 1))
        bound, scale = gains._hexagon_bound(x, p_d, k, RUNGS)
        want = np.array(reference_sliced(*intensities, p_d, k))
        slack = rounding_allowance(intensities, p_d, k * k)
        assert scale[0] <= want.sum() + slack
        for nodes, b in zip(RUNGS, bound[:, 0] * scale[0], strict=True):
            got = gains._sliced_quad(x, p_d, k, nodes)[:, 0]
            assert (np.abs(got - want) <= b + slack).all(), nodes

    def test_dim_grid_takes_the_smallest_rung(self):
        # a decoy grid at 100 km needs no more than the smallest rung, and gets
        # exactly its gains; the same grid at 0 km needs more
        triples = decoy.grid_triples(DecoyPlan(0.4, 0.005))
        got = gains.mermin_outcome_gains((1, 1, 1), *zip(*triples), 0.004, 1e-7)
        assert got == plain_full_circle((1, 1, 1), *zip(*triples), 0.004, 1e-7,
                                        gains.QUAD_LADDER[0])
        bright = np.multiply(triples, 0.93).T
        assert gains._rungs(gains._circle_bound(bright, 1e-7, gains.QUAD_LADDER)[0], 15)[0] > 0


WCS_CONFIGS = ("qcc_eta40", "qcc_eta93", "qss_pps_eta40", "qss_pps_eta93", "mermin_eta40",
               "mermin_eta93", "validate")
REFUSED = ("diagonal-basis gain: the quadrature error bound exceeds 1e-08 relative at 32 "
           "points per axis")


def grid_efficiencies(cfg):
    return [overall_efficiency(p.channel, p.detector)
            for p in map(cfg.system.at_distance, cfg.sweep.distances())]


class TestStackedDistances:
    """Many distances per evaluation, each row at the rung its own triples
    need, give the gains of one call per distance, bit for bit."""

    @pytest.mark.parametrize("name", WCS_CONFIGS)
    def test_full_grid_equals_per_distance_calls(self, name):
        cfg = parse_config((CONFIG_DIR / f"{name}.cfg").read_text())
        etas, p_d = grid_efficiencies(cfg), cfg.system.detector.p_d
        mus = list(zip(*decoy.grid_triples(cfg.decoy)))
        assert gains.mermin_outcome_gains((1, 1, 1), *mus, etas, p_d) == [
            gains.mermin_outcome_gains((1, 1, 1), *mus, eta, p_d) for eta in etas]
        if cfg.phase is not None:
            args = (cfg.decoy.mu2,) * 3
            assert gains.phase_sliced_gains(*args, etas, p_d, cfg.phase.k) == [
                gains.phase_sliced_gains(*args, eta, p_d, cfg.phase.k) for eta in etas]

    def test_rows_of_one_chunk_take_their_own_rungs(self):
        # 0 km at eta_d 0.93 needs 16 points per axis, 100 km 8, eta 0.4 12
        triples = decoy.grid_triples(DecoyPlan(0.4, 0.005))
        etas = [0.93, 0.93e-2, 0.4, 0.93]
        x = (np.transpose(triples)[:, None, :] * np.array(etas)[:, None]).reshape(3, -1)
        bound = gains._circle_bound(x, 1e-7, gains.QUAD_LADDER)[0]
        assert gains._rungs(bound, 15) == [2, 0, 1, 2]
        mus = list(zip(*triples))
        assert gains.mermin_outcome_gains((1, -1, 1), *mus, etas, 1e-7) == [
            gains.mermin_outcome_gains((1, -1, 1), *mus, eta, 1e-7) for eta in etas]

    def test_one_uncertifiable_row_refuses_the_chunk(self):
        # the message of a lone bright row, as source.mu = 50 at 0 km gives
        mus = list(zip(*decoy.grid_triples(DecoyPlan(50.0, 0.005))))
        gains.mermin_outcome_gains((1, 1, 1), *mus, [1e-4, 1e-4], 1e-7)
        gains.phase_sliced_gains(50.0, 50.0, 50.0, [1e-4, 1e-4], 1e-7, 1)
        for etas in ([0.93], [1e-4, 0.93, 1e-4]):
            with pytest.raises(NumericsError) as refused:
                gains.mermin_outcome_gains((1, 1, 1), *mus, etas, 1e-7)
            assert str(refused.value) == REFUSED
            with pytest.raises(NumericsError) as refused:
                gains.phase_sliced_gains(50.0, 50.0, 50.0, etas, 1e-7, 1)
            assert str(refused.value) == REFUSED.replace("diagonal-basis", "phase-sliced")

    def test_full_grid_sweeps_evaluate_pieces_within_budget(self, monkeypatch):
        # every evaluated piece: its rule, rung, rows and the peak of the
        # memory it allocates, as tracemalloc sees numpy's arrays
        pieces = []

        def traced(quad, rows):
            def run(*args):
                tracemalloc.start()
                try:
                    return quad(*args)
                finally:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    pieces.append((quad.__name__, args[-1], rows(args), peak))
            return run

        monkeypatch.setattr(gains, "_circle_quad",
                            traced(gains._circle_quad, lambda a: a[1].shape[1] // 15))
        monkeypatch.setattr(gains, "_sliced_quad",
                            traced(gains._sliced_quad, lambda a: a[0].shape[1]))
        for name in WCS_CONFIGS[:-1]:
            cfg = parse_config((CONFIG_DIR / f"{name}.cfg").read_text())
            if name.startswith("mermin"):
                assert len(mermin.mermin_curve(cfg)) == 181
            else:
                keyrates.sweep(name.rpartition("_")[0], cfg)
        # the cap bounds the arrays a piece makes; numpy's broadcasting ufuncs
        # add iteration buffers of up to np.getbufsize() elements per operand
        allowed = 8 * (gains._STACK_FLOATS + 3 * np.getbufsize())
        assert all(peak <= allowed for *_, peak in pieces)
        # rows at 8 points per axis were stacked, by both rules
        for rule in ("_circle_quad", "_sliced_quad"):
            assert max(rows for name, n, rows, _ in pieces if (name, n) == (rule, 8)) > 1


def class_split(*classes):
    """The GainSets of the class gains (a, b, c, d, e, f) at e_d = 1 and at
    e_d = 0: their error gains are the correct- and the false-class sums,
    exactly."""
    return gains.assemble_gain_set(*classes, 1.0), gains.assemble_gain_set(*classes, 0.0)


class TestAssembly:
    def test_misalignment_free_reduction(self):
        a, b, c, d, e, f = classes = (1e-4, 2e-5, 3e-5, 4e-5, 1e-4, 5e-5)
        correct, false = class_split(*classes)
        assert correct[:2] == false[:2] == (4 * a + 4 * (b + c + d), 8 * e + 8 * f)
        # same polarization, Alice-Bob, Alice-Charlie, diagonal basis
        assert (correct.eq_z, false.eq_z) == (4 * a, 4 * (b + c + d))
        assert (correct.eq_zab, false.eq_zab) == (4 * a + 2 * b + 2 * d, 2 * b + 4 * c + 2 * d)
        assert (correct.eq_zac, false.eq_zac) == (4 * a + 2 * c + 2 * d, 4 * b + 2 * c + 2 * d)
        assert (correct.eq_x, false.eq_x) == (8 * e, 8 * f)
        assert false.e_x == pytest.approx(8 * f / false.q_x, rel=1e-15)

    def test_only_correct_class_gives_e_d(self):
        gs = gains.assemble_gain_set(1e-3, 0.0, 0.0, 0.0, 0, 0, 0.037)
        assert gs.eq_z / gs.q_z == pytest.approx(0.037)
        assert gs.eq_zab / gs.q_z == pytest.approx(0.037)

    def test_pairwise_split_identity(self):
        z = gains.z_gain_components(0.4, 0.4, 0.4, 0.04, 1e-7)
        correct, false = class_split(z.a, z.b, z.c, z.d, 0, 0)
        assert correct.eq_zab + false.eq_zab == pytest.approx(correct.q_z, rel=1e-12)
        assert correct.eq_zac + false.eq_zac == pytest.approx(correct.q_z, rel=1e-12)
        assert correct.eq_z + false.eq_z == correct.q_z

    def test_no_signal_is_none_not_nan(self):
        gs = gains.assemble_gain_set(0, 0, 0, 0, 0, 0, 0.1)
        assert gs.e_x is None
        assert (gs.eq_z, gs.eq_zab, gs.eq_zac, gs.eq_x) == (0.0, 0.0, 0.0, 0.0)

    def test_error_composition_identity(self):
        z = gains.z_gain_components(0.5, 0.4, 0.3, 0.2, 1e-4)
        classes = (z.a, z.b, z.c, z.d,
                   *gains.mermin_outcome_gains((1, 1, 1), 0.5, 0.4, 0.3, 0.2, 1e-4))
        gs = gains.assemble_gain_set(*classes, 0.015)
        correct, false = class_split(*classes)
        for field in ("eq_z", "eq_zab", "eq_zac", "eq_x"):
            assert getattr(gs, field) == pytest.approx(
                0.015 * getattr(correct, field) + 0.985 * getattr(false, field), rel=1e-12)
        assert gs.e_x * gs.q_x == pytest.approx(
            0.015 * correct.eq_x + 0.985 * false.eq_x, rel=1e-12)

    def test_wcs_gain_sets_equal_per_triple_assembly(self):
        params = SystemParams(ChannelModel(0.2, 120.0), DetectorModel(0.4, 1e-7),
                              0.015, 1.16)
        eta = overall_efficiency(params.channel, params.detector)
        triples = decoy.grid_triples(DecoyPlan(0.4, 0.005))
        (grid,) = gains.wcs_gain_sets([triples], [eta], 1e-7, 0.015)
        for t, gs in zip(triples, grid, strict=True):
            z = gains.z_gain_components(*t, eta, 1e-7)
            want = gains.assemble_gain_set(
                z.a, z.b, z.c, z.d, *gains.mermin_outcome_gains((1, 1, 1), *t, eta, 1e-7), 0.015)
            assert gs == want, t


def bits(values):
    """Floats by their bits (None kept), so that 0.0 and -0.0 differ."""
    return tuple(None if v is None else float.hex(v) for v in values)


def row_reference(triples, eta, p_d, e_d):
    """The GainSets of one row: its own quadrature call (a row takes the rung
    its triples need together), then each triple on its own, by the
    per-triple closed forms and the scalar assembly."""
    x = gains.mermin_outcome_gains((1, 1, 1), *zip(*triples), eta, p_d)
    sets = []
    for t, e, f in zip(triples, *x):
        z = z_gain_components_reference(*t, eta, p_d)
        sets.append(assemble_gain_set_reference(z.a, z.b, z.c, z.d, e, f, e_d))
    return sets


# efficiencies of a sweep's rows: unit, vanishing and zero efficiency among them
ROW_ETAS = [1.0, 0.93 * 10 ** (-0.02 * 50), 1e-12, 0.0, 4e-5]


class TestRowClosedForms:
    """The rectilinear closed forms and the assembly of all rows of a call in
    one array pass equal each triple on its own in Python floats, bit for bit;
    a refusal names the first triple of the first row refused."""

    @pytest.mark.parametrize("rows", [1, 2, 51])
    @pytest.mark.parametrize("p_d", [1e-7, 0.0])
    def test_sweep_layout(self, rows, p_d):
        # one plan's triples for every row, one efficiency per row
        triples = decoy.grid_triples(DecoyPlan(0.4, 0.005))
        etas = (ROW_ETAS * 11)[:rows] if rows < 51 else np.geomspace(0.93, 1e-6, rows).tolist()
        q = gains.z_gain_components(*zip(*triples), etas, p_d)
        assert q.shape == (4, rows, len(triples))
        for row, eta in zip(q.transpose(1, 2, 0), etas):
            assert [bits(z) for z in row.tolist()] == [
                z_bits(z_gain_components_reference(*t, eta, p_d)) for t in triples]
        grids = gains.wcs_gain_sets([triples] * rows, etas, p_d, 0.015)
        assert [[bits(gs) for gs in grid] for grid in grids] == [
            [bits(gs) for gs in row_reference(triples, eta, p_d, 0.015)] for eta in etas]

    def test_search_layout_with_repeated_and_zero_intensities(self):
        # a plan per row, as an optimize round's trials; the last rows repeat
        # an intensity across users and put zero beside it
        plans = [DecoyPlan(mu, 0.005) for mu in (0.2, 0.35, 0.8)]
        grids = [decoy.grid_triples(plan) for plan in plans]
        grids += [[(0.3, 0.3, 0.0), (0.0, 0.0, 0.0), (0.3, 0.0, 0.3), (0.3, 0.3, 0.3)] * 4]
        grids[-1] = grids[-1][:15]
        etas = [0.01, 0.01, 1.0, 0.0]
        q = gains.z_gain_components(*np.transpose(grids, (2, 0, 1)), etas, 1e-7)
        for row, triples, eta in zip(q.transpose(1, 2, 0), grids, etas):
            assert [bits(z) for z in row.tolist()] == [
                z_bits(z_gain_components_reference(*t, eta, 1e-7)) for t in triples]
        got = gains.wcs_gain_sets(grids, etas, 1e-7, 0.015)
        assert [[bits(gs) for gs in grid] for grid in got] == [
            [bits(gs) for gs in row_reference(t, eta, 1e-7, 0.015)]
            for t, eta in zip(grids, etas)]

    def test_a_row_without_signal_has_no_error_rate(self):
        # no light reaches a dark-free detector: q_x == 0, so e_x is None
        triples = decoy.grid_triples(DecoyPlan(0.4, 0.005))
        dark, lit = gains.wcs_gain_sets([triples] * 2, [0.0, 0.04], 0.0, 0.015)
        assert all(gs.q_x == 0.0 and gs.e_x is None for gs in dark)
        assert all((gs.e_x is None) == (gs.q_x == 0.0) for gs in lit)
        assert lit[decoy.GRID.index((2, 2, 2))].e_x is not None
        assert [bits(gs) for gs in dark] == [bits(gs) for gs in
                                             row_reference(triples, 0.0, 0.0, 0.015)]

    def test_one_row_is_the_scalar_case(self):
        triples = decoy.grid_triples(DecoyPlan(0.4, 0.005))
        (row,) = gains.z_gain_components(*zip(*triples), [0.04], 1e-7).transpose(1, 2, 0)
        assert [z_bits(z) for z in gains.z_gain_components(*zip(*triples), 0.04, 1e-7)] == [
            bits(z) for z in row.tolist()]
        assert z_bits(gains.z_gain_components(*triples[5], 0.04, 1e-7)) == bits(row[5].tolist())

    @pytest.mark.parametrize("e_d", [0.0, 0.015, 1.0])
    def test_assembly_equals_the_scalar_form(self, e_d):
        rng = np.random.default_rng(7)
        classes = rng.random((6, 40)) * 10.0 ** rng.integers(-30, 0, (6, 40))
        classes[:, :3] = 0.0  # no signal at all
        classes[4:, 3] = 0.0  # no diagonal-basis signal
        got = gains.assemble_gain_set(*classes, e_d)
        assert [bits(gs) for gs in got] == [bits(assemble_gain_set_reference(*c, e_d))
                                            for c in classes.T.tolist()]
        assert got[3].e_x is None and got[4].e_x is not None
        assert bits(gains.assemble_gain_set(*classes[:, 5].tolist(), e_d)) == bits(got[5])

    def test_refusals_in_row_order(self, monkeypatch):
        # row 0 overflows at its last triple, row 1 fails the same-polarization
        # check at its first: row 0's message, as the per-triple form gives it
        rows = [[(0.4, 0.4, 0.4), (0.3, 0.2, 0.1), (1600.0, 0.0, 0.0)],
                [(0.5, 0.5, 0.5), (0.4, 0.4, 0.4), (0.3, 0.2, 0.1)]]
        etas = [0.93, 0.5]
        total = 3 * (0.5 * 0.5)  # row 1's first triple total, arriving
        monkeypatch.setattr(gains, "exp",
                            lambda v: math.exp(v) * (1.0 + 1e-9 * (v == -total / 2.0)))
        mus = np.transpose(rows, (2, 0, 1))
        with pytest.raises(NumericsError) as first:
            z_gain_components_reference(*rows[0][2], etas[0], 1e-7)
        with pytest.raises(NumericsError) as refused:
            gains.z_gain_components(*mus, etas, 1e-7)
        assert str(refused.value) == str(first.value)
        # without row 0's overflow, row 1's check; before a later overflow in its row
        rows[0][2] = (0.2, 0.2, 0.2)
        rows[1][2] = (1600.0, 0.0, 0.0)
        with pytest.raises(NumericsError, match="same-polarization gain forms disagree"):
            gains.z_gain_components(*np.transpose(rows, (2, 0, 1)), etas, 1e-7)

    def test_the_check_comes_before_the_overflow_of_one_triple(self, monkeypatch):
        # a triple that overflows and fails the check is refused by the check
        gains.z_gain_components(0.4, 0.4, 0.4, [0.93], 1e-7)
        monkeypatch.setattr(gains, "A_CONSISTENCY_RTOL", -1.0)  # every triple fails it
        with pytest.raises(NumericsError, match="same-polarization gain forms disagree"):
            gains.z_gain_components((1600.0, 0.4), (0.0, 0.4), (0.0, 0.4), [0.93], 1e-7)
        with pytest.raises(NumericsError, match="same-polarization gain forms disagree"):
            gains.z_gain_components(0.4, 0.4, 0.4, [0.93], 1e-7)


class TestHeraldedGains:
    def test_vacuum_levels_give_dark_gains(self):
        dists = (decoy.vacuum_stats(),) * 3
        correct, false = (fock_gain_set(dists, 0.4, 1e-3, e_d) for e_d in (1.0, 0.0))
        z = gains.z_gain_components(0, 0, 0, 0.4, 1e-3)
        assert correct.eq_z == pytest.approx(4 * z.a, rel=1e-12, abs=0.0)
        assert false.eq_z == pytest.approx(4 * (z.b + z.c + z.d), rel=1e-12, abs=0.0)

    def test_high_photon_terms_negligible_at_small_mu(self):
        # term-by-term audit: everything above three total photons is < 1%
        trig = DetectorModel(0.4, 1e-7)
        p_n = decoy.heralded_stats(1e-3, trig)
        eta, p_d = 0.04, 0.0
        dists = (p_n,) * 3
        full = fock_gain_set(dists, eta, p_d)
        def high_order_fraction(st):
            total = fock_gain_set((st,) * 3, eta, p_d).q_x
            low_orders = 0.0
            for n, m, l in itertools.product(range(4), repeat=3):
                if n + m + l > 3:
                    continue
                w = st[n] * st[m] * st[l]
                yp, ym = ghz_outcome_yields(
                    propagate_parties("+++", (n, m, l)), eta, p_d)
                low_orders += w * (yp + ym)
            return abs(total - low_orders) / total

        # the four-photon sector carries a ~4x yield enhancement, so the
        # measured high-order share at mu = 1e-3 is ~1.9%; it falls below 1%
        # one intensity octave lower
        assert high_order_fraction(p_n) < 0.02
        assert high_order_fraction(decoy.heralded_stats(5e-4, trig)) < 0.01
        assert full.q_x > 0

    def test_matches_poisson_mixture_of_coherent_forms(self):
        # Poisson number distributions turn the Fock sum back into the
        # closed-form rectilinear gains (cross-engine consistency)
        mu, eta, p_d = 0.15, 0.3, 1e-4
        ns = np.arange(13)
        pois = np.exp(-mu) * mu ** ns / np.vectorize(math.factorial)(ns)
        dists = (pois, pois, pois)
        correct, false = (fock_gain_set(dists, eta, p_d, e_d, tail_budget=1e-9)
                          for e_d in (1.0, 0.0))
        z = gains.z_gain_components(mu, mu, mu, eta, p_d)
        e, f = gains.mermin_outcome_gains((1, 1, 1), mu, mu, mu, eta, p_d)
        assert correct.eq_z == pytest.approx(4 * z.a, rel=1e-8, abs=0.0)
        assert false.eq_z == pytest.approx(4 * (z.b + z.c + z.d), rel=1e-7, abs=0.0)
        assert correct.eq_x == pytest.approx(8 * e, rel=1e-8, abs=0.0)
        assert false.eq_x == pytest.approx(8 * f, rel=1e-7, abs=0.0)

    @pytest.mark.parametrize("eta, p_d", [(0.04, 1e-7), (4e-5, 1e-7), (1.0, 0.0)])
    def test_matches_per_triple_sum(self, eta, p_d):
        # reference: the yields of every triple within the cutoff from its own
        # distribution.  The thinned sum also carries the triples below the
        # truncation floor (they thin into the table's triples), which reach
        # 7e-13 of q_ex here, so the reference keeps them too.
        trig = DetectorModel(0.4, 1e-7)
        p_n = decoy.heralded_stats(5e-3, trig)
        vac = decoy.vacuum_stats()
        for dists in ((p_n, p_n, p_n), (p_n, vac, p_n)):
            comps = np.zeros(6)
            for n, m, l in itertools.product(range(13), repeat=3):
                w = dists[0][n] * dists[1][m] * dists[2][l]
                if w == 0.0 or n + m + l > fock.N_MAX:
                    continue
                ys = [ghz_outcome_yields(propagate_parties(pols, (n, m, l)),
                                         eta, p_d)
                      for pols in ("HHH", "HHV", "VHH", "HVH", "+++")]
                comps += w * np.array([(y[0] + y[1]) / 16.0 for y in ys[:4]]
                                      + [ys[4][0] / 8.0, ys[4][1] / 8.0])
            for want, got in zip(class_split(*comps.tolist()),
                                 (fock_gain_set(dists, eta, p_d, e_d) for e_d in (1.0, 0.0))):
                assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_shared_yields_give_identical_gain_sets(self):
        trig = DetectorModel(0.4, 1e-7)
        levels = [decoy.vacuum_stats(), decoy.heralded_stats(5e-4, trig),
                  decoy.heralded_stats(5e-3, trig)]
        combos = list(itertools.product(range(3), repeat=3))
        (shared,) = gains.thinned_gain_sets(gains.fock_components(levels, combos, 1e-7),
                                            [(levels, fock.thinning_matrix(0.004))], combos, 0.015)
        for combo, gs in zip(combos, shared, strict=True):
            dists = tuple(levels[k] for k in combo)
            assert gs == fock_gain_set(dists, 0.004, 1e-7, 0.015)

    def test_truncation_budget_enforced(self, monkeypatch):
        ns = np.arange(13)
        mu = 3.0  # far too bright for the cutoff
        pois = np.exp(-mu) * mu ** ns / np.vectorize(math.factorial)(ns)

        def no_table(*args):
            pytest.fail("the yield table was built for a refused source")

        # the budget is checked before any table is built or looked up
        monkeypatch.setattr(fock, "ideal_detector_table", no_table)
        with pytest.raises(NumericsError, match="truncation"):
            gains.fock_components((pois, pois, pois), [(0, 1, 2)], 0.0)


def qnd_gain_set(mu, eta_t, detector, e_d):
    """The GainSet of (mu, mu, mu) behind the <=1-photon filter: the Poisson
    level at mu * eta_t cut to at most one photon, thinned by the detector
    efficiency against the one-photon class components."""
    lam = mu * eta_t
    comps = gains.class_yields(np.ones((2, 2, 2), dtype=bool), detector.p_d)
    level = [(math.exp(-lam), lam * math.exp(-lam))]
    return gains.thinned_gain_sets(comps, [(level, fock.thinning_matrix(detector.eta_d))],
                                   [(0, 0, 0)], e_d)[0][0]


class TestQndGains:
    def test_no_light(self):
        gs = qnd_gain_set(0.0, 0.5, DetectorModel(0.4, 0.0), 0.0)
        assert gs.q_z == 0.0 and gs.q_x == 0.0

    def test_equals_restricted_fock_sum(self):
        mu, eta_t = 0.4, 0.1
        det = DetectorModel(0.4, 1e-7)
        gs = qnd_gain_set(mu, eta_t, det, 1.0)  # eq_z is then the same-polarization sum
        lam = mu * eta_t
        total = 0.0
        for n, m, l in itertools.product((0, 1), repeat=3):
            w = math.exp(-3 * lam) * lam ** (n + m + l)
            y = ghz_outcome_yields(
                propagate_parties("HHH", (n, m, l)), det.eta_d, det.p_d)
            total += w * (y[0] + y[1]) / 4.0  # both outcomes, two same-pol triples / 8
        assert gs.eq_z == pytest.approx(total, rel=1e-12, abs=0.0)

    def test_unit_detector_efficiency_equals_restricted_fock_sum(self):
        # at eta_d = 1 an empty detector clicks with exactly p_d; the mixed
        # classes need a dark count, so they see any loss of precision there
        mu, eta_t = 0.4, 1e-4
        det = DetectorModel(1.0, 1e-7)
        lam = mu * eta_t
        comps = np.zeros(6)
        for n, m, l in itertools.product((0, 1), repeat=3):
            w = math.exp(-3 * lam) * lam ** (n + m + l)
            ys = [ghz_outcome_yields(propagate_parties(pols, (n, m, l)), 1.0, det.p_d)
                  for pols in ("HHH", "HHV", "VHH", "HVH", "+++")]
            comps += w * np.array([(y[0] + y[1]) / 16.0 for y in ys[:4]]
                                  + [ys[4][0] / 8.0, ys[4][1] / 8.0])
        for want, e_d in zip(class_split(*comps.tolist()), (1.0, 0.0)):
            assert qnd_gain_set(mu, eta_t, det, e_d) == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_regression_paper_point_100km(self):
        gs = qnd_gain_set(0.4, 10 ** (-0.2 * 100 / 10), DetectorModel(0.4, 1e-7), 0.015)
        assert gs.q_z == pytest.approx(1.0129269183031263e-09, rel=1e-9, abs=0.0)
        assert gs.q_x == pytest.approx(1.012926918303126e-09, rel=1e-9, abs=0.0)
        assert gs.e_x == pytest.approx(0.015546699970181883, rel=1e-9, abs=0.0)


TRIGGER = DetectorModel(0.4, 1e-7)
OPTIMIZE_PLANS = [DecoyPlan(mu, 5e-4) for mu in (2e-3, 5e-3, 8e-3)]  # one round's trials


def heralded_rows(plans, etas):
    """Class components covering the heralded levels (vacuum, decoy, signal)
    of every plan, and a row of each plan's levels at each efficiency."""
    levels = {plan: [decoy.vacuum_stats(), decoy.heralded_stats(plan.mu1, TRIGGER),
                     decoy.heralded_stats(plan.mu2, TRIGGER)] for plan in dict.fromkeys(plans)}
    comps = gains.fock_components([x for row in levels.values() for x in row], [], 1e-7)
    return comps, [(levels[plan], fock.thinning_matrix(eta)) for plan, eta in zip(plans, etas)]


def qnd_rows(plans, eta_ts):
    """The one-photon class components and a row of each plan's filtered
    Poisson levels at each transmission, thinned by one detector efficiency."""
    comps = gains.class_yields(np.ones((2, 2, 2), dtype=bool), 1e-7)
    thinning = fock.thinning_matrix(0.4)
    return comps, [([(math.exp(-x), x * math.exp(-x)) for x in (0.0, plan.mu1 * t, plan.mu2 * t)],
                     thinning) for plan, t in zip(plans, eta_ts)]


ROW_KINDS = {"qnd": qnd_rows, "heralded": heralded_rows}


class TestStackedContraction:
    """The Fock contraction of many rows in pieces equals one outer product
    and one matrix-vector product per row and triple, bit for bit: its
    GainSets and the six class components they are assembled from."""

    @staticmethod
    def exact(monkeypatch, comps, rows, triples=decoy.GRID):
        got = gains.thinned_gain_sets(comps, rows, triples, 0.015)
        assert got == thinned_gain_sets_reference(comps, rows, triples, 0.015)
        assert [len(sets) for sets in got] == [len(triples)] * len(rows)
        with monkeypatch.context() as m:  # the class gains of each set in place of it
            m.setattr(gains, "assemble_gain_set",
                      lambda *q: list(zip(*(np.ravel(v).tolist() for v in q[:6]))))
            m.setattr(yield_reference, "assemble_gain_set_reference", lambda *q: q[:6])
            classes = gains.thinned_gain_sets(comps, rows, triples, 0.015)
            want = thinned_gain_sets_reference(comps, rows, triples, 0.015)
        assert np.array_equal(classes, want)
        return got

    @pytest.mark.parametrize("kind", ROW_KINDS)
    def test_one_row(self, monkeypatch, kind):
        (sets,) = self.exact(monkeypatch, *ROW_KINDS[kind]([DecoyPlan(5e-3, 5e-4)], [0.01]))
        assert all(gs.q_z > 0.0 for gs in sets[1:])

    @pytest.mark.parametrize("kind, k", [("qnd", 2), ("heralded", 13)])
    def test_rows_straddle_a_piece(self, monkeypatch, kind, k):
        step = max(1, gains._WEIGHT_FLOATS // k ** 3)  # triples per piece
        count = step // len(decoy.GRID) + 2
        assert count * len(decoy.GRID) > step and step % len(decoy.GRID)
        comps, rows = ROW_KINDS[kind]([DecoyPlan(5e-3, 5e-4)] * count,
                                      np.geomspace(0.9, 1e-5, count))
        assert comps.shape[-1] == k
        self.exact(monkeypatch, comps, rows)

    @pytest.mark.parametrize("kind, k", [("qnd", 2), ("heralded", 13)])
    def test_rows_straddle_an_assembly_block(self, monkeypatch, kind, k):
        step = max(1, gains._WEIGHT_FLOATS // k ** 3)
        block = step * max(1, gains._GAIN_TRIPLES // step)  # triples per assembly
        count = block // len(decoy.GRID) + 2
        assert count * len(decoy.GRID) > block and block % len(decoy.GRID)
        comps, rows = ROW_KINDS[kind]([DecoyPlan(5e-3, 5e-4)] * count,
                                      np.geomspace(0.9, 1e-5, count))
        assert comps.shape[-1] == k
        self.exact(monkeypatch, comps, rows)

    @pytest.mark.parametrize("kind", ROW_KINDS)
    def test_levels_of_unequal_lengths(self, monkeypatch, kind):
        # the 13-entry vacuum, a one-entry vacuum, a filtered Poisson pair,
        # a Poisson distribution to 5 photons and a heralded one, every
        # triple of them, in two rows
        lam = 1e-7  # the pair and the six entries keep within the truncation budget
        levels = [decoy.vacuum_stats(), (1.0,), (math.exp(-lam), lam * math.exp(-lam)),
                  [math.exp(-0.02) * 0.02 ** n / math.factorial(n) for n in range(6)],
                  decoy.heralded_stats(5e-3, TRIGGER)]
        triples = list(itertools.product(range(len(levels)), repeat=3))
        comps = (gains.fock_components(levels, triples, 1e-7) if kind == "heralded"
                 else qnd_rows([], [])[0])
        rows = [(levels, fock.thinning_matrix(eta)) for eta in (0.4, 0.003)]
        self.exact(monkeypatch, comps, rows, triples)

    @pytest.mark.parametrize("kind", ROW_KINDS)
    def test_rows_of_distinct_plans_keep_their_order(self, monkeypatch, kind):
        # an optimize round: its trials at one distance, interleaved
        plans = OPTIMIZE_PLANS + OPTIMIZE_PLANS[::-1]
        comps, rows = ROW_KINDS[kind](plans, [0.004] * len(plans))
        got = self.exact(monkeypatch, comps, rows)
        assert got[0] != got[1] != got[2]
        for row, sets in zip(rows, got, strict=True):
            assert gains.thinned_gain_sets(comps, [row], decoy.GRID, 0.015) == [sets]
        assert got[:3] == got[:2:-1]

    def test_heralded_rows_within_memory_budget(self, monkeypatch):
        # the transient memory of a full-grid sweep's 201 rows: their thinned
        # levels and one piece of joint weights.  The GainSets are the call's
        # result, about 280 bytes each, so they are left out.
        monkeypatch.setattr(gains, "assemble_gain_set", lambda *q: [None] * len(q[0]))
        comps, rows = heralded_rows([DecoyPlan(5e-3, 5e-4)] * 201, np.geomspace(0.4, 4e-6, 201))

        def peak(rows):
            tracemalloc.start()
            try:
                gains.thinned_gain_sets(comps, rows, decoy.GRID, 0.015)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, many = peak(rows[:1]), peak(rows)
        assert many < 0.5 * 2 ** 20
        assert many - one < 0.2 * 2 ** 20


def fock_config(name):
    return parse_config((CONFIG_DIR / f"{name}.cfg").read_text())


def heralded_levels(cfg):
    return {0.0: decoy.vacuum_stats(),
            cfg.decoy.mu1: decoy.heralded_stats(cfg.decoy.mu1, cfg.source.trigger),
            cfg.decoy.mu2: decoy.heralded_stats(cfg.decoy.mu2, cfg.source.trigger)}


def count_calls(monkeypatch, module, name):
    """The arguments of every call of module.name while the test runs."""
    calls = []
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a: calls.append(a) or original(*a))
    return calls


class TestFockGridCalls:
    """A source model's decoy grid equals one call per triple, bit for bit:
    the two-decoy estimator amplifies last-ulp changes of the gains about 1e6
    times at long distance."""

    @pytest.mark.parametrize("name", ["qss_heralded_eta40", "qss_heralded_eta93"])
    @pytest.mark.parametrize("length", [0.0, 50.0, 100.0, 200.0, 250.0])
    def test_heralded_grid_equals_per_triple(self, name, length):
        cfg = fock_config(name)
        params = cfg.system.at_distance(length)
        p_n = heralded_levels(cfg)
        comps = gains.fock_components(list(p_n.values()), [], params.detector.p_d)
        thinning = fock.thinning_matrix(overall_efficiency(params.channel, params.detector))
        want = [gain_set_reference(comps, [p_n[mu] for mu in t], thinning, params.e_d)
                for t in decoy.grid_triples(cfg.decoy)]
        assert keyrates.source_model(cfg)([(cfg.decoy, params)])[0].grid == want

    @pytest.mark.parametrize("name", ["qss_qnd_eta40", "qss_qnd_eta93"])
    @pytest.mark.parametrize("length", [0.0, 50.0, 100.0, 200.0, 250.0])
    def test_qnd_grid_equals_per_triple(self, name, length):
        cfg = fock_config(name)
        params = cfg.system.at_distance(length)
        eta_t = transmission_efficiency(params.channel)
        want = [gains_qnd_reference(*t, eta_t, params.detector, params.e_d)
                for t in decoy.grid_triples(cfg.decoy)]
        assert keyrates.source_model(cfg)([(cfg.decoy, params)])[0].grid == want

    @pytest.mark.parametrize("variant, name", [("qss_heralded", "qss_heralded_eta40"),
                                               ("qss_qnd", "qss_qnd_eta40")])
    def test_each_level_thinned_once_per_grid(self, monkeypatch, variant, name):
        thinned = count_calls(monkeypatch, gains, "_thin")
        distances = (0.0, 50.0, 100.0)
        keyrates.sweep(variant, fock_config(name), distances)
        # vacuum, decoy and signal: three distinct distributions per grid
        assert len(thinned) == 3 * len(distances)


    @pytest.mark.parametrize("variant, name", [("qss_heralded", "qss_heralded_eta40"),
                                               ("qss_qnd", "qss_qnd_eta40")])
    def test_rows_of_distinct_plans_in_row_order(self, variant, name):
        # an optimize round's rows: its trials at one distance, interleaved
        cfg = fock_config(name)
        params = cfg.system.at_distance(100.0)
        rows = [(replace(cfg.decoy, mu2=cfg.decoy.mu2 * f), params) for f in (0.5, 1.0, 1.5)]
        rows += rows[::-1]
        model = keyrates.source_model(cfg)
        points = model(rows)
        assert points[0].grid != points[1].grid != points[2].grid
        assert points == [model([row])[0] for row in rows]

    @pytest.mark.parametrize("variant, name, contractions",
                             [("qss_heralded", "qss_heralded_eta40", 3),
                              ("qss_qnd", "qss_qnd_eta40", 1)])
    def test_one_contraction_per_call_and_plan(self, monkeypatch, variant, name, contractions):
        # a sweep: one call, one plan; an optimize round of three trials: one
        # plan per trial, and the QND components hold no plan
        cfg = fock_config(name)
        calls = count_calls(monkeypatch, gains, "thinned_gain_sets")
        keyrates.sweep(variant, cfg, (0.0, 50.0, 100.0))
        assert [len(rows) for _, rows, *_ in calls] == [3]
        calls.clear()
        params = cfg.system.at_distance(100.0)
        keyrates.source_model(cfg)([(replace(cfg.decoy, mu2=cfg.decoy.mu2 * f), params)
                                    for f in (0.5, 1.0, 1.5)])
        assert len(calls) == contractions


class TestTruncationCertificate:
    """A source model certifies the truncation of a decoy plan's levels once,
    when a row first names the plan, and refuses before any table is built."""

    def test_refusal_repeats(self, monkeypatch):
        ns = np.arange(13)
        pois = np.exp(-3.0) * 3.0 ** ns / np.vectorize(math.factorial)(ns)
        bright = parse_config((CONFIG_DIR / "qss_heralded_eta40.cfg").read_text()
                              .replace("source.mu = 5e-3", "source.mu = 0.5")
                              .replace("decoy.mu1 = 5e-4", "decoy.mu1 = 0.05"))

        def no_table(*args):
            pytest.fail("a yield table was built for a refused source")

        monkeypatch.setattr(fock, "ideal_detector_table", no_table)
        for _ in range(2):
            with pytest.raises(NumericsError, match="truncation"):
                gains.fock_components((pois, pois, pois), [(0, 1, 2)], 0.0)
            with pytest.raises(NumericsError, match="truncation"):
                keyrates.source_model(bright)([(bright.decoy, bright.system.at_distance(0.0))])

    def test_once_per_distinct_triple_in_a_sweep(self, monkeypatch):
        cfg = fock_config("qss_heralded_eta40")
        weights = count_calls(monkeypatch, gains, "_triple_weights")
        points = keyrates.sweep("qss_heralded", cfg, cfg.sweep.distances()[::5])
        assert len(points) == 41
        p_n = heralded_levels(cfg)
        want = {tuple(p_n[mu].tobytes() for mu in t) for t in decoy.grid_triples(cfg.decoy)}
        got = [tuple(np.asarray(d).tobytes() for d in dists) for dists, _ in weights]
        # the 15 grid triples and the levels' downward-closed envelope
        assert len(got) == len(set(got)) == len(want) + 1 == 16
        assert want < set(got)


class TestSourceModelBuildsOnce:
    def test_one_heralded_sweep(self, monkeypatch):
        # the levels and the class table of a heralded curve hold no distance
        cfg = fock_config("qss_heralded_eta40")
        fock._single_photon_table()  # the exact reference's table, built apart
        stats = count_calls(monkeypatch, decoy, "heralded_stats")
        tables = count_calls(monkeypatch, fock, "ideal_detector_table")
        points = keyrates.sweep("qss_heralded", cfg, cfg.sweep.distances()[::5])
        assert len(points) == 41
        assert len(stats) == 2  # the decoy and the signal level
        assert len(tables) == 1

    @pytest.mark.parametrize("variant, name, box", [("qcc", "qcc_eta40", (0.2, 0.8)),
                                                    ("qss_heralded", "qss_heralded_eta40",
                                                     (0.001, 0.01))])
    def test_one_exact_reference_call_per_efficiency(self, monkeypatch, variant, name, box):
        # a sweep asks once for all its efficiencies, a search once for its one
        cfg = fock_config(name)
        calls = count_calls(monkeypatch, fock, "exact_single_photon_stats")
        keyrates.sweep(variant, cfg, (0.0, 50.0, 100.0))
        keyrates.optimize_intensities(variant, cfg, 100.0, box, points=3, rounds=2)
        etas = [overall_efficiency(cfg.system.at_distance(d).channel, cfg.system.detector)
                for d in (0.0, 50.0, 100.0)]
        assert [list(etas) for etas, *_ in calls] == [etas, etas[2:]]
