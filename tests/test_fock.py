import itertools
from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from conftest import CONFIG_DIR
from mdighz import decoy, fock, gains
from mdighz.fock import analyzer_unitary, exact_single_photon_stats
from mdighz.params import parse_config
from yield_reference import (_gadd, _party_output_vector, _party_terms, ghz_outcome_yields,
                             ideal_detector_table_reference, party_terms_reference,
                             propagate_parties)

TOKENS = "HV+-RL"


def expand_beams(beams):
    """Reference expansion with exact rationals: prod_i (sum_j v_ij a_j)^{n_i}
    |0> as {occupation: Fraction probability}, over Python-integer
    Gaussian amplitudes.  beams: list of (vec, half_power, n)."""
    total_half = 0
    denom = 1
    polys = []
    for vec, half, n in beams:
        total_half += half * n
        denom *= factorial(n)
        modes = sorted(vec)
        terms = {}
        for ks in itertools.product(range(n + 1), repeat=len(modes)):
            if sum(ks) != n:
                continue
            coeff = factorial(n)
            g = (1, 0)
            for mode, k in zip(modes, ks):
                coeff //= factorial(k)
                for _ in range(k):
                    g = fock._gmul(g, vec[mode])
            occ = [0] * 6
            for mode, k in zip(modes, ks):
                occ[mode] = k
            key = tuple(occ)
            terms[key] = _gadd(terms.get(key, (0, 0)), (coeff * g[0], coeff * g[1]))
        polys.append(terms)

    acc = {(0, 0, 0, 0, 0, 0): (1, 0)}
    for terms in polys:
        nxt = {}
        for occ1, g1 in acc.items():
            for occ2, g2 in terms.items():
                occ = tuple(a + b for a, b in zip(occ1, occ2))
                nxt[occ] = _gadd(nxt.get(occ, (0, 0)), fock._gmul(g1, g2))
        acc = nxt

    probs = {}
    scale = 2 ** total_half
    for occ, g in acc.items():
        norm2 = g[0] * g[0] + g[1] * g[1]
        if norm2 == 0:
            continue
        num = norm2
        for e in occ:
            num *= factorial(e)
        probs[occ] = Fraction(num, scale * denom)
    return probs


def fraction_reference(pols, numbers):
    """(occupations, probabilities) of the Fraction expansion, sorted by
    occupation, each probability rounded once from its exact value."""
    beams = [_party_output_vector(party, pol) + (n,)
             for party, (pol, n) in enumerate(zip(pols, numbers)) if n]
    probs = expand_beams(beams) if beams else {(0,) * 6: Fraction(1)}
    occs = sorted(probs)
    return (np.array(occs, dtype=np.int64).reshape(-1, 6),
            np.array([float(probs[o]) for o in occs]))


def triples_up_to(total):
    return [(n, m, t - n - m) for t in range(total + 1)
            for n in range(t + 1) for m in range(t + 1 - n)]


def thinned(table, eta, p_d):
    """Yields at efficiency eta of every triple of an ideal-detector table:
    the binomial thinning of each photon-number axis."""
    m = fock.thinning_matrix(eta)
    a, b, c = table.shape[-3:]
    return np.einsum("...abc,na,mb,lc->...nml", fock.ideal_yields(table, p_d),
                     m[:a, :a], m[:b, :b], m[:c, :c], optimize=True)


def thinned_yields(pols, numbers, eta, p_d):
    """(phi_plus, phi_minus) of one input from the package's engine."""
    table = fock.ideal_detector_table((pols,), np.ones([k + 1 for k in numbers], dtype=bool))
    return tuple(thinned(table, eta, p_d)[(0, slice(None)) + tuple(numbers)].tolist())


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
        assert col[0] == pytest.approx(1 / np.sqrt(2), rel=1e-12, abs=0.0)
        assert col[1] == pytest.approx(1 / np.sqrt(2), rel=1e-12, abs=0.0)
        assert np.abs(col[2:]).max() == 0

    def test_charlie_v_interferes_in_group_three(self):
        u = analyzer_unitary()
        col = u[:, 5]
        assert col[4] == pytest.approx(1 / np.sqrt(2), rel=1e-12, abs=0.0)
        assert col[5] == pytest.approx(-1 / np.sqrt(2), rel=1e-12, abs=0.0)
        assert np.abs(col[:4]).max() == 0


class TestPropagation:
    # six-mode input occupations (Alice H, V, Bob H, V, Charlie H, V) with each
    # party's photons in one polarization
    @pytest.mark.parametrize("occ", [(1, 0, 1, 0, 0, 1), (2, 0, 1, 0, 0, 3),
                                     (0, 2, 0, 2, 2, 0), (0, 3, 3, 0, 0, 3)])
    def test_normalization_and_conservation(self, occ):
        pols = "".join("V" if occ[2 * i + 1] else "H" for i in range(3))
        dist = propagate_parties(pols, tuple(occ[2 * i] + occ[2 * i + 1] for i in range(3)))
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
        vec, half = _party_output_vector(1, "+")
        rotated = {k: fock._gmul(g, (0, 1)) for k, g in vec.items()}
        base = expand_beams([(vec, half, 2)])
        turned = expand_beams([(rotated, half, 2)])
        assert base == turned

    def test_cutoff_enforced(self):
        with pytest.raises(ValueError, match="cutoff"):
            propagate_parties("HHH", (13, 0, 0))

    def test_party_terms_equal_product_filter(self):
        for party, pol, n in itertools.product(range(3), TOKENS, range(fock.N_MAX + 1)):
            for got, want in zip(_party_terms(party, pol, n),
                                 party_terms_reference(party, pol, n), strict=True):
                assert np.array_equal(got, want), (party, pol, n)

    def test_party_keys_distinct_and_sorted(self):
        # the first lit party's expansion enters a distribution unmerged
        for party, pol, n in itertools.product(range(3), TOKENS, range(fock.N_MAX + 1)):
            keys = _party_terms(party, pol, n)[0]
            assert (np.diff(keys) > 0).all(), (party, pol, n)

    def test_circular_pols_differ_from_diagonal(self):
        d1 = propagate_parties("R++", (1, 1, 1))
        d2 = propagate_parties("+++", (1, 1, 1))
        assert not np.array_equal(d1.probabilities, d2.probabilities) or \
            not np.array_equal(d1.occupations, d2.occupations)


class TestOutcomeYields:
    def test_vacuum_dark_free(self):
        assert thinned_yields("HHH", (0, 0, 0), 0.5, 0.0) == (0.0, 0.0)

    def test_vacuum_darks_only(self):
        p_d = 1e-3
        expect = 4 * p_d ** 3 * (1 - p_d) ** 3
        yp, ym = thinned_yields("HHH", (0, 0, 0), 0.5, p_d)
        assert yp == pytest.approx(expect, rel=1e-12, abs=0.0)
        assert ym == pytest.approx(expect, rel=1e-12, abs=0.0)

    def test_unit_efficiency_darks_exact(self):
        # an empty detector clicks with exactly p_d at eta = 1; forming the
        # click as 1 - (1 - p_d) there lost 1.6e-9 relative
        p_d = 1e-7
        expect = 4 * p_d ** 3 * (1 - p_d) ** 3
        for got in (thinned_yields("HHH", (0, 0, 0), 1.0, p_d),
                    ghz_outcome_yields(propagate_parties("HHH", (0, 0, 0)), 1.0, p_d)):
            assert got[0] == pytest.approx(expect, rel=1e-14, abs=0.0)
            assert got[1] == pytest.approx(expect, rel=1e-14, abs=0.0)

    def test_ideal_hhh_single_photons(self):
        # brute-force oracle value: the all-H triple splits evenly over both
        # announced classes and is always announced at unit efficiency
        yp, ym = thinned_yields("HHH", (1, 1, 1), 1.0, 0.0)
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
        # reference: every pattern as a product over all six detectors at eta
        dist = propagate_parties(pols, numbers)
        occ = dist.occupations
        survive = (1.0 - eta) ** occ
        silent = (1.0 - p_d) * survive
        if eta < 1.0:  # 1 - (1-p_d)(1-eta)^k without cancellation at small eta
            click = -np.expm1(occ * np.log1p(-eta)) + p_d * survive
        else:
            click = np.where(occ == 0, p_d, 1.0)
        want = []
        for patterns in (fock.PHI_PLUS_PATTERNS, fock.PHI_MINUS_PATTERNS):
            total = 0.0
            for pat in patterns:
                term = dist.probabilities.copy()
                for j in range(6):
                    term *= click[:, j] if j in pat else silent[:, j]
                total += term.sum()
            want.append(total)
        for got in (thinned_yields(pols, numbers, eta, p_d),
                    ghz_outcome_yields(dist, eta, p_d)):
            for g, w in zip(got, want):
                assert g == pytest.approx(w, rel=1e-13, abs=1e-300)


class TestThinning:
    """Loss commutes with the analyzer: yields at efficiency eta are the
    binomially thinned ideal-detector yields."""

    PREPS = ("HHH", "HHV", "VHH", "HVH", "+++")  # the gain classes
    BOX = (6, 4, 5)  # every triple up to (5, 3, 4)

    @pytest.mark.parametrize("eta", [0.9, 0.4, 4e-5, 1e-9])
    @pytest.mark.parametrize("p_d", [0.0, 1e-7, 1e-2])
    def test_matches_direct_product(self, eta, p_d):
        table = fock.ideal_detector_table(self.PREPS, np.ones(self.BOX, dtype=bool))
        y = thinned(table, eta, p_d)
        for i, pols in enumerate(self.PREPS):
            for numbers in itertools.product(*map(range, self.BOX)):
                want = ghz_outcome_yields(propagate_parties(pols, numbers), eta, p_d)
                for k in range(2):
                    assert y[(i, k) + numbers] == pytest.approx(want[k], rel=1e-13, abs=0.0), \
                        (pols, numbers, k)

    def test_thinning_rows_are_binomial(self):
        m = fock.thinning_matrix(0.3)
        assert np.allclose(m.sum(axis=1), 1.0, rtol=1e-15, atol=0.0)
        assert np.array_equal(fock.thinning_matrix(1.0), np.eye(fock.N_MAX + 1))
        assert np.array_equal(fock.thinning_matrix(0.0)[:, 0], np.ones(fock.N_MAX + 1))


class TestSinglePhotonStats:
    def test_ideal_analyzer_is_error_free(self):
        s = exact_single_photon_stats(1.0, 0.0, 0.0)
        assert s.e111_bx == 0.0
        assert s.e111_bz == 0.0
        assert s.y111_z == pytest.approx(0.25, abs=1e-12)
        # the all-"+" input feeds only the correct outcome, the all-"-" none of it
        assert thinned_yields("+++", (1, 1, 1), 1.0, 0.0)[0] == pytest.approx(0.25, abs=1e-12)
        assert thinned_yields("---", (1, 1, 1), 1.0, 0.0)[0] == 0.0

    def test_full_misalignment_symmetrizes(self):
        s = exact_single_photon_stats(0.3, 1e-6, 0.5)
        assert s.e111_bz == pytest.approx(0.5, abs=1e-12)
        assert s.e111_bx == pytest.approx(0.5, abs=1e-12)

    def test_regression_hundred_km_93(self):
        # frozen from the first verified run (eta = 0.93 * 1e-2, paper darks)
        s = exact_single_photon_stats(0.0093, 1e-7, 0.0)
        assert s.y111_z == pytest.approx(2.0112786995242447e-07, rel=1e-9, abs=0.0)
        assert s.y111_x == pytest.approx(2.0112786995242441e-07, rel=1e-9, abs=0.0)
        assert s.e111_bx == pytest.approx(9.61584269796235e-05, rel=1e-9, abs=0.0)
        assert s.e111_bz == pytest.approx(0.0001284116556049079, rel=1e-9, abs=0.0)

    def test_z_symmetry_of_outcome_classes(self):
        # product rectilinear inputs feed both announced classes equally
        for pols in ("HHH", "HVH", "VVH"):
            yp, ym = thinned_yields(pols, (1, 1, 1), 0.37, 1e-4)
            assert yp == pytest.approx(ym, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("eta, p_d", [(0.0093, 1e-7), (1.0, 1e-7), (4e-6, 1e-2)])
    def test_matches_direct_product(self, eta, p_d):
        # the 16 single-photon preparations, thinned, against their direct yields
        s = exact_single_photon_stats(eta, p_d, 0.015)
        y = {pols: ghz_outcome_yields(propagate_parties(pols, (1, 1, 1)), eta, p_d)
             for pols in map("".join, itertools.chain(itertools.product("HV", repeat=3),
                                                       itertools.product("+-", repeat=3)))}
        y111_z = sum(sum(y[p]) for p in map("".join, itertools.product("HV", repeat=3))) / 8
        y_cz = (sum(y["HHH"]) + sum(y["VVV"])) / 8
        assert s.y111_z == pytest.approx(y111_z, rel=1e-13, abs=0.0)
        assert s.e111_bz == pytest.approx(
            (0.015 * y_cz + 0.985 * (y111_z - y_cz)) / y111_z, rel=1e-13, abs=0.0)
        x_preps = list(map("".join, itertools.product("+-", repeat=3)))
        y111_x = sum(sum(y[p]) for p in x_preps) / 8
        y_cx = sum(y[p][p.count("-") % 2] for p in x_preps) / 8  # the correct outcome
        assert s.y111_x == pytest.approx(y111_x, rel=1e-13, abs=0.0)
        assert s.e111_bx == pytest.approx(
            (0.015 * y_cx + 0.985 * (y111_x - y_cx)) / y111_x, rel=1e-13, abs=0.0)


class TestExactBuild:
    """The integer build equals the exact-rational expansion bit for bit."""

    # every token at every party: the six cyclic shifts of H V + - R L, and the
    # preparations of the gain classes
    PREPARATIONS = [TOKENS[k] + TOKENS[(k + 1) % 6] + TOKENS[(k + 2) % 6]
                    for k in range(6)] + ["HHH", "HHV", "VHH", "HVH"]

    @pytest.mark.parametrize("pols", PREPARATIONS)
    def test_matches_fraction_reference(self, pols):
        for numbers in triples_up_to(6):
            dist = propagate_parties.__wrapped__(pols, numbers)
            occs, probs = fraction_reference(pols, numbers)
            assert np.array_equal(dist.occupations, occs), numbers
            assert np.array_equal(dist.probabilities, probs), numbers

    def test_diagonal_up_to_ten_photons(self):
        for numbers in triples_up_to(10):
            dist = propagate_parties.__wrapped__("+++", numbers)
            occs, probs = fraction_reference("+++", numbers)
            assert np.array_equal(dist.occupations, occs), numbers
            assert np.array_equal(dist.probabilities, probs), numbers


class TestYieldTable:
    """The ideal-detector table, thinned, gives every yield of a downward-closed
    triple set."""

    PREPS = ("HHH", "HHV", "VHH", "HVH", "+++", "R-L")
    TRIPLES = tuple(triples_up_to(5)) + ((4, 3, 5), (0, 0, 12), (6, 6, 0))

    @pytest.mark.parametrize("eta", [1.0, 0.4, 4e-5])
    @pytest.mark.parametrize("p_d", [0.0, 1e-7])
    def test_matches_per_distribution_yields(self, eta, p_d):
        mask = np.zeros((fock.N_MAX + 1,) * 3, dtype=bool)
        for n, m, l in self.TRIPLES:
            mask[:n + 1, :m + 1, :l + 1] = True
        y = thinned(fock.ideal_detector_table(self.PREPS, mask), eta, p_d)
        assert y.shape == (len(self.PREPS), 2) + mask.shape
        for i, pols in enumerate(self.PREPS):
            for numbers in self.TRIPLES:
                want = ghz_outcome_yields(propagate_parties(pols, numbers), eta, p_d)
                for k in range(2):
                    assert y[(i, k) + numbers] == pytest.approx(want[k], rel=1e-14, abs=0.0), \
                        (pols, numbers, k)

    def test_zero_outside_the_mask(self):
        mask = np.zeros((3, 2, 2), dtype=bool)
        mask[:2, :1, :2] = True
        table = fock.ideal_detector_table(("+++",), mask)
        assert not table[..., ~mask].any()
        assert table[..., mask].any()

    def test_nothing_writable(self):
        # the one cached table: a write would reach every later caller
        table = fock._single_photon_table()
        with pytest.raises(ValueError):
            table[(0,) * table.ndim] = 0.0


def heralded_mask(name):
    """The triples the heralded curve of configs/<name>.cfg builds its table on."""
    cfg = parse_config((CONFIG_DIR / f"{name}.cfg").read_text())
    levels = [decoy.vacuum_stats()] + [decoy.heralded_stats(mu, cfg.source.trigger)
                                       for mu in (cfg.decoy.mu1, cfg.decoy.mu2)]
    return gains._envelope(levels, 1e-12 / 4096.0)


class TestCyclicSymmetry:
    """The closed-form table equals the one built by enumerating every output
    configuration and sorting it into its category, bit for bit."""

    ALL_PREPS = tuple(map("".join, itertools.product(TOKENS, repeat=3)))
    SINGLE_PHOTON = (fock._Z_TRIPLES + fock._X_TRIPLES, np.ones((2, 2, 2), dtype=bool))

    @pytest.mark.parametrize("preps, mask", [
        (gains._CLASS_POLS, gains._WITHIN_CUTOFF),
        (ALL_PREPS, np.indices((7, 7, 7)).sum(axis=0) <= 6),
    ], ids=["classes_to_12_photons", "216_preparations_to_6_photons"])
    def test_equals_reference_build(self, preps, mask):
        assert np.array_equal(fock.ideal_detector_table(preps, mask),
                              ideal_detector_table_reference(preps, mask))

    @pytest.mark.parametrize("name", ["qss_heralded_eta40", "qss_heralded_eta93"])
    def test_heralded_mask_equals_reference_build(self, name):
        mask = heralded_mask(name)
        assert np.array_equal(fock.ideal_detector_table(gains._CLASS_POLS, mask),
                              ideal_detector_table_reference(gains._CLASS_POLS, mask))

    def test_single_photon_table_equals_reference_build(self):
        assert np.array_equal(fock._single_photon_table(),
                              ideal_detector_table_reference(*self.SINGLE_PHOTON))

    @pytest.mark.parametrize("numbers", [(12, 0, 0), (0, 0, 12), (4, 4, 4), (3, 4, 5)],
                             ids=["12_0_0", "0_0_12", "4_4_4", "3_4_5"])
    def test_cutoff_corners_equal_reference_build(self, numbers):
        # one photon number at the cutoff, and the largest three-party splits
        mask = np.zeros((fock.N_MAX + 1,) * 3, dtype=bool)
        mask[numbers] = True
        preps = TestExactBuild.PREPARATIONS[:6]  # every token at every party
        assert np.array_equal(fock.ideal_detector_table(preps, mask),
                              ideal_detector_table_reference(preps, mask))

    def test_builds_expand_no_output_configuration(self):
        # the expansion of output configurations is the tests' reference only
        for name in ("_exact_distribution", "_exact_norms", "_party_terms"):
            assert not hasattr(fock, name), name
        fock._single_photon_table.__wrapped__()
        fock.ideal_detector_table(gains._CLASS_POLS, gains._WITHIN_CUTOFF)
        fock.ideal_detector_table(gains._CLASS_POLS, heralded_mask("qss_heralded_eta40"))
