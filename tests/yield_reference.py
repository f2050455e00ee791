"""Independent reference for the analyzer yields: the detector product of every
output configuration, evaluated directly at the detection efficiency.

`_exact_distribution` propagates creation-operator polynomials with exact
Gaussian-integer amplitudes (every unitary entry and polarization amplitude is
an integer multiple of a power of 1/sqrt(2)) held in int64 numpy arrays.  Up
to the photon-number cutoff every numerator and denominator of an output
probability stays below 2^53, so the one float division at the end is
correctly rounded.  `_party_terms` enumerates a party's compositions directly;
`party_terms_reference` filters every digit tuple, and the two must agree.

The package computes yields by thinning ideal-detector tables; this direct
sum over the exact output distribution is what those yields must equal.  The
package forms each table entry in closed form from the three detector-group
photon totals; `ideal_detector_table_reference` sorts every output
configuration of every (preparation, triple) input into its category, and the
two must agree bit for bit.  The diagonal-basis quadrature forms its outcome
probabilities in one in-place kernel with shared pair products;
`outcome_pattern_sums`, the plain sum over the click patterns, is what that
kernel must equal bit for bit.  `gain_set_reference` and `gains_qnd_reference`
form one GainSet per call, certifying and thinning each triple on its own; the
decoy grid of a source model must equal them bit for bit.  The Fock
contraction stacks the triples of many rows in pieces;
`thinned_gain_sets_reference`, one outer product and one matrix-vector
product per row and triple, is what it must equal bit for bit.  The rectilinear
closed forms of a decoy grid share each intensity's and each interfering
pair's factors; `z_gain_components_reference` forms all of them for one
triple alone.
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import exp, expm1, factorial, prod, sqrt

import numpy as np

from mdighz import fock, gains
from mdighz.fock import _BASE, _EXACT_LIMIT, _FACTORIALS, _POLS, _ROUTES, _gmul
from mdighz.params import NumericsError

# An output configuration packs into one integer key, one base-_BASE digit per
# detector with detector 0 most significant, so sorted keys are sorted
# occupation tuples.
_PLACES = tuple(_BASE ** (5 - j) for j in range(6))


def _gadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _party_output_vector(party: int, pol: str):
    """Post-analyzer amplitude vector for one photon from `party` in `pol`.

    Returns ({output mode: gaussian integer}, half_power): the true amplitude
    is g * (1/sqrt(2))**half_power, identical half_power for all entries.
    """
    comps, extra = _POLS[pol]
    vec: dict[int, tuple[int, int]] = {}
    for offset, g in comps:
        for out, sign in _ROUTES[2 * party + offset]:
            vec[out] = _gadd(vec.get(out, (0, 0)), _gmul(g, (sign, 0)))
    return vec, extra + 1


def _compositions(n: int, parts: int):
    """Every tuple of `parts` nonnegative integers summing to n, in
    lexicographic order."""
    if parts == 1:
        yield (n,)
        return
    for k in range(n + 1):
        for rest in _compositions(n - k, parts - 1):
            yield (k,) + rest


@lru_cache(maxsize=None)
def _party_terms(party: int, pol: str, n: int):
    """Expansion of (sum_j v_j a_j)^n for one party's `n` photons: distinct
    packed output keys, increasing, and their Gaussian-integer amplitudes
    (multinomial times the product of the v_j), as read-only int64 arrays."""
    vec, _ = _party_output_vector(party, pol)
    modes = sorted(vec)
    keys, re, im = [], [], []
    for ks in _compositions(n, len(modes)):
        coeff = factorial(n)
        g = (1, 0)
        key = 0
        for mode, k in zip(modes, ks):
            coeff //= factorial(k)
            for _ in range(k):
                g = _gmul(g, vec[mode])
            key += k * _PLACES[mode]
        keys.append(key)
        re.append(coeff * g[0])
        im.append(coeff * g[1])
    arrays = tuple(np.array(x, dtype=np.int64) for x in (keys, re, im))
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _exact_norms(pols: str, numbers) -> tuple[np.ndarray, np.ndarray, int]:
    """Sorted packed keys of the output configurations, their integer
    |amplitude|^2 and the common denominator of their probabilities.

    The first lit party's expansion is taken as it is (its keys are already
    distinct and sorted); each further one multiplies in by outer sums of the
    keys, and equal keys are merged with exact integer amplitude sums.  A
    configuration's probability is |amplitude|^2 prod(k!) over
    2^half_power prod(n!).
    """
    # with no photons at all, the expansion of none: key 0 with amplitude 1
    lit = [(p, pol, n) for p, (pol, n) in enumerate(zip(pols, numbers)) if n] or [(0, "H", 0)]
    half = sum((_POLS[pol][1] + 1) * n for _, pol, n in lit)
    denom = prod(factorial(n) for _, _, n in lit)
    keys, re, im = _party_terms(*lit[0])
    for party, pol, n in lit[1:]:
        k2, r2, i2 = _party_terms(party, pol, n)
        keys, inverse = np.unique((keys[:, None] + k2).ravel(), return_inverse=True)
        parts = ((re[:, None] * r2 - im[:, None] * i2).ravel(),
                 (re[:, None] * i2 + im[:, None] * r2).ravel())
        re, im = (np.zeros(len(keys), dtype=np.int64) for _ in range(2))
        np.add.at(re, inverse, parts[0])
        np.add.at(im, inverse, parts[1])
    denom <<= half
    if denom >= _EXACT_LIMIT:
        raise ValueError(f"{pols}{tuple(numbers)} is beyond exact float conversion")
    norm2 = re * re + im * im
    keep = norm2 != 0
    return keys[keep], norm2[keep], denom


def _exact_distribution(pols: str, numbers) -> tuple[np.ndarray, np.ndarray, int]:
    """Sorted packed keys of the output configurations, the integer numerators
    of their probabilities and the common denominator; the numerators sum to
    the denominator."""
    keys, norm2, denom = _exact_norms(pols, numbers)
    occupations = keys[:, None] // np.array(_PLACES) % _BASE
    return keys, norm2 * _FACTORIALS[occupations].prod(axis=1), denom


@dataclass(frozen=True)
class FockOutcomeDistribution:
    """Output Fock configurations of the analyzer for one input preparation."""

    occupations: np.ndarray  # (n_cfg, 6) int
    probabilities: np.ndarray  # (n_cfg,) float


@lru_cache(maxsize=None)
def propagate_parties(pols, numbers):
    """Exact output distribution for Alice/Bob/Charlie sending `numbers`
    photons in polarizations `pols` (e.g. pols="HHV", numbers=(1, 1, 2)):
    the integer build, unpacked into occupation rows."""
    fock._check_input(pols, numbers)
    keys, num, denom = _exact_distribution(pols, numbers)
    occupations = keys[:, None] // np.array(_PLACES) % fock._BASE
    return FockOutcomeDistribution(occupations, num / denom)


def click_silent(occ, eta, p_d):
    """Click and silence probabilities of threshold detectors seeing `occ`
    photons: 1 - (1-p_d)(1-eta)^k and (1-p_d)(1-eta)^k.  An empty detector
    clicks with exactly p_d, also at eta = 1."""
    if eta >= 1.0:
        survive = np.where(occ == 0, 1.0, 0.0)
        click = np.where(occ == 0, p_d, 1.0)
    else:
        survive = np.exp(occ * np.log1p(-eta))
        click = -np.expm1(occ * np.log1p(-eta)) + p_d * survive
    return click, (1.0 - p_d) * survive


def outcome_pattern_sums(click, silent):
    """Probabilities of the two announced outcomes from per-detector click and
    silence probabilities (`click[j]`, `silent[j]`; arrays broadcast), as
    plain generator sums over the patterns.

    Every pattern clicks exactly one detector of each pair (0,1), (2,3), (4,5)
    and leaves its partner silent, so each term is the product of three
    factors click[j] * silent[j ^ 1].  Returns (phi_plus, phi_minus).
    """
    f = [click[j] * silent[j ^ 1] for j in range(6)]
    return tuple(sum(f[a] * f[b] * f[c] for a, b, c in patterns)
                 for patterns in (fock.PHI_PLUS_PATTERNS, fock.PHI_MINUS_PATTERNS))


def ghz_outcome_yields(dist, eta, p_d):
    """Announcement probabilities (phi_plus, phi_minus) of one preparation:
    per configuration, three required clicks and three required non-clicks
    per pattern, weighted by the configuration probability."""
    click, silent = click_silent(dist.occupations, eta, p_d)
    plus, minus = outcome_pattern_sums(click.T, silent.T)
    p = dist.probabilities
    return float((p * plus).sum()), float((p * minus).sum())


def single_photon_phi_plus(pols, eta, p_d):
    """Yield of the phi_plus outcome for one photon per user in `pols`."""
    return ghz_outcome_yields(propagate_parties(pols, (1, 1, 1)), eta, p_d)[0]


# Detector group state by its occupation pair a * _BASE + b: 0 both empty,
# 1 first lit, 2 second lit, 3 both lit.
GROUP_STATE = ((np.arange(fock._BASE ** 2) >= fock._BASE)
               + 2 * (np.arange(fock._BASE ** 2) % fock._BASE > 0))
# Three group states packed base 4 -> 2 d + parity for a configuration that
# announced patterns fit (d empty pairs, parity of the lit second detectors),
# 8 for one they cannot fit (a pair with both detectors lit).
_STATES = np.array(list(itertools.product(range(4), repeat=3)))
FIT_CATEGORY = np.where((_STATES == 3).any(axis=1), 8,
                        2 * (_STATES == 0).sum(axis=1) + (_STATES == 2).sum(axis=1) % 2)


def ideal_detector_table_reference(preps, mask):
    """`fock.ideal_detector_table` from one exact build per distinct
    (preparation, triple) input, each output configuration categorized."""
    triples = [tuple(t) for t in np.argwhere(mask).tolist()]
    for pols in preps:
        fock._check_input(pols, max(triples, key=sum))
    # a user sending no photons leaves no trace of its polarization
    inputs = [("".join(p if k else "H" for p, k in zip(pols, numbers)), numbers)
              for pols in preps for numbers in triples]
    row = {x: i for i, x in enumerate(dict.fromkeys(inputs))}
    masses, denoms = [], []
    for x in row:
        keys, num, denom = _exact_distribution(*x)
        groups = GROUP_STATE[keys // np.array([[fock._BASE ** 4], [fock._BASE ** 2], [1]])
                             % fock._BASE ** 2]
        category = FIT_CATEGORY[groups[0] * 16 + groups[1] * 4 + groups[2]]
        masses.append(np.bincount(category, num.astype(float), minlength=9)[:8])
        denoms.append(denom)
    mass = np.array(masses).reshape(len(row), 4, 2)
    table = (mass.sum(axis=2) * (0.0, 1.0, 2.0, 4.0))[:, None, :] \
        + mass[:, 0, :, None] * (1.0, 0.0, 0.0, 0.0)
    table /= np.array(denoms, dtype=float)[:, None, None]
    out = np.zeros((len(preps), 2, 4) + mask.shape)
    out[..., mask] = table[[row[x] for x in inputs]].reshape(
        len(preps), len(triples), 2, 4).transpose(0, 2, 3, 1)
    return out


def party_terms_reference(party, pol, n):
    """`_party_terms` by filtering the (n+1)^k digit tuples of the
    party's k output modes down to those summing to n."""
    vec, _ = _party_output_vector(party, pol)
    modes = sorted(vec)
    keys, re, im = [], [], []
    for ks in itertools.product(range(n + 1), repeat=len(modes)):
        if sum(ks) != n:
            continue
        coeff = factorial(n)
        g = (1, 0)
        key = 0
        for mode, k in zip(modes, ks):
            coeff //= factorial(k)
            for _ in range(k):
                g = fock._gmul(g, vec[mode])
            key += k * _PLACES[mode]
        keys.append(key)
        re.append(coeff * g[0])
        im.append(coeff * g[1])
    return tuple(np.array(x, dtype=np.int64) for x in (keys, re, im))


def thinned_gain_sets_reference(comps, rows, index_triples, e_d):
    """`gains.thinned_gain_sets` one row and one triple at a time: each level
    of a row thinned once, each triple's joint weights an outer product of
    its own, contracted by one matrix-vector product."""
    k = comps.shape[-1]
    flat = comps.reshape(len(comps), -1)
    out = []
    for levels, thinning in rows:
        thinned = [np.asarray(x, dtype=float)[:len(thinning)] for x in levels]
        thinned = [x @ thinning[:len(x), :k] for x in thinned]
        sets = []
        for triple in index_triples:
            a, b, c = (thinned[i] for i in triple)
            w = (a[:, None] * b[None, :])[:, :, None] * c[None, None, :]
            q = (flat @ w.ravel()).tolist()
            sets.append(gains.assemble_gain_set(*q, e_d))
        out.append(sets)
    return out


def _thinned_gain_set(comps, dists, thinning, e_d):
    return thinned_gain_sets_reference(comps, [(dists, thinning)], [(0, 1, 2)], e_d)[0][0]


def _budgeted_weights(dists, tail_budget):
    w, keep = gains._triple_weights(dists, tail_budget / 4096.0)
    tail = 1.0 - sum(w[keep].tolist())
    if tail > tail_budget:
        raise NumericsError(
            f"photon-number truncation tail {tail:.3e} exceeds budget "
            f"{tail_budget:.1e}; raise the cutoff or lower the source intensity"
        )


def gain_set_reference(comps, dists, thinning, e_d, tail_budget=1e-12):
    """The GainSet of one distribution triple on the class components `comps`
    (as `gains.fock_components` builds them), certified and thinned on its
    own."""
    _budgeted_weights(dists, tail_budget)
    return _thinned_gain_set(comps, dists, thinning, e_d)


def gains_qnd_reference(mu, nu, omega, eta_t, detector, e_d):
    """The GainSet of one intensity triple behind the <=1-photon filter."""
    dists = [(exp(-lam), lam * exp(-lam)) for lam in (mu * eta_t, nu * eta_t, omega * eta_t)]
    comps = gains.class_yields(np.ones((2, 2, 2), dtype=bool), detector.p_d)
    return _thinned_gain_set(comps, dists, fock.thinning_matrix(detector.eta_d), e_d)


def z_gain_components_reference(mu, nu, omega, eta, p_d):
    """The rectilinear closed forms of one intensity triple, every factor
    formed for this triple alone; the same-polarization class also from the
    generic four-pattern product.  A decoy grid's gains, which share each
    intensity's and each pair's factors, must equal it bit for bit."""
    ia, ib, ic = mu * eta, nu * eta, omega * eta
    x = ia + ib + ic
    w = 1.0 - p_d

    a_closed = 0.5 * w ** 3 * exp(-x / 2.0) * (
        gains._group_click(ia, p_d) * gains._group_click(ib, p_d) * gains._group_click(ic, p_d))
    a_product = gains.z_pattern_outcome_gain("HHH", mu, nu, omega, eta, p_d)
    scale = max(abs(a_closed), abs(a_product), 1e-300)
    if abs(a_closed - a_product) > gains.A_CONSISTENCY_RTOL * scale:
        raise NumericsError(
            f"same-polarization gain forms disagree: {a_closed!r} vs {a_product!r}"
        )

    def _mixed(solo, pair1, pair2):
        pair_sum = pair1 + pair2
        f_solo = expm1(solo / 2.0) + p_d
        f_pair = (expm1(pair_sum / 2.0)
                  + exp(pair_sum / 2.0) * gains._i0_minus_1(sqrt(pair1 * pair2))
                  + p_d)
        return (p_d / 2.0) * w ** 3 * exp(-x) * f_solo * f_pair

    try:
        b = _mixed(ib, ia, ic)  # Bob solo, Alice-Charlie interfere
        c = _mixed(ic, ia, ib)  # Charlie solo, Alice-Bob interfere
        d = _mixed(ia, ib, ic)  # Alice solo, Bob-Charlie interfere
    except OverflowError:
        raise NumericsError(f"mixed-class gain at intensity {max(mu, nu, omega)!r}: its "
                            f"factors e^(intensity * eta / 2) overflow a float") from None
    return gains.ZGainComponents(a=a_closed, b=b, c=c, d=d)
