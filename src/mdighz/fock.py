"""Exact photon-number propagation through the GHZ analyzer.

The analyzer is one fixed 6x6 mode unitary feeding six threshold detectors
(1H, 1V, 2H, 2V, 3H, 3V).  A successful event is three simultaneous clicks,
one per spatial group, with the other three detectors silent; the click
pattern decides which of the two identified GHZ outcomes was projected.

Propagation works on creation-operator polynomials with exact Gaussian-integer
coefficients (every unitary entry and polarization amplitude is an integer
multiple of a power of 1/sqrt(2)), converted to floating point only in the
final probabilities.  This keeps signed interference sums exact and free of
cancellation error up to the photon-number cutoff.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

import numpy as np

from .params import DetectorModel, SystemParams, overall_efficiency

__all__ = [
    "N_MAX",
    "MODE_LABELS",
    "PHI_PLUS_PATTERNS",
    "PHI_MINUS_PATTERNS",
    "FockOutcomeDistribution",
    "SinglePhotonStats",
    "analyzer_unitary",
    "unitary_csv",
    "propagate_fock",
    "propagate_parties",
    "click_probability",
    "click_probability_set",
    "outcome_pattern_sums",
    "ghz_outcome_yields",
    "outcome_yield_polys",
    "eval_yield_poly",
    "exact_single_photon_stats",
]

N_MAX = 12  # default total-photon cutoff

MODE_LABELS = ("1H", "1V", "2H", "2V", "3H", "3V")

# Input ports: Alice = spatial 1, Bob = 2, Charlie = 3; order H,V per port.
# Routing (output <- input), all couplings 1/sqrt(2):
#   Alice H -> 3H + 3V        Alice V -> 1H - 1V
#   Bob H   -> 1H + 1V        Bob V   -> 2H - 2V
#   Charlie H -> 2H + 2V      Charlie V -> 3H - 3V
# so every detector group mixes exactly two parties' light (group 1: Alice V
# with Bob H, group 2: Bob V with Charlie H, group 3: Charlie V with Alice H).
_ROUTES = {
    0: ((4, 1), (5, 1)),
    1: ((0, 1), (1, -1)),
    2: ((0, 1), (1, 1)),
    3: ((2, 1), (3, -1)),
    4: ((2, 1), (3, 1)),
    5: ((4, 1), (5, -1)),
}

# Click patterns (detector indices into MODE_LABELS) per announced outcome.
PHI_PLUS_PATTERNS = ((0, 2, 4), (0, 3, 5), (1, 2, 5), (1, 3, 4))
PHI_MINUS_PATTERNS = ((0, 2, 5), (0, 3, 4), (1, 2, 4), (1, 3, 5))

# Polarization tokens -> input-mode components (offset within the port,
# Gaussian-integer amplitude) and the extra 1/sqrt(2) count per photon.
# "+/-" are the diagonal basis, "R/L" the circular one.
_POLS = {
    "H": (((0, (1, 0)),), 0),
    "V": (((1, (1, 0)),), 0),
    "+": (((0, (1, 0)), (1, (1, 0))), 1),
    "-": (((0, (1, 0)), (1, (-1, 0))), 1),
    "R": (((0, (1, 0)), (1, (0, 1))), 1),
    "L": (((0, (1, 0)), (1, (0, -1))), 1),
}


def _gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _gadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def analyzer_unitary() -> np.ndarray:
    """The fixed 6x6 network unitary U (a_in[j] -> sum_i U[i,j] a_out[i])."""
    s = 1.0 / np.sqrt(2.0)
    u = np.zeros((6, 6))
    for j, routes in _ROUTES.items():
        for i, sign in routes:
            u[i, j] = sign * s
    return u


def unitary_csv() -> str:
    """Debug dump of the analyzer unitary as (re, im) pairs, CSV."""
    u = analyzer_unitary()
    head = "in_mode," + ",".join(f"{m}_re,{m}_im" for m in MODE_LABELS)
    rows = [head]
    for j, label in enumerate(MODE_LABELS):
        cells = []
        for i in range(6):
            cells.append(repr(float(u[i, j])))
            cells.append(repr(0.0))
        rows.append(label + "," + ",".join(cells))
    return "\n".join(rows) + "\n"


@dataclass(frozen=True)
class FockOutcomeDistribution:
    """Output Fock configurations of the analyzer for one input preparation."""

    input_label: str
    occupations: np.ndarray  # (n_cfg, 6) int
    probabilities: np.ndarray  # (n_cfg,) float

    @property
    def total_photons(self) -> int:
        return int(self.occupations[0].sum()) if len(self.occupations) else 0


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


def _expand_beams(beams):
    """Expand prod_i (sum_j v_ij a_j)^{n_i} |0> into output configurations.

    beams: list of (vec, half_power, n).  Returns {occupation: Fraction prob}.
    """
    total_half = 0
    denom = 1
    polys = []
    for vec, half, n in beams:
        total_half += half * n
        denom *= factorial(n)
        modes = sorted(vec)
        terms: dict[tuple[int, ...], tuple[int, int]] = {}
        for ks in itertools.product(range(n + 1), repeat=len(modes)):
            if sum(ks) != n:
                continue
            coeff = factorial(n)
            g = (1, 0)
            for mode, k in zip(modes, ks):
                coeff //= factorial(k)
                for _ in range(k):
                    g = _gmul(g, vec[mode])
            occ = [0] * 6
            for mode, k in zip(modes, ks):
                occ[mode] = k
            key = tuple(occ)
            terms[key] = _gadd(terms.get(key, (0, 0)), (coeff * g[0], coeff * g[1]))
        polys.append(terms)

    acc = {(0, 0, 0, 0, 0, 0): (1, 0)}
    for terms in polys:
        nxt: dict[tuple[int, ...], tuple[int, int]] = {}
        for occ1, g1 in acc.items():
            for occ2, g2 in terms.items():
                occ = tuple(a + b for a, b in zip(occ1, occ2))
                nxt[occ] = _gadd(nxt.get(occ, (0, 0)), _gmul(g1, g2))
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


def _distribution_from(label, probs) -> FockOutcomeDistribution:
    occs = np.array(sorted(probs), dtype=np.int64).reshape(-1, 6)
    pvals = np.array([float(probs[tuple(o)]) for o in occs])
    return FockOutcomeDistribution(label, occs, pvals)


@lru_cache(maxsize=None)
def propagate_parties(pols: str, numbers: tuple[int, int, int],
                      cutoff: int = N_MAX) -> FockOutcomeDistribution:
    """Exact output distribution for Alice/Bob/Charlie sending `numbers`
    photons in polarizations `pols` (e.g. pols="HHV", numbers=(1, 1, 2))."""
    if len(pols) != 3 or any(p not in _POLS for p in pols):
        raise ValueError(f"bad polarization string {pols!r}")
    if sum(numbers) > cutoff:
        raise ValueError(f"total photon number {sum(numbers)} exceeds cutoff {cutoff}")
    beams = []
    for party, (pol, n) in enumerate(zip(pols, numbers)):
        if n:
            vec, half = _party_output_vector(party, pol)
            beams.append((vec, half, n))
    if not beams:
        probs = {(0, 0, 0, 0, 0, 0): Fraction(1)}
    else:
        probs = _expand_beams(beams)
    return _distribution_from(f"{pols}{numbers}", probs)


def propagate_fock(occupation, cutoff: int = N_MAX) -> FockOutcomeDistribution:
    """Exact output distribution for a product Fock input over the six input
    modes, ordered (Alice H, Alice V, Bob H, Bob V, Charlie H, Charlie V)."""
    occupation = tuple(int(k) for k in occupation)
    if len(occupation) != 6 or any(k < 0 for k in occupation):
        raise ValueError("occupation must be six nonnegative integers")
    if sum(occupation) > cutoff:
        raise ValueError(f"total photon number {sum(occupation)} exceeds cutoff {cutoff}")
    beams = []
    for mode, n in enumerate(occupation):
        if n:
            party, offset = divmod(mode, 2)
            vec, half = _party_output_vector(party, "H" if offset == 0 else "V")
            beams.append((vec, half, n))
    probs = _expand_beams(beams) if beams else {(0, 0, 0, 0, 0, 0): Fraction(1)}
    return _distribution_from(f"fock{occupation}", probs)


def click_probability(k: int, eta: float, p_d: float) -> float:
    """Threshold detector seeing k photons: P(click) = 1 - (1-p_d)(1-eta)^k."""
    return 1.0 - (1.0 - p_d) * (1.0 - eta) ** k


def click_probability_set(occupation, detector: DetectorModel) -> np.ndarray:
    """Per-detector click probabilities for one output configuration."""
    occ = np.asarray(occupation)
    return 1.0 - (1.0 - detector.p_d) * (1.0 - detector.eta_d) ** occ


def outcome_pattern_sums(click, silent):
    """Probabilities of the two announced outcomes from per-detector click and
    silence probabilities (`click[j]`, `silent[j]`; arrays broadcast).

    Every pattern clicks exactly one detector of each pair (0,1), (2,3), (4,5)
    and leaves its partner silent, so each term is the product of three
    factors click[j] * silent[j ^ 1].  Returns (phi_plus, phi_minus).
    """
    f = [click[j] * silent[j ^ 1] for j in range(6)]
    return tuple(sum(f[a] * f[b] * f[c] for a, b, c in patterns)
                 for patterns in (PHI_PLUS_PATTERNS, PHI_MINUS_PATTERNS))


def ghz_outcome_yields(dist: FockOutcomeDistribution, eta: float,
                       p_d: float) -> tuple[float, float]:
    """Announcement probabilities (both outcome classes) for one preparation.

    Sums, over output configurations, the product of three required clicks and
    three required non-clicks per pattern, weighted by configuration probability.
    """
    occ = dist.occupations
    if eta >= 1.0:
        survive = np.where(occ == 0, 1.0, 0.0)  # (1-eta)^k at eta = 1
        g = 1.0 - (1.0 - p_d) * survive
    else:
        survive = np.exp(occ * np.log1p(-eta))
        # 1 - (1-p_d)(1-eta)^k, kept accurate when the click probability is tiny
        g = -np.expm1(occ * np.log1p(-eta)) + p_d * survive
    # silent-detector factor, exact at both ends; in place, so the peak memory
    # of the pattern products below stays at three arrays of this size
    ng = survive
    ng *= 1.0 - p_d
    plus, minus = outcome_pattern_sums(g.T, ng.T)
    p = dist.probabilities
    return float((p * plus).sum()), float((p * minus).sum())


_SUBSETS = np.array(list(itertools.product((0, 1), repeat=3)), dtype=np.int64)
_SUBSET_SIZE = _SUBSETS.sum(axis=1)


def outcome_yield_polys(dist: FockOutcomeDistribution,
                        p_d: float) -> tuple[np.ndarray, np.ndarray]:
    """Collapse a distribution to polynomials in z = 1 - eta.

    For fixed p_d, the outcome yield is sum_d c_d z^d with degree <= total
    photon number; sweeping eta then costs O(N) per point.  Returns the
    coefficient vectors for the two outcome classes.
    """
    n_tot = dist.total_photons
    w = 1.0 - p_d
    coeffs = [np.zeros(n_tot + 1), np.zeros(n_tot + 1)]
    for cls, patterns in enumerate((PHI_PLUS_PATTERNS, PHI_MINUS_PATTERNS)):
        for pat in patterns:
            silent = [j for j in range(6) if j not in pat]
            e_click = dist.occupations[:, pat]  # (n_cfg, 3)
            d_silent = dist.occupations[:, silent].sum(axis=1)  # (n_cfg,)
            degs = d_silent[:, None] + e_click @ _SUBSETS.T  # (n_cfg, 8)
            vals = (dist.probabilities[:, None]
                    * ((-1.0) ** _SUBSET_SIZE) * w ** (3 + _SUBSET_SIZE))
            np.add.at(coeffs[cls], degs.ravel(), vals.ravel())
    return coeffs[0], coeffs[1]


def eval_yield_poly(coeffs: np.ndarray, eta) -> np.ndarray:
    """Evaluate a yield polynomial at z = 1 - eta (eta may be an array)."""
    z = 1.0 - np.asarray(eta, dtype=float)
    return np.polynomial.polynomial.polyval(z, coeffs)


@dataclass(frozen=True)
class SinglePhotonStats:
    """Exact one-photon-per-user statistics (the infinite-decoy reference)."""

    y111_z: float
    y111_x: float
    e111_bz: float | None
    e111_bx: float | None
    y_ppp_phi_plus: float  # yield of the correct announced outcome, all-"+" input
    y_mmm_phi_plus: float  # same outcome class, all-"-" input (ideally zero)


_Z_TRIPLES = tuple("".join(t) for t in itertools.product("HV", repeat=3))
_X_TRIPLES = tuple("".join(t) for t in itertools.product("+-", repeat=3))


def exact_single_photon_stats(eta: float, p_d: float, e_d: float) -> SinglePhotonStats:
    """Averages the analyzer yields over the uniform single-photon ensembles in
    both bases and composes error rates with the misalignment probability."""
    y_z = {t: ghz_outcome_yields(propagate_parties(t, (1, 1, 1)), eta, p_d)
           for t in _Z_TRIPLES}
    y_x = {t: ghz_outcome_yields(propagate_parties(t, (1, 1, 1)), eta, p_d)
           for t in _X_TRIPLES}

    y111_z = sum(a + b for a, b in y_z.values()) / 8.0
    y_cz = sum(sum(y_z[t]) for t in ("HHH", "VVV")) / 8.0
    y_ez = y111_z - y_cz
    e111_bz = None if y111_z == 0 else (e_d * y_cz + (1 - e_d) * y_ez) / y111_z

    y111_x = sum(a + b for a, b in y_x.values()) / 8.0
    y_cx = sum(y_x[t][0] if t.count("-") % 2 == 0 else y_x[t][1]
               for t in _X_TRIPLES) / 8.0
    y_ex = y111_x - y_cx
    e111_bx = None if y111_x == 0 else (e_d * y_cx + (1 - e_d) * y_ex) / y111_x

    return SinglePhotonStats(
        y111_z=y111_z,
        y111_x=y111_x,
        e111_bz=e111_bz,
        e111_bx=e111_bx,
        y_ppp_phi_plus=y_x["+++"][0],
        y_mmm_phi_plus=y_x["---"][0],
    )


def exact_single_photon_stats_for(params: SystemParams) -> SinglePhotonStats:
    eta = overall_efficiency(params.channel, params.detector)
    return exact_single_photon_stats(eta, params.detector.p_d, params.e_d)
