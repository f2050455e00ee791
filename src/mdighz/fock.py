"""Exact photon-number propagation through the GHZ analyzer.

The analyzer is one fixed 6x6 mode unitary feeding six threshold detectors
(1H, 1V, 2H, 2V, 3H, 3V).  A successful event is three simultaneous clicks,
one per spatial group, with the other three detectors silent; the click
pattern decides which of the two identified GHZ outcomes was projected.

Propagation works on creation-operator polynomials with exact Gaussian-integer
amplitudes (every unitary entry and polarization amplitude is an integer
multiple of a power of 1/sqrt(2)) held in int64 numpy arrays.  Up to the
photon-number cutoff every numerator and denominator of an output probability
stays below 2^53, so the one float division at the end is correctly rounded:
signed interference sums are exact and free of cancellation error.

For many inputs at once, `yield_table` packs the output distributions of a
set of (preparation, photon-number triple) inputs into one flat table, and
`YieldTable.yields` evaluates all their announcement probabilities at one
detection efficiency and dark-count probability in a single pass.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import factorial

import numpy as np

from .params import SystemParams, overall_efficiency

__all__ = [
    "N_MAX",
    "PHI_PLUS_PATTERNS",
    "PHI_MINUS_PATTERNS",
    "FockOutcomeDistribution",
    "YieldTable",
    "SinglePhotonStats",
    "analyzer_unitary",
    "propagate_parties",
    "yield_table",
    "outcome_pattern_sums",
    "ghz_outcome_yields",
    "exact_single_photon_stats",
]

N_MAX = 12  # total-photon cutoff

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

# Click patterns (detector indices 1H, 1V, 2H, 2V, 3H, 3V) per announced outcome.
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

# An output configuration packs into one integer key, one base-_BASE digit per
# detector with detector 0 most significant, so sorted keys are sorted
# occupation tuples.
_BASE = N_MAX + 1
_PLACES = tuple(_BASE ** (5 - j) for j in range(6))
_FACTORIALS = np.array([factorial(k) for k in range(_BASE)], dtype=np.int64)
_EXACT_LIMIT = 2 ** 53  # integers below this convert to float exactly
_BLOCK = 1 << 14  # configurations per block of the yield evaluation


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


@dataclass(frozen=True)
class FockOutcomeDistribution:
    """Output Fock configurations of the analyzer for one input preparation."""

    occupations: np.ndarray  # (n_cfg, 6) int
    probabilities: np.ndarray  # (n_cfg,) float


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


@lru_cache(maxsize=None)
def _party_terms(party: int, pol: str, n: int):
    """Expansion of (sum_j v_j a_j)^n for `n` photons of one party: packed
    output keys and the Gaussian-integer amplitudes (multinomial coefficient
    times the product of the v_j), as read-only int64 arrays."""
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
                g = _gmul(g, vec[mode])
            key += k * _PLACES[mode]
        keys.append(key)
        re.append(coeff * g[0])
        im.append(coeff * g[1])
    arrays = tuple(np.array(x, dtype=np.int64) for x in (keys, re, im))
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _exact_distribution(pols: str, numbers) -> tuple[np.ndarray, np.ndarray]:
    """Sorted packed keys and probabilities of the output configurations.

    The parties' expansions multiply by outer sums of their keys; equal keys
    are merged with exact integer amplitude sums after each party.  A
    configuration's probability is |amplitude|^2 prod(k!) over
    2^half_power prod(n!), divided once in floating point.
    """
    keys = np.zeros(1, dtype=np.int64)
    re = np.ones(1, dtype=np.int64)
    im = np.zeros(1, dtype=np.int64)
    half = 0
    denom = 1
    for party, (pol, n) in enumerate(zip(pols, numbers)):
        if not n:
            continue
        k2, r2, i2 = _party_terms(party, pol, n)
        half += (_POLS[pol][1] + 1) * n
        denom *= factorial(n)
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
    keys = keys[keep]
    num = norm2[keep]
    for place in _PLACES:
        num = num * _FACTORIALS[keys // place % _BASE]
    return keys, num / denom


def _check_input(pols: str, numbers, cutoff: int) -> None:
    if len(pols) != 3 or any(p not in _POLS for p in pols):
        raise ValueError(f"bad polarization string {pols!r}")
    if sum(numbers) > min(cutoff, N_MAX):
        raise ValueError(f"total photon number {sum(numbers)} exceeds cutoff "
                         f"{min(cutoff, N_MAX)}")


@lru_cache(maxsize=None)
def propagate_parties(pols: str, numbers: tuple[int, int, int],
                      cutoff: int = N_MAX) -> FockOutcomeDistribution:
    """Exact output distribution for Alice/Bob/Charlie sending `numbers`
    photons in polarizations `pols` (e.g. pols="HHV", numbers=(1, 1, 2))."""
    _check_input(pols, numbers, cutoff)
    keys, probs = _exact_distribution(pols, numbers)
    occupations = keys[:, None] // np.array(_PLACES) % _BASE
    return FockOutcomeDistribution(occupations, probs)


def _click_silent(occ, eta: float, p_d: float):
    """Click and silence probabilities of threshold detectors seeing `occ`
    photons: 1 - (1-p_d)(1-eta)^k and (1-p_d)(1-eta)^k, both exact at the
    ends (kept accurate when the click probability is tiny)."""
    if eta >= 1.0:
        survive = np.where(occ == 0, 1.0, 0.0)  # (1-eta)^k at eta = 1
        click = 1.0 - (1.0 - p_d) * survive
    else:
        survive = np.exp(occ * np.log1p(-eta))
        click = -np.expm1(occ * np.log1p(-eta)) + p_d * survive
    # in place, so the peak memory of the pattern products stays at three
    # arrays of this size
    silent = survive
    silent *= 1.0 - p_d
    return click, silent


def _class_sums(f):
    """(phi_plus, phi_minus) from the six click-and-partner-silent factors."""
    return tuple(sum(f[a] * f[b] * f[c] for a, b, c in patterns)
                 for patterns in (PHI_PLUS_PATTERNS, PHI_MINUS_PATTERNS))


def outcome_pattern_sums(click, silent):
    """Probabilities of the two announced outcomes from per-detector click and
    silence probabilities (`click[j]`, `silent[j]`; arrays broadcast).

    Every pattern clicks exactly one detector of each pair (0,1), (2,3), (4,5)
    and leaves its partner silent, so each term is the product of three
    factors click[j] * silent[j ^ 1].  Returns (phi_plus, phi_minus).
    """
    return _class_sums([click[j] * silent[j ^ 1] for j in range(6)])


def ghz_outcome_yields(dist: FockOutcomeDistribution, eta: float,
                       p_d: float) -> tuple[float, float]:
    """Announcement probabilities (both outcome classes) for one preparation.

    Sums, over output configurations, the product of three required clicks and
    three required non-clicks per pattern, weighted by configuration probability.
    """
    click, silent = _click_silent(dist.occupations, eta, p_d)
    plus, minus = outcome_pattern_sums(click.T, silent.T)
    p = dist.probabilities
    return float((p * plus).sum()), float((p * minus).sum())


@dataclass(frozen=True)
class YieldTable:
    """Output distributions of every (preparation, photon-number triple)
    input of a set, in one flat table that no detector parameter enters.

    Per output configuration it keeps the occupation index a * (N_MAX + 1) + b
    of each detector group (its two detectors see a and b photons) and the
    probability.  The configurations of input (preps[i], triples[t]) form
    segment i * len(triples) + t, which starts at `starts` of that index.
    """

    preps: tuple[str, ...]
    triples: tuple[tuple[int, int, int], ...]
    groups: np.ndarray  # (3, n_cfg) int16
    probabilities: np.ndarray  # (n_cfg,) float
    starts: np.ndarray  # (len(preps) * len(triples),) int

    def yields(self, eta: float, p_d: float) -> np.ndarray:
        """Y[prep, outcome, triple]: the two announcement probabilities of
        every input (phi_plus, phi_minus), as ghz_outcome_yields gives them.

        Each pattern factor click(a) * silent(b) of a group comes from one of
        two (N_MAX + 1)^2 tables, gathered in blocks of whole segments.
        """
        click, silent = _click_silent(np.arange(_BASE), eta, p_d)
        first = np.outer(click, silent).ravel()  # group's first detector clicks
        second = np.outer(silent, click).ravel()  # its second detector clicks
        starts = self.starts
        bounds = list(starts) + [len(self.probabilities)]
        y = np.empty((2, len(starts)))
        seg = 0
        while seg < len(starts):
            stop = max(seg + 1, int(np.searchsorted(starts, starts[seg] + _BLOCK)))
            lo, hi = bounds[seg], bounds[stop]
            f = []
            for g in self.groups[:, lo:hi]:
                f += [first[g], second[g]]
            weighted = np.array(_class_sums(f))
            weighted *= self.probabilities[lo:hi]
            y[:, seg:stop] = np.add.reduceat(weighted, starts[seg:stop] - lo, axis=1)
            seg = stop
        return y.reshape(2, len(self.preps), len(self.triples)).transpose(1, 0, 2)


@lru_cache(maxsize=4)
def yield_table(preps: tuple[str, ...],
                triples: tuple[tuple[int, int, int], ...]) -> YieldTable:
    """The YieldTable of every preparation in `preps` (polarization strings
    as for propagate_parties) with every photon-number triple in `triples`."""
    groups, probs = [], []
    for pols in preps:
        for numbers in triples:
            _check_input(pols, numbers, N_MAX)
            keys, p = _exact_distribution(pols, numbers)
            groups.append(np.array([keys // (_BASE ** (4 - 2 * i)) % _BASE ** 2
                                    for i in range(3)], dtype=np.int16))
            probs.append(p)
    sizes = [len(p) for p in probs]
    table = YieldTable(preps=preps, triples=triples,
                       groups=np.concatenate(groups, axis=1),
                       probabilities=np.concatenate(probs),
                       starts=np.cumsum([0] + sizes[:-1]))
    for a in (table.groups, table.probabilities, table.starts):
        a.setflags(write=False)
    return table


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
