"""Exact photon-number propagation through the GHZ analyzer, and its yields.

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

Yields at detection efficiency eta come by binomial thinning: uniform loss
commutes with the passive analyzer, so (n, m, l) photons seen with efficiency
eta act as binomially thinned inputs seen by ideal detectors with the same
dark counts (the per-photon loss model of Ma et al., PRA 72, 012326 (2005)).
`ideal_detector_table` holds the distance-free masses C_d that announced
patterns fit with d pairs lit only by a dark count, so that Y(.; 1, p_d) =
(1-p_d)^3 sum_d C_d p_d^d (`ideal_yields`); `thinning_matrix` holds the
binomial weights.  Every term is nonnegative, so nothing cancels.

The analyzer is invariant under the party cycle A -> B -> C -> A with detector
j -> j+2 mod 6, which maps each announced pattern set onto itself, so an
input's table entry is that of its least cyclic rotation (taken after an
empty user is written as H).  Each orbit is built once; its entries are
bitwise equal, since a mass is an exact integer sum below 2^53, in any order,
divided once by the same denominator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial, prod

import numpy as np

__all__ = [
    "N_MAX",
    "PHI_PLUS_PATTERNS",
    "PHI_MINUS_PATTERNS",
    "SinglePhotonStats",
    "analyzer_unitary",
    "ideal_detector_table",
    "ideal_yields",
    "thinning_matrix",
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
_BINOMIALS = np.array([[comb(n, k) for k in range(_BASE)] for n in range(_BASE)],
                      dtype=float)
_LOST = np.subtract.outer(np.arange(_BASE), np.arange(_BASE)).clip(0)  # n - k
# Three detector group states packed base 4 -> 2 d + parity for a
# configuration that announced patterns fit (d empty pairs, parity of the lit
# second detectors), 8 for one they cannot fit (a pair with both detectors
# lit).  A group's state is 0 both empty, 1 first lit, 2 second lit, 3 both.
_STATES = np.array(list(itertools.product(range(4), repeat=3)))
_FIT_CATEGORY = np.where((_STATES == 3).any(axis=1), 8,
                         2 * (_STATES == 0).sum(axis=1) + (_STATES == 2).sum(axis=1) % 2)
# A key splits as hi * _HALF + lo into detectors 0-2 and 3-5.  Over the
# half-keys, _HALF_FACTORIALS holds the product of their three digit factorials,
# and _HIGH_FIT[hi] + _LOW_FIT[lo] = 16 g0 + 4 g1 + g2 indexes _FIT_CATEGORY,
# with g0 = lit(0) + 2 lit(1), g1 = lit(2) + 2 lit(3), g2 = lit(4) + 2 lit(5).
_HALF = _BASE ** 3


def _half_key_tables():
    # int64 broadcasts over the digits d0, d1, d2: the int8 and masked-ufunc
    # forms measured about 200 KB more resident memory from import onwards
    d0, d1, d2 = (np.arange(_BASE).reshape(shape) for shape in ((-1, 1, 1), (-1, 1), -1))
    within = d0 + d1 + d2 <= N_MAX
    # 1 beyond the cutoff, where no key's half lies and int64 would overflow
    factorials = np.where(within, _FACTORIALS[d0] * _FACTORIALS[d1]
                          * _FACTORIALS[np.where(within, d2, 0)], 1)
    return (factorials.ravel(), (16 * (d0 > 0) + 32 * (d1 > 0) + 4 * (d2 > 0)).ravel(),
            (8 * (d0 > 0) + (d1 > 0) + 2 * (d2 > 0)).ravel())


_HALF_FACTORIALS, _HIGH_FIT, _LOW_FIT = _half_key_tables()


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
    hi, lo = divmod(keys, _HALF)
    return keys, norm2 * _HALF_FACTORIALS[hi] * _HALF_FACTORIALS[lo], denom


def _check_input(pols: str, numbers) -> None:
    if len(pols) != 3 or any(p not in _POLS for p in pols):
        raise ValueError(f"bad polarization string {pols!r}")
    if sum(numbers) > N_MAX:
        raise ValueError(f"total photon number {sum(numbers)} exceeds cutoff {N_MAX}")


def _least_rotation(pols: str, numbers: tuple) -> tuple[str, tuple]:
    """The least of the three cyclic rotations of an input (pols, numbers)."""
    return min((pols[r:] + pols[:r], numbers[r:] + numbers[:r]) for r in range(3))


def ideal_detector_table(preps: tuple[str, ...], mask: np.ndarray) -> np.ndarray:
    """C[prep, outcome, d, n, m, l], zero where the boolean `mask` is False:
    the probability mass of the configurations that `preps[prep]` with
    (n, m, l) photons leaves at ideal detectors and that patterns of `outcome`
    (phi_plus, phi_minus) fit with d pairs lit only by a dark count.

    A pattern fits when each of its detectors' partners is empty; its product
    is then (1-p_d)^3 p_d^d.  With d >= 1 empty pairs, 2^(d-1) patterns of each
    outcome fit; with none, the one of the lit second detectors' parity.  The
    masses are exact integer sums below 2^53, divided once: correctly rounded.
    """
    triples = [tuple(t) for t in np.argwhere(mask).tolist()]
    for pols in preps:
        _check_input(pols, max(triples, key=sum))
    # a user sending no photons leaves no trace of its polarization, and the
    # party cycle leaves every entry as it is: one build per cyclic orbit
    inputs = [_least_rotation("".join(p if k else "H" for p, k in zip(pols, numbers)), numbers)
              for pols in preps for numbers in triples]
    row = {x: i for i, x in enumerate(dict.fromkeys(inputs))}
    masses, denoms = [], []
    for x in row:  # one input at a time, so no table of all configurations forms
        keys, num, denom = _exact_norms(*x)
        hi, lo = divmod(keys, _HALF)
        # in place: two fewer temporaries of the largest builds' size
        num *= _HALF_FACTORIALS[hi]
        num *= _HALF_FACTORIALS[lo]
        category = _FIT_CATEGORY[_HIGH_FIT[hi] + _LOW_FIT[lo]]
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


def ideal_yields(table: np.ndarray, p_d: float) -> np.ndarray:
    """Yields at unit detector efficiency, (1-p_d)^3 sum_d C_d p_d^d, from a
    table whose dark-pair axis d comes just before the three photon-number
    axes (as in `ideal_detector_table`)."""
    y = table[..., 3, :, :, :]
    for d in (2, 1, 0):
        y = y * p_d + table[..., d, :, :, :]
    return y * (1.0 - p_d) ** 3


def thinning_matrix(eta: float) -> np.ndarray:
    """M[n, k] = C(n, k) eta^k (1-eta)^(n-k), the probability that k of n
    photons survive efficiency eta; (1-eta)^j is taken as exp(j log1p(-eta)),
    accurate for tiny eta, and exactly 0 (j > 0) at eta = 1."""
    k = np.arange(_BASE)
    lost = np.exp(k * np.log1p(-eta)) if eta < 1.0 else (k == 0).astype(float)
    return _BINOMIALS * eta ** k * lost[_LOST]


@dataclass(frozen=True)
class SinglePhotonStats:
    """Exact one-photon-per-user statistics (the infinite-decoy reference)."""

    y111_z: float
    y111_x: float
    e111_bz: float | None
    e111_bx: float | None


_Z_TRIPLES = tuple("".join(t) for t in itertools.product("HV", repeat=3))
_X_TRIPLES = tuple("".join(t) for t in itertools.product("+-", repeat=3))


@lru_cache(maxsize=1)
def _single_photon_table() -> np.ndarray:
    """The ideal-detector table of the 16 single-photon preparations over the
    triples up to (1, 1, 1)."""
    table = ideal_detector_table(_Z_TRIPLES + _X_TRIPLES, np.ones((2, 2, 2), dtype=bool))
    table.setflags(write=False)
    return table


def exact_single_photon_stats(eta: float, p_d: float, e_d: float) -> SinglePhotonStats:
    """Averages the analyzer yields over the uniform single-photon ensembles in
    both bases and composes error rates with the misalignment probability.

    Each user's photon is lost or survives ([1-eta, eta]), thinned against the
    ideal-detector yields of the triples up to (1, 1, 1)."""
    one = thinning_matrix(eta)[1, :2]
    y = (ideal_yields(_single_photon_table(), p_d) @ one @ one @ one).tolist()
    y_z = dict(zip(_Z_TRIPLES, y[:8]))
    y_x = dict(zip(_X_TRIPLES, y[8:]))

    y111_z = sum(a + b for a, b in y_z.values()) / 8.0
    y_cz = sum(sum(y_z[t]) for t in ("HHH", "VVV")) / 8.0
    y_ez = y111_z - y_cz
    e111_bz = None if y111_z == 0 else (e_d * y_cz + (1 - e_d) * y_ez) / y111_z

    y111_x = sum(a + b for a, b in y_x.values()) / 8.0
    y_cx = sum(y_x[t][0] if t.count("-") % 2 == 0 else y_x[t][1]
               for t in _X_TRIPLES) / 8.0
    y_ex = y111_x - y_cx
    e111_bx = None if y111_x == 0 else (e_d * y_cx + (1 - e_d) * y_ex) / y111_x

    return SinglePhotonStats(y111_z, y111_x, e111_bz, e111_bx)
