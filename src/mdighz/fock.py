"""Exact photon-number yields of the GHZ analyzer.

The analyzer is one fixed 6x6 mode unitary feeding six threshold detectors
(1H, 1V, 2H, 2V, 3H, 3V).  A successful event is three simultaneous clicks,
one per spatial group, with the other three detectors silent; the click
pattern decides which of the two identified GHZ outcomes was projected.

Every unitary entry and polarization amplitude is an integer multiple of a
power of 1/sqrt(2), so the table below is formed from exact integer sums:
signed interference sums carry no cancellation error.  It is the package's
one photon-number engine.  The propagator of the full output distribution,
which every table entry must equal bit for bit, is kept with the tests
(`tests/yield_reference.py`); `checks.fock_closed_form` holds the table
against the printed H,H,V output probabilities.

Yields at detection efficiency eta come by binomial thinning: uniform loss
commutes with the passive analyzer, so (n, m, l) photons seen with efficiency
eta act as binomially thinned inputs seen by ideal detectors with the same
dark counts (the per-photon loss model of Ma et al., PRA 72, 012326 (2005)).
`ideal_detector_table` holds the distance-free masses C_d that announced
patterns fit with d pairs lit only by a dark count, so that Y(.; 1, p_d) =
(1-p_d)^3 sum_d C_d p_d^d (`ideal_yields`); `thinning_matrix` holds the
binomial weights.  Every term is nonnegative, so nothing cancels.

The table enumerates no output configuration.  Party p sends k_p of its n_p
photons into its H input and the rest into its V input, with Gaussian-integer
amplitude P(k) = prod_p C(n_p, k_p) c_H^k_p c_V^(n_p - k_p), c in {0, +-1,
+-i} (the 1/sqrt(2) factors go into the denominator).  Detector group g sees
party g's V and party g+1's H light as (a_f - a_s)^x (a_f + a_s)^y, with
x = n_g - k_g, y = k_{g+1} and G_g = x + y photons in all.  A pattern fits
only the configurations in which each lit group holds all its photons in one
detector, where the coefficient is 1 (first detector) or (-1)^x (second).
Two splits give the same group totals only if they differ by one shift delta
of all three k_p, and then a second-detector choice carries the sign
(-1)^delta in every group.  So with m = 3 - d lit groups

    mass[d, parity] = sum_{k, delta} Re(P(k) conj P(k + delta))
                      * prod_g G_g! * 2^(m-1) * (-1)^(delta * parity)

over the same denominators; the vacuum alone has m = 0, half its mass 1 in each
parity, which the table adds at d = 3.  Over every input up to the cutoff (all 216
preparations, checked) the absolute terms sum to at most the denominator,
itself below 2^53, so the int64 sums are exact and the one division correctly
rounded.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial

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

_BASE = N_MAX + 1  # photon numbers 0 .. N_MAX
_FACTORIALS = np.array([factorial(k) for k in range(_BASE)], dtype=np.int64)
_EXACT_LIMIT = 2 ** 53  # integers below this convert to float exactly
_BINOMIALS = np.array([[comb(n, k) for k in range(_BASE)] for n in range(_BASE)],
                      dtype=np.int64)
_LOST = np.subtract.outer(np.arange(_BASE), np.arange(_BASE)).clip(0)  # n - k
_I_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))  # i^r, r = 0..3
_BLOCK = 48  # triples per block of the table build: bounds its temporaries


def _gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def analyzer_unitary() -> np.ndarray:
    """The fixed 6x6 network unitary U (a_in[j] -> sum_i U[i,j] a_out[i])."""
    s = 1.0 / np.sqrt(2.0)
    u = np.zeros((6, 6))
    for j, routes in _ROUTES.items():
        for i, sign in routes:
            u[i, j] = sign * s
    return u


def _check_input(pols: str, numbers) -> None:
    if len(pols) != 3 or any(p not in _POLS for p in pols):
        raise ValueError(f"bad polarization string {pols!r}")
    if sum(numbers) > N_MAX:
        raise ValueError(f"total photon number {sum(numbers)} exceeds cutoff {N_MAX}")


def _ragged(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each index i repeated counts[i] times, and 0 .. counts[i] - 1 beside it."""
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(len(owner)) - (np.cumsum(counts) - counts)[owner]


def _fit_masses(preps: tuple[str, ...], triples: np.ndarray) -> np.ndarray:
    """C[prep, outcome, d, triple] of `ideal_detector_table` for the rows of
    `triples` (t, 3), by the closed form of the module docstring.

    Each split k pairs with every shift delta >= 0 that keeps k + delta a
    split; one with delta > 0 stands for its mirror too.  Where both
    amplitudes are nonzero, Re(P(k) conj P(k + delta)) = C(n, k) C(n, k +
    delta) Re(rho^delta), with rho = prod_p c_V conj(c_H) a power of i."""
    row, j = _ragged((triples + 1).prod(axis=1))
    n = triples[row]
    k = np.empty_like(n)
    for p in (2, 1, 0):
        j, k[:, p] = np.divmod(j, n[:, p] + 1)
    pair, delta = _ragged((n - k).min(axis=1) + 1)
    row, n, k = row[pair], n[pair], k[pair]
    shifted = k + delta[:, None]
    totals = n - k + np.roll(k, -1, axis=1)  # group g: party g's V, party g+1's H
    weight = (_BINOMIALS[n, k].prod(axis=1) * _BINOMIALS[n, shifted].prod(axis=1)
              * _FACTORIALS[totals].prod(axis=1)) << (delta > 0)
    # sums by triple, empty groups d and delta's parity.  A mass counts 2^(m-1)
    # second-detector choices per parity; the table adds both parities times
    # 2^(d-1) patterns for d >= 1 (even deltas only survive) and takes the
    # outcome's parity for d = 0: a factor 4 either way
    bins = 8 * row + 2 * (totals == 0).sum(axis=1) + delta % 2
    out = np.empty((len(preps), 2, 4, len(triples)))
    for i, pols in enumerate(preps):
        keep = np.ones(len(row), dtype=bool)
        rho = (1, 0)
        for p, pol in enumerate(pols):
            c = dict(_POLS[pol][0])
            if 0 not in c:  # no H amplitude: every photon in V, no shift
                keep &= shifted[:, p] == 0
            elif 1 not in c:  # no V amplitude: every photon in H, no shift
                keep &= k[:, p] == n[:, p]
            else:
                rho = _gmul(rho, _gmul(c[1], (c[0][0], -c[0][1])))  # c_V conj(c_H)
        sign = np.array((1, 0, -1, 0))[_I_POWERS.index(rho) * delta % 4]
        sums = np.zeros(8 * len(triples), dtype=np.int64)
        np.add.at(sums, bins[keep], weight[keep] * sign[keep])
        even, odd = sums.reshape(-1, 4, 2).transpose(2, 1, 0)
        halves = np.array([_POLS[pol][1] + 1 for pol in pols])
        denom = _FACTORIALS[triples].prod(axis=1) << (triples @ halves)
        if denom.max() >= _EXACT_LIMIT:
            raise ValueError(f"{pols} is beyond exact float conversion")
        out[i] = 4.0 * even / denom
        out[i, :, 0] = 4.0 * np.stack((even[0] + odd[0], even[0] - odd[0])) / denom
    return out


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
    triples = np.argwhere(mask)
    largest = max(triples.tolist(), key=sum)
    for pols in preps:
        _check_input(pols, largest)
    out = np.zeros((len(preps), 2, 4) + mask.shape)
    # a block at a time, so the pairs of all triples never form at once
    out[..., mask] = np.concatenate([_fit_masses(preps, triples[b:b + _BLOCK])
                                     for b in range(0, len(triples), _BLOCK)], axis=-1)
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
