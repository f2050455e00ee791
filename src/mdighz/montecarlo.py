"""Stochastic oracle for every closed-form and quadrature gain.

The analyzer unitary U and the H/V/+/- polarization vectors are real, so with
W[:, p] = sqrt(I_p eta) (U[:, 2p] v_H,p + U[:, 2p+1] v_V,p) output i carries
the field sum_p W[i, p] exp(i phi_p), whose exact squared modulus is

    n_i = sum_p W[i, p]^2 + sum_{p<q} 2 W[i, p] W[i, q] cos(phi_p - phi_q).

Each sample draws the phases, takes a cosine only for party pairs sharing an
output (none for HHH), draws threshold clicks from the n_i and classifies them
by the announced patterns of `fock`.  Working at field level in the per-photon
loss picture of Ma et al., PRA 72, 012326 (2005), the oracle never uses
`gains`, a Bessel factor, a quadrature or a closed-form gain: it checks them.

Determinism: one Philox substream per fixed-size chunk (substream index =
chunk index), so counts depend on the seed and sample count only.  A chunk of
n samples draws random((n, 3)) phases, integers(0, 2, (n, 3)) half-circle
copies when the phases are sliced, then random((n, 6)) click uniforms.  These
draws depend only on the seed, chunk index, chunk size and slicing, never on
the preparation, so one call draws each chunk once and evaluates every
preparation on it: its preparations see common random numbers, and their
counts are correlated, not independent samples.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

import numpy as np

from . import fock

__all__ = ["McConfig", "McEstimate", "mc_coherent_gains", "fock_closed_form_check"]

RNG_ALGORITHM = "philox4x64"
CHUNK_SAMPLES = 1 << 19  # fixed substream granularity

_POL_VECTORS = {
    "H": (1.0, 0.0),
    "V": (0.0, 1.0),
    "+": (1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)),
    "-": (1.0 / np.sqrt(2.0), -1.0 / np.sqrt(2.0)),
}

_PAIRS = tuple(itertools.combinations(range(3), 2))
# click codes (bit j: detector j clicked) of the phi+ and of the phi- patterns
_CLASS_CODES = tuple(np.array([sum(1 << j for j in pat) for pat in patterns])
                     for patterns in (fock.PHI_PLUS_PATTERNS, fock.PHI_MINUS_PATTERNS))


@dataclass(frozen=True)
class McConfig:
    samples: int
    seed: int = 1

    def __post_init__(self):
        # a bool is an int to isinstance, and would run a 0/1 stream under its name
        if not _is_int(self.samples) or self.samples < 1:
            raise ValueError(f"samples must be an int >= 1, got {self.samples!r}")
        if not _is_int(self.seed) or not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must be an int in [0, 2**64), got {self.seed!r}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class McEstimate:
    """Events of one announced outcome among the samples drawn."""

    count: int
    samples: int


def _chunk_counts(ws, p_d: float, slice_k, seed: int, index: int, n: int) -> np.ndarray:
    """(phi+, phi-) counts of chunk `index`, n samples, one row per amplitude
    matrix of ws; every matrix is evaluated on the same draws."""
    rng = np.random.Generator(np.random.Philox(key=seed).jumped(index))
    phases = rng.random((n, 3))
    if slice_k:
        # matched-region phases: first region, both half-circle copies
        phases *= np.pi / slice_k
        np.add(phases, np.pi, out=phases, where=rng.integers(0, 2, (n, 3)) == 1)
    else:
        phases *= 2.0 * np.pi
    # per matrix and party pair, the interference weight of each output; one
    # cosine per pair that some matrix weights
    weights = [[2.0 * w[:, p] * w[:, q] for p, q in _PAIRS] for w in ws]
    cosines = [np.cos(phases[:, p] - phases[:, q])
               if any(pairs[k].any() for pairs in weights) else None
               for k, (p, q) in enumerate(_PAIRS)]
    del phases
    uniforms = rng.random((n, 6))
    column, mean = np.empty(n), np.empty(n)
    clicked = np.empty(n, dtype=bool)
    codes = np.zeros((len(ws), n), dtype=np.uint8)
    bases = [(w * w).sum(axis=1) for w in ws]
    for i in range(6):
        np.copyto(column, uniforms[:, i])  # one strided read serves every matrix
        for code, base, pairs in zip(codes, bases, weights):
            # a constant mean photon number, or the row `mean` of n
            terms = [(weight[i], cos) for weight, cos in zip(pairs, cosines) if weight[i]]
            if terms:
                (weight, cos), *rest = terms
                np.multiply(cos, weight, out=mean)
                mean += base[i]
                for weight, cos in rest:
                    mean += weight * cos
                np.negative(mean, out=mean)
                np.exp(mean, out=mean)
                mean *= 1.0 - p_d
                threshold = np.subtract(1.0, mean, out=mean)
            else:  # a numpy scalar, so exp takes its scalar path
                threshold = 1.0 - (1.0 - p_d) * np.exp(-base[i])
            np.less(column, threshold, out=clicked)
            code |= clicked.view(np.uint8) << i
    return np.array([[hist[c].sum() for c in _CLASS_CODES]
                     for hist in (np.bincount(code, minlength=64) for code in codes)])


def mc_coherent_gains(preparations, intensities, eta: float, p_d: float,
                      cfg: McConfig, slice_k: int | None = None
                      ) -> tuple[McEstimate, ...]:
    """Sample the two announced-outcome probabilities of each preparation.

    preparations: a sequence of three-token strings from H/V/+/- (the sign
    triple for diagonal-basis runs), all sampled on the same draws;
    intensities: the three users' source intensities (any subset may be zero);
    slice_k: restrict all three phases to the first of K matched regions.

    Returns the (phi+, phi-) event counts of each preparation in turn, flat.
    A count over the samples is a conditional probability (no
    preparation-probability factor): a rectilinear class gain Q corresponds
    to it over 8, a K-sliced gain to it over 8 K^2 after the same-class
    summation.
    """
    if isinstance(preparations, str) or not len(preparations) or any(
            not isinstance(pols, str) or len(pols) != 3
            or any(p not in _POL_VECTORS for p in pols) for pols in preparations):
        raise ValueError(f"need a nonempty sequence of polarization triples, "
                         f"got {preparations!r}")
    if len(intensities) != 3 or not all(0.0 <= x < np.inf for x in intensities):
        raise ValueError(f"need 3 finite intensities >= 0, got {intensities!r}")
    for name, value in (("eta", eta), ("p_d", p_d)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    if slice_k is not None and (not _is_int(slice_k) or slice_k < 1):
        raise ValueError(f"slice_k must be None or an int >= 1, got {slice_k!r}")
    unitary = fock.analyzer_unitary().reshape(6, 3, 2)
    assert np.isrealobj(unitary)
    amplitudes = np.sqrt(np.multiply(intensities, eta))
    # per preparation the (output, party) amplitudes; vectors are (party, H/V)
    ws = [np.einsum("ipk,pk->ip", unitary, np.array([_POL_VECTORS[pol] for pol in pols]))
          * amplitudes for pols in preparations]
    total = sum(_chunk_counts(ws, p_d, slice_k, cfg.seed, index,
                              min(CHUNK_SAMPLES, cfg.samples - start))
                for index, start in enumerate(range(0, cfg.samples, CHUNK_SAMPLES)))
    return tuple(McEstimate(int(count), cfg.samples) for count in total.ravel())


# ---------------------------------------------------------------------------
# Closed-form fidelity of the exact propagator
# ---------------------------------------------------------------------------

def _closed_form_hhv(n: int, m: int, l: int) -> dict:
    """Printed closed form for the H,H,V input class: probability of the
    output configuration (s, m-s, 0, 0, p, n+l-p) as an exact rational."""
    out = {}
    denom = 2 ** (n + m + l) * factorial(n) * factorial(m) * factorial(l)
    for p in range(n + l + 1):
        for s in range(m + 1):
            amp = 0
            for t in range(l + 1):
                if 0 <= p - t <= n:
                    amp += (-1) ** (l - t) * comb(n, p - t) * comb(m, s) * comb(l, t)
            if amp == 0:
                continue
            num = amp * amp * (factorial(p) * factorial(s)
                               * factorial(n + l - p) * factorial(m - s))
            out[(s, m - s, 0, 0, p, n + l - p)] = Fraction(num, denom)
    return out


def fock_closed_form_check(max_total_photons: int) -> float:
    """Largest absolute difference between the general propagator and the
    closed-form output probabilities of the H,H,V class, over every (n, m, l)
    up to the total; NaN if any probability is NaN."""
    if max_total_photons > fock.N_MAX:
        raise ValueError(f"total photon number exceeds cutoff {fock.N_MAX}")
    triples = [t for t in itertools.product(range(max_total_photons + 1), repeat=3)
               if sum(t) <= max_total_photons]
    deviations = [0.0]
    for n, m, l in triples:
        keys, num, denom = fock._exact_distribution("HHV", (n, m, l))
        reference = {sum(k * place for k, place in zip(occ, fock._PLACES)): p
                     for occ, p in _closed_form_hhv(n, m, l).items()}
        general = dict(zip(keys.tolist(), (num / denom).tolist()))
        deviations += [abs(general.get(key, 0.0) - float(reference.get(key, 0)))
                       for key in set(reference) | set(general)]
    return float(np.max(deviations))  # np.max, unlike max, propagates a NaN
