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
copies when the phases are sliced, then random((n, 6)) click uniforms.
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

# click code (bit j: detector j clicked) -> 0 phi+, 1 phi-, 2 not announced
_CODE_CLASS = np.full(64, 2, dtype=np.intp)
for _cls, _patterns in enumerate((fock.PHI_PLUS_PATTERNS, fock.PHI_MINUS_PATTERNS)):
    _CODE_CLASS[[sum(1 << j for j in pat) for pat in _patterns]] = _cls


@dataclass(frozen=True)
class McConfig:
    samples: int
    seed: int = 1

    def __post_init__(self):
        if not isinstance(self.samples, int) or self.samples < 1:
            raise ValueError(f"samples must be an int >= 1, got {self.samples!r}")
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must be an int in [0, 2**64), got {self.seed!r}")


@dataclass(frozen=True)
class McEstimate:
    """Events of one announced outcome among the samples drawn."""

    count: int
    samples: int


def _chunk_counts(w: np.ndarray, p_d: float, slice_k, seed: int, index: int, n: int):
    """(phi+, phi-) counts of chunk `index`, n samples, amplitude matrix w."""
    rng = np.random.Generator(np.random.Philox(key=seed).jumped(index))
    phases = rng.random((n, 3))
    if slice_k:
        # matched-region phases: first region, both half-circle copies
        phases = phases * (np.pi / slice_k) + np.pi * rng.integers(0, 2, (n, 3))
    else:
        phases *= 2.0 * np.pi
    # per output a constant mean photon number, or one contiguous row of n
    means = list((w * w).sum(axis=1))
    for p, q in itertools.combinations(range(3), 2):
        weight = 2.0 * w[:, p] * w[:, q]
        if weight.any():
            cos = np.cos(phases[:, p] - phases[:, q])
            for i in np.flatnonzero(weight):
                means[i] = means[i] + weight[i] * cos
    uniforms = rng.random((n, 6))
    codes = np.zeros(n, dtype=np.uint8)
    for i, mean in enumerate(means):
        codes |= (uniforms[:, i] < 1.0 - (1.0 - p_d) * np.exp(-mean)).view(np.uint8) << i
    return np.bincount(_CODE_CLASS[codes], minlength=3)[:2]


def mc_coherent_gains(pols: str, intensities, eta: float, p_d: float,
                      cfg: McConfig, slice_k: int | None = None
                      ) -> tuple[McEstimate, McEstimate]:
    """Sample the two announced-outcome probabilities for one preparation.

    pols: three tokens from H/V/+/- (the sign triple for diagonal-basis runs);
    intensities: the three users' source intensities (any subset may be zero);
    slice_k: restrict all three phases to the first of K matched regions.

    Returns the (phi+, phi-) event counts.  A count over the samples is a
    conditional probability (no preparation-probability factor): a
    rectilinear class gain Q corresponds to it over 8, a K-sliced gain to it
    over 8 K^2 after the same-class summation.
    """
    if len(pols) != 3 or any(p not in _POL_VECTORS for p in pols):
        raise ValueError(f"bad polarization triple {pols!r}")
    if len(intensities) != 3 or not all(0.0 <= x < np.inf for x in intensities):
        raise ValueError(f"need 3 finite intensities >= 0, got {intensities!r}")
    for name, value in (("eta", eta), ("p_d", p_d)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    if slice_k is not None and (not isinstance(slice_k, int) or slice_k < 1):
        raise ValueError(f"slice_k must be None or an int >= 1, got {slice_k!r}")
    unitary = fock.analyzer_unitary()
    vectors = np.array([_POL_VECTORS[pol] for pol in pols])  # (party, H/V)
    assert np.isrealobj(unitary) and np.isrealobj(vectors)
    w = np.einsum("ipk,pk->ip", unitary.reshape(6, 3, 2), vectors) \
        * np.sqrt(np.multiply(intensities, eta))
    total = sum(_chunk_counts(w, p_d, slice_k, cfg.seed, index,
                              min(CHUNK_SAMPLES, cfg.samples - start))
                for index, start in enumerate(range(0, cfg.samples, CHUNK_SAMPLES)))
    return tuple(McEstimate(int(count), cfg.samples) for count in total)


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
