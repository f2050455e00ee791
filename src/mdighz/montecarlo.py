"""Stochastic oracle for every closed-form and quadrature gain.

Coherent field amplitudes are propagated through the analyzer unitary sample
by sample (never through the analytic click formulas, Bessel factors, or
quadratures), detector clicks are drawn from the threshold model, and the
click patterns are classified exactly like the analytic code classifies them.

Determinism: Philox counter-based streams, one substream per fixed-size
sample chunk (substream index = chunk index), so estimates depend on the seed
and sample count only, never on how chunks are batched onto workers.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class McConfig:
    samples: int
    seed: int = 1

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")


@dataclass(frozen=True)
class McEstimate:
    """Sample mean and standard error of one conditional outcome probability.

    stderr is the sample standard deviation over sqrt(n), floored at the
    one-event resolution 1/n: deviations below a single expected count are
    indistinguishable from zero by the sampler.
    """

    mean: float
    stderr: float
    samples: int
    count: int
    seed: int
    algorithm: str = RNG_ALGORITHM

    def z_score(self, reference: float) -> float:
        return (self.mean - reference) / self.stderr


def _chunk_counts(pols: str, intensities, eta: float, p_d: float,
                  unitary: np.ndarray, rng, n: int, slice_k: int | None):
    if slice_k:
        # matched-region phases: first region, both half-circle copies
        phases = rng.random((n, 3)) * (np.pi / slice_k) \
            + np.pi * rng.integers(0, 2, (n, 3))
    else:
        phases = rng.random((n, 3)) * (2.0 * np.pi)
    amp_in = np.zeros((n, 6), dtype=complex)
    for party, (intensity, pol) in enumerate(zip(intensities, pols)):
        if intensity == 0.0:
            continue
        a = np.sqrt(intensity * eta) * np.exp(1j * phases[:, party])
        vh, vv = _POL_VECTORS[pol]
        amp_in[:, 2 * party] += a * vh
        amp_in[:, 2 * party + 1] += a * vv
    amp_out = amp_in @ unitary.T
    mean_photons = np.abs(amp_out) ** 2
    p_click = 1.0 - (1.0 - p_d) * np.exp(-mean_photons)
    clicks = rng.random((n, 6)) < p_click
    codes = clicks @ (1 << np.arange(6))
    counts = np.zeros(2, dtype=np.int64)
    for cls, patterns in enumerate((fock.PHI_PLUS_PATTERNS, fock.PHI_MINUS_PATTERNS)):
        match = np.zeros(n, dtype=bool)
        for pat in patterns:
            match |= codes == sum(1 << j for j in pat)
        counts[cls] = int(match.sum())
    return counts


def mc_coherent_gains(pols: str, intensities, eta: float, p_d: float,
                      cfg: McConfig, slice_k: int | None = None
                      ) -> tuple[McEstimate, McEstimate]:
    """Sample the two announced-outcome probabilities for one preparation.

    pols: three tokens from H/V/+/- (the sign triple for diagonal-basis runs);
    intensities: per-user source intensities (any subset may be zero);
    slice_k: restrict all three phases to the first of K matched regions.

    Returns conditional probabilities (no preparation-probability factor): a
    rectilinear class gain Q corresponds to mean/8, a K-sliced gain to
    mean/(8 K^2) after the same-class summation.
    """
    if len(pols) != 3 or any(p not in _POL_VECTORS for p in pols):
        raise ValueError(f"bad polarization triple {pols!r}")
    unitary = fock.analyzer_unitary()
    total = np.zeros(2, dtype=np.int64)
    done = 0
    chunk_index = 0
    while done < cfg.samples:
        n = min(CHUNK_SAMPLES, cfg.samples - done)
        rng = np.random.Generator(np.random.Philox(key=cfg.seed).jumped(chunk_index))
        total += _chunk_counts(pols, tuple(intensities), eta, p_d, unitary,
                               rng, n, slice_k)
        done += n
        chunk_index += 1

    out = []
    for count in total:
        mean = count / cfg.samples
        var = mean * (1.0 - mean)
        stderr = np.sqrt(max(var, 1.0 / cfg.samples) / cfg.samples)
        out.append(McEstimate(mean=float(mean), stderr=float(stderr),
                              samples=cfg.samples, count=int(count), seed=cfg.seed))
    return out[0], out[1]


# ---------------------------------------------------------------------------
# Closed-form fidelity of the exact propagator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClosedFormReport:
    max_total_photons: int
    cases: int
    max_deviation: float


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


def fock_closed_form_check(max_total_photons: int) -> ClosedFormReport:
    """Compare the general propagator with the closed-form output
    probabilities of the H,H,V class for every (n, m, l) up to the total."""
    if max_total_photons > fock.N_MAX:
        raise ValueError(f"total photon number exceeds cutoff {fock.N_MAX}")
    worst = 0.0
    cases = 0
    for n in range(max_total_photons + 1):
        for m in range(max_total_photons + 1 - n):
            for l in range(max_total_photons + 1 - n - m):
                cases += 1
                dist = fock.propagate_parties("HHV", (n, m, l))
                reference = _closed_form_hhv(n, m, l)
                general = {tuple(occ): p for occ, p in
                           zip(map(tuple, dist.occupations), dist.probabilities)}
                for key in set(reference) | set(general):
                    dev = abs(general.get(key, 0.0) - float(reference.get(key, 0)))
                    worst = max(worst, dev)
    return ClosedFormReport(max_total_photons, cases, worst)
