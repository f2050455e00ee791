"""Independent reference for the analyzer yields: the detector product of every
output configuration, evaluated directly at the detection efficiency.

The package computes yields by thinning ideal-detector tables; this direct
sum over the exact output distribution is what those yields must equal.
"""

import numpy as np

from mdighz import fock


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


def ghz_outcome_yields(dist, eta, p_d):
    """Announcement probabilities (phi_plus, phi_minus) of one preparation:
    per configuration, three required clicks and three required non-clicks
    per pattern, weighted by the configuration probability."""
    click, silent = click_silent(dist.occupations, eta, p_d)
    plus, minus = fock.outcome_pattern_sums(click.T, silent.T)
    p = dist.probabilities
    return float((p * plus).sum()), float((p * minus).sum())
