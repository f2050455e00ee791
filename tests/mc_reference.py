"""Whole-chunk reference for the Monte Carlo oracle's click counts.

`chunk_counts_reference` draws a chunk's phases, half-circle integers and
click uniforms in three whole-chunk calls and evaluates every detector over
all n samples at once.  The package streams the same evaluation over fixed
blocks of samples, drawing the integers and uniforms block by block; the
draws continue one Philox stream and every element sees the same float
operations in the same order, so the two must agree count for count.
"""

import numpy as np

from mdighz import fock
from mdighz.montecarlo import _CLASS_CODES, _PAIRS, _POL_VECTORS


def amplitude_matrices(preparations, intensities, eta: float) -> list:
    """The (output, party) amplitude matrix of each preparation, as
    `mc_coherent_gains` forms it for its chunks."""
    unitary = fock.analyzer_unitary().reshape(6, 3, 2)
    amplitudes = np.sqrt(np.multiply(intensities, eta))
    return [np.einsum("ipk,pk->ip", unitary, np.array([_POL_VECTORS[pol] for pol in pols]))
            * amplitudes for pols in preparations]


def chunk_counts_reference(ws, p_d: float, slice_k, seed: int, index: int,
                           n: int) -> np.ndarray:
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
