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

Streaming: only the phases are drawn whole.  The integers, then the
uniforms, are drawn BLOCK_SAMPLES rows at a time, and each block of clicks is
evaluated in reused block buffers before the next block of uniforms is drawn.
Successive draws from one generator continue its stream, and every element
sees the float operations of a whole-chunk evaluation in the same order, so
the counts do not depend on BLOCK_SAMPLES.

Threads: the chunks of a call run on a thread pool, one thread per chunk up
to the CPUs this process may run on (`chunk_plan`); a single chunk runs on
the calling thread.  The counts are integer sums over substreams, so they do
not depend on the thread count or on which chunk finishes first.  Workers
share only read-only inputs: each holds its chunk's phases, 24 bytes per
sample (12.6 MB at CHUNK_SAMPLES), plus about 1 MB of block buffers.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

import numpy as np

from . import fock

__all__ = ["McConfig", "McEstimate", "chunk_plan", "mc_coherent_gains"]

RNG_ALGORITHM = "philox4x64"
CHUNK_SAMPLES = 1 << 19  # fixed substream granularity
BLOCK_SAMPLES = 8192  # samples per evaluated block: its buffers stay in cache

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


def chunk_plan(samples: int) -> tuple[int, int]:
    """(chunks, threads) of a call drawing `samples`: one substream per
    CHUNK_SAMPLES, and at most one thread per chunk and per CPU this process
    may run on, never more for a larger sample count."""
    chunks = -(-samples // CHUNK_SAMPLES)
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return chunks, min(chunks, cpus)


def _chunk_counts(ws, p_d: float, slice_k, seed: int, index: int, n: int) -> np.ndarray:
    """(phi+, phi-) counts of chunk `index`, n samples, one row per amplitude
    matrix of ws; every matrix is evaluated on the same draws.  Only the
    phases are held for the whole chunk: the clicks are drawn and evaluated
    one block of BLOCK_SAMPLES samples at a time."""
    rng = np.random.Generator(np.random.Philox(key=seed).jumped(index))
    phases = rng.random((n, 3))
    blocks = [slice(start, min(start + BLOCK_SAMPLES, n))
              for start in range(0, n, BLOCK_SAMPLES)]
    if slice_k:
        # matched-region phases: first region, both half-circle copies; the
        # stream holds every integer before the first click uniform
        phases *= np.pi / slice_k
        for rows in blocks:
            block = phases[rows]
            np.add(block, np.pi, out=block, where=rng.integers(0, 2, block.shape) == 1)
    else:
        phases *= 2.0 * np.pi
    # per matrix and party pair, the interference weight of each output; one
    # cosine per pair that some matrix weights
    weights = [[2.0 * w[:, p] * w[:, q] for p, q in _PAIRS] for w in ws]
    cosine_needed = [any(pairs[k].any() for pairs in weights) for k in range(len(_PAIRS))]
    bases = [(w * w).sum(axis=1) for w in ws]
    # one block's buffers, overwritten by every block
    size = min(n, BLOCK_SAMPLES)
    cosine_rows, uniform_rows = np.empty((len(_PAIRS), size)), np.empty((size, 6))
    float_rows = np.empty((3, size))
    clicked_row, shifted_row = np.empty(size, dtype=bool), np.empty(size, dtype=np.uint8)
    code_rows = np.empty((len(ws), size), dtype=np.uint8)
    hists = np.zeros((len(ws), 64), dtype=np.int64)
    for rows in blocks:
        m = rows.stop - rows.start
        column, mean, term = float_rows[:, :m]
        clicked, shifted, codes = clicked_row[:m], shifted_row[:m], code_rows[:, :m]
        cosines = [np.cos(np.subtract(phases[rows, p], phases[rows, q], out=row[:m]),
                          out=row[:m]) if needed else None
                   for (p, q), needed, row in zip(_PAIRS, cosine_needed, cosine_rows)]
        uniforms = rng.random(out=uniform_rows[:m])
        codes[:] = 0
        for i in range(6):
            np.copyto(column, uniforms[:, i])  # one strided read serves every matrix
            for code, base, pairs in zip(codes, bases, weights):
                # a constant mean photon number, or the row `mean` of m
                terms = [(weight[i], cos) for weight, cos in zip(pairs, cosines) if weight[i]]
                if terms:
                    (weight, cos), *rest = terms
                    np.multiply(cos, weight, out=mean)
                    mean += base[i]
                    for weight, cos in rest:
                        mean += np.multiply(weight, cos, out=term)
                    np.negative(mean, out=mean)
                    np.exp(mean, out=mean)
                    mean *= 1.0 - p_d
                    threshold = np.subtract(1.0, mean, out=mean)
                else:  # a numpy scalar, so exp takes its scalar path
                    threshold = 1.0 - (1.0 - p_d) * np.exp(-base[i])
                np.less(column, threshold, out=clicked)
                code |= np.left_shift(clicked.view(np.uint8), i, out=shifted)
        for hist, code in zip(hists, codes):
            hist += np.bincount(code, minlength=64)
    return np.array([[hist[c].sum() for c in _CLASS_CODES] for hist in hists])


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
    chunks, threads = chunk_plan(cfg.samples)

    def counts(index):
        return _chunk_counts(ws, p_d, slice_k, cfg.seed, index,
                             min(CHUNK_SAMPLES, cfg.samples - index * CHUNK_SAMPLES))

    if threads == 1:
        total = sum(map(counts, range(chunks)))
    else:  # counts are integers: their sum does not depend on the finishing order
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(threads) as pool:
            total = sum(pool.map(counts, range(chunks)))
    return tuple(McEstimate(int(count), cfg.samples) for count in total.ravel())
