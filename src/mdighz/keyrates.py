"""Secret key rates and distance sweeps for the four protocol variants.

Conferencing keys come from the rectilinear basis, secret-sharing keys from
the diagonal basis; in both cases the single-photon sector earns key, the
vacuum sector of the reference user is credited in full, and error correction
is charged on the measured totals.  Asymptotic limit throughout: the
single-photon phase error rate of one basis equals the bit error rate of the
other, so only bit-error bounds appear below.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from math import exp
from typing import NamedTuple

import numpy as np

from . import decoy, fock, gains
from .params import (ConfigError, DecoyPlan, ExperimentConfig, SystemParams, binary_entropy,
                     overall_efficiency, transmission_efficiency)

__all__ = [
    "VARIANTS",
    "RatePoint",
    "SourcePoint",
    "source_model",
    "qcc_rate",
    "qss_rate",
    "qss_pps_rate",
    "sweep",
    "optimize_intensities",
]

# variant -> the source kind it runs on
VARIANTS = {"qcc": "wcs", "qss_pps": "wcs", "qss_heralded": "heralded",
            "qss_qnd": "wcs_qnd"}


@dataclass(frozen=True)
class RatePoint:
    """One sweep sample.  rate is clamped at 0; raw_rate keeps the sign for
    cutoff diagnostics."""

    distance_km: float
    rate: float
    rate_infinite: float
    raw_rate: float
    columns: dict = field(default_factory=dict)
    diagnostics: tuple[str, ...] = ()


def _rate_core(f: float, q_vacuum: float, q111: float, e_phase: float | None,
               ec_error: float | None, ec_gain: float) -> tuple[float, float, tuple[str, ...]]:
    """Shared rate skeleton: vacuum credit + single-photon credit - EC cost.

    Returns (clamped rate, raw rate, diagnostics).  An undefined phase-error
    bound zeroes the rate; an undefined EC error with zero gain costs nothing.
    """
    diags = []
    if ec_error is None:
        if ec_gain != 0.0:
            diags.append("no-signal error rate with nonzero gain")
        ec_cost = 0.0
    else:
        ec_cost = binary_entropy(ec_error) * f * ec_gain
    if e_phase is None:
        raw = q_vacuum + 0.0 - ec_cost
        diags.append("rate forced to 0: unbounded single-photon error")
        return 0.0, raw, tuple(diags)
    raw = q_vacuum + q111 * (1.0 - binary_entropy(e_phase)) - ec_cost
    return max(0.0, raw), raw, tuple(diags)


def qcc_rate(f: float, signal: gains.GainSet, alice_vacuum: gains.GainSet,
             p111: float, y111_zl: float, e111_bxu: float | None,
             p_alice_vacuum: float) -> tuple[float, float, tuple[str, ...]]:
    """Conferencing rate: R = Qv + Q111 [1 - H(e111)] - H(max pairwise QBER) f Qz."""
    q_v = p_alice_vacuum * alice_vacuum.q_z
    q111 = p111 * y111_zl
    if signal.q_z == 0.0:
        e_star = None
    else:
        e_star = max(signal.eq_zab, signal.eq_zac) / signal.q_z
    return _rate_core(f, q_v, q111, e111_bxu, e_star, signal.q_z)


def qss_rate(f: float, signal: gains.GainSet, alice_vacuum_qx: float,
             p_alice_vacuum: float, p111: float, y111_xl: float,
             e111_bzu: float | None) -> tuple[float, float, tuple[str, ...]]:
    """Secret-sharing rate on diagonal-basis data (heralded / filtered sources)."""
    q_v = p_alice_vacuum * alice_vacuum_qx
    q111 = p111 * y111_xl
    e_x = None if signal.q_x == 0.0 else signal.eq_x / signal.q_x
    return _rate_core(f, q_v, q111, e111_bzu, e_x, signal.q_x)


def qss_pps_rate(f: float, k: int, sliced: gains.SlicedGains, e_d: float,
                 p111: float, y111_xl: float,
                 e111_bzu: float | None) -> tuple[float, float, tuple[str, ...]]:
    """Phase-post-selected secret-sharing rate.

    The single-photon sector pays the 1/K^2 matched-region probability
    explicitly (its statistics are phase-uniform); the measured sliced gains
    already contain it.  No vacuum credit is taken for this variant.
    """
    q111 = p111 * y111_xl / (k * k)
    e_tilde = sliced.error_rate(e_d)
    return _rate_core(f, 0.0, q111, e111_bzu, e_tilde, sliced.q_total)


# ---------------------------------------------------------------------------
# Source models: the distance-free work once per curve
# ---------------------------------------------------------------------------

class SourcePoint(NamedTuple):
    """A source at one distance, as the decoy estimator and the rates see it."""

    grid: decoy.GainGrid
    signal_level: decoy.DecoyLevel
    decoy_level: decoy.DecoyLevel
    exact: fock.SinglePhotonStats  # the infinite-decoy reference
    p_vacuum: float  # probability that the reference user sends vacuum
    p111: float  # probability that every user sends one photon


def _poisson_p111(mu) -> float:
    return mu * mu * mu * exp(-mu - mu - mu)


def _level_indices(plan: DecoyPlan) -> list[tuple[int, int, int]]:
    """The grid's intensity triples by level index: 0 vacuum, 1 decoy, 2 signal."""
    index = {0.0: 0, plan.mu1: 1, plan.mu2: 2}
    return [tuple(index[mu] for mu in t) for t in decoy.grid_triples(plan)]


def _wcs_model(cfg: ExperimentConfig):
    plan = cfg.decoy
    levels = decoy.poisson_level(plan.mu2), decoy.poisson_level(plan.mu1)
    p_vacuum, p111 = exp(-plan.mu2), _poisson_p111(plan.mu2)

    def at(params: SystemParams) -> SourcePoint:
        grid = decoy.build_gain_grid(lambda triples: gains.wcs_gain_sets(triples, params), plan)
        return SourcePoint(grid, *levels, fock.exact_single_photon_stats_for(params),
                           p_vacuum, p111)
    return at


def _heralded_model(cfg: ExperimentConfig):
    """Triggered pair sources: the level distributions, their truncation
    certificate and their class components hold no distance."""
    plan = cfg.decoy
    levels = [decoy.vacuum_stats()] + [decoy.heralded_stats(mu, cfg.source.trigger)
                                       for mu in (plan.mu1, plan.mu2)]
    triples = _level_indices(plan)
    comps = gains.fock_components(levels, triples, cfg.system.detector.p_d)
    signal, decoy_level = decoy.distribution_level(levels[2]), decoy.distribution_level(levels[1])
    p_vacuum, p111 = float(levels[2][0]), float(levels[2][1]) ** 3

    def at(params: SystemParams) -> SourcePoint:
        thinning = fock.thinning_matrix(overall_efficiency(params.channel, params.detector))
        grid = decoy.build_gain_grid(  # the triples are the grid's, by level index
            lambda _: gains.thinned_gain_sets(comps, levels, triples, thinning, params.e_d), plan)
        return SourcePoint(grid, signal, decoy_level, fock.exact_single_photon_stats_for(params),
                           p_vacuum, p111)
    return at


def _qnd_model(cfg: ExperimentConfig):
    """Weak coherent pulses behind the <=1-photon filter.  The channel is a
    Poisson photon-number channel with arrival intensities lambda = mu eta_t,
    so the estimator runs on Poisson levels at the arrival intensities and
    recovers the filtered single-photon yield at the bare detector efficiency.
    Events with two or more photons in an arm are discarded, not renormalized.
    Only the detector thins the filtered photons, so the class components, the
    thinning and the exact reference hold no distance."""
    plan, det = cfg.decoy, cfg.system.detector
    triples = _level_indices(plan)
    comps = gains.class_yields(np.ones((2, 2, 2), dtype=bool), det.p_d)
    thinning = fock.thinning_matrix(det.eta_d)
    exact = fock.exact_single_photon_stats(det.eta_d, det.p_d, cfg.system.e_d)
    p_vacuum = exp(-plan.mu2)

    def at(params: SystemParams) -> SourcePoint:
        eta_t = transmission_efficiency(params.channel)
        lam = [mu * eta_t for mu in (0.0, plan.mu1, plan.mu2)]
        levels = [(exp(-x), x * exp(-x)) for x in lam]
        grid = decoy.build_gain_grid(  # the triples are the grid's, by level index
            lambda _: gains.thinned_gain_sets(comps, levels, triples, thinning, params.e_d), plan)
        return SourcePoint(grid, decoy.poisson_level(lam[2]), decoy.poisson_level(lam[1]),
                           exact, p_vacuum, _poisson_p111(lam[2]))
    return at


_MODELS = {"wcs": _wcs_model, "heralded": _heralded_model, "wcs_qnd": _qnd_model}


def source_model(cfg: ExperimentConfig):
    """The config's source as one function of SystemParams -> SourcePoint; all
    of its distance-free work is done here, once."""
    return _MODELS[cfg.source.kind](cfg)


def _point(variant: str, cfg: ExperimentConfig, model, length_km: float) -> RatePoint:
    """Two-decoy bounds and the variant's rates at one distance."""
    params = cfg.system.at_distance(length_km)
    grid, signal_level, decoy_level, exact, p_vacuum, p111 = model(params)
    bounds = decoy.single_photon_bounds(grid, signal_level, decoy_level)
    signal, vacuum = grid.gain("signal", (1, 1, 1)), grid.gain("signal", (0, 1, 1))
    f = params.f
    if variant == "qcc":  # (yield, error) pairs: two-decoy bounds, then the exact values
        pairs = (bounds.y111_zl, bounds.e111_bxu), (exact.y111_z, exact.e111_bx)
        rates = [qcc_rate(f, signal, vacuum, p111, y, e, p_vacuum) for y, e in pairs]
        cols = {"e111_bxu": bounds.e111_bxu, "Y111_zl": bounds.y111_zl}
    else:
        pairs = (bounds.y111_xl, bounds.e111_bzu), (exact.y111_x, exact.e111_bz)
        cols = {"e111_bzu": bounds.e111_bzu, "Y111_xl": bounds.y111_xl}
        if variant == "qss_pps":
            k, eta = cfg.phase.k, overall_efficiency(params.channel, params.detector)
            sliced = gains.phase_sliced_gains(*(cfg.decoy.mu2,) * 3, eta, params.detector.p_d, k)
            rates = [qss_pps_rate(f, k, sliced, params.e_d, p111, y, e) for y, e in pairs]
            cols.update(Q_x_sliced=sliced.q_total, E_x_sliced=sliced.error_rate(params.e_d))
        else:
            rates = [qss_rate(f, signal, vacuum.q_x, p_vacuum, p111, y, e) for y, e in pairs]
            cols.update(Q_x=signal.q_x, E_x=signal.e_x)
    (rate, raw, diags), (rate_inf, _, _) = rates
    return RatePoint(length_km, rate, rate_inf, raw, cols, tuple(bounds.diagnostics) + diags)


def _check_variant(variant: str, cfg: ExperimentConfig) -> None:
    """Raise ConfigError unless the config's source can run the variant."""
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}")
    kind = VARIANTS[variant]
    if cfg.source.kind != kind:
        raise ConfigError(f"variant {variant} needs source.kind = {kind}, "
                          f"not {cfg.source.kind!r}", key="source.kind")
    if variant == "qss_pps" and cfg.phase is None:
        raise ConfigError("phase post-selection needs phase.K in the config",
                          key="phase.K")


def rate_point(variant: str, cfg: ExperimentConfig, length_km: float) -> RatePoint:
    return sweep(variant, cfg, (length_km,))[0]


def sweep(variant: str, cfg: ExperimentConfig, distances=None) -> tuple[RatePoint, ...]:
    """Evaluate the full pipeline at each distance of the grid, in grid order,
    on one source model (none for an empty grid)."""
    _check_variant(variant, cfg)
    if distances is None:
        distances = cfg.sweep.distances()
    if len(distances) == 0:
        return ()
    model = source_model(cfg)
    return tuple(_point(variant, cfg, model, d) for d in distances)


def optimize_intensities(variant: str, cfg: ExperimentConfig, length_km: float,
                         box: tuple[float, float], points: int = 9,
                         rounds: int = 3) -> tuple[float, float]:
    """Deterministic coarse-to-fine search for the symmetric signal intensity
    maximizing the rate at one distance.  Ties break toward smaller intensity.
    Returns (best_mu, best_rate); a box with no positive rate reports the
    best-effort argmax with rate 0.
    """
    _check_variant(variant, cfg)
    cfg.system.at_distance(length_km)  # ConfigError for a negative or non-finite distance
    lo, hi = box
    if not 0.0 < lo <= hi < float("inf"):
        raise ValueError(f"search box must satisfy 0 < lo <= hi < inf, got {box!r}")
    if rounds < 1:
        raise ValueError(f"need rounds >= 1, got {rounds}")

    @lru_cache(maxsize=None)  # keyed by the exact mu: refined grids repeat earlier ones
    def rate_at(mu: float) -> float:
        if mu <= cfg.decoy.mu1:
            return 0.0
        trial = replace(cfg, source=replace(cfg.source, mu=mu),
                        decoy=DecoyPlan(mu2=mu, mu1=cfg.decoy.mu1))
        return rate_point(variant, trial, length_km).rate

    best_mu, best_rate = lo, rate_at(lo)
    for _ in range(rounds):
        grid = np.linspace(lo, hi, points) if hi > lo else np.array([lo])
        for mu in grid:
            r = rate_at(float(mu))
            if r > best_rate or (r == best_rate and mu < best_mu):
                best_mu, best_rate = float(mu), r
        span = (hi - lo) / max(points - 1, 1)
        lo = max(box[0], best_mu - span)
        hi = min(box[1], best_mu + span)
    return best_mu, best_rate
