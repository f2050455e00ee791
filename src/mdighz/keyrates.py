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

import numpy as np

from . import decoy, fock, gains
from .params import (ConfigError, DecoyPlan, ExperimentConfig, binary_entropy,
                     overall_efficiency, transmission_efficiency)

__all__ = [
    "VARIANTS",
    "RatePoint",
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
             mu_alice: float) -> tuple[float, float, tuple[str, ...]]:
    """Conferencing rate: R = Qv + Q111 [1 - H(e111)] - H(max pairwise QBER) f Qz."""
    q_v = exp(-mu_alice) * alice_vacuum.q_z
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
# Per-distance pipelines
# ---------------------------------------------------------------------------

def _poisson_p111(mu, nu, omega) -> float:
    return mu * nu * omega * exp(-mu - nu - omega)


def _wcs_point(cfg: ExperimentConfig, length_km: float, protocol: str) -> RatePoint:
    params = cfg.system.at_distance(length_km)
    plan = cfg.decoy
    grid = decoy.build_gain_grid(lambda triples: gains.wcs_gain_sets(triples, params), plan)
    bounds = decoy.single_photon_bounds(grid, decoy.poisson_level(plan.mu2),
                                        decoy.poisson_level(plan.mu1))
    exact = fock.exact_single_photon_stats_for(params)
    signal = grid.gain("signal", (1, 1, 1))
    p111 = _poisson_p111(plan.mu2, plan.mu2, plan.mu2)

    if protocol == "qcc":
        vac = grid.gain("signal", (0, 1, 1))
        rate, raw, d1 = qcc_rate(params.f, signal, vac, p111,
                                 bounds.y111_zl, bounds.e111_bxu, plan.mu2)
        rate_inf, _, _ = qcc_rate(params.f, signal, vac, p111,
                                  exact.y111_z, exact.e111_bx, plan.mu2)
        cols = {"e111_bxu": bounds.e111_bxu, "Y111_zl": bounds.y111_zl}
    else:  # qss_pps
        k = cfg.phase.k
        eta = overall_efficiency(params.channel, params.detector)
        sliced = gains.phase_sliced_gains(plan.mu2, plan.mu2, plan.mu2, eta,
                                          params.detector.p_d, k)
        rate, raw, d1 = qss_pps_rate(params.f, k, sliced, params.e_d, p111,
                                     bounds.y111_xl, bounds.e111_bzu)
        rate_inf, _, _ = qss_pps_rate(params.f, k, sliced, params.e_d, p111,
                                      exact.y111_x, exact.e111_bz)
        cols = {"e111_bzu": bounds.e111_bzu, "Y111_xl": bounds.y111_xl,
                "Q_x_sliced": sliced.q_total, "E_x_sliced": sliced.error_rate(params.e_d)}
    return RatePoint(length_km, rate, rate_inf, raw, cols,
                     tuple(bounds.diagnostics) + d1)


def _qss_point(length_km, f, grid, bounds, exact, p_alice_vacuum, p111) -> RatePoint:
    """Secret-sharing point on diagonal-basis data (heralded / filtered sources)."""
    signal = grid.gain("signal", (1, 1, 1))
    q_vac = grid.gain("signal", (0, 1, 1)).q_x
    rate, raw, d1 = qss_rate(f, signal, q_vac, p_alice_vacuum, p111,
                             bounds.y111_xl, bounds.e111_bzu)
    rate_inf, _, _ = qss_rate(f, signal, q_vac, p_alice_vacuum, p111,
                              exact.y111_x, exact.e111_bz)
    cols = {"e111_bzu": bounds.e111_bzu, "Y111_xl": bounds.y111_xl,
            "Q_x": signal.q_x, "E_x": signal.e_x}
    return RatePoint(length_km, rate, rate_inf, raw, cols,
                     tuple(bounds.diagnostics) + d1)


def _heralded_point(cfg: ExperimentConfig, length_km: float) -> RatePoint:
    params = cfg.system.at_distance(length_km)
    plan = cfg.decoy
    eta = overall_efficiency(params.channel, params.detector)
    p_d = params.detector.p_d
    p_n = {0.0: decoy.vacuum_stats(),
           plan.mu1: decoy.heralded_stats(plan.mu1, cfg.source.trigger),
           plan.mu2: decoy.heralded_stats(plan.mu2, cfg.source.trigger)}
    yields = gains.fock_yields(list(p_n.values()), eta, p_d)
    grid = decoy.build_gain_grid(
        lambda triples: yields.gain_sets([(p_n[a], p_n[b], p_n[c]) for a, b, c in triples],
                                         params.e_d), plan)
    signal = p_n[plan.mu2]
    bounds = decoy.single_photon_bounds(grid, decoy.distribution_level(signal),
                                        decoy.distribution_level(p_n[plan.mu1]))
    return _qss_point(length_km, params.f, grid, bounds,
                      fock.exact_single_photon_stats_for(params),
                      float(signal[0]), float(signal[1]) ** 3)


# Behind the filter only the detector thins the photons, so the exact
# single-photon reference of a filtered curve is the same at every distance.
_filtered_single_photon_stats = lru_cache(maxsize=8)(fock.exact_single_photon_stats)


def _qnd_point(cfg: ExperimentConfig, length_km: float) -> RatePoint:
    """Photon-number-filtered variant.

    The channel is a Poisson photon-number channel with arrival intensities
    lambda = mu * eta_t, so the two-decoy estimator runs on Poisson levels at
    the arrival intensities and recovers the filtered single-photon yield at
    the bare detector efficiency.
    """
    params = cfg.system.at_distance(length_km)
    plan = cfg.decoy
    eta_t = transmission_efficiency(params.channel)
    det = params.detector
    grid = decoy.build_gain_grid(
        lambda triples: gains.gains_qnd(triples, eta_t, det, params.e_d), plan)
    lam = plan.mu2 * eta_t
    bounds = decoy.single_photon_bounds(grid, decoy.poisson_level(lam),
                                        decoy.poisson_level(plan.mu1 * eta_t))
    return _qss_point(length_km, params.f, grid, bounds,
                      _filtered_single_photon_stats(det.eta_d, det.p_d, params.e_d),
                      exp(-plan.mu2), _poisson_p111(lam, lam, lam))


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
    _check_variant(variant, cfg)
    if variant == "qss_heralded":
        return _heralded_point(cfg, length_km)
    if variant == "qss_qnd":
        return _qnd_point(cfg, length_km)
    return _wcs_point(cfg, length_km, variant)


def sweep(variant: str, cfg: ExperimentConfig, distances=None) -> tuple[RatePoint, ...]:
    """Evaluate the full pipeline at each distance of the grid, in grid order."""
    _check_variant(variant, cfg)
    if distances is None:
        distances = cfg.sweep.distances()
    return tuple(rate_point(variant, cfg, d) for d in distances)


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
