"""Secret key rates and distance sweeps for the four protocol variants.

Conferencing keys come from the rectilinear basis, secret-sharing keys from
the diagonal basis; in both cases the single-photon sector earns key, the
vacuum sector of the reference user is credited in full, and error correction
is charged on the measured totals.  Asymptotic limit throughout: the
single-photon phase error rate of one basis equals the bit error rate of the
other, so only bit-error bounds appear below.  A sweep calls its source model
once for the whole distance grid, and an intensity search once per round for
all its trial intensities, so the quadratures stack many rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import exp
from typing import NamedTuple

import numpy as np

from . import decoy, fock, gains
from .params import (ConfigError, DecoyPlan, ExperimentConfig, NumericsError, SystemParams,
                     binary_entropy, overall_efficiency, transmission_efficiency)

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
    return _rate_core(f, q_v, q111, e111_bzu, signal.e_x, signal.q_x)


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
# Source models: the distance-free work once per curve or search
# ---------------------------------------------------------------------------

class SourcePoint(NamedTuple):
    """A source at one distance, as the decoy estimator and the rates see it."""

    grid: list[gains.GainSet]  # in decoy.GRID order
    signal_level: decoy.DecoyLevel
    decoy_level: decoy.DecoyLevel
    exact: fock.SinglePhotonStats  # the infinite-decoy reference
    p_vacuum: float  # probability that the reference user sends vacuum
    p111: float  # probability that every user sends one photon


def _poisson_p111(mu) -> float:
    return mu * mu * mu * exp(-mu - mu - mu)


def _add_exact(exact: dict, etas, yields: np.ndarray, e_d: float) -> None:
    """The exact reference of each efficiency not yet in `exact`, in one call."""
    new = [eta for eta in dict.fromkeys(etas) if eta not in exact]
    if new:
        exact.update(zip(new, fock.exact_single_photon_stats(new, yields, e_d)))


def _wcs_model(cfg: ExperimentConfig):
    """Weak coherent pulses: the decoy grids of all rows of a call go into
    one stacked evaluation, and the exact reference is formed once per
    efficiency, so once per search, in one call for the efficiencies a call
    brings first."""
    p_d, e_d = cfg.system.detector.p_d, cfg.system.e_d
    yields = fock.single_photon_yields(p_d)
    exact = {}  # efficiency -> the exact reference, once per model

    def at(rows) -> list[SourcePoint]:
        plans = dict.fromkeys(plan for plan, _ in rows)
        levels = {plan: (decoy.poisson_level(plan.mu2), decoy.poisson_level(plan.mu1))
                  for plan in plans}
        triples = {plan: decoy.grid_triples(plan) for plan in plans}
        etas = [overall_efficiency(p.channel, p.detector) for _, p in rows]
        grids = gains.wcs_gain_sets([triples[plan] for plan, _ in rows], etas, p_d, e_d)
        _add_exact(exact, etas, yields, e_d)
        return [SourcePoint(grid, *levels[plan], exact[eta], exp(-plan.mu2),
                            _poisson_p111(plan.mu2))
                for (plan, _), eta, grid in zip(rows, etas, grids)]
    return at


def _heralded_model(cfg: ExperimentConfig):
    """Triggered pair sources: the level distributions, their truncation
    certificate and their class components hold no distance; they are built
    once per decoy plan, the plan of a sweep's every row or of one trial.
    The rows of a call go into one Fock contraction per plan among them, in
    row order; the exact reference is formed as for weak coherent pulses."""
    p_d, e_d, trigger = cfg.system.detector.p_d, cfg.system.e_d, cfg.source.trigger
    yields = fock.single_photon_yields(p_d)
    exact = {}  # efficiency -> the exact reference, once per model

    @lru_cache(maxsize=1)  # rows of one plan come together
    def plan_part(plan: DecoyPlan):
        levels = [decoy.vacuum_stats()] + [decoy.heralded_stats(mu, trigger)
                                           for mu in (plan.mu1, plan.mu2)]
        comps = gains.fock_components(levels, decoy.GRID, p_d)
        return (levels, comps, decoy.distribution_level(levels[2]),
                decoy.distribution_level(levels[1]), float(levels[2][0]), float(levels[2][1]) ** 3)

    def at(rows) -> list[SourcePoint]:
        etas = [overall_efficiency(p.channel, p.detector) for _, p in rows]
        _add_exact(exact, etas, yields, e_d)
        points = [None] * len(rows)
        for plan in dict.fromkeys(plan for plan, _ in rows):
            levels, comps, signal, decoy_level, p_vacuum, p111 = plan_part(plan)
            mine = [i for i, (other, _) in enumerate(rows) if other == plan]
            grids = gains.thinned_gain_sets(
                comps, [(levels, fock.thinning_matrix(etas[i])) for i in mine], decoy.GRID, e_d)
            for i, grid in zip(mine, grids):
                points[i] = SourcePoint(grid, signal, decoy_level, exact[etas[i]], p_vacuum, p111)
        return points
    return at


def _qnd_model(cfg: ExperimentConfig):
    """Weak coherent pulses behind the <=1-photon filter.  The channel is a
    Poisson photon-number channel with arrival intensities lambda = mu eta_t,
    so the estimator runs on Poisson levels at the arrival intensities and
    recovers the filtered single-photon yield at the bare detector efficiency.
    Events with two or more photons in an arm are discarded, not renormalized.
    Only the detector thins the filtered photons, so the class components, the
    thinning and the exact reference hold neither distance nor plan, and the
    rows of a call go into one Fock contraction, whatever their plans."""
    det, e_d = cfg.system.detector, cfg.system.e_d
    comps = gains.class_yields(np.ones((2, 2, 2), dtype=bool), det.p_d)
    thinning = fock.thinning_matrix(det.eta_d)
    (exact,) = fock.exact_single_photon_stats([det.eta_d], fock.single_photon_yields(det.p_d), e_d)

    def at(rows) -> list[SourcePoint]:
        eta_ts = [transmission_efficiency(p.channel) for _, p in rows]
        lams = [[mu * eta_t for mu in (0.0, plan.mu1, plan.mu2)]
                for (plan, _), eta_t in zip(rows, eta_ts)]
        grids = gains.thinned_gain_sets(
            comps, [([(exp(-x), x * exp(-x)) for x in lam], thinning) for lam in lams],
            decoy.GRID, e_d)
        return [SourcePoint(grid, decoy.poisson_level(lam[2]), decoy.poisson_level(lam[1]),
                            exact, exp(-plan.mu2), _poisson_p111(lam[2]))
                for (plan, _), lam, grid in zip(rows, lams, grids)]
    return at


_MODELS = {"wcs": _wcs_model, "heralded": _heralded_model, "wcs_qnd": _qnd_model}


def source_model(cfg: ExperimentConfig):
    """The config's source as one function of rows (decoy plan, the config's
    system at a distance) -> one SourcePoint each, in row order: a sweep's
    rows share the config's plan, a search round's share one distance.  All
    three models take the rows of a call together, the weak-coherent one in
    stacked quadratures, the heralded and QND ones in stacked Fock
    contractions.  The work that holds no distance and no plan is done here,
    that of a plan once per plan."""
    return _MODELS[cfg.source.kind](cfg)


def _point(variant: str, cfg: ExperimentConfig, params: SystemParams, source: SourcePoint,
           sliced: gains.SlicedGains | None) -> RatePoint:
    """Two-decoy bounds and the variant's rates at one distance (`sliced`: qss_pps)."""
    grid, signal_level, decoy_level, exact, p_vacuum, p111 = source
    bounds = decoy.single_photon_bounds(grid, signal_level, decoy_level)
    signal, vacuum = grid[decoy.GRID.index((2, 2, 2))], grid[decoy.GRID.index((0, 2, 2))]
    f = params.f
    if variant == "qcc":  # (yield, error) pairs: two-decoy bounds, then the exact values
        pairs = (bounds.y111_zl, bounds.e111_bxu), (exact.y111_z, exact.e111_bx)
        rates = [qcc_rate(f, signal, vacuum, p111, y, e, p_vacuum) for y, e in pairs]
        cols = {"e111_bxu": bounds.e111_bxu, "Y111_zl": bounds.y111_zl}
    else:
        pairs = (bounds.y111_xl, bounds.e111_bzu), (exact.y111_x, exact.e111_bz)
        cols = {"e111_bzu": bounds.e111_bzu, "Y111_xl": bounds.y111_xl}
        if variant == "qss_pps":
            k = cfg.phase.k
            rates = [qss_pps_rate(f, k, sliced, params.e_d, p111, y, e) for y, e in pairs]
            cols.update(Q_x_sliced=sliced.q_total, E_x_sliced=sliced.error_rate(params.e_d))
        else:
            rates = [qss_rate(f, signal, vacuum.q_x, p_vacuum, p111, y, e) for y, e in pairs]
            cols.update(Q_x=signal.q_x, E_x=signal.e_x)
    (rate, raw, diags), (rate_inf, _, _) = rates
    return RatePoint(params.channel.length_km, rate, rate_inf, raw, cols,
                     tuple(bounds.diagnostics) + diags)


def _points(variant: str, cfg: ExperimentConfig, model, rows) -> list[RatePoint]:
    """The rate point of each row (decoy plan, system at a distance), with
    one call of the source model and, for qss_pps, one stacked phase-sliced
    evaluation, each for all rows."""
    if not rows:
        return []
    sources = model(rows)
    sliced = [None] * len(rows)
    if variant == "qss_pps":
        mus = [plan.mu2 for plan, _ in rows]
        etas = [overall_efficiency(p.channel, p.detector) for _, p in rows]
        sliced = gains.phase_sliced_gains(mus, mus, mus, etas, cfg.system.detector.p_d,
                                          cfg.phase.k)
    return [_point(variant, cfg, params, source, s)
            for (_, params), source, s in zip(rows, sources, sliced)]


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
    on one source model called once for the grid (none for an empty grid)."""
    _check_variant(variant, cfg)
    if distances is None:
        distances = cfg.sweep.distances()
    if len(distances) == 0:
        return ()
    model = source_model(cfg)
    rows = [(cfg.decoy, cfg.system.at_distance(d)) for d in distances]
    return tuple(_points(variant, cfg, model, rows))


def optimize_intensities(variant: str, cfg: ExperimentConfig, length_km: float,
                         box: tuple[float, float], points: int = 9,
                         rounds: int = 3) -> tuple[float, float]:
    """Deterministic coarse-to-fine search for the symmetric signal intensity
    maximizing the rate at one distance.  Ties break toward smaller intensity.
    Returns (best_mu, best_rate); a box with no positive rate reports the
    best-effort argmax with rate 0.

    The search is the box's lower end, then `rounds` grids of `points`
    intensities.  Each round evaluates its new trial intensities together,
    one row each in one call of the source model that serves the whole
    search; a trial at or below the decoy intensity has rate 0.  A round that is refused is
    evaluated again one trial at a time, so the error raised is that of the
    first trial refused on its own.
    """
    _check_variant(variant, cfg)
    params = cfg.system.at_distance(length_km)  # ConfigError for a negative or non-finite distance
    lo, hi = box
    if not 0.0 < lo <= hi < float("inf"):
        raise ValueError(f"search box must satisfy 0 < lo <= hi < inf, got {box!r}")
    if rounds < 1:
        raise ValueError(f"need rounds >= 1, got {rounds}")
    model, mu1, rates = source_model(cfg), cfg.decoy.mu1, {}

    def evaluate(mus) -> None:
        new = [mu for mu in dict.fromkeys(mus) if mu not in rates]
        rows = [(DecoyPlan(mu2=mu, mu1=mu1), params) for mu in new if mu > mu1]
        try:
            trials = _points(variant, cfg, model, rows)
        except NumericsError:
            trials = [_points(variant, cfg, model, [row])[0] for row in rows]
        rates.update(dict.fromkeys(new, 0.0))
        rates.update((plan.mu2, trial.rate) for (plan, _), trial in zip(rows, trials))

    evaluate([lo])
    best_mu, best_rate = lo, rates[lo]
    for _ in range(rounds):
        grid = np.linspace(lo, hi, points) if hi > lo else np.array([lo])
        evaluate(grid.tolist())
        for mu in grid:
            r = rates[float(mu)]
            if r > best_rate or (r == best_rate and mu < best_mu):
                best_mu, best_rate = float(mu), r
        span = (hi - lo) / max(points - 1, 1)
        lo = max(box[0], best_mu - span)
        hi = min(box[1], best_mu + span)
    return best_mu, best_rate
