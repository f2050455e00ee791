"""Decoy-estimated lower bound on the Mermin value of the post-selected
three-photon entangled states.

Only the all-diagonal correlator is simulated; the circular-basis correlators
of the Mermin combination follow from the sign identity of the reference
state (verified against the exact single-photon engine in the tests), which
multiplies the diagonal correlator by four.  Misalignment enters as a
(1 - 2 e_d) visibility prefactor.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import decoy, gains
from .params import DecoyPlan, ExperimentConfig, SystemParams, overall_efficiency

__all__ = ["MerminEstimate", "mermin_lower_bound", "mermin_curve"]

LOCAL_REALISM_BOUND = 2.0
QUANTUM_MAXIMUM = 4.0


@dataclass(frozen=True)
class MerminEstimate:
    """Lower bound on the Mermin value with its yield-bound components."""

    m_lower: float
    bounds: decoy.MerminYieldBounds
    diagnostics: tuple[str, ...] = ()


def _outcome_grids(etas, p_d: float, plan: DecoyPlan) -> list[list[tuple[float, float]]]:
    """(all-"+", all-"-") announced-correct-outcome gains in decoy.GRID order,
    one grid per efficiency, from stacked quadratures."""
    # phi_plus(-,-,-) is phi_minus(+,+,+): flipping every sign swaps each detector pair
    return [list(zip(*q)) for q in gains.mermin_outcome_gains(
        (1, 1, 1), *zip(*decoy.grid_triples(plan)), etas, p_d)]


def mermin_lower_bound(params: SystemParams, plan: DecoyPlan, grid=None) -> MerminEstimate:
    """Two-decoy lower bound on the Mermin value at the params' distance, from
    its outcome grid if given (`mermin_curve` evaluates them in stacks).

    M = 4 (1 - 2 e_d) (Y+_low - Y-_up) / (Y+_up + Y-_up) over the
    single-photon correct-outcome yields; a vanishing denominator is a
    no-signal condition reported with M = 0.
    """
    if grid is None:
        (grid,) = _outcome_grids([overall_efficiency(params.channel, params.detector)],
                                 params.detector.p_d, plan)
    yb = decoy.mermin_yield_bounds(grid, decoy.poisson_level(plan.mu2),
                                   decoy.poisson_level(plan.mu1))
    diags = list(yb.diagnostics)
    den = yb.y_ppp_upper + yb.y_mmm_upper
    if den <= 0.0:
        diags.append("no-signal: vanishing single-photon yield bounds")
        return MerminEstimate(0.0, yb, tuple(diags))
    xxx = (1.0 - 2.0 * params.e_d) * (yb.y_ppp_lower - yb.y_mmm_upper) / den
    return MerminEstimate(QUANTUM_MAXIMUM * xxx, yb, tuple(diags))


def mermin_curve(cfg: ExperimentConfig, distances=None) -> list[tuple[float, MerminEstimate]]:
    if distances is None:
        distances = cfg.sweep.distances()
    params = [cfg.system.at_distance(length) for length in distances]
    grids = _outcome_grids([overall_efficiency(p.channel, p.detector) for p in params],
                           cfg.system.detector.p_d, cfg.decoy)
    return [(length, mermin_lower_bound(p, cfg.decoy, grid))
            for length, p, grid in zip(distances, params, grids)]
