"""Two-decoy analytic bounds on single-photon yields and error rates.

One estimator serves every source and the Mermin bound.  It inverts the
photon-number mixture of the observed gains: an inclusion-exclusion "gadget"
over the vacuum-substituted intensity patterns isolates the
all-users-nonvacuum sector, and a weighted difference of the two decoy levels
pins the one-photon-each term from below (the neglected higher-order terms
enter with provably nonpositive coefficients).  Sources differ only in how a
level is described (`poisson_level`, `distribution_level`).

Bounds are floored at 0, error bounds capped at 1/2, and every clamp leaves a
diagnostic; a vanishing yield bound makes the error bound undefined and is
reported as an explicit marker instead of a number, as are degenerate levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp

import numpy as np

from .fock import N_MAX
from .params import DecoyPlan, DetectorModel, NumericsError

__all__ = [
    "LEVEL_PATTERNS",
    "GainGrid",
    "DecoyLevel",
    "SinglePhotonBounds",
    "MerminYieldBounds",
    "grid_triples",
    "build_gain_grid",
    "poisson_level",
    "distribution_level",
    "single_photon_bounds",
    "heralded_stats",
    "mermin_yield_bounds",
]

# Intensity patterns per decoy level: every user at the level or at vacuum,
# minus the all-vacuum pattern which is shared between levels.
LEVEL_PATTERNS = ((1, 1, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1),
                  (1, 0, 0), (0, 1, 0), (0, 0, 1))
VACUUM = (0, 0, 0)


@dataclass(frozen=True)
class GainGrid:
    """Gains for the 15 intensity patterns of a two-decoy plan.

    Keys are (level, pattern) with level "signal" | "decoy" and pattern a
    0/1-triple saying which users are at the level (0 = vacuum); the shared
    all-vacuum entry appears under both levels.  Entries are GainSets, or
    (all-"+", all-"-") gain pairs for the Mermin estimate.
    """

    entries: dict[tuple[str, tuple[int, int, int]], object]

    def __post_init__(self):
        want = {(lev, pat) for lev in ("signal", "decoy")
                for pat in LEVEL_PATTERNS + (VACUUM,)}
        have = set(self.entries)
        if have != want:
            missing = sorted(want - have)
            extra = sorted(have - want)
            raise ValueError(f"incomplete gain grid: missing {missing}, extra {extra}")

    def gain(self, level, pattern):
        return self.entries[(level, pattern)]


_GRID_KEYS = tuple((level, pat) for level in ("signal", "decoy") for pat in LEVEL_PATTERNS)


def grid_triples(plan: DecoyPlan) -> tuple[tuple[float, float, float], ...]:
    """The 15 intensity triples (mu_a, mu_b, mu_c) of a decoy grid: the shared
    vacuum first, then the signal and the decoy patterns."""
    mus = {"signal": plan.mu2, "decoy": plan.mu1}
    return ((0.0, 0.0, 0.0),) + tuple(tuple(mus[level] * p for p in pat)
                                      for level, pat in _GRID_KEYS)


def build_gain_grid(gains_fn, plan: DecoyPlan) -> GainGrid:
    """Evaluate `gains_fn(triples)` once: it maps the `grid_triples` of the
    plan to their gains."""
    vacuum, *values = gains_fn(grid_triples(plan))
    entries = dict(zip(_GRID_KEYS, values, strict=True))
    entries[("signal", VACUUM)] = entries[("decoy", VACUUM)] = vacuum
    return GainGrid(entries)


@dataclass(frozen=True)
class DecoyLevel:
    """One intensity level as the estimator sees it: weights[k] = P0^(3-k)
    multiplies the patterns with k users at the level, supplying the vacuum
    factors of the other users; c1, c2 are P1, P2.  Scaling a level (weights
    by s^3, c1 and c2 by s) changes no bound."""

    weights: tuple[float, float, float, float]
    c1: float
    c2: float


def poisson_level(mu: float) -> DecoyLevel:
    """Level of a Poisson (phase-randomized coherent) source, scaled by
    e^(3 mu) so that c1 = mu and c2 = mu^2/2 carry no rounded exponential.
    An intensity whose scale overflows is refused (NumericsError)."""
    try:
        return DecoyLevel(tuple(exp(k * mu) for k in range(4)), mu, mu * mu / 2.0)
    except OverflowError:
        raise NumericsError(f"decoy level at intensity {mu!r}: its scale e^(3 mu) "
                            f"overflows a float") from None


def distribution_level(p_n) -> DecoyLevel:
    """Level of a source with photon-number distribution p_n."""
    p0, p1, p2 = (float(p_n[k]) for k in range(3))
    return DecoyLevel(tuple(p0 ** (3 - k) for k in range(4)), p1, p2)


DEGENERATE = "degenerate decoy levels (estimator denominator is 0)"


def _gadget(grid: GainGrid, name: str, level: DecoyLevel, extract) -> float:
    """Inclusion-exclusion over vacuum substitutions.

    Sign (-1)^(3-k) on the patterns with k users at the level removes every
    contribution with at least one vacuum user.
    """
    v = {pat: extract(grid.gain(name, pat)) for pat in LEVEL_PATTERNS + (VACUUM,)}
    w = level.weights
    total = w[3] * v[(1, 1, 1)]
    total -= w[2] * (v[(1, 1, 0)] + v[(1, 0, 1)] + v[(0, 1, 1)])
    total += w[1] * (v[(1, 0, 0)] + v[(0, 1, 0)] + v[(0, 0, 1)])
    total -= w[0] * v[VACUUM]
    return total


def _denominator(signal: DecoyLevel, decoy: DecoyLevel) -> float:
    return signal.c1 ** 2 * decoy.c1 ** 2 * (signal.c2 * decoy.c1 - decoy.c2 * signal.c1)


def _floored(raw: float, label: str, diags: list[str]) -> float:
    if raw < 0.0:
        diags.append(f"{label} floored at 0 (raw {raw:.3e})")
        return 0.0
    return raw


def _lower_yield(grid, signal, decoy, extract, label, diags) -> float:
    """One-photon-per-user yield from below: the two gadgets are weighted so
    their two-photon terms cancel and every higher term enters with a
    nonpositive coefficient."""
    raw = (signal.c1 ** 2 * signal.c2 * _gadget(grid, "decoy", decoy, extract)
           - decoy.c1 ** 2 * decoy.c2 * _gadget(grid, "signal", signal, extract)
           ) / _denominator(signal, decoy)
    return _floored(raw, label, diags)


def _upper_yield(grid, decoy, extract) -> float:
    """One-photon-per-user quantity from above: every term of the decoy-level
    gadget is nonnegative."""
    return _gadget(grid, "decoy", decoy, extract) / decoy.c1 ** 3


@dataclass(frozen=True)
class SinglePhotonBounds:
    """Decoy-estimated one-photon-per-user quantities.

    y111_zl / y111_xl are yield lower bounds; e111_bxu / e111_bzu error upper
    bounds (None when the corresponding yield bound vanished and the error is
    unbounded).
    """

    y111_zl: float
    y111_xl: float
    e111_bxu: float | None
    e111_bzu: float | None
    diagnostics: tuple[str, ...] = ()


def single_photon_bounds(grid: GainGrid, signal: DecoyLevel,
                         decoy: DecoyLevel) -> SinglePhotonBounds:
    """Two-decoy bounds on the single-photon yields and error rates of both
    bases.  Each error bound divides its basis' error gadget by the same
    basis' yield bound."""
    if _denominator(signal, decoy) == 0.0:
        return SinglePhotonBounds(0.0, 0.0, None, None, (DEGENERATE,))
    diags: list[str] = []
    y_zl = _lower_yield(grid, signal, decoy, lambda g: g.q_z, "Y111_zl", diags)
    y_xl = _lower_yield(grid, signal, decoy, lambda g: g.q_x, "Y111_xl", diags)

    def upper_error(y_low, extract, label):
        if y_low <= 0.0:
            diags.append(f"{label} unbounded (single-photon yield bound is 0)")
            return None
        raw = _upper_yield(grid, decoy, extract) / y_low
        if raw > 0.5:
            diags.append(f"{label} capped at 1/2 (raw {raw:.3e})")
            return 0.5
        return _floored(raw, label, diags)

    e_bxu = upper_error(y_xl, lambda g: g.eq_x, "e111_bxu")
    e_bzu = upper_error(y_zl, lambda g: g.eq_z, "e111_bzu")
    return SinglePhotonBounds(y_zl, y_xl, e_bxu, e_bzu, tuple(diags))


# ---------------------------------------------------------------------------
# Heralded pair sources
# ---------------------------------------------------------------------------

def heralded_stats(mu: float, trigger: DetectorModel) -> np.ndarray:
    """Triggered photon-number distribution p_n, n = 0..N_MAX, of a thermal
    pair source P(n) = mu^n/(1+mu)^(n+1) conditioned on a click of the
    threshold trigger detector watching the partner mode."""
    if mu < 0:
        raise ValueError("mean pair number must be >= 0")
    eta, p_d = trigger.eta_d, trigger.p_d
    p_c = (mu * eta + p_d) / (1.0 + mu * eta)  # trigger probability
    if p_c == 0.0:
        # source never triggers; conditional distribution degenerates to vacuum
        return vacuum_stats()
    ns = np.arange(N_MAX + 1)
    if eta >= 1.0:
        trigger_click = np.where(ns == 0, p_d, 1.0)
    else:
        # 1 - (1-p_d)(1-eta)^n, exact at n = 0 and for tiny eta
        survive = np.exp(ns * np.log1p(-eta))
        trigger_click = -np.expm1(ns * np.log1p(-eta)) + p_d * survive
    return mu ** ns / (1.0 + mu) ** (ns + 1.0) * trigger_click / p_c


def vacuum_stats() -> np.ndarray:
    """Photon-number distribution of a source that never emits."""
    return np.eye(1, N_MAX + 1)[0]


# ---------------------------------------------------------------------------
# Outcome-resolved bounds for the Mermin estimate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MerminYieldBounds:
    """Bounds on the correct-outcome single-photon yields of the all-"+" and
    all-"-" preparations (lower/upper for "+", upper for "-")."""

    y_ppp_lower: float
    y_ppp_upper: float
    y_mmm_upper: float
    diagnostics: tuple[str, ...] = ()


def mermin_yield_bounds(grid: GainGrid, signal: DecoyLevel,
                        decoy: DecoyLevel) -> MerminYieldBounds:
    """Bounds from a grid whose entries are (all-"+", all-"-") announced
    correct-outcome gain pairs."""
    if _denominator(signal, decoy) == 0.0:
        return MerminYieldBounds(0.0, 0.0, 0.0, (DEGENERATE,))
    diags: list[str] = []
    ppp, mmm = (lambda g: g[0]), (lambda g: g[1])
    y_ppp_l = _lower_yield(grid, signal, decoy, ppp, "Y+++_lower", diags)
    y_ppp_u = _floored(_upper_yield(grid, decoy, ppp), "Y+++_upper", diags)
    y_mmm_u = _floored(_upper_yield(grid, decoy, mmm), "Y---_upper", diags)
    return MerminYieldBounds(y_ppp_l, y_ppp_u, y_mmm_u, tuple(diags))
