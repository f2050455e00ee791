"""Cross-checks of the gain formulas, one report row per check.

Each family compares the closed forms and quadratures with an independent
path: the Monte Carlo oracle, the symmetry identities of the analyzer, the
exact Fock engine.  The last family holds that engine's own ideal-detector
table, the one the heralded and QND curves use, against the printed H,H,V
amplitudes.  `mdighz validate` composes them at a config's parameters and the
acceptance tests at their own.  A row passes only if its deviation is finite
and within the family's bound.
"""

from __future__ import annotations

import itertools
import math
from math import comb, factorial
from typing import NamedTuple

import numpy as np

from . import decoy, fock, gains, keyrates, montecarlo
from .params import ExperimentConfig

__all__ = ["Row", "monte_carlo", "symmetries", "brackets", "fock_closed_form"]

MC_SIGMAS = 3.0  # |z| bound of a Monte Carlo estimate
SYMMETRY_RTOL = 1e-10  # relative spread of values that should be equal
BRACKET_SLACK = 1e-12  # roundoff allowed to a decoy bound against the exact value
CLOSED_FORM_TOL = 1e-12  # absolute, on the output probabilities
_SIGN_TRIPLES = tuple(itertools.product((1, -1), repeat=3))


class Row(NamedTuple):
    check: str
    analytic: float
    estimate: float
    stderr: float | None  # Monte Carlo rows only
    deviation: float
    passed: bool


def _row(check, analytic, estimate, stderr, deviation, within) -> Row:
    return Row(check, analytic, estimate, stderr, deviation,
               bool(within) and math.isfinite(deviation))


def _worst(values) -> float:
    """Largest value, or NaN if any is NaN (the builtin max can skip a NaN)."""
    return math.nan if any(math.isnan(v) for v in values) else max(values)


def _spread(values) -> float:
    """Relative spread of values that should be equal."""
    hi = _worst(values)
    return (hi - min(values)) / max(hi, 1e-300)


def monte_carlo(mu: float, eta: float, p_d: float, samples: int, seed: int,
                sliced: tuple[float, int] | None = None) -> list[Row]:
    """The oracle against the four rectilinear classes and the two diagonal
    outcomes, every user at intensity mu; with sliced = (mu_s, K) also against
    the two K-sliced gains at mu_s.  The deviation is the z-score."""
    z = gains.z_gain_components(mu, mu, mu, eta, p_d)
    e, f = gains.mermin_outcome_gains((1, 1, 1), mu, mu, mu, eta, p_d)
    cfg = montecarlo.McConfig(samples, seed)
    # every preparation of a call shares its draws; both announced outcomes
    # come out of each preparation
    rows = _mc_rows((("HHH", (("A", 8.0 * z.a),)), ("HHV", (("B", 8.0 * z.b),)),
                     ("VHH", (("C", 8.0 * z.c),)), ("HVH", (("D", 8.0 * z.d),)),
                     ("+++", (("E", 8.0 * e), ("F", 8.0 * f)))), mu, eta, p_d, cfg)
    if sliced is not None:
        mu_s, k = sliced
        q = gains.phase_sliced_gains(mu_s, mu_s, mu_s, eta, p_d, k)
        rows += _mc_rows((("+++", (("Q~CX", k * k * q.q_c), ("Q~EX", k * k * q.q_e))),),
                         mu_s, eta, p_d, cfg, k)
    return rows


def _mc_rows(runs, level: float, eta: float, p_d: float, cfg, slice_k=None) -> list[Row]:
    """One oracle call for every (preparation, wanted rows) of runs, every
    user at intensity level; a preparation's rows take its phi+, then phi-."""
    ests = montecarlo.mc_coherent_gains([pols for pols, _ in runs], (level,) * 3,
                                        eta, p_d, cfg, slice_k)
    return [_mc_row(label, analytic, est)
            for k, (_, wanted) in enumerate(runs)
            for (label, analytic), est in zip(wanted, ests[2 * k:2 * k + 2])]


def _mc_row(label: str, analytic: float, est: montecarlo.McEstimate) -> Row:
    """The oracle's sample mean against `analytic`; the deviation is the
    z-score.  The stderr is the sample standard deviation over sqrt(n),
    floored at the one-event resolution 1/n: deviations below a single
    expected count are indistinguishable from zero by the sampler."""
    n = est.samples
    mean = est.count / n
    stderr = math.sqrt(max(mean * (1.0 - mean), 1.0 / n) / n)
    score = (mean - analytic) / stderr
    return _row("mc:" + label, analytic, mean, stderr, score, abs(score) < MC_SIGMAS)


def symmetries(points) -> list[Row]:
    """At each (mu, eta, p_d): the HHH and VVV pattern-product gains agree,
    the mixed-class closed forms match the pattern-product path, and the
    Mermin sign triples fall into one correct and one false class, each
    triple evaluated on its own for every run of points of one p_d."""
    signed = []  # per point and sign triple: ([phi_plus], [phi_minus])
    for p_d, run in itertools.groupby(points, lambda point: point[2]):
        mus, etas, _ = zip(*run)
        mus = [[mu] for mu in mus]
        signed += zip(*[gains.mermin_outcome_gains(signs, mus, mus, mus, etas, p_d)
                        for signs in _SIGN_TRIPLES])
    rows = []
    for (mu, eta, p_d), sign_gains in zip(points, signed):
        tag = f"(mu={mu},eta={eta:.3g})"
        same = [gains.z_pattern_outcome_gain(pols, mu, mu, mu, eta, p_d)
                for pols in ("HHH", "VVV")]
        spread = _spread(same)
        rows.append(_row("sym:samepol" + tag, *same, None, spread, spread < SYMMETRY_RTOL))

        z = gains.z_gain_components(mu, mu / 2, mu / 3, eta, p_d)
        devs = []
        for pols, closed in (("HHV", z.b), ("VHH", z.c), ("HVH", z.d)):
            product = gains.z_pattern_outcome_gain(pols, mu, mu / 2, mu / 3, eta, p_d)
            devs.append(abs(product - closed) / max(abs(product), 1e-300))
        worst = _worst(devs)
        rows.append(_row("sym:mixedclass" + tag, z.b, z.c, None, worst,
                         worst < SYMMETRY_RTOL))

        correct, false = [], []
        for signs, ((q_plus,), (q_minus,)) in zip(_SIGN_TRIPLES, sign_gains):
            parity = signs[0] * signs[1] * signs[2]
            (correct if parity == 1 else false).append(q_plus)
            (false if parity == 1 else correct).append(q_minus)
        worst = _worst([_spread(correct), _spread(false)])
        rows.append(_row("sym:signclasses" + tag, correct[0], false[0], None, worst,
                         worst < SYMMETRY_RTOL))
    return rows


def brackets(cfg: ExperimentConfig, distances) -> list[Row]:
    """Two-decoy bounds of the config's weak-coherent source model against the
    exact engine at each distance: Y111_zl and Y111_xl must not exceed Y111_z
    and Y111_x; where e111_bx is defined e111_bxu must be too and not fall
    below it, and where e111_bz is defined e111_bzu must be too and not fall
    below the lesser of it and 1/2, where the estimator caps the bound.  The
    deviation is Y111_zl - Y111_z."""
    model = keyrates.source_model(cfg)
    rows = []
    points = model([(cfg.decoy, cfg.system.at_distance(length)) for length in distances])
    for length, (grid, signal, decoy_level, exact, _, _) in zip(distances, points):
        bounds = decoy.single_photon_bounds(grid, signal, decoy_level)
        good = (bounds.y111_zl <= exact.y111_z + BRACKET_SLACK
                and bounds.y111_xl <= exact.y111_x + BRACKET_SLACK)
        if exact.e111_bx is not None:
            good = good and (bounds.e111_bxu is not None
                             and bounds.e111_bxu >= exact.e111_bx - BRACKET_SLACK)
        if exact.e111_bz is not None:
            good = good and (bounds.e111_bzu is not None
                             and bounds.e111_bzu >= min(exact.e111_bz, 0.5) - BRACKET_SLACK)
        rows.append(_row(f"bracket:L={length}", bounds.y111_zl, exact.y111_z, None,
                         bounds.y111_zl - exact.y111_z, good))
    return rows


def _closed_form_hhv(n: int, m: int, l: int) -> tuple[dict, int]:
    """Printed closed form for the H,H,V input class: the integer numerators of
    the probabilities of the output configurations (s, m-s, 0, 0, p, n+l-p),
    and their common denominator."""
    out = {}
    for p in range(n + l + 1):
        for s in range(m + 1):
            amp = 0
            for t in range(l + 1):
                if 0 <= p - t <= n:
                    amp += (-1) ** (l - t) * comb(n, p - t) * comb(m, s) * comb(l, t)
            if amp == 0:
                continue
            out[(s, m - s, 0, 0, p, n + l - p)] = amp * amp * (
                factorial(p) * factorial(s) * factorial(n + l - p) * factorial(m - s))
    return out, 2 ** (n + m + l) * factorial(n) * factorial(m) * factorial(l)


def _fit_masses_hhv(n: int, m: int, l: int) -> list[list[float]]:
    """The printed probabilities summed into the ideal-detector table's masses
    [outcome][d]: a configuration fits no pattern if some group has both
    detectors lit; otherwise d groups are empty, and it counts for the outcome
    of its lit second detectors' parity (d = 0) or for both outcomes, 2^(d-1)
    times (d >= 1)."""
    numerators, denom = _closed_form_hhv(n, m, l)
    mass = [[0, 0] for _ in range(4)]  # [d][parity]
    for occ, num in numerators.items():
        groups = [occ[j:j + 2] for j in (0, 2, 4)]
        if any(first and second for first, second in groups):
            continue
        empty = sum(not any(group) for group in groups)
        mass[empty][sum(second > 0 for _, second in groups) % 2] += num
    # Python's integer division rounds correctly, as the table's does
    return [[(mass[0][outcome] if d == 0 else sum(mass[d]) << (d - 1)) / denom
             for d in range(4)] for outcome in (0, 1)]


def fock_closed_form(max_total_photons: int) -> list[Row]:
    """The ideal-detector table of the exact engine against the printed H,H,V
    output probabilities: the largest absolute difference of their fit masses
    over every (n, m, l) up to the total, NaN if any mass is NaN.

    H,H,V never reaches detector group 2, so its masses cannot tell the two
    outcomes apart; the row also holds one photon per user of +,+,+, which
    fits phi_plus with probability 1/4 and never phi_minus, and of -,-,-,
    which does the reverse."""
    if max_total_photons > fock.N_MAX:
        raise ValueError(f"total photon number exceeds cutoff {fock.N_MAX}")
    mask = np.indices((max_total_photons + 1,) * 3).sum(axis=0) <= max_total_photons
    table = fock.ideal_detector_table(("HHV",), mask)[0]
    signs = fock.ideal_detector_table(("+++", "---"), np.ones((2, 2, 2), bool))[:, :, 0, 1, 1, 1]
    deviations = np.abs(signs - [[0.25, 0.0], [0.0, 0.25]]).ravel().tolist()
    for n, m, l in np.argwhere(mask).tolist():
        deviations += np.abs(table[:, :, n, m, l] - _fit_masses_hhv(n, m, l)).ravel().tolist()
    worst = _worst(deviations)
    return [_row("fock:closed-form", 0.0, worst, None, worst, worst < CLOSED_FORM_TOL)]
