"""Per-pulse gains and error rates of the GHZ analyzer for the supported sources.

Weak coherent pulses get closed forms in the rectilinear basis (dark-count
suppressed classes carry modified-Bessel factors from the phase average),
whose factors a decoy grid forms once per intensity and per interfering pair,
and quadrature in the diagonal basis, where the overall phases survive into
detector-level interference: the periodic trapezoid rule over the full phase
circle, and Gauss-Legendre over the hexagon of phase differences for the
phase-sliced gains.  Each detector group's click and silent factors are entire
in its phase difference, with a closed-form modulus bound off the real line.
That bounds the error of the trapezoid rule through a strip (Trefethen &
Weideman, SIAM Rev. 56, 385 (2014), Thm 3.2) and of the Gauss rule through a
Bernstein ellipse (Trefethen, Approximation Theory and Approximation Practice,
Thm 19.3) a priori.  Both rules stack the intensity triples of many rows, a
row per distance of a sweep or per trial intensity of a search round, and
evaluate each row once, at the smallest rung of
QUAD_LADDER whose bound is below float64 rounding of its gains, or else at the
top rung, where the bound must certify QUAD_RTOL; rows of one rung go together
and every triple is summed and certified on its own.  Flipping every sign of a
diagonal-basis triple only swaps its two outcome gains, so the Mermin witness
takes its (-,-,-) gains from the (+,+,+) call.  Rows of one rung go in pieces
of at most _STACK_FLOATS transient floats (1 MiB; the --quick weak-coherent
curves took 25% less time than in 3-row pieces on 2 vCPUs), none kept.
Heralded and photon-number-filtered variants take their gains from the exact
Fock engine by binomial thinning: each user's photon-number distribution is
thinned by the detector efficiency, and the joint thinned weights are
contracted against the ideal-detector class components of a fixed set of
photon-number triples, free of any distance.  A source model builds these
components once per decoy plan and certifies the truncation of every
combination of its decoy levels then; each row (a distance or a trial) then
thins each of its levels once, and the joint weights of the decoy grids of
all rows of a call go through one contraction, in pieces of at most
_WEIGHT_FLOATS weights (128 KiB).

Conventions: a "gain" Q is the per-pulse-triple probability of one announced
outcome class and includes the 1/8 preparation probability of the specific
polarization/sign triple.  Error rates compose with the misalignment
probability e_d; a zero denominator is reported as None ("no signal"), never
as NaN.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import exp, expm1, sqrt
from typing import NamedTuple

import numpy as np

from . import fock
from .params import NumericsError

__all__ = [
    "ZGainComponents",
    "SlicedGains",
    "GainSet",
    "z_gain_components",
    "z_pattern_outcome_gain",
    "mermin_outcome_gains",
    "phase_sliced_gains",
    "assemble_gain_set",
    "wcs_gain_sets",
    "class_yields",
    "thinned_gain_sets",
    "fock_components",
]

# Points per phase axis (full circle) or per triangle axis (hexagon) that the
# quadratures may take, read at call time.  A call evaluates at the smallest
# whose a priori error bound is below 2^-52 of a lower bound on each triple's
# summed gains, or else at the largest, whose bound must be within QUAD_RTOL
# of every gain (floored per triple at 1e-6 of its larger gain).
QUAD_LADDER = (8, 12, 16, 24, 32)
QUAD_RTOL = 1e-8
_ROUNDING = 2.0 ** -52
# The strip half-widths a (full circle) and Bernstein-ellipse parameters rho
# (hexagon) over which the bounds take their least value.
_STRIPS = np.array([0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0])[:, None]
_RHOS = np.array([1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 32.0, 64.0, 128.0])[:, None]
_COSH_STRIPS = np.cosh(np.vstack([[0.0], _STRIPS]))  # the real line first
# The transient floats of one evaluation (1 MiB): 18 decoy grids at 8 points
# per axis, 5 at 16.  Uncapped, the ten full curves took 7.9 MB more memory.
_STACK_FLOATS = 2 ** 17
# The joint thinned weights of one Fock contraction piece (128 KiB): 7 triples
# at the 12-photon cutoff, 2,048 behind the <=1-photon filter.  1 MiB pieces
# raised the fock_sweep workload's peak RSS by 0.9 MB.
_WEIGHT_FLOATS = 2 ** 14

A_CONSISTENCY_RTOL = 1e-12


@dataclass(frozen=True)
class ZGainComponents:
    """Rectilinear-basis gains of the four polarization classes.

    a: all three users same polarization (no dark count needed);
    b/c/d: the mixed classes, each lighting only two detector groups, so one
    dark count is required (b: Alice-Charlie interference, c: Alice-Bob,
    d: Bob-Charlie).
    """

    a: float
    b: float
    c: float
    d: float


@dataclass(frozen=True)
class SlicedGains:
    """Phase-post-selected diagonal-basis gains, per emitted pulse triple.

    Includes the 1/K^2 probability that all three announced phase regions
    match; q_c/q_e are the correct/false announced-class gains of the kept
    events.
    """

    q_c: float
    q_e: float

    @property
    def q_total(self) -> float:
        return self.q_c + self.q_e

    def error_rate(self, e_d: float) -> float | None:
        q = self.q_total
        if q == 0.0:
            return None
        return (e_d * self.q_c + (1.0 - e_d) * self.q_e) / q


class GainSet(NamedTuple):
    """What the decoy estimator and the rates read of one intensity triple:
    the gain Q and the error gain EQ = E Q of each basis, the Alice-Bob and
    Alice-Charlie rectilinear error gains, and E^X (None with no signal)."""

    q_z: float
    q_x: float
    eq_z: float
    eq_x: float
    eq_zab: float
    eq_zac: float
    e_x: float | None


# ---------------------------------------------------------------------------
# Weak coherent pulses, rectilinear basis (closed forms)
# ---------------------------------------------------------------------------

def _group_click(intensity: float, p_d: float) -> float:
    # Per-detector click probability when one party's light of the given
    # arriving intensity splits evenly over the group's two detectors;
    # expm1 keeps tiny decoy intensities exact.
    return -expm1(-intensity / 2.0) + p_d * exp(-intensity / 2.0)


def _i0_minus_1(z: float) -> float:
    """I0(z) - 1 by its power series, whose positive terms never cancel; inf past z ~ 713."""
    q = z * z / 4.0
    term = q
    total = q
    k = 2
    while term > 1e-20 * max(total, 1e-300):
        term *= q / (k * k)
        total += term
        k += 1
    return total


# The analyzer wiring: the detector group (1, 2, 3) that each user's light
# reaches, by polarization; and for each rectilinear triple, the users whose
# light reaches groups 1, 2 and 3, in user order.
_GROUP_OF = ({"H": 3, "V": 1}, {"H": 1, "V": 2}, {"H": 2, "V": 3})  # Alice, Bob, Charlie
_GROUP_USERS = {"".join(pols): tuple(tuple(u for u in range(3) if _GROUP_OF[u][pols[u]] == g)
                                     for g in (1, 2, 3))
                for pols in itertools.product("HV", repeat=3)}


def z_pattern_outcome_gain(pols: str, mu: float, nu: float, omega: float,
                           eta: float, p_d: float) -> float:
    """Gain of one polarization triple and either announced outcome, from the
    generic detector product (no closed form).

    Valid for any of the eight rectilinear triples; used for symmetry checks
    and as the building block the closed forms are asserted against.
    """
    arriving = (mu * eta, nu * eta, omega * eta)
    # Every valid pattern clicks exactly one detector per group, so each group
    # contributes the phase-averaged <D_clicked (1 - D_other)>; for one-party
    # and empty groups the two detectors are independent with equal means, for
    # two-party groups the interference correlates them (Bessel factor).
    clicked_silent = []
    for users in _GROUP_USERS[pols]:
        ints = [arriving[u] for u in users]
        if len(ints) <= 1:
            total = ints[0] if ints else 0.0
            # the silence formed directly: 1 - click cancels once the click is near 1
            clicked_silent.append(_group_click(total, p_d) * (1.0 - p_d) * exp(-total / 2.0))
        else:
            w_tot = sum(ints)
            z = sqrt(ints[0] * ints[1])
            # (1-p_d) e^{-w/2} [ (I0(z)-1) + (1-e^{-w/2}) + p_d e^{-w/2} ]
            clicked_silent.append((1.0 - p_d) * exp(-w_tot / 2.0) * (
                _i0_minus_1(z) - expm1(-w_tot / 2.0) + p_d * exp(-w_tot / 2.0)))
    # each outcome has four patterns, all with the same group product: the
    # 1/8 preparation probability times 4
    return clicked_silent[0] * clicked_silent[1] * clicked_silent[2] / 2.0


def z_gain_components(mu, nu, omega, eta: float, p_d: float):
    """Closed-form rectilinear gains for arriving intensities mu/nu/omega * eta.

    Given sequences of intensities, a list, one ZGainComponents per triple:
    every factor of one user's light (the group click, the one-party group's
    click-silent product, the solo factor of a mixed class) is formed once
    per distinct intensity, and the Bessel factor of two interfering users
    once per pair of intensities, so a decoy grid's 15 triples cost 3
    intensities and 6 pairs; each triple's gains take the same float
    operations as on its own.  The same-polarization class is evaluated both
    from the four-pattern product and from its factored closed form;
    disagreement beyond 1e-12 relative is a hard numerics error.
    """
    triples = list(zip(mu, nu, omega)) if np.ndim(mu) else [(mu, nu, omega)]
    w = 1.0 - p_d
    level = {}  # emitted intensity -> arriving, group click, one-party group, solo factor
    for m in dict.fromkeys(itertools.chain(*triples)):
        i = m * eta
        click = _group_click(i, p_d)
        try:
            solo = expm1(i / 2.0) + p_d  # the printed (1 - p_d - e^{s/2}), negated
        except OverflowError:
            solo = None
        level[m] = i, click, click * w * exp(-i / 2.0), solo
    pair = {}  # both orders of two emitted intensities -> their Bessel factor
    for u, v in itertools.combinations_with_replacement(level, 2):
        # the printed (1 - p_d - e^{s/2} I0) of a group where both interfere,
        # negated: a plain sum of positive terms, safe at tiny intensities
        i, j = level[u][0], level[v][0]
        try:
            pair[u, v] = pair[v, u] = (expm1((i + j) / 2.0) + exp((i + j) / 2.0)
                                       * _i0_minus_1(sqrt(i * j)) + p_d)
        except OverflowError:
            pair[u, v] = pair[v, u] = None
    half_w3, dark_w3 = 0.5 * w ** 3, (p_d / 2.0) * w ** 3
    out = []
    for ma, mb, mc in triples:
        (ia, ca, sa, fa), (ib, cb, sb, fb), (ic, cc, sc, fc) = level[ma], level[mb], level[mc]
        x = ia + ib + ic
        a_closed = half_w3 * exp(-x / 2.0) * (ca * cb * cc)
        a_product = sb * sc * sa / 2.0  # groups 1, 2, 3 see Bob, Charlie, Alice
        scale = max(abs(a_closed), abs(a_product), 1e-300)
        if abs(a_closed - a_product) > A_CONSISTENCY_RTOL * scale:
            raise NumericsError(
                f"same-polarization gain forms disagree: {a_closed!r} vs {a_product!r}"
            )
        fac, fab, fbc = pair[ma, mc], pair[ma, mb], pair[mb, mc]
        if None in (fa, fb, fc, fac, fab, fbc):
            raise NumericsError(f"mixed-class gain at intensity {max(ma, mb, mc)!r}: its "
                                f"factors e^(intensity * eta / 2) overflow a float")
        # each printed factor is negative; their magnitudes multiply.  b: Bob
        # solo, Alice-Charlie interfere; c: Charlie solo, Alice-Bob; d: Alice
        # solo, Bob-Charlie
        e = dark_w3 * exp(-x)
        out.append(ZGainComponents(a=a_closed, b=e * fb * fac, c=e * fc * fab, d=e * fa * fbc))
    return out if np.ndim(mu) else out[0]


# ---------------------------------------------------------------------------
# Weak coherent pulses, diagonal basis (quadrature)
# ---------------------------------------------------------------------------

def _pair_factors(amplitude, base, cosine, p_d):
    """click[j] * silent[j ^ 1] of the two detectors of one group, whose mean
    photon numbers are base +/- amplitude * cosine, formed in place in five
    arrays of the group's shape, two of which it returns."""
    n0, n1, s0, s1, t = (np.empty(np.broadcast(amplitude, cosine).shape) for _ in range(5))
    np.multiply(amplitude, cosine, out=n1)
    np.add(base, n1, out=n0)
    np.subtract(base, n1, out=n1)
    for n, s in ((n0, s0), (n1, s1)):
        # click = 1 - (1-p_d) e^{-n} via expm1; silent = (1-p_d) e^{-n}
        # directly, so both stay exact for vanishing and for saturating n
        np.negative(n, out=n)
        np.exp(n, out=s)
        np.expm1(n, out=n)
        np.multiply(p_d, s, out=t)
        np.subtract(t, n, out=n)
        np.multiply(1.0 - p_d, s, out=s)
    return np.multiply(n0, s1, out=t), np.multiply(n1, s0, out=n1)


def _outcome_sums(x, signs, cosines, p_d):
    """Yields the probabilities of the two announced outcomes (phi_plus,
    phi_minus) for diagonal-basis coherent inputs of arriving intensities
    x = (ia, ib, ic), stacked on the first axis, and sign triple `signs`
    (+1 -> "+", -1 -> "-"), at the phase points whose A-B, B-C and A-C
    phase-difference cosines are `cosines`.  Each comes with a free array of
    its shape; the next step overwrites both.  At most 6 grid arrays and 10 of
    the outer groups are live, the floats width(n) of `_stacked` counts.
    """
    first, second = x[[0, 1, 0]], x[[1, 2, 2]]  # the users of each pair
    amplitudes = np.reshape(signs, (3,) + (1,) * (x.ndim - 1)) * (0.5 * np.sqrt(first * second))
    f = []
    for amplitude, base, cosine in zip(amplitudes, (first + second) / 4.0, cosines):
        f += _pair_factors(amplitude, base, cosine, p_d)
    # f[a] * f[b] * f[c] multiplies left to right, so each pair product
    # f[a] * f[b] is formed once for one term of either outcome; the
    # Bob-Charlie factors f[2], f[3] span the whole grid
    product = {(0, 2): f[0] * f[2], (0, 3): f[0] * f[3], (1, 2): f[1] * f[2],
               (1, 3): np.multiply(f[1], f[3], out=f[3])}
    total, term = np.empty_like(f[2]), f[2]
    for patterns in (fock.PHI_PLUS_PATTERNS, fock.PHI_MINUS_PATTERNS):
        # ((t0 + t1) + t2) + t3: the order of sum(), less its 0 + t0, which
        # could only turn a -0.0 into 0.0
        for i, (a, b, c) in enumerate(patterns):
            np.multiply(product[a, b], f[c], out=term if i else total)
            if i:
                np.add(total, term, out=total)
        yield total, term


def _group_bounds(x, p_d, cosh_a):
    """Moduli of the detector groups (A-B, B-C, A-C) of the arriving
    intensities x = (ia, ib, ic), (3, P), with the phase difference
    theta off the real line by at most a, given as cosh a, shape (A, 1).

    With n0 + n1 = 2 base, group g's click-silent sum f[2g] + f[2g+1] is
    (1-p_d) e^{-2 base} (expm1(n0) + expm1(n1) + 2 p_d), and an outcome
    takes one of its two terms per group, so the product of the groups' sums
    of moduli bounds either outcome's integrand.  |expm1(n)| <= expm1(|n|) and
    |n| <= base + |amp| cosh a bound each term on the strip; convexity bounds
    the sum below on the real line by the value at cos theta = 0.  Returns the
    product of the lower bounds over the groups, (P,), and each group's strip
    bound over its lower bound, (3, A, P), 0 for a dark-free unlit group,
    whose sum vanishes identically.
    """
    x, y = x[[0, 1, 0]], x[[1, 2, 2]]
    base = (x + y) / 4.0
    low = np.expm1(base) + p_d
    with np.errstate(over="ignore"):
        high = np.expm1(base[:, None] + 0.5 * np.sqrt(x * y)[:, None] * cosh_a) + p_d
        ratio = high / np.where(low > 0.0, low, np.inf)[:, None]
    return (2.0 * (1.0 - p_d) * np.exp(-2.0 * base) * low).prod(axis=0), ratio


def _circle_bound(x, p_d, points):
    """A priori bounds on the error of the trapezoid rule with each number of
    points per axis in `points`, for each of the P triples x (3, P),
    relative to the second result: a lower bound of the triple's two outcome
    gains together.

    One axis at a time, Q1 Q2 - I1 I2 = Q1 (Q2 - I2) + (Q1 - I1) I2: the rule
    in phi_AC sees the A-C and B-C groups off the real line, the one in phi_AB
    the A-B and B-C groups.  Each is the N-point rule on a periodic function
    analytic in the strip |Im theta| <= a, bounded there by M, whose mean it
    gets within 2 M / (e^{aN} - 1) (Trefethen & Weideman, SIAM Rev. 56, 385
    (2014), Thm 3.2); both terms take the best common strip.
    """
    scale, ratio = _group_bounds(x, p_d, _COSH_STRIPS)
    real, strip = ratio[:, 0], ratio[:, 1:]
    # aN capped below overflow, which only loosens the bound
    weight = 2.0 / np.expm1(np.minimum(_STRIPS * np.reshape(points, (-1, 1, 1)), 700.0))
    with np.errstate(over="ignore"):
        bound = (strip[1] * (strip[2] * real[0] + strip[0] * real[2]) * weight).min(axis=1)
    return bound, scale / 8.0


def _rungs(bound, t):
    """Per row of t triples, the index of the smallest rung whose bounds
    (rungs, rows * t) are all below float64 rounding, else the top one."""
    ok = (bound <= _ROUNDING).reshape(len(bound), -1, t).all(axis=2)
    ok[-1] = True
    return ok.argmax(axis=0).tolist()


def _certified(q, bound, what):
    """The gains q (2, P) of the two outcomes, if their error bound (P,) is
    within QUAD_RTOL of each, floored per triple at 1e-6 of its larger one."""
    q = np.asarray(q, dtype=float)
    if not np.isfinite(q).all():
        raise NumericsError(f"{what}: quadrature gave a non-finite value")
    scale = np.maximum(np.abs(q), 1e-300)
    if not np.all(bound <= QUAD_RTOL * np.maximum(scale, scale.max(axis=0) * 1e-6)):
        raise NumericsError(f"{what}: the quadrature error bound exceeds {QUAD_RTOL} "
                            f"relative at {QUAD_LADDER[-1]} points per axis")
    return q


def _stacked(quad, bounds, x, width, what):
    """The certified gains (2, R, T) of the arriving-intensity triples x
    (3, R, T), in rows: a sweep's rows are its distances, a search round's
    its trial intensities.  The bounds of a chunk of rows are formed at once;
    consecutive rows of one rung are evaluated in pieces whose transient
    arrays, width(n) floats per triple at rung n, stay within _STACK_FLOATS
    (a row alone if it needs more)."""
    rows, t = x.shape[1:]
    q = np.empty((2, rows * t))
    step = max(1, _STACK_FLOATS // (t * width(QUAD_LADDER[0])))
    for start in range(0, rows, step):
        chunk = x[:, start:start + step].reshape(3, -1)
        bound, scale = bounds(chunk)
        out, lo = q[:, start * t:], 0  # lo, hi: the triples of a run of rows
        for r, run in itertools.groupby(_rungs(bound, t)):
            hi = lo + len(list(run)) * t
            per = max(1, _STACK_FLOATS // (t * width(QUAD_LADDER[r]))) * t
            for i in range(lo, hi, per):
                j = min(i + per, hi)
                out[:, i:j] = _certified(quad(chunk[:, i:j], QUAD_LADDER[r]),
                                         bound[r, i:j] * scale[i:j], what)
            lo = hi
    return q.reshape(2, rows, t)


def _arriving(intensities, eta):
    """The arriving intensities (3, R, T) of emitted intensity triples
    (3,), (3, T) or per row (3, R, T) at one efficiency or one per row."""
    intensities = np.array(intensities, dtype=float)
    shape = (3,) + (1,) * (3 - intensities.ndim) + intensities.shape[1:]
    return intensities.reshape(shape) * np.array(eta, dtype=float, ndmin=1)[:, None]


@lru_cache(maxsize=8)
def _circle_cosines(points):
    """Cosines of the A-B, B-C and A-C phase differences on the points^2 grid
    of (phi_AB, phi_AC), shaped (points, 1), (points, points) and
    (1, points)."""
    phi = np.arange(points) * (2.0 * np.pi / points)
    pab, pac = phi[:, None], phi[None, :]
    cosines = (np.cos(pab), np.cos(pac - pab), np.cos(pac))
    for c in cosines:
        c.setflags(write=False)
    return cosines


def _circle_quad(signs, x, p_d, points):
    """The outcome gains by the trapezoid rule on points^2 phase points, as a
    (2, P) array for the P arriving-intensity triples x (3, P).

    Each triple's contiguous row is summed pairwise and divided by its size,
    as mean() does, which keeps the rounding small enough for the decoy
    differences that amplify it at long distance.
    """
    rows = x.shape[1]
    return np.array([s.reshape(rows, -1).sum(axis=-1) / (points * points) / 8.0 for s, _ in
                     _outcome_sums(x.reshape(3, rows, 1, 1), signs, _circle_cosines(points), p_d)])


def mermin_outcome_gains(signs: tuple[int, int, int], mu, nu, omega, eta, p_d: float):
    """Gains of the two announced outcomes for one diagonal-basis sign triple,
    phase-averaged over the full circle (two-angle periodic trapezoid rule).

    Any subset of the intensities may be zero; the vanishing cross terms make
    those cases exact.  Returns (correct-class gain, other-class gain) with
    the correct class being the one a (+,+,+) triple feeds.  Given sequences
    of intensities, each gain is a list, one entry per triple; given a
    sequence of efficiencies, a list of such results, one per row, evaluated
    in stacks of rows: each efficiency is a distance of a sweep, or a trial
    of a search round, whose intensities are then given per row (R, T).
    Every triple is certified on its own.

    Flipping every sign swaps the two detectors of each pair exactly, so the
    flipped triple's gains are these two, swapped: (+,+,+) gives both the
    all-"+" and the all-"-" correct-outcome gains of the Mermin witness.
    """
    q = _stacked(lambda x, n: _circle_quad(signs, x, p_d, n),
                 lambda x: _circle_bound(x, p_d, QUAD_LADDER), _arriving((mu, nu, omega), eta),
                 lambda n: 6 * n * n + 10 * n, "diagonal-basis gain")
    rows = [tuple(g[0] for g in row) if np.ndim(mu) == 0 else tuple(row)
            for row in q.transpose(1, 0, 2).tolist()]
    return rows if np.ndim(eta) else rows[0]


# The phase-difference domain is the hexagon with vertices h * (1, 0), (1, 1),
# (0, 1), (-1, 0), (-1, -1), (0, -1).  Outer corners of its first three
# triangles at the origin; the other three are their negatives.
_TRIANGLES = (((1, 0), (1, 1)), ((1, 1), (0, 1)), ((0, 1), (-1, 0)))


def _legval(x, c):
    """The Legendre series c (at least two terms) at x by the Clenshaw
    recurrence, in the float operations of numpy's legval."""
    c0, c1 = c[-2], c[-1]
    for nd in range(len(c) - 1, 1, -1):
        c0, c1 = c[nd - 2] - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


def _gauss_legendre(n):
    """numpy's leggauss(n), n >= 2, by its own steps without numpy.polynomial:
    the eigenvalues of P_n's symmetric companion matrix, one Newton step, and
    weights from P_n' and P_{n-1}, symmetrized and scaled to sum to 2."""
    scl = 1.0 / np.sqrt(2 * np.arange(n) + 1)
    off = np.arange(1, n) * scl[:-1] * scl[1:]
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    c = np.eye(1, n + 1, n)[0]  # P_n
    # P_n' = sum of (2j + 1) P_j over j = n - 1, n - 3, ...
    df = _legval(x, np.where(np.arange(n) % 2 == (n - 1) % 2, 2.0 * np.arange(n) + 1.0, 0.0))
    x -= _legval(x, c) / df
    fm = _legval(x, c[1:])
    w = 1 / (fm / np.abs(fm).max() * (df / np.abs(df).max()))
    w, x = (w + w[::-1]) / 2, (x - x[::-1]) / 2
    return x, w * (2.0 / w.sum())


@lru_cache(maxsize=8)
def _hexagon_rule(n, k):
    """An n x n Gauss-Legendre product rule on each triangle of the hexagon,
    h = pi/K: the cosines of the A-B, B-C and A-C phase differences
    (a, -b, a - b) at its nodes (a, b), and its weights.

    The weight h - range(0, a, b) of (a, b) is linear on each triangle
    (origin, v1, v2); with (a, b) = h s (v1 + t (v2 - v1)) it is h (1 - s)
    and the Jacobian is h^2 s.  The integrand is even in (a, b), so the three
    triangles opposite these are folded onto them (factor 2).
    """
    x, wx = _gauss_legendre(n)
    u, wu = (x + 1.0) / 2.0, wx / 2.0  # map to [0, 1]
    s, t = (g.ravel() for g in np.meshgrid(u, u, indexing="ij"))
    a = np.concatenate([s * (x1 + t * (x2 - x1)) for (x1, _), (x2, _) in _TRIANGLES])
    b = np.concatenate([s * (y1 + t * (y2 - y1)) for (_, y1), (_, y2) in _TRIANGLES])
    h = np.pi / k
    cosines = (np.cos(h * a), np.cos(-h * b), np.cos(h * (a - b)))
    weight = np.tile(np.outer(2.0 * wu * u * (1.0 - u), wu).ravel(), len(_TRIANGLES))
    for v in (*cosines, weight):
        v.setflags(write=False)
    return cosines, weight


def _sliced_quad(x, p_d, k, nodes):
    # Over [0, h]^3, h = pi/K, the integrand depends on the phases only
    # through a = phi_A - phi_B and b = phi_C - phi_B; the third phase
    # integrates out exactly into the hexagon weight.  (2, P) for the P
    # arriving-intensity triples x (3, P), each row summed on its own.
    cosines, weight = _hexagon_rule(nodes, k)
    return np.array([np.multiply(s, weight, out=s).sum(axis=-1) / (k * k) for s, _ in
                     _outcome_sums(x.reshape(3, -1, 1), (1, 1, 1), cosines, p_d)])


def _hexagon_bound(x, p_d, k, nodes):
    """A priori bounds on the error of the hexagon rule with each number of
    nodes per triangle axis in `nodes`, relative to the second result: a lower
    bound of the two outcome gains together.

    On each triangle every phase difference is h s c(t) with |c| <= 1 and
    |dc/dt| <= 1, so with s or t on the Bernstein ellipse E_rho of [0, 1] each
    lies within h (rho - 1/rho) / 4 of the real line, and the weight
    2 s (1 - s) within (1 + ((rho + 1/rho) / 2)^2) / 2 of 0.  One axis at a
    time, as for the full circle, the n-point Gauss rule on [0, 1] errs by at
    most (32/15) M rho^{2-2n} / (rho^2 - 1) (Trefethen, Approximation Theory
    and Approximation Practice, Thm 19.3, whose rule has n + 1 points; half
    its bound on [-1, 1]): the s rule with M the weighted integrand's bound,
    the t rule with M its bound times the weight's integral 1/3; three
    triangles each.
    """
    rho = _RHOS
    scale, ratio = _group_bounds(x, p_d, np.cosh(np.pi / k * (rho - 1.0 / rho) / 4.0))
    q = (rho + 1.0 / rho) / 2.0
    # rho^{2-2n} floored above underflow, which only loosens the bound
    decay = np.maximum(rho ** (2.0 - 2.0 * np.reshape(nodes, (-1, 1, 1))), 1e-300)
    weight = 32.0 / 5.0 * ((1.0 + q * q) / 2.0 + 1.0 / 3.0) / (rho * rho - 1.0) * decay
    with np.errstate(over="ignore"):
        bound = (ratio.prod(axis=0) * weight).min(axis=1)
    return bound, scale / (k * k)


def phase_sliced_gains(mu, nu, omega, eta, p_d: float, k: int):
    """Diagonal-basis gains of matched-phase-region events, K regions; given a
    sequence of efficiencies, a list of them, one per row, evaluated in
    stacks, with the intensities one triple for every row or one per row.

    The returned gains are per emitted pulse triple: they contain the 1/K^2
    probability that the three announced regions coincide (all matched-region
    pairs share the same conditional statistics, so only the first region is
    integrated).  At K = 1 this reduces exactly to the full phase average.
    """
    q = _stacked(lambda x, n: _sliced_quad(x, p_d, k, n),
                 lambda x: _hexagon_bound(x, p_d, k, QUAD_LADDER),
                 _arriving(np.reshape((mu, nu, omega), (3, -1, 1)), eta),
                 lambda n: 48 * n * n, "phase-sliced gain")
    sliced = [SlicedGains(q_c=c, q_e=e) for c, e in zip(*q[:, :, 0].tolist())]
    return sliced if np.ndim(eta) else sliced[0]


# ---------------------------------------------------------------------------
# Gain-set assembly (shared by every source model)
# ---------------------------------------------------------------------------

def assemble_gain_set(a: float, b: float, c: float, d: float, e: float, f: float,
                      e_d: float) -> GainSet:
    """The GainSet of the class gains a, b, c, d (rectilinear) and e, f
    (diagonal, correct and false outcome) at misalignment e_d.

    Correct/false bookkeeping per class: the same-polarization class is the
    only correct one for the three-way key; the pairwise (Alice-Bob /
    Alice-Charlie) splits reshuffle the mixed classes.  Each error gain is
    e_d * correct + (1 - e_d) * false.
    """
    g = 1.0 - e_d
    cz, ez = 4.0 * a, 4.0 * (b + c + d)
    cx, ex = 8.0 * e, 8.0 * f
    q_x, eq_x = cx + ex, e_d * cx + g * ex
    return GainSet(q_z=cz + ez, q_x=q_x, eq_z=e_d * cz + g * ez, eq_x=eq_x,
                   eq_zab=e_d * (4.0 * a + 2.0 * b + 2.0 * d) + g * (2.0 * b + 4.0 * c + 2.0 * d),
                   eq_zac=e_d * (4.0 * a + 2.0 * c + 2.0 * d) + g * (4.0 * b + 2.0 * c + 2.0 * d),
                   e_x=None if q_x == 0.0 else eq_x / q_x)


def wcs_gain_sets(grids, etas, p_d: float, e_d: float) -> list[list[GainSet]]:
    """Full weak-coherent GainSets of each row: its intensity triples
    (mu, nu, omega) at its efficiency.  A sweep's rows are its distances, a
    search round's its trial intensities; the quadratures stack the rows, and
    each row's closed forms share their per-intensity factors."""
    x = mermin_outcome_gains((1, 1, 1), *np.transpose(grids, (2, 0, 1)), etas, p_d)
    return [[assemble_gain_set(zt.a, zt.b, zt.c, zt.d, *xt, e_d)
             for zt, xt in zip(z_gain_components(*zip(*triples), eta, p_d), zip(*xd))]
            for triples, eta, xd in zip(grids, etas, x)]


# ---------------------------------------------------------------------------
# Fock-backed sources: heralded pair sources and the photon-number filter
# ---------------------------------------------------------------------------

# Preparations of the gain classes a, b, c, d (rectilinear) and x (all "+").
_CLASS_POLS = ("HHH", "HHV", "VHH", "HVH", "+++")
_WITHIN_CUTOFF = np.indices((fock.N_MAX + 1,) * 3).sum(axis=0) <= fock.N_MAX


def class_yields(mask: np.ndarray, p_d: float) -> np.ndarray:
    """(6, *mask.shape): the gain-class components a, b, c, d, e, f of each
    triple of the boolean `mask` at ideal detectors with dark-count
    probability p_d, 0 elsewhere; incl. the 1/8 preparation probability and
    the outcome averaging."""
    c = fock.ideal_detector_table(_CLASS_POLS, mask)
    return fock.ideal_yields(np.concatenate([(c[:4, 0] + c[:4, 1]) / 16.0, c[4] / 8.0]), p_d)


def _thin(dist: np.ndarray, thinning: np.ndarray, k: int) -> np.ndarray:
    """The first k photon-number probabilities of `dist` after the losses of
    the thinning matrix."""
    return dist @ thinning[:len(dist), :k]


def thinned_gain_sets(comps, rows, index_triples, e_d) -> list[list[GainSet]]:
    """GainSets of independent users, for each row (its photon-number
    distributions `levels`, its thinning matrix) one per triple of indices
    into its levels: each level is thinned by the detector efficiency once,
    and the joint thinned weights of every row and triple are contracted
    against the ideal-detector class components (6, k, k, k), in pieces of at
    most _WEIGHT_FLOATS weights, with one gemv per triple.  Every term is
    nonnegative, so the sums keep full relative precision."""
    k = comps.shape[-1]
    flat = comps.reshape(len(comps), -1)
    sizes = [len(levels) for levels, _ in rows]
    thinned = np.empty((sum(sizes), k))
    for i, (x, thinning) in enumerate((x, t) for levels, t in rows for x in levels):
        thinned[i] = _thin(np.asarray(x, dtype=float)[:len(thinning)], thinning, k)
    starts = np.cumsum([0, *sizes[:-1]])
    triples = np.reshape(index_triples, (-1, 3))
    n, step = len(rows) * len(triples), max(1, _WEIGHT_FLOATS // k ** 3)
    sets = []
    for s in range(0, n, step):
        row, j = np.divmod(np.arange(s, min(s + step, n)), len(triples))
        a, b, c = thinned[(starts[row, None] + triples[j]).T]
        w = (a[:, :, None] * b[:, None, :])[:, :, :, None] * c[:, None, None, :]
        q = np.matmul(flat, w.reshape(len(w), -1, 1))[:, :, 0].tolist()
        sets += [assemble_gain_set(*x, e_d) for x in q]
    return [sets[i:i + len(triples)] for i in range(0, n, len(triples))]


def _triple_weights(dists, floor):
    """Joint weights p_a[n] p_b[m] p_c[l] and the mask of the triples kept: at
    least `floor`, nonzero, and within the photon-number cutoff."""
    d = [np.asarray(x, dtype=float)[:fock.N_MAX + 1] for x in dists]
    w = (d[0][:, None] * d[1][None, :])[:, :, None] * d[2][None, None, :]
    within = _WITHIN_CUTOFF[:w.shape[0], :w.shape[1], :w.shape[2]]
    return w, (w >= floor) & (w > 0.0) & within


def _envelope(levels, floor: float) -> np.ndarray:
    """The triples kept for the levels' elementwise maximum made nonincreasing
    in the photon number: downward closed, so each holds every triple its
    photons thin into, and holding those kept for any combination of levels."""
    top = np.zeros(fock.N_MAX + 1)
    for level in levels:
        top[:len(level)] = np.maximum(top[:len(level)], level)
    return _triple_weights((np.maximum.accumulate(top[::-1])[::-1],) * 3, floor)[1]


def fock_components(levels, index_triples, p_d: float,
                    tail_budget: float = 1e-12) -> np.ndarray:
    """`class_yields` at p_d on the envelope of the photon-number distributions
    `levels`.  Before any table is built, the truncation is certified once for
    each distinct combination of levels, each level for all users and then
    `index_triples`: the triples below the floor tail_budget / 4096 are
    dropped, and their probability mass (bounded by yields <= 1) must stay
    inside the budget.  Every kept triple lies in the envelope."""
    levels = [np.asarray(x, dtype=float)[:fock.N_MAX + 1] for x in levels]
    floor = tail_budget / 4096.0
    for triple in dict.fromkeys([*((k, k, k) for k in range(len(levels))), *index_triples]):
        w, keep = _triple_weights([levels[i] for i in triple], floor)
        tail = 1.0 - sum(w[keep].tolist())
        if tail > tail_budget:
            raise NumericsError(
                f"photon-number truncation tail {tail:.3e} exceeds budget "
                f"{tail_budget:.1e}; raise the cutoff or lower the source intensity"
            )
    return class_yields(_envelope(levels, floor), p_d)
