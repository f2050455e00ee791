"""Per-pulse gains and error rates of the GHZ analyzer for the supported sources.

Weak coherent pulses get closed forms in the rectilinear basis (dark-count
suppressed classes carry modified-Bessel factors from the phase average) and
quadrature in the diagonal basis, where the overall phases survive into
detector-level interference: the periodic trapezoid rule over the full phase
circle, and Gauss-Legendre over the hexagon of phase differences for the
phase-sliced gains.  The full-circle rule stacks all intensity triples of a
decoy grid into one evaluation, each triple summed and certified on its own.
Flipping every sign of a diagonal-basis triple only swaps its two outcome
gains, so the Mermin witness takes its (-,-,-) gains from the (+,+,+) call.
Both rules write every step into one float64 workspace per thread, grown to
the largest grid seen and then reused.  Grid-sized temporaries freed after
every call let the C allocator hand their memory back to the system, and the
next call faulted it in again: about 330 page faults per stacked decoy-grid
call.
Heralded and photon-number-filtered variants take their gains from the exact
Fock engine by binomial thinning: each user's photon-number distribution is
thinned by the detector efficiency, and the joint thinned weights are
contracted against the ideal-detector class components of a fixed set of
photon-number triples, free of any distance.  A source model builds these
components once, with no cache shared across models (one per curve, one per
trial of an intensity search), and certifies the truncation of every
combination of its decoy levels then, since neither holds a distance; like
the weak-coherent path it then takes one call per decoy grid, which thins
each level once.

Conventions: a "gain" Q is the per-pulse-triple probability of one announced
outcome class and includes the 1/8 preparation probability of the specific
polarization/sign triple.  Error rates compose with the misalignment
probability e_d; a zero denominator is reported as None ("no signal"), never
as NaN.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache
from math import exp, expm1, prod, sqrt

import numpy as np

from . import fock
from .params import NumericsError, SystemParams, overall_efficiency

__all__ = [
    "ZGainComponents",
    "XGainComponents",
    "SlicedGains",
    "GainSet",
    "z_gain_components",
    "z_pattern_outcome_gain",
    "x_gain_components",
    "mermin_outcome_gains",
    "phase_sliced_gains",
    "assemble_gain_set",
    "wcs_gain_sets",
    "class_yields",
    "thinned_gain_sets",
    "fock_components",
]

# Quadrature nodes per axis (read at call time); one refinement doubling
# certifies this relative stability for every returned integral.
QUAD_NODES = 16
QUAD_RTOL = 1e-8

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
class XGainComponents:
    """Diagonal-basis gains: e for the correct outcome class of a sign triple,
    f for the false one."""

    e: float
    f: float


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


@dataclass(frozen=True)
class GainSet:
    """All per-basis gains and error rates for one intensity triple."""

    q_z: float
    q_cz: float
    q_ez: float
    q_czab: float
    q_ezab: float
    q_czac: float
    q_ezac: float
    q_x: float
    q_cx: float
    q_ex: float
    e_x: float | None
    # misalignment used for the error compositions (kept for the EQ products)
    e_d: float = 0.0

    @property
    def eq_z(self) -> float:
        """E^Z * Q^Z without the division (always defined)."""
        return self.e_d * self.q_cz + (1.0 - self.e_d) * self.q_ez

    @property
    def eq_zab(self) -> float:
        return self.e_d * self.q_czab + (1.0 - self.e_d) * self.q_ezab

    @property
    def eq_zac(self) -> float:
        return self.e_d * self.q_czac + (1.0 - self.e_d) * self.q_ezac

    @property
    def eq_x(self) -> float:
        return self.e_d * self.q_cx + (1.0 - self.e_d) * self.q_ex


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


def z_pattern_outcome_gain(pols: str, mu: float, nu: float, omega: float,
                           eta: float, p_d: float) -> float:
    """Gain of one polarization triple and either announced outcome, from the
    generic detector product (no closed form).

    Valid for any of the eight rectilinear triples; used for symmetry checks
    and as the building block the closed forms are asserted against.
    """
    arriving = (mu * eta, nu * eta, omega * eta)
    # group -> arriving intensities it sees (routing per the analyzer wiring)
    group_to = {1: [], 2: [], 3: []}
    groups = {("A", "H"): 3, ("A", "V"): 1, ("B", "H"): 1, ("B", "V"): 2,
              ("C", "H"): 2, ("C", "V"): 3}
    for party, (who, inten) in enumerate(zip("ABC", arriving)):
        group_to[groups[(who, pols[party])]].append(inten)
    # Every valid pattern clicks exactly one detector per group, so each group
    # contributes the phase-averaged <D_clicked (1 - D_other)>; for one-party
    # and empty groups the two detectors are independent with equal means, for
    # two-party groups the interference correlates them (Bessel factor).
    clicked_silent = {}
    for grp in (1, 2, 3):
        ints = group_to[grp]
        if len(ints) <= 1:
            total = ints[0] if ints else 0.0
            # the silence formed directly: 1 - click cancels once the click is near 1
            clicked_silent[grp] = _group_click(total, p_d) * (1.0 - p_d) * exp(-total / 2.0)
        else:
            w_tot = sum(ints)
            z = sqrt(ints[0] * ints[1])
            # (1-p_d) e^{-w/2} [ (I0(z)-1) + (1-e^{-w/2}) + p_d e^{-w/2} ]
            clicked_silent[grp] = (1.0 - p_d) * exp(-w_tot / 2.0) * (
                _i0_minus_1(z) - expm1(-w_tot / 2.0) + p_d * exp(-w_tot / 2.0))
    # each outcome has four patterns, all with the same group product: the
    # 1/8 preparation probability times 4
    return clicked_silent[1] * clicked_silent[2] * clicked_silent[3] / 2.0


def z_gain_components(mu: float, nu: float, omega: float, eta: float,
                      p_d: float) -> ZGainComponents:
    """Closed-form rectilinear gains for arriving intensities mu/nu/omega * eta.

    The same-polarization class is evaluated both from the four-pattern
    product and from its factored closed form; disagreement beyond 1e-12
    relative is a hard numerics error.
    """
    ia, ib, ic = mu * eta, nu * eta, omega * eta
    x = ia + ib + ic
    w = 1.0 - p_d

    a_closed = 0.5 * w ** 3 * exp(-x / 2.0) * (
        _group_click(ia, p_d) * _group_click(ib, p_d) * _group_click(ic, p_d))
    a_product = z_pattern_outcome_gain("HHH", mu, nu, omega, eta, p_d)
    scale = max(abs(a_closed), abs(a_product), 1e-300)
    if abs(a_closed - a_product) > A_CONSISTENCY_RTOL * scale:
        raise NumericsError(
            f"same-polarization gain forms disagree: {a_closed!r} vs {a_product!r}"
        )

    def _mixed(solo: float, pair1: float, pair2: float) -> float:
        # the printed factors (1 - p_d - e^{s/2}) and (1 - p_d - e^{w/2} I0)
        # are each negative; multiply their magnitudes, which are plain sums
        # of positive terms and safe at tiny intensities
        pair_sum = pair1 + pair2
        f_solo = expm1(solo / 2.0) + p_d
        f_pair = (expm1(pair_sum / 2.0)
                  + exp(pair_sum / 2.0) * _i0_minus_1(sqrt(pair1 * pair2))
                  + p_d)
        val = (p_d / 2.0) * w ** 3 * exp(-x) * f_solo * f_pair
        if val < 0.0:
            raise NumericsError("mixed-class gain went negative")
        return val

    try:
        b = _mixed(ib, ia, ic)  # Bob solo, Alice-Charlie interfere
        c = _mixed(ic, ia, ib)  # Charlie solo, Alice-Bob interfere
        d = _mixed(ia, ib, ic)  # Alice solo, Bob-Charlie interfere
    except OverflowError:
        raise NumericsError(f"mixed-class gain at intensity {max(mu, nu, omega)!r}: its "
                            f"factors e^(intensity * eta / 2) overflow a float") from None
    return ZGainComponents(a=a_closed, b=b, c=c, d=d)


# ---------------------------------------------------------------------------
# Weak coherent pulses, diagonal basis (quadrature)
# ---------------------------------------------------------------------------

_workspace = threading.local()


def _workspace_views(shapes):
    """Consecutive views of this thread's float64 workspace, one per shape.

    The workspace grows to the largest request seen and is then reused, so
    the quadrature's steps create no temporary arrays.
    """
    sizes = [prod(shape) for shape in shapes]
    buf = getattr(_workspace, "buf", None)
    if buf is None or len(buf) < sum(sizes):
        buf = _workspace.buf = np.empty(sum(sizes))
    views, start = [], 0
    for shape, size in zip(shapes, sizes):
        views.append(buf[start:start + size].reshape(shape))
        start += size
    return views


def _pair_factors(amplitude, base, cosine, p_d, work):
    """click[j] * silent[j ^ 1] of the two detectors of one group, whose mean
    photon numbers are base +/- amplitude * cosine.  All five views of `work`
    are overwritten; the factors are left in work[4] and work[1]."""
    n0, n1, s0, s1, t = work
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


def _outcome_sums(ia, ib, ic, signs, cosines, p_d):
    """Yields the probabilities of the two announced outcomes (phi_plus,
    phi_minus) for diagonal-basis coherent inputs of arriving intensities
    ia, ib, ic and sign triple `signs` (+1 -> "+", -1 -> "-"), at the phase
    points whose A-B, B-C and A-C phase-difference cosines are `cosines`.
    Each comes with a free view of its shape; both are views of the
    workspace that the next step overwrites.
    """
    pairs = ((ia, ib), (ib, ic), (ia, ic))
    amplitudes = [s * (0.5 * np.sqrt(x * y)) for s, (x, y) in zip(signs, pairs)]
    shapes = [np.broadcast_shapes(np.shape(a), np.shape(c))
              for a, c in zip(amplitudes, cosines)]
    # the Bob-Charlie group spans the whole grid: once its factors are
    # formed, its spent views hold the pair products and each term
    grid = np.broadcast_shapes(*shapes)
    work = _workspace_views([shapes[0]] * 5 + [grid] * 6 + [shapes[2]] * 5)
    groups, total = (work[:5], work[5:10], work[11:]), work[10]
    f = []
    for (x, y), amplitude, cosine, views in zip(pairs, amplitudes, cosines, groups):
        f += _pair_factors(amplitude, (x + y) / 4.0, cosine, p_d, views)
    # f[a] * f[b] * f[c] multiplies left to right, so each pair product
    # f[a] * f[b] is formed once for one term of either outcome
    spent = groups[1]
    product = {(0, 2): np.multiply(f[0], f[2], out=spent[0]),
               (0, 3): np.multiply(f[0], f[3], out=spent[2]),
               (1, 2): np.multiply(f[1], f[2], out=spent[3]),
               (1, 3): np.multiply(f[1], f[3], out=f[3])}
    term = f[2]
    for patterns in (fock.PHI_PLUS_PATTERNS, fock.PHI_MINUS_PATTERNS):
        # ((t0 + t1) + t2) + t3: the order of sum(), less its 0 + t0, which
        # could only turn a -0.0 into 0.0
        for i, (a, b, c) in enumerate(patterns):
            np.multiply(product[a, b], f[c], out=term if i else total)
            if i:
                np.add(total, term, out=total)
        yield total, term


def _certified(coarse, fine, what):
    coarse = np.asarray(coarse, dtype=float)
    fine = np.asarray(fine, dtype=float)
    if not (np.isfinite(coarse).all() and np.isfinite(fine).all()):
        raise NumericsError(f"{what}: quadrature gave a non-finite value")
    # axis 0 is the outcome: each intensity triple floors its own scale
    scale = np.maximum(np.abs(fine), 1e-300)
    if np.any(np.abs(fine - coarse) > QUAD_RTOL * np.maximum(scale, scale.max(axis=0) * 1e-6)):
        raise NumericsError(f"{what}: quadrature did not stabilize to {QUAD_RTOL} "
                            f"relative after one node doubling")
    return fine


@lru_cache(maxsize=8)
def _circle_cosines(nodes):
    """Cosines of the A-B, B-C and A-C phase differences on the (2 nodes)^2
    grid of (phi_AB, phi_AC), shaped (2 nodes, 1), (2 nodes, 2 nodes) and
    (1, 2 nodes)."""
    phi = np.arange(2 * nodes) * (np.pi / nodes)
    pab, pac = phi[:, None], phi[None, :]
    cosines = (np.cos(pab), np.cos(pac - pab), np.cos(pac))
    for c in cosines:
        c.setflags(write=False)
    return cosines


def _x_outcome_quad(signs, ia, ib, ic, p_d):
    """The outcome gains by the trapezoid rule on QUAD_NODES^2 and on
    (2 QUAD_NODES)^2 phase points, as (2, P) arrays for P arriving-intensity
    triples (arrays of length P).

    The integrand is periodic and analytic in both phases, so the equispaced
    trapezoid rule converges geometrically on it; the coarse rule is the
    even-indexed subgrid of the fine one, so one evaluation serves both.
    """
    ia, ib, ic = (np.reshape(v, (-1, 1, 1)) for v in (ia, ib, ic))
    # mean() sums each triple's contiguous row (the subgrid is copied into
    # one) pairwise, which keeps the rounding small enough for the decoy
    # differences that amplify it at long distance
    rows = len(ia)
    coarse, fine = [], []
    for s, free in _outcome_sums(ia, ib, ic, signs, _circle_cosines(QUAD_NODES), p_d):
        subgrid = free.reshape(-1)[:free.size // 4].reshape(rows, QUAD_NODES, QUAD_NODES)
        np.copyto(subgrid, s[:, ::2, ::2])
        coarse.append(subgrid.reshape(rows, -1).mean(axis=-1) / 8.0)
        fine.append(s.reshape(rows, -1).mean(axis=-1) / 8.0)
    return np.array(coarse), np.array(fine)


def mermin_outcome_gains(signs: tuple[int, int, int], mu, nu, omega, eta: float,
                         p_d: float):
    """Gains of the two announced outcomes for one diagonal-basis sign triple,
    phase-averaged over the full circle (two-angle periodic trapezoid rule).

    Any subset of the intensities may be zero; the vanishing cross terms make
    those cases exact.  Returns (correct-class gain, other-class gain) with
    the correct class being the one a (+,+,+) triple feeds.  Given sequences
    of intensities, one evaluation returns a list of each gain, one entry per
    triple, and every triple is certified on its own.

    Flipping every sign swaps the two detectors of each pair exactly, so the
    flipped triple's gains are these two, swapped: (+,+,+) gives both the
    all-"+" and the all-"-" correct-outcome gains of the Mermin witness.
    """
    ia, ib, ic = (np.multiply(m, eta) for m in (mu, nu, omega))
    q = _certified(*_x_outcome_quad(signs, ia, ib, ic, p_d), "diagonal-basis gain").tolist()
    return tuple(g[0] for g in q) if np.ndim(mu) == 0 else tuple(q)


def x_gain_components(mu: float, nu: float, omega: float, eta: float,
                      p_d: float) -> XGainComponents:
    """Diagonal-basis gains for the reference (+,+,+) preparation."""
    e, f = mermin_outcome_gains((1, 1, 1), mu, nu, omega, eta, p_d)
    return XGainComponents(e=e, f=f)


# The phase-difference domain is the hexagon with vertices h * (1, 0), (1, 1),
# (0, 1), (-1, 0), (-1, -1), (0, -1).  Outer corners of its first three
# triangles at the origin; the other three are their negatives.
_TRIANGLES = (((1, 0), (1, 1)), ((1, 1), (0, 1)), ((0, 1), (-1, 0)))


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
    x, wx = np.polynomial.legendre.leggauss(n)
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


def _sliced_quad(ia, ib, ic, p_d, k, nodes):
    # Over [0, h]^3, h = pi/K, the integrand depends on the phases only
    # through a = phi_A - phi_B and b = phi_C - phi_B; the third phase
    # integrates out exactly into the hexagon weight.
    cosines, weight = _hexagon_rule(nodes, k)
    return [np.multiply(s, weight, out=s).sum() / (k * k)
            for s, _ in _outcome_sums(ia, ib, ic, (1, 1, 1), cosines, p_d)]


def phase_sliced_gains(mu: float, nu: float, omega: float, eta: float,
                       p_d: float, k: int) -> SlicedGains:
    """Diagonal-basis gains of matched-phase-region events, K regions.

    The returned gains are per emitted pulse triple: they contain the 1/K^2
    probability that the three announced regions coincide (all matched-region
    pairs share the same conditional statistics, so only the first region is
    integrated).  At K = 1 this reduces exactly to the full phase average.
    """
    ia, ib, ic = mu * eta, nu * eta, omega * eta
    pair = _certified(_sliced_quad(ia, ib, ic, p_d, k, QUAD_NODES),
                      _sliced_quad(ia, ib, ic, p_d, k, 2 * QUAD_NODES), "phase-sliced gain")
    return SlicedGains(q_c=float(pair[0]), q_e=float(pair[1]))


# ---------------------------------------------------------------------------
# Gain-set assembly (shared by every source model)
# ---------------------------------------------------------------------------

def assemble_gain_set(z: ZGainComponents, x: XGainComponents, e_d: float) -> GainSet:
    """Combine class gains into totals, pairwise splits, and error rates.

    Correct/false bookkeeping per class: the same-polarization class is the
    only correct one for the three-way key; the pairwise (Alice-Bob /
    Alice-Charlie) splits reshuffle the mixed classes.
    """
    a, b, c, d = z.a, z.b, z.c, z.d
    q_cz = 4.0 * a
    q_ez = 4.0 * (b + c + d)
    q_z = q_cz + q_ez
    q_czab = 4.0 * a + 2.0 * b + 2.0 * d
    q_ezab = 2.0 * b + 4.0 * c + 2.0 * d
    q_czac = 4.0 * a + 2.0 * c + 2.0 * d
    q_ezac = 4.0 * b + 2.0 * c + 2.0 * d
    q_cx = 8.0 * x.e
    q_ex = 8.0 * x.f
    q_x = q_cx + q_ex

    return GainSet(
        q_z=q_z, q_cz=q_cz, q_ez=q_ez,
        q_czab=q_czab, q_ezab=q_ezab, q_czac=q_czac, q_ezac=q_ezac,
        q_x=q_x, q_cx=q_cx, q_ex=q_ex,
        e_x=None if q_x == 0.0 else (e_d * q_cx + (1.0 - e_d) * q_ex) / q_x,
        e_d=e_d,
    )


def wcs_gain_sets(triples, params: SystemParams) -> list[GainSet]:
    """Full weak-coherent GainSets at the params' distance, one per intensity
    triple (mu, nu, omega), with one stacked quadrature for every triple."""
    eta = overall_efficiency(params.channel, params.detector)
    p_d = params.detector.p_d
    x = zip(*mermin_outcome_gains((1, 1, 1), *zip(*triples), eta, p_d))
    return [assemble_gain_set(z_gain_components(*t, eta, p_d), XGainComponents(*xt),
                              params.e_d) for t, xt in zip(triples, x)]


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


def thinned_gain_sets(comps, levels, index_triples, thinning, e_d) -> list[GainSet]:
    """GainSets of independent users, one per triple of indices into `levels`
    (photon-number distributions): each level is thinned by the detector
    efficiency once, and each triple's joint thinned weights are contracted
    against the ideal-detector class components (6, k, k, k).  Every term is
    nonnegative, so the sums keep full relative precision."""
    k = comps.shape[-1]
    flat = comps.reshape(len(comps), -1)
    thinned = [_thin(np.asarray(x, dtype=float)[:len(thinning)], thinning, k) for x in levels]
    sets = []
    for triple in index_triples:
        a, b, c = (thinned[i] for i in triple)
        w = (a[:, None] * b[None, :])[:, :, None] * c[None, None, :]
        q = (flat @ w.ravel()).tolist()
        sets.append(assemble_gain_set(ZGainComponents(*q[:4]), XGainComponents(*q[4:]), e_d))
    return sets


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
