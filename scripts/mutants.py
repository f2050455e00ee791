#!/usr/bin/env python3
"""Run the mutation catalogue: each entry breaks one contract, and Tier-1 must fail.

    python scripts/mutants.py

Run from the root of a checkout.  The tree is copied once to a temporary
directory (no .git, caches or outputs), and Tier-1 runs there unmutated
first: if it fails, no mutant can be judged, and the script exits 1.  Then
each entry replaces its old text, which must occur exactly once in its file,
by its new text, runs Tier-1 with `-x` there and puts the file back; it is
killed if Tier-1 fails or runs past TIMEOUT_S.  One line per entry gives the
verdict and the time taken.  An equivalent mutant (one that cannot change
any output) is listed with its reason and not run.  Exits 1 if a
non-equivalent mutant survives or an entry's old text is not found exactly
once.  Only the standard library and pytest are used.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 900
TIER1 = ("-m", "pytest", "-q", "-x", "--continue-on-collection-errors", "-p", "no:cacheprovider")


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    contract: str
    equivalent: str | None = None  # why it cannot change an output; not run


GAINS, FOCK, DECOY = "src/mdighz/gains.py", "src/mdighz/fock.py", "src/mdighz/decoy.py"
CHECKS, KEYRATES = "src/mdighz/checks.py", "src/mdighz/keyrates.py"
PARAMS, MONTECARLO = "src/mdighz/params.py", "src/mdighz/montecarlo.py"

CATALOGUE = (
    # -- the thirteen one-line mutants of the ROADMAP's re-anchor (b9292e6)
    Mutant("gadget-vacuum-sign", DECOY, "total -= w[0] * extract(grid[0])",
           "total += w[0] * extract(grid[0])",
           "the decoy gadget removes the all-vacuum pattern"),
    Mutant("bracket-slack", CHECKS, "BRACKET_SLACK = 1e-12", "BRACKET_SLACK = 1e-3",
           "a decoy bound may pass the exact value by roundoff only"),
    Mutant("quadrature-rounding", GAINS, "_ROUNDING = 2.0 ** -52", "_ROUNDING = 2.0 ** -30",
           "a rung is taken only if its bound is below float64 rounding"),
    Mutant("quadrature-rtol", GAINS, "QUAD_RTOL = 1e-8", "QUAD_RTOL = 1e-2",
           "the top rung certifies every gain to 1e-8 relative"),
    Mutant("mc-sigmas", CHECKS, "MC_SIGMAS = 3.0", "MC_SIGMAS = 30.0",
           "a Monte Carlo row passes within 3 standard errors"),
    Mutant("symmetry-rtol", CHECKS, "SYMMETRY_RTOL = 1e-10", "SYMMETRY_RTOL = 1e-2",
           "values that should be equal agree to 1e-10"),
    Mutant("group-click-dark-count", GAINS,
           "return -expm1(-intensity / 2.0) + p_d * exp(-intensity / 2.0)",
           "return -expm1(-intensity / 2.0)",
           "the pattern-product click includes the dark count"),
    Mutant("entropy-domain-slack", PARAMS, "ENTROPY_DOMAIN_SLACK = 1e-15",
           "ENTROPY_DOMAIN_SLACK = 1e-6",
           "an entropy argument outside [0, 1] beyond rounding is an error"),
    Mutant("same-polarization-rtol", GAINS, "A_CONSISTENCY_RTOL = 1e-12",
           "A_CONSISTENCY_RTOL = 1.0",
           "the two same-polarization forms agree to 1e-12 or refuse"),
    Mutant("yield-bound-floor", DECOY, "    if raw < 0.0:", "    if raw < -1e-3:",
           "a negative yield bound is floored at 0 with a diagnostic"),
    Mutant("error-bound-cap", DECOY, "        if raw > 0.5:", "        if raw > 0.6:",
           "an error bound above 1/2 is capped with a diagnostic"),
    Mutant("closed-form-tol", CHECKS, "CLOSED_FORM_TOL = 1e-12", "CLOSED_FORM_TOL = 1e-3",
           "fock:closed-form holds the table to 1e-12"),
    Mutant("strip-widths", GAINS, "4.0, 5.0, 6.0, 8.0, 10.0])[:, None]",
           "4.0, 5.0, 6.0, 8.0, 30.0])[:, None]",
           "the circle bound takes its least value over the strips",
           equivalent="the integrand is entire, so the strip bound holds for any "
                      "half-width; a wider strip only adds a candidate to a minimum"),
    # -- hand mutations recorded in CHANGES.md
    Mutant("certificate-floor-over-stack", GAINS, "scale.max(axis=0) * 1e-6",
           "scale.max() * 1e-6", "each triple's certificate floor is its own"),
    Mutant("rungs-one-per-chunk", GAINS,
           "for r, run in itertools.groupby(_rungs(bound, t)):",
           "for r, run in itertools.groupby([max(_rungs(bound, t))] * (bound.shape[1] // t)):",
           "each stacked row takes the rung its own triples need"),
    Mutant("circle-bound-too-small", GAINS, "weight = 2.0 / np.expm1(",
           "weight = 0.2 / np.expm1(", "the trapezoid error bound covers the error"),
    Mutant("hexagon-fold-factor", GAINS, "np.outer(2.0 * wu * u * (1.0 - u), wu)",
           "np.outer(wu * u * (1.0 - u), wu)",
           "the hexagon rule folds the three opposite triangles in"),
    Mutant("hexagon-phase-difference", GAINS, "np.cos(h * (a - b))", "np.cos(h * (a + b))",
           "the A-C phase difference is a - b on the hexagon"),
    Mutant("pair-factor-partner", GAINS,
           "return np.multiply(n0, s1, out=t), np.multiply(n1, s0, out=n1)",
           "return np.multiply(n0, s0, out=t), np.multiply(n1, s1, out=n1)",
           "a clicked detector's partner is the silent one"),
    Mutant("weight-pieces-1mib", GAINS, "_WEIGHT_FLOATS = 2 ** 14", "_WEIGHT_FLOATS = 2 ** 17",
           "a Fock contraction piece stays within 128 KiB"),
    Mutant("weight-piece-overlap", GAINS, "np.arange(s, min(s + step, stop))",
           "np.arange(s, min(s + step + 1, stop))",
           "the pieces tile the rows' triples, each within the one weight buffer"),
    Mutant("weight-piece-shift", GAINS, "np.arange(s, min(s + step, stop))",
           "np.arange(s + 1, min(s + step + 1, stop))", "each piece's gains go to its own triples"),
    Mutant("contraction-gemm", GAINS,
           "np.matmul(flat, piece.reshape(len(row), -1, 1), out=q[s - start:s - start + len(row)])",
           "q[s - start:s - start + len(row), :, 0] = piece.reshape(len(row), -1) @ flat.T",
           "one gemv per triple, bit-identical to one row at a time"),
    Mutant("grid-levels-swapped", DECOY, "mus = (0.0, plan.mu1, plan.mu2)",
           "mus = (0.0, plan.mu2, plan.mu1)", "GRID's level 1 is the decoy, 2 the signal"),
    Mutant("grid-length-unchecked", DECOY, "if len(grid) != len(GRID):", "if False:",
           "a gain grid holds the 15 gains of GRID"),
    Mutant("table-interference-sign", FOCK, "_RE_I = np.array((1, 0, -1, 0))",
           "_RE_I = np.array((1, 0, 1, 0))", "the ideal-detector table's interference signs"),
    Mutant("table-outcomes-swapped", FOCK,
           "np.stack((even[:, 0] + odd[:, 0], even[:, 0] - odd[:, 0]), axis=1)",
           "np.stack((even[:, 0] - odd[:, 0], even[:, 0] + odd[:, 0]), axis=1)",
           "the dark-free parity decides the announced outcome"),
    Mutant("table-one-h-pin-as-v", FOCK,
           "need = pins[0] | pins[1] << 2 | pins[2] << 4",
           "need = pins[0] | pins[1] << 2 | pins[2] << 4\n    need[0] += need[0] & 1",
           "each preparation's H-only party keeps only its all-H splits"),
    Mutant("table-one-power-off-by-one", FOCK,
           "turn = (turns[0] + turns[1] + turns[2]) % 4",
           "turn = (turns[0] + turns[1] + turns[2]) % 4\n    turn[-1] = (turn[-1] + 1) % 4",
           "each preparation interferes with its own power of i"),
    Mutant("contraction-piece-transposed", GAINS, '"ij,ik->ijk"', '"ij,ik->ikj"',
           "a piece's joint weights keep the photon-number axes of the class components"),
    Mutant("thinning-unit-efficiency", FOCK,
           "lost = np.exp(k * np.log1p(-eta)) if eta < 1.0 else (k == 0).astype(float)",
           "lost = np.exp(k * np.log1p(-eta))", "at eta = 1 every photon survives"),
    Mutant("search-no-retry", KEYRATES,
           "trials = [_points(variant, cfg, model, [row])[0] for row in rows]", "raise",
           "a refused round is evaluated again one trial at a time"),
    Mutant("oracle-halved", MONTECARLO, "McEstimate(int(count), cfg.samples)",
           "McEstimate(int(count) // 2, cfg.samples)", "the oracle counts every event"),
    Mutant("oracle-chunk-zero", MONTECARLO, "total = sum(pool.map(counts, range(chunks)))",
           "total = sum(pool.map(counts, [0] * chunks))",
           "every pool task draws its own chunk's substream"),
    # -- one loosening of each remaining tolerance constant and clamp
    Mutant("truncation-budget", GAINS, "tail_budget: float = 1e-12) -> np.ndarray:",
           "tail_budget: float = 1e-3) -> np.ndarray:",
           "the photon-number truncation tail stays within 1e-12"),
    Mutant("truncation-floor", GAINS, "floor = tail_budget / 4096.0", "floor = tail_budget",
           "the kept triples' floor leaves the tail within the budget"),
    Mutant("bessel-series-cutoff", GAINS,
           "going = terms > 1e-20 * np.maximum(parts, 1e-300)",
           "going = terms > 1e-8 * np.maximum(parts, 1e-300)",
           "the I0 series runs to 1e-20 relative"),
    Mutant("entropy-clamp", PARAMS, "x = min(1.0, max(0.0, x))", "x = min(1.0, x)",
           "an entropy argument within the slack below 0 is clamped"),
    Mutant("rate-clamp", KEYRATES, "return max(0.0, raw), raw, tuple(diags)",
           "return raw, raw, tuple(diags)", "a printed rate is clamped at 0"),
    # -- the row-stacked closed forms, assembly and exact reference
    Mutant("row-consistency-dropped", GAINS, "refused = disagree | np.isinf(f)",
           "refused = np.isinf(f)", "the row path refuses disagreeing same-polarization forms"),
    Mutant("row-refusal-check-anywhere-first", GAINS, "k = int(np.argmax(refused))",
           "k = int(np.argmax(disagree if disagree.any() else refused))",
           "the first refused triple of the first refused row is the one named"),
    Mutant("row-refusal-overflow-first", GAINS, "        if disagree.flat[k]:",
           "        if disagree.flat[k] and not np.isinf(f).any(axis=0).flat[k]:",
           "one triple's check comes before its overflow"),
    Mutant("row-click-dark-count", GAINS,
           "click = -_math_at(expm1, -half) + p_d * surv",
           "click = -_math_at(expm1, -half)", "the closed-form click includes the dark count"),
    Mutant("row-pair-factors-swapped", GAINS, "e * f[1] * pair[0], e * f[2] * pair[1]",
           "e * f[1] * pair[1], e * f[2] * pair[0]",
           "class b interferes Alice-Charlie, class c Alice-Bob"),
    Mutant("row-exp-through-numpy", GAINS, "e = (p_d / 2.0) * w ** 3 * _math_at(exp, -total)",
           "e = (p_d / 2.0) * w ** 3 * np.exp(-total)",
           "the closed forms' exponentials stay in libm, bit-identical to one triple"),
    Mutant("assembly-block-replaces", GAINS,
           "sets += assemble_gain_set(*q[:stop - start, :, 0].T, e_d)",
           "sets = assemble_gain_set(*q[:stop - start, :, 0].T, e_d)",
           "the sets of every assembly block are kept, in triple order"),
    Mutant("assembly-sum-order", GAINS, "cz, ez = 4.0 * a, 4.0 * (b + c + d)",
           "cz, ez = 4.0 * a, 4.0 * (b + (c + d))",
           "the assembly keeps the float operations of a lone set"),
    Mutant("assembly-no-signal-nan", GAINS, "        if gs[1] == 0.0:",
           "        if gs[1] != gs[1]:", "no signal gives e_x None, never NaN"),
    Mutant("exact-contraction-einsum", FOCK,
           "y = np.matmul(y, one.reshape((-1,) + (1,) * axes + (2, 1)))[..., 0]",
           "y = np.einsum('...ij,...j->...i', y, one.reshape((-1,) + (1,) * axes + (2,)))",
           "the batched contraction is bit-identical to one efficiency at a time"),
    Mutant("exact-asked-every-call", KEYRATES, "    if new:", "    if True:",
           "a source model asks once for the exact reference of each efficiency"),
    Mutant("exact-sum-order", FOCK,
           "y111_z = sum(y_z[:, t, 0] + y_z[:, t, 1] for t in range(8)) / 8.0",
           "y111_z = y_z.sum(axis=(1, 2)) / 8.0",
           "the ensemble sums keep the order of sum() over the triples"),
)


def apply(text: str, mutant: Mutant) -> str:
    count = text.count(mutant.old)
    if count != 1:
        raise LookupError(f"{mutant.name}: old text found {count} times in {mutant.path}")
    return text.replace(mutant.old, mutant.new)


def tier1(tree: Path) -> tuple[bool, float]:
    """(passed, seconds) of Tier-1 with -x on the tree; a run past TIMEOUT_S fails."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    start = time.monotonic()
    try:
        code = subprocess.run([sys.executable, *TIER1], cwd=tree, env=env, timeout=TIMEOUT_S,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
    except subprocess.TimeoutExpired:
        code = None
    return code == 0, time.monotonic() - start


def run(tree: Path, mutant: Mutant) -> tuple[bool, float]:
    """(killed, seconds) of Tier-1 on the tree with the mutant applied."""
    path = tree / mutant.path
    original = path.read_text()
    path.write_text(apply(original, mutant))
    try:
        passed, seconds = tier1(tree)
    finally:
        path.write_text(original)
    return not passed, seconds


def main() -> int:
    bad = []
    for m in CATALOGUE:  # every entry must apply before anything runs
        try:
            apply((ROOT / m.path).read_text(), m)
        except LookupError as exc:
            bad.append(str(exc))
    if bad:
        print("\n".join(bad))
        return 1
    survivors = []
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks", "out"))
        passed, seconds = tier1(tree)
        if not passed:
            print(f"baseline fails: Tier-1 fails on the unmutated tree ({seconds:.1f}s), "
                  f"so no mutant can be judged")
            return 1
        print(f"{'baseline':10} {seconds:6.1f}s  Tier-1 passes on the unmutated tree", flush=True)
        for m in CATALOGUE:
            if m.equivalent:
                print(f"{'equivalent':10} {'':>7}  {m.name}: {m.equivalent}", flush=True)
                continue
            killed, seconds = run(tree, m)
            print(f"{'killed' if killed else 'SURVIVED':10} {seconds:6.1f}s  {m.name}: "
                  f"{m.contract}", flush=True)
            if not killed:
                survivors.append(m.name)
    if survivors:
        print(f"{len(survivors)} non-equivalent mutants survived: {', '.join(survivors)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
