"""Benchmark of the mdighz command line: one workload per invocation.

    python3 perfbench/run.py --workload wcs_sweep --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. Every repetition is a fresh process
(perfbench/worker.py) that imports mdighz from the checkout's src/ and drives
`mdighz.cli.main(argv)` with default flags: no --workers, so one thread per
sweep. The seed is passed as --seed to every command. Repetitions start
until --seconds have passed; the figures reported are medians over them.

--trace 0 reports the end-to-end metrics:
  wall_s        first command's start to last command's return, after imports
  setup_s       process spawn until mdighz.cli is imported and ready
  peak_rss_mb   peak resident memory of the workload process
  correct_frac  outputs matching perfbench/reference/ over outputs attempted;
                an output is a CSV row, an optimize result or a validate check
--trace 1 alternates untraced repetitions with repetitions in which every
public function of the package is wrapped (perfbench/tracer.py), for --seconds
and at least TRACE_PAIRS pairs. It reports the per-layer metrics of PER_LAYER
as medians over the traced repetitions, and trace.overhead_s, the median of
the pairs' wall-time differences.

The last line of standard output is the result JSON. The line before it holds
the per-run detail: machine facts, every sample, and mismatches.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import LAYERS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"
OUT_DIR = BENCH_DIR / "out"

REL_TOL = 1e-10  # the golden-curve tolerance of the roadmap
SETUP_SAMPLES = 11  # set-up times per run, from workload and import-only processes
TRACE_PAIRS = 3  # untraced/traced pairs per traced run, at least
# `mdighz validate --quick`: Monte Carlo samples per run, and the exit code of
# a run in which some check printed FAIL.
MC_SAMPLES = 100_000
EXIT_VALIDATION = 3
MC_SIGMAS = 5.0  # band of a Monte Carlo estimate around the reference analytic value
RESIDUAL = 1e-12  # validate values below this are roundoff residuals, equal to 0
WORKER_TIMEOUT_S = 150
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass(frozen=True)
class Command:
    name: str  # names the output CSV and its reference
    argv: tuple[str, ...]  # without --out and --seed
    kind: str = "csv"  # "csv": compare every row; "validate": see validate_row_ok


WORKLOADS = {
    # The diagonal-basis quadrature (gains.mermin_outcome_gains) takes ~90% of
    # the time and the phase-sliced quadrature most of the rest; Fock < 3%.
    "wcs_sweep": (
        Command("qcc_eta40", ("qcc", "--config", "configs/qcc_eta40.cfg", "--quick")),
        Command("qss_pps_eta40", ("qss", "--config", "configs/qss_pps_eta40.cfg", "--quick")),
        Command("mermin_eta40", ("mermin", "--config", "configs/mermin_eta40.cfg", "--quick")),
    ),
    # The mirror image: no quadrature; ~96% in fock.ghz_outcome_yields plus
    # the cold exact-Fraction build in fock.propagate_parties.
    "fock_sweep": (
        Command("qss_heralded_eta40",
                ("qss", "--config", "configs/qss_heralded_eta40.cfg", "--quick")),
        Command("qss_qnd_eta40", ("qss", "--config", "configs/qss_qnd_eta40.cfg", "--quick")),
    ),
    # The gains layers of wcs_sweep at one distance and many intensities: a
    # change that batches or caches across distances must not move it.
    "intensity_search": (
        Command("optimize_qcc_100km", ("optimize", "--config", "configs/qcc_eta40.cfg",
                                       "--variant", "qcc", "--at", "100", "--box", "0.2:0.8")),
        Command("optimize_qss_100km", ("optimize", "--config", "configs/qss_pps_eta40.cfg",
                                       "--variant", "qss", "--at", "100", "--box", "0.05:0.3")),
    ),
    # The only workload that runs the Monte Carlo oracle (montecarlo layer). Its
    # own bright config gives every Monte Carlo check hundreds of counts.
    "validate": (
        Command("validate", ("validate", "--config", "perfbench/validate_bright.cfg",
                             "--quick"), kind="validate"),
    ),
}

# Per-layer metrics: "<span or group>.<statistic>". A span is a wrapped
# function "<module>.<name>"; a bare module name sums all of its spans. The
# comments name the end-to-end metric each group should move.
GROUPS = {"keyrates.rate_assembly": ("keyrates.qcc_rate", "keyrates.qss_rate",
                                     "keyrates.qss_pps_rate")}
STAT_UNITS = {"calls": "count", "self_s": "s", "ms_per_call_p50": "ms",
              "ms_per_call_p90": "ms", "cache_hits": "count", "cache_misses": "count",
              "hit_ratio": "ratio", "samples": "count", "samples_per_s": "1/s"}
PER_LAYER = (
    # diagonal quadrature: wall_s of wcs_sweep and intensity_search, not fock_sweep
    [f"gains.mermin_outcome_gains.{s}"
     for s in ("calls", "self_s", "ms_per_call_p50", "ms_per_call_p90")]
    # phase-sliced quadrature: wall_s of wcs_sweep
    + [f"gains.phase_sliced_gains.{s}" for s in ("calls", "self_s", "ms_per_call_p50")]
    # rectilinear closed forms; Fock-yield sums: wall_s of fock_sweep
    + ["gains.z_gain_components.self_s", "gains.gains_from_number_distributions.self_s",
       "gains.gains_qnd.self_s", "fock.ghz_outcome_yields.calls",
       "fock.ghz_outcome_yields.self_s"]
    # cold exact build: wall_s of fock_sweep, or setup_s if it moves to import
    + [f"fock.propagate_parties.{s}"
       for s in ("calls", "self_s", "cache_hits", "cache_misses", "hit_ratio")]
    + ["fock.exact_single_photon_stats.self_s"]
    # decoy estimators: under 1% everywhere, expected to stay so
    + [f"decoy.{fn}.{s}" for fn in ("build_gain_grid", "wcs_bounds", "heralded_bounds",
                                    "mermin_yield_bounds", "heralded_stats")
       for s in ("calls", "self_s")]
    # batching distances cuts rate_point calls on sweeps, not on optimize
    + [f"keyrates.{fn}.{s}" for fn in ("sweep", "rate_point", "optimize_intensities")
       for s in ("calls", "self_s")]
    + ["keyrates.rate_assembly.self_s", "mermin.mermin_curve.self_s",
       "mermin.mermin_lower_bound.self_s"]
    # Monte Carlo oracle: wall_s of validate
    + [f"montecarlo.mc_coherent_gains.{s}"
       for s in ("calls", "self_s", "samples", "samples_per_s")]
    + ["montecarlo.fock_closed_form_check.self_s", "cli.main.self_s", "params.self_s"]
)


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

def command_lines(workload: str, seed: int, out_dir: Path) -> list[list[str]]:
    lines = []
    for cmd in WORKLOADS[workload]:
        argv = list(cmd.argv)
        argv[argv.index("--config") + 1] = str(ROOT / argv[argv.index("--config") + 1])
        lines.append(argv + ["--out", str(out_dir / f"{cmd.name}.csv"),
                             "--seed", str(seed)])
    return lines


def spawn(commands: list[list[str]], trace: bool = False) -> dict:
    """Run one worker process; returns its report plus setup_s."""
    spec = json.dumps({"src": str(SRC), "commands": commands, "trace": trace})
    spawned = time.monotonic()
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "worker.py"), spec],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    report = json.loads(lines[-1])
    report["setup_s"] = report["ready"] - spawned
    report["stderr"] = proc.stderr
    return report


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------

def read_rows(path: Path) -> list[list[str]]:
    """CSV rows without the '#' header lines (they carry seed and digest)."""
    with path.open(newline="") as fh:
        return list(csv.reader(line for line in fh if not line.startswith("#")))


def _same_cell(want: str, got: str, column: str) -> bool:
    if column == "diagnostics" or want == got:
        return want == got
    try:
        a, b = float(want), float(got)
    except ValueError:
        return False
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _split_check(row: list[str], header: list[str]) -> dict:
    """A validate row by column; check names may hold unquoted commas."""
    name_cells = len(row) - len(header) + 1
    return dict(zip(header, [",".join(row[:name_cells])] + row[name_cells:]))


def _residual(cell: str) -> bool:
    try:
        return abs(float(cell)) < RESIDUAL
    except ValueError:
        return False


def validate_row_ok(want: list[str], have: list[str], header: list[str]) -> bool:
    """One validate check against its reference row.

    The analytic value must match. A Monte Carlo estimate depends on the seed,
    so it must lie within MC_SIGMAS standard errors of the reference analytic
    value; the CLI's own 3-sigma test fails a correct oracle on about 3% of
    seeds, so its pass/FAIL is not used for these rows. Every other check must
    pass and match its estimate too.
    """
    want, have = _split_check(want, header), _split_check(have, header)
    if want["check"] != have["check"] or not _same_cell(want["analytic"],
                                                        have["analytic"], "analytic"):
        return False
    if have["check"].startswith("mc:"):
        p = float(want["analytic"])
        try:
            estimate = float(have["estimate"])
        except ValueError:
            return False
        return abs(estimate - p) <= MC_SIGMAS * math.sqrt(p * (1.0 - p) / MC_SAMPLES)
    return have["status"] == "pass" and (
        _same_cell(want["estimate"], have["estimate"], "estimate")
        or (_residual(want["estimate"]) and _residual(have["estimate"])))


def check_output(cmd: Command, path: Path, exit_code: int) -> tuple[int, list[str]]:
    """Compare one command's output to its reference.

    Returns (outputs attempted, mismatch messages); one message per failed
    output. A nonzero exit fails every expected output, except that validate
    may exit EXIT_VALIDATION: its rows then say which checks failed.
    """
    reference = read_rows(REFERENCE_DIR / f"{cmd.name}.csv")
    header, expected = reference[0], reference[1:]
    allowed = (0, EXIT_VALIDATION) if cmd.kind == "validate" else (0,)
    if exit_code not in allowed or not path.exists():
        return len(expected), [f"{cmd.name}: exit {exit_code}"] * len(expected)
    got = read_rows(path)
    if not got or got[0] != header:
        return len(expected), [f"{cmd.name}: header {got[:1]}"] * len(expected)
    rows = got[1:]
    failures = []
    for i in range(max(len(expected), len(rows))):
        want = expected[i] if i < len(expected) else None
        have = rows[i] if i < len(rows) else None
        if want is None or have is None or len(want) != len(have):
            ok = False
        elif cmd.kind == "validate":
            ok = validate_row_ok(want, have, header)
        else:
            ok = all(_same_cell(w, h, c) for w, h, c in zip(want, have, header))
        if not ok:
            failures.append(f"{cmd.name} row {i}: want {want} got {have}")
    return max(len(expected), len(rows)), failures


def run_and_check(workload: str, seed: int, trace: bool = False) -> tuple[dict, int, list]:
    out_dir = OUT_DIR / workload
    out_dir.mkdir(parents=True, exist_ok=True)
    for cmd in WORKLOADS[workload]:
        (out_dir / f"{cmd.name}.csv").unlink(missing_ok=True)
    report = spawn(command_lines(workload, seed, out_dir), trace)
    attempted, failures = 0, []
    for cmd, code in zip(WORKLOADS[workload], report["exit_codes"]):
        n, bad = check_output(cmd, out_dir / f"{cmd.name}.csv", code)
        attempted += n
        failures += bad
    return report, attempted, failures


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def members(spans: dict, group: str) -> list[dict]:
    """The spans a metric group covers; empty when its functions are gone."""
    if group in GROUPS:
        return [spans[label] for label in GROUPS[group] if label in spans]
    if group in LAYERS:
        return [entry for label, entry in spans.items() if label.startswith(group + ".")]
    return [spans[group]] if group in spans else []


def layer_metrics(spans: dict, overhead_s: float) -> dict:
    """PER_LAYER metrics from a traced run; an absent function reads 0."""
    metrics = {}
    for name in PER_LAYER:
        group, stat = name.rsplit(".", 1)
        entries = members(spans, group)
        calls = sum(e["calls"] for e in entries)
        self_s = sum(e["self_s"] for e in entries)
        hits = sum(e.get("cache_hits", 0) for e in entries)
        misses = sum(e.get("cache_misses", 0) for e in entries)
        samples = sum(e["observed"] for e in entries)
        value = {
            "calls": calls,
            "self_s": self_s,
            "ms_per_call_p50": 1e3 * max((e.get("p50_s", 0.0) for e in entries), default=0.0),
            "ms_per_call_p90": 1e3 * max((e.get("p90_s", 0.0) for e in entries), default=0.0),
            "cache_hits": hits,
            "cache_misses": misses,
            "hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "samples": samples,
            "samples_per_s": samples / self_s if self_s > 0 else 0.0,
        }[stat]
        metrics[name] = {"value": value, "unit": STAT_UNITS[stat]}
    metrics["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
    return metrics


def layer_shares(spans: dict) -> dict:
    """Self time of each layer as a share of all traced self time."""
    totals = {layer: 0.0 for layer in LAYERS}
    for label, entry in spans.items():
        totals[label.split(".", 1)[0]] += entry["self_s"]
    whole = sum(totals.values()) or 1.0
    return {layer: round(t / whole, 4) for layer, t in totals.items()}


def machine_facts(seed: int, versions: dict) -> dict:
    """What must match for two results to be comparable."""
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            **versions,
            "thread_env": {k: os.environ[k] for k in THREAD_ENV if k in os.environ},
            "git_commit": git_commit(), "src_sha256": src_digest(), "seed": seed}


def git_commit() -> str | None:
    """HEAD, or None outside a git checkout (src_sha256 still names the code)."""
    if not (ROOT / ".git").exists():  # else git would report an enclosing repository
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "mdighz").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float) -> tuple[dict, dict, int, list]:
    """Untraced repetitions until `seconds` are used; medians of the samples."""
    spawn([])  # warm-up: byte-compiles src/ and warms the file cache
    start = time.monotonic()
    reps, attempted, failures = [], 0, []
    while True:
        report, n, bad = run_and_check(workload, seed)
        reps.append(report)
        attempted += n
        failures += bad
        if time.monotonic() - start >= seconds:
            break
    setups = [r["setup_s"] for r in reps]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn([])["setup_s"])
    walls = [r["wall_s"] for r in reps]
    rss = [r["peak_rss_kb"] / 1024.0 for r in reps]
    metrics = {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
        "correct_frac": {"value": 1.0 - len(failures) / attempted, "unit": "ratio"},
    }
    detail = {"repetitions": len(reps), "wall_s": walls, "setup_s": setups,
              "peak_rss_mb": rss, "versions": reps[0]["versions"]}
    return metrics, detail, attempted, failures


def trace(workload: str, seed: int, seconds: float) -> tuple[dict, dict, int, list]:
    """Untraced/traced pairs for `seconds`, at least TRACE_PAIRS; per-layer medians.

    Pairing each traced repetition with an untraced one just before it keeps
    the machine's slow drift out of trace.overhead_s.
    """
    spawn([])
    start = time.monotonic()
    plain, traced, attempted, failures = [], [], 0, []
    while len(traced) < TRACE_PAIRS or time.monotonic() - start < seconds:
        for reps, tracing in ((plain, False), (traced, True)):
            report, n, bad = run_and_check(workload, seed, trace=tracing)
            reps.append(report)
            attempted += n
            failures += bad
    overhead = statistics.median(t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced))
    per_rep = [layer_metrics(t["spans"], overhead) for t in traced]
    metrics = {name: {"value": statistics.median(m[name]["value"] for m in per_rep),
                      "unit": entry["unit"]} for name, entry in per_rep[0].items()}
    shares = [layer_shares(t["spans"]) for t in traced]
    spans = traced[0]["spans"]
    absent = sorted({name.rsplit(".", 1)[0] for name in PER_LAYER
                     if not members(spans, name.rsplit(".", 1)[0])})
    detail = {"wall_s_untraced": [p["wall_s"] for p in plain],
              "wall_s_traced": [t["wall_s"] for t in traced],
              "layer_shares": {layer: statistics.median(s[layer] for s in shares)
                               for layer in LAYERS},
              "absent": absent, "absent_layers": traced[0]["absent_layers"],
              "versions": traced[0]["versions"]}
    return metrics, detail, attempted, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mdighz" / "cli.py").is_file():
        print(f"no mdighz sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    try:
        if args.trace:
            metrics, detail, attempted, failures = trace(args.workload, args.seed,
                                                         args.seconds)
        else:
            metrics, detail, attempted, failures = measure(args.workload, args.seed,
                                                           args.seconds)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    detail.update(workload=args.workload, trace=args.trace,
                  machine=machine_facts(args.seed, detail.pop("versions")),
                  error_frac=len(failures) / attempted, failures=failures[:20])
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
