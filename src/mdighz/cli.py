"""Batch front end: sweeps, curve reproduction, validation, CSV emission.

Every CSV starts with `#` comment lines carrying the manifest digest (sha256
of the resolved config, command, seed, and tool version), so identical runs
are byte-identical and every output references the manifest that produced it.
A JSON manifest with timestamps is written next to each CSV.

Exit codes: 0 success, 2 config/usage error, 3 validation failure,
4 internal numerical-tolerance failure.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable

from . import __version__, keyrates, mermin, montecarlo
from .params import (CONFIG_KEYS, REQUIRED_KEYS, ConfigError, ExperimentConfig,
                     NumericsError, parse_config, serialize_config, overall_efficiency)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VALIDATION = 3
EXIT_NUMERICS = 4

_FULL_SAMPLES = 10_000_000
_QUICK_SAMPLES = 100_000


def _fmt(value) -> str:
    if value is None:
        return "nan"
    if isinstance(value, float):
        return repr(float(value))  # shortest round-trip; strips numpy scalars
    return str(value)


def _digest(config_text: str, command: str, seed: int) -> str:
    payload = json.dumps({"tool": "mdighz", "version": __version__,
                          "command": command, "seed": seed,
                          "config": config_text}, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def _write_csv(path: Path, command: str, cfg: ExperimentConfig, seed: int,
               header: list[str], rows: list[list]) -> None:
    config_text = serialize_config(cfg)
    digest = _digest(config_text, command, seed)
    lines = [
        f"# mdighz {__version__} {command}",
        f"# manifest_digest=sha256:{digest}",
        f"# seed={seed}",
        f"# rng={montecarlo.RNG_ALGORITHM}",
        ",".join(header),
    ]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))

    manifest = {
        "tool": "mdighz",
        "version": __version__,
        "command": command,
        "seed": seed,
        "rng": montecarlo.RNG_ALGORITHM,
        "manifest_digest": f"sha256:{digest}",
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "output": str(path),
        "config": config_text,
    }
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n")
        path.with_suffix(path.suffix + ".manifest.json").write_text(
            json.dumps(manifest, indent=2) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from None


def _diag_cell(diags) -> str:
    return ";".join(d.replace(",", ";") for d in diags) if diags else ""


def _load_config(path: str) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return parse_config(text)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2 ** 64:
        raise argparse.ArgumentTypeError(f"must be in [0, 2**64), got {value}")
    return value


def _search_box(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(v) for v in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected lo:hi, got {text!r}") from None
    if not 0.0 < lo <= hi < math.inf:
        raise argparse.ArgumentTypeError(f"need 0 < lo <= hi < inf, got {text!r}")
    return lo, hi


@dataclass(frozen=True)
class Curve:
    """One curve: its CSV command label, the columns between distance_km and
    diagnostics, and the builder of its rows over a distance grid.

    The run summary reports as cutoff_km the largest distance whose first
    column exceeds `floor`: a positive key rate, or a Mermin bound above the
    local-realism value.
    """

    label: str
    columns: tuple[str, ...]
    rows: Callable[[ExperimentConfig, list[float]], list[list]]
    floor: float = 0.0


def _rate_curve(variant: str, label: str, *extra: str) -> Curve:
    def rows(cfg, distances):
        return [[p.distance_km, p.rate, p.rate_infinite, p.raw_rate]
                + [p.columns.get(c) for c in extra] + [_diag_cell(p.diagnostics)]
                for p in keyrates.sweep(variant, cfg, distances)]
    return Curve(label, ("rate_two_decoy", "rate_infinite_decoy", "raw_rate") + extra,
                 rows)


def _mermin_rows(cfg: ExperimentConfig, distances: list[float]) -> list[list]:
    if cfg.source.kind != "wcs":
        raise ConfigError("the Mermin estimate uses weak coherent sources",
                          key="source.kind")
    return [[length, est.m_lower, mermin.LOCAL_REALISM_BOUND,
             est.bounds.y_ppp_lower, est.bounds.y_ppp_upper,
             est.bounds.y_mmm_upper, _diag_cell(est.diagnostics)]
            for length, est in mermin.mermin_curve(cfg, distances)]


_QSS_COLUMNS = ("e111_bzu", "Y111_xl", "Q_x", "E_x")

CURVES = {
    "qcc": _rate_curve("qcc", "qcc", "e111_bxu", "Y111_zl"),
    "qss_pps": _rate_curve("qss_pps", "qss-pps",
                           "e111_bzu", "Y111_xl", "Q_x_sliced", "E_x_sliced"),
    "qss_heralded": _rate_curve("qss_heralded", "qss-heralded", *_QSS_COLUMNS),
    "qss_qnd": _rate_curve("qss_qnd", "qss-qnd", *_QSS_COLUMNS),
    "mermin": Curve("mermin", ("mermin_lower", "local_realism_bound", "y_ppp_lower",
                               "y_ppp_upper", "y_mmm_upper"),
                    _mermin_rows, floor=mermin.LOCAL_REALISM_BOUND),
}


def cmd_curve(args) -> int:
    """`qcc`, `qss` and `mermin`: one curve of CURVES over the sweep grid."""
    cfg = _load_config(args.config)
    name = args.command
    if name == "qss":  # the variant follows source.kind
        name = f"qss_{cfg.method}"
    curve = CURVES[name]
    distances = cfg.sweep.distances()
    if args.quick:
        distances = distances[:: max(1, int(5 / max(cfg.sweep.l_step, 1e-9)))]
    rows = curve.rows(cfg, distances)
    _write_csv(Path(args.out), curve.label, cfg, args.seed,
               ["distance_km", *curve.columns, "diagnostics"], rows)
    cut = max((row[0] for row in rows if row[1] > curve.floor), default=None)
    print(f"{curve.label}: {len(rows)} points, cutoff_km={_fmt(cut)} -> {args.out}")
    return EXIT_OK


def cmd_optimize(args) -> int:
    cfg = _load_config(args.config)
    variant = "qcc" if args.variant == "qcc" else f"qss_{cfg.method}"
    best_mu, best_rate = keyrates.optimize_intensities(
        variant, cfg, args.at, args.box, points=args.points, rounds=args.rounds)
    header = ["variant", "distance_km", "best_mu", "best_rate"]
    _write_csv(Path(args.out), "optimize", cfg, args.seed, header,
               [[variant, args.at, best_mu, best_rate]])
    print(f"optimize: {variant} at {args.at} km -> mu={best_mu!r} rate={best_rate!r}")
    return EXIT_OK


def cmd_validate(args) -> int:
    from . import checks  # only validate needs the cross-checks
    cfg = _load_config(args.config)
    if cfg.source.kind != "wcs":
        raise ConfigError(f"validate checks cover only the weak-coherent gain paths, "
                          f"not source.kind = {cfg.source.kind!r}", key="source.kind")
    samples = _QUICK_SAMPLES if args.quick else _FULL_SAMPLES
    system, plan = cfg.system, cfg.decoy
    eta = overall_efficiency(system.channel, system.detector)
    p_d = system.detector.p_d
    sliced = (plan.mu2, cfg.phase.k) if cfg.phase is not None and cfg.phase.k > 1 else None
    report = (checks.monte_carlo(plan.mu2, eta, p_d, samples, args.seed, sliced)
              + checks.symmetries([(plan.mu2, eta, p_d), (plan.mu1, eta, p_d),
                                   (plan.mu2, system.detector.eta_d, p_d),
                                   (0.8, 0.25, p_d), (0.05, 0.9, p_d)])
              + checks.brackets(cfg, (0.0, 50.0, 100.0, 150.0))
              + checks.fock_closed_form(4 if args.quick else 6))
    ok = all(row.passed for row in report)
    rows = [[r.check, r.analytic, r.estimate, "" if r.stderr is None else r.stderr,
             r.deviation, "pass" if r.passed else "FAIL"] for r in report]

    header = ["check", "analytic", "estimate", "stderr", "deviation", "status"]
    widths = [34, 14, 14, 12, 12, 6]
    for row in [header] + rows:
        cells = [f"{v:.6g}" if isinstance(v, float) else str(v) for v in row]
        print("  ".join(c.ljust(w) for c, w in zip(cells, widths)))
    if args.out:
        _write_csv(Path(args.out), "validate", cfg, args.seed, header, rows)
    chunks, threads = montecarlo.chunk_plan(samples)
    print(f"validation {'passed' if ok else 'FAILED'} ({samples} samples in "
          f"{chunks} chunk{'s' * (chunks > 1)} on {threads} thread{'s' * (threads > 1)}, "
          f"seed {args.seed})")
    return EXIT_OK if ok else EXIT_VALIDATION


@lru_cache(maxsize=None)  # once per process: a caller may run several commands
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdighz",
        description="Rate curves, Mermin bounds and validation for MDI "
                    "multiparty quantum communication.",
        epilog="Config format: lines of 'section.key = value' with sections "
               f"{', '.join(dict.fromkeys(k.split('.')[0] for k in CONFIG_KEYS))}. "
               f"Required keys: {', '.join(REQUIRED_KEYS)}. "
               "qss with source.kind=wcs additionally needs phase.K; "
               "source.kind=heralded accepts source.trigger_eta_d/_p_d.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_out=True, quick=True):
        p.add_argument("--config", required=True, help="config document path")
        if needs_out:
            p.add_argument("--out", required=True, help="output CSV path")
        else:
            p.add_argument("--out", default=None, help="optional report CSV path")
        if quick:  # optimize has no grid or samples to thin
            p.add_argument("--quick", action="store_true",
                           help="coarser grid / fewer samples")
        p.add_argument("--seed", type=_seed, default=1, help="RNG seed (u64)")

    p = sub.add_parser("qcc", help="conferencing key-rate curve")
    common(p)
    p.set_defaults(fn=cmd_curve)

    p = sub.add_parser("qss", help="secret-sharing key-rate curve (variant from "
                                   "source.kind)")
    common(p)
    p.set_defaults(fn=cmd_curve)

    p = sub.add_parser("mermin", help="Mermin-value lower-bound curve")
    common(p)
    p.set_defaults(fn=cmd_curve)

    p = sub.add_parser("validate", help="Monte Carlo + symmetry + bracket suite")
    common(p, needs_out=False)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("optimize", help="grid-search the signal intensity")
    common(p, quick=False)
    p.add_argument("--variant", choices=("qcc", "qss"), default="qcc")
    p.add_argument("--at", type=float, default=100.0, help="distance (km)")
    p.add_argument("--box", type=_search_box, default="0.05:1.0",
                   help="search box lo:hi")
    p.add_argument("--points", type=_positive_int, default=9)
    p.add_argument("--rounds", type=_positive_int, default=3)
    p.set_defaults(fn=cmd_optimize)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericsError as exc:
        print(f"numerical-tolerance failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICS


if __name__ == "__main__":
    sys.exit(main())
