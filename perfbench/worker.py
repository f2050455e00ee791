"""One benchmark process: import mdighz, run CLI commands, report as JSON.

run.py starts a fresh process for every repetition, so the package's
lru_caches start cold, as they do for a user of the command line:

    python3 perfbench/worker.py '{"src": "<dir>", "commands": [[...], ...], "trace": false}'

The last line of standard output is a JSON object with the monotonic time at
which `mdighz.cli` was imported and ready, the wall time of the commands, their
exit codes, the peak resident set size and, when traced, the per-layer spans.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback

_DIST_LABELS = ("gains.mermin_outcome_gains", "gains.phase_sliced_gains")


def _run_command(cli, argv) -> int:
    try:
        return int(cli.main(argv))
    except SystemExit as exc:  # argparse usage errors
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash fails this command's outputs, not the process
        traceback.print_exc()
        return 1


def _mc_samples(result) -> int:
    try:
        return int(result[0].samples)
    except (TypeError, IndexError, AttributeError, ValueError):
        return 0


def _quantile(sorted_values, q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[round(q * (len(sorted_values) - 1))]


def _span_report(tracer) -> dict:
    out = {}
    for label, span in tracer.spans.items():
        entry = {"calls": span.calls, "self_s": span.self_s, "observed": span.observed}
        if label in _DIST_LABELS:
            ordered = sorted(span.durations)
            entry["p50_s"] = _quantile(ordered, 0.5)
            entry["p90_s"] = _quantile(ordered, 0.9)
        info = getattr(span.original, "cache_info", None)
        if info is not None:
            stats = info()
            entry["cache_hits"], entry["cache_misses"] = stats.hits, stats.misses
        out[label] = entry
    return out


def main() -> None:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import mdighz.cli as cli
    ready = time.monotonic()

    report = {"ready": ready}
    if spec["commands"]:
        tracer = None
        if spec.get("trace"):
            import tracer as tracing  # perfbench/ is sys.path[0]
            tracer = tracing.Tracer({"montecarlo.mc_coherent_gains": _mc_samples})
            report["absent_layers"] = tracing.install(tracer)
        codes = []
        start = time.perf_counter()
        for argv in spec["commands"]:
            codes.append(_run_command(cli, argv))
        report["wall_s"] = time.perf_counter() - start
        report["exit_codes"] = codes
        if tracer is not None:
            report["spans"] = _span_report(tracer)
        import numpy
        import scipy
        report["versions"] = {"python": sys.version.split()[0],
                              "numpy": numpy.__version__, "scipy": scipy.__version__}
    report["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(report))


if __name__ == "__main__":
    main()
