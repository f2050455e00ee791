#!/usr/bin/env python3
"""Regenerate every rate and Mermin curve from the bundled configs.

Writes CSVs (plus JSON manifests) under out/ and prints the cutoff distances.
Use --quick for a coarse pass (~5 km steps).
"""

import argparse
import sys
import time
from pathlib import Path

from mdighz.cli import main as mdighz_main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
# every bundled config but validate's draws one curve, with the command its
# name starts with (qcc, qss or mermin)
RUNS = [(path.stem.split("_")[0], path.stem) for path in sorted(CONFIG_DIR.glob("*.cfg"))
        if path.stem != "validate"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for command, name in RUNS:
        cfg = CONFIG_DIR / f"{name}.cfg"
        out = outdir / f"{name}.csv"
        argv = [command, "--config", str(cfg), "--out", str(out)]
        if args.quick:
            argv.append("--quick")
        start = time.monotonic()
        code = mdighz_main(argv)
        if code != 0:
            print(f"{name}: FAILED with exit code {code}", file=sys.stderr)
            return code
        print(f"  ... {time.monotonic() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
