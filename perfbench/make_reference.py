"""Write perfbench/reference/ from the current code.

    python3 perfbench/make_reference.py

Runs every workload's commands once (seed 1) and stores each output CSV
without its '#' header lines, which carry the seed and the manifest digest.
Only rerun this for a commit whose outputs are known to be right; the
benchmark compares every later run against these files.
"""

from __future__ import annotations

import run


def main() -> None:
    run.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload, commands in run.WORKLOADS.items():
        out_dir = run.OUT_DIR / workload
        out_dir.mkdir(parents=True, exist_ok=True)
        report = run.spawn(run.command_lines(workload, 1, out_dir))
        for cmd, code in zip(commands, report["exit_codes"]):
            if code != 0:
                raise SystemExit(f"{cmd.name} exited {code}:\n{report['stderr']}")
            lines = (out_dir / f"{cmd.name}.csv").read_text().splitlines(keepends=True)
            (run.REFERENCE_DIR / f"{cmd.name}.csv").write_text(
                "".join(line for line in lines if not line.startswith("#")))
        print(f"{workload}: {report['wall_s']:.2f} s, {len(commands)} references")


if __name__ == "__main__":
    main()
