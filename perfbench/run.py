"""Benchmark of the indmatch pipeline: one workload per process.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload sweep-proj --seed 1 --seconds 50 --trace 0

Workloads: ``sweep-proj``, ``sparse-file`` (see
``workloads.py`` and ``BENCHMARK.json``). With ``--trace 0`` the last line of
stdout is a JSON object holding the end-to-end metrics; with ``--trace 1`` it
holds the per-layer metrics, and the spans are written to
``.bench_out/trace-<workload>-<seed>.json``. Every op's certificate is
checked; the exit code is 1 when a check fails, 2 when the library sources
are missing or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "indmatch" / "__init__.py").is_file():
        print(f"perfbench: no indmatch sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # needs the sources on the path

    if args.workload not in workloads.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {', '.join(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        report = workloads.run_workload(
            workloads.WORKLOADS[args.workload],
            args.seed,
            args.seconds,
            bool(args.trace),
            Path(workdir),
        )
    for line in report.lines:
        print(line)
    if report.spans is not None:
        path = OUT / f"trace-{args.workload}-{args.seed}.json"
        path.write_text(json.dumps({"spans": report.spans}), encoding="utf-8")
        print(f"spans written to {path.relative_to(ROOT)}")
    print(json.dumps(report.result))
    return 0 if report.result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
