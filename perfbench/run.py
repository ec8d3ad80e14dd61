#!/usr/bin/env python3
"""Host-time benchmark of the repro pipeline, one workload per run.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-cell --seed 0 --seconds 30 --trace 0

Workloads: ``paper-cell``, ``sat-grid``, ``stencil`` (see workloads.py).
The program under test is imported from ``src/`` next to this directory.
Human-readable lines come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  With ``--trace 1`` the spans are also written to
``.perfbench_out/spans-<workload>-seed<seed>.json``.  The exit code is 0
only when every operation passed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("paper-cell", "sat-grid", "stencil"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    import harness
    import workloads

    committed = json.loads((HERE / "digests.json").read_text())
    expected = None
    if args.seed == committed["seed"]:
        expected = committed["workloads"][args.workload]

    workload = workloads.make_workload(args.workload)
    scratch = OUT / f"tmp-{os.getpid()}"
    try:
        result = harness.measure(
            workload, args.seed, args.seconds, bool(args.trace), scratch, expected
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    facts = harness.host_facts()
    if result.trace:
        result.tracer.dump(
            OUT / f"spans-{args.workload}-seed{args.seed}.json",
            {"workload": args.workload, "seed": args.seed, "host": facts,
             "layer": result.layer},
        )
    for line in harness.report(result, facts):
        print(line)
    print(json.dumps(result.line()))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
