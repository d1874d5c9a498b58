"""codefam benchmark: closed-loop workloads with an optional traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload certify --seed 0 --seconds 30 --trace 0

`--trace 0` sets up the workload, then runs whole rounds of ops, one at a
time in one thread, until the ops have taken `--seconds` and at least 100
ops ran; setup_s is the median of fifteen set-ups spread over the run.
Every op's output is checked.  It prints each end-to-end metric by name
and unit; the last line is the JSON result.

`--trace 1` sets up once under tracing, runs the first few rounds with
every public codefam function wrapped in spans, then the untraced loop
from the next round on.  It prints the per-layer metrics, the tracing
overhead and the ROADMAP item 1 cross-checks; the last line is the JSON
result.

Both modes write `.bench_out/result-<workload>-seed<seed>-trace<t>.json`
at the root of the checkout; the traced mode also writes its spans to
`.bench_out/spans-<workload>.npz`.  `--write-reference` re-records the
default seed's reference digests into perfbench/reference.json.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# one thread: set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="codefam benchmark")
    ap.add_argument("--workload", required=True, choices=["certify", "construct", "decode"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="record the default seed's digests instead of measuring")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "codefam" / "__init__.py").is_file():
        print(f"perfbench: no codefam sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness
    if args.write_reference:
        return harness.write_reference(args.workload)
    return harness.run(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
