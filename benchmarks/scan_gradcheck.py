"""Scan the gradient checks over the benchmark's per-operation seeds.

Operation i of a `gradcheck` benchmark run with workload seed WS checks
library seed `_derive(WS, 10, i)` (perfbench/workloads.py) with both
`check_oneclass` and `check_episodic`. A faster commit reaches more
operations per run, so it meets seeds a slower one never checked. This
script checks the first N operations of each given workload seed and
prints one line per operation, the worst of the two errors last, so a
change to the checks can be tried on every seed the benchmark may reach.
Usage:

    PYTHONPATH=src python benchmarks/scan_gradcheck.py 1 2 3 --ops 40

Exits 2 if any error is above the benchmark's bound (1e-4).
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import checks  # noqa: E402
import workloads  # noqa: E402
from ocmeta import gradcheck  # noqa: E402


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("ws", type=int, nargs="+", help="benchmark workload seeds")
    ap.add_argument("--ops", type=int, default=40, help="operations per workload seed")
    args = ap.parse_args(argv)

    wl = workloads.Gradcheck
    over = 0
    print("ws\ti\tseed\toneclass\tepisodic\tworst")
    for ws in args.ws:
        for i in range(args.ops):
            seed = workloads._derive(ws, 10, i)
            oc = gradcheck.check_oneclass(seed, n=4, **wl.SIZES)
            ep = gradcheck.check_episodic(seed, **wl.SIZES, **wl.EPISODE)
            worst = max(oc, ep)
            over += worst > checks.GRAD_ERR_BOUND
            print(f"{ws}\t{i}\t{seed}\t{oc:.3e}\t{ep:.3e}\t{worst:.3e}", flush=True)
    print(f"{over} of {len(args.ws) * args.ops} operations above {checks.GRAD_ERR_BOUND:g}")
    return 2 if over else 0


if __name__ == "__main__":
    sys.exit(main())
