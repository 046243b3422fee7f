"""Time the two numeric kernels: strict-order matmul and the Gaussian fill.

Best-of-N timings per shape. The matmul shapes straddle the kernel's
small-output rule (`_ACCUMULATE_MAX_OUT` in src/ocmeta/backend.py), so the
table shows where the accumulate path and the rank-1 loop each win. Usage:

    PYTHONPATH=src python benchmarks/bench_kernels.py [--repeat N]
"""

import argparse
import time

from ocmeta import backend, linalg
from ocmeta.rng import Rng

# (n, k, m) for n x k @ k x m. The kernel takes its accumulate path when
# n*m <= 256 and its rank-1 loop otherwise: the first five shapes straddle
# that rule (gradcheck operands, the inference net's single-row products,
# its 1x4096 @ 4096x64 backward product, an episode's query layer), the
# rest are one-class training shapes.
MATMUL_SHAPES = [
    (8, 16, 4),
    (1, 128, 16),
    (1, 4096, 64),
    (10, 64, 32),
    (20, 64, 32),
    (64, 16, 64),
    (64, 64, 32),
    (200, 64, 32),
    (256, 128, 128),
]
# 1 x 2048 is one posterior draw of the stock meta-training config
FILL_SHAPES = [(1, 2048), (64, 64), (256, 128)]


def timeit(fn, repeat):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_matmul(repeat):
    rows = []
    for n, k, m in MATMUL_SHAPES:
        rng = Rng(7)
        a = rng.gaussian_matrix(n, k)
        b = rng.gaussian_matrix(k, m)
        path = "accumulate" if n * m <= backend._ACCUMULATE_MAX_OUT else "rank-1 loop"
        label = f"matmul {n}x{k} @ {k}x{m} ({path})"
        rows.append((label, timeit(lambda: linalg.matmul(a, b), repeat)))
    return rows


def bench_gaussian(repeat):
    return [
        (f"gaussian fill {r}x{c}", timeit(lambda: Rng(3).gaussian_matrix(r, c), repeat))
        for r, c in FILL_SHAPES
    ]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5, help="timing repeats (best-of)")
    args = parser.parse_args()

    rows = bench_matmul(args.repeat) + bench_gaussian(args.repeat)
    width = max(len(label) for label, _ in rows)
    print(f"{'case':<{width}}  {'best':>10}")
    print("-" * (width + 12))
    for label, seconds in rows:
        print(f"{label:<{width}}  {seconds * 1e3:>8.3f}ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
