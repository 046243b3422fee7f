"""Time the two numeric kernels: strict-order matmul and the Gaussian fill.

Best-of-N timings per shape. The matmul shapes straddle the kernel's
small-output rule (`_ACCUMULATE_MAX_OUT` in src/ocmeta/backend.py), so the
table shows where the accumulate path and the rank-1 loop each win. The
fill is also timed in its two halves: the xorshift64* states, and the
transform from states to normals. Usage:

    PYTHONPATH=src python benchmarks/bench_kernels.py [--repeat N]
"""

import argparse
import time

from ocmeta import backend, linalg
from ocmeta.rng import Rng

# (n, k, m) for n x k @ k x m. The kernel takes its accumulate path when
# n*m <= 256, a single multiply when k = 1 and its rank-1 loop otherwise:
# the first six shapes straddle that rule (gradcheck operands, the
# inference net's single-row products, its 1x4096 @ 4096x64 backward
# product and 64x1 @ 1x4096 weight gradient, an episode's query layer),
# the rest are one-class training shapes.
MATMUL_SHAPES = [
    (8, 16, 4),
    (1, 128, 16),
    (1, 4096, 64),
    (64, 1, 4096),
    (10, 64, 32),
    (20, 64, 32),
    (64, 16, 64),
    (64, 64, 32),
    (200, 64, 32),
    (256, 128, 128),
]
# 1 x 2048 is one posterior draw of the stock meta-training config, and
# 10 x 2048 one episode's draws
FILL_SHAPES = [(1, 2048), (10, 2048), (64, 64), (256, 128)]


def timeit(fn, repeat):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def matmul_path(n, k, m):
    if k == 1:
        return "k = 1"
    return "accumulate" if n * m <= backend._ACCUMULATE_MAX_OUT else "rank-1 loop"


def bench_matmul(repeat):
    rows = []
    for n, k, m in MATMUL_SHAPES:
        rng = Rng(7)
        a = rng.gaussian_matrix(n, k)
        b = rng.gaussian_matrix(k, m)
        label = f"matmul {n}x{k} @ {k}x{m} ({matmul_path(n, k, m)})"
        rows.append((label, timeit(lambda: linalg.matmul(a, b), repeat)))
    # the inference net's backward product takes v3.T, a strided view
    v3 = Rng(8).gaussian_matrix(64, 4096)
    a = Rng(9).gaussian_matrix(1, 4096)
    label = f"matmul 1x4096 @ (64x4096).T view ({matmul_path(1, 4096, 64)})"
    rows.append((label, timeit(lambda: linalg.matmul(a, v3.T), repeat)))
    return rows


def bench_gaussian(repeat):
    rows = []
    for r, c in FILL_SHAPES:
        rows.append((f"gaussian fill {r}x{c}", timeit(lambda: Rng(3).gaussian_matrix(r, c), repeat)))
        # the fill's halves: 2 states per pair of draws, then the transform
        count = r * c + r * c % 2
        states, _ = backend._states(Rng(3).state, count)
        rows.append((f"  states ({count})", timeit(lambda: backend._states(Rng(3).state, count), repeat)))
        rows.append((f"  transform ({count // 2} pairs)", timeit(lambda: backend._box_muller(states), repeat)))
    return rows


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
