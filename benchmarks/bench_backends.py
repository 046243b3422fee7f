"""Compare the compiled kernels against the pure-NumPy fallback.

Times the two hot kernels (strict-order matmul, Gaussian fill) and a short
one-class training run under each backend, and verifies that both sides
produce bit-identical results. Usage:

    python benchmarks/bench_backends.py [--repeat N]
"""

import argparse
import time

import numpy as np

from ocmeta import backend, linalg
from ocmeta.rng import Rng
from ocmeta.svdd import TrainConfig, train_svdd

# (n, k, m) for n x k @ k x m. The NumPy kernel takes its accumulate path
# when n*m <= 256 and its rank-1 loop otherwise: the first five shapes
# straddle that rule (gradcheck operands, the inference net's single-row
# products, its 1x4096 @ 4096x64 backward product, an episode's query
# layer), the rest are one-class training shapes.
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
        results = {}
        times = {}
        for name in backend.available():
            backend.use(name)
            times[name] = timeit(lambda: linalg.matmul(a, b), repeat)
            results[name] = linalg.matmul(a, b)
        identical = all(
            np.array_equal(results[name], results["py"]) for name in results
        )
        rows.append((f"matmul {n}x{k} @ {k}x{m}", times, identical))
    return rows


def bench_gaussian(repeat):
    rows = []
    for r, c in FILL_SHAPES:
        results = {}
        times = {}
        for name in backend.available():
            backend.use(name)
            times[name] = timeit(lambda: Rng(3).gaussian_matrix(r, c), repeat)
            results[name] = Rng(3).gaussian_matrix(r, c)
        identical = all(
            np.array_equal(results[name], results["py"]) for name in results
        )
        rows.append((f"gaussian fill {r}x{c}", times, identical))
    return rows


def bench_training(repeat):
    features = Rng(11).gaussian_matrix(200, 16) + 4.0
    config = TrainConfig(epochs=3, latent_dim=32, seed=0)
    results = {}
    times = {}
    for name in backend.available():
        backend.use(name)
        times[name] = timeit(lambda: train_svdd(features, config), repeat)
        model, losses = train_svdd(features, config)
        results[name] = (model.params.final_w.copy(), tuple(losses))
    identical = all(
        np.array_equal(results[name][0], results["py"][0])
        and results[name][1] == results["py"][1]
        for name in results
    )
    return [("train 200x16, 3 epochs", times, identical)]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5, help="timing repeats (best-of)")
    args = parser.parse_args()

    names = backend.available()
    print(f"backends available: {', '.join(names)}")
    if "c" not in names:
        print("compiled kernels missing; timing the fallback only")

    rows = bench_matmul(args.repeat) + bench_gaussian(args.repeat) + bench_training(args.repeat)

    width = max(len(label) for label, _, _ in rows)
    header = f"{'case':<{width}}  " + "".join(f"{n:>12}" for n in names)
    print()
    print(header + "     speedup  bit-identical")
    print("-" * len(header + "     speedup  bit-identical"))
    all_identical = True
    for label, times, identical in rows:
        all_identical &= identical
        cells = "".join(f"{times[n] * 1e3:>10.3f}ms" for n in names)
        speedup = f"{times['py'] / times['c']:>8.1f}x" if "c" in times else f"{'-':>9}"
        print(f"{label:<{width}}  {cells}  {speedup}  {'yes' if identical else 'NO'}")

    backend.use("auto")
    print()
    if not all_identical:
        print("MISMATCH: backends disagree; the fallback is the reference")
        return 1
    print("all cases bit-identical across backends")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
