"""Benchmark of ocmeta on its pure-NumPy backend.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ./src. With
--trace 0 the run measures the end-to-end metrics; with --trace 1 it wraps
every layer's public functions and reports per-layer counts and times. The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Exits 2 without a result when the library or its pure-NumPy backend is
missing, or the workload is unknown.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

# one compute thread and the NumPy kernels, set before NumPy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["OCMETA_BACKEND"] = "py"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# items per reference block are taken over stretches of at least this long
WINDOW_S = 1.0
# the build part of set-up is reported in seconds on a host where the set-up
# reference block takes this long (about its mean on the host of the
# README's figures)
SETUP_BLOCK = dict(shapes=[(8, 16, 16)], draws=256)
SETUP_NOMINAL_S = 0.0003
SETUP_BLOCKS = 50


class SetupError(Exception):
    pass


def load_library():
    """Import ocmeta from ./src and check that it runs the NumPy kernels."""
    src = ROOT / "src"
    if not (src / "ocmeta" / "__init__.py").is_file():
        raise SetupError(f"no library source at {src / 'ocmeta'}")
    sys.path.insert(0, str(src))
    import ocmeta
    from ocmeta import backend

    if Path(ocmeta.__file__).resolve().parent != (src / "ocmeta").resolve():
        raise SetupError(f"ocmeta imported from {ocmeta.__file__}, not from {src}")
    if backend.active() != "py":
        raise SetupError(f"kernel backend is {backend.active()!r}, not 'py'")
    return ocmeta


def measure(wl, first, seconds, min_ops, tracer=None):
    """Whole rounds of operations until `seconds` have passed and at least
    `min_ops` ran. Returns ([(items, t0, t1)] per operation, failed count,
    check failures, index of the next operation)."""
    from ocmeta.errors import OcmetaError

    ops, problems = [], []
    failed = 0
    deadline = time.perf_counter() + seconds
    i = first
    while i - first < min_ops or time.perf_counter() < deadline:
        for _ in range(wl.round_size):
            try:
                with tracer.span("bench.op") if tracer else nullcontext():
                    items, t0, t1, out = wl.op(i)
            except OcmetaError as e:
                failed += 1
                print(f"operation {i} failed: {e}", file=sys.stderr)
                i += 1
                continue
            ops.append((items, t0, t1))
            with tracer.paused() if tracer else nullcontext():
                problems += [p for p in wl.check(i, out) if p]
            i += 1
    return ops, failed, problems, i


def per_reference(ops, ref):
    """Items per reference-block time over consecutive stretches of
    operations at least WINDOW_S long: the stretch's items over its
    operation time net of blocks, times the mean block in the stretch."""
    figures, first = [], 0
    for j, (_, t0, t1) in enumerate(ops):
        if t1 - ops[first][1] < WINDOW_S and (figures or j < len(ops) - 1):
            continue
        chunk = ops[first : j + 1]
        items = sum(c[0] for c in chunk)
        net = sum(c[2] - c[1] - ref.busy(c[1], c[2]) for c in chunk)
        figures.append(items / net * ref.mean(chunk[0][1], t1))
        first = j + 1
    return figures


def end_to_end(wl, seconds, setup_s):
    from reference import Reference

    ref = Reference(**wl.REFERENCE)
    ref.start()
    try:
        ops, failed, problems, n = measure(wl, 0, seconds, wl.min_ops)
    finally:
        ref.stop()
    problems += wl.finish()
    figures = per_reference(ops, ref)
    raw = statistics.median(items / (t1 - t0 - ref.busy(t0, t1)) for items, t0, t1 in ops)
    print(f"items_per_s {raw!r} over {len(ops)} ops; items_per_ref over {len(figures)} "
          f"stretches; reference block {ref.mean()!r} s x {len(ref.times)}", file=sys.stderr)
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "items_per_ref": (statistics.median(figures), "items/ref"),
        "quality": (wl.quality(), "score"),
    }
    return n, failed, problems, metrics


def load_workload(name):
    load_library()
    from workloads import WORKLOADS

    if name not in WORKLOADS:
        raise SetupError(f"unknown workload {name!r} (expected one of {sorted(WORKLOADS)})")
    return WORKLOADS[name]


def cold_setup(workload, seed, fast, workdir):
    """Load the library, then build the workload while set-up reference
    blocks sample the host. Returns (workload, set-up seconds): the load as
    measured from the start of the process (the speed of imports moves in
    phases of its own, which the blocks do not track), plus the build net of
    the blocks and scaled to the nominal host speed."""
    cls = load_workload(workload)
    from reference import Reference

    t_loaded = time.perf_counter()
    ref = Reference(**SETUP_BLOCK)
    ref.start()
    try:
        wl = cls(seed, fast, workdir)
    finally:
        ref.stop()
    t_end = time.perf_counter()
    build = t_end - t_loaded - ref.busy(t_loaded, t_end)
    while len(ref.times) < SETUP_BLOCKS:
        ref.block()
    load = t_loaded - T_START
    print(f"setup load {load!r} s, build {build!r} s, reference block {ref.mean()!r} s x "
          f"{len(ref.times)}", file=sys.stderr)
    return wl, load + build * SETUP_NOMINAL_S / ref.mean()


def traced(wl, tracer, seconds, out_path):
    """An untraced phase (a third of the time), then a traced one; per-layer
    figures come from the traced phase, per operation, and from the traced
    set-up, per run. The tracing overhead is the cost of one span, timed on
    a no-op, times the spans per operation, over the median untraced
    operation."""
    import checks
    from tracing import LAYER_MODULES, span_cost

    plain, failed0, problems, nxt = measure(wl, 0, seconds / 3.0, wl.round_size)
    for key in tracer.counts:
        tracer.counts[key] = 0
    tracer.install()
    try:
        _, failed1, more, n = measure(wl, nxt, seconds - seconds / 3.0, wl.round_size, tracer)
    finally:
        tracer.uninstall()
    problems += more + wl.finish()
    tracer.write(out_path)

    per_name, per_layer, ops = tracer.summarize("bench.op")
    setup_names, _, _ = tracer.summarize("bench.setup")

    def calls(name):
        return per_name.get(name, (0, 0.0, 0.0))[0] / ops

    def incl(*names):
        return sum(per_name.get(x, (0, 0.0, 0.0))[1] for x in names) / ops

    def own(name):
        return per_name.get(name, (0, 0.0, 0.0))[2] / ops

    def setup(name):
        return setup_names.get(name, (0, 0.0, 0.0))[1]

    totals = dict(tracer.counts)
    totals["gradcheck.loss_evals"] = per_name.get("gradcheck.loss_eval", (0,))[0]

    def count(name):
        return totals[name] / ops

    m = {
        "rng.gaussian_draws": (count("rng.gaussian_draws"), "count/op"),
        "rng.gaussian_s": (incl("rng.gaussian_matrix", "rng.gaussian"), "s/op"),
        "rng.permutation_calls": (calls("rng.permutation"), "count/op"),
        "rng.permutation_s": (incl("rng.permutation"), "s/op"),
        "linalg.matmul_calls": (calls("linalg.matmul"), "count/op"),
        "linalg.matmul_s": (incl("linalg.matmul"), "s/op"),
        "linalg.matmul_flops": (count("linalg.matmul_flops"), "flop/op"),
        "linalg.ensure_finite_calls": (calls("linalg.ensure_finite"), "count/op"),
        "linalg.ensure_finite_s": (incl("linalg.ensure_finite"), "s/op"),
        "linalg.row_sqdist_s": (incl("linalg.row_sqdist"), "s/op"),
        "linalg.colmean_exact_s": (incl("linalg.colmean_exact"), "s/op"),
        "mlp.trunk_forward_calls": (calls("mlp.trunk_forward"), "count/op"),
        "mlp.trunk_forward_s": (incl("mlp.trunk_forward"), "s/op"),
        "mlp.trunk_backward_s": (incl("mlp.trunk_backward"), "s/op"),
        "mlp.encode_backward_s": (incl("mlp.encode_backward"), "s/op"),
        "svdd.svdd_loss_s": (incl("svdd.svdd_loss"), "s/op"),
        "svdd.score_s": (incl("svdd.score"), "s/op"),
        "meta.episode_loss_calls": (calls("meta.episode_loss"), "count/op"),
        "meta.episode_loss_s": (own("meta.episode_loss"), "s/op"),
        "meta.sample_episode_s": (incl("meta.sample_episode"), "s/op"),
        "meta.infer_posterior_s": (incl("meta.infer_posterior"), "s/op"),
        "meta.adapt_and_score_s": (own("meta.adapt_and_score"), "s/op"),
        "optim.adam_steps": (calls("optim.adam_step"), "count/op"),
        "optim.adam_elements": (count("optim.adam_elements"), "count/op"),
        "optim.adam_step_s": (incl("optim.adam_step"), "s/op"),
        "gradcheck.coords": (count("gradcheck.coords"), "count/op"),
        "gradcheck.loss_evals": (count("gradcheck.loss_evals"), "count/op"),
        "gradcheck.loss_eval_s": (incl("gradcheck.loss_eval"), "s/op"),
        "synth.make_tasks_s": (setup("synth.make_tasks"), "s"),
        "data.load_task_s": (setup("data.load_task"), "s"),
        "model_io.save_meta_model_s": (setup("model_io.save_meta_model"), "s"),
        "model_io.load_meta_model_s": (setup("model_io.load_meta_model"), "s"),
    }
    for layer in LAYER_MODULES:
        c, s = per_layer.get(layer, (0, 0.0))
        m[f"{layer}.calls"] = (c / ops, "count/op")
        m[f"{layer}.self_s"] = (s / ops, "s/op")
    spans = sum(c for c, _, _ in per_name.values()) / ops
    op_s = statistics.median(t1 - t0 for _, t0, t1 in plain)
    m["trace.overhead_pct"] = (100.0 * span_cost() * spans / op_s, "%")
    m["trace.spans"] = (spans, "count/op")
    m["trace.ops"] = (ops, "count")

    # totals reached by a path independent of the spans: the config
    for name, expected in wl.expected_per_op().items():
        problems.append(checks.check_total(f"{name} over {ops} ops", totals[name], expected * ops))
    problems = [p for p in problems if p]
    return n, failed0 + failed1, problems, m


def run(workload, seed, seconds, trace, fast=False, out_dir=OUT):
    """One benchmark run in this process; returns the result object. Task
    files live in a scratch folder under `out_dir`, removed at the end; a
    traced run leaves its spans there."""
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir, prefix="work-") as tmp:
        if trace:
            from tracing import Tracer

            cls = load_workload(workload)
            tracer = Tracer()
            tracer.install()
            try:
                with tracer.span("bench.setup"):
                    wl = cls(seed, fast, Path(tmp))
            finally:
                tracer.uninstall()
            out_path = out_dir / f"trace-{workload}-{seed}.npz"
            attempted, failed, problems, metrics = traced(wl, tracer, seconds, out_path)
        else:
            wl, setup_s = cold_setup(workload, seed, fast, Path(tmp))
            attempted, failed, problems, metrics = end_to_end(wl, seconds, setup_s)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except SetupError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
