"""Benchmark of the cdcmip formulation pipeline, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload windowed --seed 1 --seconds 24 --trace 0

One process, one thread, a closed loop: each operation starts when the
previous one ends.  The run sets up once, then makes whole passes over the
workload's operations until ``--seconds`` have gone by, setting up once
more after every pass (set-up is a fresh import of ``cdcmip`` plus parsing
every JSON input).  Then it checks the first pass's outputs against
computations made apart from the program and solves a seeded subset of
the emitted models with HiGHS.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end with ``--trace 0``, per layer with ``--trace 1``).  Results and
spans also go to ``perfbench/out/``.

Timings are scaled to a fixed machine speed.  This machine runs at two
speeds that alternate every few tens of seconds, about 1.65 times apart,
which would make whole runs land in one mode or the other.  A short fixed
reference kernel is timed after every operation (and around every
set-up); each pass's and set-up's time is multiplied by ``REFERENCE_S``
over the median kernel time measured with it.  Raw times and kernel times
are kept in the result file.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

# Time the reference kernel takes at the nominal machine speed.
REFERENCE_S = 0.001
HIGHS_PICKS = 6  # emitted models per run solved against the face-LP reference
HIGHS_MAX_VARS = 1500


def fresh_import():
    """Import cdcmip from scratch, as a new process would."""
    for name in [n for n in sys.modules if n == "cdcmip" or n.startswith("cdcmip.")]:
        del sys.modules[name]
    pkg = importlib.import_module("cdcmip")
    cli = importlib.import_module("cdcmip.cli")
    return pkg, cli


def fingerprint(out) -> str:
    """Digest of an operation's output: the text itself, else its repr."""
    text = out if isinstance(out, str) else repr(out)
    return hashlib.sha256(text.encode()).hexdigest()


def reference_kernel():
    """Fixed work in the program's idiom: frozensets and exact fractions."""
    acc = Fraction(0)
    seen = set()
    for i in range(200):
        seen.add(frozenset((i, i * 7 % 13, i % 5)))
        acc += Fraction(i % 7, 1 + i % 11)
    return len(seen), acc


def kernel_time() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def run_pass(ops, tracer=None):
    """Time each operation, and the reference kernel after each one.

    Returns (seconds per op, outputs, failures, speed scale of the pass).
    """
    times, outs, kernel, failed = [], [], [], 0
    clock = time.perf_counter
    gc.collect()
    for op in ops:
        # Under the tracer each operation is the root span of its layer spans.
        fn = op.fn if tracer is None else tracer.span("bench." + op.label, op.fn)
        t0 = clock()
        try:
            out = fn()
        except Exception as exc:  # counted as a failed operation, reported below
            out = exc
            failed += 1
        times.append(clock() - t0)
        outs.append(out)
        kernel.append(kernel_time())
    return times, outs, failed, REFERENCE_S / statistics.median(kernel)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cdcmip" / "__init__.py").is_file():
        sys.stderr.write(f"error: no cdcmip sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    from checks import CheckError, highs_reference_check
    from spans import Tracer, median_metrics

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}\n")
        return 2
    wl = WORKLOADS[args.workload]
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"inputs-{tag}"
    workdir.mkdir(parents=True, exist_ok=True)

    # Inputs come from the seed alone; making them is not timed.
    inputs = wl.generate(random.Random(f"{wl.name}:{args.seed}"))
    for name, text in inputs.files.items():
        (workdir / name).write_text(text)

    setup_raw, setup_scaled = [], []

    def set_up():
        """One timed set-up, with the kernel timed three times either side."""
        gc.collect()
        kernel = [kernel_time() for _ in range(3)]
        t0 = time.perf_counter()
        pkg, cli = fresh_import()
        parsed = wl.parse(pkg, inputs)
        dt = time.perf_counter() - t0
        kernel += [kernel_time() for _ in range(3)]
        setup_raw.append(dt)
        setup_scaled.append(dt * REFERENCE_S / statistics.median(kernel))
        return pkg, cli, parsed

    pkg, cli, parsed = set_up()
    modules = {n: m for n, m in sys.modules.items() if n == "cdcmip" or n.startswith("cdcmip.")}
    ops = wl.ops(pkg, cli, parsed, inputs, workdir)
    small = [i for i, op in enumerate(ops) if op.small]

    tracer = Tracer() if args.trace else None
    pass_raw, pass_totals, small_means, op_times, scales = [], [], [], [], []
    rounds, traced_totals, all_spans = [], [], []
    attempted = failed = 0
    first_outs = digests = None
    mismatches = set()
    start = time.perf_counter()
    while True:
        times, outs, nfail, scale = run_pass(ops)
        attempted += len(ops)
        failed += nfail
        pass_raw.append(sum(times))
        pass_totals.append(sum(times) * scale)
        small_means.append(scale * sum(times[i] for i in small) / len(small))
        op_times.append(times)
        scales.append(scale)
        if first_outs is None:
            # Set-up plus one pass.  Later passes also hold the first pass's
            # outputs, and their peak drifts with the allocator's state.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            first_outs = outs
            digests = [fingerprint(o) for o in outs]
        else:
            mismatches.update(i for i, o in enumerate(outs) if fingerprint(o) != digests[i])
        if tracer is not None:
            # A traced round: parse the inputs again and make one more pass.
            tracer.reset()
            tracer.install()
            try:
                tracer.span("bench.setup", wl.parse)(pkg, inputs)
                times, outs, nfail, scale = run_pass(ops, tracer)
            finally:
                tracer.uninstall()
            attempted += len(ops)
            failed += nfail
            mismatches.update(i for i, o in enumerate(outs) if fingerprint(o) != digests[i])
            traced_totals.append(sum(times) * scale)
            rounds.append({k: v * scale if k.endswith("_s") else v
                           for k, v in tracer.round_metrics().items()})
            all_spans.append(tracer.spans)
        # Set-ups are spread over the run, like the passes; the operations
        # keep the modules of the first import.
        set_up()
        sys.modules.update(modules)
        if time.perf_counter() - start >= args.seconds:
            break

    correct = True
    counts = {"binaries": 0, "continuous": 0, "rows": 0, "nonzeros": 0}
    checkable = []
    for i, (op, out) in enumerate(zip(ops, first_outs)):
        if isinstance(out, Exception):
            sys.stderr.write(f"failed: {op.label}: {out!r}\n")
            continue
        try:
            model = op.check(out)
        except CheckError as exc:
            correct = False
            sys.stderr.write(f"check failed: {op.label}: {exc}\n")
            continue
        if i in mismatches:
            correct = False
            sys.stderr.write(f"check failed: {op.label}: output differs between passes\n")
        if hasattr(model, "counts"):
            for key, value in model.counts().items():
                counts[key] += value
            if op.sets is not None and len(model.variables) <= HIGHS_MAX_VARS:
                checkable.append((op, model))

    # Solver reference on a seeded subset of the emitted models (not timed).
    pick_rng = random.Random(f"highs:{wl.name}:{args.seed}")
    picks = pick_rng.sample(checkable, min(HIGHS_PICKS, len(checkable)))
    for op, model in picks:
        try:
            highs_reference_check(model, op.sets, pick_rng)
        except CheckError as exc:
            correct = False
            sys.stderr.write(f"solver check failed: {op.label}: {exc}\n")

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_scaled), "s"),
            "total_s": (statistics.median(pass_totals), "s"),
            "small_ms": (1000 * statistics.median(small_means), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            **{key: (value, "count") for key, value in counts.items()},
        }
    else:
        layer = median_metrics(rounds)
        for key in layer:
            if not key.endswith("_s") and any(r[key] != rounds[0][key] for r in rounds):
                correct = False
                sys.stderr.write(f"check failed: per-layer count {key} differs between rounds\n")
        layer["trace.overhead_s"] = statistics.median(traced_totals) - statistics.median(pass_totals)
        metrics = {
            key: (value, "s" if key.endswith("_s") else "ratio" if key.endswith("ratio") else "count")
            for key, value in layer.items()
        }
        with open(OUT / f"spans-{tag}.jsonl", "w") as fh:
            for r, spans in enumerate(all_spans):
                for idx, (name, s0, s1, parent) in enumerate(spans):
                    fh.write(json.dumps({"round": r, "id": idx, "name": name,
                                         "start_ns": s0, "end_ns": s1, "parent": parent}) + "\n")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = dict(result, passes=len(pass_raw), solver_checks=len(picks),
                  raw_pass_s=pass_raw, scaled_pass_s=pass_totals, pass_scale=scales,
                  raw_setup_s=setup_raw, scaled_setup_s=setup_scaled,
                  raw_op_s={op.label: [t[i] for t in op_times] for i, op in enumerate(ops)})
    (OUT / f"result-{tag}.json").write_text(json.dumps(detail, indent=1) + "\n")
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
