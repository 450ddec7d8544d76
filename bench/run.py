"""Registration benchmark for protoreg.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
`src/` next to this directory, never from an installed copy. The inputs are
built from the seed (timed as set-up, several times, median reported); then
whole rounds of the workload's operations run until S seconds have passed,
at least one round. Every output is checked against `checks`. The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
program's public functions are wrapped (see tracing.py) and the metrics are
per-layer ones, averaged per operation. Results and trace spans are also
written under .bench_out/ in the checkout.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 9
LEVELS = 5
QUALITY_UNITS = {"ncc_final": "1", "epe_mean_vox": "vox", "epe_p95_vox": "vox",
                 "ctv_epe_mean_vox": "vox"}


def _import_program():
    src = ROOT / "src"
    if not (src / "protoreg" / "__init__.py").is_file():
        sys.exit(f"bench: no protoreg sources under {src}")
    sys.path.insert(0, str(src))
    import protoreg
    import protoreg.cli  # noqa: F401  (binds protoreg.cli)
    if Path(protoreg.__file__).resolve().parent != (src / "protoreg").resolve():
        sys.exit(f"bench: imported protoreg from {protoreg.__file__}, not {src}")
    return protoreg


def _end_to_end(setup_times, ops):
    ok = [r for r in ops if r.quality]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "pair_s": (statistics.median(r.seconds for r in ops), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    for name, unit in QUALITY_UNITS.items():
        value = statistics.fmean(r.quality[name] for r in ok) if ok else 0.0
        metrics[name] = (value, unit)
    return metrics


def _per_layer(tracer, ops):
    n = len(ops)
    tot, by_size = tracer.totals()

    def calls(name):
        return tot[name][0]

    def secs(name):
        return tot[name][1]

    def ns_per_point_at_finest(name):
        sizes = by_size.get(name)
        if not sizes:
            return 0.0
        points = max(sizes)
        c, s = sizes[points]
        return 1e9 * s / (c * points) if points else 0.0

    iterations = sum(r.iterations for r in ops)
    m = {
        "traced.pair_s": (statistics.median(r.seconds for r in ops), "s"),
        "engine.rigid_align_s": (secs("engine.rigid_align") / n, "s"),
        "engine.rigid_objective_evals": (calls("engine.resample_rigid") / n, "count"),
        "engine.resample_rigid_ms_per_call": (
            1e3 * secs("engine.resample_rigid") / calls("engine.resample_rigid")
            if calls("engine.resample_rigid") else 0.0, "ms"),
        "engine.register_s": (secs("engine.register") / n, "s"),
    }
    for lv in range(1, LEVELS + 1):
        m[f"engine.level_{lv}_s"] = (
            sum(r.levels.get(f"level_{lv}", 0.0) for r in ops) / n, "s")
    m["engine.iterations"] = (iterations / n, "count")
    m["engine.loss_evals_per_iteration"] = (
        calls("similarity.total_loss") / iterations if iterations else 0.0, "count")
    for name in ("total_loss", "loss_gradient"):
        key = f"similarity.{name}"
        m[f"{key}_calls"] = (calls(key) / n, "count")
        m[f"{key}_s"] = (secs(key) / n, "s")
        m[f"{key}_ns_per_voxel"] = (ns_per_point_at_finest(key), "ns")
    m["volgrid.build_pyramid_s"] = (secs("volgrid.build_pyramid") / n, "s")
    m["volgrid.upsample_field_s"] = (secs("volgrid.upsample_field") / n, "s")
    m["volgrid.sampled_points"] = (sum(t[2] for t in tot.values()) / n, "count")
    for name in ("anatomy_map", "risk_map", "gate"):
        m[f"priors.{name}_s"] = (secs(f"priors.{name}") / n, "s")
    m["priors.gate_calls"] = (calls("priors.gate") / n, "count")
    m["condition.film_s"] = (secs("condition.film") / n, "s")
    m["io.read_volume_s"] = (secs("io.read_volume") / n, "s")
    m["io.write_volume_s"] = (secs("io.write_volume") / n, "s")
    m["metrics.fold_fraction_s"] = (secs("metrics.fold_fraction") / n, "s")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True, help="a non-negative integer")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    pr = _import_program()
    sys.path.insert(0, str(HERE))
    import checks
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    prepare, run_round, per_round = workloads.WORKLOADS[args.workload]
    checks.selftest()

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work")
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            state = prepare(pr, args.seed, work_dir)
            setup_times.append(time.perf_counter() - t0)

        tracer = Tracer(pr)
        ops = []
        rounds = failed = 0
        start = time.perf_counter()
        while True:
            rounds += 1
            try:
                if args.trace:
                    with tracer:
                        done = run_round(pr, state, work_dir)
                else:
                    done = run_round(pr, state, work_dir)
            except Exception:  # a crash fails the whole round and ends the run
                traceback.print_exc()
                failed += per_round
                break
            for r in done:
                quality = " ".join(f"{k} {v:.4f}" for k, v in r.quality.items())
                print(f"bench: {args.workload}: {r.seconds:.3f} s, "
                      f"{r.iterations} iterations, {quality}", file=sys.stderr)
                for msg in r.failures:
                    print(f"bench: {args.workload}: FAILED {msg}", file=sys.stderr)
            failed += sum(1 for r in done if r.failures)
            ops.extend(done)
            if time.perf_counter() - start >= args.seconds:
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".bench_work").rmdir()

    attempted = rounds * per_round
    if ops:
        metrics = _per_layer(tracer, ops) if args.trace else _end_to_end(setup_times, ops)
    else:
        metrics = {}
    result = {"correct": failed == 0 and bool(ops), "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}

    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n")
    if args.trace:
        tracer.dump(out / f"{stem}-spans.json")
    print(f"{args.workload}: {len(ops)} operations, {failed} failed", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
