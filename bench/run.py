"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload synth-universal --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --quick

A run is one process with one thread running a closed loop: one update
problem after another, in process, through the library's public API.  It does
whole rounds of its workload's operations, as many as fit ``--seconds`` at the
nominal round lengths below, so every run with the same ``--seconds`` does the
same operations.  After the timed part every answer is checked (see
``workloads.py``), and the last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are end to end: ``wall_s`` (the timed part),
``latency_p50_ms`` (median time to a verdict per operation), ``peak_rss_mb``
(peak resident memory of the process, read when the timed part ends) and
``setup_s`` (the median of ``SETUP_REPS`` set-ups, each a fresh import of
the library followed by loading, validating and model-checking the inputs).
With ``--trace 1`` the public functions of the library's layers are wrapped
(see ``layers.py``) and the metrics are per layer; spans go to
``bench/results/``.

``--quick`` runs the first operation of every workload with all its checks
and exits non-zero if one fails; it is the benchmark's own test.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import time

from checkout import RESULTS, pin_environment, use_checkout_sources

SETUP_REPS = 5
# Nominal length of one round, in seconds, on a 2-core x86-64 VM; a run does
# max(1, round(seconds / nominal)) rounds.
ROUND_SECONDS = {"synth-universal": 33.0, "check-universal": 27.0, "synth-finite": 45.0}


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(ROUND_SECONDS))
    ap.add_argument("--seed", type=int, default=1, help="seed of the checks' samples")
    ap.add_argument("--seconds", type=float, default=40.0, help="intended length of the timed part")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="one operation of each workload, checked")
    args = ap.parse_args(argv)
    if not args.quick and args.workload is None:
        ap.error("--workload is required unless --quick is given")
    return args


def import_library():
    """Import the library and the workloads afresh; returns ``workloads``."""
    for name in [m for m in sys.modules if m.split(".")[0] in ("liveupdate", "workloads")]:
        del sys.modules[name]
    import workloads

    return workloads


def set_up(workload: str):
    """``SETUP_REPS`` set-ups, each a fresh import followed by loading,
    validating and model-checking the inputs.  Returns the last set-up's
    operations and the (import, inputs) times of each set-up."""
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        workloads = import_library()
        t1 = time.perf_counter()
        ops = workloads.WORKLOADS[workload]()
        times.append((t1 - t0, time.perf_counter() - t1))
    return ops, times


def execute(ops) -> tuple[list, list[float]]:
    """Run every operation in order; an exception is kept as the outcome."""
    outcomes, latencies = [], []
    clock = time.perf_counter
    for op in ops:
        t0 = clock()
        try:
            outcome = (op.run(), None)
        except Exception as exc:  # noqa: BLE001 - a raising operation counts as failed
            outcome = (None, f"raised {exc!r}")
        latencies.append(clock() - t0)
        outcomes.append(outcome)
    return outcomes, latencies


def check(ops, outcomes, rng: random.Random) -> tuple[int, int, list[str]]:
    """(failed, wrong, reasons): failed counts raised, unknown and wrong
    answers; wrong counts the wrong answers alone."""
    failed = wrong = 0
    reasons = []
    for op, (value, error) in zip(ops, outcomes):
        if error is None:
            error = op.check(value, rng)
            if error is not None and error != "unknown":
                wrong += 1
        if error is not None:
            failed += 1
            reasons.append(f"{op.label}: {error}")
    return failed, wrong, reasons


def quick(seed: int) -> int:
    workloads = import_library()
    status = 0
    for name, build in workloads.WORKLOADS.items():
        t0 = time.perf_counter()
        op = build()[0]
        outcomes, _ = execute([op])
        failed, _, reasons = check([op], outcomes, random.Random(seed))
        status |= failed
        print(f"quick {name}: {op.label}: {'; '.join(reasons) or 'ok'} "
              f"({time.perf_counter() - t0:.1f}s)", flush=True)
    return 1 if status else 0


def main() -> int:
    args = parse_args()
    pin_environment()
    use_checkout_sources()
    if args.quick:
        return quick(args.seed)

    round_ops, setup_times = set_up(args.workload)
    setup_s = statistics.median(a + b for a, b in setup_times)
    load_s = statistics.median(b for _, b in setup_times)
    print("set-up (import + inputs):", " ".join(f"{a:.4f}+{b:.4f}" for a, b in setup_times),
          file=sys.stderr)
    tracer = None
    if args.trace:
        import layers
        from spans import Tracer

        tracer = Tracer()
        layers.instrument(tracer)
    ops = round_ops * max(1, round(args.seconds / ROUND_SECONDS[args.workload]))

    if tracer is not None:
        tracer.recording = True
    t_start = time.perf_counter()
    outcomes, latencies = execute(ops)
    t_end = time.perf_counter()
    if tracer is not None:
        tracer.recording = False
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    for op, seconds in zip(ops, latencies):
        print(f"{seconds:9.3f} s  {op.label}", file=sys.stderr)
    failed, wrong, reasons = check(ops, outcomes, random.Random(args.seed))
    for reason in reasons:
        print(f"failed: {reason}", file=sys.stderr)
    wall_s = t_end - t_start
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is None:
        metrics = {
            "wall_s": (wall_s, "s"),
            "latency_p50_ms": (statistics.median(latencies) * 1000, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (setup_s, "s"),
        }
    else:
        values = layers.per_layer_metrics(tracer, load_s)
        metrics = {name: (values[name], unit) for name, unit, _ in layers.PER_LAYER}
        by_layer = layers.layer_self_times(tracer)
        outside = wall_s - tracer.covered(t_start, t_end)
        for layer, s in sorted(by_layer.items(), key=lambda kv: -kv[1]):
            print(f"self {layer:12s} {s:9.3f} s", file=sys.stderr)
        print(f"self {'(outside)':12s} {outside:9.3f} s   sum {sum(by_layer.values()) + outside:.3f}"
              f" s   traced wall_s {wall_s:.3f} s", file=sys.stderr)
        tracer.write(RESULTS / f"trace-{stem}.json.gz", t_start, {
            "workload": args.workload, "seed": args.seed, "wall_s": wall_s,
            "layer_self_s": by_layer, "outside_s": outside,
            "operations": [op.label for op in ops], "latencies_s": latencies,
        })
    result = {
        "correct": wrong == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    line = json.dumps(result)
    (RESULTS / f"{stem}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
