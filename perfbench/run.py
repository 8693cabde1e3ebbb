"""Run one workload of the wherecheck benchmark and print its metrics.

    python3 perfbench/run.py --workload table3 --seed 1 --seconds 10 --trace 0

The run repeats whole rounds of the workload until ``--seconds`` have passed
(at least one round), checks every result, and prints as its last line one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Times are in reference seconds (see ``pace.py``).
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the
package's functions with timing spans and reports the per-layer metrics.
Either way the result, and with tracing the spans, are also written to
``perfbench/out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
from pathlib import Path
from statistics import median, quantiles

from pace import Pace

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"
WORKLOADS = ("table3", "iobench-cap8", "randprog-sweep")
SETUP_REPEATS = 5
FRESH = ("wherecheck", "workloads", "witness_check")  # re-imported by every set-up
MODULES = ("cli", "compose", "modelgen", "oracle", "parser", "policy", "reach", "spds")


def set_up(workload: str, seed: int):
    """Import the package and the workload afresh, then load its inputs."""
    for name in [m for m in sys.modules if m.partition(".")[0] in FRESH]:
        del sys.modules[name]
    workloads = importlib.import_module("workloads")
    return workloads, workloads.load(workload, seed)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SOURCE / "wherecheck").is_dir():
        print(f"error: no wherecheck package under {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))

    with Pace() as pace:
        setup = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workloads, sources = set_up(args.workload, args.seed)
            setup.append((start, time.perf_counter()))

        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install({m: importlib.import_module(f"wherecheck.{m}") for m in MODULES})

        play = workloads.ROUNDS[args.workload]
        rounds, marks = [], []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < args.seconds:
            marks.append(len(tracer.spans) if tracer else 0)
            rounds.append(workloads.Round(tracer=tracer))
            play(sources, rounds[-1])
        marks.append(len(tracer.spans) if tracer else 0)

    correct = verify(rounds, workloads.KNOWN_FAILURES)
    if tracer:
        layers = [tracer.layer_metrics(a, b, pace.scaled) for a, b in zip(marks, marks[1:])]
        metrics = {k: (median(layer[k] for layer in layers), unit_of(k)) for k in layers[0]}
        metrics["trace.verdict_s"] = end_to_end(rounds, setup, pace.scaled)["verdict_s"]
        metrics.update((k, (v, "count")) for k, v in rounds[0].counters.values.items())
        walls = {"verdict_s": end_to_end(rounds, setup, wall)["verdict_s"][0]}
    else:
        metrics = end_to_end(rounds, setup, pace.scaled)
        walls = {k: v for k, (v, _) in end_to_end(rounds, setup, wall).items()}
    result = {
        "correct": correct,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(len(r.failures) for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    record = dict(result, workload=args.workload, seed=args.seed, rounds=len(rounds), wall=walls,
                  speed_quartiles=quantiles(pace.speeds, n=4))
    if tracer:
        record["spans"] = tracer.spans
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))
    print(f"rounds={len(rounds)} attempted={result['attempted']} failed={result['failed']}")
    print(json.dumps(result))
    return 0


def verify(rounds, known: set[str]) -> bool:
    """Print every failed operation; True if all are known faults and repeat exactly."""
    correct = True
    first = rounds[0]
    for name, reason in sorted(first.failures.items()):
        correct &= name in known
        print(f"FAILED {name} ({'known fault' if name in known else 'unexpected'}): {reason}")
    for later in rounds[1:]:
        if later.failures.keys() != first.failures.keys():
            correct = False
            print("FAILED: operations fail differently from round to round")
        if later.counters.values != first.counters.values:
            correct = False
            print("FAILED: the program's counters differ from round to round")
    return correct


def end_to_end(rounds, setup, clock) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics, with ``clock(a, b)`` as the length of an interval."""

    def per_round(intervals) -> float:
        return median(sum(clock(a, b) for a, b in getattr(r, intervals)) for r in rounds)

    return {
        "setup_s": (median(clock(a, b) for a, b in setup), "s"),
        "verdict_s": (per_round("verdict"), "s"),
        "level_p50_ms": (1000 * median(clock(a, b) for r in rounds for a, b in r.levels), "ms"),
        "witness_s": (per_round("witness"), "s"),
        "oracle_s": (per_round("oracle"), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def wall(a: float, b: float) -> float:
    return b - a


def unit_of(metric: str) -> str:
    return "s" if metric.endswith("_s") or metric.endswith(".s") else "count"


if __name__ == "__main__":
    sys.exit(main())
