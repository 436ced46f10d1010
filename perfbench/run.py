"""Run one partint benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweeps --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports partint from its
``src`` directory.  It repeats whole rounds of the workload until
``--seconds`` have passed (at least one round), checks every round's
outputs independently (see ``checks.py``), and prints the metrics, one
per line, then one JSON object as the last line.

``--trace 0`` gives the end-to-end metrics: ``norm_wall_s`` (median over
rounds of a round's wall time, rescaled to a reference speed of the
machine; see ``pace.py``), ``setup_s`` (median seconds for a fresh
interpreter to import partint and make the inputs) and ``peak_rss_mb``.
Raw round times are printed too.  ``--trace 1``
runs the rounds with spans around partint's public functions, writes
the spans to ``perfbench/out/trace-<workload>-seed<seed>.ldjson`` and
gives the per-layer metrics, each the median over rounds.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_REPEATS = 7
WORKLOADS = ("sweeps", "large-partition", "set-systems")


def import_partint() -> None:
    """Import partint from this checkout's ``src``, never from elsewhere."""
    init = os.path.join(SRC, "partint", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"no partint sources at {init}; run from a partint checkout")
    sys.path[:0] = [SRC, BENCH_DIR]
    import partint

    if os.path.abspath(partint.__file__) != init:
        sys.exit(f"imported partint from {partint.__file__}, not from {SRC}")


def setup_seconds(workload: str, seed: int) -> float:
    """Median time for a fresh interpreter to import partint and make the inputs."""
    code = (
        f"import sys; sys.path[:0] = {[SRC, BENCH_DIR]!r}; "
        f"import partint, workloads; workloads.make_inputs({workload!r}, {seed})"
    )
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import_partint()
    import pace
    import spans
    import workloads
    from checks import CheckFailed

    os.makedirs(OUT_DIR, exist_ok=True)
    setup_s = None if args.trace else setup_seconds(args.workload, args.seed)
    inputs = workloads.make_inputs(args.workload, args.seed)
    run_round = workloads.ROUNDS[args.workload]

    rounds, walls, paced, layer_rounds = [], [], [], []
    peak_rss_mb = None
    with spans.Probe(tracing=bool(args.trace)) as probe:
        begin = time.perf_counter()
        while not rounds or time.perf_counter() - begin < args.seconds:
            probe.kept.clear()
            if args.trace:
                first_span = len(probe.spans)
                with probe.span("round"):
                    done = run_round(inputs, probe, OUT_DIR)
                layer_rounds.append(spans.round_metrics(probe.spans[first_span:], done.rows))
            else:
                with pace.Pacer() as pacer:
                    start = time.perf_counter()
                    done = run_round(inputs, probe, OUT_DIR)
                    walls.append(time.perf_counter() - start)
                paced.append(pacer.rescale(walls[-1]))
            rounds.append(done)
            if peak_rss_mb is None:
                # After one round: later rounds would add the outputs kept for checking.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    correct = True
    cache: dict = {}
    try:
        for done in rounds:
            workloads.CHECKS[args.workload](inputs, done.outputs, cache)
    except CheckFailed as exc:
        correct = False
        print(f"check failed: {exc}", file=sys.stderr)

    if args.trace:
        probe.dump(os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.ldjson"))
        values = spans.median_metrics(layer_rounds)
    else:
        values = {"norm_wall_s": statistics.median(paced), "setup_s": setup_s,
                  "peak_rss_mb": peak_rss_mb}
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {
        "correct": correct,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }
    for name, metric in metrics.items():
        print(f"{name} {metric['value']} {metric['unit']}")
    if walls:
        print("round_s " + " ".join(f"{w:.3f}" for w in walls))
        print("norm_round_s " + " ".join(f"{w:.3f}" for w in paced))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
