"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/steady.py --workload oracle --seeds 1-10 [--seconds 15] [--trace 0]

Runs ``run.py`` once per seed, one run at a time, appends every result
line to ``perfbench/out/runs.jsonl`` and prints, per metric, the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the distance
between them as a share of the median.  It does the same for the p90 of
operation times that ``run.py`` prints to standard error.  With
``--trace 1`` it also prints, from each run's spans, the traced operations
per second and every layer's share of the operations' time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from spans import COUNT_SPAN, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def traced_split(workload, seed, successes):
    """Traced ops/s and each span name's share of the operations' time."""
    tracer = Tracer()
    with open(os.path.join(HERE, "out", f"trace-{workload}-{seed}.json")) as fh:
        tracer.spans = json.load(fh)["spans"]
    op_s = sum(end - start for name, start, end, _, _ in tracer.spans if name == "op")
    shares = {name: t / op_s for name, t in tracer.self_times().items()}
    shares["(outside traced layers)"] = shares.pop("op")
    shares["(tracer counting)"] = shares.pop(COUNT_SPAN, 0.0)
    print(f"  traced ops_per_s {successes / op_s:.5g}; self-time shares:")
    for name, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"    {name:32s} {100 * share:6.2f}%")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, default=0)
    opts = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = opts.seconds or json.load(fh)["run_seconds"]
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    values, failed_shares = {}, set()
    for seed in opts.seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", opts.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(opts.trace)]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        record = {"workload": opts.workload, "seed": seed, "trace": opts.trace,
                  "wall_s": wall, **result}
        with open(os.path.join(HERE, "out", "runs.jsonl"), "a") as fh:
            fh.write(json.dumps(record) + "\n")
        failed_shares.add((result["failed"] / result["attempted"]) if result["attempted"] else None)
        print(f"seed {seed}: wall {wall:.1f}s correct {result['correct']} "
              f"attempted {result['attempted']} failed {result['failed']}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        for line in proc.stderr.splitlines():
            if line.startswith("op_p90_ms "):
                values.setdefault("op_p90_ms (reference)", []).append(float(line.split()[1]))
        if opts.trace:
            traced_split(opts.workload, seed, result["attempted"] - result["failed"])
    print(f"failed shares: {sorted(failed_shares)}")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:32s} median {med:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  spread {spread:.3f}")


if __name__ == "__main__":
    main()
