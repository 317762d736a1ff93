"""Run one benchmark workload against the metadr sources and print its metrics.

    python3 bench/run.py --workload soak|dr-cycles|write-read|all \\
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the program from
``src/``. A run repeats fixed-size episodes (set-up, then the timed
calls) for at least ``--seconds`` seconds and checks every result.

Times are reported in reference seconds. A fixed reference job is
timed before and after every episode; each time measured in the
episode is scaled by REFERENCE_S over that job's time. On a shared
machine other tenants slow the program by a quarter or more for
stretches of many seconds, and the job slows with it, so scaled times
measure the program more than its neighbours. Raw seconds are printed
beside them.

With ``--trace 0`` it reports the end-to-end metrics named in
BENCHMARK.json, measured with no tracing. With ``--trace 1`` it
alternates untraced and traced episodes and reports the per-layer
metrics, medians over the traced episodes, plus the tracing overhead:
traced minus untraced episode time. Human-readable lines come first;
the last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0
when every check passed, 1 when one failed, 2 when the program or
BENCHMARK.json cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from random import Random
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NAMES = ("soak", "dr-cycles", "write-read")
MIN_EPISODES = 3
REFERENCE_ROUNDS = 600_000
REFERENCE_KEYS = 50_021
REFERENCE_S = 0.1  # one reference second: the job takes REFERENCE_S

# Per-operation latencies, printed for people but not gated: the gated
# end-to-end metrics in BENCHMARK.json must exist on every workload.
# (name, sample kinds pooled, quantile, unit, scale from seconds)
NAMED = {
    "soak": [("soak_s", ["soak"], 0.5, "s", 1.0)],
    "dr-cycles": [
        ("failover_meta_p50_ms", ["failover_meta"], 0.5, "ms", 1e3),
        ("failover_meta_p90_ms", ["failover_meta"], 0.9, "ms", 1e3),
        ("failback_meta_p50_ms", ["failback_meta"], 0.5, "ms", 1e3),
        ("failback_meta_p90_ms", ["failback_meta"], 0.9, "ms", 1e3),
        ("converge_p50_ms", ["converge"], 0.5, "ms", 1e3),
        ("converge_p90_ms", ["converge"], 0.9, "ms", 1e3),
        ("dr_hash_p50_ms", ["failover_hash", "failback_hash"], 0.5, "ms", 1e3),
        ("dr_hash_p90_ms", ["failover_hash", "failback_hash"], 0.9, "ms", 1e3),
    ],
    "write-read": [
        ("write_p50_us", ["write"], 0.5, "us", 1e6),
        ("write_p99_us", ["write"], 0.99, "us", 1e6),
        ("read_p50_us", ["read"], 0.5, "us", 1e6),
        ("read_p99_us", ["read"], 0.99, "us", 1e6),
    ],
}


def fail_setup(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def quantile(values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank quantile and the number of samples above its rank."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reference_s(table: dict[int, int]) -> float:
    """Time the fixed reference job: integer arithmetic, then random
    updates of `table`, a dict of REFERENCE_KEYS keys made once per run.

    The program slows more than pure arithmetic when a neighbour
    competes for memory; the dict part follows that. It allocates
    nothing, so it adds nothing to peak RSS beyond the table itself.
    """
    t0 = perf_counter()
    x = 0
    for i in range(REFERENCE_ROUNDS):
        x += i * i % 7
    for i in range(REFERENCE_ROUNDS // 4):
        table[i * 7919 % REFERENCE_KEYS] ^= 1
    return perf_counter() - t0


def run_episodes(name: str, seed: int, seconds: float, layers: list[str] | None):
    """Episodes until `seconds` have passed, and the reference table's RSS.

    With `layers`, the per-layer metrics to record, odd episodes are
    traced.
    """
    from spans import Tracer, layer_metrics
    from workloads import WORKLOADS, Episode

    seeds = Random(seed)
    traced = layers is not None
    # nothing has been freed yet, so the peak grows by what the table holds
    before_table = peak_rss_mb()
    table = dict.fromkeys(range(REFERENCE_KEYS), 0)
    table_mb = peak_rss_mb() - before_table
    tracer = Tracer() if traced else None
    episodes = []
    start = perf_counter()
    while True:
        # each episode draws its own inputs, so a run averages over many
        workload = WORKLOADS[name](seeds.randrange(2**31))
        ep = Episode()
        ep.traced = traced and len(episodes) % 2 == 1
        gc.collect()
        try:
            before = reference_s(table)
            t0 = perf_counter()
            state = workload.setup()
            ep.setup_s = perf_counter() - t0
            if ep.traced:
                ep.pause = tracer.paused
                with tracer:
                    outcome = workload.run(state, ep)
            else:
                outcome = workload.run(state, ep)
            workload.check(outcome, ep)
            del state, outcome
            ep.reference_s = (before + reference_s(table)) / 2
            if ep.traced:
                ep.layers = layer_metrics(tracer, layers, REFERENCE_S / ep.reference_s)
                ep.calls = {fn: span.calls for fn, span in tracer.spans.items()}
        except Exception:  # a failed call ends the run and is reported
            ep.breaches.append(traceback.format_exc())
        episodes.append(ep)
        if ep.breaches:
            break
        enough = len(episodes) >= (2 * MIN_EPISODES if traced else MIN_EPISODES)
        if enough and perf_counter() - start >= seconds:
            break
    return episodes, table_mb


def scaled(seconds: float, ep) -> float:
    return seconds * REFERENCE_S / ep.reference_s


def end_to_end(name: str, plain: list, table_mb: float) -> tuple[dict[str, float], list[str]]:
    metrics = {
        "setup_s": statistics.median(scaled(ep.setup_s, ep) for ep in plain),
        "episode_s": statistics.median(scaled(ep.busy_s, ep) for ep in plain),
        # the program's peak, without the reference job's table
        "peak_rss_mb": peak_rss_mb() - table_mb,
    }
    lines = [f"episodes {len(plain)}",
             f"{'reference table rss':<24} {table_mb:12.3f} MB  not in peak_rss_mb"]
    for label, values in (("raw setup_s", [ep.setup_s for ep in plain]),
                          ("raw episode_s", [ep.busy_s for ep in plain]),
                          ("raw reference_s", [ep.reference_s for ep in plain])):
        lines.append(f"{label:<24} {statistics.median(values):12.6f} s   median")
    for metric, kinds, q, unit, scale in NAMED[name]:
        values = [scaled(v, ep) for ep in plain for kind in kinds
                  for v in ep.samples.get(kind, [])]
        if not values:
            lines.append(f"{metric:<24} no samples")
            continue
        value, beyond = quantile(values, q)
        flag = "" if beyond >= 10 or q == 0.5 else "  (fewer than 10 samples beyond)"
        lines.append(f"{metric:<24} {value * scale:12.3f} {unit:<3} n={len(values)}"
                     f" beyond={beyond}{flag}")
    return metrics, lines


def per_layer(name: str, episodes: list) -> tuple[dict[str, float], list[str]]:
    from workloads import MUST_CALL

    traced = [ep for ep in episodes if ep.traced]
    plain = [ep for ep in episodes if not ep.traced]
    metrics = {key: statistics.median(ep.layers[key] for ep in traced)
               for key in traced[0].layers}
    untraced_s = statistics.median(scaled(ep.busy_s, ep) for ep in plain)
    traced_s = statistics.median(scaled(ep.busy_s, ep) for ep in traced)
    metrics.update({
        "tracing.untraced_episode_s": untraced_s,
        "tracing.traced_episode_s": traced_s,
        "tracing.overhead_s": traced_s - untraced_s,
        "tracing.overhead_ratio": (traced_s - untraced_s) / untraced_s,
    })
    breaches = [f"{name}: traced run never called {fn}" for fn in MUST_CALL[name]
                if not any(ep.calls.get(fn) for ep in traced)]
    return metrics, breaches


def emit(spec_metrics: list[dict], values: dict[str, float]) -> dict:
    missing = [m["name"] for m in spec_metrics if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics}


def run_one(args, spec: dict) -> int:
    layers = [m["name"] for m in spec["per_layer"] if not m["name"].startswith("tracing.")]
    episodes, table_mb = run_episodes(args.workload, args.seed, args.seconds,
                                      layers if args.trace else None)
    breaches = [b for ep in episodes for b in ep.breaches]
    attempted = max(1, sum(ep.attempted for ep in episodes))
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"python {platform.python_version()}  nproc {os.cpu_count()}")
    metrics: dict = {}
    if not breaches:
        if args.trace:
            values, must_call = per_layer(args.workload, episodes)
            breaches += must_call
            metrics = emit(spec["per_layer"], values)
        else:
            values, lines = end_to_end(args.workload, episodes, table_mb)
            print("\n".join(lines))
            metrics = emit(spec["end_to_end"], values)
        for key, m in metrics.items():
            print(f"{key:<44} {m['value']:16.6f} {m['unit']}")
    print(f"{'ops_failed_ratio':<44} {len(breaches) / attempted:16.6f} ratio "
          f"({len(breaches)} of {attempted})")
    for breach in breaches[:20]:
        print(f"FAILED: {breach}", file=sys.stderr)
    print(json.dumps({"correct": not breaches, "attempted": attempted,
                      "failed": len(breaches), "metrics": metrics}))
    return 0 if not breaches else 1


def run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS is its own."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        correct = correct and result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail_setup(f"{spec_path} not found")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "metadr" / "__init__.py").is_file():
        fail_setup(f"program sources not found under {SRC}")
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
