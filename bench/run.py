"""hitchin-forge benchmark.

    python3 bench/run.py --workload closure-modp --seed 1 --seconds 42 --trace 0

Runs the fixed task list of one workload in fresh child interpreters
("rounds"), one after another, for about ``--seconds`` seconds; every
round builds its seeded inputs again, so process caches start cold as they
do for a CLI user.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` rounds alternate untraced and
traced and the last line carries the per-layer metrics.  Latencies are
seconds at a reference speed, read off a speed probe that a timer runs
inside every child (see ``SpeedSampler``).  The full record
(metadata, every metric with its unit and sample count, failures, the
per-name trace table) goes to ``bench/out/``; spans of traced rounds go
there as JSON lines.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
from bisect import bisect_left
from collections import defaultdict
from math import ceil
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
CHILD_TIMEOUT_S = 170
MIN_ROUNDS = 2     # untraced rounds of an untraced run
MIN_SETUPS = 3
TICK_EVERY_S = 0.01
TICK_REF_S = 6e-6  # tick_probe() on the tuning machine at its fastest
MIN_TICKS = 8

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "task_p50_ms": "ms",
    "task_p90_ms": "ms",
    "task_max_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "ratio",
}


def per_layer_units() -> dict[str, str]:
    from tracer import LAYERS, TIMED_NAMES
    units = {}
    for name in TIMED_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.calls_per_s"] = "1/s"
    units.update({
        "exactnum.FieldElem.objects": "count",
        "modp.FqElem.objects": "count",
        "qforms.oracle_cache.hit_ratio": "ratio",
        "quatalg.gamma_enumerate.elements": "count",
        "lattices.containment.checked": "count",
        "modp.closure.elements": "count",
        "modp.closure.products": "count-computed",
        "modp.closure.useful_ratio": "ratio",
        "modp.closure.elements_per_s": "1/s",
        "cli.stdout_bytes": "count",
    })
    for layer in LAYERS:
        units[f"{layer}.errors"] = "count"
    units["trace.overhead_ratio"] = "ratio"
    return units


# -- child: one round in a fresh interpreter --------------------------------


def tick_probe() -> None:
    """A short fixed pure-Python kernel (integer arithmetic, tuple hashing,
    set insertion); it uses no part of hitchinforge."""
    x, seen = 1, set()
    for i in range(40):
        x = (x * 31 + i) % 1000003
        seen.add((x % 97, x % 89))


class SpeedSampler:
    """Times tick_probe() from a wall-clock timer signal every
    TICK_EVERY_S seconds while a child runs.

    The probe shares the core with the tasks, so the probes inside and
    around a task show how fast the machine ran while the task did: on the
    shared machine this benchmark was tuned on, speed swings by up to
    70 % within seconds.  If the machine runs at 1/s(t) of its reference
    speed, a probe at time t takes TICK_REF_S * s(t), and a task's work in
    reference seconds is its net time over s averaged harmonically, which
    is what reference_s() computes from the probes."""

    def __init__(self):
        self.at: list[float] = []      # probe start times
        self.took: list[float] = []    # probe durations
        self.cost: list[float] = []    # handler durations, probes included

    def _tick(self, signum, frame):
        t0 = perf_counter()
        tick_probe()                   # cold pass after the interrupt
        t1 = perf_counter()
        tick_probe()
        t2 = perf_counter()
        self.at.append(t0)
        self.took.append(t2 - t1)
        self.cost.append(perf_counter() - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_EVERY_S, TICK_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def reference_s(self, t0: float, t1: float) -> float:
        """Seconds at the reference speed for the window [t0, t1): its time
        less the handlers' time, scaled by the probes inside it (the
        MIN_TICKS nearest ones for a short window)."""
        lo = bisect_left(self.at, t0)
        hi = bisect_left(self.at, t1)
        net = (t1 - t0) - sum(self.cost[lo:hi])
        while hi - lo < MIN_TICKS and (lo > 0 or hi < len(self.at)):
            left = t0 - self.at[lo - 1] if lo > 0 else float("inf")
            right = self.at[hi] - t1 if hi < len(self.at) else float("inf")
            if left <= right:
                lo -= 1
            else:
                hi += 1
        took = self.took[lo:hi]
        return net * TICK_REF_S * sum(1 / d for d in took) / len(took)


def spread_order(tasks: list) -> list:
    """The tasks reordered so that each group of like tasks (ids equal up
    to a trailing index; all other tasks form one group) is spread evenly
    through the round, keeping the order within a group.  The machine's
    speed drifts within seconds, so a group run back to back could sample
    a single moment."""
    groups: dict[str, list] = defaultdict(list)
    for task in tasks:
        prefix, _, last = task.id.rpartition(".")
        groups[prefix if last.isdigit() else ""].append(task)
    keyed = [((i + 0.5) / len(group), g, i, task)
             for g, group in enumerate(groups.values())
             for i, task in enumerate(group)]
    return [task for *_, task in sorted(keyed, key=lambda k: k[:3])]


def child_round(workload: str, seed: int, tiny: bool, trace: bool,
                spans_path: str, setup_only: bool) -> dict:
    """Build the seeded inputs, run every task once and report timings,
    failures and (when traced) the tracer's tables."""
    sampler = SpeedSampler()
    sampler.start()
    start = perf_counter()
    sys.path.insert(0, str(SRC))
    import hitchinforge
    import workloads
    from tracer import Tracer

    if Path(hitchinforge.__file__).resolve().parent != SRC / "hitchinforge":
        raise RuntimeError(f"imported hitchinforge from {hitchinforge.__file__}")
    counters: dict = defaultdict(int)
    tasks = spread_order(workloads.WORKLOADS[workload](
        random.Random(f"{workload}/{seed}"), tiny, counters))
    begin = perf_counter()
    if setup_only:
        sampler.stop()
        return {"setup_s": sampler.reference_s(start, begin)}

    tracer = Tracer()
    if trace:
        tracer.install()
    results = []
    windows = []
    try:
        for task in tasks:
            t0 = perf_counter()
            try:
                ok = bool(tracer.task(task.id, task.fn) if trace else task.fn())
                error = None if ok else "check failed"
            except Exception as exc:    # a failing task never aborts the round
                ok, error = False, f"{type(exc).__name__}: {exc}"
            windows.append((t0, perf_counter()))
            results.append([task.id, ok, error])
        end = perf_counter()
    finally:
        sampler.stop()
        patched = tracer.patched()
        tracer.restore()
    restored = all(vars(owner)[attr] is original for owner, attr, original in patched)
    report = {
        "setup_s": sampler.reference_s(start, begin),
        "raw_wall_s": end - begin,
        # [id, seconds at the reference speed, passed, error]
        "tasks": [[tid, sampler.reference_s(t0, t1), ok, error]
                  for (tid, ok, error), (t0, t1) in zip(results, windows)],
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ticks": len(sampler.at),
        "fastest_tick_s": min(sampler.took),
        "stdout_bytes": counters["cli.stdout_bytes"],
    }
    if trace:
        from hitchinforge import qforms
        cache = getattr(qforms, "_oracle_cached", None)
        info = cache.cache_info() if cache is not None else None
        report["trace"] = {
            "calls": dict(tracer.calls),
            "self_s": dict(tracer.self_s),
            "total_s": dict(tracer.total_s),
            "counters": dict(tracer.counters),
            "errors": tracer.errors,
            "oracle_hits": info.hits if info else 0,
            "oracle_misses": info.misses if info else 0,
            "patched": len(patched),
            "restored": restored,
        }
        with open(spans_path, "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    return report


# -- parent: rounds, aggregation, output --------------------------------------


def run_round(args, index: int, trace: bool, setup_only: bool = False) -> dict:
    spans = OUT / f"spans-{args.workload}-seed{args.seed}-round{index}.jsonl"
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, "--trace", str(int(trace)),
           "--spans", str(spans)] + (["--setup-only"] if setup_only else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"round {index} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, ceil(q * len(sorted_values)) - 1)]


def task_latencies(rounds: list[dict]) -> dict[str, float]:
    """Each task's median latency over the rounds, in seconds at the
    reference speed (see SpeedSampler)."""
    seen: dict[str, list[float]] = defaultdict(list)
    for r in rounds:
        for tid, seconds, *_ in r["tasks"]:
            seen[tid].append(seconds)
    return {tid: statistics.median(v) for tid, v in seen.items()}


def end_to_end(rounds: list[dict], setups: list[float]) -> tuple[dict, dict]:
    latencies = sorted(task_latencies(rounds).values())
    n = len(latencies)
    attempted = sum(len(r["tasks"]) for r in rounds)
    passed = sum(t[2] for r in rounds for t in r["tasks"])
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(latencies),
        "task_p50_ms": 1000 * percentile(latencies, 0.50),
        "task_p90_ms": 1000 * percentile(latencies, 0.90),
        "task_max_s": latencies[-1],
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in rounds),
        "pass_frac": passed / attempted,
    }
    samples = {
        "rounds": len(rounds), "setups": len(setups), "tasks": n,
        "task_p50_ms.beyond": n - ceil(0.50 * n), "task_p90_ms.beyond": n - ceil(0.90 * n),
        "attempted": attempted,
    }
    return values, samples


def per_layer(traced: list[dict], untraced: list[dict]) -> tuple[dict, dict]:
    from tracer import LAYERS, TIMED_NAMES

    def med(fn):
        return statistics.median(fn(r["trace"]) for r in traced)

    last = traced[-1]["trace"]
    values = {}
    for name in TIMED_NAMES:
        values[f"{name}.calls"] = last["calls"].get(name, 0)
        values[f"{name}.calls_per_s"] = med(
            lambda t: t["calls"].get(name, 0) / t["self_s"][name]
            if t["self_s"].get(name) else 0.0)
    counters = last["counters"]
    elements = counters.get("modp.closure.elements", 0)
    products = counters.get("modp.closure.products", 0)
    lookups = last["oracle_hits"] + last["oracle_misses"]
    values.update({
        "exactnum.FieldElem.objects": counters.get("exactnum.FieldElem.objects", 0),
        "modp.FqElem.objects": counters.get("modp.FqElem.objects", 0),
        "qforms.oracle_cache.hit_ratio": last["oracle_hits"] / lookups if lookups else 0.0,
        "quatalg.gamma_enumerate.elements": counters.get("quatalg.gamma_enumerate.elements", 0),
        "lattices.containment.checked": counters.get("lattices.containment.checked", 0),
        "modp.closure.elements": elements,
        "modp.closure.products": products,
        "modp.closure.useful_ratio": elements / products if products else 0.0,
        "modp.closure.elements_per_s": med(
            lambda t: t["counters"].get("modp.closure.elements", 0) / t["total_s"]["modp.closure"]
            if t["total_s"].get("modp.closure") else 0.0),
        "cli.stdout_bytes": traced[-1]["stdout_bytes"],
    })
    for layer in LAYERS:
        values[f"{layer}.errors"] = last["errors"][layer]
    values["trace.overhead_ratio"] = (sum(task_latencies(traced).values())
                                      / sum(task_latencies(untraced).values()))
    table = {name: {"calls": last["calls"].get(name, 0),
                    "self_s": last["self_s"].get(name, 0.0),
                    "total_s": last["total_s"].get(name, 0.0)}
             for name in TIMED_NAMES}
    return values, table


def metadata(args, rounds: list[dict]) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    return {
        "workload": args.workload,
        "why": why.get(args.workload, ""),
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "commit": commit or "unknown",
        "nproc": os.cpu_count(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
        "tasks_per_round": len(rounds[0]["tasks"]),
        "rounds": len(rounds),
    }


def parent(args) -> int:
    expected = json.loads((BENCH / "expected.json").read_text())
    OUT.mkdir(exist_ok=True)
    start = perf_counter()
    rounds: list[tuple[bool, dict]] = []
    longest = 0.0
    while True:
        trace = bool(args.trace) and len(rounds) % 2 == 1
        t0 = perf_counter()
        rounds.append((trace, run_round(args, len(rounds), trace)))
        longest = max(longest, perf_counter() - t0)
        kinds = [t for t, _ in rounds]
        enough = (kinds.count(True) and kinds.count(False) if args.trace
                  else len(kinds) >= MIN_ROUNDS)
        if enough and perf_counter() - start + longest > args.seconds:
            break
    untraced = [r for t, r in rounds if not t]
    traced = [r for t, r in rounds if t]
    # set-up is timed at least MIN_SETUPS times, with set-up-only rounds
    # when the time allowed fewer full rounds
    setups = [r["setup_s"] for r in untraced]
    while not args.trace and len(setups) < MIN_SETUPS:
        setups.append(run_round(args, len(rounds) + len(setups), False, True)["setup_s"])
    all_rounds = untraced + traced
    failures = sorted({(t[0], t[3]) for r in all_rounds for t in r["tasks"] if not t[2]})
    known = expected["known_defects"].get(args.workload, {})
    correct = all(tid in known for tid, _ in failures)
    if traced:
        correct = correct and all(r["trace"]["restored"] for r in traced)

    e2e, samples = end_to_end(untraced, setups)
    e2e = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}
    layers = table = None
    if traced:
        values, table = per_layer(traced, untraced)
        units = per_layer_units()
        layers = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    record = {
        "metadata": metadata(args, all_rounds),
        "correct": correct,
        "failures": [{"task": tid, "error": err,
                      "known_defect": known.get(tid)} for tid, err in failures],
        "end_to_end": e2e,
        "samples": samples,
        "per_layer": layers,
        "trace_table": table,
        "rounds": [{"traced": t, "setup_s": r["setup_s"],
                    "wall_s": sum(task[1] for task in r["tasks"]),
                    "raw_wall_s": r["raw_wall_s"], "rss_mb": r["rss_mb"],
                    "ticks": r["ticks"], "fastest_tick_s": r["fastest_tick_s"]}
                   for t, r in rounds],
        "setups_s": setups,
        "task_s": task_latencies(untraced),
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for tid, err in failures:
        note = " (known defect)" if tid in known else ""
        print(f"FAILED {tid}: {err}{note}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": sum(len(r["tasks"]) for r in all_rounds),
        "failed": sum(not t[2] for r in all_rounds for t in r["tasks"]),
        "metrics": layers if args.trace else e2e,
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["closure-modp", "qfield-exact", "rational-forms"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=42)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full",
                    help="tiny shrinks every task list, for the self-test")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--spans", help=argparse.SUPPRESS)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "hitchinforge" / "__init__.py").is_file():
        print(f"error: no hitchinforge sources under {SRC}", file=sys.stderr)
        return 2
    if args.child:
        print(json.dumps(child_round(args.workload, args.seed, args.size == "tiny",
                                     bool(args.trace), args.spans, args.setup_only)))
        return 0
    return parent(args)


if __name__ == "__main__":
    sys.exit(main())
