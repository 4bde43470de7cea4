"""Self-test of the benchmark at a tiny size.

    python3 bench/selftest.py

Smoke-runs every workload untraced and traced and checks that every
metric named in BENCHMARK.json appears with its unit, that the failures
are exactly the recorded known defects, that the tracer puts every
original object back, and that two seeds give closure-modp the same
closure work.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

WORKLOADS = ("closure-modp", "qfield-exact", "rational-forms")


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """One tiny benchmark run: its result line and its full record."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(
        (BENCH / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def check_metrics_and_failures() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    known = json.loads((BENCH / "expected.json").read_text())["known_defects"]
    for workload in WORKLOADS:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result, record = run(workload, 1, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"], (workload, trace, record["failures"])
            want = {m["name"]: m["unit"] for m in listed}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            assert all(isinstance(v["value"], (int, float))
                       for v in result["metrics"].values())
            failed = {f["task"] for f in record["failures"]}
            assert failed == set(known.get(workload, {})), (workload, failed)
            rounds = len(record["rounds"])
            assert result["failed"] == rounds * len(failed), result
            print(f"ok  {workload} trace={trace}: {len(got)} metrics, "
                  f"{result['failed']}/{result['attempted']} failed (known defects)")


def namespace_snapshot() -> dict:
    """Every attribute of every hitchinforge module and class, by identity."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if name == "hitchinforge" or name.startswith("hitchinforge."):
            for attr, value in vars(mod).items():
                snap[(name, attr)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for member, obj in vars(value).items():
                        snap[(name, attr, member)] = obj
    return snap


def check_restore_and_seed_invariance() -> None:
    import workloads
    from tracer import Tracer

    before = namespace_snapshot()
    closure_work = []
    for name in WORKLOADS:
        for seed in (1, 2) if name == "closure-modp" else (1,):
            tracer = Tracer()
            tasks = workloads.WORKLOADS[name](
                random.Random(f"{name}/{seed}"), True, defaultdict(int))
            tracer.install()
            patched = tracer.patched()
            try:
                for task in tasks:
                    try:
                        tracer.task(task.id, task.fn)
                    except Exception:
                        pass
            finally:
                tracer.restore()
            assert patched and all(vars(owner)[attr] is original
                                   for owner, attr, original in patched)
            after = namespace_snapshot()
            assert after.keys() == before.keys()
            assert all(after[k] is before[k] for k in before), [
                k for k in before if after[k] is not before[k]]
            if name == "closure-modp":
                closure_work.append((tracer.counters["modp.closure.elements"],
                                     tracer.counters["modp.closure.products"]))
    assert closure_work[0] == closure_work[1] and closure_work[0][0] > 0, closure_work
    print(f"ok  tracer restores {len(patched)} bindings; closure-modp work "
          f"(elements, products) = {closure_work[0]} for seeds 1 and 2")


if __name__ == "__main__":
    check_metrics_and_failures()
    check_restore_and_seed_invariance()
    print("selftest passed")
