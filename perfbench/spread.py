"""Run every workload N times and print each end-to-end metric's spread.

    python3 perfbench/spread.py --runs 10 [--seed-base 1]

Run from the repository root.  Every run uses ``BENCHMARK.json``'s
``run_seconds``, the run length its bounds rest on.  Round ``r`` runs
every workload in ``BENCHMARK.json`` once with seed ``seed-base + r``; odd rounds run the workloads in reverse order, so
a slow spell of the host does not always land on the same workload.  For
each end-to-end metric the table gives the median, the quartiles
(``statistics.quantiles(n=4)``), the quartile spread and the max/min
spread as shares of the median, and the metric's bound from
``BENCHMARK.json``; ``ok`` marks a quartile spread below a third of the
bound, ``WIDE`` one at or above it: a change of less than about three
such spreads is not resolved by one set of runs.  Raw results land in ``perfbench/_out/spread-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread_table(results: dict[str, list[dict]], bench: dict) -> str:
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    lines = [
        f"{'workload':<18}{'metric':<18}{'median':>12}{'q1':>12}{'q3':>12}"
        f"{'iqr%':>7}{'max/min%':>9}{'bound%':>8}  ok"
    ]
    for workload, runs in results.items():
        shares = {r["failed"] / r["attempted"] for r in runs}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _q2, q3 = statistics.quantiles(values, n=4)
            iqr = (q3 - q1) / med if med else float("inf")
            maxmin = (max(values) - min(values)) / med if med else float("inf")
            lines.append(
                f"{workload:<18}{name:<18}{med:>12.4g}{q1:>12.4g}{q3:>12.4g}"
                f"{100 * iqr:>7.1f}{100 * maxmin:>9.1f}{100 * bound:>8.0f}  "
                f"{'ok' if iqr < bound / 3 else 'WIDE'}"
            )
        correct = all(r["correct"] for r in runs)
        lines.append(f"{workload:<18}failed shares {sorted(shares)}, all correct: {correct}")
    return "\n".join(lines)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    args = parser.parse_args()
    workloads = [w["name"] for w in bench["workloads"]]
    results: dict[str, list[dict]] = {w: [] for w in workloads}
    started = time.time()
    for r in range(args.runs):
        order = workloads if r % 2 == 0 else workloads[::-1]
        for workload in order:
            result = run_once(workload, args.seed_base + r, bench["run_seconds"])
            results[workload].append(result)
            print(f"[{time.time() - started:7.1f}s] {workload} seed {args.seed_base + r}: "
                  + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
    out = HERE / "_out" / f"spread-{int(started)}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1))
    print(spread_table(results, bench))
    return 0


if __name__ == "__main__":
    sys.exit(main())
