"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload voter_tcp --seed 1 --seconds 10 --trace 0

Run from the repository root.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs the workload twice, untraced then traced, and
prints the per-layer metrics, writing the span files and a per-layer table
to ``perfbench/_out/trace-<workload>-<seed>/``.  ``--small`` shrinks every
input for a quick functional run (the benchmark's own tests use it).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run that cannot
start (no program source next to the benchmark, an unknown workload)
exits with a non-zero code and prints no result.

The run pins itself, and so every thread and process it starts, to one
CPU.  On a two-vCPU host, unpinned runs of the same code moved by up to
30% from one run to the next (voter_cluster, voter_tcp), depending on how
quickly the host woke a worker process or the server's engine thread on
the other vCPU; pinned, they stay within a few percent.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("voter_tcp", "bikeshare_hybrid", "voter_cluster")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="shrink every input (functional check, not a measurement)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    from harness import END_TO_END, OUT_DIR, PER_LAYER, RunConfig, emit

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    cfg = RunConfig(args.workload, args.seed, args.seconds, bool(args.trace),
                    args.small, OUT_DIR)
    if args.workload == "voter_tcp":
        import voter_tcp as workload
    elif args.workload == "bikeshare_hybrid":
        import bikeshare_hybrid as workload
    else:
        import voter_cluster as workload
    sizes = workload.SMALL if args.small else workload.FULL
    print(f"{args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} small={args.small} cpu={cpu}")
    started = time.perf_counter()
    correct, tally, measured = workload.run(cfg, sizes)
    units = PER_LAYER if cfg.trace else END_TO_END
    metrics = {name: measured.get(name, 0.0) for name in units}
    if cfg.trace:
        from harness import calibrate_ms

        metrics["host.calib_ms"] = calibrate_ms()
    for name, unit in units.items():
        print(f"  {name:<30} {metrics[name]:>14.4f} {unit}")
    print(f"  attempted {tally.attempted}, failed {tally.failed}, correct {correct}, "
          f"wall {time.perf_counter() - started:.1f} s")
    for reason in tally.reasons:
        print(f"  failure: {reason}")
    emit(correct, tally, metrics, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
